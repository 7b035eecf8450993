"""Declarative experiment runner with deterministic, unit-checked configs.

Configs are JSON objects.  Every dB or dBm quantity must be declared in
the config's ``units`` block and is converted exactly once while
parsing; all computation downstream happens in watts and linear ratios.
Randomness is derived from the config seed through named spawn streams,
so adding sweep points never perturbs the draws of existing points.

Results come back as a :class:`ResultTable` that serializes to CSV or
JSON with byte-stable output for a fixed (config, seed, version).
"""

import csv
import hashlib
import io
import json
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .model import HardwareConfig, ModelValidityWarning, SignalSpec, build_model
from .montecarlo import (
    covariance_mismatch,
    empirical_cdf_distance,
    empirical_nmse,
    simulate_batch,
)
from .nmse import approx_nmse1, minmax_backoff, nmse_branches
from .precoding import (
    ChannelSpec,
    conventional_mrt,
    design_se,
    distortion_aware_curve,
    distortion_aware_mrt,
    mrt_ray_curve,
    optimal_precoder,
    perturbation_se,
)
from .units import dbm_to_watt, db_to_linear, linear_to_db, watt_to_dbm
from .version import __version__

__all__ = [
    "EXPERIMENT_KINDS",
    "ResultTable",
    "load_config",
    "config_digest",
    "run_experiment",
    "emit",
    "render",
]

_CASE_IDS = {"branch1_min": 1.0, "branch2_min": 2.0, "balanced": 3.0}
# Most points any count (range, phase, sample, channel) may ask for, checked before allocating.
_MAX_GRID = 10 ** 6


@dataclass
class ResultTable:
    """Columnar experiment output with per-column units and metadata."""

    names: list
    units: list
    rows: list
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.names) != len(self.units):
            raise ValueError("one unit per column required")
        clean = []
        for row in self.rows:
            row = [float(v) for v in row]
            if len(row) != len(self.names):
                raise ValueError("row width does not match the header")
            if not all(np.isfinite(v) for v in row):
                raise NumericalError("result table contains non-finite values")
            clean.append(row)
        self.rows = clean

    def column(self, name: str) -> np.ndarray:
        try:
            i = self.names.index(name)
        except ValueError:
            raise KeyError("no column named %r" % name) from None
        return np.array([row[i] for row in self.rows])


def config_digest(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


_REQUIRED = object()

# The config paths a ``units`` block may name: every field the runners
# convert.  The set is shared by all experiment kinds, so that one units
# block can serve every kind.
_UNIT_PATHS = frozenset({
    "hardware.gain2", "hardware.crosstalk2", "hardware.noise",
    "channel.sigma_n2", "channel_distribution.sigma_n2",
    "p_x_points", "sweep.p_x", "sweep.gain2", "sweep.crosstalk2",
})


def _get(section, path, default=_REQUIRED, read=None):
    """The field ``path`` ("section.key", or "key" at the top level).

    ``read(value, path)``, when given, checks and converts the value.
    """
    where, _, key = path.rpartition(".")
    if key in section:
        value = section[key]
    elif default is _REQUIRED:
        raise ConfigError("missing %r in %s" % (key, where or "config"))
    else:
        value = default
    return value if read is None else read(value, path)


def _object(obj, allowed, where):
    """``obj``, which must be an object holding only ``allowed`` keys."""
    if not isinstance(obj, dict):
        raise ConfigError("%s must be an object" % where)
    extra = set(obj) - set(allowed)
    if extra:
        raise ConfigError("unknown keys %s in %s" % (sorted(extra, key=str), where))
    return obj


def _section(cfg, key, allowed):
    return _object(_get(cfg, key), allowed, key)


class _Units:
    """The single dB/dBm-to-linear conversion boundary."""

    _ALLOWED = {"dB", "dBm", "linear", "watt"}

    def __init__(self, block):
        self.block = _object({} if block is None else block, _UNIT_PATHS, "units")
        for key, val in self.block.items():
            if not isinstance(val, str) or val not in self._ALLOWED:
                raise ConfigError(
                    "unit for %r must be one of %s" % (key, sorted(self._ALLOWED))
                )

    def power(self, value, path):
        """A power in watt; every power the configs carry must be positive."""
        value = _scalar(value, path)
        unit = self.block.get(path, "watt")
        if unit not in ("dBm", "watt"):
            raise ConfigError("%s carries %s; expected dBm or watt" % (path, unit))
        watt = float(dbm_to_watt(value)) if unit == "dBm" else value
        if not 0 < watt <= sys.float_info.max:
            raise ConfigError("%s must be a positive power" % path)
        return watt

    def ratio(self, value, path):
        value = _scalar(value, path)
        unit = self.block.get(path, "linear")
        if unit == "dB":
            return float(db_to_linear(value))
        if unit == "linear":
            return value
        raise ConfigError("%s carries %s; expected dB or linear" % (path, unit))


def _scalar(value, where):
    # The magnitude test also rejects NaN, infinities and integers too
    # large for a float.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError("%s must be a finite number" % where)
    return float(value)


def _pair(value, where, convert=_scalar):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError("%s must be a pair" % where)
    return [convert(v, where) for v in value]


def _complex(value, where):
    """A real number or an ``[re, im]`` pair."""
    if isinstance(value, (list, tuple)):
        return complex(*_pair(value, where))
    return complex(_scalar(value, where))


def _count(value, where):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError("%s must be a positive integer" % where)
    return value


def _grid_count(value, where):
    count = _count(value, where)
    if count > _MAX_GRID:
        raise ConfigError("%s must be at most %d" % (where, _MAX_GRID))
    return count


def _grid(section, path, convert, default=_REQUIRED):
    """A sweep axis: an explicit list or a {start, stop, count} range.

    ``convert(value, path)`` reads each point.  Ranges are spaced
    linearly in the declared unit, so a dBm range is logarithmic in watts.
    """
    obj = _get(section, path, default)
    if isinstance(obj, (list, tuple)):
        return np.array([convert(v, path) for v in obj])
    if not isinstance(obj, dict):
        raise ConfigError("%s must be a list or a range object" % path)
    _object(obj, ("start", "stop", "count"), path)
    start = _get(obj, path + ".start", read=_scalar)
    stop = _get(obj, path + ".stop", read=_scalar)
    count = _get(obj, path + ".count", read=_grid_count)
    return np.array([convert(v, path) for v in np.linspace(start, stop, count)])


def _magnitudes(squared):
    """Magnitudes from squared magnitudes, which must be non-negative."""
    if any(v < 0 for v in squared):
        raise ConfigError("squared magnitudes must be non-negative")
    return tuple(np.sqrt(v) for v in squared)


def _parse_hardware(cfg, units, compressive=False):
    """The hardware block; ``compressive`` requires both rho < 0 (the SE designs)."""
    hw = _section(cfg, "hardware", ("gain2", "crosstalk2", "crosstalk_phase", "rho", "noise"))
    gain2, kappa2 = (
        _pair(_get(hw, path), path, units.ratio)
        for path in ("hardware.gain2", "hardware.crosstalk2")
    )
    parts = {
        "gamma": _magnitudes(gain2),
        "kappa_abs": _magnitudes(kappa2),
        "kappa_phase": _get(hw, "hardware.crosstalk_phase", [0.0, 0.0], _pair),
        "rho": tuple(_get(hw, "hardware.rho", read=_pair)),
        "sigma_w2": _get(hw, "hardware.noise", read=units.power),
    }
    if compressive and not all(r < 0 for r in parts["rho"]):
        raise ConfigError("hardware.rho must be negative on both branches")
    # Checked here because an empty sweep builds no hardware at all; a
    # block that the sweep overrides is not worth a validity warning.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ModelValidityWarning)
        _build_hw(parts)
    return parts


def _build_hw(parts, kappa2=None, gain2=None) -> HardwareConfig:
    """The parsed hardware, with a sweep's squared crosstalk or gain on both branches."""
    gamma = parts["gamma"] if gain2 is None else _magnitudes((gain2, gain2))
    kappa_abs = parts["kappa_abs"] if kappa2 is None else _magnitudes((kappa2, kappa2))
    kappa = tuple(
        a * np.exp(1j * p) for a, p in zip(kappa_abs, parts["kappa_phase"])
    )
    try:
        return HardwareConfig(
            gamma=gamma, kappa=kappa, rho=parts["rho"], sigma_w2=parts["sigma_w2"]
        )
    except ValueError as exc:
        raise ConfigError("invalid hardware: %s" % exc) from exc


def _parse_signal(cfg):
    """Input statistics; each runner supplies the power."""
    sig = _section(cfg, "signal", ("beta", "xi"))
    try:
        return SignalSpec(
            p_x=1.0,
            beta=_get(sig, "signal.beta", 1.0, _scalar),
            xi=_get(sig, "signal.xi", 0.0, _complex),
        )
    except ValueError as exc:
        raise ConfigError("invalid signal: %s" % exc) from exc


def _parse_active_signal(cfg, user):
    """Input statistics for a runner that needs power on both branches."""
    sig = _parse_signal(cfg)
    if not sig.beta > 0:
        raise ConfigError("%s needs both branches active (signal.beta > 0)" % user)
    return sig


def _parse_channel_distribution(cfg, units):
    dist = _section(cfg, "channel_distribution", ("count", "sigma_n2"))
    count = _get(dist, "channel_distribution.count", read=_grid_count)
    return count, _get(dist, "channel_distribution.sigma_n2", read=units.power)


def _point_rng(seed, index):
    """Generator for Monte-Carlo point ``index`` (stream family 0)."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, index)))


def _draw_channels(seed, count):
    """Unit-variance circular Gaussian channels (stream family 1).

    The stream depends only on the seed, so the same channels back every
    sweep point of an experiment.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    return (rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))) / np.sqrt(2.0)


def _run_gaussian_validation(cfg, units, seed):
    hw = _build_hw(_parse_hardware(cfg, units))
    sig0 = _parse_signal(cfg)
    points = _grid(cfg, "p_x_points", units.power)
    if points.size == 0:
        raise ConfigError("p_x_points must not be empty")
    n = _get(cfg, "n_samples", read=_grid_count)
    rows = []
    for k, p in enumerate(points):
        sig = SignalSpec(p_x=float(p), beta=sig0.beta, xi=sig0.xi)
        batch = simulate_batch(hw, sig, n, _point_rng(seed, k))
        model = build_model(hw, sig)
        ks = empirical_cdf_distance(batch, model)
        rows.append([
            watt_to_dbm(p),
            # Zero crosstalk gives a gap of exactly 0; floored at -3076.5 dB.
            linear_to_db(max(covariance_mismatch(batch, hw), np.finfo(float).tiny)),
            ks[0, 0], ks[0, 1], ks[1, 0], ks[1, 1],
            batch.failure_rate,
        ])
    names = ["p_x", "covariance_nmse", "ks_u1_re", "ks_u1_im", "ks_u2_re", "ks_u2_im",
             "failure_rate"]
    col_units = ["dBm", "dB", "-", "-", "-", "-", "-"]
    return names, col_units, rows, {"n_samples": n}


def _run_nmse_sweep(cfg, units, seed):
    parts = _parse_hardware(cfg, units)
    sig0 = _parse_active_signal(cfg, "the NMSE sweep")
    sweep = _section(cfg, "sweep", ("p_x", "crosstalk2"))
    p_grid = _grid(sweep, "sweep.p_x", units.power)
    k_grid = _grid(sweep, "sweep.crosstalk2", units.ratio)
    n = _get(cfg, "n_samples", read=_grid_count)
    rows = []
    for i, k2 in enumerate(k_grid):
        hw = _build_hw(parts, kappa2=float(k2))
        for j, p in enumerate(p_grid):
            sig = SignalSpec(p_x=float(p), beta=sig0.beta, xi=sig0.xi)
            rep = nmse_branches(hw, sig)
            batch = simulate_batch(hw, sig, n, _point_rng(seed, i * p_grid.size + j))
            emp1, emp2 = empirical_nmse(batch, hw, sig)
            rows.append([
                linear_to_db(k2),
                watt_to_dbm(p),
                rep.nmse1_db,
                rep.nmse2_db,
                linear_to_db(emp1),
                linear_to_db(emp2),
                linear_to_db(approx_nmse1(hw, sig)),
            ])
    names = ["crosstalk2", "p_x", "nmse1_analytic", "nmse2_analytic",
             "nmse1_empirical", "nmse2_empirical", "nmse1_approx"]
    col_units = ["dB", "dBm", "dB", "dB", "dB", "dB", "dB"]
    return names, col_units, rows, {"n_samples": n}


def _run_backoff_vs_gain(cfg, units, seed):
    parts = _parse_hardware(cfg, units)
    sig0 = _parse_active_signal(cfg, "the back-off")
    sweep = _section(cfg, "sweep", ("gain2", "crosstalk2"))
    g_grid = _grid(sweep, "sweep.gain2", units.ratio)
    k_grid = _grid(sweep, "sweep.crosstalk2", units.ratio)
    rows = []
    for k2 in k_grid:
        for g2 in g_grid:
            hw = _build_hw(parts, kappa2=float(k2), gain2=float(g2))
            sol = minmax_backoff(hw, sig0)
            rows.append([
                linear_to_db(g2),
                linear_to_db(k2),
                watt_to_dbm(sol.p_x_opt),
                linear_to_db(sol.achieved),
                _CASE_IDS[sol.active_case],
            ])
    names = ["gain2", "crosstalk2", "p_x_opt", "worst_nmse", "active_case"]
    col_units = ["dB", "dB", "dBm", "dB", "-"]
    return names, col_units, rows, {}


def _parse_channel(cfg, units) -> ChannelSpec:
    ch = _section(cfg, "channel", ("h", "sigma_n2"))
    h_raw = _get(ch, "channel.h")
    if not isinstance(h_raw, (list, tuple)) or len(h_raw) != 2:
        raise ConfigError("channel.h must be a list of two [re, im] pairs")
    h = np.array([complex(*_pair(entry, "channel.h entry")) for entry in h_raw])
    sigma_n2 = _get(ch, "channel.sigma_n2", read=units.power)
    try:
        return ChannelSpec(h=h, sigma_n2=sigma_n2)
    except ValueError as exc:
        raise ConfigError("invalid channel: %s" % exc) from exc


def _optimum_meta(prefix, sol):
    return {prefix + "_se": sol.se, prefix + "_p_x_dbm": float(watt_to_dbm(sol.p_x))}


def _run_se_perturbation(cfg, units, seed):
    hw = _build_hw(_parse_hardware(cfg, units, compressive=True))
    channel = _parse_channel(cfg, units)
    phase_count = _get(cfg, "phase_count", 36, _grid_count)
    scales = _grid(cfg, "amp_scales", _scalar, {"start": 0.25, "stop": 3.0, "count": 12})
    sol = optimal_precoder(channel, hw)
    rows = []
    for theta in np.linspace(0.0, 2.0 * np.pi, phase_count, endpoint=False):
        rows.append([theta, 1.0, perturbation_se(sol, channel, hw, phase_shift=theta)])
    for s in scales:
        rows.append([0.0, s, perturbation_se(sol, channel, hw, amp_scale=float(s))])
    names = ["phase_shift", "amp_scale", "se"]
    col_units = ["rad", "-", "bit"]
    meta = dict(_optimum_meta("optimal", sol), optimal_provenance=sol.provenance)
    return names, col_units, rows, meta


def _run_se_mrt_sweep(cfg, units, seed):
    hw = _build_hw(_parse_hardware(cfg, units, compressive=True))
    channel = _parse_channel(cfg, units)
    p_grid = _grid(_section(cfg, "sweep", ("p_x",)), "sweep.p_x", units.power)
    se_conv = mrt_ray_curve(channel, hw, p_grid)
    _, p_da, se_da = distortion_aware_curve(channel, hw)
    order = np.argsort(p_da)
    se_da_on_grid = np.interp(p_grid, p_da[order], se_da[order])
    rows = [
        [watt_to_dbm(p), sc, sd]
        for p, sc, sd in zip(p_grid, se_conv, se_da_on_grid)
    ]
    meta = {}
    for prefix, design in (("optimal", optimal_precoder), ("conventional_opt", conventional_mrt),
                           ("distortion_aware_opt", distortion_aware_mrt)):
        meta.update(_optimum_meta(prefix, design(channel, hw)))
    names = ["p_x", "se_conventional", "se_distortion_aware"]
    col_units = ["dBm", "bit", "bit"]
    return names, col_units, rows, meta


def _run_se_average(cfg, units, seed):
    hw = _build_hw(_parse_hardware(cfg, units, compressive=True))
    count, sigma_n2 = _parse_channel_distribution(cfg, units)
    se = design_se(_draw_channels(seed, count), sigma_n2, hw)
    rows = [[float(i), *row] for i, row in enumerate(se)]
    names = ["channel_index", "se_optimal", "se_distortion_aware", "se_conventional"]
    col_units = ["-", "bit", "bit", "bit"]
    meta = {"n_channels": count}
    for k, name in enumerate(names[1:]):
        meta["mean_" + name] = float(np.mean(se[:, k]))
    return names, col_units, rows, meta


def _run_se_vs_crosstalk(cfg, units, seed):
    parts = _parse_hardware(cfg, units, compressive=True)
    count, sigma_n2 = _parse_channel_distribution(cfg, units)
    k_grid = _grid(_section(cfg, "sweep", ("crosstalk2",)), "sweep.crosstalk2", units.ratio)
    hws = [_build_hw(parts, kappa2=float(k2)) for k2 in k_grid]
    se = design_se(_draw_channels(seed, count), sigma_n2, hws)
    rows = [[linear_to_db(k2), *(float(np.mean(s[:, k])) for k in range(3))]
            for k2, s in zip(k_grid, se)]
    names = ["crosstalk2", "mean_se_optimal", "mean_se_distortion_aware", "mean_se_conventional"]
    col_units = ["dB", "bit", "bit", "bit"]
    return names, col_units, rows, {"n_channels": count}


_RUNNERS = {
    "gaussian-validation": (_run_gaussian_validation,
                            {"hardware", "signal", "p_x_points", "n_samples"}),
    "nmse-sweep": (_run_nmse_sweep, {"hardware", "signal", "sweep", "n_samples"}),
    "backoff-vs-gain": (_run_backoff_vs_gain, {"hardware", "signal", "sweep"}),
    "se-perturbation": (_run_se_perturbation, {"hardware", "channel", "phase_count", "amp_scales"}),
    "se-mrt-sweep": (_run_se_mrt_sweep, {"hardware", "channel", "sweep"}),
    "se-average": (_run_se_average, {"hardware", "channel_distribution"}),
    "se-vs-crosstalk": (_run_se_vs_crosstalk, {"hardware", "channel_distribution", "sweep"}),
}

EXPERIMENT_KINDS = tuple(_RUNNERS)

_COMMON_KEYS = {"experiment", "seed", "units", "output", "format"}


def run_experiment(config: dict, n_threads: int = 1, seed_override=None) -> ResultTable:
    """Run one experiment described by a parsed JSON config object.

    ``n_threads`` is checked but has no effect: Monte-Carlo chunks are
    solved one after another.
    """
    if not isinstance(config, dict):
        raise ConfigError("config must be an object")
    kind = config.get("experiment")
    if not isinstance(kind, str) or kind not in _RUNNERS:
        raise ConfigError(
            "unknown experiment %r; expected one of %s" % (kind, list(EXPERIMENT_KINDS))
        )
    runner, allowed = _RUNNERS[kind]
    _object(config, allowed | _COMMON_KEYS, "config")
    seed = config.get("seed", 0) if seed_override is None else seed_override
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    _count(n_threads, "thread count")
    units = _Units(config.get("units"))
    names, col_units, rows, extra_meta = runner(config, units, seed)
    metadata = {
        "experiment": kind,
        "config_sha256": config_digest(config),
        "seed": seed,
        "version": __version__,
    }
    metadata.update(extra_meta)
    return ResultTable(names=names, units=col_units, rows=rows, metadata=metadata)


def _format_float(v: float) -> str:
    return "%.17g" % v


def render(table: ResultTable, fmt: str) -> str:
    """Serialize a table to a CSV or JSON string.

    Output bytes depend only on the table contents, so a fixed config,
    seed and version always produces identical files.
    """
    if fmt == "csv":
        buf = io.StringIO()
        for key in sorted(table.metadata):
            buf.write("# %s=%s\r\n" % (key, table.metadata[key]))
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(
            ["%s [%s]" % (n, u) for n, u in zip(table.names, table.units)]
        )
        for row in table.rows:
            writer.writerow([_format_float(v) for v in row])
        return buf.getvalue()
    if fmt == "json":
        obj = {
            "metadata": table.metadata,
            "units": dict(zip(table.names, table.units)),
            "columns": {
                name: [row[i] for row in table.rows]
                for i, name in enumerate(table.names)
            },
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    raise ConfigError("unknown output format %r" % fmt)


def emit(table: ResultTable, fmt: str, path) -> None:
    """Write the serialized table to ``path`` (UTF-8, no BOM)."""
    text = render(table, fmt)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
