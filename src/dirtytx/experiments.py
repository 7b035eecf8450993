"""Declarative experiment runner with deterministic, unit-checked configs.

Configs are JSON objects.  Every dB or dBm quantity must be declared in
the config's ``units`` block and is converted exactly once while
parsing; all computation downstream happens in watts and linear ratios.
Randomness is derived from the config seed through named spawn streams,
so adding sweep points or changing thread counts never perturbs the
draws of existing points.

Results come back as a :class:`ResultTable` that serializes to CSV or
JSON with byte-stable output for a fixed (config, seed, version).
"""

import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .model import HardwareConfig, SignalSpec, build_model
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

EXPERIMENT_KINDS = (
    "gaussian-validation",
    "nmse-sweep",
    "backoff-vs-gain",
    "se-perturbation",
    "se-mrt-sweep",
    "se-average",
    "se-vs-crosstalk",
)

_CASE_IDS = {"branch1_min": 1.0, "branch2_min": 2.0, "balanced": 3.0}


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
    except OSError as exc:
        raise ConfigError("cannot read config: %s" % exc) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config is not valid JSON: %s" % exc) from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


class _Units:
    """The single dB/dBm-to-linear conversion boundary."""

    _ALLOWED = {"dB", "dBm", "linear", "watt"}

    def __init__(self, block):
        if block is None:
            block = {}
        if not isinstance(block, dict):
            raise ConfigError("units block must be an object")
        for key, val in block.items():
            if val not in self._ALLOWED:
                raise ConfigError(
                    "unit for %r must be one of %s" % (key, sorted(self._ALLOWED))
                )
        self.block = dict(block)

    def power(self, path, value):
        unit = self.block.get(path, "watt")
        if unit == "dBm":
            return float(dbm_to_watt(value))
        if unit == "watt":
            return float(value)
        raise ConfigError("%s carries %s; expected dBm or watt" % (path, unit))

    def ratio(self, path, value):
        unit = self.block.get(path, "linear")
        if unit == "dB":
            return float(db_to_linear(value))
        if unit == "linear":
            return float(value)
        raise ConfigError("%s carries %s; expected dB or linear" % (path, unit))


def _need(section, key, where):
    if key not in section:
        raise ConfigError("missing %r in %s" % (key, where))
    return section[key]


def _pair(value, where):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError("%s must be a pair" % where)
    return [_scalar(v, where) for v in value]


def _scalar(value, where):
    # The magnitude test also rejects NaN, infinities and integers too
    # large for a float.
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ConfigError("%s must be a finite number" % where)
    return float(value)


def _count(value, where):
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ConfigError("%s must be a positive integer" % where)
    return value


def _grid(obj, where, convert):
    """A sweep axis: an explicit list or a {start, stop, count} range.

    Ranges are spaced linearly in the declared unit, so a dBm range is
    logarithmic in watts.
    """
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return np.array([])
        return np.array([convert(_scalar(v, where)) for v in obj])
    if isinstance(obj, dict):
        extra = set(obj) - {"start", "stop", "count"}
        if extra:
            raise ConfigError("unknown keys %s in %s" % (sorted(extra), where))
        start = _scalar(_need(obj, "start", where), where + ".start")
        stop = _scalar(_need(obj, "stop", where), where + ".stop")
        count = _count(_need(obj, "count", where), where + ".count")
        return np.array([convert(v) for v in np.linspace(start, stop, count)])
    raise ConfigError("%s must be a list or a range object" % where)


def _parse_hardware(cfg, units):
    section = _need(cfg, "hardware", "config")
    if not isinstance(section, dict):
        raise ConfigError("hardware must be an object")
    extra = set(section) - {"gain2", "crosstalk2", "crosstalk_phase", "rho", "noise"}
    if extra:
        raise ConfigError("unknown hardware keys: %s" % sorted(extra))
    gain2 = [
        units.ratio("hardware.gain2", v)
        for v in _pair(_need(section, "gain2", "hardware"), "hardware.gain2")
    ]
    kap2 = [
        units.ratio("hardware.crosstalk2", v)
        for v in _pair(_need(section, "crosstalk2", "hardware"), "hardware.crosstalk2")
    ]
    phase = _pair(section.get("crosstalk_phase", [0.0, 0.0]), "hardware.crosstalk_phase")
    rho = _pair(_need(section, "rho", "hardware"), "hardware.rho")
    noise = units.power("hardware.noise", _scalar(_need(section, "noise", "hardware"), "hardware.noise"))
    if any(v < 0 for v in gain2) or any(v < 0 for v in kap2):
        raise ConfigError("squared magnitudes must be non-negative")
    return {
        "gamma": (np.sqrt(gain2[0]), np.sqrt(gain2[1])),
        "kappa_abs": (np.sqrt(kap2[0]), np.sqrt(kap2[1])),
        "kappa_phase": tuple(phase),
        "rho": tuple(rho),
        "sigma_w2": noise,
    }


def _build_hw(parts, kappa2_linear=None, gain2_linear=None) -> HardwareConfig:
    kappa_abs = parts["kappa_abs"]
    if kappa2_linear is not None:
        kappa_abs = (np.sqrt(kappa2_linear), np.sqrt(kappa2_linear))
    gamma = parts["gamma"]
    if gain2_linear is not None:
        gamma = (np.sqrt(gain2_linear), np.sqrt(gain2_linear))
    kappa = tuple(
        a * np.exp(1j * p) for a, p in zip(kappa_abs, parts["kappa_phase"])
    )
    try:
        return HardwareConfig(
            gamma=gamma, kappa=kappa, rho=parts["rho"], sigma_w2=parts["sigma_w2"]
        )
    except ValueError as exc:
        raise ConfigError("invalid hardware: %s" % exc) from exc


def _parse_signal(cfg, units, need_power):
    section = _need(cfg, "signal", "config")
    if not isinstance(section, dict):
        raise ConfigError("signal must be an object")
    extra = set(section) - {"beta", "xi", "p_x"}
    if extra:
        raise ConfigError("unknown signal keys: %s" % sorted(extra))
    beta = _scalar(section.get("beta", 1.0), "signal.beta")
    xi_raw = section.get("xi", 0.0)
    if isinstance(xi_raw, (list, tuple)):
        xi_pair = _pair(xi_raw, "signal.xi")
        xi = complex(xi_pair[0], xi_pair[1])
    else:
        xi = complex(_scalar(xi_raw, "signal.xi"))
    p_x = 1.0
    if need_power:
        p_x = units.power("signal.p_x", _scalar(_need(section, "p_x", "signal"), "signal.p_x"))
    elif "p_x" in section:
        p_x = units.power("signal.p_x", _scalar(section["p_x"], "signal.p_x"))
    try:
        return SignalSpec(p_x=p_x, beta=beta, xi=xi)
    except ValueError as exc:
        raise ConfigError("invalid signal: %s" % exc) from exc


def _parse_channel(cfg, units) -> ChannelSpec:
    section = _need(cfg, "channel", "config")
    if not isinstance(section, dict):
        raise ConfigError("channel must be an object")
    extra = set(section) - {"h", "sigma_n2"}
    if extra:
        raise ConfigError("unknown channel keys: %s" % sorted(extra))
    h_raw = _need(section, "h", "channel")
    if not isinstance(h_raw, (list, tuple)) or len(h_raw) < 1:
        raise ConfigError("channel.h must be a list of [re, im] pairs")
    h = np.array([complex(*_pair(entry, "channel.h entry")) for entry in h_raw])
    sigma_n2 = units.power(
        "channel.sigma_n2", _scalar(_need(section, "sigma_n2", "channel"), "channel.sigma_n2")
    )
    try:
        return ChannelSpec(h=h, sigma_n2=sigma_n2)
    except ValueError as exc:
        raise ConfigError("invalid channel: %s" % exc) from exc


def _parse_channel_distribution(cfg, units):
    section = _need(cfg, "channel_distribution", "config")
    if not isinstance(section, dict):
        raise ConfigError("channel_distribution must be an object")
    extra = set(section) - {"count", "sigma_n2"}
    if extra:
        raise ConfigError("unknown channel_distribution keys: %s" % sorted(extra))
    count = _count(_need(section, "count", "channel_distribution"), "channel_distribution.count")
    sigma_n2 = units.power(
        "channel_distribution.sigma_n2",
        _scalar(_need(section, "sigma_n2", "channel_distribution"), "channel_distribution.sigma_n2"),
    )
    return count, sigma_n2


def _parse_samples(cfg):
    return _count(_need(cfg, "n_samples", "config"), "n_samples")


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


def _run_gaussian_validation(cfg, units, seed, n_threads):
    hw = _build_hw(_parse_hardware(cfg, units))
    sig0 = _parse_signal(cfg, units, need_power=False)
    points = _grid(
        _need(cfg, "p_x_points", "config"),
        "p_x_points",
        lambda v: units.power("p_x_points", v),
    )
    if points.size == 0:
        raise ConfigError("p_x_points must not be empty")
    n = _parse_samples(cfg)
    rows = []
    for k, p in enumerate(points):
        sig = SignalSpec(p_x=float(p), beta=sig0.beta, xi=sig0.xi)
        batch = simulate_batch(hw, sig, n, _point_rng(seed, k), n_threads=n_threads)
        model = build_model(hw, sig)
        ks = empirical_cdf_distance(batch, model)
        rows.append([
            watt_to_dbm(p),
            linear_to_db(covariance_mismatch(batch, hw)),
            ks[0, 0], ks[0, 1], ks[1, 0], ks[1, 1],
            batch.failure_rate,
        ])
    names = ["p_x", "covariance_nmse", "ks_u1_re", "ks_u1_im", "ks_u2_re", "ks_u2_im", "failure_rate"]
    col_units = ["dBm", "dB", "-", "-", "-", "-", "-"]
    return names, col_units, rows, {"n_samples": n}


def _run_nmse_sweep(cfg, units, seed, n_threads):
    parts = _parse_hardware(cfg, units)
    sig0 = _parse_signal(cfg, units, need_power=False)
    sweep = _need(cfg, "sweep", "config")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep must be an object")
    extra = set(sweep) - {"p_x", "crosstalk2"}
    if extra:
        raise ConfigError("unknown sweep keys: %s" % sorted(extra))
    p_grid = _grid(_need(sweep, "p_x", "sweep"), "sweep.p_x", lambda v: units.power("sweep.p_x", v))
    k_grid = _grid(
        _need(sweep, "crosstalk2", "sweep"),
        "sweep.crosstalk2",
        lambda v: units.ratio("sweep.crosstalk2", v),
    )
    n = _parse_samples(cfg)
    rows = []
    for i, k2 in enumerate(k_grid):
        hw = _build_hw(parts, kappa2_linear=float(k2))
        for j, p in enumerate(p_grid):
            sig = SignalSpec(p_x=float(p), beta=sig0.beta, xi=sig0.xi)
            rep = nmse_branches(hw, sig)
            batch = simulate_batch(hw, sig, n, _point_rng(seed, i * p_grid.size + j), n_threads=n_threads)
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


def _run_backoff_vs_gain(cfg, units, seed, n_threads):
    parts = _parse_hardware(cfg, units)
    sig0 = _parse_signal(cfg, units, need_power=False)
    sweep = _need(cfg, "sweep", "config")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep must be an object")
    extra = set(sweep) - {"gain2", "crosstalk2"}
    if extra:
        raise ConfigError("unknown sweep keys: %s" % sorted(extra))
    g_grid = _grid(_need(sweep, "gain2", "sweep"), "sweep.gain2", lambda v: units.ratio("sweep.gain2", v))
    k_grid = _grid(
        _need(sweep, "crosstalk2", "sweep"),
        "sweep.crosstalk2",
        lambda v: units.ratio("sweep.crosstalk2", v),
    )
    rows = []
    for k2 in k_grid:
        for g2 in g_grid:
            hw = _build_hw(parts, kappa2_linear=float(k2), gain2_linear=float(g2))
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


def _channel_for_single(cfg, units, seed):
    if "channel" in cfg:
        return _parse_channel(cfg, units)
    count, sigma_n2 = _parse_channel_distribution(cfg, units)
    if count != 1:
        raise ConfigError("single-channel experiments need channel_distribution.count = 1")
    h = _draw_channels(seed, 1)[0]
    return ChannelSpec(h=h, sigma_n2=sigma_n2)


def _run_se_perturbation(cfg, units, seed, n_threads):
    hw = _build_hw(_parse_hardware(cfg, units))
    channel = _channel_for_single(cfg, units, seed)
    phase_count = _count(cfg.get("phase_count", 36), "phase_count")
    scales = _grid(
        cfg.get("amp_scales", {"start": 0.25, "stop": 3.0, "count": 12}),
        "amp_scales",
        float,
    )
    sol = optimal_precoder(channel, hw)
    rows = []
    for theta in np.linspace(0.0, 2.0 * np.pi, phase_count, endpoint=False):
        rows.append([theta, 1.0, perturbation_se(sol, channel, hw, phase_shift=theta)])
    for s in scales:
        rows.append([0.0, s, perturbation_se(sol, channel, hw, amp_scale=float(s))])
    names = ["phase_shift", "amp_scale", "se"]
    col_units = ["rad", "-", "bit"]
    meta = {
        "optimal_se": sol.se,
        "optimal_p_x_dbm": float(watt_to_dbm(sol.p_x)),
        "optimal_provenance": sol.provenance,
    }
    return names, col_units, rows, meta


def _run_se_mrt_sweep(cfg, units, seed, n_threads):
    hw = _build_hw(_parse_hardware(cfg, units))
    channel = _channel_for_single(cfg, units, seed)
    sweep = _need(cfg, "sweep", "config")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep must be an object")
    extra = set(sweep) - {"p_x"}
    if extra:
        raise ConfigError("unknown sweep keys: %s" % sorted(extra))
    p_grid = _grid(_need(sweep, "p_x", "sweep"), "sweep.p_x", lambda v: units.power("sweep.p_x", v))
    se_conv = mrt_ray_curve(channel, hw, p_grid)
    _, p_da, se_da = distortion_aware_curve(channel, hw)
    order = np.argsort(p_da)
    se_da_on_grid = np.interp(p_grid, p_da[order], se_da[order])
    rows = [
        [watt_to_dbm(p), sc, sd]
        for p, sc, sd in zip(p_grid, se_conv, se_da_on_grid)
    ]
    opt = optimal_precoder(channel, hw)
    conv = conventional_mrt(channel, hw)
    aware = distortion_aware_mrt(channel, hw)
    names = ["p_x", "se_conventional", "se_distortion_aware"]
    col_units = ["dBm", "bit", "bit"]
    meta = {
        "optimal_se": opt.se,
        "optimal_p_x_dbm": float(watt_to_dbm(opt.p_x)),
        "conventional_opt_se": conv.se,
        "conventional_opt_p_x_dbm": float(watt_to_dbm(conv.p_x)),
        "distortion_aware_opt_se": aware.se,
        "distortion_aware_opt_p_x_dbm": float(watt_to_dbm(aware.p_x)),
    }
    return names, col_units, rows, meta


def _run_se_average(cfg, units, seed, n_threads):
    hw = _build_hw(_parse_hardware(cfg, units))
    count, sigma_n2 = _parse_channel_distribution(cfg, units)
    channels = _draw_channels(seed, count)
    rows = []
    for i in range(count):
        channel = ChannelSpec(h=channels[i], sigma_n2=sigma_n2)
        rows.append([
            float(i),
            optimal_precoder(channel, hw).se,
            distortion_aware_mrt(channel, hw).se,
            conventional_mrt(channel, hw).se,
        ])
    arr = np.array(rows)
    names = ["channel_index", "se_optimal", "se_distortion_aware", "se_conventional"]
    col_units = ["-", "bit", "bit", "bit"]
    meta = {
        "n_channels": count,
        "mean_se_optimal": float(np.mean(arr[:, 1])),
        "mean_se_distortion_aware": float(np.mean(arr[:, 2])),
        "mean_se_conventional": float(np.mean(arr[:, 3])),
    }
    return names, col_units, rows, meta


def _run_se_vs_crosstalk(cfg, units, seed, n_threads):
    parts = _parse_hardware(cfg, units)
    count, sigma_n2 = _parse_channel_distribution(cfg, units)
    sweep = _need(cfg, "sweep", "config")
    if not isinstance(sweep, dict):
        raise ConfigError("sweep must be an object")
    extra = set(sweep) - {"crosstalk2"}
    if extra:
        raise ConfigError("unknown sweep keys: %s" % sorted(extra))
    k_grid = _grid(
        _need(sweep, "crosstalk2", "sweep"),
        "sweep.crosstalk2",
        lambda v: units.ratio("sweep.crosstalk2", v),
    )
    channels = _draw_channels(seed, count)
    rows = []
    for k2 in k_grid:
        hw = _build_hw(parts, kappa2_linear=float(k2))
        se_opt = np.empty(count)
        se_da = np.empty(count)
        se_conv = np.empty(count)
        for i in range(count):
            channel = ChannelSpec(h=channels[i], sigma_n2=sigma_n2)
            se_opt[i] = optimal_precoder(channel, hw).se
            se_da[i] = distortion_aware_mrt(channel, hw).se
            se_conv[i] = conventional_mrt(channel, hw).se
        rows.append([
            linear_to_db(k2),
            float(np.mean(se_opt)),
            float(np.mean(se_da)),
            float(np.mean(se_conv)),
        ])
    names = ["crosstalk2", "mean_se_optimal", "mean_se_distortion_aware", "mean_se_conventional"]
    col_units = ["dB", "bit", "bit", "bit"]
    return names, col_units, rows, {"n_channels": count}


_RUNNERS = {
    "gaussian-validation": (_run_gaussian_validation, {"hardware", "signal", "p_x_points", "n_samples"}),
    "nmse-sweep": (_run_nmse_sweep, {"hardware", "signal", "sweep", "n_samples"}),
    "backoff-vs-gain": (_run_backoff_vs_gain, {"hardware", "signal", "sweep"}),
    "se-perturbation": (_run_se_perturbation, {"hardware", "channel", "channel_distribution", "phase_count", "amp_scales"}),
    "se-mrt-sweep": (_run_se_mrt_sweep, {"hardware", "channel", "channel_distribution", "sweep"}),
    "se-average": (_run_se_average, {"hardware", "channel_distribution"}),
    "se-vs-crosstalk": (_run_se_vs_crosstalk, {"hardware", "channel_distribution", "sweep"}),
}

_COMMON_KEYS = {"experiment", "seed", "units", "output", "format"}


def run_experiment(config: dict, n_threads: int = 1, seed_override=None) -> ResultTable:
    """Run one experiment described by a parsed JSON config object."""
    if not isinstance(config, dict):
        raise ConfigError("config must be an object")
    kind = config.get("experiment")
    if kind not in _RUNNERS:
        raise ConfigError(
            "unknown experiment %r; expected one of %s" % (kind, list(EXPERIMENT_KINDS))
        )
    runner, allowed = _RUNNERS[kind]
    extra = set(config) - allowed - _COMMON_KEYS
    if extra:
        raise ConfigError("unknown config keys: %s" % sorted(extra))
    seed = config.get("seed", 0) if seed_override is None else seed_override
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    if not isinstance(n_threads, int) or n_threads < 1:
        raise ConfigError("thread count must be a positive integer")
    units = _Units(config.get("units"))
    names, col_units, rows, extra_meta = runner(config, units, seed, n_threads)
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
