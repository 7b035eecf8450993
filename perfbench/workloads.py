"""Operation lists for the three benchmark workloads.

Every workload is a list of :class:`Op` generated from the benchmark
seed.  The seed chooses values (hardware phases and compression, config
seeds, channels, powers); it never chooses how much work a pass holds,
so passes of different seeds take comparable time.  Each list starts
with a few anchor operations generated from the fixed seed
``ANCHOR_SEED``, whose closed-form outputs are compared with the values
recorded in ``reference.json``: one per kind of direct call, and one
per experiment kind and hardware class (symmetric or asymmetric).

The program only ever sees the generated configs and arrays, through
its public API: ``run_experiment`` + ``render`` for configs, and the
library functions for direct calls.  Calls go through attribute lookup
on the package (``dtx.name``) at call time, so the traced run can wrap
them.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WORKLOADS = ("se-channels", "mc-feedback", "small-calls")
ANCHOR_SEED = 20191217

# Worker threads passed to the experiments: mc-feedback runs at 2, the
# core count of the machine the first baseline was measured on; the
# other workloads never simulate.
N_THREADS = {"se-channels": 1, "mc-feedback": 2, "small-calls": 1}

# The percentile reported as ``op_tail_s``, fixed per workload so that
# runs of any length report the same percentile.  Each falls inside one
# cluster of similar operations (the biggest configs of the pass) rather
# than on the edge between two, where it would jump; the run makes
# enough passes to leave at least ten samples beyond it.
TAIL_PERCENTILE = {"se-channels": 90, "mc-feedback": 90, "small-calls": 99.85}

# The unit of ``work_per_s`` for each workload.
WORK_UNIT = {
    "se-channels": "channel x hardware points solved by all three designs",
    "mc-feedback": "feedback-system samples solved",
    "small-calls": "operations completed",
}

_UNITS = {
    "hardware.gain2": "dB",
    "hardware.crosstalk2": "dB",
    "hardware.noise": "dBm",
    "sweep.gain2": "dB",
    "sweep.crosstalk2": "dB",
    "sweep.p_x": "dBm",
    "p_x_points": "dBm",
    "channel.sigma_n2": "watt",
}


@dataclass
class Op:
    """One operation of a pass.

    ``call(dtx)`` runs it against the imported package and returns its
    output; ``work`` counts the workload's unit of work it performs.
    ``config`` is set for operations that run an experiment config (the
    checker reads it back), ``args`` holds the inputs of a direct call.
    """

    kind: str
    label: str
    call: Callable
    work: float
    config: dict | None = None
    args: dict = field(default_factory=dict)
    anchor: bool = False


# --------------------------------------------------------------------
# hardware and config generators
# --------------------------------------------------------------------

def _symmetric_hw():
    return {
        "gain2": [30.0, 30.0],
        "crosstalk2": [-50.0, -50.0],
        "crosstalk_phase": [0.0, 0.0],
        "rho": [-0.025, -0.025],
        "noise": -10.0,
    }


def _asymmetric_hw(rng):
    return {
        "gain2": [30.0, 30.0],
        "crosstalk2": [-48.0, -52.0],
        "crosstalk_phase": [float(rng.uniform(0.2, 3.0)), float(-rng.uniform(0.2, 3.0))],
        "rho": [-0.023, -0.027],
        "noise": -10.0,
    }


def _hw(rng, i):
    """Alternate symmetric and asymmetric hardware."""
    return _symmetric_hw() if i % 2 == 0 else _asymmetric_hw(rng)


def _config_seed(rng):
    return int(rng.integers(0, 2**31 - 1))


def _config_op(kind, label, cfg, work, n_threads):
    def call(dtx):
        table = dtx.run_experiment(cfg, n_threads=n_threads)
        return dtx.render(table, "csv")

    return Op(kind=kind, label=label, call=call, work=work, config=cfg)


def _se_average(rng, i, count):
    cfg = {
        "experiment": "se-average",
        "seed": _config_seed(rng),
        "hardware": _hw(rng, i),
        "units": _UNITS,
        "channel_distribution": {"count": count, "sigma_n2": 1.0},
    }
    return _config_op("se-average", "se-average#%d" % i, cfg, count, 1)


def _se_vs_crosstalk(rng, i, count, n_k=3):
    cfg = {
        "experiment": "se-vs-crosstalk",
        "seed": _config_seed(rng),
        "hardware": _hw(rng, i),
        "units": _UNITS,
        "channel_distribution": {"count": count, "sigma_n2": 1.0},
        "sweep": {"crosstalk2": {"start": -70.0, "stop": -50.0, "count": n_k}},
    }
    return _config_op("se-vs-crosstalk", "se-vs-crosstalk#%d" % i, cfg, count * n_k, 1)


def _gaussian_validation(rng, i, points, n_samples, n_threads):
    cfg = {
        "experiment": "gaussian-validation",
        "seed": _config_seed(rng),
        "hardware": _hw(rng, i),
        "units": _UNITS,
        "signal": {"beta": 1.0, "xi": 0.0},
        "p_x_points": list(points),
        "n_samples": n_samples,
    }
    return _config_op(
        "gaussian-validation", "gaussian-validation#%d" % i, cfg, len(points) * n_samples, n_threads
    )


def _nmse_sweep(rng, i, count, crosstalk2, n_samples, n_threads):
    cfg = {
        "experiment": "nmse-sweep",
        "seed": _config_seed(rng),
        "hardware": _hw(rng, i),
        "units": _UNITS,
        "signal": {"beta": 1.0, "xi": 0.0},
        "sweep": {
            "p_x": {"start": -20.0, "stop": 6.0, "count": count},
            "crosstalk2": list(crosstalk2),
        },
        "n_samples": n_samples,
    }
    work = count * len(crosstalk2) * n_samples
    return _config_op("nmse-sweep", "nmse-sweep#%d" % i, cfg, work, n_threads)


def _backoff_vs_gain(rng, i, n_gain, n_k):
    hw = _asymmetric_hw(rng)
    hw["rho"] = [float(-rng.uniform(0.021, 0.029)), float(-rng.uniform(0.021, 0.029))]
    cfg = {
        "experiment": "backoff-vs-gain",
        "seed": _config_seed(rng),
        "hardware": hw,
        "units": _UNITS,
        "signal": {
            "beta": float(rng.uniform(0.8, 1.2)),
            "xi": [float(rng.uniform(-0.3, 0.3)), float(rng.uniform(-0.3, 0.3))],
        },
        "sweep": {
            "gain2": {"start": 20.0, "stop": 30.0, "count": n_gain},
            "crosstalk2": {"start": -80.0, "stop": -50.0, "count": n_k},
        },
    }
    return _config_op("backoff-vs-gain", "backoff-vs-gain#%d" % i, cfg, 1, 1)


def _channel_pairs(rng):
    h = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2.0)
    return [[float(z.real), float(z.imag)] for z in h]


def _se_mrt_sweep(rng, i):
    cfg = {
        "experiment": "se-mrt-sweep",
        "seed": _config_seed(rng),
        "hardware": _hw(rng, i),
        "units": _UNITS,
        "channel": {"h": _channel_pairs(rng), "sigma_n2": 1.0},
        "sweep": {"p_x": {"start": -30.0, "stop": 10.0, "count": 41}},
    }
    return _config_op("se-mrt-sweep", "se-mrt-sweep#%d" % i, cfg, 1, 1)


def _se_perturbation(rng, i):
    cfg = {
        "experiment": "se-perturbation",
        "seed": _config_seed(rng),
        "hardware": _hw(rng, i),
        "units": _UNITS,
        "channel": {"h": _channel_pairs(rng), "sigma_n2": 1.0},
        "phase_count": 36,
    }
    return _config_op("se-perturbation", "se-perturbation#%d" % i, cfg, 1, 1)


# --------------------------------------------------------------------
# direct library calls
# --------------------------------------------------------------------

def _pair_args(rng):
    """Two-branch hardware/signal parameters for direct calls."""
    k_db = float(rng.uniform(-70.0, -50.0))
    g_db = float(rng.uniform(20.0, 30.0))
    return {
        "gamma": (10.0 ** (g_db / 20.0), 10.0 ** (g_db / 20.0)),
        "kappa": (
            10.0 ** (k_db / 20.0) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))),
            10.0 ** (k_db / 20.0) * complex(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))),
        ),
        "rho": (float(-rng.uniform(0.021, 0.029)), float(-rng.uniform(0.021, 0.029))),
        "sigma_w2": 1e-4,
        "p_x": 10.0 ** (float(rng.uniform(-20.0, 0.0)) / 10.0) / 1000.0,
        "beta": float(rng.uniform(0.8, 1.2)),
        "xi": complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3)),
    }


def _m_args(rng, m, crosstalk_db=-60.0):
    """M-branch hardware parameters: -60 dB all-to-all coupling with
    random phases, compression drawn per branch."""
    kappa = 10.0 ** (crosstalk_db / 20.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (m, m)))
    np.fill_diagonal(kappa, 0.0)
    return {
        "gamma": np.full(m, np.sqrt(1000.0)),
        "kappa": kappa,
        "rho": -rng.uniform(0.021, 0.029, m),
        "sigma_w2": 1e-4,
    }


def pair_objects(dtx, args):
    hw = dtx.HardwareConfig(
        gamma=args["gamma"], kappa=args["kappa"], rho=args["rho"], sigma_w2=args["sigma_w2"]
    )
    sig = dtx.SignalSpec(p_x=args["p_x"], beta=args["beta"], xi=args["xi"])
    return hw, sig


def m_hardware(dtx, args):
    return dtx.HardwareConfigM(
        gamma=args["gamma"], kappa=args["kappa"], rho=args["rho"], sigma_w2=args["sigma_w2"]
    )


def _nmse_branches_op(rng, i):
    args = _pair_args(rng)

    def call(dtx):
        hw, sig = pair_objects(dtx, args)
        rep = dtx.nmse_branches(hw, sig)
        return (rep.nmse1, rep.nmse2)

    return Op("nmse_branches", "nmse_branches#%d" % i, call, 1, args=args)


def _minmax_backoff_op(rng, i):
    args = _pair_args(rng)

    def call(dtx):
        hw, sig = pair_objects(dtx, args)
        sol = dtx.minmax_backoff(hw, sig)
        return (sol.p_x_opt, sol.achieved, sol.active_case)

    return Op("minmax_backoff", "minmax_backoff#%d" % i, call, 1, args=args)


def _minmax_backoff_m_op(rng, i, m):
    args = _m_args(rng, m)
    args["p_x"] = 1e-3

    def call(dtx):
        hw = m_hardware(dtx, args)
        spec = dtx.SignalSpecM(c_x_shape=np.eye(m), p_x=args["p_x"])
        return (dtx.minmax_backoff_m(hw, spec),)

    return Op("minmax_backoff_m", "minmax_backoff_m.m%d#%d" % (m, i), call, 1, args=args)


def _mrt_variants_m_op(rng, i, m):
    args = _m_args(rng, m)
    args["h"] = (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / np.sqrt(2.0)
    args["sigma_n2"] = 1.0

    def call(dtx):
        hw = m_hardware(dtx, args)
        out = dtx.mrt_variants_m(dtx.ChannelSpec(h=args["h"], sigma_n2=args["sigma_n2"]), hw)
        return tuple(
            (sol.se, tuple(complex(z) for z in sol.c_eff))
            for sol in (out["conventional"], out["distortion_aware"])
        )

    return Op("mrt_variants_m", "mrt_variants_m.m%d#%d" % (m, i), call, 1, args=args)


def _simulate_m_op(rng, i, m, p_dbm, n):
    args = _m_args(rng, m)
    args["p_x"] = 10.0 ** (p_dbm / 10.0) / 1000.0
    args["n"] = n
    args["seed"] = _config_seed(rng)

    def call(dtx):
        hw = m_hardware(dtx, args)
        spec = dtx.SignalSpecM(c_x_shape=np.eye(m), p_x=args["p_x"])
        batch = dtx.simulate_batch_m(hw, spec, args["n"], args["seed"])
        emp = dtx.mxm.empirical_nmse_m(batch, hw, spec)
        return (batch.failure_rate, tuple(float(v) for v in emp))

    return Op("simulate_batch_m", "simulate_batch_m.m%d#%d" % (m, i), call, n, args=args)


# --------------------------------------------------------------------
# the workloads
# --------------------------------------------------------------------

def _interleave(groups):
    """Round-robin merge, so every stretch of a pass mixes op kinds."""
    out = []
    longest = max(len(g) for g in groups)
    for k in range(longest):
        for g in groups:
            if k < len(g):
                out.append(g[k])
    return out


def _se_channels(rng, scale):
    avg = [_se_average(rng, i, 15) for i in range(max(1, 24 * scale // 8))]
    vx = [_se_vs_crosstalk(rng, i, 10) for i in range(max(2, scale))]
    return _interleave([avg, vx])


def _mc_feedback(rng, scale):
    nt = N_THREADS["mc-feedback"]
    n_gv = 20000 * scale // 8
    n_sw = 10000 * scale // 8
    n_m = 20000 * scale // 8
    # Six validations, three M = 4 batches (similar latencies) and two
    # sweeps at about three times their latency: the median operation
    # is a validation, the p90 a sweep, each inside its cluster.
    gv = [
        _gaussian_validation(rng, i, pts, n_gv, nt)
        for i, pts in enumerate(([-20.0, 6.0], [-10.0, 0.0], [-14.0, 3.0], [-6.0, 6.0], [-20.0, 0.0], [-3.0, 6.0]))
    ]
    sw = [_nmse_sweep(rng, i, 14, [(-60.0, -52.0)[i % 2]], n_sw, nt) for i in range(2)]
    sm = [_simulate_m_op(rng, i, 4, p, n_m) for i, p in enumerate((-20.0, -6.0, 6.0))]
    return _interleave([gv, sw, sm])


def _small_calls(rng, scale):
    k = max(2, scale // 2)
    groups = [
        [_backoff_vs_gain(rng, i, 6, 4) for i in range(k)],
        [_se_mrt_sweep(rng, i) for i in range(k)],
        [_se_perturbation(rng, i) for i in range(k)],
        [_nmse_branches_op(rng, i) for i in range(170 * scale)],
        [_minmax_backoff_op(rng, i) for i in range(15 * scale)],
        [_minmax_backoff_m_op(rng, i, m) for i in range(5 * scale) for m in (2, 4, 8)],
        [_mrt_variants_m_op(rng, i, m) for i in range(5 * scale) for m in (2, 4)],
    ]
    return _interleave(groups)


_GENERATORS = {
    "se-channels": _se_channels,
    "mc-feedback": _mc_feedback,
    "small-calls": _small_calls,
}

# Closed-form kinds whose first op of the anchor seed (for experiments:
# the first on each hardware class) is pinned to the recorded reference
# values.
ANCHOR_KINDS = (
    "se-average",
    "se-vs-crosstalk",
    "nmse-sweep",
    "backoff-vs-gain",
    "se-mrt-sweep",
    "se-perturbation",
    "nmse_branches",
    "minmax_backoff",
    "minmax_backoff_m",
    "mrt_variants_m",
)


def _hardware_class(op):
    if op.config is None:
        return None
    rho = op.config["hardware"]["rho"]
    return "symmetric" if rho[0] == rho[1] else "asymmetric"


def anchor_ops(workload):
    ops = _GENERATORS[workload](np.random.default_rng(ANCHOR_SEED), 1)
    seen, out = set(), []
    for op in ops:
        key = (op.kind, _hardware_class(op))
        if op.kind in ANCHOR_KINDS and key not in seen:
            seen.add(key)
            op.anchor = True
            op.label = "anchor." + op.label
            out.append(op)
    return out


def _rng(seed, *stream):
    """Generator for one input stream of a (possibly negative) seed."""
    return np.random.default_rng(np.random.SeedSequence(seed % 2**64, spawn_key=stream))


def make_ops(workload, seed, scale=8):
    """The ordered operations of one pass.

    ``scale`` 8 is the benchmark size; the tests use 1 for a tiny pass
    with the same kinds of operations.
    """
    if workload not in _GENERATORS:
        raise ValueError("unknown workload %r" % workload)
    return anchor_ops(workload) + _GENERATORS[workload](_rng(seed, WORKLOADS.index(workload)), scale)


def cli_config(workload, seed):
    """The config a ``dirtytx run`` subprocess executes for ``workload``."""
    rng = _rng(seed, 7, WORKLOADS.index(workload))
    if workload == "se-channels":
        op = _se_average(rng, 1, 30)
    elif workload == "mc-feedback":
        op = _gaussian_validation(rng, 1, [0.0], 20000, N_THREADS[workload])
    else:
        op = _backoff_vs_gain(rng, 0, 6, 4)
    return op.config
