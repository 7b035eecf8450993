"""Correctness checks for every benchmark operation.

Each check raises :class:`CheckError` when an output is wrong.  Closed
forms are checked against evaluations written here from the model, not
taken from the library: the Bussgang NMSE of each branch
(:class:`BranchNmse`) and the scalar SNDR (:func:`scalar_se`).  Optima
are checked as optima: a back-off power must minimize the worst branch
NMSE, and an optimal precoder must beat every small move inside the
feasible set.  The anchor operations are also compared with the values
recorded in ``reference.json``.  Monte-Carlo outputs are checked
against the closed forms at the statistical tolerances below, never
byte for byte.

The checks read experiment results from the rendered CSV text, the
same bytes a ``dirtytx run`` writes, so they check what a user gets.
"""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import workloads as wl

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# A library closed form and its evaluation here agree to this relative gap.
CF_RTOL = 1e-8
# At a back-off optimum: branches within FRONT_RTOL of the worst form the
# front, whose relative slopes p*dNMSE/dp must straddle zero to within
# SLOPE_TOL; a balanced optimum has its two branch NMSEs equal to within
# BALANCED_RTOL.
FRONT_RTOL = 1e-9
SLOPE_TOL = 1e-9
BALANCED_RTOL = 1e-9
# An optimal precoder is a local maximum on the feasible set
# |c_eff,l|^2 <= 1/(2|rho_l|): moving one entry's amplitude or phase by
# LOCAL_STEP (relative) gains no more than LOCAL_SE_TOL bit.
LOCAL_STEP = 1e-4
LOCAL_SE_TOL = 1e-12
# Recorded reference values of the anchor operations.
REF_RTOL = 1e-9
# Largest failure rate a Monte-Carlo batch may report.
MAX_FAILURE_RATE = 1e-3
# Empirical NMSE against the closed form: an allowance for the bias of
# the first-order coupling model plus four standard errors of a sample
# mean of squared errors (relative standard error 1/sqrt(n)).
MODEL_BIAS_DB = 1.0
# Kolmogorov-Smirnov distance of solved marginals against the
# linearized Gaussian: 2.5/sqrt(n) is beyond the 0.999 quantile of the
# sampling distribution, plus slack for the model's own error.
KS_SLACK = 0.005
# Covariance gap between solved and linearized internal signals.
MAX_COVARIANCE_NMSE_DB = -20.0

CASE_IDS = {"branch1_min": 1.0, "branch2_min": 2.0, "balanced": 3.0}


class CheckError(Exception):
    """An operation's output failed its correctness check."""


def _require(cond, message, *args):
    if not cond:
        raise CheckError(message % args if args else message)


def _close(a, b, rtol, what, atol=0.0):
    _require(
        math.isfinite(a) and abs(a - b) <= atol + rtol * abs(b),
        "%s: %.17g differs from %.17g (rtol %g, atol %g)", what, a, b, rtol, atol,
    )


def mc_tolerance_db(n):
    return MODEL_BIAS_DB + 10.0 * math.log10(1.0 + 4.0 / math.sqrt(n))


def ks_tolerance(n):
    return 2.5 / math.sqrt(n) + KS_SLACK


def dbm_to_w(v):
    return 10.0 ** (v / 10.0) / 1000.0


def to_db(v):
    return 10.0 * math.log10(v)


# --------------------------------------------------------------------
# parsing and reconstruction
# --------------------------------------------------------------------

class Table:
    """A rendered CSV result parsed back into metadata and columns."""

    def __init__(self, text):
        meta_lines = []
        body = []
        for line in text.split("\r\n"):
            if line.startswith("# "):
                meta_lines.append(line[2:])
            elif line:
                body.append(line)
        self.meta = dict(entry.split("=", 1) for entry in meta_lines)
        rows = list(csv.reader(io.StringIO("\n".join(body))))
        _require(len(rows) >= 1, "table has no header")
        self.names = [h.split(" [", 1)[0] for h in rows[0]]
        try:
            self.rows = np.array([[float(v) for v in r] for r in rows[1:]], dtype=float)
        except ValueError as exc:
            raise CheckError("unparsable table value: %s" % exc) from None
        _require(
            self.rows.size == 0 or self.rows.shape[1] == len(self.names),
            "row width does not match header",
        )
        _require(np.all(np.isfinite(self.rows)), "table has non-finite values")

    def col(self, name):
        return self.rows[:, self.names.index(name)]

    def meta_float(self, key):
        return float(self.meta[key])


def hardware(dtx, cfg, gain2_db=None, crosstalk2_db=None):
    """The two-branch hardware an experiment config describes, optionally
    with the symmetric gain or crosstalk override of a sweep point."""
    h = cfg["hardware"]
    gain = h["gain2"] if gain2_db is None else [gain2_db, gain2_db]
    kap = h["crosstalk2"] if crosstalk2_db is None else [crosstalk2_db, crosstalk2_db]
    phase = h.get("crosstalk_phase", [0.0, 0.0])
    return dtx.HardwareConfig(
        gamma=tuple(math.sqrt(10.0 ** (g / 10.0)) for g in gain),
        kappa=tuple(math.sqrt(10.0 ** (k / 10.0)) * complex(np.exp(1j * p)) for k, p in zip(kap, phase)),
        rho=tuple(h["rho"]),
        sigma_w2=dbm_to_w(h["noise"]),
    )


def signal(dtx, cfg, p_x=1.0):
    s = cfg["signal"]
    xi = s.get("xi", 0.0)
    xi = complex(xi[0], xi[1]) if isinstance(xi, list) else complex(xi)
    return dtx.SignalSpec(p_x=p_x, beta=s.get("beta", 1.0), xi=xi)


def grid(spec):
    if isinstance(spec, dict):
        return np.linspace(spec["start"], spec["stop"], spec["count"])
    return np.asarray(spec, dtype=float)


def draw_channels(seed, count):
    """The channel stream of the experiments module (stream family 1)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,)))
    return (rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))) / np.sqrt(2.0)


def config_channel(dtx, cfg):
    ch = cfg["channel"]
    return dtx.ChannelSpec(h=np.array([complex(a, b) for a, b in ch["h"]]), sigma_n2=ch["sigma_n2"])


# --------------------------------------------------------------------
# closed forms written from the model
# --------------------------------------------------------------------

def first_order_q(gamma, into):
    """Amplifier inputs per transmit input to first order in the
    crosstalk: ``u_l = gamma_l (x_l + sum_m into[l][m] gamma_m x_m)``,
    where ``into[l][m]`` couples branch m's output into branch l."""
    g = np.asarray(gamma, dtype=float)
    k = np.asarray(into, dtype=complex)
    return g[:, None] * (np.eye(g.size) + k * g[None, :])


class BranchNmse:
    """Per-branch NMSE of the linearized Bussgang model.

    With ``u = Q x`` (first order), the compressed output of branch l is
    ``a_l u_l + v_l`` with Bussgang gain ``a_l = 1 + 2 rho_l E|u_l|^2``
    and distortion power ``E|v_l|^2 = 2 rho_l^2 (E|u_l|^2)^3``.  Its
    error against the ideal ``gamma_l x_l`` is
    ``(a_l - 1) u_l + leak_l + v_l + w_l``, with ``leak_l = u_l -
    gamma_l x_l`` and thermal noise ``w_l``.  Per unit reference power
    p, with ``t = E|u_l|^2``, ``s = Re E[u_l leak_l*]`` and
    ``r = E|leak_l|^2``, the error power is
    ``6 rho^2 t^3 p^3 + 4 rho t s p^2 + r p + sigma_w2`` and the NMSE
    divides it by the ideal power ``gamma_l^2 E|x_l|^2 p``.
    """

    def __init__(self, gamma, into, rho, sigma_w2, shape):
        q = first_order_q(gamma, into)
        shape = np.asarray(shape, dtype=complex)
        self.sigma_w2 = sigma_w2
        coeffs = []
        for l, (g, r) in enumerate(zip(gamma, rho)):
            w = q[l]
            leak = w.copy()
            leak[l] -= g
            t = (w @ shape @ w.conj()).real
            cross = (w @ shape @ leak.conj()).real
            leak_power = (leak @ shape @ leak.conj()).real
            ideal = g * g * shape[l, l].real
            coeffs.append((6.0 * r * r * t ** 3, 4.0 * r * t * cross, leak_power, ideal))
        self.a, self.b, self.c, self.d = (np.array(v) for v in zip(*coeffs))

    @classmethod
    def pair(cls, hw, sig):
        """From two-branch hardware and signal specs."""
        k1, k2 = hw.kappa
        b, xi = sig.beta, complex(sig.xi)
        shape = [[1.0, b * xi], [b * xi.conjugate(), b * b]]
        return cls(hw.gamma, [[0.0, k2], [k1, 0.0]], hw.rho, hw.sigma_w2, shape)

    @classmethod
    def m_branch(cls, args):
        """From the M-branch direct-call inputs (identity input shape)."""
        kappa = np.asarray(args["kappa"], dtype=complex)
        m = kappa.shape[0]
        return cls(args["gamma"], kappa.T, args["rho"], args["sigma_w2"], np.eye(m))

    def values(self, p):
        return (self.a * p ** 2 + self.b * p + self.c) / self.d + self.sigma_w2 / (self.d * p)

    def rel_slopes(self, p):
        """``p * dNMSE/dp / NMSE`` per branch."""
        return ((2.0 * self.a * p ** 2 + self.b * p) / self.d - self.sigma_w2 / (self.d * p)) / self.values(p)


def check_minmax(model, p, what):
    """``p`` minimizes the worst branch NMSE of ``model``.

    Each branch NMSE is convex in p, so their maximum is convex, and a
    point where the worst branches' slopes straddle zero is its global
    minimum.  Returns the branch NMSEs at p.
    """
    _require(math.isfinite(p) and p > 0, "%s: back-off power %r is not positive", what, p)
    vals = model.values(p)
    slopes = model.rel_slopes(p)[vals >= np.max(vals) * (1.0 - FRONT_RTOL)]
    _require(
        slopes.min() <= SLOPE_TOL and slopes.max() >= -SLOPE_TOL,
        "%s: worst-branch NMSE still falls next to the back-off power (relative slopes %r)", what, slopes,
    )
    return vals


def _check_backoff(model, p, achieved, case_id, what):
    """A two-branch back-off: optimal, with its worst NMSE and case."""
    vals = check_minmax(model, p, what)
    _close(achieved, float(np.max(vals)), CF_RTOL, what + " worst NMSE")
    _require(case_id in (1.0, 2.0, 3.0), "%s: unknown active case %r", what, case_id)
    if case_id == 3.0:
        _require(
            abs(vals[0] - vals[1]) <= BALANCED_RTOL * max(vals),
            "%s: balanced case with unequal branch NMSEs %r", what, vals,
        )
        return
    b = int(case_id) - 1
    _require(vals[b] >= np.max(vals) * (1.0 - FRONT_RTOL), "%s: branch %d minimum is not the worst branch", what, b + 1)
    _require(
        abs(model.rel_slopes(p)[b]) <= SLOPE_TOL,
        "%s: branch %d NMSE is not stationary at the back-off power", what, b + 1,
    )


def scalar_se(c_eff, h, rho, sigma_w2, sigma_n2):
    """SE of an effective precoder from the scalar SNDR closed form.

    SNDR = 2|h.c + h~.(|c|^2 c)|^2 / (|h~.(|c|^2 c)|^2 + s2), with
    h~ = 2 h rho and s2 = 2 sigma_w2 ||h||^2 + 2 sigma_n2.
    """
    c = np.asarray(c_eff, dtype=complex)
    h = np.asarray(h, dtype=complex)
    dist = np.sum(2.0 * h * np.asarray(rho, dtype=float) * np.abs(c) ** 2 * c)
    lin = np.sum(h * c)
    s2 = 2.0 * sigma_w2 * float(np.sum(np.abs(h) ** 2)) + 2.0 * sigma_n2
    return math.log2(1.0 + 2.0 * abs(lin + dist) ** 2 / (abs(dist) ** 2 + s2))


def _check_solution(sol, channel, hw, what):
    _close(
        sol.se,
        scalar_se(sol.c_eff, channel.h, hw.rho, hw.sigma_w2, channel.sigma_n2),
        CF_RTOL,
        what + " SE against the scalar SNDR form",
    )


def _local_moves(c, sat):
    """Effective precoders one small move away from ``c`` inside the
    feasible set: each entry's amplitude and phase up and down, and a
    zero entry stepped out in four phase quadrants."""
    for l, z in enumerate(c):
        amp = abs(z)
        if amp == 0.0:
            steps = [LOCAL_STEP * sat[l] * 1j ** k for k in range(4)]
        else:
            steps = [z * (min(amp * (1.0 + d), sat[l]) / amp - 1.0) for d in (LOCAL_STEP, -LOCAL_STEP)]
            steps += [z * (np.exp(1j * d) - 1.0) for d in (LOCAL_STEP, -LOCAL_STEP)]
        for step in steps:
            moved = c.copy()
            moved[l] += step
            yield moved


def check_optimum(sol, channel, hw, what):
    """An ``optimal_precoder`` solution: its SE matches the scalar form,
    it lies in the feasible set, and no small move inside the set beats it."""
    _check_solution(sol, channel, hw, what)
    rho = np.asarray(hw.rho, dtype=float)
    sat = np.sqrt(1.0 / (2.0 * np.abs(rho)))
    c = np.asarray(sol.c_eff, dtype=complex)
    _require(np.all(np.abs(c) <= sat * (1.0 + 1e-12)), "%s: precoder outside the feasible set", what)
    for moved in _local_moves(c, sat):
        se = scalar_se(moved, channel.h, rho, hw.sigma_w2, channel.sigma_n2)
        _require(
            se <= sol.se + LOCAL_SE_TOL * max(1.0, sol.se),
            "%s: a nearby feasible precoder gains %.3g bit", what, se - sol.se,
        )


# --------------------------------------------------------------------
# experiment tables
# --------------------------------------------------------------------

def _check_se_average(dtx, cfg, t):
    opt, da, conv = t.col("se_optimal"), t.col("se_distortion_aware"), t.col("se_conventional")
    count = cfg["channel_distribution"]["count"]
    _require(t.rows.shape[0] == count, "expected %d channel rows", count)
    _require(np.all(opt >= np.maximum(da, conv) - 1e-9), "optimal SE below a matched-filter baseline")
    for name in ("se_optimal", "se_distortion_aware", "se_conventional"):
        _close(t.meta_float("mean_" + name), float(np.mean(t.col(name))), 1e-12, "mean " + name)
    hw = hardware(dtx, cfg)
    channels = draw_channels(cfg["seed"], count)
    sigma_n2 = cfg["channel_distribution"]["sigma_n2"]
    for i in sorted({0, count // 2, count - 1}):
        ch = dtx.ChannelSpec(h=channels[i], sigma_n2=sigma_n2)
        for fn, col in ((dtx.optimal_precoder, opt), (dtx.distortion_aware_mrt, da), (dtx.conventional_mrt, conv)):
            sol = fn(ch, hw)
            what = "row %d %s" % (i, fn.__name__)
            _close(col[i], sol.se, CF_RTOL, what)
            (check_optimum if fn is dtx.optimal_precoder else _check_solution)(sol, ch, hw, what)


def _check_se_vs_crosstalk(dtx, cfg, t):
    opt = t.col("mean_se_optimal")
    da, conv = t.col("mean_se_distortion_aware"), t.col("mean_se_conventional")
    k_grid = grid(cfg["sweep"]["crosstalk2"])
    _require(np.allclose(t.col("crosstalk2"), k_grid, rtol=0, atol=1e-9), "crosstalk grid mismatch")
    _require(np.all(opt >= np.maximum(da, conv) - 1e-9), "optimal mean SE below a baseline")
    i = len(k_grid) // 2
    hw = hardware(dtx, cfg, crosstalk2_db=float(k_grid[i]))
    count = cfg["channel_distribution"]["count"]
    sigma_n2 = cfg["channel_distribution"]["sigma_n2"]
    sums = np.zeros(3)
    for j, h in enumerate(draw_channels(cfg["seed"], count)):
        ch = dtx.ChannelSpec(h=h, sigma_n2=sigma_n2)
        sol = dtx.optimal_precoder(ch, hw)
        check_optimum(sol, ch, hw, "row %d channel %d optimal precoder" % (i, j))
        sums += [sol.se, dtx.distortion_aware_mrt(ch, hw).se, dtx.conventional_mrt(ch, hw).se]
    for got, want, name in zip((opt[i], da[i], conv[i]), sums / count, ("optimal", "aware", "conventional")):
        _close(got, float(want), CF_RTOL, "row %d mean %s SE" % (i, name))


def _check_gaussian_validation(dtx, cfg, t):
    n = cfg["n_samples"]
    _require(np.allclose(t.col("p_x"), cfg["p_x_points"], rtol=0, atol=1e-9), "power grid mismatch")
    _require(np.all(t.col("failure_rate") <= MAX_FAILURE_RATE), "failure rate above %g", MAX_FAILURE_RATE)
    ks = t.rows[:, [t.names.index(c) for c in ("ks_u1_re", "ks_u1_im", "ks_u2_re", "ks_u2_im")]]
    _require(np.all(ks <= ks_tolerance(n)), "KS distance %.4g above %.4g", ks.max(), ks_tolerance(n))
    cov = t.col("covariance_nmse")
    _require(np.all(cov <= MAX_COVARIANCE_NMSE_DB), "covariance gap %.2f dB above %g dB", cov.max(), MAX_COVARIANCE_NMSE_DB)


def _check_nmse_sweep(dtx, cfg, t):
    p_grid = grid(cfg["sweep"]["p_x"])
    k_grid = grid(cfg["sweep"]["crosstalk2"])
    _require(t.rows.shape[0] == p_grid.size * k_grid.size, "sweep row count mismatch")
    tol = mc_tolerance_db(cfg["n_samples"])
    for row, (k_db, p_dbm) in zip(t.rows, [(k, p) for k in k_grid for p in p_grid]):
        _require(abs(row[0] - k_db) <= 1e-9 and abs(row[1] - p_dbm) <= 1e-9, "sweep grid mismatch")
        want = BranchNmse.pair(hardware(dtx, cfg, crosstalk2_db=float(k_db)), signal(dtx, cfg)).values(dbm_to_w(p_dbm))
        for b in range(2):
            _close(row[2 + b], to_db(want[b]), CF_RTOL, "analytic NMSE branch %d (dB)" % (b + 1), atol=CF_RTOL)
            gap = abs(row[4 + b] - row[2 + b])
            _require(gap <= tol, "empirical NMSE %.3f dB off the closed form (tolerance %.3f dB)", gap, tol)


def _check_backoff_vs_gain(dtx, cfg, t):
    g_grid = grid(cfg["sweep"]["gain2"])
    k_grid = grid(cfg["sweep"]["crosstalk2"])
    _require(t.rows.shape[0] == g_grid.size * k_grid.size, "sweep row count mismatch")
    for row, (k_db, g_db) in zip(t.rows, [(k, g) for k in k_grid for g in g_grid]):
        _require(abs(row[0] - g_db) <= 1e-9 and abs(row[1] - k_db) <= 1e-9, "sweep grid mismatch")
        hw = hardware(dtx, cfg, gain2_db=float(g_db), crosstalk2_db=float(k_db))
        what = "gain %.2f dB crosstalk %.2f dB" % (g_db, k_db)
        model = BranchNmse.pair(hw, signal(dtx, cfg))
        _check_backoff(model, dbm_to_w(row[2]), 10.0 ** (row[3] / 10.0), row[4], what)


def _check_se_mrt_sweep(dtx, cfg, t):
    hw = hardware(dtx, cfg)
    ch = config_channel(dtx, cfg)
    p_grid = grid(cfg["sweep"]["p_x"])
    _require(np.allclose(t.col("p_x"), p_grid, rtol=0, atol=1e-9), "power grid mismatch")
    q = first_order_q(hw.gamma, [[0.0, hw.kappa[1]], [hw.kappa[0], 0.0]])
    ref = abs(ch.h[0]) or float(np.linalg.norm(ch.h))
    c_hat = q @ ch.h.conj() / ref
    for p, se in zip(dbm_to_w(p_grid), t.col("se_conventional")):
        _close(se, scalar_se(math.sqrt(p) * c_hat, ch.h, hw.rho, hw.sigma_w2, ch.sigma_n2), CF_RTOL, "ray SE")
    opt = t.meta_float("optimal_se")
    conv = t.meta_float("conventional_opt_se")
    aware = t.meta_float("distortion_aware_opt_se")
    _require(opt >= max(conv, aware) - 1e-9, "optimal SE below a matched-filter baseline")
    _require(conv >= t.col("se_conventional").max() - 1e-9, "ray optimum below a ray grid point")
    _require(aware >= t.col("se_distortion_aware").max() - 1e-9, "aware optimum below its curve")
    sol = dtx.optimal_precoder(ch, hw)
    _close(opt, sol.se, CF_RTOL, "optimal SE")
    check_optimum(sol, ch, hw, "optimal precoder")


def _check_se_perturbation(dtx, cfg, t):
    hw = hardware(dtx, cfg)
    ch = config_channel(dtx, cfg)
    sol = dtx.optimal_precoder(ch, hw)
    _close(t.meta_float("optimal_se"), sol.se, CF_RTOL, "optimal SE")
    check_optimum(sol, ch, hw, "optimal precoder")
    identity = 0
    for theta, amp, se in t.rows:
        c = sol.c_eff.copy()
        c[0] = c[0] * amp * np.exp(1j * theta)
        _close(se, scalar_se(c, ch.h, hw.rho, hw.sigma_w2, ch.sigma_n2), CF_RTOL, "perturbed SE")
        if theta == 0.0 and amp == 1.0:
            identity += 1
            _close(se, sol.se, CF_RTOL, "identity perturbation")
    _require(identity >= 1, "no identity perturbation row")


_TABLE_CHECKS = {
    "se-average": _check_se_average,
    "se-vs-crosstalk": _check_se_vs_crosstalk,
    "gaussian-validation": _check_gaussian_validation,
    "nmse-sweep": _check_nmse_sweep,
    "backoff-vs-gain": _check_backoff_vs_gain,
    "se-mrt-sweep": _check_se_mrt_sweep,
    "se-perturbation": _check_se_perturbation,
}


def check_table(dtx, cfg, text):
    """Check one rendered experiment result against its config."""
    t = Table(text)
    _require(t.meta.get("experiment") == cfg["experiment"], "wrong experiment in metadata")
    _require(int(t.meta.get("seed", -1)) == cfg["seed"], "wrong seed in metadata")
    _TABLE_CHECKS[cfg["experiment"]](dtx, cfg, t)


# --------------------------------------------------------------------
# direct calls
# --------------------------------------------------------------------

def _check_nmse_branches(dtx, args, out):
    want = BranchNmse.pair(*wl.pair_objects(dtx, args)).values(args["p_x"])
    for b in range(2):
        _close(out[b], float(want[b]), CF_RTOL, "NMSE branch %d" % (b + 1))


def _check_minmax_backoff(dtx, args, out):
    p, achieved, case = out
    _require(case in CASE_IDS, "unknown active case %r", case)
    _check_backoff(BranchNmse.pair(*wl.pair_objects(dtx, args)), p, achieved, CASE_IDS[case], "minmax_backoff")


def _check_minmax_backoff_m(dtx, args, out):
    check_minmax(BranchNmse.m_branch(args), out[0], "minmax_backoff_m")


def _check_mrt_variants_m(dtx, args, out):
    for se, c_eff in out:
        _close(se, scalar_se(c_eff, args["h"], args["rho"], args["sigma_w2"], args["sigma_n2"]), CF_RTOL, "matched-filter SE")


def _check_simulate_m(dtx, args, out):
    failure_rate, emp = out
    _require(failure_rate <= MAX_FAILURE_RATE, "failure rate %g above %g", failure_rate, MAX_FAILURE_RATE)
    want = BranchNmse.m_branch(args).values(args["p_x"])
    tol = mc_tolerance_db(args["n"])
    for e, w in zip(emp, want):
        gap = abs(to_db(e) - to_db(w))
        _require(gap <= tol, "empirical NMSE %.3f dB off the closed form (tolerance %.3f dB)", gap, tol)


_DIRECT_CHECKS = {
    "nmse_branches": _check_nmse_branches,
    "minmax_backoff": _check_minmax_backoff,
    "minmax_backoff_m": _check_minmax_backoff_m,
    "mrt_variants_m": _check_mrt_variants_m,
    "simulate_batch_m": _check_simulate_m,
}


def check_op(dtx, op, out, reference):
    """Check one operation's output; anchors also against ``reference``
    (the mapping :func:`load_reference` returns)."""
    if op.config is not None:
        check_table(dtx, op.config, out)
    else:
        _DIRECT_CHECKS[op.kind](dtx, op.args, out)
    if op.anchor:
        check_reference(op, out, reference)


# --------------------------------------------------------------------
# recorded reference values
# --------------------------------------------------------------------

_REFERENCE_COLUMNS = {
    "se-average": ("se_optimal", "se_distortion_aware", "se_conventional"),
    "se-vs-crosstalk": ("mean_se_optimal", "mean_se_distortion_aware", "mean_se_conventional"),
    "nmse-sweep": ("nmse1_analytic", "nmse2_analytic", "nmse1_approx"),
    "backoff-vs-gain": ("p_x_opt", "worst_nmse", "active_case"),
    "se-mrt-sweep": ("se_conventional", "se_distortion_aware"),
    "se-perturbation": ("se",),
}
_REFERENCE_META = {
    "se-mrt-sweep": ("optimal_se", "conventional_opt_se", "distortion_aware_opt_se"),
    "se-perturbation": ("optimal_se",),
}


def closed_form_values(op, out):
    """The closed-form numbers of an output, flattened."""
    if op.config is not None:
        t = Table(out)
        vals = [float(v) for c in _REFERENCE_COLUMNS[op.kind] for v in t.col(c)]
        vals += [t.meta_float(k) for k in _REFERENCE_META.get(op.kind, ())]
        return vals
    if op.kind == "minmax_backoff":
        return [out[0], out[1], CASE_IDS[out[2]]]
    if op.kind == "mrt_variants_m":
        return [se for se, _ in out]
    return [float(v) for v in out]


def load_reference():
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def check_reference(op, out, reference):
    want = reference.get(op.label)
    _require(want is not None, "no recorded reference for %s", op.label)
    got = closed_form_values(op, out)
    _require(len(got) == len(want), "%s: %d values, reference has %d", op.label, len(got), len(want))
    for g, w in zip(got, want):
        _close(g, w, REF_RTOL, op.label + " against the recorded reference", atol=REF_RTOL)
