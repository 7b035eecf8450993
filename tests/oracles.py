"""Independent reference procedures used to pin expected test values.

Everything here is deliberately dumb: optima come from dense grids plus
golden-section refinement, derivatives from central differences, and
the precoder benchmark from a brute-force score over an amplitude
lattice with its own SNDR formula.  None of it shares code with the
closed-form routines under test, with one stated exception:
:func:`sndr_matrix` assembles the SNDR from the model-layer moments
(``bussgang_gains`` and ``distortion_covariance``), so it checks the
scalar SNDR form of the precoding layer against the Bussgang matrix
statistics rather than against an independent derivation.  The
symmetric distortion-free pair (:func:`effective_linear_gain`,
:func:`linear_output_covariance`) is a closed-loop reference for the
coupling model.  :func:`sample_inputs` and :func:`solve_feedback`
expose the Monte-Carlo core's input draw and feedback solver one step
at a time, so tests can check each on its own.
"""

import struct
import warnings
from fractions import Fraction

import numpy as np

from dirtytx import (
    BussgangGainWarning,
    HardwareConfig,
    SignalSpec,
    bussgang_gains,
    coupling_matrix,
    distortion_covariance,
    nmse_branches,
)
from dirtytx.montecarlo import _draw_inputs, _solve_chunk


class FeedbackDivergenceError(ValueError):
    """The linear feedback loop gain is outside its stability region."""


GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def sample_inputs(sig: SignalSpec, n: int, seed) -> np.ndarray:
    """``n`` circular Gaussian input pairs with the covariance of ``sig``."""
    return _draw_inputs(sig.covariance(), n, np.random.default_rng(seed))


def solve_feedback(x, hw: HardwareConfig):
    """Exact internal signal(s) for input ``x`` (one pair or an (n, 2) batch).

    Returns ``(u, converged)`` with shapes matching the input layout.
    """
    arr = np.atleast_2d(np.asarray(x, dtype=complex))
    gamma, rho = np.asarray(hw.gamma, dtype=float), np.asarray(hw.rho, dtype=float)
    u, converged = _solve_chunk(arr, gamma, hw.feedback_matrix, rho, coupling_matrix(hw))
    if np.ndim(x) == 1:
        return u[0], bool(converged[0])
    return u, converged


def golden_section_min(fun, lo, hi, iters=200):
    """Scalar minimizer of a unimodal function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    for _ in range(iters):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = fun(d)
        if b - a <= 1e-15 * max(1.0, abs(b)):
            break
    return 0.5 * (a + b)


def exact_positive_root(coeffs):
    """Correctly rounded positive root of a polynomial with one sign change.

    Coefficients are highest power first; with the leading one made
    positive, ``p(0)`` must be negative.  A :class:`fractions.Fraction`
    bisection: the bracket narrows over adjacent doubles, each tested by
    the exact sign of ``p``, and the exact sign at the midpoint of the
    last pair rounds the root.  Slow, stdlib only, and independent of
    ``polyroots``.
    """
    exact = [Fraction(float(c)) for c in coeffs]
    while exact and exact[0] == 0:
        exact.pop(0)
    if exact and exact[0] < 0:
        exact = [-c for c in exact]

    def sign(x):
        acc = Fraction(0)
        for c in exact:
            acc = acc * x + c
        return (acc > 0) - (acc < 0)

    if len(exact) < 2 or sign(Fraction(0)) >= 0:
        raise ValueError("expected p(0) < 0 under a positive leading coefficient")
    hi = 1.0
    while sign(Fraction(hi)) <= 0:
        hi *= 2.0
    lo_bits, hi_bits = 0, _float_bits(hi)
    while hi_bits - lo_bits > 1:
        mid = (lo_bits + hi_bits) // 2
        if sign(Fraction(_bits_float(mid))) <= 0:
            lo_bits = mid
        else:
            hi_bits = mid
    lo, hi = _bits_float(lo_bits), _bits_float(hi_bits)
    return lo if sign((Fraction(lo) + Fraction(hi)) / 2) >= 0 else hi


def _float_bits(x):
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(n):
    return struct.unpack("<d", struct.pack("<q", n))[0]


def log_power_grid(lo_dbm=-40.0, hi_dbm=20.0, n=10 ** 4):
    """Log-spaced absolute powers in watt."""
    return 1e-3 * 10.0 ** (np.linspace(lo_dbm, hi_dbm, n) / 10.0)


def central_second_difference(fun, x, h):
    return (fun(x + h) - 2.0 * fun(x) + fun(x - h)) / (h * h)


def central_derivative(fun, x, h):
    return (fun(x + h) - fun(x - h)) / (2.0 * h)


def worst_nmse_on_grid(hw, sig, grid):
    """Grid scan of the worse branch NMSE.

    The cubic error coefficients are read off the term breakdown at unit
    power, so the scan itself is a plain polynomial evaluation.
    """
    rep = nmse_branches(hw, sig, 1.0)
    vals = []
    for terms, denom in ((rep.terms1, rep.nmse1), (rep.terms2, rep.nmse2)):
        scale = terms.total / denom  # denom[l] * p at p = 1
        err = (
            terms.cubic * grid ** 3
            + terms.quadratic * grid ** 2
            + terms.linear * grid
            + terms.noise
        )
        vals.append(err / (scale * grid))
    return np.maximum(vals[0], vals[1])


def minmax_grid_oracle(hw, sig, lo_dbm=-40.0, hi_dbm=20.0, n=10 ** 4):
    """Brute-force min-max power: returns (p_best, value, grid)."""
    grid = log_power_grid(lo_dbm, hi_dbm, n)
    worst = worst_nmse_on_grid(hw, sig, grid)
    i = int(np.argmin(worst))
    return grid[i], float(worst[i]), grid


def worst_envelope(cubic, quadratic, linear, denom, sigma_w2, p):
    """Worst branch NMSE at the power(s) ``p``, any branch count.

    Takes the per-branch polynomial arrays of ``error_polynomials_m``:
    branch ``l`` has NMSE ``(cubic[l] p^3 + quadratic[l] p^2 +
    linear[l] p + sigma_w2) / (denom[l] p)``.
    """
    p = np.asarray(p, dtype=float)[..., None]
    err = cubic * p ** 3 + quadratic * p ** 2 + linear * p + sigma_w2
    return np.max(err / (denom * p), axis=-1)


def minmax_envelope_oracle(cubic, quadratic, linear, denom, sigma_w2, n=10 ** 4):
    """Brute-force min-max power for any branch count: returns (p_best, value).

    A log grid from -40 to +20 dBm brackets the minimum of the convex
    worst-branch envelope, and a golden-section search between the
    grid neighbours of the best grid point polishes it.
    """
    grid = log_power_grid(n=n)
    i = int(np.argmin(worst_envelope(cubic, quadratic, linear, denom, sigma_w2, grid)))

    def fun(p):
        return float(worst_envelope(cubic, quadratic, linear, denom, sigma_w2, p))

    p = golden_section_min(fun, grid[max(i - 1, 0)], grid[min(i + 1, n - 1)])
    return p, fun(p)


def sndr_direct(c_eff, h, rho, sigma_w2, sigma_n2):
    """Post-combining SNDR written straight from its definition.

    Works for any branch count; used to benchmark both the scalar and
    the matrix evaluation routes in the package.
    """
    c_eff = np.asarray(c_eff, dtype=complex)
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho, dtype=float)
    lin = np.sum(h * c_eff)
    dist = np.sum(2.0 * h * rho * np.abs(c_eff) ** 2 * c_eff)
    sigma2 = 2.0 * sigma_w2 * float(np.sum(np.abs(h) ** 2)) + 2.0 * sigma_n2
    return float(2.0 * abs(lin + dist) ** 2 / (abs(dist) ** 2 + sigma2))


def sndr_matrix(c, channel, hw) -> float:
    """SNDR via the Bussgang matrix route, from the actual precoder ``c``.

    Builds the rank-one internal covariance ``Qc (Qc)^H``, the diagonal
    gain matrix and the distortion covariance, and evaluates
    ``|h^T A Q c|^2 / (h^T V h* + sigma_w2 ||h||^2 + sigma_n2)``.
    Agrees with ``dirtytx.sndr`` to rounding for all inputs.
    """
    q = coupling_matrix(hw)
    c = np.asarray(c, dtype=complex)
    c_eff = q @ c
    u_cov = np.outer(c_eff, c_eff.conj())
    rho = np.asarray(hw.rho, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BussgangGainWarning)
        gains = bussgang_gains(u_cov, rho)
    v = distortion_covariance(u_cov, rho)
    h = channel.h
    num = abs(np.dot(h, gains * c_eff)) ** 2
    den = float(np.dot(h, v @ h.conj()).real) + hw.sigma_w2 * float(
        np.vdot(h, h).real
    ) + channel.sigma_n2
    return float(num / den)


def effective_linear_gain(gamma: float, delta: float) -> float:
    """Signal gain of one branch of a symmetric distortion-free pair.

    ``delta = gamma * kappa`` is the real loop coefficient; the closed
    loop is only stable for ``|delta| < 1``.
    """
    if abs(delta) >= 1:
        raise FeedbackDivergenceError("loop coefficient magnitude must be < 1")
    return gamma * np.sqrt(1.0 + delta * delta) / (1.0 - delta * delta)


def linear_output_covariance(gamma: float, delta: float, p_x: float) -> np.ndarray:
    """Output covariance of the symmetric distortion-free pair.

    Assumes uncorrelated equal-power inputs (covariance ``p_x I``).  The
    off-diagonal shows the correlation introduced purely by crosstalk.
    """
    if abs(delta) >= 1:
        raise FeedbackDivergenceError("loop coefficient magnitude must be < 1")
    g2 = gamma * gamma
    scale = p_x / (1.0 - delta * delta) ** 2
    return scale * np.array(
        [[g2 * (1.0 + delta * delta), 2.0 * delta * g2],
         [2.0 * delta * g2, g2 * (1.0 + delta * delta)]]
    )


def se_amplitude_lattice(h, hw, sigma_n2, n=400, span=5.0, phases=(1.0, -1.0)):
    """Brute-force SE benchmark over an amplitude lattice.

    Scans per-branch amplitudes over [0, span * saturation] with the
    relative phase fixed to the channel-aligning choice or its opposite,
    and returns the best SE with its lattice location.  ``span`` values
    above one reach beyond the amplifier saturation amplitude, where the
    linearized score keeps growing along distortion-cancelling rays even
    though the operating point is unphysical; callers choose the span
    accordingly.
    """
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(hw.rho, dtype=float)
    sigma2 = 2.0 * hw.sigma_w2 * float(np.sum(np.abs(h) ** 2)) + 2.0 * sigma_n2
    sat = np.sqrt(1.0 / (2.0 * np.abs(rho)))
    amp1 = np.linspace(0.0, span * sat[0], n)
    amp2 = np.linspace(0.0, span * sat[1], n)
    a1, a2 = np.meshgrid(amp1, amp2, indexing="ij")
    w = np.conj(h[0]) * h[1]
    chi = np.exp(1j * np.angle(w)) if w != 0 else 1.0 + 0.0j
    best = {"se": -1.0}
    for sign in phases:
        lin = h[0] * (sign * chi) * a1 + h[1] * a2
        dist = 2.0 * h[0] * rho[0] * a1 ** 3 * (sign * chi) + 2.0 * h[1] * rho[1] * a2 ** 3
        sndr = 2.0 * np.abs(lin + dist) ** 2 / (np.abs(dist) ** 2 + sigma2)
        i = np.unravel_index(int(np.argmax(sndr)), sndr.shape)
        se = float(np.log2(1.0 + sndr[i]))
        if se > best["se"]:
            best = {
                "se": se,
                "amp1": float(a1[i]),
                "amp2": float(a2[i]),
                "sign": sign,
                "step1": float(amp1[1] - amp1[0]),
                "step2": float(amp2[1] - amp2[0]),
            }
    return best


def precoder_candidates(h, hw, sigma_n2):
    """``optimal_precoder``'s eight candidates, rebuilt from its docstring.

    Each stationary amplitude is the positive root of its cubic in
    ``r^2``, found with ``np.roots``.  Returns the candidate rows in tag
    order, their tags, and ``(amplitude, saturation)`` for each of the
    four stationary amplitudes.
    """
    h = np.asarray(h, dtype=complex)
    r1, r2 = hw.rho
    sigma2 = 2.0 * hw.sigma_w2 * float(np.sum(np.abs(h) ** 2)) + 2.0 * sigma_n2
    g1, g2 = 2.0 * np.abs(h) * np.abs(hw.rho)
    tau = np.sqrt(r1 / r2)
    sat1, sat2 = np.sqrt(1.0 / (2.0 * np.abs(hw.rho)))

    def amplitude(g, rho):
        roots = np.roots([2.0 * g * g, 0.0, 6.0 * abs(rho) * sigma2, -sigma2])
        s = roots[(np.abs(roots.imag) <= 1e-9 * np.abs(roots)) & (roots.real > 0)].real
        assert s.size == 1
        return float(np.sqrt(s[0]))

    w = np.conj(h[0]) * h[1]
    chi = np.exp(1j * np.angle(w)) if w != 0 else 1.0 + 0.0j
    b2, b1 = amplitude(g2, r2), amplitude(g1, r1)
    al, op = amplitude(g1 + tau ** 3 * g2, r1), amplitude(g1 - tau ** 3 * g2, r1)
    rows = np.array([
        [0.0, sat2], [0.0, b2], [sat1 * chi, 0.0], [b1 * chi, 0.0],
        [sat1 * chi, tau * sat1], [al * chi, tau * al],
        [-sat1 * chi, tau * sat1], [-op * chi, tau * op],
    ], dtype=complex)
    tags = ("b2_saturation", "b2_stationary", "b1_saturation", "b1_stationary",
            "joint_saturation_aligned", "joint_stationary_aligned",
            "joint_saturation_opposed", "joint_stationary_opposed")
    return rows, tags, ((b2, sat2), (b1, sat1), (al, sat1), (op, sat1))


def random_hardware(rng):
    """A random two-branch hardware draw inside the weak-crosstalk regime."""
    gain2 = rng.uniform(100.0, 2000.0, size=2)
    kap2 = 10.0 ** rng.uniform(-7.0, -5.4, size=2)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=2)
    rho = -rng.uniform(0.01, 0.04, size=2)
    sigma_w2 = 10.0 ** rng.uniform(-4.5, -3.5)
    return HardwareConfig(
        gamma=(float(np.sqrt(gain2[0])), float(np.sqrt(gain2[1]))),
        kappa=(
            complex(np.sqrt(kap2[0]) * np.exp(1j * phase[0])),
            complex(np.sqrt(kap2[1]) * np.exp(1j * phase[1])),
        ),
        rho=(float(rho[0]), float(rho[1])),
        sigma_w2=float(sigma_w2),
    )


def random_signal(rng, p_x=1e-3):
    radius = rng.uniform(0.0, 0.9)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    return SignalSpec(
        p_x=p_x,
        beta=float(rng.uniform(0.6, 1.6)),
        xi=complex(radius * np.exp(1j * angle)),
    )


def random_channels(rng, count, m=2):
    return (rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))) / np.sqrt(2.0)
