"""Downlink precoding over the impaired transmitter: SNDR, SE and designs.

A single-antenna receiver sees ``z = h^T y + n``.  With the transmitter
linearization, the post-combining SNDR depends on the precoder only
through the effective vector ``c_eff = Q c`` seen by the amplifiers, and
takes a closed rational form in ``c_eff``.  This module evaluates that
form, maximizes it exactly over the two-branch candidate set, and
implements the two maximum-ratio baselines (conventional and
distortion-aware).  Each design step works on a stack of channel rows:
the single-channel designs run it on a one-row stack, and
:func:`design_se` runs all three designs on many channels at once.

Every design takes either hardware container, :class:`HardwareConfig`
or ``mxm.HardwareConfigM``, and shares one input check.  The
matched-filter designs and their curves run for any branch count; the
exact candidate-set optimizer is specific to two branches.

Rounding contract: a row's ``c_eff``, SNDR, SE and provenance do not
depend on how many rows or candidates share its stack.  Every sum over
the branch axis is a left-to-right sum of elementwise products (never a
``matmul``), squared moduli are ``re*re + im*im`` and moduli
``np.hypot``, so each entry goes through the same elementwise operations
in any stack.  Each design step returns its own score of its pick, which
is the SNDR the result reports.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryEvaluationError, NoFiniteOptimumError, NumericalError
from .model import BussgangGainWarning, HardwareConfig, coupling_matrix
# real_roots is not called here, but stays a name of this module: perfbench's
# tracer test reads precoding.real_roots.
from .polyroots import (  # noqa: F401
    best_candidate,
    real_roots,
    stacked_positive_roots,
    stacked_real_roots,
)

__all__ = [
    "ChannelSpec",
    "PrecoderSolution",
    "sndr",
    "achievable_se",
    "optimal_precoder",
    "perturbation_se",
    "conventional_mrt",
    "distortion_aware_mrt",
    "distortion_aware_curve",
    "mrt_ray_curve",
    "design_se",
]

# Bussgang gains this far below zero flag a solution as outside the
# sensible operating region of the linearized model.
_GAIN_TOL = 1e-12
# Provenance tags of optimal_precoder's candidates, in scoring order.
_CANDIDATES = (
    "b2_saturation", "b2_stationary", "b1_saturation", "b1_stationary",
    "joint_saturation_aligned", "joint_stationary_aligned",
    "joint_saturation_opposed", "joint_stationary_opposed",
)
_SATURATION = ("precoder drives a branch past saturation (negative Bussgang gain); "
               "linearized SE is not reliable here")
# Channels per batched pass of design_se; bounds its (chunk, 200, M) arrays.
_CHUNK = 256


def _check_channels(h, sigma_n2):
    """The channel checks of :class:`ChannelSpec`, on one channel or a stack of rows."""
    if not np.all(np.isfinite(h)):
        raise ValueError("channel entries must be finite")
    if np.any(np.all(h == 0, axis=-1)):
        raise ValueError("channel must not be identically zero")
    if not 0 < sigma_n2 < np.inf:
        raise ValueError("receiver noise variance must be positive and finite")


@dataclass(frozen=True)
class ChannelSpec:
    """Receiver-side channel: complex row ``h`` plus combining noise."""

    h: np.ndarray
    sigma_n2: float

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.h, dtype=complex))
        if h.ndim != 1 or h.size < 1:
            raise ValueError("channel must be a 1-D complex vector")
        _check_channels(h, self.sigma_n2)
        object.__setattr__(self, "h", h)

    @property
    def n_branches(self) -> int:
        return self.h.size


@dataclass(frozen=True)
class PrecoderSolution:
    """A precoder with its post-combining performance.

    ``provenance`` names the candidate (or baseline search point) the
    solution came from.  ``valid`` is cleared when any Bussgang gain at
    the solution is negative, i.e. the branch is driven past amplifier
    saturation and the linearized performance figures stop being
    trustworthy.
    """

    c_eff: np.ndarray
    c: np.ndarray
    se: float
    sndr: float
    provenance: str
    bussgang_gains: np.ndarray
    valid: bool = True

    @property
    def p_x(self) -> float:
        """Reference transmit power |c_1|^2 of the actual precoder."""
        return float(abs(self.c[0]) ** 2)


def _noise_terms(h, rho, sigma_w2, sigma_n2):
    """Constants ``(h_tilde, sigma2)`` of the SNDR form per channel row of ``h``.

    ``h_tilde[i, l] = 2 h[i, l] rho[l]`` weighs the cubic distortion of
    branch ``l`` at receiver ``i``, and ``sigma2[i] = 2 sigma_w2
    ||h[i]||^2 + 2 sigma_n2`` is the combined noise floor of that form.
    """
    return 2.0 * h * rho, 2.0 * sigma_w2 * _branch_sum(_abs2(h)) + 2.0 * sigma_n2


def _abs2(z):
    """Squared modulus ``re*re + im*im``, entry by entry."""
    return z.real * z.real + z.imag * z.imag


def _branch_sum(x):
    """Sum over the last (branch) axis, added left to right."""
    total = x[..., 0]
    for l in range(1, x.shape[-1]):
        total = total + x[..., l]
    return total


def _sndr(c_eff, h, h_tilde, sigma2):
    """Scalar-form SNDR of ``(n, k, M)`` precoders, ``k`` per channel row of ``h``: ``(n, k)``."""
    lin = _branch_sum(c_eff * h[:, None, :])
    dist = _branch_sum(_abs2(c_eff) * c_eff * h_tilde[:, None, :])
    return 2.0 * _abs2(lin + dist) / (_abs2(dist) + sigma2[:, None])


def sndr(c_eff, channel: ChannelSpec, hw: HardwareConfig) -> float:
    """Scalar-form SNDR of an effective precoder ``c_eff = Q c``; a precoder or
    channel whose length is not the hardware's branch count raises ``ValueError``."""
    c_eff, rho = np.asarray(c_eff, dtype=complex), np.asarray(hw.rho, dtype=float)
    if not c_eff.shape == channel.h.shape == rho.shape:
        raise ValueError("precoder length must match the branch count")
    h = channel.h[None]
    h_tilde, sigma2 = _noise_terms(h, rho, hw.sigma_w2, channel.sigma_n2)
    return float(_sndr(c_eff[None, None], h, h_tilde, sigma2)[0, 0])


def achievable_se(sndr_value: float) -> float:
    """Spectral efficiency bound log2(1 + SNDR) in bit per channel use."""
    if sndr_value < 0:
        raise ValueError("SNDR must be non-negative")
    return float(np.log2(1.0 + sndr_value))


def _finalize(c_eff, s, q, rho, provenance) -> PrecoderSolution:
    """The solution of a design's picked ``c_eff``, scored ``s`` by its step.

    A picked precoder or SNDR that is not finite raises
    ``NoFiniteOptimumError``.
    """
    c_eff, s = np.asarray(c_eff, dtype=complex), float(s)
    if not (math.isfinite(s) and np.isfinite(c_eff).all()):
        raise NoFiniteOptimumError("the design has no finite precoder and SNDR on this channel")
    c = np.linalg.solve(q, c_eff)
    gains = 1.0 + 2.0 * rho * _abs2(c_eff)
    valid = bool(np.min(gains) >= -_GAIN_TOL)
    if not valid:
        warnings.warn(_SATURATION, BussgangGainWarning, stacklevel=3)
    return PrecoderSolution(
        c_eff=c_eff,
        c=c,
        se=achievable_se(s),
        sndr=s,
        provenance=provenance,
        bussgang_gains=gains,
        valid=valid,
    )


def _design_inputs(channel: ChannelSpec, hw):
    """Inputs ``(q, h, rho, h_tilde, sigma2)`` of a design, any branch count.

    ``h`` is the channel as a one-row stack.  Every design takes one
    channel entry per branch and strictly compressive branches; anything
    else raises ``ValueError``.
    """
    q, rho = _hw_inputs(hw, channel.n_branches)
    h = channel.h[None]
    return (q, h, rho, *_noise_terms(h, rho, hw.sigma_w2, channel.sigma_n2))


def _hw_inputs(hw, n_branches):
    """The hardware half ``(q, rho)`` of :func:`_design_inputs`, with its checks."""
    rho = np.asarray(hw.rho, dtype=float)
    if n_branches != rho.size:
        raise ValueError("channel length must match the branch count")
    if not (rho < 0).all():
        raise ValueError("all branches must be strictly compressive")
    return coupling_matrix(hw), rho


def _optimal_rows(h, rho, h_tilde, sigma2):
    """:func:`optimal_precoder`'s candidates, scored and picked per channel row.

    Returns the picked ``c_eff`` rows, their SNDR and candidate indices; a
    row without a finite candidate gets NaN and index -1.
    """
    n = h.shape[0]
    r1, r2 = rho
    g1, g2 = np.hypot(h_tilde.real, h_tilde.imag).T
    w = np.conj(h[:, 0]) * h[:, 1]
    chi = np.where(w != 0, np.exp(1j * np.angle(w)), 1.0)
    tau = np.sqrt(abs(r1) / abs(r2))
    sat1 = np.sqrt(1.0 / (2.0 * abs(r1)))
    sat2 = np.sqrt(1.0 / (2.0 * abs(r2)))
    g = np.stack([g2, g1, g1 + tau ** 3 * g2, g1 - tau ** 3 * g2], axis=1)
    # The four stationary amplitudes solve 2 g^2 s^3 - 6 rho sigma2 s -
    # sigma2 = 0 in s = r^2, with one positive root each.
    cubics = np.zeros((n, 4, 4))
    cubics[:, :, 0] = 2.0 * (g * g)
    cubics[:, :, 2] = (-6.0 * np.array([r2, r1, r1, r1])) * sigma2[:, None]
    cubics[:, :, 3] = -sigma2[:, None]
    amps = np.sqrt(stacked_positive_roots(cubics.reshape(-1, 4))).reshape(n, 4)
    amp2, amp1, amp_al, amp_op = amps.T
    cand = np.zeros((n, 8, 2), dtype=complex)
    cand[:, 0, 1] = sat2
    cand[:, 1, 1] = amp2
    cand[:, (2, 4), 0] = (sat1 * chi)[:, None]
    cand[:, 3, 0] = amp1 * chi
    cand[:, (4, 6), 1] = tau * sat1
    cand[:, 5, 0], cand[:, 5, 1] = amp_al * chi, tau * amp_al
    cand[:, 6, 0] = sat1 * -chi
    cand[:, 7, 0], cand[:, 7, 1] = amp_op * -chi, tau * amp_op
    s = _sndr(cand, h, h_tilde, sigma2)
    values = np.where(np.isfinite(s), -s, np.inf).tolist()
    powers = np.sqrt(_branch_sum(_abs2(cand))).tolist()
    pick = np.array([best_candidate(v, p)[0] if min(v) < np.inf else -1
                     for v, p in zip(values, powers)], dtype=int)
    found, rows = pick >= 0, np.arange(n)
    score = np.where(found, s[rows, pick], np.nan)
    return np.where(found[:, None], cand[rows, pick], np.nan), score, pick


def _ray_directions(q, h):
    """Effective-domain matched-filter ray per channel row, normalized so
    that the ray parameter is the branch-1 reference power whenever h1
    is nonzero (else by ``||h||``).  ``q`` is one coupling matrix or one
    per row, as in the other steps."""
    ref = np.hypot(h[:, 0].real, h[:, 0].imag)
    if not ref.all():
        h = h.copy()
        for i in np.flatnonzero(ref == 0):
            h[i], ref[i] = _with_norm(h[i])
    return _branch_sum(q * h.conj()[:, None, :]) / ref[:, None]


def _with_norm(row):
    """``(row, ||row||)`` of a nonzero finite row.  Where that norm under-
    or overflows (``[0, 1e-320]``), the row is first divided by its
    largest modulus, part by part: a complex division by a subnormal
    number overflows."""
    norm = np.linalg.norm(row)
    if 0 < norm < np.inf:
        return row, norm
    row = (row.view(float) / np.hypot(row.real, row.imag).max()).view(complex)
    return row, np.linalg.norm(row)


def _conventional_rows(q, h, h_tilde, sigma2):
    """:func:`conventional_mrt`'s best ray point, its SNDR and its ray power per channel row.

    The ray SNDR is a rational function of the ray power whose interior
    stationary points are the positive roots of a quartic.  A row
    without one (a ray with no distortion has none) gets NaN.
    """
    c_hat = _ray_directions(q, h)
    k0 = _branch_sum(h * c_hat)
    k1 = _branch_sum(h_tilde * (_abs2(c_hat) * c_hat))
    wre = k0.real * k1.real + k0.imag * k1.imag  # Re(k0 conj(k1))
    a0, a1 = _abs2(k0), _abs2(k1)
    quartics = np.array([
        2.0 * a1 * wre,
        2.0 * a1 * a0,
        -3.0 * a1 * sigma2,
        -4.0 * wre * sigma2,
        -a0 * sigma2,
    ]).T
    # A ray without distortion gets x^4 + 1, which has no real root.
    quartics[k1 == 0] = (1.0, 0.0, 0.0, 0.0, 1.0)
    roots = stacked_real_roots(quartics)
    positive = roots > 0
    rows = np.sqrt(np.where(positive, roots, np.nan))[:, :, None] * c_hat[:, None, :]
    s = np.where(positive, _sndr(rows, h, h_tilde, sigma2), -np.inf)
    pick = np.arange(h.shape[0]), np.argmax(s, axis=1)
    power, score, none = roots[pick], s[pick], ~positive.any(axis=1)
    power[none] = score[none] = np.nan
    return np.sqrt(power)[:, None] * c_hat, score, power


def _distortion_aware_family(q, h, rho, h_tilde, sigma2):
    """Search grid, effective precoders and SNDR of the distortion-aware family.

    Per channel row, the 200-point logarithmic grid of the search
    parameter ``eta`` starts (through the small-signal relation ``p_x ~
    eta |(Q^-1 h*)_1|^2``, with the row's ``Q``) at roughly -40 dBm of
    reference power and ends where every branch is within two percent
    Bussgang gain of saturation, where the reachable power curve plateaus.
    Entry ``[i, k]`` holds the positive fixed points of ``c_eff[l] =
    sqrt(eta_k) h[i, l]* (1 + 2 rho[l] |c_eff[l]|^2)``, which exist for
    every eta > 0 because rho < 0 keeps the quadratic discriminant at
    least one; a branch whose squared channel modulus is 0 stays at 0.
    Returns ``(etas, rows, sndr)`` of shapes ``(n, 200)``, ``(n, 200,
    M)`` and ``(n, 200)``.
    """
    ref = np.linalg.solve(q, h.conj()[:, :, None])[:, 0, 0]
    ref = np.hypot(ref.real, ref.imag)
    ref = np.where(ref == 0, 1.0, ref)
    eta_lo = 1e-7 / (ref * ref)
    gain_floor = 0.02
    qmax = 2.0 / gain_floor - 1.0
    habs = np.hypot(h.real, h.imag)
    live = habs ** 2 > 0
    habs = np.where(live, habs, 1.0)
    eta_hi = np.max(np.where(live, (qmax ** 2 - 1.0) / (8.0 * np.abs(rho) * habs ** 2), 0.0),
                    axis=1)
    eta_hi = np.maximum(eta_hi, eta_lo * 10.0)
    etas = np.logspace(np.log10(eta_lo), np.log10(eta_hi), 200).T
    root_eta = np.sqrt(etas)[:, :, None]
    habs = habs[:, None, :]
    disc = np.sqrt(1.0 - 8.0 * rho * habs ** 2 * etas[:, :, None])
    amps = np.where(live[:, None, :], (1.0 - disc) / (4.0 * rho * habs * root_eta), 0.0)
    rows = amps * np.exp(-1j * np.angle(h))[:, None, :]
    return etas, rows, _sndr(rows, h, h_tilde, sigma2)


def _distortion_aware_rows(q, h, rho, h_tilde, sigma2):
    """:func:`distortion_aware_mrt`'s grid pick, its SNDR (NaN where its
    ``eta`` is not finite) and its ``eta`` per channel row."""
    etas, rows, scores = _distortion_aware_family(q, h, rho, h_tilde, sigma2)
    pick = np.arange(h.shape[0]), np.argmax(scores, axis=1)
    eta = etas[pick]
    return rows[pick], np.where(np.isfinite(eta), scores[pick], np.nan), eta


def optimal_precoder(channel: ChannelSpec, hw: HardwareConfig) -> PrecoderSolution:
    """SE-maximizing precoder for the two-branch transmitter.

    The SNDR is evaluated on eight candidates, in the order of their
    provenance tags: each branch alone at saturation
    ``sat_l = 1/sqrt(2|rho_l|)`` and at its amplitude stationary point
    (``b2_*``, then ``b1_*``), and, for receiver contributions aligned
    and then opposed, the ray ``|c_eff,2| = tau |c_eff,1|`` with
    ``tau = sqrt(rho_1 / rho_2)`` at its end, where both branches sit at
    saturation, and at its stationary point (``joint_*``).  A stationary
    amplitude ``r`` solves ``2 g^2 r^6 + 6 |rho| sigma2 r^2 - sigma2 = 0``,
    where ``g`` weighs the direction's distortion at the receiver:
    ``|h_tilde_l|`` for branch ``l`` alone, ``|h_tilde_1| +- tau^3
    |h_tilde_2|`` on the ray, with ``rho = rho_1``.  The cubic in ``r^2``
    is increasing and non-negative at ``sat^2 / 3``, so ``r <= sat /
    sqrt(3)`` and no two candidates coincide.  The best candidate by
    SNDR is returned, ties settled by :func:`polyroots.best_candidate`
    with the norm of ``c_eff`` as the power; without a finite one,
    ``NoFiniteOptimumError`` is raised.

    Edge stationary points, where one branch is pinned at saturation and
    the other amplitude is free, are not among the candidates.  On the
    opposed sheet such a point can beat every candidate, so on some
    channels the result is not the maximum over the feasible set
    ``|c_eff,l|^2 <= 1/(2|rho_l|)``.  Hardware of any other branch count
    raises ``ValueError``.
    """
    q, h, rho, h_tilde, sigma2 = _design_inputs(channel, hw)
    if rho.size != 2:
        raise ValueError("the optimal precoder needs exactly two branches")
    c_eff, s, pick = _optimal_rows(h, rho, h_tilde, sigma2)
    return _finalize(c_eff[0], s[0], q, rho, _CANDIDATES[pick[0]])


def perturbation_se(
    solution: PrecoderSolution,
    channel: ChannelSpec,
    hw: HardwareConfig,
    phase_shift: float = 0.0,
    amp_scale: float = 1.0,
) -> float:
    """SE after perturbing the first effective-precoder entry.

    The first entry is multiplied by ``amp_scale * exp(j phase_shift)``
    while the rest stays fixed; with the identity perturbation this
    returns the solution's own SE.
    """
    c_eff = solution.c_eff.copy()
    c_eff[0] = c_eff[0] * amp_scale * np.exp(1j * phase_shift)
    return achievable_se(sndr(c_eff, channel, hw))


def conventional_mrt(channel: ChannelSpec, hw: HardwareConfig) -> PrecoderSolution:
    """Best transmit power along the plain matched-filter precoder.

    The ray SNDR is a rational function of the ray power whose interior
    stationary points are quartic roots; the best root is returned.  A
    ray with no positive stationary point is flagged as a boundary case
    rather than silently clipped.
    """
    q, h, rho, h_tilde, sigma2 = _design_inputs(channel, hw)
    c_eff, s, power = _conventional_rows(q, h, h_tilde, sigma2)
    if np.isnan(power[0]):
        raise BoundaryEvaluationError(
            "matched-filter ray SNDR has no interior stationary point"
        )
    return _finalize(c_eff[0], s[0], q, rho, "conv_mrt[p=%.6g]" % power[0])


def distortion_aware_mrt(channel: ChannelSpec, hw: HardwareConfig) -> PrecoderSolution:
    """Line search over the distortion-aware matched-filter family.

    For each grid value of the search parameter the per-branch fixed
    points give an effective precoder whose useful part stays matched
    to the channel under the actual (compressed) Bussgang gains; the
    grid argmax of SE is returned.  A picked ``eta``, precoder or SNDR
    that is not finite raises ``NoFiniteOptimumError``.
    """
    q, h, rho, h_tilde, sigma2 = _design_inputs(channel, hw)
    c_eff, s, eta = _distortion_aware_rows(q, h, rho, h_tilde, sigma2)
    return _finalize(c_eff[0], s[0], q, rho, "da_mrt[eta=%.6g]" % eta[0])


def distortion_aware_curve(channel: ChannelSpec, hw: HardwareConfig):
    """Reference power and SE along the distortion-aware family.

    Returns ``(eta_grid, p_x, se)`` arrays over the family's search grid;
    useful for sweep plots where the family is compared against
    fixed-power baselines.  A channel on which some entry is not finite
    (a grid past the float range) raises ``NoFiniteOptimumError``.
    """
    q, h, rho, h_tilde, sigma2 = _design_inputs(channel, hw)
    etas, rows, scores = _distortion_aware_family(q, h, rho, h_tilde, sigma2)
    c_rows = np.linalg.solve(q, rows[0].T).T
    curve = etas[0], _abs2(c_rows[:, 0]), np.log2(1.0 + scores[0])
    if not all(np.isfinite(a).all() for a in curve):
        raise NoFiniteOptimumError("the distortion-aware family is not finite on this channel")
    return curve


def mrt_ray_curve(channel: ChannelSpec, hw: HardwareConfig, p_grid):
    """SE along the plain matched-filter ray at given ray powers.

    Every ray power is scored with the linearized SNDR form.  Past the
    power where some branch saturates, ``|c_eff,l|^2 > 1/(2|rho_l|)``,
    that form keeps rising although the amplifier cannot deliver it, so
    SE values there are not trustworthy.  On a channel with one weak
    branch the ray saturates inside a typical sweep grid, and the curve
    can then exceed the feasible optimum of :func:`conventional_mrt`;
    this is the ``se-mrt-sweep`` check that perfbench's ``small-calls``
    workload fails at seeds 29, 30, 41, 60, 74 and 87 (of 1 to 100).
    An SE value that is not finite raises ``NoFiniteOptimumError``.
    """
    q, h, _, h_tilde, sigma2 = _design_inputs(channel, hw)
    p_grid = np.asarray(p_grid, dtype=float)
    if np.any(p_grid < 0):
        raise ValueError("ray powers must be non-negative")
    rows = np.sqrt(p_grid)[:, None] * _ray_directions(q, h)
    se = np.log2(1.0 + _sndr(rows[None], h, h_tilde, sigma2))[0]
    if not np.isfinite(se).all():
        raise NoFiniteOptimumError("the matched-filter ray SE is not finite on this channel")
    return se


def _design_rows(q, h, rho, sigma_w2, sigma_n2):
    """The three designs on a stack of channel rows, row ``i`` coupled by ``q[i]``.

    Returns their ``(n, 3)`` SE and validity flags, and the rows that got
    a finite precoder and SE from every design.
    """
    h_tilde, sigma2 = _noise_terms(h, rho, sigma_w2, sigma_n2)
    c_eff, s, _ = zip(_optimal_rows(h, rho, h_tilde, sigma2),
                      _distortion_aware_rows(q, h, rho, h_tilde, sigma2),
                      _conventional_rows(q, h, h_tilde, sigma2))
    c_eff = np.stack(c_eff)
    se = np.log2(1.0 + np.stack(s, 1))
    valid = np.min(1.0 + 2.0 * rho * _abs2(c_eff), axis=2) >= -_GAIN_TOL
    return se, valid.T, np.all(np.isfinite(c_eff), axis=(0, 2)) & np.isfinite(se).all(axis=1)


def design_se(channels, sigma_n2, hw) -> np.ndarray:
    """SE of the optimal, distortion-aware and conventional designs per channel.

    ``channels`` is an ``(n, 2)`` stack of channel rows with the common
    receiver noise ``sigma_n2``.  With one hardware container ``hw``, row
    ``i`` of the ``(n, 3)`` result is the SE of :func:`optimal_precoder`,
    :func:`distortion_aware_mrt` and :func:`conventional_mrt` on
    ``ChannelSpec(channels[i], sigma_n2)``.  A list or tuple of ``k``
    containers that share ``rho`` and ``sigma_w2`` (a crosstalk or gain
    sweep) gives ``(k, n, 3)``, ``[j, i]`` being that row on point ``j``;
    an empty one gives ``(0, n, 3)``.  Only the coupling matrix ``Q``
    differs between points, so every row carries its own; the optimal
    column does not depend on it, as its candidates live in the ``c_eff``
    domain.  The errors and ``BussgangGainWarning`` of a loop over
    (point, channel) come from here too, in the same order.  All points x
    channels are solved in point-major stacked passes of a fixed size.
    A row without a finite answer from some design, and every row of a
    pass that raises, runs the single-channel designs with its point's
    hardware, which raise as that loop would.
    """
    many = isinstance(hw, (list, tuple))
    points = list(hw) if many else [hw]
    h = np.asarray(channels, dtype=complex)
    if h.ndim != 2:
        raise ValueError("channels must be a 2-D stack of channel rows")
    _check_channels(h, sigma_n2)
    inputs = [_hw_inputs(point, h.shape[1]) for point in points]
    n = h.shape[0]
    if not inputs:
        return np.empty((0, n, 3))
    rho, sigma_w2 = inputs[0][1], points[0].sigma_w2
    if rho.size != 2:
        raise ValueError("the optimal precoder needs exactly two branches")
    if any(not np.array_equal(r, rho) or p.sigma_w2 != sigma_w2
           for (_, r), p in zip(inputs, points)):
        raise ValueError("hardware points of one design_se call must share rho and sigma_w2")
    q = np.repeat([q for q, _ in inputs], n, axis=0)
    h = np.tile(h, (len(points), 1))
    se = np.empty((h.shape[0], 3))
    for start in range(0, h.shape[0], _CHUNK):
        rows, out = h[start:start + _CHUNK], se[start:start + _CHUNK]
        try:
            with np.errstate(all="ignore"):
                out[:], valid, answered = _design_rows(q[start:start + _CHUNK], rows, rho,
                                                       sigma_w2, sigma_n2)
        except (NumericalError, ValueError):
            # Raised by the single-row solvers that take a stack's odd
            # rows: the loop below then meets the same error at its row.
            valid, answered = np.ones(out.shape, dtype=bool), np.zeros(rows.shape[0], dtype=bool)
        for i in np.flatnonzero(~answered | ~valid.all(axis=1)):
            if answered[i]:
                for _ in range(np.count_nonzero(~valid[i])):
                    warnings.warn(_SATURATION, BussgangGainWarning, stacklevel=2)
                continue
            ch, point = ChannelSpec(h=rows[i], sigma_n2=sigma_n2), points[(start + i) // n]
            out[i] = (optimal_precoder(ch, point).se, distortion_aware_mrt(ch, point).se,
                      conventional_mrt(ch, point).se)
    se = se.reshape(len(points), n, 3)
    return se if many else se[0]
