"""Downlink precoding over the impaired transmitter: SNDR, SE and designs.

A single-antenna receiver sees ``z = h^T y + n``.  With the transmitter
linearization, the post-combining SNDR depends on the precoder only
through the effective vector ``c_eff = Q c`` seen by the amplifiers, and
takes a closed rational form in ``c_eff``.  This module evaluates that
form, maximizes it exactly over the two-branch candidate set, and
implements the two maximum-ratio baselines (conventional and
distortion-aware).

The amplitude engines are written for any branch count; the exact
candidate-set optimizer is specific to two branches.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryEvaluationError, NoFiniteOptimumError
from .model import BussgangGainWarning, HardwareConfig, coupling_matrix
from .polyroots import real_roots, unique_positive_root

__all__ = [
    "ChannelSpec",
    "EffectiveNoise",
    "PrecoderSolution",
    "sndr",
    "achievable_se",
    "optimal_precoder",
    "perturbation_se",
    "conventional_mrt",
    "distortion_aware_mrt",
    "default_eta_grid",
    "distortion_aware_curve",
    "mrt_ray_curve",
]

# Bussgang gains this far below zero flag a solution as outside the
# sensible operating region of the linearized model.
_GAIN_TOL = 1e-12
_TIE_REL = 1e-12


@dataclass(frozen=True)
class ChannelSpec:
    """Receiver-side channel: complex row ``h`` plus combining noise."""

    h: np.ndarray
    sigma_n2: float

    def __post_init__(self):
        h = np.atleast_1d(np.asarray(self.h, dtype=complex))
        if h.ndim != 1 or h.size < 1:
            raise ValueError("channel must be a 1-D complex vector")
        if not np.all(np.isfinite(h.view(float))):
            raise ValueError("channel entries must be finite")
        if np.linalg.norm(h) == 0:
            raise ValueError("channel must not be identically zero")
        if not self.sigma_n2 > 0:
            raise ValueError("receiver noise variance must be positive")
        object.__setattr__(self, "h", h)

    @property
    def n_branches(self) -> int:
        return self.h.size


@dataclass(frozen=True)
class EffectiveNoise:
    """Constants of the scalar SNDR form.

    ``h_tilde[l] = 2 h[l] rho[l]`` weighs the cubic distortion of branch
    ``l`` at the receiver, and ``sigma2 = 2 sigma_w2 ||h||^2 +
    2 sigma_n2`` is the combined noise floor of that form.
    """

    h_tilde: np.ndarray
    sigma2: float

    def __post_init__(self):
        if not self.sigma2 > 0:
            raise ValueError("effective noise variance must be positive")

    @classmethod
    def from_parts(cls, h, rho, sigma_w2, sigma_n2) -> "EffectiveNoise":
        h = np.asarray(h, dtype=complex)
        rho = np.asarray(rho, dtype=float)
        sigma2 = 2.0 * sigma_w2 * float(np.vdot(h, h).real) + 2.0 * sigma_n2
        return cls(h_tilde=2.0 * h * rho, sigma2=sigma2)

    @classmethod
    def from_channel(cls, channel: ChannelSpec, hw: HardwareConfig) -> "EffectiveNoise":
        return cls.from_parts(channel.h, hw.rho_vector, hw.sigma_w2, channel.sigma_n2)


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


def _sndr_value(c_eff, h, h_tilde, sigma2) -> float:
    cubic = np.abs(c_eff) ** 2 * c_eff
    lin = np.dot(h, c_eff)
    dist = np.dot(h_tilde, cubic)
    num = 2.0 * abs(lin + dist) ** 2
    den = abs(dist) ** 2 + sigma2
    return float(num / den)


def _sndr_batch(c_eff_rows: np.ndarray, h, h_tilde, sigma2) -> np.ndarray:
    """Scalar-form SNDR for each row of effective precoders."""
    cubic = np.abs(c_eff_rows) ** 2 * c_eff_rows
    lin = c_eff_rows @ h
    dist = cubic @ h_tilde
    return 2.0 * np.abs(lin + dist) ** 2 / (np.abs(dist) ** 2 + sigma2)


def sndr(c_eff, channel: ChannelSpec, hw: HardwareConfig) -> float:
    """Scalar-form SNDR of an effective precoder ``c_eff = Q c``."""
    en = EffectiveNoise.from_channel(channel, hw)
    return _sndr_value(np.asarray(c_eff, dtype=complex), channel.h, en.h_tilde, en.sigma2)


def achievable_se(sndr_value: float) -> float:
    """Spectral efficiency bound log2(1 + SNDR) in bit per channel use."""
    if sndr_value < 0:
        raise ValueError("SNDR must be non-negative")
    return float(np.log2(1.0 + sndr_value))


def _finalize(c_eff, q, h, h_tilde, sigma2, rho, provenance) -> PrecoderSolution:
    c_eff = np.asarray(c_eff, dtype=complex)
    c = np.linalg.solve(q, c_eff)
    gains = 1.0 + 2.0 * rho * np.abs(c_eff) ** 2
    valid = bool(np.min(gains) >= -_GAIN_TOL)
    if not valid:
        warnings.warn(
            "precoder drives a branch past saturation (negative Bussgang gain); "
            "linearized SE is not reliable here",
            BussgangGainWarning,
            stacklevel=3,
        )
    s = _sndr_value(c_eff, h, h_tilde, sigma2)
    return PrecoderSolution(
        c_eff=c_eff,
        c=c,
        se=achievable_se(s),
        sndr=s,
        provenance=provenance,
        bussgang_gains=gains,
        valid=valid,
    )


def _amp_cubic_root(gain2: float, rho_l: float, sigma2: float) -> float:
    """Positive amplitude solving 2*gain2*r^6 - 6 rho_l sigma2 r^2 - sigma2 = 0.

    ``gain2`` is the squared distortion weight of the active direction.
    Substituting s = r^2 gives a cubic with exactly one positive root;
    a vanishing leading coefficient (distortion-cancelling direction)
    degrades it to the linear balance s = 1/(-6 rho_l).
    """
    s = unique_positive_root(np.array([2.0 * gain2, 0.0, -6.0 * rho_l * sigma2, -sigma2]))
    return float(np.sqrt(s))


def optimal_precoder(channel: ChannelSpec, hw: HardwareConfig) -> PrecoderSolution:
    """SE-maximizing precoder for the two-branch transmitter.

    The maximizer lies in a finite candidate set: per-branch and joint
    amplitude stationary points, their saturation endpoints, and two
    relative-phase cases (receiver contributions aligned or opposed).
    All candidates are evaluated and the best is returned; equal-SE ties
    resolve toward the smaller effective power.
    """
    if channel.n_branches != 2:
        raise ValueError("the exact candidate-set optimizer handles two branches")
    r1, r2 = hw.rho
    if not (r1 < 0 and r2 < 0):
        raise ValueError("both branches must be strictly compressive")

    h = channel.h
    en = EffectiveNoise.from_channel(channel, hw)
    sigma2 = en.sigma2
    ht_abs = np.abs(en.h_tilde)
    q = coupling_matrix(hw)
    rho = hw.rho_vector

    # Relative phase that aligns both branches at the receiver; the
    # second entry of c_eff is kept real non-negative as the gauge.
    w = np.conj(h[0]) * h[1]
    chi_aligned = np.exp(1j * np.angle(w)) if w != 0 else 1.0 + 0.0j
    tau = np.sqrt(abs(r1) / abs(r2))

    sat1 = np.sqrt(1.0 / (2.0 * abs(r1)))
    sat2 = np.sqrt(1.0 / (2.0 * abs(r2)))

    cand: list[tuple[str, np.ndarray]] = []

    cand.append(("b2_saturation", np.array([0.0, sat2], dtype=complex)))
    cand.append((
        "b2_stationary",
        np.array([0.0, _amp_cubic_root(ht_abs[1] ** 2, r2, sigma2)], dtype=complex),
    ))
    cand.append(("b1_saturation", np.array([sat1 * chi_aligned, 0.0])))
    cand.append((
        "b1_stationary",
        np.array([_amp_cubic_root(ht_abs[0] ** 2, r1, sigma2) * chi_aligned, 0.0]),
    ))

    for phase_tag, sign in (("aligned", 1.0), ("opposed", -1.0)):
        chi = sign * chi_aligned
        cand.append((
            "joint_saturation_" + phase_tag,
            np.array([sat1 * chi, tau * sat1], dtype=complex),
        ))
        gain = ht_abs[0] + sign * tau ** 3 * ht_abs[1]
        amp1 = _amp_cubic_root(gain * gain, r1, sigma2)
        cand.append((
            "joint_stationary_" + phase_tag,
            np.array([amp1 * chi, tau * amp1], dtype=complex),
        ))

    # Collapse duplicated candidates, keeping every matching tag in the
    # provenance of the survivor.
    unique: list[tuple[str, np.ndarray]] = []
    for tag, vec in cand:
        for i, (utag, uvec) in enumerate(unique):
            if np.allclose(vec, uvec, rtol=0, atol=1e-12 * (1.0 + np.linalg.norm(uvec))):
                unique[i] = (utag + "+" + tag, uvec)
                break
        else:
            unique.append((tag, vec))

    scored = []
    for tag, vec in unique:
        s = _sndr_value(vec, h, en.h_tilde, sigma2)
        if np.isfinite(s):
            scored.append((s, tag, vec))
    if not scored:
        raise NoFiniteOptimumError("no candidate produced a finite SNDR")

    best = max(s for s, _, _ in scored)
    top = [(np.linalg.norm(vec), s, tag, vec) for s, tag, vec in scored
           if s >= best - _TIE_REL * max(1.0, best)]
    _, s_sel, tag_sel, vec_sel = min(top, key=lambda item: item[0])
    return _finalize(vec_sel, q, h, en.h_tilde, sigma2, rho, tag_sel)


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
    en = EffectiveNoise.from_channel(channel, hw)
    return achievable_se(_sndr_value(c_eff, channel.h, en.h_tilde, en.sigma2))


def _mrt_direction(q: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Effective-domain matched-filter ray, normalized so that the ray
    parameter is the branch-1 reference power whenever h1 is nonzero."""
    ref = abs(h[0])
    if ref == 0:
        ref = float(np.linalg.norm(h))
    return q @ h.conj() / ref


def _conventional_mrt_engine(q, h, rho, sigma_w2, sigma_n2) -> PrecoderSolution:
    en = EffectiveNoise.from_parts(h, rho, sigma_w2, sigma_n2)
    c_hat = _mrt_direction(q, h)
    k0 = np.dot(h, c_hat)
    k1 = np.dot(en.h_tilde, np.abs(c_hat) ** 2 * c_hat)
    if abs(k1) == 0:
        raise BoundaryEvaluationError(
            "matched-filter ray carries no distortion; the ray SNDR has no interior maximum"
        )
    wre = (k0 * np.conj(k1)).real
    quartic = np.array([
        2.0 * abs(k1) ** 2 * wre,
        2.0 * abs(k1) ** 2 * abs(k0) ** 2,
        -3.0 * abs(k1) ** 2 * en.sigma2,
        -4.0 * wre * en.sigma2,
        -abs(k0) ** 2 * en.sigma2,
    ])
    powers = real_roots(quartic).positive_roots
    if powers.size == 0:
        raise BoundaryEvaluationError(
            "matched-filter ray SNDR has no interior stationary point"
        )
    best_p, best_s = None, -np.inf
    for p in powers:
        s = _sndr_value(np.sqrt(p) * c_hat, h, en.h_tilde, en.sigma2)
        if s > best_s:
            best_p, best_s = p, s
    return _finalize(
        np.sqrt(best_p) * c_hat,
        q,
        h,
        en.h_tilde,
        en.sigma2,
        np.asarray(rho, dtype=float),
        "conv_mrt[p=%.6g]" % best_p,
    )


def conventional_mrt(channel: ChannelSpec, hw: HardwareConfig) -> PrecoderSolution:
    """Best transmit power along the plain matched-filter precoder.

    The ray SNDR is a rational function of the ray power whose interior
    stationary points are quartic roots; the best root is returned.  A
    ray with no positive stationary point is flagged as a boundary case
    rather than silently clipped.
    """
    if not all(r < 0 for r in hw.rho):
        raise ValueError("both branches must be strictly compressive")
    return _conventional_mrt_engine(
        coupling_matrix(hw), channel.h, hw.rho_vector, hw.sigma_w2, channel.sigma_n2
    )


def _da_mrt_rows(h: np.ndarray, rho: np.ndarray, etas: np.ndarray) -> np.ndarray:
    """Distortion-aware matched filters, one row per search parameter.

    Each entry is the positive fixed point of
    ``c_eff[l] = sqrt(eta) h[l]* (1 + 2 rho[l] |c_eff[l]|^2)``,
    which exists for every eta > 0 because rho <= 0 keeps the quadratic
    discriminant at least one.
    """
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    habs = np.abs(h)
    amps = np.zeros((etas.size, h.size))
    root_eta = np.sqrt(etas)[:, None]
    linear = rho == 0
    bent = ~linear & (habs > 0)
    if np.any(linear):
        amps[:, linear] = root_eta * habs[linear]
    if np.any(bent):
        disc = np.sqrt(1.0 - 8.0 * rho[bent] * habs[bent] ** 2 * etas[:, None])
        amps[:, bent] = (1.0 - disc) / (4.0 * rho[bent] * habs[bent] * root_eta)
    return amps * np.exp(-1j * np.angle(h))


def default_eta_grid(h: np.ndarray, q: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """200-point logarithmic search grid for the distortion-aware matched filter.

    The lower end maps (through the small-signal relation
    ``p_x ~ eta |(Q^-1 h*)_1|^2``) to roughly -40 dBm of reference
    power; the upper end drives every branch to within two percent
    Bussgang gain of saturation, which is where the reachable power
    curve plateaus.
    """
    ref = abs(np.linalg.solve(q, h.conj())[0])
    if ref == 0:
        ref = 1.0
    eta_lo = 1e-7 / ref ** 2
    gain_floor = 0.02
    qmax = 2.0 / gain_floor - 1.0
    habs2 = np.abs(h) ** 2
    active = (habs2 > 0) & (rho < 0)
    if np.any(active):
        eta_hi = np.max((qmax ** 2 - 1.0) / (8.0 * np.abs(rho[active]) * habs2[active]))
    else:
        eta_hi = eta_lo * 1e8
    eta_hi = max(eta_hi, eta_lo * 10.0)
    return np.logspace(np.log10(eta_lo), np.log10(eta_hi), 200)


def _da_mrt_engine(q, h, rho, sigma_w2, sigma_n2, eta_grid) -> PrecoderSolution:
    en = EffectiveNoise.from_parts(h, rho, sigma_w2, sigma_n2)
    rows = _da_mrt_rows(h, np.asarray(rho, dtype=float), eta_grid)
    sndrs = _sndr_batch(rows, h, en.h_tilde, en.sigma2)
    best = int(np.argmax(sndrs))
    return _finalize(
        rows[best],
        q,
        h,
        en.h_tilde,
        en.sigma2,
        np.asarray(rho, dtype=float),
        "da_mrt[eta=%.6g]" % eta_grid[best],
    )


def distortion_aware_mrt(
    channel: ChannelSpec, hw: HardwareConfig, eta_grid=None
) -> PrecoderSolution:
    """Line search over the distortion-aware matched-filter family.

    For each grid value of the search parameter the per-branch fixed
    points give an effective precoder whose useful part stays matched
    to the channel under the actual (compressed) Bussgang gains; the
    grid argmax of SE is returned.
    """
    if not all(r < 0 for r in hw.rho):
        raise ValueError("both branches must be strictly compressive")
    q = coupling_matrix(hw)
    if eta_grid is None:
        eta_grid = default_eta_grid(channel.h, q, hw.rho_vector)
    eta_grid = np.asarray(eta_grid, dtype=float)
    if eta_grid.ndim != 1 or eta_grid.size == 0 or np.any(eta_grid <= 0):
        raise ValueError("eta grid must be a non-empty vector of positive values")
    return _da_mrt_engine(q, channel.h, hw.rho_vector, hw.sigma_w2, channel.sigma_n2, eta_grid)


def distortion_aware_curve(channel: ChannelSpec, hw: HardwareConfig):
    """Reference power and SE along the distortion-aware family.

    Returns ``(eta_grid, p_x, se)`` arrays over :func:`default_eta_grid`;
    useful for sweep plots where the family is compared against
    fixed-power baselines.
    """
    q = coupling_matrix(hw)
    eta_grid = default_eta_grid(channel.h, q, hw.rho_vector)
    en = EffectiveNoise.from_channel(channel, hw)
    rows = _da_mrt_rows(channel.h, hw.rho_vector, eta_grid)
    c_rows = np.linalg.solve(q, rows.T).T
    p_x = np.abs(c_rows[:, 0]) ** 2
    se = np.log2(1.0 + _sndr_batch(rows, channel.h, en.h_tilde, en.sigma2))
    return eta_grid, p_x, se


def mrt_ray_curve(channel: ChannelSpec, hw: HardwareConfig, p_grid):
    """SE along the plain matched-filter ray at given ray powers."""
    p_grid = np.asarray(p_grid, dtype=float)
    if np.any(p_grid < 0):
        raise ValueError("ray powers must be non-negative")
    q = coupling_matrix(hw)
    en = EffectiveNoise.from_channel(channel, hw)
    c_hat = _mrt_direction(q, channel.h)
    rows = np.sqrt(p_grid)[:, None] * c_hat
    return np.log2(1.0 + _sndr_batch(rows, channel.h, en.h_tilde, en.sigma2))
