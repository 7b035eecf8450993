"""Closed-form transmit error statistics and the min-max power back-off.

The error of branch ``l`` is the gap between the actual (noisy,
compressed, crosstalk-coupled) branch output and the ideal linear output
``gamma_l x_l``.  Under the linearized Gaussian model its variance is a
cubic polynomial in the reference power, so the normalized error (NMSE)
is strictly convex in power.  One exact candidate solver, built from
polynomial roots for any branch count, minimizes the worst branch NMSE.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoFiniteOptimumError
from .model import HardwareConfig, SignalSpec, _internal_powers
from .polyroots import best_candidate, real_roots, unique_positive_root
from .units import linear_to_db

__all__ = [
    "ErrorTerms",
    "NmseReport",
    "BackoffSolution",
    "nmse_branches",
    "nmse_second_derivative",
    "approx_nmse1",
    "siso_optimal_power",
    "minmax_backoff",
]

# Relative tolerance for accepting a balanced candidate: both branch
# NMSEs must agree this closely at the root or the root is discarded.
_BALANCE_TOL = 1e-6
# Branches whose NMSE coefficients agree this closely (relative) are the
# same branch: their difference cubic is rounding and has no crossing.
_SAME_BRANCH_REL = 1e-12


@dataclass(frozen=True)
class ErrorTerms:
    """Power decomposition of one branch error variance in watt.

    ``cubic`` collects the self-distortion, ``quadratic`` the mixed
    distortion/crosstalk beat, ``linear`` the pure crosstalk leakage and
    ``noise`` the thermal floor.
    """

    cubic: float
    quadratic: float
    linear: float
    noise: float

    @property
    def total(self) -> float:
        return self.cubic + self.quadratic + self.linear + self.noise


@dataclass(frozen=True)
class NmseReport:
    """Both branch NMSEs at one reference power, with term breakdown."""

    p_x: float
    nmse1: float
    nmse2: float
    e11: float
    e22: float
    terms1: ErrorTerms
    terms2: ErrorTerms

    @property
    def nmse1_db(self) -> float:
        return float(linear_to_db(self.nmse1))

    @property
    def nmse2_db(self) -> float:
        return float(linear_to_db(self.nmse2))

    @property
    def worst(self) -> float:
        return max(self.nmse1, self.nmse2)


def _branch_polynomials(hw: HardwareConfig, sig: SignalSpec):
    """Cubic error-variance coefficients and NMSE denominators per branch.

    Returns ``(coeffs, denom)`` where ``coeffs[l] = (c3, c2, c1)`` so
    that ``e_l = c3 p^3 + c2 p^2 + c1 p + sigma_w2`` and the branch NMSE
    is ``e_l / (denom[l] * p)``.
    """
    g1, g2 = hw.gamma
    k1, k2 = hw.kappa
    r1, r2 = hw.rho
    b = sig.beta
    xi = complex(sig.xi)

    t11, t22 = _internal_powers(g1, g2, k1, k2, b, xi)

    c3_1 = 6.0 * r1 * r1 * t11 ** 3
    c2_1 = 4.0 * g1 * g1 * g2 * t11 * r1 * (g2 * b * b * abs(k2) ** 2 + b * (k2 * np.conj(xi)).real)
    c1_1 = b * b * g1 * g1 * g2 * g2 * abs(k2) ** 2

    c3_2 = 6.0 * r2 * r2 * t22 ** 3
    c2_2 = 4.0 * g1 * g2 * g2 * t22 * r2 * (g1 * abs(k1) ** 2 + b * (k1 * xi).real)
    c1_2 = g1 * g1 * g2 * g2 * abs(k1) ** 2

    coeffs = ((c3_1, c2_1, c1_1), (c3_2, c2_2, c1_2))
    denom = (g1 * g1, g2 * g2 * b * b)
    return coeffs, denom


def _terms(coeffs, sigma_w2: float, p: float) -> ErrorTerms:
    c3, c2, c1 = coeffs
    return ErrorTerms(cubic=c3 * p ** 3, quadratic=c2 * p * p, linear=c1 * p, noise=sigma_w2)


def nmse_branches(hw: HardwareConfig, sig: SignalSpec, p_x: float | None = None) -> NmseReport:
    """Both branch NMSEs at reference power ``p_x``.

    A zero reference power (or a zero branch power through ``beta = 0``)
    yields an infinite NMSE rather than an error: the ideal output
    vanishes while thermal noise does not.
    """
    p = sig.p_x if p_x is None else p_x
    coeffs, denom = _branch_polynomials(hw, sig)
    t1 = _terms(coeffs[0], hw.sigma_w2, p)
    t2 = _terms(coeffs[1], hw.sigma_w2, p)
    n1 = t1.total / (denom[0] * p) if denom[0] * p > 0 else np.inf
    n2 = t2.total / (denom[1] * p) if denom[1] * p > 0 else np.inf
    return NmseReport(p_x=p, nmse1=n1, nmse2=n2, e11=t1.total, e22=t2.total, terms1=t1, terms2=t2)


def nmse_second_derivative(
    hw: HardwareConfig, sig: SignalSpec, p_x: float | None = None
) -> tuple[float, float]:
    """Second derivatives of both NMSEs w.r.t. the reference power.

    Both are positive for any admissible parameters, which is what makes
    the min-max back-off problem well posed.
    """
    p = sig.p_x if p_x is None else p_x
    if p <= 0:
        raise ValueError("second derivative needs a positive reference power")
    coeffs, denom = _branch_polynomials(hw, sig)
    out = []
    for (c3, _, _), g in zip(coeffs, denom):
        if g == 0:
            out.append(np.inf)
        else:
            out.append(2.0 * c3 / g + 2.0 * hw.sigma_w2 / (g * p ** 3))
    return tuple(out)


def approx_nmse1(hw: HardwareConfig, sig: SignalSpec, p_x: float | None = None) -> float:
    """Leading-order branch 1 NMSE, valid for very weak crosstalk.

    Keeps only the dominant self-distortion, the first crosstalk beat
    and the thermal floor; the pure leakage term and all higher products
    of the crosstalk scalings are dropped.
    """
    p = sig.p_x if p_x is None else p_x
    g1, g2 = hw.gamma
    _, k2 = hw.kappa
    r1 = hw.rho[0]
    b = sig.beta
    xi = complex(sig.xi)
    if p <= 0:
        return np.inf
    return (
        6.0 * r1 * r1 * g1 ** 4 * p * p
        + 4.0 * r1 * b * g2 * (k2 * np.conj(xi)).real * g1 * g1 * p
        + hw.sigma_w2 / (g1 * g1 * p)
    )


def siso_optimal_power(gamma1: float, rho1: float, sigma_w2: float) -> float:
    """NMSE-minimizing power of a single isolated branch.

    Balances the quadratic distortion growth against the thermal floor:
    ``p = gamma1**-2 * (sigma_w2 / (12 rho1**2))**(1/3)``.
    """
    if gamma1 <= 0 or sigma_w2 <= 0:
        raise ValueError("gain and noise variance must be positive")
    if rho1 > 0:
        raise ValueError("compression coefficient must be <= 0")
    if rho1 == 0:
        raise NoFiniteOptimumError("distortion-free branch has no finite optimum")
    return (sigma_w2 / (12.0 * rho1 * rho1)) ** (1.0 / 3.0) / (gamma1 * gamma1)


@dataclass(frozen=True)
class BackoffSolution:
    """Result of the min-max back-off over the worst branch NMSE."""

    p_x_opt: float
    achieved: float
    active_case: str
    candidates: dict
    tied: bool = False


def _stationarity_cubic(c3, c2, sigma_w2):
    return np.array([2.0 * c3, c2, 0.0, -sigma_w2])


def _minmax(cubic, quadratic, linear, denom, sw2):
    """Exact minimizer of the worst NMSE over any number of branches.

    Branch ``l`` has NMSE ``(cubic[l] p^3 + quadratic[l] p^2 +
    linear[l] p + sw2) / (denom[l] p)``, convex in ``p``.  The optimum
    is a branch minimizer or a point where two branch NMSEs cross.  A
    branch that is the worst at its own minimizer ``p_k`` settles it,
    since ``W(p_k) = N_k(p_k) <= N_k(p) <= W(p)``, and no crossing is
    solved.  Otherwise the crossing cubic of every branch pair is
    solved; a root whose two NMSEs disagree beyond ``_BALANCE_TOL`` is
    discarded with a warning.  :func:`polyroots.best_candidate` ranks
    candidates by worst NMSE, both to keep one crossing and to pick the
    optimum.

    Returns ``(powers, worst, pick, tied)``: the branch minimizers, then
    the kept crossing if any; the worst NMSE at each; the index of the
    optimum; and ``best_candidate``'s ``tied``.  No finite worst NMSE
    raises :class:`NoFiniteOptimumError`.
    """

    def branches(p):
        return (cubic * p ** 3 + quadratic * p * p + linear * p + sw2) / (denom * p)

    powers = [unique_positive_root(_stationarity_cubic(a, b, sw2))
              for a, b in zip(cubic, quadratic)]
    values = [branches(p) for p in powers]
    if not any(v[k] >= v.max() for k, v in enumerate(values)):
        # p * (NMSE_i - NMSE_j) as a cubic; identical branches make it vanish.
        cols = np.array([cubic, quadratic, linear, np.full_like(cubic, sw2)]).T / denom[:, None]
        cross_worst, cross_at = [], []
        for i, j in itertools.combinations(range(len(powers)), 2):
            diff = cols[i] - cols[j]
            if not np.any(np.abs(diff) > _SAME_BRANCH_REL * (np.abs(cols[i]) + np.abs(cols[j]))):
                continue
            for p in real_roots(diff).positive_roots:
                v = branches(p)
                ni, nj = v[i], v[j]
                if abs(ni - nj) <= _BALANCE_TOL * max(ni, nj):
                    cross_worst.append(v.max())
                    cross_at.append(p)
                else:
                    warnings.warn(
                        "discarding crossing candidate with unequal branch NMSEs "
                        "(relative gap %.2e)" % (abs(ni - nj) / max(ni, nj)),
                        stacklevel=3,
                    )
        if cross_at:
            powers.append(cross_at[best_candidate(cross_worst, cross_at)[0]])
            values.append(branches(powers[-1]))
    worst = [v.max() for v in values]
    if not np.isfinite(min(worst)):
        raise NoFiniteOptimumError("no back-off candidate has a finite worst NMSE")
    return powers, worst, *best_candidate(worst, powers)


def minmax_backoff(hw: HardwareConfig, sig: SignalSpec) -> BackoffSolution:
    """Reference power minimizing the worse of the two branch NMSEs.

    The optimum is one of at most three closed-form candidates: the
    minimizer of either branch NMSE alone, or a crossing point where
    both NMSEs are equal.  The crossing is searched only when neither
    branch is the worse one at its own minimizer, so ``candidates``
    holds ``"balanced"`` only then.  Crossing candidates whose two
    branch values fail to agree within a small relative tolerance are
    discarded with a warning (they are artifacts of the root finder).
    Ties follow :func:`polyroots.best_candidate`, whose ``tied`` flag
    the solution carries.
    """
    if sig.beta <= 0:
        raise ValueError("min-max back-off needs both branches active (beta > 0)")
    if hw.rho[0] == 0 or hw.rho[1] == 0:
        raise NoFiniteOptimumError("both branches must be compressive for a finite optimum")

    coeffs, denom = _branch_polynomials(hw, sig)
    powers, worst, pick, tied = _minmax(*np.array(coeffs).T, np.array(denom), hw.sigma_w2)
    names = ("branch1_min", "branch2_min", "balanced")
    return BackoffSolution(
        p_x_opt=powers[pick],
        achieved=worst[pick],
        active_case=names[pick],
        candidates=dict(zip(names, powers)),
        tied=tied,
    )
