"""Closed-form transmit error statistics and the min-max power back-off.

The error of branch ``l`` is the gap between the actual (noisy,
compressed, crosstalk-coupled) branch output and the ideal linear output
``gamma_l x_l``.  Under the linearized Gaussian model its variance is a
cubic polynomial in the reference power, so the normalized error (NMSE)
is strictly convex in power.  One exact candidate solver, built from
polynomial roots for any branch count, minimizes the worst branch NMSE;
the ``_m`` entries take the any-branch-count containers of :mod:`model`.
"""

import itertools
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NoFiniteOptimumError
from .model import HardwareConfig, HardwareConfigM, SignalSpec, SignalSpecM, coupling_matrix
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
    "error_polynomials_m",
    "nmse_branches_m",
    "minmax_backoff_m",
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


def _internal_powers(g1, g2, k1, k2, b, xi) -> tuple[float, float]:
    """Diagonal ``(t11, t22)`` of ``Q Cs Q^H`` per unit reference power.

    Takes the unpacked gains, crosstalk scalings, amplitude ratio and
    (complex) correlation.  The NMSE polynomials need only these two
    entries, so they are evaluated without building the matrix.
    """
    t11 = g1 * g1 * (1.0 + 2.0 * g2 * b * (np.conj(k2) * xi).real + g2 * g2 * abs(k2) ** 2 * b * b)
    t22 = g2 * g2 * (b * b + 2.0 * g1 * b * (k1 * xi).real + g1 * g1 * abs(k1) ** 2)
    return t11, t22


def _branch_polynomials(hw: HardwareConfig, sig: SignalSpec):
    """Cubic error-variance coefficients and NMSE denominators per branch.

    Returns pairs ``(cubic, quadratic, linear, denom)``, the layout of
    :func:`error_polynomials_m`, so that ``e_l = cubic[l] p^3 +
    quadratic[l] p^2 + linear[l] p + sigma_w2`` and the branch NMSE is
    ``e_l / (denom[l] * p)``.
    """
    g1, g2 = hw.gamma
    k1, k2 = hw.kappa
    r1, r2 = hw.rho
    b = sig.beta
    xi = complex(sig.xi)

    t11, t22 = _internal_powers(g1, g2, k1, k2, b, xi)

    beat1 = g2 * b * b * abs(k2) ** 2 + b * (k2 * np.conj(xi)).real
    beat2 = g1 * abs(k1) ** 2 + b * (k1 * xi).real
    cubic = (6.0 * r1 * r1 * t11 ** 3, 6.0 * r2 * r2 * t22 ** 3)
    quadratic = (4.0 * g1 * g1 * g2 * t11 * r1 * beat1, 4.0 * g1 * g2 * g2 * t22 * r2 * beat2)
    linear = (b * b * g1 * g1 * g2 * g2 * abs(k2) ** 2, g1 * g1 * g2 * g2 * abs(k1) ** 2)
    denom = (g1 * g1, g2 * g2 * b * b)
    return cubic, quadratic, linear, denom


def _terms(c3, c2, c1, sigma_w2: float, p: float) -> ErrorTerms:
    return ErrorTerms(cubic=c3 * p ** 3, quadratic=c2 * p * p, linear=c1 * p, noise=sigma_w2)


def nmse_branches(hw: HardwareConfig, sig: SignalSpec, p_x: float | None = None) -> NmseReport:
    """Both branch NMSEs at reference power ``p_x``.

    A zero reference power (or a zero branch power through ``beta = 0``)
    yields an infinite NMSE rather than an error: the ideal output
    vanishes while thermal noise does not.
    """
    p = sig.p_x if p_x is None else p_x
    cubic, quadratic, linear, denom = _branch_polynomials(hw, sig)
    t1 = _terms(cubic[0], quadratic[0], linear[0], hw.sigma_w2, p)
    t2 = _terms(cubic[1], quadratic[1], linear[1], hw.sigma_w2, p)
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
    cubic, _, _, denom = _branch_polynomials(hw, sig)
    out = []
    for c3, g in zip(cubic, denom):
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

    # A branch minimizer solves 2 cubic p^3 + quadratic p^2 = sw2.
    powers = [unique_positive_root(np.array([2.0 * a, b, 0.0, -sw2]))
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

    polys = _branch_polynomials(hw, sig)
    # beta**2 underflowed: branch 2's NMSE is infinite at every power.
    if not polys[3][1] > 0:
        raise NoFiniteOptimumError("no back-off candidate has a finite worst NMSE")
    powers, worst, pick, tied = _minmax(*np.array(polys), hw.sigma_w2)
    names = ("branch1_min", "branch2_min", "balanced")
    return BackoffSolution(
        p_x_opt=powers[pick],
        achieved=worst[pick],
        active_case=names[pick],
        candidates=dict(zip(names, powers)),
        tied=tied,
    )


def error_polynomials_m(hw: HardwareConfigM, spec: SignalSpecM):
    """Per-branch error-variance polynomial coefficients.

    Returns ``(cubic, quadratic, linear, denom)`` arrays so that branch
    ``l`` has error variance ``cubic[l] p^3 + quadratic[l] p^2 +
    linear[l] p + sigma_w2`` and NMSE ``error / (denom[l] p)``.
    """
    q = coupling_matrix(hw)
    l_mat = np.diag(hw.gamma)
    s = spec.c_x_shape
    rho = hw.rho

    t = q @ s @ q.conj().T
    t_diag = np.real(np.diag(t))
    resid = q - l_mat
    cross = np.diag(q @ s @ resid.conj().T)
    cubic = 6.0 * rho ** 2 * t_diag ** 3
    quadratic = 4.0 * np.real(rho * t_diag * cross)
    linear = np.real(np.diag(resid @ s @ resid.conj().T))
    denom = hw.gamma ** 2 * np.real(np.diag(s))
    return cubic, quadratic, linear, denom


def nmse_branches_m(hw: HardwareConfigM, spec: SignalSpecM, p_x: float | None = None) -> np.ndarray:
    """Per-branch NMSE values at reference power ``p_x``.

    Branches with zero configured input power get an infinite NMSE.
    """
    p = spec.p_x if p_x is None else p_x
    cubic, quadratic, linear, denom = error_polynomials_m(hw, spec)
    err = cubic * p ** 3 + quadratic * p * p + linear * p + hw.sigma_w2
    out = np.full(hw.n_branches, np.inf)
    ok = denom * p > 0
    out[ok] = err[ok] / (denom[ok] * p)
    return out


def minmax_backoff_m(hw: HardwareConfigM, spec: SignalSpecM) -> float:
    """Reference power minimizing the worst branch NMSE, any branch count.

    Branches that carry no power are left out; the rest go to the exact
    candidate solver shared with :func:`minmax_backoff`.
    """
    if np.any(hw.rho == 0):
        raise NoFiniteOptimumError("all branches must be compressive for a finite optimum")
    polys = error_polynomials_m(hw, spec)
    active = polys[3] > 0
    if not np.any(active):
        raise ValueError("no branch carries power")
    powers, _, pick, _ = _minmax(*(c[active] for c in polys), hw.sigma_w2)
    return float(powers[pick])
