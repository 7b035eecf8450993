"""Arbitrary branch-count generalization of the transmitter analysis.

The two-branch closed forms all flow from matrix identities that never
use the branch count, so the M-branch versions are assembled from the
same pieces: a linearized coupling matrix, the Gaussian moment
identities, and per-branch error polynomials in the reference power.
The min-max back-off is the exact candidate solver of :mod:`nmse`, with
no bisection.  The first-order coupling matrix is
:func:`model.coupling_matrix`, and the matched-filter baselines are the
:mod:`precoding` designs themselves, which take hardware of any branch
count.  Only the exact SE-optimal precoder stays two-branch specific
(its candidate enumeration grows combinatorially).  Monte-Carlo batches
and their sample NMSE are the :mod:`montecarlo` entries themselves,
which take containers of any branch count.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoFiniteOptimumError, SingularCouplingError
from .model import coupling_matrix
from .montecarlo import SampleBatch, empirical_nmse, simulate_batch
from .nmse import _minmax
from .precoding import ChannelSpec, PrecoderSolution, conventional_mrt, distortion_aware_mrt

__all__ = [
    "HardwareConfigM",
    "SignalSpecM",
    "hardware_from_pair",
    "signal_from_pair",
    "build_q_m",
    "nmse_branches_m",
    "error_polynomials_m",
    "minmax_backoff_m",
    "mrt_variants_m",
    "simulate_batch_m",
    "empirical_nmse_m",
]


@dataclass(frozen=True)
class HardwareConfigM:
    """M-branch transmitter hardware.

    ``kappa[l, m]`` is the backward coupling from branch ``l`` into
    branch ``m``; the diagonal must be zero.
    """

    gamma: np.ndarray
    kappa: np.ndarray
    rho: np.ndarray
    sigma_w2: float

    def __post_init__(self):
        # Copies, never views of the caller's arrays, frozen like the container.
        gamma = np.atleast_1d(np.array(self.gamma, dtype=float))
        kappa = np.array(self.kappa, dtype=complex)
        rho = np.atleast_1d(np.array(self.rho, dtype=float))
        m = gamma.size
        if kappa.shape != (m, m):
            raise ValueError("crosstalk matrix shape must match the gain count")
        if rho.shape != (m,):
            raise ValueError("need one compression coefficient per branch")
        # Comparisons written so that NaN fails them too.
        if not np.all((gamma > 0) & (gamma < np.inf)):
            raise ValueError("branch gains must be positive and finite")
        if not (np.all(np.diag(kappa) == 0) and np.isfinite(kappa).all()):
            raise ValueError("crosstalk matrix must be finite with a zero diagonal")
        if not np.all((rho > -np.inf) & (rho <= 0)):
            raise ValueError("compression coefficients must be finite and <= 0")
        if not 0 < self.sigma_w2 < np.inf:
            raise ValueError("noise variance must be positive and finite")
        for name, value in (("gamma", gamma), ("kappa", kappa), ("rho", rho)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_branches(self) -> int:
        return self.gamma.size

    @property
    def feedback_matrix(self) -> np.ndarray:
        return self.gamma[:, None] * self.kappa.T


@dataclass(frozen=True)
class SignalSpecM:
    """Input statistics: a unit-referenced covariance shape and a power.

    The shape's (1,1) entry is pinned to one so the reference power is
    literally the first branch's input power.
    """

    c_x_shape: np.ndarray
    p_x: float

    def __post_init__(self):
        s = np.asarray(self.c_x_shape, dtype=complex)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("covariance shape must be square")
        scale = max(np.linalg.norm(s), 1.0)
        if not np.linalg.norm(s - s.conj().T) <= 1e-12 * scale:
            raise ValueError("covariance shape must be finite and Hermitian")
        evals = np.linalg.eigvalsh(s)
        if evals.min() < -1e-12 * max(evals.max(), 1.0):
            raise ValueError("covariance shape must be positive semidefinite")
        if abs(s[0, 0] - 1.0) > 1e-12:
            raise ValueError("covariance shape must have a unit (1,1) entry")
        if not 0 <= self.p_x < np.inf:
            raise ValueError("reference power must be finite and non-negative")
        object.__setattr__(self, "c_x_shape", s)

    def covariance(self) -> np.ndarray:
        return self.p_x * self.c_x_shape


def hardware_from_pair(hw) -> HardwareConfigM:
    """Lift a two-branch hardware config into the M-branch container."""
    kappa = np.zeros((2, 2), dtype=complex)
    kappa[0, 1] = hw.kappa[0]
    kappa[1, 0] = hw.kappa[1]
    return HardwareConfigM(
        gamma=np.asarray(hw.gamma, dtype=float),
        kappa=kappa,
        rho=np.asarray(hw.rho, dtype=float),
        sigma_w2=hw.sigma_w2,
    )


def signal_from_pair(sig) -> SignalSpecM:
    return SignalSpecM(c_x_shape=sig.covariance_shape(), p_x=sig.p_x)


def build_q_m(hw: HardwareConfigM, exact: bool = False) -> np.ndarray:
    """Linearized coupling matrix for M branches.

    The default is :func:`model.coupling_matrix`, the first order in the
    crosstalk.  ``exact=True`` instead inverts the linear feedback loop
    completely, which differs at second order.  Both raise
    :class:`SingularCouplingError` on a singular matrix.
    """
    if not exact:
        return coupling_matrix(hw)
    mat = np.eye(hw.n_branches) - hw.feedback_matrix
    if np.linalg.matrix_rank(mat) < hw.n_branches:
        raise SingularCouplingError("feedback loop matrix is singular")
    return np.linalg.solve(mat, np.diag(hw.gamma))


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
    candidate solver shared with :func:`nmse.minmax_backoff`.
    """
    if np.any(hw.rho == 0):
        raise NoFiniteOptimumError("all branches must be compressive for a finite optimum")
    polys = error_polynomials_m(hw, spec)
    active = polys[3] > 0
    if not np.any(active):
        raise ValueError("no branch carries power")
    powers, _, pick, _ = _minmax(*(c[active] for c in polys), hw.sigma_w2)
    return float(powers[pick])


def mrt_variants_m(channel: ChannelSpec, hw: HardwareConfigM) -> dict[str, PrecoderSolution]:
    """Matched-filter baselines for an M-branch transmitter.

    Returns :func:`precoding.conventional_mrt` and
    :func:`precoding.distortion_aware_mrt` on ``hw``, keyed
    ``"conventional"`` and ``"distortion_aware"``.
    """
    return {
        "conventional": conventional_mrt(channel, hw),
        "distortion_aware": distortion_aware_mrt(channel, hw),
    }


def simulate_batch_m(hw: HardwareConfigM, spec: SignalSpecM, n: int, seed) -> SampleBatch:
    """Exact nonlinear feedback simulation for M branches: :func:`montecarlo.simulate_batch`."""
    return simulate_batch(hw, spec, n, seed)


def empirical_nmse_m(batch: SampleBatch, hw: HardwareConfigM, spec: SignalSpecM) -> np.ndarray:
    """Sample NMSE per branch from an M-branch batch: :func:`montecarlo.empirical_nmse`."""
    return empirical_nmse(batch, hw, spec)
