"""Core signal model of a two-branch transmitter with backward crosstalk.

Each antenna branch amplifies its input and leaks a scaled copy of its
output back into the other branch's amplifier input.  The amplifier is
memoryless with a third-order compression term, so the amplifier input
``u`` solves an implicit feedback equation.  For weak crosstalk the loop
linearizes to ``u = Q x`` with a constant coupling matrix ``Q``, and
``u`` stays (approximately) Gaussian for Gaussian ``x``.  That makes the
Bussgang decomposition of the amplifier output exact up to the small
linearization error: ``r = A u + v`` with diagonal ``A`` and distortion
``v`` uncorrelated with ``u``.

This module carries the model containers plus the closed-form second,
fourth and sixth order statistics that the NMSE and spectral efficiency
layers build on.  All powers are in watt, compression coefficients in
1/watt.
"""

from math import inf
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import SingularCouplingError

__all__ = [
    "HardwareConfig",
    "SignalSpec",
    "BussgangModel",
    "ModelValidityWarning",
    "BussgangGainWarning",
    "coupling_matrix",
    "internal_covariance",
    "bussgang_gains",
    "fourth_moment_matrix",
    "sixth_moment_matrix",
    "distortion_covariance",
    "build_model",
]

# Loop gain |gamma1*gamma2*kappa1*kappa2| above which the first-order
# linearization of the crosstalk feedback starts to lose accuracy.
SMALL_ERROR_LIMIT = 0.01
# Complex rounding can lift a loop gain set exactly at the limit by an
# ulp or two, so the limit is tested with a relative margin.
_WARN_ABOVE = SMALL_ERROR_LIMIT * (1.0 + 1e-12)


class ModelValidityWarning(UserWarning):
    """Hardware parameters stress the weak-crosstalk linearization."""


class BussgangGainWarning(UserWarning):
    """An effective amplifier gain is zero or negative (deep compression)."""


@dataclass(frozen=True)
class HardwareConfig:
    """Static hardware parameters of the two transmit branches.

    Parameters
    ----------
    gamma : tuple of float
        Amplitude gain of each branch amplifier, > 0.
    kappa : tuple of complex
        Crosstalk scaling; ``kappa[0]`` couples branch 1's output into
        branch 2's amplifier input and ``kappa[1]`` the reverse path.
    rho : tuple of float
        Third-order compression coefficient of each amplifier in 1/watt,
        <= 0 (0 disables compression on that branch).
    sigma_w2 : float
        Transmitter thermal noise variance per branch in watt, > 0.
    """

    gamma: tuple[float, float]
    kappa: tuple[complex, complex]
    rho: tuple[float, float]
    sigma_w2: float

    def __post_init__(self):
        if len(self.gamma) != 2 or len(self.kappa) != 2 or len(self.rho) != 2:
            raise ValueError("gamma, kappa and rho must each have two entries")
        # Chained comparisons written so that NaN fails them too.
        if not all(0 < g < inf for g in self.gamma):
            raise ValueError("branch gains must be positive and finite")
        if not all(-inf < r <= 0 for r in self.rho):
            raise ValueError("compression coefficients must be finite and <= 0")
        if not 0 < self.sigma_w2 < inf:
            raise ValueError("thermal noise variance must be positive and finite")
        loop = self.crosstalk_product
        if not loop < inf:
            raise ValueError("crosstalk loop gain must be finite")
        if loop > _WARN_ABOVE:
            warnings.warn(
                "loop gain |g1*g2*k1*k2| = %.3g exceeds %.3g; linearized "
                "statistics may be inaccurate" % (loop, SMALL_ERROR_LIMIT),
                ModelValidityWarning,
                stacklevel=2,
            )

    @property
    def crosstalk_product(self) -> float:
        """Magnitude of the crosstalk loop gain."""
        g1, g2 = self.gamma
        k1, k2 = self.kappa
        return abs(g1 * g2 * k1 * k2)

    @property
    def small_error_ok(self) -> bool:
        return self.crosstalk_product <= _WARN_ABOVE

    @property
    def feedback_matrix(self) -> np.ndarray:
        """Linear feedback map from amplifier outputs back to inputs."""
        g1, g2 = self.gamma
        k1, k2 = self.kappa
        return np.array([[0.0, g1 * k2], [g2 * k1, 0.0]], dtype=complex)


@dataclass(frozen=True)
class SignalSpec:
    """Second-order description of the two transmit input streams.

    ``p_x`` is the reference power of stream 1 in watt.  Stream 2 has
    power ``beta**2 * p_x`` and normalized cross-correlation ``xi``
    (``E[x1 x2*] = p_x * beta * xi``).  A unit-modulus ``xi`` makes the
    input covariance rank one, which is the fully precoded case.
    """

    p_x: float
    beta: float = 1.0
    xi: complex = 0.0

    def __post_init__(self):
        if not 0 <= self.p_x < inf:
            raise ValueError("reference power must be finite and >= 0")
        if not 0 <= self.beta < inf:
            raise ValueError("amplitude ratio must be finite and >= 0")
        if not abs(self.xi) <= 1 + 1e-12:
            raise ValueError("cross-correlation magnitude must be <= 1")

    def covariance_shape(self) -> np.ndarray:
        """Input covariance per unit reference power."""
        b, x = self.beta, complex(self.xi)
        return np.array([[1.0, b * x], [b * np.conj(x), b * b]], dtype=complex)

    def covariance(self) -> np.ndarray:
        """Input covariance at the reference power ``p_x``."""
        return self.p_x * self.covariance_shape()


def coupling_matrix(hw) -> np.ndarray:
    """First-order gain matrix from transmitter inputs to amplifier inputs.

    Closing the crosstalk loop to first order in the (small) crosstalk
    scalings gives a constant map whose off-diagonal entries carry the
    leakage of the other streams.  ``hw`` is a :class:`HardwareConfig`
    or an ``mxm.HardwareConfigM`` of any branch count.  A numerically
    singular matrix raises :class:`SingularCouplingError`.
    """
    gains = np.asarray(hw.gamma, dtype=float)
    q = (np.eye(gains.size) + hw.feedback_matrix) * gains
    # With unit columns |det| lies in [0, 1] for any branch count (Hadamard),
    # so the test is scale-free and cannot overflow.  No column is zero: its
    # diagonal entry is a positive gain.
    if abs(np.linalg.det(q / np.linalg.norm(q, axis=0))) < 1e-12:
        raise SingularCouplingError("coupling matrix is numerically singular")
    return q


def _internal_powers(g1, g2, k1, k2, b, xi) -> tuple[float, float]:
    """Diagonal ``(t11, t22)`` of ``Q Cs Q^H`` per unit reference power.

    Takes the unpacked gains, crosstalk scalings, amplitude ratio and
    (complex) correlation.  The NMSE polynomials need only these two
    entries, so they are evaluated without building the matrix.
    """
    t11 = g1 * g1 * (1.0 + 2.0 * g2 * b * (np.conj(k2) * xi).real + g2 * g2 * abs(k2) ** 2 * b * b)
    t22 = g2 * g2 * (b * b + 2.0 * g1 * b * (k1 * xi).real + g1 * g1 * abs(k1) ** 2)
    return t11, t22


def internal_covariance(
    hw: HardwareConfig, sig: SignalSpec, p_x: float | None = None
) -> np.ndarray:
    """Covariance ``p Q Cs Q^H`` of the amplifier inputs at reference power ``p_x``.

    ``Q`` is :func:`coupling_matrix` and ``Cs`` the unit-power input
    covariance :meth:`SignalSpec.covariance_shape`.
    """
    p = sig.p_x if p_x is None else p_x
    q = coupling_matrix(hw)
    return p * (q @ sig.covariance_shape() @ q.conj().T)


def bussgang_gains(u_cov: np.ndarray, rho) -> np.ndarray:
    """Effective (Bussgang) gains of the compressed amplifiers.

    For a Gaussian input with covariance ``u_cov`` the third-order
    amplifier acts, on average, as the linear gain
    ``a_l = 1 + 2 rho_l u_ll``.  Gains at or below zero mean the
    operating point sits beyond the compression limit of the model; a
    warning is emitted but the value is still returned.
    """
    u_cov = np.asarray(u_cov)
    rho = np.asarray(rho, dtype=float)
    gains = 1.0 + 2.0 * rho * np.diagonal(u_cov).real
    if np.any(gains <= 0):
        warnings.warn(
            "effective amplifier gain is <= 0; operating point is beyond "
            "the validity of the third-order model",
            BussgangGainWarning,
            stacklevel=2,
        )
    return gains


def _diag_scaled(u_cov: np.ndarray) -> np.ndarray:
    return np.diag(np.diagonal(np.asarray(u_cov)).real)


def fourth_moment_matrix(u_cov: np.ndarray) -> np.ndarray:
    """Cross-moment ``E[f(u) u^H]`` of the cubic term for Gaussian ``u``.

    Equals ``2 B U`` with ``B`` the diagonal part of ``U``.  Valid for
    any number of branches.
    """
    u_cov = np.asarray(u_cov, dtype=complex)
    return 2.0 * _diag_scaled(u_cov) @ u_cov


def sixth_moment_matrix(u_cov: np.ndarray) -> np.ndarray:
    """Covariance ``E[f(u) f(u)^H]`` of the cubic term for Gaussian ``u``.

    Equals ``4 B U B + 2 C`` where ``C`` has entries
    ``u_lm |u_lm|^2``.  Valid for any number of branches.
    """
    u_cov = np.asarray(u_cov, dtype=complex)
    b = _diag_scaled(u_cov)
    c = u_cov * np.abs(u_cov) ** 2
    return 4.0 * b @ u_cov @ b + 2.0 * c


def distortion_covariance(u_cov: np.ndarray, rho) -> np.ndarray:
    """Covariance of the Bussgang distortion across branches.

    The part of the cubic term that is uncorrelated with the Gaussian
    input has covariance ``2 G C G^H`` with ``G = diag(rho)`` and
    ``C`` as in :func:`sixth_moment_matrix`; per branch this is
    ``2 rho_l^2 u_ll^3``.
    """
    u_cov = np.asarray(u_cov, dtype=complex)
    rho = np.asarray(rho, dtype=float)
    c = u_cov * np.abs(u_cov) ** 2
    return 2.0 * np.outer(rho, rho) * c


@dataclass(frozen=True)
class BussgangModel:
    """Assembled linearized statistics at one operating point."""

    hw: HardwareConfig
    sig: SignalSpec
    p_x: float
    coupling: np.ndarray = field(repr=False)
    u_cov: np.ndarray = field(repr=False)
    gains: np.ndarray = field(repr=False)
    distortion_cov: np.ndarray = field(repr=False)


def build_model(hw: HardwareConfig, sig: SignalSpec, p_x: float | None = None) -> BussgangModel:
    """Evaluate coupling, covariances and gains at one reference power."""
    p = sig.p_x if p_x is None else p_x
    q = coupling_matrix(hw)
    u_cov = internal_covariance(hw, sig, p)
    rho = np.asarray(hw.rho, dtype=float)
    gains = bussgang_gains(u_cov, rho)
    v_cov = distortion_covariance(u_cov, rho)
    return BussgangModel(
        hw=hw, sig=sig, p_x=p, coupling=q, u_cov=u_cov, gains=gains, distortion_cov=v_cov
    )
