"""M-branch entry points: pair lifters, an exact loop inverse, call-throughs.

The M-branch containers live in :mod:`model` beside their two-branch
twins, and their NMSE polynomials and back-off in :mod:`nmse`.
:func:`model.coupling_matrix`, the matched-filter designs of
:mod:`precoding` and the :mod:`montecarlo` entries take any branch count
too.  Only the exact SE-optimal precoder stays two-branch specific (its
candidate enumeration grows combinatorially).
"""

import numpy as np

from .errors import SingularCouplingError
from .model import HardwareConfigM, SignalSpecM, coupling_matrix
from .montecarlo import SampleBatch, empirical_nmse, simulate_batch
# Published by nmse; re-imported so that callers of the mxm names (the
# acceptance tests, perfbench's mxm.* spans) keep finding them here.
from .nmse import error_polynomials_m, minmax_backoff_m, nmse_branches_m  # noqa: F401
from .precoding import ChannelSpec, PrecoderSolution, conventional_mrt, distortion_aware_mrt

__all__ = [
    "hardware_from_pair",
    "signal_from_pair",
    "build_q_m",
    "mrt_variants_m",
    "simulate_batch_m",
    "empirical_nmse_m",
]


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
