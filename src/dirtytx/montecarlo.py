"""Monte-Carlo ground truth for the nonlinear feedback transmitter.

Everything analytic in this package rests on a Gaussian linearization
of the coupled amplifier system.  This module solves the exact system
sample by sample, so the closed forms can be validated against
empirical statistics: error powers, Bussgang decorrelation, moment
identities and marginal distributions.

The solver is a damped fixed-point iteration started at the linearized
output, with a per-sample Newton fallback for stragglers.  Randomness
is consumed in a fixed order (inputs first, thermal noise second) and
samples are partitioned into fixed-size chunks, so results do not
depend on the worker count.  One branch-count agnostic core runs every
batch: the two-branch :func:`simulate_batch` here and the M-branch
``mxm.simulate_batch_m`` are thin wrappers over it, so both get the
same chunking and the same failure-rate guard.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConvergenceError
from .model import BussgangModel, HardwareConfig, SignalSpec, coupling_matrix

__all__ = [
    "SampleBatch",
    "sample_inputs",
    "solve_feedback",
    "simulate_batch",
    "empirical_nmse",
    "covariance_mismatch",
    "bussgang_residual",
    "empirical_cdf_distance",
    "empirical_moments",
]

_REL_TOL = 1e-10
_MAX_FIXED_POINT = 500
_MAX_NEWTON = 50
_CHUNK = 16384
# Experiments abort when more than this fraction of samples fails to
# converge; partial statistics from a sick solve are worse than none.
_MAX_FAILURE_RATE = 1e-3


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _covariance_factor(cov: np.ndarray) -> np.ndarray:
    """Square root of a Hermitian PSD matrix, tolerant of rank deficiency."""
    vals, vecs = np.linalg.eigh(cov)
    vals = np.clip(vals, 0.0, None)
    return vecs * np.sqrt(vals)


def _draw_inputs(cov: np.ndarray, n: int, rng: np.random.Generator) -> np.ndarray:
    if n < 1:
        raise ValueError("need at least one sample")
    m = cov.shape[0]
    factor = _covariance_factor(cov)
    z = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)
    return z @ factor.T


def sample_inputs(sig: SignalSpec, n: int, seed) -> np.ndarray:
    """Draw ``n`` zero-mean circular Gaussian input pairs with the
    covariance implied by ``sig``; returns an (n, 2) complex array."""
    return _draw_inputs(sig.covariance(), n, _as_rng(seed))


def _pa_output(u: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return u + rho * u * np.abs(u) ** 2


def _feedback_map(u, lx, k_t, rho):
    return lx + _pa_output(u, rho) @ k_t


def _residual_norms(u, lx, k_t, rho):
    return np.linalg.norm(u - _feedback_map(u, lx, k_t, rho), axis=1)


def _newton_refine(u0, lx_row, k, rho, gamma_x_row):
    """Solve one sample's feedback equation on the stacked real system."""
    m = u0.size
    u = u0.copy()
    re_k, im_k = k.real, k.imag
    for _ in range(_MAX_NEWTON):
        g = _pa_output(u, rho)
        f = u - lx_row - k @ g
        res = np.linalg.norm(f)
        if res <= _REL_TOL * np.linalg.norm(u) + 1e-300:
            return u, True
        jac = np.eye(2 * m)
        for ell in range(m):
            a, b = u[ell].real, u[ell].imag
            # Real Jacobian of u + rho*u|u|^2 on branch ell.
            d = np.array([
                [1.0 + rho[ell] * (3.0 * a * a + b * b), rho[ell] * 2.0 * a * b],
                [rho[ell] * 2.0 * a * b, 1.0 + rho[ell] * (a * a + 3.0 * b * b)],
            ])
            for row in range(m):
                kc = np.array([
                    [re_k[row, ell], -im_k[row, ell]],
                    [im_k[row, ell], re_k[row, ell]],
                ])
                jac[2 * row:2 * row + 2, 2 * ell:2 * ell + 2] -= kc @ d
        rhs = np.empty(2 * m)
        rhs[0::2], rhs[1::2] = f.real, f.imag
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            return u, False
        u = u - (step[0::2] + 1j * step[1::2])
    g = _pa_output(u, rho)
    res = np.linalg.norm(u - lx_row - k @ g)
    return u, bool(res <= _REL_TOL * np.linalg.norm(u) + 1e-300)


def _solve_chunk(x, gamma, k, rho, q):
    """Solve the feedback system for one chunk of inputs."""
    lx = x * gamma
    k_t = k.T.copy()
    u = x @ q.T
    alpha = np.ones(x.shape[0])
    res = _residual_norms(u, lx, k_t, rho)
    tol = _REL_TOL * np.linalg.norm(u, axis=1) + 1e-300
    active = res > tol
    for _ in range(_MAX_FIXED_POINT):
        if not np.any(active):
            break
        ua = u[active]
        prop = (1.0 - alpha[active, None]) * ua + alpha[active, None] * _feedback_map(
            ua, lx[active], k_t, rho
        )
        new_res = _residual_norms(prop, lx[active], k_t, rho)
        worse = new_res > res[active]
        accept = ~worse
        idx = np.flatnonzero(active)
        take = idx[accept]
        u[take] = prop[accept]
        res[take] = new_res[accept]
        alpha[idx[worse]] *= 0.5
        tol[take] = _REL_TOL * np.linalg.norm(u[take], axis=1) + 1e-300
        active[take[new_res[accept] <= tol[take]]] = False
        # Samples whose step was rejected stay active with smaller damping.
    converged = ~active
    if np.any(active):
        for i in np.flatnonzero(active):
            u[i], ok = _newton_refine(u[i], lx[i], k, rho, x[i])
            converged[i] = ok
    return u, converged


def solve_feedback(x, hw: HardwareConfig):
    """Exact internal signal(s) for input ``x`` (one pair or an (n, 2) batch).

    Returns ``(u, converged)`` with shapes matching the input layout.
    """
    arr = np.asarray(x, dtype=complex)
    single = arr.ndim == 1
    if single:
        arr = arr[None, :]
    gamma = hw.gain_vector
    k = hw.feedback_matrix
    rho = hw.rho_vector
    q = coupling_matrix(hw)
    u, converged = _solve_chunk(arr, gamma, k, rho, q)
    if single:
        return u[0], bool(converged[0])
    return u, converged


@dataclass(frozen=True)
class SampleBatch:
    """Inputs, solved internals, amplifier outputs and noisy outputs."""

    x: np.ndarray
    u: np.ndarray
    r: np.ndarray
    y: np.ndarray
    seed: object
    converged: np.ndarray

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def failure_rate(self) -> float:
        return float(1.0 - np.mean(self.converged))


def _simulate(gamma, k, rho, q, cov, sigma_w2, n, seed, n_threads=1) -> SampleBatch:
    """Chunked Monte-Carlo core for any branch count.

    Draws inputs with covariance ``cov``, solves the feedback system
    ``u = gamma x + k r(u)`` (``r`` the amplifier output) chunk by chunk
    from the linearized start ``q x``, enforces the failure-rate limit
    and adds thermal noise of variance ``sigma_w2``.
    """
    rng = _as_rng(seed)
    x = _draw_inputs(cov, n, rng)
    m = x.shape[1]

    u = np.empty_like(x)
    converged = np.zeros(n, dtype=bool)
    spans = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    if n_threads > 1 and len(spans) > 1:
        def work(span):
            lo, hi = span
            return span, _solve_chunk(x[lo:hi], gamma, k, rho, q)

        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            for (lo, hi), (uc, cc) in pool.map(work, spans):
                u[lo:hi] = uc
                converged[lo:hi] = cc
    else:
        for lo, hi in spans:
            u[lo:hi], converged[lo:hi] = _solve_chunk(x[lo:hi], gamma, k, rho, q)

    failures = int(n - np.count_nonzero(converged))
    if failures > _MAX_FAILURE_RATE * n:
        raise ConvergenceError(
            "feedback solver failed on %d of %d samples" % (failures, n)
        )

    r = _pa_output(u, rho)
    w = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) * np.sqrt(
        sigma_w2 / 2.0
    )
    return SampleBatch(x=x, u=u, r=r, y=r + w, seed=seed, converged=converged)


def simulate_batch(
    hw: HardwareConfig,
    sig: SignalSpec,
    n: int,
    seed,
    n_threads: int = 1,
) -> SampleBatch:
    """Draw inputs, solve the exact feedback system and add thermal noise.

    Aborts with :class:`ConvergenceError` when more than 0.1 percent of
    the samples fail to converge, reporting the failure count.
    """
    return _simulate(
        hw.gain_vector, hw.feedback_matrix, hw.rho_vector, coupling_matrix(hw),
        sig.covariance(), hw.sigma_w2, n, seed, n_threads,
    )


def _converged_only(batch: SampleBatch):
    if batch.n == 0:
        raise ValueError("empty batch")
    mask = batch.converged
    if not np.any(mask):
        raise ValueError("batch has no converged samples")
    return mask


def _empirical_nmse(batch: SampleBatch, gamma, powers) -> np.ndarray:
    """Per-branch sample NMSE against the ideal outputs ``gamma x``.

    ``powers[l]`` is the configured input power of branch ``l``; silent
    branches get an infinite NMSE.  Columns are reduced one at a time
    so each mean is the same pairwise sum whatever the branch count.
    """
    mask = _converged_only(batch)
    err = batch.y[mask] - batch.x[mask] * gamma
    out = np.full(err.shape[1], np.inf)
    for ell in range(err.shape[1]):
        if powers[ell] > 0:
            mean_err = float(np.mean(np.abs(err[:, ell]) ** 2))
            out[ell] = mean_err / (gamma[ell] * gamma[ell] * powers[ell])
    return out


def empirical_nmse(batch: SampleBatch, hw: HardwareConfig, sig: SignalSpec):
    """Sample-mean normalized error powers ``(nmse1, nmse2)``.

    Uses the noisy outputs and the ideal linear references; branch
    powers follow the configured covariance scaling.
    """
    powers = (sig.p_x, sig.p_x * sig.beta ** 2)
    if powers[0] <= 0 or powers[1] <= 0:
        raise ValueError("empirical NMSE needs positive branch powers")
    n1, n2 = _empirical_nmse(batch, hw.gain_vector, powers)
    return float(n1), float(n2)


def covariance_mismatch(batch: SampleBatch, hw: HardwareConfig) -> float:
    """Relative Frobenius gap between solved-u and linearized covariances.

    Both covariances are sample estimates over the same draws, so the
    figure isolates the linearization error rather than sampling noise.
    """
    mask = _converged_only(batch)
    u = batch.u[mask]
    ux = batch.x[mask] @ coupling_matrix(hw).T
    cov_u = u.conj().T @ u / u.shape[0]
    cov_lin = ux.conj().T @ ux / ux.shape[0]
    denom = np.linalg.norm(cov_lin) ** 2
    if denom == 0:
        raise ValueError("linearized covariance vanished")
    return float(np.linalg.norm(cov_u - cov_lin) ** 2 / denom)


def bussgang_residual(batch: SampleBatch, model: BussgangModel) -> float:
    """Largest normalized correlation between distortion and input.

    The distortion is the amplifier output minus its Bussgang-linear
    part; by construction it is uncorrelated with the internal signal,
    so the statistic should vanish like one over the root sample count.
    """
    mask = _converged_only(batch)
    u = batch.u[mask]
    v = batch.r[mask] - u * model.gains
    cross = np.abs(v.T @ u.conj()) / u.shape[0]
    pv = np.mean(np.abs(v) ** 2, axis=0)
    pu = np.mean(np.abs(u) ** 2, axis=0)
    if np.all(pv == 0):
        return 0.0
    denom = np.sqrt(np.outer(pv.clip(min=np.max(pv) * 1e-30), pu))
    return float(np.max(cross / denom))


def empirical_cdf_distance(batch: SampleBatch, model: BussgangModel) -> np.ndarray:
    """Kolmogorov-Smirnov distances of the solved-signal marginals.

    Compares the real and imaginary parts of each branch against the
    zero-mean Gaussian with the variance the linearized covariance
    predicts.  Returns an (n_branches, 2) array, columns ordered
    (real, imag).
    """
    mask = _converged_only(batch)
    u = batch.u[mask]
    target_var = np.real(np.diag(model.u_cov)) / 2.0
    n = u.shape[0]
    grid = (np.arange(1, n + 1)) / n
    grid_lo = np.arange(0, n) / n
    out = np.empty((u.shape[1], 2))
    for ell in range(u.shape[1]):
        sd = np.sqrt(target_var[ell])
        for j, part in enumerate((u[:, ell].real, u[:, ell].imag)):
            z = np.sort(part) / sd if sd > 0 else np.sort(part)
            cdf = ndtr(z) if sd > 0 else (z >= 0).astype(float)
            out[ell, j] = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - grid_lo)))
    return out


def empirical_moments(u: np.ndarray):
    """Sample moments of a complex batch and its cubic distortion.

    Returns ``(cov, cubic_cross, cubic_cov)``: the covariance of ``u``,
    the cross-moment of ``u|u|^2`` against ``u`` and the covariance of
    ``u|u|^2``, each as a sample mean.  These are the three objects the
    Gaussian moment identities predict from the covariance alone.
    """
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2:
        raise ValueError("expect an (n, m) batch")
    n = u.shape[0]
    f = u * np.abs(u) ** 2
    cov = u.T @ u.conj() / n
    cubic_cross = f.T @ u.conj() / n
    cubic_cov = f.T @ f.conj() / n
    return cov, cubic_cross, cubic_cov
