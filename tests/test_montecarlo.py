"""Tests for the exact-feedback sampler and its empirical statistics."""

import dataclasses
import sys
import warnings

import numpy as np
import pytest

from dirtytx import (
    ConvergenceError,
    HardwareConfig,
    NumericalError,
    ModelValidityWarning,
    SignalSpec,
    build_model,
    bussgang_residual,
    covariance_mismatch,
    dbm_to_watt,
    empirical_cdf_distance,
    empirical_moments,
    empirical_nmse,
    minmax_backoff,
    nmse_branches,
    render,
    run_experiment,
    simulate_batch,
)
from dirtytx import montecarlo
from dirtytx.mxm import (
    HardwareConfigM,
    SignalSpecM,
    hardware_from_pair,
    signal_from_pair,
    simulate_batch_m,
)

from conftest import make_symmetric_hw
from oracles import sample_inputs, solve_feedback


def reference_sig(p_dbm: float) -> SignalSpec:
    return SignalSpec(p_x=dbm_to_watt(p_dbm))


class TestSampleInputs:
    def test_second_moments_match_spec(self):
        sig = SignalSpec(p_x=1e-3, beta=1.4, xi=0.3 + 0.2j)
        x = sample_inputs(sig, 10 ** 5, 1230)
        cov = x.T @ x.conj() / x.shape[0]
        target = sig.covariance()
        assert np.linalg.norm(cov - target) / np.linalg.norm(target) < 0.02

    def test_uncorrelated_streams_stay_uncorrelated(self):
        sig = SignalSpec(p_x=1e-3, beta=1.0, xi=0.0)
        x = sample_inputs(sig, 10 ** 5, 1231)
        cross = np.mean(x[:, 0] * np.conj(x[:, 1]))
        assert abs(cross) / sig.p_x < 0.02

    def test_full_correlation_collapses_to_one_stream(self):
        # xi = 1 with equal branch powers makes the covariance rank one;
        # the factorized sampler then emits literally identical streams.
        x = sample_inputs(SignalSpec(p_x=1e-3, beta=1.0, xi=1.0), 2000, 1232)
        assert np.array_equal(x[:, 0], x[:, 1])

    def test_seed_reproducibility(self):
        sig = SignalSpec(p_x=1e-3)
        a = sample_inputs(sig, 512, 77)
        b = sample_inputs(sig, 512, 77)
        assert np.array_equal(a, b)

    def test_invalid_sizes_and_correlation(self):
        with pytest.raises(ValueError):
            sample_inputs(SignalSpec(p_x=1e-3), 0, 1)
        with pytest.raises(ValueError):
            SignalSpec(p_x=1e-3, xi=1.5)


class TestSolveFeedback:
    def test_no_crosstalk_is_plain_gain(self):
        hw = HardwareConfig(
            gamma=(np.sqrt(1000.0),) * 2,
            kappa=(0.0, 0.0),
            rho=(-0.025, -0.025),
            sigma_w2=1e-4,
        )
        x = sample_inputs(SignalSpec(p_x=1e-3), 400, 1301)
        u, converged = solve_feedback(x, hw)
        assert converged.all()
        assert np.array_equal(u, x * np.asarray(hw.gamma, dtype=float))

    def test_linear_amplifier_closed_form(self):
        # With the cubic term off the loop is linear and the solution is
        # (I - K)^-1 L x, which the iteration should hit to solver tolerance.
        hw = HardwareConfig(
            gamma=(np.sqrt(1000.0),) * 2,
            kappa=(np.sqrt(1e-5),) * 2,
            rho=(0.0, 0.0),
            sigma_w2=1e-4,
        )
        x = sample_inputs(SignalSpec(p_x=1e-3), 500, 1303)
        u, converged = solve_feedback(x, hw)
        lmat = np.diag(np.asarray(hw.gamma, dtype=float))
        expect = x @ np.linalg.solve(np.eye(2) - hw.feedback_matrix, lmat).T
        assert converged.all()
        assert np.max(np.abs(u - expect)) < 1e-8 * np.max(np.abs(expect))

    def test_single_sample_layout(self):
        hw = make_symmetric_hw()
        u, ok = solve_feedback(np.array([1e-2 + 0j, -2e-2 + 1e-2j]), hw)
        assert u.shape == (2,)
        assert isinstance(ok, bool) and ok

    @staticmethod
    def relative_residual(x, u, hw):
        r = u + np.asarray(hw.rho, dtype=float) * u * np.abs(u) ** 2
        lhs = u - (x * np.asarray(hw.gamma, dtype=float) + r @ hw.feedback_matrix.T)
        return np.linalg.norm(lhs, axis=1) / np.linalg.norm(u, axis=1)

    def test_residual_meets_advertised_tolerance(self):
        # Strong drive; every sample must satisfy the fixed-point equation
        # to the solver's relative tolerance.
        hw = make_symmetric_hw()
        x = sample_inputs(reference_sig(0.0), 10 ** 4, 1307)
        u, converged = solve_feedback(x, hw)
        assert converged.all()
        assert self.relative_residual(x, u, hw).max() < 5e-10

    def test_strong_loop_stragglers(self):
        # Near unit loop gain the damped sweeps stall on some samples and
        # the exact system has several roots; the batched Newton solve
        # must leave only a few samples unsolved, and every sample it
        # calls converged must really solve the feedback equation.
        kappa = 10.0 ** (-30.0 / 20.0) * np.exp(0.7j)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelValidityWarning)
            hw = HardwareConfig(
                gamma=(np.sqrt(1000.0),) * 2,
                kappa=(kappa, kappa),
                rho=(-0.025, -0.03),
                sigma_w2=1e-4,
            )
        x = sample_inputs(reference_sig(10.0), 2000, 1)
        u, converged = solve_feedback(x, hw)
        assert np.count_nonzero(~converged) <= 12
        assert self.relative_residual(x[converged], u[converged], hw).max() < 5e-10


class TestRealFormMap:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("zero_k", [False, True], ids=["coupled", "zero-k"])
    def test_matches_the_complex_map(self, m, zero_k):
        # F(v) on the float view equals gamma x + K (u + rho u |u|^2),
        # relative to the size of the two terms (their sum may cancel).
        rng = np.random.default_rng(3400 + m)

        def draw(*shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

        for _ in range(20):
            gamma = rng.uniform(10.0, 40.0, m)
            x, u = draw(64, m) / gamma, draw(64, m)
            rho = -rng.uniform(0.02, 0.2, m)
            k = np.zeros((m, m), dtype=complex) if zero_k else 0.1 * draw(m, m)
            d_rho, k_r = montecarlo._real_form(k, rho)
            got = montecarlo._real_map(u.view(float), (x * gamma).view(float), d_rho, k_r)
            r = u + rho * u * np.abs(u) ** 2
            gap = np.linalg.norm(got.view(complex) - (x * gamma + r @ k.T), axis=1)
            size = np.linalg.norm(x * gamma, axis=1) + np.linalg.norm(np.abs(r) @ np.abs(k).T, axis=1)
            assert np.all(gap <= 1e-15 * size)

    def test_no_map_value_is_computed_twice(self, monkeypatch):
        # The first map call covers the whole chunk; each block then makes
        # three sweeps and one residual test on the same open rows, its
        # first sweep being the previous residual test's value.
        rows = []
        real_map = montecarlo._real_map

        def counted(v, *args):
            if v.shape[0]:  # the Newton test on no open rows evaluates nothing
                rows.append(v.shape[0])
            return real_map(v, *args)

        monkeypatch.setattr(montecarlo, "_real_map", counted)
        n = 10 ** 4
        batch = simulate_batch(make_symmetric_hw(), reference_sig(0.0), n, 557)
        assert batch.converged.all()
        blocks = np.reshape(rows[1:], (-1, montecarlo._SWEEPS_PER_CHECK))
        assert rows[0] == n and len(blocks) >= 2
        assert np.all(blocks == blocks[:, :1])

    def test_kept_first_sweep_is_the_map_of_the_block_start(self, monkeypatch):
        # Each block's first sweep is the map value kept from the last
        # residual test.  In a strong loop some blocks are undone, and the
        # kept value must still be F of the rows the next block starts from.
        # The block's second map call reads it from the solver's frame.
        real_map = montecarlo._real_map
        damped = []

        def checked(v, *args):
            caller = sys._getframe(1).f_locals
            if caller.get("sweep") == 1:
                open_ = caller["open_"]
                start = real_map(caller["v"][open_], caller["lxv"][open_],
                                 caller["d_rho"], caller["k_r"])
                gap = np.linalg.norm(caller["f"] - start, axis=1)
                assert np.all(gap <= 1e-15 * np.linalg.norm(start, axis=1))
                damped.append(bool(np.any(caller["alpha"] != 1.0)))
            return real_map(v, *args)

        monkeypatch.setattr(montecarlo, "_real_map", checked)
        kappa = 10.0 ** (-30.0 / 20.0) * np.exp(0.7j)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelValidityWarning)
            hw = HardwareConfig(gamma=(np.sqrt(1000.0),) * 2, kappa=(kappa, kappa),
                                rho=(-0.025, -0.03), sigma_w2=1e-4)
        solve_feedback(sample_inputs(reference_sig(10.0), 2000, 1), hw)
        assert any(damped) and not all(damped)


class TestSimulateBatch:
    def test_bitwise_reproducible(self):
        hw = make_symmetric_hw()
        a = simulate_batch(hw, reference_sig(-6.0), 4096, 555)
        b = simulate_batch(hw, reference_sig(-6.0), 4096, 555)
        for field in ("x", "u", "r", "y"):
            assert np.array_equal(getattr(a, field), getattr(b, field))

    def test_thread_count_does_not_change_results(self):
        # The thread count is accepted and ignored, so the tables match
        # byte for byte (n spans several chunks).
        cfg = {
            "experiment": "gaussian-validation",
            "seed": 556,
            "hardware": {"gain2": [1000.0, 1000.0], "crosstalk2": [1e-5, 1e-5],
                         "rho": [-0.025, -0.025], "noise": 1e-4},
            "signal": {},
            "p_x_points": [dbm_to_watt(-6.0)],
            "n_samples": 40000,
        }
        one, two = (render(run_experiment(cfg, n_threads=t), "csv") for t in (1, 2))
        assert one == two

    def test_all_samples_converge_at_reference_point(self):
        hw = make_symmetric_hw()
        batch = simulate_batch(hw, reference_sig(0.0), 10 ** 4, 557)
        assert batch.failure_rate == 0.0

    @pytest.mark.parametrize("m", [2, 4])
    def test_batched_newton_matches_sweeps(self, monkeypatch, m):
        # After one block of sweeps every sample at the reference point is
        # still open, so the batched Newton solve must find the same roots.
        def solve():
            if m == 2:
                return simulate_batch(make_symmetric_hw(), reference_sig(0.0), 10 ** 4, 557)
            hw = HardwareConfigM(
                gamma=np.full(m, np.sqrt(1000.0)),
                kappa=np.sqrt(1e-5) * (1.0 - np.eye(m)),
                rho=np.full(m, -0.025),
                sigma_w2=1e-4,
            )
            spec = SignalSpecM(c_x_shape=np.eye(m, dtype=complex), p_x=1e-3)
            return simulate_batch_m(hw, spec, 10 ** 4, 557)

        swept = solve()
        monkeypatch.setattr(montecarlo, "_MAX_FIXED_POINT", montecarlo._SWEEPS_PER_CHECK)
        newton = solve()
        assert newton.converged.all()
        gap = np.linalg.norm(newton.u - swept.u, axis=1) / np.linalg.norm(swept.u, axis=1)
        assert gap.max() < 1e-8

    @pytest.mark.parametrize("lift", [False, True], ids=["two-branch", "m-branch"])
    def test_failure_rate_guard(self, monkeypatch, lift):
        # With no solver iterations allowed every sample fails, which is
        # far above the tolerated failure rate.
        monkeypatch.setattr(montecarlo, "_MAX_FIXED_POINT", 0)
        monkeypatch.setattr(montecarlo, "_MAX_NEWTON", 0)
        hw, sig = make_symmetric_hw(), reference_sig(-6.0)
        with pytest.raises(ConvergenceError, match="failed on 64 of 64 samples"):
            if lift:
                simulate_batch_m(hardware_from_pair(hw), signal_from_pair(sig), 64, 559)
            else:
                simulate_batch(hw, sig, 64, 559)

    def test_non_finite_covariance_raises(self):
        # beta = 1e308 overflows the covariance's (2, 2) entry to inf+nanj.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sig = SignalSpec(p_x=1e-3, beta=1e308)
            with pytest.raises(NumericalError, match="covariance is not finite"):
                simulate_batch(make_symmetric_hw(), sig, 64, 5)

    def test_non_finite_row_never_converges(self):
        # A NaN residual fails every tolerance test, so the row stays open
        # through the sweeps and Newton, and is reported as failed.
        hw = make_symmetric_hw()
        x = sample_inputs(reference_sig(0.0), 256, 7)
        clean, ok = solve_feedback(x, hw)
        x[5] = np.nan
        u, converged = solve_feedback(x, hw)
        assert ok.all() and not converged[5]
        assert np.delete(converged, 5).all()
        rows = np.arange(256) != 5
        assert np.allclose(u[rows], clean[rows], rtol=1e-12, atol=0.0)

    def test_noise_power_calibration(self):
        hw = make_symmetric_hw()
        batch = simulate_batch(hw, reference_sig(-6.0), 10 ** 5, 558)
        noise = batch.y - batch.r
        p_w = np.mean(np.abs(noise) ** 2)
        assert abs(p_w / hw.sigma_w2 - 1.0) < 0.05


class TestEmpiricalNmse:
    def test_noise_only_closed_form(self):
        hw = HardwareConfig(
            gamma=(np.sqrt(1000.0),) * 2,
            kappa=(0.0, 0.0),
            rho=(0.0, 0.0),
            sigma_w2=1e-4,
        )
        sig = reference_sig(-10.0)
        batch = simulate_batch(hw, sig, 10 ** 5, 3300)
        n1, n2 = empirical_nmse(batch, hw, sig)
        expect = hw.sigma_w2 / (1000.0 * sig.p_x)
        assert abs(n1 / expect - 1.0) < 0.02
        assert abs(n2 / expect - 1.0) < 0.02

    @staticmethod
    def column_nmse(batch, gamma, powers):
        # The per-column reduction, with the branch powers passed in.
        err = batch.y - batch.x * gamma
        return [float(np.mean(np.abs(err[:, ell]) ** 2)) / (gamma[ell] * gamma[ell] * p)
                for ell, p in enumerate(powers)]

    def test_any_container_pair_gives_the_same_bits(self):
        # The powers read from sig.covariance() round exactly like the
        # two-branch (p_x, p_x beta^2) and the M-branch p_x diag(shape).
        rng = np.random.default_rng(3310)
        for i in range(6):
            hw = HardwareConfig(
                gamma=tuple(rng.uniform(10.0, 40.0, 2)),
                kappa=tuple(1e-3 * np.exp(2j * np.pi * rng.random(2))),
                rho=tuple(-rng.uniform(0.005, 0.05, 2)),
                sigma_w2=1e-4,
            )
            sig = SignalSpec(p_x=dbm_to_watt(rng.uniform(-20.0, 0.0)),
                             beta=rng.uniform(0.3, 2.0), xi=0.5 * rng.random())
            hw_m, spec = hardware_from_pair(hw), signal_from_pair(sig)
            batch = simulate_batch(hw, sig, 3000, 3310 + i)
            gamma = np.asarray(hw.gamma, dtype=float)
            pair = self.column_nmse(batch, gamma, (sig.p_x, sig.p_x * sig.beta ** 2))
            lifted = self.column_nmse(
                batch, hw_m.gamma, spec.p_x * np.real(np.diag(spec.c_x_shape)))
            assert np.array_equal(empirical_nmse(batch, hw, sig), pair)
            assert np.array_equal(empirical_nmse(batch, hw_m, spec), lifted)

    def test_silent_branch_is_infinite(self):
        hw = make_symmetric_hw()
        sig = SignalSpec(p_x=1e-3, beta=0.0)
        values = empirical_nmse(simulate_batch(hw, sig, 256, 3311), hw, sig)
        assert np.isfinite(values[0])
        assert np.isinf(values[1])

    @pytest.mark.parametrize("p_dbm", [-20.0, -10.0, 0.0])
    def test_matches_analytic_curve_within_a_db(self, p_dbm):
        hw = make_symmetric_hw()
        sig = reference_sig(p_dbm)
        batch = simulate_batch(hw, sig, 10 ** 5, 21)
        n1, n2 = empirical_nmse(batch, hw, sig)
        report = nmse_branches(hw, sig, sig.p_x)
        assert abs(10 * np.log10(n1) - report.nmse1_db) < 1.0
        assert abs(10 * np.log10(n2) - report.nmse2_db) < 1.0

    def test_backoff_minimum_shows_up_empirically(self, asymmetric_hw, asymmetric_sig):
        # Sweep a 2 dB grid and check the empirical worst branch bottoms
        # out within one grid step of the analytic back-off optimum.
        sol = minmax_backoff(asymmetric_hw, asymmetric_sig)
        grid_dbm = np.arange(-20.0, 7.0, 2.0)
        worst = []
        for i, p_dbm in enumerate(grid_dbm):
            sig = SignalSpec(
                p_x=dbm_to_watt(p_dbm),
                beta=asymmetric_sig.beta,
                xi=asymmetric_sig.xi,
            )
            batch = simulate_batch(asymmetric_hw, sig, 10 ** 4, 3200 + i)
            worst.append(max(empirical_nmse(batch, asymmetric_hw, sig)))
        best_dbm = grid_dbm[int(np.argmin(worst))]
        opt_dbm = 10 * np.log10(sol.p_x_opt / 1e-3)
        assert abs(best_dbm - opt_dbm) <= 2.0 + 1e-9


class TestCovarianceMismatch:
    def test_weak_crosstalk_linearization_is_tight(self):
        hw = make_symmetric_hw(kappa2_db=-70.0)
        batch = simulate_batch(hw, reference_sig(-6.0), 10 ** 4, 17)
        assert covariance_mismatch(batch, hw) < 1e-6

    @pytest.mark.parametrize("p_dbm", [-20.0, -10.0, 0.0])
    def test_reference_coupling_leaves_fixed_floor(self, p_dbm):
        # The analytic coupling matrix keeps only the first order of the
        # crosstalk loop.  At the reference coupling strength the dropped
        # second-order term carries about two percent of the branch power
        # regardless of drive, so the paired mismatch sits near -34 dB at
        # every operating point instead of decaying with back-off.
        hw = make_symmetric_hw()
        batch = simulate_batch(hw, reference_sig(p_dbm), 10 ** 4, 11)
        db = 10 * np.log10(covariance_mismatch(batch, hw))
        assert -36.0 < db < -32.0


class TestBussgangResidual:
    def test_no_compression_means_no_distortion(self):
        hw = HardwareConfig(
            gamma=(np.sqrt(1000.0),) * 2,
            kappa=(np.sqrt(1e-5),) * 2,
            rho=(0.0, 0.0),
            sigma_w2=1e-4,
        )
        sig = reference_sig(-6.0)
        batch = simulate_batch(hw, sig, 2000, 45)
        assert bussgang_residual(batch, build_model(hw, sig)) == 0.0

    def test_weak_crosstalk_residual_is_statistical(self):
        hw = make_symmetric_hw(kappa2_db=-70.0)
        sig = reference_sig(-6.0)
        for seed in (46, 47, 48):
            batch = simulate_batch(hw, sig, 10 ** 5, seed)
            assert bussgang_residual(batch, build_model(hw, sig)) < 0.015

    def test_weak_crosstalk_residual_decays_with_samples(self):
        hw = make_symmetric_hw(kappa2_db=-70.0)
        sig = reference_sig(-6.0)
        vals = []
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            batch = simulate_batch(hw, sig, n, 3100)
            vals.append(bussgang_residual(batch, build_model(hw, sig)))
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 0.015

    def test_reference_coupling_residual_floor(self):
        # At the reference coupling strength the first-order covariance
        # model understates the solved branch power by about two percent
        # (see the mismatch floor above).  That error leaks into the
        # linear gain, leaving a distortion-to-signal correlation near
        # sqrt(2) times two percent that no amount of averaging removes.
        # The normalized residual therefore floors around 0.03 at any
        # drive level; assert the floor rather than pretend it decays.
        hw = make_symmetric_hw()
        sig = reference_sig(-6.0)
        batch = simulate_batch(hw, sig, 10 ** 5, 42)
        value = bussgang_residual(batch, build_model(hw, sig))
        assert 0.015 < value < 0.08


class TestEmpiricalCdfDistance:
    def test_linear_chain_is_gaussian(self):
        hw = HardwareConfig(
            gamma=(np.sqrt(1000.0),) * 2,
            kappa=(0.0, 0.0),
            rho=(0.0, 0.0),
            sigma_w2=1e-4,
        )
        sig = reference_sig(0.0)
        batch = simulate_batch(hw, sig, 10 ** 4, 23)
        dist = empirical_cdf_distance(batch, build_model(hw, sig))
        assert dist.shape == (2, 2)
        assert dist.max() < 0.02

    def test_point_mass_branch(self):
        # Without crosstalk a silent branch stays exactly at zero, which
        # is the point mass the model predicts.
        hw = HardwareConfig(gamma=(30.0, 30.0), kappa=(0.0, 0.0), rho=(-0.02, -0.02),
                            sigma_w2=1e-4)
        sig = SignalSpec(p_x=1e-3, beta=0.0)
        model = build_model(hw, sig)
        batch = simulate_batch(hw, sig, 2000, 3)
        dist = empirical_cdf_distance(batch, model)
        assert np.all(dist[0] > 0) and np.all(dist[0] < 0.05)
        assert np.array_equal(dist[1], [0.0, 0.0])
        # Against the point mass the gap is the larger share on either side.
        u = batch.u.copy()
        u[:, 1] = np.where(np.arange(2000) < 300, -1.0 + 2.0j, 0.0)
        u[:100, 1] = 1.0 + 1.0j
        dist = empirical_cdf_distance(dataclasses.replace(batch, u=u), model)
        assert np.array_equal(dist[1], [200 / 2000, 300 / 2000])

    def test_non_finite_input_raises(self):
        hw, sig = make_symmetric_hw(), reference_sig(-10.0)
        model = build_model(hw, sig)
        batch = simulate_batch(hw, sig, 200, 11)
        u = batch.u.copy()
        u[3, 0] = np.nan
        with pytest.raises(NumericalError, match="must be finite"):
            empirical_cdf_distance(dataclasses.replace(batch, u=u), model)
        u_cov = model.u_cov.copy()
        u_cov[1, 1] = np.inf
        with pytest.raises(NumericalError, match="must be finite"):
            empirical_cdf_distance(batch, dataclasses.replace(model, u_cov=u_cov))

    def test_reference_setup_marginals_stay_near_gaussian(self):
        # Absolute bounds only.  The relative ordering between the two
        # drive levels flips with the seed (the deviations are close to
        # the sampling noise), so no monotonicity is asserted here.
        hw = make_symmetric_hw()
        for p_dbm, bound in ((-20.0, 0.05), (0.0, 0.1)):
            sig = reference_sig(p_dbm)
            batch = simulate_batch(hw, sig, 10 ** 4, 3001)
            dist = empirical_cdf_distance(batch, build_model(hw, sig))
            assert dist.max() < bound


class TestEmpiricalMoments:
    def test_gaussian_identities_on_synthetic_draws(self):
        # Draw an exactly Gaussian batch with a known covariance and
        # check the three sample moments against their closed forms.
        rng = np.random.default_rng(29)
        cov = np.array([[2.0, 0.8 + 0.5j], [0.8 - 0.5j, 1.5]])
        vals, vecs = np.linalg.eigh(cov)
        factor = vecs * np.sqrt(vals.clip(min=0.0))
        z = rng.standard_normal((2 * 10 ** 5, 2)) + 1j * rng.standard_normal(
            (2 * 10 ** 5, 2)
        )
        u = (z / np.sqrt(2.0)) @ factor.T
        emp_cov, emp_cross, emp_ccov = empirical_moments(u)
        diag = np.real(np.diag(cov))
        cross = 2.0 * diag[:, None] * cov
        ccov = 4.0 * np.outer(diag, diag) * cov + 2.0 * cov * np.abs(cov) ** 2
        assert np.linalg.norm(emp_cov - cov) / np.linalg.norm(cov) < 0.05
        assert np.linalg.norm(emp_cross - cross) / np.linalg.norm(cross) < 0.05
        assert np.linalg.norm(emp_ccov - ccov) / np.linalg.norm(ccov) < 0.05

    def test_solved_batch_tracks_model_cross_moment(self):
        hw = make_symmetric_hw()
        sig = reference_sig(-6.0)
        batch = simulate_batch(hw, sig, 10 ** 5, 31)
        model = build_model(hw, sig)
        _, emp_cross, _ = empirical_moments(batch.u)
        diag = np.real(np.diag(model.u_cov))
        cross = 2.0 * diag[:, None] * model.u_cov
        assert np.linalg.norm(emp_cross - cross) / np.linalg.norm(cross) < 0.08

    def test_rejects_flat_input(self):
        with pytest.raises(ValueError):
            empirical_moments(np.ones(16, dtype=complex))
