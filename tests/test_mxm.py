"""Tests for the arbitrary-branch-count generalization."""

import warnings

import numpy as np
import pytest

from dirtytx import (
    ChannelSpec,
    HardwareConfig,
    SignalSpec,
    conventional_mrt,
    dbm_to_watt,
    distortion_aware_mrt,
    empirical_nmse,
    minmax_backoff,
    mrt_ray_curve,
    nmse_branches,
    simulate_batch,
)
from dirtytx.errors import NoFiniteOptimumError, SingularCouplingError
from dirtytx.model import coupling_matrix
from dirtytx.mxm import (
    HardwareConfigM,
    SignalSpecM,
    build_q_m,
    empirical_nmse_m,
    error_polynomials_m,
    hardware_from_pair,
    minmax_backoff_m,
    mrt_variants_m,
    nmse_branches_m,
    signal_from_pair,
    simulate_batch_m,
)
from dirtytx.polyroots import unique_positive_root
from oracles import minmax_envelope_oracle


def random_pair(rng):
    hw = HardwareConfig(
        gamma=tuple(np.sqrt(rng.uniform(100.0, 2000.0, 2))),
        kappa=tuple(np.sqrt(10 ** rng.uniform(-7.0, -5.4, 2))),
        rho=tuple(-rng.uniform(0.01, 0.04, 2)),
        sigma_w2=10 ** rng.uniform(-4.5, -3.5),
    )
    sig = SignalSpec(
        p_x=1e-3,
        beta=rng.uniform(0.6, 1.6),
        xi=rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform()),
    )
    return hw, sig


def random_many(rng, m, kappa_scale=1e-3):
    kappa = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) * kappa_scale
    np.fill_diagonal(kappa, 0.0)
    hw = HardwareConfigM(
        gamma=np.sqrt(rng.uniform(300.0, 1500.0, m)),
        kappa=kappa,
        rho=-rng.uniform(0.015, 0.035, m),
        sigma_w2=1e-4,
    )
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    shape = a @ a.conj().T
    shape /= shape[0, 0].real
    return hw, shape


class TestCouplingMatrixM:
    def test_no_crosstalk_is_the_gain_matrix(self):
        hw = HardwareConfigM(
            gamma=np.array([10.0, 20.0, 5.0]),
            kappa=np.zeros((3, 3), dtype=complex),
            rho=-np.full(3, 0.02),
            sigma_w2=1e-4,
        )
        assert np.array_equal(build_q_m(hw), np.diag(hw.gamma))
        assert np.allclose(build_q_m(hw, exact=True), np.diag(hw.gamma))

    def test_two_branch_entries_match_dedicated_module(self):
        rng = np.random.default_rng(4301)
        for _ in range(10):
            hw, _ = random_pair(rng)
            assert np.array_equal(build_q_m(hardware_from_pair(hw)), coupling_matrix(hw))

    def test_first_order_truncation_error_is_quadratic(self):
        # Shrinking the crosstalk by s must shrink the gap between the
        # exact loop inverse and the first-order product like s^2.
        rng = np.random.default_rng(4303)
        base = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) * 3e-3
        np.fill_diagonal(base, 0.0)
        gamma = np.sqrt(rng.uniform(100.0, 2000.0, 3))
        scales = np.array([1.0, 0.5, 0.25, 0.125, 0.0625])
        gaps = []
        for s in scales:
            hw = HardwareConfigM(gamma=gamma, kappa=base * s, rho=-np.full(3, 0.02), sigma_w2=1e-4)
            gaps.append(np.linalg.norm(build_q_m(hw, exact=True) - build_q_m(hw)))
        slopes = np.diff(np.log(gaps)) / np.diff(np.log(scales))
        assert np.all(slopes > 1.9) and np.all(slopes < 2.1)

    def test_singular_loop_raises(self):
        hw = HardwareConfigM(
            gamma=np.array([1.0, 1.0]),
            kappa=np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
            rho=-np.full(2, 0.02),
            sigma_w2=1e-4,
        )
        with pytest.raises(SingularCouplingError):
            build_q_m(hw, exact=True)
        # The first-order matrix [[1, 1], [1, 1]] is singular too.
        with pytest.raises(SingularCouplingError):
            build_q_m(hw)
        with pytest.raises(SingularCouplingError):
            mrt_variants_m(ChannelSpec(h=np.array([1.0, 0.5j]), sigma_n2=1.0), hw)

    def test_config_validation(self):
        good_kappa = np.zeros((2, 2), dtype=complex)
        with pytest.raises(ValueError):
            HardwareConfigM(
                gamma=np.array([1.0, 1.0]),
                kappa=np.array([[0.1, 0.0], [0.0, 0.1]], dtype=complex),
                rho=-np.full(2, 0.02),
                sigma_w2=1e-4,
            )
        with pytest.raises(ValueError):
            HardwareConfigM(
                gamma=np.array([1.0, 1.0]),
                kappa=good_kappa,
                rho=-np.full(3, 0.02),
                sigma_w2=1e-4,
            )
        with pytest.raises(ValueError):
            SignalSpecM(c_x_shape=np.array([[1.0, 0.5], [0.4, 1.0]]), p_x=1e-3)
        with pytest.raises(ValueError):
            SignalSpecM(c_x_shape=2.0 * np.eye(2), p_x=1e-3)
        with pytest.raises(ValueError):
            SignalSpecM(c_x_shape=np.eye(2), p_x=-1.0)
        good = dict(gamma=np.ones(2), kappa=good_kappa, rho=-np.full(2, 0.02), sigma_w2=1e-4)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError):
                SignalSpecM(c_x_shape=np.eye(2), p_x=bad)
            with pytest.raises(ValueError), np.errstate(invalid="ignore"):
                SignalSpecM(c_x_shape=np.array([[1.0, bad], [bad, 1.0]]), p_x=1e-3)
            for key, value in [
                ("gamma", np.array([1.0, bad])),
                ("kappa", np.array([[0.0, bad], [0.0, 0.0]])),
                ("rho", np.array([-0.02, -bad])),
                ("rho", np.array([bad, -0.02])),
                ("sigma_w2", bad),
            ]:
                with pytest.raises(ValueError):
                    HardwareConfigM(**{**good, key: value})


    def test_arrays_are_read_only_copies(self):
        gamma, rho = np.full(3, 30.0), np.full(3, -0.02)
        kappa = np.full((3, 3), 1e-3 + 0j)
        np.fill_diagonal(kappa, 0.0)
        hw = HardwareConfigM(gamma=gamma, kappa=kappa, rho=rho, sigma_w2=1e-4)
        q = coupling_matrix(hw)
        assert np.array_equal(build_q_m(hw), q)
        assert set(vars(hw)) == {"gamma", "kappa", "rho", "sigma_w2"}
        for name in ("gamma", "kappa", "rho"):
            with pytest.raises(ValueError):
                getattr(hw, name)[1] = 0.0
        # The caller's arrays stay writable and do not reach the container.
        gamma[1] = 10.0
        kappa[0, 1] = 0.5
        assert hw.gamma[1] == 30.0 and hw.kappa[0, 1] == 1e-3
        assert np.array_equal(coupling_matrix(hw), q)


class TestTwoBranchSpecialization:
    def test_nmse_matches_dedicated_module(self):
        rng = np.random.default_rng(4305)
        for _ in range(20):
            hw, sig = random_pair(rng)
            report = nmse_branches(hw, sig, 1e-3)
            many = nmse_branches_m(hardware_from_pair(hw), signal_from_pair(sig), 1e-3)
            assert abs(many[0] / report.nmse1 - 1.0) < 1e-9
            assert abs(many[1] / report.nmse2 - 1.0) < 1e-9

    def test_backoff_matches_dedicated_module(self):
        rng = np.random.default_rng(4307)
        for _ in range(20):
            hw, sig = random_pair(rng)
            opt2 = minmax_backoff(hw, sig).p_x_opt
            optm = minmax_backoff_m(hardware_from_pair(hw), signal_from_pair(sig))
            assert abs(optm / opt2 - 1.0) < 1e-12

    def test_mrt_matches_dedicated_module(self):
        rng = np.random.default_rng(4309)
        for _ in range(10):
            hw, _ = random_pair(rng)
            h = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2.0)
            channel = ChannelSpec(h=h, sigma_n2=1.0)
            pair = mrt_variants_m(channel, hardware_from_pair(hw))
            assert pair["conventional"].se == conventional_mrt(channel, hw).se
            assert pair["distortion_aware"].se == distortion_aware_mrt(channel, hw).se

    def test_batches_are_bit_identical(self):
        hw = HardwareConfig(
            gamma=(np.sqrt(1000.0),) * 2,
            kappa=(np.sqrt(1e-5),) * 2,
            rho=(-0.025, -0.025),
            sigma_w2=1e-4,
        )
        sig = SignalSpec(p_x=dbm_to_watt(-6.0), beta=1.3, xi=0.4)
        hw_m, spec = hardware_from_pair(hw), signal_from_pair(sig)
        # 40000 samples span three solver chunks.
        for n in (5000, 40000):
            two = simulate_batch(hw, sig, n, 888)
            many = simulate_batch_m(hw_m, spec, n, 888)
            assert np.array_equal(two.u, many.u)
            assert np.array_equal(two.y, many.y)
            assert np.array_equal(empirical_nmse(two, hw, sig), empirical_nmse_m(many, hw_m, spec))


class TestNmseBranchesM:
    def test_noise_only_closed_form(self):
        hw = HardwareConfigM(
            gamma=np.array([10.0, 20.0, 30.0]),
            kappa=np.zeros((3, 3), dtype=complex),
            rho=np.zeros(3),
            sigma_w2=1e-4,
        )
        shape = np.diag([1.0, 0.5, 2.0]).astype(complex)
        spec = SignalSpecM(c_x_shape=shape, p_x=1e-3)
        values = nmse_branches_m(hw, spec)
        expect = hw.sigma_w2 / (hw.gamma ** 2 * np.real(np.diag(shape)) * spec.p_x)
        assert np.allclose(values, expect, rtol=1e-12)

    def test_silent_branch_reports_infinite_nmse(self):
        hw = HardwareConfigM(
            gamma=np.array([10.0, 20.0]),
            kappa=np.zeros((2, 2), dtype=complex),
            rho=-np.full(2, 0.02),
            sigma_w2=1e-4,
        )
        shape = np.diag([1.0, 0.0]).astype(complex)
        values = nmse_branches_m(hw, SignalSpecM(c_x_shape=shape, p_x=1e-3))
        assert np.isfinite(values[0])
        assert np.isinf(values[1])

    def test_four_branch_monte_carlo_agreement(self):
        # Random four-branch instance with a full covariance shape; the
        # closed forms must track the exact simulation within a dB.
        rng = np.random.default_rng(4200)
        hw, shape = random_many(rng, 4)
        spec = SignalSpecM(c_x_shape=shape, p_x=dbm_to_watt(-6.0))
        batch = simulate_batch_m(hw, spec, 10 ** 5, 4100)
        assert batch.converged.all()
        emp = empirical_nmse_m(batch, hw, spec)
        ana = nmse_branches_m(hw, spec)
        gaps = 10 * np.log10(emp) - 10 * np.log10(ana)
        assert np.all(np.abs(gaps) < 1.0)

    def test_convex_in_power_on_grid(self):
        rng = np.random.default_rng(4311)
        hw, shape = random_many(rng, 3)
        spec = SignalSpecM(c_x_shape=shape, p_x=1e-3)
        grid = np.geomspace(1e-6, 1e-1, 60)
        for ell in range(3):
            vals = np.array([nmse_branches_m(hw, spec, p)[ell] for p in grid])
            second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
            assert np.all(second >= -1e-9 * np.abs(vals[1:-1]).max())


class TestMinmaxBackoffM:
    def test_symmetric_branches_reduce_to_single_branch(self):
        kappa = np.where(~np.eye(3, dtype=bool), np.sqrt(1e-5), 0.0).astype(complex)
        hw = HardwareConfigM(
            gamma=np.full(3, np.sqrt(1000.0)),
            kappa=kappa,
            rho=-np.full(3, 0.025),
            sigma_w2=1e-4,
        )
        spec = SignalSpecM(c_x_shape=np.eye(3, dtype=complex), p_x=1e-3)
        cubic, quadratic, _, _ = error_polynomials_m(hw, spec)
        single = unique_positive_root(
            np.array([2.0 * cubic[0], quadratic[0], 0.0, -hw.sigma_w2])
        )
        assert minmax_backoff_m(hw, spec) == pytest.approx(single, rel=1e-12)

    def test_four_branch_grid_oracle(self):
        # A branch minimizer wins here; golden-section search locates a
        # smooth minimum only to about the square root of the rounding.
        rng = np.random.default_rng(4000)
        hw, shape = random_many(rng, 4, kappa_scale=2e-3)
        spec = SignalSpecM(c_x_shape=shape, p_x=dbm_to_watt(-6.0))
        opt = minmax_backoff_m(hw, spec)
        best, value = minmax_envelope_oracle(*error_polynomials_m(hw, spec), hw.sigma_w2)
        assert abs(opt / best - 1.0) <= 1e-6
        assert np.max(nmse_branches_m(hw, spec, opt)) <= value * (1.0 + 1e-12)

    @pytest.mark.parametrize("m", [3, 4, 8])
    def test_crossing_path_matches_envelope_oracle(self, m):
        # No branch is the worst at its own minimizer, so the optimum is
        # a crossing of two branch NMSEs: a kink the oracle pins tightly.
        rng = np.random.default_rng(4400)
        hw, shape = random_many(rng, m, kappa_scale=2e-3)
        spec = SignalSpecM(c_x_shape=shape, p_x=1e-3)
        polys = error_polynomials_m(hw, spec)
        for k in range(m):
            p_k = unique_positive_root([2.0 * polys[0][k], polys[1][k], 0.0, -hw.sigma_w2])
            values = nmse_branches_m(hw, spec, p_k)
            assert values[k] < values.max()
        opt = minmax_backoff_m(hw, spec)
        best, value = minmax_envelope_oracle(*polys, hw.sigma_w2)
        assert abs(opt / best - 1.0) <= 1e-9
        assert np.max(nmse_branches_m(hw, spec, opt)) <= value * (1.0 + 1e-12)

    def test_objective_at_optimum_beats_grid(self):
        rng = np.random.default_rng(4313)
        hw, shape = random_many(rng, 3)
        spec = SignalSpecM(c_x_shape=shape, p_x=1e-3)
        opt = minmax_backoff_m(hw, spec)
        achieved = np.max(nmse_branches_m(hw, spec, opt))
        grid = np.geomspace(1e-7, 1e-1, 2000)
        worst = np.array([np.max(nmse_branches_m(hw, spec, p)) for p in grid])
        assert achieved <= worst.min() * (1.0 + 1e-9)

    def test_identical_branches_are_not_crossed(self):
        # Branches 0 and 1 are the same polynomial, so their difference
        # has no roots to offer; the optimum is the crossing with branch 2.
        hw = HardwareConfigM(
            gamma=np.array([30.0, 30.0, 45.0]),
            kappa=np.zeros((3, 3), dtype=complex),
            rho=np.array([-0.02, -0.02, -0.03]),
            sigma_w2=1e-4,
        )
        spec = SignalSpecM(c_x_shape=np.eye(3, dtype=complex), p_x=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            opt = minmax_backoff_m(hw, spec)
        assert opt == pytest.approx(1.45116e-4, rel=1e-5)
        cubic, quadratic, linear, denom = error_polynomials_m(hw, spec)
        grid = np.geomspace(1e-6, 1e-2, 20001)[:, None]
        worst = np.max((cubic * grid ** 3 + quadratic * grid ** 2 + linear * grid + hw.sigma_w2)
                       / (denom * grid), axis=1)
        assert np.max(nmse_branches_m(hw, spec, opt)) <= worst.min() + 1e-15

    def test_non_compressive_branch_raises(self):
        hw = HardwareConfigM(
            gamma=np.array([10.0, 10.0]),
            kappa=np.zeros((2, 2), dtype=complex),
            rho=np.array([-0.02, 0.0]),
            sigma_w2=1e-4,
        )
        with pytest.raises(NoFiniteOptimumError):
            minmax_backoff_m(hw, SignalSpecM(c_x_shape=np.eye(2, dtype=complex), p_x=1e-3))


class TestMrtVariantsM:
    def test_channel_length_must_match(self):
        rng = np.random.default_rng(4315)
        hw, _ = random_many(rng, 4)
        h = (rng.standard_normal(2) + 1j * rng.standard_normal(2)) / np.sqrt(2.0)
        with pytest.raises(ValueError):
            mrt_variants_m(ChannelSpec(h=h, sigma_n2=1.0), hw)

    def test_distortion_free_direction_is_matched_filter(self):
        rng = np.random.default_rng(4317)
        gamma = np.sqrt(rng.uniform(300.0, 1500.0, 4))
        hw = HardwareConfigM(
            gamma=gamma,
            kappa=np.zeros((4, 4), dtype=complex),
            rho=-np.full(4, 1e-6),
            sigma_w2=1e-4,
        )
        h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2.0)
        sol = mrt_variants_m(ChannelSpec(h=h, sigma_n2=1.0), hw)["conventional"]
        direction = sol.c / np.linalg.norm(sol.c)
        reference = h.conj() / np.linalg.norm(h)
        assert abs(np.vdot(reference, direction)) > 1.0 - 1e-9

    def test_awareness_wins_in_the_overdrive_regime(self):
        # The plain matched-filter ray keeps gaining transmit power as
        # the sweep continues past saturation and its SNDR collapses;
        # the distortion-aware family stops at its best operating point.
        # At the largest powers of a wide grid the ray must therefore sit
        # far below the aware solution.
        rng = np.random.default_rng(4000)
        hw, _ = random_many(rng, 4, kappa_scale=2e-3)
        h = (rng.standard_normal(4) + 1j * rng.standard_normal(4)) / np.sqrt(2.0)
        channel = ChannelSpec(h=h, sigma_n2=1.0)
        pair = mrt_variants_m(channel, hw)
        grid = 1e-3 * 10 ** (np.linspace(-40.0, 20.0, 10 ** 4) / 10.0)
        for se_ray in mrt_ray_curve(channel, hw, grid[-10:]):
            assert pair["distortion_aware"].se >= se_ray + 1e-9
        assert pair["distortion_aware"].se >= pair["conventional"].se - 1e-9


class TestEmpiricalNmseM:
    def test_rejects_unconverged_batch(self):
        rng = np.random.default_rng(4319)
        hw, shape = random_many(rng, 3)
        spec = SignalSpecM(c_x_shape=shape, p_x=1e-3)
        batch = simulate_batch_m(hw, spec, 64, 4321)
        broken = type(batch)(
            x=batch.x,
            u=batch.u,
            r=batch.r,
            y=batch.y,
            seed=batch.seed,
            converged=np.zeros(batch.n, dtype=bool),
        )
        with pytest.raises(ValueError):
            empirical_nmse_m(broken, hw, spec)

    def test_silent_branch_is_infinite(self):
        hw = HardwareConfigM(
            gamma=np.array([10.0, 20.0]),
            kappa=np.zeros((2, 2), dtype=complex),
            rho=-np.full(2, 0.01),
            sigma_w2=1e-4,
        )
        shape = np.diag([1.0, 0.0]).astype(complex)
        spec = SignalSpecM(c_x_shape=shape, p_x=1e-3)
        batch = simulate_batch_m(hw, spec, 256, 4323)
        values = empirical_nmse_m(batch, hw, spec)
        assert np.isfinite(values[0])
        assert np.isinf(values[1])
