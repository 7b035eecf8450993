import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirtytx import (
    HardwareConfig,
    NoFiniteOptimumError,
    SignalSpec,
    approx_nmse1,
    dbm_to_watt,
    empirical_nmse,
    minmax_backoff,
    nmse,
    nmse_branches,
    nmse_second_derivative,
    polyroots,
    simulate_batch,
    siso_optimal_power,
    watt_to_dbm,
)
from conftest import make_symmetric_hw
from oracles import (
    central_second_difference,
    golden_section_min,
    minmax_grid_oracle,
    random_hardware,
    random_signal,
    worst_nmse_on_grid,
)


class TestErrorCovariance:
    def test_thermal_only(self):
        hw = HardwareConfig(gamma=(5.0, 5.0), kappa=(0.0, 0.0), rho=(0.0, 0.0), sigma_w2=2e-4)
        sig = SignalSpec(p_x=1e-3)
        rep = nmse_branches(hw, sig)
        assert rep.e11 == 2e-4
        assert rep.e22 == 2e-4

    def test_isolated_compressive_branch(self):
        hw = HardwareConfig(gamma=(3.0, 3.0), kappa=(0.0, 0.0), rho=(-0.1, -0.1), sigma_w2=1e-4)
        p = 2e-3
        e11 = nmse_branches(hw, SignalSpec(p_x=p)).e11
        assert_allclose(e11, 6.0 * 0.01 * 3.0 ** 6 * p ** 3 + 1e-4, rtol=1e-14)

    def test_against_simulation(self, symmetric_hw):
        # Closed-form branch error variance against the sampled one at
        # the back-off point of the reference setup.
        sig = SignalSpec(p_x=dbm_to_watt(-6.0))
        batch = simulate_batch(symmetric_hw, sig, n=10 ** 5, seed=90210)
        n1, n2 = empirical_nmse(batch, symmetric_hw, sig)
        rep = nmse_branches(symmetric_hw, sig)
        e11, e22 = rep.e11, rep.e22
        g2 = symmetric_hw.gamma[0] ** 2
        e11_mc = n1 * g2 * sig.p_x
        e22_mc = n2 * g2 * sig.p_x
        assert abs(10.0 * np.log10(e11_mc / e11)) < 1.0
        assert abs(10.0 * np.log10(e22_mc / e22)) < 1.0


class TestNmseBranches:
    def test_distortion_free_value(self):
        hw = HardwareConfig(
            gamma=(np.sqrt(1000.0), np.sqrt(1000.0)), kappa=(0.0, 0.0), rho=(0.0, 0.0),
            sigma_w2=1e-4,
        )
        rep = nmse_branches(hw, SignalSpec(p_x=1e-5))
        assert_allclose(rep.nmse1, 0.01, rtol=1e-14)
        assert_allclose(rep.nmse1_db, -20.0, atol=1e-12)

    def test_symmetric_branches_identical(self, symmetric_hw, symmetric_sig):
        for p in dbm_to_watt(np.linspace(-20.0, 6.0, 14)):
            rep = nmse_branches(symmetric_hw, symmetric_sig, float(p))
            assert_allclose(rep.nmse1, rep.nmse2, rtol=1e-14)

    def test_zero_power_sentinel(self, symmetric_hw, symmetric_sig):
        rep = nmse_branches(symmetric_hw, symmetric_sig, 0.0)
        assert np.isinf(rep.nmse1) and np.isinf(rep.nmse2)

    def test_silent_branch_sentinel(self, symmetric_hw):
        rep = nmse_branches(symmetric_hw, SignalSpec(p_x=1e-3, beta=0.0), 1e-3)
        assert np.isfinite(rep.nmse1)
        assert np.isinf(rep.nmse2)

    def test_normalization_consistency(self):
        rng = np.random.default_rng(211)
        for _ in range(25):
            hw = random_hardware(rng)
            sig = random_signal(rng)
            p = 10.0 ** rng.uniform(-5.0, -2.0)
            rep = nmse_branches(hw, sig, p)
            assert_allclose(rep.nmse1 * hw.gamma[0] ** 2 * p, rep.e11, rtol=1e-12)
            assert_allclose(rep.nmse2 * hw.gamma[1] ** 2 * sig.beta ** 2 * p, rep.e22, rtol=1e-12)
            for t in (rep.terms1, rep.terms2):
                parts = t.cubic + t.quadratic + t.linear + t.noise
                assert_allclose(parts, t.total, rtol=1e-12)

    def test_weak_crosstalk_sweep_shape(self):
        # With -70 dB crosstalk the worst-NMSE curve bottoms out near
        # -6.25 dBm; stepping 4 dB away costs a few dB.  The exact
        # penalties are pinned as regression values.
        hw = make_symmetric_hw(kappa2_db=-70.0)
        sig = SignalSpec(p_x=1e-3)

        def worst_db(p_dbm):
            rep = nmse_branches(hw, sig, dbm_to_watt(p_dbm))
            return 10.0 * np.log10(rep.worst)

        p_star = golden_section_min(worst_db, -20.0, 6.0)
        assert abs(p_star - (-6.0)) < 1.0
        up = worst_db(p_star + 4.0) - worst_db(p_star)
        down = worst_db(p_star - 4.0) - worst_db(p_star)
        assert_allclose(up, 3.399, atol=0.05)
        assert_allclose(down, 2.121, atol=0.05)

    def test_crosstalk_phase_pairing_invariance(self, symmetric_hw):
        # Conjugating both the crosstalk coefficient and the stream
        # correlation leaves branch 1 untouched: only the real part of
        # their product enters.
        rng = np.random.default_rng(77)
        for _ in range(10):
            k2 = complex(0.003 * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            xi = complex(0.6 * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            hw_a = HardwareConfig(
                gamma=symmetric_hw.gamma, kappa=(0.001, k2), rho=symmetric_hw.rho, sigma_w2=1e-4
            )
            hw_b = HardwareConfig(
                gamma=symmetric_hw.gamma,
                kappa=(0.001, k2.conjugate()),
                rho=symmetric_hw.rho,
                sigma_w2=1e-4,
            )
            sig_a = SignalSpec(p_x=1e-3, beta=1.2, xi=xi)
            sig_b = SignalSpec(p_x=1e-3, beta=1.2, xi=xi.conjugate())
            ra = nmse_branches(hw_a, sig_a)
            rb = nmse_branches(hw_b, sig_b)
            assert_allclose(ra.nmse1, rb.nmse1, rtol=1e-14)


class TestSecondDerivative:
    def test_positive_everywhere(self):
        rng = np.random.default_rng(303)
        for _ in range(30):
            hw = random_hardware(rng)
            sig = random_signal(rng)
            p = 10.0 ** rng.uniform(-6.0, -1.0)
            d1, d2 = nmse_second_derivative(hw, sig, p)
            assert d1 > 0 and d2 > 0

    def test_distortion_free_value(self):
        hw = HardwareConfig(gamma=(4.0, 4.0), kappa=(0.0, 0.0), rho=(0.0, 0.0), sigma_w2=3e-4)
        p = 5e-4
        d1, _ = nmse_second_derivative(hw, SignalSpec(p_x=p))
        assert_allclose(d1, 2.0 * 3e-4 / (16.0 * p ** 3), rtol=1e-14)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(307)
        for _ in range(20):
            hw = random_hardware(rng)
            sig = random_signal(rng)
            p = 10.0 ** rng.uniform(-4.0, -2.0)
            d1, d2 = nmse_second_derivative(hw, sig, p)
            h = 1e-4 * p
            fd1 = central_second_difference(lambda q: nmse_branches(hw, sig, q).nmse1, p, h)
            fd2 = central_second_difference(lambda q: nmse_branches(hw, sig, q).nmse2, p, h)
            assert_allclose(fd1, d1, rtol=1e-6)
            assert_allclose(fd2, d2, rtol=1e-6)

    def test_requires_positive_power(self, symmetric_hw, symmetric_sig):
        with pytest.raises(ValueError):
            nmse_second_derivative(symmetric_hw, symmetric_sig, 0.0)


class TestApproxNmse:
    def test_middle_term_vanishes(self, symmetric_hw):
        # Uncorrelated streams: the approximation is just distortion
        # plus the thermal floor.
        sig = SignalSpec(p_x=2e-3, beta=1.4, xi=0.0)
        g2 = symmetric_hw.gamma[0] ** 2
        r1 = symmetric_hw.rho[0]
        expect = 6.0 * r1 ** 2 * g2 ** 2 * sig.p_x ** 2 + symmetric_hw.sigma_w2 / (g2 * sig.p_x)
        assert_allclose(approx_nmse1(symmetric_hw, sig), expect, rtol=1e-14)

    def test_aligned_phases_reduce_the_value(self):
        hw = HardwareConfig(
            gamma=(10.0, 10.0), kappa=(0.0, 0.002), rho=(-0.02, -0.02), sigma_w2=1e-4
        )
        base = HardwareConfig(
            gamma=(10.0, 10.0), kappa=(0.0, 0.0), rho=(-0.02, -0.02), sigma_w2=1e-4
        )
        for p in np.geomspace(1e-5, 1e-2, 25):
            sig = SignalSpec(p_x=float(p), beta=1.0, xi=0.5)
            assert approx_nmse1(hw, sig, float(p)) <= approx_nmse1(base, sig, float(p))

    def test_accuracy_depends_on_leakage_floor(self):
        # The approximation omits the pure leakage term, so it tracks
        # the exact value only when crosstalk is far below the other
        # contributions: within 0.7 dB at -70 dB coupling, but off by
        # more than 5 dB already at -50 dB.
        sig = SignalSpec(p_x=1e-3)
        grid_dbm = np.linspace(-20.0, 0.0, 81)

        def max_gap_db(kappa2_db):
            hw = make_symmetric_hw(kappa2_db=kappa2_db)
            gaps = []
            for p_dbm in grid_dbm:
                p = dbm_to_watt(float(p_dbm))
                exact = nmse_branches(hw, sig, p).nmse1
                approx = approx_nmse1(hw, sig, p)
                gaps.append(abs(10.0 * np.log10(approx / exact)))
            return max(gaps)

        assert max_gap_db(-70.0) < 0.7
        assert max_gap_db(-50.0) > 5.0


class TestSisoOptimalPower:
    def test_constructed_instance(self):
        assert_allclose(siso_optimal_power(1.0, -0.5, 3.0), 1.0, rtol=1e-14)

    def test_against_grid_search(self):
        hw = HardwareConfig(gamma=(1.0, 1.0), kappa=(0.0, 0.0), rho=(-0.5, -0.5), sigma_w2=3.0)
        sig = SignalSpec(p_x=1.0, beta=0.0)
        p_star = golden_section_min(lambda p: nmse_branches(hw, sig, p).nmse1, 0.01, 10.0)
        assert_allclose(p_star, siso_optimal_power(1.0, -0.5, 3.0), rtol=1e-7)

    def test_scaling_laws(self):
        base = siso_optimal_power(2.0, -0.01, 1e-4)
        assert_allclose(siso_optimal_power(2.0 * np.sqrt(10.0), -0.01, 1e-4), base / 10.0, rtol=1e-13)
        assert_allclose(siso_optimal_power(2.0, -0.08, 1e-4), base / 4.0, rtol=1e-13)

    def test_domain_errors(self):
        with pytest.raises(NoFiniteOptimumError):
            siso_optimal_power(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            siso_optimal_power(0.0, -0.5, 1.0)
        with pytest.raises(ValueError):
            siso_optimal_power(1.0, -0.5, 0.0)


class TestMinmaxBackoff:
    def test_symmetric_candidates_coincide(self, symmetric_hw, symmetric_sig):
        sol = minmax_backoff(symmetric_hw, symmetric_sig)
        assert_allclose(
            sol.candidates["branch1_min"], sol.candidates["branch2_min"], rtol=1e-12
        )
        p_star = golden_section_min(
            lambda p: nmse_branches(symmetric_hw, symmetric_sig, p).worst,
            dbm_to_watt(-20.0),
            dbm_to_watt(6.0),
        )
        assert_allclose(sol.p_x_opt, p_star, rtol=1e-8)
        assert sol.active_case == "branch1_min"
        assert sol.tied is False

    def test_tie_does_not_depend_on_summation_order(self):
        # Four identical branches, the second one's cubic one ulp larger:
        # every worst NMSE is equal and the second minimizer is one ulp
        # lower.  Powers that close count as equal, so the first wins.
        cubic = np.full(4, 0.1)
        cubic[1] *= 1.0 + 2.0 ** -52
        powers, worst, pick, tied = nmse._minmax(
            cubic, np.full(4, 2e-3), np.full(4, 1e-6), np.ones(4), 2e-3)
        assert len(set(worst)) == 1
        assert powers[1] < powers[0]
        assert pick == 0
        assert tied is False

    def test_asymmetric_reference_is_balanced(self, asymmetric_hw, asymmetric_sig):
        sol = minmax_backoff(asymmetric_hw, asymmetric_sig)
        assert sol.active_case == "balanced"
        rep = nmse_branches(asymmetric_hw, asymmetric_sig, sol.p_x_opt)
        assert abs(rep.nmse1 - rep.nmse2) <= 1e-6 * rep.worst

    def test_unbalanced_crossing_is_discarded(self, asymmetric_hw, asymmetric_sig, monkeypatch):
        # A crossing root whose two branch NMSEs disagree is a root-finder
        # artefact: it is dropped with a warning and the optimum stands.
        ref = minmax_backoff(asymmetric_hw, asymmetric_sig)
        assert ref.active_case == "balanced"

        def with_spurious_root(coeffs):
            rep = polyroots.real_roots(coeffs)
            return polyroots.RootReport(
                rep.coefficients, np.append(rep.roots, 3.0 * ref.p_x_opt),
                np.append(rep.residuals, 0.0),
            )

        monkeypatch.setattr(nmse, "real_roots", with_spurious_root)
        with pytest.warns(UserWarning, match="discarding crossing candidate"):
            sol = minmax_backoff(asymmetric_hw, asymmetric_sig)
        assert sol == ref

    def test_matches_grid_oracle(self, asymmetric_hw, asymmetric_sig):
        sol = minmax_backoff(asymmetric_hw, asymmetric_sig)
        p_grid, v_grid, grid = minmax_grid_oracle(asymmetric_hw, asymmetric_sig)
        step = np.log(grid[1] / grid[0])
        assert abs(np.log(sol.p_x_opt / p_grid)) <= step
        assert sol.achieved <= v_grid * (1.0 + 1e-9)

    def test_random_draws_match_grid(self):
        rng = np.random.default_rng(401)
        for _ in range(15):
            hw = random_hardware(rng)
            sig = random_signal(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                sol = minmax_backoff(hw, sig)
            p_grid, v_grid, grid = minmax_grid_oracle(hw, sig)
            step = np.log(grid[1] / grid[0])
            assert abs(np.log(sol.p_x_opt / p_grid)) <= step
            assert sol.achieved <= v_grid * (1.0 + 1e-9)
            worst = worst_nmse_on_grid(hw, sig, np.array([p for p in sol.candidates.values()]))
            assert sol.achieved <= worst.min() * (1.0 + 1e-12)

    def test_crossing_searched_only_without_a_worst_branch_minimizer(self):
        # A branch that is the worse one at its own minimizer is the
        # optimum, so the crossing is searched (and reported) only when
        # neither branch is.
        rng = np.random.default_rng(409)
        counts = {True: 0, False: 0}
        for _ in range(300):
            hw = random_hardware(rng)
            sig = random_signal(rng)
            sol = minmax_backoff(hw, sig)
            settled = False
            for k in (1, 2):
                rep = nmse_branches(hw, sig, sol.candidates["branch%d_min" % k])
                settled |= getattr(rep, "nmse%d" % k) >= rep.worst
            assert ("balanced" in sol.candidates) == (not settled)
            counts[settled] += 1
        assert min(counts.values()) > 50

    def test_isolated_branch_candidate_matches_siso(self, symmetric_hw):
        # Killing the coupling into branch 1 reduces its stationarity
        # polynomial to the isolated-branch case.
        hw = HardwareConfig(
            gamma=symmetric_hw.gamma,
            kappa=(0.004, 0.0),
            rho=symmetric_hw.rho,
            sigma_w2=symmetric_hw.sigma_w2,
        )
        sol = minmax_backoff(hw, SignalSpec(p_x=1e-3, beta=1.1, xi=0.0))
        expect = siso_optimal_power(hw.gamma[0], hw.rho[0], hw.sigma_w2)
        assert_allclose(sol.candidates["branch1_min"], expect, rtol=1e-9)

    def test_degenerate_inputs_rejected(self, symmetric_hw, symmetric_sig):
        with pytest.raises(ValueError):
            minmax_backoff(symmetric_hw, SignalSpec(p_x=1e-3, beta=0.0))
        hw = HardwareConfig(
            gamma=symmetric_hw.gamma, kappa=symmetric_hw.kappa, rho=(0.0, -0.02), sigma_w2=1e-4
        )
        with pytest.raises(NoFiniteOptimumError):
            minmax_backoff(hw, symmetric_sig)

    def test_no_finite_candidate_raises_typed(self, symmetric_hw):
        # A subnormal amplitude ratio makes branch 2's NMSE denominator
        # underflow to 0, so every candidate's worst NMSE is infinite.  That
        # is known before any branch is evaluated, so nothing divides by 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoFiniteOptimumError, match="finite worst NMSE"):
                minmax_backoff(symmetric_hw, SignalSpec(p_x=1e-3, beta=1e-320))


class TestConvexity:
    def test_discrete_second_differences(self):
        rng = np.random.default_rng(431)
        powers = np.geomspace(1e-6, 1e-1, 50)
        for _ in range(20):
            hw = random_hardware(rng)
            sig = random_signal(rng)
            for branch in (1, 2):
                vals = np.array(
                    [getattr(nmse_branches(hw, sig, float(p)), "nmse%d" % branch) for p in powers]
                )
                second = vals[2:] - 2.0 * vals[1:-1] + vals[:-2]
                assert np.min(second) >= -1e-9 * np.max(np.abs(vals))
