import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirtytx import (
    BussgangGainWarning,
    HardwareConfig,
    ModelValidityWarning,
    SignalSpec,
    SingularCouplingError,
    build_model,
    bussgang_gains,
    coupling_matrix,
    db_to_linear,
    dbm_to_watt,
    distortion_covariance,
    fourth_moment_matrix,
    internal_covariance,
    linear_to_db,
    sixth_moment_matrix,
    watt_to_dbm,
)
from dirtytx.model import _internal_powers
from oracles import FeedbackDivergenceError, effective_linear_gain, linear_output_covariance


def random_psd(rng, n=2):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T + 1e-3 * np.eye(n)


class TestCouplingMatrix:
    def test_no_crosstalk_is_identity(self):
        hw = HardwareConfig(gamma=(1.0, 1.0), kappa=(0.0, 0.0), rho=(0.0, 0.0), sigma_w2=1e-4)
        assert_allclose(coupling_matrix(hw), np.eye(2), atol=0)

    def test_symmetric_off_diagonal(self):
        hw = HardwareConfig(gamma=(3.0, 3.0), kappa=(0.01, 0.01), rho=(-0.01, -0.01), sigma_w2=1e-4)
        q = coupling_matrix(hw)
        assert q[0, 1] == q[1, 0]
        assert_allclose(q[0, 1], 9.0 * 0.01, rtol=1e-15)

    def test_reference_setup_off_diagonal(self, symmetric_hw):
        q = coupling_matrix(symmetric_hw)
        assert_allclose(q[0, 1], 1000.0 * np.sqrt(1e-5), rtol=1e-12)
        assert_allclose(q[0, 0], np.sqrt(1000.0), rtol=1e-12)

    def test_singular_coupling_rejected(self):
        """Both the coupling matrix and the internal covariance built on it raise."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelValidityWarning)
            hw = HardwareConfig(gamma=(1.0, 1.0), kappa=(1.0, 1.0), rho=(0.0, 0.0), sigma_w2=1e-4)
        with pytest.raises(SingularCouplingError):
            coupling_matrix(hw)
        with pytest.raises(SingularCouplingError):
            internal_covariance(hw, SignalSpec(p_x=1e-3))

    def test_derived_once_and_read_only(self, symmetric_hw):
        q = coupling_matrix(symmetric_hw)
        assert np.array_equal(coupling_matrix(symmetric_hw), q)
        # Deriving Q leaves equality and repr of the container alone.
        fresh = HardwareConfig(symmetric_hw.gamma, symmetric_hw.kappa, symmetric_hw.rho,
                               symmetric_hw.sigma_w2)
        assert fresh == symmetric_hw
        assert repr(fresh) == repr(symmetric_hw)

    def test_container_keeps_only_its_fields(self, symmetric_hw):
        hw = HardwareConfig(symmetric_hw.gamma, symmetric_hw.kappa, symmetric_hw.rho,
                            symmetric_hw.sigma_w2)
        fields = dict(vars(hw))
        coupling_matrix(hw)
        assert vars(hw) == fields
        assert set(vars(hw)) == {"gamma", "kappa", "rho", "sigma_w2"}

    def test_singular_container_raises_every_call(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ModelValidityWarning)
            hw = HardwareConfig(gamma=(1.0, 1.0), kappa=(1.0, 1.0), rho=(0.0, 0.0), sigma_w2=1e-4)
        for _ in range(2):
            with pytest.raises(SingularCouplingError):
                coupling_matrix(hw)


class TestInternalCovariance:
    def test_no_crosstalk_entries(self):
        hw = HardwareConfig(gamma=(2.0, 3.0), kappa=(0.0, 0.0), rho=(-0.01, -0.01), sigma_w2=1e-4)
        sig = SignalSpec(p_x=1.0, beta=0.8, xi=0.3 + 0.4j)
        t = internal_covariance(hw, sig, 1.0)
        assert_allclose(t[0, 0], 4.0, rtol=1e-15)
        assert_allclose(t[0, 1], 2.0 * 3.0 * 0.8 * (0.3 + 0.4j), rtol=1e-15)
        assert_allclose(t[1, 1], 9.0 * 0.64, rtol=1e-15)

    def test_silent_second_branch_sees_pure_leakage(self):
        hw = HardwareConfig(
            gamma=(2.0, 3.0), kappa=(0.02 + 0.01j, 0.01), rho=(-0.01, -0.01), sigma_w2=1e-4
        )
        sig = SignalSpec(p_x=1.0, beta=0.0, xi=0.0)
        t = internal_covariance(hw, sig, 1.0)
        assert_allclose(t[1, 1], 4.0 * 9.0 * abs(0.02 + 0.01j) ** 2, rtol=1e-14)

    def test_reference_symmetric_diagonal(self, symmetric_hw, symmetric_sig):
        t = internal_covariance(symmetric_hw, symmetric_sig, 1.0)
        expect = 1000.0 * (1.0 + 1000.0 * 1e-5)
        assert_allclose(t[0, 0], expect, rtol=1e-12)
        assert_allclose(t[1, 1], expect, rtol=1e-12)

    def test_matches_quadratic_form(self):
        # The scalar diagonal behind the NMSE polynomials against the
        # diagonal of the matrix product.
        rng = np.random.default_rng(11)
        for _ in range(50):
            g = rng.uniform(0.5, 40.0, size=2)
            kap = 0.03 * (rng.standard_normal(2) + 1j * rng.standard_normal(2))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ModelValidityWarning)
                hw = HardwareConfig(
                    gamma=(g[0], g[1]),
                    kappa=(complex(kap[0]), complex(kap[1])),
                    rho=(-0.02, -0.01),
                    sigma_w2=1e-4,
                )
            radius = rng.uniform(0.0, 0.95)
            sig = SignalSpec(
                p_x=rng.uniform(1e-4, 1e-2),
                beta=rng.uniform(0.1, 2.0),
                xi=complex(radius * np.exp(1j * rng.uniform(0, 2 * np.pi))),
            )
            t = _internal_powers(*hw.gamma, *hw.kappa, sig.beta, sig.xi)
            q = coupling_matrix(hw)
            ref = np.diagonal(q @ sig.covariance_shape() @ q.conj().T).real
            assert_allclose(t, ref, rtol=1e-14)

    def test_scales_linearly_with_power(self, symmetric_hw, symmetric_sig):
        u1 = internal_covariance(symmetric_hw, symmetric_sig, 1e-3)
        u2 = internal_covariance(symmetric_hw, symmetric_sig, 2e-3)
        assert_allclose(u2, 2.0 * u1, rtol=1e-15)


class TestBussgangGains:
    def test_linear_amplifier(self):
        gains = bussgang_gains(np.diag([3.0, 7.0]).astype(complex), (0.0, 0.0))
        assert_allclose(gains, [1.0, 1.0], atol=0)

    def test_hand_value(self):
        gains = bussgang_gains(np.diag([10.0, 1.0]).astype(complex), (-0.025, -0.025))
        assert_allclose(gains[0], 0.5, rtol=1e-15)

    def test_zero_gain_boundary_warns(self):
        u = np.diag([1.0 / (2 * 0.025), 1.0]).astype(complex)
        with pytest.warns(BussgangGainWarning):
            gains = bussgang_gains(u, (-0.025, -0.025))
        assert_allclose(gains[0], 0.0, atol=1e-15)


class TestGaussianMoments:
    def test_fourth_identity_input(self):
        assert_allclose(fourth_moment_matrix(np.eye(2, dtype=complex)), 2.0 * np.eye(2), atol=0)

    def test_fourth_hand_case(self):
        u = np.array([[2.0, 1j], [-1j, 3.0]])
        expect = np.array([[8.0, 4j], [-6j, 18.0]])
        assert_allclose(fourth_moment_matrix(u), expect, atol=1e-15)

    def test_fourth_diagonal_input(self):
        u = np.diag([2.0, 5.0]).astype(complex)
        assert_allclose(fourth_moment_matrix(u), 2.0 * u @ u, atol=0)

    def test_sixth_identity_input(self):
        assert_allclose(sixth_moment_matrix(np.eye(2, dtype=complex)), 6.0 * np.eye(2), atol=0)

    def test_sixth_hand_case(self):
        u = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        m = sixth_moment_matrix(u)
        assert_allclose(np.diagonal(m), [6.0, 6.0], rtol=1e-15)
        assert_allclose(m[0, 1], 2.25, rtol=1e-15)

    def test_sixth_diagonal_entries_are_cubes(self):
        rng = np.random.default_rng(5)
        u = random_psd(rng)
        m = sixth_moment_matrix(u)
        d = np.diagonal(u).real
        assert_allclose(np.diagonal(m).real, 6.0 * d ** 3, rtol=1e-12)

    def test_quotient_identities(self):
        # The two matrix identities behind the distortion covariance
        # derivation, checked on random PSD inputs.
        rng = np.random.default_rng(17)
        for _ in range(25):
            u = random_psd(rng)
            b = np.diag(np.diagonal(u).real)
            c = u * np.abs(u) ** 2
            m4 = fourth_moment_matrix(u)
            m6 = sixth_moment_matrix(u)
            assert_allclose(m4 @ np.linalg.inv(u), 2.0 * b, atol=1e-12 * np.trace(u).real)
            schur = m6 - m4 @ np.linalg.inv(u) @ m4.conj().T
            assert_allclose(schur, 2.0 * c, atol=1e-11 * np.trace(u).real ** 3)


class TestDistortionCovariance:
    def test_linear_amplifier_no_distortion(self):
        rng = np.random.default_rng(2)
        v = distortion_covariance(random_psd(rng), (0.0, 0.0))
        assert_allclose(v, np.zeros((2, 2)), atol=0)

    def test_hand_value(self):
        v = distortion_covariance(np.eye(2, dtype=complex), (-0.5, -0.5))
        assert_allclose(v, 0.5 * np.eye(2), atol=1e-16)

    def test_hermitian_psd(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            u = random_psd(rng)
            rho = -rng.uniform(0.0, 1.0, size=2)
            v = distortion_covariance(u, rho)
            assert_allclose(v, v.conj().T, atol=1e-14 * np.abs(v).max())
            assert np.all(np.diagonal(v).real >= 0)
            det = np.linalg.det(v).real
            assert det >= -1e-12 * max(np.abs(v).max() ** 2, 1e-300)


class TestLinearSymmetricPair:
    def test_no_crosstalk_gain(self):
        assert effective_linear_gain(7.0, 0.0) == 7.0

    def test_hand_value(self):
        assert_allclose(effective_linear_gain(10.0, 0.1), 10.0 * np.sqrt(1.01) / 0.99, rtol=1e-15)
        assert_allclose(effective_linear_gain(10.0, 0.1), 10.1513895, rtol=1e-7)

    def test_divergent_loop_rejected(self):
        with pytest.raises(FeedbackDivergenceError):
            effective_linear_gain(10.0, 1.0)
        with pytest.raises(FeedbackDivergenceError):
            linear_output_covariance(10.0, -1.2, 1e-3)

    def test_output_correlation(self):
        gamma, delta, p = 10.0, 0.2, 2e-3
        cov = linear_output_covariance(gamma, delta, p)
        assert_allclose(cov[0, 1], 2.0 * delta * gamma ** 2 * p / (1 - delta ** 2) ** 2, rtol=1e-14)
        assert_allclose(cov[0, 0], cov[1, 1], rtol=1e-15)
        assert_allclose(
            cov[0, 0] / p, effective_linear_gain(gamma, delta) ** 2, rtol=1e-13
        )


class TestModelAssembly:
    def test_clean_hardware_collapses_to_diagonal(self):
        hw = HardwareConfig(gamma=(4.0, 5.0), kappa=(0.0, 0.0), rho=(0.0, 0.0), sigma_w2=1e-4)
        sig = SignalSpec(p_x=1e-3, beta=1.1, xi=0.2)
        model = build_model(hw, sig)
        assert_allclose(model.coupling, np.diag([4.0, 5.0]), atol=0)
        assert_allclose(model.gains, [1.0, 1.0], atol=0)
        assert_allclose(model.distortion_cov, np.zeros((2, 2)), atol=0)

    def test_fully_correlated_inputs_give_rank_one_cov(self, symmetric_hw):
        # |xi| = 1 makes the two streams proportional, so the internal
        # covariance must collapse to rank one.
        sig = SignalSpec(p_x=1e-3, beta=0.9, xi=np.exp(0.3j))
        model = build_model(symmetric_hw, sig)
        w = np.linalg.eigvalsh(model.u_cov)
        assert w[0] <= 1e-10 * np.trace(model.u_cov).real

    def test_gain_diagonal_consistency(self, asymmetric_hw, asymmetric_sig):
        model = build_model(asymmetric_hw, asymmetric_sig)
        expect = 1.0 + 2.0 * np.array(asymmetric_hw.rho) * np.diagonal(model.u_cov).real
        assert_allclose(model.gains, expect, rtol=1e-14)


class TestConfigValidation:
    def test_positive_rho_rejected(self):
        with pytest.raises(ValueError):
            HardwareConfig(gamma=(1.0, 1.0), kappa=(0.0, 0.0), rho=(0.01, -0.01), sigma_w2=1e-4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_fields_rejected(self, bad):
        good = dict(gamma=(1.0, 1.0), kappa=(0.0, 0.0), rho=(-0.01, -0.01), sigma_w2=1e-4)
        for key, value in [
            ("gamma", (1.0, bad)),
            ("kappa", (bad, 0.0)),
            ("kappa", (0.0, complex(0.0, bad))),
            ("rho", (-0.01, -bad)),
            ("rho", (bad, -0.01)),
            ("sigma_w2", bad),
        ]:
            with pytest.raises(ValueError):
                HardwareConfig(**{**good, key: value})
        for fields in [dict(p_x=bad), dict(beta=bad), dict(xi=bad), dict(xi=complex(0.0, bad))]:
            with pytest.raises(ValueError):
                SignalSpec(**{"p_x": 1e-3, **fields})

    def test_loop_gain_warning(self):
        with pytest.warns(ModelValidityWarning):
            HardwareConfig(gamma=(10.0, 10.0), kappa=(0.05, 0.05), rho=(0.0, 0.0), sigma_w2=1e-4)

    def test_loop_gain_at_the_limit_stays_silent(self):
        # 30 dB gains with -48/-52 dB crosstalk put the loop gain exactly
        # at the limit; random phases round it up by an ulp or so.
        rng = np.random.default_rng(0)
        gamma = (float(np.sqrt(db_to_linear(30.0))),) * 2
        mags = [float(np.sqrt(db_to_linear(k))) for k in (-48.0, -52.0)]
        over = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", ModelValidityWarning)
            for _ in range(200):
                phase = (rng.uniform(0.2, 3.0), -rng.uniform(0.2, 3.0))
                hw = HardwareConfig(
                    gamma=gamma,
                    kappa=tuple(a * np.exp(1j * p) for a, p in zip(mags, phase)),
                    rho=(-0.023, -0.027),
                    sigma_w2=1e-4,
                )
                over += hw.crosstalk_product > 0.01
                assert hw.small_error_ok
        assert over > 0
        with pytest.warns(ModelValidityWarning):
            HardwareConfig(gamma=gamma, kappa=(mags[0] * 1.001, mags[1]),
                           rho=(-0.023, -0.027), sigma_w2=1e-4)

    def test_reference_setup_inside_validity_region(self, symmetric_hw):
        assert symmetric_hw.small_error_ok
        assert abs(symmetric_hw.crosstalk_product) <= 0.01


class TestUnitConversions:
    def test_dbm_watt_round_trip(self):
        assert_allclose(dbm_to_watt(0.0), 1e-3, rtol=1e-15)
        assert_allclose(watt_to_dbm(1e-3), 0.0, atol=1e-12)
        vals = np.linspace(-40.0, 20.0, 61)
        assert_allclose(watt_to_dbm(dbm_to_watt(vals)), vals, atol=1e-12)

    def test_db_linear(self):
        assert_allclose(db_to_linear(30.0), 1000.0, rtol=1e-12)
        assert_allclose(linear_to_db(1000.0), 30.0, atol=1e-12)
