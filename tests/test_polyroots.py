import numpy as np
import pytest
from numpy.testing import assert_allclose

from dirtytx import (
    ChannelSpec,
    minmax_backoff,
    nmse,
    optimal_precoder,
    polyroots,
    precoding,
    siso_optimal_power,
)
from dirtytx.errors import DegeneratePolynomialError, RootStructureError
from dirtytx.polyroots import (
    best_candidate,
    real_roots,
    stacked_positive_roots,
    stacked_real_roots,
    unique_positive_root,
)
from oracles import (
    exact_positive_root,
    random_channels,
    random_hardware,
    random_signal,
)


def bisect_positive_root(coeffs, hi=1e3, iters=200):
    """Sign-change bisection on (0, hi); assumes p(0) < 0 < p(hi)."""
    lo = 0.0
    assert np.polyval(coeffs, lo) < 0 < np.polyval(coeffs, hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.polyval(coeffs, mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestRealRoots:
    def test_unit_cubic(self):
        report = real_roots([1.0, 0.0, 0.0, -1.0])
        assert_allclose(report.roots, [1.0], rtol=1e-12)

    def test_no_real_roots(self):
        report = real_roots([1.0, 0.0, 1.0])
        assert report.roots.size == 0

    def test_even_sextic_single_positive_root(self):
        # 2x^6 - 6*rho*sigma2*x^2 - sigma2 with rho=-0.5, sigma2=2
        coeffs = [2.0, 0, 0, 0, 6.0, 0, -2.0]
        report = real_roots(coeffs)
        pos = report.positive_roots
        assert pos.size == 1
        assert_allclose(pos[0], bisect_positive_root(coeffs), rtol=1e-10)

    def test_known_random_cubics_fully_recovered(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            r = np.sort(rng.uniform(-5.0, 5.0, size=3))
            if np.min(np.diff(r)) < 1e-3:
                continue
            coeffs = np.poly(r)
            report = real_roots(coeffs)
            assert_allclose(report.roots, r, rtol=1e-7, atol=1e-9)

    def test_residual_bound_on_reported_roots(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            deg = rng.integers(1, 7)
            coeffs = rng.standard_normal(deg + 1)
            try:
                report = real_roots(coeffs)
            except DegeneratePolynomialError:
                continue
            scale = np.max(np.abs(report.coefficients))
            d = report.coefficients.size - 1
            bound = 1e-8 * scale * np.maximum(1.0, np.abs(report.roots)) ** d
            assert np.all(report.residuals <= bound)

    def test_double_root_reported_not_merged(self):
        # (x - 1)^2 (x + 2): the near-multiple pair shows up as two
        # nearby entries, both within the residual bound.
        report = real_roots([1.0, 0.0, -3.0, 2.0])
        assert np.any(np.abs(report.roots + 2.0) < 1e-9)
        near_one = report.roots[np.abs(report.roots - 1.0) < 1e-6]
        assert near_one.size >= 1

    def test_leading_zero_is_trimmed(self):
        report = real_roots([0.0, 1.0, -3.0])
        assert_allclose(report.roots, [3.0], rtol=1e-12)

    def test_tiny_root_polished_to_its_own_scale(self):
        # 1e10 x^2 + 1e-10 x - 1e-100 has the roots about -1e-20 and
        # 1e-90; a step test absolute below 1 stopped the polish at 1.67e-52.
        coeffs = [1e10, 1e-10, -1e-100]
        exact = exact_positive_root(coeffs)
        pos = real_roots(coeffs).positive_roots
        assert pos.size == 1 and abs(pos[0] - exact) <= 1e-15 * exact

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(DegeneratePolynomialError):
            real_roots([0.0, 0.0, 0.0])
        with pytest.raises(DegeneratePolynomialError):
            real_roots([5.0])

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_coefficient_is_a_typed_error(self, bad):
        for coeffs in ([1.0, bad, -2.0], [bad, 0.0, 1.0], [1.0, 0.0, bad]):
            with pytest.raises(DegeneratePolynomialError, match="finite"):
                real_roots(coeffs)
            with pytest.raises(DegeneratePolynomialError, match="finite"):
                stacked_real_roots(np.tile(coeffs, (6, 1)))


def row_by_row_roots(stack):
    """Rows of real_roots(...).roots, NaN-padded to the stack's degree."""
    out = np.full((len(stack), len(stack[0]) - 1), np.nan)
    for i, row in enumerate(stack):
        roots = real_roots(row).roots
        out[i, :roots.size] = roots
    return out


def assert_same_roots(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want)), "kept sets differ"
    assert_allclose(got, want, rtol=1e-12, atol=0.0)


class TestStackedRealRoots:
    def test_random_stacks_match_row_by_row(self):
        rng = np.random.default_rng(307)
        for degree in (1, 2, 3, 4, 6):
            stack = rng.standard_normal((60, degree + 1)) * 10.0 ** rng.uniform(-3, 3, (60, 1))
            assert_same_roots(stacked_real_roots(stack), row_by_row_roots(stack))

    def test_root_structures_match_row_by_row(self):
        rng = np.random.default_rng(311)
        rows = []
        for _ in range(40):
            r = rng.uniform(-4.0, 4.0, 4)
            pair = rng.uniform(-2.0, 2.0) + 1j * rng.uniform(0.1, 2.0)
            rows += [
                np.poly([r[0], r[1], pair, np.conj(pair)]).real,      # a complex pair
                np.poly([r[0], r[0] * (1.0 + 1e-9), r[1], r[2]]),      # a near-double root
                np.poly([r[0], r[0], r[1], r[2]]),                     # an exact double root
                np.poly(-np.abs(r) - 0.1),                             # no positive root
                np.poly([pair, np.conj(pair), 2 * pair, 2 * np.conj(pair)]).real,  # none real
            ]
        stack = np.array(rows)
        want = row_by_row_roots(stack)
        assert_same_roots(stacked_real_roots(stack), want)
        assert np.isnan(want).all(axis=1).any() and (~np.isnan(want)).all(axis=1).any()

    def test_mrt_quartics_match_row_by_row(self):
        # The sign pattern of conventional_mrt's stationarity quartic.
        rng = np.random.default_rng(313)
        k1, k0, wre = (10.0 ** rng.uniform(-3, 3, 200) for _ in range(3))
        sigma2 = 10.0 ** rng.uniform(-2, 2, 200)
        stack = np.stack([2 * k1 * -wre, 2 * k1 * k0, -3 * k1 * sigma2, 4 * wre * sigma2,
                          -k0 * sigma2], axis=1)
        assert_same_roots(stacked_real_roots(stack), row_by_row_roots(stack))

    def test_rows_outside_the_stacked_pass_match_row_by_row(self):
        # Two copies, so that the stack is above the row-by-row size.
        stack = np.tile([
            [1e-20, 1.0, -3.0, 2.0, 0.5],   # leading coefficient trimmed away
            [1.0, -3.0, 2.0, 0.0, 0.0],      # zero constant: np.roots deflates it
            [0.0, 0.0, 1.0, 0.0, -4.0],      # exact leading zeros
            [1.0, 0.0, -5.0, 0.0, 4.0],      # stacked
        ], (2, 1))
        assert_same_roots(stacked_real_roots(stack), row_by_row_roots(stack))

    def test_errors_match_real_roots(self):
        with pytest.raises(DegeneratePolynomialError):
            stacked_real_roots([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
        with pytest.raises(DegeneratePolynomialError):
            stacked_real_roots([[5.0], [2.0]])
        with pytest.raises(ValueError, match="2-D"):
            stacked_real_roots([1.0, 0.0, -1.0])
        assert stacked_real_roots(np.zeros((0, 5))).shape == (0, 4)


class TestStackedPositiveRoots:
    def test_amplitude_cubics_match_row_by_row(self):
        # Bit for bit: the precoder's cubics, then the family a x^3 + c x + d
        # over many decades, either sign of a zero b, and edge rows; an
        # underflowed d / a goes row by row.
        rng = np.random.default_rng(317)
        g2 = 10.0 ** rng.uniform(-6, 4, 500)
        rho = -(10.0 ** rng.uniform(-3, 0, 500))
        sigma2 = 10.0 ** rng.uniform(-6, 1, 500)
        n = 20000
        a, c, d = 10.0 ** rng.uniform(-150, 150, (3, n))
        c[rng.random(n) < 0.1] = 0.0
        stack = np.vstack([
            np.stack([2.0 * g2, 0.0 * g2, -6.0 * rho * sigma2, -sigma2], axis=1),
            np.stack([a, rng.choice([0.0, -0.0], n), c, -d], axis=1),
            [[1e308, -0.0, 1e300, -1e-30], [1e300, 0.0, -0.0, -1.0], [1e-300, 0.0, 1e-320, -1e-300]],
        ])
        with np.errstate(all="ignore"):
            stack = stack[np.isfinite(np.abs(stack).sum(axis=1) / stack[:, 0])]
        want = [unique_positive_root(row) for row in stack]
        assert np.array_equal(stacked_positive_roots(stack), want)

    def test_only_the_amplitude_family_is_stacked(self, monkeypatch):
        rng = np.random.default_rng(359)
        g2 = 10.0 ** rng.uniform(-6, 4, 6)
        rho = -(10.0 ** rng.uniform(-3, 0, 6))
        sigma2 = 10.0 ** rng.uniform(-6, 1, 6)
        family = np.stack([2.0 * g2, 0.0 * g2, -6.0 * rho * sigma2, -sigma2], axis=1)
        others = np.array([
            [-2.0, 0.0, -0.15, 0.3],        # negative leading coefficient
            [1.0, 0.0, -3.0, -1.0],         # trigonometric start: three real roots
            np.poly([1.5, -1.0, -2.0]),     # trigonometric start with a shift
        ])
        stack = np.vstack([family[:3], others, family[3:]])
        want = [unique_positive_root(row) for row in stack]
        seen = spy(monkeypatch, "unique_positive_root")
        got = stacked_positive_roots(stack)
        assert np.array_equal(np.array(seen), others)
        assert np.array_equal(got, want)

    def test_precoder_cubics_never_leave_the_stacked_path(self, monkeypatch):
        rng = np.random.default_rng(367)
        hw = random_hardware(rng)
        channels = random_channels(rng, 12)
        seen = spy(monkeypatch, "unique_positive_root")
        precoding.design_se(channels, 1.0, hw)
        assert not seen

    def test_one_sign_change_cubics_match_row_by_row(self):
        # Any one-sign-change cubic, either sign of the leading
        # coefficient, on both closed-form branches (Cardano and trigonometric).
        rng = np.random.default_rng(331)
        roots = 10.0 ** rng.uniform(-3, 3, 300)
        other = rng.uniform(-3, 3, (300, 2))
        stack = np.array([np.poly([r, -abs(a) - 0.01, -abs(b) - 0.02]) for r, (a, b) in
                          zip(roots, other)]) * rng.choice([-1.0, 1.0], (300, 1))
        want = [unique_positive_root(row) for row in stack]
        assert_allclose(stacked_positive_roots(stack), want, rtol=1e-12, atol=0.0)

    def test_rows_outside_the_closed_form_match_row_by_row(self):
        # Two copies, so that the stack is above the row-by-row size.
        stack = np.tile([
            [0.0, 0.0, 0.15, -0.3],         # zero cubic weight: a linear balance
            [2e-320, 0.0, 0.036, -0.3],     # the span overflows the closed-form test
            [1.0, -2.0, 2.0, -1.0],         # three sign changes
            [2.0, 0.0, 0.15, -0.3],         # closed form
        ], (2, 1))
        want = [unique_positive_root(row) for row in stack]
        assert_allclose(stacked_positive_roots(stack), want, rtol=1e-12, atol=0.0)

    def test_errors_match_unique_positive_root(self):
        with pytest.raises(RootStructureError):
            stacked_positive_roots([[2.0, 0.0, 0.15, -0.3], [1.0, 0.0, 0.0, 1.0]])
        with pytest.raises(ValueError, match="2-D"):
            stacked_positive_roots([2.0, 0.0, 0.15, -0.3])


def spy(monkeypatch, name):
    """Record the argument of every call to ``polyroots.<name>``."""
    seen, fn = [], getattr(polyroots, name)

    def wrapper(coeffs):
        seen.append(coeffs)
        return fn(coeffs)

    monkeypatch.setattr(polyroots, name, wrapper)
    return seen


class TestRowByRowRule:
    """Stacks of one channel's polynomials (up to four rows) are solved
    row by row; larger stacks take the stacked pass.  Both give the
    row-by-row results."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9])
    def test_quartic_stacks(self, n, monkeypatch):
        rng = np.random.default_rng(337 + n)
        k1, k0, wre = (10.0 ** rng.uniform(-3, 3, n) for _ in range(3))
        sigma2 = 10.0 ** rng.uniform(-2, 2, n)
        stack = np.stack([2 * k1 * -wre, 2 * k1 * k0, -3 * k1 * sigma2, 4 * wre * sigma2,
                          -k0 * sigma2], axis=1)
        want = row_by_row_roots(stack)
        seen = spy(monkeypatch, "real_roots")
        got = stacked_real_roots(stack)
        if n <= 4:
            assert len(seen) == n
            assert np.array_equal(got, want, equal_nan=True)
        else:
            assert not seen
            assert_same_roots(got, want)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9])
    def test_cubic_stacks(self, n, monkeypatch):
        rng = np.random.default_rng(347 + n)
        g2 = 10.0 ** rng.uniform(-6, 4, n)
        rho = -(10.0 ** rng.uniform(-3, 0, n))
        sigma2 = 10.0 ** rng.uniform(-6, 1, n)
        stack = np.stack([2.0 * g2, 0.0 * g2, -6.0 * rho * sigma2, -sigma2], axis=1)
        want = [unique_positive_root(row) for row in stack]
        seen = spy(monkeypatch, "unique_positive_root")
        got = stacked_positive_roots(stack)
        assert np.array_equal(got, want)
        assert len(seen) == (n if n <= 4 else 0)


class TestUniquePositiveRoot:
    def test_matches_siso_closed_form(self):
        # 12 rho^2 gamma^6 x^3 - sigma_w2 against the dedicated formula.
        rho, gamma6, sw2 = -0.025, 1e9, 0.1
        root = unique_positive_root([12.0 * rho ** 2 * gamma6, 0.0, 0.0, -sw2])
        assert_allclose(root, (sw2 / (12.0 * rho ** 2 * gamma6)) ** (1.0 / 3.0), rtol=1e-12)
        assert_allclose(root, siso_optimal_power(np.sqrt(1000.0), rho, sw2), rtol=1e-12)

    def test_cube_root(self):
        assert_allclose(unique_positive_root([1.0, 0.0, 0.0, -8.0]), 2.0, rtol=1e-12)

    def test_amplitude_cubic_against_grid(self):
        # 2 s^3 - 6*rho*sigma2*s - sigma2 at |gain|=1, rho=-0.5, sigma2=2.
        coeffs = [2.0, 0.0, 6.0, -2.0]
        root = unique_positive_root(coeffs)
        grid = np.linspace(1e-6, 5.0, 10 ** 6)
        vals = np.abs(np.polyval(coeffs, grid))
        assert abs(root - grid[np.argmin(vals)]) < 2.0 * (grid[1] - grid[0])

    def test_negative_leading_coefficient_is_flipped(self):
        # -2 x^3 + x^2 + 3 x + 5 has its one positive root near 1.9388.
        coeffs = [-2.0, 1.0, 3.0, 5.0]
        assert unique_positive_root(coeffs) == exact_positive_root(coeffs)

    def test_no_positive_root_raises(self):
        with pytest.raises(RootStructureError):
            unique_positive_root([1.0, 0.0, 0.0, 8.0])

    def test_two_positive_roots_raise(self):
        # (x - 1)(x - 3)(x + 5)
        coeffs = np.poly([1.0, 3.0, -5.0])
        with pytest.raises(RootStructureError):
            unique_positive_root(coeffs)

    def test_degenerate_leading_coefficient_falls_back(self):
        # When the cubic coefficient cancels, the trimmed polynomial
        # -6 rho sigma2 s - sigma2 keeps a positive root 1/(-6 rho).
        rho, sigma2 = -0.5, 2.0
        root = unique_positive_root([0.0, 0.0, -6.0 * rho * sigma2, -sigma2])
        assert_allclose(root, 1.0 / (-6.0 * rho), rtol=1e-12)


class TestStructuralFamilies:
    def test_backoff_cubics_have_one_positive_root(self):
        # Stationarity cubics of the power back-off: positive leading
        # coefficient, arbitrary-sign quadratic term, negative constant.
        rng = np.random.default_rng(101)
        for _ in range(10 ** 4):
            c3 = 6.0 * rng.uniform(1e-4, 1.0) ** 2 * rng.uniform(1e-2, 1e4) ** 3
            c2 = rng.standard_normal() * c3 * rng.uniform(0, 10.0)
            sw2 = rng.uniform(1e-6, 10.0)
            root = unique_positive_root([2.0 * c3, c2, 0.0, -sw2])
            assert root > 0

    def test_amplitude_cubics_have_one_positive_root(self):
        # Amplitude-optimality cubics: 2 g^2 s^3 - 6 rho sigma2 s - sigma2
        # with rho < 0 has sign pattern (+, +, -).
        rng = np.random.default_rng(103)
        for _ in range(10 ** 4):
            g2 = rng.uniform(1e-4, 1e4)
            rho = -rng.uniform(1e-3, 1.0)
            sigma2 = rng.uniform(1e-6, 1e2)
            root = unique_positive_root([2.0 * g2, 0.0, -6.0 * rho * sigma2, -sigma2])
            assert root > 0

    def test_even_sextic_agrees_with_cubic_substitution(self):
        rng = np.random.default_rng(107)
        for _ in range(100):
            g2 = rng.uniform(1e-2, 1e2)
            rho = -rng.uniform(1e-2, 1.0)
            sigma2 = rng.uniform(1e-3, 1e2)
            s = unique_positive_root([2.0 * g2, 0.0, -6.0 * rho * sigma2, -sigma2])
            direct = unique_positive_root(
                [2.0 * g2, 0, 0, 0, -6.0 * rho * sigma2, 0, -sigma2]
            )
            assert_allclose(np.sqrt(s), direct, rtol=1e-9)


class TestBestCandidate:
    def test_powers_one_ulp_apart_count_as_equal(self):
        # The later candidate's power is one ulp lower; the earlier one wins.
        assert best_candidate([1.0, 1.0], [1.0, np.nextafter(1.0, 0.0)]) == (0, False)

    def test_equal_values_go_to_the_smaller_power(self):
        assert best_candidate([2.0, 2.0, 3.0], [0.5, 0.25, 0.1]) == (1, True)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_values_tie_within_relative_tolerance(self, sign):
        # The later candidate has the smaller value but the larger power.
        powers = [1.0, 2.0]
        assert best_candidate([sign, sign * (1.0 - sign * 5e-13)], powers) == (0, True)
        assert best_candidate([sign, sign * (1.0 - sign * 1e-11)], powers) == (1, False)

    def test_inf_never_wins(self):
        assert best_candidate([np.inf, 1.0, np.inf], [0.0, 1.0, 0.5]) == (1, False)
        with pytest.raises(ValueError, match="finite"):
            best_candidate([np.inf, np.inf], [0.0, 1.0])


def log_uniform(rng, lo, hi):
    return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi))


class TestClosedFormCubic:
    def test_exact_oracle_on_known_roots(self):
        assert exact_positive_root([1.0, 0.0, 0.0, -8.0]) == 2.0
        assert exact_positive_root([-4.0, 0.0, 0.0, 0.5]) == 0.5
        # (x - 3)(x^2 + x + 1): one sign change, root 3.
        assert exact_positive_root([1.0, -2.0, -2.0, -3.0]) == 3.0

    def test_stationarity_cubics_match_exact_root(self):
        # 2 c3 p^3 + c2 p^2 - sigma_w2 over ranges far wider than the
        # library's, including c2 >> c3 where the closed form cancels.
        rng = np.random.default_rng(211)
        for _ in range(600):
            c3 = log_uniform(rng, 1e-12, 1e12)
            c2 = rng.choice([-1.0, 1.0]) * c3 * log_uniform(rng, 1e-8, 1e8)
            sw2 = log_uniform(rng, 1e-12, 1e4)
            coeffs = [2.0 * c3, c2, 0.0, -sw2]
            exact = exact_positive_root(coeffs)
            assert abs(unique_positive_root(coeffs) - exact) <= 1e-15 * exact, coeffs

    @pytest.mark.parametrize("coeffs", [
        # The constant dwarfs the leading coefficient, so a magnitude trim
        # would leave no degree; only exact leading zeros may go.
        [1.416e-11, -2.88e-17, 0.0, -9.57e3],
        # Leading coefficients hundreds of decades down: the polish
        # starts near the Cauchy bound and must still reach the root.
        [2e-80, 0.0, 0.036, -0.3],
        [2e-300, 0.0, 0.036, -0.3],
        [1e-200, 1.0, 0.0, -1.0],
        [1e-200, -1.0, 0.0, -1.0],
        # Too wide a span for the closed form; the companion root 1e-90
        # sits far below 1, where the polish needs a relative step test.
        [1e-300, 1e10, 1e-10, -1e-100],
    ])
    def test_tiny_leading_coefficient_keeps_its_degree(self, coeffs):
        exact = exact_positive_root(coeffs)
        assert abs(unique_positive_root(coeffs) - exact) <= 1e-15 * exact

    def test_amplitude_cubics_match_exact_root(self):
        # 2 g^2 s^3 + 6 |rho| sigma2 s - sigma2.
        rng = np.random.default_rng(223)
        for _ in range(600):
            g2 = log_uniform(rng, 1e-6, 1e4)
            rho = -log_uniform(rng, 1e-3, 1.0)
            sigma2 = log_uniform(rng, 1e-6, 10.0)
            coeffs = [2.0 * g2, 0.0, -6.0 * rho * sigma2, -sigma2]
            exact = exact_positive_root(coeffs)
            assert abs(unique_positive_root(coeffs) - exact) <= 1e-15 * exact, coeffs

    def test_zero_gain_degrades_to_linear_balance(self):
        rho, sigma2 = -0.02, 0.3
        balance = 1.0 / (-6.0 * rho)

        def amplitude_cubic_root(g2):
            return unique_positive_root([2.0 * g2, 0.0, -6.0 * rho * sigma2, -sigma2])

        assert_allclose(amplitude_cubic_root(0.0), balance, rtol=1e-15)
        # A small but untrimmed gain stays on the closed form and next
        # to the balance: s = balance - 2 g^2 s^3 / (6 |rho| sigma2).
        g2 = 1e-12
        s = amplitude_cubic_root(g2)
        assert s < balance
        assert_allclose(s, balance - 2.0 * g2 * balance ** 3 / (-6.0 * rho * sigma2), rtol=1e-12)

    def test_three_sign_changes_take_the_companion_path(self, monkeypatch):
        # (x - 1)(x^2 - x + 1): three sign changes, one positive root.
        seen = []

        def spy(coeffs):
            seen.append(coeffs)
            return real_roots(coeffs)

        monkeypatch.setattr(polyroots, "real_roots", spy)
        assert_allclose(unique_positive_root([1.0, -2.0, 2.0, -1.0]), 1.0, rtol=1e-12)
        assert len(seen) == 1


def refuse_companion(coeffs):
    raise AssertionError("companion path reached for %s" % (coeffs,))


class TestFastPathGuard:
    """The library's cubics never reach the companion eigensolve."""

    def test_optimal_precoder(self, monkeypatch):
        monkeypatch.setattr(polyroots, "real_roots", refuse_companion)
        monkeypatch.setattr(precoding, "real_roots", refuse_companion)
        rng = np.random.default_rng(227)
        for h in random_channels(rng, 40):
            best = optimal_precoder(ChannelSpec(h=h, sigma_n2=1.0), random_hardware(rng))
            assert np.isfinite(best.se)

    def test_minmax_backoff_short_cut(self, monkeypatch):
        rng = np.random.default_rng(229)
        draws = [(random_hardware(rng), random_signal(rng)) for _ in range(60)]
        expected = [minmax_backoff(hw, sig) for hw, sig in draws]
        short_cut = [k for k, sol in enumerate(expected) if "balanced" not in sol.candidates]
        assert len(short_cut) >= 10
        monkeypatch.setattr(polyroots, "real_roots", refuse_companion)
        monkeypatch.setattr(nmse, "real_roots", refuse_companion)
        for k in short_cut:
            assert minmax_backoff(*draws[k]) == expected[k]
