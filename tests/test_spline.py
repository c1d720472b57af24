import numpy as np
import pytest

from f0priv.spline import _System, evaluate, fit
from oracles import spline_fit_reference


def noisy_sine(n=50, seed=0, sigma=1.0):
    rng = np.random.default_rng(seed)
    x = np.arange(n) * 0.01
    y = 120.0 + 10.0 * np.sin(2.0 * np.pi * 2.0 * x) + sigma * rng.standard_normal(n)
    return x, y


class TestLimits:
    def test_interpolation_on_line(self):
        x = np.linspace(0.0, 1.0, 10)
        model = fit(x, x, s=0.0)
        assert np.allclose(evaluate(model, x), x, atol=1e-9)
        assert model.achieved_residual == 0.0
        assert model.penalty == 0.0

    def test_interpolation_random(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0, 2, 20))
        y = rng.uniform(80, 300, 20)
        model = fit(x, y, s=0.0)
        assert np.max(np.abs(evaluate(model, x) - y)) < 1e-9

    def test_huge_target_gives_least_squares_line(self):
        x, y = noisy_sine()
        model = fit(x, y, s=1e12)
        slope, intercept = np.polyfit(x, y, 1)
        line = intercept + slope * x
        assert np.max(np.abs(evaluate(model, x) - line)) < 1e-6
        assert model.penalty == np.inf
        assert model.achieved_residual == pytest.approx(np.sum((y - line) ** 2), rel=1e-9)

    def test_active_constraint_hits_target(self):
        x, y = noisy_sine(n=50, sigma=1.0)
        model = fit(x, y, s=50.0)
        direct = float(np.sum((y - evaluate(model, x)) ** 2))
        assert direct <= 50.0 * (1.0 + 1e-9)
        assert abs(direct - 50.0) / 50.0 < 0.01
        assert model.achieved_residual == pytest.approx(direct, rel=1e-9)


class TestProperties:
    def test_residual_monotone_in_target(self):
        x, y = noisy_sine(n=60, seed=3, sigma=2.0)
        targets = np.linspace(1.0, 400.0, 10)
        residuals = [fit(x, y, s=s).achieved_residual for s in targets]
        for a, b in zip(residuals, residuals[1:]):
            assert b >= a - 1e-9 * (1.0 + a)

    def test_scale_equivariance(self):
        x, y = noisy_sine(n=40, seed=7)
        c = 37.5
        base = fit(x, y, s=25.0)
        scaled = fit(x, c * y, s=c**2 * 25.0)
        grid = np.linspace(x[0] - 0.1, x[-1] + 0.1, 137)
        ref = evaluate(base, grid)
        assert np.max(np.abs(evaluate(scaled, grid) - c * ref)) < 1e-8 * np.max(np.abs(c * ref))

    def test_search_terminates_within_budget(self):
        for seed in range(8):
            x, y = noisy_sine(n=50, seed=seed, sigma=1.5)
            for s in (0.5, 5.0, 50.0, 200.0):
                model = fit(x, y, s=s)
                assert model.iterations <= 60

    def test_c2_continuity_and_natural_ends(self):
        x, y = noisy_sine(n=30, seed=9)
        model = fit(x, y, s=10.0)
        coeffs = model.coefficients
        h = np.diff(model.knots)
        second_left = 2.0 * coeffs[:-1, 2] + 6.0 * coeffs[:-1, 3] * h[:-1]
        second_right = 2.0 * coeffs[1:, 2]
        scale = np.max(np.abs(second_right)) + 1e-12
        assert np.max(np.abs(second_left - second_right)) <= 1e-6 * scale
        assert abs(2.0 * coeffs[0, 2]) <= 1e-8
        end_second = 2.0 * coeffs[-1, 2] + 6.0 * coeffs[-1, 3] * h[-1]
        assert abs(end_second) <= 1e-8

    def test_default_target_is_sample_count(self):
        x, y = noisy_sine(n=50, sigma=3.0)
        default = fit(x, y)
        explicit = fit(x, y, s=50.0)
        assert default.achieved_residual == pytest.approx(explicit.achieved_residual, rel=1e-9)


class TestEvaluate:
    def test_knot_values_match_fit(self):
        x, y = noisy_sine(n=25, seed=2)
        model = fit(x, y, s=5.0)
        at_knots = evaluate(model, model.knots)
        assert np.allclose(at_knots[:-1], model.coefficients[:, 0], atol=1e-12)

    def test_constant_data(self):
        x = np.linspace(0, 1, 10)
        model = fit(x, np.full(10, 150.0))
        probe = np.array([-0.5, 0.1, 0.77, 2.0])
        assert np.allclose(evaluate(model, probe), 150.0, atol=1e-9)

    def test_interpolant_midpoint_between_neighbors(self):
        x = np.linspace(0, 1, 12)
        y = x**2
        model = fit(x, y, s=0.0)
        mid = 0.5 * (x[4] + x[5])
        value = evaluate(model, mid)
        assert y[4] <= value <= y[5]

    def test_linear_extrapolation(self):
        x, y = noisy_sine(n=20, seed=4)
        model = fit(x, y, s=3.0)
        left = evaluate(model, np.array([x[0] - 0.3, x[0] - 0.2, x[0] - 0.1]))
        assert np.abs(np.diff(left, 2)).max() < 1e-9  # straight line
        right = evaluate(model, np.array([x[-1] + 0.1, x[-1] + 0.2, x[-1] + 0.3]))
        assert np.abs(np.diff(right, 2)).max() < 1e-9
        # Slope continues the end-point derivative.
        eps = 1e-7
        inner = (evaluate(model, x[-1]) - evaluate(model, x[-1] - eps)) / eps
        outer = (evaluate(model, x[-1] + eps) - evaluate(model, x[-1])) / eps
        assert inner == pytest.approx(outer, rel=1e-4)

    def test_scalar_input(self):
        x = np.linspace(0, 1, 8)
        model = fit(x, 2 * x + 1, s=0.0)
        value = evaluate(model, 0.25)
        assert np.isscalar(value) or value.ndim == 0
        assert float(value) == pytest.approx(1.5, abs=1e-9)


class TestErrors:
    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 4"):
            fit([0, 1, 2], [1, 2, 3])

    def test_duplicate_abscissae(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            fit([0, 1, 1, 2], [1, 2, 3, 4])

    def test_negative_target(self):
        with pytest.raises(ValueError, match=">= 0"):
            fit([0, 1, 2, 3], [1, 2, 3, 4], s=-1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fit([0, 1, 2, 3], [1, 2, 3])


def uneven(n, seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.002, 0.03, n))
    y = 150.0 + 30.0 * np.sin(2.0 * np.pi * 1.5 * x) + 4.0 * rng.standard_normal(n)
    return x, y


def assert_matches_reference(x, y, s):
    model = fit(x, y, s=s)
    coefficients, penalty, residual, iterations = spline_fit_reference(x, y, s)
    assert np.array_equal(model.coefficients, coefficients)
    assert model.penalty == penalty
    assert model.achieved_residual == residual
    assert model.iterations == iterations
    return model


class TestReferenceBitIdentity:
    @pytest.mark.parametrize("n", [4, 5, 50, 500, 3000])
    def test_both_bracket_directions(self, n):
        x, y = uneven(n, seed=n)
        r1 = _System(x, y).solve(1.0)[2]
        line_residual = float(np.sum((y - np.polyval(np.polyfit(x, y, 1), x)) ** 2))
        # The residual grows with the penalty: a target below r(1) searches
        # penalties under 1, one between r(1) and the line's above 1.
        below = assert_matches_reference(x, y, 0.5 * r1)
        assert below.penalty < 1.0 and below.iterations > 0
        above = assert_matches_reference(x, y, 0.5 * (r1 + line_residual))
        assert above.penalty > 1.0 and above.iterations > 0

    @pytest.mark.parametrize("n", [4, 5, 50, 500, 3000])
    def test_default_target_interpolation_and_line(self, n):
        x, y = uneven(n, seed=100 + n)
        assert_matches_reference(x, y, None)
        assert assert_matches_reference(x, y, 0.0).penalty == 0.0
        assert assert_matches_reference(x, y, 1e12).penalty == np.inf

    def test_non_finite_bands_still_raise(self):
        # Knots 1e-200 apart make Q^T Q overflow to inf; the banded solve
        # must refuse it as scipy's validating wrapper did.
        x = [0.0, 1e-200, 2e-200, 3e-200, 1.0, 2.0]
        y = [100.0, 300.0, 100.0, 300.0, 100.0, 300.0]
        for solver in (fit, spline_fit_reference):
            with np.errstate(over="ignore"), pytest.raises(
                ValueError, match="must not contain infs or NaNs"
            ):
                solver(x, y, 1.0)
