import contextlib

import numpy as np
import pytest

from f0priv import spline
from f0priv.spline import _pbsv, _System, _search_start, fit
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
        assert np.allclose(model.fitted, x, atol=1e-9)
        assert model.achieved_residual == 0.0
        assert model.penalty == 0.0

    def test_interpolation_random(self):
        rng = np.random.default_rng(1)
        x = np.sort(rng.uniform(0, 2, 20))
        y = rng.uniform(80, 300, 20)
        model = fit(x, y, s=0.0)
        assert np.max(np.abs(model.fitted - y)) < 1e-9

    def test_huge_target_gives_least_squares_line(self):
        x, y = noisy_sine()
        model = fit(x, y, s=1e12)
        slope, intercept = np.polyfit(x, y, 1)
        line = intercept + slope * x
        assert np.max(np.abs(model.fitted - line)) < 1e-6
        assert model.penalty == np.inf
        assert model.achieved_residual == pytest.approx(np.sum((y - line) ** 2), rel=1e-9)

    def test_active_constraint_hits_target(self):
        x, y = noisy_sine(n=50, sigma=1.0)
        model = fit(x, y, s=50.0)
        direct = float(np.sum((y - model.fitted) ** 2))
        assert direct <= 50.0 * (1.0 + 1e-9)
        assert abs(direct - 50.0) / 50.0 < 0.01
        assert model.achieved_residual == pytest.approx(direct, rel=1e-9)

    def test_constant_data(self):
        model = fit(np.linspace(0, 1, 10), np.full(10, 150.0))
        assert np.allclose(model.fitted, 150.0, atol=1e-9)


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
        ref = base.fitted
        assert np.max(np.abs(scaled.fitted - c * ref)) < 1e-8 * np.max(np.abs(c * ref))

    def test_search_terminates_within_budget(self):
        for seed in range(8):
            x, y = noisy_sine(n=50, seed=seed, sigma=1.5)
            for s in (0.5, 5.0, 50.0, 200.0):
                model = fit(x, y, s=s)
                assert model.iterations <= 60

    def test_default_target_is_sample_count(self):
        x, y = noisy_sine(n=50, sigma=3.0)
        default = fit(x, y)
        explicit = fit(x, y, s=50.0)
        assert default.achieved_residual == pytest.approx(explicit.achieved_residual, rel=1e-9)


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

    # A NaN abscissa passes the increasing-order check: NaN compares false.
    @pytest.mark.parametrize("x, y", [
        ([0, 1, 2, 3], [1, np.nan, 3, 4]),
        ([0, 1, 2, 3], [1, 2, np.inf, 4]),
        ([0, 1, 2, np.nan], [1, 2, 3, 4]),
    ], ids=["nan-y", "inf-y", "nan-x"])
    def test_non_finite_input(self, x, y):
        with pytest.raises(ValueError, match="^non-finite input$"):
            fit(x, y)

    def test_nan_residual_stops_the_root_search(self, monkeypatch):
        # As scipy.optimize.brentq does, a NaN residual raises rather than
        # steering the search. Residuals are NaN well above the search start
        # and the target lies above r(start), so the bracket's upper end is NaN.
        x, y = noisy_sine()
        system = _System(x, y)
        start = _search_start(system)
        r_start = system.solve(start)[1]
        s = 0.5 * (r_start + float(np.sum((y - np.polyval(np.polyfit(x, y, 1), x)) ** 2)))
        solve = _System.solve
        monkeypatch.setattr(_System, "solve", lambda self, penalty: (
            solve(self, penalty) if penalty <= 2.0 * start else (np.full(len(y), np.nan), np.nan)))
        x_nan = float(np.log(16.0 * start))
        message = f"The function value at x={x_nan} is NaN; solver cannot continue."
        with pytest.raises(ValueError) as raised:
            fit(x, y, s=s)
        assert str(raised.value) == message

    # The errors scipy.linalg.solveh_banded raises for LAPACK's ``info``.
    @pytest.mark.parametrize("info, error, message", [
        (2, np.linalg.LinAlgError, "2th leading minor not positive definite"),
        (-3, ValueError, "illegal value in 3th argument of internal pbsv"),
    ], ids=["not-positive-definite", "illegal-argument"])
    def test_lapack_failure_is_raised(self, monkeypatch, info, error, message):
        monkeypatch.setattr(spline, "_pbsv", lambda: lambda ab, b, **_: (ab, b, info))
        x, y = uneven(50, seed=1)
        with pytest.raises(ValueError) as raised:
            fit(x, y)
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_unbracketable_target_is_a_value_error(self):
        # Values near 1e300 Hz: no penalty in range brings the residual to the target.
        x = np.arange(8) * 0.01
        with np.errstate(over="ignore"), pytest.raises(
            ValueError, match="penalty bracketing failed to reach the target"
        ):
            fit(x, np.geomspace(1e299, 5e300, 8))


def uneven(n, seed):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.002, 0.03, n))
    y = 150.0 + 30.0 * np.sin(2.0 * np.pi * 1.5 * x) + 4.0 * rng.standard_normal(n)
    return x, y


class TestAgainstScipy:
    # scipy's make_smoothing_spline minimises the same penalised objective;
    # given the penalty fit() found, its values at the knots must agree.
    @pytest.mark.parametrize("n", [5, 50, 500, 3000])
    @pytest.mark.parametrize("factor", [0.3, 1.0, 3.0])
    def test_fitted_values_match_make_smoothing_spline(self, n, factor):
        from scipy.interpolate import make_smoothing_spline

        x, y = uneven(n, seed=200 + n)
        model = fit(x, y, s=factor * n)
        assert 0.0 < model.penalty < np.inf
        expected = make_smoothing_spline(x, y, lam=model.penalty)(x)
        assert np.max(np.abs(model.fitted - expected)) <= 1e-9 * np.max(np.abs(y))


@contextlib.contextmanager
def counting_solves():
    """A list that gains an entry for each LAPACK solve made in the block."""
    pbsv, solves = _pbsv(), []

    def counting(*args, **kwargs):
        solves.append(None)
        return pbsv(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spline, "_pbsv", lambda: counting)
        yield solves


def fit_counting_solves(x, y, s):
    """``fit(x, y, s)`` and the number of LAPACK solves it made."""
    with counting_solves() as solves:
        return fit(x, y, s=s), len(solves)


def assert_matches_reference(x, y, s):
    # Bracketing from any power of 16 meets the same pair of consecutive
    # powers, so the fit must equal the search started at 1 bit for bit; the
    # number of evaluations follows the library's own start. Brent's method
    # finds both bracket ends solved, so every other evaluation is a solve.
    model, solves = fit_counting_solves(x, y, s)
    assert solves == max(model.iterations - 2, 0)
    fitted, penalty, residual, _ = spline_fit_reference(x, y, s)
    assert np.array_equal(model.fitted, fitted)
    assert model.penalty == penalty
    assert model.achieved_residual == residual
    assert model.iterations == spline_fit_reference(x, y, s, start="guess")[3]
    return model


class TestReferenceBitIdentity:
    @pytest.mark.parametrize("n", [4, 5, 50, 500, 3000])
    def test_both_bracket_directions(self, n):
        x, y = uneven(n, seed=n)
        system = _System(x, y)
        line_residual = float(np.sum((y - np.polyval(np.polyfit(x, y, 1), x)) ** 2))
        # The residual grows with the penalty: a target below r(start) searches
        # penalties under the start, one between r(start) and the line's above
        # it. Both directions are driven from the library's start and from 1.
        for start in (_search_start(system), 1.0):
            r_start = system.solve(start)[1]
            below = assert_matches_reference(x, y, 0.5 * r_start)
            assert below.penalty < start and below.iterations > 0
            above = assert_matches_reference(x, y, 0.5 * (r_start + line_residual))
            assert above.penalty > start and above.iterations > 0

    @pytest.mark.parametrize("n", [4, 5, 50, 500, 3000])
    def test_default_target_interpolation_and_line(self, n):
        x, y = uneven(n, seed=100 + n)
        assert_matches_reference(x, y, None)
        assert assert_matches_reference(x, y, 0.0).penalty == 0.0
        assert assert_matches_reference(x, y, 1e12).penalty == np.inf

    def test_target_met_at_the_start(self):
        # The start's own residual as the target: the bracket is the start
        # alone, and Brent's method returns it from the memo.
        x, y = uneven(50, seed=50)
        system = _System(x, y)
        penalty = np.exp(np.log(_search_start(system)))
        err, s = system.solve(penalty)
        model, solves = fit_counting_solves(x, y, s)
        assert (model.penalty, model.achieved_residual) == (penalty, s)
        assert np.array_equal(model.fitted, y - err)
        assert (model.iterations, solves) == (3, 1)

    def test_pbsv_is_scipys_lapack_routine(self):
        from scipy.linalg import get_lapack_funcs

        assert _pbsv() is get_lapack_funcs("pbsv", (np.empty(0),))

    def test_non_finite_bands_still_raise(self):
        # Knots 1e-200 apart make Q^T Q overflow to inf; the system must be
        # refused, before any solve, as scipy's validating wrapper did.
        x = [0.0, 1e-200, 2e-200, 3e-200, 1.0, 2.0]
        y = [100.0, 300.0, 100.0, 300.0, 100.0, 300.0]
        refused = "must not contain infs or NaNs"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=refused):
            _System(np.array(x), np.array(y))
        with np.errstate(over="ignore"), counting_solves() as solves, pytest.raises(ValueError, match=refused):
            fit(x, y, 1.0)
        assert solves == []
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=refused):
            spline_fit_reference(x, y, 1.0)
