"""Natural cubic smoothing splines with a residual-targeted penalty.

Fits the natural cubic spline minimizing curvature subject to a bound ``s``
on the sum of squared residuals. The penalized problem

    minimize  sum (y_i - g(x_i))^2 + penalty * integral g''(t)^2 dt

is solved for a scalar penalty via banded (pentadiagonal) symmetric solves,
and the penalty is root-searched so the achieved residual meets the target:
``s = 0`` gives the interpolating natural spline, a target at or above the
straight-line residual gives the ordinary least-squares line, anything in
between is found by a bracketed monotone search. The default target equals
the number of data points.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np


@dataclass(frozen=True)
class SplineModel:
    """Fitted natural cubic spline in per-interval polynomial form.

    ``coefficients[i]`` holds (value, slope, quad, cubic) of the polynomial
    in ``t - knots[i]`` on interval i. ``penalty`` is the curvature weight
    actually used (0 = interpolation, inf = straight line), and
    ``iterations`` counts residual evaluations spent in the penalty search.
    """

    knots: np.ndarray
    coefficients: np.ndarray
    penalty: float
    achieved_residual: float
    iterations: int = 0

    def __post_init__(self):
        for name in ("knots", "coefficients"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@cache
def _lapack():
    # LAPACK's banded (pbsv) and tridiagonal (ptsv) positive-definite
    # solvers, looked up on first use so importing f0priv loads no scipy.
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs(("pbsv", "ptsv"), (np.empty(0),))


def _check_solved(info: int) -> None:
    # The errors scipy.linalg.solveh_banded raises for these codes.
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError("array must not contain infs or NaNs")


class _System:
    """Banded matrices of the natural-spline penalty problem for fixed knots.

    Solves are memoised by exact penalty, since the bracketing, the root
    search and the final solve revisit penalties.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x = x
        self.y = y
        h = np.diff(x)
        n = len(x) - 2
        # Q columns j = 0..m-3 touch rows j, j+1, j+2.
        self.qp = 1.0 / h[:-1]
        self.qq = -1.0 / h[:-1] - 1.0 / h[1:]
        self.qr = 1.0 / h[1:]
        p, q, r = self.qp, self.qq, self.qr
        # Upper band storage (row 2 the diagonal) of the roughness matrix R
        # (tridiagonal) and of Q^T Q (pentadiagonal), both of order m-2.
        self.r_band = np.zeros((3, n), order="F")
        self.r_band[2] = (h[:-1] + h[1:]) / 3.0
        self.r_band[1, 1:] = h[1:-1] / 6.0
        self.qtq_band = np.zeros((3, n), order="F")
        self.qtq_band[2] = p**2 + q**2 + r**2
        self.qtq_band[1, 1:] = q[:-1] * p[1:] + r[:-1] * q[1:]
        self.qtq_band[0, 2:] = r[:-2] * p[2:]
        self.qty = p * y[:-2] + q * y[1:-1] + r * y[2:]
        # Work buffer that pbsv factors in place.
        self.ab = np.empty((3, n), order="F")
        self.pbsv, self.ptsv = _lapack()
        # Every band entry is p * QtQ + R or R / p + QtQ with a factor of at
        # most 1, so it is bounded by max|QtQ| + max|R|; only when that bound
        # or Q^T y is not finite can a solve meet an inf or NaN.
        bound = np.abs(self.qtq_band).max() + np.abs(self.r_band).max()
        self.check_finite = not (np.isfinite(bound) and np.isfinite(self.qty).all())
        self.solved: dict[float, tuple[np.ndarray, np.ndarray, float]] = {}

    def q_times(self, gamma: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.x))
        out[:-2] += self.qp * gamma
        out[1:-1] += self.qq * gamma
        out[2:] += self.qr * gamma
        return out

    def _solve_banded(self) -> np.ndarray:
        if self.check_finite:
            _require_finite(self.ab, self.qty)
        _, x, info = self.pbsv(self.ab, self.qty, lower=0, overwrite_ab=1)
        _check_solved(info)
        return x

    def solve(self, penalty: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Interior curvatures, fitted values and residual for one penalty.

        For penalties above 1 the system is solved in the variable
        ``penalty * gamma`` to keep the matrix well conditioned.
        """
        found = self.solved.get(penalty)
        if found is not None:
            return found
        if penalty <= 1.0:
            np.multiply(self.qtq_band, penalty, out=self.ab)
            self.ab += self.r_band
            gamma = self._solve_banded()
            scaled = penalty * gamma
        else:
            np.multiply(self.r_band, 1.0 / penalty, out=self.ab)
            self.ab += self.qtq_band
            scaled = self._solve_banded()
            gamma = scaled / penalty
        err = self.q_times(scaled)  # y - g
        g = self.y - err
        found = self.solved[penalty] = (gamma, g, float(np.dot(err, err)))
        return found

    def solve_interpolating(self) -> np.ndarray:
        diag, off = self.r_band[2], self.r_band[1, 1:]
        _require_finite(diag, off, self.qty)
        _, _, x, info = self.ptsv(diag, off, self.qty, 0, 0, 0)
        _check_solved(info)
        return x


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    coeffs = np.polynomial.polynomial.polyfit(x, y, 1)
    g = coeffs[0] + coeffs[1] * x
    return g, float(np.sum((y - g) ** 2))


def _build_coefficients(x: np.ndarray, g: np.ndarray, gamma_full: np.ndarray) -> np.ndarray:
    h = np.diff(x)
    gi, gj = gamma_full[:-1], gamma_full[1:]
    coeffs = np.empty((len(h), 4))
    coeffs[:, 0] = g[:-1]
    coeffs[:, 1] = np.diff(g) / h - h * (2.0 * gi + gj) / 6.0
    coeffs[:, 2] = gi / 2.0
    coeffs[:, 3] = (gj - gi) / (6.0 * h)
    return coeffs


def fit(x, y, s: float | None = None) -> SplineModel:
    """Fit a natural cubic smoothing spline with residual target ``s``.

    Parameters
    ----------
    x : array_like
        Strictly increasing abscissae (seconds), at least 4 points.
    y : array_like
        Ordinates (Hz), same length.
    s : float, optional
        Upper bound on the sum of squared residuals. Defaults to the number
        of data points.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-D arrays of equal length")
    m = len(x)
    if m < 4:
        raise ValueError(f"need at least 4 points, got {m}")
    if np.any(np.diff(x) <= 0):
        raise ValueError("abscissae must be strictly increasing (duplicates not allowed)")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite input")
    if s is None:
        s = float(m)
    if s < 0:
        raise ValueError(f"residual target must be >= 0, got {s}")

    sys_ = _System(x, y)

    if s == 0.0:
        gamma = sys_.solve_interpolating()
        gamma_full = np.concatenate(([0.0], gamma, [0.0]))
        coeffs = _build_coefficients(x, y, gamma_full)
        return SplineModel(x, coeffs, penalty=0.0, achieved_residual=0.0, iterations=0)

    g_line, line_residual = _line_fit(x, y)
    if line_residual <= s:
        coeffs = _build_coefficients(x, g_line, np.zeros(m))
        return SplineModel(
            x, coeffs, penalty=np.inf, achieved_residual=line_residual, iterations=0
        )

    from scipy.optimize import brentq

    evals = 0

    def residual_at(penalty: float) -> float:
        nonlocal evals
        evals += 1
        return sys_.solve(penalty)[2]

    # Bracket the monotone residual curve around the target, then root-find
    # on the log of the penalty.
    lo = hi = 1.0
    r1 = residual_at(1.0)
    if r1 < s:
        while residual_at(hi := hi * 16.0) < s:
            if hi > 1e300:
                raise RuntimeError("penalty bracketing failed to reach the target")
        lo = hi / 16.0
    elif r1 > s:
        while residual_at(lo := lo / 16.0) > s:
            if lo < 1e-300:
                raise RuntimeError("penalty bracketing failed to reach the target")
        hi = lo * 16.0
    if r1 == s:
        root = 1.0
    else:
        root = float(
            np.exp(
                brentq(
                    lambda u: residual_at(np.exp(u)) - s,
                    np.log(lo),
                    np.log(hi),
                    xtol=1e-12,
                    rtol=1e-14,
                    maxiter=60,
                )
            )
        )

    gamma, g, residual = sys_.solve(root)
    # The root search lands within float noise of the target; the contract is
    # an upper bound, so step down the penalty until the feasible side.
    while residual > s:
        root *= 1.0 - 1e-7
        evals += 1
        gamma, g, residual = sys_.solve(root)
    gamma_full = np.concatenate(([0.0], gamma, [0.0]))
    coeffs = _build_coefficients(x, g, gamma_full)
    return SplineModel(x, coeffs, penalty=root, achieved_residual=residual, iterations=evals)


def evaluate(model: SplineModel, x) -> np.ndarray:
    """Evaluate the spline; outside the knot span the end slopes continue linearly."""
    t = np.asarray(x, dtype=np.float64)
    scalar = t.ndim == 0
    t = np.atleast_1d(t)
    knots = model.knots
    coeffs = model.coefficients

    idx = np.clip(np.searchsorted(knots, t, side="right") - 1, 0, len(knots) - 2)
    d = t - knots[idx]
    c = coeffs[idx]
    out = c[:, 0] + d * (c[:, 1] + d * (c[:, 2] + d * c[:, 3]))

    left = t < knots[0]
    if left.any():
        out[left] = coeffs[0, 0] + coeffs[0, 1] * (t[left] - knots[0])
    right = t > knots[-1]
    if right.any():
        h = knots[-1] - knots[-2]
        c_last = coeffs[-1]
        end_value = c_last[0] + h * (c_last[1] + h * (c_last[2] + h * c_last[3]))
        end_slope = c_last[1] + 2.0 * c_last[2] * h + 3.0 * c_last[3] * h**2
        out[right] = end_value + end_slope * (t[right] - knots[-1])

    return out[0] if scalar else out
