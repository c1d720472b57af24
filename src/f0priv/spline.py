"""Natural cubic smoothing splines with a residual-targeted penalty.

Fits the natural cubic spline minimizing curvature subject to a bound ``s``
on the sum of squared residuals. The penalized problem

    minimize  sum (y_i - g(x_i))^2 + penalty * integral g''(t)^2 dt

is solved for a scalar penalty via banded (pentadiagonal) symmetric solves,
and the penalty is root-searched so the achieved residual meets the target:
``s = 0`` gives the interpolating natural spline, a target at or above the
straight-line residual gives the ordinary least-squares line, anything in
between is found by a bracketed monotone search. The default target equals
the number of data points. A fit yields the spline's values at the data
abscissae, which is all the smoothing modifier needs.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np


@dataclass(frozen=True)
class SplineModel:
    """Fitted natural cubic smoothing spline, as its values at the data.

    ``fitted[i]`` is the spline's value at ``x[i]``. ``penalty`` is the
    curvature weight actually used (0 = interpolation, inf = straight line),
    and ``iterations`` counts residual evaluations spent in the penalty
    search.
    """

    fitted: np.ndarray
    penalty: float
    achieved_residual: float
    iterations: int = 0

    def __post_init__(self):
        arr = np.array(self.fitted, dtype=np.float64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "fitted", arr)


@cache
def _pbsv():
    # LAPACK's banded positive-definite solver, looked up on first use so
    # importing f0priv loads no scipy.
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs("pbsv", (np.empty(0),))


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
        self.pbsv = _pbsv()
        # Every band entry is p * QtQ + R or R / p + QtQ with a factor of at
        # most 1, so it is bounded by max|QtQ| + max|R|; only when that bound
        # or Q^T y is not finite can a solve meet an inf or NaN.
        bound = np.abs(self.qtq_band).max() + np.abs(self.r_band).max()
        self.check_finite = not (np.isfinite(bound) and np.isfinite(self.qty).all())
        self.solved: dict[float, tuple[np.ndarray, float]] = {}

    def q_times(self, gamma: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.y))
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

    def solve(self, penalty: float) -> tuple[np.ndarray, float]:
        """Fitted values and residual for one penalty.

        The system is solved for the interior curvatures gamma, or for
        ``penalty * gamma`` when the penalty is above 1, which keeps the
        matrix well conditioned.
        """
        found = self.solved.get(penalty)
        if found is not None:
            return found
        if penalty <= 1.0:
            np.multiply(self.qtq_band, penalty, out=self.ab)
            self.ab += self.r_band
            scaled = penalty * self._solve_banded()
        else:
            np.multiply(self.r_band, 1.0 / penalty, out=self.ab)
            self.ab += self.qtq_band
            scaled = self._solve_banded()
        err = self.q_times(scaled)  # y - g
        found = self.solved[penalty] = (self.y - err, float(np.dot(err, err)))
        return found


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    coeffs = np.polynomial.polynomial.polyfit(x, y, 1)
    g = coeffs[0] + coeffs[1] * x
    return g, float(np.sum((y - g) ** 2))


def _search_start(sys_: _System) -> float:
    # Smoothing sets in where penalty * Q^T Q weighs about as much as R in the
    # solved matrix; a tenth of the ratio of their mean diagonals, rounded to a
    # power of 16, lies a few bracketing steps from the root on speech-like
    # contours. Bracketing from any power of 16 meets the same pair of
    # consecutive powers as from 1, so the root search sees the same bracket.
    guess = 0.1 * sys_.r_band[2].mean() / sys_.qtq_band[2].mean()
    if not (np.isfinite(guess) and guess > 0.0):
        return 1.0
    # 16**248 stays inside the 1e300 and 1e-300 limits of the bracketing.
    return 16.0 ** int(np.clip(np.rint(np.log(guess) / np.log(16.0)), -248, 248))


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

    if s == 0.0:
        # The natural interpolating spline passes through every point.
        return SplineModel(y, penalty=0.0, achieved_residual=0.0, iterations=0)

    g_line, line_residual = _line_fit(x, y)
    if line_residual <= s:
        return SplineModel(g_line, penalty=np.inf, achieved_residual=line_residual, iterations=0)

    from scipy.optimize import brentq

    sys_ = _System(x, y)
    evals = 0

    def residual_at(penalty: float) -> float:
        nonlocal evals
        evals += 1
        return sys_.solve(penalty)[1]

    # Bracket the monotone residual curve around the target, then root-find
    # on the log of the penalty.
    lo = hi = start = _search_start(sys_)
    r_start = residual_at(start)
    if r_start < s:
        while residual_at(hi := hi * 16.0) < s:
            if hi > 1e300:
                raise RuntimeError("penalty bracketing failed to reach the target")
        lo = hi / 16.0
    elif r_start > s:
        while residual_at(lo := lo / 16.0) > s:
            if lo < 1e-300:
                raise RuntimeError("penalty bracketing failed to reach the target")
        hi = lo * 16.0
    if r_start == s:
        root = start
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

    g, residual = sys_.solve(root)
    # The root search lands within float noise of the target; the contract is
    # an upper bound, so step down the penalty until the feasible side.
    while residual > s:
        root *= 1.0 - 1e-7
        evals += 1
        g, residual = sys_.solve(root)
    return SplineModel(g, penalty=root, achieved_residual=residual, iterations=evals)
