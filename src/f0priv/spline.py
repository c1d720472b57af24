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

import numpy as np

from ._scipy import _scipy_extension


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


def _pbsv():
    # LAPACK's banded positive-definite solver, the routine
    # scipy.linalg.get_lapack_funcs("pbsv") gives for float64 arrays.
    return _scipy_extension("linalg", "_flapack").dpbsv


class _System:
    """Banded matrices of the natural-spline penalty problem for fixed knots.

    Solves are memoised by exact penalty: the root search starts from the
    two bracket ends the bracketing evaluated, and the final solve is at a
    penalty the root search evaluated.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.y = y
        h = np.diff(x)
        n = len(x) - 2
        # Q columns j = 0..m-3 touch rows j, j+1, j+2.
        inv_h = 1.0 / h
        p = self.qp = inv_h[:-1]
        r = self.qr = inv_h[1:]
        q = self.qq = -p - r
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
        # Work buffers: pbsv factors ``ab`` in place; ``term`` holds one
        # column term of Q gamma at a time.
        self.ab = np.empty((3, n), order="F")
        self.term = np.empty(n)
        self.pbsv = _pbsv()
        # Every band entry is p * QtQ + R or R / p + QtQ with a factor of at
        # most 1, so it is bounded by max|QtQ| + max|R|. While that bound and
        # Q^T y are finite, no solve meets an inf or NaN; otherwise the system
        # is refused with scipy.linalg.solveh_banded's error.
        bound = np.abs(self.qtq_band).max() + np.abs(self.r_band).max()
        if not (np.isfinite(bound) and np.isfinite(self.qty).all()):
            raise ValueError("array must not contain infs or NaNs")
        self.solved: dict[float, tuple[np.ndarray, float]] = {}

    def q_times(self, gamma: np.ndarray) -> np.ndarray:
        # Row i sums its column terms in the order 0, qp, qq, qr.
        out = np.zeros(len(self.y))
        first, middle, last = out[:-2], out[1:-1], out[2:]
        term = self.term
        first += np.multiply(self.qp, gamma, out=term)
        middle += np.multiply(self.qq, gamma, out=term)
        last += np.multiply(self.qr, gamma, out=term)
        return out

    def solve(self, penalty: float) -> tuple[np.ndarray, float]:
        """Residuals ``y - g`` and their sum of squares for one penalty.

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
        else:
            np.multiply(self.r_band, 1.0 / penalty, out=self.ab)
            self.ab += self.qtq_band
        # The errors of scipy.linalg.solveh_banded.
        _, solved, info = self.pbsv(self.ab, self.qty, lower=0, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
        err = self.q_times(penalty * solved if penalty <= 1.0 else solved)
        found = self.solved[penalty] = (err, float(np.dot(err, err)))
        return found


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    coeffs = np.polynomial.polynomial.polyfit(x, y, 1)
    g = coeffs[0] + coeffs[1] * x
    return g, float(np.sum((y - g) ** 2))


def _line_residual(x: np.ndarray, y: np.ndarray) -> float:
    # The least-squares line's residual from centred sums, without polyfit.
    dx = x - x.mean()
    dy = y - y.mean()
    err = dy - (np.dot(dx, dy) / np.dot(dx, dx)) * dx
    return float(np.dot(err, err))


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
    return 16.0 ** int(min(max(np.rint(np.log(guess) / np.log(16.0)), -248), 248))


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
    if (np.diff(x) <= 0).any():
        raise ValueError("abscissae must be strictly increasing (duplicates not allowed)")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("non-finite input")
    # A Python float keeps the root search in float arithmetic.
    s = float(m if s is None else s)
    if s < 0:
        raise ValueError(f"residual target must be >= 0, got {s}")

    if s == 0.0:
        # The natural interpolating spline passes through every point.
        return SplineModel(y, penalty=0.0, achieved_residual=0.0, iterations=0)

    # A closed-form line residual clearly above s goes straight to the search.
    # Otherwise polyfit's line and residual decide and are returned, as
    # always; the margin is far wider than the rounding of either residual.
    line_residual = _line_residual(x, y)
    margin = 1e-6 * s + 1e-9 * float(np.dot(y, y))
    if not (np.isfinite(line_residual) and line_residual > s + margin):
        g_line, line_residual = _line_fit(x, y)
        if line_residual <= s:
            return SplineModel(g_line, penalty=np.inf, achieved_residual=line_residual, iterations=0)

    sys_ = _System(x, y)
    evals = 0

    def excess(u: float) -> float:
        # The residual's excess over the target at penalty exp(u), with the
        # NaN guard scipy.optimize.brentq wraps around its function.
        nonlocal evals
        evals += 1
        r = sys_.solve(np.exp(u))[1] - s
        if r != r:
            raise ValueError(f"The function value at x={u} is NaN; solver cannot continue.")
        return r

    # Bracket the monotone residual curve around the target: step the penalty
    # by 16 from the start toward the target until the excess changes sign or
    # is 0. Each step is evaluated at exp(log(p)), the penalty Brent's method
    # evaluates at a bracket end, so it finds both ends solved. A target no
    # power of 16 in range brackets is an input the spline cannot fit.
    p = prev = _search_start(sys_)
    r = excess(float(np.log(p)))
    up = r < 0.0
    while r < 0.0 if up else r > 0.0:
        if not 1e-300 <= p <= 1e300:
            raise ValueError("penalty bracketing failed to reach the target")
        prev, p = p, p * 16.0 if up else p / 16.0
        r = excess(float(np.log(p)))
    # scipy's compiled Brent's method on the log of the penalty: xtol, rtol,
    # maxiter, args, full_output, disp. An end where the excess is 0 is the root.
    brentq = _scipy_extension("optimize", "_zeros")._brentq
    lo, hi = sorted((prev, p))
    log_root = brentq(excess, float(np.log(lo)), float(np.log(hi)), 1e-12, 1e-14, 60, (), False, True)
    root = float(np.exp(log_root))

    err, residual = sys_.solve(root)
    # The root search lands within float noise of the target; the contract is
    # an upper bound, so step down the penalty until the feasible side.
    while residual > s:
        root *= 1.0 - 1e-7
        evals += 1
        err, residual = sys_.solve(root)
    return SplineModel(y - err, penalty=root, achieved_residual=residual, iterations=evals)
