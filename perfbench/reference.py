"""Reference outputs: a frozen copy of the f0priv algorithms as of the
commit that introduced this benchmark.

The benchmark checks every CLI output against these values, so a later
change to ``src/`` that alters results shows as failed operations instead
of passing unnoticed. Nothing here imports ``f0priv``. The code follows
the package's arithmetic step for step where the outputs are compared
exactly (tracker, spline, random walk, statistics, scoring); the pool-
adjacent-violators fit uses scipy's isotonic regression, which agrees with
the package's loop far inside the 1e-9 report tolerance.
"""

import hashlib

import numpy as np
from scipy.linalg import solveh_banded
from scipy.optimize import brentq, isotonic_regression, minimize
from scipy.special import expit

VOICED_MIN_HZ = 40.0
LN2 = float(np.log(2.0))
STD_FLOOR = 1e-9


def post_rules(values: np.ndarray, voiced_before: np.ndarray) -> np.ndarray:
    values = np.array(values, copy=True)
    values[~voiced_before] = 0.0
    values[values < VOICED_MIN_HZ] = 0.0
    return values


# --- pitch tracker (default PitchConfig: 25 ms frames, 10 ms hop, 60-400 Hz, 0.45)

def _autocorr(signal: np.ndarray, nfft: int) -> np.ndarray:
    spec = np.fft.rfft(signal, nfft)
    return np.fft.irfft(spec.real**2 + spec.imag**2, nfft)[: len(signal)]


def track(samples: np.ndarray, sr: int) -> tuple[float, np.ndarray]:
    """(frame hop in seconds, F0 values) of the autocorrelation tracker."""
    frame_len = int(round(0.025 * sr))
    hop = int(round(0.010 * sr))
    lag_min = max(2, int(np.ceil(sr / 400.0)))
    lag_max = min(int(np.floor(sr / 60.0)), frame_len - 2)
    taus = np.arange(lag_min - 1, lag_max + 2)
    window = np.hanning(frame_len)
    nfft = 1 << int(np.ceil(np.log2(2 * frame_len)))
    window_acf = _autocorr(window, nfft)
    window_ratio = window_acf[taus] / window_acf[0]

    n_frames = 1 + (len(samples) - frame_len) // hop
    values = np.zeros(n_frames)
    for i in range(n_frames):
        frame = samples[i * hop : i * hop + frame_len]
        frame = (frame - frame.mean()) * window
        acf = _autocorr(frame, nfft)
        if acf[0] < 1e-12:
            continue
        r = (acf[taus] / acf[0]) / window_ratio
        interior = r[1:-1]
        peaks = np.flatnonzero((interior > r[:-2]) & (interior >= r[2:]) & (interior >= 0.45))
        if peaks.size == 0:
            continue
        k = int(peaks[0]) + 1
        curvature = r[k - 1] - 2.0 * r[k] + r[k + 1]
        delta = 0.0 if curvature == 0.0 else 0.5 * (r[k - 1] - r[k + 1]) / curvature
        delta = float(np.clip(delta, -0.5, 0.5))
        values[i] = sr / (taus[k] + delta)
    values[values < VOICED_MIN_HZ] = 0.0
    return hop / sr, values


# --- random-walk-strong modifier

def random_walk(values: np.ndarray, recording_id: str, seed: int, strength: int = 2) -> np.ndarray:
    digest = hashlib.blake2b(recording_id.encode("utf-8"), digest_size=8).digest()
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int.from_bytes(digest, "little")]))
    raw = np.cumsum(rng.standard_normal(len(values)))
    lo, hi = raw.min(), raw.max()
    walk = np.zeros(len(raw)) if hi == lo else (raw - lo) / (hi - lo) - 0.5
    mask = values > 0.0
    out = np.array(values, copy=True)
    out[mask] = out[mask] * (2.0 + strength * walk[mask]) / 2.0
    return post_rules(out, mask)


# --- smoothing-spline modifier (natural cubic spline, residual target = n voiced)

class _System:
    def __init__(self, x: np.ndarray, y: np.ndarray):
        self.x, self.y = x, y
        h = np.diff(x)
        self.qp = 1.0 / h[:-1]
        self.qq = -1.0 / h[:-1] - 1.0 / h[1:]
        self.qr = 1.0 / h[1:]
        self.r_diag = (h[:-1] + h[1:]) / 3.0
        self.r_off = h[1:-1] / 6.0
        p, q, r = self.qp, self.qq, self.qr
        self.qtq_diag = p**2 + q**2 + r**2
        self.qtq_off1 = q[:-1] * p[1:] + r[:-1] * q[1:]
        self.qtq_off2 = r[:-2] * p[2:]
        self.qty = p * y[:-2] + q * y[1:-1] + r * y[2:]

    def _banded(self, r_scale: float, qtq_scale: float) -> np.ndarray:
        n = len(self.qtq_diag)
        ab = np.zeros((3, n))
        ab[2] = r_scale * self.r_diag + qtq_scale * self.qtq_diag
        ab[1, 1:] = r_scale * self.r_off + qtq_scale * self.qtq_off1
        if n > 2:
            ab[0, 2:] = qtq_scale * self.qtq_off2
        return ab

    def solve(self, penalty: float):
        if penalty <= 1.0:
            gamma = solveh_banded(self._banded(1.0, penalty), self.qty)
            scaled = penalty * gamma
        else:
            scaled = solveh_banded(self._banded(1.0 / penalty, 1.0), self.qty)
            gamma = scaled / penalty
        err = np.zeros(len(self.x))
        err[:-2] += self.qp * scaled
        err[1:-1] += self.qq * scaled
        err[2:] += self.qr * scaled
        return gamma, self.y - err, float(np.dot(err, err))


def _spline_values(x: np.ndarray, y: np.ndarray, s: float) -> np.ndarray:
    # Fitted values at the knots, reproducing the evaluation of the last
    # knot through the last interval's polynomial.
    system = _System(x, y)
    coeffs = np.polynomial.polynomial.polyfit(x, y, 1)
    g_line = coeffs[0] + coeffs[1] * x
    if float(np.sum((y - g_line) ** 2)) <= s:
        g, gamma_full = g_line, np.zeros(len(x))
    else:
        def residual_at(penalty):
            return system.solve(penalty)[2]

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
            root = float(np.exp(brentq(
                lambda u: residual_at(np.exp(u)) - s, np.log(lo), np.log(hi),
                xtol=1e-12, rtol=1e-14, maxiter=60,
            )))
        gamma, g, residual = system.solve(root)
        while residual > s:
            root *= 1.0 - 1e-7
            gamma, g, residual = system.solve(root)
        gamma_full = np.concatenate(([0.0], gamma, [0.0]))
    h = x[-1] - x[-2]
    gi, gj = gamma_full[-2], gamma_full[-1]
    c1 = (g[-1] - g[-2]) / h - h * (2.0 * gi + gj) / 6.0
    c2, c3 = gi / 2.0, (gj - gi) / (6.0 * h)
    out = np.array(g, copy=True)
    out[-1] = g[-2] + h * (c1 + h * (c2 + h * c3))
    return out


def spline_smooth(values: np.ndarray, hop: float) -> np.ndarray:
    mask = values > 0.0
    times = (np.arange(len(values)) * hop)[mask]
    out = np.array(values, copy=True)
    out[mask] = _spline_values(times, values[mask], float(mask.sum()))
    return post_rules(out, mask)


# --- statistics and scenario scoring

def _skewness(x: np.ndarray) -> float:
    if np.ptp(x) == 0.0:
        return 0.0
    n = x.size
    d = x - np.mean(x)
    m2 = np.mean(d**2)
    if m2 == 0.0:
        return 0.0
    return float(np.mean(d**3) / m2**1.5 * np.sqrt(n * (n - 1)) / (n - 2))


def stats(values: np.ndarray, hop: float) -> np.ndarray:
    """The six statistics in the package's field order."""
    mask = values > 0.0
    voiced = values[mask]
    log_f0 = np.log(voiced)
    both = mask[:-1] & mask[1:]
    deltas = np.diff(values)[both]
    rising = deltas[deltas > 0.0]
    return np.array([
        float(np.mean(voiced)),
        float(np.mean(log_f0)),
        0.0 if np.ptp(log_f0) == 0.0 else float(np.var(log_f0, ddof=1)),
        _skewness(log_f0),
        0.0 if rising.size == 0 else float(np.mean(rising) / hop),
        float(voiced.size / len(values)),
    ])


def _eer(tar: np.ndarray, non: np.ndarray) -> float:
    tar, non = np.sort(tar), np.sort(non)
    thresholds = np.unique(np.concatenate([tar, non]))
    far = np.append((non.size - np.searchsorted(non, thresholds, side="left")) / non.size, 0.0)
    frr = np.append(np.searchsorted(tar, thresholds, side="left") / tar.size, 1.0)
    diff = far - frr
    i = int(np.argmax(diff <= 0.0))
    if diff[i] == 0.0:
        rate = far[i]
    else:
        t = diff[i - 1] / (diff[i - 1] - diff[i])
        rate = far[i - 1] + t * (far[i] - far[i - 1])
    rate *= 100.0
    return float(min(rate, 100.0 - rate))


def _cllr(tar_llr: np.ndarray, non_llr: np.ndarray) -> float:
    tar_cost = np.mean(np.logaddexp(0.0, -tar_llr)) / LN2
    non_cost = np.mean(np.logaddexp(0.0, non_llr)) / LN2
    return float(0.5 * (tar_cost + non_cost))


def _affine_calibrated(tar: np.ndarray, non: np.ndarray):
    pooled = np.concatenate([tar, non])
    center, spread = float(np.mean(pooled)), float(np.std(pooled))
    if spread == 0.0:
        return np.zeros(tar.size), np.zeros(non.size)
    st, sn = (tar - center) / spread, (non - center) / spread

    def cost_grad(params):
        a, b = params
        ut, un = a * st + b, a * sn + b
        value = 0.5 * (np.mean(np.logaddexp(0.0, -ut)) + np.mean(np.logaddexp(0.0, un)))
        gt, gn = -expit(-ut), expit(un)
        return value, np.array([
            0.5 * (np.mean(gt * st) + np.mean(gn * sn)),
            0.5 * (np.mean(gt) + np.mean(gn)),
        ])

    a, b = minimize(cost_grad, x0=np.array([1.0, 0.0]), jac=True, method="L-BFGS-B",
                    bounds=[(0.0, None), (None, None)]).x
    return a * st + b, a * sn + b


def _cllr_min(tar: np.ndarray, non: np.ndarray) -> float:
    pooled = np.concatenate([tar, non])
    labels = np.concatenate([np.ones(tar.size), np.zeros(non.size)])
    uniq, inverse = np.unique(pooled, return_inverse=True)
    tar_per_group = np.bincount(inverse, weights=labels, minlength=uniq.size)
    count = np.bincount(inverse, minlength=uniq.size).astype(float)
    posterior = isotonic_regression(tar_per_group / count, weights=count).x
    with np.errstate(divide="ignore"):
        llr = np.log(posterior) - np.log1p(-posterior) - np.log(tar.size / non.size)
    llrs = llr[inverse]
    return _cllr(llrs[: tar.size], llrs[tar.size :])


def scenario_report(enroll: list, trials: list, scenario: str) -> dict:
    """Report fields of ``f0priv eval`` given (speaker, stats vector) lists
    in manifest order; the modifier, if any, is already applied."""
    speakers = sorted({spk for spk, _ in enroll})
    enroll_vectors = np.array([v for _, v in enroll])
    mean = enroll_vectors.mean(axis=0)
    std = enroll_vectors.std(axis=0)
    std = np.where(std <= STD_FLOOR * np.maximum(1.0, np.abs(mean)), 1.0, std)
    aggregates = np.array([
        np.array([v for spk, v in enroll if spk == s]).mean(axis=0) for s in speakers
    ])
    z_enroll = (aggregates - mean) / std
    z_trial = (np.array([v for _, v in trials]) - mean) / std
    scores = np.empty((len(trials), len(speakers)))
    for i, zt in enumerate(z_trial):
        for j, ze in enumerate(z_enroll):
            d = ze - zt
            scores[i, j] = -np.sqrt(d.dot(d))
    same = np.array([[spk == s for s in speakers] for spk, _ in trials])
    tar, non = scores[same], scores[~same]
    return {
        "scenario": scenario,
        "eer_percent": _eer(tar, non),
        "cllr_bits": _cllr(*_affine_calibrated(tar, non)),
        "cllr_min_bits": _cllr_min(tar, non),
        "n_target": int(tar.size),
        "n_nontarget": int(non.size),
    }
