"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (pure-Python
loops, exhaustive enumeration, one frame at a time) and stays independent of
the code paths it verifies.
"""

import math

import numpy as np


def sinusoid_modulation_reference(values, frame_hop, f1, f2):
    """Frame-by-frame evaluation of the quadrature modulation, with post-rules.

    Returns the list of output values: voiced frames get
    mean + (v - mean) * (4 + 2 c1 + 2 c2 + c1 c2) / 4, anything below 40 Hz
    (or unvoiced before) becomes 0.
    """
    voiced = [v for v in values if v > 0.0]
    mean = sum(voiced) / len(voiced)
    out = []
    for i, v in enumerate(values):
        if v <= 0.0:
            out.append(0.0)
            continue
        t = i * frame_hop
        c1 = math.sin(2.0 * math.pi * f1 * t)
        c2 = math.sin(2.0 * math.pi * f2 * t + math.pi / 2.0)
        factor = (4.0 + 2.0 * c1 + 2.0 * c2 + c1 * c2) / 4.0
        f_out = mean + (v - mean) * factor
        out.append(f_out if f_out >= 40.0 else 0.0)
    return out


def walk_modulation_reference(values, walk, strength):
    """Frame-by-frame random-walk modulation with post-rules applied."""
    out = []
    for v, r in zip(values, walk):
        if v <= 0.0:
            out.append(0.0)
            continue
        f_out = v * (2.0 + strength * r) / 2.0
        out.append(f_out if f_out >= 40.0 else 0.0)
    return out


def znorm_reference(vectors):
    """Per-dimension z-normalization fit on ``vectors``, one row per recording.

    Returns a function of one vector: each dimension minus its mean, over its
    population standard deviation, or over 1 where that deviation is at most
    1e-9 * max(1, |mean|) (no spread to scale).
    """
    n = len(vectors)
    mean = [sum(column) / n for column in zip(*vectors)]
    std = [math.sqrt(sum((v - m) ** 2 for v in column) / n) for column, m in zip(zip(*vectors), mean)]
    std = [1.0 if s <= 1e-9 * max(1.0, abs(m)) else s for s, m in zip(std, mean)]
    return lambda vector: np.array([(v - m) / s for v, m, s in zip(vector, mean, std)])


def score(enroll, trial, znorm) -> float:
    """Per-pair reference for ``evaluation.score_corpus``.

    Negative Euclidean distance between the z-normalized statistics vectors
    of a speaker model and a trial (both ``F0Stats``).
    """
    if not enroll.complete or not trial.complete:
        raise ValueError("cannot score recordings with absent statistics")
    return float(-np.linalg.norm(znorm(enroll.as_vector()) - znorm(trial.as_vector())))


def _far_frr(targets, nontargets, threshold):
    far = sum(1 for s in nontargets if s >= threshold) / len(nontargets)
    frr = sum(1 for s in targets if s < threshold) / len(targets)
    return far, frr


def brute_force_eer(targets, nontargets):
    """EER in percent by sweeping every observed threshold.

    Walks the "accept if score >= threshold" operating points in ascending
    threshold order, interpolating linearly between the two points where the
    false-accept and false-reject rates cross, then folds into [0, 50].
    """
    points = [_far_frr(targets, nontargets, th) for th in sorted(set(targets) | set(nontargets))]
    points.append((0.0, 1.0))
    prev_far, prev_frr = points[0]
    rate = None
    for far, frr in points:
        diff = far - frr
        if diff == 0.0:
            rate = far
            break
        if diff < 0.0:
            prev_diff = prev_far - prev_frr
            t = prev_diff / (prev_diff - diff)
            rate = prev_far + t * (far - prev_far)
            break
        prev_far, prev_frr = far, frr
    rate *= 100.0
    return min(rate, 100.0 - rate)


def _bits_cost(llr, sign):
    # log2(1 + exp(sign * llr)) with infinities handled exactly.
    x = sign * llr
    if x == float("inf"):
        return float("inf")
    if x == float("-inf"):
        return 0.0
    if x > 700.0:
        return x / math.log(2.0)
    return math.log2(1.0 + math.exp(x))


def cllr_reference(target_llrs, nontarget_llrs):
    tar = sum(_bits_cost(s, -1.0) for s in target_llrs) / len(target_llrs)
    non = sum(_bits_cost(s, +1.0) for s in nontarget_llrs) / len(nontarget_llrs)
    return 0.5 * (tar + non)


def exhaustive_cllr_min(targets, nontargets):
    """Minimum Cllr over every monotone recalibration, by brute force.

    An optimal monotone map is constant on contiguous blocks of the sorted
    pooled scores (tied scores forced into one group), and each block's best
    LLR is the prior-corrected log odds of its label counts. Enumerate every
    contiguous partition, keep those whose block LLRs are non-decreasing,
    and take the cheapest. Feasible for ~8 scores (2^(groups-1) partitions).
    """
    counts = {}
    for s in targets:
        counts.setdefault(s, [0, 0])[0] += 1
    for s in nontargets:
        counts.setdefault(s, [0, 0])[1] += 1
    groups = [counts[s] for s in sorted(counts)]
    n_groups = len(groups)
    n_tar, n_non = len(targets), len(nontargets)

    best = float("inf")
    for cuts in range(2 ** (n_groups - 1)):
        blocks = []
        t_acc = n_acc = 0
        for i, (t, n) in enumerate(groups):
            t_acc += t
            n_acc += n
            if i == n_groups - 1 or (cuts >> i) & 1:
                blocks.append((t_acc, n_acc))
                t_acc = n_acc = 0
        llrs = []
        for t, n in blocks:
            if n == 0:
                llrs.append(float("inf"))
            elif t == 0:
                llrs.append(float("-inf"))
            else:
                llrs.append(math.log((t * n_non) / (n * n_tar)))
        if any(llrs[i] > llrs[i + 1] for i in range(len(llrs) - 1)):
            continue
        tar_cost = sum(t * _bits_cost(l, -1.0) for (t, _), l in zip(blocks, llrs) if t)
        non_cost = sum(n * _bits_cost(l, +1.0) for (_, n), l in zip(blocks, llrs) if n)
        best = min(best, 0.5 * (tar_cost / n_tar + non_cost / n_non))
    return best



def pav_llrs_reference(targets, nontargets):
    """``evaluation.pav_llrs`` as first written, on scipy's public ``isotonic_regression``.

    Returns the recalibrated (target LLRs, nontarget LLRs); the library's
    direct call of scipy's compiled PAV must match them bit for bit.
    """
    from scipy.optimize import isotonic_regression

    tar, non = np.asarray(targets, dtype=np.float64), np.asarray(nontargets, dtype=np.float64)
    pooled = np.concatenate([tar, non])
    labels = np.concatenate([np.ones(tar.size), np.zeros(non.size)])
    uniq, inverse = np.unique(pooled, return_inverse=True)
    tar_per_group = np.bincount(inverse, weights=labels, minlength=uniq.size)
    count_per_group = np.bincount(inverse, minlength=uniq.size).astype(float)
    posterior = isotonic_regression(tar_per_group / count_per_group, weights=count_per_group).x
    prior_log_odds = np.log(tar.size / non.size)
    with np.errstate(divide="ignore"):
        llr_per_group = np.log(posterior) - np.log1p(-posterior) - prior_log_odds
    llrs = llr_per_group[inverse]
    return llrs[: tar.size], llrs[tar.size :]


def affine_calibrate_reference(targets, nontargets):
    """``evaluation.affine_calibrate`` as first written, on ``scipy.optimize.minimize``.

    Fits a*s + b (a >= 0) to the standardized scores by L-BFGS-B with
    scipy's public ``expit``; returns the calibrated (targets, nontargets),
    which the library's own L-BFGS-B loop must match bit for bit.
    """
    from scipy.optimize import minimize
    from scipy.special import expit

    tar, non = np.asarray(targets, dtype=np.float64), np.asarray(nontargets, dtype=np.float64)
    pooled = np.concatenate([tar, non])
    center = float(np.mean(pooled))
    spread = float(np.std(pooled))
    if spread == 0.0:
        return np.zeros(tar.size), np.zeros(non.size)
    st = (tar - center) / spread
    sn = (non - center) / spread

    def cost_grad(params):
        a, b = params
        ut = a * st + b
        un = a * sn + b
        value = 0.5 * (np.mean(np.logaddexp(0.0, -ut)) + np.mean(np.logaddexp(0.0, un)))
        gt = -expit(-ut)
        gn = expit(un)
        da = 0.5 * (np.mean(gt * st) + np.mean(gn * sn))
        db = 0.5 * (np.mean(gt) + np.mean(gn))
        return value, np.array([da, db])

    result = minimize(cost_grad, x0=np.array([1.0, 0.0]), jac=True, method="L-BFGS-B",
                      bounds=[(0.0, None), (None, None)])
    a, b = result.x
    return a * st + b, a * sn + b

def track_reference(audio, cfg, nfft=None):
    """The pitch tracker one frame at a time; returns (values, frame_hop).

    Same arithmetic as ``pitch.extract_f0`` in the order it was first
    written, so the blocked tracker must match it bit for bit. ``nfft``
    overrides the FFT size, which by default is the tracker's: the smallest
    power of two >= ``frame_len + lag_max + 2``.
    """
    sr = audio.sample_rate
    cfg.check(sr)
    frame_len = int(round(cfg.frame_len * sr))
    hop = int(round(cfg.frame_hop * sr))
    x = audio.samples
    if len(x) < frame_len:
        raise ValueError(f"audio shorter than one frame ({len(x)} < {frame_len} samples)")

    def autocorr(signal, nfft):
        spec = np.fft.rfft(signal, nfft)
        return np.fft.irfft(spec.real**2 + spec.imag**2, nfft)[: len(signal)]

    lag_min = max(2, int(np.ceil(sr / cfg.f_max)))
    lag_max = int(np.floor(sr / cfg.f_min))
    taus = np.arange(lag_min - 1, lag_max + 2)
    window = np.hanning(frame_len)
    if nfft is None:
        nfft = 1 << int(np.ceil(np.log2(frame_len + lag_max + 2)))
    window_acf = autocorr(window, nfft)
    window_ratio = window_acf[taus] / window_acf[0]

    n_frames = 1 + (len(x) - frame_len) // hop
    values = np.zeros(n_frames)
    for i in range(n_frames):
        frame = x[i * hop : i * hop + frame_len]
        frame = (frame - frame.mean()) * window
        acf = autocorr(frame, nfft)
        if acf[0] < 1e-12:
            continue
        r = (acf[taus] / acf[0]) / window_ratio
        interior = r[1:-1]
        peaks = np.flatnonzero(
            (interior > r[:-2]) & (interior >= r[2:]) & (interior >= cfg.voicing_threshold)
        )
        if peaks.size == 0:
            continue
        k = int(peaks[0]) + 1
        curvature = r[k - 1] - 2.0 * r[k] + r[k + 1]
        delta = 0.0 if curvature == 0.0 else 0.5 * (r[k - 1] - r[k + 1]) / curvature
        delta = float(np.clip(delta, -0.5, 0.5))
        values[i] = sr / (taus[k] + delta)

    values[values < 40.0] = 0.0
    return values, hop / sr


def spline_fit_reference(x, y, s=None, start=1.0):
    """The smoothing-spline fit as first written, on scipy's ``solveh_banded``.

    Builds fresh band arrays for every penalty, calls the validating scipy
    wrapper and repeats every solve the search asks for. Returns
    ``(fitted, penalty, achieved_residual, iterations)``; the library's
    direct LAPACK calls must match it bit for bit.

    The penalty search brackets outward from ``start`` by factors of 16.
    ``start="guess"`` starts where the library does: at the power of 16
    nearest a tenth of mean(diag R) / mean(diag Q^T Q), or at 1 when that
    is not finite and positive.
    """
    from scipy.linalg import solveh_banded
    from scipy.optimize import brentq

    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    m = len(x)
    if s is None:
        s = float(m)
    h = np.diff(x)
    qp = 1.0 / h[:-1]
    qq = -1.0 / h[:-1] - 1.0 / h[1:]
    qr = 1.0 / h[1:]
    r_diag = (h[:-1] + h[1:]) / 3.0
    r_off = h[1:-1] / 6.0
    qtq_diag = qp**2 + qq**2 + qr**2
    qtq_off1 = qq[:-1] * qp[1:] + qr[:-1] * qq[1:]
    qtq_off2 = qr[:-2] * qp[2:]
    qty = qp * y[:-2] + qq * y[1:-1] + qr * y[2:]

    def banded(r_scale, qtq_scale):
        n = len(qtq_diag)
        ab = np.zeros((3, n))
        ab[2] = r_scale * r_diag + qtq_scale * qtq_diag
        ab[1, 1:] = r_scale * r_off + qtq_scale * qtq_off1
        if n > 2:
            ab[0, 2:] = qtq_scale * qtq_off2
        return ab

    def solve(penalty):
        if penalty <= 1.0:
            gamma = solveh_banded(banded(1.0, penalty), qty)
            scaled = penalty * gamma
        else:
            scaled = solveh_banded(banded(1.0 / penalty, 1.0), qty)
        err = np.zeros(m)
        err[:-2] += qp * scaled
        err[1:-1] += qq * scaled
        err[2:] += qr * scaled
        return y - err, float(np.dot(err, err))

    if s == 0.0:
        # The natural interpolating spline passes through every point.
        return y, 0.0, 0.0, 0

    # The least-squares line from centred sums.
    dx = x - x.mean()
    dy = y - y.mean()
    line_err = dy - (np.dot(dx, dy) / np.dot(dx, dx)) * dx
    g_line = y - line_err
    line_residual = float(np.dot(line_err, line_err))
    if line_residual <= s:
        return g_line, np.inf, line_residual, 0

    evals = 0

    def residual_at(penalty):
        nonlocal evals
        evals += 1
        return solve(penalty)[1]

    if start == "guess":
        guess = 0.1 * np.mean(r_diag) / np.mean(qtq_diag)
        start = 16.0 ** round(math.log(guess, 16)) if math.isfinite(guess) and guess > 0 else 1.0
    lo = hi = start
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
    g, residual = solve(root)
    while residual > s:
        root *= 1.0 - 1e-7
        evals += 1
        g, residual = solve(root)
    return g, root, residual, evals


def format_f0_csv_reference(frame_hop, values):
    """CSV text one row at a time: ``i * frame_hop`` and the value, 6 decimals."""
    lines = ["time_s,f0_hz"]
    lines.extend(f"{i * frame_hop:.6f},{v:.6f}" for i, v in enumerate(values))
    return ("\n".join(lines) + "\n").encode("utf-8")


def read_f0_csv_reference(path):
    """The CSV reader one line at a time; returns (frame_hop, values, recording_id).

    Raises ``CsvFormatError`` with the same message and line as the library;
    an error about a data row names the file line the row is on, blank lines
    counted. The time column must start at 0. The hop is the first time step when it safely reproduces every 6-decimal
    timestamp, else the middle of the hops that do, found row by row; when
    that range is narrower than float error, the double next to its middle
    that rewrites every timestamp exactly.
    """
    from pathlib import Path

    from f0priv.trajectory import CsvFormatError

    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines:
        raise CsvFormatError("missing header", line=1)
    if lines[0].strip() != "time_s,f0_hz":
        raise CsvFormatError(f"expected header {'time_s,f0_hz'!r}, got {lines[0]!r}", line=1)
    times, values, row_lines = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise CsvFormatError(f"expected 2 columns, got {len(fields)}", line=lineno)
        try:
            t = float(fields[0])
            v = float(fields[1])
        except ValueError as exc:
            raise CsvFormatError(str(exc), line=lineno) from None
        times.append(t)
        values.append(v)
        row_lines.append(lineno)
    if not values:
        raise CsvFormatError("empty trajectory: no data rows", line=len(lines))
    if times[0] != 0.0:
        raise CsvFormatError(f"time column starts at {times[0]:g} s, not 0", line=row_lines[0])
    if len(times) < 2:
        raise CsvFormatError("cannot infer frame hop from a single row", line=row_lines[0])
    first = times[1] - times[0]
    if first <= 0:
        raise CsvFormatError(f"non-increasing time column (hop {first:g})", line=row_lines[1])
    for i in range(1, len(times)):
        if not abs(times[i] - times[i - 1] - first) <= 2e-6:
            raise CsvFormatError("non-uniform time steps", line=row_lines[i])
    lo, hi = -math.inf, math.inf
    for i in range(1, len(times)):
        lo = max(lo, (times[i] - times[0] - 5e-7) / i)
        hi = min(hi, (times[i] - times[0] + 5e-7) / i)
    margin = 1e-14 * first
    if lo + margin <= first <= hi - margin:
        return first, values, path.stem
    mid = (lo + hi) / 2
    if abs(hi - lo) <= 2 * margin:
        for nudge in (0, 1, -1, 2, -2):
            hop = mid + nudge * math.ulp(mid)
            if all(float(f"{i * hop:.6f}") == t for i, t in enumerate(times)):
                return hop, values, path.stem
    return mid, values, path.stem


def validate_reference(frame_hop, values):
    """``trajectory.validate``'s problems, one frame at a time in frame order.

    The hop, last-frame and empty checks come first; then each frame that is
    neither 0 nor within 40-128000 Hz is named as non-finite, negative or
    past a bound. A value that :g would print as its bound is printed in full.
    """
    problems = []
    n = len(values)
    last = (n - 1) * frame_hop
    if math.isnan(frame_hop) or frame_hop < 1e-6 or frame_hop == math.inf:
        problems.append(f"frame_hop must be finite and at least 1e-06 s, got {frame_hop}")
    elif last >= 2.0**31:
        problems.append(f"last frame must lie before 2147483648 s, got {last} s")
    if n == 0:
        return problems + ["empty trajectory"]
    for i, v in enumerate(values):
        v = float(v)
        if math.isnan(v) or math.isinf(v):
            problems.append(f"non-finite at frame {i}")
        elif v < 0.0:
            problems.append(f"negative value {v:g} at frame {i}")
        elif v < 40.0 and v != 0.0:
            shown = repr(v) if f"{v:g}" == "40" else f"{v:g}"
            problems.append(f"voiced value < 40 Hz at frame {i}: {shown}")
        elif v > 128000.0:
            shown = repr(v) if f"{v:g}" == "128000" else f"{v:g}"
            problems.append(f"voiced value > 128000 Hz at frame {i}: {shown}")
    return problems


def stats_reference(frame_hop, values):
    """``trajectory.stats``'s six fields in its field order, by the formula it
    used before it shared one sum of squared deviations between the variance
    and the skewness: ``np.var(ddof=1)``, and ``np.mean(d**2)`` for m2."""
    values = np.asarray(values, dtype=np.float64)
    mask = values > 0.0
    voiced = values[mask]
    fraction = float(voiced.size / values.size) if values.size else 0.0
    if voiced.size < 3:
        return (None, None, None, None, None, fraction)
    log_f0 = np.log(voiced)
    constant = np.ptp(log_f0) == 0.0
    if constant:
        skew = 0.0
    else:
        n = log_f0.size
        d = log_f0 - np.mean(log_f0)
        m2 = np.mean(d**2)
        g1 = np.mean(d**3) / m2**1.5
        skew = float(g1 * np.sqrt(n * (n - 1)) / (n - 2))
    both = mask[:-1] & mask[1:]
    deltas = np.diff(values)[both]
    rising = deltas[deltas > 0.0]
    rise = 0.0 if rising.size == 0 else float(np.mean(rising) / frame_hop)
    return (
        float(np.mean(voiced)),
        float(np.mean(log_f0)),
        0.0 if constant else float(np.var(log_f0, ddof=1)),
        skew,
        rise,
        fraction,
    )
