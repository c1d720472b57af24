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


def track_reference(audio, cfg):
    """The pitch tracker one frame at a time; returns (values, frame_hop).

    Same arithmetic as ``pitch.extract_f0`` in the order it was first
    written, so the blocked tracker must match it bit for bit.
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
    lag_max = min(int(np.floor(sr / cfg.f_min)), frame_len - 2)
    if lag_max <= lag_min:
        raise ValueError("frame too short for the requested f_min")
    taus = np.arange(lag_min - 1, lag_max + 2)
    window = np.hanning(frame_len)
    nfft = 1 << int(np.ceil(np.log2(2 * frame_len)))
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
