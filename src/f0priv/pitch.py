"""WAV ingestion and a deterministic autocorrelation pitch tracker.

The tracker is intentionally simple: per frame it removes DC, applies a
Hann window and computes the autocorrelation normalized by lag zero and by
the window's own autocorrelation, which cancels the taper-induced decay so
a sustained tone scores ~1 at its period regardless of lag. The first local
maximum clearing the voicing threshold is taken (scanning short lags first
avoids locking onto period multiples) and refined by parabolic
interpolation, which keeps pure-tone error well under the 2 Hz budget
across the speech F0 range.
"""

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .trajectory import VOICED_MIN_HZ, F0Trajectory

SAMPLE_RATE_RANGE = (8000, 192000)

# Frames tracked per array pass. Larger blocks amortize the per-call numpy
# overhead further but grow the temporaries: at 192 kHz a 64-frame block
# holds about 20 MB.
BLOCK_FRAMES = 64


class WavReadError(ValueError):
    """Raised for files read_wav cannot parse (codec, truncation, structure)."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio normalized to [-1, 1]."""

    sample_rate: int
    samples: np.ndarray

    def __post_init__(self):
        arr = np.array(self.samples, dtype=np.float64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class PitchConfig:
    frame_len: float = 0.025
    frame_hop: float = 0.010
    f_min: float = 60.0
    f_max: float = 400.0
    voicing_threshold: float = 0.45

    def check(self, sample_rate: int) -> None:
        if not (VOICED_MIN_HZ <= self.f_min < self.f_max <= sample_rate / 2):
            raise ValueError(
                f"need {VOICED_MIN_HZ:g} <= f_min < f_max <= sample_rate/2, got "
                f"f_min={self.f_min}, f_max={self.f_max}, sample_rate={sample_rate}"
            )
        if not 0.0 < self.voicing_threshold < 1.0:
            raise ValueError(f"voicing_threshold must be in (0, 1), got {self.voicing_threshold}")
        if not 0.0 < self.frame_hop <= self.frame_len:
            raise ValueError("need 0 < frame_hop <= frame_len")


WAVE_FORMAT_PCM = 1
WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Bytes 2..15 of every KSDATAFORMAT_SUBTYPE GUID; bytes 0..1 hold the format tag.
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def _parse_fmt(chunk: bytes) -> tuple[int, int, int, int]:
    if len(chunk) < 16:
        raise WavReadError("truncated fmt chunk")
    audio_format, channels, sample_rate, _, _, bits = struct.unpack("<HHIIHH", chunk[:16])
    if audio_format == WAVE_FORMAT_EXTENSIBLE and len(chunk) >= 40:
        # cbSize, valid bits and channel mask precede the 16-byte SubFormat GUID.
        subformat = chunk[24:40]
        if subformat[2:] == _SUBFORMAT_GUID_TAIL:
            (audio_format,) = struct.unpack("<H", subformat[:2])
    return audio_format, channels, sample_rate, bits


def _pcm24(data: bytes) -> np.ndarray:
    # Each 3-byte sample goes into the top of an int32; the arithmetic shift
    # back sign-extends it.
    padded = np.zeros((len(data) // 3, 4), dtype=np.uint8)
    padded[:, 1:] = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
    return padded.view("<i4")[:, 0] >> 8


def read_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE file: 16- or 24-bit PCM or 32-bit IEEE float, mono or stereo.

    ``WAVE_FORMAT_EXTENSIBLE`` files are read by their PCM or float
    subformat. PCM samples are scaled by 1/32768 (16-bit) or 1/8388608
    (24-bit), so full-scale negative maps exactly to -1.0; stereo is
    downmixed by averaging; float samples are clipped into [-1, 1], and a
    NaN or infinite float sample is an error naming its index.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavReadError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack("<I", raw[pos + 4 : pos + 8])
        body = raw[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise WavReadError(f"{path}: truncated {chunk_id!r} chunk")
        if chunk_id == b"fmt ":
            fmt = _parse_fmt(body)
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are padded to even length

    if fmt is None:
        raise WavReadError(f"{path}: missing fmt chunk")
    if data is None:
        raise WavReadError(f"{path}: missing data chunk")
    audio_format, channels, sample_rate, bits = fmt

    if not SAMPLE_RATE_RANGE[0] <= sample_rate <= SAMPLE_RATE_RANGE[1]:
        raise WavReadError(f"{path}: sample rate {sample_rate} outside {SAMPLE_RATE_RANGE}")
    if channels not in (1, 2):
        raise WavReadError(f"{path}: {channels} channels unsupported (mono or stereo only)")
    if (audio_format, bits) == (WAVE_FORMAT_PCM, 16):
        scale = 1.0 / 32768.0
    elif (audio_format, bits) == (WAVE_FORMAT_PCM, 24):
        scale = 1.0 / 8388608.0
    elif (audio_format, bits) == (WAVE_FORMAT_IEEE_FLOAT, 32):
        scale = None
    else:
        raise WavReadError(
            f"{path}: unsupported codec (format tag {audio_format}, {bits} bits); "
            "only 16/24-bit PCM and 32-bit IEEE float are readable"
        )

    frame_bytes = bits // 8 * channels
    if len(data) == 0:
        raise WavReadError(f"{path}: zero-length data chunk")
    if len(data) % frame_bytes:
        raise WavReadError(f"{path}: data chunk is not a whole number of frames")

    if bits == 24:
        samples = _pcm24(data).astype(np.float64)
    else:
        samples = np.frombuffer(data, dtype="<i2" if bits == 16 else "<f4").astype(np.float64)
    if channels == 2:
        # Same bits as reshape(-1, 2).mean(axis=1), without the reduction.
        samples = (samples[0::2] + samples[1::2]) / 2.0
    if scale is not None:
        samples = samples * scale
    else:
        bad = np.flatnonzero(~np.isfinite(samples))  # np.clip would keep NaN
        if bad.size:
            raise WavReadError(f"{path}: non-finite float sample at index {bad[0]}")
        samples = np.clip(samples, -1.0, 1.0)
    return AudioBuffer(sample_rate=sample_rate, samples=samples)


def _autocorr(signal: np.ndarray, nfft: int) -> np.ndarray:
    # Along the last axis, so one call serves the window and a block of frames.
    spec = np.fft.rfft(signal, nfft)
    return np.fft.irfft(spec.real**2 + spec.imag**2, nfft)[..., : signal.shape[-1]]


def _block_f0(frames: np.ndarray, window, nfft, taus, window_ratio, threshold, sr) -> np.ndarray:
    """F0 of each row of ``frames`` (0 where unvoiced)."""
    frames = (frames - frames.mean(axis=1, keepdims=True)) * window
    acf = _autocorr(frames, nfft)
    values = np.zeros(len(frames))
    live = np.flatnonzero(acf[:, 0] >= 1e-12)  # silence stays unvoiced
    acf = acf[live]
    r = (acf[:, taus] / acf[:, :1]) / window_ratio
    # Local maxima above threshold, shortest lag first: the compensated
    # correlation is ~1 at every period multiple, so a global argmax would
    # be free to land an octave (or more) low.
    interior = r[:, 1:-1]
    peaks = (interior > r[:, :-2]) & (interior >= r[:, 2:]) & (interior >= threshold)
    voiced = np.flatnonzero(peaks.any(axis=1))
    k = peaks[voiced].argmax(axis=1) + 1
    r = r[voiced]
    before, at, after = (r[np.arange(len(r)), k + d] for d in (-1, 0, 1))
    curvature = before - 2.0 * at + after
    delta = np.zeros(len(r))
    np.divide(0.5 * (before - after), curvature, out=delta, where=curvature != 0.0)
    values[live[voiced]] = sr / (taus[k] + np.clip(delta, -0.5, 0.5))
    return values


def extract_f0(audio: AudioBuffer, cfg: PitchConfig | None = None, recording_id: str = "") -> F0Trajectory:
    """Track F0 over uniformly hopped frames; unvoiced frames become 0.

    Per frame: DC removal, Hann window, window-compensated normalized
    autocorrelation over the lags spanning [f_min, f_max]. The frame is
    voiced when a correlation peak reaches the voicing threshold; the first
    qualifying peak's lag, refined by parabolic interpolation, gives
    F0 = sample_rate / lag. Frames are processed ``BLOCK_FRAMES`` at a time
    as rows of one array, which gives the same values as one frame at a time.
    """
    if cfg is None:
        cfg = PitchConfig()
    sr = audio.sample_rate
    cfg.check(sr)
    frame_len = int(round(cfg.frame_len * sr))
    hop = int(round(cfg.frame_hop * sr))
    x = audio.samples
    if len(x) < frame_len:
        raise ValueError(f"audio shorter than one frame ({len(x)} < {frame_len} samples)")

    lag_min = max(2, int(np.ceil(sr / cfg.f_max)))
    # The parabolic refinement needs one neighbor past the extreme lags.
    lag_max = min(int(np.floor(sr / cfg.f_min)), frame_len - 2)
    if lag_max <= lag_min:
        raise ValueError("frame too short for the requested f_min")
    taus = np.arange(lag_min - 1, lag_max + 2)
    window = np.hanning(frame_len)
    # An nfft-point circular autocorrelation is exact up to lag nfft - frame_len,
    # so a power of two above frame_len + lag_max + 1 covers the largest lag in taus.
    nfft = 1 << (frame_len + lag_max + 1).bit_length()
    window_acf = _autocorr(window, nfft)
    window_ratio = window_acf[taus] / window_acf[0]

    frames = sliding_window_view(x, frame_len)[::hop]
    values = np.concatenate(
        [
            _block_f0(frames[i : i + BLOCK_FRAMES], window, nfft, taus, window_ratio,
                      cfg.voicing_threshold, sr)
            for i in range(0, len(frames), BLOCK_FRAMES)
        ]
    )
    values[values < VOICED_MIN_HZ] = 0.0
    return F0Trajectory(frame_hop=hop / sr, values=values, recording_id=recording_id)
