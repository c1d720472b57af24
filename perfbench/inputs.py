"""Seeded input generation for the benchmark workloads.

The generators use their own numpy code rather than ``f0priv.synth`` so
that a change to the package's synthesis helpers cannot silently change
what the benchmark measures. Every generator returns the in-memory values
exactly as a reader of the written files sees them (CSV values are rounded
to the 6 decimals they are written with), so the reference computation in
``reference.py`` starts from the same numbers as the program under test.
"""

import hashlib
import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HOP_S = 0.01
CSV_HEADER = "time_s,f0_hz"


@dataclass
class Wav:
    path: Path
    recording_id: str
    sample_rate: int
    samples: np.ndarray  # mono float64, exactly as a 16-bit/float reader decodes it
    duration_s: float


@dataclass
class Contour:
    path: Path
    recording_id: str
    values: np.ndarray  # Hz, 0 = unvoiced, rounded to 6 decimals


@dataclass
class InputSet:
    """Files of one workload plus what the reference computation needs."""

    files: list = field(default_factory=list)  # every written path
    wavs: list = field(default_factory=list)
    contours: list = field(default_factory=list)
    manifest: Path | None = None
    speakers: dict = field(default_factory=dict)  # recording_id -> (speaker, split)

    def byte_count(self) -> int:
        return sum(p.stat().st_size for p in self.files)

    def digest(self) -> str:
        h = hashlib.sha256()
        for p in sorted(self.files):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        return h.hexdigest()


def csv_text(values: np.ndarray, hop: float = HOP_S) -> str:
    lines = [CSV_HEADER]
    lines.extend(f"{i * hop:.6f},{v:.6f}" for i, v in enumerate(values))
    return "\n".join(lines) + "\n"


def _voicing(rng: np.random.Generator, n: int, mean_voiced: float, mean_unvoiced: float) -> np.ndarray:
    # Two-state Markov chain over frames: geometric run lengths with the
    # given means (in frames), starting in the voiced state.
    p_leave_v, p_leave_u = 1.0 / mean_voiced, 1.0 / mean_unvoiced
    flips = rng.random(n)
    mask = np.empty(n, dtype=bool)
    state = True
    for i in range(n):
        mask[i] = state
        if flips[i] < (p_leave_v if state else p_leave_u):
            state = not state
    return mask


def _smooth_noise(rng: np.random.Generator, n: int, phi: float) -> np.ndarray:
    # Unit-variance Gaussian AR(1) process.
    e = rng.standard_normal(n) * np.sqrt(1.0 - phi * phi)
    out = np.empty(n)
    acc = rng.standard_normal()
    for i in range(n):
        acc = phi * acc + e[i]
        out[i] = acc
    return out


def _speech_log_contour(rng: np.random.Generator, n: int, base_hz: float) -> np.ndarray:
    # Phrase declination, a few accent bumps and slow wander, in log-Hz.
    t = np.arange(n) / n
    log_f0 = np.log(base_hz) + 0.12 - 0.25 * t
    for _ in range(max(1, n // 150)):
        centre, width = rng.uniform(0, 1), rng.uniform(0.01, 0.04)
        log_f0 += rng.uniform(0.05, 0.2) * np.exp(-0.5 * ((t - centre) / width) ** 2)
    return log_f0 + 0.04 * _smooth_noise(rng, n, 0.97)


def _contour_values(voiced: np.ndarray, log_f0: np.ndarray) -> np.ndarray:
    # Frames below 50 Hz count as unvoiced, as a tracker would report them;
    # values are rounded to the 6 decimals the CSV carries.
    f0 = np.exp(log_f0)
    values = np.where(voiced & (f0 >= 50.0), f0, 0.0)
    return np.array([float(f"{v:.6f}") for v in values])


def _write_wav(path: Path, sample_rate: int, channels: np.ndarray, as_float: bool) -> None:
    # channels: (n_channels, n_samples) already in the stored sample type.
    n_ch = channels.shape[0]
    if as_float:
        payload = channels.T.astype("<f4").tobytes()
        fmt = struct.pack("<HHIIHHH", 3, n_ch, sample_rate, sample_rate * 4 * n_ch, 4 * n_ch, 32, 0)
        extra = b"fact" + struct.pack("<II", 4, channels.shape[1])
    else:
        payload = channels.T.astype("<i2").tobytes()
        fmt = struct.pack("<HHIIHH", 1, n_ch, sample_rate, sample_rate * 2 * n_ch, 2 * n_ch, 16)
        extra = b""
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt + extra
    body += b"data" + struct.pack("<I", len(payload)) + payload
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body)


def make_wavs(root: Path, seed: int, n_files: int = 24, n_float_stereo: int = 4) -> InputSet:
    """10 s harmonic tones following a known speech-like contour, with
    Markov voicing gaps and low background noise. Most files are 16 kHz
    16-bit mono; the last ``n_float_stereo`` are 44.1 kHz 32-bit float
    stereo. The length is fixed so that peak memory, set by the largest
    file, does not vary with the seed."""
    rng = np.random.default_rng([seed, 1])
    out = InputSet()
    root.mkdir(parents=True, exist_ok=True)
    for k in range(n_files):
        stereo = k >= n_files - n_float_stereo
        sr = 44100 if stereo else 16000
        duration = 10.0
        n_frames = int(duration / HOP_S)
        voiced = _voicing(rng, n_frames, mean_voiced=30.0, mean_unvoiced=10.0)
        f0 = np.exp(_speech_log_contour(rng, n_frames, rng.uniform(90.0, 240.0)))
        n_samples = int(duration * sr)
        frame_of_sample = np.minimum((np.arange(n_samples) / (sr * HOP_S)).astype(int), n_frames - 1)
        inst_f0 = np.interp(np.arange(n_samples), np.arange(n_frames) * sr * HOP_S, f0)
        phase = 2.0 * np.pi * np.cumsum(inst_f0) / sr
        gate = voiced[frame_of_sample].astype(float)
        ramp = int(0.004 * sr)  # short fades keep gate edges click-free
        gate = np.convolve(gate, np.ones(ramp) / ramp, mode="same")
        tone = sum(np.sin(h * phase) / h for h in range(1, 5))
        signal = 0.3 * gate * tone
        rid = f"utt{k:03d}"
        path = root / f"{rid}.wav"
        if stereo:
            chans = np.stack([signal + 0.003 * rng.standard_normal(n_samples) for _ in range(2)])
            chans = chans.astype(np.float32)
            _write_wav(path, sr, chans, as_float=True)
            decoded = np.clip(chans.T.astype(np.float64).mean(axis=1), -1.0, 1.0)
        else:
            pcm = np.round((signal + 0.003 * rng.standard_normal(n_samples)) * 32767.0)
            pcm = np.clip(pcm, -32768, 32767).astype(np.int16)
            _write_wav(path, sr, pcm[None, :], as_float=False)
            decoded = pcm.astype(np.float64) * (1.0 / 32768.0)
        out.files.append(path)
        out.wavs.append(Wav(path, rid, sr, decoded, n_samples / sr))
    return out


def make_contours(root: Path, seed: int, n_files: int = 300) -> InputSet:
    """Speech-like contour CSVs of ~1,000 frames with Markov voicing."""
    rng = np.random.default_rng([seed, 2])
    out = InputSet()
    root.mkdir(parents=True, exist_ok=True)
    for k in range(n_files):
        n = int(rng.integers(900, 1101))
        voiced = _voicing(rng, n, mean_voiced=25.0, mean_unvoiced=12.0)
        log_f0 = _speech_log_contour(rng, n, rng.uniform(80.0, 260.0))
        log_f0 += 0.01 * rng.standard_normal(n)
        values = _contour_values(voiced, log_f0)
        rid = f"c{k:04d}"
        path = root / f"{rid}.csv"
        path.write_text(csv_text(values), encoding="utf-8")
        out.files.append(path)
        out.contours.append(Contour(path, rid, values))
    return out


def make_corpus(root: Path, seed: int, n_speakers: int = 200, per_split: int = 3, n_frames: int = 300) -> InputSet:
    """A speaker corpus with a manifest: per speaker a log-F0 level, spread
    and skew (sinh-arcsinh transform of a smooth Gaussian process), plus
    frame-level jitter; ``per_split`` enrollment and trial CSVs each."""
    rng = np.random.default_rng([seed, 3])
    out = InputSet()
    root.mkdir(parents=True, exist_ok=True)
    entries = []
    for s in range(n_speakers):
        speaker = f"spk{s:03d}"
        level = np.log(rng.uniform(85.0, 250.0))
        spread = rng.uniform(0.04, 0.18)
        skew = rng.uniform(-0.8, 0.8)
        jitter = rng.uniform(0.005, 0.02)
        voicing = (rng.uniform(15.0, 40.0), rng.uniform(6.0, 15.0))
        for split in ("enrollment", "trial"):
            for r in range(per_split):
                n = int(rng.integers(n_frames - 30, n_frames + 31))
                g = _smooth_noise(rng, n, 0.9)
                z = np.sinh(np.arcsinh(g) + skew)
                log_f0 = level + spread * z + jitter * rng.standard_normal(n)
                voiced = _voicing(rng, n, *voicing)
                values = _contour_values(voiced, log_f0)
                rid = f"{speaker}-{split[0]}{r}"
                path = root / f"{rid}.csv"
                path.write_text(csv_text(values), encoding="utf-8")
                out.files.append(path)
                out.contours.append(Contour(path, rid, values))
                out.speakers[rid] = (speaker, split)
                entries.append(
                    {"speaker_id": speaker, "recording_id": rid, "split": split, "path": path.name}
                )
    out.manifest = root / "manifest.json"
    out.manifest.write_text(json.dumps({"entries": entries}, indent=1) + "\n", encoding="utf-8")
    out.files.append(out.manifest)
    return out
