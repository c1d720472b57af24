"""Synthetic signals, trajectories and speaker corpora for tests and demos.

Everything takes an explicit seed or generator, so corpora are reproducible
down to the byte.
"""

import numpy as np

from .evaluation import Recording, SpeakerCorpus
from .pitch import AudioBuffer
from .trajectory import F0Trajectory


def tone(frequency: float, duration: float, sample_rate: int = 16000, amplitude: float = 0.5) -> AudioBuffer:
    """A pure sine tone."""
    t = np.arange(int(round(duration * sample_rate))) / sample_rate
    return AudioBuffer(sample_rate, amplitude * np.sin(2.0 * np.pi * frequency * t))


def voicing_mask(rng: np.random.Generator, n_frames: int, voiced_fraction: float = 0.8) -> np.ndarray:
    """Random voiced/unvoiced mask with realistic run structure.

    A two-state Markov chain whose stationary voiced probability equals
    ``voiced_fraction``; runs average ~20 frames voiced.
    """
    stay_voiced = 0.95
    stay_unvoiced = 1.0 - (1.0 - stay_voiced) * voiced_fraction / max(1e-9, 1.0 - voiced_fraction)
    stay_unvoiced = min(max(stay_unvoiced, 0.0), 0.999)
    mask = np.empty(n_frames, dtype=bool)
    state = rng.random() < voiced_fraction
    for i in range(n_frames):
        mask[i] = state
        stay = stay_voiced if state else stay_unvoiced
        if rng.random() >= stay:
            state = not state
    return mask


def random_trajectory(
    rng: np.random.Generator,
    n_frames: int = 200,
    frame_hop: float = 0.010,
    f0_low: float = 90.0,
    f0_high: float = 300.0,
    voiced_fraction: float = 0.8,
    recording_id: str = "synthetic",
) -> F0Trajectory:
    """A smooth random pitch contour with unvoiced gaps, always valid.

    The voiced part is a base frequency plus two slow sinusoids plus mild
    jitter, kept inside [f0_low, f0_high].
    """
    base = rng.uniform(f0_low + 20.0, f0_high - 40.0)
    t = np.arange(n_frames) * frame_hop
    depth1 = rng.uniform(5.0, 15.0)
    depth2 = rng.uniform(2.0, 8.0)
    contour = (
        base
        + depth1 * np.sin(2.0 * np.pi * rng.uniform(0.5, 2.0) * t + rng.uniform(0, 2 * np.pi))
        + depth2 * np.sin(2.0 * np.pi * rng.uniform(2.0, 6.0) * t + rng.uniform(0, 2 * np.pi))
        + rng.normal(0.0, 1.0, n_frames)
    )
    contour = np.clip(contour, f0_low, f0_high)
    values = np.where(voicing_mask(rng, n_frames, voiced_fraction), contour, 0.0)
    if not (values > 0).any():
        values[n_frames // 2] = base  # keep at least one voiced frame
    return F0Trajectory(frame_hop=frame_hop, values=values, recording_id=recording_id)


def _standardized_skewnorm(rng: np.random.Generator, shape: float, size: int) -> np.ndarray:
    # Zero-mean unit-variance skew-normal samples with shape parameter a, drawn
    # as scipy.stats.skewnorm draws them: the same values and generator state.
    delta = shape / np.sqrt(1.0 + shape**2)
    mean = delta * np.sqrt(2.0 / np.pi)
    std = np.sqrt(1.0 - 2.0 * delta**2 / np.pi)
    u0 = rng.normal(size=size)
    v = rng.normal(size=size)
    u1 = delta * u0 + v * np.sqrt(1.0 - delta**2)
    return (np.where(u0 >= 0, u1, -u1) - mean) / std


def speaker_corpus(
    n_speakers: int = 20,
    n_enroll: int = 3,
    n_trial: int = 3,
    n_frames: int = 300,
    frame_hop: float = 0.010,
    seed: int = 0,
) -> SpeakerCorpus:
    """A corpus whose speakers differ mostly in log-F0 spread and skewness.

    Speaker log-F0 centers are drawn close together while the per-speaker
    spread and skew-normal shape vary widely, so the raw corpus is
    discriminated primarily by the variance and skewness statistics. All
    values stay comfortably above the 40 Hz floor.
    """
    rng = np.random.default_rng(seed)
    recordings = []
    for s in range(n_speakers):
        mu = rng.normal(np.log(150.0), 0.06)
        sigma = rng.uniform(0.06, 0.25)
        shape = rng.uniform(-10.0, 10.0)
        for k in range(n_enroll + n_trial):
            split = "enrollment" if k < n_enroll else "trial"
            z = _standardized_skewnorm(rng, shape, n_frames)
            values = np.exp(mu + sigma * z)
            values = np.maximum(values, 42.0)
            values[~voicing_mask(rng, n_frames, 0.8)] = 0.0
            rid = f"spk{s:02d}_rec{k}"
            recordings.append(
                Recording(
                    speaker_id=f"spk{s:02d}",
                    recording_id=rid,
                    split=split,
                    trajectory=F0Trajectory(frame_hop, values, rid),
                )
            )
    return SpeakerCorpus(tuple(recordings))
