"""The pitch-contour anonymization modifications.

Nine transforms over F0 trajectories: flattening the voiced segments or the
whole contour to the voiced mean, smoothing-spline replacement of the voiced
samples, quadrature-sinusoid modulation with fixed prime frequency pairs,
seeded random-walk modulation in two strengths, and the reversible
shift-and-scale baseline with its exact inverse.

Shared post-rules: frames unvoiced before a modification stay 0, and any
modified value below 40 Hz (including negatives) is set unvoiced. The
all-flat transform is the one exception and keeps its constant everywhere.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import spline
from .trajectory import (VOICED_MAX_HZ, VOICED_MIN_HZ, F0Trajectory, finite_number, require_valid, validate,
                         voiced_mean)

# Prime carrier pairs; sums and differences stay inside the 3-50 Hz band
# where temporal scales correlate most with speaker identity.
SAME_1_FREQS = (5.0, 11.0)
SAME_2_FREQS = (3.0, 7.0)
# modulated-different gives the two sides of a corpus different carrier
# pairs: each side is modified with its kind here.
SIDE_KINDS = {"enrollment": "modulated-same-1", "trial": "modulated-same-2"}

WALK_STRENGTHS = {"random-walk-weak": 1, "random-walk-strong": 2}


class SpecError(ValueError):
    """Raised for invalid modifier specifications."""


@dataclass(frozen=True)
class ModifierSpec:
    """Which modification to apply, with its parameters.

    ``seed`` is required for the random-walk kinds, ``target_mean_hz`` and
    ``target_std_hz`` for ``shift-and-scale``. Carrier pairs and walk
    strengths are fixed by the kind; :func:`modulate` takes other carriers
    directly, while :func:`random_walk_modulate` takes only the strengths
    the kinds use, 1 and 2. A spec is checked when it is built, and
    ``dataclasses.replace`` checks the copy, so every spec is valid.
    """

    kind: str
    seed: int | None = None
    target_mean_hz: float | None = None
    target_std_hz: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SpecError(f"unknown kind {self.kind!r}; choose from {', '.join(KINDS)}")
        if self.seed is not None and (
            not isinstance(self.seed, Integral) or isinstance(self.seed, bool)
        ):
            raise SpecError(f"seed must be an integer, got {self.seed!r}")
        for name in ("target_mean_hz", "target_std_hz"):
            value = getattr(self, name)
            if value is not None and not finite_number(value):
                raise SpecError(f"{name} must be a finite number, got {value!r}")
        if self.kind in WALK_STRENGTHS:
            if self.seed is None:
                raise SpecError(f"kind {self.kind!r} requires a seed")
            if not 0 <= int(self.seed) < 2**64:
                raise SpecError("seed must fit in 64 unsigned bits")
        if self.kind == "shift-and-scale":
            if self.target_mean_hz is None or self.target_std_hz is None:
                raise SpecError("kind 'shift-and-scale' requires target_mean_hz and target_std_hz")
            if not (0 < self.target_mean_hz <= VOICED_MAX_HZ and 0 < self.target_std_hz <= VOICED_MAX_HZ):
                raise SpecError(f"shift-and-scale targets must be positive and at most {VOICED_MAX_HZ:g} Hz")


def post_rules(traj: F0Trajectory, voiced_values) -> F0Trajectory:
    """``traj`` with ``voiced_values`` in its voiced frames and the post-rules applied.

    ``voiced_values`` are the modified values of ``traj``'s voiced frames
    (one per voiced frame, or one for all). Every other frame is 0, and so is
    any new value below 40 Hz (including negatives).
    """
    values = np.zeros(traj.n_frames)
    values[traj.voiced_mask] = voiced_values
    values[values < VOICED_MIN_HZ] = 0.0
    return traj.with_values(values)


def flatten_voiced(traj: F0Trajectory) -> F0Trajectory:
    """Set every voiced frame to the recording's voiced F0 mean."""
    return post_rules(traj, voiced_mean(traj))


def flatten_all(traj: F0Trajectory) -> F0Trajectory:
    """Set every frame, voiced or not, to the voiced F0 mean (no post-rules)."""
    mean = voiced_mean(traj)
    return traj.with_values(np.full(traj.n_frames, mean))


def modulate(traj: F0Trajectory, f1: float, f2: float) -> F0Trajectory:
    """Modulate the mean-centered contour with two quadrature sinusoids.

    With t = frame index * frame_hop (t = 0 at the first frame), carriers
    c1 = sin(2 pi f1 t) and c2 = sin(2 pi f2 t + pi/2), the voiced frames
    become

        mean + centered * (4 + 2 c1 + 2 c2 + c1 c2) / 4

    followed by the shared post-rules. The multiplier spans [-0.25, 2.25],
    so the post-rules may unvoice frames pushed below 40 Hz.
    """
    if f1 <= 0 or f2 <= 0 or f1 == f2:
        raise ValueError("carrier frequencies must be positive and distinct")
    mean = voiced_mean(traj)
    t = traj.times
    c1 = np.sin(2.0 * np.pi * f1 * t)
    c2 = np.sin(2.0 * np.pi * f2 * t + np.pi / 2.0)
    factor = (4.0 + 2.0 * c1 + 2.0 * c2 + c1 * c2) / 4.0
    mask = traj.voiced_mask
    return post_rules(traj, mean + (traj.values[mask] - mean) * factor[mask])


def derive_recording_seed(seed: int, recording_id: str) -> "np.random.SeedSequence":
    """Per-recording seed: the user seed mixed with a stable id hash.

    Keeps corpus runs reproducible while giving every recording its own
    walk (a platform-independent hash; Python's builtin is salted).
    """
    import hashlib  # here, like numpy.random, so only the walk kinds load it

    digest = hashlib.blake2b(recording_id.encode("utf-8"), digest_size=8).digest()
    rid_hash = int.from_bytes(digest, "little")
    return np.random.SeedSequence([int(seed), rid_hash])


def normalize_walk(raw: np.ndarray) -> np.ndarray:
    """Affinely map a raw walk so its extremes are exactly -1/2 and +1/2.

    A constant raw walk has no extremes to pin and maps to all zeros.
    """
    raw = np.asarray(raw, dtype=np.float64)
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        return np.zeros(len(raw))
    return (raw - lo) / (hi - lo) - 0.5


def generate_walk(length: int, seed) -> np.ndarray:
    """Seeded random-walk noise with extremes exactly at -1/2 and +1/2.

    Cumulative sum of standard-normal steps from a deterministic generator,
    then :func:`normalize_walk`; length 1 degenerates to [0].
    """
    if length < 1:
        raise ValueError("walk length must be >= 1")
    rng = np.random.default_rng(seed)
    return normalize_walk(np.cumsum(rng.standard_normal(length)))


def random_walk_modulate(traj: F0Trajectory, strength: int, seed) -> F0Trajectory:
    """Scale voiced frames by (2 + M r(t)) / 2 with a normalized walk r.

    Strength M = 1 keeps the multiplier within [0.75, 1.25] ('weak'),
    M = 2 within [0.5, 1.5] ('strong').
    """
    if strength not in (1, 2):
        raise ValueError(f"strength must be 1 or 2, got {strength}")
    walk = generate_walk(traj.n_frames, seed)
    mask = traj.voiced_mask
    return post_rules(traj, traj.values[mask] * (2.0 + strength * walk[mask]) / 2.0)


def smoothing_spline_modifier(traj: F0Trajectory) -> F0Trajectory:
    """Replace voiced frames by a smoothing spline fit through them.

    The spline is fit over (voiced times, voiced values) with the default
    residual target (one per sample); unvoiced frames are untouched.
    """
    mask = traj.voiced_mask
    n_voiced = int(mask.sum())
    if n_voiced < 4:
        raise ValueError(f"smoothing spline needs >= 4 voiced frames, got {n_voiced}")
    return post_rules(traj, spline.fit(traj.times[mask], traj.values[mask]).fitted)


def _voiced_moments(traj: F0Trajectory) -> tuple[float, float]:
    # Population mean/std over voiced frames (what the affine map reproduces
    # exactly on its own output).
    voiced = traj.values[traj.voiced_mask]
    if voiced.size < 2:
        raise ValueError("shift-and-scale needs at least 2 voiced frames")
    mean = float(np.mean(voiced))
    std = float(np.std(voiced))
    if std == 0.0:
        raise ValueError("zero source std: cannot scale a constant contour")
    return mean, std


def shift_and_scale(traj: F0Trajectory, target_mean_hz: float, target_std_hz: float) -> F0Trajectory:
    """Affinely map voiced frames to the target mean and std (in Hz)."""
    if target_mean_hz <= 0 or target_std_hz <= 0:
        raise ValueError("targets must be positive")
    src_mean, src_std = _voiced_moments(traj)
    voiced = traj.values[traj.voiced_mask]
    return post_rules(traj, target_std_hz / src_std * (voiced - src_mean) + target_mean_hz)


def invert_shift_and_scale(
    modified: F0Trajectory, source_mean_hz: float, source_std_hz: float
) -> F0Trajectory:
    """Map a shifted-and-scaled contour back to the original statistics.

    Exact inverse of :func:`shift_and_scale` as long as no frame was clipped
    by the post-rules: the modified contour carries the target moments
    exactly, so mapping them back to the source moments recovers the input.
    """
    if source_mean_hz <= 0 or source_std_hz <= 0:
        raise ValueError("source statistics must be positive")
    return shift_and_scale(modified, source_mean_hz, source_std_hz)


def _walk(spec: ModifierSpec, traj: F0Trajectory) -> F0Trajectory:
    seed = derive_recording_seed(spec.seed, traj.recording_id)
    return random_walk_modulate(traj, WALK_STRENGTHS[spec.kind], seed)


# Every kind, in the order the CLI lists them, with its transform of (spec, trajectory).
_TRANSFORMS = {
    "voiced-flat": lambda spec, traj: flatten_voiced(traj),
    "all-flat": lambda spec, traj: flatten_all(traj),
    "smoothing-spline": lambda spec, traj: smoothing_spline_modifier(traj),
    "modulated-same-1": lambda spec, traj: modulate(traj, *SAME_1_FREQS),
    "modulated-same-2": lambda spec, traj: modulate(traj, *SAME_2_FREQS),
    "modulated-different": None,  # a kind of the corpus sides, see SIDE_KINDS
    "random-walk-weak": _walk,
    "random-walk-strong": _walk,
    "shift-and-scale": lambda spec, traj: shift_and_scale(traj, spec.target_mean_hz, spec.target_std_hz),
}
KINDS = tuple(_TRANSFORMS)
NO_SIDE = ("kind 'modulated-different' modifies the two sides of a corpus: "
           f"{SIDE_KINDS['enrollment']} the enrollment side, {SIDE_KINDS['trial']} the trial side; "
           "a single contour takes one of those two kinds")


def apply(spec: ModifierSpec, traj: F0Trajectory) -> F0Trajectory:
    """Apply one modification; output keeps length, hop and recording id.

    Pure in (spec, trajectory); the random-walk kinds derive their generator
    from (spec.seed, recording id) so corpora are reproducible while every
    recording gets a unique walk. Input and output are both checked with
    :func:`validate`: a modification that leaves the valid range (a
    modulation of a 100 kHz contour, say) raises ``output failed validation``.
    A single contour has no corpus side, so ``modulated-different`` raises
    a ValueError (``NO_SIDE``).
    """
    if spec.kind == "modulated-different":
        raise ValueError(NO_SIDE)
    require_valid(validate(traj), "invalid trajectory")
    modified = _TRANSFORMS[spec.kind](spec, traj)
    require_valid(validate(modified), "output failed validation")
    return modified
