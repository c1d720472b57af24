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

import hashlib
import math
from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from . import spline
from .trajectory import VOICED_MIN_HZ, F0Trajectory, validate, voiced_mean

KINDS = (
    "voiced-flat",
    "all-flat",
    "smoothing-spline",
    "modulated-same-1",
    "modulated-same-2",
    "modulated-different",
    "random-walk-weak",
    "random-walk-strong",
    "shift-and-scale",
)

ROLES = ("enrollment", "trial")

# Prime carrier pairs; sums and differences stay inside the 3-50 Hz band
# where temporal scales correlate most with speaker identity.
SAME_1_FREQS = (5.0, 11.0)
SAME_2_FREQS = (3.0, 7.0)
DIFFERENT_FREQS = {"enrollment": SAME_1_FREQS, "trial": SAME_2_FREQS}

WALK_STRENGTHS = {"random-walk-weak": 1, "random-walk-strong": 2}

MODULATION_BAND_HZ = (3.0, 50.0)


class SpecError(ValueError):
    """Raised for invalid modifier specifications."""


@dataclass(frozen=True)
class ModifierSpec:
    """Which modification to apply, with its parameters.

    ``role`` is consumed only by ``modulated-different`` (enrollment and
    trial halves of a corpus get different carrier pairs). ``seed`` is
    required for the random-walk kinds. ``target_mean_hz``/``target_std_hz``
    are required for ``shift-and-scale``. ``f1_hz``/``f2_hz`` override the
    built-in carrier pair of the modulated kinds and ``strength`` the walk
    strength; both exist for command-line experimentation and default to the
    published values.
    """

    kind: str
    role: str | None = None
    seed: int | None = None
    target_mean_hz: float | None = None
    target_std_hz: float | None = None
    f1_hz: float | None = None
    f2_hz: float | None = None
    strength: int | None = None

    def validated(self) -> "ModifierSpec":
        if self.kind not in KINDS:
            raise SpecError(f"unknown kind {self.kind!r}; choose from {', '.join(KINDS)}")
        if self.seed is not None and (
            not isinstance(self.seed, Integral) or isinstance(self.seed, bool)
        ):
            raise SpecError(f"seed must be an integer, got {self.seed!r}")
        for name in ("target_mean_hz", "target_std_hz", "f1_hz", "f2_hz"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)
            ):
                raise SpecError(f"{name} must be a finite number, got {value!r}")
        if self.role is not None and self.role not in ROLES:
            raise SpecError(f"role must be one of {ROLES}, got {self.role!r}")
        if self.kind == "modulated-different" and self.role is None:
            raise SpecError("kind 'modulated-different' requires a role (enrollment or trial)")
        if self.kind in WALK_STRENGTHS:
            if self.seed is None:
                raise SpecError(f"kind {self.kind!r} requires a seed")
            if not 0 <= int(self.seed) < 2**64:
                raise SpecError("seed must fit in 64 unsigned bits")
        if self.kind == "shift-and-scale":
            if self.target_mean_hz is None or self.target_std_hz is None:
                raise SpecError("kind 'shift-and-scale' requires target_mean_hz and target_std_hz")
            if self.target_mean_hz <= 0 or self.target_std_hz <= 0:
                raise SpecError("shift-and-scale targets must be positive")
        if (self.f1_hz is None) != (self.f2_hz is None):
            raise SpecError("f1_hz and f2_hz must be given together")
        if self.f1_hz is not None:
            if self.f1_hz <= 0 or self.f2_hz <= 0 or self.f1_hz == self.f2_hz:
                raise SpecError("carrier frequencies must be positive and distinct")
        if self.strength is not None and (
            not isinstance(self.strength, Integral)
            or isinstance(self.strength, bool)
            or self.strength not in (1, 2)
        ):
            raise SpecError(f"strength must be 1 (weak) or 2 (strong), got {self.strength!r}")
        return self

    def for_role(self, role: str) -> "ModifierSpec":
        return replace(self, role=role)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "role": self.role,
            "seed": self.seed,
            "target_mean_hz": self.target_mean_hz,
            "target_std_hz": self.target_std_hz,
            "f1_hz": self.f1_hz,
            "f2_hz": self.f2_hz,
            "strength": self.strength,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModifierSpec":
        unknown = set(data) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise SpecError(f"unknown modifier keys: {sorted(unknown)}")
        if "kind" not in data:
            raise SpecError("modifier requires a kind")
        return cls(**data).validated()


def post_rules(traj: F0Trajectory, voiced_before: np.ndarray | None = None) -> F0Trajectory:
    """Force impossible pitch values and previously unvoiced frames to 0.

    ``voiced_before`` is the voicing mask prior to the modification; frames
    unvoiced there are zeroed regardless of what the modification produced.
    Values below 40 Hz (including negatives) become unvoiced either way.
    """
    values = np.array(traj.values, copy=True)
    if voiced_before is not None:
        values[~np.asarray(voiced_before, dtype=bool)] = 0.0
    values[values < VOICED_MIN_HZ] = 0.0
    return traj.with_values(values)


def flatten_voiced(traj: F0Trajectory) -> F0Trajectory:
    """Set every voiced frame to the recording's voiced F0 mean."""
    mean = voiced_mean(traj)
    values = np.array(traj.values, copy=True)
    mask = traj.voiced_mask
    values[mask] = mean
    return post_rules(traj.with_values(values), voiced_before=mask)


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
    values = np.array(traj.values, copy=True)
    values[mask] = mean + (values[mask] - mean) * factor[mask]
    return post_rules(traj.with_values(values), voiced_before=mask)


def derive_recording_seed(seed: int, recording_id: str) -> np.random.SeedSequence:
    """Per-recording seed: the user seed mixed with a stable id hash.

    Keeps corpus runs reproducible while giving every recording its own
    walk (a platform-independent hash; Python's builtin is salted).
    """
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
    values = np.array(traj.values, copy=True)
    values[mask] = values[mask] * (2.0 + strength * walk[mask]) / 2.0
    return post_rules(traj.with_values(values), voiced_before=mask)


def smoothing_spline_modifier(traj: F0Trajectory) -> F0Trajectory:
    """Replace voiced frames by a smoothing spline fit through them.

    The spline is fit over (voiced times, voiced values) with the default
    residual target (one per sample); unvoiced frames are untouched.
    """
    mask = traj.voiced_mask
    n_voiced = int(mask.sum())
    if n_voiced < 4:
        raise ValueError(f"smoothing spline needs >= 4 voiced frames, got {n_voiced}")
    times = traj.times[mask]
    model = spline.fit(times, traj.values[mask], s=float(n_voiced))
    values = np.array(traj.values, copy=True)
    values[mask] = model.fitted
    return post_rules(traj.with_values(values), voiced_before=mask)


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
    mask = traj.voiced_mask
    values = np.array(traj.values, copy=True)
    values[mask] = target_std_hz / src_std * (values[mask] - src_mean) + target_mean_hz
    return post_rules(traj.with_values(values), voiced_before=mask)


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
    cur_mean, cur_std = _voiced_moments(modified)
    mask = modified.voiced_mask
    values = np.array(modified.values, copy=True)
    values[mask] = source_std_hz / cur_std * (values[mask] - cur_mean) + source_mean_hz
    return post_rules(modified.with_values(values), voiced_before=mask)


def apply(spec: ModifierSpec, traj: F0Trajectory) -> F0Trajectory:
    """Apply one modification; output keeps length, hop and recording id.

    Pure in (spec, trajectory); the random-walk kinds derive their generator
    from (spec.seed, recording id) so corpora are reproducible while every
    recording gets a unique walk.
    """
    spec.validated()
    problems = validate(traj)
    if problems:
        raise ValueError(f"invalid trajectory {traj.recording_id!r}: " + "; ".join(problems))

    kind = spec.kind
    if kind == "voiced-flat":
        return flatten_voiced(traj)
    if kind == "all-flat":
        return flatten_all(traj)
    if kind == "smoothing-spline":
        return smoothing_spline_modifier(traj)
    if kind in ("modulated-same-1", "modulated-same-2", "modulated-different"):
        if spec.f1_hz is not None:
            f1, f2 = spec.f1_hz, spec.f2_hz
        elif kind == "modulated-same-1":
            f1, f2 = SAME_1_FREQS
        elif kind == "modulated-same-2":
            f1, f2 = SAME_2_FREQS
        else:
            f1, f2 = DIFFERENT_FREQS[spec.role]
        return modulate(traj, f1, f2)
    if kind in WALK_STRENGTHS:
        strength = spec.strength if spec.strength is not None else WALK_STRENGTHS[kind]
        seed = derive_recording_seed(spec.seed, traj.recording_id)
        return random_walk_modulate(traj, strength, seed)
    if kind == "shift-and-scale":
        return shift_and_scale(traj, spec.target_mean_hz, spec.target_std_hz)
    raise SpecError(f"unhandled kind {kind!r}")
