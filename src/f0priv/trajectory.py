"""F0 trajectory data model, statistics and CSV I/O.

A trajectory is a uniformly sampled pitch contour in Hz. The in-band value
0.0 marks unvoiced frames; voiced frames carry values from 40 Hz to
128 kHz (anything produced below 40 Hz is treated as an impossible pitch and
mapped back to unvoiced by the modifier post-rules).
"""

import dataclasses
import math
from functools import lru_cache
from numbers import Real
from pathlib import Path

import numpy as np

# Pitch values below this are not plausible F0 and are forced to unvoiced.
VOICED_MIN_HZ = 40.0
# The tracker's highest F0: read_wav's highest rate (192 kHz) over its shortest
# lag, 2 samples less the half sample of the parabolic refinement.
VOICED_MAX_HZ = 128000.0
FRAME_HOP_MIN_S = 1e-6  # the resolution of the CSV's 6-decimal timestamps
# Below this time (about 68 years) a timestamp parses back within 1.2e-7 s,
# so the reader's 2e-6 s uniformity check holds for every written column.
TIME_MAX_S = 2.0**31

CSV_HEADER = "time_s,f0_hz"


def finite_number(value) -> bool:
    """A real number other than a bool that is finite as a float.

    An integer beyond float range, as JSON allows, is not: ``abs(v) < inf``
    holds for it, and ``math.isfinite`` raises ``OverflowError``.
    """
    if not isinstance(value, Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


class NoVoicedFramesError(ValueError):
    """Raised when an operation needs voiced frames and there are none."""


class CsvFormatError(ValueError):
    """Raised on malformed trajectory CSV input. Carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclasses.dataclass(frozen=True)
class F0Trajectory:
    """Uniformly sampled pitch contour; 0.0 encodes unvoiced frames.

    The constructor does not enforce value-level invariants so that broken
    data can still be loaded and inspected; use :func:`validate` to get a
    report of violations.
    """

    frame_hop: float
    values: np.ndarray
    recording_id: str = ""

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @property
    def n_frames(self) -> int:
        return len(self.values)

    @property
    def voiced_mask(self) -> np.ndarray:
        return self.values > 0.0

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_frames) * self.frame_hop

    def with_values(self, values: np.ndarray) -> "F0Trajectory":
        """Same frame grid and id, new pitch values."""
        return F0Trajectory(self.frame_hop, values, self.recording_id)


@dataclasses.dataclass(frozen=True)
class F0Stats:
    """Speaker-identifying statistics of one recording.

    All fields except ``voiced_fraction`` are ``None`` when the recording
    has fewer than 3 voiced frames (too few for a defined skewness).
    Conventions, fixed: ``log_f0_var`` is the unbiased sample variance and
    ``log_f0_skew`` the bias-corrected sample skewness of ln(F0) over voiced
    frames; both are 0 for a constant voiced contour.
    """

    voiced_mean_hz: float | None
    log_f0_mean: float | None
    log_f0_var: float | None
    log_f0_skew: float | None
    rise_rate_hz_s: float | None
    voiced_fraction: float

    @property
    def complete(self) -> bool:
        return all(getattr(self, name) is not None for name in self.FIELD_ORDER)

    def as_vector(self) -> np.ndarray:
        """The six statistics as a fixed-order vector; absent fields raise."""
        if not self.complete:
            raise ValueError("statistics vector undefined: absent fields present")
        return np.array([getattr(self, name) for name in self.FIELD_ORDER])

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELD_ORDER}


# The order of the statistics in a vector and in the stats JSON.
F0Stats.FIELD_ORDER = tuple(f.name for f in dataclasses.fields(F0Stats))


def validate(traj: F0Trajectory) -> list[str]:
    """Check trajectory invariants; returns a list of violations (empty = valid).

    Reports, never raises: a frame hop below 1e-6 s or infinite, a last frame
    at or beyond ``TIME_MAX_S``, empty contour, non-finite values, negative
    values and voiced values below 40 Hz or above 128 kHz, each with the
    offending frame index. Value problems come in frame order.
    """
    problems: list[str] = []
    last = (traj.n_frames - 1) * traj.frame_hop
    if not FRAME_HOP_MIN_S <= traj.frame_hop < np.inf:
        problems.append(f"frame_hop must be finite and at least {FRAME_HOP_MIN_S:g} s, got {traj.frame_hop}")
    elif last >= TIME_MAX_S:
        problems.append(f"last frame must lie before {TIME_MAX_S:.0f} s, got {last} s")
    if traj.n_frames == 0:
        problems.append("empty trajectory")
        return problems
    values = traj.values
    # NaN and +-inf lie outside the range too, so one mask finds every bad frame.
    in_range = (values == 0.0) | ((values >= VOICED_MIN_HZ) & (values <= VOICED_MAX_HZ))
    for i in np.flatnonzero(~in_range):
        v = values[i]
        if not math.isfinite(v):
            problems.append(f"non-finite at frame {i}")
        elif v < 0.0:
            problems.append(f"negative value {v:g} at frame {i}")
        else:
            bound, side = (VOICED_MIN_HZ, "<") if v < VOICED_MIN_HZ else (VOICED_MAX_HZ, ">")
            # :g keeps 6 digits, so a value just past the bound would read as the bound.
            shown = repr(float(v)) if f"{v:g}" == f"{bound:g}" else f"{v:g}"
            problems.append(f"voiced value {side} {bound:g} Hz at frame {i}: {shown}")
    return problems


def require_valid(problems: list[str], context: str) -> None:
    """Raise ValueError for :func:`validate`'s ``problems``, unless there are none.

    The message names the first problem and how many follow it, so its
    length does not grow with the number of frames.
    """
    if problems:
        more = f" (and {len(problems) - 1} more)" if len(problems) > 1 else ""
        raise ValueError(f"{context}: {problems[0]}{more}")


def voiced_mean(traj: F0Trajectory) -> float:
    """Arithmetic mean of the voiced (> 0) frames in Hz."""
    voiced = traj.values[traj.voiced_mask]
    if voiced.size == 0:
        raise NoVoicedFramesError(f"no voiced frames in {traj.recording_id!r}")
    return float(np.mean(voiced))


def stats(traj: F0Trajectory) -> F0Stats:
    """Compute the six speaker-identifying statistics of a trajectory.

    Recordings with fewer than 3 voiced frames get ``None`` for every field
    except ``voiced_fraction`` rather than a misleading 0.
    """
    values, mask = traj.values, traj.voiced_mask
    voiced = values[mask]
    n = voiced.size
    fraction = float(n / traj.n_frames) if traj.n_frames else 0.0
    if n < 3:
        return F0Stats(None, None, None, None, None, fraction)
    # Mean of strictly positive F0 deltas between consecutive voiced frames,
    # in Hz per second; 0 when the contour never rises.
    deltas = np.diff(values)[mask[:-1] & mask[1:]]
    rising = deltas[deltas > 0.0]
    rise_rate = float(np.mean(rising) / traj.frame_hop) if rising.size else 0.0
    log_f0 = np.log(voiced)
    log_mean = np.mean(log_f0)
    # Float dust in the mean would give a constant contour skewness +-1.
    if np.ptp(log_f0) == 0.0:
        var = skew = 0.0
    else:
        # The unbiased variance and the bias-corrected (adjusted
        # Fisher-Pearson) skewness share one sum of squared deviations.
        # Distinct logs of doubles differ by ~1e-16 or more, so m2 stays far
        # above underflow.
        d = log_f0 - log_mean
        ss = np.sum(d * d)
        var = float(ss / (n - 1))
        m2 = ss / n
        skew = float(np.mean(d**3) / m2**1.5 * np.sqrt(n * (n - 1)) / (n - 2))
    return F0Stats(
        voiced_mean_hz=float(np.mean(voiced)),
        log_f0_mean=float(log_mean),
        log_f0_var=var,
        log_f0_skew=skew,
        rise_rate_hz_s=rise_rate,
        voiced_fraction=fraction,
    )


@lru_cache(maxsize=8)
def _template_slot(frame_hop: float) -> list:
    # Holds the hop's (template, row ends) for the longest contour so far.
    return [None]


def _csv_template(frame_hop: float, n: int) -> str:
    """The CSV of an n-frame contour with a "%.6f" slot for each value.

    Row i's time i * hop does not depend on n, so one template per hop
    serves every shorter contour as a prefix. Hops that are not positive
    are never cached: 0.0 and -0.0, or two NaNs, would share a slot but not
    their time columns.
    """
    slot = _template_slot(frame_hop) if frame_hop > 0 else [None]
    found = slot[0]
    if found is None or len(found[1]) <= n:
        rows = ["%.6f,%%.6f\n" % t for t in (np.arange(n) * frame_hop).tolist()]
        ends = np.cumsum([len(CSV_HEADER) + 1] + [len(row) for row in rows])
        found = slot[0] = (CSV_HEADER + "\n" + "".join(rows), ends)
    template, ends = found
    return template[: ends[n]]


def format_f0_csv(traj: F0Trajectory) -> bytes:
    """``time_s,f0_hz`` rows, 6 decimals, LF endings, UTF-8; 2 frames or more."""
    if traj.n_frames < 2:  # read_f0_csv infers the frame hop from the first two rows
        raise ValueError(f"a contour CSV needs 2 frames to give its frame hop, got {traj.n_frames}")
    template = _csv_template(traj.frame_hop, traj.n_frames)
    return (template % tuple(traj.values.tolist())).encode("utf-8")


def write_f0_csv(traj: F0Trajectory, path) -> None:
    """Write the trajectory to ``path`` as :func:`format_f0_csv` formats it."""
    Path(path).write_bytes(format_f0_csv(traj))


def _parse_rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # Data rows to (times, values, the file line of each row). numpy's reader
    # parses a file in which every row holds two fields it can read. The line
    # loop reads the rest: it skips blank lines, raises the line-numbered
    # errors and reads what float() accepts and numpy does not (1_0,
    # full-width digits). numpy reads "\x1f" as a space, which float()
    # refuses, so it gets only ASCII text without one; nor a file without
    # data, on which it warns.
    rows = lines[1:]
    body = "\n".join(rows)
    if body.isascii() and "\x1f" not in body and body.strip():
        try:
            fields = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if fields.shape == (len(rows), 2):
                return fields[:, 0], fields[:, 1], np.arange(2, len(rows) + 2)

    times, values, row_lines = [], [], []
    for lineno, line in enumerate(rows, start=2):
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
    return np.array(times), np.array(values), np.array(row_lines)


def _infer_hop(times: np.ndarray, row_lines: np.ndarray) -> float:
    # The hop that reproduces every 6-decimal timestamp: the i-th row was
    # written as i * hop rounded to 6 decimals, so hop lies in
    # [(t_i - t_0 - 5e-7) / i, (t_i - t_0 + 5e-7) / i] for every i. The
    # first step is kept when it lies inside all of them (an exact hop such
    # as 0.01 s keeps its bits); otherwise the middle of their intersection.
    first = float(times[1]) - float(times[0])
    if first <= 0:
        raise CsvFormatError(f"non-increasing time column (hop {first:g})", line=int(row_lines[1]))
    # A non-finite time fails the <= too, so it counts as non-uniform.
    with np.errstate(invalid="ignore"):
        uniform = np.abs(times[1:] - times[:-1] - first) <= 2e-6
    if not uniform.all():
        raise CsvFormatError("non-uniform time steps", line=int(row_lines[np.argmin(uniform) + 1]))
    span = times[1:] - times[0]
    index = np.arange(1.0, len(times))
    lo = float(((span - 5e-7) / index).max())
    hi = float(((span + 5e-7) / index).min())
    # lo, hi and each i * hop carry a few ulps of float error; a hop farther
    # than this inside [lo, hi] rewrites every timestamp as it was read.
    margin = 1e-14 * first
    if lo + margin <= first <= hi - margin:
        return first
    mid = lo / 2 + hi / 2  # (lo + hi) / 2 overflows near the largest double
    if abs(hi - lo) <= 2 * margin:
        # The hop sits on a decimal tie (k / 16000 s for odd k, say), where
        # only a double or two next to mid rewrites the column unchanged.
        for hop in mid + np.spacing(mid) * np.array([0, 1, -1, 2, -2]):
            written = format_f0_csv(F0Trajectory(float(hop), np.zeros(len(times))))
            if np.array_equal(_parse_rows(written.decode().splitlines())[0], times):
                return float(hop)
    return mid


def read_f0_csv(path, recording_id: str | None = None) -> F0Trajectory:
    """Read a trajectory CSV written by :func:`write_f0_csv`.

    The time column must start at 0. The frame hop is inferred from it,
    which needs at least two rows. The inferred hop reproduces every
    6-decimal timestamp, so writing the trajectory again gives the same time
    column. The recording id defaults to the file stem.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise CsvFormatError("missing header", line=1)
    if lines[0].strip() != CSV_HEADER:
        raise CsvFormatError(f"expected header {CSV_HEADER!r}, got {lines[0]!r}", line=1)

    times, values, row_lines = _parse_rows(lines)
    if not values.size:
        raise CsvFormatError("empty trajectory: no data rows", line=len(lines))
    # A trajectory has no time offset, so a shifted column would be lost.
    if times[0] != 0.0:
        raise CsvFormatError(f"time column starts at {times[0]:g} s, not 0", line=int(row_lines[0]))
    if len(times) < 2:
        raise CsvFormatError("cannot infer frame hop from a single row", line=int(row_lines[0]))

    if recording_id is None:
        recording_id = path.stem
    return F0Trajectory(frame_hop=_infer_hop(times, row_lines), values=values, recording_id=recording_id)
