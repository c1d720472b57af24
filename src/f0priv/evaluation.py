"""Speaker-linkability scoring of F0 statistics and the metric suite.

A deterministic verification backend: each speaker is enrolled as the mean
statistics vector of their enrollment recordings, trials are scored by
negative Euclidean distance in a z-normalized statistics space, and score
sets are summarized by EER (percent), Cllr and Cllr-min (bits) under the
three attack scenarios:

    OO  original enrollment vs original trials (reference linkability)
    OA  original enrollment vs anonymized trials
    AA  separately anonymized enrollment and trials

Higher EER means less linkability between enrollment and trial sides.
"""

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from ._scipy import _scipy_extension
from .modifiers import SIDE_KINDS, ModifierSpec, apply
from .trajectory import F0Stats, F0Trajectory, stats

SCENARIOS = ("OO", "OA", "AA")

LN2 = float(np.log(2.0))

# Statistic dimensions whose spread across the enrollment population falls
# below this (relative) floor are left unscaled: they carry no speaker
# information, and dividing by float dust would amplify noise.
_STD_FLOOR = 1e-9

_REPORT_NOTES = (
    "pooled EER over all enrollment/trial speaker pairs; "
    "scores are negative Euclidean distances of z-normalized F0 statistics; "
    "cllr computed after affine logistic calibration fit on these scores; "
    "cllr_min via pool-adjacent-violators monotone recalibration"
)


class ScoringError(ValueError):
    """Raised when a corpus or score set cannot support the evaluation."""


@dataclass(frozen=True)
class Recording:
    speaker_id: str
    recording_id: str
    split: str  # enrollment | trial
    trajectory: F0Trajectory


@dataclass(frozen=True)
class SpeakerCorpus:
    """Recordings with unique ids, each speaker on both splits; checked when built."""

    recordings: tuple

    def __post_init__(self):
        object.__setattr__(self, "recordings", tuple(self.recordings))
        problems = []
        seen = set()
        per_speaker: dict[str, set] = {}
        for rec in self.recordings:
            if rec.recording_id in seen:
                problems.append(f"duplicate recording_id {rec.recording_id!r}")
            seen.add(rec.recording_id)
            if rec.split not in ("enrollment", "trial"):
                problems.append(f"{rec.recording_id!r}: bad split {rec.split!r}")
                continue
            per_speaker.setdefault(rec.speaker_id, set()).add(rec.split)
        for speaker, splits in sorted(per_speaker.items()):
            missing = {"enrollment", "trial"} - splits
            for split in sorted(missing):
                problems.append(f"speaker {speaker!r} has no {split} recording")
        if not per_speaker:
            problems.append("empty corpus")
        if problems:
            raise ScoringError("corpus invariant violations: " + "; ".join(problems))

    def split(self, which: str) -> list[Recording]:
        return [rec for rec in self.recordings if rec.split == which]


@dataclass(frozen=True)
class ScoreSet:
    """Labeled verification scores, higher = more likely same speaker.

    Both sides are non-empty and finite; checked when built.
    """

    target_scores: np.ndarray
    nontarget_scores: np.ndarray

    def __post_init__(self):
        for name in ("target_scores", "nontarget_scores"):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.target_scores.size == 0 or self.nontarget_scores.size == 0:
            raise ScoringError("score set needs both target and nontarget scores")
        if not (np.isfinite(self.target_scores).all() and np.isfinite(self.nontarget_scores).all()):
            raise ScoringError("scores must be finite")


@dataclass(frozen=True)
class ScenarioReport:
    scenario: str
    eer_percent: float
    cllr_bits: float
    cllr_min_bits: float
    n_target: int
    n_nontarget: int
    notes: str = _REPORT_NOTES

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, allow_nan=False)


def _roc_points(scores: ScoreSet) -> tuple[np.ndarray, np.ndarray]:
    # Operating points of the rule "accept if score >= threshold" for every
    # observed threshold, plus the all-reject endpoint.
    tar = np.sort(scores.target_scores)
    non = np.sort(scores.nontarget_scores)
    thresholds = np.unique(np.concatenate([tar, non]))
    far = (non.size - np.searchsorted(non, thresholds, side="left")) / non.size
    frr = np.searchsorted(tar, thresholds, side="left") / tar.size
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)
    return far, frr


def eer(scores: ScoreSet) -> float:
    """Equal error rate in percent, folded to [0, 50] by symmetry.

    The false-accept and false-reject curves are swept over all observed
    scores; when they do not meet exactly, the crossing is linearly
    interpolated between the two adjacent operating points.
    """
    far, frr = _roc_points(scores)
    diff = far - frr  # non-increasing, starts at +1
    i = int(np.argmax(diff <= 0.0))
    if diff[i] == 0.0:
        rate = far[i]
    else:
        t = diff[i - 1] / (diff[i - 1] - diff[i])
        rate = far[i - 1] + t * (far[i] - far[i - 1])
    rate *= 100.0
    return float(min(rate, 100.0 - rate))


def _cllr_formula(target_llrs: np.ndarray, nontarget_llrs: np.ndarray) -> float:
    tar_cost = np.mean(np.logaddexp(0.0, -target_llrs)) / LN2
    non_cost = np.mean(np.logaddexp(0.0, nontarget_llrs)) / LN2
    return float(0.5 * (tar_cost + non_cost))


def cllr(scores: ScoreSet) -> float:
    """Log-likelihood-ratio cost in bits; scores are natural-log LLRs."""
    return _cllr_formula(scores.target_scores, scores.nontarget_scores)


def pav_llrs(scores: ScoreSet) -> tuple[np.ndarray, np.ndarray]:
    """Optimal monotone recalibration of the pooled scores to (target, nontarget) LLRs.

    Pool-adjacent-violators yields the monotone maximum-likelihood posterior
    per score; subtracting the empirical prior log-odds converts it to an
    LLR. Degenerate blocks map to +/- infinity, so the LLRs are arrays, not
    a (finite) :class:`ScoreSet`. The Cllr formula absorbs them exactly: a
    block containing a target can never be all nontargets and vice versa.
    """
    tar, non = scores.target_scores, scores.nontarget_scores
    pooled = np.concatenate([tar, non])
    labels = np.concatenate([np.ones(tar.size), np.zeros(non.size)])
    uniq, inverse = np.unique(pooled, return_inverse=True)
    tar_per_group = np.bincount(inverse, weights=labels, minlength=uniq.size)
    count_per_group = np.bincount(inverse, minlength=uniq.size).astype(float)

    # Tied scores share a group, so the fit is a function of the score. The
    # arrays are those scipy.optimize.isotonic_regression hands its PAV.
    pava = _scipy_extension("optimize", "_pava_pybind").pava
    block_starts = np.full(uniq.size + 1, -1, np.intp)
    posterior = pava(tar_per_group / count_per_group, count_per_group, block_starts)[0]
    prior_log_odds = np.log(tar.size / non.size)
    with np.errstate(divide="ignore"):
        llr_per_group = np.log(posterior) - np.log1p(-posterior) - prior_log_odds
    llrs = llr_per_group[inverse]
    return llrs[: tar.size], llrs[tar.size :]


def cllr_min(scores: ScoreSet) -> float:
    """Cllr after optimal monotone recalibration (discrimination loss only).

    The recalibrated LLRs may be infinite for perfectly separated score
    regions; the cost formula absorbs them exactly (a +inf target LLR costs
    nothing, and no block mixes an infinity with the wrong class).
    """
    return _cllr_formula(*pav_llrs(scores))


def affine_calibrate(scores: ScoreSet) -> ScoreSet:
    """Affine logistic calibration a*s + b minimizing Cllr, fit on the scores.

    The slope is constrained nonnegative so the calibrated cost can never
    undercut the monotone-recalibration optimum. The fit is L-BFGS-B run as
    ``scipy.optimize.minimize`` runs it, and stops by its default
    tolerances, so its Cllr can sit about 1e-8 relative above the exact
    optimum; the benchmark's frozen reference reports rely on those bits.
    """
    tar, non = scores.target_scores, scores.nontarget_scores
    pooled = np.concatenate([tar, non])
    center = float(np.mean(pooled))
    spread = float(np.std(pooled))
    if spread == 0.0:
        return ScoreSet(np.zeros(tar.size), np.zeros(non.size))
    st = (tar - center) / spread
    sn = (non - center) / spread
    expit = _scipy_extension("special", "_special_ufuncs").expit

    def cost_grad(params):
        a, b = params
        ut = a * st + b
        un = a * sn + b
        value = 0.5 * (
            np.mean(np.logaddexp(0.0, -ut)) + np.mean(np.logaddexp(0.0, un))
        )
        gt = -expit(-ut)
        gn = expit(un)
        da = 0.5 * (np.mean(gt * st) + np.mean(gn * sn))
        db = 0.5 * (np.mean(gt) + np.mean(gn))
        return value, np.array([da, db])

    # minimize's L-BFGS-B loop with its defaults: m = 10 corrections,
    # factr = ftol / eps = 1e7, pgtol 1e-5, 20 line-search steps, and 15000
    # each of iterations and evaluations. a has the lower bound 0 (nbd 1), b none.
    setulb = _scipy_extension("optimize", "_lbfgsb").setulb
    m, n = 10, 2
    x, nbd = np.array([1.0, 0.0]), np.array([1, 0], np.int32)
    lower = upper = np.zeros(n)  # only a's lower bound is read
    value, grad = 0.0, np.zeros(n)
    wa, iwa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m), np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    iterations = evaluations = 0
    while True:
        setulb(m, x, lower, upper, nbd, value, grad, 1e7, 1e-5, wa, iwa, task,
               lsave, isave, dsave, 20, ln_task)
        if task[0] == 3:  # evaluate at x
            value, grad = cost_grad(x)
            evaluations += 1
        elif task[0] == 1:  # an iteration ended
            iterations += 1
            if iterations >= 15000 or evaluations > 15000:
                task[:] = 5, 504  # stop, as minimize does at either cap
        else:
            break
    a, b = x
    return ScoreSet(a * st + b, a * sn + b)


def _euclidean_scores(enroll: np.ndarray, owner: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """The (trials x speakers) matrix of negative Euclidean distances.

    ``owner`` holds each enrollment row's speaker index. A speaker's model is
    the mean of their rows. The z-normalization is fit over all enrollment
    rows, so within-speaker spread enters the per-dimension scale, and is
    applied to the models and the trials.
    """
    counts = np.bincount(owner)
    sums = np.zeros((counts.size, enroll.shape[1]))
    np.add.at(sums, owner, enroll)
    models = sums / counts[:, None]
    mean, std = enroll.mean(axis=0), enroll.std(axis=0)
    std[std <= _STD_FLOOR * np.maximum(1.0, np.abs(mean))] = 1.0
    models, trials = (models - mean) / std, (trials - mean) / std
    # Squared distances, accumulated one dimension at a time in one reused
    # buffer of the result's size.
    scores = np.zeros((len(trials), len(models)))
    diff = np.empty_like(scores)
    for k in range(enroll.shape[1]):
        np.subtract.outer(trials[:, k], models[:, k], out=diff)
        diff *= diff
        scores += diff
    np.sqrt(scores, out=scores)
    return np.negative(scores, out=scores)


def score_corpus(enroll: list[Recording], trials: list[Recording]) -> ScoreSet:
    """Score every (enrolled speaker, trial recording) pair.

    Each recording's statistics are computed once and scored by
    :func:`_euclidean_scores`. Scores come out trial by trial, speakers in
    sorted order within each trial. The ScoringError it raises names each
    recording whose statistics are absent, one per line, enrollment side
    first.
    """
    recordings = [*enroll, *trials]
    all_stats = [stats(r.trajectory) for r in recordings]
    absent = [f"recording {r.recording_id!r}: absent statistics (fewer than 3 voiced frames)"
              for r, st in zip(recordings, all_stats) if not st.complete]
    if absent:
        raise ScoringError("\n".join(absent))
    rows = [st.as_vector() for st in all_stats]
    vectors = np.array(rows).reshape(len(rows), len(F0Stats.FIELD_ORDER))
    speakers, owner = np.unique([r.speaker_id for r in enroll], return_inverse=True)
    if speakers.size < 2:
        raise ScoringError("need at least 2 enrolled speakers for nontarget pairs")
    scores = _euclidean_scores(vectors[: len(enroll)], owner, vectors[len(enroll) :])
    trial_speakers = np.array([r.speaker_id for r in trials], dtype=str)
    is_target = trial_speakers[:, None] == speakers[None, :]
    target, nontarget = scores[is_target], scores[~is_target]
    # Free the matrix before ScoreSet copies the halves: the peak stays
    # near two matrix sizes instead of three.
    del scores
    return ScoreSet(target, nontarget)


def scenario_sides(corpus: SpeakerCorpus, spec: ModifierSpec | None,
                   scenario: str) -> tuple[list[Recording], list[Recording]]:
    """The (enrollment, trial) recordings one attack scenario scores.

    OO returns the corpus recordings unmodified; OA modifies the trial side
    with ``spec``; AA additionally modifies the enrollment side. A
    'modulated-different' spec modifies each side with that side's kind in
    ``SIDE_KINDS``. The ValueError it raises names each recording whose
    modification failed, one per line, trial side first.
    """
    if scenario not in SCENARIOS:
        raise ScoringError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")
    if scenario != "OO" and spec is None:
        raise ScoringError(f"scenario {scenario} requires a modifier spec")
    sides = {split: corpus.split(split) for split in ("enrollment", "trial")}
    failures = []
    for side in {"OO": (), "OA": ("trial",), "AA": ("trial", "enrollment")}[scenario]:
        side_spec = ModifierSpec(SIDE_KINDS[side]) if spec.kind == "modulated-different" else spec
        modified = []
        for r in sides[side]:
            try:
                modified.append(replace(r, trajectory=apply(side_spec, r.trajectory)))
            except ValueError as exc:
                failures.append(f"recording {r.recording_id!r}: {exc}")
        sides[side] = modified
    if failures:
        raise ValueError("\n".join(failures))
    return sides["enrollment"], sides["trial"]


def scenario_report(scenario: str, scores: ScoreSet) -> ScenarioReport:
    """EER, calibrated Cllr and Cllr-min of one scenario's scores."""
    return ScenarioReport(scenario, eer_percent=eer(scores), cllr_bits=cllr(affine_calibrate(scores)),
                          cllr_min_bits=cllr_min(scores), n_target=int(scores.target_scores.size),
                          n_nontarget=int(scores.nontarget_scores.size))


def run_scenario(corpus: SpeakerCorpus, spec: ModifierSpec | None, scenario: str) -> ScenarioReport:
    """Evaluate one attack scenario on a corpus: its sides as :func:`scenario_sides`
    builds them, scored by :func:`score_corpus`."""
    return scenario_report(scenario, score_corpus(*scenario_sides(corpus, spec, scenario)))
