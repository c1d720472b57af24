import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_traj
from f0priv.evaluation import (
    Recording,
    ScoreSet,
    ScoringError,
    SpeakerCorpus,
    affine_calibrate,
    cllr,
    cllr_min,
    eer,
    fit_znorm,
    pav_llrs,
    run_scenario,
    score,
    score_corpus,
)
from f0priv.modifiers import ModifierSpec
from f0priv.synth import speaker_corpus
from f0priv.trajectory import F0Stats, stats
from oracles import brute_force_eer, cllr_reference, exhaustive_cllr_min


def scoreset(tar, non):
    return ScoreSet(np.asarray(tar, float), np.asarray(non, float))


def random_scoreset(rng, n_tar=None, n_non=None, separation=1.0):
    n_tar = n_tar or int(rng.integers(3, 60))
    n_non = n_non or int(rng.integers(3, 60))
    return scoreset(
        rng.normal(separation, 1.0, n_tar), rng.normal(-separation, 1.0, n_non)
    )


class TestEer:
    def test_perfect_separation(self):
        assert eer(scoreset([2, 3], [0, 1])) == 0.0

    def test_indistinguishable(self):
        assert eer(scoreset([0, 1], [0, 1])) == 50.0

    def test_interior_crossing(self):
        assert eer(scoreset([1, 3, 4, 5], [-2, -1, 0, 2])) == pytest.approx(25.0, abs=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for i in range(30):
            s = random_scoreset(rng, separation=rng.uniform(0.0, 2.0))
            assert eer(s) == pytest.approx(
                brute_force_eer(list(s.target_scores), list(s.nontarget_scores)), abs=1e-9
            )

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            tar = rng.integers(-3, 4, rng.integers(3, 30)).astype(float)
            non = rng.integers(-4, 3, rng.integers(3, 30)).astype(float)
            s = scoreset(tar, non)
            assert eer(s) == pytest.approx(brute_force_eer(list(tar), list(non)), abs=1e-9)

    def test_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(2)
        s = random_scoreset(rng, 40, 50, separation=0.5)
        base = eer(s)
        for transform in (np.tanh, lambda v: 3.0 * v + 11.0, lambda v: v**3):
            mapped = scoreset(transform(s.target_scores), transform(s.nontarget_scores))
            assert eer(mapped) == pytest.approx(base, abs=1e-9)

    def test_swap_and_negate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            s = random_scoreset(rng, separation=0.7)
            swapped = scoreset(-s.nontarget_scores, -s.target_scores)
            assert eer(swapped) == pytest.approx(eer(s), abs=1e-9)

    def test_empty_errors(self):
        with pytest.raises(ScoringError):
            eer(scoreset([], [1.0]))


class TestCllr:
    def test_all_zero_scores_is_one_bit(self):
        assert cllr(scoreset([0.0, 0.0], [0.0, 0.0, 0.0])) == 1.0

    def test_saturated_llrs(self):
        assert cllr(scoreset([20.0] * 5, [-20.0] * 5)) < 1e-5

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            s = random_scoreset(rng)
            expected = cllr_reference(list(s.target_scores), list(s.nontarget_scores))
            assert cllr(s) == pytest.approx(expected, rel=1e-12)

    def test_min_never_exceeds_cllr_or_one(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = random_scoreset(rng, separation=rng.uniform(0, 3))
            lo = cllr_min(s)
            assert lo <= cllr(s) + 1e-12
            assert lo <= 1.0 + 1e-12

    def test_min_matches_exhaustive_recalibration(self):
        rng = np.random.default_rng(6)
        for _ in range(40):
            n_tar = int(rng.integers(1, 5))
            n_non = int(rng.integers(1, 9 - n_tar))
            s = scoreset(rng.normal(0.5, 1, n_tar), rng.normal(-0.5, 1, n_non))
            expected = exhaustive_cllr_min(list(s.target_scores), list(s.nontarget_scores))
            assert cllr_min(s) == pytest.approx(expected, abs=1e-9)

    def test_min_matches_exhaustive_with_ties(self):
        cases = [
            ([0.0, 0.0], [0.0, 0.0]),
            ([1.0, 1.0, 2.0], [1.0, 0.0]),
            ([3.0], [3.0, 3.0, -1.0]),
            ([1.0, 2.0, 2.0], [2.0, 0.0]),
            ([0.5, 0.5, 1.5], [0.5, 1.5, -1.0]),
            ([0.0, 1.0, 1.0], [1.0, 2.0, 2.0]),
            ([-1.0, 2.0], [2.0, 2.0, 2.0, -1.0]),
        ]
        for tar, non in cases:
            assert cllr_min(scoreset(tar, non)) == pytest.approx(
                exhaustive_cllr_min(tar, non), abs=1e-9
            )

    def test_min_invariant_under_increasing_transforms(self):
        rng = np.random.default_rng(7)
        s = random_scoreset(rng, 20, 25, separation=0.6)
        base = cllr_min(s)
        mapped = scoreset(np.exp(s.target_scores), np.exp(s.nontarget_scores))
        assert cllr_min(mapped) == pytest.approx(base, abs=1e-12)

    def test_pav_llrs_hand_case(self):
        s = scoreset([1.0, 3.0], [0.0, 2.0])
        recal = pav_llrs(s)
        assert recal.target_scores[0] == 0.0
        assert recal.target_scores[1] == np.inf
        assert recal.nontarget_scores[0] == -np.inf
        assert recal.nontarget_scores[1] == 0.0
        assert cllr_min(s) == pytest.approx(0.5, abs=1e-12)

    def test_affine_calibration_never_beats_pav(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = random_scoreset(rng, separation=rng.uniform(0, 2))
            assert cllr(affine_calibrate(s)) >= cllr_min(s) - 1e-9

    def test_affine_calibration_improves_badly_scaled_scores(self):
        rng = np.random.default_rng(9)
        s = scoreset(rng.normal(50, 5, 40), rng.normal(30, 5, 40))
        assert cllr(s) > 1.0  # wildly miscalibrated as raw LLRs
        assert cllr(affine_calibrate(s)) < 1.0


# Quarter steps on a short range, so most score sets hold ties within and
# across the two classes.
tied_scores = st.lists(st.integers(-8, 8).map(lambda k: 0.25 * k), min_size=1, max_size=30)


class TestMetricProperties:
    @settings(deadline=None)
    @given(tar=tied_scores, non=tied_scores, data=st.data())
    def test_eer_ignores_order(self, tar, non, data):
        shuffled = scoreset(data.draw(st.permutations(tar)), data.draw(st.permutations(non)))
        assert eer(shuffled) == eer(scoreset(tar, non))

    @settings(deadline=None)
    @given(tar=tied_scores, non=tied_scores, data=st.data())
    def test_eer_ignores_increasing_transforms(self, tar, non, data):
        # Any strictly increasing map of the observed scores: each distinct
        # value goes to a point of an increasing sequence with random gaps.
        distinct = np.unique(tar + non)
        gaps = data.draw(
            st.lists(st.floats(1e-3, 1e3), min_size=distinct.size, max_size=distinct.size)
        )
        image = data.draw(st.floats(-1e3, 1e3)) + np.cumsum(gaps)
        mapped = scoreset(
            image[np.searchsorted(distinct, tar)], image[np.searchsorted(distinct, non)]
        )
        assert eer(mapped) == eer(scoreset(tar, non))

    @settings(deadline=None)
    @given(tar=tied_scores, non=tied_scores)
    def test_min_never_exceeds_affine_calibration(self, tar, non):
        s = scoreset(tar, non)
        assert cllr_min(s) <= cllr(affine_calibrate(s)) + 1e-9


def two_population_stats(rng, n=500, m_enroll=10, m_trial=4):
    """Enrollment/trial stats for two well-separated speaker populations.

    110 vs 220 Hz centers with different contour dynamics, so every
    statistic separates the speakers far beyond the within-speaker spread.
    """
    t = np.arange(n) * 0.01
    generators = {
        "a": lambda: 110.0 + 3.0 * np.sin(2 * np.pi * 1.2 * t) + rng.normal(0, 1.0, n),
        "b": lambda: 220.0
        + 18.0 * np.sin(2 * np.pi * 3.1 * t)
        + 8.0 * np.sin(2 * np.pi * 0.7 * t)
        + rng.normal(0, 2.5, n),
    }
    enroll, trials = [], []
    for speaker, gen in generators.items():
        for i in range(m_enroll + m_trial):
            st = stats(make_traj(gen().clip(60, 400), rid=f"{speaker}{i}"))
            (enroll if i < m_enroll else trials).append((speaker, st))
    return enroll, trials


def reference_scores(enroll, trials):
    """Pair-by-pair scores against field-wise-mean speaker models."""
    by_speaker = {}
    for speaker, st in enroll:
        by_speaker.setdefault(speaker, []).append(st.as_vector())
    models = {spk: F0Stats(*np.mean(vs, axis=0)) for spk, vs in by_speaker.items()}
    znorm = fit_znorm([st for _, st in enroll])
    target, nontarget = [], []
    for trial_speaker, st in trials:
        for speaker in sorted(models):
            s = score(models[speaker], st, znorm)
            (target if speaker == trial_speaker else nontarget).append(s)
    return target, nontarget


class TestScoring:
    def test_identical_vectors_score_zero(self):
        rng = np.random.default_rng(10)
        st = stats(make_traj(rng.uniform(100, 200, 100)))
        znorm = fit_znorm([st])
        assert score(st, st, znorm) == 0.0

    def test_separated_populations_fully_ordered(self):
        rng = np.random.default_rng(11)
        enroll, trials = two_population_stats(rng)
        scores = score_corpus(enroll, trials)
        assert scores.target_scores.min() > scores.nontarget_scores.max()

    def test_single_speaker_corpus_errors(self):
        rng = np.random.default_rng(12)
        st = [("a", stats(make_traj(rng.uniform(100, 200, 50)))) for _ in range(4)]
        with pytest.raises(ScoringError, match="2 enrolled speakers"):
            score_corpus(st[:2], st[2:])

    def test_absent_stats_error(self):
        good = stats(make_traj(np.full(50, 120.0)))
        bad = stats(make_traj([0.0, 0.0]))
        with pytest.raises(ScoringError, match="absent"):
            score(good, bad, fit_znorm([good]))

    def test_score_corpus_matches_per_pair_reference(self, corpus):
        rng = np.random.default_rng(13)
        corpus_stats = [
            [(r.speaker_id, stats(r.trajectory)) for r in corpus.split(split)]
            for split in ("enrollment", "trial")
        ]
        for enroll, trials in (two_population_stats(rng), corpus_stats):
            got = score_corpus(enroll, trials)
            tar, non = reference_scores(enroll, trials)
            np.testing.assert_allclose(got.target_scores, tar, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.nontarget_scores, non, rtol=0, atol=1e-12)

    def test_score_corpus_peak_memory(self):
        # 1,000 speakers x 1,000 trials: an 8 MB score matrix. Its masked
        # halves and ScoreSet's copies must not all be alive at once.
        rng = np.random.default_rng(14)
        n = 1000
        enroll = [(f"s{i:04d}", F0Stats(*rng.uniform(1.0, 2.0, 6))) for i in range(n)]
        trials = [(f"s{i:04d}", F0Stats(*rng.uniform(1.0, 2.0, 6))) for i in range(n)]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            scores = score_corpus(enroll, trials)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        matrix_bytes = n * n * 8
        assert scores.target_scores.size + scores.nontarget_scores.size == n * n
        assert peak < 2.5 * matrix_bytes

    def test_znorm_guards_zero_spread(self):
        st = stats(make_traj(np.full(60, 150.0)))
        znorm = fit_znorm([st, st, st])
        assert np.all(znorm.std == 1.0)  # no spread anywhere: untouched dims


@pytest.fixture(scope="module")
def corpus():
    return speaker_corpus(n_speakers=12, n_enroll=2, n_trial=2, n_frames=250, seed=3)


class TestScenarios:
    def test_oo_ignores_modifier(self, corpus):
        plain = run_scenario(corpus, None, "OO")
        with_spec = run_scenario(corpus, ModifierSpec(kind="all-flat"), "OO")
        assert plain == with_spec

    def test_report_shape_and_counts(self, corpus):
        report = run_scenario(corpus, None, "OO")
        data = json.loads(report.to_json())
        assert set(data) == {
            "scenario",
            "eer_percent",
            "cllr_bits",
            "cllr_min_bits",
            "n_target",
            "n_nontarget",
            "notes",
        }
        assert data["scenario"] == "OO"
        assert data["n_target"] == 12 * 2
        assert data["n_nontarget"] == 12 * 2 * 11
        assert 0.0 <= data["eer_percent"] <= 50.0
        assert data["cllr_min_bits"] <= data["cllr_bits"] + 1e-12

    def test_all_flat_oa_raises_eer(self, corpus):
        oo = run_scenario(corpus, None, "OO")
        oa = run_scenario(corpus, ModifierSpec(kind="all-flat"), "OA")
        assert oa.eer_percent > oo.eer_percent

    def test_all_flat_aa_below_oa(self, corpus):
        spec = ModifierSpec(kind="all-flat")
        oa = run_scenario(corpus, spec, "OA")
        aa = run_scenario(corpus, spec, "AA")
        assert aa.eer_percent < oa.eer_percent

    def test_voiced_flat_aa_on_mean_separated_population(self):
        # Speakers distinguished by mean F0 stay distinguishable after
        # flattening, so AA linkability recovers relative to OA.
        rng = np.random.default_rng(14)
        recordings = []
        for s in range(8):
            mean = 110.0 + 18.0 * s
            for k in range(4):
                values = rng.normal(mean, 5.0, 220).clip(60, 400)
                rid = f"s{s}r{k}"
                recordings.append(
                    Recording(
                        f"s{s}",
                        rid,
                        "enrollment" if k < 2 else "trial",
                        make_traj(values, rid=rid),
                    )
                )
        corpus = SpeakerCorpus(tuple(recordings))
        spec = ModifierSpec(kind="voiced-flat")
        oa = run_scenario(corpus, spec, "OA")
        aa = run_scenario(corpus, spec, "AA")
        assert aa.eer_percent <= oa.eer_percent

    def test_deterministic(self, corpus):
        spec = ModifierSpec(kind="random-walk-strong", seed=42)
        a = run_scenario(corpus, spec, "AA")
        b = run_scenario(corpus, spec, "AA")
        assert a == b
        assert a.to_json() == b.to_json()

    def test_modulated_different_uses_roles(self, corpus):
        spec = ModifierSpec(kind="modulated-different")
        report = run_scenario(corpus, spec, "AA")
        assert report.n_target > 0

    def test_scenario_validation(self, corpus):
        with pytest.raises(ScoringError, match="scenario"):
            run_scenario(corpus, None, "XX")
        with pytest.raises(ScoringError, match="requires a modifier"):
            run_scenario(corpus, None, "OA")

    def test_corpus_violations_reported(self):
        rng = np.random.default_rng(15)
        values = rng.uniform(100, 200, 50)
        recs = (
            Recording("a", "r1", "enrollment", make_traj(values, rid="r1")),
            Recording("a", "r2", "trial", make_traj(values, rid="r2")),
            Recording("b", "r3", "enrollment", make_traj(values, rid="r3")),
        )
        corpus = SpeakerCorpus(recs)
        problems = corpus.violations()
        assert any("no trial" in p for p in problems)
        with pytest.raises(ScoringError, match="violations"):
            run_scenario(corpus, None, "OO")

    def test_duplicate_recording_ids_flagged(self):
        rng = np.random.default_rng(16)
        values = rng.uniform(100, 200, 50)
        recs = (
            Recording("a", "r1", "enrollment", make_traj(values)),
            Recording("a", "r1", "trial", make_traj(values)),
        )
        assert any("duplicate" in p for p in SpeakerCorpus(recs).violations())
