import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_traj
from f0priv._scipy import _scipy_extension
from f0priv.evaluation import (
    Recording,
    ScoreSet,
    ScoringError,
    SpeakerCorpus,
    affine_calibrate,
    cllr,
    cllr_min,
    eer,
    pav_llrs,
    run_scenario,
    scenario_sides,
    score_corpus,
)
from f0priv.modifiers import KINDS, SIDE_KINDS, ModifierSpec, apply
from f0priv.synth import speaker_corpus
from f0priv.trajectory import F0Stats, stats
from oracles import (
    affine_calibrate_reference,
    brute_force_eer,
    cllr_reference,
    exhaustive_cllr_min,
    pav_llrs_reference,
    score,
    znorm_reference,
)


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


class TestScoreSet:
    @pytest.mark.parametrize("tar, non, message", [
        ([], [1.0], "both target and nontarget"),
        ([1.0], [], "both target and nontarget"),
        ([1.0, np.nan], [0.0], "must be finite"),
        ([1.0], [0.0, np.inf], "must be finite"),
        ([-np.inf], [0.0], "must be finite"),
    ])
    def test_checked_when_built(self, tar, non, message):
        with pytest.raises(ScoringError, match=message):
            ScoreSet(np.asarray(tar, float), np.asarray(non, float))


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
        target_llrs, nontarget_llrs = pav_llrs(s)
        assert target_llrs[0] == 0.0
        assert target_llrs[1] == np.inf
        assert nontarget_llrs[0] == -np.inf
        assert nontarget_llrs[1] == 0.0
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


def slope_bound_scoreset():
    # Targets below nontargets: the best slope is negative, so the affine
    # fit stops on its bound a = 0.
    rng = np.random.default_rng(31)
    return scoreset(rng.normal(-2.0, 1.0, 40), rng.normal(2.0, 1.0, 60))


def reference_score_sets():
    """Score sets on which the compiled scipy routines must match public scipy."""
    rng = np.random.default_rng(30)
    sets = [random_scoreset(rng, separation=rng.uniform(0.0, 3.0)) for _ in range(30)]
    # Quarter steps: most scores tie within and across the classes.
    sets += [scoreset(0.25 * rng.integers(-6, 7, rng.integers(1, 40)),
                      0.25 * rng.integers(-8, 5, rng.integers(1, 40))) for _ in range(10)]
    # Fully separable: PAV gives +/- infinite LLRs.
    sets += [scoreset(rng.uniform(1.0, 2.0, 20), rng.uniform(-2.0, -1.0, 30)),
             scoreset([1.0, 3.0], [0.0]), scoreset(rng.uniform(5.0, 6.0, 80), [0.0, 1.0])]
    return sets + [scoreset([2.5, 2.5], [2.5, 2.5, 2.5]), slope_bound_scoreset()]


class TestCompiledScipy:
    @pytest.mark.parametrize("s", reference_score_sets())
    def test_matches_public_scipy(self, s):
        tar, non = list(s.target_scores), list(s.nontarget_scores)
        # pav_llrs returns two arrays, as the oracle does: separable sets give +/-inf LLRs.
        llrs, expected = pav_llrs(s), pav_llrs_reference(tar, non)
        assert len(llrs) == 2 and all(map(np.array_equal, llrs, expected))
        calibrated, expected = affine_calibrate(s), affine_calibrate_reference(tar, non)
        assert np.array_equal(calibrated.target_scores, expected[0])
        assert np.array_equal(calibrated.nontarget_scores, expected[1])

    def test_slope_bound_is_reached(self):
        calibrated = affine_calibrate(slope_bound_scoreset())
        assert np.unique(np.concatenate([calibrated.target_scores, calibrated.nontarget_scores])).size == 1

    # Each routine as scipy's own modules reach it.
    @pytest.mark.parametrize("subpackage, stem, name, public", [
        ("linalg", "_flapack", "dpbsv", lambda scipy: scipy.linalg.get_lapack_funcs("pbsv", (np.empty(0),))),
        ("optimize", "_lbfgsb", "setulb", lambda scipy: scipy.optimize._lbfgsb_py._lbfgsb.setulb),
        ("optimize", "_pava_pybind", "pava", lambda scipy: scipy.optimize._isotonic.pava),
        ("optimize", "_zeros", "_brentq", lambda scipy: scipy.optimize._zeros_py._zeros._brentq),
        ("special", "_special_ufuncs", "expit", lambda scipy: scipy.special.expit),
    ], ids=["dpbsv", "setulb", "pava", "brentq", "expit"])
    def test_falls_back_to_the_usual_import(self, monkeypatch, tmp_path, subpackage, stem, name, public):
        import scipy.linalg
        import scipy.optimize
        import scipy.special

        expected = public(scipy)
        # No extension file lies beside this scipy.__file__, and the module
        # is not loaded, so the loader must import it the usual way.
        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        monkeypatch.delitem(sys.modules, f"scipy.{subpackage}.{stem}")
        assert getattr(_scipy_extension.__wrapped__(subpackage, stem), name) is expected


def two_population_recordings(rng, n=500, m_enroll=10, m_trial=4):
    """Enrollment/trial recordings of two well-separated speaker populations.

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
            split = "enrollment" if i < m_enroll else "trial"
            rec = recording(speaker, f"{speaker}{i}", split, gen().clip(60, 400))
            (enroll if i < m_enroll else trials).append(rec)
    return enroll, trials


def recording(speaker, rid, split, values):
    return Recording(speaker, rid, split, make_traj(values, rid=rid))


def reference_scores(enroll, trials):
    """Pair-by-pair scores against field-wise-mean speaker models."""
    by_speaker = {}
    for r in enroll:
        by_speaker.setdefault(r.speaker_id, []).append(stats(r.trajectory).as_vector())
    models = {spk: F0Stats(*np.mean(vs, axis=0)) for spk, vs in by_speaker.items()}
    znorm = znorm_reference([stats(r.trajectory).as_vector() for r in enroll])
    target, nontarget = [], []
    for r in trials:
        for speaker in sorted(models):
            s = score(models[speaker], stats(r.trajectory), znorm)
            (target if speaker == r.speaker_id else nontarget).append(s)
    return target, nontarget


class TestScoring:
    def test_identical_vectors_score_zero(self):
        rng = np.random.default_rng(10)
        values = rng.uniform(100, 200, 100)
        enroll = [recording("a", "a-e", "enrollment", values),
                  recording("b", "b-e", "enrollment", rng.uniform(100, 200, 100))]
        scores = score_corpus(enroll, [recording("a", "a-t", "trial", values)])
        assert scores.target_scores.tolist() == [0.0]

    def test_separated_populations_fully_ordered(self):
        rng = np.random.default_rng(11)
        enroll, trials = two_population_recordings(rng)
        scores = score_corpus(enroll, trials)
        assert scores.target_scores.min() > scores.nontarget_scores.max()

    def test_single_speaker_corpus_errors(self):
        rng = np.random.default_rng(12)
        recs = [recording("a", f"r{i}", split, rng.uniform(100, 200, 50))
                for i, split in enumerate(["enrollment", "enrollment", "trial", "trial"])]
        with pytest.raises(ScoringError, match="2 enrolled speakers"):
            score_corpus(recs[:2], recs[2:])

    def test_absent_stats_name_every_recording_enrollment_side_first(self):
        # Two voiced frames are too few for statistics. Each side keeps its
        # own order: c-e before b-e, and a-t after both.
        good, two = np.full(50, 120.0), [0.0, 120.0, 0.0, 130.0]
        enroll = [recording("a", "a-e", "enrollment", good), recording("c", "c-e", "enrollment", two),
                  recording("b", "b-e", "enrollment", two)]
        trials = [recording("a", "a-t", "trial", two), recording("b", "b-t", "trial", good),
                  recording("c", "c-t", "trial", two)]
        with pytest.raises(ScoringError) as info:
            score_corpus(enroll, trials)
        assert str(info.value) == "\n".join(
            f"recording '{rid}': absent statistics (fewer than 3 voiced frames)"
            for rid in ("c-e", "b-e", "a-t", "c-t"))

    def test_score_corpus_matches_per_pair_reference(self, corpus):
        rng = np.random.default_rng(13)
        sides = (corpus.split("enrollment"), corpus.split("trial"))
        for enroll, trials in (two_population_recordings(rng), sides):
            got = score_corpus(enroll, trials)
            tar, non = reference_scores(enroll, trials)
            np.testing.assert_allclose(got.target_scores, tar, rtol=0, atol=1e-12)
            np.testing.assert_allclose(got.nontarget_scores, non, rtol=0, atol=1e-12)

    def test_score_corpus_peak_memory(self):
        # 1,000 speakers x 1,000 trials: an 8 MB score matrix. Its masked
        # halves and ScoreSet's copies must not all be alive at once.
        rng = np.random.default_rng(14)
        n = 1000
        enroll = [recording(f"s{i:04d}", f"e{i}", "enrollment", rng.uniform(100, 200, 5)) for i in range(n)]
        trials = [recording(f"s{i:04d}", f"t{i}", "trial", rng.uniform(100, 200, 5)) for i in range(n)]
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
        # Each side is modified with its kind: enrollment modulated-same-1, trial modulated-same-2.
        enroll, trials = scenario_sides(corpus, ModifierSpec(kind="modulated-different"), "AA")
        for side, modified in (("enrollment", enroll), ("trial", trials)):
            expected = [apply(ModifierSpec(SIDE_KINDS[side]), r.trajectory) for r in corpus.split(side)]
            assert [r.trajectory.values.tobytes() for r in modified] == [e.values.tobytes() for e in expected]
        assert SIDE_KINDS == {"enrollment": "modulated-same-1", "trial": "modulated-same-2"}
        assert run_scenario(corpus, ModifierSpec(kind="modulated-different"), "AA").n_target > 0

    def test_scenario_validation(self, corpus):
        with pytest.raises(ScoringError, match="scenario"):
            run_scenario(corpus, None, "XX")
        with pytest.raises(ScoringError, match="requires a modifier"):
            run_scenario(corpus, None, "OA")
        with pytest.raises(ScoringError, match="^scenario AA requires a modifier spec$"):
            scenario_sides(corpus, None, "AA")

    def test_oo_sides_are_the_corpus_recordings(self, corpus):
        enroll, trials = scenario_sides(corpus, ModifierSpec(kind="all-flat"), "OO")
        originals = corpus.split("enrollment") + corpus.split("trial")
        assert len(enroll + trials) == len(originals)
        assert all(a is b for a, b in zip(enroll + trials, originals))

    @pytest.mark.parametrize("kind", KINDS)
    def test_oa_trial_side_is_the_aa_trial_side(self, corpus, kind):
        targets = {"target_mean_hz": 180.0, "target_std_hz": 25.0} if kind == "shift-and-scale" else {}
        spec = ModifierSpec(kind, seed=11, **targets)
        oa_enroll, oa_trials = scenario_sides(corpus, spec, "OA")
        aa_enroll, aa_trials = scenario_sides(corpus, spec, "AA")
        assert oa_enroll == corpus.split("enrollment")
        assert [r.recording_id for r in aa_enroll] == [r.recording_id for r in oa_enroll]
        assert [r.recording_id for r in aa_trials] == [r.recording_id for r in corpus.split("trial")]
        for oa, aa, original in zip(oa_trials, aa_trials, corpus.split("trial")):
            assert oa.trajectory.values.tobytes() == aa.trajectory.values.tobytes()
            # modulated-different modifies the trial side as that side's kind.
            trial_kind = SIDE_KINDS["trial"] if kind == "modulated-different" else kind
            expected = apply(ModifierSpec(trial_kind, seed=11, **targets), original.trajectory)
            assert aa.trajectory.values.tobytes() == expected.values.tobytes()

    def test_every_failing_recording_is_named(self):
        # modulated-same-1 takes this contour past 128 kHz, so each recording
        # of it fails apply's output check.
        low, high = make_traj(np.full(60, 120.0)), make_traj([127000.0, 100000.0] * 25)
        sides = {"a": (high, low), "b": (low, high), "c": (high, high)}
        corpus = SpeakerCorpus(tuple(
            Recording(speaker, f"{speaker}-{split[0]}", split, traj)
            for speaker, pair in sides.items() for split, traj in zip(("enrollment", "trial"), pair)))
        spec = ModifierSpec("modulated-same-1")
        with pytest.raises(ValueError) as info:
            scenario_sides(corpus, spec, "AA")
        lines = str(info.value).splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "recording 'b-t'", "recording 'c-t'", "recording 'a-e'", "recording 'c-e'"]
        with pytest.raises(ValueError) as info:
            apply(spec, high)
        assert lines[0] == f"recording 'b-t': {info.value}"
        with pytest.raises(ValueError) as info:
            scenario_sides(corpus, spec, "OA")
        assert len(str(info.value).splitlines()) == 2

    def test_corpus_violations_reported(self):
        rng = np.random.default_rng(15)
        values = rng.uniform(100, 200, 50)
        recs = (
            Recording("a", "r1", "enrollment", make_traj(values, rid="r1")),
            Recording("a", "r2", "trial", make_traj(values, rid="r2")),
            Recording("b", "r3", "enrollment", make_traj(values, rid="r3")),
        )
        with pytest.raises(ScoringError, match="violations") as info:
            SpeakerCorpus(recs)
        assert "speaker 'b' has no trial recording" in str(info.value)

    def test_corpus_lists_every_problem_when_built(self):
        traj = make_traj(np.full(50, 120.0))
        recs = [
            Recording("a", "r1", "enrollment", traj),
            Recording("a", "r1", "trial", traj),
            Recording("b", "r2", "test", traj),
            Recording("c", "r3", "trial", traj),
        ]
        with pytest.raises(ScoringError) as info:
            SpeakerCorpus(recs)
        assert str(info.value) == (
            "corpus invariant violations: duplicate recording_id 'r1'; 'r2': bad split 'test'; "
            "speaker 'c' has no enrollment recording"
        )
        with pytest.raises(ScoringError, match="^corpus invariant violations: empty corpus$"):
            SpeakerCorpus(())

    def test_duplicate_recording_ids_flagged(self):
        rng = np.random.default_rng(16)
        values = rng.uniform(100, 200, 50)
        recs = (
            Recording("a", "r1", "enrollment", make_traj(values)),
            Recording("a", "r1", "trial", make_traj(values)),
        )
        with pytest.raises(ScoringError, match="duplicate recording_id 'r1'"):
            SpeakerCorpus(recs)
