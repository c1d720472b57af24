import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_traj
from f0priv.evaluation import SCENARIOS, Recording, SpeakerCorpus, run_scenario
from f0priv.modifiers import (
    KINDS,
    NO_SIDE,
    SIDE_KINDS,
    ModifierSpec,
    SpecError,
    apply,
    derive_recording_seed,
    flatten_all,
    flatten_voiced,
    generate_walk,
    invert_shift_and_scale,
    modulate,
    normalize_walk,
    post_rules,
    random_walk_modulate,
    shift_and_scale,
    smoothing_spline_modifier,
)
from f0priv.trajectory import (
    FRAME_HOP_MIN_S,
    VOICED_MAX_HZ,
    VOICED_MIN_HZ,
    F0Trajectory,
    stats,
    validate,
    voiced_mean,
)
from oracles import sinusoid_modulation_reference, walk_modulation_reference


def random_valid_traj(rng, n=None, low=60.0, high=320.0, rid="r"):
    n = n or int(rng.integers(20, 150))
    values = rng.uniform(low, high, n)
    values[rng.random(n) < 0.25] = 0.0
    if not (values > 0).any():
        values[0] = 100.0
    return make_traj(values, rid=rid)


def spec_for(kind, rid_seed=7):
    if kind == "modulated-different":  # as it modifies the trial side
        kind = SIDE_KINDS["trial"]
    extra = {}
    if kind.startswith("random-walk"):
        extra["seed"] = rid_seed
    if kind == "shift-and-scale":
        extra.update(target_mean_hz=180.0, target_std_hz=25.0)
    return ModifierSpec(kind=kind, **extra)


class TestFlattening:
    def test_voiced_flat_example(self, traj_fixture):
        out = apply(ModifierSpec(kind="voiced-flat"), traj_fixture)
        assert np.array_equal(out.values, [0, 110, 110, 0, 110])

    def test_all_flat_example(self, traj_fixture):
        out = apply(ModifierSpec(kind="all-flat"), traj_fixture)
        assert np.array_equal(out.values, [110, 110, 110, 110, 110])

    def test_mean_preserved_and_variance_zero(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            traj = random_valid_traj(rng)
            mean = voiced_mean(traj)
            vf = flatten_voiced(traj)
            assert voiced_mean(vf) == pytest.approx(mean, rel=1e-9)
            assert np.var(vf.values[vf.voiced_mask]) <= 1e-16
            af = flatten_all(traj)
            assert np.all(af.values == af.values[0])  # globally constant
            assert af.values[0] == pytest.approx(mean, rel=1e-12)

    def test_voiced_flat_keeps_mask(self, traj_fixture):
        out = flatten_voiced(traj_fixture)
        assert np.array_equal(out.voiced_mask, traj_fixture.voiced_mask)


class TestPostRules:
    def test_threshold_and_negatives(self):
        out = post_rules(make_traj([100.0, 100.0, 100.0]), np.array([-5.0, 39.9, 40.0]))
        assert np.array_equal(out.values, [0.0, 0.0, 40.0])

    def test_identity_on_valid(self, traj_fixture):
        out = post_rules(traj_fixture, traj_fixture.values[traj_fixture.voiced_mask])
        assert np.array_equal(out.values, traj_fixture.values)

    def test_previous_mask_wins(self):
        # Only voiced frames take new values; every other frame ends at +0.0,
        # whatever it held (NaN, -0.0 and negatives included).
        traj = make_traj([0.0, 100.0, np.nan, -0.0, -3.0])
        out = post_rules(traj, np.array([150.0]))
        assert np.array_equal(out.values, [0.0, 150.0, 0.0, 0.0, 0.0])
        assert not np.signbit(out.values).any()


class TestModulate:
    def test_factor_at_time_zero(self):
        # c1(0) = 0, c2(0) = 1 -> multiplier (4 + 2)/4 = 1.5.
        traj = make_traj([100.0, 200.0])
        out = modulate(traj, 5.0, 11.0)
        mean = 150.0
        assert out.values[0] == pytest.approx(mean + 1.5 * (100.0 - mean), rel=1e-12)

    def test_constant_input_unchanged(self):
        traj = make_traj([150.0] * 40)
        for f1, f2 in ((5.0, 11.0), (3.0, 7.0)):
            out = modulate(traj, f1, f2)
            assert np.allclose(out.values, 150.0, atol=1e-12)

    @pytest.mark.parametrize("pair", [(5.0, 11.0), (3.0, 7.0)])
    def test_matches_framewise_reference(self, pair):
        rng = np.random.default_rng(42)
        for _ in range(10):
            traj = random_valid_traj(rng)
            out = modulate(traj, *pair)
            expected = sinusoid_modulation_reference(traj.values, traj.frame_hop, *pair)
            np.testing.assert_allclose(out.values, expected, rtol=1e-9, atol=1e-12)

    def test_multiplier_bounds(self):
        t = np.linspace(0.0, 5.0, 20001)
        for f1, f2 in ((5.0, 11.0), (3.0, 7.0)):
            c1 = np.sin(2 * np.pi * f1 * t)
            c2 = np.sin(2 * np.pi * f2 * t + np.pi / 2)
            factor = (4 + 2 * c1 + 2 * c2 + c1 * c2) / 4
            assert factor.min() >= -0.25 - 1e-12
            assert factor.max() <= 2.25 + 1e-12

    def test_preconditions(self):
        traj = make_traj([100.0, 120.0])
        with pytest.raises(ValueError):
            modulate(traj, 5.0, 5.0)
        with pytest.raises(ValueError):
            modulate(traj, -1.0, 5.0)
        with pytest.raises(ValueError):
            modulate(make_traj([0.0, 0.0]), 5.0, 11.0)

    def test_modulated_different_needs_a_corpus_side(self, traj_fixture):
        # Each side's kind carries its own pair; a single contour has no side.
        assert {side: apply(ModifierSpec(kind), traj_fixture).values.tolist()
                for side, kind in SIDE_KINDS.items()} == {
            "enrollment": modulate(traj_fixture, 5.0, 11.0).values.tolist(),
            "trial": modulate(traj_fixture, 3.0, 7.0).values.tolist()}
        with pytest.raises(ValueError) as raised:
            apply(ModifierSpec(kind="modulated-different"), traj_fixture)
        assert str(raised.value) == NO_SIDE == (
            "kind 'modulated-different' modifies the two sides of a corpus: modulated-same-1 the enrollment "
            "side, modulated-same-2 the trial side; a single contour takes one of those two kinds")


class TestWalk:
    def test_hand_normalization(self):
        out = normalize_walk(np.array([0.0, 1.0, 2.0, 1.0]))
        assert np.array_equal(out, [-0.5, 0.0, 0.5, 0.0])

    def test_length_one_degenerate(self):
        assert np.array_equal(generate_walk(1, 3), [0.0])

    def test_determinism_and_extremes(self):
        a = generate_walk(500, 123)
        b = generate_walk(500, 123)
        assert np.array_equal(a, b)
        assert a.min() == -0.5
        assert a.max() == 0.5

    def test_walk_modulation_matches_reference(self):
        rng = np.random.default_rng(9)
        for strength in (1, 2):
            for seed in range(5):
                traj = random_valid_traj(rng)
                walk = generate_walk(traj.n_frames, seed)
                out = random_walk_modulate(traj, strength, seed)
                expected = walk_modulation_reference(traj.values, walk, strength)
                np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=1e-12)

    def test_multiplier_interval_weak(self):
        rng = np.random.default_rng(11)
        traj = random_valid_traj(rng, n=400, low=100.0, high=300.0)
        out = random_walk_modulate(traj, 1, 77)
        mask = traj.voiced_mask
        ratio = out.values[mask] / traj.values[mask]
        assert ratio.min() >= 0.75 - 1e-12
        assert ratio.max() <= 1.25 + 1e-12

    def test_forty_hz_floor_interaction(self):
        walk = generate_walk(50, 5)
        trough = int(np.argmin(walk))  # r = -0.5 exactly
        values = np.full(50, 200.0)
        values[trough] = 90.0
        out = random_walk_modulate(make_traj(values), 2, 5)
        assert out.values[trough] == pytest.approx(45.0, rel=1e-12)
        values[trough] = 70.0
        out = random_walk_modulate(make_traj(values), 2, 5)
        assert out.values[trough] == 0.0  # 35 Hz falls below the floor

    def test_degenerate_single_frame(self):
        out = random_walk_modulate(make_traj([150.0]), 1, 0)
        assert np.array_equal(out.values, [150.0])


class TestSmoothingSpline:
    def test_constant_unchanged(self):
        traj = make_traj([0.0] + [150.0] * 30 + [0.0])
        out = smoothing_spline_modifier(traj)
        assert np.allclose(out.values[traj.voiced_mask], 150.0, atol=1e-9)

    def test_linear_ramp_unchanged(self):
        values = np.linspace(100.0, 200.0, 40)
        out = smoothing_spline_modifier(make_traj(values))
        assert np.max(np.abs(out.values - values)) < 1e-6

    def test_variance_reduced_on_noisy_sinusoid(self):
        rng = np.random.default_rng(0)
        n = 120
        t = np.arange(n) * 0.01
        values = 150.0 + 20.0 * np.sin(2 * np.pi * 1.5 * t) + 3.0 * rng.standard_normal(n)
        traj = make_traj(values)
        out = smoothing_spline_modifier(traj)
        assert np.var(out.values) <= np.var(values)

    def test_unvoiced_untouched(self):
        rng = np.random.default_rng(2)
        traj = random_valid_traj(rng, n=60)
        out = smoothing_spline_modifier(traj)
        assert np.array_equal(out.values[~traj.voiced_mask], np.zeros((~traj.voiced_mask).sum()))

    def test_too_few_voiced(self):
        with pytest.raises(ValueError, match="4 voiced"):
            smoothing_spline_modifier(make_traj([0.0, 100.0, 110.0, 120.0, 0.0]))


class TestArgumentChecks:
    """Each library call refuses arguments outside its domain with its own message."""

    @pytest.mark.parametrize("call, message", [
        (lambda: shift_and_scale(make_traj([100.0, 120.0]), 0.0, 20.0), "targets must be positive"),
        (lambda: shift_and_scale(make_traj([100.0, 120.0]), 200.0, -1.0), "targets must be positive"),
        (lambda: invert_shift_and_scale(make_traj([100.0, 120.0]), -5.0, 20.0),
         "source statistics must be positive"),
        (lambda: invert_shift_and_scale(make_traj([100.0, 120.0]), 150.0, 0.0),
         "source statistics must be positive"),
        (lambda: shift_and_scale(make_traj([0.0, 120.0, 0.0]), 200.0, 20.0),
         "shift-and-scale needs at least 2 voiced frames"),
        (lambda: generate_walk(0, 1), "walk length must be >= 1"),
        (lambda: random_walk_modulate(make_traj([100.0, 120.0]), 3, 1), "strength must be 1 or 2, got 3"),
    ], ids=["shift-zero-mean", "shift-negative-std", "invert-negative-mean", "invert-zero-std",
            "shift-one-voiced-frame", "walk-length-0", "walk-strength-3"])
    def test_refused(self, call, message):
        with pytest.raises(ValueError) as raised:
            call()
        assert str(raised.value) == message


class TestShiftAndScale:
    def test_hand_example(self):
        out = shift_and_scale(make_traj([100.0, 120.0]), 220.0, 20.0)
        assert np.allclose(out.values, [200.0, 240.0], atol=1e-9)

    def test_identity_when_targets_match_source(self):
        rng = np.random.default_rng(4)
        traj = random_valid_traj(rng, n=50, low=100.0, high=250.0)
        voiced = traj.values[traj.voiced_mask]
        out = shift_and_scale(traj, float(np.mean(voiced)), float(np.std(voiced)))
        np.testing.assert_allclose(out.values, traj.values, rtol=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            traj = random_valid_traj(rng, n=80, low=100.0, high=250.0)
            voiced = traj.values[traj.voiced_mask]
            src_mean, src_std = float(np.mean(voiced)), float(np.std(voiced))
            fwd = shift_and_scale(traj, 200.0, 18.0)
            back = invert_shift_and_scale(fwd, src_mean, src_std)
            assert np.max(np.abs(back.values - traj.values)) < 1e-9 * 250.0

    def test_zero_std_error(self):
        with pytest.raises(ValueError, match="zero source std"):
            shift_and_scale(make_traj([100.0, 100.0]), 200.0, 10.0)

    def test_walk_output_not_invertible(self):
        # A global affine undo cannot cancel a time-varying multiplier.
        rng = np.random.default_rng(6)
        for i in range(5):
            traj = random_valid_traj(rng, n=150, low=110.0, high=280.0, rid=f"walk{i}")
            voiced = traj.values[traj.voiced_mask]
            src_mean, src_std = float(np.mean(voiced)), float(np.std(voiced))
            walked = apply(ModifierSpec(kind="random-walk-strong", seed=99), traj)
            attempt = invert_shift_and_scale(walked, src_mean, src_std)
            both = traj.voiced_mask & attempt.voiced_mask
            rmse = np.sqrt(np.mean((attempt.values[both] - traj.values[both]) ** 2))
            assert rmse > 1.0


# 50 valid frames alternating 127,000 and 100,000 Hz: modulated-same-1 takes
# 11 of them above 128 kHz.
UPPER_EDGE = (127000.0, 100000.0) * 25


class TestApply:
    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "all-flat"])
    def test_voicing_mask_preserved(self, kind):
        rng = np.random.default_rng(8)
        traj = random_valid_traj(rng, n=100, low=90.0, high=280.0)
        out = apply(spec_for(kind), traj)
        assert np.all(out.values[~traj.voiced_mask] == 0.0)
        assert out.n_frames == traj.n_frames
        assert out.frame_hop == traj.frame_hop
        assert out.recording_id == traj.recording_id

    @pytest.mark.parametrize("kind", list(KINDS))
    def test_output_always_valid(self, kind):
        rng = np.random.default_rng(13)
        for _ in range(5):
            traj = random_valid_traj(rng, low=41.0, high=330.0)
            out = apply(spec_for(kind), traj)
            assert validate(out) == []

    def test_deterministic(self):
        traj = random_valid_traj(np.random.default_rng(21), n=80, low=90.0, high=280.0)
        for kind in KINDS:
            spec = spec_for(kind)
            a = apply(spec, traj)
            b = apply(spec, traj)
            assert np.array_equal(a.values, b.values)

    def test_walks_unique_per_recording(self):
        rng = np.random.default_rng(14)
        spec = ModifierSpec(kind="random-walk-strong", seed=1234)
        for i in range(10):
            base = rng.uniform(90, 280, 60)
            a = apply(spec, make_traj(base, rid=f"rec_a{i}"))
            b = apply(spec, make_traj(base, rid=f"rec_b{i}"))
            assert not np.array_equal(a.values, b.values)

    def test_seed_hash_is_stable(self):
        ss = derive_recording_seed(1, "some-recording")
        assert ss.entropy == derive_recording_seed(1, "some-recording").entropy
        assert ss.entropy != derive_recording_seed(1, "other-recording").entropy

    def test_rejects_invalid_trajectory(self):
        with pytest.raises(ValueError, match="invalid trajectory"):
            apply(ModifierSpec(kind="voiced-flat"), make_traj([35.0, 100.0]))
        # One clause however many frames are bad.
        with pytest.raises(ValueError) as caught:
            apply(ModifierSpec(kind="voiced-flat"), make_traj([35.0, -1.0] * 200, rid="r"))
        assert str(caught.value) == "invalid trajectory: voiced value < 40 Hz at frame 0: 35 (and 399 more)"

    def test_rejects_output_outside_the_valid_range(self):
        # A valid contour that the modulation pushes above 128 kHz.
        with pytest.raises(ValueError) as caught:
            apply(ModifierSpec(kind="modulated-same-1"), make_traj(UPPER_EDGE))
        assert str(caught.value) == (
            "output failed validation: voiced value > 128000 Hz at frame 0: 133750 (and 10 more)")


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown kind"):
            ModifierSpec(kind="reverse")

    def test_different_builds_without_a_role(self):
        # Its carriers come from the corpus side it modifies, not from the spec.
        spec = ModifierSpec(kind="modulated-different")
        assert dataclasses.asdict(spec) == {"kind": "modulated-different", "seed": None,
                                            "target_mean_hz": None, "target_std_hz": None}

    def test_walk_requires_seed(self):
        with pytest.raises(SpecError, match="requires a seed"):
            ModifierSpec(kind="random-walk-weak")

    def test_shift_requires_targets(self):
        with pytest.raises(SpecError, match="target_mean_hz"):
            ModifierSpec(kind="shift-and-scale")
        with pytest.raises(SpecError, match="positive"):
            ModifierSpec(kind="shift-and-scale", target_mean_hz=-1.0, target_std_hz=10.0)

    @pytest.mark.parametrize("mean, std", [(1e308, 10.0), (150.0, 1e308), (150.0, np.nextafter(VOICED_MAX_HZ, 1e6))])
    def test_shift_targets_above_the_valid_range(self, mean, std):
        with pytest.raises(SpecError, match="shift-and-scale targets must be positive and at most 128000 Hz"):
            ModifierSpec(kind="shift-and-scale", target_mean_hz=mean, target_std_hz=std)
        ModifierSpec(kind="shift-and-scale", target_mean_hz=VOICED_MAX_HZ, target_std_hz=VOICED_MAX_HZ)

    @pytest.mark.parametrize("start, change, message", [
        (dict(kind="voiced-flat"), dict(kind="reverse"), "unknown kind 'reverse'"),
        (dict(kind="shift-and-scale", target_mean_hz=150.0, target_std_hz=20.0), dict(target_mean_hz=np.nan),
         "target_mean_hz must be a finite number"),
        (dict(kind="random-walk-weak", seed=1), dict(seed=None), "kind 'random-walk-weak' requires a seed"),
        (dict(kind="random-walk-weak", seed=1), dict(seed=2**64), "64 unsigned bits"),
        (dict(kind="random-walk-weak", seed=1), dict(seed=True), "seed must be an integer"),
        (dict(kind="shift-and-scale", target_mean_hz=150.0, target_std_hz=20.0), dict(target_std_hz=0.0),
         "shift-and-scale targets must be positive"),
    ])
    def test_checked_when_built_and_when_replaced(self, start, change, message):
        spec = ModifierSpec(**start)
        with pytest.raises(SpecError, match=message):
            dataclasses.replace(spec, **change)
        with pytest.raises(SpecError, match=message):
            ModifierSpec(**{**start, **change})


@st.composite
def valid_contours(draw):
    """Valid contours with >= 4 voiced frames that are not all equal.

    Unvoiced frames hold 0.0 or -0.0 (both pass validation).
    """
    n = draw(st.integers(4, 120))
    voiced = draw(arrays(bool, n))
    assume(voiced.sum() >= 4)
    hz = draw(arrays(np.float64, n, elements=st.floats(VOICED_MIN_HZ, 1000.0)))
    assume(np.std(hz[voiced]) > 0.0)
    values = np.where(voiced, hz, draw(st.sampled_from([0.0, -0.0])))
    hop = draw(st.floats(0.001, 0.05))
    return F0Trajectory(hop, values, draw(st.text(max_size=8)))


@st.composite
def specs(draw, kind):
    if kind == "modulated-different":  # as it modifies either side
        kind = SIDE_KINDS[draw(st.sampled_from(list(SIDE_KINDS)))]
    fields = {}
    if kind.startswith("random-walk"):
        fields["seed"] = draw(st.integers(0, 2**64 - 1))
    if kind == "shift-and-scale":
        fields["target_mean_hz"] = draw(st.floats(40.0, 400.0))
        fields["target_std_hz"] = draw(st.floats(1.0, 100.0))
    return ModifierSpec(kind=kind, **fields)


class TestModifierProperties:
    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), traj=valid_contours())
    def test_grid_and_id_preserved(self, kind, data, traj):
        out = apply(data.draw(specs(kind)), traj)
        assert out.n_frames == traj.n_frames
        assert out.frame_hop == traj.frame_hop
        assert out.recording_id == traj.recording_id

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), traj=valid_contours())
    def test_values_are_zero_or_at_least_40_hz(self, kind, data, traj):
        out = apply(data.draw(specs(kind)), traj)
        assert np.all((out.values == 0.0) | (out.values >= VOICED_MIN_HZ))

    @pytest.mark.parametrize("kind", [k for k in KINDS if k != "all-flat"])
    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), traj=valid_contours())
    def test_unvoiced_frames_stay_unvoiced(self, kind, data, traj):
        out = apply(data.draw(specs(kind)), traj)
        assert np.all(out.values[~traj.voiced_mask] == 0.0)

    @staticmethod
    def assert_post_rules_hold(out, traj):
        assert (out.n_frames, out.frame_hop, out.recording_id) == (
            traj.n_frames, traj.frame_hop, traj.recording_id
        )
        assert np.all((out.values == 0.0) | (out.values >= VOICED_MIN_HZ))
        assert np.all(out.values[~traj.voiced_mask] == 0.0)

    @settings(deadline=None, max_examples=60)
    @given(traj=valid_contours(),
           carriers=st.lists(st.floats(0.5, 60.0), min_size=2, max_size=2, unique=True))
    def test_modulate_with_any_carriers(self, traj, carriers):
        self.assert_post_rules_hold(modulate(traj, *carriers), traj)

    @settings(deadline=None, max_examples=60)
    @given(traj=valid_contours(), strength=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**64 - 1))
    def test_random_walk_modulate_with_either_strength(self, traj, strength, seed):
        self.assert_post_rules_hold(random_walk_modulate(traj, strength, seed), traj)

    @settings(deadline=None)
    @given(traj=valid_contours(), target_mean=st.floats(40.0, 400.0),
           target_std=st.floats(1.0, 100.0))
    def test_shift_and_scale_inverse_exact_when_nothing_clipped(
        self, traj, target_mean, target_std
    ):
        # The forward map reproduces the target moments only when the source
        # spread stands well above the rounding error of its mean. "Nothing
        # clipped" covers both ways: a 40 Hz input may come back a rounding
        # error below 40 Hz and be unvoiced by the inverse itself.
        voiced = traj.values[traj.voiced_mask]
        assume(np.std(voiced) > 1e-6 * np.mean(voiced))
        fwd = shift_and_scale(traj, target_mean, target_std)
        assume(np.array_equal(fwd.voiced_mask, traj.voiced_mask))
        back = invert_shift_and_scale(fwd, float(np.mean(voiced)), float(np.std(voiced)))
        assume(np.array_equal(back.voiced_mask, traj.voiced_mask))
        np.testing.assert_allclose(back.values, traj.values, rtol=1e-12, atol=0)


@st.composite
def range_contours(draw):
    """Valid contours anywhere in the valid range: voiced values from 40 Hz
    to ``VOICED_MAX_HZ``, hops from the CSV's 1e-6 s, at least 4 voiced frames."""
    n = draw(st.integers(4, 60))
    hz = st.one_of(st.sampled_from([VOICED_MIN_HZ, VOICED_MAX_HZ]), st.floats(VOICED_MIN_HZ, VOICED_MAX_HZ))
    values = draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), hz)))
    assume((values > 0.0).sum() >= 4)
    hop = draw(st.one_of(st.just(FRAME_HOP_MIN_S), st.floats(FRAME_HOP_MIN_S, 1.0)))
    return F0Trajectory(hop, values, draw(st.text(max_size=4)))


@st.composite
def range_specs(draw, kind):
    """Valid specs; shift-and-scale targets anywhere up to ``VOICED_MAX_HZ``."""
    target = st.one_of(st.just(VOICED_MAX_HZ), st.floats(0.0, VOICED_MAX_HZ, exclude_min=True))
    fields = {}
    if kind.startswith("random-walk"):
        fields["seed"] = draw(st.integers(0, 2**64 - 1))
    if kind == "shift-and-scale":
        fields.update(target_mean_hz=draw(target), target_std_hz=draw(target))
    return ModifierSpec(kind=kind, **fields)


# The ValueErrors a valid contour can still raise, none of them numeric. The
# last is a modification that takes a frame above the valid range.
STRUCTURAL = (r"smoothing spline needs|penalty bracketing failed|zero source std|"
              r"recording '[^']*': absent statistics|no voiced frames|"
              r"output failed validation: voiced value > ")


class TestValidRangeArithmetic:
    """No valid contour or spec overflows or makes a NaN on the way to a report."""

    @pytest.mark.parametrize("kind", KINDS)
    @settings(deadline=None, max_examples=30)
    @given(data=st.data(), traj=range_contours())
    def test_apply_and_stats(self, kind, data, traj):
        if kind == "modulated-different":  # as it modifies either side
            kind = SIDE_KINDS[data.draw(st.sampled_from(list(SIDE_KINDS)))]
        spec = data.draw(range_specs(kind))
        with np.errstate(over="raise", invalid="raise"):
            assert all(np.isfinite(v) for v in stats(traj).to_dict().values())
            try:
                out = apply(spec, traj)
            except ValueError as exc:
                assert re.search(STRUCTURAL, str(exc)), exc
            else:
                assert np.isfinite(out.values).all()
                assert all(v is None or np.isfinite(v) for v in stats(out).to_dict().values())

    @pytest.mark.parametrize("scenario", SCENARIOS)
    @settings(deadline=None, max_examples=15)
    @given(data=st.data(), trajs=st.lists(range_contours(), min_size=4, max_size=6))
    def test_run_scenario(self, scenario, data, trajs):
        kind = data.draw(st.sampled_from(KINDS))
        recordings = tuple(
            Recording(f"s{i // 2}", f"r{i}", ("enrollment", "trial")[i % 2], traj)
            for i, traj in enumerate(trajs[: len(trajs) // 2 * 2])
        )
        with np.errstate(over="raise", invalid="raise"):
            try:
                report = run_scenario(SpeakerCorpus(recordings), data.draw(range_specs(kind)), scenario)
            except ValueError as exc:
                assert re.search(STRUCTURAL, str(exc)), exc
            else:
                assert np.isfinite([report.eer_percent, report.cllr_bits, report.cllr_min_bits]).all()
