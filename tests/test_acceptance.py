"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every criterion carries its runtime budget.
"""

import contextlib
import time

import numpy as np
from click.testing import CliRunner

from conftest import make_traj
from f0priv.cli import cli
from f0priv.evaluation import ScoreSet, cllr, cllr_min, eer, scenario_sides, score_corpus
from f0priv.modifiers import (
    ModifierSpec,
    apply,
    flatten_all,
    flatten_voiced,
    generate_walk,
    invert_shift_and_scale,
    modulate,
    random_walk_modulate,
    shift_and_scale,
)
from f0priv.pitch import AudioBuffer, extract_f0
from f0priv.spline import fit as spline_fit
from f0priv.synth import random_trajectory, speaker_corpus, tone
from f0priv.trajectory import read_f0_csv, voiced_mean, write_f0_csv
from oracles import (
    brute_force_eer,
    exhaustive_cllr_min,
    sinusoid_modulation_reference,
    walk_modulation_reference,
)


@contextlib.contextmanager
def criterion(label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"[acceptance] {label}: PASS ({elapsed:.2f}s, budget {budget_s:g}s)")
    assert elapsed < budget_s, f"{label} exceeded its {budget_s}s budget: {elapsed:.2f}s"


def relative_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = np.maximum(np.abs(want), 1e-30)
    return float(np.max(np.abs(got - want) / scale))


def test_c1_sinusoid_modulation_matches_oracle():
    with criterion("C1 quadrature-modulation oracle equivalence", 5.0):
        rng = np.random.default_rng(101)
        worst = 0.0
        for i in range(100):
            traj = random_trajectory(rng, recording_id=f"c1_{i}")
            for pair in ((5.0, 11.0), (3.0, 7.0)):
                got = modulate(traj, *pair).values
                want = np.array(
                    sinusoid_modulation_reference(traj.values, traj.frame_hop, *pair)
                )
                worst = max(worst, relative_error(got, want))
        assert worst <= 1e-9, f"max relative error {worst:.3e}"


def test_c2_walk_modulation_matches_oracle_and_walk_extremes():
    with criterion("C2 random-walk-modulation oracle equivalence", 5.0):
        rng = np.random.default_rng(202)
        worst = 0.0
        for i in range(100):
            traj = random_trajectory(rng, recording_id=f"c2_{i}")
            seed = 5000 + i
            walk = generate_walk(traj.n_frames, seed)
            if traj.n_frames > 1:
                assert walk.min() == -0.5 and walk.max() == 0.5
            for strength in (1, 2):
                got = random_walk_modulate(traj, strength, seed).values
                want = np.array(walk_modulation_reference(traj.values, walk, strength))
                worst = max(worst, relative_error(got, want))
        assert worst <= 1e-9, f"max relative error {worst:.3e}"


def test_c3_flattening_invariants():
    with criterion("C3 flattening invariants", 2.0):
        rng = np.random.default_rng(303)
        for i in range(100):
            traj = random_trajectory(rng, recording_id=f"c3_{i}")
            mean = voiced_mean(traj)
            vf = flatten_voiced(traj)
            assert abs(voiced_mean(vf) - mean) <= 1e-9 * mean
            assert np.var(vf.values[vf.voiced_mask]) <= 1e-16
            af = flatten_all(traj)
            assert np.all(af.values == af.values[0])
            assert abs(af.values[0] - mean) <= 1e-9 * mean


def test_c4_post_rule_compliance():
    with criterion("C4 post-rule compliance on adversarial inputs", 2.0):
        rng = np.random.default_rng(404)
        specs = [
            ModifierSpec(kind="voiced-flat"),
            ModifierSpec(kind="smoothing-spline"),
            ModifierSpec(kind="modulated-same-1"),
            ModifierSpec(kind="modulated-same-2"),
            ModifierSpec(kind="random-walk-weak", seed=11),
            ModifierSpec(kind="random-walk-strong", seed=12),
            ModifierSpec(kind="shift-and-scale", target_mean_hz=45.0, target_std_hz=30.0),
        ]
        for i in range(15):
            n = int(rng.integers(40, 120))
            # Mix frames near the floor with far-flung ones around the mean.
            values = np.where(
                rng.random(n) < 0.5,
                rng.uniform(40.0, 60.0, n),
                rng.uniform(41.0, 320.0, n),
            )
            values[rng.random(n) < 0.3] = 0.0
            if (values > 0).sum() < 4:
                values[:4] = rng.uniform(41.0, 300.0, 4)
            traj = make_traj(values, rid=f"c4_{i}")
            for spec in specs:
                out = apply(spec, traj)
                voiced_out = out.values[out.values > 0]
                assert np.all(voiced_out >= 40.0), spec.kind
                assert np.all(out.values[~traj.voiced_mask] == 0.0), spec.kind
            flat = apply(ModifierSpec(kind="all-flat"), traj)
            assert np.all(flat.values == flat.values[0])
            assert flat.values[0] >= 40.0


def test_c5_spline_limits():
    with criterion("C5 smoothing-spline limits", 10.0):
        rng = np.random.default_rng(505)
        # s = 0 interpolates 20-point datasets.
        for _ in range(5):
            x = np.sort(rng.uniform(0.0, 2.0, 20))
            while np.any(np.diff(x) <= 1e-6):
                x = np.sort(rng.uniform(0.0, 2.0, 20))
            y = rng.uniform(60.0, 300.0, 20)
            model = spline_fit(x, y, s=0.0)
            assert np.max(np.abs(model.fitted - y)) <= 1e-9
        # Huge s matches the ordinary least-squares line.
        for _ in range(5):
            x = np.sort(rng.uniform(0.0, 2.0, 30))
            y = rng.uniform(60.0, 300.0, 30)
            model = spline_fit(x, y, s=1e12)
            slope, intercept = np.polyfit(x, y, 1)
            line = intercept + slope * x
            assert np.max(np.abs(model.fitted - line)) <= 1e-6
        # Active constraints hit the residual target.
        x = np.arange(50) * 0.01
        y = 120.0 + 10.0 * np.sin(2 * np.pi * 2.0 * x) + rng.standard_normal(50)
        for s in (5.0, 20.0, 50.0):
            model = spline_fit(x, y, s=s)
            direct = float(np.sum((y - model.fitted) ** 2))
            assert direct <= s * (1.0 + 1e-12)
            assert abs(direct - s) / s <= 1e-3
        # Residual monotone over an s-grid.
        grid = np.linspace(0.5, 300.0, 10)
        residuals = [spline_fit(x, y, s=s).achieved_residual for s in grid]
        for a, b in zip(residuals, residuals[1:]):
            assert b >= a - 1e-9 * (1.0 + a)


def test_c6_metric_oracles():
    with criterion("C6 EER and Cllr oracles", 10.0):
        rng = np.random.default_rng(606)
        for _ in range(50):
            n_tar = int(rng.integers(2, 400))
            n_non = int(rng.integers(2, 600))
            sep = rng.uniform(0.0, 2.5)
            scores = ScoreSet(
                rng.normal(sep, 1.0, n_tar), rng.normal(-sep, 1.0, n_non)
            )
            expected = brute_force_eer(list(scores.target_scores), list(scores.nontarget_scores))
            assert abs(eer(scores) - expected) <= 1e-9
            assert cllr_min(scores) <= cllr(scores) + 1e-12
        assert cllr(ScoreSet(np.zeros(7), np.zeros(5))) == 1.0
        for _ in range(30):
            n_tar = int(rng.integers(1, 5))
            n_non = int(rng.integers(1, 9 - n_tar))
            scores = ScoreSet(rng.normal(0.4, 1.0, n_tar), rng.normal(-0.4, 1.0, n_non))
            expected = exhaustive_cllr_min(
                list(scores.target_scores), list(scores.nontarget_scores)
            )
            assert abs(cllr_min(scores) - expected) <= 1e-9


def test_c7_directional_anonymization():
    with criterion("C7 directional anonymization trends", 30.0):
        corpus = speaker_corpus(n_speakers=20, n_enroll=3, n_trial=3, n_frames=300, seed=0)
        # Each side is modified once: OA and AA share the modified trial side.
        original_enroll = corpus.split("enrollment")
        eer_oo = eer(score_corpus(original_enroll, corpus.split("trial")))
        flat_enroll, flat_trials = scenario_sides(corpus, ModifierSpec(kind="all-flat"), "AA")
        eer_oa_flat = eer(score_corpus(original_enroll, flat_trials))
        eer_aa_flat = eer(score_corpus(flat_enroll, flat_trials))
        _, walk_trials = scenario_sides(corpus, ModifierSpec(kind="random-walk-strong", seed=777), "OA")
        eer_oa_walk = eer(score_corpus(original_enroll, walk_trials))
        assert eer_oa_flat > eer_oo, (eer_oa_flat, eer_oo)
        assert eer_aa_flat < eer_oa_flat, (eer_aa_flat, eer_oa_flat)
        assert eer_oa_walk > eer_oo, (eer_oa_walk, eer_oo)


def test_c8_reversibility_contrast():
    with criterion("C8 reversibility contrast", 5.0):
        rng = np.random.default_rng(808)
        walk_spec = ModifierSpec(kind="random-walk-strong", seed=4242)
        for i in range(20):
            traj = random_trajectory(
                rng, n_frames=160, f0_low=110.0, f0_high=280.0, recording_id=f"c8_{i}"
            )
            voiced = traj.values[traj.voiced_mask]
            src_mean, src_std = float(np.mean(voiced)), float(np.std(voiced))
            # The documented weakness: the affine map inverts exactly.
            mapped = shift_and_scale(traj, 200.0, 18.0)
            back = invert_shift_and_scale(mapped, src_mean, src_std)
            assert np.max(np.abs(back.values - traj.values)) < 1e-6
            # The walk does not: even the least-squares-optimal affine undo
            # (stronger than any shift-and-scale back-map) leaves > 1 Hz RMSE.
            walked = apply(walk_spec, traj)
            both = traj.voiced_mask & walked.voiced_mask
            x, y = walked.values[both], traj.values[both]
            slope, intercept = np.polyfit(x, y, 1)
            residual = y - (intercept + slope * x)
            assert np.sqrt(np.mean(residual**2)) > 1.0


def test_c9_pitch_tracker_accuracy():
    with criterion("C9 pitch tracker pure-tone accuracy", 30.0):
        for freq in np.linspace(80.0, 350.0, 20):
            traj = extract_f0(tone(freq, 1.0, 16000))
            voiced = traj.values[traj.values > 0]
            assert voiced.size > 0, f"{freq:.1f} Hz tone came out unvoiced"
            assert abs(np.median(voiced) - freq) <= 2.0
        silence = extract_f0(AudioBuffer(16000, np.zeros(16000)))
        assert np.all(silence.values == 0.0)


def test_c10_end_to_end_determinism(tmp_path):
    with criterion("C10 end-to-end determinism and lossless CSV", 5.0):
        rng = np.random.default_rng(1010)
        sources = []
        for i in range(4):
            traj = random_trajectory(rng, n_frames=150, recording_id=f"d{i}")
            path = tmp_path / f"d{i}.csv"
            write_f0_csv(traj, path)
            sources.append(str(path))
        runner = CliRunner()
        snapshots = []
        for name in ("r1", "r2", "r3"):
            out = tmp_path / name
            result = runner.invoke(
                cli,
                ["modify", *sources, "--kind", "random-walk-strong", "--seed", "31337",
                 "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            snapshots.append(
                [(out / f"d{i}.csv").read_bytes() for i in range(4)]
                + [(out / "sidecar.json").read_bytes()]
            )
        assert snapshots[0] == snapshots[1] == snapshots[2]
        # CSV round trip is lossless at the written precision.
        for i in range(4):
            first = (tmp_path / "r1" / f"d{i}.csv").read_bytes()
            reread = read_f0_csv(tmp_path / "r1" / f"d{i}.csv")
            second = tmp_path / f"rt{i}.csv"
            write_f0_csv(reread, second)
            assert second.read_bytes() == first
