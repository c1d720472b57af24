"""Score every modification under the three attack scenarios.

Builds a synthetic 20-speaker corpus whose speakers differ mainly in
log-F0 spread and skewness, then reports EER / Cllr / Cllr-min for:

    OO  original vs original   (baseline linkability; low EER)
    OA  original enrollment vs anonymized trials (higher EER = better)
    AA  both sides anonymized  (the stricter attack; flattened contours
        become easy to re-link, random walks stay hard)

Run from the repository root:  python demos/04_attack_scenarios.py
"""

from f0priv import ModifierSpec
from f0priv.evaluation import scenario_report, scenario_sides, score_corpus
from f0priv.synth import speaker_corpus

corpus = speaker_corpus(n_speakers=20, n_enroll=3, n_trial=3, n_frames=300, seed=0)

specs = {
    "voiced-flat": ModifierSpec(kind="voiced-flat"),
    "all-flat": ModifierSpec(kind="all-flat"),
    "smoothing-spline": ModifierSpec(kind="smoothing-spline"),
    "modulated-same-1": ModifierSpec(kind="modulated-same-1"),
    "modulated-same-2": ModifierSpec(kind="modulated-same-2"),
    "modulated-different": ModifierSpec(kind="modulated-different"),
    "random-walk-weak": ModifierSpec(kind="random-walk-weak", seed=1234),
    "random-walk-strong": ModifierSpec(kind="random-walk-strong", seed=1234),
    "shift-and-scale": ModifierSpec(kind="shift-and-scale", target_mean_hz=165.0, target_std_hz=20.0),
}

original_enroll = corpus.split("enrollment")
oo = scenario_report("OO", score_corpus(original_enroll, corpus.split("trial")))
print(f"{'method':22s} {'EER OA':>8s} {'EER AA':>8s} {'Cllr OA':>9s} {'Cllr AA':>9s}")
print(f"{'(raw corpus OO)':22s} {oo.eer_percent:8.2f} {'-':>8s} {oo.cllr_bits:9.3f} {'-':>9s}")
for name, spec in specs.items():
    # OA's trial side is AA's, so each kind modifies each recording once.
    enroll, trials = scenario_sides(corpus, spec, "AA")
    oa = scenario_report("OA", score_corpus(original_enroll, trials))
    aa = scenario_report("AA", score_corpus(enroll, trials))
    print(f"{name:22s} {oa.eer_percent:8.2f} {aa.eer_percent:8.2f} {oa.cllr_bits:9.3f} {aa.cllr_bits:9.3f}")

print(
    "\nHigher EER means the attacker links speakers less reliably; "
    "50% is chance level."
)
