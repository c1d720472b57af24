"""Time the library's layers in two trees side by side in one interpreter, and compare their outputs.

    python3 tools/bench_layers.py PARENT_DIR CHANGE_DIR --out BENCH_name.json

PARENT_DIR and CHANGE_DIR are checkout roots. The inputs are the CSVs of the
parent's ``perfbench/inputs.make_corpus`` at SEED and the WAVs of its
``make_wavs`` at SEED, written to a temporary directory. Each of PROCESSES
fresh worker processes imports three copies of ``f0priv``, each under its
own module set: the parent's ``src/``, the change's and a copy of the
parent's ``src/`` (the A/A control). It asserts that every ``f0priv`` module
of a set comes from that set's ``src/``.

For each layer in LAYERS, a worker calls the layer on every input once per
tree to warm it up and keep a digest of its outputs. It then times ROUNDS
rounds of the layer on the first TIMED_FILES CSVs, or for ``extract_f0`` the
first TIMED_WAVS WAVs (16 kHz mono): a short call is less often disturbed
than a long one. The ``apply.<kind>`` layers take SPECS' fields for their
kind. The scoring layers take the timed CSVs as recordings, with the speakers
and splits ``make_corpus`` assigned them: ``score_corpus`` scores them, and
``eer``, ``cllr_min`` and ``affine_calibrate`` take the tree's own score set.
The trees run in the order parent, change, copy in even rounds and in reverse
in odd ones, so each pair of trees alternates ABBA.

Each worker gives a layer two ratios, change / parent and copy / parent (the
A/A control): the median over rounds of the ratio of the two trees' times in
that round. The trees of a round run next to each other, so the drift of the
host that they share cancels (Chen & Revels, arXiv 1608.04295, on
alternation). A layer counts as changed only when the median of its change
ratios lies outside the range of its control ratios (see ``verdict``).

The file keeps every round's time of every tree, the ratios, the verdict,
the output digests, the timed seconds of audio and the wall time. Files
written before this rule also hold a ``minimum`` entry, a verdict from the
ratio of each tree's minimum time; files from before the paired rule keep
only minimum times and cannot be re-judged. The script exits 1 when a
layer's outputs differ between the parent and the change. Import time,
process start and file writes are not seen here; ``tools/bench_pairs.py``
times those end to end.
"""

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_pairs import THREAD_VARS, host

SEED = 1
PROCESSES = 6
ROUNDS = 24
TIMED_FILES = 200  # of make_corpus's 1,200 CSVs
TIMED_WAVS = 3  # of make_wavs's 24 WAVs; the first 20 are 16 kHz mono
# Each kind a single contour takes (all but modulated-different, a kind of
# the corpus sides), with its ModifierSpec fields beyond the kind: the flags
# of tools/same_outputs.py's KIND_FLAGS.
SPECS = {
    "voiced-flat": {},
    "all-flat": {},
    "smoothing-spline": {},
    "modulated-same-1": {},
    "modulated-same-2": {},
    "random-walk-weak": {"seed": 7},
    "random-walk-strong": {"seed": 7},
    "shift-and-scale": {"target_mean_hz": 165.0, "target_std_hz": 20.0},
}
LAYERS = ("read_f0_csv", "format_f0_csv", "validate", "stats", *(f"apply.{kind}" for kind in SPECS),
          "spline.fit", "score_corpus", "eer", "cllr_min", "affine_calibrate", "extract_f0")
MODULES = ("trajectory", "modifiers", "spline", "evaluation", "pitch")
TREES = ("parent", "change", "copy")


def load_tree(src: Path) -> dict:
    """``src``'s MODULES, under a module set of their own.

    The tree's ``f0priv`` entries are taken out of ``sys.modules`` after the
    import, so the next tree imports afresh. Raises ``SystemExit`` when any
    of them comes from outside ``src``.
    """
    sys.path.insert(0, str(src))
    try:
        modules = {name: importlib.import_module(f"f0priv.{name}") for name in MODULES}
    finally:
        sys.path.remove(str(src))
        loaded = {name: sys.modules.pop(name) for name in list(sys.modules)
                  if name == "f0priv" or name.startswith("f0priv.")}
    for name, module in loaded.items():
        if not Path(module.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"error: {name} was imported from {module.__file__}, not from {src}")
    return modules


def layer_calls(modules: dict, paths: list, wavs: list, speakers: dict) -> dict:
    """Each layer as a call over every input, with one tree's ``modules``.

    ``paths`` are CSVs and ``wavs`` WAV files. ``spline.fit`` fits each
    contour's voiced frames at the default target, as the smoothing-spline
    modification does. ``speakers`` maps each recording id (a CSV's stem)
    to its speaker and split.
    """
    trajectory, modifiers, spline = modules["trajectory"], modules["modifiers"], modules["spline"]
    evaluation, pitch = modules["evaluation"], modules["pitch"]
    contours = [trajectory.read_f0_csv(path) for path in paths]
    voiced = [(c.times[c.voiced_mask], c.values[c.voiced_mask]) for c in contours]
    audio = [pitch.read_wav(wav) for wav in wavs]
    recordings = []
    for path, contour in zip(paths, contours):
        speaker, split = speakers[Path(path).stem]
        recordings.append(evaluation.Recording(speaker, Path(path).stem, split, contour))
    sides = [[r for r in recordings if r.split == split] for split in ("enrollment", "trial")]
    scores = evaluation.score_corpus(*sides)

    def apply(kind):
        spec = modifiers.ModifierSpec(kind, **SPECS[kind])
        return lambda: [modifiers.apply(spec, c) for c in contours]

    return {
        "read_f0_csv": lambda: [trajectory.read_f0_csv(path) for path in paths],
        "format_f0_csv": lambda: [trajectory.format_f0_csv(c) for c in contours],
        "validate": lambda: [trajectory.validate(c) for c in contours],
        "stats": lambda: [trajectory.stats(c) for c in contours],
        **{f"apply.{kind}": apply(kind) for kind in SPECS},
        "spline.fit": lambda: [spline.fit(x, y) for x, y in voiced],
        "score_corpus": lambda: evaluation.score_corpus(*sides),
        "eer": lambda: evaluation.eer(scores),
        "cllr_min": lambda: evaluation.cllr_min(scores),
        "affine_calibrate": lambda: evaluation.affine_calibrate(scores),
        "extract_f0": lambda: [pitch.extract_f0(a) for a in audio],
    }


def digest(value) -> str:
    """A SHA-256 of ``value``'s bits: arrays and floats by their bytes, so -0.0
    and NaN payloads count; dataclasses by their fields; lists item by item."""
    h = hashlib.sha256()

    def feed(v):
        if dataclasses.is_dataclass(v):
            v = [type(v).__name__, *(getattr(v, f.name) for f in dataclasses.fields(v))]
        if isinstance(v, list):
            h.update(b"[%d" % len(v))
            for item in v:
                feed(item)
        elif hasattr(v, "tobytes"):
            h.update(b"a%s%r:" % (v.dtype.str.encode(), v.shape) + v.tobytes())
        elif isinstance(v, float):
            h.update(b"f" + struct.pack("<d", v))
        else:
            h.update(b"r%d:" % len(repr(v)) + repr(v).encode())

    feed(value)
    return h.hexdigest()


def round_order(r: int) -> tuple:
    """The order the trees run in round ``r``: ABBA for each pair of trees."""
    return TREES if r % 2 == 0 else TREES[::-1]


def time_layers(srcs: dict, paths: list, wavs: list, speakers: dict, rounds: int, timed_files: int,
                timed_wavs: int) -> dict:
    """One worker's run: per layer, each tree's digest of its outputs on
    ``paths`` and ``wavs`` and its ``rounds`` times in seconds on the first
    ``timed_files`` and ``timed_wavs`` of them."""
    modules = {tree: load_tree(src) for tree, src in srcs.items()}
    every = {tree: layer_calls(modules[tree], paths, wavs, speakers) for tree in TREES}
    calls = {tree: layer_calls(modules[tree], paths[:timed_files], wavs[:timed_wavs], speakers) for tree in TREES}
    out = {}
    for layer in LAYERS:
        digests = {tree: digest(every[tree][layer]()) for tree in TREES}
        times: dict = {tree: [] for tree in TREES}
        for r in range(rounds):
            for tree in round_order(r):
                call = calls[tree][layer]
                gc.collect()
                gc.disable()
                start = time.perf_counter()
                call()
                times[tree].append(time.perf_counter() - start)
                gc.enable()
        out[layer] = {"digests": digests, "times": times}
    return out


def judge(times: dict) -> dict:
    """A layer's verdict from ``times[tree][worker][round]``: per worker, the
    median over rounds of change / parent and of copy / parent."""
    ratios = {tree: [statistics.median(t / p for t, p in zip(run, parent))
                     for run, parent in zip(times[tree], times["parent"])] for tree in ("change", "copy")}
    return verdict(ratios["change"], ratios["copy"])


def verdict(ratios: list, control: list) -> dict:
    """A layer's verdict from the change/parent and copy/parent ratios of the processes.

    The control range is the range of the copy ratios, widened to hold 1.
    The layer is ``faster`` when the median change ratio lies below it,
    ``slower`` when it lies above it, and ``unchanged`` otherwise.
    """
    median = statistics.median(ratios)
    low, high = min(1.0, *control), max(1.0, *control)
    found = "faster" if median < low else "slower" if median > high else "unchanged"
    return {"verdict": found, "median_ratio": median, "control_range": [low, high],
            "ratios": ratios, "control_ratios": control}


def tree_sha256(src: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((src / "f0priv").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main() -> None:
    if sys.argv[1:2] == ["--worker"]:  # one worker process: time_layers' arguments as JSON on stdin
        job = json.load(sys.stdin)
        job["srcs"] = {tree: Path(src) for tree, src in job["srcs"].items()}
        json.dump(time_layers(**job), sys.stdout)
        return
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sys.path.insert(0, str(roots["parent"] / "perfbench"))
    import inputs  # the benchmark's seeded generators

    started = time.perf_counter()
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "F0PRIV_"))}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        srcs = {"parent": roots["parent"] / "src", "change": roots["change"] / "src", "copy": Path(tmp) / "src"}
        shutil.copytree(srcs["parent"], srcs["copy"], ignore=shutil.ignore_patterns("__pycache__"))
        corpus = inputs.make_corpus(Path(tmp) / "corpus", SEED)
        paths = [str(c.path) for c in corpus.contours]
        made = inputs.make_wavs(Path(tmp) / "wavs", SEED).wavs
        wavs = [str(w.path) for w in made]
        timed_audio_s = sum(w.duration_s for w in made[:TIMED_WAVS])
        del made  # its decoded samples
        job = json.dumps({"srcs": {t: str(s) for t, s in srcs.items()}, "paths": paths, "wavs": wavs,
                          "speakers": corpus.speakers, "rounds": ROUNDS, "timed_files": TIMED_FILES,
                          "timed_wavs": TIMED_WAVS})
        for k in range(PROCESSES):
            out = subprocess.run([sys.executable, __file__, "--worker"], input=job, env=env,
                                 capture_output=True, text=True, check=True)
            runs.append(json.loads(out.stdout))
            print(f"process {k + 1} of {PROCESSES} done", file=sys.stderr, flush=True)
        sha = {tree: tree_sha256(src) for tree, src in srcs.items()}
    if sha["copy"] != sha["parent"]:
        raise SystemExit("error: the copy of the parent's src/ differs from it")

    layers, differing = {}, []
    for layer in LAYERS:
        times = {tree: [run[layer]["times"][tree] for run in runs] for tree in TREES}
        digests = {tree: {run[layer]["digests"][tree] for run in runs} for tree in TREES}
        identical = len(digests["parent"] | digests["change"]) == 1
        if not identical:
            differing.append(layer)
        layers[layer] = {**judge(times), "outputs_identical": identical,
                         "times_ms": {tree: [[1e3 * t for t in run] for run in times[tree]] for tree in TREES},
                         "output_sha256": {tree: sorted(d) for tree, d in digests.items()}}
    doc = {
        "host": host(),
        "command": "python3 tools/bench_layers.py PARENT CHANGE",
        "inputs": {"generator": "perfbench/inputs.make_corpus", "seed": SEED, "csv_files": len(paths),
                   "timed_files": TIMED_FILES, "wav_generator": "perfbench/inputs.make_wavs",
                   "wav_files": len(wavs), "timed_wavs": TIMED_WAVS, "timed_audio_s": timed_audio_s},
        "processes": PROCESSES,
        "rounds": ROUNDS,
        "wall_s": time.perf_counter() - started,
        "src_sha256": {tree: sha[tree] for tree in ("parent", "change")},
        "control_spread": [min(min(layer["control_ratios"]) for layer in layers.values()),
                           max(max(layer["control_ratios"]) for layer in layers.values())],
        "layers": layers,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    for layer in differing:
        print(f"{layer}: outputs differ between parent and change", flush=True)
    sys.exit(1 if differing else 0)


if __name__ == "__main__":
    main()
