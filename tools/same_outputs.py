"""Run the CLI and the demos of two trees on the same inputs and compare every output byte.

    python3 tools/same_outputs.py PARENT_DIR CHANGE_DIR [--seeds 1 301 ...]

PARENT_DIR and CHANGE_DIR are checkout roots. The inputs come from the
parent's ``perfbench/inputs.py``:

- ``make_wavs`` at WAV_SEED: ``extract``;
- ``make_corpus`` per seed: ``modify`` of every CSV with each of the eight
  kinds a single contour takes, ``stats`` to a file and to stdout, ``eval``
  OO, OA ``random-walk-strong``, AA ``smoothing-spline``, OA and AA
  ``modulated-different``, and ``plot``.

Hand-made inputs at the edges of the valid input follow (a one-row CSV,
values next to the bounds of the F0 range for ``stats`` and ``modify``, a
corpus whose recordings fail their modification on both sides, tracker
settings whose longest lag the frame cannot hold, a ``modify`` input inside
its own ``--out``, ``extract`` manifests with a ``../x``, an empty, a
NUL-holding, a 252-character and a lone-surrogate recording id, a corpus
with absent statistics on both sides, a good ``extract`` manifest followed
by one with a bad split, run configs with an unknown ``modifier`` key for
``modify`` and for ``eval`` OO, CSVs with blank lines before a bad row and
around good ones, a ``1_0`` value, a CSV with a negative frame before a
non-finite one, a WAV of one frame, a ``.wav`` file that is no WAV before
a good one, ``modify --kind modulated-different``, which a single contour
cannot take, run configs with an ``input_dir`` for ``extract`` and an
``output_dir`` for ``modify``, and a directory given to ``stats``), and
then the five demos.

Each run is a fresh interpreter with its tree's ``src/`` on PYTHONPATH. Both
sides run in the same working directory, one after the other, so the paths
they print and write read the same. A run keeps the files it wrote, its
stdout, its stderr and its exit code; the two sides' copies are compared file
by file and each difference is printed. The script exits 1 when there is
any. Scratch files live in a temporary directory that is removed at the end.
"""

import argparse
import difflib
import json
import os
import shutil
import subprocess
import sys
import tempfile
import wave
from pathlib import Path

CLI = ["-c", "from f0priv.cli import main; main()"]
# The flags each kind that a single contour takes needs beyond --kind.
KIND_FLAGS = {
    "voiced-flat": [],
    "all-flat": [],
    "smoothing-spline": [],
    "modulated-same-1": [],
    "modulated-same-2": [],
    "random-walk-weak": ["--seed", "7"],
    "random-walk-strong": ["--seed", "7"],
    "shift-and-scale": ["--target-mean", "165", "--target-std", "20"],
}
WAV_SEED = 1
DIFF_LINES = 20  # of a differing text file, at most this many diff lines are printed
TEXT_MAX_BYTES = 1 << 16


def differences(parent: Path, change: Path) -> list[str]:
    """One entry per file that is not the same in the two directory trees.

    A file on one side only is named as such. A differing text file of at
    most TEXT_MAX_BYTES gets its unified diff (DIFF_LINES lines at most);
    any other differing file, the offset of its first differing byte.
    """
    names = sorted({path.relative_to(root) for root in (parent, change) if root.is_dir()
                    for path in root.rglob("*") if path.is_file()})
    found = []
    for name in names:
        a, b = parent / name, change / name
        if not b.is_file():
            found.append(f"only in parent: {name}")
            continue
        if not a.is_file():
            found.append(f"only in change: {name}")
            continue
        old, new = a.read_bytes(), b.read_bytes()
        if old == new:
            continue
        old_lines, new_lines = _text_lines(old), _text_lines(new)
        if old_lines is None or new_lines is None:
            at = next((i for i, (x, y) in enumerate(zip(old, new)) if x != y), min(len(old), len(new)))
            found.append(f"differs: {name}: first at byte {at} ({len(old)} and {len(new)} bytes)")
            continue
        lines = list(difflib.unified_diff(old_lines, new_lines, lineterm="", n=0))[2:]  # no file headers
        more = [f"... {len(lines) - DIFF_LINES} more lines"] if len(lines) > DIFF_LINES else []
        found.append("\n  ".join([f"differs: {name}", *lines[:DIFF_LINES], *more]))
    return found


def _text_lines(data: bytes) -> list[str] | None:
    """The lines of ``data`` as UTF-8 text of at most TEXT_MAX_BYTES, else None."""
    if len(data) > TEXT_MAX_BYTES:
        return None
    try:
        return data.decode().splitlines()
    except UnicodeDecodeError:
        return None


def tree_env(tree: Path) -> dict:
    """The environment of a run of ``tree``: its ``src/`` is the only PYTHONPATH entry."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "F0PRIV_"))}
    return {**env, "PYTHONPATH": str(tree / "src")}


def run(tree: Path, argv: list, work: Path, kept: Path, copy: Path | None = None,
        start: Path | None = None) -> None:
    """``python argv`` with ``tree``'s package, in ``work``; its outputs moved to ``kept``.

    ``copy`` is a script put in ``work`` before the run and taken out after it.
    ``start`` is a directory whose files ``work`` starts with; they are kept
    and compared with the outputs.
    """
    if start is None:
        work.mkdir()
    else:
        shutil.copytree(start, work)
    if copy is not None:
        shutil.copy(copy, work / copy.name)
    out = subprocess.run([sys.executable, *argv], cwd=work, env=tree_env(tree), capture_output=True)
    if copy is not None:
        (work / copy.name).unlink()
    kept.mkdir(parents=True)
    work.rename(kept / "files")
    (kept / "stdout").write_bytes(out.stdout)
    (kept / "stderr").write_bytes(out.stderr)
    (kept / "exit_code").write_text(f"{out.returncode}\n")


def csv(path: Path, values) -> Path:
    path.write_text("time_s,f0_hz\n" + "".join(f"{0.01 * i:.6f},{v}\n" for i, v in enumerate(values)))
    return path


def corpus_manifest(path: Path, sides: dict) -> Path:
    """A manifest at ``path`` of one CSV beside it per speaker and split, from
    ``{speaker: (enrollment values, trial values)}``; recording ids are ``<speaker>-<e|t>``."""
    entries = []
    for speaker, pair in sides.items():
        for split, values in zip(("enrollment", "trial"), pair):
            rid = f"{speaker}-{split[0]}"
            name = csv(path.parent / f"{path.stem}-{rid}.csv", values).name
            entries.append({"speaker_id": speaker, "recording_id": rid, "split": split, "path": name})
    path.write_text(json.dumps({"entries": entries}))
    return path


def edge_runs(root: Path, wavs: list) -> list:
    """The (name, argv, start) runs of hand-made inputs at the edges of the valid input.

    ``start`` is None or the directory a run's working directory starts as (see :func:`run`).
    """
    root.mkdir()
    one = csv(root / "one.csv", ["100.000000"])
    # Written by hand: 6 decimals would round 39.9999999 to 40.
    near = [csv(root / "near_top.csv", ["128000.3", "0"]), csv(root / "near_bottom.csv", ["0", "39.9999999"])]
    # modulated-same-1 takes the edge contour past 128 kHz.
    edge = [127000.0, 100000.0] * 25
    level = [f"{150.0 + 10.0 * (i % 7)}" for i in range(60)]
    manifest = corpus_manifest(root / "edges.json", {"a": (edge, edge), "b": (level, edge), "c": (edge, level)})
    # 2 voiced frames are too few for statistics: b's enrollment and c's trial recording.
    two = [0.0, 120.0, 0.0, 130.0, 0.0, 0.0]
    sparse = corpus_manifest(root / "sparse.json", {"a": (level, level), "b": (two, level), "c": (level, two)})
    # out/x.csv is an input and x's own output.
    own = root / "own"
    (own / "out").mkdir(parents=True)
    csv(own / "out" / "x.csv", level)
    csv(own / "y.csv", level[::-1])
    ids = {}  # a manifest whose first id is not a plain file name
    for name, bad in (("ids", "../x"), ("empty-id", ""), ("nul-id", "a\0b"), ("long-id", "x" * 252),
                      ("surrogate-id", "\ud800")):
        ids[name] = root / f"{name}.json"
        ids[name].write_text(json.dumps({"entries": [
            {"speaker_id": "s", "recording_id": rid, "split": "trial", "path": wav}
            for rid, wav in zip((bad, "good"), wavs)]}))
    splits = []
    for name, split in (("good", "trial"), ("bad-split", "dev")):
        splits.append(root / f"{name}.json")
        splits[-1].write_text(json.dumps({"entries": [
            {"speaker_id": "s", "recording_id": name, "split": split, "path": wavs[0]}]}))
    # Error lines count blank lines: the bad step of blank.csv is on line 6,
    # and blank-first.csv's first row on line 3.
    blank = root / "blank.csv"
    blank.write_text("time_s,f0_hz\n0.000000,100.000000\n\n0.010000,100.000000\n0.020000,100.000000\n"
                     "0.040000,100.000000\n")
    blank_first = root / "blank-first.csv"
    blank_first.write_text("time_s,f0_hz\n\n0.010000,100.000000\n0.020000,100.000000\n")
    good_rows = csv(root / "gaps.csv", level[:10]).read_text().splitlines()
    gaps = root / "gaps.csv"
    gaps.write_text("\n".join(good_rows[:5] + [""] + good_rows[5:]) + "\n\n")
    underscore = csv(root / "underscore.csv", ["1_000.5", "0", "120", "130"])  # float() reads 1_000.5
    mixed = csv(root / "mixed.csv", ["-5", "100", "nan"])  # a negative frame before a non-finite one
    short = root / "short.wav"  # 400 samples at 16 kHz: one 25 ms frame
    with wave.open(str(short), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(16000)
        out.writeframes(bytes(800))
    level_csv = csv(root / "level.csv", level)
    not_wav = root / "not.wav"
    not_wav.write_bytes(b"RIFX not a wave file")
    configs = {}
    for name, modifier in (("modify", {"kind": "voiced-flat", "gain": 2}), ("eval", {"gain": 2})):
        configs[name] = root / f"{name}-unknown-key.json"
        configs[name].write_text(json.dumps({"modifier": modifier}))
    # Path keys: the WAV lies in sub/ and is named relative to it.
    input_dir = root / "input-dir"
    (input_dir / "sub").mkdir(parents=True)
    shutil.copy(wavs[0], input_dir / "sub" / "a.wav")
    (input_dir / "run.json").write_text(json.dumps({"input_dir": "sub"}))
    configs["output-dir"] = root / "output-dir.json"
    configs["output-dir"].write_text(json.dumps({"modifier": {"kind": "voiced-flat"}, "output_dir": "out"}))
    folder = root / "folder.csv"
    folder.mkdir()
    return [
        ("edge-one-row", ["stats", str(one)], None),
        ("edge-near-bounds", ["stats", *map(str, near)], None),
        ("edge-modify-near-bounds", ["modify", *map(str, near), "--kind", "voiced-flat", "--out", "out"], None),
        *((f"edge-eval-{scenario}", ["eval", "--manifest", str(manifest), "--scenario", scenario,
                                     "--kind", "modulated-same-1", "--out", "report.json"], None)
          for scenario in ("OA", "AA")),
        ("edge-extract-long-lag", ["extract", "--f-min", "40", "--frame-len", "0.024", "--out", "out",
                                   *wavs[:2]], None),
        ("edge-modify-own-input", ["modify", "out/x.csv", "y.csv", "--kind", "voiced-flat", "--out", "out"], own),
        ("edge-extract-id-not-a-plain-name", ["extract", str(ids["ids"]), "--out", "out"], None),
        ("edge-extract-empty-id", ["extract", str(ids["empty-id"]), "--out", "out"], None),
        ("edge-extract-nul-id", ["extract", str(ids["nul-id"]), "--out", "out"], None),
        ("edge-extract-long-id", ["extract", str(ids["long-id"]), "--out", "out"], None),
        ("edge-extract-surrogate-id", ["extract", str(ids["surrogate-id"]), "--out", "out"], None),
        ("edge-eval-absent-statistics", ["eval", "--manifest", str(sparse), "--scenario", "OO"], None),
        ("edge-extract-bad-split-manifest", ["extract", *map(str, splits), "--out", "out"], None),
        ("edge-modify-unknown-modifier-key", ["modify", str(level_csv), "--config",
                                              str(configs["modify"]), "--out", "out"], None),
        ("edge-eval-OO-unknown-modifier-key", ["eval", "--manifest", str(manifest), "--scenario", "OO",
                                               "--config", str(configs["eval"])], None),
        ("edge-stats-blank-line", ["stats", str(blank)], None),
        ("edge-stats-blank-first-line", ["stats", str(blank_first)], None),
        ("edge-modify-blank-lines", ["modify", str(gaps), "--kind", "voiced-flat", "--out", "out"], None),
        ("edge-plot-blank-lines", ["plot", str(gaps), "--out", "plot.svg"], None),
        ("edge-stats-underscore", ["stats", str(underscore)], None),
        ("edge-stats-mixed-problems", ["stats", str(mixed)], None),
        ("edge-extract-one-frame", ["extract", str(short), "--out", "out"], None),
        ("edge-extract-not-a-wav", ["extract", str(not_wav), wavs[0], "--out", "out"], None),
        ("edge-modify-modulated-different", ["modify", str(level_csv), "--kind",
                                             "modulated-different", "--out", "out"], None),
        ("edge-extract-config-input-dir", ["extract", "--config", "run.json", "a.wav", "--out", "out"],
         input_dir),
        ("edge-modify-config-output-dir", ["modify", str(level_csv), "--config", str(configs["output-dir"])],
         None),
        ("edge-stats-directory", ["stats", str(folder)], None),
    ]


def corpus_runs(corpus) -> list:
    """The (name, argv) runs on one ``make_corpus`` input set."""
    paths = [str(contour.path) for contour in corpus.contours]
    manifest = str(corpus.manifest)
    return [
        *((f"modify-{kind}", ["modify", *paths, "--kind", kind, *flags, "--out", "out"])
          for kind, flags in KIND_FLAGS.items()),
        ("stats-file", ["stats", *paths, "--out", "stats.json"]),
        ("stats-stdout", ["stats", *paths]),
        ("eval-OO", ["eval", "--manifest", manifest, "--scenario", "OO", "--out", "report.json"]),
        ("eval-OA-walk", ["eval", "--manifest", manifest, "--scenario", "OA", "--kind", "random-walk-strong",
                          "--seed", "7", "--out", "report.json"]),
        ("eval-AA-spline", ["eval", "--manifest", manifest, "--scenario", "AA", "--kind", "smoothing-spline"]),
        *((f"eval-{scenario}-different", ["eval", "--manifest", manifest, "--scenario", scenario,
                                          "--kind", "modulated-different", "--out", "report.json"])
          for scenario in ("OA", "AA")),
        ("plot", ["plot", *paths[:6], "--out", "plot.svg"]),
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, *range(301, 311)],
                        help="make_corpus seeds (default: 1 and 301-310)")
    args = parser.parse_args()
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    sys.path.insert(0, str(trees["parent"] / "perfbench"))
    import inputs  # the benchmark's seeded generators

    found, runs = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for side, tree in trees.items():
            out = subprocess.run([sys.executable, "-c", "import f0priv; print(f0priv.__file__)"],
                                 env=tree_env(tree), capture_output=True, text=True, check=True)
            if not Path(out.stdout.strip()).resolve().is_relative_to(tree / "src"):
                raise SystemExit(f"error: the {side} tree imports {out.stdout.strip()}, not its own src/")

        def compare(name: str, args: list, demo: str | None = None, start: Path | None = None) -> None:
            """The CLI with ``args``, or each tree's own copy of ``demo``, on both sides."""
            nonlocal runs
            for side, tree in trees.items():
                argv, copy = ([*CLI, *args], None) if demo is None else ([demo], tree / "demos" / demo)
                run(tree, argv, tmp / "work", tmp / side / name, copy, start)
            new = differences(tmp / "parent" / name, tmp / "change" / name)
            for line in new:
                print(f"{name}: {line}", flush=True)
            found.extend(new)
            runs += 1
            print(f"ran {name}: {len(new)} differences", file=sys.stderr, flush=True)
            for side in trees:
                shutil.rmtree(tmp / side / name)

        wavs = [str(wav.path) for wav in inputs.make_wavs(tmp / "wavs", WAV_SEED).wavs]
        compare("extract", ["extract", "--out", "out", *wavs])
        for seed in args.seeds:
            for name, argv in corpus_runs(inputs.make_corpus(tmp / f"corpus-{seed}", seed)):
                compare(f"corpus-{seed}/{name}", argv)
            shutil.rmtree(tmp / f"corpus-{seed}")
        for name, argv, start in edge_runs(tmp / "edges", wavs):
            compare(name, argv, start=start)
        for demo in sorted((trees["parent"] / "demos").glob("*.py")):
            compare(f"demo-{demo.stem}", [], demo=demo.name)
    print(f"{runs} runs, {len(found)} differences")
    sys.exit(1 if found else 0)


if __name__ == "__main__":
    main()
