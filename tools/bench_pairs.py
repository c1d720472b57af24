"""Alternating parent/change pairs of the benchmark, written to one BENCH file.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_name.json

PARENT_DIR and CHANGE_DIR are checkout roots. For each workload in
``BENCHMARK.json``, pair k (k = 0..PAIRS-1) runs
``perfbench/run.py --workload W --seed FIRST_SEED+k --seconds S --trace 0``
in both, for ``S`` from ``BENCHMARK.json``; the parent runs first in even
pairs and second in odd ones. The file keeps every run's end-to-end metrics
and, per metric, each side's median and quartiles and the number of pairs
the change won, and the verdicts ``gain_shown``, ``within_bound`` and
``unresolved`` against the metric's bound in ``BENCHMARK.json`` (see
``compare``). Each side's ``src_sha256`` is the one its runs report in
their context lines, and the script exits non-zero when a run imported
``f0priv`` from outside its side's ``src/`` or its source changed between
runs, so that a pair never times one tree twice.

Each pair is followed by an A/A control pair: the parent against a copy of
itself, with the same seed and order. Its runs, verdicts and wall time are
kept under ``control``, and a change's ``gain_shown`` counts only when its
median gap exceeds the control's on the same metric (see ``controlled``).
The control doubles the time a comparison takes.

``perfbench/run.py`` reads peak RSS from ``os.wait4`` on children it forks
from itself, and a forked child counts the benchmark's own pages from before
``exec``. So the file also records the ``extract`` process's own peak RSS:
each of RSS_RUNS samples runs ``extract`` over the ``extract-wav`` inputs of
FIRST_SEED from a small launcher interpreter whose own pages stay below it, and
``floor_mb`` is what the same launcher reports for an empty child.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The same single-thread BLAS/OpenMP settings perfbench/run.py gives its children.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
METRICS = ("setup_s", "commands_s", "peak_rss_mb")  # all lower-is-better
PAIRS = 10
FIRST_SEED = 301
RSS_RUNS = 5
LAUNCHER = (
    "import os, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))\n"
)


def bench_run(root: Path, workload: str, seed: int, seconds: float, digests: dict) -> dict:
    """One run's end-to-end metrics; ``digests`` keeps each root's src_sha256."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    # run.py prints its context object, then the result on the last line.
    *context_lines, result_line = out.stdout.splitlines()
    context, result = json.loads("\n".join(context_lines)), json.loads(result_line)
    if not Path(context["f0priv_file"]).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"error: the run in {root} imported {context['f0priv_file']}, not its own src/")
    if digests.setdefault(root, context["src_sha256"]) != context["src_sha256"]:
        raise SystemExit(f"error: {root / 'src'} changed between runs")
    row = {name: result["metrics"][name]["value"] for name in METRICS}
    row.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    return row


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def compare(parent: list, change: list, bound: float) -> dict:
    """One lower-is-better metric over paired runs, with the benchmark's verdicts.

    ``median_gap`` is the parent median minus the change median.
    ``gain_shown``: the change is lower in at least 9 of 10 pairs (ties
    count for neither side), and its median gap exceeds the parent's
    q3 - q1. ``within_bound``: the change median is at most the parent
    median times 1 + ``bound``. ``unresolved``: the
    parent's q3 - q1 exceeds ``bound`` times its median, and not every
    change run is lower than every parent run.
    """
    p, c = spread(parent), spread(change)
    lower = sum(b < a for a, b in zip(parent, change))
    gap = p["median"] - c["median"]
    return {
        "parent": p,
        "change": c,
        "change_lower_in": lower,
        "ties": sum(b == a for a, b in zip(parent, change)),
        "pairs": len(parent),
        "median_gap": gap,
        "gain_shown": 10 * lower >= 9 * len(parent) and gap > p["q3"] - p["q1"],
        "within_bound": c["median"] <= p["median"] * (1.0 + bound),
        "unresolved": p["q3"] - p["q1"] > bound * p["median"] and not max(change) < min(parent),
    }


def controlled(verdict: dict, control: dict) -> dict:
    """``verdict`` with its gain counted only past the A/A ``control`` on the same metric.

    ``control`` is ``compare`` of the parent against a copy of itself. The
    gain stands only when the change's median gap exceeds the size of the
    control's; a gain it voids is reported as unresolved. So the control can
    only tighten the verdict.
    """
    shown = verdict["gain_shown"] and verdict["median_gap"] > abs(control["median_gap"])
    return {**verdict, "control_gap": control["median_gap"], "gain_shown": shown,
            "unresolved": verdict["unresolved"] or (verdict["gain_shown"] and not shown)}


def summary(pairs: list, bounds: dict, control: dict | None = None) -> dict:
    """``compare`` for each metric, against its bound in ``bounds``, and
    ``controlled`` by the A/A summary ``control`` when one is given."""
    out = {}
    for name in METRICS:
        verdict = compare([p["parent"][name] for p in pairs], [p["change"][name] for p in pairs], bounds[name])
        out[name] = verdict if control is None else controlled(verdict, control[name])
    out["failed_operations"] = {side: sum(p[side]["failed"] for p in pairs) for side in ("parent", "change")}
    return out


def run_workload(roots: dict, copy: Path, workload: str, seconds: float, bounds: dict, digests: dict) -> dict:
    """PAIRS parent/change pairs, each followed by an A/A control pair that
    has the parent's ``copy`` as its change side."""
    pairs, control, control_s = [], [], 0.0
    for k in range(PAIRS):
        seed = FIRST_SEED + k
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for change_root, kept in ((roots["change"], pairs), (copy, control)):
            start = time.perf_counter()
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = bench_run(roots["parent"] if side == "parent" else change_root,
                                       workload, seed, seconds, digests)
            if kept is control:
                control_s += time.perf_counter() - start
            kept.append(pair)
            print(json.dumps({"workload": workload, "control": kept is control, **pair}), flush=True)
    aa = summary(control, bounds)
    return {"pairs": pairs, "summary": summary(pairs, bounds, aa),
            "control": {"pairs": control, "summary": aa, "wall_s": control_s}}


def own_peak_rss(roots: dict) -> dict:
    """The extract process's own peak RSS in MB, RSS_RUNS samples per side."""
    sys.path.insert(0, str(roots["parent"] / "perfbench"))
    import inputs  # perfbench's generator: the same WAVs extract-wav tracks

    samples: dict = {side: [] for side in roots}
    with tempfile.TemporaryDirectory() as tmp:
        wavs = [str(w.path) for w in inputs.make_wavs(Path(tmp) / "in", FIRST_SEED).wavs]

        def launch(argv, env):
            out = subprocess.run([sys.executable, "-c", LAUNCHER, *argv], env=env,
                                 capture_output=True, text=True, check=True)
            maxrss_kb, code = map(int, out.stdout.split())
            if code != 0:
                raise SystemExit(f"error: {argv[:4]} exited {code}")
            return maxrss_kb * 1024 / 1e6

        base = {k: v for k, v in os.environ.items() if not k.startswith(("F0PRIV_", "PYTHON"))}
        base.update(dict.fromkeys(THREAD_VARS, "1"))
        floor = launch([sys.executable, "-c", "pass"], base)
        for _ in range(RSS_RUNS):
            for side, root in roots.items():
                env = {**base, "PYTHONPATH": str(root / "src")}
                argv = [sys.executable, "-c", "from f0priv.cli import main; main()",
                        "extract", "--out", str(Path(tmp) / side), *wavs]
                samples[side].append(launch(argv, env))
    return {"seed": FIRST_SEED, "files": len(wavs), "floor_mb": floor, **samples}


def host() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    import numpy

    return {"cpu": cpu, "usable_cpus": usable, "python": platform.python_version(),
            "numpy": numpy.__version__}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in benchmark["end_to_end"]}
    digests: dict = {}
    doc = {
        "host": host(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "parent-copy"
        shutil.copytree(roots["parent"], copy,
                        ignore=shutil.ignore_patterns(".git", "__pycache__", ".perfbench-work"))
        for workload in (w["name"] for w in benchmark["workloads"]):
            doc["workloads"][workload] = run_workload(roots, copy, workload, seconds, bounds, digests)
        if digests[copy] != digests[roots["parent"]]:
            raise SystemExit("error: the parent's copy reported another src_sha256 than the parent")
    doc["src_sha256"] = {side: digests[root] for side, root in roots.items()}
    doc["extract_own_peak_rss_mb"] = own_peak_rss(roots)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
