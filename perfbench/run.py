"""Benchmark of the f0priv command line over two seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: the commands run the checkout's own
``src/`` through ``PYTHONPATH``, each in a fresh interpreter, one at a time
from this single process (a closed loop with one client). Inputs are made
from ``--seed`` before timing starts, and every output is checked against
``reference.py``. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the run context, the inputs and every sample.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (a fresh
``f0priv --version``), ``commands_s`` (one pass over the workload's
commands) and ``peak_rss_mb``. With ``--trace 1`` untraced passes alternate
with passes that run each command under ``trace_boot.py``; the metrics are
the per-layer ones, named ``<module>.<function>.<quantity>``. A layer that
does not run on the workload, or whose wrapped name is absent from the
checkout, reads 0 and is listed in the context lines.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

# One BLAS/OpenMP thread, here as in the children: the library calls are
# small, and idle pool threads spinning on a 2-CPU box only add spread.
# Set before numpy starts its thread pools.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np

import inputs
import reference

HERE = Path(__file__).resolve().parent
CHILD_LIMIT_S = 120.0
MIN_SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
# One unit in the sixth decimal of the CSV format, plus half a unit so
# that float parsing of two 6-decimal strings never decides the outcome.
CSV_TOL = 1.5e-6
REPORT_RTOL = 1e-9

# Why each workload exists: which layer it loads and what it bypasses.
WORKLOADS = {
    "extract-wav": (
        "f0priv extract over 24 voiced 10 s WAVs: extract_f0 is ~90% of in-process time and "
        "CSV/scoring almost nothing, so tracker changes show here and other changes should not"
    ),
    "modify-eval": (
        "f0priv modify (smoothing-spline, random-walk-strong) and eval (OO, AA smoothing-spline) on one "
        "200-speaker corpus of 1,200 CSVs: CSV parse/format/write, spline.fit, squared-cost scoring"
    ),
}

COMMANDS = ("extract", "modify-spline", "modify-walk", "eval-oo", "eval-aa")
COMMAND_METRIC = {
    "modify-spline": "modify.spline_s",
    "modify-walk": "modify.walk_s",
    "eval-oo": "eval.oo_s",
    "eval-aa": "eval.aa_s",
}
APPLY_KINDS = ("smoothing-spline", "random-walk-strong")

END_TO_END = {
    "setup_s": "s",
    "commands_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {
        "cli.import_ms": "ms",
        "cli.import_scipy_ms": "ms",
        "extract.audio_s_per_s": "s/s",
        **{metric: "s" for metric in COMMAND_METRIC.values()},
    }
    for cmd in COMMANDS:
        units.update({f"cli.{cmd}.cpu_s": "s", f"cli.{cmd}.wait_s": "s", f"cli.{cmd}.blocks_out": "count"})
    units.update({
        "cli.csv_format.self_ms": "ms",
        "cli.write.self_ms": "ms",
        "cli.write.bytes": "bytes",
        "cli.load_manifest.self_ms": "ms",
        "pitch.read_wav.self_ms": "ms",
        "pitch.read_wav.mb_per_s": "MB/s",
        "pitch.extract_f0.self_ms": "ms",
        "pitch.extract_f0.us_per_frame": "us",
        "pitch.extract_f0.voiced_ratio": "ratio",
        "trajectory.read_f0_csv.self_ms": "ms",
        "trajectory.read_f0_csv.us_per_row": "us",
        "trajectory.validate.self_ms": "ms",
        "trajectory.stats.self_ms": "ms",
        "trajectory.stats.calls": "count",
    })
    for kind in APPLY_KINDS:
        units.update({
            f"modifiers.apply.{kind}.self_ms": "ms",
            f"modifiers.apply.{kind}.us_per_frame": "us",
            f"modifiers.apply.{kind}.frames_unvoiced": "count",
        })
    units.update({
        "spline.fit.self_ms": "ms",
        "spline.fit.calls": "count",
        "spline.fit.iterations_mean": "count",
        "evaluation.score_corpus.self_ms": "ms",
        "evaluation.score_corpus.pairs": "count",
        "evaluation.score_corpus.ns_per_pair": "ns",
        "evaluation.eer.self_ms": "ms",
        "evaluation.cllr_min.self_ms": "ms",
        "evaluation.affine_calibrate.self_ms": "ms",
        "evaluation.run_scenario.self_ms": "ms",
        "trace.overhead_ratio": "ratio",
        "trace.coverage_min": "ratio",
        "check.byte_identical_ratio": "ratio",
        "check.fail_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------- children

@dataclass
class Child:
    wall_s: float
    user_s: float
    sys_s: float
    maxrss_kb: int
    blocks_out: int
    returncode: int
    stderr: str


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("F0PRIV_", "PYTHON"))}
    env["PYTHONPATH"] = str(root / "src")
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    return env


def run_child(argv: list, env: dict, cwd: Path) -> Child:
    err_path = cwd / "child-stderr.txt"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text(encoding="utf-8", errors="replace")
    err_path.unlink()
    return Child(wall, usage.ru_utime, usage.ru_stime, usage.ru_maxrss, usage.ru_oublock,
                 proc.returncode, stderr)


F0PRIV = ["-c", "from f0priv.cli import main; main()"]


# ---------------------------------------------------------------- checks

def check_csv(data: bytes, expected: bytes) -> tuple:
    """(within tolerance, byte-identical) for one output CSV."""
    if data == expected:
        return True, True
    try:
        got = data.decode("utf-8").splitlines()
        want = expected.decode("utf-8").splitlines()
        if got[0] != want[0] or len(got) != len(want):
            return False, False
        a = np.array([row.split(",") for row in got[1:]], dtype=np.float64)
        b = np.array([row.split(",") for row in want[1:]], dtype=np.float64)
    except (UnicodeDecodeError, ValueError, IndexError):
        return False, False
    return bool(a.shape == b.shape and np.all(np.abs(a - b) <= CSV_TOL)), False


def check_report(data: bytes, expected: dict) -> tuple:
    """(within tolerance, byte-identical) for one eval report."""
    try:
        got = json.loads(data)
        ok = (
            got["scenario"] == expected["scenario"]
            and got["n_target"] == expected["n_target"]
            and got["n_nontarget"] == expected["n_nontarget"]
            and all(
                math.isclose(got[k], expected[k], rel_tol=REPORT_RTOL, abs_tol=1e-12)
                for k in ("eer_percent", "cllr_bits", "cllr_min_bits")
            )
        )
        rendered = json.dumps({**expected, "notes": got["notes"]}, indent=2)
    except (ValueError, KeyError, TypeError):
        return False, False
    return ok, ok and data == (rendered + "\n").encode("utf-8")


@dataclass
class Op:
    label: str  # input path as given on the command line
    output: str  # output path relative to the command's fresh output directory
    check: object  # bytes -> (ok, identical)


@dataclass
class Command:
    name: str
    args: list  # f0priv arguments; "{out}" is replaced by the output directory
    ops: list
    audio_s: float = 0.0


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    identical: int = 0
    failures: list = field(default_factory=list)


def execute(cmd: Command, prefix: list, env: dict, work: Path, tally: Tally) -> Child:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    try:
        argv = [sys.executable, *prefix, *[a.replace("{out}", "out") for a in cmd.args]]
        child = run_child(argv, env, work)
        error_paths = {
            line[len("error: "):].split(": ", 1)[0]
            for line in child.stderr.splitlines() if line.startswith("error: ")
        }
        for op in cmd.ops:
            tally.attempted += 1
            ok = identical = False
            if child.returncode == 0 and op.label not in error_paths:
                try:
                    ok, identical = op.check((out / op.output).read_bytes())
                except OSError:
                    pass
            tally.identical += identical
            if not ok:
                tally.failed += 1
                if len(tally.failures) < 10:
                    tally.failures.append(f"{cmd.name}: {op.label} (exit {child.returncode})")
        if child.returncode != 0 and len(tally.failures) < 10:
            tally.failures.append(f"{cmd.name} stderr: {child.stderr[-500:]}")
        return child
    finally:
        shutil.rmtree(out, ignore_errors=True)


# ---------------------------------------------------------------- workloads

def build(workload: str, seed: int, work: Path) -> tuple:
    """(commands, input summary) with reference outputs computed up front."""
    src = work / "in"
    if workload == "extract-wav":
        made = inputs.make_wavs(src, seed)
        ops = []
        for wav in made.wavs:
            hop, values = reference.track(wav.samples, wav.sample_rate)
            expected = inputs.csv_text(values, hop).encode("utf-8")
            ops.append(Op(f"in/{wav.path.name}", f"{wav.recording_id}.csv",
                          lambda data, e=expected: check_csv(data, e)))
        commands = [Command("extract", ["extract", "--out", "{out}", *[op.label for op in ops]], ops,
                            audio_s=sum(w.duration_s for w in made.wavs))]
    elif workload == "modify-eval":
        made = inputs.make_corpus(src, seed)
        labels = [f"in/{c.path.name}" for c in made.contours]
        smoothed = [reference.spline_smooth(c.values, inputs.HOP_S) for c in made.contours]
        walked = [reference.random_walk(c.values, c.recording_id, seed) for c in made.contours]

        def ops_for(outputs):
            return [
                Op(label, c.path.name, lambda data, e=inputs.csv_text(v).encode("utf-8"): check_csv(data, e))
                for label, c, v in zip(labels, made.contours, outputs)
            ]

        commands = [
            Command("modify-spline", ["modify", "--kind", "smoothing-spline", "--out", "{out}", *labels],
                    ops_for(smoothed)),
            Command("modify-walk", ["modify", "--kind", "random-walk-strong", "--seed", str(seed),
                                    "--out", "{out}", *labels], ops_for(walked)),
        ]
        sides = {"enrollment": [], "trial": []}
        smoothed_sides = {"enrollment": [], "trial": []}
        for c, v in zip(made.contours, smoothed):
            speaker, split = made.speakers[c.recording_id]
            sides[split].append((speaker, reference.stats(c.values, inputs.HOP_S)))
            smoothed_sides[split].append((speaker, reference.stats(v, inputs.HOP_S)))
        manifest = f"in/{made.manifest.name}"
        for name, scenario, extra, (enroll, trial) in (
            ("eval-oo", "OO", [], (sides["enrollment"], sides["trial"])),
            ("eval-aa", "AA", ["--kind", "smoothing-spline"],
             (smoothed_sides["enrollment"], smoothed_sides["trial"])),
        ):
            expected = reference.scenario_report(enroll, trial, scenario)
            op = Op(manifest, "report.json", lambda data, e=expected: check_report(data, e))
            commands.append(Command(name, ["eval", "--manifest", manifest, "--scenario", scenario, *extra,
                                           "--out", "{out}/report.json"], [op]))
    else:
        raise ValueError(workload)
    summary = {"files": len(made.files), "bytes": made.byte_count(), "sha256": made.digest()}
    return commands, summary


# ---------------------------------------------------------------- tracing

def layer_totals(docs: list) -> tuple:
    """Per span name: summed self time, calls and extras over span files;
    plus the lowest share of a command's in-process time its top-level
    spans cover, and the set of absent wrapped names."""
    totals: dict = {}
    coverage = []
    absent = set()
    for doc in docs:
        spans = doc["spans"]
        child_ns = [0] * len(spans)
        covered = 0
        for name, start, end, parent, _ in spans:
            if parent is None:
                covered += end - start
            else:
                child_ns[parent] += end - start
        for (name, start, end, _, extras), inner in zip(spans, child_ns):
            entry = totals.setdefault(name, {"self_ns": 0, "calls": 0})
            entry["self_ns"] += end - start - inner
            entry["calls"] += 1
            for key, value in (extras or {}).items():
                entry[key] = entry.get(key, 0) + value
        coverage.append(covered / doc["main_ns"] if doc["main_ns"] else 0.0)
        absent.update(doc["absent"])
    return totals, min(coverage, default=0.0), absent


def layer_metrics(totals: dict) -> dict:
    def get(name, key="self_ns"):
        return totals.get(name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("cli.csv_format", "cli.write", "cli.load_manifest", "pitch.read_wav",
                 "pitch.extract_f0", "trajectory.read_f0_csv", "trajectory.validate",
                 "trajectory.stats", "spline.fit", "evaluation.score_corpus", "evaluation.eer",
                 "evaluation.cllr_min", "evaluation.affine_calibrate", "evaluation.run_scenario"):
        m[f"{name}.self_ms"] = get(name) / 1e6
    m["cli.write.bytes"] = get("cli.write", "bytes")
    m["pitch.read_wav.mb_per_s"] = ratio(get("pitch.read_wav", "bytes") / 1e6, get("pitch.read_wav") / 1e9)
    m["pitch.extract_f0.us_per_frame"] = ratio(get("pitch.extract_f0") / 1e3, get("pitch.extract_f0", "frames"))
    m["pitch.extract_f0.voiced_ratio"] = ratio(get("pitch.extract_f0", "voiced"), get("pitch.extract_f0", "frames"))
    m["trajectory.read_f0_csv.us_per_row"] = ratio(get("trajectory.read_f0_csv") / 1e3,
                                                   get("trajectory.read_f0_csv", "rows"))
    m["trajectory.stats.calls"] = get("trajectory.stats", "calls")
    for kind in APPLY_KINDS:
        name = f"modifiers.apply.{kind}"
        m[f"{name}.self_ms"] = get(name) / 1e6
        m[f"{name}.us_per_frame"] = ratio(get(name) / 1e3, get(name, "frames"))
        m[f"{name}.frames_unvoiced"] = get(name, "unvoiced")
    m["spline.fit.calls"] = get("spline.fit", "calls")
    m["spline.fit.iterations_mean"] = ratio(get("spline.fit", "iterations"), get("spline.fit", "calls"))
    m["evaluation.score_corpus.pairs"] = get("evaluation.score_corpus", "pairs")
    m["evaluation.score_corpus.ns_per_pair"] = ratio(get("evaluation.score_corpus"),
                                                     get("evaluation.score_corpus", "pairs"))
    return m


IMPORT_PREFIX = "import time:"


def parse_importtime(text: str) -> tuple:
    """(ms importing the f0priv modules, ms of the scipy imports among them)
    from the stderr of ``python -X importtime -c 'import f0priv.cli'``."""
    rows = []
    for line in text.splitlines():
        if not line.startswith(IMPORT_PREFIX) or line.endswith("imported package"):
            continue
        _, cumulative, name = line[len(IMPORT_PREFIX):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, int(cumulative), name.strip().split(".")[0]))
    total_us = scipy_us = 0
    # Children are printed before their parent, so walking backwards visits
    # each module after its ancestors; a scipy subtree counts once, at its top.
    ancestors: list = []
    for depth, cumulative, package in reversed(rows):
        ancestors = ancestors[:depth]
        if depth == 0 and package == "f0priv":
            total_us += cumulative
        if package == "scipy" and "scipy" not in ancestors and "f0priv" in ancestors:
            scipy_us += cumulative
        ancestors.append(package)
    return total_us / 1e3, scipy_us / 1e3


# ---------------------------------------------------------------- context

def context(root: Path, env: dict, workload: str, seed: int, trace: int) -> dict:
    origin = subprocess.run(
        [sys.executable, "-c", "import importlib.util as u; print(u.find_spec('f0priv').origin)"],
        env=env, cwd=root, capture_output=True, text=True, check=True,
    ).stdout.strip()
    head = root / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        ref_path = root / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = ref_path.read_text().strip() if ref_path and ref_path.is_file() else ref
    src_digest = hashlib.sha256()
    for path in sorted((root / "src" / "f0priv").glob("*.py")):
        src_digest.update(path.name.encode() + path.read_bytes())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import scipy

    return {
        "workload": workload,
        "why": WORKLOADS[workload],
        "seed": seed,
        "trace": trace,
        "f0priv_file": origin,
        "src_sha256": src_digest.hexdigest(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "click": metadata.version("click"),
        "loop": "closed, one client, one command at a time, each a fresh interpreter",
        "cache": "warm: inputs were just written and the file cache cannot be dropped",
    }


# ---------------------------------------------------------------- main

def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def run(args) -> tuple:
    root = Path.cwd()
    if not (root / "src" / "f0priv" / "cli.py").is_file():
        raise SystemExit(f"error: {root} has no src/f0priv/cli.py; run from the root of an f0priv checkout")
    if args.seed < 0:
        raise SystemExit("error: --seed must be >= 0")
    env = child_env(root)
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        info = context(root, env, args.workload, args.seed, args.trace)
        t0 = time.perf_counter()
        commands, input_summary = build(args.workload, args.seed, work)
        info["inputs"] = input_summary
        info["inputs_and_reference_s"] = time.perf_counter() - t0
        return info, measure(args, commands, env, work, info)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def measure(args, commands: list, env: dict, work: Path, info: dict) -> dict:
    tally = Tally()
    version = [sys.executable, *F0PRIV, "--version"]
    run_child(version, env, work)  # warm-up: bytecode caches, file cache
    samples = {cmd.name: [] for cmd in commands}
    setup, passes, traced_passes = [], [], []
    traced_prefix = [str(HERE / "trace_boot.py"), "spans.json"]

    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        total = 0.0
        for cmd in commands:
            if not args.trace:
                setup.append(run_child(version, env, work).wall_s)
            child = execute(cmd, F0PRIV, env, work, tally)
            samples[cmd.name].append(child)
            total += child.wall_s
        passes.append(total)
        if args.trace:
            docs, traced_total = [], 0.0
            for cmd in commands:
                traced_total += execute(cmd, traced_prefix, env, work, tally).wall_s
                spans = work / "spans.json"
                if spans.is_file():  # absent only if the child was killed
                    docs.append(json.loads(spans.read_text()))
                    spans.unlink()
            traced_passes.append((traced_total, docs))
        # Stop once another pass would end more than half a pass past --seconds.
        now = time.perf_counter()
        if now + (now - pass_start) / 2 - start >= args.seconds:
            break
    while not args.trace and len(setup) < MIN_SETUP_SAMPLES:
        setup.append(run_child(version, env, work).wall_s)

    info["samples"] = {
        name: [{"wall_s": c.wall_s, "user_s": c.user_s, "sys_s": c.sys_s, "maxrss_kb": c.maxrss_kb,
                "blocks_out": c.blocks_out, "exit": c.returncode} for c in children]
        for name, children in samples.items()
    }
    info["setup_s"] = setup
    info["failures"] = tally.failures
    if args.trace:
        metrics = trace_metrics(commands, samples, passes, traced_passes, env, work, tally, info)
    else:
        all_children = [c for children in samples.values() for c in children]
        metrics = {
            "setup_s": median(setup),
            "commands_s": median(passes),
            "peak_rss_mb": max(c.maxrss_kb for c in all_children) * 1024 / 1e6,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def trace_metrics(commands, samples, passes, traced_passes, env, work, tally, info) -> dict:
    units = per_layer_units()
    values = dict.fromkeys(units, 0.0)

    imports = []
    for _ in range(IMPORTTIME_SAMPLES):
        out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import f0priv.cli"],
                             env=env, cwd=work, capture_output=True, text=True, check=True)
        imports.append(parse_importtime(out.stderr))
    values["cli.import_ms"] = median([i[0] for i in imports])
    values["cli.import_scipy_ms"] = median([i[1] for i in imports])

    for cmd in commands:
        children = samples[cmd.name]
        values[f"cli.{cmd.name}.cpu_s"] = median([c.user_s + c.sys_s for c in children])
        values[f"cli.{cmd.name}.wait_s"] = median([c.wall_s - c.user_s - c.sys_s for c in children])
        values[f"cli.{cmd.name}.blocks_out"] = median([c.blocks_out for c in children])
        wall = median([c.wall_s for c in children])
        if cmd.name in COMMAND_METRIC:
            values[COMMAND_METRIC[cmd.name]] = wall
        if cmd.audio_s:
            values["extract.audio_s_per_s"] = cmd.audio_s / wall

    per_pass = []
    absent = set()
    coverages = []
    for _, docs in traced_passes:
        totals, coverage, missing = layer_totals(docs)
        per_pass.append(layer_metrics(totals))
        coverages.append(coverage)
        absent |= missing
    for name in per_pass[0]:
        values[name] = median([m[name] for m in per_pass])
    values["trace.coverage_min"] = min(coverages)
    values["trace.overhead_ratio"] = median([t for t, _ in traced_passes]) / median(passes)
    values["check.byte_identical_ratio"] = tally.identical / tally.attempted
    values["check.fail_ratio"] = tally.failed / tally.attempted
    info["absent_layers"] = sorted(absent)
    info["imports_ms"] = imports
    return {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    info, result = run(args)
    print(json.dumps(info, indent=1))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
