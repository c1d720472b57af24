"""Run one f0priv command with timing wrappers around its layers.

    python trace_boot.py SPANS_JSON F0PRIV_ARGS...

Each wrapper replaces a function at the name its caller looks it up by, so
``src/`` needs no tracing code. Spans are kept in memory and written to
SPANS_JSON when the command ends, as
``{"main_ns": ..., "absent": [...], "spans": [[name, start_ns, end_ns,
parent_index, extras], ...]}``. A wrapped name that no longer exists is
listed under ``absent`` instead of failing the run. ``evaluation.score`` is
deliberately not wrapped: it runs once per (trial, speaker) pair and a
wrapper would cost about as much as the call; pairs are counted from the
``ScoreSet`` that ``score_corpus`` returns.
"""

import importlib
import json
import os
import sys
import threading
from time import perf_counter_ns


def _rows(args, kwargs, result):
    return {"rows": len(result.values)}


def _wav_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _frames(args, kwargs, result):
    values = result.values
    return {"frames": len(values), "voiced": int((values > 0.0).sum())}


def _modified(args, kwargs, result):
    before, after = args[1].values, result.values
    return {"frames": len(before), "unvoiced": int(((before > 0.0) & (after == 0.0)).sum())}


def _written(args, kwargs, result):
    return {"bytes": len(args[1])}


def _pairs(args, kwargs, result):
    return {"pairs": int(result.target_scores.size + result.nontarget_scores.size)}


def _iterations(args, kwargs, result):
    iterations = getattr(result, "iterations", None)
    return {} if iterations is None else {"iterations": int(iterations)}


def _apply_name(args, kwargs):
    return f"modifiers.apply.{getattr(args[0], 'kind', 'unknown') if args else 'unknown'}"


# (module, attribute the caller looks up, span name or namer, extras)
WRAPS = [
    ("f0priv.cli", "_load_manifest", "cli.load_manifest", None),
    ("f0priv.cli", "_csv_bytes", "cli.csv_format", None),
    ("f0priv.cli", "_atomic_write", "cli.write", _written),
    ("f0priv.cli", "read_wav", "pitch.read_wav", _wav_bytes),
    ("f0priv.cli", "extract_f0", "pitch.extract_f0", _frames),
    ("f0priv.cli", "read_f0_csv", "trajectory.read_f0_csv", _rows),
    ("f0priv.cli", "validate", "trajectory.validate", None),
    ("f0priv.cli", "apply", _apply_name, _modified),
    ("f0priv.cli", "run_scenario", "evaluation.run_scenario", None),
    ("f0priv.modifiers", "validate", "trajectory.validate", None),
    ("f0priv.spline", "fit", "spline.fit", _iterations),
    ("f0priv.evaluation", "apply", _apply_name, _modified),
    ("f0priv.evaluation", "stats", "trajectory.stats", None),
    ("f0priv.evaluation", "score_corpus", "evaluation.score_corpus", _pairs),
    ("f0priv.evaluation", "eer", "evaluation.eer", None),
    ("f0priv.evaluation", "cllr_min", "evaluation.cllr_min", None),
    ("f0priv.evaluation", "affine_calibrate", "evaluation.affine_calibrate", None),
]


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()

    def wrap(self, fn, name, extras):
        spans = self.spans
        local = self._local

        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            index = len(spans)
            span = [name if isinstance(name, str) else name(args, kwargs), 0, 0,
                    stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if extras is not None:
                try:
                    span[4] = extras(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    pass  # a changed signature loses the counts, not the timing
            return result

        return wrapper

    def install(self) -> list:
        absent = []
        for module_name, attr, name, extras in WRAPS:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                absent.append(label)
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                absent.append(label)
                continue
            setattr(module, attr, self.wrap(fn, name, extras))
        return absent


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    absent = tracer.install()
    from f0priv.cli import main as cli_main

    sys.argv = ["f0priv", *argv]
    code = 0
    start = perf_counter_ns()
    try:
        cli_main()
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        main_ns = perf_counter_ns() - start
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"main_ns": main_ns, "absent": absent, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
