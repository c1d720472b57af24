"""Self-checks of the benchmark's own logic.

    python3 perfbench/selfcheck.py

Run from the root of an f0priv checkout. Exits non-zero on the first
failed check. It covers the output checks (a corrupted reference output
must count as a failed operation, last-digit drift must not), the trace
arithmetic, the import-time parser, tolerance of absent wrapped names and
the agreement of ``BENCHMARK.json`` with the metrics ``run.py`` prints.
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np

import inputs
import reference
import run
import trace_boot


def check_benchmark_json(root: Path) -> None:
    bench = json.loads((root / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert {w["name"]: w["why"] for w in bench["workloads"]} == run.WORKLOADS


def check_csv_tolerance() -> None:
    values = np.array([0.0, 120.5, 121.25, 0.0])
    expected = inputs.csv_text(values).encode()
    assert run.check_csv(expected, expected) == (True, True)
    drift = inputs.csv_text(values + np.array([0, 1e-6, -1e-6, 0])).encode()
    assert run.check_csv(drift, expected) == (True, False)
    for bad in (values + np.array([0, 3e-6, 0, 0]), values[:-1], np.array([0.0, 120.5, 0.0, 0.0])):
        assert run.check_csv(inputs.csv_text(bad).encode(), expected) == (False, False)
    assert run.check_csv(b"not,a\ncsv", expected) == (False, False)


def check_report_tolerance() -> None:
    expected = {"scenario": "OO", "eer_percent": 12.5, "cllr_bits": 0.42, "cllr_min_bits": 0.4,
                "n_target": 6, "n_nontarget": 30}
    exact = (json.dumps({**expected, "notes": "x"}, indent=2) + "\n").encode()
    assert run.check_report(exact, expected) == (True, True)
    near = json.dumps({**expected, "cllr_bits": 0.42 * (1 + 1e-12), "notes": "x"}).encode()
    assert run.check_report(near, expected) == (True, False)
    for change in ({"cllr_bits": 0.42 * (1 + 1e-7)}, {"n_target": 7}, {"scenario": "AA"}):
        assert run.check_report(json.dumps({**expected, **change, "notes": "x"}).encode(), expected)[0] is False
    assert run.check_report(b"{", expected) == (False, False)


def check_corrupted_reference(root: Path) -> None:
    # Run the real CLI on three contours with one reference output corrupted
    # in its last digits: exactly that operation must fail.
    work = root / ".perfbench-work" / "selfcheck"
    shutil.rmtree(work, ignore_errors=True)
    try:
        made = inputs.make_contours(work / "in", seed=5, n_files=3)
        ops = []
        for i, c in enumerate(made.contours):
            want = reference.random_walk(c.values, c.recording_id, 9)
            if i == 1:
                want = want + np.where(want > 0, 5e-6, 0.0)
            expected = inputs.csv_text(want).encode()
            ops.append(run.Op(f"in/{c.path.name}", c.path.name, lambda d, e=expected: run.check_csv(d, e)))
        cmd = run.Command("modify-walk", ["modify", "--kind", "random-walk-strong", "--seed", "9",
                                          "--out", "{out}", *[op.label for op in ops]], ops)
        tally = run.Tally()
        child = run.execute(cmd, run.F0PRIV, run.child_env(root), work, tally)
        assert child.returncode == 0, child.stderr
        assert (tally.attempted, tally.failed, tally.identical) == (3, 1, 2), tally
        # A command that exits non-zero fails all of its operations.
        cmd.args = ["modify", "--kind", "no-such-kind", "--out", "{out}", *[op.label for op in ops]]
        tally = run.Tally()
        run.execute(cmd, run.F0PRIV, run.child_env(root), work, tally)
        assert (tally.attempted, tally.failed) == (3, 3), tally
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it


def check_layer_totals() -> None:
    spans = [
        ["a", 0, 100, None, None],
        ["b", 10, 40, 0, {"rows": 3}],
        ["c", 15, 25, 1, None],
        ["b", 50, 60, 0, {"rows": 2}],
        ["d", 110, 150, None, None],
    ]
    totals, coverage, absent = run.layer_totals([{"main_ns": 200, "absent": ["x.y"], "spans": spans}])
    assert totals["a"] == {"self_ns": 60, "calls": 1}
    assert totals["b"] == {"self_ns": 30, "calls": 2, "rows": 5}
    assert totals["c"]["self_ns"] == 10 and totals["d"]["self_ns"] == 40
    assert coverage == 0.7 and absent == {"x.y"}


IMPORTTIME = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 | site
import time:        50 |         50 |       scipy._lib
import time:       200 |        250 |     scipy
import time:       300 |        300 |     scipy.optimize
import time:        10 |        560 |   f0priv.evaluation
import time:        40 |        600 | f0priv
import time:         5 |          5 |   scipy.special
import time:        20 |         25 | f0priv.cli
"""


def check_importtime() -> None:
    assert run.parse_importtime(IMPORTTIME) == (0.625, 0.555)


def check_absent_names(root: Path) -> None:
    sys.path.insert(0, str(root / "src"))
    trace_boot.WRAPS.append(("f0priv.cli", "_no_such_function", "cli.none", None))
    trace_boot.WRAPS.append(("f0priv.no_such_module", "fit", "none.fit", None))
    try:
        absent = trace_boot.Tracer().install()
    finally:
        del trace_boot.WRAPS[-2:]
    assert absent == ["f0priv.cli._no_such_function", "f0priv.no_such_module.fit"], absent


def main() -> None:
    root = Path.cwd()
    checks = [
        lambda: check_benchmark_json(root),
        check_csv_tolerance,
        check_report_tolerance,
        lambda: check_corrupted_reference(root),
        check_layer_totals,
        check_importtime,
        lambda: check_absent_names(root),
    ]
    for check in checks:
        check()
    print(f"selfcheck: {len(checks)} checks passed")


if __name__ == "__main__":
    main()
