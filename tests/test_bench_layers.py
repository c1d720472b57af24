import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import make_traj
from f0priv import modifiers

_tools = Path(__file__).resolve().parents[1] / "tools"
sys.path.insert(0, str(_tools))  # bench_layers imports bench_pairs
_spec = importlib.util.spec_from_file_location("bench_layers", _tools / "bench_layers.py")
bench_layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_layers)

CONTROL = [0.97, 1.02, 0.99, 1.01, 0.98, 1.03]  # range 0.97-1.03


class TestVerdict:
    @pytest.mark.parametrize("ratios, found", [
        ([0.6, 0.65, 0.7, 0.62, 0.66, 0.9], "faster"),
        ([1.2, 1.1, 1.15, 1.3, 1.08, 0.9], "slower"),
        ([0.96, 0.98, 1.0, 1.02, 1.04, 0.5], "unchanged"),
    ])
    def test_median_against_the_control_range(self, ratios, found):
        out = bench_layers.verdict(ratios, CONTROL)
        assert out["verdict"] == found
        assert out["control_range"] == [0.97, 1.03]
        assert (out["ratios"], out["control_ratios"]) == (ratios, CONTROL)

    def test_one_outlying_process_does_not_decide(self):
        # Five processes see no change; the median ignores the sixth.
        assert bench_layers.verdict([0.3, 1.0, 1.0, 1.0, 1.0, 1.0], CONTROL)["verdict"] == "unchanged"

    @pytest.mark.parametrize("median, found", [(0.97, "unchanged"), (0.9699, "faster"),
                                               (1.03, "unchanged"), (1.0301, "slower")])
    def test_range_is_inclusive(self, median, found):
        assert bench_layers.verdict([median] * 3, CONTROL)["verdict"] == found

    def test_control_range_holds_one(self):
        # A control whose copies all read low still counts a ratio of 1 as unchanged.
        out = bench_layers.verdict([0.99, 1.0, 1.0], [0.9, 0.92, 0.95])
        assert out["control_range"] == [0.9, 1.0] and out["verdict"] == "unchanged"
        assert bench_layers.verdict([1.01] * 3, [0.9, 0.92, 0.95])["verdict"] == "slower"


def host_times(cost: dict, host) -> dict:
    """``times[tree][worker][round]`` of bench_layers' workers and rounds, in its order:
    a tree's time is its ``cost`` times the host's slowness ``host(worker, slot)``,
    where slots number the worker's runs in the order they happen."""
    times = {tree: [[] for _ in range(bench_layers.PROCESSES)] for tree in bench_layers.TREES}
    for worker in range(bench_layers.PROCESSES):
        for r in range(bench_layers.ROUNDS):
            for i, tree in enumerate(bench_layers.round_order(r)):
                times[tree][worker].append(cost[tree] * host(worker, 3 * r + i))
    return times


class TestJudge:
    def test_steady_host(self):
        times = host_times({"parent": 1.0, "change": 0.9, "copy": 1.0}, lambda worker, slot: 1.0)
        judged = bench_layers.judge(times)
        assert judged["verdict"] == "faster"
        assert judged["ratios"] == pytest.approx([0.9] * bench_layers.PROCESSES)
        assert judged["control_range"] == [1.0, 1.0]

    def test_drifting_host(self):
        # The host's slowness walks (log steps of sd 0.02 per run), and the
        # change is 3 % faster. Adjacent runs share the host's state, so the
        # paired ratios see the gain on every host.
        missed = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            steps = rng.normal(0.0, 0.02, (bench_layers.PROCESSES, 3 * bench_layers.ROUNDS))
            walks = np.exp(np.cumsum(steps, axis=1))
            times = host_times({"parent": 1.0, "change": 0.97, "copy": 1.0}, lambda worker, slot: walks[worker, slot])
            missed += bench_layers.judge(times)["verdict"] != "faster"
        assert missed == 0


def test_every_layer_the_pipeline_runs_is_timed():
    # Every kind but modulated-different, which modifies a corpus side as one of the others.
    single_contour = [kind for kind in modifiers.KINDS if kind != "modulated-different"]
    assert {f"apply.{kind}" for kind in single_contour} | {"extract_f0"} <= set(bench_layers.LAYERS)
    assert list(bench_layers.SPECS) == single_contour
    assert set(modifiers.SIDE_KINDS.values()) <= set(single_contour)
    contour = make_traj(120.0 + 10.0 * np.sin(np.arange(60) / 5.0))
    for kind, fields in bench_layers.SPECS.items():
        modifiers.apply(modifiers.ModifierSpec(kind, **fields), contour)  # each kind's required fields are given


@dataclasses.dataclass
class Pair:
    hop: float
    values: np.ndarray


class TestDigest:
    def test_equal_bits_equal_digests(self):
        a = [Pair(0.01, np.array([1.0, 0.0])), b"time_s", ["x"], None]
        b = [Pair(0.01, np.array([1.0, 0.0])), b"time_s", ["x"], None]
        assert bench_layers.digest(a) == bench_layers.digest(b)

    @pytest.mark.parametrize("a, b", [
        (0.0, -0.0),
        (float("nan"), -float("nan")),
        (np.array([0.0]), np.array([-0.0])),
        (np.array([1.0]), np.array([1.0], dtype=np.float32)),
        (Pair(0.01, np.array([1.0])), Pair(np.nextafter(0.01, 1.0), np.array([1.0]))),
        ([["a"], "b"], [["a", "b"]]),
        (["ab"], ["a", "b"]),
        (None, "None"),
    ])
    def test_any_difference_in_bits_shows(self, a, b):
        assert bench_layers.digest(a) != bench_layers.digest(b)


@pytest.fixture
def own_f0priv():
    """Lets a test import other f0priv trees: the suite's own modules are set aside and put back."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules)
             if name == "f0priv" or name.startswith("f0priv.")}
    yield
    for name in [n for n in sys.modules if n == "f0priv" or n.startswith("f0priv.")]:
        del sys.modules[name]
    sys.modules.update(saved)


def fake_tree(root: Path, marker: str, modifiers_extra: str = "") -> Path:
    package = root / "src" / "f0priv"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    # A stub for each module load_tree imports; the others import trajectory's marker.
    for name in bench_layers.MODULES:
        stub = f"MARKER = {marker!r}\n" if name == "trajectory" else "from .trajectory import MARKER\n"
        (package / f"{name}.py").write_text(stub + (modifiers_extra if name == "modifiers" else ""))
    return root / "src"


@pytest.mark.usefixtures("own_f0priv")
class TestLoadTree:
    def test_each_tree_gets_its_own_modules(self, tmp_path):
        srcs = [fake_tree(tmp_path / name, name) for name in ("parent", "change")]
        trees = [bench_layers.load_tree(src) for src in srcs]
        for name in bench_layers.MODULES:
            assert [t[name].MARKER for t in trees] == ["parent", "change"]
        assert not [name for name in sys.modules if name.startswith("f0priv")]
        assert not {str(src) for src in srcs} & set(sys.path)

    def test_a_module_from_elsewhere_is_refused(self, tmp_path):
        src = fake_tree(tmp_path / "odd", "odd", "import json, sys\nsys.modules['f0priv.borrowed'] = json\n")
        with pytest.raises(SystemExit, match="f0priv.borrowed was imported from .*json"):
            bench_layers.load_tree(src)
