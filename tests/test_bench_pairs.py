import importlib.util
from pathlib import Path

import pytest

_path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _path)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7, 10.0, 10.4, 9.6]  # median 10, q3 - q1 0.45


def shifted(values, by):
    return [v + by for v in values]


class TestCompare:
    def test_clear_gain(self):
        out = bench_pairs.compare(PARENT, shifted(PARENT, -1.0), 0.25)
        assert (out["gain_shown"], out["within_bound"], out["unresolved"]) == (True, True, False)
        assert (out["change_lower_in"], out["ties"], out["pairs"]) == (10, 0, 10)

    def test_nine_wins_and_a_tie_show_a_gain_but_eight_do_not(self):
        change = shifted(PARENT, -1.0)
        change[0] = PARENT[0]  # a tie counts for neither side
        assert bench_pairs.compare(PARENT, change, 0.25)["gain_shown"]
        change[1] = PARENT[1]
        assert not bench_pairs.compare(PARENT, change, 0.25)["gain_shown"]

    def test_gap_within_the_parent_spread_shows_no_gain(self):
        # Lower in every pair, but by less than the parent's q3 - q1.
        assert not bench_pairs.compare(PARENT, shifted(PARENT, -0.3), 0.25)["gain_shown"]

    @pytest.mark.parametrize("change, within", [(5.0, True), (5.0001, False)])
    def test_bound_is_inclusive(self, change, within):
        verdict = bench_pairs.compare([4.0] * 10, [change] * 10, 0.25)
        assert verdict["within_bound"] is within
        assert not verdict["gain_shown"] and not verdict["unresolved"]

    def test_spread_wider_than_the_bound_is_unresolved(self):
        parent = [4.0, 6.0] * 5  # median 5, q3 - q1 2 > 0.25 * 5
        assert bench_pairs.compare(parent, shifted(parent, -0.5), 0.25)["unresolved"]
        # Unless every change run is lower than every parent run.
        assert not bench_pairs.compare(parent, [3.9] * 10, 0.25)["unresolved"]


def test_summary_reads_each_metrics_bound():
    pairs = [{"parent": {"setup_s": p, "commands_s": p, "peak_rss_mb": p, "failed": 0},
              "change": {"setup_s": p - 1.0, "commands_s": p * 1.2, "peak_rss_mb": p * 1.2, "failed": 0}}
             for p in PARENT]
    out = bench_pairs.summary(pairs, {"setup_s": 0.25, "commands_s": 0.25, "peak_rss_mb": 0.05})
    assert out["setup_s"]["gain_shown"] and out["setup_s"]["change_lower_in"] == 10
    assert out["commands_s"]["within_bound"] and not out["peak_rss_mb"]["within_bound"]
    assert out["failed_operations"] == {"parent": 0, "change": 0}


class TestControlled:
    """The A/A control: the parent against a copy of itself."""

    def verdict(self, change_shift, control_shift):
        control = bench_pairs.compare(PARENT, shifted(PARENT, control_shift), 0.25)
        return bench_pairs.controlled(bench_pairs.compare(PARENT, shifted(PARENT, change_shift), 0.25), control)

    def test_gain_past_the_control_gap_stands(self):
        out = self.verdict(-1.0, -0.5)
        assert (out["gain_shown"], out["unresolved"], out["control_gap"]) == (True, False, 0.5)

    @pytest.mark.parametrize("control_shift", [-1.5, 1.5, -1.0])
    def test_gain_within_the_control_gap_is_unresolved(self, control_shift):
        # The control's gap counts by its size, whichever copy read lower.
        out = self.verdict(-1.0, control_shift)
        assert (out["gain_shown"], out["unresolved"]) == (False, True)

    def test_the_control_only_tightens(self):
        for change_shift in (-2.0, -1.0, -0.3, 0.0, 0.3, 3.0):
            for control_shift in (-2.0, -0.5, 0.0, 0.5, 2.0):
                plain = bench_pairs.compare(PARENT, shifted(PARENT, change_shift), 0.25)
                out = self.verdict(change_shift, control_shift)
                assert out["gain_shown"] <= plain["gain_shown"]
                assert out["unresolved"] >= plain["unresolved"]
                assert out["within_bound"] == plain["within_bound"]


def test_summary_applies_the_control_per_metric():
    def pairs(change_of):
        return [{"parent": {name: p for name in bench_pairs.METRICS} | {"failed": 0},
                 "change": {name: change_of(name, p) for name in bench_pairs.METRICS} | {"failed": 0}}
                for p in PARENT]

    bounds = {"setup_s": 0.25, "commands_s": 0.25, "peak_rss_mb": 0.25}
    # The copy reads 1.5 lower on commands_s only; the change reads 1 lower on every metric.
    control = bench_pairs.summary(pairs(lambda name, p: p - 1.5 if name == "commands_s" else p), bounds)
    out = bench_pairs.summary(pairs(lambda name, p: p - 1.0), bounds, control)
    assert out["setup_s"]["gain_shown"] and out["peak_rss_mb"]["gain_shown"]
    assert not out["commands_s"]["gain_shown"] and out["commands_s"]["unresolved"]
