import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_traj
from f0priv.cli import cli
from f0priv.trajectory import read_f0_csv, write_f0_csv
from test_pitch import wav_bytes


@pytest.fixture
def runner():
    return CliRunner()


def write_fixture_csv(path, values=(0.0, 100.0, 120.0, 0.0, 110.0)):
    write_f0_csv(make_traj(list(values)), path)
    return path


def write_tone_wav(path, freq=180.0, duration=0.6, sr=16000):
    t = np.arange(int(sr * duration)) / sr
    samples = (0.45 * np.sin(2 * np.pi * freq * t) * 32767).astype(np.int16)
    path.write_bytes(wav_bytes(samples, sample_rate=sr))
    return path


class TestExtract:
    def test_single_wav(self, runner, tmp_path):
        wav = write_tone_wav(tmp_path / "utt.wav")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["extract", str(wav), "--out", str(out)])
        assert result.exit_code == 0, result.output
        traj = read_f0_csv(out / "utt.csv")
        voiced = traj.values[traj.values > 0]
        assert abs(np.median(voiced) - 180.0) < 2.0

    def test_manifest_order_preserved(self, runner, tmp_path):
        entries = []
        for i, freq in enumerate((120.0, 200.0, 280.0)):
            wav = write_tone_wav(tmp_path / f"w{i}.wav", freq)
            entries.append(
                {"speaker_id": "s", "recording_id": f"rec{i}", "split": "trial", "path": wav.name}
            )
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": entries}))
        out = tmp_path / "out"
        result = runner.invoke(cli, ["extract", str(manifest), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if "->" in l]
        assert [l.split("-> ")[1] for l in lines] == [str(out / f"rec{i}.csv") for i in range(3)]

    def test_missing_file_continues_others(self, runner, tmp_path):
        wav = write_tone_wav(tmp_path / "good.wav")
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["extract", str(tmp_path / "missing.wav"), str(wav), "--out", str(out)]
        )
        assert result.exit_code == 2
        assert (out / "good.csv").exists()

    def test_codec_error_exit_2(self, runner, tmp_path):
        bad = tmp_path / "mu.wav"
        bad.write_bytes(wav_bytes(b"\x00\x01", audio_format=7, bits=8))
        result = runner.invoke(cli, ["extract", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2

    def test_nan_float_samples_exit_2(self, runner, tmp_path):
        samples = 0.4 * np.sin(2 * np.pi * 180.0 * np.arange(9600) / 16000)
        samples[4000:4010] = np.nan
        bad = tmp_path / "nan.wav"
        bad.write_bytes(wav_bytes(samples, audio_format=3, bits=32))
        out = tmp_path / "o"
        result = runner.invoke(cli, ["extract", str(bad), "--out", str(out)])
        assert result.exit_code == 2
        assert "non-finite float sample at index 4000" in result.stderr
        assert not (out / "nan.csv").exists()


class TestModify:
    def test_voiced_flat_fixture(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["modify", str(src), "--kind", "voiced-flat", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        traj = read_f0_csv(out / "fix.csv")
        assert np.array_equal(traj.values, [0, 110, 110, 0, 110])
        sidecar = json.loads((out / "sidecar.json").read_text())
        assert sidecar["spec"]["kind"] == "voiced-flat"
        assert sidecar["tool_version"]

    def test_modulated_different_requires_role(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        result = runner.invoke(
            cli, ["modify", str(src), "--kind", "modulated-different", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert "role" in result.output

    def test_byte_identical_across_runs(self, runner, tmp_path):
        rng = np.random.default_rng(0)
        sources = []
        for i in range(4):
            values = rng.uniform(90, 280, 120)
            values[rng.random(120) < 0.2] = 0.0
            path = tmp_path / f"in{i}.csv"
            write_f0_csv(make_traj(values, rid=f"in{i}"), path)
            sources.append(str(path))
        outputs = {}
        for name in ("a", "b", "c"):
            out = tmp_path / name
            result = runner.invoke(
                cli,
                ["modify", *sources, "--kind", "random-walk-strong", "--seed", "99",
                 "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            outputs[name] = [(out / f"in{i}.csv").read_bytes() for i in range(4)] + [
                (out / "sidecar.json").read_bytes()
            ]
        assert outputs["a"] == outputs["b"] == outputs["c"]

    def test_env_seed_fallback(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv", values=(90.0, 100.0, 110.0, 95.0, 105.0))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        r1 = runner.invoke(
            cli, ["modify", str(src), "--kind", "random-walk-weak", "--out", str(out1)],
            env={"F0PRIV_SEED": "1234"},
        )
        r2 = runner.invoke(
            cli, ["modify", str(src), "--kind", "random-walk-weak", "--seed", "1234", "--out", str(out2)],
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert (out1 / "fix.csv").read_bytes() == (out2 / "fix.csv").read_bytes()

    def test_refuses_overwriting_input(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        result = runner.invoke(
            cli, ["modify", str(src), "--kind", "voiced-flat", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert "refusing" in result.output

    def test_config_file_with_flag_override(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"modifier": {"kind": "all-flat"}, "seed": 7}))
        out = tmp_path / "out"
        result = runner.invoke(
            cli,
            ["modify", str(src), "--config", str(config), "--kind", "voiced-flat", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        traj = read_f0_csv(out / "fix.csv")
        assert traj.values[0] == 0.0  # voiced-flat, not all-flat

    def test_config_unknown_keys_rejected(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"modifier": {"kind": "all-flat"}, "volume": 11}))
        result = runner.invoke(cli, ["modify", str(src), "--config", str(config)])
        assert result.exit_code == 2
        assert "unknown keys" in result.output

    def test_time_offset_exit_2(self, runner, tmp_path):
        src = tmp_path / "late.csv"
        src.write_text("time_s,f0_hz\n1.000000,100.0\n1.010000,110.0\n1.020000,120.0\n")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["modify", str(src), "--kind", "voiced-flat", "--out", str(out)])
        assert result.exit_code == 2
        assert "line 2: time column starts at 1 s, not 0" in result.output
        assert not (out / "late.csv").exists()

    def test_band_warning_for_custom_frequencies(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        out = tmp_path / "out"
        result = runner.invoke(
            cli,
            ["modify", str(src), "--kind", "modulated-same-1", "--f1", "30", "--f2", "45",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        assert "outside" in result.output  # 30+45 leaves the band; warn, not fail
        assert (out / "fix.csv").exists()


class TestStats:
    def test_constant_fixture(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "c.csv", values=(100.0,) * 6)
        result = runner.invoke(cli, ["stats", str(src)])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data[0]["stats"]["log_f0_var"] == 0.0

    def test_all_unvoiced_nulls(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "u.csv", values=(0.0, 0.0, 0.0))
        result = runner.invoke(cli, ["stats", str(src)])
        data = json.loads(result.output)
        assert data[0]["stats"]["voiced_fraction"] == 0.0
        assert data[0]["stats"]["voiced_mean_hz"] is None

    def test_rise_rate_fixture(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "r.csv", values=(100.0, 110.0, 105.0, 115.0))
        result = runner.invoke(cli, ["stats", str(src)])
        data = json.loads(result.output)
        assert data[0]["stats"]["rise_rate_hz_s"] == pytest.approx(1000.0)

    def test_parse_error_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,f0_hz\n0.0,nope\n")
        result = runner.invoke(cli, ["stats", str(bad)])
        assert result.exit_code == 2

    def test_invalid_values_exit_2_with_valid_json(self, runner, tmp_path):
        good = write_fixture_csv(tmp_path / "good.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,f0_hz\n0.000000,inf\n0.010000,nan\n0.020000,5\n0.030000,100\n")
        result = runner.invoke(cli, ["stats", str(good), str(bad)])
        assert result.exit_code == 2
        assert f"error: {bad}:" in result.stderr
        assert "non-finite at frame 0" in result.stderr
        assert "at frame 2" in result.stderr
        data = json.loads(result.stdout)
        assert [r["recording_id"] for r in data] == ["good"]

    def test_overflowing_values_exit_2_with_valid_json(self, runner, tmp_path):
        good = write_fixture_csv(tmp_path / "good.csv")
        huge = tmp_path / "huge.csv"
        huge.write_text("time_s,f0_hz\n0.000000,1e308\n0.010000,1e308\n0.020000,1e308\n")
        result = runner.invoke(cli, ["stats", str(good), str(huge)])
        assert result.exit_code == 2
        assert f"error: {huge}: non-finite statistics: voiced_mean_hz" in result.stderr
        assert "Traceback" not in result.stderr
        data = json.loads(result.stdout)
        assert [r["recording_id"] for r in data] == ["good"]


def build_eval_manifest(tmp_path, n_speakers=6, n_rec=4):
    rng = np.random.default_rng(5)
    entries = []
    t = np.arange(300) * 0.01
    for s in range(n_speakers):
        base = 120.0 + 15.0 * s
        for k in range(n_rec):
            values = base + 8.0 * np.sin(2 * np.pi * 1.5 * t) + rng.normal(0, 1.5, 300)
            rid = f"s{s}r{k}"
            path = tmp_path / f"{rid}.csv"
            write_f0_csv(make_traj(values.clip(60, 400), rid=rid), path)
            entries.append(
                {
                    "speaker_id": f"s{s}",
                    "recording_id": rid,
                    "split": "enrollment" if k < n_rec // 2 else "trial",
                    "path": path.name,
                }
            )
    manifest = tmp_path / "corpus.json"
    manifest.write_text(json.dumps({"entries": entries}))
    return manifest


class TestEval:
    def test_oo_report(self, runner, tmp_path):
        manifest = build_eval_manifest(tmp_path)
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 0, result.output
        report = json.loads(result.output)
        assert report["scenario"] == "OO"
        assert report["n_target"] == 6 * 2
        assert report["cllr_min_bits"] <= report["cllr_bits"] + 1e-12

    def test_oa_needs_modifier(self, runner, tmp_path):
        manifest = build_eval_manifest(tmp_path)
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OA"])
        assert result.exit_code == 2

    def test_aa_with_walk_writes_report(self, runner, tmp_path):
        manifest = build_eval_manifest(tmp_path)
        out = tmp_path / "report.json"
        result = runner.invoke(
            cli,
            ["eval", "--manifest", str(manifest), "--scenario", "AA",
             "--kind", "random-walk-strong", "--seed", "3", "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        report = json.loads(out.read_text())
        assert report["scenario"] == "AA"
        assert 0.0 <= report["eer_percent"] <= 50.0

    def test_modulated_different_needs_no_role_flag(self, runner, tmp_path):
        # Roles are assigned per corpus side by the scenario runner.
        manifest = build_eval_manifest(tmp_path)
        result = runner.invoke(
            cli,
            ["eval", "--manifest", str(manifest), "--scenario", "AA",
             "--kind", "modulated-different"],
        )
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["scenario"] == "AA"

    def test_deterministic_reports(self, runner, tmp_path):
        manifest = build_eval_manifest(tmp_path)
        args = ["eval", "--manifest", str(manifest), "--scenario", "OA",
                "--kind", "random-walk-weak", "--seed", "11"]
        r1 = runner.invoke(cli, args)
        r2 = runner.invoke(cli, args)
        assert r1.output == r2.output

    def test_corpus_violations_listed(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "only.csv", values=(100.0,) * 50)
        manifest = tmp_path / "bad.json"
        manifest.write_text(
            json.dumps(
                {"entries": [
                    {"speaker_id": "a", "recording_id": "r", "split": "trial", "path": "only.csv"}
                ]}
            )
        )
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 2
        assert "no enrollment" in result.output

    def test_manifest_missing_path(self, runner, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text(
            json.dumps(
                {"entries": [
                    {"speaker_id": "a", "recording_id": "r", "split": "trial", "path": "gone.csv"}
                ]}
            )
        )
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 2
        assert "does not exist" in result.output

    def test_manifest_entries_not_a_list(self, runner, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps({"entries": 5}))
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 2
        assert "expected an object with an 'entries' list" in result.output


class TestPlot:
    def test_two_trajectories_two_paths(self, runner, tmp_path):
        a = write_fixture_csv(tmp_path / "a.csv", values=(0.0, 100.0, 110.0, 0.0, 120.0, 125.0))
        b = write_fixture_csv(tmp_path / "b.csv", values=(0.0, 110.0, 110.0, 0.0, 110.0, 110.0))
        out = tmp_path / "plot.svg"
        result = runner.invoke(cli, ["plot", str(a), str(b), "--out", str(out)])
        assert result.exit_code == 0, result.output
        svg = out.read_text()
        assert svg.count('class="trajectory"') == 2
        # Two voiced runs per trajectory -> two subpath starts per path.
        for line in svg.splitlines():
            if 'class="trajectory"' in line:
                assert line.count("M ") == 2
        assert "a</text>" in svg and "b</text>" in svg

    def test_single_file_single_path(self, runner, tmp_path):
        a = write_fixture_csv(tmp_path / "a.csv")
        out = tmp_path / "plot.svg"
        result = runner.invoke(cli, ["plot", str(a), "--out", str(out)])
        assert result.exit_code == 0
        assert out.read_text().count('class="trajectory"') == 1

    def test_mismatched_hop_warns(self, runner, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_f0_csv(make_traj([100.0, 110.0, 120.0], hop=0.01), a)
        write_f0_csv(make_traj([100.0, 110.0, 120.0], hop=0.02), b)
        out = tmp_path / "plot.svg"
        result = runner.invoke(cli, ["plot", str(a), str(b), "--out", str(out)])
        assert result.exit_code == 0
        assert "different frame hops" in result.output
        assert out.exists()


class TestContract:
    def test_usage_error_is_exit_2(self, runner):
        result = runner.invoke(cli, ["modify"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command, config",
        [
            ("extract", {"pitch": 5}),
            ("modify", {"modifier": 5}),
            ("modify", {"modifier": {"kind": "random-walk-weak", "seed": "abc"}}),
            ("modify", {"modifier": {"kind": "shift-and-scale", "target_mean_hz": "x",
                                     "target_std_hz": 20.0}}),
            ("modify", {"modifier": {"kind": "modulated-same-1", "f1_hz": "5", "f2_hz": 11.0}}),
            ("extract", {"pitch": {"f_min": "x"}}),
            ("modify", {"modifier": {"kind": "voiced-flat"}, "input_dir": 5}),
            ("extract", {"output_dir": ["out"]}),
            ("modify", {"modifier": {"kind": "random-walk-weak", "seed": 1, "strength": True}}),
            ("modify", {"modifier": {"kind": "random-walk-weak", "seed": 1, "strength": 1.0}}),
        ],
    )
    def test_config_of_wrong_type_is_exit_2(self, runner, tmp_path, command, config):
        if command == "extract":
            src = write_tone_wav(tmp_path / "tone.wav")
        else:
            src = write_fixture_csv(tmp_path / "fix.csv")
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        result = runner.invoke(cli, [command, str(src), "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert not out.exists()

    def test_all_exports_resolve(self):
        import f0priv

        missing = [name for name in f0priv.__all__ if not hasattr(f0priv, name)]
        assert missing == []

    def test_unknown_kind_is_exit_2(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        result = runner.invoke(cli, ["modify", str(src), "--kind", "sparkle"])
        assert result.exit_code == 2

    def test_import_loads_no_scipy(self):
        # scipy costs about half a second to import; only spline fitting and
        # the eval metrics need it, and they import it themselves.
        code = (
            "import sys, f0priv.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    def test_version(self, runner):
        result = runner.invoke(cli, ["--version"])
        assert result.exit_code == 0
        assert "f0priv" in result.output
