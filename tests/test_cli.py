import ast
import concurrent.futures
import importlib
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from conftest import make_traj
from f0priv import __version__
from f0priv import cli as cli_module
from f0priv.cli import cli
from f0priv.evaluation import Recording, SpeakerCorpus, run_scenario
from f0priv.modifiers import NO_SIDE, ModifierSpec, apply
from f0priv.pitch import PitchConfig, extract_f0, read_wav
from f0priv.trajectory import (
    FRAME_HOP_MIN_S,
    VOICED_MAX_HZ,
    VOICED_MIN_HZ,
    format_f0_csv,
    read_f0_csv,
    validate,
    write_f0_csv,
)
from test_modifiers import UPPER_EDGE
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


def src_env():
    """The environment for a fresh interpreter that imports f0priv from this checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


BAD_RANGE = "pitch need 40 <= f_min < f_max, got f_min=300.0, f_max=200.0"


def usage_error(command, message):
    """What click prints to stderr for a ``click.UsageError`` raised by ``command``."""
    args = "[OPTIONS]" if command == "eval" else "[OPTIONS] INPUTS..."
    return (f"Usage: cli {command} {args}\nTry 'cli {command} --help' for help.\n\n"
            f"Error: {message}\n")


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

    def test_missing_manifest_entry_fails_alone(self, runner, tmp_path):
        wav = write_tone_wav(tmp_path / "good.wav")
        entries = [{"speaker_id": "s", "recording_id": rid, "split": "trial", "path": name}
                   for rid, name in (("gone", "gone.wav"), ("good", wav.name))]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": entries}))
        out = tmp_path / "out"
        result = runner.invoke(cli, ["extract", str(manifest), "--out", str(out)])
        assert result.exit_code == 2
        assert str(tmp_path / "gone.wav") in result.stderr
        assert (out / "good.csv").exists() and not (out / "gone.csv").exists()

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

    # wav_bytes writes the RIFF header in bytes 0-11, the 16-byte fmt chunk
    # in bytes 12-35 and the data chunk from byte 36.
    @pytest.mark.parametrize("make, reason", [
        (lambda wav: wav[:12] + b"fmt " + (8).to_bytes(4, "little") + wav[20:28] + wav[36:], "truncated fmt chunk"),
        (lambda wav: wav[:12] + wav[36:], "missing fmt chunk"),
        (lambda wav: wav[:36], "missing data chunk"),
        (lambda wav: wav_bytes(np.zeros(30, dtype=np.int16), channels=3),
         "3 channels unsupported (mono or stereo only)"),
        (lambda wav: wav_bytes(np.zeros(11, dtype=np.int16), channels=2), "data chunk is not a whole number of frames"),
    ], ids=["truncated-fmt", "no-fmt", "no-data", "3-channels", "partial-frame"])
    def test_wav_refusal_names_the_path_once(self, runner, tmp_path, make, reason):
        good = write_tone_wav(tmp_path / "good.wav")
        bad = tmp_path / "bad.wav"
        bad.write_bytes(make(good.read_bytes()))
        out = tmp_path / "out"
        result = runner.invoke(cli, ["extract", str(bad), str(good), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr.splitlines() == [f"error: {bad}: {reason}"]
        assert result.stdout.splitlines() == [f"{good} -> {out / 'good.csv'}"]
        assert sorted(path.name for path in out.iterdir()) == ["good.csv"]


    def test_same_name_inputs_refused(self, runner, tmp_path):
        for folder, freq in (("w1", 120.0), ("w2", 150.0)):
            (tmp_path / folder).mkdir()
            write_tone_wav(tmp_path / folder / "x.wav", freq)
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["extract", str(tmp_path / "w1" / "x.wav"), str(tmp_path / "w2" / "x.wav"),
                  "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "error: output x.csv would be written by each of" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("rid", [
        "../escaped", "{tmp}/escaped", "sub/x", "",
        pytest.param("a\0b", id="nul"),
        # <id>.csv of 256 bytes, in ASCII and in two-byte UTF-8.
        pytest.param("x" * 252, id="256-bytes"),
        pytest.param("\u00e9" * 126, id="256-utf8-bytes"),
        pytest.param("\ud800", id="surrogate"),
    ])
    def test_recording_id_not_a_plain_name(self, runner, tmp_path, rid):
        rid = rid.format(tmp=tmp_path)
        write_tone_wav(tmp_path / "bad.wav")
        write_tone_wav(tmp_path / "good.wav")
        entries = [
            {"speaker_id": "s", "recording_id": rid, "split": "trial", "path": "bad.wav"},
            {"speaker_id": "s", "recording_id": "good", "split": "trial", "path": "good.wav"},
        ]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"entries": entries}))
        out = tmp_path / "out"
        result = runner.invoke(cli, ["extract", str(manifest), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {tmp_path / 'bad.wav'}: recording id {rid!r} is not a plain file name\n"
        assert not (tmp_path / "escaped.csv").exists()
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags", [["--frame-len", "inf"], ["--frame-hop", "nan"], ["--f-max", "inf"]]
    )
    def test_non_finite_setting_exit_2(self, runner, tmp_path, flags):
        wav = write_tone_wav(tmp_path / "tone.wav")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["extract", str(wav), *flags, "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "must be a finite number" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("given", ["flags", "config"])
    def test_bad_setting_is_one_usage_error_before_any_output(self, runner, tmp_path, given):
        wavs = [str(write_tone_wav(tmp_path / f"{name}.wav")) for name in "ab"]
        out = tmp_path / "out"
        if given == "flags":
            args = ["--f-min", "300", "--f-max", "200"]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"pitch": {"f_min": 300.0, "f_max": 200.0}}))
            args = ["--config", str(config)]
        result = runner.invoke(cli, ["extract", *wavs, *args, "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == usage_error("extract", BAD_RANGE)
        assert result.stdout == ""
        assert not out.exists()

    def test_first_non_finite_setting_in_field_order(self, runner, tmp_path):
        # frame_len comes before f_max in PitchConfig, whatever the flag order.
        wav = write_tone_wav(tmp_path / "tone.wav")
        result = runner.invoke(
            cli, ["extract", str(wav), "--f-max", "inf", "--frame-len", "nan", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2
        assert result.stderr == usage_error("extract", "pitch frame_len must be a finite number, got nan")

    def test_hop_under_one_sample_exit_2(self, runner, tmp_path):
        wav = write_tone_wav(tmp_path / "tone.wav", sr=8000)
        out = tmp_path / "out"
        result = runner.invoke(cli, ["extract", str(wav), "--frame-hop", "0.00005", "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: {wav}: frame_hop=5e-05 s rounds to 0 samples at sample_rate=8000; "
            "the minimum is one sample, frame_hop=0.000125 s\n"
        )
        assert list(out.iterdir()) == []


    @pytest.mark.parametrize("rid", ["y", "sub/y"])
    def test_output_over_another_jobs_input_refused(self, runner, tmp_path, rid):
        # x's output o/x.csv is y's input, a WAV that writing x would destroy.
        # A recording id that is not a plain name refuses the run first.
        write_tone_wav(tmp_path / "a.wav", 150.0)
        out = tmp_path / "o"
        out.mkdir()
        wav = write_tone_wav(out / "x.csv", 220.0)
        before = wav.read_bytes()
        entries = [
            {"speaker_id": "s", "recording_id": "x", "split": "trial", "path": "a.wav"},
            {"speaker_id": "s", "recording_id": rid, "split": "trial", "path": "o/x.csv"},
        ]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": entries}))
        result = runner.invoke(cli, ["extract", str(manifest), "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        if rid == "y":
            assert result.stderr == (
                f"error: {tmp_path / 'a.wav'} -> {out / 'x.csv'} would overwrite the input {wav}\n"
            )
        else:
            assert result.stderr == f"error: {wav}: recording id 'sub/y' is not a plain file name\n"
        assert result.stdout == ""
        assert wav.read_bytes() == before
        assert [p.name for p in out.iterdir()] == ["x.csv"]

    def test_output_that_is_a_symlink_loop_is_replaced_on_a_rerun(self, runner, tmp_path):
        # An existing output makes the overwrite check resolve every output,
        # and a symlink loop cannot be resolved; it still matches no input.
        a = write_tone_wav(tmp_path / "a.wav")
        b = write_tone_wav(tmp_path / "b.wav")
        out = tmp_path / "out"
        out.mkdir()
        (out / "a.csv").write_text("stale")
        (out / "b.csv").symlink_to(out / "b.csv")
        result = runner.invoke(cli, ["extract", str(a), str(b), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        assert not (out / "b.csv").is_symlink()
        assert read_f0_csv(out / "a.csv").n_frames > 0
        assert read_f0_csv(out / "b.csv").n_frames > 0

    def test_recording_id_of_255_bytes_is_written(self, runner, tmp_path):
        rid = "\u00e9" * 125 + "x"  # <id>.csv is 255 bytes in UTF-8
        wav = write_tone_wav(tmp_path / "a.wav")
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": [
            {"speaker_id": "s", "recording_id": rid, "split": "trial", "path": "a.wav"}]}))
        out = tmp_path / "out"
        result = runner.invoke(cli, ["extract", str(manifest), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert result.stdout == f"{wav} -> {out / rid}.csv\n"
        assert read_f0_csv(out / f"{rid}.csv").n_frames > 0

    def test_recording_id_with_nul_is_refused_on_a_rerun(self, runner, tmp_path):
        # An existing output would make the overwrite check resolve paths,
        # which a NUL byte cannot go through; the id is refused before that.
        write_tone_wav(tmp_path / "a.wav")
        entries = [
            {"speaker_id": "s", "recording_id": "a\0b", "split": "trial", "path": "a.wav"},
            {"speaker_id": "s", "recording_id": "c", "split": "trial", "path": "a.wav"},
        ]
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": entries}))
        out = tmp_path / "out"
        (out / "c.csv").parent.mkdir()
        (out / "c.csv").write_text("stale")
        result = runner.invoke(cli, ["extract", str(manifest), "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {tmp_path / 'a.wav'}: recording id 'a\\x00b' is not a plain file name\n"
        assert (out / "c.csv").read_text() == "stale"

    def test_pool_size_does_not_change_outputs(self, runner, tmp_path, monkeypatch):
        entries = []
        for i in range(7):
            path = tmp_path / f"w{i}.wav"
            if i == 2:
                path.write_bytes(b"RIFX not a wave file")
            else:
                # Lengths and hops vary, so the threads share the CSV template cache.
                write_tone_wav(path, 110.0 + 25.0 * i, duration=0.3 + 0.1 * i,
                               sr=22050 if i == 5 else 16000)
            entries.append({"speaker_id": "s", "recording_id": f"w{i}", "split": "trial", "path": path.name})
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"entries": entries}))
        track = cli_module.extract_f0
        runs = {}
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # thread switches as often as possible
        try:
            for cpus in (1, 3):
                threads = set()

                def recorded(*args, **kwargs):
                    threads.add(threading.get_ident())
                    return track(*args, **kwargs)

                monkeypatch.setattr(cli_module, "extract_f0", recorded)
                monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
                monkeypatch.setattr(os, "cpu_count", lambda: cpus)
                out = tmp_path / "out"
                # Relative paths into one directory, so both runs print the same lines.
                monkeypatch.chdir(tmp_path)
                result = runner.invoke(cli, ["extract", manifest.name, "--out", out.name])
                files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
                shutil.rmtree(out)
                runs[cpus] = (files, result.stdout, result.stderr, result.exit_code)
                assert threading.get_ident() not in threads
                assert 1 <= len(threads) <= cpus
        finally:
            sys.setswitchinterval(switch)
        assert runs[1] == runs[3]
        files, stdout, stderr, code = runs[3]
        assert code == 2
        assert sorted(files) == ["w0.csv", "w1.csv", "w3.csv", "w4.csv", "w5.csv", "w6.csv"]
        assert files["w5.csv"].split(b"\n")[2].startswith(b"0.009977,")  # 220 samples at 22,050 Hz
        assert stdout.splitlines() == [f"w{i}.wav -> out/w{i}.csv" for i in (0, 1, 3, 4, 5, 6)]
        assert stderr.splitlines() == ["error: w2.wav: not a RIFF/WAVE file"]

    @pytest.mark.parametrize(
        "affinity, cpu_count, n_wavs, workers",
        [(3, 3, 7, 3), (8, 8, 2, 2), (None, 5, 7, 5), (None, None, 4, 1), (1, 4, 3, 1)],
    )
    def test_pool_size(self, runner, tmp_path, monkeypatch, affinity, cpu_count, n_wavs, workers):
        # One thread per usable CPU, never more than there are jobs.
        sizes = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(affinity)), raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        wavs = [str(write_tone_wav(tmp_path / f"w{i}.wav", duration=0.1)) for i in range(n_wavs)]
        result = runner.invoke(cli, ["extract", *wavs, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0, result.output
        assert sizes == [workers]

    def test_no_worker_thread_outlives_the_command(self, runner, tmp_path):
        before = set(threading.enumerate())
        wavs = [str(write_tone_wav(tmp_path / f"w{i}.wav", duration=0.2)) for i in range(5)]
        wavs.insert(2, str(tmp_path / "missing.wav"))
        result = runner.invoke(cli, ["extract", *wavs, "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("where", ["job", "main"])
    def test_interrupt_cancels_the_queued_jobs(self, runner, tmp_path, monkeypatch, where):
        # A traceback in a job, or Ctrl-C while this thread writes, ends the
        # run with exit 1, and the jobs still queued are never tracked. w1
        # waits until the pool is shut down, so only the cancellation can keep
        # w2..w5 from running.
        track = cli_module.extract_f0
        released = threading.Event()
        tracked = []

        def tracking(audio, cfg, recording_id):
            tracked.append(recording_id)
            if recording_id == "w0" and where == "job":
                raise RuntimeError("tracker bug")
            if recording_id != "w0":
                released.wait(timeout=10)
            return track(audio, cfg, recording_id=recording_id)

        def interrupted(path, data):
            raise KeyboardInterrupt

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                super().shutdown(wait=False, cancel_futures=cancel_futures)
                released.set()
                super().shutdown(wait=wait)

        monkeypatch.setattr(cli_module, "extract_f0", tracking)
        monkeypatch.setattr(cli_module, "_atomic_write", interrupted)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        before = set(threading.enumerate())
        wavs = [str(write_tone_wav(tmp_path / f"w{i}.wav", duration=0.2)) for i in range(6)]
        result = runner.invoke(cli, ["extract", *wavs, "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        if where == "job":
            assert isinstance(result.exception, RuntimeError)
        else:
            assert "Aborted!" in result.stderr
        assert tracked in (["w0"], ["w0", "w1"])
        assert set(threading.enumerate()) <= before

    def test_config_pitch_with_one_flag_override(self, runner, tmp_path):
        wav = write_tone_wav(tmp_path / "a.wav")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"pitch": {"frame_hop": 0.02, "f_min": 100.0}}))
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["extract", str(wav), "--config", str(config), "--frame-hop", "0.005", "--out", str(out)]
        )
        assert (result.exit_code, result.stdout, result.stderr) == (0, f"{wav} -> {out / 'a.csv'}\n", "")
        expected = extract_f0(read_wav(wav), PitchConfig(frame_hop=0.005, f_min=100.0), recording_id="a")
        assert (out / "a.csv").read_bytes() == format_f0_csv(expected)

    def test_one_frame_wav_fails_alone(self, runner, tmp_path):
        # 400 samples at 16 kHz are exactly one 25 ms frame; the CSV writer
        # refuses it, since a one-row CSV would give read_f0_csv no frame hop.
        short = write_tone_wav(tmp_path / "short.wav", duration=0.025)
        good = write_tone_wav(tmp_path / "good.wav")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["extract", str(short), str(good), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {short}: a contour CSV needs 2 frames to give its frame hop, got 1\n"
        assert result.stdout == f"{good} -> {out / 'good.csv'}\n"
        assert [p.name for p in out.iterdir()] == ["good.csv"]


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

    def test_sidecar_bytes(self, runner, tmp_path):
        # The seed is written once, as spec.seed.
        src = write_fixture_csv(tmp_path / "fix.csv")
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["modify", str(src), "--kind", "random-walk-weak", "--seed", "5", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        assert (out / "sidecar.json").read_text() == (
            "{\n"
            '  "tool": "f0priv",\n'
            f'  "tool_version": "{__version__}",\n'
            '  "spec": {\n'
            '    "kind": "random-walk-weak",\n'
            '    "seed": 5,\n'
            '    "target_mean_hz": null,\n'
            '    "target_std_hz": null\n'
            "  },\n"
            '  "inputs": [\n'
            '    "fix.csv"\n'
            "  ]\n"
            "}\n"
        )

    def test_modulated_different_is_refused(self, runner, tmp_path):
        # A single contour has no corpus side, so modify refuses the kind
        # before it reads or writes anything.
        src = write_fixture_csv(tmp_path / "fix.csv")
        out = tmp_path / "o"
        result = runner.invoke(cli, ["modify", str(src), "--kind", "modulated-different", "--out", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == usage_error("modify", NO_SIDE)
        assert not out.exists()

    def test_role_is_an_unknown_modifier_key(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"modifier": {"kind": "modulated-same-2", "role": "trial"}}))
        result = runner.invoke(cli, ["modify", str(src), "--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2
        assert result.stderr == usage_error("modify", f"config {config}: unknown modifier keys ['role']")

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

    def test_refuses_overwriting_input(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        result = runner.invoke(
            cli, ["modify", str(src), "--kind", "voiced-flat", "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert "refusing" in result.output

    def test_refuses_output_that_links_to_input(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        before = src.read_bytes()
        out = tmp_path / "out"
        out.mkdir()
        (out / "fix.csv").symlink_to(src)
        result = runner.invoke(cli, ["modify", str(src), "--kind", "voiced-flat", "--out", str(out)])
        assert result.exit_code == 2
        assert f"refusing to overwrite input {src}" in result.output
        assert src.read_bytes() == before
        assert (out / "fix.csv").is_symlink()

    def test_refuses_missing_input_under_its_output_path(self, runner, tmp_path):
        out = tmp_path / "out"
        missing = out / "gone.csv"
        result = runner.invoke(
            cli, ["modify", str(missing), "--kind", "voiced-flat", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert f"refusing to overwrite input {missing}" in result.output
        assert not missing.exists()

    def test_output_over_another_inputs_link_refused(self, runner, tmp_path):
        # link.csv reads o/a.csv, which writing x/a.csv's output would replace first.
        (tmp_path / "x").mkdir()
        out = tmp_path / "o"
        out.mkdir()
        src = write_fixture_csv(tmp_path / "x" / "a.csv")
        old = write_fixture_csv(out / "a.csv", values=(200.0, 210.0, 220.0))
        link = tmp_path / "link.csv"
        link.symlink_to(old)
        before = {path: path.read_bytes() for path in (src, old)}
        result = runner.invoke(
            cli, ["modify", str(src), str(link), "--kind", "voiced-flat", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {src} -> {old} would overwrite the input {link}\n"
        assert {path: path.read_bytes() for path in before} == before
        assert [p.name for p in out.iterdir()] == ["a.csv"]

    def test_no_kind_is_exit_2(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["modify", str(src), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == usage_error("modify", "no modifier kind given (use --kind or a config file)")
        assert not out.exists()

    def test_config_file_with_flag_override(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"modifier": {"kind": "all-flat", "seed": 7}}))
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

    def test_same_name_inputs_refused(self, runner, tmp_path):
        for folder in ("d1", "d2"):
            (tmp_path / folder).mkdir()
            write_fixture_csv(tmp_path / folder / "x.csv")
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["modify", str(tmp_path / "d1" / "x.csv"), str(tmp_path / "d2" / "x.csv"),
                  "--kind", "voiced-flat", "--out", str(out)],
        )
        assert result.exit_code == 2
        assert "error: output x.csv would be written by each of" in result.stderr
        assert not out.exists()

    def test_input_named_like_the_sidecar_refused(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "sidecar.json")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["modify", str(src), "--kind", "voiced-flat", "--out", str(out)])
        assert result.exit_code == 2
        assert "error: output sidecar.json would be written by each of the sidecar" in result.stderr
        assert not out.exists()

    def test_time_offset_exit_2(self, runner, tmp_path):
        src = tmp_path / "late.csv"
        src.write_text("time_s,f0_hz\n1.000000,100.0\n1.010000,110.0\n1.020000,120.0\n")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["modify", str(src), "--kind", "voiced-flat", "--out", str(out)])
        assert result.exit_code == 2
        assert "line 2: time column starts at 1 s, not 0" in result.output
        assert not (out / "late.csv").exists()

    def test_sidecar_that_cannot_be_written_is_exit_2(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        out = tmp_path / "out"
        (out / "sidecar.json").mkdir(parents=True)
        result = runner.invoke(cli, ["modify", str(src), "--kind", "voiced-flat", "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: cannot write {out / 'sidecar.json'}: Is a directory" in result.stderr
        assert sorted(p.name for p in out.iterdir()) == ["fix.csv", "sidecar.json"]

    def test_failed_write_leaves_no_temp_file(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        other = write_fixture_csv(tmp_path / "other.csv")
        out = tmp_path / "out"
        (out / "fix.csv").mkdir(parents=True)
        result = runner.invoke(
            cli, ["modify", str(src), str(other), "--kind", "voiced-flat", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert f"error: {src}: [Errno 21] Is a directory" in result.stderr
        assert sorted(p.name for p in out.iterdir()) == ["fix.csv", "other.csv", "sidecar.json"]

    def test_contour_the_spline_cannot_fit_fails_alone(self, runner, tmp_path):
        huge = write_fixture_csv(tmp_path / "huge.csv", HUGE)
        ok = write_fixture_csv(tmp_path / "ok.csv", contour(120.0))
        out = tmp_path / "out"
        result = runner.invoke(
            cli, ["modify", str(huge), str(ok), "--kind", "smoothing-spline", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.stderr == (f"error: {huge}: invalid trajectory: "
                                 f"voiced value > 128000 Hz at frame 0: 1e+299 (and 7 more)\n")
        assert result.stdout == f"{ok} -> {out / 'ok.csv'}\n"
        assert sorted(p.name for p in out.iterdir()) == ["ok.csv", "sidecar.json"]

    def test_time_axis_beyond_the_bound_never_reaches_the_spline(self, runner, tmp_path):
        huge = tmp_path / "huge.csv"
        huge.write_text("time_s,f0_hz\n" + "".join(f"{i * 1e200:.6f},100.0\n" for i in range(4)))
        far = tmp_path / "far.csv"
        far.write_text(f"time_s,f0_hz\n0.000000,100.0\n{1.7e308:.6f},100.0\n")
        with np.errstate(all="raise"):
            result = runner.invoke(
                cli, ["modify", str(huge), str(far), "--kind", "smoothing-spline", "--out", str(tmp_path / "o")]
            )
        assert result.exit_code == 2
        assert result.stderr == (
            f"error: {huge}: invalid trajectory: last frame must lie before 2147483648 s, got 3e+200 s\n"
            f"error: {far}: invalid trajectory: last frame must lie before 2147483648 s, got 1.7e+308 s\n"
        )


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

    def test_invalid_values_exit_2_with_valid_json(self, runner, tmp_path):
        good = write_fixture_csv(tmp_path / "good.csv")
        bad = tmp_path / "bad.csv"
        bad.write_text("time_s,f0_hz\n0.000000,inf\n0.010000,nan\n0.020000,5\n0.030000,100\n")
        result = runner.invoke(cli, ["stats", str(good), str(bad)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {bad}: invalid trajectory: non-finite at frame 0 (and 2 more)\n"
        data = json.loads(result.stdout)
        assert [r["recording_id"] for r in data] == ["good"]

    def test_empty_file_has_no_header(self, runner, tmp_path):
        good = write_fixture_csv(tmp_path / "good.csv")
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        result = runner.invoke(cli, ["stats", str(empty), str(good)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {empty}: line 1: missing header\n"
        assert [r["recording_id"] for r in json.loads(result.stdout)] == ["good"]

    def test_earliest_bad_frame_is_named_first(self, runner, tmp_path):
        mixed = tmp_path / "mixed.csv"
        mixed.write_text("time_s,f0_hz\n0.000000,-5\n0.010000,100\n0.020000,nan\n")
        result = runner.invoke(cli, ["stats", str(mixed)])
        assert result.exit_code == 2
        assert result.stderr == f"error: {mixed}: invalid trajectory: negative value -5 at frame 0 (and 1 more)\n"

    def test_overflowing_values_exit_2_with_valid_json(self, runner, tmp_path):
        good = write_fixture_csv(tmp_path / "good.csv")
        huge = tmp_path / "huge.csv"
        huge.write_text("time_s,f0_hz\n0.000000,1e308\n0.010000,1e308\n0.020000,1e308\n")
        result = runner.invoke(cli, ["stats", str(good), str(huge)])
        assert result.exit_code == 2
        assert result.stderr == (f"error: {huge}: invalid trajectory: "
                                 f"voiced value > 128000 Hz at frame 0: 1e+308 (and 2 more)\n")
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


def write_manifest(tmp_path, recordings):
    """A manifest of (speaker, split, values) CSVs, recording ids r0, r1, ..."""
    entries = []
    for i, (speaker, split, values) in enumerate(recordings):
        path = write_fixture_csv(tmp_path / f"r{i}.csv", values)
        entries.append({"speaker_id": speaker, "recording_id": f"r{i}", "split": split,
                        "path": path.name})
    manifest = tmp_path / "corpus.json"
    manifest.write_text(json.dumps({"entries": entries}))
    return manifest


def contour(base, n=60):
    return tuple(base + 10.0 * np.sin(np.arange(n) / 4.0))


TWO_VOICED = (0.0, 120.0, 0.0, 130.0, 0.0, 0.0)
# A contour no smoothing-spline penalty in range can fit, far above the valid range.
HUGE = tuple(np.geomspace(1e299, 5e300, 8))


def vibrato_wav(path, center_hz, sr=16000, duration=0.6):
    t = np.arange(int(sr * duration)) / sr
    phase = 2 * np.pi * (center_hz * t - 12.0 / (2 * np.pi * 3.0) * np.cos(2 * np.pi * 3.0 * t))
    path.write_bytes(wav_bytes((0.45 * np.sin(phase) * 32767).astype(np.int16), sample_rate=sr))
    return path


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
        # The scenario runner modifies each corpus side with that side's kind.
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

    def test_corpus_violations_are_one_line(self, runner, tmp_path):
        manifest = write_manifest(tmp_path, [("a", "trial", contour(120.0)), ("b", "enrollment", contour(130.0))])
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error: corpus invariant violations: speaker 'a' has no enrollment recording; "
                                 "speaker 'b' has no trial recording\n")

    def test_bad_pitch_config_is_exit_2_without_wav_entries(self, runner, tmp_path):
        manifest = build_eval_manifest(tmp_path)
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"pitch": {"f_min": 300.0, "f_max": 200.0}}))
        result = runner.invoke(
            cli, ["eval", "--manifest", str(manifest), "--scenario", "OO", "--config", str(config)]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == usage_error("eval", BAD_RANGE)

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

    @pytest.mark.parametrize(
        "field, value", [("recording_id", ["r"]), ("path", 5), ("speaker_id", 3), ("split", None)]
    )
    def test_manifest_field_not_a_string(self, runner, tmp_path, field, value):
        manifest = build_eval_manifest(tmp_path)
        data = json.loads(manifest.read_text())
        data["entries"][0][field] = value
        manifest.write_text(json.dumps(data))
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: manifest {manifest}: entry 0: {field} must be a string, got {value!r}" in result.stderr

    def test_manifest_entries_not_a_list(self, runner, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text(json.dumps({"entries": 5}))
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 2
        assert "expected an object with an 'entries' list" in result.output

    @pytest.mark.parametrize("args", [["--scenario", "OO"], ["--scenario", "AA", "--kind", "voiced-flat"]],
                             ids=["OO", "AA"])
    def test_every_recording_with_absent_statistics_is_one_line(self, runner, tmp_path, args):
        # r3 (s1's trial) and r4 (s2's enrollment) hold 2 voiced frames, also voiced-flat.
        recordings = [(f"s{i // 2}", ("enrollment", "trial")[i % 2],
                       TWO_VOICED if i in (3, 4) else contour(120.0 + 30.0 * (i // 2))) for i in range(6)]
        manifest = write_manifest(tmp_path, recordings)
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), *args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "".join(
            f"error: recording '{rid}': absent statistics (fewer than 3 voiced frames)\n" for rid in ("r4", "r3"))

    @pytest.mark.parametrize("a_trial, speakers, args, error", [
        (TWO_VOICED, "ab", ["--scenario", "OO"], "recording 'r1': absent statistics (fewer than 3 voiced frames)"),
        (TWO_VOICED, "ab", ["--scenario", "AA", "--kind", "smoothing-spline"],
         "smoothing spline needs >= 4 voiced frames, got 2"),
        (contour(125.0), "a", ["--scenario", "OO"], "need at least 2 enrolled speakers for nontarget pairs"),
    ])
    def test_scoring_error_is_exit_2(self, runner, tmp_path, a_trial, speakers, args, error):
        recordings = [("a", "enrollment", contour(120.0)), ("a", "trial", a_trial)]
        if "b" in speakers:
            recordings += [("b", "enrollment", contour(180.0)), ("b", "trial", contour(180.0))]
        manifest = write_manifest(tmp_path, recordings)
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), *args])
        if "--kind" in args:  # a modification that fails names its recording
            error = f"recording 'r1': {error}"
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"error: {error}\n"

    @pytest.mark.parametrize("scenario", ["AA", "OA"])
    def test_contour_the_spline_cannot_fit_is_exit_2(self, runner, tmp_path, scenario):
        recordings = [("a", "enrollment", contour(120.0)), ("a", "trial", HUGE),
                      ("b", "enrollment", contour(180.0)), ("b", "trial", contour(180.0))]
        manifest = write_manifest(tmp_path, recordings)
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", scenario,
                                     "--kind", "smoothing-spline"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (f"error: {tmp_path / 'r1.csv'}: invalid trajectory: "
                                 "voiced value > 128000 Hz at frame 0: 1e+299 (and 7 more)\n")

    def test_modification_that_leaves_the_valid_range_is_exit_2(self, runner, tmp_path):
        # The contour modify rejects; eval scores no modified contour modify would not write.
        recordings = [("a", "enrollment", contour(120.0)), ("a", "trial", UPPER_EDGE),
                      ("b", "enrollment", contour(180.0)), ("b", "trial", contour(180.0))]
        manifest = write_manifest(tmp_path, recordings)
        out = tmp_path / "report.json"
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OA",
                                     "--kind", "modulated-same-1", "--out", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("error: recording 'r1': output failed validation: "
                                 "voiced value > 128000 Hz at frame 0: 133750 (and 10 more)\n")
        assert not out.exists()

    def test_every_failing_recording_is_one_line(self, runner, tmp_path):
        # Failures on both sides, trial side first: one line per recording, no report.
        recordings = [("a", "enrollment", UPPER_EDGE), ("a", "trial", UPPER_EDGE),
                      ("b", "enrollment", contour(180.0)), ("b", "trial", UPPER_EDGE),
                      ("c", "enrollment", UPPER_EDGE), ("c", "trial", contour(150.0))]
        manifest = write_manifest(tmp_path, recordings)
        out = tmp_path / "report.json"
        problem = "output failed validation: voiced value > 128000 Hz at frame 0: 133750 (and 10 more)"
        for scenario, failing in (("OA", ("r1", "r3")), ("AA", ("r1", "r3", "r0", "r4"))):
            result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", scenario,
                                         "--kind", "modulated-same-1", "--out", str(out)])
            assert result.exit_code == 2
            assert result.stdout == ""
            assert result.stderr == "".join(f"error: recording '{rid}': {problem}\n" for rid in failing)
            assert not out.exists()

    @pytest.mark.parametrize("values, problem", [
        ((120.0, float("nan"), 125.0, 130.0), "non-finite at frame 1"),
        ((120.0, -3.0, 125.0, 130.0), "negative value -3 at frame 1"),
    ])
    def test_invalid_entry_is_one_line_and_no_report(self, runner, tmp_path, values, problem):
        recordings = [("a", "enrollment", contour(120.0)), ("a", "trial", values),
                      ("b", "enrollment", contour(180.0)), ("b", "trial", contour(180.0))]
        manifest = write_manifest(tmp_path, recordings)
        for scenario in (["OO"], ["OA", "--kind", "voiced-flat"]):
            result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", *scenario])
            assert result.exit_code == 2
            assert result.stdout == ""
            assert result.stderr == f"error: {tmp_path / 'r1.csv'}: invalid trajectory: {problem}\n"

    def test_entry_that_fails_to_load_is_exit_2(self, runner, tmp_path):
        manifest = build_eval_manifest(tmp_path)
        bad = tmp_path / "s1r0.csv"
        bad.write_text("time,f0\n0.0,100.0\n")
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {bad}: line 1: expected header 'time_s,f0_hz', got 'time,f0'\n"
        )

    def test_wav_entries_are_tracked_with_the_config_pitch(self, runner, tmp_path):
        pitch = PitchConfig(f_min=80.0, voicing_threshold=0.5)
        entries, recordings = [], []
        for i, (speaker, split, hz) in enumerate(
            [("a", "enrollment", 120.0), ("a", "trial", 124.0),
             ("b", "enrollment", 190.0), ("b", "trial", 186.0),
             ("c", "enrollment", 150.0), ("c", "trial", 153.0)]
        ):
            wav = vibrato_wav(tmp_path / f"r{i}.wav", hz)
            entries.append({"speaker_id": speaker, "recording_id": f"r{i}", "split": split,
                            "path": wav.name})
            traj = extract_f0(read_wav(wav), pitch, recording_id=f"r{i}")
            recordings.append(Recording(speaker, f"r{i}", split, traj))
        manifest = tmp_path / "wavs.json"
        manifest.write_text(json.dumps({"entries": entries}))
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"pitch": {"f_min": 80.0, "voicing_threshold": 0.5}}))
        result = runner.invoke(
            cli, ["eval", "--manifest", str(manifest), "--scenario", "OO", "--config", str(config)]
        )
        assert result.exit_code == 0, result.output
        assert result.stderr == ""
        expected = run_scenario(SpeakerCorpus(tuple(recordings)), None, "OO")
        assert result.stdout == expected.to_json() + "\n"
        assert expected.n_target == 3

    def test_manifest_invalid_json(self, runner, tmp_path):
        manifest = tmp_path / "bad.json"
        manifest.write_text("{entries: []}")
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 2
        assert result.stderr == usage_error(
            "eval", f"manifest {manifest}: invalid JSON "
            "(Expecting property name enclosed in double quotes: line 1 column 2 (char 1))"
        )

    def test_manifest_entry_with_wrong_keys(self, runner, tmp_path):
        manifest = build_eval_manifest(tmp_path)
        data = json.loads(manifest.read_text())
        data["entries"][2]["file"] = data["entries"][2].pop("path")
        manifest.write_text(json.dumps(data))
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: manifest {manifest}: entry 2: must have exactly the keys "
            "['path', 'recording_id', 'speaker_id', 'split']\n"
        )

    def test_manifest_bad_split_and_duplicate_id_both_listed(self, runner, tmp_path):
        manifest = build_eval_manifest(tmp_path)
        data = json.loads(manifest.read_text())
        data["entries"][3].update(split="dev", recording_id=data["entries"][0]["recording_id"])
        manifest.write_text(json.dumps(data))
        result = runner.invoke(cli, ["eval", "--manifest", str(manifest), "--scenario", "OO"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"error: manifest {manifest}: entry 3: bad split 'dev'\n"
            f"error: manifest {manifest}: entry 3: duplicate recording_id 's0r0'\n"
        )


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

    def test_invalid_contours_are_one_line_each_and_no_plot(self, runner, tmp_path):
        good = write_fixture_csv(tmp_path / "good.csv")
        bad = {write_fixture_csv(tmp_path / "inf.csv", (100.0, np.inf, 110.0)): "non-finite at frame 1",
               write_fixture_csv(tmp_path / "huge.csv", (100.0, 1.7e308, 110.0)):
                   "voiced value > 128000 Hz at frame 1: 1.7e+308",
               write_fixture_csv(tmp_path / "low.csv", (-5.0, 20.0, 110.0)):
                   "negative value -5 at frame 0 (and 1 more)"}
        out = tmp_path / "plot.svg"
        result = runner.invoke(cli, ["plot", str(good), *map(str, bad), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [f"error: {path}: invalid trajectory: {problem}"
                                              for path, problem in bad.items()]
        assert not out.exists()


BAD_CSV = "time,f0\n0.0,100.0\n"  # the header is wrong


class TestFailedInputs:
    """One missing and one malformed input among good ones, in each command."""

    @pytest.mark.parametrize("command", ["extract", "modify", "stats", "eval", "plot"])
    def test_each_failed_input_is_one_line_and_exit_2(self, runner, tmp_path, command):
        out = tmp_path / "out"
        if command == "eval":
            manifest = build_eval_manifest(tmp_path)
            missing, bad = tmp_path / "s1r0.csv", tmp_path / "s2r1.csv"
            missing.unlink()
            bad.write_text(BAD_CSV)
            args = ["--manifest", str(manifest), "--scenario", "OO", "--out", str(out)]
        else:
            suffix = ".wav" if command == "extract" else ".csv"
            good = tmp_path / f"good{suffix}"
            missing, bad = tmp_path / f"missing{suffix}", tmp_path / f"bad{suffix}"
            if command == "extract":
                write_tone_wav(good)
                bad.write_bytes(b"RIFX not a wave file")
            else:
                write_fixture_csv(good)
                bad.write_text(BAD_CSV)
            args = [str(missing), str(good), str(bad), "--out", str(out)]
            args += ["--kind", "voiced-flat"] if command == "modify" else []
        result = runner.invoke(cli, [command, *args])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        malformed = ("not a RIFF/WAVE file" if command == "extract"
                     else "line 1: expected header 'time_s,f0_hz', got 'time,f0'")
        assert result.stderr.splitlines() == [f"error: {missing}: path does not exist",
                                              f"error: {bad}: {malformed}"]
        # extract, modify and stats keep the good input; eval and plot write nothing.
        if command in ("extract", "modify"):
            assert result.stdout == f"{good} -> {out / good.with_suffix('.csv').name}\n"
            kept = ["good.csv", "sidecar.json"] if command == "modify" else ["good.csv"]
            assert sorted(p.name for p in out.iterdir()) == kept
        elif command == "stats":
            assert result.stdout == ""
            assert [r["recording_id"] for r in json.loads(out.read_text())] == ["good"]
        else:
            assert result.stdout == ""
            assert not out.exists()

    @pytest.mark.parametrize("command", ["extract", "modify", "stats", "eval", "plot"])
    def test_directory_input_names_the_path_once(self, runner, tmp_path, command):
        if command == "eval":
            args = ["--manifest", str(build_eval_manifest(tmp_path)), "--scenario", "OO"]
            folder = tmp_path / "s1r0.csv"
            folder.unlink()
        else:
            folder = tmp_path / ("x.wav" if command == "extract" else "x.csv")
            args = [str(folder), "--out", str(tmp_path / "out")]
            args += ["--kind", "voiced-flat"] if command == "modify" else []
        folder.mkdir()
        result = runner.invoke(cli, [command, *args])
        assert result.exit_code == 2
        assert result.stderr == f"error: {folder}: Is a directory\n"

    @pytest.mark.parametrize("command, message", [
        ("modify", "output failed validation: voiced value > 128000 Hz at frame 1: 256000 (and 149 more)"),
        ("stats", "invalid trajectory: non-finite at frame 1 (and 149 more)"),
    ])
    def test_validation_error_does_not_grow_with_the_frames(self, runner, tmp_path, command, message):
        src = tmp_path / "long.csv"
        if command == "modify":  # a valid input whose output leaves the valid range
            write_fixture_csv(src, (40.0, 1000.0) * 150)
            args = ["--kind", "shift-and-scale", "--target-mean", "128000", "--target-std", "128000",
                    "--out", str(tmp_path / "o")]
        else:
            src.write_text("time_s,f0_hz\n" + "".join(
                f"{i / 100:.6f},{'inf' if i % 2 else '40'}\n" for i in range(300)))
            args = []
        result = runner.invoke(cli, [command, str(src), *args])
        assert result.exit_code == 2
        assert result.stderr == f"error: {src}: {message}\n"


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
            # Lines marked "unknown key": the kind fixes the carriers and the
            # walk strength, and the seed belongs to the modifier.
            ("modify", {"modifier": {"kind": "random-walk-weak", "seed": 1, "strength": 2}}),  # unknown key
            ("extract", {"pitch": {"f_min": "x"}}),
            ("modify", {"modifier": ["voiced-flat"]}),
            ("extract", {"pitch": None}),
            ("modify", {"modifier": {"kind": "modulated-same-1", "f1_hz": 4, "f2_hz": 9}}),  # unknown key
            ("modify", {"modifier": {"kind": "random-walk-weak"}, "seed": 1}),  # unknown key
            ("extract", {"pitch": {"frame_len": float("inf")}}),
            # Valid JSON numbers that no float holds.
            ("extract", {"pitch": {"frame_len": 10**400}}),
            ("modify", {"modifier": {"kind": "shift-and-scale", "target_mean_hz": 10**400,
                                     "target_std_hz": 20.0}}),
            ("modify", {"modifier": {"kind": "shift-and-scale", "target_mean_hz": 150.0,
                                     "target_std_hz": 10**400}}),
            ("modify", {"modifier": {"kind": "random-walk-strong", "seed": 1, "strength": 2}}),  # unknown key
            ("modify", {"modifier": {"kind": "modulated-same-2", "f1_hz": 3.0, "f2_hz": 7.0}}),  # unknown key
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

    @pytest.mark.parametrize("command, config, unknown", [
        ("eval", {"output_dir": "reports", "input_dir": "nowhere"}, ["input_dir", "output_dir"]),
        ("modify", {"modifier": {"kind": "voiced-flat"}, "pitch": {"f_min": 1e-3}}, ["pitch"]),
        ("extract", {"modifier": {"kind": "voiced-flat"}}, ["modifier"]),
        # No command reads a path from the config: inputs are named as
        # arguments and the output directory by --out.
        ("extract", {"input_dir": "sub"}, ["input_dir"]),
        ("modify", {"modifier": {"kind": "voiced-flat"}, "output_dir": "o"}, ["output_dir"]),
    ])
    def test_config_key_the_command_does_not_read_is_exit_2(self, runner, tmp_path, command, config, unknown):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        if command == "eval":
            args = ["--manifest", str(build_eval_manifest(tmp_path)), "--scenario", "OO"]
        elif command == "modify":
            args = [str(write_fixture_csv(tmp_path / "fix.csv"))]
        else:
            args = [str(write_tone_wav(tmp_path / "tone.wav"))]
        result = runner.invoke(cli, [command, *args, "--config", str(path), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == usage_error(command, f"config {path}: unknown keys {unknown}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["modify", "eval"])
    def test_carrier_flag_is_exit_2(self, runner, tmp_path, command):
        src = str(write_fixture_csv(tmp_path / "fix.csv"))
        args = [src, "--kind", "modulated-same-1"] if command == "modify" else ["--scenario", "OO"]
        result = runner.invoke(cli, [command, *args, "--f1", "4"])
        assert result.exit_code == 2
        assert "No such option '--f1'" in result.stderr

    def test_option_names(self):
        # Every flag is a contract; adding or dropping one is a deliberate edit here.
        options = {
            name: sorted(opt for p in command.params if isinstance(p, click.Option) for opt in p.opts)
            for name, command in cli.commands.items()
        }
        assert options == {
            "extract": ["--config", "--f-max", "--f-min", "--frame-hop", "--frame-len", "--out",
                        "--voicing-threshold"],
            "modify": ["--config", "--kind", "--out", "--seed", "--target-mean", "--target-std"],
            "stats": ["--out"],
            "eval": ["--config", "--kind", "--manifest", "--out", "--scenario", "--seed",
                     "--target-mean", "--target-std"],
            "plot": ["--out"],
        }
        envvars = {
            p.envvar for command in cli.commands.values() for p in command.params if p.envvar
        }
        assert envvars == set()

    @pytest.mark.parametrize("command", ["extract", "modify"])
    def test_output_dir_not_creatable_is_exit_2(self, runner, tmp_path, command):
        if command == "extract":
            args = [command, str(write_tone_wav(tmp_path / "tone.wav"))]
        else:
            args = [command, str(write_fixture_csv(tmp_path / "fix.csv")), "--kind", "voiced-flat"]
        afile = write_fixture_csv(tmp_path / "afile")
        result = runner.invoke(cli, [*args, "--out", str(afile / "sub")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "error: cannot create output directory" in result.stderr

    @pytest.mark.parametrize("command", ["stats", "eval", "plot"])
    def test_out_file_in_missing_directory_is_exit_2(self, runner, tmp_path, command):
        if command == "eval":
            args = ["eval", "--manifest", str(build_eval_manifest(tmp_path)), "--scenario", "OO"]
        else:
            args = [command, str(write_fixture_csv(tmp_path / "fix.csv"))]
        out = tmp_path / "nodir" / "result"
        result = runner.invoke(cli, [*args, "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert f"error: cannot write {out}: No such file or directory" in result.stderr
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "command, overwritten",
        [("stats", "input"), ("plot", "input"), ("eval", "manifest"), ("eval", "entry"),
         ("eval", "config")],
    )
    def test_out_over_an_input_is_exit_2(self, runner, tmp_path, command, overwritten):
        if command == "eval":
            manifest = build_eval_manifest(tmp_path)
            config = tmp_path / "run.json"
            config.write_text("{}")
            target = {"manifest": manifest, "entry": tmp_path / "s0r1.csv", "config": config}[overwritten]
            args = ["eval", "--manifest", str(manifest), "--scenario", "OO", "--config", str(config)]
        else:
            target = write_fixture_csv(tmp_path / "fix.csv")
            other = write_fixture_csv(tmp_path / "other.csv")
            args = [command, str(other), str(target)]
        before = target.read_bytes()
        result = runner.invoke(cli, [*args, "--out", str(target)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: refusing to overwrite input {target}\n"
        assert result.stdout == ""
        assert target.read_bytes() == before

    def test_out_over_an_input_named_twice_is_reported_once(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        before = src.read_bytes()
        result = runner.invoke(cli, ["stats", str(src), str(src), "--out", str(src)])
        assert result.exit_code == 2
        assert result.stderr == f"error: refusing to overwrite input {src}\n"
        assert src.read_bytes() == before

    @pytest.mark.parametrize("command", ["stats", "plot"])
    def test_looping_input_with_out_is_reported(self, runner, tmp_path, command):
        # The out-over-input check cannot resolve a symlink loop; reading it
        # reports the fault instead.
        loop = tmp_path / "loop.csv"
        loop.symlink_to(loop)
        out = tmp_path / "result"
        result = runner.invoke(cli, [command, str(loop), "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith(f"error: {loop}: ")
        assert loop.is_symlink()

    @pytest.mark.parametrize("command", ["extract", "modify"])
    def test_config_at_an_output_path_is_exit_2(self, runner, tmp_path, command):
        out = tmp_path / "o"
        out.mkdir()
        if command == "extract":
            args = ["extract", str(write_tone_wav(tmp_path / "a.wav"))]
        else:
            args = ["modify", str(write_fixture_csv(tmp_path / "a.csv")), "--kind", "voiced-flat"]
        config = out / "a.csv"
        config.write_text("{}")
        result = runner.invoke(cli, [*args, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {args[1]} -> {config} would overwrite the input {config}\n"
        assert config.read_text() == "{}"
        assert [p.name for p in out.iterdir()] == ["a.csv"]

    @pytest.mark.parametrize("command, fault", [
        *(("extract", fault) for fault in ("shared", "other", "own", "id")),
        *(("modify", fault) for fault in ("shared", "other", "own")),
    ])
    def test_plan_fault_refuses_the_run(self, runner, tmp_path, monkeypatch, command, fault):
        # Each fault the write plan can see is one error line and exit 2,
        # before any input is read and before the output directory is made.
        def make(path, freq=150.0):
            path.parent.mkdir(exist_ok=True)
            return write_tone_wav(path, freq) if command == "extract" else write_fixture_csv(path)

        def files():
            return {path: os.readlink(path) if path.is_symlink() else path.read_bytes() if path.is_file() else None
                    for path in tmp_path.rglob("*")}

        ext = ".wav" if command == "extract" else ".csv"
        out = tmp_path / "out"
        if fault == "shared":  # both inputs would be written to out/x.csv
            inputs = [make(tmp_path / "d1" / f"x{ext}"), make(tmp_path / "d2" / f"x{ext}", 220.0)]
            error = f"output x.csv would be written by each of {inputs[0]}, {inputs[1]}"
        elif fault == "other":  # out/a.csv is a link to the input b
            inputs = [make(tmp_path / "in" / f"a{ext}"), make(tmp_path / "in" / f"b{ext}", 220.0)]
            out.mkdir()
            (out / "a.csv").symlink_to(inputs[1])
            error = f"{inputs[0]} -> {out / 'a.csv'} would overwrite the input {inputs[1]}"
        elif fault == "own":  # out/a.csv is itself an input
            inputs = [make(out / "a.csv"), make(tmp_path / "in" / f"good{ext}", 220.0)]
            error = f"refusing to overwrite input {inputs[0]}"
        else:  # a recording id that is not a plain file name
            wavs = [make(tmp_path / "a.wav"), make(tmp_path / "good.wav", 220.0)]
            entries = [{"speaker_id": "s", "recording_id": rid, "split": "trial", "path": wav.name}
                       for rid, wav in zip(("../x", "good"), wavs)]
            manifest = tmp_path / "m.json"
            manifest.write_text(json.dumps({"entries": entries}))
            inputs = [manifest]
            error = f"{wavs[0]}: recording id '../x' is not a plain file name"
        before = files()
        reads = []
        for name in ("read_wav", "read_f0_csv"):
            monkeypatch.setattr(cli_module, name, lambda path, *args, **kwargs: reads.append(path))
        kind = ["--kind", "voiced-flat"] if command == "modify" else []
        result = runner.invoke(cli, [command, *map(str, inputs), *kind, "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: {error}\n"
        assert result.stdout == ""
        assert reads == []
        assert files() == before  # no output directory, no file written or changed

    @pytest.mark.parametrize("command", ["stats", "modify"])
    def test_input_named_like_a_staging_file_survives(self, runner, tmp_path, command):
        # Outputs are staged under fresh random names, so an input named
        # .tmp-<an output's name> is an input like any other.
        out = tmp_path / "o"
        out.mkdir()
        staged = write_fixture_csv(out / ".tmp-a.csv")
        before = staged.read_bytes()
        if command == "stats":
            result = runner.invoke(cli, ["stats", str(staged), "--out", str(out / "a.csv")])
            assert (result.exit_code, result.stderr) == (0, "")
            written = [".tmp-a.csv", "a.csv"]
        else:
            src = write_fixture_csv(tmp_path / "a.csv")
            result = runner.invoke(
                cli, ["modify", str(src), str(staged), "--kind", "voiced-flat", "--out", str(out)]
            )
            assert result.exit_code == 2
            assert result.stderr == f"error: refusing to overwrite input {staged}\n"
            assert result.stdout == ""
            written = [".tmp-a.csv"]
        assert staged.read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == written

    def test_outputs_x_and_tmp_x_are_both_written(self, runner, tmp_path):
        src = tmp_path / "in"
        src.mkdir()
        inputs = [write_fixture_csv(src / "x.csv"), write_fixture_csv(src / ".tmp-x.csv", (0.0, 90.0, 95.0))]
        out = tmp_path / "o"
        result = runner.invoke(cli, ["modify", *map(str, inputs), "--kind", "voiced-flat", "--out", str(out)])
        assert (result.exit_code, result.stderr) == (0, "")
        for path in inputs:
            expected = apply(ModifierSpec("voiced-flat"), read_f0_csv(path))
            assert (out / path.name).read_bytes() == format_f0_csv(expected)
        assert sorted(p.name for p in out.iterdir()) == [".tmp-x.csv", "sidecar.json", "x.csv"]

    def test_hard_link_to_an_input_beside_the_output_keeps_the_input(self, runner, tmp_path):
        # The staging file never opens an existing name, so no write goes
        # through a link that shares an input's bytes.
        (tmp_path / "in").mkdir()
        src = write_fixture_csv(tmp_path / "in" / "a.csv")
        before = src.read_bytes()
        out = tmp_path / "o"
        out.mkdir()
        os.link(src, out / ".tmp-r.json")
        result = runner.invoke(cli, ["stats", str(src), "--out", str(out / "r.json")])
        assert (result.exit_code, result.stderr) == (0, "")
        assert src.read_bytes() == before
        assert [report["recording_id"] for report in json.loads((out / "r.json").read_text())] == ["a"]

    @pytest.mark.parametrize("taken_by", ["file", "symlink"])
    def test_staging_name_taken_fails_the_write(self, runner, tmp_path, monkeypatch, taken_by):
        src = write_fixture_csv(tmp_path / "a.csv")
        before = src.read_bytes()
        out = tmp_path / "o"
        out.mkdir()
        taken = out / f".tmp-{'00' * 8}"
        if taken_by == "file":
            taken.write_bytes(b"someone else's\n")
        else:
            taken.symlink_to(src)
        kept = taken.read_bytes()
        monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
        result = runner.invoke(cli, ["stats", str(src), "--out", str(out / "r.json")])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert result.stderr == f"error: cannot write {out / 'r.json'}: File exists\n"
        assert taken.read_bytes() == kept
        assert taken.is_symlink() == (taken_by == "symlink")
        assert src.read_bytes() == before
        assert [p.name for p in out.iterdir()] == [taken.name]

    @pytest.mark.parametrize("command", ["extract", "modify", "stats", "eval", "plot"])
    def test_fresh_run_resolves_no_path(self, runner, tmp_path, monkeypatch, command):
        # An output that does not exist yet cannot be an input that does, so
        # checking the writes of a fresh run needs no realpath walk.
        def resolve(path):
            raise AssertionError(f"resolved {path}")

        monkeypatch.setattr(cli_module, "_realpath", resolve)
        config = tmp_path / "run.json"
        config.write_text("{}")
        out = str(tmp_path / "out")
        csv = str(write_fixture_csv(tmp_path / "fix.csv"))
        if command == "extract":
            args = ["extract", str(write_tone_wav(tmp_path / "tone.wav")), "--config", str(config)]
        elif command == "modify":
            args = ["modify", csv, "--kind", "voiced-flat", "--config", str(config)]
        elif command == "eval":
            manifest = str(build_eval_manifest(tmp_path))
            args = ["eval", "--manifest", manifest, "--scenario", "OO", "--config", str(config)]
        else:
            args = [command, csv]
        result = runner.invoke(cli, [*args, "--out", out])
        assert result.exit_code == 0, result.output

    def test_config_integer_too_long_to_read_is_exit_2(self, runner, tmp_path):
        # json.loads raises a plain ValueError, not JSONDecodeError, here.
        config = tmp_path / "run.json"
        config.write_text('{"modifier": {"kind": "voiced-flat", "seed": 1%s}}' % ("0" * 5000))
        src = write_fixture_csv(tmp_path / "fix.csv")
        out = tmp_path / "out"
        result = runner.invoke(cli, ["modify", str(src), "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "invalid JSON" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command, text, error", [
        ("modify", '[{"modifier": {"kind": "voiced-flat"}}]', "expected a JSON object"),
        ("extract", '{"pitch": {"hop": 0.01, "f_min": 80.0}}', "unknown pitch keys ['hop']"),
        ("modify", '{"modifier": {"kind": "voiced-flat", "gain": 2}}', "unknown modifier keys ['gain']"),
        ("eval", '{"modifier": {"gain": 2}}', "unknown modifier keys ['gain']"),
    ])
    def test_config_error_message(self, runner, tmp_path, command, text, error):
        if command == "extract":
            inputs = [str(write_tone_wav(tmp_path / "a.wav"))]
        elif command == "eval":
            # Under OO no spec is built, so only the config check sees the key.
            inputs = ["--manifest", str(build_eval_manifest(tmp_path)), "--scenario", "OO"]
        else:
            inputs = [str(write_fixture_csv(tmp_path / "a.csv"))]
        config = tmp_path / "run.json"
        config.write_text(text)
        out = tmp_path / "out"
        result = runner.invoke(cli, [command, *inputs, "--config", str(config), "--out", str(out)])
        assert result.exit_code == 2
        assert result.stderr == usage_error(command, f"config {config}: {error}")
        assert not out.exists()

    def test_benchmark_trace_wraps_resolve(self):
        # perfbench/trace_boot.py wraps functions by the name their callers
        # look them up by, so a name dropped from src/ silently empties a
        # benchmark layer. Its WRAPS table is read without importing perfbench.
        source = Path(__file__).resolve().parents[1] / "perfbench" / "trace_boot.py"
        wraps = next(node.value for node in ast.parse(source.read_text(encoding="utf-8")).body
                     if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WRAPS")
        names = [(ast.literal_eval(row.elts[0]), ast.literal_eval(row.elts[1])) for row in wraps.elts]
        assert len(names) > 10
        missing = {(module, attr) for module, attr in names
                   if not hasattr(importlib.import_module(module), attr)}
        # Already stale: cli formats with format_f0_csv, which the wraps do not name.
        assert missing <= {("f0priv.cli", "_csv_bytes")}

    def test_all_exports_resolve(self):
        import f0priv

        missing = [name for name in f0priv.__all__ if not hasattr(f0priv, name)]
        assert missing == []

    def test_unknown_kind_is_exit_2(self, runner, tmp_path):
        src = write_fixture_csv(tmp_path / "fix.csv")
        result = runner.invoke(cli, ["modify", str(src), "--kind", "sparkle"])
        assert result.exit_code == 2

    def test_import_loads_no_scipy(self, tmp_path):
        # scipy.linalg and scipy.optimize cost about 300 ms each to import.
        # Importing f0priv loads no scipy; the spline fit and the eval
        # metrics load only the compiled routines they call, not one of
        # scipy's subpackages.
        def scipy_modules_after(args):
            code = (
                f"import sys, f0priv.cli\nf0priv.cli.cli.main({args!r}, standalone_mode=False)\n"
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            )
            out = subprocess.run(
                [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True
            )
            return out.stdout.splitlines()[-1]  # after what the command printed

        def assert_no_subpackage(loaded):
            for package in ("scipy.linalg", "scipy.optimize", "scipy.special"):
                assert f"'{package}'" not in loaded

        assert scipy_modules_after(["--version"]) == "[]"
        csv = write_fixture_csv(tmp_path / "fix.csv", (100.0, 112.0, 104.0, 0.0, 121.0, 109.0, 118.0))
        loaded = scipy_modules_after(["modify", str(csv), "--kind", "smoothing-spline",
                                      "--out", str(tmp_path / "out")])
        for module in ("linalg._flapack", "optimize._zeros"):
            assert f"'scipy.{module}'" in loaded
        assert_no_subpackage(loaded)
        assert (tmp_path / "out" / "fix.csv").exists()
        (tmp_path / "corpus").mkdir()
        manifest = build_eval_manifest(tmp_path / "corpus")
        loaded = scipy_modules_after(["eval", "--manifest", str(manifest), "--scenario", "AA",
                                      "--kind", "smoothing-spline", "--out", str(tmp_path / "report.json")])
        for module in ("linalg._flapack", "optimize._zeros", "optimize._lbfgsb", "optimize._pava_pybind",
                       "special._special_ufuncs"):
            assert f"'scipy.{module}'" in loaded
        assert_no_subpackage(loaded)
        assert json.loads((tmp_path / "report.json").read_text())["scenario"] == "AA"

    def test_import_loads_no_thread_pool(self):
        # concurrent.futures costs about 5 ms to import; only extract needs it.
        code = "import sys, f0priv.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
        out = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True
        )
        assert out.stdout == "[]\n"

    def test_import_loads_no_random_or_hashlib(self):
        # numpy.random (about 10 ms) and hashlib (about 4 ms) serve only the
        # random-walk kinds, so they load when a walk runs.
        code = ("import sys, f0priv.cli; "
                "print(sorted(m for m in sys.modules if m.startswith(('numpy.random', 'hashlib'))))")
        out = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True, check=True
        )
        assert out.stdout == "[]\n"

    def test_numeric_warnings_stay_off_stderr(self, tmp_path):
        # Contours at both ends of the valid range, on the CSV's finest hop,
        # overflow none of numpy's arithmetic: stderr carries only the
        # command's own lines. pytest records warnings before they reach
        # stderr, so each command runs in a fresh interpreter.
        def run(args):
            out = subprocess.run([sys.executable, "-c", "from f0priv.cli import main; main()", *args],
                                 env=src_env(), capture_output=True, text=True)
            return out.returncode, out.stderr

        edges = (0.0, VOICED_MIN_HZ, VOICED_MAX_HZ, VOICED_MAX_HZ, 0.0) * 6
        top = tuple(VOICED_MAX_HZ * (0.95 + 0.05 * np.sin(np.arange(30))))
        paths = []
        for name, values in (("edges", edges), ("top", top)):
            paths.append(tmp_path / f"{name}.csv")
            write_f0_csv(make_traj(values, hop=FRAME_HOP_MIN_S, rid=name), paths[-1])
        trajs = [read_f0_csv(path) for path in paths]
        assert all(validate(traj) == [] for traj in trajs) and trajs[0].frame_hop == FRAME_HOP_MIN_S
        targets = {"target_mean_hz": VOICED_MAX_HZ, "target_std_hz": VOICED_MAX_HZ}
        for kind, flags in (("smoothing-spline", []), ("voiced-flat", []), ("modulated-same-1", []),
                            ("random-walk-strong", ["--seed", "1"]),
                            ("shift-and-scale", ["--target-mean", "128000", "--target-std", "128000"])):
            spec = ModifierSpec(kind, seed=1, **(targets if kind == "shift-and-scale" else {}))
            lines = []  # the output check's lines, one per input that fails it
            for path, traj in zip(paths, trajs):
                try:
                    apply(spec, traj)
                except ValueError as exc:
                    lines.append(f"error: {path}: {exc}\n")
            out = tmp_path / kind
            assert run(["modify", *map(str, paths), "--kind", kind, *flags, "--out", str(out)]) == (
                2 if lines else 0, "".join(lines))
        assert run(["stats", *map(str, paths)]) == (0, "")
        (tmp_path / "corpus").mkdir()
        manifest = write_manifest(tmp_path / "corpus", [
            ("a", "enrollment", edges), ("a", "trial", edges[1:] + (0.0,)),
            ("b", "enrollment", top), ("b", "trial", top[::-1])])
        entries = json.loads(manifest.read_text())["entries"]
        for entry in entries:  # on the finest hop too
            path = tmp_path / "corpus" / entry["path"]
            write_f0_csv(make_traj(read_f0_csv(path).values, hop=FRAME_HOP_MIN_S), path)
        # The spline overshoots 128 kHz on the edge contours. eval modifies the
        # trial side, then the enrollment side, and names each recording whose
        # output fails validation.
        lines = []
        for entry in sorted(entries, key=lambda entry: entry["split"] != "trial"):
            traj = read_f0_csv(tmp_path / "corpus" / entry["path"], entry["recording_id"])
            try:
                apply(ModifierSpec("smoothing-spline"), traj)
            except ValueError as exc:
                lines.append(f"error: recording {entry['recording_id']!r}: {exc}\n")
        assert run(["eval", "--manifest", str(manifest), "--scenario", "AA", "--kind", "smoothing-spline"]) == (
            2 if lines else 0, "".join(lines))

    def test_version(self, runner):
        result = runner.invoke(cli, ["--version"])
        assert result.exit_code == 0
        assert "f0priv" in result.output
