"""The command-line contract, on valid inputs and on byte-level mutations of them.

Each case builds valid CSVs, WAVs or a manifest and runs twice: as built, and
altered in one of three ways. An edit inserts, deletes, overwrites or
duplicates a run of one file's bytes; a refusal adds a flag or path the
command must refuse before it reads any input; a vanishing output directory
is removed before the first write. Every run must keep what
``cli.py``'s docstring states: exit code 0 or 2 and no traceback; JSON
machine output; no ``.tmp-`` staging file left behind or named; inputs
unchanged; and a refusal made before any input is read writes nothing. A
valid case must exit 0, and a failed write must name its target.
"""

import contextlib
import json
import shutil
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from f0priv import cli as cli_module
from f0priv.cli import SIDECAR, cli
from f0priv.trajectory import F0Trajectory, format_f0_csv, read_f0_csv, validate
from test_pitch import wav_bytes

CLEAN, EDIT, REFUSE, VANISH = "clean", "edit", "refuse", "vanish"
# Byte strings an edit inserts or writes over, besides random bytes.
TOKENS = [b"\n", b"\r\n", b",", b"0", b"-", b".", b"e", b"nan", b"inf", b"1e999", b"\x00", b"\xff",
          b'"', b"{", b"]", b" ", b"\xef\xbb\xbf"]
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


@dataclass
class Case:
    files: dict  # name -> bytes, written into an empty working directory
    inputs: list  # the names the command is given
    flags: list
    out: str | None
    mode: str = CLEAN

    def args(self, command: str) -> list:
        out = [] if self.out is None else ["--out", self.out]
        if command == "eval":
            return [command, "--manifest", *self.inputs, *self.flags, *out]
        return [command, *self.inputs, *self.flags, *out]


def contour_bytes(n: int, seed: int, hop: float) -> bytes:
    rng = np.random.default_rng(seed)
    values = rng.uniform(80.0, 300.0) * np.exp(0.05 * np.sin(np.arange(n) / 5.0)
                                               + 0.01 * rng.standard_normal(n))
    unvoiced = rng.random(n) < 0.15
    unvoiced[::2] = False  # at least 4 voiced frames, which every kind can take
    values[unvoiced] = 0.0
    return format_f0_csv(F0Trajectory(hop, values))


contours = st.builds(contour_bytes, st.integers(8, 80), st.integers(0, 2**16),
                     st.sampled_from([0.01, 0.005, 0.016]))


@st.composite
def tone_wavs(draw) -> bytes:
    sr = draw(st.sampled_from([8000, 16000]))
    t = np.arange(int(sr * draw(st.floats(0.05, 0.25)))) / sr
    tone = 0.45 * np.sin(2.0 * np.pi * draw(st.floats(90.0, 350.0)) * t)
    codec, bits = draw(st.sampled_from([(1, 16), (1, 24), (3, 32)]))
    samples = tone if codec == 3 else np.round(tone * (2 ** (bits - 1) - 1)).astype(np.int64)
    return wav_bytes(samples, sample_rate=sr, audio_format=codec, bits=bits)


def manifest_bytes(paths, speakers, splits) -> bytes:
    entries = [{"speaker_id": speaker, "recording_id": Path(path).stem, "split": split, "path": path}
               for path, speaker, split in zip(paths, speakers, splits)]
    return json.dumps({"entries": entries}, indent=1).encode()


@st.composite
def edited(draw, data: bytes) -> bytes:
    """``data`` with one run of bytes inserted, deleted, overwritten or duplicated."""
    # Half the edits land in the first bytes, where headers are.
    i = draw(st.one_of(st.integers(0, min(len(data), 48)), st.integers(0, len(data))))
    j = draw(st.integers(i, min(len(data), i + 16)))
    chunk = draw(st.one_of(st.binary(min_size=1, max_size=6), st.sampled_from(TOKENS)))
    op = draw(st.sampled_from(["insert", "delete", "overwrite", "duplicate"]))
    if op == "insert":
        return data[:i] + chunk + data[i:]
    if op == "delete":
        return data[:i] + data[max(j, i + 1):]
    if op == "overwrite":
        return data[:i] + chunk + data[i + len(chunk):]
    return data[:j] + data[i:j] + data[j:]


@st.composite
def cases(draw, command: str) -> tuple[Case, Case]:
    """A valid case for ``command`` and the same case altered."""
    if command == "extract":
        names = [f"w{i}.wav" for i in range(draw(st.integers(1, 2)))]
        files = {name: draw(tone_wavs()) for name in names}
        inputs = names
        if draw(st.booleans()):
            files["wavs.json"] = manifest_bytes(names, ["s"] * len(names), ["trial"] * len(names))
            inputs = ["wavs.json"]
        case = Case(files, inputs, [], "out")
    elif command == "eval":
        n_speakers = draw(st.integers(2, 3))
        names = [f"s{s}{split[0]}.csv" for s in range(n_speakers) for split in ("enrollment", "trial")]
        files = {name: draw(contours) for name in names}
        files["corpus.json"] = manifest_bytes(names, [name[:2] for name in names],
                                              ["enrollment", "trial"] * n_speakers)
        scenario = draw(st.sampled_from(["OO", "OA", "AA"]))
        kinds = st.sampled_from(["random-walk-weak", "modulated-same-1"])
        kind = [] if scenario == "OO" else ["--kind", draw(kinds)]
        out = draw(st.sampled_from([None, "report.json"]))
        case = Case(files, ["corpus.json"], ["--scenario", scenario, *kind, "--seed", "3"], out)
    else:
        names = [f"c{i}.csv" for i in range(draw(st.integers(1, 3)))]
        files = {name: draw(contours) for name in names}
        if command == "modify":
            kind = draw(st.sampled_from(sorted(KIND_FLAGS)))
            case = Case(files, names, ["--kind", kind, *KIND_FLAGS[kind]], "out")
        elif command == "stats":
            case = Case(files, names, [], draw(st.sampled_from([None, "stats.json"])))
        else:
            case = Case(files, names, [], "plot.svg")
    modes = [EDIT, EDIT, REFUSE] + ([VANISH] if command in ("extract", "modify") else [])
    altered = replace(case, files=dict(case.files), inputs=list(case.inputs), flags=list(case.flags),
                      mode=draw(st.sampled_from(modes)))
    if altered.mode == EDIT:
        name = draw(st.sampled_from(sorted(altered.files)))
        altered.files[name] = draw(edited(altered.files[name]))
    elif altered.mode == REFUSE:
        draw(st.sampled_from(REFUSALS[command]))(altered)
    return case, altered


def _add(*flags):
    return lambda case: case.flags.extend(flags)


def _twice(case):
    case.inputs.append(case.inputs[0])


def _out_over_input(case):
    case.out = case.inputs[-1]


def _set_flags(*flags):
    def set_flags(case):
        case.flags[:] = flags
    return set_flags


# Changes that make a command refuse before it reads an input (a manifest
# aside): a bad flag, a missing one, two writes to one target, or an output
# over an input.
REFUSALS = {
    "extract": [_add("--f-min", "300", "--f-max", "200"), _add("--frame-hop", "0"), _add("--bogus"), _twice],
    "modify": [_set_flags(), _set_flags("--kind", "modulated-different"), _add("--seed", "x"),
               _set_flags("--kind", "shift-and-scale", "--target-mean", "inf", "--target-std", "20"), _twice],
    "stats": [_out_over_input, _add("--bogus")],
    "eval": [_set_flags("--scenario", "AA"), _add("--f-min", "300", "--f-max", "200"), _out_over_input],
    "plot": [_out_over_input, _add("--bogus")],
}


def snapshot(root: Path) -> dict:
    """Every path under ``root``: a file's bytes, None for a directory."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def strict_json(text: str):
    """``text`` as JSON, refusing the NaN and Infinity that json.loads accepts."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def check_outputs(command: str, case: Case, result, after: dict) -> None:
    """The machine output: JSON (or SVG for plot) when written, present on exit 0."""
    ok = result.exit_code == 0
    if command in ("stats", "eval"):
        text = result.stdout if case.out is None else after.get(case.out, b"").decode()
        if text or ok:
            report = strict_json(text)
            if command == "stats":
                assert isinstance(report, list) and (not ok or len(report) == len(case.inputs))
            else:
                assert isinstance(report, dict) and report["scenario"] == case.flags[1]
    elif command == "plot":
        if ok:
            ElementTree.fromstring(after[case.out])
    else:
        sidecar = after.get(f"out/{SIDECAR}")
        if sidecar is not None or (ok and command == "modify"):
            strict_json(sidecar.decode())
        if ok:
            written = [name for name in after if name.startswith("out/") and name.endswith(".csv")]
            assert written
            for name in written:
                assert validate(read_f0_csv(name)) == []


def vanishing(format_csv):
    """``format_f0_csv`` that first removes the output directory."""
    def format_after_removing_out(traj):
        shutil.rmtree("out", ignore_errors=True)
        return format_csv(traj)
    return format_after_removing_out


def check_vanished(command: str, case: Case, result) -> None:
    # Each failed write names its input and its target, never the staging file.
    sources = [name for name in case.files if name.endswith(".wav")] if command == "extract" else case.inputs
    lines = [f"error: {src}: cannot write out/{Path(src).stem}.csv: No such file or directory"
             if command == "extract" else
             f"error: {src}: cannot write out/{src}: No such file or directory" for src in sources]
    if command == "modify":
        lines.append(f"error: cannot write out/{SIDECAR}: No such file or directory")
    assert result.stderr.splitlines() == lines


def run_case(runner: CliRunner, command: str, case: Case) -> None:
    with runner.isolated_filesystem():
        root = Path.cwd()
        for name, data in case.files.items():
            Path(name).write_bytes(data)
        before = snapshot(root)
        with mock.patch.object(cli_module, "format_f0_csv", vanishing(cli_module.format_f0_csv)) \
                if case.mode == VANISH else contextlib.nullcontext():
            result = runner.invoke(cli, case.args(command))
        after = snapshot(root)
        context = (case.args(command), case.mode, result.exit_code, result.stderr, result.exception)

        assert result.exit_code == 0 if case.mode == CLEAN else result.exit_code in (0, 2), context
        assert result.exception is None or isinstance(result.exception, SystemExit), context
        assert "Traceback" not in result.stdout + result.stderr, context
        assert ".tmp-" not in result.stdout + result.stderr, context
        assert not [name for name in after if Path(name).name.startswith(".tmp-")], context
        assert {name: after.get(name) for name in case.files} == case.files, context  # inputs unchanged
        if case.mode == REFUSE or result.stderr.startswith("Usage:"):
            assert result.exit_code == 2 and after == before, context
            return
        if case.mode == VANISH:
            assert result.exit_code == 2, context
            check_vanished(command, case, result)
        check_outputs(command, case, result, after)


@pytest.mark.parametrize("command", ["extract", "modify", "stats", "eval", "plot"])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_cli_contract(command, data):
    # Half the runs are valid cases, which must exit 0: a contract that only
    # ever refuses would show nothing.
    runner = CliRunner()
    for case in data.draw(cases(command)):
        run_case(runner, command, case)
