"""Command-line pipeline: extract, modify, stats, eval, plot.

Exit codes are a stable contract for scripting: 0 success, 1 internal
failure, 2 usage or validation error. All machine-readable output is JSON;
plots are SVG. Commands never mutate their inputs and write outputs
atomically, so reruns with the same flags and seed are byte-identical.
"""

import contextlib
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .evaluation import SCENARIOS, Recording, SpeakerCorpus, run_scenario
from .modifiers import (
    KINDS,
    ROLES,
    ModifierSpec,
    SpecError,
    apply,
    finite_number,
)
from .pitch import PitchConfig, extract_f0, read_wav
from .plotting import trajectory_svg
from .trajectory import format_f0_csv, read_f0_csv, stats, validate

RUN_CONFIG_KEYS = {"modifier", "input_dir", "output_dir", "pitch"}
RUN_CONFIG_TYPES = {
    "modifier": (dict, "an object"),
    "pitch": (dict, "an object"),
    "input_dir": (str, "a string"),
    "output_dir": (str, "a string"),
}
PITCH_KEYS = {f.name for f in dataclasses.fields(PitchConfig)}
SIDECAR = "sidecar.json"  # written by modify next to its outputs


def _load_run_config(path) -> dict:
    if path is None:
        return {}
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise click.UsageError(f"config {path}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise click.UsageError(f"config {path}: expected a JSON object")
    unknown = set(data) - RUN_CONFIG_KEYS
    if unknown:
        raise click.UsageError(f"config {path}: unknown keys {sorted(unknown)}")
    for key, (kind, noun) in RUN_CONFIG_TYPES.items():
        if key in data and not isinstance(data[key], kind):
            raise click.UsageError(f"config {path}: {key!r} must be {noun}")
    bad = set(data.get("pitch", {})) - PITCH_KEYS
    if bad:
        raise click.UsageError(f"config {path}: unknown pitch keys {sorted(bad)}")
    return data


def _pitch_config(config: dict, frame_len, frame_hop, f_min, f_max, voicing_threshold) -> PitchConfig:
    merged = dict(config.get("pitch", {}))
    overrides = {
        "frame_len": frame_len,
        "frame_hop": frame_hop,
        "f_min": f_min,
        "f_max": f_max,
        "voicing_threshold": voicing_threshold,
    }
    merged.update({k: v for k, v in overrides.items() if v is not None})
    for name, value in merged.items():
        if not finite_number(value):
            raise click.UsageError(f"pitch {name} must be a finite number, got {value!r}")
    return PitchConfig(**merged)


# The modifier flags shared by ``modify`` and ``eval``. Each parameter is
# named after the ModifierSpec field it sets.
SPEC_OPTIONS = (
    click.option("--kind", type=click.Choice(KINDS), default=None, help="Which modification to apply."),
    click.option("--seed", type=int, envvar="F0PRIV_SEED", default=None, help="Seed for the random-walk kinds."),
    click.option("--target-mean", "target_mean_hz", type=float, default=None, help="shift-and-scale target mean in Hz."),
    click.option("--target-std", "target_std_hz", type=float, default=None, help="shift-and-scale target std in Hz."),
)


def _spec_options(command):
    for option in reversed(SPEC_OPTIONS):
        command = option(command)
    return command


def _modifier_spec(config: dict, flags: dict, default_role: str | None = None):
    """Each spec field from its flag, else the config's ``modifier``;
    ``default_role`` fills a role given nowhere.

    Returns None when no kind is given anywhere.
    """
    base = dict(config.get("modifier", {}))
    base.update((field, value) for field, value in flags.items() if value is not None)
    if base.get("kind") is None:
        return None
    if base.get("role") is None:
        base["role"] = default_role
    try:
        return ModifierSpec.from_dict(base)
    except SpecError as exc:
        raise click.UsageError(str(exc))


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(f".tmp-{path.name}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _write_out_file(path: Path, data: bytes) -> None:
    """Write one output file (an ``--out`` or the sidecar); exit 2 when it cannot be written."""
    try:
        _atomic_write(path, data)
    except OSError as exc:
        click.echo(f"error: cannot write {path}: {exc.strerror}", err=True)
        sys.exit(2)


def _realpath(path) -> Path | None:
    """``path`` resolved, or None for a path that cannot be: a symlink loop or a NUL byte.

    Such a path matches no input; reading or writing it reports the fault.
    """
    try:
        return Path(path).resolve()
    except (OSError, RuntimeError, ValueError):
        return None


def _guard_not_input(out_path: Path, in_path: Path) -> None:
    # An output path that does not exist cannot resolve to an input that
    # does; only the other cases need the two realpath walks.
    if os.path.exists(out_path) or not os.path.exists(in_path):
        real = _realpath(out_path)
        if real is not None and real == _realpath(in_path):
            raise ValueError(f"refusing to overwrite input {in_path}")


def _resolve_inputs(inputs, config: dict) -> list[Path]:
    root = config.get("input_dir")
    paths = []
    for item in inputs:
        p = Path(item)
        if root and not p.is_absolute():
            p = Path(root) / p
        paths.append(p)
    return paths


def _out_dir(out, config: dict) -> Path:
    return Path(config.get("output_dir", ".") if out is None else out)


def _make_dir(path: Path) -> None:
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        click.echo(f"error: cannot create output directory {path}: {exc.strerror}", err=True)
        sys.exit(2)


def _refuse_shared_outputs(jobs) -> None:
    """Exit 2 when two inputs map to one output file name; call before writing."""
    sources: dict[str, list] = {}
    for source, name in jobs:
        sources.setdefault(name, []).append(str(source))
    shared = {name: paths for name, paths in sources.items() if len(paths) > 1}
    for name, paths in shared.items():
        click.echo(f"error: output {name} would be written by each of {', '.join(paths)}", err=True)
    if shared:
        sys.exit(2)


def _refuse_overwriting_inputs(sources, writes) -> None:
    """Exit 2 when one job's output file is another job's input; call before writing.

    ``sources`` holds every job's input, ``writes`` the (job index, output)
    pairs of the jobs that may write. A job whose output is its own input is
    left to ``_guard_not_input``, which fails that job alone.
    """
    # As in _guard_not_input: only an output that exists, or an input that
    # does not, can resolve to an input, so a fresh run walks no realpath.
    if not any(os.path.exists(target) for _, target in writes) and all(map(os.path.exists, sources)):
        return
    readers: dict[Path, list] = {}
    for j, source in enumerate(sources):
        readers.setdefault(_realpath(source), []).append(j)
    readers.pop(None, None)
    clashes = [
        (sources[i], target, sources[j])
        for i, target in writes
        for j in readers.get(_realpath(target), ())
        if j != i
    ]
    for writer, target, reader in clashes:
        click.echo(f"error: {writer} -> {target} would overwrite the input {reader}", err=True)
    if clashes:
        sys.exit(2)


def _refuse_out_over_inputs(out, inputs) -> None:
    """Exit 2 when an ``--out`` file resolves to one of the command's inputs."""
    if out is None:  # the output goes to stdout
        return
    for path in inputs:
        try:
            _guard_not_input(Path(out), Path(path))
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)


def _load_manifest(path) -> list[dict]:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise click.UsageError(f"manifest {path}: invalid JSON ({exc})")
    if not isinstance(data, dict) or not isinstance(data.get("entries"), list):
        raise click.UsageError(f"manifest {path}: expected an object with an 'entries' list")
    entries = data["entries"]
    problems = []
    seen_ids = set()
    root = Path(path).parent
    required = {"speaker_id", "recording_id", "split", "path"}
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != required:
            problems.append(f"entry {i}: must have exactly the keys {sorted(required)}")
            continue
        not_strings = [key for key in sorted(required) if not isinstance(entry[key], str)]
        for key in not_strings:
            problems.append(f"entry {i}: {key} must be a string, got {entry[key]!r}")
        if not_strings:
            continue
        if entry["split"] not in ("enrollment", "trial"):
            problems.append(f"entry {i}: bad split {entry['split']!r}")
        if entry["recording_id"] in seen_ids:
            problems.append(f"entry {i}: duplicate recording_id {entry['recording_id']!r}")
        seen_ids.add(entry["recording_id"])
        file_path = Path(entry["path"])
        if not file_path.is_absolute():
            file_path = root / file_path
        if not file_path.exists():
            problems.append(f"entry {i}: path does not exist: {file_path}")
        entry = dict(entry)
        entry["path"] = file_path
        entries[i] = entry
    if problems:
        for p in problems:
            click.echo(f"manifest error: {p}", err=True)
        sys.exit(2)
    return entries


def _load_trajectory(path: Path, pitch_cfg: PitchConfig, recording_id: str):
    if path.suffix.lower() == ".wav":
        return extract_f0(read_wav(path), pitch_cfg, recording_id=recording_id)
    return read_f0_csv(path, recording_id=recording_id)


def _track(wav_path: Path, rid: str, target: Path, pitch_cfg: PitchConfig):
    """One ``extract`` job, run on a pool thread: the CSV bytes, or the
    OSError/ValueError that stopped it."""
    try:
        if Path(rid).name != rid:
            raise ValueError(f"recording id {rid!r} is not a plain file name")
        _guard_not_input(target, wav_path)
        return format_f0_csv(extract_f0(read_wav(wav_path), pitch_cfg, recording_id=rid))
    except (OSError, ValueError) as exc:
        # Its traceback would keep the job's audio alive until the result is written.
        return exc.with_traceback(None)


@click.group()
@click.version_option(version=__version__, prog_name="f0priv")
def cli():
    """Pitch-contour anonymization toolkit."""


@cli.command("extract")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Output directory.")
@click.option("--frame-len", type=float, default=None, help="Analysis window in seconds.")
@click.option("--frame-hop", type=float, default=None, help="Hop between frames in seconds.")
@click.option("--f-min", type=float, default=None, help="Lowest trackable F0 in Hz.")
@click.option("--f-max", type=float, default=None, help="Highest trackable F0 in Hz.")
@click.option("--voicing-threshold", type=float, default=None, help="Peak correlation needed to call a frame voiced.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_extract(inputs, out, frame_len, frame_hop, f_min, f_max, voicing_threshold, config):
    """Extract F0 trajectories from WAV files (or a manifest) to CSV."""
    run_config = _load_run_config(config)
    pitch_cfg = _pitch_config(run_config, frame_len, frame_hop, f_min, f_max, voicing_threshold)
    jobs: list[tuple[Path, str]] = []  # (wav path, recording id)
    for path in _resolve_inputs(inputs, run_config):
        if path.suffix.lower() == ".json":
            for entry in _load_manifest(path):
                jobs.append((entry["path"], entry["recording_id"]))
        else:
            jobs.append((path, path.stem))
    _refuse_shared_outputs((wav_path, f"{rid}.csv") for wav_path, rid in jobs)
    out_dir = _out_dir(out, run_config)
    targets = [out_dir / f"{rid}.csv" for _, rid in jobs]
    # A job whose id is not a plain name never writes, but its input can still be overwritten.
    _refuse_overwriting_inputs(
        [wav_path for wav_path, _ in jobs],
        [(i, target) for i, ((_, rid), target) in enumerate(zip(jobs, targets)) if Path(rid).name == rid],
    )
    _make_dir(out_dir)

    from concurrent.futures import ThreadPoolExecutor  # here, so other commands never load it

    # numpy's FFTs release the GIL, so the tracking runs on one thread per
    # CPU this process may use. Only this thread writes and reports, in input
    # order, so files, output lines and the exit code do not depend on the count.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    pool = ThreadPoolExecutor(max_workers=max(1, min(len(jobs), cpus)))
    failures = 0
    try:
        results = pool.map(lambda job, target: _track(*job, target, pitch_cfg), jobs, targets)
        for (wav_path, _), target, result in zip(jobs, targets, results):
            try:
                if isinstance(result, Exception):
                    raise result
                _atomic_write(target, result)
            except (OSError, ValueError) as exc:
                click.echo(f"error: {wav_path}: {exc}", err=True)
                failures += 1
                continue
            click.echo(f"{wav_path} -> {target}")
    finally:
        # After Ctrl-C or a traceback, the jobs not yet started never run.
        pool.shutdown(cancel_futures=True)
    if failures:
        sys.exit(2)


@cli.command("modify")
@click.argument("inputs", nargs=-1, required=True)
@_spec_options
@click.option("--role", type=click.Choice(ROLES), default=None, help="Dataset role for modulated-different.")
@click.option("--out", type=click.Path(file_okay=False), default=None, help="Output directory.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_modify(inputs, out, config, **flags):
    """Apply one modification to trajectory CSV files."""
    run_config = _load_run_config(config)
    spec = _modifier_spec(run_config, flags)
    if spec is None:
        raise click.UsageError("no modifier kind given (use --kind or a config file)")
    paths = _resolve_inputs(inputs, run_config)
    _refuse_shared_outputs([("the sidecar", SIDECAR)] + [(path, path.name) for path in paths])
    out_dir = _out_dir(out, run_config)
    _make_dir(out_dir)

    failures = 0
    for path in paths:
        target = out_dir / path.name
        try:
            _guard_not_input(target, path)
            traj = read_f0_csv(path)
            modified = apply(spec, traj)
            problems = validate(modified)
            if problems:
                raise ValueError("output failed validation: " + "; ".join(problems))
            _atomic_write(target, format_f0_csv(modified))
        except (OSError, ValueError) as exc:
            click.echo(f"error: {path}: {exc}", err=True)
            failures += 1
            continue
        click.echo(f"{path} -> {target}")

    sidecar = {
        "tool": "f0priv",
        "tool_version": __version__,
        "spec": dataclasses.asdict(spec),
        "inputs": [p.name for p in paths],
    }
    text = json.dumps(sidecar, indent=2, allow_nan=False) + "\n"
    _write_out_file(out_dir / SIDECAR, text.encode("utf-8"))
    if failures:
        sys.exit(2)


@cli.command("stats")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write JSON here instead of stdout.")
def cmd_stats(inputs, out):
    """Per-recording speaker-identifying statistics as JSON (null = undefined)."""
    _refuse_out_over_inputs(out, inputs)
    reports = []
    failures = 0
    for item in inputs:
        path = Path(item)
        try:
            traj = read_f0_csv(path)
            problems = validate(traj)
            if problems:
                raise ValueError("invalid trajectory: " + "; ".join(problems))
            # Valid but huge values (say 1e308 Hz) overflow the statistics.
            with np.errstate(over="ignore", invalid="ignore"):
                st = stats(traj)
            overflowed = [
                name for name, v in st.to_dict().items() if v is not None and not math.isfinite(v)
            ]
            if overflowed:
                raise ValueError("non-finite statistics: " + ", ".join(overflowed))
        except (OSError, ValueError) as exc:
            click.echo(f"error: {path}: {exc}", err=True)
            failures += 1
            continue
        reports.append(
            {
                "recording_id": traj.recording_id,
                "n_frames": traj.n_frames,
                "frame_hop": traj.frame_hop,
                "stats": st.to_dict(),
            }
        )
    text = json.dumps(reports, indent=2, allow_nan=False) + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_out_file(Path(out), text.encode("utf-8"))
    if failures:
        sys.exit(2)


@cli.command("eval")
@click.option("--manifest", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--scenario", type=click.Choice(SCENARIOS), required=True)
@_spec_options
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_eval(manifest, scenario, out, config, **flags):
    """Score a corpus under one attack scenario and report EER/Cllr."""
    run_config = _load_run_config(config)
    # run_scenario sets the role of each corpus side; "trial" only validates.
    spec = _modifier_spec(run_config, flags, default_role="trial")
    if scenario != "OO" and spec is None:
        raise click.UsageError(f"scenario {scenario} needs a modifier (--kind ...)")
    pitch_cfg = _pitch_config(run_config, None, None, None, None, None)

    entries = _load_manifest(Path(manifest))
    inputs = [manifest, *([config] if config else []), *(entry["path"] for entry in entries)]
    _refuse_out_over_inputs(out, inputs)
    recordings = []
    failures = 0
    for entry in entries:
        try:
            traj = _load_trajectory(entry["path"], pitch_cfg, entry["recording_id"])
        except (OSError, ValueError) as exc:
            click.echo(f"error: {entry['path']}: {exc}", err=True)
            failures += 1
            continue
        recordings.append(
            Recording(entry["speaker_id"], entry["recording_id"], entry["split"], traj)
        )
    if failures:
        sys.exit(2)

    corpus = SpeakerCorpus(tuple(recordings))
    problems = corpus.violations()
    if problems:
        for p in problems:
            click.echo(f"corpus error: {p}", err=True)
        sys.exit(2)

    try:
        report = run_scenario(corpus, spec, scenario)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    text = report.to_json() + "\n"
    if out is None:
        click.echo(text, nl=False)
    else:
        _write_out_file(Path(out), text.encode("utf-8"))


@cli.command("plot")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default="plot.svg", help="Output SVG path.")
def cmd_plot(inputs, out):
    """Overlay trajectories in a self-contained SVG (unvoiced frames = gaps)."""
    _refuse_out_over_inputs(out, inputs)
    named = []
    for item in inputs:
        path = Path(item)
        try:
            traj = read_f0_csv(path)
        except (OSError, ValueError) as exc:
            click.echo(f"error: {path}: {exc}", err=True)
            sys.exit(2)
        named.append((path.stem, traj))

    hops = {round(traj.frame_hop, 9) for _, traj in named}
    if len(hops) > 1:
        click.echo(
            "warning: trajectories have different frame hops; plotting on a common time axis",
            err=True,
        )
    try:
        svg = trajectory_svg(named)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)
    _write_out_file(Path(out), svg.encode("utf-8"))
    click.echo(f"wrote {out}")


def main():
    cli(prog_name="f0priv")


if __name__ == "__main__":
    main()
