"""Command-line pipeline: extract, modify, stats, eval, plot.

Exit codes are a stable contract for scripting: 0 success, 1 internal
failure, 2 usage or validation error. All machine-readable output is JSON;
plots are SVG. Commands never mutate their inputs and write outputs
atomically, so reruns with the same flags and seed are byte-identical.
"""

import contextlib
import dataclasses
import json
import os
import sys
from pathlib import Path

import click

from . import __version__
from .evaluation import SCENARIOS, Recording, SpeakerCorpus, run_scenario
from .modifiers import KINDS, NO_SIDE, ModifierSpec, SpecError, apply
from .pitch import PitchConfig, extract_f0, read_wav
from .plotting import trajectory_svg
from .trajectory import format_f0_csv, read_f0_csv, require_valid, stats, validate

# The run config's keys, each an object of its settings class's fields.
RUN_CONFIG = {"modifier": ModifierSpec, "pitch": PitchConfig}
SIDECAR = "sidecar.json"  # written by modify next to its outputs


def _read_json(path, noun: str):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise click.UsageError(f"{noun} {path}: invalid JSON ({exc})")


def _load_run_config(path, keys: tuple[str, ...]) -> dict:
    """The run config at ``path`` ({} for None); ``keys`` are the ones its command reads."""
    if path is None:
        return {}
    data = _read_json(path, "config")
    if not isinstance(data, dict):
        raise click.UsageError(f"config {path}: expected a JSON object")
    unknown = set(data) - set(keys)
    if unknown:
        raise click.UsageError(f"config {path}: unknown keys {sorted(unknown)}")
    for key in RUN_CONFIG:
        if not isinstance(data.get(key, {}), dict):
            raise click.UsageError(f"config {path}: {key!r} must be an object")
    for key, settings in RUN_CONFIG.items():
        bad = data.get(key, {}).keys() - {field.name for field in dataclasses.fields(settings)}
        if bad:
            raise click.UsageError(f"config {path}: unknown {key} keys {sorted(bad)}")
    return data


def _settings(config: dict, key: str, flags: dict) -> dict:
    """The config's ``key`` object with each flag that was given (not None) laid over it."""
    merged = dict(config.get(key, {}))
    merged.update((name, value) for name, value in flags.items() if value is not None)
    return merged


def _pitch_config(config: dict, flags: dict) -> PitchConfig:
    try:
        return PitchConfig(**_settings(config, "pitch", flags))
    except ValueError as exc:
        raise click.UsageError(f"pitch {exc}")


# The modifier flags shared by ``modify`` and ``eval``. Each parameter is
# named after the ModifierSpec field it sets.
SPEC_OPTIONS = (
    click.option("--kind", type=click.Choice(KINDS), default=None, help="Which modification to apply."),
    click.option("--seed", type=int, default=None, help="Seed for the random-walk kinds."),
    click.option("--target-mean", "target_mean_hz", type=float, default=None, help="shift-and-scale target mean in Hz."),
    click.option("--target-std", "target_std_hz", type=float, default=None, help="shift-and-scale target std in Hz."),
)


def _spec_options(command):
    for option in reversed(SPEC_OPTIONS):
        command = option(command)
    return command


def _modifier_spec(config: dict, flags: dict):
    """Each spec field from its flag, else the config's ``modifier``.

    Returns None when no kind is given anywhere.
    """
    base = _settings(config, "modifier", flags)
    if base.get("kind") is None:
        return None
    try:
        return ModifierSpec(**base)
    except SpecError as exc:
        raise click.UsageError(str(exc))


def _atomic_write(path: Path, data: bytes) -> None:
    # Staged under a fresh name, created exclusively, so the staging file
    # never opens, truncates or follows an existing file or link. A name
    # already taken fails this write with FileExistsError.
    tmp = os.path.join(os.path.dirname(path), f".tmp-{os.urandom(8).hex()}")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _refuse(faults: list[str]) -> None:
    """Print an ``error:`` line for each fault, then exit 2 if there was any."""
    for fault in faults:
        click.echo(f"error: {fault}", err=True)
    if faults:
        sys.exit(2)


def _emit(text: str, out) -> None:
    """Print ``text``, or write it to the file ``out`` (an ``--out`` or the
    sidecar); exit 2 when it cannot be written."""
    if out is None:
        click.echo(text, nl=False)
        return
    path = Path(out)
    try:
        _atomic_write(path, text.encode("utf-8"))
    except OSError as exc:
        _refuse([f"cannot write {path}: {exc.strerror}"])


FAILED_INPUTS = "f0priv.failed_inputs"  # key in the click context's meta


def _each(step, jobs):
    """``step(*job)`` for each job, in order, yielding what each returns.

    An OSError or ValueError fails that job alone: it prints
    ``error: <job[0]>: <reason>`` and counts toward exit 2, which
    ``_exit_on_failed_inputs`` sets once the command returns.
    """
    meta = click.get_current_context().meta
    for job in jobs:
        try:
            result = step(*job)
        except (OSError, ValueError) as exc:
            if isinstance(exc, FileNotFoundError):
                reason = "path does not exist"
            elif isinstance(exc, OSError) and exc.filename == os.fspath(job[0]):
                reason = exc.strerror  # the OS message would name the path again
            else:
                reason = exc
            click.echo(f"error: {job[0]}: {reason}", err=True)
            meta[FAILED_INPUTS] = meta.get(FAILED_INPUTS, 0) + 1
            continue
        yield result


def _realpath(path) -> Path | None:
    """``path`` resolved, or None for a path that cannot be: a symlink loop or a NUL byte.

    Such a path matches no input; reading or writing it reports the fault.
    """
    try:
        return Path(path).resolve()
    except (OSError, RuntimeError, ValueError):
        return None


def _plan_writes(jobs, out_dir: Path | None = None) -> None:
    """Check a command's (source, target) jobs before any of them is read or written.

    A job whose source is None only writes (the sidecar, an ``--out`` file);
    one whose target is None only reads (``--config``, a manifest, an input
    of ``stats``, ``eval`` or ``plot``). Exits 2 when two jobs share a target
    or a target resolves to an input, then makes ``out_dir``.
    """
    # Targets as str: a Path costs more to hash.
    writes = [(i, os.fspath(target)) for i, (_, target) in enumerate(jobs) if target is not None]
    writers: dict[str, list] = {}
    for i, path in writes:
        source = jobs[i][0]  # of the writers without one, only the sidecar can share a target
        writers.setdefault(path, []).append("the sidecar" if source is None else str(source))
    _refuse([f"output {os.path.basename(key)} would be written by each of {', '.join(names)}"
             for key, names in writers.items() if len(names) > 1])
    sources = [(j, source) for j, (source, _) in enumerate(jobs) if source is not None]
    # A target that does not exist cannot resolve to a source that does, so
    # a fresh run walks no realpath.
    if writes and (any(os.path.exists(path) for _, path in writes)
                   or not all(os.path.exists(source) for _, source in sources)):
        readers: dict[Path, list] = {}
        for j, source in sources:
            readers.setdefault(_realpath(source), []).append(j)
        readers.pop(None, None)
        clashes = []
        for i, path in writes:
            for j in readers.get(_realpath(path), ()):
                writer, reader = jobs[i][0], jobs[j][0]
                if writer is None or i == j:
                    clashes.append(f"refusing to overwrite input {reader}")
                else:
                    clashes.append(f"{writer} -> {path} would overwrite the input {reader}")
        _refuse(list(dict.fromkeys(clashes)))  # an input named twice is reported once
    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            _refuse([f"cannot create output directory {out_dir}: {exc.strerror}"])


def _read_valid(path, recording_id: str | None = None):
    """The contour CSV at ``path``; ValueError when it fails validation."""
    traj = read_f0_csv(path, recording_id=recording_id)
    require_valid(validate(traj), "invalid trajectory")
    return traj


def _load_manifest(path) -> list[dict]:
    data = _read_json(path, "manifest")
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
        entry = dict(entry)
        entry["path"] = root / entry["path"]  # an absolute path replaces root
        entries[i] = entry
    _refuse([f"manifest {path}: {problem}" for problem in problems])
    return entries


def _track(wav_path: Path, rid: str, pitch_cfg: PitchConfig):
    """One ``extract`` job, run on a pool thread: the CSV bytes, or the
    OSError/ValueError that stopped it."""
    try:
        return format_f0_csv(extract_f0(read_wav(wav_path), pitch_cfg, recording_id=rid))
    except (OSError, ValueError) as exc:
        # Its traceback would keep the job's audio alive until the result is written.
        return exc.with_traceback(None)


@click.group()
@click.version_option(version=__version__, prog_name="f0priv")
def cli():
    """Pitch-contour anonymization toolkit."""


@cli.result_callback()
def _exit_on_failed_inputs(_result):
    # After the command has written what it keeps of its inputs.
    if click.get_current_context().meta.get(FAILED_INPUTS):
        sys.exit(2)


@cli.command("extract")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--out", type=click.Path(file_okay=False), default=".", help="Output directory.")
@click.option("--frame-len", type=float, default=None, help="Analysis window in seconds.")
@click.option("--frame-hop", type=float, default=None, help="Hop between frames in seconds.")
@click.option("--f-min", type=float, default=None, help="Lowest trackable F0 in Hz.")
@click.option("--f-max", type=float, default=None, help="Highest trackable F0 in Hz.")
@click.option("--voicing-threshold", type=float, default=None, help="Peak correlation needed to call a frame voiced.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_extract(inputs, out, config, **flags):
    """Extract F0 trajectories from WAV files (or a manifest) to CSV."""
    run_config = _load_run_config(config, ("pitch",))
    pitch_cfg = _pitch_config(run_config, flags)
    jobs: list[tuple[Path, str]] = []  # (wav path, recording id)
    reads = [config] if config else []  # read, never written
    for path in map(Path, inputs):
        if path.suffix.lower() == ".json":
            reads.append(path)
            for entry in _load_manifest(path):
                jobs.append((entry["path"], entry["recording_id"]))
        else:
            jobs.append((path, path.stem))
    out_dir = Path(out)
    # <id>.csv must name a file of out_dir: no directory part, no NUL byte,
    # no lone surrogate (U+D800-U+DFFF, which UTF-8 cannot encode), and at
    # most 255 bytes in UTF-8, the most file systems take.
    _refuse([f"{wav_path}: recording id {rid!r} is not a plain file name"
             for wav_path, rid in jobs if not rid or Path(rid).name != rid or "\0" in rid
             or any("\ud800" <= c <= "\udfff" for c in rid) or len(f"{rid}.csv".encode("utf-8")) > 255])
    writes = [(wav_path, out_dir / f"{rid}.csv") for wav_path, rid in jobs]
    _plan_writes(writes + [(path, None) for path in reads], out_dir)

    def write(wav_path, target, result):
        if isinstance(result, Exception):
            raise result
        _atomic_write(target, result)
        return f"{wav_path} -> {target}"

    from concurrent.futures import ThreadPoolExecutor  # here, so other commands never load it

    # numpy's FFTs release the GIL, so the tracking runs on one thread per
    # CPU this process may use. Only this thread writes and reports, in input
    # order, so files, output lines and the exit code do not depend on the count.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    pool = ThreadPoolExecutor(max_workers=max(1, min(len(jobs), cpus)))
    try:
        results = pool.map(lambda job: _track(*job, pitch_cfg), jobs)
        for line in _each(write, ((*job, result) for job, result in zip(writes, results))):
            click.echo(line)
    finally:
        # After Ctrl-C or a traceback, the jobs not yet started never run.
        pool.shutdown(cancel_futures=True)


@cli.command("modify")
@click.argument("inputs", nargs=-1, required=True)
@_spec_options
@click.option("--out", type=click.Path(file_okay=False), default=".", help="Output directory.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_modify(inputs, out, config, **flags):
    """Apply one modification to trajectory CSV files."""
    run_config = _load_run_config(config, ("modifier",))
    spec = _modifier_spec(run_config, flags)
    if spec is None:
        raise click.UsageError("no modifier kind given (use --kind or a config file)")
    if spec.kind == "modulated-different":
        raise click.UsageError(NO_SIDE)
    paths = [Path(item) for item in inputs]
    out_dir = Path(out)
    jobs = [(None, out_dir / SIDECAR), *((path, out_dir / path.name) for path in paths)]
    _plan_writes(jobs + ([(config, None)] if config else []), out_dir)

    def modify(path, target):
        _atomic_write(target, format_f0_csv(apply(spec, read_f0_csv(path))))
        return f"{path} -> {target}"

    for line in _each(modify, jobs[1:]):
        click.echo(line)

    sidecar = {
        "tool": "f0priv",
        "tool_version": __version__,
        "spec": dataclasses.asdict(spec),
        "inputs": [p.name for p in paths],
    }
    _emit(json.dumps(sidecar, indent=2, allow_nan=False) + "\n", out_dir / SIDECAR)


@cli.command("stats")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write JSON here instead of stdout.")
def cmd_stats(inputs, out):
    """Per-recording speaker-identifying statistics as JSON (null = undefined)."""
    paths = [Path(item) for item in inputs]
    _plan_writes([(path, None) for path in paths] + ([(None, Path(out))] if out is not None else []))

    def report(path):
        traj = _read_valid(path)
        return {
            "recording_id": traj.recording_id,
            "n_frames": traj.n_frames,
            "frame_hop": traj.frame_hop,
            "stats": stats(traj).to_dict(),
        }

    reports = list(_each(report, zip(paths)))
    _emit(json.dumps(reports, indent=2, allow_nan=False) + "\n", out)


@cli.command("eval")
@click.option("--manifest", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--scenario", type=click.Choice(SCENARIOS), required=True)
@_spec_options
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write the report here instead of stdout.")
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None)
def cmd_eval(manifest, scenario, out, config, **flags):
    """Score a corpus under one attack scenario and report EER/Cllr."""
    run_config = _load_run_config(config, ("modifier", "pitch"))
    spec = _modifier_spec(run_config, flags)
    if scenario != "OO" and spec is None:
        raise click.UsageError(f"scenario {scenario} needs a modifier (--kind ...)")
    pitch_cfg = _pitch_config(run_config, {})

    entries = _load_manifest(Path(manifest))
    reads = [manifest, *([config] if config else []), *(entry["path"] for entry in entries)]
    _plan_writes([(Path(path), None) for path in reads] + ([(None, Path(out))] if out is not None else []))

    def load(path, entry):
        rid = entry["recording_id"]
        if path.suffix.lower() == ".wav":
            traj = extract_f0(read_wav(path), pitch_cfg, recording_id=rid)
        else:
            traj = _read_valid(path, rid)
        return Recording(entry["speaker_id"], rid, entry["split"], traj)

    recordings = list(_each(load, ((entry["path"], entry) for entry in entries)))
    if len(recordings) < len(entries):
        return  # no report from part of the corpus

    try:
        report = run_scenario(SpeakerCorpus(tuple(recordings)), spec, scenario)
    except ValueError as exc:  # a line for each failing recording
        _refuse(str(exc).splitlines())
    _emit(report.to_json() + "\n", out)


@cli.command("plot")
@click.argument("inputs", nargs=-1, required=True)
@click.option("--out", type=click.Path(dir_okay=False), default="plot.svg", help="Output SVG path.")
def cmd_plot(inputs, out):
    """Overlay trajectories in a self-contained SVG (unvoiced frames = gaps)."""
    paths = [Path(item) for item in inputs]
    _plan_writes([(path, None) for path in paths] + [(None, Path(out))])
    named = list(_each(lambda path: (path.stem, _read_valid(path)), zip(paths)))
    if len(named) < len(paths):
        return  # no plot of part of the inputs

    hops = {round(traj.frame_hop, 9) for _, traj in named}
    if len(hops) > 1:
        click.echo(
            "warning: trajectories have different frame hops; plotting on a common time axis",
            err=True,
        )
    _emit(trajectory_svg(named), out)
    click.echo(f"wrote {out}")


def main():
    cli(prog_name="f0priv")


if __name__ == "__main__":
    main()
