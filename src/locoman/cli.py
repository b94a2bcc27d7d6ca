"""Command-line interface: run scenario suites, evaluate reward timelines,
validate scenario files, and export occupancy rasters.

Exit codes: 0 ok, 2 usage, 3 config/validation, 4 I/O.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import functools
import hashlib
import math
import sys
import threading
from pathlib import Path

import click
import numpy as np

from .config import Config, read_file, to_dict
from .errors import LocomanError, ValidationError
from .harness import (MetricsReport, aggregate, build_instance_graph,
                      build_occupancy_grid, run_episode, stage1_terms, write_csv,
                      write_json, write_report, write_trace_csv)
from .rewards import LEGS, ContactTimeline, total_reward
from .scenario import Scenario, load_scenario

EXIT_CONFIG = 3
EXIT_IO = 4


def _exit_codes(command):
    """The one error boundary, shared by every command: a command raises, and
    its failure becomes one `error:` line and an exit code, 4 for I/O and 3
    for a config, scenario or plan fault. click's usage errors keep exit 2."""
    @functools.wraps(command)
    def boundary(*args, **kwargs):
        try:
            return command(*args, **kwargs)
        except (OSError, LocomanError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_IO if isinstance(exc, OSError) else EXIT_CONFIG)
    return boundary


@click.group()
def main():
    """Deterministic mobile-manipulation planning & evaluation toolkit."""


@contextlib.contextmanager
def _writing(out: Path):
    """Name `out` in an I/O failure of the block."""
    try:
        yield
    except OSError as exc:
        raise OSError(f"cannot write {out}: {exc}") from exc


def _load_runnable(path: Path) -> tuple[Scenario, tuple]:
    """load_scenario and the scenario's `build_instance_graph` pair, which
    every episode of the scenario reads; rejects what no episode can start:
    an empty plan (a scene, enough for a grid) or two objects fused into one
    node."""
    scenario = load_scenario(path)
    if not scenario.plan:
        raise ValidationError(f"{path}.plan: plan is empty")
    return scenario, build_instance_graph(scenario, where=str(path))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_one(task) -> MetricsReport:
    """Run one episode, in the calling process or a worker, and write its
    trace and report; return only the metrics, so a worker sends back a
    report and never a trace. The task carries its scenario's instance graph,
    built once by `_load_runnable`: a forked worker inherits it and a spawned
    one unpickles it."""
    scenario, k, ep_dir, dt, seed, cfg, instances = task
    result = run_episode(scenario, dt=dt, master_seed=seed, episode_index=k,
                         config=cfg, instances=instances)
    ep_dir.mkdir(parents=True, exist_ok=True)
    write_trace_csv(result.trace, ep_dir / "trace.csv")
    write_report(result.metrics, ep_dir / "report.json",
                 extra={"scenario": scenario.name, "episode": k,
                        "outcomes": to_dict(result.outcomes)})
    return result.metrics


def _start_method() -> str:
    """How `run` starts the worker processes beside the calling one: `fork`
    where the platform has it and the caller runs one thread, as forked
    workers inherit the imported modules, where spawned ones re-import numpy
    and locoman (0.34-0.46 s each on a 2-core box), more than a short run
    saves. A lock held by another thread at fork time would stay locked in
    the child, so threaded callers get `spawn`."""
    import multiprocessing
    if "fork" in multiprocessing.get_all_start_methods() \
            and threading.active_count() == 1:
        return "fork"
    return "spawn"


def _claim(next_task, n: int):
    """The index of the next task no runner has taken, or None once all
    `n` are taken."""
    with next_task.get_lock():
        i = next_task.value
        if i >= n:
            return None
        next_task.value = i + 1
    return i


def _worker(tasks, next_task, conn) -> None:
    """A worker process: run the tasks it claims until none are left, sending
    `(index, MetricsReport)` for each, or `(index, exception)` for the first
    that fails and then stopping."""
    with conn:
        while (i := _claim(next_task, len(tasks))) is not None:
            try:
                conn.send((i, _run_one(tasks[i])))
            except Exception as exc:
                conn.send((i, exc))
                return


def _run_all(tasks, jobs: int) -> list[MetricsReport]:
    """Every task's report, in task order. With `jobs` > 1, up to `jobs` - 1
    worker processes run tasks beside this one, each runner claiming the next
    untaken task from a shared counter, so unequal episodes stay balanced.
    No worker outlives the call: a failure stops the hand-out, and every
    worker is collected and joined before it propagates. A worker's error is
    re-raised here, the lowest task's first; a worker that exits without
    sending its reports raises ChildProcessError."""
    workers = min(jobs, len(tasks))
    if workers == 1:
        return [_run_one(t) for t in tasks]
    # imported here, as only a pool needs them: at module level they cost
    # every `import locoman.cli` some 8 ms
    import multiprocessing
    from multiprocessing.connection import wait
    ctx = multiprocessing.get_context(_start_method())
    next_task = ctx.Value("q", 0)
    reports, errors, conns, procs = {}, {}, [], []

    def collect(timeout):
        for conn in wait(conns, timeout):
            try:
                i, result = conn.recv()
            except EOFError:  # the worker has exited
                conns.remove(conn)
                conn.close()
            else:
                (errors if isinstance(result, BaseException) else reports)[i] = result

    try:
        for _ in range(workers - 1):
            conn, child_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(tasks, next_task, child_end),
                               daemon=True)
            proc.start()
            child_end.close()
            conns.append(conn)
            procs.append(proc)
        while not errors and (i := _claim(next_task, len(tasks))) is not None:
            reports[i] = _run_one(tasks[i])
            collect(0)
    finally:
        with next_task.get_lock():
            next_task.value = len(tasks)
        while conns:
            collect(None)
        for proc in procs:
            proc.join()
    if errors:
        raise errors[min(errors)]
    if len(reports) < len(tasks):
        codes = ", ".join(str(proc.exitcode) for proc in procs if proc.exitcode)
        raise ChildProcessError(f"a worker process ended (exit code {codes}) before "
                                f"sending the reports of {len(tasks) - len(reports)} "
                                f"episode(s)")
    return [reports[i] for i in range(len(tasks))]


@main.command()
@click.argument("scenarios", nargs=-1, required=True,
                type=click.Path(path_type=Path))
@click.option("--episodes", default=1, show_default=True, type=click.IntRange(min=1),
              help="Episodes per scenario.")
@click.option("--seed", default=None, type=click.IntRange(min=0),
              help="Master seed; episode i uses stream i. Default: each "
                   "scenario's own seed.")
@click.option("--dt", default=0.02, show_default=True, type=float)
@click.option("--jobs", default=1, show_default=True, type=click.IntRange(min=1))
@click.option("--out", required=True, type=click.Path(path_type=Path),
              help="Run directory for traces, reports, and the manifest.")
@click.option("--config", "config_path", default=None, type=click.Path(path_type=Path))
@click.option("--tau-base", default=None, type=float,
              help="Override base velocity lag (seconds).")
@click.option("--ee-rate", default=None, type=float)
@click.option("--noise-pos", default=None, type=float)
@click.option("--noise-ori", default=None, type=float)
@_exit_codes
def run(scenarios, episodes, seed, dt, jobs, out, config_path,
        tau_base, ee_rate, noise_pos, noise_ori):
    """Run scenario episodes and write traces plus an aggregate report."""
    if not (math.isfinite(dt) and dt > 0):
        raise click.BadParameter(f"must be finite and > 0, got {dt!r}", param_hint="'--dt'")
    cfg = Config.load(config_path) if config_path else Config()
    overrides = {"tau_base": tau_base, "ee_rate": ee_rate,
                 "noise_pos": noise_pos, "noise_ori": noise_ori}
    try:
        cfg = dataclasses.replace(cfg, tracking=dataclasses.replace(
            cfg.tracking, **{k: v for k, v in overrides.items() if v is not None}))
    except ValueError as exc:  # TrackingConfig names the field a flag set
        name, message = exc.args
        raise click.BadParameter(message, param_hint=f"'--{name.replace('_', '-')}'") from None

    paths: list[Path] = []
    for s in scenarios:
        if s.is_dir():
            paths.extend(sorted(s.glob("*.yaml")))
        else:
            paths.append(s)
    if not paths:
        raise click.UsageError("no scenario files given")
    loaded = [(p, *_load_runnable(p)) for p in paths]
    first = {}
    for p, scenario, _ in loaded:  # each scenario's episodes write under its name
        if scenario.name in first:
            raise ValidationError(f"{p}.name: {scenario.name!r} is also the name "
                                  f"of {first[scenario.name]}")
        first[scenario.name] = p

    tasks = [(scenario, k, out / scenario.name / f"episode_{k}", dt, seed, cfg, instances)
             for _, scenario, instances in loaded for k in range(episodes)]
    manifest = {
        "scenarios": [{"path": str(p), "sha256": _sha256(p)} for p, _, _ in loaded],
        "episodes": episodes, "seed": seed, "dt": dt,
        "tracking": to_dict(cfg.tracking),
        "config_hash": cfg.digest(),
    }
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        write_report(aggregate(_run_all(tasks, jobs)), out / "aggregate.json")
        write_json(manifest, out / "manifest.json")


_TIMELINE_TERMS = ("ee_pos", "ee_ori", "torque_base", "acc_base", "power_base",
                   "torque_arm", "acc_arm", "power_arm", "smooth")
_VELOCITY_COLUMNS = ("cmd_vx", "cmd_vy", "cmd_w", "act_vx", "act_vy", "act_w")


def _timeline_row(row: dict) -> tuple[dict[str, float], tuple[bool, ...]]:
    """Numbers and contact flags (in LEGS order) of one timeline row. `t` and
    the contact columns are required; an empty or absent optional column
    reads 0."""
    values = {}
    for name in ("t",) + _VELOCITY_COLUMNS + _TIMELINE_TERMS:
        text = row.get(name)
        if name == "t" and not text:
            raise ValueError("column t: missing")
        try:
            value = float(text or 0)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise ValueError(f"column {name}: expected a number, got {text!r}")
        values[name] = value
    contacts = []
    for leg in LEGS:
        text = row.get(f"contact_{leg}")
        if text is None:
            raise ValueError(f"column contact_{leg}: missing")
        flag = text.strip()
        if flag not in ("0", "1", "false", "true", "False", "True"):
            raise ValueError(f"column contact_{leg}: expected 0, 1, false or true, "
                             f"got {text!r}")
        contacts.append(flag in ("1", "true", "True"))
    return values, tuple(contacts)


@main.command()
@click.argument("timeline", type=click.Path(path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path))
@click.option("--config", "config_path", default=None, type=click.Path(path_type=Path))
@_exit_codes
def rewards(timeline, out, config_path):
    """Evaluate every reward term per tick of a recorded contact timeline.

    Input CSV needs t and contact_FL/FR/RL/RR columns; base velocity columns
    (cmd_vx, act_vx, ...) and precomputed term-value columns are optional and
    default to perfect tracking / zero."""
    cfg = Config.load(config_path) if config_path else Config()
    weights = cfg.reward_weights
    rows = read_file(timeline, lambda fh: list(csv.DictReader(fh)))

    ticks, contacts, dts = [], [], []
    prev_t = None
    for i, row in enumerate(rows, start=1):
        try:
            values, flags = _timeline_row(row)
            t = values["t"]
            if prev_t is not None and t <= prev_t:
                raise ValueError(f"column t: {t!r} does not increase on {prev_t!r}")
        except ValueError as exc:
            raise ValidationError(f"{timeline} row {i}: {exc}") from None
        dts.append((t - prev_t) if prev_t is not None else 0.02)
        prev_t = t
        ticks.append(values)
        contacts.append(flags)

    t = np.array([v["t"] for v in ticks], dtype=float)
    velocity = np.array([[v[name] for name in _VELOCITY_COLUMNS] for v in ticks],
                        dtype=float).reshape(-1, len(_VELOCITY_COLUMNS))
    tl = ContactTimeline()
    tl.update(contacts, dts, t)
    terms = stage1_terms(cfg, velocity[:, :3], velocity[:, 3:], tl)
    terms.update((name, np.array([v[name] for v in ticks], dtype=float))
                 for name in _TIMELINE_TERMS)
    terms.update(total_stage1=total_reward(1, terms, weights),
                 total_stage2=total_reward(2, terms, weights))
    columns = ["t", *sorted(terms)] if ticks else ["t"]
    out_rows = zip(t.tolist(), *(terms[name].tolist() for name in columns[1:]))

    with _writing(out):
        write_csv(out, columns, out_rows)


@main.command()
@click.argument("scenario", type=click.Path(path_type=Path))
@_exit_codes
def validate(scenario):
    """Validate a scenario file; nonzero exit with a located message on error."""
    _load_runnable(scenario)
    click.echo("ok")


@main.command("export-grid")
@click.argument("scenario", type=click.Path(path_type=Path))
@click.option("--out", required=True, type=click.Path(path_type=Path),
              help="Output prefix; writes <prefix>.pgm and <prefix>.hdr.")
@_exit_codes
def export_grid(scenario, out):
    """Rasterize a scenario's occupancy grid to a portable graymap."""
    grid = build_occupancy_grid(load_scenario(scenario))
    with _writing(out):
        out.parent.mkdir(parents=True, exist_ok=True)
        grid.export_raster(str(out) + ".pgm", str(out) + ".hdr")


if __name__ == "__main__":
    main()
