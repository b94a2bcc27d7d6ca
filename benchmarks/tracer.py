"""Per-layer spans recorded from the benchmark's side.

The tracer wraps the program's public functions where their callers look
them up (for example `harness.footprint_clear`, which `harness` imported by
name, and `navgrid.footprint_clear`, which `find_goal_pose` finds through
`navgrid`'s globals), and restores the originals on exit. Each call records a
span (name, start, end, parent) into an in-memory buffer; the buffer is
folded into per-layer totals after each operation, outside its timing. A
span's self time is its duration minus the part of it covered by its child
spans, so a pool thread's episodes are subtracted from `cli.run` once even
though they overlap.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import defaultdict

# (owner path, attribute, span name, extra): the owner path is a module, a
# class in it, or a click command (whose `callback` is wrapped).
TARGETS = [
    ("locoman.cli:run", "callback", "cli.run", None),
    ("locoman.cli", "run_episode", "harness.run_episode", "cpu"),
    ("locoman.cli", "load_scenario", "harness.load_scenario", None),
    ("locoman.harness", "load_scenario", "harness.load_scenario", None),
    ("locoman.cli", "build_occupancy_grid", "harness.build_occupancy_grid", None),
    ("locoman.harness", "build_occupancy_grid", "harness.build_occupancy_grid", None),
    ("locoman.cli", "write_trace_csv", "harness.write_trace_csv", None),
    ("locoman.cli", "write_report", "harness.write_report", None),
    ("locoman.harness:EpisodeRunner", "tick", "harness.EpisodeRunner.tick", None),
    ("locoman.harness", "step", "harness.step", None),
    ("locoman.harness", "footprint_clear", "navgrid.footprint_clear", None),
    ("locoman.navgrid", "footprint_clear", "navgrid.footprint_clear", None),
    ("locoman.harness", "find_goal_pose", "navgrid.find_goal_pose", None),
    ("locoman.navgrid", "find_goal_pose", "navgrid.find_goal_pose", None),
    ("locoman.harness", "plan_path", "navgrid.plan_path", "path"),
    ("locoman.navgrid", "plan_path", "navgrid.plan_path", "path"),
    ("locoman.navgrid", "blocked_mask", "navgrid.blocked_mask", None),
    ("locoman.navgrid:OccupancyGrid", "integrate_scan", "navgrid.integrate_scan", "cells"),
    ("locoman.navgrid", "bresenham", "navgrid.bresenham", None),
    ("locoman.harness", "r_gait", "rewards.r_gait", None),
    ("locoman.harness", "r_freq", "rewards.r_freq", None),
    ("locoman.harness", "r_track_xy", "rewards.r_track_xy", None),
    ("locoman.harness", "r_track_yaw", "rewards.r_track_yaw", None),
    ("locoman.harness", "total_reward", "rewards.total_reward", None),
    ("locoman.rewards:ContactTimeline", "update", "rewards.ContactTimeline.update", None),
    ("locoman.harness", "monitor_step", "planning.monitor_step", None),
    ("locoman.harness", "decompose", "planning.decompose", None),
    ("locoman.fusion:InstanceGraph", "ingest_detection",
     "fusion.InstanceGraph.ingest_detection", "merge"),
    ("locoman.fusion", "geometric_similarity", "fusion.geometric_similarity", None),
    ("locoman.fusion", "voxel_downsample", "fusion.voxel_downsample", None),
    ("locoman.harness", "ground_action", "grounding.ground_action", None),
]

# Per-layer metrics, per operation of the traced run: (name, unit, better).
SELF_MS = ["cli.run", "harness.EpisodeRunner.tick", "harness.step",
           "harness.load_scenario", "harness.build_occupancy_grid",
           "harness.write_trace_csv", "harness.write_report",
           "navgrid.footprint_clear", "navgrid.find_goal_pose", "navgrid.plan_path",
           "navgrid.blocked_mask", "navgrid.integrate_scan",
           "rewards.r_gait", "rewards.r_freq", "rewards.r_track_xy", "rewards.r_track_yaw",
           "rewards.total_reward", "rewards.ContactTimeline.update",
           "planning.monitor_step", "planning.decompose",
           "fusion.InstanceGraph.ingest_detection", "fusion.voxel_downsample",
           "grounding.ground_action"]
CALLS = ["harness.EpisodeRunner.tick", "navgrid.footprint_clear", "navgrid.find_goal_pose",
         "navgrid.plan_path", "navgrid.blocked_mask", "navgrid.bresenham",
         "fusion.InstanceGraph.ingest_detection", "fusion.geometric_similarity"]
METRICS = (
    [(f"{n}.self_ms", "ms", "lower") for n in SELF_MS]
    + [(f"{n}.calls", "count", "lower") for n in CALLS]
    + [("cli.episode_wait_ms", "ms", "lower"), ("cli.cpu_ms", "ms", "lower"),
       ("harness.artefact_kb", "kB", "lower"),
       ("navgrid.find_goal_pose.candidates", "count", "lower"),
       ("navgrid.plan_path.path_cells", "count", "lower"),
       ("navgrid.grid_cells", "count", "lower"),
       ("fusion.merge_ratio", "ratio", "higher"),
       ("trace.ops_per_s", "1/s", "higher"), ("trace.untraced_ops_per_s", "1/s", "higher"),
       ("trace.overhead_pct", "%", "lower")])


def _resolve(path):
    module, _, attr = path.partition(":")
    owner = sys.modules.get(module)
    if owner is None:
        __import__(module)
        owner = sys.modules[module]
    return getattr(owner, attr) if attr else owner


def _covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


class Tracer:
    """Installs the span wrappers while in a `with` block."""

    def __init__(self, work):
        self.work = work
        self.spans = []
        self._local = threading.local()
        self._root = None
        self._patches = []
        self.ops = []           # per traced operation: (times in ms, counts)

    def __enter__(self):
        for path, attr, name, extra in TARGETS:
            owner = _resolve(path)
            original = vars(owner).get(attr)
            if original is None:
                print(f"tracer: {path}.{attr} not found; {name} stays unmeasured",
                      file=sys.stderr)
                continue
            setattr(owner, attr, self._wrap(name, original, extra))
            self._patches.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def _wrap(self, name, fn, extra):
        local, spans, clock, tracer = self._local, self.spans, time.perf_counter, self

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else tracer._root
            rec = [name, 0.0, 0.0, parent, None]
            if not stack and threading.current_thread() is threading.main_thread():
                tracer._root = rec
            stack.append(rec)
            before = (time.thread_time() if extra == "cpu" else
                      len(args[0]) if extra == "merge" else None)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if tracer._root is rec:
                    tracer._root = None
                spans.append(rec)
            if extra == "cpu":
                rec[4] = time.thread_time() - before
            elif extra == "merge":
                rec[4] = 1 if len(args[0]) == before else 0
            elif extra == "path":
                rec[4] = (len(result), args[0].cells.size)
            elif extra == "cells":
                rec[4] = args[0].cells.size
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- per-operation folding ---------------------------------------------

    def begin_op(self, i):
        self._cpu0 = os.times()

    def end_op(self, i):
        """Fold the operation's spans into its own totals: times in ms, to be
        rescaled with the operation's speed factor, and counts."""
        t = os.times()
        ms = defaultdict(float)
        counts = defaultdict(float)
        ms["cli.cpu_ms"] = 1e3 * sum(b - a for a, b in zip(self._cpu0[:4], t[:4]))
        if hasattr(self.work, "artefact_bytes"):
            counts["harness.artefact_kb"] = self.work.artefact_bytes() / 1024.0
        spans = self.spans[:]
        del self.spans[:]
        children = defaultdict(list)
        for rec in spans:
            if rec[3] is not None:
                children[id(rec[3])].append((rec[1], rec[2]))
        for rec in spans:
            name, t0, t1, parent, extra = rec
            covered = _covered(t0, t1, children.get(id(rec), ()))
            ms[f"{name}.self_ms"] += 1e3 * ((t1 - t0) - covered)
            counts[f"{name}.calls"] += 1
            if name == "navgrid.footprint_clear" and parent is not None \
                    and parent[0] == "navgrid.find_goal_pose":
                counts["candidates"] += 1
            elif name == "harness.run_episode":
                ms["cli.episode_wait_ms"] += 1e3 * ((t1 - t0) - extra)
            elif name == "navgrid.plan_path":
                counts["path_cells"] += extra[0]
                counts["navgrid.grid_cells"] = max(counts["navgrid.grid_cells"], extra[1])
            elif name == "navgrid.integrate_scan":
                counts["navgrid.grid_cells"] = max(counts["navgrid.grid_cells"], extra)
            elif name == "fusion.InstanceGraph.ingest_detection":
                counts["merged"] += extra
        self.ops.append((ms, counts))

    def metrics(self, factors):
        """Per-operation means over the traced operations, as {name: (value,
        unit)}; `factors` rescale each operation's times to the reference
        speed."""
        n = max(len(self.ops), 1)
        ms, counts = defaultdict(float), defaultdict(float)
        for (op_ms, op_counts), f in zip(self.ops, factors):
            for k, v in op_ms.items():
                ms[k] += v * f
            for k, v in op_counts.items():
                counts[k] += v

        def ratio(a, b):
            return a / b if b else 0.0

        values = {k: v / n for k, v in {**ms, **counts}.items()}
        values["navgrid.find_goal_pose.candidates"] = ratio(
            counts["candidates"], counts["navgrid.find_goal_pose.calls"])
        values["navgrid.plan_path.path_cells"] = ratio(
            counts["path_cells"], counts["navgrid.plan_path.calls"])
        values["fusion.merge_ratio"] = ratio(
            counts["merged"], counts["fusion.InstanceGraph.ingest_detection.calls"])
        return {name: (values.get(name, 0.0), unit) for name, unit, _ in METRICS
                if not name.startswith("trace.")}
