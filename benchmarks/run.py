"""Benchmark runner for locoman.

    python3 benchmarks/run.py --workload {cart_suite,nav_queries,mapping_replan}
                              --seed N --seconds S --trace {0,1}

Run it from the repository root. It builds the workload's inputs from the
seed, times operations against the program in `src/` in whole rounds until
they have taken `--seconds` at the reference speed (below) and at least
MIN_OPS operations have run, checks every
operation's output against independent references, and prints one JSON
object as its last line. `--trace 0` reports the end-to-end metrics;
`--trace 1` alternates untraced rounds with rounds traced by per-layer spans
and reports the per-layer metrics plus the tracing overhead.

Times are rescaled to a reference machine speed. The speed of a shared
machine drifts by tens of percent over tens of seconds, for Python code as a
whole, so a fixed pure-Python speed probe runs between operations (outside
their timing) about every PROBE_EVERY seconds, and each operation's wall time
is multiplied by REF_PROBE_S over the mean of the two probes around it.
"""

from __future__ import annotations

import argparse
import heapq
import importlib
import inspect
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"

WORKLOADS = ("cart_suite", "nav_queries", "mapping_replan")
MIN_OPS = 40          # the tail percentile needs ten samples beyond it
SETUP_REPEATS = 5     # setup_s is the median of this many set-ups
PROBE_EVERY = 0.2     # seconds of operations between speed probes
REF_PROBE_S = 0.005   # the speed probe's duration at the reference speed


def speed_probe():
    """Wall time of a fixed piece of pure-Python work: arithmetic, dict and
    heap traffic, like the program's own inner loops."""
    t0 = time.perf_counter()
    h, d, s = [], {}, 0
    for i in range(6000):
        heapq.heappush(h, (i * 7919) % 1009)
        d[i & 255] = d.get(i & 255, 0) + i
        s += (i * i) % 13
    while h:
        heapq.heappop(h)
    return time.perf_counter() - t0


def tail(samples):
    """Highest percentile with at least ten samples beyond it: the 11th
    largest sample."""
    return sorted(samples)[len(samples) - 11]


def import_seconds(modules):
    """Import time of the workload's modules in a fresh interpreter, rescaled
    by speed probes that interpreter runs around the import."""
    code = "\n".join([
        "import heapq, sys, time",
        inspect.getsource(speed_probe),
        "sys.path.insert(0, sys.argv[1])",
        "before = speed_probe()",
        "t0 = time.perf_counter()",
        *(f"import {m}" for m in modules),
        "wall = time.perf_counter() - t0",
        f"print(wall * {REF_PROBE_S!r} / ((before + speed_probe()) / 2))"])
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.strip().splitlines()[-1])


def measure_setup(work):
    """Median over SETUP_REPEATS of import time plus program-side set-up,
    each rescaled by speed probes taken around it."""
    totals = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds(work.imports)
        before = speed_probe()
        t0 = time.perf_counter()
        work.setup()
        wall = time.perf_counter() - t0
        totals.append(imported + wall * REF_PROBE_S / ((before + speed_probe()) / 2))
    return statistics.median(totals)


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


class Loop:
    """Runs whole rounds of a workload's operations and checks each output."""

    def __init__(self, work):
        self.work = work
        self.wall = []          # wall seconds of every attempted operation
        self.probes = []        # (operations timed before the probe, probe seconds)
        self.attempts = []      # (round, op index) of every attempted operation
        self.raised = {}        # (round, op index) -> exception text
        self.problems = {}      # (round, op index) -> failed output checks
        self.rounds = 0

    def _probe(self):
        self.probes.append((len(self.wall), speed_probe()))
        return time.perf_counter()

    def run(self, seconds, min_ops, before_op=None, after_op=None):
        """Whole rounds until the operations have taken `seconds` at the
        reference speed and `min_ops` have run; returns the range of their
        indices. Counting reference-speed time, not wall time, makes the
        number of rounds a property of the inputs rather than of the
        machine's speed at the moment."""
        work = self.work
        first = len(self.wall)
        timed = 0.0
        last_probe = self._probe()
        while True:
            work.start_round()
            for i in range(work.n_ops):
                key = (self.rounds, i)
                if before_op:
                    before_op(i)
                t0 = time.perf_counter()
                try:
                    out = work.op(i)
                except Exception as exc:  # a program fault fails this operation only
                    self.raised[key] = f"{type(exc).__name__}: {exc}"
                t1 = time.perf_counter()
                if after_op:
                    after_op(i)
                self.wall.append(t1 - t0)
                timed += (t1 - t0) * REF_PROBE_S / self.probes[-1][1]
                self.attempts.append(key)
                if key not in self.raised:
                    problems = work.check(i, out)
                    if problems:
                        self.problems[key] = problems
                if time.perf_counter() - last_probe >= PROBE_EVERY:
                    last_probe = self._probe()
            self.rounds += 1
            if timed >= seconds and len(self.wall) - first >= min_ops:
                self._probe()
                return range(first, len(self.wall))

    def factors(self, ops):
        """Per-operation rescaling to the reference speed, from the mean of
        the probes just before and just after each operation."""
        out, k = [], 0
        for j in ops:
            while self.probes[k + 1][0] <= j:
                k += 1
            out.append(REF_PROBE_S / ((self.probes[k][1] + self.probes[k + 1][1]) / 2))
        return out

    def scaled(self, ops):
        return [self.wall[j] * f for j, f in zip(ops, self.factors(ops))]

    def tally(self, late):
        """(failed, wrong): attempts that raised or failed a check, and those
        of them whose output failed a check. `late` maps an op index to
        problems found after the loop; they fail that index in every round."""
        wrong = [k for k in self.attempts
                 if k not in self.raised and (k in self.problems or k[1] in late)]
        return len(wrong) + len(self.raised), len(wrong)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "locoman" / "__init__.py").is_file():
        print(f"error: no locoman sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import locoman
    if Path(locoman.__file__).resolve().parent != (SRC / "locoman").resolve():
        print(f"error: imported locoman from {locoman.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    run_dir = RUNS / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    work = importlib.import_module(args.workload).Workload(args.seed, run_dir)

    setup_s = measure_setup(work)
    work.prepare()

    loop = Loop(work)
    if args.trace:
        import tracer
        tr = tracer.Tracer(work)
        plain, traced = [], []
        t_end = time.perf_counter() + args.seconds
        while time.perf_counter() < t_end:
            # alternate whole rounds so machine drift hits both sides alike
            plain += loop.run(0, 1)
            with tr:
                traced += loop.run(0, 1, before_op=tr.begin_op, after_op=tr.end_op)
        metrics = tr.metrics(loop.factors(traced))
        ops_plain = len(plain) / sum(loop.scaled(plain))
        ops_traced = len(traced) / sum(loop.scaled(traced))
        metrics["trace.ops_per_s"] = (ops_traced, "1/s")
        metrics["trace.untraced_ops_per_s"] = (ops_plain, "1/s")
        metrics["trace.overhead_pct"] = ((ops_plain / ops_traced - 1.0) * 100.0, "%")
        wall = [loop.wall[j] for j in traced]
    else:
        ops = loop.run(args.seconds, MIN_OPS)
        rss = peak_rss_mb()
        durations = loop.scaled(ops)
        metrics = {
            "ops_per_s": (len(durations) / sum(durations), "1/s"),
            "op_ms_p50": (statistics.median(durations) * 1e3, "ms"),
            "op_ms_tail": (tail(durations) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss, "MB"),
        }
        wall = [loop.wall[j] for j in ops]

    late = work.finish()
    attempted = len(loop.attempts)
    failed, wrong = loop.tally(late)
    raised = {k: [v] for k, v in loop.raised.items()}
    for key, problems in sorted({**loop.problems, **raised}.items())[:5]:
        print(f"FAILED round {key[0]} op {key[1]}: {'; '.join(problems)}", file=sys.stderr)
    for i, problems in sorted(late.items())[:5]:
        print(f"FAILED op {i} (every round): {'; '.join(problems)}", file=sys.stderr)
    shutil.rmtree(run_dir, ignore_errors=True)

    probes = [p for _, p in loop.probes]
    print(f"# {args.workload}: seed {args.seed}, {loop.rounds} rounds of {work.n_ops} "
          f"ops (1 op = 1 {work.unit}), trace {args.trace}")
    print(f"# unscaled wall: {len(wall) / sum(wall):.6g} ops/s, median "
          f"{statistics.median(wall) * 1e3:.6g} ms; speed probe median "
          f"{statistics.median(probes) * 1e3:.4g} ms (reference {REF_PROBE_S * 1e3:g} ms)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
