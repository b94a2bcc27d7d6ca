"""cart_suite: the user's evaluation loop, `locoman run` in process.

One operation is one `locoman run scenarios/cart_delivery.yaml --jobs 2
--episodes 2` call with base lag and end-effector noise, writing every
artefact. A round is SEEDS_PER_ROUND calls with distinct master seeds drawn
from the benchmark seed; later rounds repeat them, so every artefact must
come back byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import yaml

import reference as ref

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "cart_delivery.yaml"
EPISODES = 2            # both job slots get an episode
SEEDS_PER_ROUND = 4
DT = 0.02
FLAGS = ["--jobs", "2", "--episodes", str(EPISODES), "--dt", repr(DT),
         "--tau-base", "0.1", "--noise-pos", "0.002", "--noise-ori", "0.01"]
FOOTPRINT, CELL = 0.30, 0.1
OUTCOMES = 6


class Workload:
    imports = ("locoman.cli",)
    unit = f"locoman run call of {EPISODES} episodes"

    def __init__(self, seed, run_dir):
        from locoman import cli, harness
        self.cli, self.harness = cli, harness
        self.scenario_path = SCENARIO
        self.out = run_dir / "out"
        self.seeds = [int(s) for s in
                      np.random.default_rng(seed).integers(0, 2**31 - 1, SEEDS_PER_ROUND)]
        with open(self.scenario_path) as fh:
            self.boxes = [(b["min"], b["max"]) for b in yaml.safe_load(fh)["static_obstacles"]]

    def setup(self):
        """Program-side set-up: what `run` does before its first tick."""
        scenario = self.harness.load_scenario(self.scenario_path)
        self.harness.build_occupancy_grid(scenario)

    def prepare(self):
        self.digests = {}

    @property
    def n_ops(self):
        return SEEDS_PER_ROUND

    def start_round(self):
        pass

    def op(self, i):
        args = ["run", str(self.scenario_path), "--seed", str(self.seeds[i]),
                "--out", str(self.out)] + FLAGS
        try:
            self.cli.main.main(args=args, standalone_mode=True)
        except SystemExit as exc:
            return exc.code
        return None

    def artefact_bytes(self):
        return sum(p.stat().st_size for p in self.out.rglob("*") if p.is_file())

    # -- checks ---------------------------------------------------------------

    def check(self, i, code):
        if code != 0:
            return [f"exit code {code}"]
        files = sorted(p for p in self.out.rglob("*") if p.is_file())
        digest = {str(p.relative_to(self.out)): hashlib.sha256(p.read_bytes()).hexdigest()
                  for p in files}
        if i in self.digests:
            return [] if digest == self.digests[i] else \
                ["artefacts differ from the first call with the same seed"]
        self.digests[i] = digest
        problems = []
        for k in range(EPISODES):
            ep = self.out / "cart_delivery" / f"episode_{k}"
            problems += self._check_report(ep / "report.json")
            problems += self._check_trace(ep / "trace.csv")
        for name in ("aggregate.json", "manifest.json"):
            if not (self.out / name).is_file():
                problems.append(f"{name} missing")
        return problems

    def _check_report(self, path):
        with open(path) as fh:
            rep = json.load(fh)
        outcomes = rep.get("outcomes", [])
        if rep.get("overall") is not True or len(outcomes) != OUTCOMES or \
                not all(o["success"] for o in outcomes):
            return [f"{path.parent.name}: not every action succeeded"]
        return []

    def _check_trace(self, path):
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            return [f"{path.parent.name}: empty trace"]
        v = {k: [float(r[k]) for r in rows] for k in rows[0] if k != "action_index"}
        where = path.parent.name
        problems = []
        t_prev = 0.0
        for t in v["t"]:
            if t != t_prev + DT:
                problems.append(f"{where}: t steps from {t_prev!r} to {t!r}")
                break
            t_prev = t
        for n in range(len(rows)):
            xy = ref.track_xy(v["cmd_vx"][n], v["cmd_vy"][n], v["act_vx"][n], v["act_vy"][n])
            yaw = ref.track_yaw(v["cmd_w"][n], v["act_w"][n])
            total = ref.stage1_total(xy, yaw, v["r_gait"][n], v["r_freq"][n])
            if not (math.isclose(xy, v["r_track_xy"][n], rel_tol=1e-12, abs_tol=1e-12)
                    and math.isclose(yaw, v["r_track_yaw"][n], rel_tol=1e-12, abs_tol=1e-12)
                    and math.isclose(total, v["total_stage1"][n], rel_tol=1e-12,
                                     abs_tol=1e-12)):
                problems.append(f"{where}: reward terms disagree at t={v['t'][n]!r}")
                break
        clearance = min(ref.point_box_distance(x, y, lo, hi)
                        for x, y in zip(v["base_x"], v["base_y"]) for lo, hi in self.boxes)
        if clearance < FOOTPRINT - CELL:
            problems.append(f"{where}: base {clearance:.3f} m from a static obstacle")
        return problems

    def finish(self):
        return {}
