"""Dead-surface guard: every module-level function and class in
`src/locoman/` is reached from `src/` or `benchmarks/` (a re-export in the
package `__init__.py` does not count), or is library-only
with a paper role named in LIBRARY_ONLY; every method of a `src/locoman/`
class is reached; every function the benchmark tracer wraps exists; and
small-vector arithmetic has one implementation, in `geometry`."""

import ast
import importlib.util
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a package re-export is not a use: `__init__.py` imports every public name
SRC = sorted(p for p in (ROOT / "src" / "locoman").glob("*.py") if p.name != "__init__.py")
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))

# names `run` never reaches, kept for the paper table or criterion they transcribe
LIBRARY_ONLY = {
    "r_ee_pos": "reward weight table: end-effector position tracking (stage 2)",
    "r_ee_ori": "reward weight table: end-effector orientation tracking (stage 2)",
    "r_torque": "reward weight table: torque regularization, base and arm",
    "r_acc": "reward weight table: joint acceleration regularization, base and arm",
    "r_power": "reward weight table: mechanical power regularization, base and arm",
    "r_smooth": "reward weight table: action smoothness",
    "pd_torque": "PD joint control with the paper's gains (rewards.PdGains)",
    "apply_action": "policy action as an offset from the default joint configuration",
    "assemble_observation": "the whole-body policy's observation layout",
    "HeightmapSpec": "the terrain heightmap block of the observation",
    "sample_episode_randomization": "domain randomization table "
                                    "(sampling.RandomizationConfig)",
    "quat_from_euler": "end-effector orientation commands (alpha, beta, gamma); "
                       "criterion 5 tilts the base with it",
    "bresenham": "the integer ray of scan integration, one ray at a time; the "
                 "oracle of integrate_scan's lockstep rays",
    "PdGains": "PD gains table (kp, kd per leg and arm joint) that pd_torque takes",
    "sample_locomotion_command": "base velocity command sampling over the "
                                 "command-range table (sampling.COMMAND_RANGES)",
    "sample_ee_target": "6-D end-effector target sampling over the command-range "
                        "table, terrain-invariant in height",
}


def _names(node) -> Counter:
    """Identifiers a node mentions, with their counts: names, attributes and
    imported names."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
    return out


def _is_command(node) -> bool:
    return any(".command" in ast.unparse(d) for d in node.decorator_list)


def definitions_and_unreached():
    """All module-level functions and classes of `src/locoman/`, and those of
    them that no other top-level statement in `src/` or `benchmarks/` names.
    A definition naming itself does not count, nor does a `benchmarks/`
    mention of a name that `benchmarks/` defines too (a call of `ref.f`
    reaches the benchmarks' own `f`, not a `src/` function of that name)."""
    trees = {path: ast.parse(path.read_text()) for path in SRC + BENCHMARKS}
    own = {n.name for path in BENCHMARKS for n in ast.walk(trees[path])
           if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    statements, defined = [], []
    for path, tree in trees.items():
        for node in tree.body:
            names = _names(node).keys() - (own if path in BENCHMARKS else set())
            statements.append((node, names))
            is_def = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if path in SRC and is_def:
                defined.append(node)
    unreached = {d.name for d in defined if not _is_command(d)
                 and not any(d.name in names for node, names in statements if node is not d)}
    return {d.name for d in defined}, unreached


def test_every_definition_is_reached_or_library_only():
    _, unreached = definitions_and_unreached()
    assert sorted(unreached - LIBRARY_ONLY.keys()) == []


def test_library_only_names_exist_and_are_unreached():
    defined, unreached = definitions_and_unreached()
    assert sorted(LIBRARY_ONLY.keys() - defined) == []
    assert sorted(LIBRARY_ONLY.keys() - unreached) == []


def unreached_methods():
    """`Class.method` for every method of a `src/locoman/` class, dunders
    aside, that nothing in `src/` or `benchmarks/` names outside its own body."""
    trees = [(path, ast.parse(path.read_text())) for path in SRC + BENCHMARKS]
    mentioned = sum((_names(tree) for _, tree in trees), Counter())
    return sorted(f"{cls.name}.{m.name}" for path, tree in trees if path in SRC
                  for cls in tree.body if isinstance(cls, ast.ClassDef)
                  for m in cls.body if isinstance(m, ast.FunctionDef)
                  and not m.name.startswith("__")
                  and mentioned[m.name] == _names(m)[m.name])


def test_every_method_is_reached():
    assert unreached_methods() == []


def test_tracer_targets_resolve():
    """A function the benchmark tracer cannot find leaves its per-layer span
    at 0 with only a warning, so a move or rename must fail here instead."""
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{path}.{attr}" for path, attr, _, _ in tracer.TARGETS
               if vars(tracer._resolve(path)).get(attr) is None]
    assert missing == []


def small_vector_calls():
    """`module:line: call` for every `np.linalg.norm`, `np.dot`, `.dot` or
    `np.clip` call in `src/locoman/` outside `geometry.py`, and every import
    of those names from numpy."""
    out = []
    for path in SRC:
        if path.name == "geometry.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                call = ast.unparse(n.func)
                if (n.func.attr == "dot" or call in ("np.clip", "numpy.clip")
                        or call.endswith("linalg.norm")):
                    out.append(f"{path.name}:{n.lineno}: {call}")
            elif isinstance(n, ast.ImportFrom) and (n.module or "").startswith("numpy"):
                out += [f"{path.name}:{n.lineno}: from {n.module} import {a.name}"
                        for a in n.names if a.name in ("dot", "clip", "norm")]
    return out


def test_small_vector_arithmetic_lives_in_geometry():
    """`geometry.norm`, `dot` and `unit` and `min(max(v, lo), hi)` are the one
    implementation of each small-vector operation: a second one elsewhere
    is a second place to edit when the float path changes."""
    assert small_vector_calls() == []
