"""Dead-surface guard. The run path is `src/locoman/` outside `training.py`
(a re-export in the package `__init__.py` is not a use) plus `benchmarks/`;
`training` holds the paper's training setup that `run` never reaches. No
run-path statement names a `training` definition; every module-level
function and class of the run path is reached from the run path or wrapped
by a benchmark tracer target; every method of a `src/locoman/` class is
reached (a run-path class's from the run path); every function the benchmark
tracer wraps exists; and small-vector arithmetic has one implementation, in
`geometry`."""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# a package re-export is not a use: `__init__.py` imports every public name
SRC = sorted(p for p in (ROOT / "src" / "locoman").glob("*.py") if p.name != "__init__.py")
TRAINING = ROOT / "src" / "locoman" / "training.py"
RUN_PATH = [p for p in SRC if p != TRAINING]
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))


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


def _trees() -> dict:
    return {path: ast.parse(path.read_text()) for path in SRC + BENCHMARKS}


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "benchmarks" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def training_names_on_run_path():
    """`file:line: name` for every top-level run-path statement that names a
    module-level definition of `training` (function, class or constant) or
    imports from the `training` module."""
    trees = _trees()
    training = {"training"}
    for node in trees[TRAINING].body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            training.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            training |= {t.id for t in ast.walk(node) if isinstance(t, ast.Name)
                         and isinstance(t.ctx, ast.Store)}
    out = []
    for path in RUN_PATH + BENCHMARKS:
        for node in trees[path].body:
            names = set(_names(node))
            names |= {n.module.rsplit(".", 1)[-1] for n in ast.walk(node)
                      if isinstance(n, ast.ImportFrom) and n.module}
            out += [f"{path.name}:{node.lineno}: {name}" for name in sorted(names & training)]
    return out


def test_run_path_names_no_training_definition():
    assert training_names_on_run_path() == []


def unreached_run_path_definitions():
    """Module-level functions and classes of the run path's `src/` modules
    that no other top-level run-path statement names and no tracer target
    wraps in their own module. A definition naming itself does not count,
    nor does a `benchmarks/` mention of a name that `benchmarks/` defines too
    (a call of `ref.f` reaches the benchmarks' own `f`, not a `src/` function
    of that name), nor a `training` statement."""
    trees = _trees()
    own = {n.name for path in BENCHMARKS for n in ast.walk(trees[path])
           if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    wrapped = {(path, attr) for path, attr, _, _ in _tracer().TARGETS}
    statements = [(node, _names(node).keys() - (own if path in BENCHMARKS else set()))
                  for path in RUN_PATH + BENCHMARKS for node in trees[path].body]
    return sorted(f"{path.stem}.{d.name}" for path in RUN_PATH for d in trees[path].body
                  if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not _is_command(d)
                  and (f"locoman.{path.stem}", d.name) not in wrapped
                  and not any(d.name in names for node, names in statements if node is not d))


def test_every_run_path_definition_is_reached():
    assert unreached_run_path_definitions() == []


def test_cli_import_loads_no_training():
    """`locoman run` loads the run path only: a fresh `import locoman.cli`
    imports neither `locoman.training` nor a `locoman.sampling` module."""
    code = ("import sys, locoman.cli; print([m for m in ('locoman.training', "
            "'locoman.sampling') if m in sys.modules])")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=path), check=True)
    assert out.stdout.strip() == "[]"


def unreached_methods():
    """`Class.method` for every method of a `src/locoman/` class, dunders
    aside, that nothing names outside its own body: the run path for a
    run-path class, the run path or `training` for a `training` class."""
    trees = _trees()
    run_path = sum((_names(trees[p]) for p in RUN_PATH + BENCHMARKS), Counter())
    everywhere = run_path + _names(trees[TRAINING])
    return sorted(f"{cls.name}.{m.name}" for path in SRC
                  for mentioned in [everywhere if path == TRAINING else run_path]
                  for cls in trees[path].body if isinstance(cls, ast.ClassDef)
                  for m in cls.body if isinstance(m, ast.FunctionDef)
                  and not m.name.startswith("__")
                  and mentioned[m.name] == _names(m)[m.name])


def test_every_method_is_reached():
    assert unreached_methods() == []


def test_tracer_targets_resolve():
    """A function the benchmark tracer cannot find leaves its per-layer span
    at 0 with only a warning, so a move or rename must fail here instead."""
    tracer = _tracer()
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
