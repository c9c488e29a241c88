"""Process start: wanderlab keeps numpy's idle OpenBLAS threads from spinning.

OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, as numpy loads; wanderlab
sets it (unless the caller did) before its first numpy import.  That is
safe only because wanderlab itself makes no BLAS call.  Beside that scan
sits a second one: every top-level name of src/wanderlab is read somewhere.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wanderlab

SRC = Path(wanderlab.__file__).resolve().parents[1]

# records the variable at the moment numpy is first imported, then imports
# wanderlab's scenario engine the way a library user does
_PROBE = """
import os, sys

seen = []

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

assert "numpy" not in sys.modules
sys.meta_path.insert(0, Watch())
import wanderlab.scenario
assert len(seen) == 1, seen
print(repr(seen[0]))
"""


def _fresh_python(code, env):
    """The standard output of code run in a fresh interpreter that imports
    wanderlab from SRC, with env as its environment."""
    env = dict(env, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def _timeout_at_numpy_import(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    return _fresh_python(_PROBE, env)


@pytest.mark.parametrize("preset, seen", [(None, "'4'"), ("20", "'20'")])
def test_openblas_thread_timeout_is_set_before_numpy_loads(preset, seen):
    assert _timeout_at_numpy_import(preset) == seen


def test_scenario_import_leaves_the_raster_pool_out():
    # dynamics imports concurrent.futures only where a raster forks its pool
    probe = "import sys, wanderlab.scenario; print('concurrent.futures.process' in sys.modules)"
    assert _fresh_python(probe, os.environ) == "False"


_BLAS_ATTRS = {"linalg", "dot", "vdot", "inner", "matmul", "tensordot", "einsum"}


def test_wanderlab_makes_no_blas_call():
    # the timeout only turns an idle wait into a sleep; this pins "idle"
    found = []
    for path in sorted((SRC / "wanderlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in _BLAS_ATTRS:
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.alias) and node.name in _BLAS_ATTRS:
                found.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.MatMult):
                found.append((path.name, 0, "@"))
    assert found == []


def test_each_box_rule_has_one_owner():
    # numerics._first_code picks every reason code, and regions._within and
    # _apart make every open-or-closed comparison
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in sorted((SRC / "wanderlab").glob("*.py"))}
    assert [name for name, text in texts.items() if "!= NONE" in text] == ["numerics.py"]
    assert "if self.closed" not in texts["regions.py"]


def test_no_function_takes_a_derivative_map():
    # maps.derivative owns f': a form that needs f' or f'' derives it from
    # the map it encloses, so no caller can pass the derivative of another
    found = [(path.name, node.lineno, arg.arg)
             for path in sorted((SRC / "wanderlab").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
             for arg in [*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs]
             if arg.arg in ("dm", "d2m")]
    assert found == []


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_every_top_level_name_is_read():
    # a name whose only occurrence is its definition is dead code; the
    # _run_* executors are found by prefix, and box_cos waits for a cos row
    # in maps.OPS
    texts = {path.name: path.read_text(encoding="utf-8")
             for path in sorted((SRC / "wanderlab").glob("*.py"))}
    everything = "\n".join(texts.values())
    dead = [(file, name) for file, text in texts.items()
            for name in _top_level_names(ast.parse(text))
            if not name.startswith("_run_") and name != "box_cos"
            and len(re.findall(rf"\b{re.escape(name)}\b", everything)) < 2]
    assert dead == []


def test_box_arithmetic_has_one_layer():
    # the block ops are the only box arithmetic: no module defines a per-part
    # interval op (iv_*), and every box column of maps.OPS names a box_* op
    # of numerics, which maps binds as itself
    from wanderlab import maps, numerics

    per_part = [(path.name, name) for path in sorted((SRC / "wanderlab").glob("*.py"))
                for name in _top_level_names(ast.parse(path.read_text(encoding="utf-8")))
                if name.startswith("iv_")]
    assert per_part == [] and not [name for name in vars(numerics) if name.startswith("iv_")]
    block_ops = {name for name in vars(numerics) if name.startswith("box_")}
    for word, op in maps.OPS.items():
        if op.box:
            assert op.box in block_ops, word
            assert getattr(maps, op.box) is getattr(numerics, op.box), word
