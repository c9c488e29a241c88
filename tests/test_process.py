"""Process start: wanderlab keeps numpy's idle OpenBLAS threads from spinning.

OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, as numpy loads; wanderlab
sets it (unless the caller did) before its first numpy import.  That is
safe only because wanderlab itself makes no BLAS call.
"""
import ast
import os
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


def _timeout_at_numpy_import(preset):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    if preset is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = preset
    done = subprocess.run([sys.executable, "-c", _PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


@pytest.mark.parametrize("preset, seen", [(None, "'4'"), ("20", "'20'")])
def test_openblas_thread_timeout_is_set_before_numpy_loads(preset, seen):
    assert _timeout_at_numpy_import(preset) == seen


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
