"""Process start: wanderlab keeps numpy's idle OpenBLAS threads from spinning.

OpenBLAS reads OPENBLAS_THREAD_TIMEOUT once, as numpy loads; wanderlab
sets it (unless the caller did) before its first numpy import.  That is
safe only because wanderlab itself makes no BLAS call.  Beside that scan
sits a second one: every top-level name of src/wanderlab is read somewhere.
Importing wanderlab loads neither the raster's thread pool nor
`dataclasses` (the records are NamedTuples and slotted classes, whose
errors, equality and pickling are pinned here), and a raster run loads no
process machinery: its ranges write into the grid's arrays, with no merge.
"""
import ast
import math
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wanderlab
from wanderlab.dynamics import OrbitConfig, StationSpec
from wanderlab.numerics import ComplexBox
from wanderlab.regions import HalfStrip, Union

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


@pytest.mark.parametrize("module", ["concurrent.futures", "dataclasses"],
                         ids=["raster-pool", "dataclasses"])
def test_scenario_import_leaves_out(module):
    # dynamics imports concurrent.futures only where a raster starts its
    # thread pool, and no record is a dataclass, whose decoration execs
    # generated methods
    probe = f"import sys, wanderlab.scenario; print({module!r} in sys.modules)"
    assert _fresh_python(probe, os.environ) == "False"


def test_small_raster_forks_no_pool_whatever_the_threads():
    # ex1-core's raster classifies 8,192 pixels, an eighth of a range share:
    # one range, classified in the calling thread even with two threads, so
    # the run imports no executor
    probe = ("import sys; from wanderlab.scenario import run_scenario; "
             "run_scenario('ex1-core', threads=2); "
             "print([name for name in sys.modules if name.startswith('concurrent')])")
    assert _fresh_python(probe, os.environ) == "[]"


def test_raster_threads_load_no_process_machinery():
    # ex2-core's Cor-2-raster cuts two ranges under two threads and runs
    # them on a thread pool in this process: nothing loads multiprocessing
    probe = ("import sys; from wanderlab.scenario import run_scenario; "
             "run_scenario('ex2-core', threads=2); "
             "print([name in sys.modules for name in ('concurrent.futures.thread', "
             "'concurrent.futures.process', 'multiprocessing')])")
    assert _fresh_python(probe, os.environ) == "[True, False, False]"


def test_raster_ranges_write_into_the_grid():
    # each range writes its verdicts and track ids into its own rows of the
    # grid's arrays, so no function mirrors joined range results (_reflect)
    # and none collects the drifting orbits in a list (drifted)
    tree = ast.parse((SRC / "wanderlab" / "dynamics.py").read_text(encoding="utf-8"))
    found = [(node.lineno, "_reflect") for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "_reflect"]
    found += [(node.lineno, "drifted") for node in ast.walk(tree)
              if isinstance(node, ast.arg) and node.arg == "drifted"
              or isinstance(node, ast.Name) and node.id == "drifted"]
    assert found == []


def _second_statements(path, tree):
    """(file, line, what) of each fact a raster states twice: a comparison
    of the retirement mask gone with None (dynamics.py), a hole_count field
    or attribute beside len(holes), a width or height field of RasterGrid
    beside labels.shape, and a connectivity call inside
    connectivity_monotonicity_check beside the match rows' reports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare) and path.name == "dynamics.py":
            sides = [node.left, *node.comparators]
            if (any(isinstance(x, ast.Name) and x.id == "gone" for x in sides)
                    and any(isinstance(x, ast.Constant) and x.value is None for x in sides)):
                yield path.name, node.lineno, "gone vs None"
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                and node.target.id == "hole_count":
            yield path.name, node.lineno, "hole_count"
        elif isinstance(node, ast.Attribute) and node.attr == "hole_count":
            yield path.name, node.lineno, "hole_count"
        elif isinstance(node, ast.ClassDef) and node.name == "RasterGrid":
            yield from ((path.name, f.lineno, f"RasterGrid.{f.target.id}") for f in node.body
                        if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)
                        and f.target.id in ("width", "height"))
        elif isinstance(node, ast.FunctionDef) and node.name == "connectivity_monotonicity_check":
            yield from ((path.name, call.lineno, "connectivity call") for call in ast.walk(node)
                        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "connectivity")


def test_a_raster_states_each_fact_once():
    # one hole report per matched component, one retirement mask per orbit
    # step, and the grid's size read from its arrays
    found = [where for path in sorted((SRC / "wanderlab").glob("*.py"))
             for where in _second_statements(path, ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


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


# Records are NamedTuples or slotted classes with a hand-written __init__:
# each keeps its validation errors, word for word
_STATION_REPR = ("StationSpec(base=0j, step=6.283185307179586, radius=0.5, min_index=1, "
                 "streak=12)")


@pytest.mark.parametrize("make, message", [
    (lambda: ComplexBox(1.0, 0.0, 0.0, 1.0), "box bounds must satisfy lo <= hi and not be "
     "NaN: ComplexBox(re_lo=1.0, re_hi=0.0, im_lo=0.0, im_hi=1.0)"),
    (lambda: StationSpec(streak=1), "streak must be >= 2, got 1"),
    (lambda: StationSpec(base=complex(math.nan, 0.0)), "base must be finite, got (nan+0j)"),
    (lambda: OrbitConfig(attract_tol=-1.0), "attract_tol must be finite and > 0, got -1.0"),
    (lambda: OrbitConfig(stations=[StationSpec()]),
     f"stations must be a tuple of at most 128 StationSpec, got [{_STATION_REPR}]"),
    (lambda: HalfStrip(0.0, 1.0, 1.0, 0.0), "inverted strip bounds"),
    (lambda: Union(), "empty union"),
], ids=["box", "station-streak", "station-base", "orbit-tol", "orbit-stations", "strip",
        "union"])
def test_record_validation_errors(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert type(info.value) is ValueError and str(info.value) == message


@pytest.mark.parametrize("record", [
    ComplexBox(-1.0, 2.0, -0.5, 0.5),
    OrbitConfig(max_iter=7, stations=(StationSpec(), StationSpec(step=-1.0, min_index=-3))),
], ids=["box", "orbit"])
def test_pickled_record_stays_equal(record):
    # a caller's own process pool may send a window or orbit settings to its
    # workers: a slotted record pickles equal
    again = pickle.loads(pickle.dumps(record))
    assert again == record and again is not record


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


_CLAIM_COPIES = ("label", "family_id", "statement")


def _claim_copies(tree):
    """(line, name) of each second copy of a claim: a contains method of a
    Region class beside its box tests, or a parameter, keyword, attribute or
    class attribute named label, family_id or statement, and any name
    statement, restating what a bound, map or certificate already is."""
    regions = {"Region"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            if node.name in regions or {b.id for b in node.bases
                                        if isinstance(b, ast.Name)} & regions:
                regions.add(node.name)
                yield from ((f.lineno, f"{node.name}.contains") for f in node.body
                            if isinstance(f, ast.FunctionDef) and f.name == "contains")
            yield from ((a.lineno, t.id) for a in node.body if isinstance(a, ast.Assign)
                        for t in a.targets
                        if isinstance(t, ast.Name) and t.id in _CLAIM_COPIES)
        elif isinstance(node, ast.arg) and node.arg in _CLAIM_COPIES:
            yield node.lineno, node.arg
        elif isinstance(node, ast.keyword) and node.arg in _CLAIM_COPIES:
            yield node.value.lineno, node.arg
        elif isinstance(node, ast.Attribute) and node.attr in _CLAIM_COPIES:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id == "statement":
            yield node.lineno, node.id


def test_each_claim_is_said_once():
    # a point's membership is its point-box test, and a certificate, bound
    # or map carries no label, family tag or statement of what it claims
    found = [(path.name, *where)
             for path in sorted((SRC / "wanderlab").glob("*.py"))
             for where in _claim_copies(ast.parse(path.read_text(encoding="utf-8")))]
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
