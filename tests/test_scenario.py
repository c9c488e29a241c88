"""Scenario loading, execution, report shape, CLI exit codes, pixmap bytes."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wanderlab
from wanderlab import pixmap
from wanderlab.cli import main
from wanderlab.dynamics import (
    ATTRACTED,
    DRIFTING,
    JULIA_SUSPECT,
    POLE_ADJACENT,
    RasterGrid,
)
from wanderlab.numerics import ComplexBox
from wanderlab.scenario import (
    _EXECUTORS,
    REPORT_SCHEMA,
    ScenarioError,
    bundled_scenarios,
    load_scenario,
    run_scenario,
)

TINY = {
    "schema": "scenario/1",
    "name": "tiny",
    "map": {"family": "ex5"},
    "items": [
        {"id": "rh-ok", "kind": "rh_check", "args": [2, 3, 3, 1], "expect": True},
        {"id": "unit-image", "kind": "point_image", "z": [1.0, 0.0],
         "target": {"center": [math.e, 0.0], "radius": 1e-9}},
    ],
}

TINY_RASTER = {
    "schema": "scenario/1",
    "name": "tiny-raster",
    "map": {"family": "ex1", "params": {"a": 0.015625, "eps": 1.52587890625e-05}},
    "window": [-0.05, 0.05, -0.05, 0.05],
    "resolution": [16, 12],
    "items": [{"id": "tiny-img", "kind": "raster", "render": "tiny.ppm"}],
}


def _write(tmp_path, name, payload):
    path = tmp_path / name
    text = payload if isinstance(payload, str) else json.dumps(payload)
    path.write_text(text)
    return str(path)


# --- loading and validation ---------------------------------------------------

def test_bundled_scenario_names():
    assert set(bundled_scenarios()) == {
        "ex1-core", "ex2-core", "ex34-models", "ex5-strip",
    }


def test_bundled_scenarios_load():
    for name in bundled_scenarios():
        scenario = load_scenario(name)
        assert scenario.items, name


def test_load_missing_file(tmp_path):
    with pytest.raises(ScenarioError, match="cannot read"):
        load_scenario(str(tmp_path / "nope.json"))


def test_load_invalid_json(tmp_path):
    path = _write(tmp_path, "broken.json", '{"schema": "scenario/1",')
    with pytest.raises(ScenarioError, match="line"):
        load_scenario(path)


def test_load_rejects_wrong_schema(tmp_path):
    path = _write(tmp_path, "wrong.json", {"schema": "scenario/99", "items": []})
    with pytest.raises(ScenarioError, match="scenario/1"):
        load_scenario(path)


def test_load_rejects_duplicate_item_ids(tmp_path):
    payload = dict(TINY, items=[TINY["items"][0], TINY["items"][0]])
    path = _write(tmp_path, "dup.json", payload)
    with pytest.raises(ScenarioError, match="duplicate"):
        load_scenario(path)


def test_load_rejects_item_without_kind(tmp_path):
    payload = dict(TINY, items=[{"id": "k"}])
    path = _write(tmp_path, "nokind.json", payload)
    with pytest.raises(ScenarioError, match="kind"):
        load_scenario(path)


def test_load_rejects_item_with_list_id(tmp_path):
    payload = dict(TINY, items=[{"id": ["x"], "kind": "rh_check"}])
    with pytest.raises(ScenarioError, match="id"):
        load_scenario(_write(tmp_path, "listid.json", payload))


def test_unknown_kind_raises(tmp_path):
    payload = dict(TINY, items=[{"id": "x", "kind": "levitate"}])
    with pytest.raises(ScenarioError, match="levitate"):
        run_scenario(_write(tmp_path, "unk.json", payload))


def test_unresolved_reference_raises(tmp_path):
    item = {"id": "x", "kind": "point_image", "z": ["$nope", 0.0],
            "target": {"center": [0.0, 0.0], "radius": 1.0}}
    payload = dict(TINY, items=[item])
    with pytest.raises(ScenarioError, match="nope"):
        run_scenario(_write(tmp_path, "ref.json", payload))


# --- execution and report shape -----------------------------------------------

def test_empty_scenario_yields_empty_passing_report(tmp_path):
    path = _write(tmp_path, "empty.json",
                  {"schema": "scenario/1", "name": "empty", "items": []})
    report = run_scenario(path)
    assert report["schema"] == REPORT_SCHEMA
    assert report["scenario"] == "empty"
    assert report["all_passed"] is True
    assert report["items"] == []


def test_tiny_scenario_passes_and_round_trips(tmp_path):
    report = run_scenario(_write(tmp_path, "tiny.json", TINY))
    assert report["all_passed"] is True
    assert [row["id"] for row in report["items"]] == ["rh-ok", "unit-image"]
    assert all(row["elapsed"] >= 0.0 for row in report["items"])
    # everything in the report must survive JSON serialization unchanged
    assert json.loads(json.dumps(report)) == report


def test_executor_exception_becomes_failed_row(tmp_path):
    item = {"id": "bad-args", "kind": "rh_check", "args": [0, 3, 3, 1],
            "expect": True}
    payload = dict(TINY, items=[item])
    report = run_scenario(_write(tmp_path, "err.json", payload))
    assert report["all_passed"] is False
    row = report["items"][0]
    assert row["passed"] is False
    assert "ValueError" in row["result"]["error"]


def test_mismatch_fails_without_error_field(tmp_path):
    item = {"id": "rh-flip", "kind": "rh_check", "args": [2, 3, 3, 1],
            "expect": False}
    payload = dict(TINY, items=[item])
    report = run_scenario(_write(tmp_path, "flip.json", payload))
    assert report["all_passed"] is False
    assert "error" not in report["items"][0]["result"]


def test_raster_render_skipped_without_out_dir(tmp_path):
    report = run_scenario(_write(tmp_path, "r.json", TINY_RASTER), out_dir=None)
    assert report["all_passed"] is True
    assert "image" not in report["items"][0]["result"]


def test_raster_render_writes_image(tmp_path):
    path = _write(tmp_path, "r.json", TINY_RASTER)
    report = run_scenario(path, out_dir=tmp_path)
    data = (tmp_path / "tiny.ppm").read_bytes()
    assert data.startswith(b"P6\n16 12\n255\n")
    assert len(data) == len(b"P6\n16 12\n255\n") + 16 * 12 * 3
    counts = report["items"][0]["result"]["label_counts"]
    assert sum(counts.values()) == 16 * 12


# --- bundled suites -----------------------------------------------------------

def test_ex1_core_passes(tmp_path):
    report = run_scenario("ex1-core", out_dir=tmp_path)
    assert report["all_passed"] is True
    assert (tmp_path / "ex1-core.ppm").read_bytes().startswith(b"P6\n128 128\n255\n")


def test_ex5_strip_passes():
    report = run_scenario("ex5-strip")
    assert report["all_passed"] is True
    ids = [row["id"] for row in report["items"]]
    assert "Omega-inclusion" in ids and "Omega-parabolic" in ids


def test_ex34_models_pass():
    report = run_scenario("ex34-models")
    assert report["all_passed"] is True


def _without_elapsed(value):
    if isinstance(value, dict):
        return {k: _without_elapsed(v) for k, v in value.items() if k != "elapsed"}
    if isinstance(value, list):
        return [_without_elapsed(v) for v in value]
    return value


@pytest.mark.parametrize("suite", ["ex5-strip", "ex34-models", "ex1-core", "ex2-core"])
def test_report_is_deterministic_without_timings(suite):
    first, second = (json.dumps(_without_elapsed(run_scenario(suite, threads=2)))
                     for _ in range(2))
    assert "elapsed" not in first
    assert first == second


def test_ex2_core_report(ex2_report):
    report, out = ex2_report
    assert report["all_passed"] is True
    assert set(report["derived"]) == {
        "r1", "eps", "rho_g", "r2", "a_star", "lambda_star",
    }
    data = (out / "ex2-core.ppm").read_bytes()
    assert data.startswith(b"P6\n1600 400\n255\n")
    raster, = (row for row in report["items"] if row["id"] == "Cor-2-raster")
    counts = raster["result"]["verdict_counts"]
    assert list(counts) == ["escaped", "attracted", "drifting", "pole", "budget", "boundary"]
    assert sum(counts[k] for k in list(counts)[:5]) == 1600 * 400
    assert counts["budget"] == 0 and counts["drifting"] > 0 and counts["boundary"] > 0
    assert ([m["behavior"] for m in raster["result"]["matches"]]
            == [["drifting", 1], ["drifting", 1], ["drifting", 2], ["drifting", 3]])


# --- command-line front end ---------------------------------------------------

def test_cli_suites_lists_bundles_and_anchors(capsys):
    assert main(["suites"]) == 0
    out = capsys.readouterr().out
    for needle in ("ex1-core", "ex2-core", "ex34-models", "ex5-strip",
                   "Eq-4.1", "Lemma-4.1a", "Cor-2-raster", "Omega-inclusion"):
        assert needle in out


def test_cli_module_runs_as_a_script():
    src = str(Path(wanderlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "wanderlab.cli", "suites"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    for name in ("ex1-core", "ex2-core", "ex34-models", "ex5-strip"):
        assert name in done.stdout


def test_cli_and_scenario_import_without_scipy():
    # scipy is a test-only dependency; importing it costs more than the rest
    src = str(Path(wanderlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys, wanderlab.cli, wanderlab.scenario; "
            "assert not any(k == 'scipy' or k.startswith('scipy.') for k in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr


def test_cli_run_writes_report(tmp_path, capsys):
    scenario = _write(tmp_path, "tiny.json", TINY)
    out = tmp_path / "report.json"
    assert main(["run", scenario, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == REPORT_SCHEMA and report["all_passed"] is True
    assert capsys.readouterr().out == ""


def test_cli_run_stdout_and_failure_exit(tmp_path, capsys):
    item = {"id": "rh-flip", "kind": "rh_check", "args": [2, 3, 3, 1],
            "expect": False}
    scenario = _write(tmp_path, "flip.json", dict(TINY, items=[item]))
    assert main(["run", scenario]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is False


def test_cli_run_missing_scenario_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.json")]) == 2
    assert "wanderlab:" in capsys.readouterr().err


def test_cli_run_bad_schema_is_config_error(tmp_path, capsys):
    scenario = _write(tmp_path, "bad.json", {"schema": "nope", "items": []})
    assert main(["run", scenario]) == 2
    assert "schema" in capsys.readouterr().err


def test_cli_render_writes_pixmap(tmp_path, capsys):
    scenario = _write(tmp_path, "r.json", TINY_RASTER)
    out = tmp_path / "img.ppm"
    assert main(["render", scenario, "--out", str(out), "--threads", "1"]) == 0
    assert out.read_bytes().startswith(b"P6\n16 12\n255\n")
    assert "16x12" in capsys.readouterr().err


def test_cli_render_requires_a_raster_item(tmp_path, capsys):
    scenario = _write(tmp_path, "t.json", TINY)
    assert main(["render", scenario, "--out", str(tmp_path / "x.ppm")]) == 2
    assert "raster" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("window", [1.0, -1.0, -1.0, 1.0]),
    ("window", [-1.0, 1.0, -1.0]),
    ("resolution", [0, 8]),
    ("window", None),
], ids=["inverted-window", "short-window", "zero-resolution", "missing-window"])
@pytest.mark.parametrize("command", ["run", "render"])
def test_cli_malformed_raster_is_config_error(tmp_path, capsys, command, field, value):
    scenario = _write(tmp_path, "bad.json", dict(TINY_RASTER, **{field: value}))
    assert main([command, scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert f'"{field}"' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("orbit, field", [
    ({"max_iter": 0}, "max_iter"),
    ({"max_iter": "ten"}, "max_iter"),
    ({"cycle_window": 0}, "cycle_window"),
    ({"escape_radius": math.nan}, "escape_radius"),
    ({"attract_tol": math.nan}, "attract_tol"),
    ({"stations": {"step": 0}}, "step"),
    ({"stations": {"step": math.inf}}, "step"),
    ({"stations": [{}, {"radius": math.nan}]}, "stations[1]"),
    ({"stations": {"base": [math.nan, 0.0]}}, "base"),
    ({"stations": "left"}, "stations"),
], ids=["zero-max-iter", "text-max-iter", "zero-cycle-window", "nan-escape", "nan-tol",
        "zero-step", "inf-step", "nan-radius", "nan-base", "text-stations"])
@pytest.mark.parametrize("command", ["run", "render"])
def test_cli_invalid_orbit_is_config_error(tmp_path, capsys, command, orbit, field):
    scenario = _write(tmp_path, "bad.json", dict(TINY_RASTER, orbit=orbit))
    assert main([command, scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert "orbit" in err and field in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "render"])
def test_cli_zero_max_iter_override_is_config_error(tmp_path, capsys, command):
    scenario = _write(tmp_path, "r.json", TINY_RASTER)
    assert main([command, scenario, "--out", str(tmp_path / "out"), "--threads", "1",
                 "--max-iter", "0"]) == 2
    assert "max_iter" in capsys.readouterr().err


# --- field decoding: every document value is read, checked and used ------------

FIELDS = {
    "schema": "scenario/1",
    "name": "fields",
    "map": {"family": "ex5"},
    "window": [-1.0, 1.0, -1.0, 1.0],
    "resolution": [4, 4],
}

# kind -> (a minimal item that passes, the fields it cannot do without)
MINIMAL_ITEMS = {
    "inclusion": (
        {"source": {"disk": {"center": [0.0, 0.0], "radius": 0.1, "closed": True}},
         "target": {"disk": {"center": [0.0, 0.0], "radius": 1.0}}},
        ["source", "target", "source.disk.center", "source.disk.radius",
         "target.disk.center", "target.disk.radius"]),
    "inequality": (
        {"lhs": {"series_quotient": {"c": 1.0, "power": 1, "quotient": "exp_tail",
                                     "drop": 1}},
         "rhs": {"power": {"c": 2.0, "n": 0}},
         "region": {"annulus": {"center": [0.0, 0.0], "r_in": 0.1, "r_out": 0.5}}},
        ["lhs", "rhs", "region", "lhs.series_quotient.c", "lhs.series_quotient.power",
         "lhs.series_quotient.quotient", "lhs.series_quotient.drop", "rhs.power.c",
         "rhs.power.n", "region.annulus.center", "region.annulus.r_in",
         "region.annulus.r_out"]),
    "winding": (
        {"circle": {"center": [0.0, 0.0], "radius": 0.5}, "w0": [0.0, 0.0],
         "expect_winding": 1},
        ["circle", "w0", "expect_winding", "circle.center", "circle.radius"]),
    "zero_count": (
        {"circle": {"center": [0.0, 0.0], "radius": 0.5}, "w0": [0.0, 0.0],
         "poles_inside": 0, "expect": 1},
        ["circle", "w0", "poles_inside", "expect"]),
    "preimages": (
        {"w0": [0.0, 0.0], "region": {"disk": {"center": [0.0, 0.0], "radius": 0.5}},
         "expected": 1},
        ["w0", "region", "expected"]),
    "fixed_point": (
        {"region": {"disk": {"center": [0.0, 0.0], "radius": 0.1}}},
        ["region", "region.disk.center", "region.disk.radius"]),
    "point_image": (
        {"z": [1.0, 0.0], "target": {"center": [math.e, 0.0], "radius": 1e-9}},
        ["z", "target", "target.center", "target.radius"]),
    "track": (
        {"z0": [0.0, 0.0], "radius": 0.1,
         "centers": {"geometric": {"base": [0.0, 0.0], "factor": 2.0, "count": 3}}},
        ["z0", "centers", "radius", "centers.geometric.base", "centers.geometric.factor",
         "centers.geometric.count"]),
    "params_identity": ({}, []),
    "derived_constants": ({}, []),
    "rh_check": ({"args": [2, 3, 3, 1], "expect": True}, ["args", "expect"]),
    "ray_increase": ({"to": 10.0, "samples": 10}, ["to"]),
    "raster": ({}, []),
}


def _item(kind, **extra):
    return dict(MINIMAL_ITEMS[kind][0], id=f"{kind}-item", kind=kind, **extra)


def test_every_item_kind_has_decode_coverage():
    assert set(MINIMAL_ITEMS) == set(_EXECUTORS)


def test_minimal_items_pass(tmp_path):
    payload = dict(FIELDS, items=[_item(kind) for kind in MINIMAL_ITEMS])
    report = run_scenario(_write(tmp_path, "minimal.json", payload))
    assert [row["id"] for row in report["items"] if not row["passed"]] == []


def _drop(item, dotted):
    *parents, last = dotted.split(".")
    node = item = json.loads(json.dumps(item))
    for key in parents:
        node = node[key]
    del node[last]
    return item


@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind, (_, fields) in MINIMAL_ITEMS.items() for field in fields])
def test_cli_missing_field_is_config_error(tmp_path, capsys, kind, field):
    payload = dict(FIELDS, items=[_drop(_item(kind), field)])
    scenario = _write(tmp_path, "bad.json", payload)
    assert main(["run", scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert f'"{kind}-item.{field}"' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _disk(radius, **extra):
    return {"disk": dict({"center": [0.0, 0.0], "radius": radius}, **extra)}


@pytest.mark.parametrize("item, path", [
    (_item("inclusion", target={"disk": {"center": [0.0, 0.0]}}),
     "inclusion-item.target.disk.radius"),
    (_item("inclusion", budget={"max_boxes": "many"}), "inclusion-item.budget.max_boxes"),
    (_item("inclusion", budget={"max_boxes": 0}), "inclusion-item.budget.max_boxes"),
    (_item("inclusion", target=_disk(-1.0)), "inclusion-item.target.disk"),
    (_item("inclusion", target=_disk(math.nan)), "inclusion-item.target.disk"),
    (_item("inclusion", source=_disk(0.1, closd=True)), "inclusion-item.source.disk.closd"),
    (_item("inclusion", expect="prooved"), "inclusion-item.expect"),
    (_item("inequality", cmp="=="), "inequality-item.cmp"),
    (_item("inequality", rhs={"power": {"c": -2.0, "n": 0}}), "inequality-item.rhs.power"),
    (_item("inequality", rhs={"const": math.nan}), "inequality-item.rhs"),
    (_item("inequality", rhs={"pow": {"c": 2.0, "n": 0}}), "inequality-item.rhs"),
    (_drop(_item("winding"), "expect_winding"), "winding-item.expect_winding"),
    (_item("winding", w0="$nowhere"), "winding-item.w0"),
    (_item("rh_check", args="abc"), "rh_check-item.args"),
    (_item("rh_check", args=[2, 3, 3]), "rh_check-item.args"),
    (_item("fixed_point", expect_atracting=False), "fixed_point-item.expect_atracting"),
    (_item("fixed_point", tolerance=1e-3), "fixed_point-item.tolerance"),
    (_item("track", centers={"geometric": {"base": 0.0, "factor": 2.0, "count": 1.5}}),
     "track-item.centers.geometric.count"),
    (_item("point_image", map={"family": "ex5", "expr": "z"}), "point_image-item.map.expr"),
    (_item("raster", match=[{"component": {"contains": [0.0, 0.0], "surrounds": 0.0}}]),
     "raster-item.match[0].component"),
    (_item("raster", rendr="x.ppm"), "raster-item.rendr"),
    (_item("raster", match=[{"component": {"contains": [0.0, 0.0]},
                             "expect_behavior": "drifing"}]),
     "raster-item.match[0].expect_behavior"),
], ids=["disk-without-radius", "text-max-boxes", "zero-max-boxes", "negative-radius",
        "nan-radius", "unread-closd", "unknown-verdict", "bad-cmp", "negative-power-bound",
        "nan-const-bound", "unknown-bound", "missing-expect-winding", "unresolved-ref",
        "text-args", "three-args", "unread-expect-attracting", "tolerance-without-modulus",
        "fractional-count", "family-and-expr", "two-selectors", "unread-raster-field",
        "unknown-behavior"])
def test_cli_malformed_item_is_config_error(tmp_path, capsys, item, path):
    scenario = _write(tmp_path, "bad.json", dict(FIELDS, items=[item]))
    assert main(["run", scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert f'"{path}"' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec, path", [
    ({"family": "ex9"}, "map"),
    ({"family": "ex1", "params": {"a": 0.5, "eps": 1e-5}}, "map"),
    ({"family": "ex1", "params": {"eps": 1e-5}}, "map"),
    ({"expr": "(add z"}, "map"),
    ({"family": "ex1", "params": {"a": "abc", "eps": 1e-5}}, "map.params.a"),
    ({"family": "ex1", "params": {"a": 10 ** 400, "eps": 1e-5}}, "map.params.a"),
    ("ex5", "map"),
    ({"family": "ex5", "parms": {}}, "map.parms"),
], ids=["unknown-family", "param-out-of-range", "missing-param", "unparsable-expr",
        "text-param", "huge-int-param", "non-object-map", "unread-map-field"])
@pytest.mark.parametrize("command", ["run", "render"])
def test_cli_malformed_map_is_config_error(tmp_path, capsys, command, spec, path):
    scenario = _write(tmp_path, "bad.json", dict(TINY_RASTER, map=spec))
    assert main([command, scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert f'"{path}"' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["inclusion", "inequality", "derived_constants"])
def test_cli_zero_budget_boxes_is_config_error(tmp_path, capsys, kind):
    scenario = _write(tmp_path, "b.json", dict(FIELDS, items=[_item(kind)]))
    assert main(["run", scenario, "--out", str(tmp_path / "out"), "--threads", "1",
                 "--budget-boxes", "0"]) == 2
    assert f'"{kind}-item' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unmatched_component_is_failed_row(tmp_path, capsys):
    # what the raster finds is a result, not a config error
    item = _item("raster", match=[{"component": {"contains": [0.0, 0.0]}}])
    scenario = _write(tmp_path, "r.json", dict(FIELDS, items=[item]))
    assert main(["run", scenario, "--threads", "1"]) == 1
    row, = json.loads(capsys.readouterr().out)["items"]
    assert row["result"]["error"].startswith("LookupError: raster-item.match[0].component")


def test_unread_match_field_is_config_error(tmp_path, capsys):
    match = {"component": {"contains": [-0.015625, 0.0]}, "expect_behaviour": "attracted"}
    item = dict(TINY_RASTER["items"][0], match=[match])
    scenario = _write(tmp_path, "r.json", dict(TINY_RASTER, items=[item]))
    assert main(["run", scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert '"tiny-img.match[0].expect_behaviour"' in capsys.readouterr().err


def test_unread_orbit_field_is_config_error(tmp_path, capsys):
    scenario = _write(tmp_path, "r.json", dict(TINY_RASTER, orbit={"max_iters": 10}))
    assert main(["render", scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert '"orbit.max_iters"' in capsys.readouterr().err


# --- pixmap bytes ---------------------------------------------------------------

def _grid(labels, ids=None):
    labels = np.asarray(labels, dtype=np.uint8)
    if ids is None:
        ids = np.full(labels.shape, -1, dtype=np.int32)
    h, w = labels.shape
    return RasterGrid(ComplexBox(-1.0, 1.0, -1.0, 1.0), w, h, labels,
                      np.asarray(ids, dtype=np.int32))


def test_render_bytes_all_unresolved():
    data = pixmap.render_bytes(_grid(np.zeros((2, 2))))
    assert data == b"P6\n2 2\n255\n" + bytes(pixmap.GRAY) * 4


def test_render_bytes_palette_and_row_flip():
    # ids past the palette length wrap around: 5 -> BLUES[1], 7 -> GREENS[3]
    grid = _grid([[ATTRACTED, DRIFTING, ATTRACTED],
                  [POLE_ADJACENT, JULIA_SUSPECT, DRIFTING]],
                 ids=[[0, 2, 5], [-1, -1, 7]])
    # files run top-down, the grid bottom-up: row 1 is written first
    want = (b"P6\n3 2\n255\n"
            + bytes(pixmap.RED) + bytes(pixmap.BLACK) + bytes(pixmap.GREENS[3])
            + bytes(pixmap.BLUES[0]) + bytes(pixmap.GREENS[2]) + bytes(pixmap.BLUES[1]))
    assert pixmap.render_bytes(grid) == want


def test_palette_color_cycles():
    def color(label, ident):
        data = pixmap.render_bytes(_grid([[label]], ids=[[ident]]))
        return tuple(data[-3:])

    assert color(ATTRACTED, 0) == pixmap.BLUES[0]
    assert color(ATTRACTED, 5) == pixmap.BLUES[1]
    assert color(DRIFTING, 7) == pixmap.GREENS[3]
    assert color(POLE_ADJACENT, 0) == pixmap.RED
    assert color(JULIA_SUSPECT, 0) == pixmap.BLACK
    assert color(0, 0) == pixmap.GRAY


def test_render_bytes_deterministic():
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 5, size=(7, 9))
    ids = rng.integers(-1, 6, size=(7, 9))
    a = pixmap.render_bytes(_grid(labels, ids))
    b = pixmap.render_bytes(_grid(labels, ids))
    assert a == b
