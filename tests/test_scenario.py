"""Scenario loading, execution, report shape, CLI exit codes, pixmap bytes."""
import argparse
import cmath
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wanderlab
from wanderlab import cli, pixmap, topology
from wanderlab import scenario as scenario_module
from wanderlab.certify import Budget
from wanderlab.cli import main
from wanderlab.dynamics import (
    ATTRACTED,
    DRIFTING,
    JULIA_SUSPECT,
    POLE_ADJACENT,
    OrbitConfig,
    RasterGrid,
    StationSpec,
)
from wanderlab.maps import build_family, eval_map
from wanderlab.numerics import ComplexBox
from wanderlab.regions import Disk, HalfStrip, annulus
from wanderlab.scenario import (
    _EXECUTORS,
    REPORT_SCHEMA,
    ScenarioError,
    _Doc,
    bundled_scenarios,
    load_scenario,
    run_scenario,
)

from oracles import traced_peak

BENCH = Path(__file__).resolve().parents[1] / "bench"

# the commands that take a scenario document: each rejects a malformed one
READERS = ["run"]

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


def test_load_rejects_an_unknown_kind_before_any_item_runs(tmp_path, monkeypatch):
    # a typo in the second item's kind is found as the document loads, not
    # after the first item has run
    ran = []
    for kind in _EXECUTORS:
        monkeypatch.setitem(_EXECUTORS, kind, lambda rd, ctx: ran.append(rd.path))
    payload = dict(TINY, items=[{"id": "first", "kind": "derived_constants"},
                                {"id": "second", "kind": "inclusoin"}])
    path = _write(tmp_path, "typo.json", payload)
    for read in (load_scenario, run_scenario):
        with pytest.raises(ScenarioError) as info:
            read(path)
        assert str(info.value) == '"second": unknown item kind \'inclusoin\''
    assert ran == []


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
    # ex5 at 1 into B(e, 1e-9) proves on the point's root cells, no deeper
    unit = report["items"][1]["result"]
    assert unit["verdict"] == "proved" and unit["boxes_examined"] <= 4 and unit["max_depth"] == 0
    assert all("elapsed" not in row for row in report["items"])
    timings = report["timings"]
    assert list(timings["items"]) == ["rh-ok", "unit-image"]
    assert all(0.0 <= t <= timings["total"] for t in timings["items"].values())
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


def test_overflow_row_names_its_cause(tmp_path):
    # e^x overflows before x = 800 on ex5, which declares no pole
    item = {"id": "ray-800", "kind": "ray_increase", "to": 800.0, "samples": 8}
    report = run_scenario(_write(tmp_path, "ray.json", dict(TINY, items=[item])))
    row = report["items"][0]
    assert row["passed"] is False
    assert row["result"]["error"].startswith("NonFiniteValue: ")
    assert "overflow" in row["result"]["error"]


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


def test_point_image_fails_when_the_rim_is_within_rounding(tmp_path):
    # the float image of 2*pi*i lies 1e-17 inside the rim of a disk about
    # 4*pi*i, so a float distance test passes; the outward-rounded image of
    # the point crosses the rim, and the claim stays unproved at depth 0
    doc = json.loads(bundled_scenarios()["ex1-core"].read_text())
    item, = (item for item in doc["items"] if item["kind"] == "point_image")
    center = complex(*item["target"]["center"])
    distance = abs(eval_map(load_scenario("ex1-core").map, complex(*item["z"])) - center)
    assert distance < distance + 1e-17
    doc["items"] = [dict(item, target=dict(item["target"], radius=distance + 1e-17))]
    row = run_scenario(_write(tmp_path, "rim.json", doc))["items"][0]
    assert row["passed"] is False
    res = row["result"]
    assert res["verdict"] == "inconclusive"
    assert res["boxes_examined"] <= 4 and res["max_depth"] == 0


def test_derived_block_holds_what_items_publish(tmp_path):
    # a map parameter is not a derived constant; a published eps shadows
    # the map's eps in later items
    doc = {"schema": "scenario/1", "name": "eps-shadow",
           "map": {"family": "ex2", "params": {"eps": 1e-4}},
           "items": [{"id": "constants", "kind": "derived_constants"},
                     {"id": "echo", "kind": "track", "z0": [0.0, 0.0], "radius": "$eps",
                      "centers": {"arithmetic": {"base": [0.0, 0.0], "step": [1.0, 0.0],
                                                 "count": 1}}}]}
    report = run_scenario(_write(tmp_path, "eps.json", doc))
    constants, echo = (row["result"] for row in report["items"])
    assert report["derived"] == {k: constants[k] for k in ("r1", "eps", "rho_g", "r2")}
    assert echo["radius"] == constants["eps"] == 1e-5


# --- bundled suites -----------------------------------------------------------

def test_ex1_core_passes(tmp_path):
    report = run_scenario("ex1-core", out_dir=tmp_path)
    assert report["all_passed"] is True
    assert "derived" not in report   # its eps is a map parameter
    assert (tmp_path / "ex1-core.ppm").read_bytes().startswith(b"P6\n128 128\n255\n")


def test_ex5_strip_passes():
    report = run_scenario("ex5-strip")
    assert report["all_passed"] is True
    ids = [row["id"] for row in report["items"]]
    assert "Omega-inclusion" in ids and "Omega-parabolic" in ids


def test_ex34_models_pass():
    report = run_scenario("ex34-models")
    assert report["all_passed"] is True


@pytest.mark.parametrize("suite", ["ex5-strip", "ex34-models", "ex1-core", "ex2-core"])
def test_report_is_deterministic_without_timings(suite):
    reports = [run_scenario(suite, threads=2) for _ in range(2)]
    for report in reports:
        assert set(report.pop("timings")["items"]) == {row["id"] for row in report["items"]}
    first, second = (json.dumps(report) for report in reports)
    assert "elapsed" not in first
    assert first == second


# Every deterministic count of the bundled rows: per certificate (the
# derived constants' station_cert too) boxes_examined, max_depth and
# survivors; per winding its samples; per raster its verdict_counts,
# label_counts and retire_steps.
_RASTER_EX1 = ({"escaped": 0, "attracted": 16384, "drifting": 0, "pole": 0, "budget": 0,
                "boundary": 0},
               {"unresolved": 0, "attracted": 16380, "drifting": 0, "pole_adjacent": 4,
                "julia_suspect": 0},
               {"escaped": {}, "attracted": {"8-15": 16384}, "drifting": {}, "pole": {},
                "budget": {}})
_RASTER_EX2 = ({"escaped": 623436, "attracted": 0, "drifting": 16564, "pole": 0, "budget": 0,
                "boundary": 10324},
               {"unresolved": 616570, "attracted": 0, "drifting": 13104, "pole_adjacent": 2,
                "julia_suspect": 10324},
               {"escaped": {"2-3": 467126, "4-7": 150576, "8-15": 5714, "16-31": 20},
                "attracted": {},
                "drifting": {"8-15": 16254, "16-31": 300, "32-63": 4, "64-127": 2,
                             "128-255": 2, "256-511": 2},
                "pole": {}, "budget": {}})
_PINNED_COUNTS = {
    "ex1-core": {"Eq-4.1": (4720, 19, 0), "Eq-4.2-core": (1392, 18, 0),
                 "Eq-4.2-pole": (416, 6, 0), "Ex1-core-inclusion": (296, 1, 0),
                 "Ex1-raster": _RASTER_EX1},
    "ex2-core": {"Eq-4.4-4.5": (320, 1, 0), "Delta0-joukowski": (432, 2, 0),
                 "Eq-4.9": (416, 10, 0), "Eq-4.9-derivative": (752, 7, 0),
                 "Lemma-4.1a": 1024, "Lemma-4.1b": 1024, "Cor-2-raster": _RASTER_EX2},
    "ex5-strip": {"Omega-inclusion": (344, 11, 0)},
    "ex34-models": {"Ex3-model-bound": (256, 0, 0), "Ex3-model-pole": (624, 2, 0),
                    "Ex4-model-bound": (256, 0, 0)},
}


def _counts(row):
    res = row["result"]
    if row["kind"] in ("inclusion", "inequality", "derived_constants"):
        cert = res.get("station_cert", res)
        return cert["boxes_examined"], cert["max_depth"], cert["survivors"]
    if row["kind"] == "winding":
        return res["samples"]
    if row["kind"] == "raster":
        return res["verdict_counts"], res["label_counts"], res["retire_steps"]
    return None


@pytest.mark.parametrize("suite", list(_PINNED_COUNTS))
def test_bundled_row_counts_pinned(suite, ex2_report):
    report = ex2_report[0] if suite == "ex2-core" else run_scenario(suite, threads=2)
    counts = {row["id"]: _counts(row) for row in report["items"]}
    assert {k: v for k, v in counts.items() if v is not None} == _PINNED_COUNTS[suite]


def _ex1_track(tmp_path, expect_all, radius=0.0078125):
    doc = json.loads(bundled_scenarios()["ex1-core"].read_text())
    track, = (item for item in doc["items"] if item["kind"] == "track")
    doc["items"] = [dict(track, expect_all=expect_all, radius=radius)]
    return run_scenario(_write(tmp_path, "track.json", doc))["items"][0]


def test_track_expect_all_false_fails_when_every_station_is_hit(tmp_path):
    assert _ex1_track(tmp_path, True)["passed"] is True
    row = _ex1_track(tmp_path, False)
    assert row["result"]["flags"] == [True] * 11
    assert row["passed"] is False


def test_track_expect_all_false_passes_when_a_station_is_missed(tmp_path):
    # from n = 1 on the orbit lies about 9.2e-4 from its station
    row = _ex1_track(tmp_path, False, radius=1e-6)
    assert not all(row["result"]["flags"])
    assert row["passed"] is True
    assert _ex1_track(tmp_path, True, radius=1e-6)["passed"] is False


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
    # every basin confirms (there is none), so the retirement histogram
    # totals the verdict counts
    steps = raster["result"]["retire_steps"]
    assert {name: sum(b.values()) for name, b in steps.items()} == {k: counts[k] for k in steps}
    assert steps["drifting"]["256-511"] > 0
    assert ([m["behavior"] for m in raster["result"]["matches"]]
            == [["drifting", 1], ["drifting", 1], ["drifting", 2], ["drifting", 3]])


def test_a_hole_test_reads_the_connectivity_of_its_match(monkeypatch, ex2_raster):
    # Cor-2-raster's first match asks whether a hole of its component holds
    # 0, and the connectivity it reports answers: each matched component is
    # labelled once, by its match, whose report the monotonicity check
    # reads, and the selector's surrounds labels the one component whose
    # bounding box holds 0 (the ex2_raster fixture stands in for
    # classifying it again)
    calls = {}
    connectivity = scenario_module.connectivity

    def counting(*args, **kwargs):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] = calls.get(caller, 0) + 1
        return connectivity(*args, **kwargs)

    monkeypatch.setattr(scenario_module, "connectivity", counting)
    monkeypatch.setattr(topology, "connectivity", counting)
    monkeypatch.setattr(scenario_module, "classify_grid", lambda *args, **kwargs: ex2_raster)
    doc = load_scenario("ex2-core")
    report = run_scenario(doc._replace(items=[item for item in doc.items
                                              if item["id"] == "Cor-2-raster"]))
    assert report["all_passed"] is True
    assert report["items"][0]["result"]["matches"][0]["surrounds"] is True
    assert calls == {"_run_raster": 4, "surrounds": 1}


def test_constant_search_trail_is_reported(ex2_report, ex2_constants):
    # the derived-constants row lists every candidate in search order; the
    # certified ones carry the stats of the search's certificates, in order,
    # and a sampled witness refutes each of the others
    row, = (row for row in ex2_report[0]["items"] if row["kind"] == "derived_constants")
    trail = row["result"]["trail"]
    assert [(e["kind"], e["per_1024"]) for e in trail] == (
        [("r1", k) for k in (64, 32, 48, 40, 44, 42, 41)]
        + [("rho_g", k) for k in (40, 20, 10, 5, 2, 3, 4)] + [("r2", 6)])
    certified = [e for e in trail if "refuted_by" not in e]
    certs = ex2_constants["certificates"]
    assert [(e["verdict"], e["boxes_examined"], e["max_depth"]) for e in certified] == [
        (c.verdict, c.stats["boxes_examined"], c.stats["max_depth"]) for c in certs]
    assert [(e["kind"], e["per_1024"]) for e in certified] == [
        (e["kind"], e["per_1024"]) for e in ex2_constants["trail"] if "refuted_by" not in e]
    for e in trail:
        if "refuted_by" in e:
            assert e["refuted_by"] == "sample" and set(e) == {"kind", "per_1024", "refuted_by",
                                                             "sampled"}
            bound = 0.25 if e["kind"] == "r1" else e["per_1024"] / 1024
            assert e["sampled"] >= bound
    assert sum(e["boxes_examined"] for e in certified) == 6_104
    assert {k: certified[-1][k] for k in ("verdict", "boxes_examined", "max_depth")} == {
        k: row["result"]["station_cert"][k] for k in ("verdict", "boxes_examined", "max_depth")}


def test_constant_search_times_each_candidate_outside_the_trail(ex2_report):
    # one seconds entry per trail entry, in the timings block only
    report = ex2_report[0]
    row, = (row for row in report["items"] if row["kind"] == "derived_constants")
    timings = report["timings"]
    assert list(timings["candidates"]) == [row["id"]]
    seconds = timings["candidates"][row["id"]]
    assert len(seconds) == len(row["result"]["trail"])
    assert all(0.0 <= s <= timings["items"][row["id"]] for s in seconds)


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


def test_cli_run_without_out_writes_no_image(tmp_path, capsys, monkeypatch):
    scenario = _write(tmp_path, "r.json", TINY_RASTER)
    monkeypatch.chdir(tmp_path)
    assert main(["run", scenario, "--threads", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [p.name for p in tmp_path.iterdir()] == ["r.json"]
    assert all("image" not in row["result"] for row in report["items"])


def test_cli_run_into_a_missing_directory_fails_before_any_item(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("run_scenario called")

    monkeypatch.setattr(cli, "run_scenario", no_run)
    assert main(["run", "ex2-core", "--out", str(tmp_path / "missing" / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("wanderlab: ") and str(tmp_path / "missing") in err
    assert not (tmp_path / "missing").exists()


def test_cli_run_missing_scenario_is_config_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "ghost.json")]) == 2
    assert "wanderlab:" in capsys.readouterr().err


def test_cli_run_bad_schema_is_config_error(tmp_path, capsys):
    scenario = _write(tmp_path, "bad.json", {"schema": "nope", "items": []})
    assert main(["run", scenario]) == 2
    assert "schema" in capsys.readouterr().err


def test_cli_surface_is_run_and_suites():
    # the document sets every budget and iteration limit; run --out writes
    # every image
    sub, = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["run", "suites"]
    options = {name: sorted(o for a in parser._actions for o in a.option_strings
                            if o not in ("-h", "--help"))
               for name, parser in sub.choices.items()}
    assert options == {"run": ["--out", "--threads"], "suites": []}


@pytest.mark.parametrize("field, value", [
    ("window", [1.0, -1.0, -1.0, 1.0]),
    ("window", [-1.0, 1.0, -1.0]),
    ("resolution", [0, 8]),
    ("window", None),
], ids=["inverted-window", "short-window", "zero-resolution", "missing-window"])
@pytest.mark.parametrize("command", READERS)
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
@pytest.mark.parametrize("command", READERS)
def test_cli_invalid_orbit_is_config_error(tmp_path, capsys, command, orbit, field):
    scenario = _write(tmp_path, "bad.json", dict(TINY_RASTER, orbit=orbit))
    assert main([command, scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    err = capsys.readouterr().err
    assert "orbit" in err and field in err
    assert not (tmp_path / "out").exists()


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
        {"lhs": {"expr_abs": {"expr": "(sub (exp z) 1)"}},
         "rhs": {"power": {"c": 2.0, "n": 0}},
         "region": {"annulus": {"center": [0.0, 0.0], "r_in": 0.1, "r_out": 0.5}}},
        ["lhs", "rhs", "region", "lhs.expr_abs.expr", "rhs.power.c", "rhs.power.n",
         "region.annulus.center", "region.annulus.r_in", "region.annulus.r_out"]),
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


@pytest.mark.parametrize("quoted, passed", [(1.728, True), (1.7, True), (1.729, False),
                                            (1.72863, False)])
def test_params_identity_quotes_are_truncations(tmp_path, quoted, passed):
    # a* = 1.72862...: a quote matches when a* lies within one unit in its
    # last decimal place above it
    item = _item("params_identity", expect_a=quoted)
    report = run_scenario(_write(tmp_path, "quote.json", dict(FIELDS, items=[item])))
    assert report["items"][0]["passed"] is passed


def test_inclusion_rows_say_what_decided_their_boxes(tmp_path):
    # ex5 = z e^z maps the closed disk of radius 0.1 into the disk of radius
    # 0.115 (|f| <= 0.1 e^0.1 < 0.1106), where the mean-value ball proves 4
    # boxes, and not into that of radius 0.05: a root-cell centre maps past
    # it, and the verdict still comes from the cover
    holds = _item("inclusion", target={"disk": {"center": [0.0, 0.0], "radius": 0.115}})
    fails = dict(_item("inclusion", expect="inconclusive", budget={"max_boxes": 2000},
                       target={"disk": {"center": [0.0, 0.0], "radius": 0.05}}), id="fails")
    report = run_scenario(_write(tmp_path, "inc.json", dict(FIELDS, items=[holds, fails])))
    held, failed = (row["result"] for row in report["items"])
    assert report["all_passed"] is True
    assert held["sampled_escape"] is None and held["centred_boxes"] == 4
    assert failed["centred_boxes"] == 0 and failed["verdict"] == "inconclusive"
    re, im = failed["sampled_escape"]
    assert abs(complex(re, im)) <= 0.1 and abs(complex(re, im) * cmath.exp(complex(re, im))) >= 0.05


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
    (_item("inclusion", target=_disk(math.nan)), "inclusion-item.target.disk.radius"),
    (_item("inclusion", source=_disk(0.1, closd=True)), "inclusion-item.source.disk.closd"),
    (_item("inclusion", expect="prooved"), "inclusion-item.expect"),
    (_item("inequality", cmp="=="), "inequality-item.cmp"),
    (_item("inequality", rhs={"power": {"c": -2.0, "n": 0}}), "inequality-item.rhs.power"),
    (_item("inequality", rhs={"const": math.nan}), "inequality-item.rhs.const"),
    (_item("inequality", rhs={"pow": {"c": 2.0, "n": 0}}), "inequality-item.rhs"),
    (_item("inequality", lhs={"series_quotient": {"c": 1.0, "power": 1,
                                                  "quotient": "exp_tail", "drop": 1}}),
     "inequality-item.lhs"),
    (_drop(_item("winding"), "expect_winding"), "winding-item.expect_winding"),
    (_item("winding", w0="$nowhere"), "winding-item.w0"),
    (_item("rh_check", args="abc"), "rh_check-item.args"),
    (_item("rh_check", args=[2, 3, 3]), "rh_check-item.args"),
    (_item("fixed_point", expect_atracting=False), "fixed_point-item.expect_atracting"),
    (_item("fixed_point", tolerance=1e-3), "fixed_point-item.tolerance"),
    (_item("track", centers={"geometric": {"base": 0.0, "factor": 2.0, "count": 1.5}}),
     "track-item.centers.geometric.count"),
    (_item("track", centers={"arithmetic": {"base": 0.0, "step": 1.0, "count": 0}}),
     "track-item.centers.arithmetic.count"),
    (_item("winding", circle={"center": [0.0, 0.0], "radius": 0.0}, expect_winding=0),
     "winding-item.circle.radius"),
    (_item("point_image", map={"family": "ex5", "expr": "z"}), "point_image-item.map.expr"),
    (_item("point_image", target={"center": [100.0, 0.0], "radius": math.inf}),
     "point_image-item.target.radius"),
    (_item("point_image", target={"center": [math.e, 0.0], "radius": 0.0}),
     "point_image-item.target.radius"),
    (_item("track", radius=math.inf), "track-item.radius"),
    (_item("track", expect_all=False,
           centers={"geometric": {"base": [0.0, 0.0], "factor": math.nan, "count": 3}}),
     "track-item.centers.geometric.factor"),
    (_item("track", expect_all=False,
           centers={"arithmetic": {"base": [0.0, 0.0], "step": [math.inf, 0.0], "count": 3}}),
     "track-item.centers.arithmetic.step[0]"),
    (_item("inclusion", target={"disk": {"center": [0.0, math.nan], "radius": 1.0}}),
     "inclusion-item.target.disk.center[1]"),
    (_item("point_image", z=-math.inf), "point_image-item.z"),
    (_item("fixed_point", expect_multiplier_modulus=7.0, tolerance=math.inf),
     "fixed_point-item.tolerance"),
    (_item("fixed_point", expect_multiplier_modulus=-1.0),
     "fixed_point-item.expect_multiplier_modulus"),
    (_item("fixed_point", expect_multiplier_modulus=math.nan),
     "fixed_point-item.expect_multiplier_modulus"),
    (_item("fixed_point", expect_multiplier_modulus=math.inf),
     "fixed_point-item.expect_multiplier_modulus"),
    (_item("ray_increase", to=-5.0), "ray_increase-item.to"),
    (_item("ray_increase", to=0.0), "ray_increase-item.to"),
    (_item("ray_increase", to=math.nan), "ray_increase-item.to"),
    (_item("ray_increase", to=math.inf), "ray_increase-item.to"),
    (_item("preimages", expected=-1), "preimages-item.expected"),
    (_item("params_identity", tolerance=math.inf), "params_identity-item.tolerance"),
    (_item("params_identity", tolerance=-1e-12), "params_identity-item.tolerance"),
    (_item("preimages", near_cube_roots={"scale": 1.0, "within_factor": math.inf}),
     "preimages-item.near_cube_roots.within_factor"),
    (_item("preimages", near_cube_roots={"scale": -1.0}), "preimages-item.near_cube_roots.scale"),
    (_item("winding", min_distance_gt=-1e300), "winding-item.min_distance_gt"),
    (_item("winding", min_distance_gt=math.inf), "winding-item.min_distance_gt"),
    (_item("zero_count", poles_inside=-7), "zero_count-item.poles_inside"),
    (_item("zero_count", expect=-4), "zero_count-item.expect"),
    (_item("raster", match=[{"component": {"contains": [0.0, 0.0], "surrounds": 0.0}}]),
     "raster-item.match[0].component"),
    (_item("raster", rendr="x.ppm"), "raster-item.rendr"),
    (_item("raster", match=[{"component": {"contains": [0.0, 0.0]},
                             "expect_behavior": "drifing"}]),
     "raster-item.match[0].expect_behavior"),
], ids=["disk-without-radius", "text-max-boxes", "zero-max-boxes", "negative-radius",
        "nan-radius", "unread-closd", "unknown-verdict", "bad-cmp", "negative-power-bound",
        "nan-const-bound", "unknown-bound", "series-quotient-bound", "missing-expect-winding",
        "unresolved-ref",
        "text-args", "three-args", "unread-expect-attracting", "tolerance-without-modulus",
        "fractional-count", "zero-count", "zero-radius-circle", "family-and-expr",
        "infinite-target-radius", "zero-target-radius", "infinite-track-radius",
        "nan-track-factor", "infinite-track-step", "nan-disk-center", "infinite-point-z",
        "infinite-modulus-tolerance", "negative-multiplier-modulus", "nan-multiplier-modulus",
        "infinite-multiplier-modulus", "negative-ray-end", "zero-ray-end", "nan-ray-end",
        "infinite-ray-end", "negative-preimage-count", "infinite-identity-tolerance",
        "negative-identity-tolerance",
        "infinite-within-factor", "negative-cube-root-scale", "vacuous-distance-floor",
        "infinite-distance-floor", "negative-poles-inside", "negative-zero-count",
        "two-selectors", "unread-raster-field", "unknown-behavior"])
def test_cli_malformed_item_is_config_error(tmp_path, capsys, item, path):
    scenario = _write(tmp_path, "bad.json", dict(FIELDS, items=[item]))
    assert main(["run", scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert f'"{path}"' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value", [("max_residual", 1e-12), ("max_abs", 0.0078125)],
                         ids=["max_residual", "max_abs"])
def test_fixed_point_bounds_are_unknown_fields(tmp_path, capsys, field, value):
    # a fixed point is found only at a residual <= 1e-12 and inside its
    # region, so neither bound could fail a row: a document that sets one
    # fails loudly and names it
    scenario = _write(tmp_path, "bad.json",
                      dict(FIELDS, items=[_item("fixed_point", **{field: value})]))
    assert main(["run", scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert (f'"fixed_point-item.{field}": unknown field: nothing reads it'
            in capsys.readouterr().err)
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
@pytest.mark.parametrize("command", READERS)
def test_cli_malformed_map_is_config_error(tmp_path, capsys, command, spec, path):
    scenario = _write(tmp_path, "bad.json", dict(TINY_RASTER, map=spec))
    assert main([command, scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert f'"{path}"' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unmatched_component_is_failed_row(tmp_path, capsys):
    # what the raster finds is a result, not a config error
    item = _item("raster", match=[{"component": {"contains": [0.0, 0.0]}}])
    scenario = _write(tmp_path, "r.json", dict(FIELDS, items=[item]))
    assert main(["run", scenario, "--threads", "1"]) == 1
    row, = json.loads(capsys.readouterr().out)["items"]
    assert row["result"]["error"].startswith("LookupError: raster-item.match[0].component")


def test_lower_side_sum_is_failed_row(tmp_path, capsys):
    # a sum bounds from above only; as the rhs of < it needs a lower bound,
    # which is a failed row that names the bound, not a config error
    item = _item("inequality", lhs={"const": 1}, cmp="<",
                 rhs={"sum": [{"const": 2.0}, {"power": {"c": 1.0, "n": 1}}]})
    scenario = _write(tmp_path, "s.json", dict(FIELDS, items=[item]))
    assert main(["run", scenario, "--threads", "1"]) == 1
    row, = json.loads(capsys.readouterr().out)["items"]
    assert row["passed"] is False
    assert "SumBound has no certified lower bound" in row["result"]["error"]


def test_invalid_winding_fails_its_rows(tmp_path):
    # the image of |z| = 0.5 under z passes through w0 = 0.5: the winding
    # never validates, so the count raises and the winding row reports it
    curve = {"map": {"expr": "z"}, "w0": [0.5, 0.0]}
    report = run_scenario(_write(tmp_path, "w.json", dict(
        FIELDS, items=[_item("zero_count", **curve), _item("winding", **curve)])))
    count, winding = report["items"]
    assert not count["passed"] and count["result"]["error"].startswith("InvalidCurve")
    assert not winding["passed"] and winding["result"]["valid"] is False


def test_unread_match_field_is_config_error(tmp_path, capsys):
    match = {"component": {"contains": [-0.015625, 0.0]}, "expect_behaviour": "attracted"}
    item = dict(TINY_RASTER["items"][0], match=[match])
    scenario = _write(tmp_path, "r.json", dict(TINY_RASTER, items=[item]))
    assert main(["run", scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert '"tiny-img.match[0].expect_behaviour"' in capsys.readouterr().err


@pytest.mark.parametrize("extra, path", [
    ({"matchh": []}, "tiny-img.matchh"),
    # a selector that fails when run does not hide the unknown field
    ({"matchh": [], "match": [{"component": {"contains": [0.015625, 0.0]}}]},
     "tiny-img.matchh"),
    ({"render": 5}, "tiny-img.render"),
    ({"monotonicity": "yes"}, "tiny-img.monotonicity"),
    ({"match": [{"component": {"contains": [-0.015625, 0.0]},
                 "expect_connectivity": "two"}]}, "tiny-img.match[0].expect_connectivity"),
    ({"match": [{"component": {"contains": "origin"}}]}, "tiny-img.match[0].component.contains"),
    # an image goes into the report's directory, under a bare file name
    ({"render": "{tmp}/escaped.ppm"}, "tiny-img.render"),
    ({"render": "../escaped.ppm"}, "tiny-img.render"),
    ({"render": "sub/escaped.ppm"}, "tiny-img.render"),
    ({"render": ".."}, "tiny-img.render"),
    ({"render": ""}, "tiny-img.render"),
], ids=["unknown-field", "unknown-field-and-failing-selector", "text-render",
        "text-monotonicity", "text-connectivity", "text-anchor", "absolute-render",
        "parent-render", "nested-render", "dotdot-render", "empty-render"])
@pytest.mark.parametrize("command", READERS)
def test_cli_malformed_raster_item_is_config_error(tmp_path, capsys, command, extra, path):
    # run reads every field of a raster item before classifying; the report
    # would go to work/, so an image name leaving it lands in tmp_path
    work = tmp_path / "work"
    (work / "sub").mkdir(parents=True)
    extra = {k: v.format(tmp=tmp_path) if isinstance(v, str) else v for k, v in extra.items()}
    item = dict(TINY_RASTER["items"][0], **extra)
    scenario = _write(tmp_path, "r.json", dict(TINY_RASTER, items=[item]))
    assert main([command, scenario, "--out", str(work / "out"), "--threads", "1"]) == 2
    assert f'"{path}"' in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [tmp_path / "r.json"]


@pytest.mark.parametrize("field, value", [
    ("window", [1.0, -1.0, -1.0, 1.0]),
    ("window", "all"),
    ("resolution", [1, 8]),
], ids=["inverted-window", "text-window", "unit-resolution"])
def test_malformed_raster_block_is_config_error_without_raster(tmp_path, capsys, field, value):
    payload = dict(FIELDS, items=[_item("rh_check")], **{field: value})
    scenario = _write(tmp_path, "bad.json", payload)
    assert main(["run", scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert f'"{field}"' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_load_decodes_the_top_level_once(tmp_path):
    scenario = load_scenario(_write(tmp_path, "r.json", TINY_RASTER))
    assert scenario.map_spec == TINY_RASTER["map"]
    assert scenario.params == TINY_RASTER["map"]["params"]
    assert scenario.map.expr == build_family("ex1", scenario.params).expr
    assert scenario.window == ComplexBox(-0.05, 0.05, -0.05, 0.05)
    assert scenario.resolution == (16, 12)
    assert scenario.orbit == OrbitConfig()
    bare = load_scenario(_write(tmp_path, "t.json", dict(TINY, map={})))
    assert (bare.map, bare.params, bare.window, bare.resolution) == (None, {}, None, None)


@pytest.mark.parametrize("orbit, want", [
    ({}, OrbitConfig()),
    ({"stations": {}}, OrbitConfig(stations=(StationSpec(),))),
    ({"stations": [{}, {"step": -1.0}]},
     OrbitConfig(stations=(StationSpec(), StationSpec(step=-1.0)))),
    ({"max_iter": 7}, OrbitConfig(max_iter=7)),
], ids=["empty", "empty-ladder", "two-ladders", "one-field"])
def test_absent_orbit_fields_keep_constructor_defaults(tmp_path, orbit, want):
    assert load_scenario(_write(tmp_path, "o.json", dict(TINY, orbit=orbit))).orbit == want


@pytest.mark.parametrize("doc, read, want", [
    ({}, lambda rd: rd.budget(), Budget()),
    ({"budget": {}}, lambda rd: rd.budget(), Budget()),
    ({"budget": {"max_depth": 3}}, lambda rd: rd.budget(), Budget(max_depth=3)),
    ({"r": {"disk": {"center": 0.0, "radius": 1.0}}}, lambda rd: rd.region("r"),
     Disk(0j, 1.0)),
    ({"r": {"annulus": {"center": 0.0, "r_in": 1.0, "r_out": 2.0}}},
     lambda rd: rd.region("r"), annulus(0j, 1.0, 2.0)),
    ({"r": {"half_strip": {"re_hi": 1.0, "im_lo": -1.0, "im_hi": 1.0}}},
     lambda rd: rd.region("r"), HalfStrip(-math.inf, 1.0, -1.0, 1.0)),
    ({"b": {"power": {"c": 1.0, "n": 2}}}, lambda rd: rd.bound("b").center, 0j),
], ids=["no-budget", "empty-budget", "depth-only", "disk", "annulus", "half-strip",
        "power-center"])
def test_absent_item_fields_keep_constructor_defaults(doc, read, want):
    rd = _Doc(doc, {}, "item")
    assert read(rd) == want
    rd.finish()


def test_unread_orbit_field_is_config_error(tmp_path, capsys):
    scenario = _write(tmp_path, "r.json", dict(TINY_RASTER, orbit={"max_iters": 10}))
    assert main(["run", scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert '"orbit.max_iters"' in capsys.readouterr().err


@pytest.mark.parametrize("extra, path", [
    ({"resolutoin": [4, 4]}, "resolutoin"),
    ({"orbit": {"max_iters": 3}}, "orbit.max_iters"),
], ids=["unread-top-level-key", "unread-orbit-field-without-raster"])
def test_unread_document_field_is_config_error_without_raster(tmp_path, capsys, extra, path):
    payload = dict(FIELDS, items=[_item("rh_check")], **extra)
    scenario = _write(tmp_path, "bad.json", payload)
    assert main(["run", scenario, "--out", str(tmp_path / "out"), "--threads", "1"]) == 2
    assert f'"{path}"' in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# --- pixmap bytes ---------------------------------------------------------------

def _grid(labels, ids=None):
    labels = np.asarray(labels, dtype=np.uint8)
    if ids is None:
        ids = np.full(labels.shape, -1, dtype=np.int32)
    return RasterGrid(ComplexBox(-1.0, 1.0, -1.0, 1.0), labels, np.asarray(ids, dtype=np.int32))


def _rendered(grid, path) -> bytes:
    pixmap.render_pixmap(grid, path)
    return path.read_bytes()


def test_render_bytes_all_unresolved(tmp_path):
    data = _rendered(_grid(np.zeros((2, 2))), tmp_path / "g.ppm")
    assert data == b"P6\n2 2\n255\n" + bytes(pixmap.GRAY) * 4


def test_render_bytes_palette_and_row_flip(tmp_path):
    # ids past the palette length wrap around: 5 -> BLUES[1], 7 -> GREENS[3]
    grid = _grid([[ATTRACTED, DRIFTING, ATTRACTED],
                  [POLE_ADJACENT, JULIA_SUSPECT, DRIFTING]],
                 ids=[[0, 2, 5], [-1, -1, 7]])
    # files run top-down, the grid bottom-up: row 1 is written first
    want = (b"P6\n3 2\n255\n"
            + bytes(pixmap.RED) + bytes(pixmap.BLACK) + bytes(pixmap.GREENS[3])
            + bytes(pixmap.BLUES[0]) + bytes(pixmap.GREENS[2]) + bytes(pixmap.BLUES[1]))
    assert _rendered(grid, tmp_path / "g.ppm") == want


def test_palette_color_cycles(tmp_path):
    def color(label, ident):
        data = _rendered(_grid([[label]], ids=[[ident]]), tmp_path / "g.ppm")
        return tuple(data[-3:])

    assert color(ATTRACTED, 0) == pixmap.BLUES[0]
    assert color(ATTRACTED, 5) == pixmap.BLUES[1]
    assert color(DRIFTING, 7) == pixmap.GREENS[3]
    assert color(POLE_ADJACENT, 0) == pixmap.RED
    assert color(JULIA_SUSPECT, 0) == pixmap.BLACK
    assert color(0, 0) == pixmap.GRAY


def test_render_bytes_deterministic(tmp_path):
    rng = np.random.default_rng(3)
    labels = rng.integers(0, 5, size=(7, 9))
    ids = rng.integers(-1, 6, size=(7, 9))
    a = _rendered(_grid(labels, ids), tmp_path / "a.ppm")
    b = _rendered(_grid(labels, ids), tmp_path / "b.ppm")
    assert a == b


def test_render_streams_the_image_in_blocks_of_rows(tmp_path):
    # every label and id at random on ex2's 1600x400 grid: rendering holds
    # one block of rows' codes and colors at a time, never a copy of the
    # image (1.9 MB) or its codes, so it peaks below the labels' own bytes;
    # the rows still run top-down, and a last block may be short
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 5, size=(400, 1600))
    grid = _grid(labels, rng.integers(-1, 9, size=(400, 1600)))
    path = tmp_path / "g.ppm"
    _, peak = traced_peak(pixmap.render_pixmap, grid, path)
    assert peak < grid.labels.nbytes
    data = path.read_bytes()
    assert len(data) == len(b"P6\n1600 400\n255\n") + 3 * grid.labels.size
    # a block of rows of a 3x(B + 1) grid, then one more row
    rows = pixmap._BLOCK_ROWS + 1
    small = _grid(np.full((rows, 3), POLE_ADJACENT))
    small.labels[0] = JULIA_SUSPECT
    data = _rendered(small, tmp_path / "s.ppm")
    assert data.endswith(bytes(pixmap.RED) * 3 + bytes(pixmap.BLACK) * 3)


# --- the benchmark's use of the package -------------------------------------------

def test_benchmark_probe_builds_the_bundled_maps(monkeypatch):
    # bench/probe.py loads each document and builds its map from map_spec
    monkeypatch.syspath_prepend(str(BENCH))
    probe = runpy.run_path(str(BENCH / "probe.py"))
    probe["build"](BENCH.parent, sorted(bundled_scenarios()))


def test_benchmark_check_passes_the_bundled_reports(monkeypatch, ex2_report):
    # bench/worker.py's check compares every bundled row with the verdicts
    # and headline values bench/reference.json pins
    monkeypatch.syspath_prepend(str(BENCH))
    worker = runpy.run_path(str(BENCH / "worker.py"))
    reference = json.loads(worker["REFERENCE"].read_text(encoding="utf-8"))["items"]
    reports = [ex2_report[0] if name == "ex2-core" else run_scenario(name, threads=2)
               for name in sorted(bundled_scenarios())]
    assert worker["check"](reports, reference) == (26, [])


def test_benchmark_worker_runs_a_document_as_the_benchmark_does(tmp_path, monkeypatch):
    # bench/worker.py's run_pass reads each run's "ref", "threads" and
    # "out_dir" and passes them on to run_scenario
    monkeypatch.syspath_prepend(str(BENCH))
    worker = runpy.run_path(str(BENCH / "worker.py"))
    out = tmp_path / "out"
    out.mkdir()
    run = {"ref": _write(tmp_path, "r.json", TINY_RASTER), "threads": 1, "out_dir": str(out)}
    _, (report,) = worker["run_pass"](scenario_module, [run])
    assert report["all_passed"] is True and "error" not in report["items"][0]["result"]
    assert json.loads((out / "tiny-raster.json").read_text()) == report
    assert (out / "tiny.ppm").read_bytes().startswith(b"P6\n16 12\n255\n")


def test_benchmark_tracer_keeps_what_its_metrics_read(tmp_path):
    # a traced pass keeps a winding's samples, a certificate's stats and a
    # raster's component count, read through wanderlab's own result types
    tracing = runpy.run_path(str(BENCH / "tracing.py"))
    payload = dict(FIELDS, items=[_item("winding"), _item("inclusion"), _item("raster")])
    path = _write(tmp_path, "traced.json", payload)
    tracer = tracing["Tracer"]()
    with tracer.installed():
        report = scenario_module.run_scenario(path)
    assert report["all_passed"] is True
    kept = {tracer.names[tracer.name[i]]: value for i, value in tracer.kept.items()}
    assert kept["certify.winding_number"] == report["items"][0]["result"]["samples"]
    assert kept["certify.certify_inclusion"][0] == report["items"][1]["result"]["boxes_examined"]
    assert isinstance(kept["topology.label_components"], int)
    assert tracer.names.index("dynamics.classify_grid") in tracer.name
    assert kept["scenario.run_scenario"] == 3
    assert scenario_module.run_scenario is run_scenario
