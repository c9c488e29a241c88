"""Scenario files, item execution, and JSON reports.

A scenario is a versioned JSON document: one map (family or custom
expression), an optional raster window/resolution/orbit configuration,
and an ordered list of items.  Items run sequentially because derived
constants feed forward: an item may publish values (r1, r2, ...) that
later items reference as "$name".  Every item lands in the report
exactly once with a passed flag; executor exceptions are recorded as
failures, never dropped.  Config and syntax problems raise
ScenarioError instead — the CLI maps those to exit status 2.
"""
from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import __version__
from .certify import (
    Budget,
    ConstBound,
    ExprBound,
    PowerBound,
    QuotientSeriesBound,
    SumBound,
    certify_inclusion,
    certify_inequality,
    count_zeros_inside,
    derive_ex2_constants,
    locate_preimages,
    riemann_hurwitz_check,
    winding_number,
)
from .dynamics import OrbitConfig, StationSpec, classify_grid, find_fixed_point, track_wandering
from .maps import MeromorphicMap, build_family, custom_map, derivative, eval_map, solve_ex2_params
from .numerics import (
    ComplexBox,
    quot_cos_defect,
    quot_exp_tail,
    quot_one_minus_cos,
    quot_z_minus_sin,
)
from .pixmap import render_pixmap
from .regions import Annulus, BoxRegion, Difference, Disk, HalfStrip, Region, Union
from .topology import connectivity, connectivity_monotonicity_check, label_components, surrounds

SCENARIO_SCHEMA = "scenario/1"
REPORT_SCHEMA = "report/1"


class ScenarioError(ValueError):
    """Malformed scenario: bad schema, unknown kind, unresolved reference."""

    def __init__(self, message: str, where: str | None = None):
        super().__init__(message if where is None else f"{where}: {message}")
        self.where = where


@dataclass
class Scenario:
    name: str
    description: str
    map_spec: dict
    window: list | None
    resolution: list | None
    orbit: dict
    items: list
    path: str


def bundled_scenarios() -> dict:
    """Name -> loadable path for every scenario shipped with the package."""
    root = resources.files("wanderlab") / "scenarios"
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[:-5]] = entry
    return out


def load_scenario(ref) -> Scenario:
    """Load a scenario from a path or a bundled name."""
    bundled = bundled_scenarios()
    if isinstance(ref, str) and ref in bundled:
        source, where = bundled[ref], f"bundled:{ref}"
    else:
        source, where = ref, str(ref)
    try:
        with open(source, "rb") as fh:
            raw = json.load(fh)
    except OSError as e:
        raise ScenarioError(f"cannot read scenario: {e}", where) from None
    except json.JSONDecodeError as e:
        raise ScenarioError(f"invalid JSON at line {e.lineno} column {e.colno}: {e.msg}",
                            where) from None
    if not isinstance(raw, dict) or raw.get("schema") != SCENARIO_SCHEMA:
        raise ScenarioError(f'expected "schema": "{SCENARIO_SCHEMA}"', where)
    items = raw.get("items", [])
    if not isinstance(items, list):
        raise ScenarioError('"items" must be a list', where)
    seen = set()
    for item in items:
        if not isinstance(item, dict) or "id" not in item or "kind" not in item:
            raise ScenarioError('every item needs "id" and "kind"', where)
        if item["id"] in seen:
            raise ScenarioError(f'duplicate item id {item["id"]!r}', where)
        seen.add(item["id"])
    return Scenario(
        name=raw.get("name", "unnamed"),
        description=raw.get("description", ""),
        map_spec=raw.get("map", {}),
        window=raw.get("window"),
        resolution=raw.get("resolution"),
        orbit=raw.get("orbit", {}),
        items=items,
        path=where,
    )


# --- JSON -> object decoding -------------------------------------------------

def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _resolve(value, env, where):
    if isinstance(value, str):
        if value.startswith("$") and value[1:] in env:
            return env[value[1:]]
        raise ScenarioError(f"unresolved reference {value!r}", where)
    if not _number(value):
        raise ScenarioError(f"expected a number or $reference, got {value!r}", where)
    return float(value)


def _cnum(value, env, where) -> complex:
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_resolve(value[0], env, where), _resolve(value[1], env, where))
    return complex(_resolve(value, env, where))


def _decode_region(spec, env, where) -> Region:
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ScenarioError(f"region must be a single-key object, got {spec!r}", where)
    (kind, body), = spec.items()
    if kind == "disk":
        return Disk(_cnum(body["center"], env, where),
                    _resolve(body["radius"], env, where),
                    closed=bool(body.get("closed", False)))
    if kind == "annulus":
        return Annulus(_cnum(body["center"], env, where),
                       _resolve(body["r_in"], env, where),
                       _resolve(body["r_out"], env, where),
                       closed=bool(body.get("closed", True)))
    if kind == "half_strip":
        lo = body.get("re_lo")
        return HalfStrip(-math.inf if lo is None else _resolve(lo, env, where),
                         _resolve(body["re_hi"], env, where),
                         _resolve(body["im_lo"], env, where),
                         _resolve(body["im_hi"], env, where),
                         closed=bool(body.get("closed", True)))
    if kind == "box":
        return BoxRegion(*(_resolve(body[k], env, where)
                           for k in ("re_lo", "re_hi", "im_lo", "im_hi")))
    if kind == "difference":
        return Difference(_decode_region(body["minuend"], env, where),
                          _decode_region(body["subtrahend"], env, where))
    if kind == "union":
        return Union(*(_decode_region(part, env, where) for part in body))
    raise ScenarioError(f"unknown region kind {kind!r}", where)


_QUOTIENTS = {
    "one_minus_cos": quot_one_minus_cos,
    "z_minus_sin": quot_z_minus_sin,
    "cos_defect": quot_cos_defect,
}


def _decode_bound(spec, env, where):
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ScenarioError(f"bound must be a single-key object, got {spec!r}", where)
    (kind, body), = spec.items()
    if kind == "const":
        return ConstBound(_resolve(body, env, where))
    if kind == "power":
        return PowerBound(_resolve(body["c"], env, where), int(body["n"]),
                          _cnum(body.get("center", 0.0), env, where))
    if kind == "series_quotient":
        name = body["quotient"]
        if name == "exp_tail":
            drop = int(body["drop"])
            fn = lambda b: quot_exp_tail(b, drop=drop)  # noqa: E731
        elif name in _QUOTIENTS:
            fn = _QUOTIENTS[name]
        else:
            raise ScenarioError(f"unknown series quotient {name!r}", where)
        return QuotientSeriesBound(_resolve(body["c"], env, where),
                                   int(body["power"]), fn,
                                   _cnum(body.get("center", 0.0), env, where))
    if kind == "expr_abs":
        return ExprBound(_decode_map(body, env, where))
    if kind == "sum":
        return SumBound(*(_decode_bound(part, env, where) for part in body))
    raise ScenarioError(f"unknown bound kind {kind!r}", where)


def _decode_map(spec, env, where) -> MeromorphicMap:
    if "family" in spec:
        params = {k: _resolve(v, env, where)
                  for k, v in spec.get("params", {}).items()}
        return build_family(spec["family"], params or None)
    if "expr" in spec:
        params = {k: _resolve(v, env, where)
                  for k, v in spec.get("params", {}).items()}
        poles = tuple(_cnum(p, env, where) for p in spec.get("poles", []))
        return custom_map(spec["expr"], params=params, declared_poles=poles)
    raise ScenarioError('map needs "family" or "expr"', where)


def _decode_budget(spec, budget_boxes=None) -> Budget:
    spec = spec or {}
    max_boxes = int(spec.get("max_boxes", 1_000_000))
    max_depth = int(spec.get("max_depth", 24))
    if budget_boxes is not None:
        max_boxes = int(budget_boxes)
    return Budget(max_boxes=max_boxes, max_depth=max_depth)


def _orbit_field(spec, key, default, where, integer=False):
    value = spec.get(key, default)
    if not _number(value) or (integer and not isinstance(value, int)):
        kind = "an integer" if integer else "a number"
        raise ScenarioError(f'"{key}" must be {kind}, got {value!r}', where)
    return value


def _decode_orbit(spec, max_iter=None) -> OrbitConfig:
    """The scenario's "orbit" block; "stations" is one ladder object or a
    list of them.  A bad value raises ScenarioError naming its field."""
    spec = {} if spec is None else spec
    ladders = spec.get("stations", []) if isinstance(spec, dict) else None
    if isinstance(ladders, dict):
        ladders = [ladders]
    if not (isinstance(ladders, list) and all(isinstance(st, dict) for st in ladders)):
        raise ScenarioError('"orbit" must be an object whose "stations" is an object '
                            f"or a list of objects, got {spec!r}", "orbit")
    stations = []
    for k, st in enumerate(ladders):
        where = f"orbit.stations[{k}]"
        base = st.get("base", [0.0, 0.0])
        if not (isinstance(base, list) and len(base) == 2 and all(map(_number, base))):
            raise ScenarioError(f'"base" must be two numbers [re, im], got {base!r}', where)
        try:
            stations.append(StationSpec(
                base=complex(*base),
                step=float(_orbit_field(st, "step", 2.0 * math.pi, where)),
                radius=float(_orbit_field(st, "radius", 0.5, where)),
                min_index=_orbit_field(st, "min_index", 1, where, integer=True),
                streak=_orbit_field(st, "streak", 12, where, integer=True),
            ))
        except ValueError as e:
            raise ScenarioError(str(e), where) from None
    if max_iter is None:
        max_iter = _orbit_field(spec, "max_iter", 500, "orbit", integer=True)
    try:
        return OrbitConfig(
            max_iter=max_iter,
            escape_radius=float(_orbit_field(spec, "escape_radius", 1e6, "orbit")),
            attract_tol=float(_orbit_field(spec, "attract_tol", 1e-9, "orbit")),
            cycle_window=_orbit_field(spec, "cycle_window", 8, "orbit", integer=True),
            stations=tuple(stations),
        )
    except ValueError as e:
        raise ScenarioError(str(e), "orbit") from None


# --- item executors ----------------------------------------------------------

def _item_map(item, scenario_map, env, where):
    if "map" in item:
        return _decode_map(item["map"], env, where)
    if scenario_map is None:
        raise ScenarioError("item needs a map and the scenario declares none", where)
    return scenario_map


def _cert_result(cert) -> dict:
    return {
        "verdict": cert.verdict,
        "boxes_examined": int(cert.stats["boxes_examined"]),
        "max_depth": int(cert.stats["max_depth"]),
        "survivors": int(cert.stats["survivors"]),
        "budget_exhausted": bool(cert.stats["budget_exhausted"]),
        "elapsed": float(cert.stats["elapsed"]),
    }


def _run_inclusion(item, ctx):
    m = _item_map(item, ctx["map"], ctx["env"], item["id"])
    source = _decode_region(item["source"], ctx["env"], item["id"])
    target = _decode_region(item["target"], ctx["env"], item["id"])
    budget = _decode_budget(item.get("budget"), ctx["budget_boxes"])
    cert = certify_inclusion(m, source, target, budget)
    expect = item.get("expect", "proved")
    out = _cert_result(cert)
    out["expected_verdict"] = expect
    return cert.verdict == expect, out


def _run_inequality(item, ctx):
    lhs = _decode_bound(item["lhs"], ctx["env"], item["id"])
    rhs = _decode_bound(item["rhs"], ctx["env"], item["id"])
    region = _decode_region(item["region"], ctx["env"], item["id"])
    budget = _decode_budget(item.get("budget"), ctx["budget_boxes"])
    cert = certify_inequality(lhs, rhs, region, budget, cmp=item.get("cmp", "<"))
    expect = item.get("expect", "proved")
    out = _cert_result(cert)
    out["expected_verdict"] = expect
    return cert.verdict == expect, out


def _target_map(item, ctx):
    m = _item_map(item, ctx["map"], ctx["env"], item["id"])
    if item.get("target", "f") == "f_prime":
        return derivative(m)
    return m


def _run_winding(item, ctx):
    m = _target_map(item, ctx)
    circle = (_cnum(item["circle"]["center"], ctx["env"], item["id"]),
              _resolve(item["circle"]["radius"], ctx["env"], item["id"]))
    w0 = _cnum(item["w0"], ctx["env"], item["id"])
    res = winding_number(m, circle, w0)
    ok = res.valid and res.winding == int(item["expect_winding"])
    floor = item.get("min_distance_gt")
    if floor is not None:
        ok = ok and res.min_distance > _resolve(floor, ctx["env"], item["id"])
    return ok, {
        "winding": res.winding,
        "expected_winding": int(item["expect_winding"]),
        "min_distance": res.min_distance,
        "max_arg_step": res.max_arg_step,
        "samples": res.samples,
        "valid": res.valid,
    }


def _run_zero_count(item, ctx):
    m = _target_map(item, ctx)
    circle = (_cnum(item["circle"]["center"], ctx["env"], item["id"]),
              _resolve(item["circle"]["radius"], ctx["env"], item["id"]))
    count = count_zeros_inside(m, circle, _cnum(item["w0"], ctx["env"], item["id"]),
                               poles_inside=int(item["poles_inside"]))
    return count == int(item["expect"]), {
        "count": count, "expected": int(item["expect"]),
        "poles_inside": int(item["poles_inside"]),
    }


def _run_preimages(item, ctx):
    m = _item_map(item, ctx["map"], ctx["env"], item["id"])
    region = _decode_region(item["region"], ctx["env"], item["id"])
    w0 = _cnum(item["w0"], ctx["env"], item["id"])
    expected = int(item["expected"])
    roots = locate_preimages(m, w0, region, expected)
    out = {"roots": [[z.real, z.imag] for z in roots], "expected": expected}
    ok = True
    near = item.get("near_cube_roots")
    if near is not None:
        r = _resolve(near["scale"], ctx["env"], item["id"]) ** (1.0 / 3.0)
        factor = float(near.get("within_factor", 0.3))
        worst = 0.0
        for k in range(3):
            t = r * complex(math.cos(2.0 * math.pi * k / 3.0),
                            math.sin(2.0 * math.pi * k / 3.0))
            close = [z for z in roots if abs(z - t) < factor * r]
            ok = ok and len(close) == 1
            if close:
                worst = max(worst, abs(close[0] - t) / r)
        out["target_radius"] = r
        out["worst_relative_offset"] = worst
    return ok, out


def _run_fixed_point(item, ctx):
    m = _item_map(item, ctx["map"], ctx["env"], item["id"])
    region = _decode_region(item["region"], ctx["env"], item["id"])
    rep = find_fixed_point(m, region)
    out = {
        "location": [rep.location.real, rep.location.imag],
        "residual": rep.residual,
        "multiplier_modulus": abs(rep.multiplier),
        "attracting": rep.attracting,
    }
    ok = rep.residual <= float(item.get("max_residual", 1e-12))
    if "max_abs" in item:
        ok = ok and abs(rep.location) < _resolve(item["max_abs"], ctx["env"], item["id"])
    if "expect_attracting" in item:
        ok = ok and rep.attracting == bool(item["expect_attracting"])
    if "expect_multiplier_modulus" in item:
        want = _resolve(item["expect_multiplier_modulus"], ctx["env"], item["id"])
        tol = float(item.get("tolerance", 1e-9))
        ok = ok and abs(abs(rep.multiplier) - want) < tol
    return ok, out


def _run_point_image(item, ctx):
    m = _item_map(item, ctx["map"], ctx["env"], item["id"])
    z = _cnum(item["z"], ctx["env"], item["id"])
    center = _cnum(item["target"]["center"], ctx["env"], item["id"])
    radius = _resolve(item["target"]["radius"], ctx["env"], item["id"])
    w = eval_map(m, z)
    dist = abs(w - center)
    return dist < radius, {
        "image": [w.real, w.imag], "distance": dist, "radius": radius,
    }


def _run_track(item, ctx):
    m = _item_map(item, ctx["map"], ctx["env"], item["id"])
    z0 = _cnum(item["z0"], ctx["env"], item["id"])
    spec = item["centers"]
    if "geometric" in spec:
        body = spec["geometric"]
        base = _cnum(body["base"], ctx["env"], item["id"])
        factor = _resolve(body["factor"], ctx["env"], item["id"])
        centers = [base * factor ** n for n in range(int(body["count"]))]
    elif "arithmetic" in spec:
        body = spec["arithmetic"]
        base = _cnum(body["base"], ctx["env"], item["id"])
        step = _cnum(body["step"], ctx["env"], item["id"])
        centers = [base + step * n for n in range(int(body["count"]))]
    else:
        raise ScenarioError('track centers need "geometric" or "arithmetic"',
                            item["id"])
    radius = _resolve(item["radius"], ctx["env"], item["id"])
    flags = track_wandering(m, z0, centers, radius, len(centers))
    ok = all(flags) if item.get("expect_all", True) else True
    return ok, {"flags": flags, "stations": len(flags), "radius": radius}


def _run_params_identity(item, ctx):
    a, lam = solve_ex2_params()
    tol = float(item.get("tolerance", 1e-12))
    res_sin = abs(lam * math.sin(a) - 2.0 * math.pi)
    res_cos = abs(1.0 + lam * math.cos(a))
    ok = res_sin < tol and res_cos < tol
    # quoted constants are truncated, not rounded: match within one unit
    # in the last quoted decimal place
    for key, value in (("expect_a", a), ("expect_lambda", lam)):
        if key in item:
            ok = ok and abs(value - float(item[key])) < 1e-3
    out = {"a": a, "lambda": lam, "sin_residual": res_sin, "cos_residual": res_cos}
    ctx["env"].setdefault("a_star", a)
    ctx["env"].setdefault("lambda_star", lam)
    return ok, out


def _run_derived_constants(item, ctx):
    if ctx["budget_boxes"] is not None:
        kw = {"candidate_budget": Budget(ctx["budget_boxes"], 20),
              "final_budget": Budget(ctx["budget_boxes"], 22)}
    else:
        kw = {}
    derived = derive_ex2_constants(**kw)
    ok = (derived["station_cert"].proved
          and 0.0 < derived["r1"] < 0.5
          and 6.0 * math.sqrt(derived["eps"]) < derived["r1"]
          and derived["eps"] < 1.0 / 144.0)
    for key in ("r1", "eps", "rho_g", "r2"):
        ctx["env"][key] = derived[key]
    out = {
        "r1": derived["r1"],
        "eps": derived["eps"],
        "rho_g": derived["rho_g"],
        "r2": derived["r2"],
        "pole_weight_first_station": derived["pole_weight_first_station"],
        "station_cert": _cert_result(derived["station_cert"]),
        "periodicity_note": derived["periodicity_note"],
    }
    return ok, out


def _run_rh_check(item, ctx):
    args = [int(v) for v in item["args"]]
    value = riemann_hurwitz_check(*args)
    return value == bool(item["expect"]), {"args": args, "value": value}


def _run_ray_increase(item, ctx):
    m = _item_map(item, ctx["map"], ctx["env"], item["id"])
    hi = _resolve(item["to"], ctx["env"], item["id"])
    samples = int(item.get("samples", 1000))
    min_margin = math.inf
    ok = True
    for k in range(1, samples + 1):
        x = hi * k / samples
        w = eval_map(m, complex(x))
        margin = w.real - x
        min_margin = min(min_margin, margin)
        if not (w.real > x > 0.0 and abs(w.imag) < 1e-9 * (1.0 + abs(w.real))):
            ok = False
    return ok, {"samples": samples, "min_margin": min_margin}


def _select_component(cm, selector, grid, env, where):
    if "contains" in selector:
        p = _cnum(selector["contains"], env, where)
        i, j = grid.pixel_of(p)
        cid = int(cm.labels[j, i])
        if cid == 0:
            raise ScenarioError(f"anchor {p} lies on a non-candidate pixel", where)
        return cid
    if "surrounds" in selector:
        p = _cnum(selector["surrounds"], env, where)
        cands = [(info.pixel_count, cid)
                 for cid, info in cm.component_table.items()
                 if not info.touches_border and surrounds(cm, cid, p)]
        if not cands:
            raise ScenarioError(f"no bounded component surrounds {p}", where)
        return min(cands)[1]
    raise ScenarioError('component selector needs "contains" or "surrounds"', where)


def _run_raster(item, ctx):
    grid = _raster_grid(item, ctx)
    width, height = grid.width, grid.height
    cm = label_components(grid)
    ok = True
    matches = []
    matched_ids = []
    for match in item.get("match", []):
        cid = _select_component(cm, match["component"], grid, ctx["env"], item["id"])
        matched_ids.append(cid)
        info = cm.component_table[cid]
        rep = connectivity(cm, cid)
        row = {
            "component": cid,
            "behavior": list(info.behavior_label),
            "pixel_count": info.pixel_count,
            "connectivity": rep.connectivity,
            "touches_border": info.touches_border,
        }
        good = True
        if "expect_behavior" in match:
            good = good and info.behavior_label[0] == match["expect_behavior"]
        if "expect_connectivity" in match:
            good = good and rep.connectivity == int(match["expect_connectivity"])
        if "expect_connectivity_at_least" in match:
            good = good and rep.connectivity >= int(match["expect_connectivity_at_least"])
        if "hole_contains" in match:
            p = _cnum(match["hole_contains"], ctx["env"], item["id"])
            inside = surrounds(cm, cid, p)
            row["surrounds"] = inside
            good = good and inside
        row["passed"] = good
        matches.append(row)
        ok = ok and good
    out = {"matches": matches, "resolution": [width, height]}
    if item.get("monotonicity"):
        rep = connectivity_monotonicity_check(cm, matched_ids)
        out["monotonicity"] = {
            "sequence": [list(pair) for pair in rep.sequence],
            "non_increasing": rep.non_increasing,
            "skipped": list(rep.skipped),
        }
        ok = ok and rep.non_increasing
    if item.get("render") and ctx["out_dir"] is not None:
        path = ctx["out_dir"] / item["render"]
        render_pixmap(grid, path)
        out["image"] = str(path)
    counts = {}
    for code, name in ((0, "unresolved"), (1, "attracted"), (2, "drifting"),
                       (3, "pole_adjacent"), (4, "julia_suspect")):
        counts[name] = int((grid.labels == code).sum())
    out["label_counts"] = counts
    out["verdict_counts"] = grid.verdict_counts
    return ok, out


_EXECUTORS = {
    "inclusion": _run_inclusion,
    "inequality": _run_inequality,
    "winding": _run_winding,
    "zero_count": _run_zero_count,
    "preimages": _run_preimages,
    "fixed_point": _run_fixed_point,
    "point_image": _run_point_image,
    "track": _run_track,
    "params_identity": _run_params_identity,
    "derived_constants": _run_derived_constants,
    "rh_check": _run_rh_check,
    "ray_increase": _run_ray_increase,
    "raster": _run_raster,
}


def _make_ctx(scenario: Scenario, threads, budget_boxes, max_iter, out_dir) -> dict:
    env = {"pi": math.pi, "two_pi": 2.0 * math.pi, "four_pi": 4.0 * math.pi}
    scenario_map = None
    if scenario.map_spec:
        for key, value in scenario.map_spec.get("params", {}).items():
            env.setdefault(key, float(value))
        scenario_map = _decode_map(scenario.map_spec, env, scenario.name)
    return {
        "scenario": scenario,
        "map": scenario_map,
        "env": env,
        "threads": max(1, int(threads)),
        "budget_boxes": budget_boxes,
        "max_iter": max_iter,
        "out_dir": out_dir,
    }


def _raster_grid(item, ctx):
    scenario = ctx["scenario"]
    window, resolution = scenario.window, scenario.resolution
    if not (isinstance(window, (list, tuple)) and len(window) == 4
            and all(_number(v) and math.isfinite(v) for v in window)
            and window[0] <= window[1] and window[2] <= window[3]):
        raise ScenarioError('"window" must be four finite numbers [re_lo, re_hi, '
                            f"im_lo, im_hi] with lo <= hi, got {window!r}", item["id"])
    if not (isinstance(resolution, (list, tuple)) and len(resolution) == 2
            and all(_number(v) and isinstance(v, int) and v >= 2 for v in resolution)):
        raise ScenarioError('"resolution" must be two integers >= 2 [width, height], '
                            f"got {resolution!r}", item["id"])
    window = ComplexBox(*(float(v) for v in window))
    width, height = resolution
    m = _item_map(item, ctx["map"], ctx["env"], item["id"])
    cfg = _decode_orbit(scenario.orbit, ctx["max_iter"])
    return classify_grid(m, window, width, height, cfg, workers=ctx["threads"])


def render_scenario_raster(ref, out_path, threads: int = 1, max_iter=None) -> dict:
    """Classify and render the first raster item of a scenario."""
    scenario = ref if isinstance(ref, Scenario) else load_scenario(ref)
    items = [it for it in scenario.items if it["kind"] == "raster"]
    if not items:
        raise ScenarioError("scenario declares no raster item", scenario.name)
    ctx = _make_ctx(scenario, threads, None, max_iter, None)
    grid = _raster_grid(items[0], ctx)
    render_pixmap(grid, out_path)
    return {"width": grid.width, "height": grid.height, "path": str(out_path)}


def run_scenario(ref, out_dir=None, threads: int = 1, budget_boxes=None,
                 max_iter=None) -> dict:
    """Execute a scenario (path, bundled name, or Scenario) into a report."""
    scenario = ref if isinstance(ref, Scenario) else load_scenario(ref)
    if out_dir is not None:
        out_dir = Path(out_dir)
    ctx = _make_ctx(scenario, threads, budget_boxes, max_iter, out_dir)
    t0 = time.perf_counter()
    rows = []
    for item in scenario.items:
        kind = item["kind"]
        executor = _EXECUTORS.get(kind)
        if executor is None:
            raise ScenarioError(f"unknown item kind {kind!r}", item["id"])
        t1 = time.perf_counter()
        try:
            passed, result = executor(item, ctx)
        except ScenarioError:
            raise
        except Exception as e:  # honest failure row, never a dropped verdict
            passed, result = False, {"error": f"{type(e).__name__}: {e}"}
        rows.append({
            "id": item["id"],
            "kind": kind,
            "passed": bool(passed),
            "elapsed": time.perf_counter() - t1,
            "result": result,
        })
    report = {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.name,
        "version": __version__,
        "all_passed": all(row["passed"] for row in rows),
        "items": rows,
        "elapsed": time.perf_counter() - t0,
    }
    env = ctx["env"]
    derived = {k: env[k] for k in ("r1", "eps", "rho_g", "r2", "a_star",
                                   "lambda_star") if k in env}
    if derived:
        report["derived"] = derived
    return report
