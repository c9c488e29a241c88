"""Scenario files, item execution, and JSON reports.

A scenario is a versioned JSON document: one map (family or custom
expression), an optional raster window/resolution/orbit configuration,
and an ordered list of items.  Items run sequentially because derived
constants feed forward: an item may publish values (r1, r2, ...) that
later items reference as "$name".  Every item lands in the report
exactly once with a passed flag; executor exceptions are recorded as
failures, never dropped.  Every document value is read by one reader,
`_Doc`, and a value it cannot decode raises ScenarioError naming the
field's path: a missing field, a wrong type, an unresolved reference, a
value a region, bound, map, budget or orbit constructor rejects, or a
field that nothing reads.  The CLI maps ScenarioError to exit status 2.
"""
from __future__ import annotations

import json
import math
import sys
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
from .regions import Annulus, Difference, Disk, HalfStrip, Region, Union
from .topology import connectivity, connectivity_monotonicity_check, label_components, surrounds

SCENARIO_SCHEMA = "scenario/1"
REPORT_SCHEMA = "report/1"


class ScenarioError(ValueError):
    """Malformed scenario: bad schema, unknown kind, bad or unknown field."""

    def __init__(self, message: str, where: str | None = None):
        super().__init__(message if where is None else f'"{where}": {message}')
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
        if not (isinstance(item, dict) and isinstance(item.get("id"), str) and "kind" in item):
            raise ScenarioError('every item needs a string "id" and a "kind"', where)
        if item["id"] in seen:
            raise ScenarioError(f'duplicate item id {item["id"]!r}', where)
        seen.add(item["id"])
    return Scenario(raw.get("name", "unnamed"), raw.get("description", ""),
                    raw.get("map", {}), raw.get("window"), raw.get("resolution"),
                    raw.get("orbit", {}), items, where)


# --- the document reader -----------------------------------------------------

_REQUIRED = object()
_VERDICTS = ("proved", "inconclusive", "pole_contact")
_QUOTIENTS = {"one_minus_cos": quot_one_minus_cos, "z_minus_sin": quot_z_minus_sin,
              "cos_defect": quot_cos_defect}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A JSON number that float() takes: not a bool, nor an int past the float range."""
    return (isinstance(value, float)
            or (_is_int(value) and abs(value) <= sys.float_info.max))


class _Doc:
    """One object (or list) of the scenario document, read field by field.

    `path` names it in errors (`Lemma-4.1a.circle`, `orbit.stations[1]`)
    and `env` resolves "$name" references.  Each accessor records its key
    and returns the checked value, or the default when the field is absent
    or null; a missing or ill-typed field raises ScenarioError naming its
    path.  Constructors run through `build`, so their ValueError is a
    config error too.  `finish` rejects any key that nothing read, here
    and in every nested reader.
    """

    def __init__(self, obj, env: dict, path: str):
        self.obj, self.env, self.path = obj, env, path
        self.seen: set = set()
        self.nested: list[_Doc] = []

    def at(self, key) -> str:
        if isinstance(key, int):
            return f"{self.path}[{key}]"
        return f"{self.path}.{key}" if self.path else key

    def _raw(self, key):
        return self.obj.get(key) if isinstance(self.obj, dict) else self.obj[key]

    def value(self, key, ok, what: str, default=_REQUIRED):
        """The value at key, which ok(value) must accept."""
        self.seen.add(key)
        got = self._raw(key)
        if got is None:
            if default is _REQUIRED:
                raise ScenarioError("required field is missing", self.at(key))
            return default
        if not ok(got):
            raise ScenarioError(f"expected {what}, got {got!r}", self.at(key))
        return got

    def number(self, key, default=_REQUIRED) -> float | None:
        got = self.value(key, lambda v: _is_number(v) or (
            isinstance(v, str) and v[:1] == "$" and v[1:] in self.env),
            "a number or a defined $reference", default)
        if isinstance(got, str):
            got = self.env[got[1:]]
        return None if got is None else float(got)

    def complex(self, key, default=_REQUIRED) -> complex | None:
        """[re, im] or one real number; each part may be a $reference."""
        if isinstance(self._raw(key), list):
            pair = self.list(key, 2)
            return complex(pair.number(0), pair.number(1))
        got = self.number(key, default)
        return None if got is None else complex(got)

    def integer(self, key, default=_REQUIRED, floor=None) -> int | None:
        return self.value(key, lambda v: _is_int(v) and (floor is None or v >= floor),
                          "an integer" if floor is None else f"an integer >= {floor}",
                          default)

    def boolean(self, key, default=_REQUIRED) -> bool | None:
        return self.value(key, lambda v: isinstance(v, bool), "true or false", default)

    def string(self, key, default=_REQUIRED, choices=None) -> str | None:
        return self.value(key, lambda v: isinstance(v, str) and (choices is None or v in choices),
                          "a string" if choices is None else f"one of {', '.join(choices)}",
                          default)

    def child(self, key, default=_REQUIRED) -> _Doc | None:
        return self._nest(key, self.value(key, lambda v: isinstance(v, dict),
                                          "an object", default))

    def list(self, key, length=None, default=_REQUIRED) -> _Doc | None:
        return self._nest(key, self.value(
            key, lambda v: isinstance(v, list) and length in (None, len(v)),
            "a list" if length is None else f"a list of {length}", default))

    def _nest(self, key, obj) -> _Doc | None:
        if obj is None:
            return None
        rd = _Doc(obj, self.env, self.at(key))
        self.nested.append(rd)
        return rd

    def each(self, key, read, default=_REQUIRED, length=None) -> list:
        """read(list reader, i) for every element of the list at key."""
        items = self.list(key, length, default)
        return [read(items, i) for i in range(len(items.obj))]

    def tagged(self, key, kinds, what: str) -> tuple[str, _Doc]:
        """A single-key object {kind: body}: the kind, and the reader whose
        field `kind` is the body."""
        node = self.child(key)
        if len(node.obj) != 1 or next(iter(node.obj)) not in kinds:
            raise ScenarioError(f"expected a {what}: one key of {', '.join(kinds)}, "
                                f"got {node.obj!r}", node.path)
        return next(iter(node.obj)), node

    def build(self, make, *args, **kwargs):
        """make(*args, **kwargs); its ValueError is a config error at this path."""
        try:
            return make(*args, **kwargs)
        except (KeyError, ValueError) as e:   # KeyError: a family param is missing
            message = str(e) if isinstance(e, ValueError) else f"missing parameter {e}"
            raise ScenarioError(message, self.path) from None

    def region(self, key) -> Region:
        kind, node = self.tagged(key, ("disk", "annulus", "half_strip", "box",
                                       "difference", "union"), "region")
        if kind == "union":
            return node.build(Union, *node.each(kind, _Doc.region))
        body = node.child(kind)
        if kind == "difference":
            return Difference(body.region("minuend"), body.region("subtrahend"))
        if kind == "disk":
            return body.build(Disk, body.complex("center"), body.number("radius"),
                              closed=body.boolean("closed", False))
        if kind == "annulus":
            return body.build(Annulus, body.complex("center"), body.number("r_in"),
                              body.number("r_out"), closed=body.boolean("closed", True))
        # a box is a half-strip whose left edge is required
        re_lo = body.number("re_lo", -math.inf if kind == "half_strip" else _REQUIRED)
        return body.build(HalfStrip, re_lo, body.number("re_hi"), body.number("im_lo"),
                          body.number("im_hi"), closed=body.boolean("closed", True))

    def bound(self, key):
        kind, node = self.tagged(key, ("const", "power", "series_quotient", "expr_abs",
                                       "sum"), "bound")
        if kind == "const":
            return node.build(ConstBound, node.number(kind))
        if kind == "sum":
            return node.build(SumBound, *node.each(kind, _Doc.bound))
        body = node.child(kind)
        if kind == "expr_abs":
            return ExprBound(body.map())
        center = body.complex("center", 0.0)
        if kind == "power":
            return body.build(PowerBound, body.number("c"), body.integer("n"), center)
        name = body.string("quotient", choices=("exp_tail", *_QUOTIENTS))
        if name == "exp_tail":
            drop = body.integer("drop", floor=0)
            fn = lambda b: quot_exp_tail(b, drop=drop)  # noqa: E731
        else:
            fn = _QUOTIENTS[name]
        return body.build(QuotientSeriesBound, body.number("c"), body.integer("power"),
                          fn, center)

    def params(self) -> dict:
        node = self.child("params", {})
        return {key: node.number(key) for key in node.obj}

    def map(self) -> MeromorphicMap:
        """This object as a map: {"family", "params"} or {"expr", "params", "poles"}."""
        params = self.params()
        family = self.string("family", None)
        if family is not None:
            return self.build(build_family, family, params or None)
        poles = tuple(self.each("poles", _Doc.complex, []))
        return self.build(custom_map, self.string("expr"), params=params,
                          declared_poles=poles)

    def budget(self, boxes=None) -> Budget:
        """The optional "budget" object; boxes (--budget-boxes) overrides max_boxes."""
        spec = self.child("budget", {})
        max_boxes = spec.integer("max_boxes", 1_000_000, floor=1)
        max_depth = spec.integer("max_depth", 24, floor=0)
        return spec.build(Budget, max_boxes if boxes is None else boxes, max_depth)

    def finish(self) -> None:
        keys = self.obj if isinstance(self.obj, dict) else range(len(self.obj))
        for key in keys:
            if key not in self.seen:
                raise ScenarioError("unknown field: nothing reads it", self.at(key))
        for rd in self.nested:
            rd.finish()


def _decode_orbit(spec, max_iter=None) -> OrbitConfig:
    """The scenario's "orbit" block; "stations" is one ladder object or a
    list of them.  A bad or unknown field raises ScenarioError naming it."""
    rd = _Doc({"orbit": spec}, {}, "").child("orbit", {})
    if isinstance(rd.obj.get("stations"), dict):
        ladders = [rd.child("stations")]
    else:
        ladders = rd.each("stations", _Doc.child, [])
    stations = tuple(st.build(StationSpec, st.complex("base", 0.0),
                              st.number("step", 2.0 * math.pi), st.number("radius", 0.5),
                              st.integer("min_index", 1), st.integer("streak", 12))
                     for st in ladders)
    doc_max_iter = rd.integer("max_iter", 500)
    cfg = rd.build(OrbitConfig, doc_max_iter if max_iter is None else max_iter,
                   rd.number("escape_radius", 1e6), rd.number("attract_tol", 1e-9),
                   rd.integer("cycle_window", 8), stations)
    rd.finish()
    return cfg


# --- item executors ----------------------------------------------------------

def _item_map(rd, ctx):
    spec = rd.child("map", None)
    if spec is not None:
        return spec.map()
    if ctx["map"] is None:
        raise ScenarioError("item needs a map and the scenario declares none", rd.path)
    return ctx["map"]


def _cert_result(cert) -> dict:
    stats = cert.stats
    return {"verdict": cert.verdict, "boxes_examined": int(stats["boxes_examined"]),
            "max_depth": int(stats["max_depth"]), "survivors": int(stats["survivors"]),
            "budget_exhausted": bool(stats["budget_exhausted"]),
            "elapsed": float(stats["elapsed"])}


def _expected_verdict(cert, expect):
    return cert.verdict == expect, dict(_cert_result(cert), expected_verdict=expect)


def _run_inclusion(rd, ctx):
    m = _item_map(rd, ctx)
    source, target = rd.region("source"), rd.region("target")
    budget = rd.budget(ctx["budget_boxes"])
    expect = rd.string("expect", "proved", choices=_VERDICTS)
    return _expected_verdict(certify_inclusion(m, source, target, budget), expect)


def _run_inequality(rd, ctx):
    lhs, rhs, region = rd.bound("lhs"), rd.bound("rhs"), rd.region("region")
    budget = rd.budget(ctx["budget_boxes"])
    cmp = rd.string("cmp", "<", choices=("<", "<=", ">", ">="))
    expect = rd.string("expect", "proved", choices=_VERDICTS)
    return _expected_verdict(certify_inequality(lhs, rhs, region, budget, cmp=cmp), expect)


def _target_map(rd, ctx):
    m = _item_map(rd, ctx)
    if rd.string("target", "f", choices=("f", "f_prime")) == "f_prime":
        return derivative(m)
    return m


def _circle(rd):
    circle = rd.child("circle")
    return circle.complex("center"), circle.number("radius")


def _run_winding(rd, ctx):
    m = _target_map(rd, ctx)
    circle, w0 = _circle(rd), rd.complex("w0")
    expected = rd.integer("expect_winding")
    floor = rd.number("min_distance_gt", None)
    res = winding_number(m, circle, w0)
    ok = res.valid and res.winding == expected
    if floor is not None:
        ok = ok and res.min_distance > floor
    return ok, {"winding": res.winding, "expected_winding": expected,
                "min_distance": res.min_distance, "max_arg_step": res.max_arg_step,
                "samples": res.samples, "valid": res.valid}


def _run_zero_count(rd, ctx):
    m = _target_map(rd, ctx)
    circle, w0 = _circle(rd), rd.complex("w0")
    poles, expected = rd.integer("poles_inside"), rd.integer("expect")
    count = count_zeros_inside(m, circle, w0, poles_inside=poles)
    return count == expected, {"count": count, "expected": expected, "poles_inside": poles}


def _run_preimages(rd, ctx):
    m = _item_map(rd, ctx)
    region, w0, expected = rd.region("region"), rd.complex("w0"), rd.integer("expected")
    roots = locate_preimages(m, w0, region, expected)
    out = {"roots": [[z.real, z.imag] for z in roots], "expected": expected}
    ok = True
    near = rd.child("near_cube_roots", None)
    if near is not None:
        r = near.number("scale") ** (1.0 / 3.0)
        factor = near.number("within_factor", 0.3)
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


def _run_fixed_point(rd, ctx):
    m = _item_map(rd, ctx)
    region = rd.region("region")
    max_residual = rd.number("max_residual", 1e-12)
    max_abs = rd.number("max_abs", None)
    attracting = rd.boolean("expect_attracting", None)
    modulus = rd.number("expect_multiplier_modulus", None)
    tol = None if modulus is None else rd.number("tolerance", 1e-9)
    rep = find_fixed_point(m, region)
    out = {"location": [rep.location.real, rep.location.imag], "residual": rep.residual,
           "multiplier_modulus": abs(rep.multiplier), "attracting": rep.attracting}
    ok = rep.residual <= max_residual
    if max_abs is not None:
        ok = ok and abs(rep.location) < max_abs
    if attracting is not None:
        ok = ok and rep.attracting == attracting
    if modulus is not None:
        ok = ok and abs(abs(rep.multiplier) - modulus) < tol
    return ok, out


def _run_point_image(rd, ctx):
    m = _item_map(rd, ctx)
    z = rd.complex("z")
    target = rd.child("target")
    center, radius = target.complex("center"), target.number("radius")
    w = eval_map(m, z)
    dist = abs(w - center)
    return dist < radius, {"image": [w.real, w.imag], "distance": dist, "radius": radius}


def _run_track(rd, ctx):
    m = _item_map(rd, ctx)
    z0 = rd.complex("z0")
    kind, node = rd.tagged("centers", ("geometric", "arithmetic"), "track ladder")
    body = node.child(kind)
    base, count = body.complex("base"), body.integer("count")
    if kind == "geometric":
        factor = body.number("factor")
        centers = [base * factor ** n for n in range(count)]
    else:
        step = body.complex("step")
        centers = [base + step * n for n in range(count)]
    radius = rd.number("radius")
    expect_all = rd.boolean("expect_all", True)
    flags = track_wandering(m, z0, centers, radius, len(centers))
    ok = all(flags) if expect_all else True
    return ok, {"flags": flags, "stations": len(flags), "radius": radius}


def _run_params_identity(rd, ctx):
    tol = rd.number("tolerance", 1e-12)
    a, lam = solve_ex2_params()
    res_sin = abs(lam * math.sin(a) - 2.0 * math.pi)
    res_cos = abs(1.0 + lam * math.cos(a))
    ok = res_sin < tol and res_cos < tol
    # quoted constants are truncated, not rounded: match within one unit
    # in the last quoted decimal place
    for key, value in (("expect_a", a), ("expect_lambda", lam)):
        quoted = rd.number(key, None)
        if quoted is not None:
            ok = ok and abs(value - quoted) < 1e-3
    out = {"a": a, "lambda": lam, "sin_residual": res_sin, "cos_residual": res_cos}
    ctx["env"].setdefault("a_star", a)
    ctx["env"].setdefault("lambda_star", lam)
    return ok, out


def _run_derived_constants(rd, ctx):
    boxes = ctx["budget_boxes"]
    if boxes is not None:
        kw = {"candidate_budget": rd.build(Budget, boxes, 20),
              "final_budget": rd.build(Budget, boxes, 22)}
    else:
        kw = {}
    derived = derive_ex2_constants(**kw)
    ok = (derived["station_cert"].proved
          and 0.0 < derived["r1"] < 0.5
          and 6.0 * math.sqrt(derived["eps"]) < derived["r1"]
          and derived["eps"] < 1.0 / 144.0)
    for key in ("r1", "eps", "rho_g", "r2"):
        ctx["env"][key] = derived[key]
    out = {k: derived[k] for k in ("r1", "eps", "rho_g", "r2", "pole_weight_first_station")}
    out["station_cert"] = _cert_result(derived["station_cert"])
    out["periodicity_note"] = derived["periodicity_note"]
    return ok, out


def _run_rh_check(rd, ctx):
    args, expect = rd.each("args", _Doc.integer, length=4), rd.boolean("expect")
    value = riemann_hurwitz_check(*args)
    return value == expect, {"args": args, "value": value}


def _run_ray_increase(rd, ctx):
    m = _item_map(rd, ctx)
    hi = rd.number("to")
    samples = rd.integer("samples", 1000, floor=1)
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


def _select_component(cm, match, grid):
    kind, node = match.tagged("component", ("contains", "surrounds"), "component selector")
    p = node.complex(kind)
    if kind == "contains":
        i, j = grid.pixel_of(p)
        cid = int(cm.labels[j, i])
        if cid == 0:
            raise LookupError(f"{node.path}: anchor {p} lies on a non-candidate pixel")
        return cid
    cands = [(info.pixel_count, cid)
             for cid, info in cm.component_table.items()
             if not info.touches_border and surrounds(cm, cid, p)]
    if not cands:
        raise LookupError(f"{node.path}: no bounded component surrounds {p}")
    return min(cands)[1]


def _run_raster(rd, ctx):
    grid = _raster_grid(rd, ctx)
    width, height = grid.width, grid.height
    cm = label_components(grid)
    ok = True
    matches = []
    matched_ids = []
    for match in rd.each("match", _Doc.child, []):
        behavior = match.string("expect_behavior", None, choices=("attracted", "drifting"))
        exact = match.integer("expect_connectivity", None)
        at_least = match.integer("expect_connectivity_at_least", None)
        hole = match.complex("hole_contains", None)
        cid = _select_component(cm, match, grid)
        matched_ids.append(cid)
        info = cm.component_table[cid]
        rep = connectivity(cm, cid)
        row = {"component": cid, "behavior": list(info.behavior_label),
               "pixel_count": info.pixel_count, "connectivity": rep.connectivity,
               "touches_border": info.touches_border}
        good = ((behavior is None or info.behavior_label[0] == behavior)
                and (exact is None or rep.connectivity == exact)
                and (at_least is None or rep.connectivity >= at_least))
        if hole is not None:
            inside = surrounds(cm, cid, hole)
            row["surrounds"] = inside
            good = good and inside
        row["passed"] = good
        matches.append(row)
        ok = ok and good
    out = {"matches": matches, "resolution": [width, height]}
    if rd.boolean("monotonicity", False):
        rep = connectivity_monotonicity_check(cm, matched_ids)
        out["monotonicity"] = {"sequence": [list(pair) for pair in rep.sequence],
                               "non_increasing": rep.non_increasing,
                               "skipped": list(rep.skipped)}
        ok = ok and rep.non_increasing
    render = rd.string("render", None)
    if render and ctx["out_dir"] is not None:
        path = ctx["out_dir"] / render
        render_pixmap(grid, path)
        out["image"] = str(path)
    out["label_counts"] = {name: int((grid.labels == code).sum()) for code, name in enumerate(
        ("unresolved", "attracted", "drifting", "pole_adjacent", "julia_suspect"))}
    out["verdict_counts"] = grid.verdict_counts
    return ok, out


# item kind -> executor: _run_<kind>(reader, ctx) -> (passed, result)
_EXECUTORS = {name[5:]: fn for name, fn in globals().items() if name.startswith("_run_")}


def _make_ctx(scenario: Scenario, threads, budget_boxes, max_iter, out_dir) -> dict:
    env = {"pi": math.pi, "two_pi": 2.0 * math.pi, "four_pi": 4.0 * math.pi}
    scenario_map = None
    spec = _Doc({"map": None if scenario.map_spec == {} else scenario.map_spec},
                env, "").child("map", None)
    if spec is not None:
        for key, value in spec.params().items():
            env.setdefault(key, value)
        scenario_map = spec.map()
        spec.finish()
    return {"scenario": scenario, "map": scenario_map, "env": env,
            "threads": max(1, int(threads)), "budget_boxes": budget_boxes,
            "max_iter": max_iter, "out_dir": out_dir}


def _raster_grid(rd, ctx):
    scenario = ctx["scenario"]
    top = _Doc({"window": scenario.window, "resolution": scenario.resolution}, {}, "")
    window = top.value("window", lambda w: isinstance(w, list) and len(w) == 4
                       and all(_is_number(v) and math.isfinite(v) for v in w)
                       and w[0] <= w[1] and w[2] <= w[3],
                       "four finite numbers [re_lo, re_hi, im_lo, im_hi] with lo <= hi")
    width, height = top.value(
        "resolution", lambda r: isinstance(r, list) and len(r) == 2
        and all(_is_int(v) and v >= 2 for v in r), "two integers >= 2 [width, height]")
    m = _item_map(rd, ctx)
    cfg = _decode_orbit(scenario.orbit, ctx["max_iter"])
    return classify_grid(m, ComplexBox(*(float(v) for v in window)), width, height, cfg,
                         workers=ctx["threads"])


def render_scenario_raster(ref, out_path, threads: int = 1, max_iter=None) -> dict:
    """Classify and render the first raster item of a scenario."""
    scenario = ref if isinstance(ref, Scenario) else load_scenario(ref)
    items = [it for it in scenario.items if it["kind"] == "raster"]
    if not items:
        raise ScenarioError("scenario declares no raster item", scenario.name)
    ctx = _make_ctx(scenario, threads, None, max_iter, None)
    grid = _raster_grid(_Doc(items[0], ctx["env"], items[0]["id"]), ctx)
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
        rd = _Doc(item, ctx["env"], item["id"])
        ident, kind = rd.string("id"), rd.string("kind")
        executor = _EXECUTORS.get(kind)
        if executor is None:
            raise ScenarioError(f"unknown item kind {kind!r}", rd.path)
        t1 = time.perf_counter()
        try:
            passed, result = executor(rd, ctx)
        except ScenarioError:
            raise
        except Exception as e:  # honest failure row, never a dropped verdict
            passed, result = False, {"error": f"{type(e).__name__}: {e}"}
        else:
            rd.finish()
        rows.append({"id": ident, "kind": kind, "passed": bool(passed),
                     "elapsed": time.perf_counter() - t1, "result": result})
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
