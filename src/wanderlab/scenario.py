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
from collections import ChainMap
from decimal import Decimal
from importlib import resources
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .certify import (
    Budget,
    ConstBound,
    ExprBound,
    PowerBound,
    SumBound,
    certify_inclusion,
    certify_inequality,
    count_zeros_inside,
    derive_ex2_constants,
    locate_preimages,
    riemann_hurwitz_check,
    winding_number,
)
from .dynamics import (
    LABEL_NAMES,
    OrbitConfig,
    StationSpec,
    classify_grid,
    find_fixed_point,
    track_wandering,
)
from .maps import (
    MeromorphicMap,
    build_family,
    custom_map,
    derivative,
    eval_map,
    eval_map_vec,
    ex2_admissible,
    solve_ex2_params,
)
from .numerics import ComplexBox
from .pixmap import render_pixmap
from .regions import Difference, Disk, HalfStrip, Region, Union, annulus
from .topology import connectivity, connectivity_monotonicity_check, label_components, surrounds

SCENARIO_SCHEMA = "scenario/1"
REPORT_SCHEMA = "report/1"


class ScenarioError(ValueError):
    """Malformed scenario: bad schema, unknown kind, bad or unknown field."""

    def __init__(self, message: str, where: str | None = None):
        super().__init__(message if where is None else f'"{where}": {message}')
        self.where = where


class Scenario(NamedTuple):
    """A scenario whose top level load_scenario decoded once: `map` (None if
    the document has none) built from `params`, the raw `map_spec`, and
    `window` and `resolution` (None if absent; a raster needs both).  Items
    stay raw, their id and kind checked, until they run: they may read
    values ("$r1") that earlier items publish."""

    name: str
    description: str
    map_spec: dict
    map: MeromorphicMap | None
    params: dict
    window: ComplexBox | None
    resolution: tuple[int, int] | None
    orbit: OrbitConfig
    items: list


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
    top = _Doc(raw, dict(_CONSTANTS), "")
    top.seen.add("schema")   # checked above
    items = top.value("items", lambda v: isinstance(v, list), "a list", [])
    seen = set()
    for item in items:
        if not (isinstance(item, dict) and isinstance(item.get("id"), str) and "kind" in item):
            raise ScenarioError('every item needs a string "id" and a "kind"', where)
        if item["id"] in seen:
            raise ScenarioError(f'duplicate item id {item["id"]!r}', where)
        seen.add(item["id"])
        # a kind is checked here, so that a typo costs no earlier item's run
        if not (isinstance(item["kind"], str) and item["kind"] in _EXECUTORS):
            raise ScenarioError(f'unknown item kind {item["kind"]!r}', item["id"])
    spec = top.child("map", {})
    params = spec.params()
    window = top.value("window", lambda w: isinstance(w, list) and len(w) == 4
                       and all(_is_number(v) for v in w)
                       and w[0] <= w[1] and w[2] <= w[3],
                       "four finite numbers [re_lo, re_hi, im_lo, im_hi] with lo <= hi", None)
    resolution = top.value(
        "resolution", lambda r: isinstance(r, list) and len(r) == 2
        and all(_is_int(v) and v >= 2 for v in r), "two integers >= 2 [width, height]", None)
    scenario = Scenario(top.string("name", "unnamed"), top.string("description", ""),
                        spec.obj, spec.map(params) if spec.obj else None, params,
                        None if window is None else ComplexBox(*(float(v) for v in window)),
                        None if resolution is None else tuple(resolution),
                        _decode_orbit(top), items)
    top.finish()
    return scenario


# --- the document reader -----------------------------------------------------

_REQUIRED = object()
_CONSTANTS = {"pi": math.pi, "two_pi": 2.0 * math.pi, "four_pi": 4.0 * math.pi}
_VERDICTS = ("proved", "inconclusive", "pole_contact")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    """A finite JSON number: not a bool, NaN, an infinity or an int past the float range."""
    return ((isinstance(value, float) and math.isfinite(value))
            or (_is_int(value) and abs(value) <= sys.float_info.max))


class _Doc:
    """One object (or list) of the scenario document, read field by field.

    `path` names it in errors (`Lemma-4.1a.circle`, `orbit.stations[1]`)
    and `env` resolves "$name" references.  Each accessor records its key
    and returns the checked value, or the default when the field is absent
    or null; a missing or ill-typed field raises ScenarioError naming its
    path.  Constructors run through `build`, so their ValueError is a
    config error too, and an absent field (a None keyword) is not passed
    on, so its constructor's default applies.  `finish` rejects any key
    that nothing read, here and in every nested reader.
    """

    def __init__(self, obj, env, path: str):
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
            "a finite number or a defined $reference", default)
        if isinstance(got, str):
            got = self.env[got[1:]]
        return None if got is None else float(got)

    def positive(self, key, default=_REQUIRED, zero=False) -> float | None:
        """A number that is finite and > 0 (>= 0 when zero is allowed): a radius,
        tolerance, factor or distance floor."""
        got = self.number(key, default)
        if got is not None and not (got > 0.0 or zero and got == 0.0):
            raise ScenarioError(f"expected a finite number {'>=' if zero else '>'} 0, "
                                f"got {got!r}", self.at(key))
        return got

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
        """make(*args, **kwargs) without the keyword arguments that are None;
        its ValueError is a config error at this path."""
        try:
            return make(*args, **{k: v for k, v in kwargs.items() if v is not None})
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
                              closed=body.boolean("closed", None))
        if kind == "annulus":
            return body.build(annulus, body.complex("center"), body.number("r_in"),
                              body.number("r_out"), closed=body.boolean("closed", None))
        # a box is a half-strip whose left edge is required
        re_lo = body.number("re_lo", -math.inf if kind == "half_strip" else _REQUIRED)
        return body.build(HalfStrip, re_lo, body.number("re_hi"), body.number("im_lo"),
                          body.number("im_hi"), closed=body.boolean("closed", None))

    def bound(self, key):
        kind, node = self.tagged(key, ("const", "power", "expr_abs", "sum"), "bound")
        if kind == "const":
            return node.build(ConstBound, node.number(kind))
        if kind == "sum":
            return node.build(SumBound, *node.each(kind, _Doc.bound))
        body = node.child(kind)
        if kind == "expr_abs":
            return ExprBound(body.map())
        return body.build(PowerBound, body.number("c"), body.integer("n"),
                          center=body.complex("center", None))

    def params(self) -> dict:
        node = self.child("params", {})
        return {key: node.number(key) for key in node.obj}

    def map(self, params=None) -> MeromorphicMap:
        """This object as a map: {"family", "params"} or {"expr", "params", "poles"};
        params, when given, are its "params" already read."""
        if params is None:
            params = self.params()
        family = self.string("family", None)
        if family is not None:
            return self.build(build_family, family, params or None)
        poles = tuple(self.each("poles", _Doc.complex, []))
        return self.build(custom_map, self.string("expr"), params=params,
                          declared_poles=poles)

    def budget(self) -> Budget:
        """The optional "budget" object."""
        spec = self.child("budget", {})
        return spec.build(Budget, max_boxes=spec.integer("max_boxes", None, floor=1),
                          max_depth=spec.integer("max_depth", None, floor=0))

    def finish(self) -> None:
        keys = self.obj if isinstance(self.obj, dict) else range(len(self.obj))
        for key in keys:
            if key not in self.seen:
                raise ScenarioError("unknown field: nothing reads it", self.at(key))
        for rd in self.nested:
            rd.finish()


def _decode_orbit(top: _Doc) -> OrbitConfig:
    """The document's "orbit" block; "stations" is one ladder object or a
    list of them.  A bad field raises ScenarioError naming it."""
    rd = top.child("orbit", {})
    if isinstance(rd.obj.get("stations"), dict):
        ladders = [rd.child("stations")]
    else:
        ladders = rd.each("stations", _Doc.child, [])
    stations = tuple(st.build(StationSpec, base=st.complex("base", None),
                              step=st.number("step", None), radius=st.number("radius", None),
                              min_index=st.integer("min_index", None),
                              streak=st.integer("streak", None))
                     for st in ladders)
    return rd.build(OrbitConfig, max_iter=rd.integer("max_iter", None),
                    escape_radius=rd.number("escape_radius", None),
                    attract_tol=rd.number("attract_tol", None),
                    cycle_window=rd.integer("cycle_window", None), stations=stations)


# --- item executors ----------------------------------------------------------

def _item_map(rd, ctx):
    spec = rd.child("map", None)
    m = ctx["scenario"].map if spec is None else spec.map()
    if m is None:
        raise ScenarioError("item needs a map and the scenario declares none", rd.path)
    return m


def _cert_result(cert) -> dict:
    stats = cert.stats
    out = {"verdict": cert.verdict, "boxes_examined": int(stats["boxes_examined"]),
           "max_depth": int(stats["max_depth"]), "survivors": int(stats["survivors"]),
           "budget_exhausted": bool(stats["budget_exhausted"])}
    if "centred_boxes" in stats:
        out["centred_boxes"] = int(stats["centred_boxes"])
        out["sampled_escape"] = stats["sampled_escape"]
    return out


def _expected_verdict(cert, expect):
    return cert.verdict == expect, dict(_cert_result(cert), expected_verdict=expect)


def _run_inclusion(rd, ctx):
    m = _item_map(rd, ctx)
    source, target = rd.region("source"), rd.region("target")
    budget = rd.budget()
    expect = rd.string("expect", "proved", choices=_VERDICTS)
    return _expected_verdict(certify_inclusion(m, source, target, budget), expect)


def _run_inequality(rd, ctx):
    lhs, rhs, region = rd.bound("lhs"), rd.bound("rhs"), rd.region("region")
    budget = rd.budget()
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
    return circle.complex("center"), circle.positive("radius")


def _run_winding(rd, ctx):
    m = _target_map(rd, ctx)
    circle, w0 = _circle(rd), rd.complex("w0")
    expected = rd.integer("expect_winding")
    floor = rd.positive("min_distance_gt", None, zero=True)
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
    poles, expected = rd.integer("poles_inside", floor=0), rd.integer("expect", floor=0)
    count = count_zeros_inside(m, circle, w0, poles_inside=poles)
    return count == expected, {"count": count, "expected": expected, "poles_inside": poles}


def _run_preimages(rd, ctx):
    m = _item_map(rd, ctx)
    region, w0, expected = rd.region("region"), rd.complex("w0"), rd.integer("expected", floor=0)
    roots = locate_preimages(m, w0, region, expected)
    out = {"roots": [[z.real, z.imag] for z in roots], "expected": expected}
    ok = True
    near = rd.child("near_cube_roots", None)
    if near is not None:
        r = near.positive("scale") ** (1.0 / 3.0)
        factor = near.positive("within_factor", 0.3)
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
    attracting = rd.boolean("expect_attracting", None)
    modulus = rd.positive("expect_multiplier_modulus", None, zero=True)
    tol = None if modulus is None else rd.positive("tolerance", 1e-9)
    rep = find_fixed_point(m, region)
    out = {"location": [rep.location.real, rep.location.imag], "residual": rep.residual,
           "multiplier_modulus": abs(rep.multiplier), "attracting": rep.attracting}
    ok = attracting is None or rep.attracting == attracting
    if modulus is not None:
        ok = ok and abs(abs(rep.multiplier) - modulus) < tol
    return ok, out


def _run_point_image(rd, ctx):
    m = _item_map(rd, ctx)
    z = rd.complex("z")
    target = rd.child("target")
    center, radius = target.complex("center"), target.positive("radius")
    cert = certify_inclusion(m, Disk(z, 0.0, closed=True), Disk(center, radius))
    return cert.proved, _cert_result(cert)


def _run_track(rd, ctx):
    m = _item_map(rd, ctx)
    z0 = rd.complex("z0")
    kind, node = rd.tagged("centers", ("geometric", "arithmetic"), "track ladder")
    body = node.child(kind)
    base, count = body.complex("base"), body.integer("count", floor=1)
    if kind == "geometric":
        factor = body.number("factor")
        centers = [base * factor ** n for n in range(count)]
    else:
        step = body.complex("step")
        centers = [base + step * n for n in range(count)]
    radius = rd.positive("radius")
    expect_all = rd.boolean("expect_all", True)
    flags = track_wandering(m, z0, centers, radius)
    ok = all(flags) == expect_all
    return ok, {"flags": flags, "stations": len(flags), "radius": radius}


def _run_params_identity(rd, ctx):
    tol = rd.positive("tolerance", 1e-12)
    a, lam = solve_ex2_params()
    res_sin = abs(lam * math.sin(a) - 2.0 * math.pi)
    res_cos = abs(1.0 + lam * math.cos(a))
    ok = res_sin < tol and res_cos < tol
    # quoted constants are truncated, not rounded: the value lies within one
    # unit in the last quoted decimal place above the quote
    for key, value in (("expect_a", a), ("expect_lambda", lam)):
        quoted = rd.number(key, None)
        if quoted is not None:
            unit = 10.0 ** min(0, Decimal(repr(quoted)).as_tuple().exponent)
            ok = ok and 0.0 <= value - quoted < unit
    out = {"a": a, "lambda": lam, "sin_residual": res_sin, "cos_residual": res_cos}
    ctx["derived"].update(a_star=a, lambda_star=lam)
    return ok, out


def _run_derived_constants(rd, ctx):
    derived = derive_ex2_constants()
    ok = (derived["station_cert"].proved and 0.0 < derived["r1"] < 0.5
          and ex2_admissible(derived["eps"], derived["r1"]))
    ctx["derived"].update((k, derived[k]) for k in ("r1", "eps", "rho_g", "r2"))
    out = {k: derived[k] for k in ("r1", "eps", "rho_g", "r2", "pole_weight_first_station")}
    out["station_cert"] = _cert_result(derived["station_cert"])
    out["trail"] = derived["trail"]
    ctx["candidate_seconds"] = derived["candidate_seconds"]
    out["periodicity_note"] = derived["periodicity_note"]
    return ok, out


def _run_rh_check(rd, ctx):
    args, expect = rd.each("args", _Doc.integer, length=4), rd.boolean("expect")
    value = riemann_hurwitz_check(*args)
    return value == expect, {"args": args, "value": value}


def _run_ray_increase(rd, ctx):
    m = _item_map(rd, ctx)
    hi = rd.positive("to")
    samples = rd.integer("samples", 1000, floor=1)
    xs = hi * np.arange(1, samples + 1) / samples
    ws, bad = eval_map_vec(m, xs)
    if bad.any():
        eval_map(m, xs[bad][0])  # raises PoleHitError or NonFiniteValue there
    ok = np.all((ws.real > xs) & (xs > 0.0) & (np.abs(ws.imag) < 1e-9 * (1.0 + np.abs(ws.real))))
    return bool(ok), {"samples": samples, "min_margin": float((ws.real - xs).min())}


def _read_match(matches, i) -> tuple:
    """A "match" row: its selector (kind, point, path), then its expectations."""
    match = matches.child(i)
    kind, node = match.tagged("component", ("contains", "surrounds"), "component selector")
    return ((kind, node.complex(kind), node.path),
            match.string("expect_behavior", None, choices=("attracted", "drifting")),
            match.integer("expect_connectivity", None),
            match.integer("expect_connectivity_at_least", None),
            match.complex("hole_contains", None))


def _select_component(cm, grid, kind, p, where) -> int:
    if kind == "contains":
        i, j = grid.pixel_of(p)
        cid = int(cm.labels[j, i])
        if cid == 0:
            raise LookupError(f"{where}: anchor {p} lies on a non-candidate pixel")
        return cid
    cands = [(info.pixel_count, cid)
             for cid, info in cm.component_table.items()
             if not info.touches_border and surrounds(cm, cid, p)]
    if not cands:
        raise LookupError(f"{where}: no bounded component surrounds {p}")
    return min(cands)[1]


def _run_raster(rd, ctx):
    # every field is read and checked before the grid is classified, so a
    # bad field is a config error that costs no classification
    scenario = ctx["scenario"]
    for key in ("window", "resolution"):
        if getattr(scenario, key) is None:
            raise ScenarioError("required field is missing", key)
    m = _item_map(rd, ctx)
    matches, monotonicity = rd.each("match", _read_match, []), rd.boolean("monotonicity", False)
    render = rd.value("render", lambda v: isinstance(v, str) and v not in ("", "..")
                      and Path(v).name == v, "a bare file name", None)
    rd.finish()
    grid = classify_grid(m, scenario.window, *scenario.resolution, scenario.orbit,
                         threads=ctx["threads"])
    cm = label_components(grid)
    ok, rows, reports = True, [], []
    for selector, behavior, exact, at_least, hole in matches:
        cid = _select_component(cm, grid, *selector)
        info = cm.component_table[cid]
        # a hole point is flagged, so that this one labelling tells whether
        # one of the component's holes holds it; the monotonicity check
        # reads the same report
        rep = connectivity(cm, cid, flagged_points=() if hole is None else (hole,))
        reports.append(rep)
        row = {"component": cid, "behavior": list(info.behavior_label),
               "pixel_count": info.pixel_count, "connectivity": rep.connectivity,
               "touches_border": info.touches_border}
        good = ((behavior is None or info.behavior_label[0] == behavior)
                and (exact is None or rep.connectivity == exact)
                and (at_least is None or rep.connectivity >= at_least))
        if hole is not None:
            inside = any(h.contains for h in rep.holes)
            row["surrounds"] = inside
            good = good and inside
        row["passed"] = good
        rows.append(row)
        ok = ok and good
    out = {"matches": rows, "resolution": [grid.width, grid.height]}
    if monotonicity:
        rep = connectivity_monotonicity_check(cm, reports)
        out["monotonicity"] = {"sequence": [list(pair) for pair in rep.sequence],
                               "non_increasing": rep.non_increasing,
                               "skipped": list(rep.skipped)}
        ok = ok and rep.non_increasing
    if render and ctx["out_dir"] is not None:
        path = ctx["out_dir"] / render
        render_pixmap(grid, path)
        out["image"] = str(path)
    out["label_counts"] = {name: int(np.count_nonzero(grid.labels == code))
                           for code, name in enumerate(LABEL_NAMES)}
    out["verdict_counts"] = grid.verdict_counts
    out["retire_steps"] = grid.retire_steps
    return ok, out


# item kind -> executor: _run_<kind>(reader, ctx) -> (passed, result)
_EXECUTORS = {name[5:]: fn for name, fn in globals().items() if name.startswith("_run_")}


def run_scenario(ref, out_dir=None, threads: int = 1) -> dict:
    """Execute a scenario (path, bundled name, or Scenario) into a report."""
    scenario = ref if isinstance(ref, Scenario) else load_scenario(ref)
    # published values shadow the map parameters, which do not shadow the constants
    derived = {}
    ctx = {"scenario": scenario, "derived": derived,
           "env": ChainMap(derived, {**scenario.params, **_CONSTANTS}),
           "threads": max(1, int(threads)),
           "out_dir": None if out_dir is None else Path(out_dir)}
    t0 = time.perf_counter()
    rows, seconds, candidates = [], {}, {}
    for item in scenario.items:
        rd = _Doc(item, ctx["env"], item["id"])
        ident, kind = rd.string("id"), rd.string("kind")
        executor = _EXECUTORS[kind]
        t1 = time.perf_counter()
        try:
            passed, result = executor(rd, ctx)
        except ScenarioError:
            raise
        except Exception as e:  # honest failure row, never a dropped verdict
            passed, result = False, {"error": f"{type(e).__name__}: {e}"}
        else:
            rd.finish()
        seconds[ident] = time.perf_counter() - t1
        if "candidate_seconds" in ctx:
            candidates[ident] = ctx.pop("candidate_seconds")
        rows.append({"id": ident, "kind": kind, "passed": bool(passed), "result": result})
    report = {
        "schema": REPORT_SCHEMA,
        "scenario": scenario.name,
        "version": __version__,
        "all_passed": all(row["passed"] for row in rows),
        "items": rows,
        "timings": {"total": time.perf_counter() - t0, "items": seconds},
    }
    if candidates:
        report["timings"]["candidates"] = candidates
    if ctx["derived"]:
        report["derived"] = ctx["derived"]
    return report
