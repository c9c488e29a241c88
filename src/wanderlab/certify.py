"""Machine-checked certificates about map images on plane regions.

Three engines share this module:

* adaptive box subdivision proving set inclusions f(K) subset D and
  pointwise modulus inequalities on K — conservative tests only, so a
  "proved" verdict is a guarantee up to the soundness of the rectangle
  arithmetic.  The engine is breadth-first: it tests one frontier level
  at a time, in slices of at most SLICE boxes, each slice one endpoint
  block run through the batched box arithmetic in one pass.  A box fails
  when the test does not hold on it or its reason code is set (pole: its
  image touches a pole; overflow: an endpoint went inf or NaN), and a
  failing box below the depth limit contributes its four quarters to the
  next level, parent by parent and in reversed box_quarters order, unless
  its midpoint is one of its endpoints in both parts (floats hold no
  narrower box): then it survives at its depth with its reason, as at the
  depth limit, so a point source stops at depth 0.
  Within a depth the boxes keep depth-first pre-order, so when no budget
  runs out the examined set, boxes_examined, max_depth, the survivors (in
  order, if all at one depth) and the frontier equal those of a
  depth-first walk (kept in tests/oracles.py).
  When the budget runs out, the examined boxes are the first max_boxes in
  level order; on that last level the failing examined boxes survive with
  their reasons, before the unexamined ones, which survive as "budget"
  (the first FRONTIER_KEEP of them are kept, the rest only counted).
  An inclusion box holds when its natural image lies inside the target,
  or else when its image has code NONE, its float f(c) at the centre c
  lies inside, and the mean-value ball |f(z) - f(c)| <= sup |f'| |z - c|
  (maps.eval_mean_value_ball) lies inside with code NONE.  The ball stays
  off for a whole certificate when the float image of some root-cell
  centre in the source is certainly outside the target: that claim is
  false in floats, and the natural test alone runs;
* discrete winding numbers of sampled image curves with an a-posteriori
  validity criterion (minimum distance to the base point, maximum
  argument step), feeding argument-principle zero counts;
* the constant-derivation pipeline for the station-hopping family: the
  certified contraction radius r1, the admissible pole weight eps, and
  the certified image radius r2, all discovered by search over dyadic
  candidates with each accepted value backed by a certificate.
"""
from __future__ import annotations

import math
import operator
import time
from typing import NamedTuple

import numpy as np

from .maps import (
    MeromorphicMap,
    Node,
    build_family,
    derivative,
    eval_map_box,
    eval_map_vec,
    eval_mean_value_ball,
    eval_taylor_ball,
    ex2_admissible,
    ex2_g_map,
    group_roots,
    minus,
    newton_roots,
    seed_grid,
)
from .numerics import (
    NONE,
    POLE,
    Boxes,
    ComplexBox,
    _first_code,
    _out_hi,
    _out_lo,
    box_mag,
    box_mig,
    box_quarters,
)
from .regions import Disk, Region

_TWO_PI = 2.0 * math.pi

FRONTIER_KEEP = 64          # surviving boxes retained verbatim in a certificate
ROOT_GRID = 16              # the region bounding box starts as a 16x16 cell grid
SLICE = 4096                # boxes evaluated per batch of numpy calls
PREIMAGE_SEEDS = 25         # Newton seeds per side of the preimage seed grid


class Budget:
    __slots__ = ("max_boxes", "max_depth")

    def __init__(self, max_boxes: int = 1_000_000, max_depth: int = 24):
        if max_boxes < 1 or max_depth < 0:
            raise ValueError("budget must allow at least one box")
        self.max_boxes, self.max_depth = max_boxes, max_depth

    def __eq__(self, other):
        if type(other) is not Budget:
            return NotImplemented
        return (self.max_boxes, self.max_depth) == (other.max_boxes, other.max_depth)


class Certificate(NamedTuple):
    verdict: str                     # "proved" | "inconclusive" | "pole_contact"
    frontier: list
    stats: dict

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"


class WindingResult(NamedTuple):
    winding: int
    min_distance: float
    max_arg_step: float
    samples: int
    valid: bool


class DegenerateCurve(ArithmeticError):
    """A curve sample landed on a pole of the map."""


class InvalidCurve(ArithmeticError):
    """Argument-step criterion unattainable at the sample cap."""


class CountMismatch(ValueError):
    def __init__(self, found: int, expected: int, roots=()):
        super().__init__(f"found {found} roots, expected {expected}")
        self.found = found
        self.expected = expected
        self.roots = list(roots)


# ---------------------------------------------------------------------------
# The subdivision engine.
# ---------------------------------------------------------------------------

_BUDGET = 3                 # reason code of a box left unexamined when the budget ran out
_REASONS = ("undecided", "pole", "overflow", "budget")   # survivor reason per code


def _root_edges(lo: float, hi: float) -> np.ndarray:
    """The distinct edges of ROOT_GRID equal cells of [lo, hi]: fewer where
    the span is a few ulps wide, and [lo, hi] itself where it is a point."""
    edges = np.linspace(lo, hi, ROOT_GRID + 1)
    # the edges do not decrease, so a repeated one follows its equal (a
    # mask, not np.unique, whose first call costs about 1.5 MB of resident
    # memory)
    edges = edges[np.concatenate(([True], edges[1:] != edges[:-1]))]
    return edges if edges.size > 1 else np.array([lo, hi])


def _root_cells(bb: ComplexBox) -> np.ndarray:
    """The cells between the distinct root edges of bb (ROOT_GRID x
    ROOT_GRID of them unless bb is a few ulps wide or high), row by row, as
    a (4, n) endpoint array: rows re_lo, im_lo, re_hi, im_hi, a Boxes
    block flattened."""
    xs, ys = _root_edges(bb.re_lo, bb.re_hi), _root_edges(bb.im_lo, bb.im_hi)
    nx, ny = xs.size - 1, ys.size - 1
    return np.stack([np.tile(xs[:-1], ny), np.repeat(ys[:-1], nx),
                     np.tile(xs[1:], ny), np.repeat(ys[1:], nx)])


def _batch(ends: np.ndarray) -> Boxes:
    """The boxes of a (4, n) endpoint array, as a view, with no codes set."""
    return Boxes(ends.reshape(2, 2, -1), np.zeros(ends.shape[1], np.uint8))


def _failing(ends: np.ndarray, region: Region, test) -> tuple[np.ndarray, np.ndarray]:
    """The boxes of a slice that meet the region and fail the test, with their codes."""
    ends = ends[:, ~region.box_disjoint(_batch(ends))]
    if not ends.shape[1]:
        return ends, np.zeros(0, np.uint8)
    ok, why = test(_batch(ends))
    fail = ~(ok & (why == NONE))
    return ends[:, fail], why[fail]


def _unsplittable(ends: np.ndarray) -> np.ndarray:
    """The boxes of a (4, n) endpoint array whose midpoint, as box_quarters
    computes it, is one of their endpoints in both parts: floats hold no
    narrower box."""
    mid = 0.5 * (ends[:2] + ends[2:])
    return ((mid == ends[:2]) | (mid == ends[2:])).all(axis=0)


def _prove_on_region(region: Region, test, budget: Budget):
    """Prove `test` on every box of an adaptive cover of the region.

    test takes a batch of boxes and returns, per box, whether the claim
    holds on the whole box and a reason code; a box holds only with code
    NONE.  Boxes not provably disjoint from the region are covered —
    straddling boxes are tested in full, which only over-covers (sound).
    Returns the survivors, as (endpoints, depth, reason codes) chunks in
    order, and the stats.
    """
    level = _root_cells(region.bounding_box())
    depth = examined = dropped = 0
    survivors = []
    exhausted = False
    with np.errstate(all="ignore"):
        while True:
            room = budget.max_boxes - examined
            if level.shape[1] >= room:
                exhausted = True
                level, unexamined = level[:, :room], level[:, room:]
            examined += level.shape[1]
            last = exhausted or depth >= budget.max_depth
            # The next level keeps only the boxes the budget can still
            # examine, plus a frontier's worth; the rest are only counted.
            cap = budget.max_boxes - examined + FRONTIER_KEEP
            children, kept, spill = [], 0, 0
            for s in range(0, level.shape[1], SLICE):
                ends, why = _failing(level[:, s:s + SLICE], region, test)
                if last:
                    survivors.append((ends, depth, why))
                    continue
                stuck = _unsplittable(ends)
                if stuck.any():
                    survivors.append((ends[:, stuck], depth, why[stuck]))
                    ends = ends[:, ~stuck]
                parents = max(0, -(-(cap - kept) // 4))
                spill += 4 * max(0, ends.shape[1] - parents)
                # quarters reversed, parent by parent: the order a depth-first
                # stack would pop them
                re_lo, re_hi, im_lo, im_hi = box_quarters(*ends[[0, 2, 1, 3], :parents])
                kids = np.stack([re_lo, im_lo, re_hi, im_hi])[:, :, ::-1].reshape(4, -1)
                children.append(kids)
                kept += kids.shape[1]
            if exhausted:
                survivors.append((unexamined, depth,
                                  np.full(unexamined.shape[1], _BUDGET, np.uint8)))
            if last:
                break
            level, dropped = np.concatenate(children, axis=1), spill
            if not level.shape[1]:
                break
            depth += 1

    stats = {
        "boxes_examined": examined,
        "max_depth": depth,
        "survivors": sum(len(why) for _, _, why in survivors) + dropped,
        "budget_exhausted": exhausted,
    }
    return survivors, stats


def _finish(survivors, stats) -> Certificate:
    if not stats["survivors"]:
        verdict = "proved"
    elif any((why == POLE).any() for _, _, why in survivors):
        verdict = "pole_contact"
    else:
        verdict = "inconclusive"
    frontier = []
    for ends, depth, why in survivors:
        k = FRONTIER_KEEP - len(frontier)
        frontier += [{"re_lo": re_lo, "re_hi": re_hi, "im_lo": im_lo, "im_hi": im_hi,
                      "depth": depth, "reason": _REASONS[w]}
                     for (re_lo, im_lo, re_hi, im_hi), w in zip(ends[:, :k].T.tolist(), why[:k])]
    return Certificate(verdict, frontier, stats)


def _midpoints(ends) -> np.ndarray:
    """The centre of each box of a (4, n) endpoint array."""
    return 0.5 * (ends[0] + ends[2]) + 0.5j * (ends[1] + ends[3])


def _sampled_escape(m: MeromorphicMap, source: Region, target: Region) -> list | None:
    """The first root-cell centre in the source whose float image is
    certainly outside the target, as [re, im], or None.  Such a point shows
    the claim false in floats, so no certificate can prove it."""
    zs = _midpoints(_root_cells(source.bounding_box()))
    zs = zs[source.box_inside(Boxes.point(zs))]
    ws, bad = eval_map_vec(m, zs)
    zs, ws = zs[~bad], ws[~bad]
    out = np.flatnonzero(target.box_disjoint(Boxes.point(ws)))
    return [float(zs[out[0]].real), float(zs[out[0]].imag)] if out.size else None


def _inclusion_test(m: MeromorphicMap, source: Region, target: Region, centred: list):
    """The per-box test of f(source) subset target, and the sampled escape.

    A box holds when its natural image (eval_map_box) lies inside the
    target.  Unless a sampled escape shows the claim false, a box whose
    natural image has code NONE but is not inside, and whose float f(c) at
    its centre c lies inside, holds too when the mean-value ball
    (maps.eval_mean_value_ball) has code NONE and lies inside; centred gets
    the number of such boxes of each batch.
    """
    escape = _sampled_escape(m, source, target)

    def test(boxes: Boxes):
        image = eval_map_box(m, boxes)
        ok = target.box_inside(image)
        idx = np.flatnonzero(~ok & (image.why == NONE)) if escape is None else ()
        if len(idx):
            wc, bad = eval_map_vec(m, _midpoints(boxes.ends.reshape(4, -1)[:, idx]))
            idx = idx[~bad & target.box_inside(Boxes.point(wc))]
        if len(idx):
            fc, radius = eval_mean_value_ball(m, boxes.select(idx))
            won = idx[(fc.why == NONE) & target.ball_inside(fc, radius)]
            ok[won] = True
            centred.append(won.size)
        return ok, image.why
    return test, escape


def certify_inclusion(m: MeromorphicMap, source: Region, target: Region,
                      budget: Budget = Budget()) -> Certificate:
    """Prove f(source) subset target by conservative box cover of source.

    Each box is decided by its natural image, else by the mean-value ball
    (see _inclusion_test).  The stats add centred_boxes, the boxes the ball
    proved, and sampled_escape, a root-cell centre whose float image left
    the target (then the ball is never tried), or None.
    """
    centred: list[int] = []
    test, escape = _inclusion_test(m, source, target, centred)
    survivors, stats = _prove_on_region(source, test, budget)
    stats.update(centred_boxes=sum(centred), sampled_escape=escape)
    return _finish(survivors, stats)


# ---------------------------------------------------------------------------
# Modulus bounds for inequality certificates.
#
# A Bound assigns to every box of a batch a certified upper and/or lower
# bound of a nonnegative quantity, and a reason code: the bound is
# certified only where the code is NONE.  The region is passed in so lower
# bounds of |z - c|-type factors can use the region's distance floor on
# boxes that straddle the region boundary (where the raw box minimum
# degenerates).
# ---------------------------------------------------------------------------

def _checked(values: np.ndarray, *why: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """values with their codes: the first of why set, else OVERFLOW where not finite."""
    return values, _first_code(np.isfinite(values), *why)


class Bound:
    def upper(self, boxes: Boxes, region: Region) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError(f"{type(self).__name__} has no certified upper bound")

    def lower(self, boxes: Boxes, region: Region) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError(f"{type(self).__name__} has no certified lower bound")


class ExprBound(Bound):
    """|f(z)| for an expression-tree map, via rectangle image bounds.

    Where a box's image box meets 0, rectangle evaluation has lost all
    relative precision; there the second-order Taylor form
    (maps.eval_taylor_ball) bounds |f| as well, and the tighter bound of the
    two is kept.  A box whose Taylor form has a reason code keeps the
    rectangle bound.
    """

    def __init__(self, m: MeromorphicMap):
        self.map = m

    def _bound(self, boxes, natural, taylor, tighter):
        image = eval_map_box(self.map, boxes)
        v = natural(image)
        near = (image.why == NONE) & (box_mig(image) == 0.0)
        if near.any():
            fc, radius = eval_taylor_ball(self.map, boxes.select(near))
            v[near] = np.where(fc.why == NONE, tighter(v[near], taylor(fc, radius)), v[near])
        return _checked(v, image.why)

    def upper(self, boxes, region):
        return self._bound(boxes, box_mag, lambda fc, r: _out_hi(box_mag(fc) + r), np.minimum)

    def lower(self, boxes, region):
        return self._bound(boxes, box_mig,
                           lambda fc, r: np.maximum(0.0, _out_lo(box_mig(fc) - r, ulps=2)),
                           np.maximum)


class ConstBound(Bound):
    def __init__(self, c: float):
        if not c >= 0.0:   # NaN too
            raise ValueError("modulus bounds are nonnegative")
        self.c = float(c)

    def upper(self, boxes, region):
        return _checked(np.full(len(boxes.why), self.c))

    def lower(self, boxes, region):
        return _checked(np.full(len(boxes.why), self.c))


class PowerBound(Bound):
    """c * |z - center|^n; the lower bound uses the region distance floor."""

    def __init__(self, c: float, n: int, center: complex = 0j):
        if not (c >= 0.0 and n >= 0):   # NaN too
            raise ValueError("need c >= 0 and power n >= 0")
        self.c = float(c)
        self.n = int(n)
        self.center = complex(center)

    def upper(self, boxes, region):
        return _checked(_out_hi(self.c * box_mag(boxes, self.center) ** self.n, ulps=2))

    def lower(self, boxes, region):
        d = np.maximum(box_mig(boxes, self.center), region.min_dist_bound(self.center))
        return _checked(np.maximum(0.0, _out_lo(self.c * d ** self.n, ulps=2)))


class SumBound(Bound):
    """Triangle-inequality upper bound |u + v| <= |u| + |v|; upper-only."""

    def __init__(self, *parts: Bound):
        if not parts:
            raise ValueError("empty sum")
        self.parts = parts

    def upper(self, boxes, region):
        values, whys = zip(*(p.upper(boxes, region) for p in self.parts))
        return _checked(_out_hi(sum(values), ulps=2), *whys)


# cmp -> (how sup |small| must compare with inf |big|, whether lhs is big)
_CMP = {"<": (operator.lt, False), "<=": (operator.le, False),
        ">": (operator.lt, True), ">=": (operator.le, True)}


def _inequality_test(small: Bound, big: Bound, region: Region, op: str):
    """The per-box test that sup |small| < inf |big|, or <= for a
    non-strict op (its comparison in _CMP); small and big are in place."""
    holds = _CMP[op][0]

    def test(boxes: Boxes):
        lo, why_lo = big.lower(boxes, region)
        hi, why_hi = small.upper(boxes, region)
        return holds(hi, lo), _first_code(True, why_lo, why_hi)
    return test


def certify_inequality(lhs: Bound, rhs: Bound, region: Region, budget: Budget = Budget(),
                       cmp: str = "<") -> Certificate:
    """Prove |lhs| cmp |rhs| pointwise on the region.

    cmp is one of <, <=, >, >=.  Per box it reduces to sup |small| < or <=
    inf |big|, the sides and the strictness coming from _CMP, so a "proved"
    verdict certifies the pointwise claim.
    """
    if cmp not in _CMP:
        raise ValueError(f"unknown comparison {cmp!r}")
    small, big = (rhs, lhs) if _CMP[cmp][1] else (lhs, rhs)
    survivors, stats = _prove_on_region(region, _inequality_test(small, big, region, cmp),
                                        budget)
    return _finish(survivors, stats)


# ---------------------------------------------------------------------------
# Winding numbers and argument-principle counts.
# ---------------------------------------------------------------------------

WINDING_START_SAMPLES = 2 ** 10
WINDING_MAX_SAMPLES = 2 ** 20
MAX_ARG_STEP = math.pi / 2


def _circle(center: complex, radius: float, n: int) -> np.ndarray:
    k = np.arange(n)
    return center + radius * np.exp(2j * math.pi * k / n)


def _circle_image(m: MeromorphicMap, center: complex, radius: float, n: int) -> np.ndarray:
    """f at n equally spaced points of a circle; DegenerateCurve on a pole."""
    vals, bad = eval_map_vec(m, _circle(center, radius, n))
    if bad.any():
        raise DegenerateCurve(f"circle sample hit a pole of the map (n={n})")
    return vals


def _discrete_winding(curve: np.ndarray, w0: complex):
    rel = curve - w0
    dist = float(np.min(np.abs(rel)))
    if dist <= 0.0:      # a sample on w0: a step of pi, so never valid
        return 0, dist, math.pi
    steps = np.angle(np.roll(rel, -1) / rel)
    max_step = float(np.max(np.abs(steps)))
    total = float(np.sum(steps))
    return int(round(total / _TWO_PI)), dist, max_step


def winding_number(m: MeromorphicMap, circle: tuple[complex, float],
                   w0: complex) -> WindingResult:
    """Winding of the image of a circle around w0, sampled adaptively.

    Sample count doubles until every consecutive argument increment stays
    below pi/2 (valid), or up to WINDING_MAX_SAMPLES; a valid result is a
    locked integer (doubling further cannot change it while the criterion
    holds).
    """
    center, radius, w0 = complex(circle[0]), float(circle[1]), complex(w0)
    n = WINDING_START_SAMPLES
    while True:
        winding, dist, max_step = _discrete_winding(_circle_image(m, center, radius, n), w0)
        valid = max_step < MAX_ARG_STEP
        if valid or n >= WINDING_MAX_SAMPLES:
            return WindingResult(winding, dist, max_step, n, valid)
        n *= 2


def count_zeros_inside(m: MeromorphicMap, circle: tuple[complex, float],
                       w0: complex, poles_inside: int) -> int:
    """Argument principle: zeros of f - w0 inside = winding + poles inside."""
    wr = winding_number(m, circle, w0)
    if not wr.valid:
        raise InvalidCurve("winding sampling did not stabilize")
    return wr.winding + int(poles_inside)


def locate_preimages(m: MeromorphicMap, w0: complex, search_region: Region,
                     expected: int) -> list[complex]:
    """Newton refinement of f(z) = w0 from a seed grid over the region's
    bounding box (PREIMAGE_SEEDS a side); distinct roots whose point box
    is inside the region only.

    Raises CountMismatch when the deduplicated root count differs from
    `expected` — the argument-principle count is the caller's oracle.
    """
    zs, residual = newton_roots(minus(m, Node("const", data=complex(w0))),
                                seed_grid(search_region.bounding_box(), PREIMAGE_SEEDS))
    zs = zs[residual < 1e-10]
    zs = zs[search_region.box_inside(Boxes.point(zs))]
    roots = sorted(group_roots(zs, 1e-6)[0], key=lambda r: (r.real, r.imag))
    if len(roots) != expected:
        raise CountMismatch(len(roots), expected, roots)
    return roots


def riemann_hurwitz_check(c_u: int, k: int, n_critical: int, c_v: int) -> bool:
    """Degree/critical-point consistency for a proper map between domains:
    c_u - 2 == k*(c_v - 2) + n_critical."""
    if c_u < 1 or c_v < 1 or k < 1 or n_critical < 0:
        raise ValueError("need c_u, c_v >= 1, k >= 1, n_critical >= 0")
    return c_u - 2 == k * (c_v - 2) + n_critical


# ---------------------------------------------------------------------------
# Station-family constant derivation (the r1 / eps / r2 pipeline).
# ---------------------------------------------------------------------------

DYADIC_GRID = 1024          # candidate radii live on the grid k/1024
R1_CAP_NUM = 128            # search starts at 128/1024 = 1/8
PRESCREEN_SAMPLES = 512


def _sampled_sup(m: MeromorphicMap, center: complex, radius: float,
                 offset: complex = 0j) -> float:
    """Sampled maximum of |f - offset| on a circle (cheap reject witness)."""
    return float(np.max(np.abs(_circle_image(m, center, radius, PRESCREEN_SAMPLES) - offset)))


def _bisect(ok, good: int, bad: int) -> int:
    """Bisect the grid between good, where ok holds, and bad, where it does
    not, calling ok on midpoints only; returns the last good point."""
    while abs(bad - good) > 1:
        mid = (good + bad) // 2
        if ok(mid):
            good = mid
        else:
            bad = mid
    return good


def derive_ex2_constants() -> dict:
    """Derive and certify the station constants of the ex2 family.

    Every certificate, the final one too, gets one budget: 300,000 boxes to
    depth 20.  A candidate that a sampled witness refutes runs no
    certificate; otherwise its certificate decides it and joins
    `certificates`, in search order.  `trail` has one entry per
    candidate in search order: its kind ("r1", "rho_g" or "r2"), its value
    times 1024 (per_1024), and either the certificate's verdict,
    boxes_examined and max_depth, or refuted_by "sample" with the sampled
    value.  `candidate_seconds` has the seconds each candidate took, witness
    included, one per trail entry; they stay out of the deterministic trail.

    r1:    largest radius on the dyadic grid, at most 1/8, such that
           |g'(z)| <= 1/4 is certified on the closed disk |z| <= r1:
           bisection between 0 and 129/1024.  A sampled value of |g'|
           above 1/4 on the rim is the witness.
    eps:   largest power of ten that maps.ex2_admissible accepts with r1.
    rho_g: smallest grid radius with g(closed disk B(2pi, r1)) certified
           inside the open disk B(4pi, rho_g): proved at r1, then bisection
           down to 0.  The witness is a sampled image point at distance
           rho or more from 4pi.
    r2:    rho_g plus the worst-case pole weight eps/(2pi - r1), rounded
           up to the grid; certified end-to-end for the full map at the
           first station.  Stations further right only shrink the pole
           term (weight eps/(2n*pi - r1)) while g repeats by translation,
           so the first-station certificate dominates all of them.

    Deterministic by construction: fixed grids, fixed search order, fixed
    budgets — re-runs reproduce identical floats.
    """
    budget = Budget(300_000, max_depth=20)
    g = ex2_g_map()
    dg = derivative(g)
    certificates: list[Certificate] = []
    trail: list[dict] = []
    seconds: list[float] = []

    def timed(ok):
        """ok, appending the seconds of each call (one trail entry) to seconds."""
        def run(num: int) -> bool:
            t0 = time.perf_counter()
            holds = ok(num)
            seconds.append(time.perf_counter() - t0)
            return holds
        return run

    def candidate(kind: str, num: int, witness: float | None, certify, *args, **kwargs) -> bool:
        """Decide a candidate: refuted by a sampled witness, else by its certificate."""
        if witness is not None:
            trail.append({"kind": kind, "per_1024": num, "refuted_by": "sample",
                          "sampled": witness})
            return False
        cert = certify(*args, budget=budget, **kwargs)
        certificates.append(cert)
        trail.append({"kind": kind, "per_1024": num, "verdict": cert.verdict,
                      "boxes_examined": cert.stats["boxes_examined"],
                      "max_depth": cert.stats["max_depth"]})
        return cert.proved

    def r1_ok(num: int) -> bool:
        r = num / DYADIC_GRID
        sup = _sampled_sup(dg, 0j, r)
        return candidate("r1", num, sup if sup > 0.25 else None, certify_inequality,
                         ExprBound(dg), ConstBound(0.25),
                         Disk(0j, r, closed=True), cmp="<=")

    r1 = _bisect(timed(r1_ok), 0, R1_CAP_NUM + 1) / DYADIC_GRID
    if r1 == 0.0:
        raise ArithmeticError("no contraction radius certified on the grid")

    eps = next((10.0 ** -k for k in range(1, 16) if ex2_admissible(10.0 ** -k, r1)), None)
    if eps is None:
        raise ArithmeticError("no power-of-ten pole weight fits under r1")

    two_pi, four_pi = _TWO_PI, 2.0 * _TWO_PI
    station = Disk(complex(two_pi), r1, closed=True)
    sampled = _sampled_sup(g, complex(two_pi), r1, offset=complex(four_pi))

    def rho_ok(num: int) -> bool:
        rho = num / DYADIC_GRID
        return candidate("rho_g", num, sampled if rho <= sampled else None, certify_inclusion,
                         g, station, Disk(complex(four_pi), rho))

    top = int(r1 * DYADIC_GRID)             # rho_g < r1 or the station leaks
    if not timed(rho_ok)(top):
        raise ArithmeticError("station image does not certify below r1")
    rho_g = _bisect(timed(rho_ok), top, 0) / DYADIC_GRID

    # add the worst pole term over all stations n >= 1 and certify end-to-end
    pole_weight = eps / (two_pi - r1)
    r2_num = math.ceil((rho_g + pole_weight) * DYADIC_GRID)
    r2 = r2_num / DYADIC_GRID

    def r2_ok(num: int) -> bool:
        return candidate("r2", num, None, certify_inclusion, build_family("ex2", {"eps": eps}),
                         station, Disk(complex(four_pi), r2))

    if not timed(r2_ok)(r2_num):
        raise ArithmeticError("full station contraction did not certify")

    return {
        "r1": r1,
        "eps": eps,
        "rho_g": rho_g,
        "r2": r2,
        "pole_weight_first_station": pole_weight,
        "station_cert": certificates[-1],
        "certificates": certificates,
        "trail": trail,
        "candidate_seconds": seconds,
        "periodicity_note": (
            "g(z + 2*pi) = g(z) + 2*pi shifts the certified first-station "
            "inclusion to every station; the pole term at station n has "
            "weight eps/(2*n*pi - r1), maximal at n = 1, so the certified "
            "radius r2 covers all n >= 1"
        ),
    }
