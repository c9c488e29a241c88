"""Machine-checked certificates about map images on plane regions.

Three engines share this module:

* adaptive box subdivision proving set inclusions f(K) subset D and
  pointwise modulus inequalities on K — conservative tests only, so a
  "proved" verdict is a guarantee up to the soundness of the rectangle
  arithmetic.  The engine is breadth-first: it tests one frontier level
  at a time, in slices of at most SLICE boxes, each slice four endpoint
  arrays run through the batched box arithmetic in one pass.  A box fails
  when the test does not hold on it or its reason code is set (pole: its
  image touches a pole; overflow: an endpoint went inf or NaN), and a
  failing box below the depth limit contributes its four quarters to the
  next level, parent by parent and in reversed box_quarters order.  Within a
  depth the boxes thus keep depth-first pre-order, so when no budget runs
  out the examined set, boxes_examined, max_depth, the survivors and the
  frontier equal those of a depth-first walk (kept in tests/oracles.py).
  When the budget runs out, the examined boxes are the first max_boxes in
  level order; on that last level the failing examined boxes survive with
  their reasons, before the unexamined ones, which survive as "budget"
  (the first FRONTIER_KEEP of them are kept, the rest only counted);
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
import time
from dataclasses import dataclass, field

import numpy as np

from .maps import (
    MeromorphicMap,
    build_family,
    derivative,
    eval_map_box,
    eval_map_vec,
    ex2_g_map,
)
from .numerics import (
    NONE,
    OVERFLOW,
    POLE,
    Boxes,
    ComplexBox,
    _out_hi,
    box_mag,
    box_mig,
    box_quarters,
    box_sub,
)
from .regions import Disk, Region

_TWO_PI = 2.0 * math.pi

FRONTIER_KEEP = 64          # surviving boxes retained verbatim in a certificate
ROOT_GRID = 16              # the region bounding box starts as a 16x16 cell grid
SLICE = 4096                # boxes evaluated per batch of numpy calls


@dataclass(frozen=True)
class Budget:
    max_boxes: int = 1_000_000
    max_depth: int = 24

    def __post_init__(self):
        if self.max_boxes < 1 or self.max_depth < 0:
            raise ValueError("budget must allow at least one box")


@dataclass
class Certificate:
    statement: dict
    verdict: str                     # "proved" | "inconclusive" | "pole_contact"
    frontier: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def proved(self) -> bool:
        return self.verdict == "proved"


@dataclass(frozen=True)
class WindingResult:
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


def _root_cells(bb: ComplexBox) -> np.ndarray:
    """The ROOT_GRID x ROOT_GRID cells of bb, row by row, as a (4, n) endpoint array."""
    xs = np.linspace(bb.re_lo, bb.re_hi, ROOT_GRID + 1)
    ys = np.linspace(bb.im_lo, bb.im_hi, ROOT_GRID + 1)
    return np.stack([np.tile(xs[:-1], ROOT_GRID), np.tile(xs[1:], ROOT_GRID),
                     np.repeat(ys[:-1], ROOT_GRID), np.repeat(ys[1:], ROOT_GRID)])


def _batch(ends: np.ndarray) -> Boxes:
    return Boxes(*ends, np.zeros(ends.shape[1], np.uint8))


def _failing(ends: np.ndarray, region: Region, test) -> tuple[np.ndarray, np.ndarray]:
    """The boxes of a slice that meet the region and fail the test, with their codes."""
    ends = ends[:, ~region.box_disjoint(_batch(ends))]
    if not ends.shape[1]:
        return ends, np.zeros(0, np.uint8)
    ok, why = test(_batch(ends))
    fail = ~(ok & (why == NONE))
    return ends[:, fail], why[fail]


def _prove_on_region(region: Region, test, budget: Budget):
    """Prove `test` on every box of an adaptive cover of the region.

    test takes a batch of boxes and returns, per box, whether the claim
    holds on the whole box and a reason code; a box holds only with code
    NONE.  Boxes not provably disjoint from the region are covered —
    straddling boxes are tested in full, which only over-covers (sound).
    Returns the survivors, as (endpoints, depth, reason codes) chunks in
    order, and the stats.
    """
    t0 = time.perf_counter()
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
                parents = max(0, -(-(cap - kept) // 4))
                spill += 4 * max(0, ends.shape[1] - parents)
                # quarters reversed, parent by parent: the order a depth-first
                # stack would pop them
                kids = np.stack(box_quarters(*ends[:, :parents]))[:, :, ::-1].reshape(4, -1)
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
        "elapsed": time.perf_counter() - t0,
        "survivors": sum(len(why) for _, _, why in survivors) + dropped,
        "budget_exhausted": exhausted,
    }
    return survivors, stats


def _finish(statement: dict, survivors, stats) -> Certificate:
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
                     for (re_lo, re_hi, im_lo, im_hi), w in zip(ends[:, :k].T.tolist(), why[:k])]
    return Certificate(statement, verdict, frontier, stats)


def _inclusion_test(m: MeromorphicMap, target: Region):
    def test(boxes: Boxes):
        image = eval_map_box(m, boxes)
        return target.box_inside(image), image.why
    return test


def certify_inclusion(m: MeromorphicMap, source: Region, target: Region,
                      budget: Budget = Budget()) -> Certificate:
    """Prove f(source) subset target by conservative box cover of source."""
    survivors, stats = _prove_on_region(source, _inclusion_test(m, target), budget)
    statement = {"kind": "inclusion", "family": m.family_id,
                 "source": source, "target": target}
    return _finish(statement, survivors, stats)


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

def _checked(values: np.ndarray, why=None) -> tuple[np.ndarray, np.ndarray]:
    """values with their codes: why where set, else OVERFLOW where not finite."""
    bad = (~np.isfinite(values)).astype(np.uint8) * OVERFLOW
    return values, bad if why is None else np.where(why != NONE, why, bad)


class Bound:
    label = "bound"

    def upper(self, boxes: Boxes, region: Region) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError(f"{self.label} has no certified upper bound")

    def lower(self, boxes: Boxes, region: Region) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError(f"{self.label} has no certified lower bound")


class ExprBound(Bound):
    """|f(z)| for an expression-tree map, via rectangle image bounds."""

    def __init__(self, m: MeromorphicMap, label: str | None = None):
        self.map = m
        self.label = label or "|f(z)|"

    def upper(self, boxes, region):
        image = eval_map_box(self.map, boxes)
        return _checked(box_mag(image), image.why)

    def lower(self, boxes, region):
        image = eval_map_box(self.map, boxes)
        return _checked(box_mig(image), image.why)


class ConstBound(Bound):
    def __init__(self, c: float, label: str | None = None):
        if not c >= 0.0:   # NaN too
            raise ValueError("modulus bounds are nonnegative")
        self.c = float(c)
        self.label = label or repr(c)

    def upper(self, boxes, region):
        return _checked(np.full(len(boxes.why), self.c))

    def lower(self, boxes, region):
        return _checked(np.full(len(boxes.why), self.c))


def _down2(v: np.ndarray) -> np.ndarray:
    """v pushed two ulps toward 0, and not below 0."""
    return np.maximum(0.0, np.nextafter(np.nextafter(v, 0.0), 0.0))


class PowerBound(Bound):
    """c * |z - center|^n.  The lower bound uses the region distance floor."""

    def __init__(self, c: float, n: int, center: complex = 0j,
                 label: str | None = None):
        if not (c >= 0.0 and n >= 0):   # NaN too
            raise ValueError("need c >= 0 and n >= 0")
        self.c = float(c)
        self.n = int(n)
        self.center = complex(center)
        self.label = label or f"{c}*|z|^{n}"

    def upper(self, boxes, region):
        return _checked(_out_hi(self.c * box_mag(boxes, self.center) ** self.n, ulps=2))

    def lower(self, boxes, region):
        d = np.maximum(box_mig(boxes, self.center), region.min_dist_bound(self.center))
        return _checked(_down2(self.c * d ** self.n))


class QuotientSeriesBound(Bound):
    """c * |z - center|^power * |q(z - center)| with q a series-quotient enclosure.

    This is how a difference whose leading Taylor terms cancel is bounded
    without catastrophic loss: the cancellation is performed symbolically
    and only the analytic quotient is evaluated on the box.  quot_fn takes
    and returns Boxes.
    """

    def __init__(self, c: float, power: int, quot_fn, center: complex = 0j,
                 label: str | None = None):
        if not (c >= 0.0 and power >= 0):   # NaN too
            raise ValueError("need c >= 0 and power >= 0")
        self.c = float(c)
        self.power = int(power)
        self.quot_fn = quot_fn
        self.center = complex(center)
        self.label = label or f"{c}*|z|^{power}*|series|"

    def _quotient(self, boxes: Boxes) -> Boxes:
        if self.center != 0j:
            boxes = box_sub(boxes, Boxes.point(self.center, len(boxes.why)))
        return self.quot_fn(boxes)

    def upper(self, boxes, region):
        q = self._quotient(boxes)
        v = self.c * box_mag(boxes, self.center) ** self.power * box_mag(q)
        return _checked(_out_hi(v, ulps=2), q.why)

    def lower(self, boxes, region):
        q = self._quotient(boxes)
        d = np.maximum(box_mig(boxes, self.center), region.min_dist_bound(self.center))
        return _checked(_down2(self.c * d ** self.power * box_mig(q)), q.why)


class SumBound(Bound):
    """Triangle-inequality upper bound |u + v| <= |u| + |v|; upper-only."""

    def __init__(self, *parts: Bound, label: str | None = None):
        if not parts:
            raise ValueError("empty sum")
        self.parts = parts
        self.label = label or " + ".join(p.label for p in parts)

    def upper(self, boxes, region):
        total, why = 0.0, np.zeros(len(boxes.why), np.uint8)
        for p in self.parts:
            v, w = p.upper(boxes, region)
            total = total + v
            why = np.where(why != NONE, why, w)
        return _checked(_out_hi(total, ulps=2), why)


_CMP = {
    "<": lambda lo_rhs, hi_lhs: hi_lhs < lo_rhs,
    "<=": lambda lo_rhs, hi_lhs: hi_lhs <= lo_rhs,
}


def _inequality_test(small: Bound, big: Bound, region: Region, op: str):
    decide = _CMP[op]

    def test(boxes: Boxes):
        lo, why_lo = big.lower(boxes, region)
        hi, why_hi = small.upper(boxes, region)
        return decide(lo, hi), np.where(why_lo != NONE, why_lo, why_hi)
    return test


def certify_inequality(lhs: Bound | MeromorphicMap, rhs: Bound | MeromorphicMap,
                       region: Region, budget: Budget = Budget(),
                       cmp: str = "<") -> Certificate:
    """Prove |lhs| cmp |rhs| pointwise on the region.

    cmp is one of <, <=, >, >=.  Maps are wrapped as modulus bounds.
    Internally everything reduces to sup(lhs) < inf(rhs) per box (or the
    mirrored form), so a "proved" verdict certifies the pointwise claim.
    """
    if isinstance(lhs, MeromorphicMap):
        lhs = ExprBound(lhs)
    if isinstance(rhs, MeromorphicMap):
        rhs = ExprBound(rhs)
    if cmp in ("<", "<="):
        small, big, op = lhs, rhs, cmp
    elif cmp in (">", ">="):
        small, big, op = rhs, lhs, "<" if cmp == ">" else "<="
    else:
        raise ValueError(f"unknown comparison {cmp!r}")
    survivors, stats = _prove_on_region(region, _inequality_test(small, big, region, op),
                                        budget)
    statement = {"kind": "inequality", "lhs": lhs.label, "cmp": cmp,
                 "rhs": rhs.label, "region": region}
    return _finish(statement, survivors, stats)


# ---------------------------------------------------------------------------
# Winding numbers and argument-principle counts.
# ---------------------------------------------------------------------------

WINDING_START_SAMPLES = 2 ** 10
WINDING_MAX_SAMPLES = 2 ** 20
MAX_ARG_STEP = math.pi / 2


def _circle(center: complex, radius: float, n: int) -> np.ndarray:
    k = np.arange(n)
    return center + radius * np.exp(2j * math.pi * k / n)


def _discrete_winding(curve: np.ndarray, w0: complex):
    rel = curve - w0
    dist = float(np.min(np.abs(rel)))
    if dist <= 0.0:
        return None, dist, math.pi
    steps = np.angle(np.roll(rel, -1) / rel)
    max_step = float(np.max(np.abs(steps)))
    total = float(np.sum(steps))
    return int(round(total / _TWO_PI)), dist, max_step


def winding_number(m: MeromorphicMap, circle: tuple[complex, float],
                   w0: complex) -> WindingResult:
    """Winding of the image of a circle around w0, sampled adaptively.

    Sample count doubles until every consecutive argument increment stays
    below pi/2; the result is then a locked integer (doubling further
    cannot change it while the criterion holds).
    """
    center, radius = complex(circle[0]), float(circle[1])
    n = WINDING_START_SAMPLES
    while True:
        vals, bad = eval_map_vec(m, _circle(center, radius, n))
        if bad.any():
            raise DegenerateCurve(f"curve sample hit a pole of the map (n={n})")
        winding, dist, max_step = _discrete_winding(vals, complex(w0))
        valid = winding is not None and dist > 0.0 and max_step < MAX_ARG_STEP
        if valid or n >= WINDING_MAX_SAMPLES:
            return WindingResult(winding if winding is not None else 0,
                                 dist, max_step, n, valid)
        n *= 2


def count_zeros_inside(m: MeromorphicMap, circle: tuple[complex, float],
                       w0: complex, poles_inside: int) -> int:
    """Argument principle: zeros of f - w0 inside = winding + poles inside."""
    wr = winding_number(m, circle, w0)
    if not wr.valid:
        raise InvalidCurve("winding sampling did not stabilize")
    return wr.winding + int(poles_inside)


def locate_preimages(m: MeromorphicMap, w0: complex, search_region: Region,
                     expected: int, seed_grid: int = 25) -> list[complex]:
    """Newton refinement of f(z) = w0 from a seed grid; distinct roots only.

    Raises CountMismatch when the deduplicated root count differs from
    `expected` — the argument-principle count is the caller's oracle.
    """
    w0 = complex(w0)
    bb = search_region.bounding_box()
    xs = np.linspace(bb.re_lo, bb.re_hi, seed_grid)
    ys = np.linspace(bb.im_lo, bb.im_hi, seed_grid)
    zs = (xs[None, :] + 1j * ys[:, None]).ravel()
    dm = derivative(m)

    alive = np.ones(zs.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(60):
            vals, bad1 = eval_map_vec(m, zs)
            dvals, bad2 = eval_map_vec(dm, zs)
            bad = bad1 | bad2 | (np.abs(dvals) < 1e-300)
            alive &= ~bad
            step = np.where(alive, (vals - w0) / np.where(bad, 1.0, dvals), 0.0)
            step_size = np.abs(step)
            clip = step_size > 0.5
            step = np.where(clip, step * (0.5 / np.where(clip, step_size, 1.0)), step)
            zs = zs - step

    vals, bad = eval_map_vec(m, zs)
    residual = np.abs(vals - w0)
    ok = alive & ~bad & (residual < 1e-10)

    roots: list[complex] = []
    for z in zs[ok]:
        z = complex(z)
        if not search_region.contains(z):
            continue
        if any(abs(z - r) < 1e-6 * (1.0 + abs(r)) for r in roots):
            continue
        roots.append(z)
    roots.sort(key=lambda r: (r.real, r.imag))
    if len(roots) != expected:
        raise CountMismatch(len(roots), expected, roots)
    return roots


def riemann_hurwitz_check(c_u: int, k: int, n_critical: int, c_v: int) -> bool:
    """Degree/critical-point consistency for a proper map between domains:
    c_u - 2 == k*(c_v - 2) + n_critical."""
    if c_u < 1 or c_v < 1 or k < 1 or n_critical < 0:
        raise ValueError("need c_u, c_v >= 1, k >= 1, n_critical >= 0")
    return c_u - 2 == k * (c_v - 2) + n_critical


def curve_image_surrounds_pole(m: MeromorphicMap, iterations: int,
                               curve_circle: tuple[complex, float],
                               pole: complex) -> bool:
    """Does the n-th forward image of the circle wind around the pole?"""
    center, radius = complex(curve_circle[0]), float(curve_circle[1])
    n = 4096
    while True:
        curve = _circle(center, radius, n)
        for _ in range(int(iterations)):
            curve, bad = eval_map_vec(m, curve)
            if bad.any():
                raise DegenerateCurve("iterated curve sample hit a pole")
        winding, dist, max_step = _discrete_winding(curve, complex(pole))
        if winding is not None and dist > 0.0 and max_step < MAX_ARG_STEP:
            return winding != 0
        if n >= WINDING_MAX_SAMPLES:
            raise InvalidCurve("curve sampling did not stabilize")
        n *= 2


# ---------------------------------------------------------------------------
# Station-family constant derivation (the r1 / eps / r2 pipeline).
# ---------------------------------------------------------------------------

DYADIC_GRID = 1024          # candidate radii live on the grid k/1024
R1_CAP_NUM = 128            # search starts at 128/1024 = 1/8
PRESCREEN_SAMPLES = 512


def _sampled_sup(m: MeromorphicMap, center: complex, radius: float,
                 offset: complex = 0j) -> float:
    """Sampled maximum of |f - offset| on a circle (cheap reject witness)."""
    vals, bad = eval_map_vec(m, _circle(center, radius, PRESCREEN_SAMPLES))
    if bad.any():
        raise DegenerateCurve("prescreen circle hit a pole")
    return float(np.max(np.abs(vals - offset)))


def derive_ex2_constants(candidate_budget: Budget = Budget(max_boxes=300_000, max_depth=20),
                         final_budget: Budget = Budget(max_boxes=500_000, max_depth=22)) -> dict:
    """Derive and certify the station constants of the ex2 family.

    r1:    largest radius on the dyadic grid, at most 1/8, such that
           |g'(z)| <= 1/4 is certified on the closed disk |z| <= r1.
           Search: halve from 1/8 until a candidate certifies, then binary
           search on the grid between the last failure and the success.
           Candidates are prescreened by circle sampling: a sampled value
           above 1/4 is a concrete witness, so the engine never runs.
    eps:   largest power of ten with 6*sqrt(eps) < r1 and eps < 1/144.
    rho_g: smallest grid radius with g(closed disk B(2pi, r1)) certified
           inside the open disk B(4pi, rho_g).  Candidates below the
           sampled image supremum are rejected by witness.
    r2:    rho_g plus the worst-case pole weight eps/(2pi - r1), rounded
           up to the grid; certified end-to-end for the full map at the
           first station.  Stations further right only shrink the pole
           term (weight eps/(2n*pi - r1)) while g repeats by translation,
           so the first-station certificate dominates all of them.

    Deterministic by construction: fixed grids, fixed search order, fixed
    budgets — re-runs reproduce identical floats.
    """
    g = ex2_g_map()
    dg = derivative(g)
    quarter = 0.25
    certificates: list[Certificate] = []

    def certify_r1(r: float) -> Certificate:
        c = certify_inequality(ExprBound(dg, label="|g'(z)|"),
                               ConstBound(quarter, label="1/4"),
                               Disk(0j, r, closed=True),
                               budget=candidate_budget, cmp="<=")
        certificates.append(c)
        return c

    def r1_ok(num: int) -> bool:
        r = num / DYADIC_GRID
        if _sampled_sup(dg, 0j, r) > quarter:
            return False
        return certify_r1(r).proved

    # descend by halving until something certifies
    num = R1_CAP_NUM
    while not r1_ok(num):
        num //= 2
        if num == 0:
            raise ArithmeticError("no contraction radius certified on the grid")
    good = num
    bad = num * 2                      # last failing candidate (cap+1 sentinel ok)
    if good == R1_CAP_NUM:
        bad = R1_CAP_NUM + 1
    while bad - good > 1:
        mid = (good + bad) // 2
        if r1_ok(mid):
            good = mid
        else:
            bad = mid
    r1 = good / DYADIC_GRID

    # largest 10^-k admissible for the pole weight
    eps = None
    for k in range(1, 16):
        cand = 10.0 ** -k
        if cand < 1.0 / 144.0 and 6.0 * math.sqrt(cand) < r1:
            eps = cand
            break
    if eps is None:
        raise ArithmeticError("no power-of-ten pole weight fits under r1")

    # smallest certified image radius for g on the first station disk
    two_pi, four_pi = _TWO_PI, 2.0 * _TWO_PI
    station = Disk(complex(two_pi), r1, closed=True)
    sampled = _sampled_sup(g, complex(two_pi), r1, offset=complex(four_pi))

    def rho_ok(num: int) -> Certificate | None:
        rho = num / DYADIC_GRID
        if rho <= sampled:
            return None                # witness on the rim already exceeds rho
        c = certify_inclusion(g, station, Disk(complex(four_pi), rho),
                              budget=candidate_budget)
        certificates.append(c)
        return c if c.proved else None

    lo, hi = 0, int(r1 * DYADIC_GRID)      # rho_g < r1 or the station leaks
    proof = rho_ok(hi)
    if proof is None:
        raise ArithmeticError("station image does not certify below r1")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        c = rho_ok(mid)
        if c is not None:
            hi = mid
        else:
            lo = mid
    rho_g = hi / DYADIC_GRID

    # add the worst pole term over all stations n >= 1 and certify end-to-end
    pole_weight = eps / (two_pi - r1)
    r2 = math.ceil((rho_g + pole_weight) * DYADIC_GRID) / DYADIC_GRID
    f = build_family("ex2", {"eps": eps, "r1": r1})
    final = certify_inclusion(f, station, Disk(complex(four_pi), r2),
                              budget=final_budget)
    certificates.append(final)
    if not final.proved:
        raise ArithmeticError("full station contraction did not certify")

    return {
        "r1": r1,
        "eps": eps,
        "rho_g": rho_g,
        "r2": r2,
        "pole_weight_first_station": pole_weight,
        "station_cert": final,
        "certificates": certificates,
        "periodicity_note": (
            "g(z + 2*pi) = g(z) + 2*pi shifts the certified first-station "
            "inclusion to every station; the pole term at station n has "
            "weight eps/(2*n*pi - r1), maximal at n = 1, so the certified "
            "radius r2 covers all n >= 1"
        ),
    }
