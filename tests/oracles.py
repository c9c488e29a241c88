"""Slow reference implementations and exact checks that cross-check the library in tests."""
import math
import tracemalloc
from collections import deque
from typing import NamedTuple
from unittest import mock

import numpy as np

from wanderlab import dynamics, maps
from wanderlab.certify import FRONTIER_KEEP, Certificate, _root_cells
from wanderlab.dynamics import (
    _V_ATTRACTED,
    _V_BUDGET,
    _V_DRIFTING,
    _V_ESCAPED,
    _V_POLE,
    LADDER_STRIDE,
)
from wanderlab.maps import OPS, derivative, eval_map_vec
from wanderlab.numerics import NONE, OVERFLOW, POLE, Boxes, ComplexBox, box_quarters


class PoleIntersect(ArithmeticError):
    """A reciprocal was requested of a box whose modulus range reaches zero."""


def rows(b: Boxes) -> tuple:
    """The endpoint arrays of a batch: re_lo, re_hi, im_lo, im_hi."""
    return b.re_lo, b.re_hi, b.im_lo, b.im_hi


def boxes_of(re_lo, re_hi, im_lo, im_hi, why=None) -> Boxes:
    """The batch with these endpoint arrays, and no codes unless why is given."""
    ends = np.array([[re_lo, im_lo], [re_hi, im_hi]], dtype=np.float64)
    return Boxes(ends, np.zeros(ends.shape[-1], np.uint8) if why is None else why)


def encloses(b: Boxes, z, atol=0.0) -> np.ndarray:
    """Per box i of the batch and point z[i, j]: is the point inside the
    box widened by atol, and is the box's reason code unset?"""
    z = np.asarray(z, dtype=np.complex128)
    re_lo, re_hi, im_lo, im_hi = (e[:, None] for e in rows(b))
    return ((b.why == NONE)[:, None]
            & (re_lo - atol <= z.real) & (z.real <= re_hi + atol)
            & (im_lo - atol <= z.imag) & (z.imag <= im_hi + atol))


def nextafter_out_lo(x, ulps: int = 1):
    """Reference outward rounding: ulps steps of np.nextafter toward -inf."""
    for _ in range(ulps):
        x = np.nextafter(x, -np.inf)
    return x


def nextafter_out_hi(x, ulps: int = 1):
    """Reference outward rounding: ulps steps of np.nextafter toward +inf."""
    for _ in range(ulps):
        x = np.nextafter(x, np.inf)
    return x


def nextafter_step(x, ulps: int, s=None):
    """Reference for numerics._step: the lo ends of the interval array x
    stepped ulps floats down by np.nextafter and the hi ends up, in place."""
    for _ in range(ulps):
        np.nextafter(x[0], -np.inf, out=x[0])
        np.nextafter(x[1], np.inf, out=x[1])
    return x


def traced_peak(fn, *args):
    """fn(*args), and the most bytes tracemalloc saw allocated while it ran."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_holes_reference(mask: np.ndarray) -> int:
    """Slow, dependency-free hole counter used to cross-check topology.

    Floods the complement from the border with an explicit 8-adjacency
    BFS, then counts the complement regions the flood never reached.
    """
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    comp = ~mask
    seen = np.zeros((h, w), dtype=bool)
    dq = deque()

    def _seed(j, i):
        if comp[j, i] and not seen[j, i]:
            seen[j, i] = True
            dq.append((j, i))

    for i in range(w):
        _seed(0, i)
        _seed(h - 1, i)
    for j in range(h):
        _seed(j, 0)
        _seed(j, w - 1)
    while dq:
        j, i = dq.popleft()
        for dj in (-1, 0, 1):
            for di in (-1, 0, 1):
                jj, ii = j + dj, i + di
                if 0 <= jj < h and 0 <= ii < w and comp[jj, ii] and not seen[jj, ii]:
                    seen[jj, ii] = True
                    dq.append((jj, ii))
    rest = comp & ~seen
    holes = 0
    for j0 in range(h):
        for i0 in range(w):
            if rest[j0, i0]:
                holes += 1
                rest[j0, i0] = False
                dq.append((j0, i0))
                while dq:
                    j, i = dq.popleft()
                    for dj in (-1, 0, 1):
                        for di in (-1, 0, 1):
                            jj, ii = j + dj, i + di
                            if 0 <= jj < h and 0 <= ii < w and rest[jj, ii]:
                                rest[jj, ii] = False
                                dq.append((jj, ii))
    return holes


def label_reference(mask: np.ndarray, eight: bool = False) -> tuple:
    """Slow, dependency-free labelling: a BFS flood from each unlabelled
    pixel in scan order, so components are numbered from 1 by their first
    pixel.  Returns (int32 labels, count)."""
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    steps = [(dj, di) for dj in (-1, 0, 1) for di in (-1, 0, 1)
             if (dj or di) and (eight or not (dj and di))]
    labels = np.zeros((h, w), dtype=np.int32)
    n = 0
    for j0 in range(h):
        for i0 in range(w):
            if not mask[j0, i0] or labels[j0, i0]:
                continue
            n += 1
            labels[j0, i0] = n
            dq = deque([(j0, i0)])
            while dq:
                j, i = dq.popleft()
                for dj, di in steps:
                    jj, ii = j + dj, i + di
                    if 0 <= jj < h and 0 <= ii < w and mask[jj, ii] and not labels[jj, ii]:
                        labels[jj, ii] = n
                        dq.append((jj, ii))
    return labels, n


def holes_reference(mask: np.ndarray) -> list:
    """(first pixel (i, j), pixel count) of each hole of mask, in scan
    order: the 8-connected complement regions of the whole array that do
    not touch its border."""
    lab, n = label_reference(~np.asarray(mask, dtype=bool), eight=True)
    border = set(np.concatenate([lab[0], lab[-1], lab[:, 0], lab[:, -1]]).tolist())
    holes = []
    for k in range(1, n + 1):
        if k not in border:
            j, i = divmod(int(np.argmax((lab == k).ravel())), lab.shape[1])
            holes.append(((i, j), int((lab == k).sum())))
    return holes


def prove_on_region_reference(region, test, budget):
    """The depth-first subdivision engine, one box at a time.

    Each box is a ComplexBox, split with box_quarters.  test(one), on the
    batch of one Boxes.of([box]), returns True (holds on the whole box),
    False (undecided), or raises PoleIntersect or OverflowError (undecided,
    with that reason).  Returns the survivors as (box, depth, reason) in
    the order found, and the stats, as wanderlab.certify._prove_on_region
    does.
    """
    stack = [ComplexBox(re_lo, re_hi, im_lo, im_hi)
             for re_lo, im_lo, re_hi, im_hi in _root_cells(region.bounding_box()).T.tolist()]
    stack.reverse()
    depths = [0] * len(stack)
    examined = 0
    deepest = 0
    survivors = []
    exhausted = False

    while stack:
        box = stack.pop()
        depth = depths.pop()
        if exhausted:
            survivors.append((box, depth, "budget"))
            continue
        examined += 1
        deepest = max(deepest, depth)
        if examined >= budget.max_boxes:
            exhausted = True
        one = Boxes.of([box])
        if region.box_disjoint(one)[0]:
            continue
        reason = "undecided"
        try:
            if test(one):
                continue
        except PoleIntersect:
            reason = "pole"
        except OverflowError:
            reason = "overflow"
        # a box whose midpoint is an endpoint in both parts cannot be split
        one_float = (0.5 * (box.re_lo + box.re_hi) in (box.re_lo, box.re_hi)
                     and 0.5 * (box.im_lo + box.im_hi) in (box.im_lo, box.im_hi))
        if depth >= budget.max_depth or exhausted or one_float:
            survivors.append((box, depth, reason))
            continue
        for child in zip(*box_quarters(box.re_lo, box.re_hi, box.im_lo, box.im_hi)):
            stack.append(ComplexBox(*(float(e) for e in child)))
            depths.append(depth + 1)

    stats = {
        "boxes_examined": examined,
        "max_depth": deepest,
        "survivors": len(survivors),
        "budget_exhausted": exhausted,
    }
    return survivors, stats


def certificate_reference(statement, region, test, budget):
    """The Certificate the depth-first engine gives for test on region."""
    survivors, stats = prove_on_region_reference(region, test, budget)
    if not survivors:
        verdict = "proved"
    elif any(reason == "pole" for _, _, reason in survivors):
        verdict = "pole_contact"
    else:
        verdict = "inconclusive"
    frontier = [
        {"re_lo": b.re_lo, "re_hi": b.re_hi, "im_lo": b.im_lo, "im_hi": b.im_hi,
         "depth": d, "reason": r}
        for b, d, r in survivors[:FRONTIER_KEEP]
    ]
    return Certificate(statement, verdict, frontier, stats)


def group_estimates_reference(fixed, tol):
    """The scan-order loop that wanderlab.maps.group_roots
    replaces: each estimate, as a Python complex, joins the first group
    (in opening order) whose first estimate b lies within tol * (1 + |b|)
    of it, or opens a new group."""
    firsts, group_of = [], []
    for fp in np.asarray(fixed).tolist():
        for k, b in enumerate(firsts):
            if abs(fp - b) < tol * (1.0 + abs(b)):
                break
        else:
            k = len(firsts)
            firsts.append(fp)
        group_of.append(k)
    return firsts, group_of


def newton_roots_reference(m, seeds):
    """wanderlab.maps.newton_roots as a fixed loop: every seed runs all
    NEWTON_STEPS steps, settled or not."""
    dm = derivative(m)
    zs = np.array(seeds, dtype=np.complex128)
    alive = np.ones(zs.shape, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(maps.NEWTON_STEPS):
            vals, bad1 = eval_map_vec(m, zs)
            dvals, bad2 = eval_map_vec(dm, zs)
            bad = bad1 | bad2 | (np.abs(dvals) < maps._DIV_FLOOR)
            alive &= ~bad
            step = np.where(alive, vals / np.where(bad, 1.0, dvals), 0.0)
            step_size = np.abs(step)
            clip = step_size > maps.NEWTON_CLIP
            step = np.where(clip, step * (maps.NEWTON_CLIP / np.where(clip, step_size, 1.0)), step)
            zs = zs - step
    vals, bad = eval_map_vec(m, zs)
    return zs, np.where(alive & ~bad, np.abs(vals), np.inf)


def run_unfolded(m, column, x, lift):
    """wanderlab.maps._run without its tape: a recursive walk of m.expr
    that reads m.params and lifts every leaf, and runs every node, on each
    call."""
    def value(n):
        if n.op == "z":
            return x
        if not n.args:
            return lift(complex(m.params[n.data]) if n.op == "param" else n.data)
        data = () if n.data is None else (n.data,)
        return getattr(maps, OPS[n.op][column])(*map(value, n.args), *data)

    return value(m.expr)


def orbit_verdicts_reference(m, zs, cfg):
    """The full-array orbit state machine: every step gathers the live
    orbits out of n-sized arrays by np.nonzero and scatters them back, and
    each ladder keeps n-sized int64 streak state.  Returns the verdicts,
    the fixed-point estimates (nan where n/a) and the track ids (-1 where
    n/a) of all points; wanderlab.dynamics._orbit_verdicts returns the
    verdicts, the estimates of the attracted points and the track ids of
    the drifting ones."""
    n = zs.shape[0]
    z = zs.astype(np.complex128).copy()
    verdict = np.full(n, _V_BUDGET, dtype=np.uint8)
    fixed = np.full(n, np.nan + 0j, dtype=np.complex128)
    track = np.full(n, -1, dtype=np.int32)
    active = np.ones(n, dtype=bool)
    consec = np.zeros(n, dtype=np.int32)

    ladders = [(k, st, np.zeros(n, dtype=np.int32), np.full(n, -1, dtype=np.int64),
                np.full(n, np.iinfo(np.int64).min, dtype=np.int64))
               for k, st in enumerate(cfg.stations)]

    def stations(idx):
        for k, st, run, run_start, prev_idx in ladders:
            _station_update_reference(z, st, k, active, run, run_start, prev_idx,
                                      verdict, track, idx[active[idx]])

    stations(np.arange(n))
    snap_poles = [(p, m.pole_snap_radius(p)) for p in m.declared_poles]

    for _ in range(cfg.max_iter):
        if not active.any():
            break
        idx = np.nonzero(active)[0]
        cur = z[idx]
        hit = np.zeros(idx.shape[0], dtype=bool)
        for p, snap in snap_poles:
            hit |= np.abs(cur - p) <= snap
        if hit.any():
            verdict[idx[hit]] = _V_POLE
            active[idx[hit]] = False
            idx = idx[~hit]
            cur = cur[~hit]
            if idx.size == 0:
                continue
        nxt, bad = eval_map_vec(m, cur)
        esc = bad | (np.abs(nxt) > cfg.escape_radius)
        if esc.any():
            verdict[idx[esc]] = _V_ESCAPED
            active[idx[esc]] = False
        small = ~esc & (np.abs(nxt - cur) < cfg.attract_tol)
        consec[idx] = np.where(small, consec[idx] + 1, 0)
        conv = consec[idx] >= cfg.cycle_window
        conv &= ~esc
        if conv.any():
            verdict[idx[conv]] = _V_ATTRACTED
            fixed[idx[conv]] = nxt[conv]
            active[idx[conv]] = False
        z[idx] = nxt
        stations(idx[~esc & ~conv])
    return verdict, fixed, track


def _station_update_reference(z, st, k, active, run, run_start, prev_idx,
                              verdict, track, idx):
    cur = z[idx]
    approx = np.round((cur.real - st.base.real) / st.step).astype(np.int64)
    centers = st.base + approx * st.step
    inside = ((np.abs(cur - centers) < st.radius) & (approx >= st.min_index)
              & (np.abs(approx) < 2 ** 23))
    advancing = inside & (approx == prev_idx[idx] + 1)
    fresh = inside & ~advancing
    run_new = np.where(advancing, run[idx] + 1, np.where(fresh, 1, 0))
    run_start[idx] = np.where(fresh, approx, np.where(advancing, run_start[idx], -1))
    run[idx] = run_new
    prev_idx[idx] = np.where(inside, approx, np.iinfo(np.int64).min)
    done = run_new >= st.streak
    if done.any():
        sel = idx[done]
        verdict[sel] = _V_DRIFTING
        track[sel] = (run_start[sel] + k * LADDER_STRIDE).astype(np.int32)
        active[sel] = False


def classify_grid_reference(m, window, width, height, cfg):
    """wanderlab.dynamics.classify_grid with every row of the window
    classified in-process, as one range: the full-height path, which a
    mirrored raster skips.  The merge after it is classify_grid's own."""
    full = dynamics._classify_rows((m, cfg, window, width, height, 0, height))
    with mock.patch.object(dynamics, "_classify_ranges", lambda *args: full):
        return dynamics.classify_grid(m, window, width, height, cfg)


# ---------------------------------------------------------------------------
# The per-part box arithmetic: every op over four endpoint arrays, built from
# a real interval layer of (lo, hi) pairs.  wanderlab.numerics' block ops
# must give the same codes, and the same endpoint bits wherever the code is
# NONE (see test_blocks.py).
# ---------------------------------------------------------------------------

_WIDTH_INFLATE = 2.0 ** -41
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_HALF_ULP = 2.0 ** -53 * (1.0 + 2.0 ** -52)
_TINY = 2.0 ** -1074


class PartBoxes(NamedTuple):
    """A batch of boxes as four endpoint arrays and a uint8 reason code per box."""

    re_lo: np.ndarray
    re_hi: np.ndarray
    im_lo: np.ndarray
    im_hi: np.ndarray
    why: np.ndarray

    @property
    def re(self):
        return (self.re_lo, self.re_hi)

    @property
    def im(self):
        return (self.im_lo, self.im_hi)


def part_boxes(b: Boxes) -> PartBoxes:
    return PartBoxes(b.re_lo.copy(), b.re_hi.copy(), b.im_lo.copy(), b.im_hi.copy(), b.why.copy())


def part_point(z: complex, n: int) -> PartBoxes:
    z = complex(z)
    re, im = np.full(n, z.real), np.full(n, z.imag)
    return PartBoxes(re, re, im, im, np.zeros(n, np.uint8))


def _part_out_lo(x, ulps: int = 1):
    for _ in range(ulps):
        step = np.abs(x)
        step *= _HALF_ULP
        step += _TINY
        x = x - step
    return x


def _part_out_hi(x, ulps: int = 1):
    for _ in range(ulps):
        step = np.abs(x)
        step *= _HALF_ULP
        step += _TINY
        x = x + step
    return x


def _part_widen(lo, hi, ulps: int = 1):
    pad = (hi - lo) * _WIDTH_INFLATE
    return _part_out_lo(lo - pad, ulps), _part_out_hi(hi + pad, ulps)


def iv_add(a, b):
    return _part_widen(a[0] + b[0], a[1] + b[1])


def iv_sub(a, b):
    return _part_widen(a[0] - b[1], a[1] - b[0])


def iv_neg(a):
    return (-a[1], -a[0])


def iv_mul(a, b):
    p0 = a[0] * b[0]
    p1 = a[0] * b[1]
    p2 = a[1] * b[0]
    p3 = a[1] * b[1]
    return _part_widen(np.minimum(np.minimum(p0, p1), np.minimum(p2, p3)),
                       np.maximum(np.maximum(p0, p1), np.maximum(p2, p3)))


def iv_sq(a):
    lo, hi = a
    pos, neg = lo >= 0.0, hi <= 0.0
    m = np.maximum(-lo, hi)
    return _part_widen(np.where(pos, lo * lo, np.where(neg, hi * hi, 0.0)),
                       np.where(pos, hi * hi, np.where(neg, lo * lo, m * m)))


def iv_recip(a):
    """1 / interval.  Raises PoleIntersect when any interval reaches zero."""
    lo, hi = a
    if np.any((lo <= 0.0) & (0.0 <= hi)):
        raise PoleIntersect("interval straddles zero")
    return _part_widen(1.0 / hi, 1.0 / lo)


def iv_exp(a):
    return _part_widen(np.exp(a[0]), np.exp(a[1]), ulps=2)


def iv_cosh(a):
    lo, hi = a
    top = np.cosh(np.maximum(-lo, hi))
    bot = np.where((lo <= 0.0) & (0.0 <= hi), 1.0,
                   np.cosh(np.minimum(np.abs(lo), np.abs(hi))))
    return _part_widen(bot, top, ulps=2)


def iv_sinh(a):
    return _part_widen(np.sinh(a[0]), np.sinh(a[1]), ulps=2)


def _trig_range(a, fn, peak: float):
    """Range of sin (peak = pi/2) or cos (peak = 0) over [lo, hi]: the
    endpoint values, with 1 where floor((hi + s - c) / 2pi) >=
    ceil((lo - s - c) / 2pi) for c = peak, and -1 for c = peak - pi; s is 4
    ulps of max(|lo|, |hi|, 2pi).  Intervals 2pi or wider, or with an end
    past 1e15, get [-1, 1]."""
    lo, hi = a
    wide = (hi - lo >= _TWO_PI) | (np.abs(lo) > 1e15) | (np.abs(hi) > 1e15)
    f_lo, f_hi = fn(lo), fn(hi)
    s = 4.0 * np.spacing(np.maximum(np.maximum(np.abs(lo), np.abs(hi)), _TWO_PI))
    up, down = hi + s, lo - s

    def meets(c):
        return np.floor((up - c) / _TWO_PI) >= np.ceil((down - c) / _TWO_PI)

    top = np.where(meets(peak), 1.0, np.maximum(f_lo, f_hi))
    bot = np.where(meets(peak - math.pi), -1.0, np.minimum(f_lo, f_hi))
    vlo, vhi = _part_widen(bot, top, ulps=2)
    return (np.where(wide, -1.0, np.maximum(vlo, -1.0)),
            np.where(wide, 1.0, np.minimum(vhi, 1.0)))


def iv_sin(a):
    return _trig_range(a, np.sin, _HALF_PI)


def iv_cos(a):
    return _trig_range(a, np.cos, 0.0)


def _part_first_code(finite, *codes) -> np.ndarray:
    why = np.logical_not(finite).astype(np.uint8) * OVERFLOW
    for code in reversed(codes):
        why = np.where(code != NONE, code, why)
    return why


def _part_result(re, im, *args: PartBoxes, pole=None) -> PartBoxes:
    finite = np.isfinite(re[0]) & np.isfinite(re[1]) & np.isfinite(im[0]) & np.isfinite(im[1])
    codes = [x.why for x in args]
    if pole is not None:
        codes.append(pole.astype(np.uint8) * POLE)
    return PartBoxes(re[0], re[1], im[0], im[1], _part_first_code(finite, *codes))


def part_box_add(a, b):
    return _part_result(iv_add(a.re, b.re), iv_add(a.im, b.im), a, b)


def part_box_sub(a, b):
    return _part_result(iv_sub(a.re, b.re), iv_sub(a.im, b.im), a, b)


def part_box_neg(a):
    return _part_result(iv_neg(a.re), iv_neg(a.im), a)


def part_box_mul(a, b):
    return _part_result(iv_sub(iv_mul(a.re, b.re), iv_mul(a.im, b.im)),
                        iv_add(iv_mul(a.re, b.im), iv_mul(a.im, b.re)), a, b)


def part_box_recip(a):
    d = iv_add(iv_sq(a.re), iv_sq(a.im))
    pole = d[0] <= 0.0
    inv = iv_recip((np.where(pole, 1.0, d[0]), np.where(pole, 1.0, d[1])))
    return _part_result(iv_mul(a.re, inv), iv_neg(iv_mul(a.im, inv)), a, pole=pole)


def part_box_div(a, b):
    return part_box_mul(a, part_box_recip(b))


def part_box_exp(a):
    r = iv_exp(a.re)
    return _part_result(iv_mul(r, iv_cos(a.im)), iv_mul(r, iv_sin(a.im)), a)


def part_box_sin(a):
    return _part_result(iv_mul(iv_sin(a.re), iv_cosh(a.im)),
                        iv_mul(iv_cos(a.re), iv_sinh(a.im)), a)


def part_box_cos(a):
    return _part_result(iv_mul(iv_cos(a.re), iv_cosh(a.im)),
                        iv_neg(iv_mul(iv_sin(a.re), iv_sinh(a.im))), a)


def part_box_pow_int(a, n: int):
    acc = a
    for _ in range(n - 1):
        acc = part_box_mul(acc, a)
    return acc


def part_box_inflate(a, r):
    return _part_result((_part_out_lo(a.re_lo - r), _part_out_hi(a.re_hi + r)),
                        (_part_out_lo(a.im_lo - r), _part_out_hi(a.im_hi + r)), a)


def part_box_mag(b, center: complex = 0j) -> np.ndarray:
    c = complex(center)
    dx = np.maximum(np.abs(b.re_lo - c.real), np.abs(b.re_hi - c.real))
    dy = np.maximum(np.abs(b.im_lo - c.imag), np.abs(b.im_hi - c.imag))
    return _part_out_hi(np.hypot(_part_out_hi(dx), _part_out_hi(dy)), ulps=2)


def part_box_mig(b, center: complex = 0j) -> np.ndarray:
    c = complex(center)
    dx = np.where((b.re_lo <= c.real) & (c.real <= b.re_hi), 0.0,
                  np.minimum(np.abs(b.re_lo - c.real), np.abs(b.re_hi - c.real)))
    dy = np.where((b.im_lo <= c.imag) & (c.imag <= b.im_hi), 0.0,
                  np.minimum(np.abs(b.im_lo - c.imag), np.abs(b.im_hi - c.imag)))
    return np.maximum(0.0, _part_out_lo(np.hypot(dx, dy), ulps=3))


PART_OPS = {"box_add": part_box_add, "box_sub": part_box_sub, "box_mul": part_box_mul,
            "box_div": part_box_div, "box_neg": part_box_neg, "box_exp": part_box_exp,
            "box_sin": part_box_sin, "box_pow_int": part_box_pow_int}


def eval_map_box_reference(m, b: Boxes) -> PartBoxes:
    """wanderlab.maps.eval_map_box run on the per-part ops, with every
    constant lifted to n copies of its point box."""
    x = part_boxes(b)
    n = len(x.why)
    vals = [x]
    with np.errstate(all="ignore"):
        for name, value in m.tape.leaves:
            vals.append(part_point(value if name is None else complex(m.params[name]), n))
        for op, args, data, _ in (*m.tape.fixed, *m.tape.steps):
            vals.append(PART_OPS[op.box](*(vals[i] for i in args), *data))
    out = vals[-1]
    return out._replace(why=_part_first_code(True, x.why, out.why))
