"""Slow reference implementations and exact checks that cross-check the library in tests."""
import tracemalloc
from collections import deque
from unittest import mock

import numpy as np

from wanderlab import dynamics
from wanderlab.certify import FRONTIER_KEEP, Certificate, _root_cells
from wanderlab.dynamics import (
    _V_ATTRACTED,
    _V_BUDGET,
    _V_DRIFTING,
    _V_ESCAPED,
    _V_POLE,
    LADDER_STRIDE,
)
from wanderlab.maps import eval_map_vec
from wanderlab.numerics import NONE, Boxes, ComplexBox, PoleIntersect, box_quarters


def encloses(b: Boxes, z, atol=0.0) -> np.ndarray:
    """Per box i of the batch and point z[i, j]: is the point inside the
    box widened by atol, and is the box's reason code unset?"""
    z = np.asarray(z, dtype=np.complex128)
    re_lo, re_hi, im_lo, im_hi = (e[:, None] for e in b[:4])
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
    stack = [ComplexBox(*cell) for cell in _root_cells(region.bounding_box()).T.tolist()]
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
        if depth >= budget.max_depth or exhausted:
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
    inside = (np.abs(cur - centers) < st.radius) & (approx >= st.min_index)
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
