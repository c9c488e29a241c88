"""Vectorized orbit verdicts, fixed-point location, and raster classification.

One vectorized state machine, `_orbit_verdicts`, runs a sequence of
start points to verdicts: attraction (`cycle_window` consecutive steps
shorter than `attract_tol`), escape past `escape_radius`, a hit on a
declared pole, station drift, or the iteration budget.  Every point
`eval_map_vec` flags escapes, unless it lies in a declared pole's snap
zone, which is a pole hit; so a pole the map does not declare reads as
escape to infinity.  It keeps at most ORBIT_BLOCK orbits live and admits
the next start points whenever half the block or less is left, so its
working memory does not grow with the number of points: per point it
holds a uint8 verdict, and per attracted or drifting orbit the value it
retired with.  A step updates the live orbits' int32 state block in place
and steps every station ladder in one vectorized pass, testing each
distinct ladder band once; the map's guards, the pole snap and the
escape and retirement bookkeeping allocate only at steps where they fire,
and one take compacts the state at a step where orbits retire.  Each
orbit's retirement step also lands in a log2 histogram per verdict.

Fixed points come from the one Newton solver, `maps.newton_roots`, run
on f(z) - z: `find_fixed_point` runs it once from a seed grid over a
region, and `classify_grid` once from the first estimate of every
attraction basin met in scan order (`maps.group_roots` groups the
estimates; a basin confirms at residual at most 1e-12; the pixels of a
basin that does not confirm fall back to the budget verdict).
`classify_grid` cuts the rows of a window into contiguous ranges, one per
worker but no more than there are rows or orbit blocks of pixels, so a
raster of one block or less is classified in-process; each range builds
its pixel centers a block at a time, whole rows broadcast, from their
row and column coordinates, runs the orbit machine over them and returns
its verdicts with the fixed-point estimates of its attracted pixels and
the track ids of its drifting ones only, and its retirement histogram.
A raster that is its own mirror image is classified in its upper half
only: when every constant and parameter on the map's tape, every declared
pole and every station ladder's base is real, and the window has
im_lo = -im_hi, f(conj z) = conj f(z) (Schwarz reflection), so rows
height // 2 .. height - 1 are classified (the axis row too when the
height is odd) and the rows below are those rows reversed, without the
axis row, with the same verdicts and track ids and conjugate estimates.
One merge over the ranges derives display labels, with uint8, bool and
int32 pixel arrays only:

* attracted pixels carry a basin id (one id per confirmed fixed point),
* station-hopping pixels carry a track id: the corridor index where the
  advancing streak began, plus k * LADDER_STRIDE (2**24) on ladder k,
* pixels whose verdict differs from a 4-neighbour's — behaviour
  boundaries — are marked suspect, as are budget-exhausted and
  pole-hitting orbits,
* the pixel cells geometrically containing a declared pole are marked
  pole-adjacent, overriding everything else,
* escaped pixels stay unresolved: escape alone does not decide between
  a fast-escaping domain and its boundary at raster scale.
"""
from __future__ import annotations

import cmath
import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .maps import (
    MeromorphicMap,
    Node,
    derivative,
    eval_map,
    eval_map_box,
    eval_map_vec,
    group_roots,
    minus,
    newton_roots,
    seed_grid,
)
from .numerics import NONE, Boxes, ComplexBox
from .regions import Disk, Region

# raster label codes
UNRESOLVED = 0
ATTRACTED = 1
DRIFTING = 2
POLE_ADJACENT = 3
JULIA_SUSPECT = 4
LABEL_NAMES = ("unresolved", "attracted", "drifting", "pole_adjacent", "julia_suspect")

# orbit verdict codes used internally by the classifier
_V_BUDGET = 0
_V_ATTRACTED = 1
_V_ESCAPED = 2
_V_DRIFTING = 3
_V_POLE = 4
_VERDICT_NAMES = ((_V_ESCAPED, "escaped"), (_V_ATTRACTED, "attracted"),
                  (_V_DRIFTING, "drifting"), (_V_POLE, "pole"), (_V_BUDGET, "budget"))


@dataclass(frozen=True)
class StationSpec:
    """Arithmetic ladder of corridor disks B(base + step*n, radius), n >= min_index.

    The step is real and may be negative, so a ladder runs left or right.
    An orbit is station-hopping once it spends `streak` consecutive points
    in corridors with the index advancing by exactly one per step.  A
    point whose rounded corridor index n has |n| >= 2**23 lies outside
    every corridor, so the indices fit in int32 and the track ids of
    different ladders never meet.
    """

    base: complex = 0j
    step: float = 2.0 * math.pi
    radius: float = 0.5
    min_index: int = 1
    streak: int = 12

    def __post_init__(self):
        if not cmath.isfinite(self.base):
            raise ValueError(f"base must be finite, got {self.base!r}")
        if not (math.isfinite(self.step) and self.step != 0.0):
            raise ValueError(f"step must be finite and nonzero, got {self.step!r}")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be finite and > 0, got {self.radius!r}")
        if self.streak < 2:
            raise ValueError(f"streak must be >= 2, got {self.streak!r}")


# Track id of a streak on ladder k: its first corridor index + k * LADDER_STRIDE.
LADDER_STRIDE = 2 ** 24
_INDEX_LIMIT = 2 ** 23
_OUTSIDE = 2 ** 30
_MAX_LADDERS = 2 ** 31 // LADDER_STRIDE


@dataclass(frozen=True)
class OrbitConfig:
    """Orbit budget and verdict thresholds; `stations` is a tuple of ladders,
    all updated at each step; the first declared wins a tie."""

    max_iter: int = 500
    escape_radius: float = 1e6
    attract_tol: float = 1e-9
    cycle_window: int = 8
    stations: tuple[StationSpec, ...] = ()

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")
        for name in ("escape_radius", "attract_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if self.cycle_window < 1:
            raise ValueError(f"cycle_window must be >= 1, got {self.cycle_window!r}")
        if not (isinstance(self.stations, tuple) and len(self.stations) <= _MAX_LADDERS
                and all(isinstance(st, StationSpec) for st in self.stations)):
            raise ValueError(f"stations must be a tuple of at most {_MAX_LADDERS} "
                             f"StationSpec, got {self.stations!r}")


@dataclass(frozen=True)
class FixedPointReport:
    location: complex
    residual: float
    multiplier: complex

    @property
    def attracting(self) -> bool:
        return abs(self.multiplier) < 1.0


class NotFound(ArithmeticError):
    """No Newton seed converged to a fixed point inside the region."""


FIXED_POINT_SEEDS = 11   # Newton seeds per side of the fixed-point seed grid


def find_fixed_point(m: MeromorphicMap, seed_region: Region) -> FixedPointReport:
    """Newton from a seed grid; the point with the least residual, at most
    1e-12, inside the region wins (the first in scan order on a tie)."""
    seeds = [z for z in seed_grid(seed_region.bounding_box(), FIXED_POINT_SEEDS)
             if seed_region.contains(z)]
    zs, residual = newton_roots(minus(m, Node("z")), seeds)
    residual[np.array([not seed_region.contains(z) for z in zs], dtype=bool)] = np.inf
    if not (residual <= 1e-12).any():
        raise NotFound("no seed converged to a fixed point in the region")
    k = int(np.argmin(residual))
    z = complex(zs[k])
    return FixedPointReport(z, float(residual[k]), eval_map(derivative(m), z))


def track_wandering(m: MeromorphicMap, z0: complex, station_centers,
                    station_radius: float) -> list[bool]:
    """Entry n: does the box image of z0 under f^n (eval_map_box n times on
    its point box) have code NONE and lie in the open disk of station_radius
    about centers[n]?  A code once set stays set: after a pole hit, False."""
    b = Boxes.point(z0)
    out = []
    for n, center in enumerate(station_centers):
        if n:
            b = eval_map_box(m, b)
        out.append(bool(b.why[0] == NONE and Disk(center, station_radius).box_inside(b)[0]))
    return out


# ---------------------------------------------------------------------------
# Grid classification.
# ---------------------------------------------------------------------------

@dataclass
class RasterGrid:
    window: ComplexBox
    width: int
    height: int
    labels: np.ndarray        # uint8 (height, width), codes above
    ids: np.ndarray           # int32 (height, width), basin/track id or -1
    # pixels per orbit verdict before the suspect overlay, and "boundary":
    # pixels the 4-neighbour pass marks suspect
    verdict_counts: dict = field(default_factory=dict)
    # per orbit-loop verdict, orbits per log2 bucket of the step they
    # retired at ("1", "2-3", "4-7", ...); empty buckets are left out
    retire_steps: dict = field(default_factory=dict)

    def pixel_of(self, z: complex) -> tuple[int, int]:
        z = complex(z)
        dx = (self.window.re_hi - self.window.re_lo) / self.width
        dy = (self.window.im_hi - self.window.im_lo) / self.height
        i = math.floor((z.real - self.window.re_lo) / dx)
        j = math.floor((z.imag - self.window.im_lo) / dy)
        if not (0 <= i < self.width and 0 <= j < self.height):
            raise ValueError(f"{z} outside the raster window")
        return i, j


ORBIT_BLOCK = 2 ** 15   # the most orbits _orbit_verdicts keeps live at once


class _GridPoints:
    """The points xs[i] + 1j*ys[j] in scan order (j major), built a slice at
    a time: _orbit_verdicts reads its start points only by len and slices."""

    def __init__(self, xs: np.ndarray, ys: np.ndarray):
        self.xs, self.ys = xs, ys

    def __len__(self) -> int:
        return self.xs.size * self.ys.size

    def __getitem__(self, s: slice) -> np.ndarray:
        # every row the slice touches, broadcast whole, then cut to the slice
        w = self.xs.size
        r0, r1 = s.start // w, -(-s.stop // w)
        rows = self.xs + 1j * self.ys[r0:r1, None]
        return rows.ravel()[s.start - r0 * w:s.stop - r0 * w]


def _orbit_verdicts(m: MeromorphicMap, zs, cfg: OrbitConfig):
    """Vectorized orbit state machine over a sequence of start points.

    zs is an array, or anything with len() whose slices are arrays.
    Returns (verdict codes, the fixed-point estimates of the attracted
    orbits, the track ids of the drifting ones, the retirement histogram),
    the first three in scan order.  The loop keeps at most ORBIT_BLOCK live
    orbits: their start positions, current points, and one int32 state
    block of 2 + 2L rows: the count of short steps in a row, the age (steps
    taken), per ladder the streak length, and per ladder the corridor index
    that would advance the streak (the last index + 1, so a streak began at
    that index minus its length).  A step updates the state in place, and
    at a step where orbits get verdicts one take of the live orbits'
    positions compacts the start positions, the points and the block; an
    attracted or drifting orbit leaves its value with its start position.
    An orbit retires as budget at age cfg.max_iter, and once half the block
    or less is live the next start points, sliced out of zs, fill it again.
    Each verdict is a pure function of its start point, so the block size
    changes no output.

    The histogram counts retired orbits per verdict code (row) and log2
    bucket of the step they retired at (column k: steps 2**k to
    2**(k+1) - 1); it is filled only at steps where orbits retire.
    """
    n = len(zs)
    verdict = np.full(n, _V_BUDGET, dtype=np.uint8)
    attracted = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.complex128))]
    drifted = [(np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.int32))]
    buckets = cfg.max_iter.bit_length()
    retired = np.zeros(len(_VERDICT_NAMES) * buckets, dtype=np.int64)
    ladders = _Ladders.of(cfg.stations)
    rows = 2 + 2 * len(cfg.stations)

    start = np.zeros(0, dtype=np.intp)
    z = np.zeros(0, dtype=np.complex128)
    state = np.zeros((rows, 0), dtype=np.int32)
    admitted = 0

    while start.size or admitted < n:
        if start.size <= ORBIT_BLOCK // 2 and admitted < n:
            k = min(ORBIT_BLOCK - start.size, n - admitted)
            new_start = np.arange(admitted, admitted + k)
            new_z = np.asarray(zs[admitted:admitted + k], dtype=np.complex128)
            new_state = np.zeros((rows, k), dtype=np.int32)
            # a streak is at least 2 points long, so none completes here
            _ladders_step(ladders, new_z, new_state[2:], None, new_start, verdict, drifted)
            start = np.concatenate([start, new_start])
            z = np.concatenate([z, new_z])
            state = np.concatenate([state, new_state], axis=1)
            admitted += k
        nxt, bad = eval_map_vec(m, z)
        # the orbits that retire at this step, or None while none does;
        # index arrays, not boolean masks, select them: a mask gathers
        # several times slower when its bits are scattered
        gone = np.abs(nxt) > cfg.escape_radius
        gone |= bad
        if np.count_nonzero(gone):
            verdict[start[gone.nonzero()[0]]] = _V_ESCAPED
            if m.declared_poles and np.count_nonzero(bad):
                # eval_map_vec flags a point in a pole's snap zone: a pole
                # hit, not an escape
                flagged = bad.nonzero()[0]
                verdict[start[flagged[m.in_pole_snap(z[flagged])]]] = _V_POLE
        else:
            gone = None
        counts = state[:2]     # short steps in a row, and the age
        counts += 1
        consec = state[0]
        consec *= np.abs(nxt - z) < cfg.attract_tol
        conv = consec >= cfg.cycle_window
        if np.count_nonzero(conv):
            if gone is not None:
                np.greater(conv, gone, out=conv)   # an escaping orbit is not attracted
            now = conv.nonzero()[0]
            verdict[start[now]] = _V_ATTRACTED
            attracted.append((start[now], nxt[now]))
            gone = conv if gone is None else np.logical_or(gone, conv, out=gone)
        z = nxt
        gone = _ladders_step(ladders, z, state[2:], gone, start, verdict, drifted)
        # orbits are admitted in order and compaction keeps it, so the
        # first live orbit is the oldest
        age = state[1]
        if age[0] >= cfg.max_iter:
            old = age >= cfg.max_iter
            gone = old if gone is None else np.logical_or(gone, old, out=gone)
        if gone is not None:
            now = gone.nonzero()[0]
            steps = np.frexp(age[now])[1] - 1
            retired += np.bincount(verdict[start[now]].astype(np.intp) * buckets + steps,
                                   minlength=retired.size)
            keep = np.logical_not(gone, out=gone).nonzero()[0]
            start, z, state = start.take(keep), z.take(keep), state.take(keep, axis=1)
    return (verdict, _in_scan_order(attracted), _in_scan_order(drifted),
            retired.reshape(len(_VERDICT_NAMES), buckets))


def _in_scan_order(retired) -> np.ndarray:
    """The values of (start positions, values) pairs, ordered by start position."""
    where, values = (np.concatenate(c) for c in zip(*retired))
    return values[np.argsort(where)]


class _Ladders(NamedTuple):
    """The ladders of an OrbitConfig as (L, 1) columns that broadcast
    against a row of points, for one pass over all of them per step."""
    base: np.ndarray       # complex128
    step: np.ndarray
    radius: np.ndarray
    # float64 max(min_index, 1 - _INDEX_LIMIT): index >= lo and
    # index < _INDEX_LIMIT hold when index >= min_index and |index| < _INDEX_LIMIT
    lo: np.ndarray
    streak: np.ndarray     # int32
    offset: np.ndarray     # int32 (L,): k * LADDER_STRIDE, added to a track id
    bands: tuple           # the distinct (Im base, radius) pairs of the ladders

    @classmethod
    def of(cls, stations) -> _Ladders | None:
        if not stations:
            return None

        def col(values, dtype):
            return np.array([[v] for v in values], dtype=dtype)

        return cls(col((st.base for st in stations), np.complex128),
                   col((st.step for st in stations), np.float64),
                   col((st.radius for st in stations), np.float64),
                   col((max(st.min_index, 1 - _INDEX_LIMIT) for st in stations), np.float64),
                   col((st.streak for st in stations), np.int32),
                   np.arange(len(stations), dtype=np.int32) * LADDER_STRIDE,
                   tuple(dict.fromkeys((st.base.imag, st.radius) for st in stations)))


def _ladders_step(ladders, z, streaks, gone, start, verdict, drifted):
    """One step of every ladder at once on the orbits that do not retire at
    this step: gone marks those that do, or is None when none does.  A
    completed streak records the orbit as drifting and appends its start
    position and track id to drifted.  When streaks on several ladders
    complete at the same step, the first declared ladder wins.  streaks is
    the (2L, s) int32 ladder part of the state block, updated in place.
    Returns gone with the drifting orbits marked (a new mask if it was None
    and some orbit drifts).

    A point off a ladder's band |Im z - Im base| < radius is outside all
    its corridors (the step is real), so only the points in some ladder's
    band or in some running streak are gathered and updated: the others
    keep streak length 0 on every ladder.  A gathered point off a ladder's
    band gets streak length 0 there, which it had already.  Ladders that
    share a band test it once.
    """
    if ladders is None:
        return gone
    im = z.imag
    near = None
    for b, r in ladders.bands:
        # |y - 0.0| is |y|, bit for bit: a band on the real axis subtracts nothing
        band = np.abs(im - b if b else im) < r
        near = band if near is None else np.logical_or(near, band, out=near)
    near |= np.logical_or.reduce(streaks[:len(ladders.streak)], axis=0)   # a running streak
    if gone is not None:
        np.greater(near, gone, out=near)
    sel = near.nonzero()[0]
    if not sel.size:
        return gone
    if sel.size == z.size:
        sub = streaks
        done = _station_update(ladders, z, sub)
    else:
        sub = streaks.take(sel, axis=1)
        done = _station_update(ladders, z.take(sel), sub)
        streaks[:, sel] = sub
    if np.count_nonzero(done):
        cols = np.logical_or.reduce(done, axis=0).nonzero()[0]
        k = done[:, cols].argmax(axis=0)
        fin = sel[cols]
        verdict[start[fin]] = _V_DRIFTING
        run, want = sub[k, cols], sub[len(ladders.streak) + k, cols]
        drifted.append((start[fin], want - run + ladders.offset[k]))
        if gone is None:
            gone = np.zeros(z.size, dtype=bool)
        gone[fin] = True
    return gone


def _station_update(ladders: _Ladders, cur, streaks):
    """One step of every ladder for the points cur; streaks holds their
    (2L, len(cur)) int32 rows, the streak lengths and then the indices
    that advance them, per ladder, and is updated in place.  Returns the
    (L, len(cur)) mask of streaks that reached their ladder's streak
    length."""
    run, want = streaks[:len(ladders.streak)], streaks[len(ladders.streak):]
    approx = cur.real - ladders.base.real
    approx /= ladders.step
    np.rint(approx, out=approx)
    centers = ladders.base + approx * ladders.step
    centers -= cur          # |centers - cur| is |cur - centers|, bit for bit
    inside = np.abs(centers) < ladders.radius
    inside &= approx >= ladders.lo
    inside &= approx < _INDEX_LIMIT
    # outside every corridor: an index that no advancing index can equal
    idx = np.where(inside, approx, _OUTSIDE).astype(np.int32)
    # advancing: run + 1; else inside: 1; else 0
    run *= idx == want
    run += inside
    np.add(idx, 1, out=want)
    return run >= ladders.streak


def _classify_rows(task):
    """Orbit verdicts of raster rows r0 .. r1 - 1, with the fixed-point
    estimates of the attracted pixels and the track ids of the drifting
    ones, each in scan order: all the merge in classify_grid reads."""
    m, cfg, window, width, height, r0, r1 = task
    dx = (window.re_hi - window.re_lo) / width
    dy = (window.im_hi - window.im_lo) / height
    xs = window.re_lo + (np.arange(width) + 0.5) * dx
    ys = window.im_lo + (np.arange(r0, r1) + 0.5) * dy
    return _orbit_verdicts(m, _GridPoints(xs, ys), cfg)


def _mirrored(m: MeromorphicMap, cfg: OrbitConfig, window: ComplexBox) -> bool:
    """Is the raster its own mirror image in the real axis?  With real
    constants and parameters f(conj z) = conj f(z) (Schwarz reflection);
    with real declared poles and ladder bases (the steps are real) too, the
    pixel mirrored in the real axis has the same verdict and track id, and
    the conjugate fixed-point estimate.  A window with im_lo = -im_hi maps
    row j to row height - 1 - j."""
    leaves = (complex(m.params[name] if name is not None else value)
              for name, value in m.tape.leaves)
    return (window.im_lo == -window.im_hi
            and all(v.imag == 0.0 for v in leaves)
            and all(p.imag == 0.0 for p in m.declared_poles)
            and all(st.base.imag == 0.0 for st in cfg.stations))


def _classify_ranges(m, cfg, window, width, height, workers):
    """_classify_rows over the whole raster, joined in scan order.

    A mirrored raster (_mirrored) classifies only its rows height // 2 ..
    height - 1, the axis row included when the height is odd, and
    _reflect builds the rest.  The classified rows other than an axis row
    are cut into min(workers, rows, ceil(their pixels / ORBIT_BLOCK))
    contiguous ranges, run in-process when there is one and through a
    process pool otherwise: a pool's start-up costs more than a range of
    less than one orbit block saves (on ex1-core's 8,192 pixels, 37 ms of
    CPU through two workers against 11 ms in-process).  An axis row is a
    range of its own, run in-process, because its orbits count once in the
    retirement histogram and every other classified orbit twice."""
    mirrored = _mirrored(m, cfg, window)
    top = height // 2 if mirrored else 0
    axis = mirrored and height % 2 == 1
    lo = top + axis
    ranges = min(max(workers, 1), height - lo, -(-(height - lo) * width // ORBIT_BLOCK))
    tasks = [(m, cfg, window, width, height, lo + (height - lo) * i // ranges,
              lo + (height - lo) * (i + 1) // ranges) for i in range(ranges)]
    axis_task = [(m, cfg, window, width, height, top, top + 1)] if axis else []
    if len(tasks) == 1:
        parts = [_classify_rows(t) for t in axis_task + tasks]
    else:
        # imported here, so that a process that forks no pool does not pay for it
        from concurrent.futures import ProcessPoolExecutor

        # the pool forks all its processes up front: no more than the ranges or cores
        with ProcessPoolExecutor(max_workers=min(len(tasks), os.cpu_count() or 1)) as pool:
            # map submits every task at once: the axis row runs here meanwhile
            pending = pool.map(_classify_rows, tasks)
            parts = [_classify_rows(t) for t in axis_task] + list(pending)
    *joined, retired = zip(*parts)
    verdict, fixed, track = (c[0] if len(c) == 1 else np.concatenate(c) for c in joined)
    if not mirrored:
        return verdict, fixed, track, sum(retired)
    retired = 2 * sum(retired) - (retired[0] if axis else 0)
    return (*_reflect(verdict.reshape(-1, width), fixed, track, axis), retired)


def _reflect(upper: np.ndarray, fixed: np.ndarray, track: np.ndarray, axis: bool):
    """The verdicts, fixed-point estimates and track ids of a mirrored
    raster in scan order, from those of its classified rows: upper holds
    their (rows, width) verdicts, the axis row first when axis is set.  The
    rows below are the classified ones reversed, the axis row left out;
    a mirrored pixel keeps its verdict and track id, and its estimate is
    the conjugate."""
    def reversed_rows(values, code):
        # the values of the rows that mirror, in reverse row order
        per_row = np.count_nonzero(upper == code, axis=1)
        rows = np.split(values, np.cumsum(per_row)[:-1])[axis:]
        return np.concatenate(rows[::-1])

    verdict = np.concatenate([upper[axis:][::-1], upper]).ravel()
    fixed = np.concatenate([np.conj(reversed_rows(fixed, _V_ATTRACTED)), fixed])
    track = np.concatenate([reversed_rows(track, _V_DRIFTING), track])
    return verdict, fixed, track


def _basin_ids(m, cfg, verdict, attracted_fixed, ids):
    """Give the attracted pixels their basin ids: distinct fixed-point
    estimates in raster scan order, each confirmed by Newton from its
    first estimate.  An unconfirmed basin gets no id and its pixels fall
    back to the budget verdict."""
    firsts, basin_of = group_roots(attracted_fixed, max(100.0 * cfg.attract_tol, 1e-7))
    if firsts:
        att = verdict == _V_ATTRACTED
        confirmed = newton_roots(minus(m, Node("z")), firsts)[1] <= 1e-12
        ids[att] = np.where(confirmed, np.cumsum(confirmed) - 1, -1)[basin_of]
        verdict[att & (ids < 0)] = _V_BUDGET


def _behaviour_boundary(verdict, ids) -> np.ndarray:
    """The pixels with a 4-neighbour of a different (verdict, id) pair."""
    suspect = np.zeros(verdict.shape, dtype=bool)
    for a, b in ((np.s_[1:, :], np.s_[:-1, :]), (np.s_[:, 1:], np.s_[:, :-1])):
        differs = verdict[a] != verdict[b]
        differs |= ids[a] != ids[b]
        suspect[a] |= differs
        suspect[b] |= differs
    return suspect


def classify_grid(m: MeromorphicMap, window: ComplexBox, width: int, height: int,
                  cfg: OrbitConfig = OrbitConfig(), workers: int = 1) -> RasterGrid:
    """Label every pixel center of the window; deterministic for fixed inputs.

    One rule halves the work: when every constant and parameter on the
    map's tape, every declared pole and every station ladder's base is real
    and window.im_lo == -window.im_hi, the raster is its own mirror image in
    the real axis, and only rows height // 2 .. height - 1 are classified
    (with an odd height, the axis row among them).  The rows below are those
    rows reversed, without the axis row: same verdicts and track ids, and
    conjugate fixed-point estimates, put back in scan order before the
    basins are numbered; retire_steps counts every reflected orbit.  The
    lower half is defined as the reflection: in floats a pixel center may
    differ from its mirror's negative in the last bits, so an orbit on a
    verdict boundary could read otherwise if classified itself.  The
    bundled rasters give the outputs of the full classification bit for bit.

    The classified rows are cut into min(workers, rows, ceil(classified
    pixels / ORBIT_BLOCK)) contiguous ranges, run in-process when there is
    one and through a process pool otherwise, so a raster of one orbit
    block or less forks no pool.
    Each range builds its start points a block at a time from its row and
    column coordinates and runs the orbit machine, which keeps at most
    ORBIT_BLOCK orbits live, so a worker's orbit state is bounded whatever
    the resolution.  A range returns its uint8 verdicts and only the
    fixed-point estimates of its attracted pixels and the track ids of its
    drifting ones; its results are pure functions of its pixels, so the
    merge is independent of worker count.  Every per-pixel array of the
    merge is uint8, bool or int32: the boundary pass compares verdicts and
    ids as two arrays.
    """
    if width < 2 or height < 2:
        raise ValueError("need at least a 2x2 grid")
    dx = (window.re_hi - window.re_lo) / width
    dy = (window.im_hi - window.im_lo) / height
    verdict, attracted_fixed, drifting_track, retired = _classify_ranges(m, cfg, window, width,
                                                                         height, workers)
    verdict = verdict.reshape(height, width)
    ids = np.full((height, width), -1, dtype=np.int32)
    _basin_ids(m, cfg, verdict, attracted_fixed, ids)
    ids[verdict == _V_DRIFTING] = drifting_track
    suspect = _behaviour_boundary(verdict, ids)
    counts = {name: int(np.count_nonzero(verdict == code)) for code, name in _VERDICT_NAMES}
    counts["boundary"] = int(np.count_nonzero(suspect))

    # boundary, budget and pole-hit pixels are suspect; only ATTRACTED and
    # DRIFTING pixels carry an id
    labels = np.full((height, width), UNRESOLVED, dtype=np.uint8)
    labels[verdict == _V_ATTRACTED] = ATTRACTED
    labels[verdict == _V_DRIFTING] = DRIFTING
    labels[verdict == _V_POLE] = JULIA_SUSPECT
    labels[verdict == _V_BUDGET] = JULIA_SUSPECT
    labels[suspect] = JULIA_SUSPECT
    ids[suspect] = -1                   # the other ids are -1 already

    # geometric pole override: the closed pixel cells containing a declared
    # pole are pole-adjacent regardless of orbit behaviour (runs after the
    # suspect pass so boundary detection cannot erase it)
    for p_id, p in enumerate(m.declared_poles):
        for i in _cells_containing(p.real, window.re_lo, dx, width):
            for j in _cells_containing(p.imag, window.im_lo, dy, height):
                labels[j, i] = POLE_ADJACENT
                ids[j, i] = p_id
    return RasterGrid(window, width, height, labels, ids, counts, _retire_steps(retired))


def _retire_steps(retired: np.ndarray) -> dict:
    """The retirement histogram of _orbit_verdicts keyed by verdict name and
    step bucket, empty buckets left out."""
    labels = ["1"] + [f"{2 ** k}-{2 ** (k + 1) - 1}" for k in range(1, retired.shape[1])]
    return {name: {labels[k]: int(c) for k, c in enumerate(retired[code]) if c}
            for code, name in _VERDICT_NAMES}


def _cells_containing(v: float, lo: float, d: float, count: int) -> list[int]:
    """All cell indices whose closed span [lo + k*d, lo + (k+1)*d] contains v."""
    k0 = math.floor((v - lo) / d)
    out = []
    for k in (k0 - 1, k0, k0 + 1):
        if 0 <= k < count and lo + k * d <= v <= lo + (k + 1) * d:
            out.append(k)
    return out
