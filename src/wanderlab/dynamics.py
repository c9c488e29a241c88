"""Vectorized orbit verdicts, fixed-point location, and raster classification.

One vectorized state machine, `_orbit_verdicts`, runs a flat array of
start points to verdicts: attraction (`cycle_window` consecutive steps
shorter than `attract_tol`), escape past `escape_radius`, a hit on a
declared pole, station drift, or the iteration budget.  A non-finite
image also counts as escape, so a pole the map does not declare reads
as escape to infinity.

`classify_grid` runs that machine over every pixel center of a window,
confirms each attraction basin once by Newton from the first estimate
met in scan order (residual at most 1e-12; the pixels of a basin that
does not confirm fall back to the budget verdict), and derives display
labels:

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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .maps import MeromorphicMap, PoleHitError, derivative, eval_map, eval_map_vec
from .numerics import ComplexBox
from .regions import Region

# raster label codes
UNRESOLVED = 0
ATTRACTED = 1
DRIFTING = 2
POLE_ADJACENT = 3
JULIA_SUSPECT = 4

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
_MAX_LADDERS = 2 ** 31 // LADDER_STRIDE


@dataclass(frozen=True)
class OrbitConfig:
    """Orbit budget and verdict thresholds; `stations` is a tuple of ladders,
    tried in declaration order at each step."""

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


def _newton_fixed_point(m: MeromorphicMap, dm: MeromorphicMap, z0: complex,
                        steps: int = 80) -> complex | None:
    z = complex(z0)
    for _ in range(steps):
        try:
            fz = eval_map(m, z)
            dfz = eval_map(dm, z)
        except PoleHitError:
            return None
        den = dfz - 1.0
        if not (math.isfinite(fz.real) and math.isfinite(fz.imag)):
            return None
        if abs(den) < 1e-300:
            break
        step = (fz - z) / den
        if abs(step) > 1.0:
            step *= 1.0 / abs(step)
        z = z - step
    return z


def _confirmed_fixed_point(m: MeromorphicMap, dm: MeromorphicMap,
                          z0: complex) -> FixedPointReport | None:
    """Newton from z0, accepted only when |f(z) - z| is at most 1e-12."""
    z = _newton_fixed_point(m, dm, z0)
    if z is None:
        return None
    try:
        residual = abs(eval_map(m, z) - z)
        mult = eval_map(dm, z)
    except PoleHitError:
        return None
    return FixedPointReport(z, residual, mult) if residual <= 1e-12 else None


def find_fixed_point(m: MeromorphicMap, seed_region: Region,
                     seed_grid: int = 11) -> FixedPointReport:
    """Newton from a seed grid; best confirmed fixed point inside the region wins."""
    bb = seed_region.bounding_box()
    xs = np.linspace(bb.re_lo, bb.re_hi, seed_grid)
    ys = np.linspace(bb.im_lo, bb.im_hi, seed_grid)
    dm = derivative(m)
    best: FixedPointReport | None = None
    for y in ys:
        for x in xs:
            seed = complex(x, y)
            if not seed_region.contains(seed):
                continue
            rep = _confirmed_fixed_point(m, dm, seed)
            if rep is not None and seed_region.contains(rep.location) \
                    and (best is None or rep.residual < best.residual):
                best = rep
    if best is None:
        raise NotFound("no seed converged to a fixed point in the region")
    return best


def track_wandering(m: MeromorphicMap, z0: complex, station_centers,
                    station_radius: float, n_max: int) -> list[bool]:
    """Entry n: is the n-th orbit point within station_radius of centers[n]?

    Pole hits propagate — a wandering certificate is meaningless past one.
    """
    centers = [complex(c) for c in station_centers]
    if n_max > len(centers):
        raise ValueError(f"need {n_max} station centers, got {len(centers)}")
    out = []
    z = complex(z0)
    for n in range(n_max):
        out.append(abs(z - centers[n]) < station_radius)
        if n + 1 < n_max:
            z = eval_map(m, z)  # PoleHitError propagates
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

    def pixel_center(self, i: int, j: int) -> complex:
        dx = (self.window.re_hi - self.window.re_lo) / self.width
        dy = (self.window.im_hi - self.window.im_lo) / self.height
        return complex(self.window.re_lo + (i + 0.5) * dx,
                       self.window.im_lo + (j + 0.5) * dy)

    def pixel_of(self, z: complex) -> tuple[int, int]:
        z = complex(z)
        dx = (self.window.re_hi - self.window.re_lo) / self.width
        dy = (self.window.im_hi - self.window.im_lo) / self.height
        i = math.floor((z.real - self.window.re_lo) / dx)
        j = math.floor((z.imag - self.window.im_lo) / dy)
        if not (0 <= i < self.width and 0 <= j < self.height):
            raise ValueError(f"{z} outside the raster window")
        return i, j


def _orbit_verdicts(m: MeromorphicMap, zs: np.ndarray, cfg: OrbitConfig):
    """Vectorized orbit state machine over a flat array of start points.

    Returns (verdict codes, fixed-point estimates (nan where n/a),
    track ids (-1 where n/a)).  The loop keeps only the live orbits: their
    start positions, current points, and int32 state rows: the count of
    short steps and, per ladder, the streak length with its first and
    last corridor index (read only while the length is positive).  All
    of them shrink as orbits get verdicts.
    """
    n = zs.shape[0]
    verdict = np.full(n, _V_BUDGET, dtype=np.uint8)
    fixed = np.full(n, np.nan + 0j, dtype=np.complex128)
    track = np.full(n, -1, dtype=np.int32)

    start = np.arange(n)
    z = zs.astype(np.complex128)
    state = np.zeros((1 + 3 * len(cfg.stations), n), dtype=np.int32)
    _ladders_step(cfg.stations, z, state, np.ones(n, dtype=bool), start, verdict, track)

    snap_poles = [(p, m.pole_snap_radius(p)) for p in m.declared_poles]

    for _ in range(cfg.max_iter):
        if start.size == 0:
            break
        hit = np.zeros(start.size, dtype=bool)
        for p, snap in snap_poles:
            hit |= np.abs(z - p) <= snap
        if hit.any():
            verdict[start[hit]] = _V_POLE
            start, z, state = start[~hit], z[~hit], state[:, ~hit]
            if start.size == 0:
                continue
        nxt, bad = eval_map_vec(m, z)
        esc = bad | (np.abs(nxt) > cfg.escape_radius)
        consec = state[0]
        consec[:] = np.where(~esc & (np.abs(nxt - z) < cfg.attract_tol), consec + 1, 0)
        conv = (consec >= cfg.cycle_window) & ~esc
        verdict[start[esc]] = _V_ESCAPED
        verdict[start[conv]] = _V_ATTRACTED
        fixed[start[conv]] = nxt[conv]
        z = nxt
        alive = ~(esc | conv)
        _ladders_step(cfg.stations, z, state, alive, start, verdict, track)
        if not alive.all():
            start, z, state = start[alive], z[alive], state[:, alive]
    return verdict, fixed, track


def _ladders_step(ladders, z, state, alive, start, verdict, track):
    """Try each ladder in turn on the orbits still alive; a completed
    streak records the orbit as drifting with its track id and clears its
    alive flag.

    A point off a ladder's band |Im z - Im base| < radius is outside all
    its corridors (the step is real), so only points in the band or in a
    running streak need an update: the others keep streak length 0.
    """
    for k, st in enumerate(ladders):
        rows = state[1 + 3 * k:4 + 3 * k]
        sel = np.flatnonzero(alive & ((np.abs(z.imag - st.base.imag) < st.radius)
                                      | (rows[0] > 0)))
        sub = rows[:, sel]
        done = _station_update(st, z[sel], sub)
        rows[:, sel] = sub
        if done.any():
            fin = sel[done]
            verdict[start[fin]] = _V_DRIFTING
            track[start[fin]] = sub[1, done] + k * LADDER_STRIDE
            alive[fin] = False


def _station_update(st: StationSpec, cur, state):
    """One step of ladder st for the points cur; state holds their int32
    rows (streak length, first index, last index) and is updated in place.
    Returns the mask of streaks that reached st.streak."""
    run, first, last = state
    approx = np.round((cur.real - st.base.real) / st.step)
    centers = st.base + approx * st.step
    inside = ((np.abs(cur - centers) < st.radius) & (approx >= st.min_index)
              & (np.abs(approx) < _INDEX_LIMIT))
    idx = np.where(inside, approx, 0.0).astype(np.int32)
    advancing = inside & (run > 0) & (idx == last + 1)
    run[:] = np.where(advancing, run + 1, inside)
    first[:] = np.where(advancing, first, idx)
    last[:] = idx
    return run >= st.streak


def _classify_block(args):
    m, cfg, centers = args
    return _orbit_verdicts(m, centers, cfg)


def classify_grid(m: MeromorphicMap, window: ComplexBox, width: int, height: int,
                  cfg: OrbitConfig = OrbitConfig(), workers: int = 1) -> RasterGrid:
    """Label every pixel center of the window; deterministic for fixed inputs.

    Worker processes split the grid by row blocks; block results are pure
    functions of their inputs, so the merge is independent of worker count.
    """
    if width < 2 or height < 2:
        raise ValueError("need at least a 2x2 grid")
    dx = (window.re_hi - window.re_lo) / width
    dy = (window.im_hi - window.im_lo) / height
    xs = window.re_lo + (np.arange(width) + 0.5) * dx
    ys = window.im_lo + (np.arange(height) + 0.5) * dy
    centers = (xs[None, :] + 1j * ys[:, None])

    if workers > 1:
        blocks = np.array_split(np.arange(height), min(workers, height))
        tasks = [(m, cfg, centers[rows].ravel()) for rows in blocks]
        # the pool forks all its processes up front: no more than the blocks or cores
        with ProcessPoolExecutor(max_workers=min(len(blocks), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(_classify_block, tasks))
        verdict = np.concatenate([p[0] for p in parts])
        fixed = np.concatenate([p[1] for p in parts])
        track = np.concatenate([p[2] for p in parts])
    else:
        verdict, fixed, track = _orbit_verdicts(m, centers.ravel(), cfg)
    verdict = verdict.reshape(height, width)
    fixed = fixed.reshape(height, width)
    track = track.reshape(height, width)

    # basin ids: distinct fixed-point estimates in raster scan order, each
    # new one confirmed by Newton; an unconfirmed basin gets no id and its
    # pixels fall back to the budget verdict
    ids = np.full((height, width), -1, dtype=np.int32)
    basin_tol = max(100.0 * cfg.attract_tol, 1e-7)
    basins: list[tuple[complex, int]] = []   # (first estimate, id or -1)
    att = verdict == _V_ATTRACTED
    dm = derivative(m) if att.any() else None
    confirmed = 0
    for j, i in zip(*np.nonzero(att)):
        fp = complex(fixed[j, i])
        for b, b_id in basins:
            if abs(fp - b) < basin_tol * (1.0 + abs(b)):
                break
        else:
            b_id = -1
            if _confirmed_fixed_point(m, dm, fp) is not None:
                b_id, confirmed = confirmed, confirmed + 1
            basins.append((fp, b_id))
        ids[j, i] = b_id
    verdict[att & (ids < 0)] = _V_BUDGET
    dri = verdict == _V_DRIFTING
    ids[dri] = track[dri]

    # behaviour-boundary pass: any 4-neighbour with a different
    # (verdict, id) pair makes both pixels suspect
    key = verdict.astype(np.int64) * (2 ** 32) + (ids.astype(np.int64) + 1)
    suspect = np.zeros((height, width), dtype=bool)
    suspect[1:, :] |= key[1:, :] != key[:-1, :]
    suspect[:-1, :] |= key[1:, :] != key[:-1, :]
    suspect[:, 1:] |= key[:, 1:] != key[:, :-1]
    suspect[:, :-1] |= key[:, 1:] != key[:, :-1]
    per_code = np.bincount(verdict.ravel(), minlength=5)
    counts = {name: int(per_code[code]) for code, name in _VERDICT_NAMES}
    counts["boundary"] = int(suspect.sum())

    labels = np.full((height, width), UNRESOLVED, dtype=np.uint8)
    labels[verdict == _V_ATTRACTED] = ATTRACTED
    labels[verdict == _V_DRIFTING] = DRIFTING
    labels[verdict == _V_POLE] = JULIA_SUSPECT
    labels[verdict == _V_BUDGET] = JULIA_SUSPECT
    labels[suspect] = JULIA_SUSPECT
    ids[(labels != ATTRACTED) & (labels != DRIFTING)] = -1

    # geometric pole override: the closed pixel cells containing a declared
    # pole are pole-adjacent regardless of orbit behaviour (runs after the
    # suspect pass so boundary detection cannot erase it)
    for p_id, p in enumerate(m.declared_poles):
        for i in _cells_containing(p.real, window.re_lo, dx, width):
            for j in _cells_containing(p.imag, window.im_lo, dy, height):
                labels[j, i] = POLE_ADJACENT
                ids[j, i] = p_id
    return RasterGrid(window, width, height, labels, ids, counts)


def _cells_containing(v: float, lo: float, d: float, count: int) -> list[int]:
    """All cell indices whose closed span [lo + k*d, lo + (k+1)*d] contains v."""
    k0 = math.floor((v - lo) / d)
    out = []
    for k in (k0 - 1, k0, k0 + 1):
        if 0 <= k < count and lo + k * d <= v <= lo + (k + 1) * d:
            out.append(k)
    return out
