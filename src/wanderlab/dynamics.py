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
* station-hopping pixels carry a track id (the corridor index where the
  advancing streak began),
* pixels whose verdict differs from a 4-neighbour's — behaviour
  boundaries — are marked suspect, as are budget-exhausted and
  pole-hitting orbits,
* the pixel cells geometrically containing a declared pole are marked
  pole-adjacent, overriding everything else,
* escaped pixels stay unresolved: escape alone does not decide between
  a fast-escaping domain and its boundary at raster scale.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

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


@dataclass(frozen=True)
class StationSpec:
    """Arithmetic ladder of corridor disks B(base + step*n, radius), n >= min_index.

    An orbit is station-hopping once it spends `streak` consecutive points
    in corridors with the index advancing by exactly one per step.
    """

    base: complex = 0j
    step: float = 2.0 * math.pi
    radius: float = 0.5
    min_index: int = 1
    streak: int = 12

    def __post_init__(self):
        if self.step <= 0.0 or self.radius <= 0.0 or self.streak < 2:
            raise ValueError("need step > 0, radius > 0, streak >= 2")


@dataclass(frozen=True)
class OrbitConfig:
    max_iter: int = 500
    escape_radius: float = 1e6
    attract_tol: float = 1e-9
    cycle_window: int = 8
    stations: StationSpec | None = None

    def __post_init__(self):
        if self.max_iter < 1 or self.escape_radius <= 0.0 or self.attract_tol <= 0.0:
            raise ValueError("invalid orbit config")


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
    track ids (-1 where n/a)).
    """
    n = zs.shape[0]
    z = zs.astype(np.complex128).copy()
    verdict = np.full(n, _V_BUDGET, dtype=np.uint8)
    fixed = np.full(n, np.nan + 0j, dtype=np.complex128)
    track = np.full(n, -1, dtype=np.int32)
    active = np.ones(n, dtype=bool)
    consec = np.zeros(n, dtype=np.int32)

    st = cfg.stations
    if st is not None:
        run = np.zeros(n, dtype=np.int32)
        run_start = np.full(n, -1, dtype=np.int64)
        prev_idx = np.full(n, np.iinfo(np.int64).min, dtype=np.int64)
        _station_update(z, st, active, run, run_start, prev_idx,
                        verdict, track, np.arange(n))

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
        if st is not None:
            _station_update(z, st, active, run, run_start, prev_idx,
                            verdict, track, idx[~esc & ~conv])
    return verdict, fixed, track


def _station_update(z, st: StationSpec, active, run, run_start, prev_idx,
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
        track[sel] = run_start[sel].astype(np.int32)
        active[sel] = False


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
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    return RasterGrid(window, width, height, labels, ids)


def _cells_containing(v: float, lo: float, d: float, count: int) -> list[int]:
    """All cell indices whose closed span [lo + k*d, lo + (k+1)*d] contains v."""
    k0 = math.floor((v - lo) / d)
    out = []
    for k in (k0 - 1, k0, k0 + 1):
        if 0 <= k < count and lo + k * d <= v <= lo + (k + 1) * d:
            out.append(k)
    return out
