"""Component labeling and hole counting for classified rasters.

Components are maximal 4-connected sets of pixels sharing the same
behaviour (attracted to one basin, or drifting on one track).  Hole
counting labels the complement of a component with 8-adjacency and
merges everything reachable from the window border into a single outer
region — the raster stand-in for the unbounded complement component
through infinity.  The 4/8 split avoids the usual digital-topology
paradox where a diagonal chain both connects and separates.

Labelling is union-find over row runs (Rosenfeld & Pfaltz, J. ACM 13,
1966), in numpy alone.  Holes are counted inside the component's bounding
box padded by one pixel and clipped to the window: everything outside the
box is complement that reaches the window border, so the crop's own
border stands for the outer region.

Raster connectivity is a resolution-dependent estimate: a reported
value is evidence at that resolution, never a claim about the true
components, and unbounded-looking components are only ever lower
bounds.
"""
from __future__ import annotations

import warnings
from typing import NamedTuple

import numpy as np

from .dynamics import ATTRACTED, DRIFTING, LABEL_NAMES, RasterGrid


class _Runs(NamedTuple):
    """The runs of a labelled array, in scan order."""
    row: np.ndarray
    lo: np.ndarray       # first column
    hi: np.ndarray       # one past the last column
    comp: np.ndarray     # component of each run, from 1
    first: np.ndarray    # index of each component's first run


def _runs(mask: np.ndarray, eight: bool, *keys: np.ndarray) -> _Runs:
    """Components of the True pixels of a 2-D mask: pixels equal in every
    key array (each of the mask's shape) that are 4-adjacent (8-adjacent
    when `eight`) share a component.

    Components are numbered from 1 by the scan order of their first pixel.
    """
    h, w = mask.shape
    flat = mask.ravel()
    edge = flat[1:] != flat[:-1]            # edge[i]: a run ends at pixel i
    for key in keys:
        key = key.ravel()
        edge |= key[1:] != key[:-1]
    edge[w - 1::w] = True                   # and at the end of every row
    edges = np.flatnonzero(edge) + 1
    starts = np.concatenate(([0], edges))
    ends = np.concatenate((edges, [flat.size]))
    run = flat[starts]
    starts, ends = starts[run], ends[run]
    run_keys = [key.ravel()[starts] for key in keys]
    row = starts // w
    lo, hi = starts - row * w, ends - row * w

    # The runs of the row above that touch each run, shifted down one row
    # into its coordinates; a slack of one column admits diagonal contact.
    # Flat positions count a blank column after each row, so a run touches
    # runs of the row above only, never across a row's end.
    width = w + 1
    starts, ends = starts + row, ends + row
    slack = 1 if eight else 0
    above_lo = np.searchsorted(ends + width, starts - slack, side="right")
    above_hi = np.searchsorted(starts + width, ends + slack, side="left")
    counts = np.maximum(above_hi - above_lo, 0)
    a = np.repeat(np.arange(starts.size), counts)
    b = np.repeat(above_lo - np.cumsum(counts) + counts, counts) + np.arange(a.size)
    if keys:
        same = np.logical_and.reduce([k[a] == k[b] for k in run_keys])
        a, b = a[same], b[same]

    # Union-find with every root hooked under the smallest root it touches,
    # so each component's root is its first run.
    parent = np.arange(starts.size)
    while a.size:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            break
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    root = parent == np.arange(starts.size)
    comp = np.cumsum(root)[parent]
    return _Runs(row, lo, hi, comp, np.flatnonzero(root))


def _paint(shape: tuple, r: _Runs) -> np.ndarray:
    """The int32 label image of a run table, 0 off the runs."""
    h, w = shape
    step = np.zeros(h * w + 1, dtype=np.int32)
    step[r.row * w + r.lo] += r.comp
    step[r.row * w + r.hi] -= r.comp
    return np.cumsum(step, out=step)[:-1].reshape(h, w)


def _edge_runs(r: _Runs, shape: tuple) -> np.ndarray:
    h, w = shape
    return (r.row == 0) | (r.row == h - 1) | (r.lo == 0) | (r.hi == w)


class OutOfWindow(ValueError):
    """The queried point lies outside the raster window."""


class ComponentInfo(NamedTuple):
    pixel_count: int
    touches_border: bool
    behavior_label: tuple  # ("attracted" | "drifting", basin/track id)
    bbox: tuple            # (row_lo, row_hi, col_lo, col_hi), half-open


class ComponentMap(NamedTuple):
    grid: RasterGrid
    labels: np.ndarray                     # int32, 0 = non-candidate pixel
    component_table: dict


class Hole(NamedTuple):
    representative_pixel: tuple            # (i, j) of the first hole pixel
    pixel_count: int
    contains: tuple                        # flagged points falling in this hole


class ConnectivityReport(NamedTuple):
    component_id: int
    connectivity: int                      # len(holes) + 1
    holes: tuple


class MonotonicityReport(NamedTuple):
    sequence: tuple                        # (component_id, connectivity) pairs
    non_increasing: bool
    skipped: tuple                         # border-touching ids left out


def label_components(grid: RasterGrid) -> ComponentMap:
    """4-connected components of same-behaviour pixels, ids dense from 1.

    Ids follow raster scan order of each component's first pixel, so the
    numbering is deterministic for a given grid.
    """
    h, w = grid.labels.shape
    r = _runs((grid.labels == ATTRACTED) | (grid.labels == DRIFTING), False,
              grid.labels, grid.ids)
    n = r.first.size
    count = np.bincount(r.comp, weights=r.hi - r.lo, minlength=n + 1)
    touches = np.bincount(r.comp, weights=_edge_runs(r, (h, w)), minlength=n + 1)
    row_hi = np.zeros(n + 1, dtype=np.int64)
    col_lo = np.full(n + 1, w, dtype=np.int64)
    col_hi = np.zeros(n + 1, dtype=np.int64)
    np.maximum.at(row_hi, r.comp, r.row + 1)
    np.minimum.at(col_lo, r.comp, r.lo)
    np.maximum.at(col_hi, r.comp, r.hi)
    table = {}
    for cid, f in enumerate(r.first.tolist(), start=1):
        j, i = int(r.row[f]), int(r.lo[f])
        behavior = (LABEL_NAMES[int(grid.labels[j, i])], int(grid.ids[j, i]))
        bbox = (j, int(row_hi[cid]), int(col_lo[cid]), int(col_hi[cid]))
        table[cid] = ComponentInfo(int(count[cid]), bool(touches[cid]), behavior, bbox)
    return ComponentMap(grid, _paint((h, w), r), table)


def _pixel(cm: ComponentMap, p: complex) -> tuple[int, int]:
    try:
        return cm.grid.pixel_of(p)
    except ValueError as e:
        raise OutOfWindow(str(e)) from None


def connectivity(cm: ComponentMap, component_id: int,
                 flagged_points=()) -> ConnectivityReport:
    """Hole count of one component; connectivity = holes + 1.

    Everything outside the component (other components included) is
    complement.  Complement regions touching the border merge into the
    outer region; the rest are holes.  Each flagged point is attributed
    to the hole containing its pixel, if any.
    """
    if component_id not in cm.component_table:
        raise KeyError(f"no component {component_id}")
    flagged_cells = [(complex(p), _pixel(cm, p)) for p in flagged_points]
    row_lo, row_hi, col_lo, col_hi = cm.component_table[component_id].bbox
    j0, i0 = max(row_lo - 1, 0), max(col_lo - 1, 0)
    crop = cm.labels[j0:row_hi + 1, i0:col_hi + 1] != component_id
    r = _runs(crop, eight=True)
    outer = np.zeros(r.first.size + 1, dtype=bool)
    outer[r.comp[_edge_runs(r, crop.shape)]] = True
    owner = []                              # (point, complement region or 0)
    for p, (i, j) in flagged_cells:
        hit = (r.row == j - j0) & (r.lo <= i - i0) & (i - i0 < r.hi)
        owner.append((p, int(r.comp[hit][0]) if hit.any() else 0))
    count = np.bincount(r.comp, weights=r.hi - r.lo, minlength=outer.size)
    holes = []
    for hid, f in enumerate(r.first.tolist(), start=1):
        if outer[hid]:
            continue
        inside = tuple(p for p, k in owner if k == hid)
        holes.append(Hole((int(r.lo[f]) + i0, int(r.row[f]) + j0), int(count[hid]), inside))
    return ConnectivityReport(component_id, len(holes) + 1, tuple(holes))


def surrounds(cm: ComponentMap, component_id: int, p: complex) -> bool:
    """Does the pixel containing p lie in a hole of the component?

    A hole lies strictly inside the component's bounding box, so a pixel
    that does not is answered without labelling.
    """
    i, j = _pixel(cm, p)
    row_lo, row_hi, col_lo, col_hi = cm.component_table[component_id].bbox
    if not (row_lo < j < row_hi - 1 and col_lo < i < col_hi - 1):
        return False
    report = connectivity(cm, component_id, flagged_points=(p,))
    return any(hole.contains for hole in report.holes)


def connectivity_monotonicity_check(cm: ComponentMap, reports) -> MonotonicityReport:
    """Connectivity along a tracked component sequence, read from the
    components' ConnectivityReports in order, with the non-increasing flag
    over consecutive bounded components.

    Border-touching components are skipped with a warning — their raster
    connectivity is truncated by the window and proves nothing.
    """
    sequence = []
    skipped = []
    for rep in reports:
        cid = rep.component_id
        if cm.component_table[cid].touches_border:
            warnings.warn(f"component {cid} touches the raster border; "
                          "skipped in the monotonicity check", stacklevel=2)
            skipped.append(cid)
            continue
        sequence.append((cid, rep.connectivity))
    flag = all(a[1] >= b[1] for a, b in zip(sequence, sequence[1:]))
    return MonotonicityReport(tuple(sequence), flag, tuple(skipped))
