"""Component labeling and hole counting for classified rasters.

Components are maximal 4-connected sets of pixels sharing the same
behaviour (attracted to one basin, or drifting on one track).  Hole
counting labels the complement of a component with 8-adjacency and
merges everything reachable from the window border into a single outer
region — the raster stand-in for the unbounded complement component
through infinity.  The 4/8 split avoids the usual digital-topology
paradox where a diagonal chain both connects and separates.

Raster connectivity is a resolution-dependent estimate: a reported
value is evidence at that resolution, never a claim about the true
components, and unbounded-looking components are only ever lower
bounds.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .dynamics import ATTRACTED, DRIFTING, RasterGrid

_FOUR = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=np.uint8)
_EIGHT = np.ones((3, 3), dtype=np.uint8)

_BEHAVIOR_NAMES = {ATTRACTED: "attracted", DRIFTING: "drifting"}


class OutOfWindow(ValueError):
    """The queried point lies outside the raster window."""


@dataclass(frozen=True)
class ComponentInfo:
    pixel_count: int
    touches_border: bool
    behavior_label: tuple  # ("attracted" | "drifting", basin/track id)


@dataclass(frozen=True)
class ComponentMap:
    grid: RasterGrid
    labels: np.ndarray                     # int32, 0 = non-candidate pixel
    component_table: dict


@dataclass(frozen=True)
class Hole:
    representative_pixel: tuple            # (i, j) of the first hole pixel
    pixel_count: int
    contains: tuple                        # flagged points falling in this hole


@dataclass(frozen=True)
class ConnectivityReport:
    component_id: int
    hole_count: int
    connectivity: int
    holes: tuple


@dataclass(frozen=True)
class MonotonicityReport:
    sequence: tuple                        # (component_id, connectivity) pairs
    non_increasing: bool
    skipped: tuple                         # border-touching ids left out


def label_components(grid: RasterGrid) -> ComponentMap:
    """4-connected components of same-behaviour pixels, ids dense from 1.

    Ids follow raster scan order of each component's first pixel, so the
    numbering is deterministic for a given grid.
    """
    h, w = grid.labels.shape
    out = np.zeros((h, w), dtype=np.int32)
    pieces = []
    for code, name in _BEHAVIOR_NAMES.items():
        sel = grid.labels == code
        if not sel.any():
            continue
        for bid in np.unique(grid.ids[sel]):
            mask = sel & (grid.ids == bid)
            lab, n = ndimage.label(mask, structure=_FOUR)
            for k in range(1, n + 1):
                comp = lab == k
                first = int(np.argmax(comp.ravel()))
                pieces.append((first, comp, (name, int(bid))))
    pieces.sort(key=lambda t: t[0])
    table = {}
    for cid, (_, comp, behavior) in enumerate(pieces, start=1):
        out[comp] = cid
        touches = bool(comp[0, :].any() or comp[-1, :].any()
                       or comp[:, 0].any() or comp[:, -1].any())
        table[cid] = ComponentInfo(int(comp.sum()), touches, behavior)
    return ComponentMap(grid, out, table)


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
    comp = cm.labels == component_id
    comp_lab, n = ndimage.label(~comp, structure=_EIGHT)
    border = np.unique(np.concatenate([comp_lab[0, :], comp_lab[-1, :],
                                       comp_lab[:, 0], comp_lab[:, -1]]))
    border_set = {int(b) for b in border if b != 0}
    flagged_cells = []
    for p in flagged_points:
        p = complex(p)
        try:
            flagged_cells.append((p, cm.grid.pixel_of(p)))
        except ValueError as e:
            raise OutOfWindow(str(e)) from None
    holes = []
    for hid in range(1, n + 1):
        if hid in border_set:
            continue
        hm = comp_lab == hid
        first = int(np.argmax(hm.ravel()))
        j, i = divmod(first, cm.grid.width)
        inside = tuple(p for p, (pi, pj) in flagged_cells if comp_lab[pj, pi] == hid)
        holes.append(Hole((i, j), int(hm.sum()), inside))
    return ConnectivityReport(component_id, len(holes), len(holes) + 1, tuple(holes))


def surrounds(cm: ComponentMap, component_id: int, p: complex) -> bool:
    """Does the pixel containing p lie in a hole of the component?"""
    report = connectivity(cm, component_id, flagged_points=(p,))
    return any(hole.contains for hole in report.holes)


def connectivity_monotonicity_check(cm: ComponentMap,
                                    orbit_component_ids) -> MonotonicityReport:
    """Connectivity along a tracked component sequence, with the
    non-increasing flag over consecutive bounded components.

    Border-touching components are skipped with a warning — their raster
    connectivity is truncated by the window and proves nothing.
    """
    sequence = []
    skipped = []
    for cid in orbit_component_ids:
        info = cm.component_table[cid]
        if info.touches_border:
            warnings.warn(f"component {cid} touches the raster border; "
                          "skipped in the monotonicity check", stacklevel=2)
            skipped.append(cid)
            continue
        sequence.append((cid, connectivity(cm, cid).connectivity))
    flag = all(a[1] >= b[1] for a, b in zip(sequence, sequence[1:]))
    return MonotonicityReport(tuple(sequence), flag, tuple(skipped))
