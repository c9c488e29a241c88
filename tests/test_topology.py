import math
import random

import numpy as np
import pytest

from wanderlab.dynamics import ATTRACTED, DRIFTING, RasterGrid
from wanderlab.numerics import ComplexBox
from wanderlab.topology import (
    ComponentMap,
    OutOfWindow,
    connectivity,
    connectivity_monotonicity_check,
    label_components,
    surrounds,
)

from oracles import count_holes_reference


def grid_of(mask, kind=DRIFTING, ids=None):
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    labels = np.where(mask, kind, 0).astype(np.uint8)
    id_arr = np.where(mask, 1 if ids is None else ids, -1).astype(np.int32)
    return RasterGrid(ComplexBox(0.0, float(w), 0.0, float(h)), w, h,
                      labels, id_arr)


def shapes():
    yy, xx = np.mgrid[0:40, 0:40]
    disk = (xx - 20) ** 2 + (yy - 20) ** 2 < 15 ** 2
    annulus = disk & ~((xx - 20) ** 2 + (yy - 20) ** 2 < 7 ** 2)
    punched = disk & ~((xx - 15) ** 2 + (yy - 20) ** 2 < 3 ** 2) \
                   & ~((xx - 26) ** 2 + (yy - 20) ** 2 < 3 ** 2)
    return disk, annulus, punched


# --- labeling -------------------------------------------------------------------

def test_full_grid_single_component():
    cm = label_components(grid_of(np.ones((10, 12), dtype=bool)))
    assert list(cm.component_table) == [1]
    info = cm.component_table[1]
    assert info.pixel_count == 120
    assert info.touches_border
    assert connectivity(cm, 1).connectivity == 1


def test_two_disks_two_components_scan_order():
    mask = np.zeros((20, 30), dtype=bool)
    mask[2:6, 3:7] = True       # appears first in scan order
    mask[10:16, 20:27] = True
    cm = label_components(grid_of(mask))
    assert sorted(cm.component_table) == [1, 2]
    assert cm.component_table[1].pixel_count == 16
    assert cm.component_table[2].pixel_count == 42
    assert not cm.component_table[1].touches_border
    assert cm.labels[2, 3] == 1
    assert cm.labels[10, 20] == 2


def test_different_behaviors_never_merge():
    mask = np.zeros((6, 6), dtype=bool)
    mask[2, 2] = mask[2, 3] = True
    labels = np.zeros((6, 6), dtype=np.uint8)
    labels[2, 2] = ATTRACTED
    labels[2, 3] = DRIFTING
    ids = np.full((6, 6), -1, dtype=np.int32)
    ids[2, 2] = 0
    ids[2, 3] = 1
    g = RasterGrid(ComplexBox(0.0, 6.0, 0.0, 6.0), 6, 6, labels, ids)
    cm = label_components(g)
    assert len(cm.component_table) == 2
    kinds = {info.behavior_label[0] for info in cm.component_table.values()}
    assert kinds == {"attracted", "drifting"}


def test_diagonal_pixels_are_separate_components():
    mask = np.zeros((5, 5), dtype=bool)
    mask[1, 1] = mask[2, 2] = True
    cm = label_components(grid_of(mask))
    assert len(cm.component_table) == 2


# --- connectivity ----------------------------------------------------------------

def test_synthetic_connectivities():
    disk, annulus, punched = shapes()
    for mask, want in ((disk, 1), (annulus, 2), (punched, 3)):
        cm = label_components(grid_of(mask))
        rep = connectivity(cm, 1)
        assert rep.connectivity == want
        assert rep.hole_count == want - 1
        assert rep.hole_count == count_holes_reference(mask)


def test_unknown_component_raises():
    disk, _, _ = shapes()
    cm = label_components(grid_of(disk))
    with pytest.raises(KeyError):
        connectivity(cm, 99)


def test_hole_flag_attribution():
    _, _, punched = shapes()
    cm = label_components(grid_of(punched))
    left, right = complex(15.5, 20.5), complex(26.5, 20.5)
    rep = connectivity(cm, 1, flagged_points=(left, right, complex(1.0, 1.0)))
    assert rep.hole_count == 2
    found = sorted((p for hole in rep.holes for p in hole.contains),
                   key=lambda p: p.real)
    assert found == [left, right]
    for hole in rep.holes:
        assert len(hole.contains) == 1


def test_surrounds_semantics():
    _, annulus, _ = shapes()
    cm = label_components(grid_of(annulus))
    assert surrounds(cm, 1, complex(20.5, 20.5))
    assert not surrounds(cm, 1, complex(1.5, 1.5))      # outer complement
    assert not surrounds(cm, 1, complex(20.5, 8.5))     # on the ring itself
    with pytest.raises(OutOfWindow):
        surrounds(cm, 1, complex(-3.0, 0.0))


# --- monotonicity ------------------------------------------------------------------

def _two_component_map(conn_first: int) -> tuple:
    # first component an annulus (connectivity 2) or disk (1); second a disk
    yy, xx = np.mgrid[0:30, 0:70]
    first = (xx - 15) ** 2 + (yy - 15) ** 2 < 10 ** 2
    if conn_first == 2:
        first &= ~((xx - 15) ** 2 + (yy - 15) ** 2 < 4 ** 2)
    second = (xx - 50) ** 2 + (yy - 15) ** 2 < 10 ** 2
    cm = label_components(grid_of(first | second))
    return cm, [1, 2]


def test_monotonicity_flag_true():
    cm, ids = _two_component_map(2)
    rep = connectivity_monotonicity_check(cm, ids)
    assert rep.sequence == ((1, 2), (2, 1))
    assert rep.non_increasing
    assert rep.skipped == ()


def test_monotonicity_flag_false_on_increase():
    cm, ids = _two_component_map(2)
    rep = connectivity_monotonicity_check(cm, list(reversed(ids)))
    assert rep.sequence == ((2, 1), (1, 2))
    assert not rep.non_increasing


def test_monotonicity_skips_border_touchers():
    mask = np.zeros((12, 40), dtype=bool)
    mask[0:5, 0:5] = True          # touches the border
    mask[6:10, 20:30] = True
    cm = label_components(grid_of(mask))
    border_id = next(cid for cid, info in cm.component_table.items()
                     if info.touches_border)
    other_id = next(cid for cid, info in cm.component_table.items()
                    if not info.touches_border)
    with pytest.warns(UserWarning, match="touches the raster border"):
        rep = connectivity_monotonicity_check(cm, [border_id, other_id])
    assert rep.skipped == (border_id,)
    assert rep.sequence == ((other_id, 1),)
    assert rep.non_increasing


# --- independent cross-check --------------------------------------------------------

def test_reference_counter_agrees_on_random_masks():
    rng = random.Random(90125)
    for _ in range(30):
        h = rng.randrange(8, 26)
        w = rng.randrange(8, 26)
        mask = np.array([[rng.random() < 0.45 for _ in range(w)]
                         for _ in range(h)])
        cm = label_components(grid_of(mask))
        for cid in cm.component_table:
            comp_mask = cm.labels == cid
            assert connectivity(cm, cid).hole_count == \
                count_holes_reference(comp_mask)


# --- headline raster ------------------------------------------------------------------

def _surround_zero_component(cm: ComponentMap) -> int:
    cands = [(info.pixel_count, cid) for cid, info in cm.component_table.items()
             if info.behavior_label[0] == "drifting"
             and not info.touches_border and surrounds(cm, cid, 0j)]
    assert cands, "no component surrounds the origin"
    return min(cands)[1]


def test_ex2_station_components(ex2_raster, ex2_components):
    cm = ex2_components
    u0 = _surround_zero_component(cm)
    rep0 = connectivity(cm, u0, flagged_points=(0j,))
    assert rep0.connectivity == 2
    assert rep0.holes[0].pixel_count == 2
    assert rep0.holes[0].contains == (0j,)
    ids = [u0]
    for n in (1, 2, 3):
        i, j = ex2_raster.pixel_of(complex(2.0 * math.pi * n))
        cid = int(cm.labels[j, i])
        assert cid > 0
        assert connectivity(cm, cid).connectivity == 1
        assert cm.component_table[cid].behavior_label == ("drifting", n)
        ids.append(cid)
    rep = connectivity_monotonicity_check(cm, ids)
    assert rep.non_increasing
    assert rep.skipped == ()
    assert [c for _, c in rep.sequence] == [2, 1, 1, 1]
