import math
import random

import numpy as np
import pytest

from wanderlab import topology
from wanderlab.dynamics import ATTRACTED, DRIFTING, JULIA_SUSPECT, UNRESOLVED, RasterGrid
from wanderlab.numerics import ComplexBox
from wanderlab.topology import (
    ComponentMap,
    OutOfWindow,
    _paint,
    _runs,
    connectivity,
    connectivity_monotonicity_check,
    label_components,
    surrounds,
)

from oracles import count_holes_reference, holes_reference, label_reference


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


@pytest.mark.parametrize("eight", [False, True], ids=["4-adjacency", "8-adjacency"])
def test_run_labelling_matches_ndimage(eight):
    ndimage = pytest.importorskip("scipy.ndimage")
    structure = np.ones((3, 3), dtype=bool) if eight else None
    rng = np.random.default_rng(20261022)
    for _ in range(600):
        h, w = rng.integers(1, 30, 2)
        mask = rng.random((h, w)) < rng.uniform(0.2, 0.8)
        want, n = ndimage.label(mask, structure=structure)
        runs = _runs(mask, eight)
        assert runs.first.size == n
        assert (_paint(mask.shape, runs) == want).all()


def _components_reference(grid):
    """(first pixel, mask, behaviour) of each component, one labelling per
    (behaviour, id) pair, in scan order of the first pixel."""
    pieces = []
    for code, name in ((ATTRACTED, "attracted"), (DRIFTING, "drifting")):
        for bid in np.unique(grid.ids[grid.labels == code]).tolist():
            lab, n = label_reference((grid.labels == code) & (grid.ids == bid))
            for k in range(1, n + 1):
                comp = lab == k
                pieces.append((int(np.argmax(comp.ravel())), comp, (name, bid)))
    return sorted(pieces, key=lambda t: t[0])


def test_label_components_matches_per_behaviour_oracle():
    rng = np.random.default_rng(20261023)
    for _ in range(60):
        h, w = rng.integers(2, 25, 2)
        labels = rng.choice(np.array([UNRESOLVED, ATTRACTED, DRIFTING, JULIA_SUSPECT],
                                     dtype=np.uint8), (h, w), p=[0.2, 0.35, 0.35, 0.1])
        behaving = (labels == ATTRACTED) | (labels == DRIFTING)
        ids = np.where(behaving, rng.integers(0, 3, (h, w)), -1).astype(np.int32)
        grid = RasterGrid(ComplexBox(0.0, float(w), 0.0, float(h)), w, h, labels, ids)
        cm = label_components(grid)
        pieces = _components_reference(grid)
        assert list(cm.component_table) == list(range(1, len(pieces) + 1))
        want = np.zeros((h, w), dtype=np.int32)
        for cid, (_, comp, behavior) in enumerate(pieces, start=1):
            want[comp] = cid
            info = cm.component_table[cid]
            rows, cols = np.nonzero(comp)
            assert info.pixel_count == comp.sum()
            assert info.touches_border == bool(comp[0].any() or comp[-1].any()
                                               or comp[:, 0].any() or comp[:, -1].any())
            assert info.behavior_label == behavior
            assert info.bbox == (rows.min(), rows.max() + 1, cols.min(), cols.max() + 1)
        assert (cm.labels == want).all()


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


def _holes_match_full_grid(cm, cid):
    """The cropped report against the holes of the whole grid."""
    comp = cm.labels == cid
    rep = connectivity(cm, cid)
    assert rep.hole_count == count_holes_reference(comp)
    assert [(h.representative_pixel, h.pixel_count) for h in rep.holes] == holes_reference(comp)
    return rep


def test_hole_edge_meets_bounding_box():
    ring = np.zeros((10, 12), dtype=bool)
    ring[2:7, 3:9] = True
    ring[3:6, 4:8] = False              # the hole runs along every box side
    rep = _holes_match_full_grid(label_components(grid_of(ring)), 1)
    assert [(h.representative_pixel, h.pixel_count) for h in rep.holes] == [((4, 3), 12)]
    ring[2, 3] = False                  # a diagonal leak at the box corner
    assert _holes_match_full_grid(label_components(grid_of(ring)), 1).hole_count == 0


def test_component_nested_in_a_hole():
    _, annulus, _ = shapes()
    yy, xx = np.mgrid[0:40, 0:40]
    inner = (xx - 20) ** 2 + (yy - 20) ** 2 < 3 ** 2
    cm = label_components(grid_of(annulus | inner))
    outer_id, inner_id = int(cm.labels[7, 20]), int(cm.labels[20, 20])
    assert {outer_id, inner_id} == {1, 2}
    rep = _holes_match_full_grid(cm, outer_id)
    assert rep.hole_count == 1
    assert rep.holes[0].pixel_count == (~annulus[13:28, 13:28]).sum()
    assert _holes_match_full_grid(cm, inner_id).hole_count == 0


@pytest.mark.parametrize("j, i", [(0, 4), (6, 4), (3, 0), (3, 9)],
                         ids=["top", "bottom", "left", "right"])
def test_ring_touching_a_window_edge(j, i):
    ring = np.zeros((12, 16), dtype=bool)
    ring[j:j + 6, i:i + 7] = True
    ring[j + 1:j + 5, i + 1:i + 6] = False
    cm = label_components(grid_of(ring))
    assert cm.component_table[1].touches_border
    assert _holes_match_full_grid(cm, 1).connectivity == 2


@pytest.mark.parametrize("j, i", [(4, 5), (0, 0), (8, 10)])
def test_one_pixel_component(j, i):
    mask = np.zeros((9, 11), dtype=bool)
    mask[j, i] = True
    cm = label_components(grid_of(mask))
    assert cm.component_table[1].bbox == (j, j + 1, i, i + 1)
    rep = _holes_match_full_grid(cm, 1)
    assert rep.connectivity == 1 and rep.holes == ()


def test_flagged_point_just_outside_the_window_raises():
    cm = label_components(grid_of(np.ones((4, 4), dtype=bool)))
    with pytest.raises(OutOfWindow):
        connectivity(cm, 1, flagged_points=(complex(-0.5, -0.9),))
    with pytest.raises(OutOfWindow):
        surrounds(cm, 1, complex(-0.5, -0.9))


def test_surrounds_rejects_points_off_the_box_without_labelling(monkeypatch):
    _, annulus, _ = shapes()
    cm = label_components(grid_of(annulus))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return connectivity(*args, **kwargs)

    monkeypatch.setattr(topology, "connectivity", counted)
    assert not surrounds(cm, 1, complex(1.5, 1.5))      # outside the box
    assert not surrounds(cm, 1, complex(6.5, 20.5))     # on the box's edge column
    assert calls == []
    assert not surrounds(cm, 1, complex(8.5, 8.5))      # in the box, outer complement
    assert len(calls) == 1
    assert surrounds(cm, 1, complex(20.5, 20.5))
    assert len(calls) == 2


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
