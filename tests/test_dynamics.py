import concurrent.futures
import math
import os
import pickle

import numpy as np
import pytest

from wanderlab import dynamics
from wanderlab.dynamics import (
    ATTRACTED,
    DRIFTING,
    JULIA_SUSPECT,
    POLE_ADJACENT,
    UNRESOLVED,
    _V_ATTRACTED,
    _V_BUDGET,
    _V_DRIFTING,
    _V_ESCAPED,
    _V_POLE,
    LADDER_STRIDE,
    NotFound,
    OrbitConfig,
    RasterGrid,
    StationSpec,
    _orbit_verdicts,
    classify_grid,
    find_fixed_point,
    track_wandering,
)
from wanderlab.maps import build_family, custom_map, group_roots
from wanderlab.numerics import ComplexBox
from wanderlab.regions import Disk
from wanderlab.scenario import load_scenario

from oracles import (
    classify_grid_reference,
    group_estimates_reference,
    orbit_verdicts_reference,
    traced_peak,
)

A1 = 2.0 ** -6
EPS1 = 2.0 ** -16
EPS2 = 1e-5


def ex1():
    return build_family("ex1", {"a": A1, "eps": EPS1})


# --- single-orbit verdicts ----------------------------------------------------

@pytest.mark.parametrize("m, z0, cfg, expected", [
    # pole at the start: ex1 at a, ex2 at 0
    (ex1(), complex(A1), OrbitConfig(), _V_POLE),
    (build_family("ex2", {"eps": EPS2}), 0j, OrbitConfig(), _V_POLE),
    (custom_map("(pow z 2)"), complex(2.0), OrbitConfig(), _V_ESCAPED),
    # multiply by i: a 4-cycle, never attracted, never escaping
    (custom_map("(mul z i)"), complex(1.0), OrbitConfig(max_iter=50), _V_BUDGET),
    # an undeclared pole reads as escape to infinity
    (custom_map("(div 1 z)"), 0j, OrbitConfig(), _V_ESCAPED),
], ids=["ex1-pole", "ex2-pole", "square-escape", "rotation-budget", "undeclared-pole"])
def test_single_orbit_verdict(m, z0, cfg, expected):
    verdict, fixed, track, _ = _orbit_verdicts(m, np.array([z0]), cfg)
    assert verdict.tolist() == [expected]
    assert fixed.size == track.size == 0


def test_orbit_attracted_matches_fixed_point():
    m = ex1()
    verdict, fixed, _, _ = _orbit_verdicts(m, np.array([0j]), OrbitConfig())
    assert verdict.tolist() == [_V_ATTRACTED]
    rep = find_fixed_point(m, Disk(0j, A1 / 2))
    assert fixed[0] == rep.location


def test_attraction_needs_newton_confirmation():
    # constant drift below the step tolerance: small steps forever but no
    # fixed point at all — no pixel may be reported as attracted
    g = classify_grid(custom_map("(add z 1e-10)"), ComplexBox(0.0, 1e-8, 0.0, 1e-8),
                      4, 4, OrbitConfig(max_iter=30))
    assert not (g.labels == ATTRACTED).any()
    assert (g.labels == JULIA_SUSPECT).all()
    assert (g.ids == -1).all()


# --- fixed points ---------------------------------------------------------------

def test_ex1_fixed_point_report():
    rep = find_fixed_point(ex1(), Disk(0j, A1 / 2))
    assert abs(rep.location) < A1 / 2
    assert rep.residual < 1e-12
    assert abs(rep.multiplier) < 1.0
    assert rep.attracting
    assert abs(rep.location - (-0.00091652390785)) < 1e-9


def test_ex5_parabolic_fixed_point():
    rep = find_fixed_point(build_family("ex5"), Disk(0j, 0.1))
    assert abs(rep.location) < 1e-12
    assert abs(abs(rep.multiplier) - 1.0) < 1e-12
    assert not rep.attracting


def test_fixed_point_not_found():
    with pytest.raises(NotFound):
        find_fixed_point(custom_map("(add z 1)"), Disk(0j, 1.0))


# --- wandering tracks -----------------------------------------------------------

def test_track_doubling_stations():
    z0 = 2j * math.pi
    centers = [z0 * 2 ** n for n in range(12)]
    flags = track_wandering(ex1(), z0, centers, A1 / 2)
    assert flags == [True] * 12


def test_track_detects_wrong_stations():
    z0 = 2j * math.pi
    centers = [z0 * 2 ** n for n in range(4)]
    centers[2] += 1.0
    flags = track_wandering(ex1(), z0, centers, A1 / 2)
    assert flags == [True, True, False, True]


def test_track_propagates_pole_hit():
    # the box image of the pole at 0 has a reason code, and every station
    # after it is missed
    flags = track_wandering(build_family("ex2", {"eps": EPS2}), 0j, [0j, 0j, 0j], 0.1)
    assert flags == [True, False, False]


# --- grid classification ---------------------------------------------------------

def test_config_validation():
    invalid = [
        lambda: OrbitConfig(max_iter=0),
        lambda: OrbitConfig(cycle_window=0),
        lambda: OrbitConfig(escape_radius=math.nan),
        lambda: OrbitConfig(escape_radius=math.inf),
        lambda: OrbitConfig(attract_tol=math.nan),
        lambda: OrbitConfig(stations=StationSpec()),
        lambda: StationSpec(radius=0.0),
        lambda: StationSpec(radius=math.nan),
        lambda: StationSpec(radius=math.inf),
        lambda: StationSpec(streak=1),
        lambda: StationSpec(step=0.0),
        lambda: StationSpec(step=math.nan),
        lambda: StationSpec(step=-math.inf),
        lambda: StationSpec(base=complex(math.nan, 0.0)),
        lambda: StationSpec(base=complex(0.0, math.inf)),
    ]
    for make in invalid:
        with pytest.raises(ValueError):
            make()


def test_pixel_center_of_roundtrip(monkeypatch):
    # the start points the classifier builds for two row ranges, in scan
    # order, map back to their own pixels
    window, width, height = ComplexBox(-1.0, 1.0, -1.0, 0.5), 8, 6
    monkeypatch.setattr(dynamics, "_orbit_verdicts", lambda m, zs, cfg: zs[0:len(zs)])
    centers = np.concatenate([
        dynamics._classify_rows((custom_map("z"), OrbitConfig(), window, width, height, r0, r1))
        for r0, r1 in ((0, 4), (4, 6))])
    g = RasterGrid(window, width, height, np.zeros((height, width), dtype=np.uint8),
                   np.full((height, width), -1, dtype=np.int32))
    assert ([g.pixel_of(z) for z in centers]
            == [(i, j) for j in range(height) for i in range(width)])
    with pytest.raises(ValueError):
        g.pixel_of(complex(2.0))


@pytest.mark.parametrize("z", [complex(-0.5, -0.9), complex(-0.5, 1.5), complex(1.5, -0.9),
                               complex(4.0, 1.5), complex(1.5, 4.0)])
def test_pixel_of_rejects_points_within_a_pixel_outside(z):
    # flooring, not truncation toward zero: -0.5 is column -1, not 0
    g = RasterGrid(ComplexBox(0.0, 4.0, 0.0, 4.0), 4, 4,
                   np.zeros((4, 4), dtype=np.uint8), np.full((4, 4), -1, dtype=np.int32))
    with pytest.raises(ValueError):
        g.pixel_of(z)
    assert g.pixel_of(complex(0.0, 3.99)) == (0, 3)


def test_uniform_escape_is_unresolved():
    g = classify_grid(custom_map("(pow z 2)"), ComplexBox(1.5, 3.0, 1.5, 3.0),
                      16, 16, OrbitConfig(max_iter=60))
    assert (g.labels == UNRESOLVED).all()
    assert (g.ids == -1).all()


def test_uniform_attraction_single_basin():
    g = classify_grid(custom_map("(pow z 2)"),
                      ComplexBox(-0.4, 0.4, -0.4, 0.4), 16, 16,
                      OrbitConfig(max_iter=200))
    assert (g.labels == ATTRACTED).all()
    assert (g.ids == 0).all()


def test_behavior_boundary_marked_suspect():
    # straddle the unit circle of the squaring map: attracted inside,
    # escaped outside, the rim must be flagged
    g = classify_grid(custom_map("(pow z 2)"), ComplexBox(0.2, 1.8, -0.5, 0.5),
                      40, 24, OrbitConfig(max_iter=300))
    assert (g.labels == ATTRACTED).any()
    assert (g.labels == UNRESOLVED).any()
    assert (g.labels == JULIA_SUSPECT).any()
    att = g.labels == ATTRACTED
    esc = g.labels == UNRESOLVED
    # no attracted pixel touches an escaped pixel directly
    assert not (att[:, 1:] & esc[:, :-1]).any()
    assert not (att[:, :-1] & esc[:, 1:]).any()
    assert not (att[1:, :] & esc[:-1, :]).any()
    assert not (att[:-1, :] & esc[1:, :]).any()


def test_ex1_window_classification():
    m = ex1()
    win = ComplexBox(-0.05, 0.05, -0.05, 0.05)
    g = classify_grid(m, win, 128, 128, OrbitConfig())
    i, j = g.pixel_of(complex(-A1))
    assert g.labels[j, i] == ATTRACTED
    assert g.ids[j, i] == 0
    pi_, pj_ = g.pixel_of(complex(A1))
    assert g.labels[pj_, pi_] == POLE_ADJACENT
    assert (g.labels == ATTRACTED).sum() > 0.5 * 128 * 128


def test_drifting_block_near_first_station():
    m = build_family("ex2", {"eps": EPS2})
    two_pi = 2.0 * math.pi
    win = ComplexBox(two_pi - 0.02, two_pi + 0.02, -0.02, 0.02)
    g = classify_grid(m, win, 4, 4, OrbitConfig(stations=(StationSpec(),)))
    assert (g.labels == DRIFTING).all()
    assert (g.ids == 1).all()


def ex2_core_orbit():
    return load_scenario("ex2-core").orbit


def test_drifting_block_near_leftward_station():
    # x0 = 2 pi - 2 a* satisfies g(x0) = x0 - 2 pi and g'(x0) = 0: the
    # second ladder of ex2-core catches the orbits near it
    m = build_family("ex2", {"eps": EPS2})
    cfg = ex2_core_orbit()
    x0 = 2.0 * math.atan(2.0 * math.pi)
    assert cfg.stations[1].base == complex(x0)
    win = ComplexBox(x0 - 0.02, x0 + 0.02, -0.02, 0.02)
    g = classify_grid(m, win, 4, 4, cfg)
    assert (g.labels == DRIFTING).all()
    assert ((g.ids > LADDER_STRIDE // 2) & (g.ids < 3 * LADDER_STRIDE // 2)).all()


# --- the compacted orbit loop against the full-array reference -----------------

def _grid_points(win: ComplexBox, width: int, height: int) -> np.ndarray:
    xs = win.re_lo + (np.arange(width) + 0.5) * (win.re_hi - win.re_lo) / width
    ys = win.im_lo + (np.arange(height) + 0.5) * (win.im_hi - win.im_lo) / height
    return (xs[None, :] + 1j * ys[:, None]).ravel()


def _ex1_points():
    rng = np.random.default_rng(7)
    scale = np.repeat([0.05, 4.0], 2000)
    zs = scale * (rng.uniform(-1.0, 1.0, 4000) + 1j * rng.uniform(-1.0, 1.0, 4000))
    return np.concatenate([zs, [complex(A1), 0j]])


# an orbit that alternates between the band |Im z| < 0.055 of a step-1 ladder
# (at the integers) and points above it: each visit to the band advances the
# corridor index by one, but no two visits are consecutive steps
GAP_MAP = ("(add z (add 0.5 (mul (mul i 0.1) "
           "(sin (add (mul 6.283185307179586 z) 1.5707963267948966)))))")
GAP_LADDER = StationSpec(base=0j, step=1.0, radius=0.055, min_index=0, streak=3)

LEFT = StationSpec(base=0j, step=1.0, radius=0.5, min_index=-100, streak=5)
RIGHT = StationSpec(base=10.2 + 0j, step=1.0, radius=0.5, min_index=-100, streak=5)

# three ladders of different bands, radii and streaks, stepped at once: the
# low and the middle band overlap, and no orbit of the grid ever enters the
# band of the third
THREE_LADDERS = (StationSpec(base=0.1 + 0j, step=1.0, radius=0.35, min_index=-100, streak=4),
                 StationSpec(base=0.4 + 0.3j, step=1.0, radius=0.2, min_index=-100, streak=6),
                 StationSpec(base=50j, step=-2.0, radius=0.1, min_index=-100, streak=3))

SAME_IM_BASE = (StationSpec(base=0j, step=1.0, radius=0.2, min_index=-100, streak=4),
                StationSpec(base=0.5 + 0j, step=1.0, radius=0.45, min_index=-100, streak=5))
SHARED_BAND = (StationSpec(base=0j, step=1.0, radius=0.4, min_index=2, streak=3),
               StationSpec(base=0.5 + 0j, step=1.0, radius=0.4, min_index=-1, streak=4))
INDEX_LIMIT_LADDERS = (StationSpec(base=0j, step=1.0, radius=0.3, min_index=0, streak=4),
                       StationSpec(base=2.0 ** 24 + 0j, step=1.0, radius=0.3,
                                   min_index=-2 ** 30, streak=4))


LOOP_CASES = {
    "ex2-grid-two-ladders": (build_family("ex2", {"eps": EPS2}),
                             _grid_points(ComplexBox(-1.0, 20.0, -2.6, 2.6), 400, 100),
                             ex2_core_orbit()),
    "ex1-seeded": (ex1(), _ex1_points(), OrbitConfig(stations=(StationSpec(),))),
    "add-1e-10": (custom_map("(add z 1e-10)"),
                  _grid_points(ComplexBox(0.0, 1e-8, 0.0, 1e-8), 4, 4), OrbitConfig(max_iter=30)),
    "mul-2": (custom_map("(mul z 2)"), _grid_points(ComplexBox(-1.0, 1.0, -1.0, 1.0), 16, 16),
              OrbitConfig(max_iter=40, stations=(StationSpec(step=-1.0, min_index=-50),))),
    "overlapping-ladders": (custom_map("(add z 1)"),
                            _grid_points(ComplexBox(-3.0, 3.0, -0.6, 0.6), 12, 6),
                            OrbitConfig(max_iter=20, stations=(LEFT, RIGHT))),
    "streak-off-the-band": (custom_map(GAP_MAP), np.array([0j, 3.0 + 0j, 0.01 + 0.002j]),
                            OrbitConfig(max_iter=12, stations=(GAP_LADDER,))),
    "three-ladders": (custom_map("(add (mul z (add 1 (mul 0.05 i))) 1)"),
                      _grid_points(ComplexBox(-3.0, 3.0, -0.7, 0.7), 24, 14),
                      OrbitConfig(max_iter=20, stations=THREE_LADDERS)),
    "no-ladders": (ex1(), _ex1_points(), OrbitConfig(max_iter=60)),
    # past the escape radius a step of 1e-10 rounds to 0, a short step: the
    # orbit escapes, and is not attracted, at its first step
    "escape-while-short": (custom_map("(add z 1e-10)"), np.array([2e6 + 0j, 0.5 + 0j, 3e6j]),
                           OrbitConfig(max_iter=5, cycle_window=1)),
    # 2**-k passes the escape radius 1e6 at its (k + 20)-th step: k = 5
    # escapes at the last step of the budget, k = 6 would at one step more
    "escape-at-the-last-step": (custom_map("(mul z 2)"),
                                2.0 ** -np.array([6, 0, 5, 1, 7, 4, 6, 2, 3]) + 0j,
                                OrbitConfig(max_iter=25)),
    # two bands on the real axis, of radii 0.2 and 0.45: the points with
    # 0.2 <= |Im z| < 0.45 are in the second ladder's band only
    "one-im-base-two-radii": (custom_map("(add z 1)"),
                              _grid_points(ComplexBox(-3.0, 3.0, -0.5, 0.5), 24, 10),
                              OrbitConfig(max_iter=20, stations=SAME_IM_BASE)),
    # one band, tested once, for two ladders whose streaks start at
    # different least indices
    "one-band-two-min-indices": (custom_map("(add z 1)"),
                                 _grid_points(ComplexBox(-4.0, 2.0, -0.3, 0.3), 24, 6),
                                 OrbitConfig(max_iter=20, stations=SHARED_BAND)),
    # corridor indices crossing 2**23 on the first ladder and -2**23 on the
    # second, which lie outside every corridor
    "index-limit": (custom_map("(add z 1)"),
                    _grid_points(ComplexBox(2.0 ** 23 - 8, 2.0 ** 23 + 8, -0.1, 0.1), 32, 2),
                    OrbitConfig(max_iter=20, escape_radius=1e8, stations=INDEX_LIMIT_LADDERS)),
}


@pytest.mark.parametrize("case, block", [
    pytest.param(case, block,
                 id=case if block == dynamics.ORBIT_BLOCK else f"{case}-block-{block}")
    for block in (dynamics.ORBIT_BLOCK, 1, 3, 64) for case in LOOP_CASES])
def test_compacted_loop_matches_reference(monkeypatch, case, block):
    # blocks of 1 and 3 top up after every retirement and admit orbits late,
    # which must still retire as budget at exactly max_iter steps of their own
    m, zs, cfg = LOOP_CASES[case]
    monkeypatch.setattr(dynamics, "ORBIT_BLOCK", block)
    if block < 64:
        # such blocks take a Python step for every orbit or so: the two large
        # cases run on every k-th point, about 500 of them (ex1's pole included)
        zs = zs[::max(1, zs.size // 500)]
    verdict, fixed, track, _ = _orbit_verdicts(m, zs, cfg)
    ref_verdict, ref_fixed, ref_track = orbit_verdicts_reference(m, zs, cfg)
    assert np.array_equal(verdict, ref_verdict)
    assert np.array_equal(fixed, ref_fixed[ref_verdict == _V_ATTRACTED])
    assert np.array_equal(track, ref_track[ref_verdict == _V_DRIFTING])
    assert fixed.dtype == np.complex128
    assert track.dtype == ref_track.dtype == np.int32


def _count_evaluations(monkeypatch) -> list:
    """The sizes of every eval_map_vec batch of the orbit loop, from now on,
    taken where the benchmark tracer takes them."""
    seen = []
    evaluate = dynamics.eval_map_vec

    def counting(m, zs):
        seen.append(zs.size)
        return evaluate(m, zs)

    monkeypatch.setattr(dynamics, "eval_map_vec", counting)
    return seen


def test_ex2_grid_pixel_iterations(monkeypatch):
    # each step evaluates the live orbits only: a step that also evaluated
    # retired orbits, or one more step than the verdicts need, moves the
    # count; the mirrored window classifies its upper 50 rows, and the full
    # path all 100
    seen = _count_evaluations(monkeypatch)
    m, cfg = build_family("ex2", {"eps": EPS2}), ex2_core_orbit()
    win = ComplexBox(-1.0, 20.0, -2.6, 2.6)
    classify_grid(m, win, 400, 100, cfg)
    assert sum(seen) == 67_726
    seen.clear()
    classify_grid_reference(m, win, 400, 100, cfg)
    assert sum(seen) == 135_452


# Newton's map for z**2 + 1: basins at i and -i, off the real axis, which
# is their common boundary
NEWTON_I = "(sub (mul 0.5 z) (div 0.5 z))"
SQUARE = ComplexBox(-2.0, 2.0, -2.0, 2.0)

MIRRORED_CASES = {
    "ex2-400x100": (build_family("ex2", {"eps": EPS2}), ComplexBox(-1.0, 20.0, -2.6, 2.6),
                    400, 100, ex2_core_orbit()),
    # an odd height classifies the axis row once
    "ex2-400x101": (build_family("ex2", {"eps": EPS2}), ComplexBox(-1.0, 20.0, -2.6, 2.6),
                    400, 101, ex2_core_orbit()),
    "ex1-128x128": (ex1(), ComplexBox(-0.05, 0.05, -0.05, 0.05), 128, 128, OrbitConfig()),
    "newton-64x64": (custom_map(NEWTON_I, declared_poles=[0j]), SQUARE, 64, 64, OrbitConfig()),
}


@pytest.mark.parametrize("case", MIRRORED_CASES)
def test_mirrored_raster_equals_the_full_classification(monkeypatch, case):
    # a block of at most half of each raster's classified pixels, so that
    # 2 workers classify 2 ranges
    monkeypatch.setattr(dynamics, "ORBIT_BLOCK", 1024)
    m, win, width, height, cfg = MIRRORED_CASES[case]
    assert dynamics._mirrored(m, cfg, win)
    ref = classify_grid_reference(m, win, width, height, cfg)
    for workers in (1, 2):
        g = classify_grid(m, win, width, height, cfg, workers=workers)
        assert np.array_equal(g.labels, ref.labels)
        assert np.array_equal(g.ids, ref.ids)
        assert g.verdict_counts == ref.verdict_counts
        assert g.retire_steps == ref.retire_steps


def test_mirrored_basin_ids_follow_scan_order():
    # the basin at -i is met first in scan order, in the reflected rows
    m, win, width, height, cfg = MIRRORED_CASES["newton-64x64"]
    g = classify_grid(m, win, width, height, cfg)
    (i0, j0), (i1, j1) = g.pixel_of(-1j), g.pixel_of(1j)
    assert (g.labels[j0, i0], g.ids[j0, i0]) == (ATTRACTED, 0)
    assert (g.labels[j1, i1], g.ids[j1, i1]) == (ATTRACTED, 1)


UNMIRRORED_CASES = {
    "complex-constant": (custom_map("(sub (mul (add 0.5 (mul 0.01 i)) z) (div 0.5 z))",
                                    declared_poles=[0j]), SQUARE, OrbitConfig()),
    "complex-parameter": (custom_map("(sub (mul c z) (div 0.5 z))", {"c": 0.5 + 0.01j},
                                     declared_poles=[0j]), SQUARE, OrbitConfig()),
    "asymmetric-window": (custom_map(NEWTON_I, declared_poles=[0j]),
                          ComplexBox(-2.0, 2.0, -2.0, 2.5), OrbitConfig()),
    "off-axis-ladder": (custom_map(NEWTON_I, declared_poles=[0j]), SQUARE,
                        OrbitConfig(stations=(StationSpec(base=0.25j, step=1.0),))),
    "off-axis-pole": (custom_map(NEWTON_I, declared_poles=[0j, 3j]), SQUARE, OrbitConfig()),
}


@pytest.mark.parametrize("case", UNMIRRORED_CASES)
def test_rasters_without_mirror_symmetry_classify_every_pixel(monkeypatch, case):
    m, win, cfg = UNMIRRORED_CASES[case]
    assert not dynamics._mirrored(m, cfg, win)
    seen = _count_evaluations(monkeypatch)
    g = classify_grid(m, win, 32, 32, cfg)
    evaluated = sum(seen)
    seen.clear()
    ref = classify_grid_reference(m, win, 32, 32, cfg)
    assert evaluated == sum(seen)
    assert np.array_equal(g.labels, ref.labels) and np.array_equal(g.ids, ref.ids)
    assert g.verdict_counts == ref.verdict_counts and g.retire_steps == ref.retire_steps


def test_retire_steps_total_the_loop_verdicts_whatever_the_workers(monkeypatch):
    # the ranges' histograms add up to the same one for 1 and 3 workers,
    # and each verdict's buckets add up to its pixels from the orbit loop;
    # the 3,200 classified pixels fill more than 3 blocks of 1,024, so 3 ranges
    monkeypatch.setattr(dynamics, "ORBIT_BLOCK", 1024)
    m = build_family("ex2", {"eps": EPS2})
    cfg = ex2_core_orbit()
    win = ComplexBox(-1.0, 20.0, -2.6, 2.6)
    one = classify_grid(m, win, 160, 40, cfg, workers=1)
    three = classify_grid(m, win, 160, 40, cfg, workers=3)
    assert one.retire_steps == three.retire_steps
    verdict = dynamics._classify_ranges(m, cfg, win, 160, 40, 1)[0]
    assert ({name: sum(buckets.values()) for name, buckets in one.retire_steps.items()}
            == {name: int(np.count_nonzero(verdict == code))
                for code, name in dynamics._VERDICT_NAMES})
    assert one.retire_steps["escaped"]["2-3"] > 0 and one.retire_steps["drifting"]


def test_retire_steps_buckets_are_log2_of_the_step():
    # 2**-k escapes at step k + 20 under z -> 2z (escape radius 1e6), and
    # 2**-90 retires as budget at step 100; max_iter 100 makes 7 buckets:
    # 1, 2-3, ..., 64-127 (the tiny attract_tol keeps small steps from
    # counting as attraction)
    zs = 2.0 ** -np.array([0, 3, 4, 11, 12, 43, 44, 90]) + 0j
    cfg = OrbitConfig(max_iter=100, attract_tol=1e-300)
    retired = _orbit_verdicts(custom_map("(mul z 2)"), zs, cfg)[3]
    assert retired.shape == (5, 7)
    assert retired[_V_ESCAPED].tolist() == [0, 0, 0, 0, 4, 2, 1]
    assert retired[_V_BUDGET].tolist() == [0, 0, 0, 0, 0, 0, 1]
    assert retired.sum() == zs.size
    assert dynamics._retire_steps(retired) == {
        "escaped": {"16-31": 4, "32-63": 2, "64-127": 1}, "attracted": {}, "drifting": {},
        "pole": {}, "budget": {"64-127": 1}}


def test_orbit_loop_memory_is_bounded_by_the_block(monkeypatch):
    # beyond its outputs the loop holds O(ORBIT_BLOCK) orbits, never O(n):
    # 65,536 start points in blocks of 1,024 peak at well under 1 MB extra
    monkeypatch.setattr(dynamics, "ORBIT_BLOCK", 1024)
    m = build_family("ex2", {"eps": EPS2})
    cfg = ex2_core_orbit()
    zs = _grid_points(ComplexBox(-1.0, 20.0, -2.6, 2.6), 256, 256)
    out, peak = traced_peak(_orbit_verdicts, m, zs, cfg)
    assert peak - sum(a.nbytes for a in out) < 2 ** 20


def test_classify_grid_memory_per_pixel(monkeypatch):
    # beyond the labels and ids it returns, classifying the 256x256 ex2
    # grid in-process holds about 4 bytes per pixel (uint8 verdicts and
    # bool masks) and the orbit block: no complex128 or int64 pixel array
    monkeypatch.setattr(dynamics, "ORBIT_BLOCK", 1024)
    m = build_family("ex2", {"eps": EPS2})
    g, peak = traced_peak(classify_grid, m, ComplexBox(-1.0, 20.0, -2.6, 2.6), 256, 256,
                          ex2_core_orbit())
    assert g.verdict_counts["drifting"] > 0
    assert peak - g.labels.nbytes - g.ids.nbytes < 6 * 256 * 256


def _straddling_estimates(n):
    # estimates 0.5 to 1.5 tolerances (1e-7) from four centres, two of
    # them closer than a tolerance to each other
    rng = np.random.default_rng(11)
    centres = np.array([0.3 + 0.1j, -0.2j, 1.0, 1.0 + 1.5e-7])
    k = rng.integers(0, centres.size, n)
    r = 1e-7 * (1.0 + np.abs(centres[k])) * rng.uniform(0.5, 1.5, n)
    return centres[k] + r * np.exp(2j * math.pi * rng.uniform(size=n))


def _ex1_attracted_estimates():
    window = ComplexBox(-0.05, 0.05, -0.05, 0.05)
    _, fixed, _, _ = dynamics._classify_rows((ex1(), OrbitConfig(), window, 64, 64, 0, 64))
    assert fixed.size > 2000
    return fixed


@pytest.mark.parametrize("estimates", [
    lambda: np.zeros(0, dtype=np.complex128), lambda: _straddling_estimates(5000),
    _ex1_attracted_estimates,
], ids=["none", "straddling", "ex1-raster"])
def test_group_estimates_matches_reference(estimates):
    fixed, tol = estimates(), 1e-7
    firsts, group_of = group_roots(fixed, tol)
    want_firsts, want_group_of = group_estimates_reference(fixed, tol)
    assert firsts == want_firsts
    assert group_of.tolist() == want_group_of


def test_ex1_seeded_points_reach_every_verdict():
    verdict = _orbit_verdicts(ex1(), _ex1_points(), OrbitConfig(stations=(StationSpec(),)))[0]
    assert {_V_POLE, _V_ATTRACTED, _V_ESCAPED} <= set(verdict.tolist())


def test_overlapping_ladders_first_declared_wins():
    # every point lies 0.1 from a corridor center of both ladders, and both
    # streaks complete at the same step; the indices differ by 10
    m = custom_map("(add z 1)")
    zs = _grid_points(ComplexBox(-3.4, 2.6, -0.1, 0.1), 6, 2)

    def tracks(*ladders):
        verdict, _, track, _ = _orbit_verdicts(m, zs, OrbitConfig(max_iter=20, stations=ladders))
        assert (verdict == _V_DRIFTING).all()
        return track

    alone_left, alone_right = tracks(LEFT), tracks(RIGHT)
    assert np.array_equal(alone_left, alone_right + 10)
    assert np.array_equal(tracks(LEFT, RIGHT), alone_left)
    assert np.array_equal(tracks(RIGHT, LEFT), alone_right)


def test_streak_resets_when_the_orbit_leaves_the_band():
    verdict, _, track, _ = _orbit_verdicts(custom_map(GAP_MAP), np.array([0j, 3.0 + 0j]),
                                        OrbitConfig(max_iter=12, stations=(GAP_LADDER,)))
    assert verdict.tolist() == [_V_BUDGET, _V_BUDGET]
    assert track.size == 0


def test_grid_deterministic_and_worker_invariant(monkeypatch):
    # the 864 classified pixels fill more than 3 blocks of 256, so 3 ranges
    monkeypatch.setattr(dynamics, "ORBIT_BLOCK", 256)
    m = ex1()
    win = ComplexBox(-0.05, 0.05, -0.05, 0.05)
    g1 = classify_grid(m, win, 48, 36, OrbitConfig())
    g2 = classify_grid(m, win, 48, 36, OrbitConfig())
    g3 = classify_grid(m, win, 48, 36, OrbitConfig(), workers=3)
    assert np.array_equal(g1.labels, g2.labels)
    assert np.array_equal(g1.ids, g2.ids)
    assert np.array_equal(g1.labels, g3.labels)
    assert np.array_equal(g1.ids, g3.ids)


class _RaisingPool:
    def __init__(self, max_workers):
        raise AssertionError("a raster of one orbit block or less forks no pool")


class _RecordingPool:
    """A ProcessPoolExecutor that maps in-process and starts no process; it
    logs each pool's max_workers and every task it maps."""
    sizes: list = []
    tasks: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        tasks = list(tasks)
        self.tasks.extend(tasks)
        return map(fn, tasks)


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(_RecordingPool, "tasks", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    return _RecordingPool


def test_raster_of_one_block_classifies_in_process(monkeypatch):
    # 64 classified pixels fill one block of 64: one range, whatever the
    # workers, and no pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RaisingPool)
    monkeypatch.setattr(dynamics, "ORBIT_BLOCK", 64)
    m = ex1()
    # not symmetric about the real axis, so all 8 rows are classified
    win = ComplexBox(-0.05, 0.05, -0.05, 0.06)
    g = classify_grid(m, win, 8, 8, OrbitConfig(), workers=2)
    ref = classify_grid_reference(m, win, 8, 8, OrbitConfig())
    assert np.array_equal(g.labels, ref.labels) and np.array_equal(g.ids, ref.ids)
    assert g.retire_steps == ref.retire_steps


def test_raster_of_one_block_and_a_pixel_takes_two_ranges(monkeypatch, recording_pool):
    monkeypatch.setattr(dynamics, "ORBIT_BLOCK", 64)
    m = ex1()
    win = ComplexBox(-0.05, 0.05, -0.05, 0.06)
    g = classify_grid(m, win, 13, 5, OrbitConfig(), workers=2)
    assert [t[5:] for t in recording_pool.tasks] == [(0, 2), (2, 5)]
    ref = classify_grid_reference(m, win, 13, 5, OrbitConfig())
    assert np.array_equal(g.labels, ref.labels) and np.array_equal(g.ids, ref.ids)


def test_raster_pool_is_bounded_by_row_blocks_and_cores(monkeypatch, recording_pool):
    # the pool forks every worker up front, so a huge --threads must not
    # reach it; the fake maps in-process and starts no process
    sizes = recording_pool.sizes
    # a block of 4 pixels, so that each of the 4 rows fills one
    monkeypatch.setattr(dynamics, "ORBIT_BLOCK", 4)
    m = ex1()
    # not symmetric about the real axis, so all 4 rows are classified
    win = ComplexBox(-0.05, 0.05, -0.05, 0.06)
    g = classify_grid(m, win, 4, 4, OrbitConfig(), workers=10_000)
    assert sizes == [min(4, os.cpu_count() or 1)]
    ref = classify_grid(m, win, 4, 4, OrbitConfig())
    assert np.array_equal(g.labels, ref.labels) and np.array_equal(g.ids, ref.ids)
    # a mirrored window classifies its upper 2 rows: 2 ranges at most
    classify_grid(m, ComplexBox(-0.05, 0.05, -0.05, 0.05), 4, 4, OrbitConfig(), workers=10_000)
    assert sizes[1:] == [min(2, os.cpu_count() or 1)]


def test_raster_row_tasks_are_small_and_worker_invariant(monkeypatch, recording_pool):
    # a row task names its rows and builds its own pixel centers: no
    # per-pixel array crosses the pool
    # a block smaller than half of the 900 classified pixels: 2 ranges
    monkeypatch.setattr(dynamics, "ORBIT_BLOCK", 256)
    m = build_family("ex2", {"eps": EPS2})
    cfg = ex2_core_orbit()
    win = ComplexBox(-1.0, 8.0, -1.0, 1.0)
    one = classify_grid(m, win, 90, 21, cfg, workers=1)
    two = classify_grid(m, win, 90, 21, cfg, workers=2)
    task_bytes = [len(pickle.dumps(t)) for t in recording_pool.tasks]
    assert len(task_bytes) == 2 and max(task_bytes) < 4096
    assert np.array_equal(one.labels, two.labels) and np.array_equal(one.ids, two.ids)
    assert one.verdict_counts == two.verdict_counts
    assert one.verdict_counts["drifting"] > 0
    assert {1, LADDER_STRIDE} <= set(one.ids[one.labels == DRIFTING].tolist())


def test_ex2_raster_headline(ex2_raster):
    g = ex2_raster
    pole_cells = np.argwhere(g.labels == POLE_ADJACENT)
    assert len(pole_cells) == 2
    assert {tuple(rc) for rc in pole_cells.tolist()} == {(199, 76), (200, 76)}
    tracks = np.unique(g.ids[g.labels == DRIFTING])
    assert {1, 2, 3}.issubset(set(tracks.tolist()))
    # the real-axis orbits far right drift left for hundreds of steps
    # before the leftward ladder counts them
    assert g.retire_steps["drifting"]["256-511"] > 0
