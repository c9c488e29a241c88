import math
import os

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
from wanderlab.maps import PoleHitError, build_family, custom_map
from wanderlab.numerics import ComplexBox
from wanderlab.regions import Disk
from wanderlab.scenario import _decode_orbit, load_scenario

from oracles import orbit_verdicts_reference

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
    verdict, fixed, track = _orbit_verdicts(m, np.array([z0]), cfg)
    assert verdict.tolist() == [expected]
    assert np.isnan(fixed[0])
    assert track.tolist() == [-1]


def test_orbit_attracted_matches_fixed_point():
    m = ex1()
    verdict, fixed, _ = _orbit_verdicts(m, np.array([0j]), OrbitConfig())
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
    flags = track_wandering(ex1(), z0, centers, A1 / 2, 11)
    assert flags == [True] * 11


def test_track_detects_wrong_stations():
    z0 = 2j * math.pi
    centers = [z0 * 2 ** n for n in range(4)]
    centers[2] += 1.0
    flags = track_wandering(ex1(), z0, centers, A1 / 2, 4)
    assert flags == [True, True, False, True]


def test_track_propagates_pole_hit():
    with pytest.raises(PoleHitError):
        track_wandering(build_family("ex2", {"eps": EPS2}), 0j,
                        [0j, 0j], 0.1, 2)


def test_track_validates_center_count():
    with pytest.raises(ValueError):
        track_wandering(ex1(), 0j, [0j], 0.1, 5)


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


def test_pixel_center_of_roundtrip():
    g = classify_grid(custom_map("z"), ComplexBox(-1.0, 1.0, -1.0, 1.0), 8, 8,
                      OrbitConfig(max_iter=2))
    for i, j in ((0, 0), (3, 5), (7, 7)):
        assert g.pixel_of(g.pixel_center(i, j)) == (i, j)
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
    return _decode_orbit(load_scenario("ex2-core").orbit)


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


@pytest.mark.parametrize("m, zs, cfg", [
    (build_family("ex2", {"eps": EPS2}),
     _grid_points(ComplexBox(-1.0, 20.0, -2.6, 2.6), 400, 100), ex2_core_orbit()),
    (ex1(), _ex1_points(), OrbitConfig(stations=(StationSpec(),))),
    (custom_map("(add z 1e-10)"), _grid_points(ComplexBox(0.0, 1e-8, 0.0, 1e-8), 4, 4),
     OrbitConfig(max_iter=30)),
    (custom_map("(mul z 2)"), _grid_points(ComplexBox(-1.0, 1.0, -1.0, 1.0), 16, 16),
     OrbitConfig(max_iter=40, stations=(StationSpec(step=-1.0, min_index=-50),))),
    (custom_map("(add z 1)"), _grid_points(ComplexBox(-3.0, 3.0, -0.6, 0.6), 12, 6),
     OrbitConfig(max_iter=20, stations=(LEFT, RIGHT))),
    (custom_map(GAP_MAP), np.array([0j, 3.0 + 0j, 0.01 + 0.002j]),
     OrbitConfig(max_iter=12, stations=(GAP_LADDER,))),
], ids=["ex2-grid-two-ladders", "ex1-seeded", "add-1e-10", "mul-2", "overlapping-ladders",
        "streak-off-the-band"])
def test_compacted_loop_matches_reference(m, zs, cfg):
    verdict, fixed, track = _orbit_verdicts(m, zs, cfg)
    ref_verdict, ref_fixed, ref_track = orbit_verdicts_reference(m, zs, cfg)
    assert np.array_equal(verdict, ref_verdict)
    assert np.array_equal(fixed, ref_fixed, equal_nan=True)
    assert np.array_equal(track, ref_track)
    assert track.dtype == ref_track.dtype == np.int32


def test_ex1_seeded_points_reach_every_verdict():
    verdict, _, _ = _orbit_verdicts(ex1(), _ex1_points(), OrbitConfig(stations=(StationSpec(),)))
    assert {_V_POLE, _V_ATTRACTED, _V_ESCAPED} <= set(verdict.tolist())


def test_overlapping_ladders_first_declared_wins():
    # every point lies 0.1 from a corridor center of both ladders, and both
    # streaks complete at the same step; the indices differ by 10
    m = custom_map("(add z 1)")
    zs = _grid_points(ComplexBox(-3.4, 2.6, -0.1, 0.1), 6, 2)

    def tracks(*ladders):
        verdict, _, track = _orbit_verdicts(m, zs, OrbitConfig(max_iter=20, stations=ladders))
        assert (verdict == _V_DRIFTING).all()
        return track

    alone_left, alone_right = tracks(LEFT), tracks(RIGHT)
    assert np.array_equal(alone_left, alone_right + 10)
    assert np.array_equal(tracks(LEFT, RIGHT), alone_left)
    assert np.array_equal(tracks(RIGHT, LEFT), alone_right)


def test_streak_resets_when_the_orbit_leaves_the_band():
    verdict, _, track = _orbit_verdicts(custom_map(GAP_MAP), np.array([0j, 3.0 + 0j]),
                                        OrbitConfig(max_iter=12, stations=(GAP_LADDER,)))
    assert verdict.tolist() == [_V_BUDGET, _V_BUDGET]
    assert track.tolist() == [-1, -1]


def test_grid_deterministic_and_worker_invariant():
    m = ex1()
    win = ComplexBox(-0.05, 0.05, -0.05, 0.05)
    g1 = classify_grid(m, win, 48, 36, OrbitConfig())
    g2 = classify_grid(m, win, 48, 36, OrbitConfig())
    g3 = classify_grid(m, win, 48, 36, OrbitConfig(), workers=3)
    assert np.array_equal(g1.labels, g2.labels)
    assert np.array_equal(g1.ids, g2.ids)
    assert np.array_equal(g1.labels, g3.labels)
    assert np.array_equal(g1.ids, g3.ids)


def test_raster_pool_is_bounded_by_row_blocks_and_cores(monkeypatch):
    # the pool forks every worker up front, so a huge --threads must not
    # reach it; the fake maps in-process and starts no process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(dynamics, "ProcessPoolExecutor", InProcessPool)
    m = ex1()
    win = ComplexBox(-0.05, 0.05, -0.05, 0.05)
    g = classify_grid(m, win, 4, 4, OrbitConfig(), workers=10_000)
    assert sizes == [min(4, os.cpu_count() or 1)]
    ref = classify_grid(m, win, 4, 4, OrbitConfig())
    assert np.array_equal(g.labels, ref.labels) and np.array_equal(g.ids, ref.ids)


def test_ex2_raster_headline(ex2_raster):
    g = ex2_raster
    pole_cells = np.argwhere(g.labels == POLE_ADJACENT)
    assert len(pole_cells) == 2
    assert {tuple(rc) for rc in pole_cells.tolist()} == {(199, 76), (200, 76)}
    tracks = np.unique(g.ids[g.labels == DRIFTING])
    assert {1, 2, 3}.issubset(set(tracks.tolist()))
