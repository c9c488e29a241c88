"""Conservatism of the box-vs-region tests: true answers are guarantees."""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import boxes_of, encloses
from wanderlab.numerics import Boxes, ComplexBox
from wanderlab.regions import (
    Difference,
    Disk,
    HalfStrip,
    Region,
    UnboundedRegionError,
    Union,
    annulus,
)

RNG = random.Random(77345)


def _random_region() -> Region:
    kind = RNG.randrange(5)
    c = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
    if kind == 0:
        return Disk(c, RNG.uniform(0.1, 2.0), closed=RNG.random() < 0.5)
    if kind == 1:
        r_in = RNG.uniform(0.05, 1.0)
        return annulus(c, r_in, r_in + RNG.uniform(0.1, 1.5), closed=RNG.random() < 0.5)
    if kind == 2:
        x = RNG.uniform(-2, 1)
        y = RNG.uniform(-2, 1)
        return HalfStrip(x, x + RNG.uniform(0.2, 2), y, y + RNG.uniform(0.2, 2),
                         closed=RNG.random() < 0.5)
    if kind == 3:
        return Union(Disk(c, RNG.uniform(0.2, 1.0)),
                     Disk(c + RNG.uniform(0.0, 2.0), RNG.uniform(0.2, 1.0)))
    return Difference(Disk(c, RNG.uniform(1.0, 2.0), closed=True),
                      Disk(c + RNG.uniform(0.0, 0.5), RNG.uniform(0.05, 0.6)))


def _random_box() -> ComplexBox:
    cx, cy = RNG.uniform(-3, 3), RNG.uniform(-3, 3)
    w, h = RNG.uniform(0.0, 1.0), RNG.uniform(0.0, 1.0)
    return ComplexBox(cx, cx + w, cy, cy + h)


def _inside(region: Region, box: ComplexBox) -> bool:
    return bool(region.box_inside(Boxes.of([box]))[0])


def _disjoint(region: Region, box: ComplexBox) -> bool:
    return bool(region.box_disjoint(Boxes.of([box]))[0])


def test_box_tests_are_conservative():
    checked_inside = checked_disjoint = 0
    for _ in range(4000):
        region, box = _random_region(), _random_box()
        inside = _inside(region, box)
        disjoint = _disjoint(region, box)
        assert not (inside and disjoint)
        if not inside and not disjoint:
            continue
        for _ in range(100):
            z = complex(RNG.uniform(box.re_lo, box.re_hi),
                        RNG.uniform(box.im_lo, box.im_hi))
            if inside:
                assert region.contains(z), f"{region} claimed to contain {box}"
                checked_inside += 1
            else:
                assert not region.contains(z), f"{region} claimed disjoint from {box}"
                checked_disjoint += 1
    # make sure the sweep actually exercised both branches
    assert checked_inside > 1000 and checked_disjoint > 1000


def test_ball_inside_is_conservative():
    # when ball_inside holds, every point within the radius of the box lies
    # in the region: a disk tests box_mag + radius, other shapes the
    # inflated box
    checked = 0
    for _ in range(4000):
        region, box = _random_region(), _random_box()
        radius = RNG.uniform(0.0, 0.5)
        if not region.ball_inside(Boxes.of([box]), radius)[0]:
            continue
        for _ in range(50):
            z = complex(RNG.uniform(box.re_lo, box.re_hi), RNG.uniform(box.im_lo, box.im_hi))
            z += radius * (1.0 - 1e-9) * cmath.exp(1j * RNG.uniform(0.0, 2.0 * math.pi))
            assert region.contains(z), f"{region} claimed to contain {box} + {radius}"
            checked += 1
    assert checked > 1000


def test_min_dist_bound_is_lower_bound():
    for _ in range(2000):
        region = _random_region()
        p = complex(RNG.uniform(-3, 3), RNG.uniform(-3, 3))
        floor = region.min_dist_bound(p)
        assert floor >= 0.0
        # sample region members through rejection from its bounding box
        bb = region.bounding_box()
        hits = 0
        for _ in range(300):
            z = complex(RNG.uniform(bb.re_lo, bb.re_hi), RNG.uniform(bb.im_lo, bb.im_hi))
            if region.contains(z):
                hits += 1
                assert abs(z - p) >= floor
        if hits == 0:
            continue


def test_open_vs_closed_disk_edges():
    d_open = Disk(0j, 1.0)
    d_closed = Disk(0j, 1.0, closed=True)
    # point membership is exact: the rim belongs only to the closed disk
    assert not d_open.contains(1.0 + 0j)
    assert d_closed.contains(1.0 + 0j)
    # boxes that touch the rim exactly are undecidable under outward
    # rounding — conservative on both sides, never wrong
    rim = ComplexBox(0.0, 1.0, 0.0, 0.0)
    assert not _inside(d_open, rim)
    assert not _disjoint(d_open, ComplexBox(1.0, 2.0, 0.0, 0.0))
    # with any representable margin both tests decide
    assert _inside(d_closed, ComplexBox(0.0, 1.0 - 1e-9, 0.0, 0.0))
    assert _disjoint(d_open, ComplexBox(1.0 + 1e-9, 2.0, 0.0, 0.0))


@pytest.mark.parametrize("closed", [True, False], ids=["closed", "open"])
def test_half_strip_boxes_touching_an_edge(closed):
    # boxes that touch each edge exactly, from within and from outside: the
    # edge belongs to the closed strip only, and these ends are exact
    strip = HalfStrip(0.0, 1.0, 0.0, 1.0, closed=closed)
    within = [ComplexBox(0.0, 0.5, 0.25, 0.75), ComplexBox(0.5, 1.0, 0.25, 0.75),
              ComplexBox(0.25, 0.75, 0.0, 0.5), ComplexBox(0.25, 0.75, 0.5, 1.0)]
    outside = [ComplexBox(-0.5, 0.0, 0.25, 0.75), ComplexBox(1.0, 1.5, 0.25, 0.75),
               ComplexBox(0.25, 0.75, -0.5, 0.0), ComplexBox(0.25, 0.75, 1.0, 1.5)]
    assert strip.box_inside(Boxes.of(within)).tolist() == [closed] * 4
    assert strip.box_disjoint(Boxes.of(outside)).tolist() == [not closed] * 4
    assert [strip.contains(z) for z in (0.5j, 1.0 + 0.5j, 0.5, 0.5 + 1.0j)] == [closed] * 4


@pytest.mark.parametrize("region", [HalfStrip(0.0, 1.0, 0.0, 1.0, closed=True),
                                    HalfStrip(0.0, 1.0, 0.0, 1.0, closed=False),
                                    Disk(0j, 1.0, closed=True), Disk(0j, 1.0)],
                         ids=["closed-strip", "open-strip", "closed-disk", "open-disk"])
def test_a_nan_box_is_neither_inside_nor_disjoint(region):
    # disjointness is a comparison of its own, not the negation of an inside test
    nan = np.full(1, math.nan)
    b = boxes_of(nan, nan, nan, nan)
    assert not region.box_inside(b)[0] and not region.box_disjoint(b)[0]


def test_annulus_membership():
    ann = annulus(0j, 1.0, 2.0)
    assert ann.contains(1.5)
    assert ann.contains(1.0) and ann.contains(2.0)  # closed by default
    assert not ann.contains(0.5) and not ann.contains(2.5)
    open_ann = annulus(0j, 1.0, 2.0, closed=False)
    assert not open_ann.contains(1.0)
    hole_box = ComplexBox(-0.2, 0.2, -0.2, 0.2)
    assert _disjoint(ann, hole_box)


def test_half_strip_unbounded():
    strip = HalfStrip(-math.inf, 0.0, -math.pi / 2, math.pi / 2)
    assert strip.contains(-1000.0)
    assert not strip.contains(0.1)
    with pytest.raises(UnboundedRegionError):
        strip.bounding_box()
    interior = HalfStrip(-math.inf, 0.0, -math.pi / 2, math.pi / 2, closed=False)
    assert not interior.contains(0.0)
    b = ComplexBox(-5.0, -1.0, -1.0, 1.0)
    assert _inside(interior, b)
    assert not _inside(interior, ComplexBox(-5.0, 0.0, -1.0, 1.0))  # touches Re=0


def test_difference_region_matches_set_semantics():
    # closed disk of radius 2a with the open disk B(a, a/2) removed
    a = 2.0 ** -6
    delta = Difference(Disk(0j, 2 * a, closed=True), Disk(complex(a, 0.0), a / 2))
    assert delta.contains(0.0)
    assert delta.contains(-2 * a)
    assert not delta.contains(a)           # pole excised
    assert delta.contains(a / 2)           # rim of the removed open disk stays
    assert not delta.contains(2.5 * a)
    bb = delta.bounding_box()
    assert encloses(Boxes.of([bb]), [[2 * a, -2j * a]]).all()
    assert delta.min_dist_bound(0j) == 0.0  # 0 is a member
    assert delta.subtrahend.contains(a)


def test_union_box_inside_conservative_but_usable():
    u = Union(Disk(0j, 1.0, closed=True), Disk(2.0 + 0j, 1.0, closed=True))
    assert _inside(u, ComplexBox(-0.4, 0.4, -0.4, 0.4))
    assert _inside(u, ComplexBox(1.6, 2.4, -0.4, 0.4))
    # straddling box is undecided (conservative), never wrongly disjoint
    straddle = ComplexBox(0.8, 1.2, -0.1, 0.1)
    assert not _disjoint(u, straddle)


def test_min_dist_bound_annulus_hole():
    ann = annulus(0j, 0.5, 2.0)
    f = ann.min_dist_bound(0j)
    assert 0.49 < f <= 0.5
    f2 = ann.min_dist_bound(3.0 + 0j)
    assert 0.99 < f2 <= 1.0


def test_bounding_box_contains_exact_extreme_points():
    # the cover of a disk or annulus contains the exact points c +- r and
    # c +- i r, checked in exact rational arithmetic
    rng = random.Random(20261018)
    for _ in range(10_000):
        c = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        r = rng.uniform(0.0, 5.0)
        for region in (Disk(c, r, closed=True), annulus(c, 0.5 * r, r)):
            bb = region.bounding_box()
            x, y, rr = Fraction(c.real), Fraction(c.imag), Fraction(r)
            assert Fraction(bb.re_lo) <= x - rr and x + rr <= Fraction(bb.re_hi)
            assert Fraction(bb.im_lo) <= y - rr and y + rr <= Fraction(bb.im_hi)


def test_min_dist_bound_is_sound_near_the_rim():
    # points within ~1e-12 relative of a rim, where the floor is a few ulps
    # of |p - c| and an error there is not covered by ulps of the difference
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261019)

    def exact_dist(p, c):
        return mpmath.sqrt((mpmath.mpf(p.real) - mpmath.mpf(c.real)) ** 2
                           + (mpmath.mpf(p.imag) - mpmath.mpf(c.imag)) ** 2)

    def near(c, r, side):
        offset = r * 10.0 ** rng.uniform(-16, -12) * side
        return c + (r + offset) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))

    checked = 0
    with mpmath.workprec(200):
        for _ in range(3000):
            c = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            r_in = rng.uniform(0.1, 1.0)
            r_out = r_in + rng.uniform(0.1, 1.5)
            disk = Disk(c, r_out, closed=rng.random() < 0.5)
            ann = annulus(c, r_in, r_out, closed=rng.random() < 0.5)
            p = near(c, r_out, 1.0)
            d = exact_dist(p, c)
            assert disk.min_dist_bound(p) <= max(0, d - mpmath.mpf(r_out))
            assert ann.min_dist_bound(p) <= max(0, d - mpmath.mpf(r_out))
            q = near(c, r_in, -1.0)
            assert ann.min_dist_bound(q) <= max(0, mpmath.mpf(r_in) - exact_dist(q, c))
            checked += d > r_out
            # an off-centre disk hole: the floor is sound at its rim and
            # positive once a point is a little way into it
            c2 = c + complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            holed = Difference(Disk(c, r_out + 1.0, closed=True), Disk(c2, r_in))
            q = near(c2, r_in, -1.0)
            assert holed.min_dist_bound(q) <= max(0, mpmath.mpf(r_in) - exact_dist(q, c2))
            depth = r_in * rng.uniform(1e-3, 1.0)
            q = c2 + (r_in - depth) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
            assert 0 < holed.min_dist_bound(q) <= mpmath.mpf(r_in) - exact_dist(q, c2)
    assert checked > 2000
