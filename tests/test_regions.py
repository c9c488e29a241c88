"""Conservatism of the box-vs-region tests: true answers are guarantees."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from oracles import encloses
from wanderlab.numerics import Boxes, ComplexBox
from wanderlab.regions import (
    Annulus,
    BoxRegion,
    Difference,
    Disk,
    HalfStrip,
    Region,
    UnboundedRegionError,
    Union,
)

RNG = random.Random(77345)


def _random_region() -> Region:
    kind = RNG.randrange(5)
    c = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
    if kind == 0:
        return Disk(c, RNG.uniform(0.1, 2.0), closed=RNG.random() < 0.5)
    if kind == 1:
        r_in = RNG.uniform(0.05, 1.0)
        return Annulus(c, r_in, r_in + RNG.uniform(0.1, 1.5), closed=RNG.random() < 0.5)
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


def test_annulus_membership():
    ann = Annulus(0j, 1.0, 2.0)
    assert ann.contains(1.5)
    assert ann.contains(1.0) and ann.contains(2.0)  # closed by default
    assert not ann.contains(0.5) and not ann.contains(2.5)
    open_ann = Annulus(0j, 1.0, 2.0, closed=False)
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


def test_box_region_roundtrip():
    b = ComplexBox(-1.0, 2.0, 0.0, 1.0)
    r = BoxRegion(b)
    assert r.contains(0.5 + 0.5j)
    assert _inside(r, b)
    assert r.bounding_box() == b


def test_min_dist_bound_annulus_hole():
    ann = Annulus(0j, 0.5, 2.0)
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
        for region in (Disk(c, r, closed=True), Annulus(c, 0.5 * r, r)):
            bb = region.bounding_box()
            x, y, rr = Fraction(c.real), Fraction(c.imag), Fraction(r)
            assert Fraction(bb.re_lo) <= x - rr and x + rr <= Fraction(bb.re_hi)
            assert Fraction(bb.im_lo) <= y - rr and y + rr <= Fraction(bb.im_hi)
