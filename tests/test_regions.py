"""Conservatism of the box-vs-region tests: true answers are guarantees."""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from oracles import boxes_of, contains_exact, encloses
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


def _point_in(region: Region, z) -> bool:
    """The library's membership of z: its point box is inside."""
    return bool(region.box_inside(Boxes.point(z))[0])


def _point_out(region: Region, z) -> bool:
    """The library's non-membership of z: its point box is disjoint."""
    return bool(region.box_disjoint(Boxes.point(z))[0])


def _on_rim(region: Region, z) -> bool:
    """The exact answer for a point on a disk's rim, where outward rounding
    leaves the library's point box neither inside nor disjoint."""
    assert not _point_in(region, z) and not _point_out(region, z)
    return contains_exact(region, z)


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
                assert contains_exact(region, z), f"{region} claimed to contain {box}"
                checked_inside += 1
            else:
                assert not contains_exact(region, z), f"{region} claimed disjoint from {box}"
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
            assert contains_exact(region, z), f"{region} claimed to contain {box} + {radius}"
            checked += 1
    assert checked > 1000


def test_min_dist_bound_is_lower_bound():
    for _ in range(2000):
        region = _random_region()
        p = complex(RNG.uniform(-3, 3), RNG.uniform(-3, 3))
        floor = region.min_dist_bound(p)
        assert floor >= 0.0
        # sample the bounding box: no member lies nearer p than the floor
        # (the distance is tested first, as the exact membership costs more)
        bb = region.bounding_box()
        for _ in range(300):
            z = complex(RNG.uniform(bb.re_lo, bb.re_hi), RNG.uniform(bb.im_lo, bb.im_hi))
            assert abs(z - p) >= floor or not contains_exact(region, z)


def test_open_vs_closed_disk_edges():
    d_open = Disk(0j, 1.0)
    d_closed = Disk(0j, 1.0, closed=True)
    # the rim belongs only to the closed disk; a point box on it is
    # undecided under outward rounding, as any box touching the rim is
    assert not _on_rim(d_open, 1.0 + 0j)
    assert _on_rim(d_closed, 1.0 + 0j)
    assert _point_in(d_open, 1.0 - 1e-9) and _point_out(d_closed, 1.0 + 1e-9)
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
    edges = Boxes.point(np.array([0.5j, 1.0 + 0.5j, 0.5, 0.5 + 1.0j]))
    assert strip.box_inside(edges).tolist() == [closed] * 4
    assert strip.box_disjoint(edges).tolist() == [not closed] * 4


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
    assert _point_in(ann, 1.5)
    assert _on_rim(ann, 1.0) and _on_rim(ann, 2.0)  # closed by default
    assert _point_out(ann, 0.5) and _point_out(ann, 2.5)
    open_ann = annulus(0j, 1.0, 2.0, closed=False)
    assert not _on_rim(open_ann, 1.0)
    hole_box = ComplexBox(-0.2, 0.2, -0.2, 0.2)
    assert _disjoint(ann, hole_box)


def test_half_strip_unbounded():
    strip = HalfStrip(-math.inf, 0.0, -math.pi / 2, math.pi / 2)
    assert _point_in(strip, -1000.0)
    assert _point_out(strip, 0.1)
    with pytest.raises(UnboundedRegionError):
        strip.bounding_box()
    interior = HalfStrip(-math.inf, 0.0, -math.pi / 2, math.pi / 2, closed=False)
    assert _point_out(interior, 0.0)   # a strip's edges compare exactly
    b = ComplexBox(-5.0, -1.0, -1.0, 1.0)
    assert _inside(interior, b)
    assert not _inside(interior, ComplexBox(-5.0, 0.0, -1.0, 1.0))  # touches Re=0


def test_difference_region_matches_set_semantics():
    # closed disk of radius 2a with the open disk B(a, a/2) removed
    a = 2.0 ** -6
    delta = Difference(Disk(0j, 2 * a, closed=True), Disk(complex(a, 0.0), a / 2))
    assert _point_in(delta, 0.0)
    assert _on_rim(delta, -2 * a)
    assert _point_out(delta, a)            # pole excised
    assert _on_rim(delta, a / 2)           # rim of the removed open disk stays
    assert _point_out(delta, 2.5 * a)
    bb = delta.bounding_box()
    assert encloses(Boxes.of([bb]), [[2 * a, -2j * a]]).all()
    assert delta.min_dist_bound(0j) == 0.0  # 0 is a member
    assert _point_in(delta.subtrahend, a)


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


def _jitter(z: complex, rng: random.Random, ulps: int = 4) -> complex:
    """z with each part moved by up to ulps units in its last place."""
    return complex(z.real + rng.randint(-ulps, ulps) * math.ulp(z.real),
                   z.imag + rng.randint(-ulps, ulps) * math.ulp(z.imag))


def _circle(c: complex, r: float):
    return lambda rng: c + r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _strip_edges(re_lo, re_hi, im_lo, im_hi):
    def edge(rng):
        x, y = rng.uniform(max(re_lo, re_hi - 4.0), re_hi), rng.uniform(im_lo, im_hi)
        return rng.choice([complex(re_hi, y), complex(x, im_lo), complex(x, im_hi)]
                          + ([complex(re_lo, y)] if math.isfinite(re_lo) else []))
    return edge


# per region kind: the regions, and the rims a point near one is drawn from
_RIMS = {
    "disk": ([Disk(0.3 + 0.7j, 0.9), Disk(0.3 + 0.7j, 0.9, closed=True), Disk(0j, 1.0)],
             [_circle(0.3 + 0.7j, 0.9), _circle(0j, 1.0)]),
    "half_strip": ([HalfStrip(-math.inf, 0.5, -0.25, 1.0),
                    HalfStrip(-math.inf, 0.5, -0.25, 1.0, closed=False),
                    HalfStrip(-0.1, 0.5, -0.25, 1.0, closed=False)],
                   [_strip_edges(-math.inf, 0.5, -0.25, 1.0),
                    _strip_edges(-0.1, 0.5, -0.25, 1.0)]),
    "union": ([Union(Disk(0j, 1.0), Disk(1.5 + 0.2j, 0.75, closed=True))],
              [_circle(0j, 1.0), _circle(1.5 + 0.2j, 0.75)]),
    "difference": ([annulus(0.1 - 0.2j, 0.4, 1.3), annulus(0.1 - 0.2j, 0.4, 1.3, closed=False)],
                   [_circle(0.1 - 0.2j, 0.4), _circle(0.1 - 0.2j, 1.3)]),
}


@pytest.mark.parametrize("kind", sorted(_RIMS))
def test_point_box_test_agrees_with_exact_membership_near_the_rim(kind):
    # points within 4 ulps of a rim: the point box is never inside a region
    # the point lies outside of, nor disjoint from one it lies in
    regions, rims = _RIMS[kind]
    rng = random.Random(20261021)
    seen = {True: 0, False: 0}
    for _ in range(2000):
        z = _jitter(rng.choice(rims)(rng), rng)
        for region in regions:
            member = contains_exact(region, z)
            seen[member] += 1
            assert not (_point_in(region, z) and not member), (region, z)
            assert not (_point_out(region, z) and member), (region, z)
    assert min(seen.values()) > 500
