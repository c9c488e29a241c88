"""Plane-set algebra over a small closed vocabulary.

Disks, axis-aligned rectangles, half-strips, and their unions and
differences; an annulus is a disk minus a disk (`annulus`).  Each shape
answers three questions about an axis-aligned box: is the box certainly
inside, certainly disjoint, or undecided.  Both box tests are
conservative — a *true* answer is a guarantee, a *false* answer only
means "could not tell at this box size" and invites subdivision.
They take a batch of boxes (`Boxes`; one box is a batch of one) and
answer with one bool per box; unions and differences combine their parts'
answers with | and &.  A point is a zero-width box (`Boxes.point`), so
the box tests are the only membership rule: a point within rounding of a
disk's rim is neither inside nor disjoint.  `ball_inside` asks whether
the points within a radius of each box are certainly inside: a disk tests
box_mag + radius, every other shape the inflated box.  Bounding boxes are
rounded outward, so the cover they start from contains the exact region.

The open/closed flag matters at the certificate layer: proving an image
lands in an *open* disk needs strict inequalities on the box bounds.
`_within` and `_apart` own that choice for every shape.
"""
from __future__ import annotations

import math
import operator
from functools import reduce

from .numerics import ComplexBox, _out_hi, _out_lo, box_inflate, box_mag, box_mig


class UnboundedRegionError(ValueError):
    """A bounding box was requested for a region of infinite extent."""


def _within(closed: bool):
    """How a box end compares with a boundary it must not cross:
    <= for a closed set, < for an open one."""
    return operator.le if closed else operator.lt


def _apart(closed: bool):
    """How a box end compares with a boundary it lies beyond, for the box to
    miss the set: > for a closed set, >= for an open one.  A positive
    comparison, not the negation of an inside test, so NaN is never apart."""
    return operator.gt if closed else operator.ge


def _cover(center: complex, r: float) -> ComplexBox:
    """A box containing the closed disk of radius r about center, rounded outward."""
    return ComplexBox(_out_lo(center.real - r), _out_hi(center.real + r),
                      _out_lo(center.imag - r), _out_hi(center.imag + r))


class Region:
    __slots__ = ()

    def __eq__(self, other):
        """Shapes of one class with equal fields (parts compare in turn)."""
        if type(other) is not type(self):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def box_inside(self, b):  # pragma: no cover - abstract
        """Per box of the batch b: certainly inside?"""
        raise NotImplementedError

    def box_disjoint(self, b):  # pragma: no cover - abstract
        """Per box of the batch b: certainly disjoint?"""
        raise NotImplementedError

    def bounding_box(self) -> ComplexBox:  # pragma: no cover - abstract
        raise NotImplementedError

    def ball_inside(self, centres, radius):
        """Per box of the batch centres: is every point within radius of
        the box certainly inside?"""
        return self.box_inside(box_inflate(centres, radius))

    def min_dist_bound(self, p: complex) -> float:
        """Certified lower bound for inf{ |z - p| : z in region }.

        Used as the floor of modulus lower bounds on boxes that straddle
        the region boundary (where the box minimum alone degenerates to 0).
        The default 0.0 is always sound.
        """
        return 0.0

    def inner_gap(self, p: complex) -> float:
        """Certified lower bound for inf{ |z - p| : z not in region }.

        A difference takes its subtrahend's gap as a distance floor.  The
        default 0.0 is always sound.
        """
        return 0.0


class Disk(Region):
    """|z - center| < radius (open, the default) or <= radius (closed)."""

    __slots__ = ("center", "radius", "closed")

    def __init__(self, center: complex, radius: float, closed: bool = False):
        if not radius >= 0.0:   # NaN too
            raise ValueError(f"disk radius must be >= 0, got {radius!r}")
        self.center, self.radius, self.closed = complex(center), radius, closed

    def box_inside(self, b):
        return _within(self.closed)(box_mag(b, self.center), self.radius)

    def box_disjoint(self, b):
        return _apart(self.closed)(box_mig(b, self.center), self.radius)

    def ball_inside(self, centres, radius):
        # the ball's points lie within box_mag + radius of the centre, which
        # is tighter than the box_mag of the inflated box
        return _within(self.closed)(_out_hi(box_mag(centres, self.center) + radius),
                                    self.radius)

    def bounding_box(self) -> ComplexBox:
        return _cover(self.center, self.radius)

    def min_dist_bound(self, p: complex) -> float:
        # |p - c| is rounded down before the subtraction: ulps of the
        # difference alone do not cover the error of |p - c|
        d = _out_lo(abs(complex(p) - self.center), ulps=3)
        return max(0.0, _out_lo(d - self.radius))

    def inner_gap(self, p: complex) -> float:
        # rounded up here, for the same reason; outside the disk it is 0
        d = _out_hi(abs(complex(p) - self.center), ulps=3)
        return max(0.0, _out_lo(self.radius - d))


class HalfStrip(Region):
    """Axis-aligned strip re_lo <= Re z <= re_hi, im_lo <= Im z <= im_hi.

    re_lo may be -inf (strip escaping leftward).  With closed=False every
    inequality is strict, which models the interior of the closed strip.
    """

    __slots__ = ("re_lo", "re_hi", "im_lo", "im_hi", "closed")

    def __init__(self, re_lo: float, re_hi: float, im_lo: float, im_hi: float,
                 closed: bool = True):
        if not (re_lo <= re_hi and im_lo <= im_hi):
            raise ValueError("inverted strip bounds")
        self.re_lo, self.re_hi, self.im_lo, self.im_hi = re_lo, re_hi, im_lo, im_hi
        self.closed = closed

    def box_inside(self, b):
        within = _within(self.closed)
        return (within(self.re_lo, b.re_lo) & within(b.re_hi, self.re_hi)
                & within(self.im_lo, b.im_lo) & within(b.im_hi, self.im_hi))

    def box_disjoint(self, b):
        apart = _apart(self.closed)
        return (apart(self.re_lo, b.re_hi) | apart(b.re_lo, self.re_hi)
                | apart(self.im_lo, b.im_hi) | apart(b.im_lo, self.im_hi))

    def bounding_box(self) -> ComplexBox:
        if math.isinf(self.re_lo) or math.isinf(self.re_hi) \
                or math.isinf(self.im_lo) or math.isinf(self.im_hi):
            raise UnboundedRegionError("half-strip extends to infinity")
        return ComplexBox(self.re_lo, self.re_hi, self.im_lo, self.im_hi)

    def min_dist_bound(self, p: complex) -> float:
        p = complex(p)
        dx = max(self.re_lo - p.real, p.real - self.re_hi, 0.0)
        dy = max(self.im_lo - p.imag, p.imag - self.im_hi, 0.0)
        return max(0.0, _out_lo(math.hypot(dx, dy), ulps=3))


class Union(Region):
    __slots__ = ("parts",)

    def __init__(self, *parts: Region):
        if not parts:
            raise ValueError("empty union")
        self.parts = parts

    def box_inside(self, b):
        # conservative: a box covered jointly by two parts but by neither
        # alone reports False and gets subdivided
        return reduce(operator.or_, (p.box_inside(b) for p in self.parts))

    def box_disjoint(self, b):
        return reduce(operator.and_, (p.box_disjoint(b) for p in self.parts))

    def bounding_box(self) -> ComplexBox:
        acc = self.parts[0].bounding_box()
        for p in self.parts[1:]:
            acc = acc.hull(p.bounding_box())
        return acc

    def min_dist_bound(self, p: complex) -> float:
        return min(part.min_dist_bound(p) for part in self.parts)


class Difference(Region):
    """minuend with the subtrahend removed."""

    __slots__ = ("minuend", "subtrahend")

    def __init__(self, minuend: Region, subtrahend: Region):
        self.minuend, self.subtrahend = minuend, subtrahend

    def box_inside(self, b):
        return self.minuend.box_inside(b) & self.subtrahend.box_disjoint(b)

    def box_disjoint(self, b):
        return self.minuend.box_disjoint(b) | self.subtrahend.box_inside(b)

    def bounding_box(self) -> ComplexBox:
        return self.minuend.bounding_box()

    def min_dist_bound(self, p: complex) -> float:
        # sound because the difference lies inside the minuend and outside
        # the subtrahend
        return max(self.minuend.min_dist_bound(p), self.subtrahend.inner_gap(p))


def annulus(center: complex, r_in: float, r_out: float, closed: bool = True) -> Difference:
    """r_in <= |z - center| <= r_out (closed, the default) or both strict."""
    if not (0.0 <= r_in <= r_out):
        raise ValueError("annulus radii must satisfy 0 <= r_in <= r_out")
    return Difference(Disk(center, r_out, closed), Disk(center, r_in, not closed))
