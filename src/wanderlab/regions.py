"""Plane-set algebra over a small closed vocabulary.

Disks, annuli, axis-aligned rectangles, half-strips, and their unions and
differences.  Each shape answers three questions about an axis-aligned box:
is the box certainly inside, certainly disjoint, or undecided.  Both box
tests are conservative — a *true* answer is a guarantee, a *false* answer
only means "could not tell at this box size" and invites subdivision.
They take a batch of boxes (`Boxes`; one box is a batch of one) and
answer with one bool per box; unions and differences combine their parts'
answers with | and &.  Bounding boxes are rounded outward, so the
cover they start from contains the exact region.

The open/closed flag matters at the certificate layer: proving an image
lands in an *open* disk needs strict inequalities on the box bounds.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce

from .numerics import ComplexBox, _out_hi, _out_lo, box_mag, box_mig

_INF = math.inf


class UnboundedRegionError(ValueError):
    """A bounding box was requested for a region of infinite extent."""


def _cover(center: complex, r: float) -> ComplexBox:
    """A box containing the closed disk of radius r about center, rounded outward."""
    return ComplexBox(_out_lo(center.real - r), _out_hi(center.real + r),
                      _out_lo(center.imag - r), _out_hi(center.imag + r))


@dataclass(frozen=True)
class Region:
    def contains(self, z: complex) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def box_inside(self, b):  # pragma: no cover - abstract
        """Per box of the batch b: certainly inside?"""
        raise NotImplementedError

    def box_disjoint(self, b):  # pragma: no cover - abstract
        """Per box of the batch b: certainly disjoint?"""
        raise NotImplementedError

    def bounding_box(self) -> ComplexBox:  # pragma: no cover - abstract
        raise NotImplementedError

    def min_dist_bound(self, p: complex) -> float:
        """Certified lower bound for inf{ |z - p| : z in region }.

        Used as the floor of modulus lower bounds on boxes that straddle
        the region boundary (where the box minimum alone degenerates to 0).
        The default 0.0 is always sound.
        """
        return 0.0


@dataclass(frozen=True)
class Disk(Region):
    """|z - center| < radius (open, the default) or <= radius (closed)."""

    center: complex
    radius: float
    closed: bool = False

    def __post_init__(self):
        if not self.radius >= 0.0:   # NaN too
            raise ValueError(f"disk radius must be >= 0, got {self.radius!r}")
        object.__setattr__(self, "center", complex(self.center))

    def contains(self, z: complex) -> bool:
        d = abs(complex(z) - self.center)
        return d <= self.radius if self.closed else d < self.radius

    def box_inside(self, b):
        m = box_mag(b, self.center)
        return m <= self.radius if self.closed else m < self.radius

    def box_disjoint(self, b):
        m = box_mig(b, self.center)
        return m > self.radius if self.closed else m >= self.radius

    def bounding_box(self) -> ComplexBox:
        return _cover(self.center, self.radius)

    def min_dist_bound(self, p: complex) -> float:
        d = abs(complex(p) - self.center) - self.radius
        return max(0.0, _out_lo(d, ulps=3))


@dataclass(frozen=True)
class Annulus(Region):
    """r_in <= |z - center| <= r_out (closed, the default) or both strict."""

    center: complex
    r_in: float
    r_out: float
    closed: bool = True

    def __post_init__(self):
        if not (0.0 <= self.r_in <= self.r_out):
            raise ValueError("annulus radii must satisfy 0 <= r_in <= r_out")
        object.__setattr__(self, "center", complex(self.center))

    def contains(self, z: complex) -> bool:
        d = abs(complex(z) - self.center)
        if self.closed:
            return self.r_in <= d <= self.r_out
        return self.r_in < d < self.r_out

    def box_inside(self, b):
        lo = box_mig(b, self.center)
        hi = box_mag(b, self.center)
        if self.closed:
            return (lo >= self.r_in) & (hi <= self.r_out)
        return (lo > self.r_in) & (hi < self.r_out)

    def box_disjoint(self, b):
        lo = box_mig(b, self.center)
        hi = box_mag(b, self.center)
        if self.closed:
            return (hi < self.r_in) | (lo > self.r_out)
        return (hi <= self.r_in) | (lo >= self.r_out)

    def bounding_box(self) -> ComplexBox:
        return _cover(self.center, self.r_out)

    def min_dist_bound(self, p: complex) -> float:
        d = abs(complex(p) - self.center)
        if d < self.r_in:
            gap = self.r_in - d
        elif d > self.r_out:
            gap = d - self.r_out
        else:
            gap = 0.0
        return max(0.0, _out_lo(gap, ulps=3))


@dataclass(frozen=True)
class HalfStrip(Region):
    """Axis-aligned strip re_lo <= Re z <= re_hi, im_lo <= Im z <= im_hi.

    re_lo may be -inf (strip escaping leftward).  With closed=False every
    inequality is strict, which models the interior of the closed strip.
    """

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float
    closed: bool = True

    def __post_init__(self):
        if not (self.re_lo <= self.re_hi and self.im_lo <= self.im_hi):
            raise ValueError("inverted strip bounds")

    def contains(self, z: complex) -> bool:
        z = complex(z)
        if self.closed:
            return (self.re_lo <= z.real <= self.re_hi
                    and self.im_lo <= z.imag <= self.im_hi)
        return (self.re_lo < z.real < self.re_hi
                and self.im_lo < z.imag < self.im_hi)

    def box_inside(self, b):
        if self.closed:
            return ((self.re_lo <= b.re_lo) & (b.re_hi <= self.re_hi)
                    & (self.im_lo <= b.im_lo) & (b.im_hi <= self.im_hi))
        return ((self.re_lo < b.re_lo) & (b.re_hi < self.re_hi)
                & (self.im_lo < b.im_lo) & (b.im_hi < self.im_hi))

    def box_disjoint(self, b):
        if self.closed:
            return ((b.re_hi < self.re_lo) | (b.re_lo > self.re_hi)
                    | (b.im_hi < self.im_lo) | (b.im_lo > self.im_hi))
        return ((b.re_hi <= self.re_lo) | (b.re_lo >= self.re_hi)
                | (b.im_hi <= self.im_lo) | (b.im_lo >= self.im_hi))

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


def BoxRegion(b: ComplexBox, closed: bool = True) -> HalfStrip:
    """Rectangle region backed by the strip machinery."""
    return HalfStrip(b.re_lo, b.re_hi, b.im_lo, b.im_hi, closed=closed)


@dataclass(frozen=True)
class Union(Region):
    parts: tuple[Region, ...]

    def __init__(self, *parts: Region):
        if not parts:
            raise ValueError("empty union")
        object.__setattr__(self, "parts", tuple(parts))

    def contains(self, z: complex) -> bool:
        return any(p.contains(z) for p in self.parts)

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


@dataclass(frozen=True)
class Difference(Region):
    """minuend with the subtrahend removed."""

    minuend: Region
    subtrahend: Region

    def contains(self, z: complex) -> bool:
        return self.minuend.contains(z) and not self.subtrahend.contains(z)

    def box_inside(self, b):
        return self.minuend.box_inside(b) & self.subtrahend.box_disjoint(b)

    def box_disjoint(self, b):
        return self.minuend.box_disjoint(b) | self.subtrahend.box_inside(b)

    def bounding_box(self) -> ComplexBox:
        return self.minuend.bounding_box()

    def min_dist_bound(self, p: complex) -> float:
        # sound because the difference is a subset of the minuend
        return self.minuend.min_dist_bound(p)
