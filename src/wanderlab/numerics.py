"""Rigorous complex rectangle arithmetic over numpy arrays.

Every operation takes axis-aligned rectangles (boxes) in the complex plane
and returns a box guaranteed to contain the exact image set.  Soundness
comes from epsilon-inflation rather than directed rounding: after each
endpoint computation the interval width is multiplied by (1 + 2^-40) and
each endpoint is pushed one ulp outward (two ulps around libm calls, which
are faithful but not correctly rounded).  The resulting slack is many
orders of magnitude below any margin the certificate layer relies on, and
it keeps the arithmetic portable: no fesetround, no MPFR.

An ulp outward is one arithmetic step under the default round-to-nearest,
x +- (|x| H + 2^-1074) with H = 2^-53 (1 + 2^-52), a hair over half an ulp
of x.  For normal x the step is more than half the gap from x to its
neighbour that way and at most a hair (2^-51 relative) over the whole gap,
so round-to-nearest takes the exact x +- step to that neighbour:
np.nextafter's result, bit for bit.  The 2^-1074 term keeps the step from
vanishing where |x| H underflows.  While x and the result both have
magnitude at least 2^-1020 the step lands on the neighbour; below that, or
stepping toward 0 from +-2^-1020, |x| H rounds as a subnormal and a step
may go two ulps, never fewer than one.  An infinite end stays put outward
and becomes NaN inward; NaN stays NaN.

Each op is written once, over arrays.  A batch of n boxes (`Boxes`) is four
float64 endpoint arrays plus one reason code per box: NONE, POLE (a
reciprocal of a box that touches 0) or OVERFLOW (an endpoint that is inf
or NaN).  One rule, `_first_code`, picks every code, here and in the map
and certificate layers: the first code set among the inputs, else
OVERFLOW where the value is not finite.  An op's inputs are its arguments
(then a reciprocal's POLE), so an expression evaluated in post-order
carries the code of its first failing step; endpoints of a box with a code
are unspecified.  The `box_*` ops take and return `Boxes` only; a single box
is a batch of one (`Boxes.of([box])`).  `ComplexBox` is the plain record
of one rectangle, for raster windows and region bounding boxes.
Intervals of the `iv_*` layer are (lo, hi) pairs of arrays or of floats.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_WIDTH_INFLATE = 2.0 ** -41  # applied per endpoint, so width grows by 2^-40
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_HALF_ULP = 2.0 ** -53 * (1.0 + 2.0 ** -52)  # |x| times this is a hair over half an ulp of x
_TINY = 2.0 ** -1074  # the smallest subnormal: the step never rounds to 0

NONE, POLE, OVERFLOW = 0, 1, 2  # reason codes of a box in a batch


class PoleIntersect(ArithmeticError):
    """A reciprocal was requested of a box whose modulus range reaches zero."""


def _out_lo(x, ulps: int = 1):
    """x stepped ulps floats down, each step x - (|x| H + 2^-1074) (see the
    module docstring); x is an array or a float."""
    for _ in range(ulps):
        step = np.abs(x)      # a new array or scalar: the in-place ops leave x alone
        step *= _HALF_ULP
        step += _TINY
        x = x - step
    return x


def _out_hi(x, ulps: int = 1):
    """x stepped ulps floats up, each step x + (|x| H + 2^-1074)."""
    for _ in range(ulps):
        step = np.abs(x)
        step *= _HALF_ULP
        step += _TINY
        x = x + step
    return x


def _widen(lo, hi, ulps: int = 1):
    pad = (hi - lo) * _WIDTH_INFLATE
    return _out_lo(lo - pad, ulps), _out_hi(hi + pad, ulps)


# ---------------------------------------------------------------------------
# Real interval layer.  Intervals are (lo, hi) pairs; every function returns
# an outward-widened result.
# ---------------------------------------------------------------------------

def iv_add(a, b):
    return _widen(a[0] + b[0], a[1] + b[1])


def iv_sub(a, b):
    return _widen(a[0] - b[1], a[1] - b[0])


def iv_neg(a):
    return (-a[1], -a[0])


def iv_mul(a, b):
    p0 = a[0] * b[0]
    p1 = a[0] * b[1]
    p2 = a[1] * b[0]
    p3 = a[1] * b[1]
    return _widen(np.minimum(np.minimum(p0, p1), np.minimum(p2, p3)),
                  np.maximum(np.maximum(p0, p1), np.maximum(p2, p3)))


def iv_sq(a):
    lo, hi = a
    pos, neg = lo >= 0.0, hi <= 0.0
    m = np.maximum(-lo, hi)
    return _widen(np.where(pos, lo * lo, np.where(neg, hi * hi, 0.0)),
                  np.where(pos, hi * hi, np.where(neg, lo * lo, m * m)))


def iv_recip(a):
    """1 / interval.  Raises PoleIntersect when any interval reaches zero."""
    lo, hi = a
    if np.any((lo <= 0.0) & (0.0 <= hi)):
        raise PoleIntersect("interval straddles zero")
    return _widen(1.0 / hi, 1.0 / lo)


def iv_exp(a):
    return _widen(np.exp(a[0]), np.exp(a[1]), ulps=2)


def iv_cosh(a):
    lo, hi = a
    top = np.cosh(np.maximum(-lo, hi))
    bot = np.where((lo <= 0.0) & (0.0 <= hi), 1.0,
                   np.cosh(np.minimum(np.abs(lo), np.abs(hi))))
    return _widen(bot, top, ulps=2)


def iv_sinh(a):
    return _widen(np.sinh(a[0]), np.sinh(a[1]), ulps=2)


def _trig_range(a, fn, peak: float):
    """Range of sin (peak = pi/2) or cos (peak = 0) over [lo, hi].

    The endpoint values, with 1 where a maximum c + 2k pi (c = peak) lies in
    [lo - s, hi + s], and -1 where a minimum (c = peak - pi) does; that is
    iff floor((hi + s - c) / 2pi) >= ceil((lo - s - c) / 2pi).

    Error bound: s is 4 ulps u of M = max(|lo|, |hi|, 2pi), and a quotient
    errs, in units of its numerator, by at most u each for rounding hi + s
    and the subtraction (the numerator is below 1.5 M), 2pi u / 8 for the
    division (the quotient is below M / 4), 0.53 u for fl(2pi) (3.9e-17
    relative) and 0.14 u for fl(pi/2) or fl(pi): 3.46 u < s, so no extremum
    in [lo, hi] is missed (about 0.27 against s = 0.5 at |x| = 1e15).  The
    floor of M at 2pi, not 1, is what makes these bounds hold below
    |x| = 2pi; it moves no result, as an endpoint within s of an extremum
    there has a value within an ulp of +-1.  Intervals 2pi or wider, or
    with an end past 1e15, get [-1, 1].
    """
    lo, hi = a
    wide = (hi - lo >= _TWO_PI) | (np.abs(lo) > 1e15) | (np.abs(hi) > 1e15)
    f_lo, f_hi = fn(lo), fn(hi)
    s = 4.0 * np.spacing(np.maximum(np.maximum(np.abs(lo), np.abs(hi)), _TWO_PI))
    up, down = hi + s, lo - s

    def meets(c):
        return np.floor((up - c) / _TWO_PI) >= np.ceil((down - c) / _TWO_PI)

    top = np.where(meets(peak), 1.0, np.maximum(f_lo, f_hi))
    bot = np.where(meets(peak - math.pi), -1.0, np.minimum(f_lo, f_hi))
    vlo, vhi = _widen(bot, top, ulps=2)
    return (np.where(wide, -1.0, np.maximum(vlo, -1.0)),
            np.where(wide, 1.0, np.minimum(vhi, 1.0)))


def iv_sin(a):
    return _trig_range(a, np.sin, _HALF_PI)


def iv_cos(a):
    return _trig_range(a, np.cos, 0.0)


# ---------------------------------------------------------------------------
# Boxes: the record of one rectangle, and a batch of them.
# ---------------------------------------------------------------------------

def box_mag(b: Boxes, center: complex = 0j) -> np.ndarray:
    """Upper bound for |z - center| over each box of a batch."""
    c = complex(center)
    dx = np.maximum(np.abs(b.re_lo - c.real), np.abs(b.re_hi - c.real))
    dy = np.maximum(np.abs(b.im_lo - c.imag), np.abs(b.im_hi - c.imag))
    return _out_hi(np.hypot(_out_hi(dx), _out_hi(dy)), ulps=2)


def box_mig(b: Boxes, center: complex = 0j) -> np.ndarray:
    """Lower bound for |z - center| over each box (0 where the center is inside)."""
    c = complex(center)
    dx = np.where((b.re_lo <= c.real) & (c.real <= b.re_hi), 0.0,
                  np.minimum(np.abs(b.re_lo - c.real), np.abs(b.re_hi - c.real)))
    dy = np.where((b.im_lo <= c.imag) & (c.imag <= b.im_hi), 0.0,
                  np.minimum(np.abs(b.im_lo - c.imag), np.abs(b.im_hi - c.imag)))
    return np.maximum(0.0, _out_lo(np.hypot(dx, dy), ulps=3))


def box_quarters(re_lo, re_hi, im_lo, im_hi):
    """The four quarters of each box along a new last axis: lower left,
    lower right, upper left, upper right."""
    rm = 0.5 * (re_lo + re_hi)
    im = 0.5 * (im_lo + im_hi)
    return (np.stack([re_lo, rm, re_lo, rm], axis=-1),
            np.stack([rm, re_hi, rm, re_hi], axis=-1),
            np.stack([im_lo, im_lo, im, im], axis=-1),
            np.stack([im, im, im_hi, im_hi], axis=-1))


@dataclass(frozen=True)
class ComplexBox:
    """Axis-aligned rectangle { x + i y : re_lo <= x <= re_hi, im_lo <= y <= im_hi }."""

    re_lo: float
    re_hi: float
    im_lo: float
    im_hi: float

    def __post_init__(self):
        if not (self.re_lo <= self.re_hi and self.im_lo <= self.im_hi):   # NaN too
            raise ValueError(f"box bounds must satisfy lo <= hi and not be NaN: {self}")

    def hull(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(min(self.re_lo, other.re_lo), max(self.re_hi, other.re_hi),
                          min(self.im_lo, other.im_lo), max(self.im_hi, other.im_hi))


class Boxes(NamedTuple):
    """A batch of boxes: four endpoint arrays and a uint8 reason code per box."""

    re_lo: np.ndarray
    re_hi: np.ndarray
    im_lo: np.ndarray
    im_hi: np.ndarray
    why: np.ndarray

    @property
    def re(self):
        return (self.re_lo, self.re_hi)

    @property
    def im(self):
        return (self.im_lo, self.im_hi)

    @staticmethod
    def of(boxes) -> "Boxes":
        """The batch of the given ComplexBoxes, with no reason codes set."""
        ends = np.array([(b.re_lo, b.re_hi, b.im_lo, b.im_hi) for b in boxes],
                        dtype=np.float64).reshape(-1, 4)
        return Boxes(*np.ascontiguousarray(ends.T), np.zeros(len(ends), np.uint8))

    @staticmethod
    def point(z: complex, n: int) -> "Boxes":
        """n copies of the point box at z."""
        z = complex(z)
        re, im = np.full(n, z.real), np.full(n, z.imag)
        return Boxes(re, re, im, im, np.zeros(n, np.uint8))


def _first_code(finite, *codes) -> np.ndarray:
    """Per box, the first of the code arrays whose entry is set, else
    OVERFLOW where finite is false, else NONE.  Every reason code of a
    result is chosen by this rule."""
    why = np.logical_not(finite).astype(np.uint8) * OVERFLOW
    for code in reversed(codes):
        why = np.where(code != NONE, code, why)
    return why


def _result(re, im, *args: Boxes, pole=None) -> Boxes:
    """An op's output boxes, coded by _first_code from the arguments' codes
    and then POLE where pole."""
    finite = np.isfinite(re[0]) & np.isfinite(re[1]) & np.isfinite(im[0]) & np.isfinite(im[1])
    codes = [x.why for x in args]
    if pole is not None:
        codes.append(pole.astype(np.uint8) * POLE)
    return Boxes(re[0], re[1], im[0], im[1], _first_code(finite, *codes))


# ---------------------------------------------------------------------------
# Box operations.
# ---------------------------------------------------------------------------

def box_add(a: Boxes, b: Boxes) -> Boxes:
    return _result(iv_add(a.re, b.re), iv_add(a.im, b.im), a, b)


def box_sub(a: Boxes, b: Boxes) -> Boxes:
    return _result(iv_sub(a.re, b.re), iv_sub(a.im, b.im), a, b)


def box_neg(a: Boxes) -> Boxes:
    return _result(iv_neg(a.re), iv_neg(a.im), a)


def box_mul(a: Boxes, b: Boxes) -> Boxes:
    # (x1 + i y1)(x2 + i y2) = (x1 x2 - y1 y2) + i (x1 y2 + y1 x2)
    return _result(iv_sub(iv_mul(a.re, b.re), iv_mul(a.im, b.im)),
                   iv_add(iv_mul(a.re, b.im), iv_mul(a.im, b.re)), a, b)


def box_recip(a: Boxes) -> Boxes:
    """1 / box.  Code POLE where the box touches the origin."""
    d = iv_add(iv_sq(a.re), iv_sq(a.im))
    pole = d[0] <= 0.0
    inv = iv_recip((np.where(pole, 1.0, d[0]), np.where(pole, 1.0, d[1])))
    return _result(iv_mul(a.re, inv), iv_neg(iv_mul(a.im, inv)), a, pole=pole)


def box_div(a: Boxes, b: Boxes) -> Boxes:
    return box_mul(a, box_recip(b))


def box_exp(a: Boxes) -> Boxes:
    """exp restricted to a box: monotone real factor times cos/sin ranges."""
    r = iv_exp(a.re)
    return _result(iv_mul(r, iv_cos(a.im)), iv_mul(r, iv_sin(a.im)), a)


def box_sin(a: Boxes) -> Boxes:
    # sin(x + i y) = sin x cosh y + i cos x sinh y
    return _result(iv_mul(iv_sin(a.re), iv_cosh(a.im)),
                   iv_mul(iv_cos(a.re), iv_sinh(a.im)), a)


def box_cos(a: Boxes) -> Boxes:
    # cos(x + i y) = cos x cosh y - i sin x sinh y
    return _result(iv_mul(iv_cos(a.re), iv_cosh(a.im)),
                   iv_neg(iv_mul(iv_sin(a.re), iv_sinh(a.im))), a)


def box_pow_int(a: Boxes, n: int) -> Boxes:
    if n < 2:
        raise ValueError("integer power nodes require exponent >= 2")
    acc = a
    for _ in range(n - 1):
        acc = box_mul(acc, a)
    return acc


def box_inflate(a: Boxes, r) -> Boxes:
    """Minkowski sum of each box with a closed ball of radius r >= 0."""
    return _result((_out_lo(a.re_lo - r), _out_hi(a.re_hi + r)),
                   (_out_lo(a.im_lo - r), _out_hi(a.im_hi + r)), a)
