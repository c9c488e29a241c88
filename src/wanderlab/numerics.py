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

The layout.  A batch of n boxes (`Boxes`) is one float64 endpoint block of
shape (2, 2, n): lower bounds [re, im] over upper bounds [re, im], so
ends[0] holds every lo and ends[1] every hi, and `Boxes` gives re_lo,
re_hi, im_lo and im_hi as views; one uint8 reason code per box goes with
it.  Inside the ops an interval array is any array whose axis 0 holds the
ends (lo, hi) and whose last axis holds the boxes, so one numpy call runs
over every interval an op has: both parts of a box, the four part products
of a complex product, or the sin, cos, cosh and sinh ranges of sin z.  A
constant is a block of width 1 that broadcasts against a batch.

One step serves both ends.  Round-to-nearest is symmetric about 0, so a
step down on -hi is the step up on hi negated, bit for bit but for the sign
of a zero (Lambov, "Interval arithmetic using SSE-2", 2008); here
|x| (-H) + (-2^-1074) is exactly -(|x| H + 2^-1074), and x - (-t) is
x + t.  `_widen` thus subtracts from a whole interval array one padding
and one step, each signed by end (+ at lo, - at hi): the lo ends move down
and the hi ends up exactly as two separate roundings would move them.
Subtraction, not addition, keeps a NaN end's own NaN, whatever the end's
place in the array.

Codes.  A box's reason code is NONE, POLE (a reciprocal of a box that
touches 0) or OVERFLOW (an endpoint that is inf or NaN).  One rule,
`_first_code`, picks every code, here and in the map and certificate
layers: the first code set among the inputs, else OVERFLOW where the value
is not finite.  An op's inputs are its arguments (then a reciprocal's
POLE), so an expression evaluated in post-order carries the code of its
first failing step; endpoints of a box with a code are unspecified.  Each
op checks its result block for finiteness once.  The `box_*` ops take and
return `Boxes` only; a single box is a batch of one (`Boxes.of([box])`).
`ComplexBox` is the plain record of one rectangle, for raster windows and
region bounding boxes.

numpy's exp, sinh and cosh take another code path, with other last bits,
on arrays with a negative stride, so libm calls here only see positive
strides; a reversed view only meets exact operations.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

_WIDTH_INFLATE = 2.0 ** -41  # applied per endpoint, so width grows by 2^-40
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi
_HALF_ULP = 2.0 ** -53 * (1.0 + 2.0 ** -52)  # |x| times this is a hair over half an ulp of x
_TINY = 2.0 ** -1074  # the smallest subnormal: the step never rounds to 0

# Per end of an interval array (lo, then hi, along axis 0): the sign of an
# inward move.  An outward move subtracts the padding or the step signed by
# it, shaped here to broadcast against arrays of 2, 3 and 4 dimensions.
_INWARD = np.array([1.0, -1.0])
_SIGNED = {d: tuple((c * _INWARD).reshape((2,) + (1,) * (d - 1))
                    for c in (_WIDTH_INFLATE, _HALF_ULP, _TINY)) for d in (2, 3, 4)}
_FOUR_INWARD = 4.0 * _INWARD[:, None]
_UNIT = -_INWARD.reshape(2, 1, 1)      # the least and the greatest value of sin and cos

# The sin and cos extrema c + 2k pi that _sin_cos looks for: the minima's
# c, then the maxima's, each for sin and for cos.
_EXTREMA = np.array([[_HALF_PI - math.pi, 0.0 - math.pi], [_HALF_PI, 0.0]])[..., None]

NONE, POLE, OVERFLOW = 0, 1, 2  # reason codes of a box in a batch
_CODES = np.arange(3, dtype=np.uint8)


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


# ---------------------------------------------------------------------------
# Interval arrays: axis 0 holds the ends (lo, hi), the last axis the boxes.
# _step and _widen work in place; no other helper writes its inputs.
# ---------------------------------------------------------------------------

def _step(x: np.ndarray, ulps: int, s: np.ndarray | None = None) -> np.ndarray:
    """x with every lo end stepped ulps floats down and every hi end up, in
    place; s, if given, is scratch of x's shape."""
    _, step, tiny = _SIGNED[x.ndim]
    for _ in range(ulps):
        s = np.abs(x, out=s)
        s *= step
        s += tiny
        x -= s
    return x


def _widen(x: np.ndarray, ulps: int = 1) -> np.ndarray:
    """x padded by its width times 2^-41 each way, then stepped, in place."""
    s = np.multiply(x[1] - x[0], _SIGNED[x.ndim][0])
    x -= s
    return _step(x, ulps, s)


def _mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The products of the intervals of x and y, broadcast against each other."""
    p = x[:, None] * y[None, :]
    p = p.reshape((4,) + p.shape[2:])
    out = np.empty((2,) + p.shape[1:])
    np.minimum.reduce(p, axis=0, out=out[0])
    np.maximum.reduce(p, axis=0, out=out[1])
    del p                                   # before the widening's scratch is taken
    return _widen(out)


def _sq(x: np.ndarray) -> np.ndarray:
    """The squares of the intervals of x: 0 at the bottom where one straddles 0."""
    s = x * x
    out = np.empty_like(s)
    out[0] = 0.0
    np.maximum(s[0], s[1], out=out[1])
    np.copyto(out, s[::-1], where=x[1] <= 0.0)
    np.copyto(out, s, where=x[0] >= 0.0)
    return _widen(out)


def _recip(x: np.ndarray) -> np.ndarray:
    """1 / the intervals of x, none of which may reach 0."""
    return _widen(1.0 / x[::-1])


def _ranges(x: np.ndarray, y: np.ndarray, hyperbolic: bool) -> np.ndarray:
    """The ranges of sin and of cos over the intervals of x, then those of
    cosh and sinh (hyperbolic) or of exp over the intervals of y: shape
    (2, n) twice to (2, 4, n) or (2, 3, n), widened by 2 ulps in one call."""
    out = np.empty((2, 4 if hyperbolic else 3, x.shape[-1]))
    _sin_cos(x, out[:, :2])
    if hyperbolic:
        _cosh_sinh(y, out[:, 2:])
    else:
        np.exp(y, out=out[:, 2])
    _widen(out, ulps=2)
    np.maximum(out[0, :2], -1.0, out=out[0, :2])   # a widened +-1 comes back to +-1
    np.minimum(out[1, :2], 1.0, out=out[1, :2])
    return out


def _sin_cos(x: np.ndarray, out: np.ndarray) -> None:
    """Write the ranges of sin and of cos over the intervals of x, before
    widening and clamping to [-1, 1], to out[:, 0] and out[:, 1].

    The endpoint values, with 1 where a maximum c + 2k pi lies in
    [lo - s, hi + s], and -1 where a minimum does (c is pi/2 and -pi/2 for
    sin, 0 and -pi for cos; _EXTREMA); that is iff
    floor((hi + s - c) / 2pi) >= ceil((lo - s - c) / 2pi), one quotient test
    for all four.

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
    ax = np.abs(x)
    # fmax skips a NaN end, so an interval with a NaN end and one past 1e15
    # is wide; a NaN end makes every test below false, whatever s is
    m = np.fmax(ax[0], ax[1])
    wide = (x[1] - x[0] >= _TWO_PI) | (m > 1e15)
    q = (x - np.spacing(np.maximum(m, _TWO_PI)) * _FOUR_INWARD)[:, None, None] - _EXTREMA
    q /= _TWO_PI                                          # ((lo - s, hi + s) - c) / 2pi
    meets = np.floor(q[1], out=q[1]) >= np.ceil(q[0], out=q[0])
    meets |= wide
    del q
    f = np.empty((2, 2, x.shape[-1]))     # sin then cos, each at lo and hi
    np.sin(x, out=f[0])
    np.cos(x, out=f[1])
    np.minimum(f[:, 0], f[:, 1], out=out[0])
    np.maximum(f[:, 0], f[:, 1], out=out[1])
    np.copyto(out, _UNIT, where=meets)


def _cosh_sinh(y: np.ndarray, out: np.ndarray) -> None:
    """Write the ranges of cosh and of sinh over the intervals of y, before
    widening, to out[:, 0] and out[:, 1].

    cosh is even and grows with |y|, so its range over [lo, hi] runs from
    cosh at max(lo, -hi, 0), the distance from 0 to the interval, to cosh
    at max(-lo, hi).
    """
    c = out[:, 0]
    minus = -y
    np.maximum(y[0], minus[1], out=c[0])
    np.maximum(c[0], 0.0, out=c[0])
    np.maximum(minus[0], y[1], out=c[1])
    np.cosh(c, out=c)
    np.sinh(y, out=out[:, 1])


# ---------------------------------------------------------------------------
# Boxes: the record of one rectangle, and a batch of them.
# ---------------------------------------------------------------------------

def _centre_column(center: complex) -> np.ndarray:
    c = complex(center)
    return np.array([[c.real], [c.imag]])


def box_mag(b: Boxes, center: complex = 0j) -> np.ndarray:
    """Upper bound for |z - center| over each box of a batch."""
    d = np.abs(b.ends - _centre_column(center))
    far = _out_hi(np.maximum(d[0], d[1]))
    return _out_hi(np.hypot(far[0], far[1]), ulps=2)


def box_mig(b: Boxes, center: complex = 0j) -> np.ndarray:
    """Lower bound for |z - center| over each box (0 where the center is inside)."""
    c = _centre_column(center)
    d = np.abs(b.ends - c)
    near = np.minimum(d[0], d[1])
    np.copyto(near, 0.0, where=(b.ends[0] <= c) & (c <= b.ends[1]))
    return np.maximum(0.0, _out_lo(np.hypot(near[0], near[1]), ulps=3))


def box_quarters(re_lo, re_hi, im_lo, im_hi):
    """The four quarters of each box along a new last axis: lower left,
    lower right, upper left, upper right."""
    rm = 0.5 * (re_lo + re_hi)
    im = 0.5 * (im_lo + im_hi)
    return (np.stack([re_lo, rm, re_lo, rm], axis=-1),
            np.stack([rm, re_hi, rm, re_hi], axis=-1),
            np.stack([im_lo, im_lo, im, im], axis=-1),
            np.stack([im, im, im_hi, im_hi], axis=-1))


class ComplexBox:
    """Axis-aligned rectangle { x + i y : re_lo <= x <= re_hi, im_lo <= y <= im_hi }."""

    __slots__ = ("re_lo", "re_hi", "im_lo", "im_hi")

    def __init__(self, re_lo: float, re_hi: float, im_lo: float, im_hi: float):
        self.re_lo, self.re_hi, self.im_lo, self.im_hi = re_lo, re_hi, im_lo, im_hi
        if not (re_lo <= re_hi and im_lo <= im_hi):   # NaN too
            raise ValueError(f"box bounds must satisfy lo <= hi and not be NaN: {self}")

    def __repr__(self):
        return (f"ComplexBox(re_lo={self.re_lo!r}, re_hi={self.re_hi!r}, "
                f"im_lo={self.im_lo!r}, im_hi={self.im_hi!r})")

    def __eq__(self, other):
        if type(other) is not ComplexBox:
            return NotImplemented
        return ((self.re_lo, self.re_hi, self.im_lo, self.im_hi)
                == (other.re_lo, other.re_hi, other.im_lo, other.im_hi))

    def hull(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(min(self.re_lo, other.re_lo), max(self.re_hi, other.re_hi),
                          min(self.im_lo, other.im_lo), max(self.im_hi, other.im_hi))


class Boxes(NamedTuple):
    """A batch of boxes: a (2, 2, n) endpoint block, ends[end, part] (lo
    then hi, re then im), and a uint8 reason code per box."""

    ends: np.ndarray
    why: np.ndarray

    re_lo = property(lambda self: self.ends[0, 0])
    re_hi = property(lambda self: self.ends[1, 0])
    im_lo = property(lambda self: self.ends[0, 1])
    im_hi = property(lambda self: self.ends[1, 1])

    def select(self, idx) -> "Boxes":
        """The boxes that idx (a mask or indices) picks, codes and all."""
        return Boxes(self.ends[..., idx], self.why[idx])

    @staticmethod
    def of(boxes) -> "Boxes":
        """The batch of the given ComplexBoxes, with no reason codes set."""
        ends = np.array([(b.re_lo, b.im_lo, b.re_hi, b.im_hi) for b in boxes],
                        dtype=np.float64).reshape(-1, 4)
        return Boxes(np.ascontiguousarray(ends.T).reshape(2, 2, -1),
                     np.zeros(len(ends), np.uint8))

    @staticmethod
    def point(z: complex | np.ndarray) -> "Boxes":
        """The point boxes at the zs of an array, or at one z, no codes set."""
        z = np.asarray(z, dtype=np.complex128).reshape(-1)
        ends = np.empty((2, 2, z.size))
        ends[:, 0] = z.real
        ends[:, 1] = z.imag
        return Boxes(ends, np.zeros(z.size, np.uint8))


def _first_code(finite, *codes) -> np.ndarray:
    """Per box, the first of the code arrays whose entry is set, else
    OVERFLOW where finite is false, else NONE.  Every reason code of a
    result is chosen by this rule."""
    why = np.where(finite, _CODES[NONE], _CODES[OVERFLOW])
    for code in reversed(codes):
        if why.ndim < code.ndim or np.count_nonzero(code):
            why = np.where(code != NONE, code, why)
    return why


def _result(ends: np.ndarray, *args: Boxes, pole=None) -> Boxes:
    """An op's output boxes, coded by _first_code from the arguments' codes
    and then POLE where pole."""
    finite = np.isfinite(ends)
    codes = [x.why for x in args]
    if pole is not None:
        codes.append(pole.astype(np.uint8) * POLE)
    if np.count_nonzero(finite) == finite.size and not any(map(np.count_nonzero, codes)):
        return Boxes(ends, np.zeros(ends.shape[-1], np.uint8))     # no code to pick
    return Boxes(ends, _first_code(finite.all(axis=(0, 1)), *codes))


# ---------------------------------------------------------------------------
# Box operations.
# ---------------------------------------------------------------------------

def box_add(a: Boxes, b: Boxes) -> Boxes:
    return _result(_widen(a.ends + b.ends), a, b)


def box_sub(a: Boxes, b: Boxes) -> Boxes:
    return _result(_widen(a.ends - b.ends[::-1]), a, b)


def box_neg(a: Boxes) -> Boxes:
    return _result(-a.ends[::-1], a)


def box_mul(a: Boxes, b: Boxes) -> Boxes:
    # (x1 + i y1)(x2 + i y2) = (x1 x2 - y1 y2) + i (x1 y2 + y1 x2)
    p = _mul(a.ends[:, :, None], b.ends[:, None])    # p[:, j, k]: part j of a times part k of b
    out = np.empty_like(p[:, 0])
    np.subtract(p[:, 0, 0], p[::-1, 1, 1], out=out[:, 0])
    np.add(p[:, 0, 1], p[:, 1, 0], out=out[:, 1])
    del p
    return _result(_widen(out), a, b)


def box_recip(a: Boxes) -> Boxes:
    """1 / box.  Code POLE where the box touches the origin."""
    sq = _sq(a.ends)
    d = _widen(sq[:, 0] + sq[:, 1])
    pole = d[0] <= 0.0
    out = _mul(a.ends, _recip(np.where(pole, 1.0, d))[:, None])
    out[:, 1] = -out[::-1, 1]
    return _result(out, a, pole=pole)


def box_div(a: Boxes, b: Boxes) -> Boxes:
    return box_mul(a, box_recip(b))


def box_exp(a: Boxes) -> Boxes:
    """exp restricted to a box: monotone real factor times cos/sin ranges."""
    t = _ranges(a.ends[:, 1], a.ends[:, 0], hyperbolic=False)
    return _result(_mul(t[:, 2:], t[:, 1::-1]), a)


def box_sin(a: Boxes) -> Boxes:
    # sin(x + i y) = sin x cosh y + i cos x sinh y
    t = _ranges(a.ends[:, 0], a.ends[:, 1], hyperbolic=True)
    return _result(_mul(t[:, :2], t[:, 2:]), a)


def box_cos(a: Boxes) -> Boxes:
    # cos(x + i y) = cos x cosh y - i sin x sinh y
    t = _ranges(a.ends[:, 0], a.ends[:, 1], hyperbolic=True)
    out = _mul(t[:, 1::-1], t[:, 2:])
    out[:, 1] = -out[::-1, 1]
    return _result(out, a)


def box_pow_int(a: Boxes, n: int) -> Boxes:
    if n < 2:
        raise ValueError("integer power nodes require exponent >= 2")
    acc = a
    for _ in range(n - 1):
        acc = box_mul(acc, a)
    return acc


def box_inflate(a: Boxes, r) -> Boxes:
    """Minkowski sum of each box with a closed ball of radius r >= 0."""
    return _result(_step(a.ends - _INWARD[:, None, None] * r, 1), a)
