"""Rigorous complex rectangle arithmetic over numpy arrays.

Every operation takes axis-aligned rectangles (boxes) in the complex plane
and returns a box guaranteed to contain the exact image set.  Soundness
comes from epsilon-inflation rather than directed rounding: after each
endpoint computation the interval width is multiplied by (1 + 2^-40) and
each endpoint is pushed one ulp outward (two ulps around libm calls, which
are faithful but not correctly rounded).  The resulting slack is many
orders of magnitude below any margin the certificate layer relies on, and
it keeps the arithmetic portable: no fesetround, no MPFR.

Each op is written once, over arrays.  A batch of n boxes (`Boxes`) is four
float64 endpoint arrays plus one reason code per box: NONE, POLE (a
reciprocal of a box that touches 0) or OVERFLOW (an endpoint that is inf
or NaN).  An op's result carries, per box, the first code set among its
arguments, else its own; endpoints of a box with a code are unspecified.
The `box_*` ops and the series quotients take and return `Boxes` only; a
single box is a batch of one (`Boxes.of([box])`).  `ComplexBox` is the
plain record of one rectangle, for raster windows and region bounding
boxes.  Intervals of the `iv_*` layer are (lo, hi) pairs of arrays or of
floats.

Also provided: closed-form series-tail bounds for exp, and box enclosures
of the analytic quotients left over when leading Taylor terms are removed
(e.g. (e^z - 1 - z)/z^2).  The quotient enclosures are what make
inequality certificates workable near a point where both sides of the
inequality vanish; plain rectangle evaluation loses all relative
precision there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_INF = math.inf
_WIDTH_INFLATE = 2.0 ** -41  # applied per endpoint, so width grows by 2^-40
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi

NONE, POLE, OVERFLOW = 0, 1, 2  # reason codes of a box in a batch


class PoleIntersect(ArithmeticError):
    """A reciprocal was requested of a box whose modulus range reaches zero."""


class DomainError(ValueError):
    """Argument outside the validity region of a closed-form bound."""


def _out_lo(x, ulps: int = 1):
    for _ in range(ulps):
        x = np.nextafter(x, -_INF)
    return x


def _out_hi(x, ulps: int = 1):
    for _ in range(ulps):
        x = np.nextafter(x, _INF)
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


def _trig_range(a, fn, crit_offset: float):
    """Range of sin (crit_offset = pi/2) or cos (crit_offset = 0) over [lo, hi].

    Endpoint values plus every interior critical point.  Critical points are
    located with floating-point arithmetic; candidates are admitted with a
    generous slab so a borderline one can only widen the result toward the
    global bounds +-1, never shrink it.
    """
    lo, hi = a
    wide = (hi - lo >= _TWO_PI) | (np.abs(lo) > 1e15) | (np.abs(hi) > 1e15)
    f_lo, f_hi = fn(lo), fn(hi)
    top, bot = np.maximum(f_lo, f_hi), np.minimum(f_lo, f_hi)
    # extrema of sin at pi/2 + k*pi; of cos at k*pi
    k_lo = np.floor((lo - crit_offset) / math.pi) - 1.0
    k_hi = np.ceil((hi - crit_offset) / math.pi) + 1.0
    slack = 4.0 * np.spacing(np.maximum(np.maximum(np.abs(lo), np.abs(hi)), 1.0))
    span = np.where(wide | np.isnan(k_hi - k_lo), 0.0, k_hi - k_lo)
    # every candidate k in [k_lo, k_hi], one per column
    k = np.asarray(k_lo)[..., None] + np.arange(int(np.max(span, initial=0.0)) + 1)
    x = crit_offset + k * math.pi
    hit = ((k <= np.asarray(k_hi)[..., None]) & (np.asarray(lo - slack)[..., None] <= x)
           & (x <= np.asarray(hi + slack)[..., None]))
    even = np.mod(k, 2.0) == 0.0
    top = np.where((hit & even).any(axis=-1), 1.0, top)
    bot = np.where((hit & ~even).any(axis=-1), -1.0, bot)
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
        if not (self.re_lo <= self.re_hi and self.im_lo <= self.im_hi):
            raise ValueError(f"inverted box bounds: {self}")
        if any(math.isnan(v) for v in (self.re_lo, self.re_hi, self.im_lo, self.im_hi)):
            raise ValueError("NaN box bound")

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


def _result(re, im, *args: Boxes, pole=None) -> Boxes:
    """An op's output boxes.  Each box's code is that of the first argument
    with one set, else POLE where pole, else OVERFLOW where an endpoint is
    not finite."""
    finite = np.isfinite(re[0]) & np.isfinite(re[1]) & np.isfinite(im[0]) & np.isfinite(im[1])
    why = (~finite).astype(np.uint8) * OVERFLOW
    if pole is not None:
        why = np.where(pole, POLE, why)
    for x in reversed(args):
        why = np.where(x.why != NONE, x.why, why)
    return Boxes(re[0], re[1], im[0], im[1], why)


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


# ---------------------------------------------------------------------------
# Series tails.
# ---------------------------------------------------------------------------

def exp_tail_bound(rho: float, n_terms: int) -> float:
    """Upper bound for |e^z - sum_{k<n_terms} z^k/k!| valid whenever |z| <= rho.

    Closed form: rho^N / N! * 1 / (1 - rho/(N+1)), the geometric majorant of
    the dropped tail.  Requires 0 <= rho < N + 1.
    """
    if n_terms < 0:
        raise DomainError("negative term count")
    if rho < 0.0:
        raise DomainError("negative radius")
    if rho >= n_terms + 1:
        raise DomainError(f"tail bound needs rho < {n_terms + 1}, got {rho}")
    if rho == 0.0:
        return 0.0
    head = rho ** n_terms / math.factorial(n_terms)
    # nudge outward so float rounding of the formula cannot understate the bound
    return float(_out_hi(head / (1.0 - rho / (n_terms + 1)) * (1.0 + 2.0 ** -50)))


def _series_box_even(a: Boxes, coeff, n_coeffs: int, tail_c: int) -> Boxes:
    """Enclose sum_k coeff(k) * z^(2k) over the boxes, coefficients |c_k| <= 1/(2k+tail_c)!.

    Horner in u = z^2, plus a rigorous ball for the dropped tail.
    """
    n = len(a.why)
    u = box_mul(a, a)
    acc = Boxes.point(coeff(n_coeffs - 1), n)
    for k in range(n_coeffs - 2, -1, -1):
        acc = box_add(box_mul(acc, u), Boxes.point(coeff(k), n))
    rho = box_mag(a)
    m = 2 * n_coeffs + tail_c
    gap = (m + 1) * (m + 2)
    if np.any(rho * rho >= gap):
        raise DomainError("box too large for series tail")
    tail = rho ** (2 * n_coeffs) / float(math.factorial(m)) / (1.0 - rho * rho / gap)
    return box_inflate(acc, _out_hi(tail * (1.0 + 1e-12), ulps=2))


def quot_exp_tail(a: Boxes, drop: int, n_coeffs: int = 12) -> Boxes:
    """Enclose (e^z - sum_{k<drop} z^k/k!) / z^drop = sum_j z^j/(j+drop)! over the boxes."""
    n = len(a.why)
    acc = Boxes.point(1.0 / math.factorial(n_coeffs - 1 + drop), n)
    for j in range(n_coeffs - 2, -1, -1):
        acc = box_add(box_mul(acc, a), Boxes.point(1.0 / math.factorial(j + drop), n))
    rho = box_mag(a)
    m = n_coeffs + drop
    if np.any(rho >= m + 1):
        raise DomainError("box too large for series tail")
    tail = rho ** n_coeffs / float(math.factorial(m)) / (1.0 - rho / (m + 1))
    return box_inflate(acc, _out_hi(tail * (1.0 + 1e-12), ulps=2))


def quot_one_minus_cos(a: Boxes, n_coeffs: int = 9) -> Boxes:
    """(1 - cos z)/z^2 = sum_k (-1)^k z^(2k) / (2k+2)!"""
    return _series_box_even(a, lambda k: (-1.0) ** k / math.factorial(2 * k + 2), n_coeffs, 2)


def quot_z_minus_sin(a: Boxes, n_coeffs: int = 9) -> Boxes:
    """(z - sin z)/z^3 = sum_k (-1)^k z^(2k) / (2k+3)!"""
    return _series_box_even(a, lambda k: (-1.0) ** k / math.factorial(2 * k + 3), n_coeffs, 3)


def quot_cos_defect(a: Boxes, n_coeffs: int = 9) -> Boxes:
    """(cos z - 1 + z^2/2)/z^4 = sum_k (-1)^k z^(2k) / (2k+4)!"""
    return _series_box_even(a, lambda k: (-1.0) ** k / math.factorial(2 * k + 4), n_coeffs, 4)
