"""Rigorous complex rectangle arithmetic.

Every operation takes axis-aligned rectangles (boxes) in the complex plane
and returns a box guaranteed to contain the exact image set.  Soundness
comes from epsilon-inflation rather than directed rounding: after each
endpoint computation the interval width is multiplied by (1 + 2^-40) and
each endpoint is pushed one ulp outward (two ulps around libm calls,
which are faithful but not correctly rounded).  The resulting slack is
many orders of magnitude below any margin the certificate layer relies
on, and it keeps the arithmetic portable: no fesetround, no MPFR.

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

_INF = math.inf
_WIDTH_INFLATE = 2.0 ** -41  # applied per endpoint, so width grows by 2^-40
_TWO_PI = 2.0 * math.pi
_HALF_PI = 0.5 * math.pi


class PoleIntersect(ArithmeticError):
    """A reciprocal was requested of a box whose modulus range reaches zero."""


class DomainError(ValueError):
    """Argument outside the validity region of a closed-form bound."""


def _out_lo(x: float, ulps: int = 1) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, -_INF)
    return x


def _out_hi(x: float, ulps: int = 1) -> float:
    for _ in range(ulps):
        x = math.nextafter(x, _INF)
    return x


def _widen(lo: float, hi: float, ulps: int = 1) -> tuple[float, float]:
    pad = (hi - lo) * _WIDTH_INFLATE
    return _out_lo(lo - pad, ulps), _out_hi(hi + pad, ulps)


# ---------------------------------------------------------------------------
# Real interval layer.  Intervals are plain (lo, hi) tuples; every function
# returns an outward-widened result.
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
    return _widen(min(p0, p1, p2, p3), max(p0, p1, p2, p3))


def iv_sq(a):
    lo, hi = a
    if lo >= 0.0:
        return _widen(lo * lo, hi * hi)
    if hi <= 0.0:
        return _widen(hi * hi, lo * lo)
    m = max(-lo, hi)
    return _widen(0.0, m * m)


def iv_recip(a):
    lo, hi = a
    if lo <= 0.0 <= hi:
        raise PoleIntersect("interval straddles zero")
    return _widen(1.0 / hi, 1.0 / lo)


def iv_exp(a):
    return _widen(math.exp(a[0]), math.exp(a[1]), ulps=2)


def iv_cosh(a):
    lo, hi = a
    m = max(-lo, hi)
    try:
        top = math.cosh(m)
    except OverflowError:
        top = _INF
    if lo <= 0.0 <= hi:
        bot = 1.0
    else:
        bot = math.cosh(min(abs(lo), abs(hi)))
    return _widen(bot, top, ulps=2)


def iv_sinh(a):
    try:
        lo = math.sinh(a[0])
    except OverflowError:
        lo = math.copysign(_INF, a[0])
    try:
        hi = math.sinh(a[1])
    except OverflowError:
        hi = math.copysign(_INF, a[1])
    return _widen(lo, hi, ulps=2)


def _trig_range(a, fn, crit_offset: float) -> tuple[float, float]:
    """Range of sin (crit_offset = pi/2) or cos (crit_offset = 0) over [lo, hi].

    Endpoint values plus every interior critical point.  Critical points are
    located with floating-point arithmetic; candidates are admitted with a
    generous slab so a borderline one can only widen the result toward the
    global bounds +-1, never shrink it.
    """
    lo, hi = a
    if hi - lo >= _TWO_PI or abs(lo) > 1e15 or abs(hi) > 1e15:
        return (-1.0, 1.0)
    vals = [fn(lo), fn(hi)]
    # extrema of sin at pi/2 + k*pi; of cos at k*pi
    k_lo = math.floor((lo - crit_offset) / math.pi) - 1
    k_hi = math.ceil((hi - crit_offset) / math.pi) + 1
    slack = 4.0 * math.ulp(max(abs(lo), abs(hi), 1.0))
    for k in range(k_lo, k_hi + 1):
        x = crit_offset + k * math.pi
        if lo - slack <= x <= hi + slack:
            vals.append(1.0 if k % 2 == 0 else -1.0)
    vlo, vhi = _widen(min(vals), max(vals), ulps=2)
    return (max(vlo, -1.0), min(vhi, 1.0))


def iv_sin(a):
    return _trig_range(a, math.sin, _HALF_PI)


def iv_cos(a):
    return _trig_range(a, math.cos, 0.0)


# ---------------------------------------------------------------------------
# Complex boxes.
# ---------------------------------------------------------------------------

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

    # -- constructors ------------------------------------------------------

    @staticmethod
    def point(z: complex) -> "ComplexBox":
        z = complex(z)
        return ComplexBox(z.real, z.real, z.imag, z.imag)

    @staticmethod
    def from_center(z: complex, half_width: float) -> "ComplexBox":
        z = complex(z)
        return ComplexBox(z.real - half_width, z.real + half_width,
                          z.imag - half_width, z.imag + half_width)

    # -- geometry ----------------------------------------------------------

    @property
    def re(self) -> tuple[float, float]:
        return (self.re_lo, self.re_hi)

    @property
    def im(self) -> tuple[float, float]:
        return (self.im_lo, self.im_hi)

    def mid(self) -> complex:
        return complex(0.5 * (self.re_lo + self.re_hi), 0.5 * (self.im_lo + self.im_hi))

    def widths(self) -> tuple[float, float]:
        return (self.re_hi - self.re_lo, self.im_hi - self.im_lo)

    def max_width(self) -> float:
        return max(self.widths())

    def contains(self, z: complex, atol: float = 0.0) -> bool:
        z = complex(z)
        return (self.re_lo - atol <= z.real <= self.re_hi + atol
                and self.im_lo - atol <= z.imag <= self.im_hi + atol)

    def mag(self, center: complex = 0j) -> float:
        """Upper bound for |z - center| over the box."""
        c = complex(center)
        dx = max(abs(self.re_lo - c.real), abs(self.re_hi - c.real))
        dy = max(abs(self.im_lo - c.imag), abs(self.im_hi - c.imag))
        return _out_hi(math.hypot(_out_hi(dx), _out_hi(dy)), ulps=2)

    def mig(self, center: complex = 0j) -> float:
        """Lower bound for |z - center| over the box (0 if the center is inside)."""
        c = complex(center)
        if self.re_lo <= c.real <= self.re_hi:
            dx = 0.0
        else:
            dx = min(abs(self.re_lo - c.real), abs(self.re_hi - c.real))
        if self.im_lo <= c.imag <= self.im_hi:
            dy = 0.0
        else:
            dy = min(abs(self.im_lo - c.imag), abs(self.im_hi - c.imag))
        d = math.hypot(dx, dy)
        return max(0.0, _out_lo(d, ulps=3))

    def split4(self) -> tuple["ComplexBox", ...]:
        rm = 0.5 * (self.re_lo + self.re_hi)
        im = 0.5 * (self.im_lo + self.im_hi)
        return (ComplexBox(self.re_lo, rm, self.im_lo, im),
                ComplexBox(rm, self.re_hi, self.im_lo, im),
                ComplexBox(self.re_lo, rm, im, self.im_hi),
                ComplexBox(rm, self.re_hi, im, self.im_hi))

    def hull(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(min(self.re_lo, other.re_lo), max(self.re_hi, other.re_hi),
                          min(self.im_lo, other.im_lo), max(self.im_hi, other.im_hi))

    def inflate(self, r: float) -> "ComplexBox":
        """Minkowski sum with a closed ball of radius r (r >= 0)."""
        if r < 0.0:
            raise ValueError("negative inflation radius")
        return ComplexBox(_out_lo(self.re_lo - r), _out_hi(self.re_hi + r),
                          _out_lo(self.im_lo - r), _out_hi(self.im_hi + r))

    def subset_of(self, other: "ComplexBox") -> bool:
        return (other.re_lo <= self.re_lo and self.re_hi <= other.re_hi
                and other.im_lo <= self.im_lo and self.im_hi <= other.im_hi)


def _cb(re, im) -> ComplexBox:
    return ComplexBox(re[0], re[1], im[0], im[1])


# ---------------------------------------------------------------------------
# Box operations.
# ---------------------------------------------------------------------------

def box_add(a: ComplexBox, b: ComplexBox) -> ComplexBox:
    return _cb(iv_add(a.re, b.re), iv_add(a.im, b.im))


def box_sub(a: ComplexBox, b: ComplexBox) -> ComplexBox:
    return _cb(iv_sub(a.re, b.re), iv_sub(a.im, b.im))


def box_neg(a: ComplexBox) -> ComplexBox:
    return _cb(iv_neg(a.re), iv_neg(a.im))


def box_mul(a: ComplexBox, b: ComplexBox) -> ComplexBox:
    # (x1 + i y1)(x2 + i y2) = (x1 x2 - y1 y2) + i (x1 y2 + y1 x2)
    return _cb(iv_sub(iv_mul(a.re, b.re), iv_mul(a.im, b.im)),
               iv_add(iv_mul(a.re, b.im), iv_mul(a.im, b.re)))


def box_recip(a: ComplexBox) -> ComplexBox:
    """1 / box.  Raises PoleIntersect when the box touches the origin."""
    d = iv_add(iv_sq(a.re), iv_sq(a.im))
    if d[0] <= 0.0:
        raise PoleIntersect("box encloses the origin")
    inv = iv_recip(d)
    return _cb(iv_mul(a.re, inv), iv_neg(iv_mul(a.im, inv)))


def box_div(a: ComplexBox, b: ComplexBox) -> ComplexBox:
    return box_mul(a, box_recip(b))


def box_exp(a: ComplexBox) -> ComplexBox:
    """exp restricted to a box: monotone real factor times cos/sin ranges."""
    r = iv_exp(a.re)
    return _cb(iv_mul(r, iv_cos(a.im)), iv_mul(r, iv_sin(a.im)))


def box_sin(a: ComplexBox) -> ComplexBox:
    # sin(x + i y) = sin x cosh y + i cos x sinh y
    return _cb(iv_mul(iv_sin(a.re), iv_cosh(a.im)),
               iv_mul(iv_cos(a.re), iv_sinh(a.im)))


def box_cos(a: ComplexBox) -> ComplexBox:
    # cos(x + i y) = cos x cosh y - i sin x sinh y
    return _cb(iv_mul(iv_cos(a.re), iv_cosh(a.im)),
               iv_neg(iv_mul(iv_sin(a.re), iv_sinh(a.im))))


def box_pow_int(a: ComplexBox, n: int) -> ComplexBox:
    if n < 2:
        raise ValueError("integer power nodes require exponent >= 2")
    acc = a
    for _ in range(n - 1):
        acc = box_mul(acc, a)
    return acc


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
    return _out_hi(head / (1.0 - rho / (n_terms + 1)) * (1.0 + 2.0 ** -50))


def _series_box_even(a: ComplexBox, coeff, n_coeffs: int, tail_c: int) -> ComplexBox:
    """Enclose sum_k coeff(k) * z^(2k) over the box, coefficients |c_k| <= 1/(2k+tail_c)!.

    Horner in u = z^2, plus a rigorous ball for the dropped tail.
    """
    u = box_mul(a, a)
    acc = ComplexBox.point(complex(coeff(n_coeffs - 1), 0.0))
    for k in range(n_coeffs - 2, -1, -1):
        acc = box_add(box_mul(acc, u), ComplexBox.point(complex(coeff(k), 0.0)))
    rho = a.mag()
    m = 2 * n_coeffs + tail_c
    gap = (m + 1) * (m + 2)
    if rho * rho >= gap:
        raise DomainError("box too large for series tail")
    tail = rho ** (2 * n_coeffs) / math.factorial(m) / (1.0 - rho * rho / gap)
    return acc.inflate(_out_hi(tail * (1.0 + 1e-12), ulps=2))


def quot_exp_tail(a: ComplexBox, drop: int, n_coeffs: int = 12) -> ComplexBox:
    """Enclose (e^z - sum_{k<drop} z^k/k!) / z^drop = sum_j z^j/(j+drop)! over the box."""
    acc = ComplexBox.point(complex(1.0 / math.factorial(n_coeffs - 1 + drop), 0.0))
    for j in range(n_coeffs - 2, -1, -1):
        acc = box_add(box_mul(acc, a), ComplexBox.point(complex(1.0 / math.factorial(j + drop), 0.0)))
    rho = a.mag()
    m = n_coeffs + drop
    if rho >= m + 1:
        raise DomainError("box too large for series tail")
    tail = rho ** n_coeffs / math.factorial(m) / (1.0 - rho / (m + 1))
    return acc.inflate(_out_hi(tail * (1.0 + 1e-12), ulps=2))


def quot_one_minus_cos(a: ComplexBox, n_coeffs: int = 9) -> ComplexBox:
    """(1 - cos z)/z^2 = sum_k (-1)^k z^(2k) / (2k+2)!"""
    return _series_box_even(a, lambda k: (-1.0) ** k / math.factorial(2 * k + 2), n_coeffs, 2)


def quot_z_minus_sin(a: ComplexBox, n_coeffs: int = 9) -> ComplexBox:
    """(z - sin z)/z^3 = sum_k (-1)^k z^(2k) / (2k+3)!"""
    return _series_box_even(a, lambda k: (-1.0) ** k / math.factorial(2 * k + 3), n_coeffs, 3)


def quot_cos_defect(a: ComplexBox, n_coeffs: int = 9) -> ComplexBox:
    """(cos z - 1 + z^2/2)/z^4 = sum_k (-1)^k z^(2k) / (2k+4)!"""
    return _series_box_even(a, lambda k: (-1.0) ** k / math.factorial(2 * k + 4), n_coeffs, 4)
