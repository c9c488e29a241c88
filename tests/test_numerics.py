"""Box arithmetic soundness: sampled images must land inside computed enclosures."""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import encloses
from wanderlab.numerics import (
    NONE,
    POLE,
    Boxes,
    ComplexBox,
    DomainError,
    box_add,
    box_cos,
    box_div,
    box_exp,
    box_inflate,
    box_mag,
    box_mig,
    box_mul,
    box_pow_int,
    box_quarters,
    box_recip,
    box_sin,
    box_sub,
    exp_tail_bound,
    iv_add,
    iv_cos,
    iv_cosh,
    iv_exp,
    iv_mul,
    iv_recip,
    iv_sin,
    iv_sinh,
    iv_sq,
    iv_sub,
    quot_cos_defect,
    quot_exp_tail,
    quot_one_minus_cos,
    quot_z_minus_sin,
)

RNG = random.Random(20260815)
N_SAMPLES = 10_000


def _random_box(scale: float = 3.0) -> ComplexBox:
    cx = RNG.uniform(-scale, scale)
    cy = RNG.uniform(-scale, scale)
    w = RNG.uniform(0.0, 1.5)
    h = RNG.uniform(0.0, 1.5)
    return ComplexBox(cx, cx + w, cy, cy + h)


def _sample(box: ComplexBox) -> complex:
    return complex(RNG.uniform(box.re_lo, box.re_hi), RNG.uniform(box.im_lo, box.im_hi))


def _assert_encloses(out: Boxes, values, context: str) -> None:
    """Every values[i, j] lies in box i of out, exactly, with no code set."""
    escaped = np.argwhere(~encloses(out, values))
    assert not len(escaped), f"{context}: {len(escaped)} escapes, first (box, sample) {escaped[0]}"


def _within(inner: Boxes, outer: Boxes) -> np.ndarray:
    """Per box: is inner's box a subset of outer's?"""
    return ((outer.re_lo <= inner.re_lo) & (inner.re_hi <= outer.re_hi)
            & (outer.im_lo <= inner.im_lo) & (inner.im_hi <= outer.im_hi))


@pytest.mark.parametrize("op,scalar", [
    (box_add, lambda a, b: a + b),
    (box_sub, lambda a, b: a - b),
    (box_mul, lambda a, b: a * b),
])
def test_binary_ops_enclose_samples(op, scalar):
    boxes_a, boxes_b, values = [], [], []
    for _ in range(N_SAMPLES // 10):
        ba, bb = _random_box(), _random_box()
        boxes_a.append(ba)
        boxes_b.append(bb)
        values.append([scalar(_sample(ba), _sample(bb)) for _ in range(10)])
    _assert_encloses(op(Boxes.of(boxes_a), Boxes.of(boxes_b)), values, op.__name__)


@pytest.mark.parametrize("op,scalar", [
    (box_exp, cmath.exp),
    (box_sin, cmath.sin),
    (box_cos, cmath.cos),
])
def test_transcendental_ops_enclose_samples(op, scalar):
    boxes, values = [], []
    for _ in range(N_SAMPLES // 10):
        ba = _random_box(scale=2.0)
        boxes.append(ba)
        values.append([scalar(_sample(ba)) for _ in range(10)])
    _assert_encloses(op(Boxes.of(boxes)), values, op.__name__)


def test_recip_encloses_samples():
    # a box around 0 is a pole and draws no samples
    boxes, pole, values = [], [], []
    while 10 * len(values) < N_SAMPLES:
        ba = _random_box()
        boxes.append(ba)
        pole.append(ba.re_lo <= 0.0 <= ba.re_hi and ba.im_lo <= 0.0 <= ba.im_hi)
        if not pole[-1]:
            values.append([1.0 / _sample(ba) for _ in range(10)])
    batch = Boxes.of(boxes)
    out = box_recip(batch)
    pole = np.array(pole)
    assert pole.any()
    assert ((out.why == POLE) == pole).all()
    assert (box_mig(batch)[pole] == 0.0).all()
    _assert_encloses(Boxes(*(e[~pole] for e in out)), values, "box_recip")


def test_recip_point_box():
    out = box_recip(Boxes.point(0.5 + 0.5j, 1))
    _assert_encloses(out, [[1.0 - 1.0j]], "recip(0.5+0.5i)")
    assert max(out.re_hi - out.re_lo, out.im_hi - out.im_lo) < 1e-12


def test_recip_of_zero_straddling_box_is_pole():
    assert box_recip(Boxes.of([ComplexBox(-1.0, 1.0, -1.0, 1.0)])).why[0] == POLE


def test_div_composes():
    out = box_div(Boxes.point(2.0 + 1.0j, 1), Boxes.point(1.0 - 1.0j, 1))
    _assert_encloses(out, [[(2.0 + 1.0j) / (1.0 - 1.0j)]], "box_div")


def test_pow_int_encloses_samples():
    # one call per exponent, on the boxes drawn with it
    drawn = []
    for _ in range(N_SAMPLES // 10):
        ba = _random_box(scale=1.5)
        n = RNG.randint(2, 6)
        drawn.append((n, ba, [_sample(ba) ** n for _ in range(10)]))
    for n in range(2, 7):
        boxes = [b for k, b, _ in drawn if k == n]
        values = [v for k, _, v in drawn if k == n]
        _assert_encloses(box_pow_int(Boxes.of(boxes), n), values, f"pow{n}")


def test_trig_interval_hits_extrema():
    # interval spanning pi/2 must report sin range reaching 1
    lo, hi = iv_sin((1.0, 2.0))
    assert hi == 1.0
    assert lo <= math.sin(1.0)
    lo, hi = iv_cos((3.0, 3.3))
    assert lo == -1.0


def test_trig_interval_huge_argument_falls_back():
    assert iv_sin((1e16, 1e16 + 1.0)) == (-1.0, 1.0)


def test_mag_mig_bounds():
    b = Boxes.of([ComplexBox(1.0, 2.0, 1.0, 2.0)])
    assert box_mig(b)[0] <= math.sqrt(2.0) <= box_mag(b)[0]
    assert box_mig(b, 1.5 + 1.5j)[0] == 0.0
    assert abs(box_mag(b, 1.5 + 1.5j)[0] - math.hypot(0.5, 0.5)) < 1e-12


def test_quarters_cover_box():
    b = ComplexBox(-1.0, 2.0, 0.5, 3.5)
    quads = Boxes(*box_quarters(b.re_lo, b.re_hi, b.im_lo, b.im_hi), np.zeros(4, np.uint8))
    assert len(quads.why) == 4
    for _ in range(200):
        z = _sample(b)
        assert encloses(quads, [[z]] * 4, atol=1e-15).any()
    box = Boxes.of([b])
    hull = Boxes.of([ComplexBox(quads.re_lo.min(), quads.re_hi.max(),
                                quads.im_lo.min(), quads.im_hi.max())])
    assert _within(hull, box_inflate(box, 1e-15))[0] and _within(box, box_inflate(hull, 1e-15))[0]


def test_inclusion_monotone_under_subdivision():
    # child enclosures must be subsets of the parent enclosure
    boxes = Boxes.of([_random_box(scale=1.0) for _ in range(200)])
    parent = box_exp(boxes)
    grown = box_inflate(parent, 1e-13 * (1.0 + box_mag(parent)))
    quarters = box_quarters(*boxes[:4])
    child = box_exp(Boxes(*(q.reshape(-1) for q in quarters), np.zeros(800, np.uint8)))
    assert (child.why == NONE).all() and (parent.why == NONE).all()
    assert _within(child, Boxes(*(np.repeat(e, 4) for e in grown))).all()


@pytest.mark.parametrize("op, name", [(box_exp, "exp"), (box_sin, "sin"), (box_cos, "cos")])
def test_transcendental_ops_enclose_exact_images(op, name):
    # images of seeded sample points computed to 40 digits, not in floats
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261020)
    lo = rng.uniform(-2.0, 2.0, (2, 1000))
    hi = lo + rng.uniform(0.0, 1.5, (2, 1000))
    out = op(Boxes(lo[0], hi[0], lo[1], hi[1], np.zeros(1000, np.uint8)))
    assert (out.why == NONE).all()
    xs, ys = (np.clip(rng.uniform(a[:, None], b[:, None], (1000, 10)), a[:, None], b[:, None])
              for a, b in zip(lo, hi))
    exact = getattr(mpmath, name)
    escapes = 0
    ends = np.stack(out[:4], axis=1).tolist()
    with mpmath.workdps(40):
        for (re_lo, re_hi, im_lo, im_hi), row_x, row_y in zip(ends, xs.tolist(), ys.tolist()):
            for x, y in zip(row_x, row_y):
                w = exact(mpmath.mpc(x, y))
                escapes += not (re_lo <= w.real <= re_hi and im_lo <= w.imag <= im_hi)
    assert escapes == 0


def _endpoint_intervals(rng, n: int, nonzero: bool = False):
    """Seeded (lo, hi) arrays of both signs and many scales, with zero
    endpoints, point intervals, and intervals across zero."""
    ends = (rng.choice([-1.0, 1.0], (2, n)) * rng.choice([0.5, 1.0, 3.0], (2, n))
            * 10.0 ** rng.integers(-30, 30, (2, n)) * rng.uniform(0.5, 2.0, (2, n)))
    ends[:, : n // 8] = np.round(ends[:, : n // 8])            # small integers, zeros
    ends[1, n // 8: n // 4] = ends[0, n // 8: n // 4]          # point intervals
    if nonzero:
        ends[ends == 0.0] = 1.0
        ends[1] = np.copysign(ends[1], ends[0])                # one sign per interval
    return np.sort(ends, axis=0)


def _exact_sq(lo, hi):
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return Fraction(0), max(lo * lo, hi * hi)


def _exact_mul(a, b):
    corners = [x * y for x in a for y in b]
    return min(corners), max(corners)


@pytest.mark.parametrize("op, arity, exact", [
    (iv_add, 2, lambda a, b: (a[0] + b[0], a[1] + b[1])),
    (iv_sub, 2, lambda a, b: (a[0] - b[1], a[1] - b[0])),
    (iv_mul, 2, _exact_mul),
    (iv_sq, 1, lambda a: _exact_sq(*a)),
    (iv_recip, 1, lambda a: (1 / a[1], 1 / a[0])),
], ids=["add", "sub", "mul", "sq", "recip"])
def test_interval_ops_round_strictly_outward(op, arity, exact):
    # each endpoint against the exact rational result: outward rounding
    # pads every endpoint, so even exactly representable results move out
    rng = np.random.default_rng(20261021)
    args = [_endpoint_intervals(rng, 2000, nonzero=op is iv_recip) for _ in range(arity)]
    lo, hi = op(*(tuple(a) for a in args))
    rows = zip(*(a.T.tolist() for a in args))
    for k, (got_lo, got_hi, row) in enumerate(zip(lo.tolist(), hi.tolist(), rows)):
        want_lo, want_hi = exact(*((Fraction(x), Fraction(y)) for x, y in row))
        assert Fraction(got_lo) < want_lo and want_hi < Fraction(got_hi), (k, row)


@pytest.mark.parametrize("name, lo, hi", [
    ("exp", -700.0, 709.0),
    ("sin", -1e3, 1e3),
    ("cos", -1e3, 1e3),
    ("sin", -1e15, 1e15),
    ("cos", -1e15, 1e15),
    ("cosh", -709.0, 709.0),
    ("sinh", -709.0, 709.0),
    ("sinh", -2.0, 2.0),
])
def test_numpy_transcendentals_within_one_ulp_of_mpmath(name, lo, hi):
    # the premise of the 2-ulp widening around every libm call
    mpmath = pytest.importorskip("mpmath")
    xs = np.random.default_rng(20261018).uniform(lo, hi, 2000)
    values = getattr(np, name)(xs)
    exact = getattr(mpmath, name)
    with mpmath.workprec(200):
        for x, v in zip(xs, values):
            y = exact(mpmath.mpf(float(x)))
            assert mpmath.mpf(float(np.nextafter(v, -np.inf))) <= y
            assert y <= mpmath.mpf(float(np.nextafter(v, np.inf)))


def _exact_range(mpmath, name, lo, hi):
    """Least and greatest value of mpmath's function over [lo, hi]: the
    endpoints, the minimum 1 of cosh across 0, and the extrema +-1 of sin
    (at pi/2 + k*pi) and cos (at k*pi) inside the interval."""
    f = getattr(mpmath, name)
    a, b = mpmath.mpf(lo), mpmath.mpf(hi)
    values = [f(a), f(b)]
    if name == "cosh" and a <= 0 <= b:
        values.append(mpmath.mpf(1))
    if name in ("sin", "cos"):
        offset = mpmath.pi / 2 if name == "sin" else mpmath.mpf(0)
        k0 = int(mpmath.ceil((a - offset) / mpmath.pi))
        k1 = int(mpmath.floor((b - offset) / mpmath.pi))
        values += [mpmath.mpf((-1) ** k) for k in range(k0, min(k1, k0 + 1) + 1)]
    return min(values), max(values)


@pytest.mark.parametrize("op, name, reach", [
    (iv_exp, "exp", 700.0),
    (iv_sin, "sin", 1e3),
    (iv_cos, "cos", 1e3),
    (iv_cosh, "cosh", 700.0),
    (iv_sinh, "sinh", 700.0),
], ids=["exp", "sin", "cos", "cosh", "sinh"])
def test_transcendental_ops_round_strictly_outward(op, name, reach):
    # each endpoint against the 40-digit range: point and one-ulp intervals
    # get no width padding, so only the ulp steps move them outward; sin and
    # cos bounds clamped to exactly +-1 may touch the range
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261018)
    xs = np.concatenate([[0.0, 1e-300, -1e-300, 0.5, -0.5], rng.uniform(-reach, reach, 300),
                         rng.uniform(-2.0, 2.0, 100)])
    widths = [np.zeros_like(xs), np.nextafter(xs, np.inf) - xs,
              1e-9 * (1.0 + np.abs(xs)), rng.uniform(0.0, 4.0, xs.size)]
    lo = np.concatenate([xs] * len(widths))
    hi = lo + np.concatenate(widths)
    out_lo, out_hi = op((lo, hi))
    clamp = 1.0 if name in ("sin", "cos") else math.inf
    with mpmath.workdps(40):
        for k, (a, b, got_lo, got_hi) in enumerate(
                zip(lo.tolist(), hi.tolist(), out_lo.tolist(), out_hi.tolist())):
            want_lo, want_hi = _exact_range(mpmath, name, a, b)
            assert got_lo < want_lo or got_lo == -clamp, (k, a, b)
            assert want_hi < got_hi or got_hi == clamp, (k, a, b)


def test_numpy_hypot_within_one_ulp_of_mpmath():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261019)
    xs, ys = (rng.choice([-1.0, 1.0], 2000) * 10.0 ** rng.uniform(-20, 20, 2000)
              for _ in range(2))
    with mpmath.workprec(200):
        for x, y, v in zip(xs, ys, np.hypot(xs, ys)):
            h = mpmath.sqrt(mpmath.mpf(float(x)) ** 2 + mpmath.mpf(float(y)) ** 2)
            assert mpmath.mpf(float(np.nextafter(v, -np.inf))) <= h
            assert h <= mpmath.mpf(float(np.nextafter(v, np.inf)))


# ---------------------------------------------------------------------------
# Series tails.
# ---------------------------------------------------------------------------

def test_exp_tail_bound_frozen_value():
    # rho=1/2, two kept terms: (1/2)^2/2! * 1/(1 - (1/2)/3) = 0.15
    assert exp_tail_bound(0.5, 2) == pytest.approx(0.15, abs=1e-12)


def test_exp_tail_bound_dominates_sampled_remainder():
    rho, n = 0.5, 2
    bound = exp_tail_bound(rho, n)
    worst = 0.0
    for k in range(1000):
        z = rho * cmath.exp(2j * math.pi * k / 1000.0)
        rem = cmath.exp(z) - 1.0 - z
        worst = max(worst, abs(rem))
    assert worst <= bound


def test_exp_tail_bound_domain():
    with pytest.raises(DomainError):
        exp_tail_bound(3.0, 2)
    with pytest.raises(DomainError):
        exp_tail_bound(-0.1, 2)
    assert exp_tail_bound(0.0, 5) == 0.0


@pytest.mark.parametrize("quot,drop,ref", [
    (lambda b: quot_exp_tail(b, 1), 1, lambda z: (cmath.exp(z) - 1.0) / z),
    (lambda b: quot_exp_tail(b, 2), 2, lambda z: (cmath.exp(z) - 1.0 - z) / z ** 2),
    (quot_one_minus_cos, 2, lambda z: (1.0 - cmath.cos(z)) / z ** 2),
    (quot_z_minus_sin, 3, lambda z: (z - cmath.sin(z)) / z ** 3),
    (quot_cos_defect, 4, lambda z: (cmath.cos(z) - 1.0 + z ** 2 / 2.0) / z ** 4),
])
def test_series_quotients_enclose_samples(quot, drop, ref):
    boxes, values = [], []
    for _ in range(300):
        # stay away from 0 so the naive reference does not lose precision,
        # and keep |z| modest so it does not cancel catastrophically either
        cx = RNG.uniform(0.2, 1.2) * RNG.choice([-1.0, 1.0])
        cy = RNG.uniform(0.2, 1.2) * RNG.choice([-1.0, 1.0])
        w = RNG.uniform(0.0, 0.3)
        b = ComplexBox(cx, cx + w, cy, cy + w)
        boxes.append(b)
        values.append([ref(_sample(b)) for _ in range(8)])
    values = np.array(values)
    tol = 1e-9 * (1.0 + np.abs(values))  # reference itself cancels ~6 digits
    assert encloses(quot(Boxes.of(boxes)), values, atol=tol).all()


def test_series_quotient_limit_at_zero():
    # value at z -> 0 is the leading coefficient
    tiny = Boxes.of([ComplexBox(-1e-300, 1e-300, -1e-300, 1e-300)])
    assert encloses(quot_exp_tail(tiny, 2), [[0.5]], atol=1e-12).all()
    assert encloses(quot_one_minus_cos(tiny), [[0.5]], atol=1e-12).all()
    assert encloses(quot_z_minus_sin(tiny), [[1.0 / 6.0]], atol=1e-12).all()
    assert encloses(quot_cos_defect(tiny), [[1.0 / 24.0]], atol=1e-12).all()


def test_series_quotient_rejects_huge_box():
    with pytest.raises(DomainError):
        quot_exp_tail(Boxes.of([ComplexBox(-40.0, 40.0, -40.0, 40.0)]), 2)


# ---------------------------------------------------------------------------
# Adversarial-float properties.  Corners of a box are exact members, so they
# make sampling-free witnesses; hypothesis supplies the nasty endpoint combos.
# ---------------------------------------------------------------------------

coord = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
extent = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


def _corners(b: ComplexBox) -> list[complex]:
    return [complex(re, im) for re in (b.re_lo, b.re_hi)
            for im in (b.im_lo, b.im_hi)]


@given(coord, coord, extent, extent, coord, coord, extent, extent)
@settings(deadline=None)
def test_hull_contains_both_operands(ax, ay, aw, ah, bx, by, bw, bh):
    a = ComplexBox(ax, ax + aw, ay, ay + ah)
    b = ComplexBox(bx, bx + bw, by, by + bh)
    h = Boxes.of([a.hull(b)])
    assert _within(Boxes.of([a]), h)[0] and _within(Boxes.of([b]), h)[0]
    assert encloses(h, [_corners(a) + _corners(b)]).all()


@given(coord, coord, extent, extent, coord, coord, extent, extent)
@settings(deadline=None)
def test_mul_contains_corner_products(ax, ay, aw, ah, bx, by, bw, bh):
    a = ComplexBox(ax, ax + aw, ay, ay + ah)
    b = ComplexBox(bx, bx + bw, by, by + bh)
    out = box_mul(Boxes.of([a]), Boxes.of([b]))
    v = np.array([[za * zb for za in _corners(a) for zb in _corners(b)]])
    assert encloses(out, v, atol=1e-12 * (1.0 + np.abs(v))).all()


@given(coord, coord, extent, extent,
       st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
@settings(deadline=None)
def test_inflate_preserves_membership(cx, cy, w, h, pad):
    b = Boxes.of([ComplexBox(cx, cx + w, cy, cy + h)])
    grown = box_inflate(b, pad)
    assert _within(b, grown)[0]
    assert encloses(grown, [_corners(ComplexBox(cx, cx + w, cy, cy + h))]).all()
