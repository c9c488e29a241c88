"""Box arithmetic soundness: sampled images must land inside computed enclosures."""
from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wanderlab.numerics import (
    ComplexBox,
    DomainError,
    PoleIntersect,
    box_add,
    box_cos,
    box_div,
    box_exp,
    box_mul,
    box_pow_int,
    box_recip,
    box_sin,
    box_sub,
    exp_tail_bound,
    iv_cos,
    iv_sin,
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


def _assert_in(result: ComplexBox, value: complex, context: str) -> None:
    tol = 1e-12 * (1.0 + abs(value))
    assert result.contains(value, atol=tol), f"{context}: {value} escaped {result}"


@pytest.mark.parametrize("op,scalar", [
    (box_add, lambda a, b: a + b),
    (box_sub, lambda a, b: a - b),
    (box_mul, lambda a, b: a * b),
])
def test_binary_ops_enclose_samples(op, scalar):
    for _ in range(N_SAMPLES // 10):
        ba, bb = _random_box(), _random_box()
        out = op(ba, bb)
        for _ in range(10):
            za, zb = _sample(ba), _sample(bb)
            _assert_in(out, scalar(za, zb), op.__name__)


@pytest.mark.parametrize("op,scalar", [
    (box_exp, cmath.exp),
    (box_sin, cmath.sin),
    (box_cos, cmath.cos),
])
def test_transcendental_ops_enclose_samples(op, scalar):
    for _ in range(N_SAMPLES // 10):
        ba = _random_box(scale=2.0)
        out = op(ba)
        for _ in range(10):
            za = _sample(ba)
            _assert_in(out, scalar(za), op.__name__)


def test_recip_encloses_samples():
    count = 0
    while count < N_SAMPLES:
        ba = _random_box()
        try:
            out = box_recip(ba)
        except PoleIntersect:
            assert ba.mig() == 0.0
            continue
        for _ in range(10):
            za = _sample(ba)
            _assert_in(out, 1.0 / za, "box_recip")
            count += 1


def test_recip_point_box():
    out = box_recip(ComplexBox.point(0.5 + 0.5j))
    _assert_in(out, 1.0 - 1.0j, "recip(0.5+0.5i)")
    assert out.max_width() < 1e-12


def test_recip_of_zero_straddling_box_raises():
    with pytest.raises(PoleIntersect):
        box_recip(ComplexBox(-1.0, 1.0, -1.0, 1.0))


def test_div_composes():
    a = ComplexBox.point(2.0 + 1.0j)
    b = ComplexBox.point(1.0 - 1.0j)
    _assert_in(box_div(a, b), (2.0 + 1.0j) / (1.0 - 1.0j), "box_div")


def test_pow_int_encloses_samples():
    for _ in range(N_SAMPLES // 10):
        ba = _random_box(scale=1.5)
        n = RNG.randint(2, 6)
        out = box_pow_int(ba, n)
        for _ in range(10):
            za = _sample(ba)
            _assert_in(out, za ** n, f"pow{n}")


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
    b = ComplexBox(1.0, 2.0, 1.0, 2.0)
    assert b.mig() <= math.sqrt(2.0) <= b.mag()
    assert b.mig(1.5 + 1.5j) == 0.0
    assert abs(b.mag(1.5 + 1.5j) - math.hypot(0.5, 0.5)) < 1e-12


def test_split4_covers_box():
    b = ComplexBox(-1.0, 2.0, 0.5, 3.5)
    quads = b.split4()
    assert len(quads) == 4
    for _ in range(200):
        z = _sample(b)
        assert any(q.contains(z, atol=1e-15) for q in quads)
    hull = quads[0]
    for q in quads[1:]:
        hull = hull.hull(q)
    assert hull.subset_of(b.inflate(1e-15)) and b.subset_of(hull.inflate(1e-15))


def test_inclusion_monotone_under_subdivision():
    # child enclosures must be subsets of the parent enclosure
    for _ in range(200):
        b = _random_box(scale=1.0)
        parent = box_exp(b)
        for q in b.split4():
            child = box_exp(q)
            assert child.subset_of(parent.inflate(1e-13 * (1.0 + parent.mag())))


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
    for _ in range(300):
        # stay away from 0 so the naive reference does not lose precision,
        # and keep |z| modest so it does not cancel catastrophically either
        cx = RNG.uniform(0.2, 1.2) * RNG.choice([-1.0, 1.0])
        cy = RNG.uniform(0.2, 1.2) * RNG.choice([-1.0, 1.0])
        w = RNG.uniform(0.0, 0.3)
        b = ComplexBox(cx, cx + w, cy, cy + w)
        out = quot(b)
        for _ in range(8):
            z = _sample(b)
            val = ref(z)
            tol = 1e-9 * (1.0 + abs(val))  # reference itself cancels ~6 digits
            assert out.contains(val, atol=tol)


def test_series_quotient_limit_at_zero():
    # value at z -> 0 is the leading coefficient
    tiny = ComplexBox.from_center(0j, 1e-300)
    assert quot_exp_tail(tiny, 2).contains(0.5, atol=1e-12)
    assert quot_one_minus_cos(tiny).contains(0.5, atol=1e-12)
    assert quot_z_minus_sin(tiny).contains(1.0 / 6.0, atol=1e-12)
    assert quot_cos_defect(tiny).contains(1.0 / 24.0, atol=1e-12)


def test_series_quotient_rejects_huge_box():
    with pytest.raises(DomainError):
        quot_exp_tail(ComplexBox.from_center(0j, 40.0), 2)


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
    h = a.hull(b)
    assert a.subset_of(h) and b.subset_of(h)
    for z in _corners(a) + _corners(b):
        assert h.contains(z)


@given(coord, coord, extent, extent, coord, coord, extent, extent)
@settings(deadline=None)
def test_mul_contains_corner_products(ax, ay, aw, ah, bx, by, bw, bh):
    a = ComplexBox(ax, ax + aw, ay, ay + ah)
    b = ComplexBox(bx, bx + bw, by, by + bh)
    out = box_mul(a, b)
    for za in _corners(a):
        for zb in _corners(b):
            v = za * zb
            assert out.contains(v, atol=1e-12 * (1.0 + abs(v)))


@given(coord, coord, extent, extent,
       st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
@settings(deadline=None)
def test_inflate_preserves_membership(cx, cy, w, h, pad):
    b = ComplexBox(cx, cx + w, cy, cy + h)
    grown = b.inflate(pad)
    assert b.subset_of(grown)
    for z in _corners(b):
        assert grown.contains(z)
