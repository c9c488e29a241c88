"""Box arithmetic soundness: sampled images must land inside computed enclosures."""
from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import boxes_of, encloses, nextafter_out_hi, nextafter_out_lo, rows
from wanderlab.numerics import (
    NONE,
    OVERFLOW,
    POLE,
    Boxes,
    ComplexBox,
    _first_code,
    _mul,
    _out_hi,
    _out_lo,
    _ranges,
    _recip,
    _result,
    _sq,
    _step,
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
    _assert_encloses(out.select(~pole), values, "box_recip")


def test_recip_point_box():
    out = box_recip(Boxes.point(0.5 + 0.5j))
    _assert_encloses(out, [[1.0 - 1.0j]], "recip(0.5+0.5i)")
    assert max(out.re_hi - out.re_lo, out.im_hi - out.im_lo) < 1e-12
    # an array is a batch of point boxes, one per z, each as the single z's
    zs = np.array([0.5 + 0.5j, complex(-0.0, 2.0), complex(3.0, -0.0)])
    batch = Boxes.point(zs)
    assert batch.why.tolist() == [NONE] * 3
    assert batch.ends.tobytes() == np.stack([zs.real, zs.imag] * 2).tobytes()
    for i, z in enumerate(zs):
        assert batch.select([i]).ends.tobytes() == Boxes.point(z).ends.tobytes()
    _assert_encloses(box_recip(batch), (1.0 / zs)[:, None], "recip of a point batch")


def test_recip_of_zero_straddling_box_is_pole():
    assert box_recip(Boxes.of([ComplexBox(-1.0, 1.0, -1.0, 1.0)])).why[0] == POLE


# one box a row: the codes of two arguments a and b, whether the op met a
# pole, whether its endpoints are finite, and the code the box must get
_CODE_TABLE = [
    (NONE, NONE, False, True, NONE),
    (NONE, NONE, False, False, OVERFLOW),
    (NONE, NONE, True, False, POLE),          # a pole outranks overflow
    (NONE, OVERFLOW, True, True, OVERFLOW),   # an argument's code outranks a pole
    (NONE, POLE, False, False, POLE),         # and overflow
    (POLE, OVERFLOW, False, True, POLE),      # the first argument's code wins
    (OVERFLOW, POLE, True, True, OVERFLOW),
]


def test_first_code_precedence():
    a, b, pole, finite, want = (np.array(col) for col in zip(*_CODE_TABLE))
    a, b = a.astype(np.uint8), b.astype(np.uint8)
    assert _first_code(finite, a, b, pole.astype(np.uint8) * POLE).tolist() == want.tolist()
    assert _first_code(finite).tolist() == np.where(finite, NONE, OVERFLOW).tolist()
    # an op's result: its arguments' codes, then POLE, then OVERFLOW
    ends = np.where(finite, 1.0, math.inf)
    args = [boxes_of(ends, ends, ends, ends, why) for why in (a, b)]
    got = _result(boxes_of(ends, ends, ends, ends).ends, *args, pole=pole).why
    assert got.dtype == np.uint8 and got.tolist() == want.tolist()


@pytest.mark.parametrize("coord", range(4))
def test_complex_box_rejects_a_nan_bound(coord):
    ends = [0.0, 1.0, 0.0, 1.0]
    ends[coord] = math.nan
    with pytest.raises(ValueError, match="NaN"):
        ComplexBox(*ends)


def test_div_composes():
    out = box_div(Boxes.point(2.0 + 1.0j), Boxes.point(1.0 - 1.0j))
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


# Per function, where numerics._ranges puts its range: whether with cosh
# and sinh (else with exp), and in which column.
_RANGE_OF = {"sin": (True, 0), "cos": (True, 1), "cosh": (True, 2), "sinh": (True, 3),
             "exp": (False, 2)}


def _range(name, lo, hi):
    """The range of the function name over each interval [lo, hi]: (lo, hi) arrays."""
    hyperbolic, column = _RANGE_OF[name]
    x = np.array([np.atleast_1d(lo), np.atleast_1d(hi)], dtype=np.float64)
    with np.errstate(all="ignore"):     # cosh and sinh overflow beside sin and cos at 1e3
        out = _ranges(x, x, hyperbolic)[:, column]
    return out[0], out[1]


def test_trig_interval_hits_extrema():
    # interval spanning pi/2 must report sin range reaching 1
    lo, hi = _range("sin", 1.0, 2.0)
    assert hi[0] == 1.0
    assert lo[0] <= math.sin(1.0)
    lo, hi = _range("cos", 3.0, 3.3)
    assert lo[0] == -1.0


def test_trig_interval_huge_argument_falls_back():
    assert [e.tolist() for e in _range("sin", 1e16, 1e16 + 1.0)] == [[-1.0], [1.0]]


def test_mag_mig_bounds():
    b = Boxes.of([ComplexBox(1.0, 2.0, 1.0, 2.0)])
    assert box_mig(b)[0] <= math.sqrt(2.0) <= box_mag(b)[0]
    assert box_mig(b, 1.5 + 1.5j)[0] == 0.0
    assert abs(box_mag(b, 1.5 + 1.5j)[0] - math.hypot(0.5, 0.5)) < 1e-12


def test_quarters_cover_box():
    b = ComplexBox(-1.0, 2.0, 0.5, 3.5)
    quads = boxes_of(*box_quarters(b.re_lo, b.re_hi, b.im_lo, b.im_hi))
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
    quarters = box_quarters(*rows(boxes))
    child = box_exp(boxes_of(*(q.reshape(-1) for q in quarters)))
    assert (child.why == NONE).all() and (parent.why == NONE).all()
    assert _within(child, Boxes(np.repeat(grown.ends, 4, axis=-1), np.repeat(grown.why, 4))).all()


@pytest.mark.parametrize("op, name", [(box_exp, "exp"), (box_sin, "sin"), (box_cos, "cos")])
def test_transcendental_ops_enclose_exact_images(op, name):
    # images of seeded sample points computed to 40 digits, not in floats
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261020)
    lo = rng.uniform(-2.0, 2.0, (2, 1000))
    hi = lo + rng.uniform(0.0, 1.5, (2, 1000))
    out = op(boxes_of(lo[0], hi[0], lo[1], hi[1]))
    assert (out.why == NONE).all()
    xs, ys = (np.clip(rng.uniform(a[:, None], b[:, None], (1000, 10)), a[:, None], b[:, None])
              for a, b in zip(lo, hi))
    exact = getattr(mpmath, name)
    escapes = 0
    ends = np.stack(rows(out), axis=1).tolist()
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


def _real_part(op):
    """op on boxes whose parts are both the given intervals, as an interval op:
    the real part's ends of the result."""
    def on_intervals(*args):
        out = op(*(boxes_of(a[0], a[1], a[0], a[1]) for a in args))
        return out.re_lo, out.re_hi
    return on_intervals


def _interval_op(op):
    """A block interval helper as an op on (lo, hi) arrays."""
    def on_intervals(*args):
        out = op(*args)
        return out[0], out[1]
    return on_intervals


@pytest.mark.parametrize("op, arity, exact, nonzero", [
    (_real_part(box_add), 2, lambda a, b: (a[0] + b[0], a[1] + b[1]), False),
    (_real_part(box_sub), 2, lambda a, b: (a[0] - b[1], a[1] - b[0]), False),
    (_interval_op(_mul), 2, _exact_mul, False),
    (_interval_op(_sq), 1, lambda a: _exact_sq(*a), False),
    (_interval_op(_recip), 1, lambda a: (1 / a[1], 1 / a[0]), True),
], ids=["add", "sub", "mul", "sq", "recip"])
def test_interval_ops_round_strictly_outward(op, arity, exact, nonzero):
    # each endpoint against the exact rational result: outward rounding
    # pads every endpoint, so even exactly representable results move out
    rng = np.random.default_rng(20261021)
    args = [_endpoint_intervals(rng, 2000, nonzero=nonzero) for _ in range(arity)]
    lo, hi = op(*args)
    cases = zip(*(a.T.tolist() for a in args))
    for k, (got_lo, got_hi, case) in enumerate(zip(lo.tolist(), hi.tolist(), cases)):
        want_lo, want_hi = exact(*((Fraction(x), Fraction(y)) for x, y in case))
        assert Fraction(got_lo) < want_lo and want_hi < Fraction(got_hi), (k, case)


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


def _near_extrema(mpmath):
    """Intervals whose ends lie 0-4 ulps either side of k pi/2, an extremum
    of sin or of cos, for |k| up to 6e14 (|x| up to 9.4e14): both ends near
    it, or one end near it and the other 0.5 away."""
    ks = sorted({sign * (2 * k + odd) for k in [0, 1, 2, 3] + [10 ** p for p in range(1, 15)]
                 + [3 * 10 ** 14] for odd in (0, 1) for sign in (1, -1)})
    with mpmath.workdps(40):
        centers = np.array([float(mpmath.mpf(k) * mpmath.pi / 2) for k in ks])
    up, down = [centers], [centers]
    for _ in range(4):
        up.append(np.nextafter(up[-1], np.inf))
        down.append(np.nextafter(down[-1], -np.inf))
    ends = np.stack(down[:0:-1] + up)   # -4 .. +4 ulps, one row each
    i, j = np.triu_indices(len(ends))
    return (np.concatenate([ends[i].ravel(), ends.ravel(), ends.ravel() - 0.5]),
            np.concatenate([ends[j].ravel(), ends.ravel() + 0.5, ends.ravel()]))


@pytest.mark.parametrize("name, reach", [
    ("exp", 700.0),
    ("sin", 1e3),
    ("cos", 1e3),
    ("cosh", 700.0),
    ("sinh", 700.0),
], ids=["exp", "sin", "cos", "cosh", "sinh"])
def test_transcendental_ops_round_strictly_outward(name, reach):
    # each endpoint against the 40-digit range: point and one-ulp intervals
    # get no width padding, so only the ulp steps move them outward; sin and
    # cos bounds clamped to exactly +-1 may touch the range; sin and cos also
    # get intervals that end within a few ulps of an extremum
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261018)
    xs = np.concatenate([[0.0, 1e-300, -1e-300, 0.5, -0.5], rng.uniform(-reach, reach, 300),
                         rng.uniform(-2.0, 2.0, 100)])
    widths = [np.zeros_like(xs), np.nextafter(xs, np.inf) - xs,
              1e-9 * (1.0 + np.abs(xs)), rng.uniform(0.0, 4.0, xs.size)]
    lo = np.concatenate([xs] * len(widths))
    hi = lo + np.concatenate(widths)
    if name in ("sin", "cos"):
        near_lo, near_hi = _near_extrema(mpmath)
        lo, hi = np.concatenate([lo, near_lo]), np.concatenate([hi, near_hi])
    out_lo, out_hi = _range(name, lo, hi)
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


# ---------------------------------------------------------------------------
# Outward rounding: each step x +- (|x| H + 2^-1074) against np.nextafter.
# ---------------------------------------------------------------------------

_EXACT_FROM = 2.0 ** -1020   # from here up a step lands on the neighbour


def _rounding_edges() -> np.ndarray:
    """+-0, every power of two from 2^-1074 to 2^1023 and both its
    neighbours, +-max, +-inf and NaN."""
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.concatenate([powers, np.nextafter(powers, 0.0),
                            np.nextafter(powers, np.inf), [0.0, np.finfo(float).max]])
    return np.concatenate([edges, -edges, [np.inf, -np.inf, np.nan]])


def _bits(x: np.ndarray) -> bytes:
    return np.where(np.isnan(x), np.nan, x).tobytes()


def _check_rounding(xs: np.ndarray) -> None:
    finite = np.isfinite(xs)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in (1, 2, 3):
            for mine, ref, outward in ((_out_hi, nextafter_out_hi, np.greater_equal),
                                       (_out_lo, nextafter_out_lo, np.less_equal)):
                got, want = mine(xs, k), ref(xs, k)
                assert outward(got, want)[finite].all(), (k, mine.__name__)
                # equal wherever the k steps stay at or above 2^-1020 in
                # magnitude; below, a step may go two ulps
                exact = finite & (np.abs(xs) >= _EXACT_FROM) & (np.abs(want) >= _EXACT_FROM)
                assert (got == want)[exact].all(), (k, mine.__name__)
                # a float takes the same path as an array (up to a NaN's sign)
                for x, g in zip(xs[:8], got[:8]):
                    y = np.float64(mine(float(x), k))
                    assert y.tobytes() == g.tobytes() or np.isnan(y) and np.isnan(g)
            # the block step moves lo down and hi up as the two scalar steps
            # do, bit for bit (up to a NaN's sign); a step down on -x is the
            # step up on x negated, bit for bit but for the sign of a zero
            block = _step(np.stack([xs, xs]), k)
            assert _bits(block[0]) == _bits(_out_lo(xs, k)), k
            assert _bits(block[1]) == _bits(_out_hi(xs, k)), k
            assert _bits(-_out_lo(-xs, k) + 0.0) == _bits(_out_hi(xs, k) + 0.0), k


def test_outward_rounding_on_the_edges_of_the_format():
    _check_rounding(_rounding_edges())


@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
@settings(deadline=None, max_examples=300)
def test_outward_rounding_is_nextafter_or_wider(xs):
    _check_rounding(np.array(xs, dtype=np.float64))


def test_outward_rounding_of_infinities_and_nan():
    # an infinite end stays put, and stepping it inward gives NaN (where
    # np.nextafter gives +-max): _result codes both OVERFLOW, as it does a
    # NaN, which stays NaN
    with np.errstate(over="ignore", invalid="ignore"):
        assert _out_hi(np.inf) == np.inf and _out_lo(-np.inf) == -np.inf
        assert np.isnan(_out_hi(-np.inf)) and np.isnan(_out_lo(np.inf))
        assert np.isnan(_out_hi(np.nan)) and np.isnan(_out_lo(np.nan))
        assert _out_hi(np.finfo(float).max) == np.inf
        assert _out_lo(-np.finfo(float).max) == -np.inf
