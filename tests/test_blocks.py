"""The block ops against the per-part reference (tests/oracles.py), bit for bit.

Every box op of wanderlab.numerics, and maps.eval_map_box on every bundled
family, g, their first two derivatives and a tape of constants only, must
give the reference's reason codes everywhere and its endpoint bits wherever
the code is NONE.  The batches mix ordinary boxes with pole-touching ones,
overflow through exp and sin, inf and NaN ends, subnormal and signed-zero
ends, point boxes, wide and huge trig arguments, ends a few ulps from an
extremum of sin or cos, and boxes that arrive with a code set.
"""
from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import (
    PartBoxes,
    eval_map_box_reference,
    part_box_add,
    part_box_cos,
    part_box_div,
    part_box_exp,
    part_box_inflate,
    part_box_mag,
    part_box_mig,
    part_box_mul,
    part_box_neg,
    part_box_pow_int,
    part_box_recip,
    part_box_sin,
    part_box_sub,
    part_boxes,
    part_point,
)
from wanderlab.maps import build_family, custom_map, derivative, eval_map_box, ex2_g_map
from wanderlab.numerics import (
    NONE,
    OVERFLOW,
    POLE,
    Boxes,
    box_add,
    box_cos,
    box_div,
    box_exp,
    box_inflate,
    box_mag,
    box_mig,
    box_mul,
    box_neg,
    box_pow_int,
    box_recip,
    box_sin,
    box_sub,
)

SIZES = [0, 1, 16, 4096]
EX1_A = 0.02


def _pool(seed: int, n: int = 4096) -> Boxes:
    """n seeded boxes of many kinds, shuffled; see the module docstring."""
    rng = np.random.default_rng(seed)
    kinds = rng.integers(0, 10, n)
    c = rng.uniform(-4.0, 4.0, (2, n))
    h = 10.0 ** rng.uniform(-15.0, 0.3, (2, n))
    # scales from 1e-300 to 1e300
    k = kinds == 1
    c[:, k] = rng.choice([-1.0, 1.0], (2, k.sum())) * 10.0 ** rng.uniform(-300, 300, (2, k.sum()))
    h[:, k] = np.abs(c[:, k]) * 10.0 ** rng.uniform(-16.0, 0.0, (2, k.sum()))
    # the poles: 0, and ex1's at a + 2 pi i k
    k = kinds == 2
    c[:, k] = rng.uniform(-1e-3, 1e-3, (2, k.sum())) * rng.choice([1.0, 1e-6], (2, k.sum()))
    c[0, k] += rng.choice([0.0, EX1_A], k.sum())
    c[1, k] += rng.integers(-2, 3, k.sum()) * (2.0 * math.pi)
    h[:, k] = 10.0 ** rng.uniform(-12.0, -2.0, (2, k.sum()))
    # overflow through exp (re near 800) and through sin (im near 800)
    k = kinds == 3
    c[:, k] = rng.choice([-1.0, 1.0], (2, k.sum())) * rng.uniform(700.0, 800.0, (2, k.sum()))
    # wide trig arguments, huge ones, and ends near an extremum of sin or cos
    k = kinds == 4
    c[0, k] = rng.choice([1.0, 1e15, 3e15], k.sum()) * rng.uniform(-4.0, 4.0, k.sum())
    h[0, k] = rng.choice([1e-9, 3.0, 4.0], k.sum())
    k = kinds == 5     # sin z reads sin and cos of re z, exp z of im z
    reach = np.array([[2e3], [4.0]])
    c[:, k] = np.round(rng.uniform(-reach, reach, (2, k.sum()))) * (0.5 * math.pi)
    c[:, k] += rng.integers(-4, 5, (2, k.sum())) * np.spacing(c[:, k])
    h[:, k] = rng.choice([0.0, 1e-15, 0.5], (2, k.sum()))
    lo, hi = c - h, c + h
    # point boxes
    k = kinds == 6
    hi[:, k] = lo[:, k]
    # subnormal and signed-zero ends
    k = kinds == 7
    tiny = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308])
    lo[:, k] = rng.choice(tiny, (2, k.sum()))
    hi[:, k] = np.maximum(lo[:, k], rng.choice(tiny, (2, k.sum())))
    ends = np.stack([lo[0], hi[0], lo[1], hi[1]])
    # inf and NaN ends
    k = np.flatnonzero((kinds == 8) | ((kinds == 1) & (rng.random(n) < 0.3)))
    row = rng.integers(0, 4, k.size)
    ends[row, k] = rng.choice([np.inf, -np.inf, np.nan], k.size)
    why = np.zeros(n, np.uint8)
    k = kinds == 9
    why[k] = rng.choice([POLE, OVERFLOW], k.sum())
    order = rng.permutation(n)
    return Boxes(np.ascontiguousarray(ends[[0, 2, 1, 3]][:, order]).reshape(2, 2, n),
                 why[order])


def _assert_same(got: Boxes, want: PartBoxes) -> None:
    assert got.why.dtype == np.uint8
    assert got.why.tolist() == want.why.tolist()
    ok = want.why == NONE
    for mine, ref in zip((got.re_lo, got.re_hi, got.im_lo, got.im_hi), want[:4]):
        assert mine.shape == ref.shape
        assert mine[ok].tobytes() == ref[ok].tobytes()


def _assert_same_values(got: np.ndarray, want: np.ndarray) -> None:
    nan = np.isnan(want)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.fixture(scope="module")
def pools():
    return _pool(20261101), _pool(20261102)


def _batch(pools, size, which=0) -> Boxes:
    return pools[which].select(slice(0, size))


UNARY = [
    (box_neg, part_box_neg),
    (box_recip, part_box_recip),
    (box_exp, part_box_exp),
    (box_sin, part_box_sin),
    (box_cos, part_box_cos),
    (lambda a: box_pow_int(a, 3), lambda a: part_box_pow_int(a, 3)),
    (lambda a: box_inflate(a, 0.25), lambda a: part_box_inflate(a, 0.25)),
    (lambda a: box_inflate(a, np.abs(a.re_lo)), lambda a: part_box_inflate(a, np.abs(a.re_lo))),
]
BINARY = [
    (box_add, part_box_add),
    (box_sub, part_box_sub),
    (box_mul, part_box_mul),
    (box_div, part_box_div),
]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("k", range(len(UNARY)),
                         ids=["neg", "recip", "exp", "sin", "cos", "pow3", "inflate", "inflate_r"])
def test_unary_block_ops_match_the_reference(pools, k, size):
    block, part = UNARY[k]
    a = _batch(pools, size)
    with np.errstate(all="ignore"):
        _assert_same(block(a), part(part_boxes(a)))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("k", range(len(BINARY)), ids=["add", "sub", "mul", "div"])
def test_binary_block_ops_match_the_reference(pools, k, size):
    # two batches, and a batch against a constant of width 1 either way round
    block, part = BINARY[k]
    a, b = _batch(pools, size), _batch(pools, size, 1)
    z = -0.75 + 2.5j
    with np.errstate(all="ignore"):
        _assert_same(block(a, b), part(part_boxes(a), part_boxes(b)))
        _assert_same(block(a, Boxes.point(z)), part(part_boxes(a), part_point(z, size)))
        _assert_same(block(Boxes.point(z), a), part(part_point(z, size), part_boxes(a)))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("center", [0j, 2.0 - 1.5j])
def test_mag_and_mig_match_the_reference(pools, size, center):
    a = _batch(pools, size)
    with np.errstate(all="ignore"):
        _assert_same_values(box_mag(a, center), part_box_mag(part_boxes(a), center))
        _assert_same_values(box_mig(a, center), part_box_mig(part_boxes(a), center))


def _maps():
    bases = {
        "ex1": build_family("ex1", {"a": EX1_A, "eps": EX1_A ** 2 / 16}),
        "ex2": build_family("ex2", {"eps": 1e-3}),
        "ex5": build_family("ex5"),
        "ex3_model": build_family("ex3_model", {"eps": 0.01}),
        "ex4_model": build_family("ex4_model", {"eps": 0.01}),
        "g": ex2_g_map(),
    }
    out = {}
    for name, m in bases.items():
        out[name] = m
        out[name + "'"] = derivative(m)
        out[name + "''"] = derivative(derivative(m))
    out["constants"] = custom_map("(add (exp 2) (div 1 (sin (mul 0.5 i))))")
    return out


MAPS = _maps()


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", sorted(MAPS))
def test_eval_map_box_matches_the_reference(pools, name, size):
    a = _batch(pools, size)
    _assert_same(eval_map_box(MAPS[name], a), eval_map_box_reference(MAPS[name], a))


def test_the_pool_holds_each_kind_of_box(pools):
    # the cases the module docstring promises, counted on the batch of 4096
    a, ref = pools[0], part_boxes(pools[0])
    ends = a.ends
    assert np.isnan(ends).any() and np.isinf(ends).any()
    finite = ends[np.isfinite(ends)]
    assert (finite == 0.0).any() and (np.signbit(finite) & (finite == 0.0)).any()
    assert ((finite != 0.0) & (np.abs(finite) < 2.2250738585072014e-308)).any()
    assert (a.why == POLE).any() and (a.why == OVERFLOW).any()
    with np.errstate(all="ignore"):
        assert (part_box_recip(ref).why == POLE).sum() > 10
        assert (part_box_exp(ref).why == OVERFLOW).sum() > 10
        assert (part_box_sin(ref).why == OVERFLOW).sum() > 10
