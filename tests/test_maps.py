"""Family construction, evaluation coherence, and symbolic derivatives."""
from __future__ import annotations

import cmath
import math
import random

import numpy as np
import pytest

import wanderlab.maps
from oracles import encloses
from wanderlab.maps import (
    Add,
    Const,
    MeromorphicMap,
    ParamConstraintViolation,
    ParseError,
    PoleHitError,
    build_family,
    custom_map,
    derivative,
    eval_map,
    eval_map_box,
    eval_map_vec,
    ex2_g_map,
    parse_expr,
    solve_ex2_params,
    to_sexpr,
)
from wanderlab.numerics import NONE, OVERFLOW, POLE, Boxes, ComplexBox

RNG = random.Random(365214)

A1 = 2.0 ** -6
EPS1 = 2.0 ** -16
EPS2 = 1e-5


def _families() -> list[MeromorphicMap]:
    return [
        build_family("ex1", {"a": A1, "eps": EPS1}),
        build_family("ex2", {"eps": EPS2}),
        build_family("ex5"),
        build_family("ex3_model", {"eps": 1e-5}),
        build_family("ex4_model", {"eps": 1e-5}),
    ]


def _safe_point(m: MeromorphicMap, scale: float = 2.0) -> complex:
    while True:
        z = complex(RNG.uniform(-scale, scale), RNG.uniform(-scale, scale))
        if all(abs(z - p) > 0.05 for p in m.declared_poles):
            return z


# ---------------------------------------------------------------------------
# Construction and constraints.
# ---------------------------------------------------------------------------

def test_ex1_params_accepted_at_extreme():
    m = build_family("ex1", {"a": A1, "eps": EPS1})
    assert m.params["eps"] == A1 * A1 / 16.0
    assert m.declared_poles == (complex(A1),)


def test_ex1_param_rejections():
    with pytest.raises(ParamConstraintViolation):
        build_family("ex1", {"a": 1.0 / 16.0, "eps": 1e-6})
    with pytest.raises(ParamConstraintViolation):
        build_family("ex1", {"a": A1, "eps": A1 * A1 / 16.0 * 1.01})
    with pytest.raises(ParamConstraintViolation):
        build_family("ex1", {"a": A1, "eps": 0.0})


def test_ex2_param_rejections():
    with pytest.raises(ParamConstraintViolation):
        build_family("ex2", {"eps": 1.0 / 144.0})
    with pytest.raises(ParamConstraintViolation):
        build_family("ex2", {"eps": 1e-3, "r1": 0.1})  # 6*sqrt(1e-3) > 0.1


def test_ex5_takes_no_params():
    m = build_family("ex5")
    assert m.declared_poles == ()
    with pytest.raises(ParamConstraintViolation):
        build_family("ex5", {"a": 1.0})


def test_solve_ex2_params_identities():
    a, lam = solve_ex2_params()
    assert abs(lam * math.sin(a) - 2.0 * math.pi) < 1e-12
    assert abs(1.0 + lam * math.cos(a)) < 1e-12
    assert abs(a - 1.728) < 1e-3
    assert abs(lam - 6.362) < 1e-3
    assert a + math.atan(2.0 * math.pi) == pytest.approx(math.pi, abs=1e-15)


# ---------------------------------------------------------------------------
# Scalar evaluation.
# ---------------------------------------------------------------------------

def test_eval_pole_hits():
    m1 = build_family("ex1", {"a": A1, "eps": EPS1})
    with pytest.raises(PoleHitError) as e:
        eval_map(m1, A1)
    assert e.value.pole == complex(A1)
    m2 = build_family("ex2", {"eps": EPS2})
    with pytest.raises(PoleHitError):
        eval_map(m2, 0.0)
    # snap zone: close but not exactly on the pole
    with pytest.raises(PoleHitError):
        eval_map(m2, 1e-14 + 0j)


def test_ex2_value_at_two_pi():
    m = build_family("ex2", {"eps": EPS2})
    got = eval_map(m, 2.0 * math.pi)
    want = 4.0 * math.pi + EPS2 / (2.0 * math.pi)
    assert abs(got - want) < 1e-12


def test_ex2_station_translation_identity():
    # g(z + 2*pi) = g(z) + 2*pi
    g = ex2_g_map()
    for _ in range(1000):
        z = complex(RNG.uniform(-10, 10), RNG.uniform(-3, 3))
        lhs = eval_map(g, z + 2.0 * math.pi)
        rhs = eval_map(g, z) + 2.0 * math.pi
        assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))


def test_ex1_vertical_period_identity():
    # f(z) - 2z repeats under z -> z + 2*pi*i
    m = build_family("ex1", {"a": A1, "eps": EPS1})
    shift = 2.0j * math.pi
    for _ in range(1000):
        z = _safe_point(m, scale=1.5)
        if abs(z - shift - A1) < 0.05:
            continue
        phi = eval_map(m, z) - 2.0 * z
        phi_shifted = eval_map(m, z + shift) - 2.0 * (z + shift)
        assert abs(phi - phi_shifted) < 1e-10 * (1.0 + abs(phi))


def test_ex2_real_zero_exists_left_of_origin():
    # sign change of f on the real segment between -3e-5 and -1e-7
    m = build_family("ex2", {"eps": EPS2})
    assert eval_map(m, -3e-5).real > 0.0
    assert eval_map(m, -1e-7).real < 0.0


def test_ex2_repelling_fixed_point_bracket():
    # f(x) - x changes sign on [3*pi, 4*pi]
    m = build_family("ex2", {"eps": EPS2})
    lo, hi = 3.0 * math.pi, 4.0 * math.pi
    assert (eval_map(m, lo) - lo).real < 0.0
    assert (eval_map(m, hi) - hi).real > 0.0


# ---------------------------------------------------------------------------
# Vectorized and box evaluation coherence.
# ---------------------------------------------------------------------------

def test_vec_agrees_with_scalar():
    for m in _families():
        pts = np.array([_safe_point(m) for _ in range(500)])
        vals, bad = eval_map_vec(m, pts)
        assert not bad.any()
        for z, v in zip(pts, vals):
            assert abs(eval_map(m, z) - v) < 1e-12 * (1.0 + abs(v))


def test_vec_flags_poles():
    m = build_family("ex2", {"eps": EPS2})
    vals, bad = eval_map_vec(m, np.array([0.0 + 0j, 1e-14 + 0j, 1.0 + 0j]))
    assert bad[0] and bad[1] and not bad[2]


def _centered(c: complex, half: float) -> ComplexBox:
    return ComplexBox(c.real - half, c.real + half, c.imag - half, c.imag + half)


def test_box_eval_encloses_scalar_samples():
    # one batched call per family over all its boxes; _safe_point keeps
    # every box at least 0.02 away from the declared poles
    for m in _families():
        boxes, values = [], []
        for _ in range(100):
            b = _centered(_safe_point(m, scale=1.5), RNG.uniform(0.0, 0.02))
            boxes.append(b)
            values.append([eval_map(m, complex(RNG.uniform(b.re_lo, b.re_hi),
                                               RNG.uniform(b.im_lo, b.im_hi)))
                           for _ in range(100)])
        values = np.array(values)
        out = eval_map_box(m, Boxes.of(boxes))
        assert encloses(out, values, atol=1e-11 * (1.0 + np.abs(values))).all()


def test_box_eval_pole_intersect():
    m = build_family("ex2", {"eps": EPS2})
    assert eval_map_box(m, Boxes.of([_centered(0j, 0.1)])).why[0] == POLE


def _mixed_boxes(rng: random.Random, n: int) -> list[ComplexBox]:
    """Ordinary boxes, boxes around the pole at 0, and boxes where exp or
    sin overflows, interleaved."""
    out = []
    for i in range(n):
        kind = i % 4
        if kind == 0:
            c = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        elif kind == 1:
            c = complex(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        elif kind == 2:
            c = complex(rng.uniform(690, 730), rng.uniform(-3, 3))
        else:
            c = complex(rng.uniform(-3, 3), rng.uniform(690, 730))
        out.append(_centered(c, rng.uniform(0.0, 0.1)))
    return out


@pytest.mark.parametrize("m", [
    custom_map("(add (div 1 z) (mul z (exp z)))", declared_poles=(0j,)),
    build_family("ex2", {"eps": 1e-5}),
    custom_map("(sub (mul (exp z) (exp z)) (mul (exp z) (exp z)))"),
], ids=["pole-exp", "ex2", "inf-minus-inf"])
def test_box_eval_batch_matches_single_boxes(m):
    # a box's enclosure and reason code do not depend on the batch around it
    boxes = _mixed_boxes(random.Random(9001), 1000)
    batch = eval_map_box(m, Boxes.of(boxes))
    assert {int(w) for w in batch.why} >= {NONE, OVERFLOW}
    for i, b in enumerate(boxes):
        alone = eval_map_box(m, Boxes.of([b]))
        assert alone.why[0] == batch.why[i]
        assert (np.array([e[0] for e in alone[:4]]).tobytes()
                == np.array([e[i] for e in batch[:4]]).tobytes())
    if m.declared_poles:
        assert (batch.why == POLE).any()


def test_eval_in_point_box():
    for m in _families():
        zs = np.array([_safe_point(m) for _ in range(50)])
        values = np.array([[eval_map(m, z)] for z in zs])
        out = eval_map_box(m, Boxes(zs.real, zs.real, zs.imag, zs.imag, np.zeros(50, np.uint8)))
        assert encloses(out, values, atol=1e-11 * (1.0 + np.abs(values))).all()


def test_vec_constant_map_keeps_input_shape():
    m = custom_map("(exp a)", {"a": 0.5})
    zs = np.zeros((3, 4), dtype=np.complex128)
    vals, bad = eval_map_vec(m, zs)
    assert vals.shape == bad.shape == zs.shape
    assert not bad.any()
    assert (vals == cmath.exp(0.5)).all()


def test_box_eval_shares_subtrees_and_looks_ops_up_per_call(monkeypatch):
    # derivative(ex1) holds exp(z) three times and exp(a) once; the tape
    # evaluates each once, through the box_exp bound in wanderlab.maps now
    calls = []
    box_exp = wanderlab.maps.box_exp
    dm = derivative(build_family("ex1", {"a": A1, "eps": EPS1}))
    b = Boxes.of([_centered(0.5 + 0.5j, 0.01)])
    want = eval_map_box(dm, b)
    monkeypatch.setattr(wanderlab.maps, "box_exp",
                        lambda x: calls.append(x) or box_exp(x))
    assert all(np.array_equal(x, y) for x, y in zip(eval_map_box(dm, b), want))
    assert len(calls) == 2


def test_constants_share_slots_only_when_bit_identical():
    # one slot for both zeros would give -0.0 + -0.0 = -0.0
    assert math.copysign(1.0, eval_map(custom_map("(add -0.0 0.0)"), 1.0).real) == 1.0
    assert len(custom_map("(add 2.0 2.0)").tape.leaves) == 1
    nan_map = MeromorphicMap(Add(Const(math.nan), Const(math.nan)), {}, (), "custom")
    assert len(nan_map.tape.leaves) == 2


# ---------------------------------------------------------------------------
# Derivatives.
# ---------------------------------------------------------------------------

def test_derivative_matches_finite_differences():
    for m in _families():
        dm = derivative(m)
        for _ in range(100):
            z = _safe_point(m)
            h = 1e-6 * max(1.0, abs(z))
            try:
                got = eval_map(dm, z)
                fd = (eval_map(m, z + h) - eval_map(m, z - h)) / (2.0 * h)
            except PoleHitError:
                continue
            if abs(fd) < 1e-9:
                continue
            assert abs(got - fd) / abs(fd) < 1e-6, f"{m.family_id} at {z}"


def test_ex2_g_derivative_vanishes_at_stations():
    g = ex2_g_map()
    dg = derivative(g)
    for n in range(4):
        v = eval_map(dg, 2.0 * math.pi * n)
        assert abs(v) < 1e-12


def test_ex5_derivative_critical_point():
    m = build_family("ex5")
    dm = derivative(m)
    assert abs(eval_map(dm, -1.0)) < 1e-15
    # (1+z)e^z sampled
    for _ in range(50):
        z = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
        want = (1.0 + z) * cmath.exp(z)
        assert abs(eval_map(dm, z) - want) < 1e-12 * (1.0 + abs(want))


def test_derivative_keeps_pole_set():
    m = build_family("ex2", {"eps": EPS2})
    dm = derivative(m)
    assert dm.declared_poles == m.declared_poles
    with pytest.raises(PoleHitError):
        eval_map(dm, 0.0)


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def test_parse_reference_expression():
    m = custom_map("(add (mul z (exp z)) (div eps z))", {"eps": 1e-5},
                   declared_poles=(0j,))
    z = 0.7 - 0.3j
    want = z * cmath.exp(z) + 1e-5 / z
    assert abs(eval_map(m, z) - want) < 1e-14


def test_parse_atoms_and_pow():
    m = custom_map("(sub (pow z 3) (mul 2.5 i))")
    z = 1.1 + 0.2j
    assert abs(eval_map(m, z) - (z ** 3 - 2.5j)) < 1e-14
    m2 = custom_map("(mul pi z)")
    assert abs(eval_map(m2, 2.0) - 2.0 * math.pi) < 1e-15


def test_parse_nary_add():
    m = custom_map("(add 1 z (neg (sin z)))")
    z = 0.3 + 0.1j
    assert abs(eval_map(m, z) - (1.0 + z - cmath.sin(z))) < 1e-14


@pytest.mark.parametrize("bad", [
    "",
    "(add z",
    "(frob z 1)",
    "(pow z z)",
    "(pow z 1)",
    "(div z)",
    "z extra",
    ")",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse_expr(bad)


def test_sexpr_roundtrip():
    for m in _families():
        text = to_sexpr(m.expr)
        reparsed = parse_expr(text)
        for _ in range(20):
            z = _safe_point(m)
            m2 = MeromorphicMap(reparsed, m.params, m.declared_poles, m.family_id)
            assert abs(eval_map(m, z) - eval_map(m2, z)) < 1e-13
