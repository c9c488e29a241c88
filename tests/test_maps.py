"""Family construction, evaluation coherence, symbolic derivatives and Taylor enclosures."""
from __future__ import annotations

import cmath
import importlib
import math
import pickle
import random
import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

import wanderlab.maps
import wanderlab.numerics
from oracles import (
    boxes_of,
    encloses,
    newton_roots_reference,
    nextafter_out_hi,
    nextafter_out_lo,
    nextafter_step,
    rows,
    run_unfolded,
)
from wanderlab.maps import (
    OPS,
    MeromorphicMap,
    Node,
    NonFiniteValue,
    ParamConstraintViolation,
    ParseError,
    PoleHitError,
    build_family,
    custom_map,
    derivative,
    eval_map,
    eval_map_box,
    eval_map_vec,
    eval_mean_value_ball,
    eval_taylor_ball,
    ex2_admissible,
    ex2_g_map,
    minus,
    newton_roots,
    parse_expr,
    seed_grid,
    solve_ex2_params,
    to_sexpr,
)
from wanderlab.numerics import (
    NONE,
    OVERFLOW,
    POLE,
    Boxes,
    ComplexBox,
    box_inflate,
    box_mag,
    box_mig,
)

RNG = random.Random(365214)

A1 = 2.0 ** -6
EPS1 = 2.0 ** -16
EPS2 = 1e-5


# each bundled family's test parameters
_FAMILY_PARAMS = {"ex1": {"a": A1, "eps": EPS1}, "ex2": {"eps": EPS2}, "ex5": None,
                  "ex3_model": {"eps": 1e-5}, "ex4_model": {"eps": 1e-5}}


def _families() -> list[MeromorphicMap]:
    return [build_family(name, params) for name, params in _FAMILY_PARAMS.items()]


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
    assert not ex2_admissible(1e-3, 0.1)  # 6*sqrt(1e-3) > 0.1
    assert ex2_admissible(1e-5, 40 / 1024) and ex2_admissible(1e-3)
    assert not ex2_admissible(0.0) and not ex2_admissible(math.nan)
    # r1 is the search's bound, not a parameter of the map
    with pytest.raises(ParamConstraintViolation, match="unknown ex2 params"):
        build_family("ex2", {"eps": 1e-5, "r1": 0.1})


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
# Point evaluation: a batch of one.
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

# Each family's formula, as written in build_family's docstring.
_CLOSED_FORMS = {
    "ex1": lambda z, p: (2 + 2 * z - 2 * cmath.exp(z)
                         + p["eps"] / (cmath.exp(z) - cmath.exp(p["a"]))),
    "ex2": lambda z, p: z + p["eps"] / z + p["lam"] * cmath.sin(z + p["a"]),
    "ex5": lambda z, p: z * cmath.exp(z),
    "ex3_model": lambda z, p: 4 * cmath.exp(z) - p["eps"] / z,
    "ex4_model": lambda z, p: cmath.exp(z) - math.sqrt(p["eps"]) - p["eps"] / z,
}


def test_vec_agrees_with_scalar():
    # scalar cmath values of the closed forms, not the tape
    for name, params in _FAMILY_PARAMS.items():
        m = build_family(name, params)
        pts = np.array([_safe_point(m) for _ in range(500)])
        vals, bad = eval_map_vec(m, pts)
        assert not bad.any()
        for z, v in zip(pts, vals):
            want = _CLOSED_FORMS[name](complex(z), m.params)
            assert abs(want - v) < 1e-12 * (1.0 + abs(v))


def test_eval_map_raises_where_vec_flags_overflow():
    # overflow is not a pole hit: the error names the point and no pole
    for m, z in ((build_family("ex5"), 800.0), (custom_map("(exp z)"), 705.0)):
        assert eval_map_vec(m, np.array([z]))[1][0]
        with pytest.raises(NonFiniteValue) as e:
            eval_map(m, z)
        assert e.value.where == complex(z)
        assert str(complex(z)) in str(e.value) and "overflow" in str(e.value)
        assert "hit pole" not in str(e.value)
        assert not isinstance(e.value, PoleHitError)


# each op guard, the entry it fires on, and the op in numpy, which is
# finite at that entry: the guard, not overflow, flags it
_GUARDS = {
    "sin-imag-705": ("(sin z)", 1.0 + 705j, np.sin),
    "div-below-floor": ("(div 1 z)", 1e-301 + 0j, lambda z: 1 / z),
    "exp-real-705": ("(exp z)", 705.0 + 0j, np.exp),
}


@pytest.mark.parametrize("fires", [False, True], ids=["quiet", "fires"])
@pytest.mark.parametrize("guard", list(_GUARDS))
def test_vec_guard_flags_only_its_entries(guard, fires):
    text, z, op = _GUARDS[guard]
    m = custom_map(text)            # no declared pole: a flag is the guard's
    with np.errstate(all="ignore"):
        assert np.isfinite(op(np.array([z]))).all()
    ordinary = np.array([0.5 + 0.25j, -1.0 + 2.0j, 3.0 - 0.5j, 1e-3 - 700j])
    zs = np.insert(ordinary, 2, z) if fires else ordinary
    vals, bad = eval_map_vec(m, zs)
    assert bad.tolist() == [i == 2 and fires for i in range(zs.size)]
    assert vals[~bad].tobytes() == op(ordinary).tobytes()
    with pytest.raises(NonFiniteValue) as e:
        eval_map(m, z)
    assert e.value.where == z and not isinstance(e.value, PoleHitError)


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
        boxes, points = [], []
        for _ in range(100):
            b = _centered(_safe_point(m, scale=1.5), RNG.uniform(0.0, 0.02))
            boxes.append(b)
            points.append([complex(RNG.uniform(b.re_lo, b.re_hi), RNG.uniform(b.im_lo, b.im_hi))
                           for _ in range(100)])
        values, bad = eval_map_vec(m, np.array(points))
        assert not bad.any()
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


@pytest.mark.parametrize("m, probes", [
    (custom_map("(add (div 1 z) (mul z (exp z)))", declared_poles=(0j,)), []),
    (build_family("ex2", {"eps": 1e-5}), []),
    (custom_map("(sub (mul (exp z) (exp z)) (mul (exp z) (exp z)))"), []),
    # on a box around 0 the left operand overflows and the right one has a
    # pole: the left operand's code wins
    (custom_map("(add (exp (mul 1000 z)) (div 1 z))"), [(_centered(0j, 1.0), NONE, OVERFLOW)]),
    (custom_map("(add (div 1 z) (exp (mul 1000 z)))"), [(_centered(0j, 1.0), NONE, POLE)]),
    # a map without z keeps each input box's code
    (custom_map("(exp 1)"), [(_centered(0j, 0.1), POLE, POLE),
                             (_centered(1j, 0.1), OVERFLOW, OVERFLOW)]),
], ids=["pole-exp", "ex2", "inf-minus-inf", "overflow-before-pole", "pole-before-overflow",
        "coded-input-without-z"])
def test_box_eval_batch_matches_single_boxes(m, probes):
    # a box's enclosure and reason code do not depend on the batch around it;
    # each probe box, given its input code, gets the code wanted.  A coded
    # box's NaN ends are unspecified (NaN + NaN takes its sign and payload
    # from its place in the batch), so for a coded box only the NaN positions
    # and the other ends' bits are compared
    boxes = _mixed_boxes(random.Random(9001), 1000) + [b for b, _, _ in probes]
    codes = np.array([NONE] * 1000 + [code for _, code, _ in probes], np.uint8)
    batch = eval_map_box(m, Boxes.of(boxes)._replace(why=codes))
    assert {int(w) for w in batch.why} >= {NONE, OVERFLOW}
    assert [int(w) for w in batch.why[1000:]] == [want for _, _, want in probes]
    for i, b in enumerate(boxes):
        alone = eval_map_box(m, Boxes.of([b])._replace(why=codes[i:i + 1]))
        assert alone.why[0] == batch.why[i]
        got, want = (np.array([e[k] for e in rows(x)]) for x, k in ((alone, 0), (batch, i)))
        if batch.why[i] != NONE:
            assert (np.isnan(got) == np.isnan(want)).all()
            got, want = (np.where(np.isnan(x), np.nan, x) for x in (got, want))
        assert got.tobytes() == want.tobytes()
    if m.declared_poles:
        assert (batch.why == POLE).any()


def _round_by_nextafter(monkeypatch) -> set[str]:
    """Put the np.nextafter reference rounding in place of _out_lo, _out_hi
    and _step in every wanderlab module that imports them; their names."""
    ours = {name: getattr(wanderlab.numerics, name) for name in ("_out_lo", "_out_hi", "_step")}
    ref = {"_out_lo": nextafter_out_lo, "_out_hi": nextafter_out_hi, "_step": nextafter_step}
    patched = set()
    for mod in [m for name, m in sys.modules.items() if name.startswith("wanderlab")]:
        for name, fn in ours.items():
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, ref[name])
                patched.add(mod.__name__)
    return patched


def test_box_arithmetic_is_bit_identical_under_nextafter_rounding(monkeypatch):
    # the one-step rounding lands where np.nextafter does, so every endpoint
    # and every code of a seeded batch agrees, overflow and poles included
    rng = random.Random(20261019)
    two_pi = 2.0 * math.pi
    boxes = Boxes.of(_mixed_boxes(rng, 2000)
                     + [_centered(complex(two_pi + rng.uniform(-0.04, 0.04),
                                          rng.uniform(-0.04, 0.04)),
                                  10.0 ** rng.uniform(-14, -1)) for _ in range(500)])
    g = ex2_g_map()
    maps = _families() + [g, derivative(g), derivative(derivative(g))]
    ex2 = build_family("ex2", {"eps": EPS2})
    radius = np.array([10.0 ** rng.uniform(-16, 0) for _ in boxes.why])

    def run():
        out = [eval_map_box(m, boxes) for m in maps]
        for m in (ex2, g):
            out += eval_taylor_ball(m, boxes)
            out += eval_mean_value_ball(m, boxes)
        with np.errstate(all="ignore"):
            out += [box_inflate(boxes, radius), box_mag(boxes, two_pi), box_mig(boxes, two_pi),
                    box_mag(boxes), box_mig(boxes)]
        return out

    ours = run()
    assert _round_by_nextafter(monkeypatch) >= {
        "wanderlab.numerics", "wanderlab.maps", "wanderlab.certify", "wanderlab.regions"}
    reference = run()
    codes = set()
    for a, b in zip(ours, reference):
        if isinstance(a, Boxes):
            assert a.why.tobytes() == b.why.tobytes()
            codes |= {int(w) for w in a.why}
            a, b = a.ends, b.ends
        # bit for bit, but for the sign of a NaN (an OVERFLOW box's end)
        a, b = (np.where(np.isnan(x), np.nan, x) for x in (a, b))
        assert a.tobytes() == b.tobytes()
    assert codes == {NONE, POLE, OVERFLOW}


def test_eval_in_point_box():
    for m in _families():
        zs = np.array([_safe_point(m) for _ in range(50)])
        values = np.array([[eval_map(m, z)] for z in zs])
        out = eval_map_box(m, boxes_of(zs.real, zs.real, zs.imag, zs.imag))
        assert encloses(out, values, atol=1e-11 * (1.0 + np.abs(values))).all()


def test_vec_constant_map_keeps_input_shape():
    # constants and parameters enter as complex scalars, so a map without z
    # evaluates to one scalar, returned as a writable array of zs's shape
    zs = np.zeros((3, 4), dtype=np.complex128)
    for m, want in ((custom_map("(exp a)", {"a": 0.5}), cmath.exp(0.5)),
                    (custom_map("(mul 2 3)"), 6)):
        vals, bad = eval_map_vec(m, zs)
        assert vals.shape == bad.shape == zs.shape and vals.dtype == np.complex128
        assert not bad.any()
        assert (vals == want).all()
        vals[0, 0] = 0
        assert (vals[1] == want).all()


def test_box_eval_shares_subtrees_and_looks_ops_up_per_call(monkeypatch):
    # derivative(ex1) holds exp(z) three times and exp(a) once; the tape
    # evaluates each once, through the box_exp bound in wanderlab.maps now,
    # and exp(a), which reads no z, only at a map's first evaluation;
    # derivative() keeps f' on its map, so the patched run takes the
    # derivative of a second ex1, which nothing has evaluated yet
    calls = []
    box_exp = wanderlab.maps.box_exp
    b = Boxes.of([_centered(0.5 + 0.5j, 0.01)])
    want = eval_map_box(derivative(build_family("ex1", {"a": A1, "eps": EPS1})), b)
    monkeypatch.setattr(wanderlab.maps, "box_exp",
                        lambda x: calls.append(x) or box_exp(x))
    fresh = derivative(build_family("ex1", {"a": A1, "eps": EPS1}))
    for n_calls in (2, 1, 1):
        calls.clear()
        assert all(np.array_equal(x, y) for x, y in zip(eval_map_box(fresh, b), want))
        assert len(calls) == n_calls


def _fold_inputs() -> list[MeromorphicMap]:
    """Every bundled family and g, their first two derivatives, and a map
    of constants only."""
    maps = _families() + [ex2_g_map()]
    firsts = [derivative(m) for m in maps]
    return (maps + firsts + [derivative(m) for m in firsts]
            + [custom_map("(add (mul 2 (exp (add 1 i))) (sin pi))")])


@pytest.mark.parametrize("m", _fold_inputs(), ids=lambda m: to_sexpr(m.expr)[:40])
def test_folded_evaluation_matches_the_unfolded_walk(m, monkeypatch):
    # a fresh map folds its z-free steps at its first evaluation in each
    # column, and reads the fold after; both give the walk's bits and codes
    boxes = Boxes.of(_mixed_boxes(random.Random(28), 64))
    zs = np.array([complex(b.re_lo, b.im_hi) for b in _mixed_boxes(random.Random(29), 64)])
    with monkeypatch.context() as patch:
        patch.setattr(wanderlab.maps, "_run", run_unfolded)
        want_box, want_vec = eval_map_box(m, boxes), eval_map_vec(m, zs)
    assert m.known == dict.fromkeys(m.known)
    for _ in range(2):
        got_box, got_vec = eval_map_box(m, boxes), eval_map_vec(m, zs)
        assert got_box.ends.tobytes() == want_box.ends.tobytes()
        assert np.array_equal(got_box.why, want_box.why)
        assert got_vec[0].tobytes() == want_vec[0].tobytes()
        assert np.array_equal(got_vec[1], want_vec[1])
        assert None not in m.known.values()


def test_z_free_steps_come_first_on_the_tape():
    # each step reads slots filled before it; the steps that read no z come
    # first, and each later one reads z or a step that does
    for m in _fold_inputs():
        tape = m.tape
        first_z = 1 + len(tape.leaves) + len(tape.fixed)
        for j, (_, args, _, _) in enumerate(tape.fixed + tape.steps):
            assert max(args) < 1 + len(tape.leaves) + j
        assert all(0 < s for _, args, _, _ in tape.fixed for s in args)
        assert all(any(s == 0 or s >= first_z for s in args) for _, args, _, _ in tape.steps)
    ex1 = build_family("ex1", {"a": A1, "eps": EPS1}).tape
    assert [op.box for op, _, _, _ in ex1.fixed] == ["box_exp"]
    constants = custom_map("(add (mul 2 (exp (add 1 i))) (sin pi))").tape
    assert len(constants.fixed) == 5 and constants.steps == ()


def _newton_cases():
    """The bundled suites' Newton calls: ex1's fixed-point seeds, ex2's
    Lemma 4.1(c) preimage grid and ex5's parabolic fixed-point seeds."""
    def inside(c, r, n):
        return [z for z in seed_grid(_centered(c, r), n) if abs(z - c) < r]

    return {
        "ex1-fixed-point": (minus(build_family("ex1", {"a": A1, "eps": EPS1}), Node("z")),
                            inside(0j, 2.0 ** -7, 11)),
        "ex2-lemma-4.1c": (minus(build_family("ex2", {"eps": EPS2}),
                                 Node("const", data=complex(2 * math.pi))),
                           seed_grid(_centered(0j, 0.05), 25)),
        "ex5-parabolic": (minus(build_family("ex5"), Node("z")), inside(0j, 0.1, 11)),
    }


def test_newton_stops_settled_seeds_with_the_fixed_loop_bits(monkeypatch):
    # a seed leaves the batch once a step leaves its bits as they were; the
    # points and residuals are those of every seed running all 60 steps
    calls = {}
    eval_vec = wanderlab.maps.eval_map_vec

    def counted(m, zs):
        calls[case] = calls.get(case, 0) + 1
        return eval_vec(m, zs)

    monkeypatch.setattr(wanderlab.maps, "eval_map_vec", counted)
    infinite = 0
    for case, (m, seeds) in _newton_cases().items():
        want_z, want_r = newton_roots_reference(m, seeds)
        got_z, got_r = newton_roots(m, seeds)
        assert got_z.tobytes() == want_z.tobytes(), case
        assert got_r.tobytes() == want_r.tobytes(), case
        infinite += np.isinf(want_r).sum()
    # ex1's seeds all settle within a few steps, some of ex2's grid seeds
    # still move at step 60, and some of ex2's and ex5's seeds go bad
    assert calls["ex1-fixed-point"] < 2 * 20 + 1
    assert calls["ex2-lemma-4.1c"] == 2 * 60 + 1
    assert infinite > 0


def test_newton_counts_a_zero_whose_sign_flips_as_moving():
    # Newton on f(z) = z from -0 - 0i: the first step turns the real zero
    # to +0, and only the second the imaginary one; stopping the seed at
    # the first step, where new == old, would leave -0 there
    m = custom_map("z")
    want_z, want_r = newton_roots_reference(m, [complex(-0.0, -0.0)])
    got_z, got_r = newton_roots(m, [complex(-0.0, -0.0)])
    assert got_z.tobytes() == want_z.tobytes() == np.zeros(1, np.complex128).tobytes()
    assert got_r.tobytes() == want_r.tobytes()


def test_constants_share_slots_only_when_bit_identical():
    # one slot for both zeros would give -0.0 + -0.0 = -0.0
    assert math.copysign(1.0, eval_map(custom_map("(add -0.0 0.0)"), 1.0).real) == 1.0
    assert len(custom_map("(add 2.0 2.0)").tape.leaves) == 1
    nan = Node("const", data=complex(math.nan))
    nan_map = MeromorphicMap(Node("add", (nan, nan)), {}, ())
    assert len(nan_map.tape.leaves) == 2


# ---------------------------------------------------------------------------
# Derivatives.
# ---------------------------------------------------------------------------

def _derivative_inputs() -> list[MeromorphicMap]:
    """The families, their first derivatives (so the test sees second
    derivatives), and custom maps reaching every rule: pow with k >= 3,
    neg, and a quotient of sin."""
    customs = [
        custom_map("(pow z 3)"),
        custom_map("(sub (pow z 5) (mul 2 z))"),
        custom_map("(neg (exp z))"),
        custom_map("(div (sin z) (add z 2))", declared_poles=(-2,)),
    ]
    return _families() + [derivative(m) for m in _families()] + customs


def test_derivative_matches_finite_differences():
    for m in _derivative_inputs():
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
            assert abs(got - fd) / abs(fd) < 1e-6, f"{to_sexpr(m.expr)} at {z}"


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


def test_derivative_is_built_once_per_map():
    # the map keeps f', so f' and f'' are the same maps at every call, and
    # neither derivative nor evaluation adds an attribute or a folded-value
    # key: a slotted map has no instance dict to grow
    m = build_family("ex2", {"eps": EPS2})
    columns = set(m.known)
    assert derivative(m) is derivative(m)
    assert derivative(derivative(m)) is derivative(derivative(m))
    b = Boxes.of([_centered(0.5 + 0.5j, 0.01)])
    eval_taylor_ball(m, b)
    eval_mean_value_ball(m, b)
    eval_map_vec(derivative(m), np.array([0.5 + 0.5j]))
    for f in (m, derivative(m), derivative(derivative(m))):
        assert not hasattr(f, "__dict__") and set(f.known) == columns


def test_pickled_map_keeps_its_derivative(monkeypatch):
    # a map whose f' is built and folded round-trips through pickle with
    # f' on it: nothing is derived again, and f' evaluates bit for bit
    m = build_family("ex1", {"a": A1, "eps": EPS1})
    b = Boxes.of([_centered(0.5 + 0.5j, 0.01), _centered(-1.0 + 2.0j, 0.25)])
    want = eval_map_box(derivative(m), b)
    again = pickle.loads(pickle.dumps(m))
    assert again.prime is not None and again.prime.expr == m.prime.expr
    monkeypatch.setattr(wanderlab.maps, "_diff", None)
    got = eval_map_box(derivative(again), b)
    assert derivative(again) is derivative(again)
    assert got.ends.tobytes() == want.ends.tobytes() and got.why.tolist() == want.why.tolist()


# ---------------------------------------------------------------------------
# Second-order Taylor enclosures.
# ---------------------------------------------------------------------------

_COS = "(sin (add z (mul 0.5 pi)))"
_TAYLOR_REFS = {   # the remainder differences of Eq. 4.1, 4.2 and 4.9: map text, mpmath form
    "exp-1-z": ("(sub (sub (exp z) 1) z)", lambda z, mp: mp.exp(z) - 1 - z),
    "exp-1": ("(sub (exp z) 1)", lambda z, mp: mp.exp(z) - 1),
    "1-cos": (f"(sub 1 {_COS})", lambda z, mp: 1 - mp.cos(z)),
    "z-sin": ("(sub z (sin z))", lambda z, mp: z - mp.sin(z)),
    "cos-defect": (f"(add (sub {_COS} 1) (mul 0.5 (pow z 2)))",
                   lambda z, mp: mp.cos(z) - 1 + z ** 2 / 2),
}


@pytest.mark.parametrize("name", list(_TAYLOR_REFS))
def test_taylor_ball_encloses_samples(name):
    # every sample's exact value lies in the ball about its box's f(c), with
    # no tolerance, on 200 boxes with 2^-20 <= |z| <= 1, where the ex1 and
    # ex2 remainder bounds are certified.  The differences cancel up to 25
    # digits at 2^-20, so they run at 80 digits to leave the 40 compared.
    mpmath = pytest.importorskip("mpmath")
    text, ref = _TAYLOR_REFS[name]
    m = custom_map(text)
    rng = random.Random(name)
    boxes, points = [], []
    for _ in range(200):
        r, t = 2.0 ** rng.uniform(-20.0, 0.0), rng.uniform(0.0, 2.0 * math.pi)
        w, h = (r * 2.0 ** rng.uniform(-30.0, -1.0) for _ in range(2))
        b = ComplexBox(r * math.cos(t), r * math.cos(t) + w, r * math.sin(t), r * math.sin(t) + h)
        boxes.append(b)
        points.append([complex(re, im) for re in (b.re_lo, b.re_hi) for im in (b.im_lo, b.im_hi)]
                      + [complex(rng.uniform(b.re_lo, b.re_hi), rng.uniform(b.im_lo, b.im_hi))])
    fc, radius = eval_taylor_ball(m, Boxes.of(boxes))
    assert (fc.why == NONE).all()
    re_lo, re_hi, im_lo, im_hi = (e.tolist() for e in rows(fc))   # floats compare exactly
    with mpmath.workdps(80):
        for i, zs in enumerate(points):
            for z in zs:
                v = ref(mpmath.mpc(z.real, z.imag), mpmath)
                dx = max(re_lo[i] - v.real, v.real - re_hi[i], 0)
                dy = max(im_lo[i] - v.imag, v.imag - im_hi[i], 0)
                assert mpmath.hypot(dx, dy) <= radius[i], (name, z)


_MEAN_VALUE_REFS = {   # a map and its mpmath form, given the map's parameters
    "ex1": (lambda: build_family("ex1", {"a": A1, "eps": EPS1}),
            lambda z, p, mp: 2 + 2 * z - 2 * mp.exp(z) + p["eps"] / (mp.exp(z) - mp.exp(p["a"]))),
    "ex2": (lambda: build_family("ex2", {"eps": EPS2}),
            lambda z, p, mp: z + p["eps"] / z + p["lam"] * mp.sin(z + p["a"])),
    "ex5": (lambda: build_family("ex5"), lambda z, p, mp: z * mp.exp(z)),
    "ex3_model": (lambda: build_family("ex3_model", {"eps": 1e-5}),
                  lambda z, p, mp: 4 * mp.exp(z) - p["eps"] / z),
    "g": (ex2_g_map, lambda z, p, mp: z + p["lam"] * mp.sin(z + p["a"])),
}


@pytest.mark.parametrize("name", list(_MEAN_VALUE_REFS))
def test_mean_value_ball_encloses_samples_and_codes_poles(name):
    # seeded boxes: half anywhere in |Re|, |Im| <= 1.5, half about a declared
    # pole (the pole inside or just outside); every NONE-coded ball holds the
    # exact values at a 4 x 4 grid of the box, with no tolerance, and every
    # box that holds a pole has a code
    mpmath = pytest.importorskip("mpmath")
    make, ref = _MEAN_VALUE_REFS[name]
    m = make()
    params = {k: mpmath.mpf(v) for k, v in m.params.items()}
    rng = random.Random(f"mean-value-{name}")
    boxes = []
    for i in range(80):
        half = 10.0 ** rng.uniform(-6.0, -1.0)
        if i % 2 and m.declared_poles:
            c = m.declared_poles[0] + complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) * half
        else:
            c = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        boxes.append(_centered(c, half))
    fc, radius = eval_mean_value_ball(m, Boxes.of(boxes))
    holds_pole = [any(b.re_lo <= p.real <= b.re_hi and b.im_lo <= p.imag <= b.im_hi
                      for p in m.declared_poles) for b in boxes]
    assert all(fc.why[i] != NONE for i, hit in enumerate(holds_pole) if hit)
    assert (fc.why == NONE).sum() >= 40
    if m.declared_poles:
        assert any(holds_pole)
    re_lo, re_hi, im_lo, im_hi = (e.tolist() for e in rows(fc))
    with mpmath.workdps(40):
        for i, b in enumerate(boxes):
            if fc.why[i] != NONE:
                continue
            for x in np.linspace(b.re_lo, b.re_hi, 4).tolist():
                for y in np.linspace(b.im_lo, b.im_hi, 4).tolist():
                    v = ref(mpmath.mpc(x, y), params, mpmath)
                    dx = max(re_lo[i] - v.real, v.real - re_hi[i], 0)
                    dy = max(im_lo[i] - v.imag, v.imag - im_hi[i], 0)
                    assert mpmath.hypot(dx, dy) <= radius[i], (name, x, y)


def test_half_pi_product_encloses_half_pi_and_its_literal_does_not():
    # cos z is written sin(z + (mul 0.5 pi)): the product's box holds pi/2,
    # while the point box of the nearest double misses it
    mpmath = pytest.importorskip("mpmath")
    origin = Boxes.of([ComplexBox(0.0, 0.0, 0.0, 0.0)])
    with mpmath.workdps(40):
        for text, inside in (("(mul 0.5 pi)", True), (repr(math.pi / 2), False)):
            b = eval_map_box(custom_map(text), origin)
            assert (b.re_lo[0] <= mpmath.pi / 2 <= b.re_hi[0]) is inside, text


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
    "(pow z 1e999)",
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
            m2 = MeromorphicMap(reparsed, m.params, m.declared_poles)
            assert abs(eval_map(m, z) - eval_map(m2, z)) < 1e-13


# ---------------------------------------------------------------------------
# The op table and the benchmark's maps.
# ---------------------------------------------------------------------------

def test_every_op_row_names_module_functions_and_its_word_parses():
    for word, op in OPS.items():
        for name in (op.vec, op.box, op.diff):
            assert not name or callable(getattr(wanderlab.maps, name, None)), (word, name)
        assert op.diff, word
        if op.arity:
            text = f"({word} {' '.join(['z'] * op.arity)}{' 2' if word == 'pow' else ''})"
            node = parse_expr(text)
            assert to_sexpr(node) == text and type(node.args) is tuple


def test_benchmark_inputs_write_the_engine_g_and_its_derivative():
    # bench/inputs.py writes g and g' as text; they must be the trees the
    # constant search builds, so the benchmark measures the engine's maps
    inputs = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "inputs.py"))
    doc = inputs["refute_document"](None)
    g = ex2_g_map()
    assert doc["map"]["expr"] == to_sexpr(g.expr)
    assert doc["map"]["params"] == g.params
    contraction = [it for it in doc["items"] if it["kind"] == "inequality"]
    assert contraction
    for item in contraction:
        assert item["lhs"]["expr_abs"]["expr"] == to_sexpr(derivative(g).expr)


def test_benchmark_trace_targets_resolve():
    # bench/tracing.py wraps these names for --trace 1; each must still be
    # a callable bound in its wanderlab module
    tracing = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracing.py"))
    for module, attr, _, _ in tracing["TARGETS"]:
        owner = importlib.import_module(f"wanderlab.{module}")
        assert callable(getattr(owner, attr, None)), (module, attr)
