"""Acceptance gate: the nine shipped guarantees, one verdict line each.

Every test here re-runs a guarantee end to end at its stated tolerance and
prints `criterion N <slug>: PASS|FAIL` on the controlling terminal (outside
pytest capture), so a plain `pytest tests/test_acceptance.py` shows all nine
verdicts as they land.
"""
from __future__ import annotations

import cmath
import json
import math
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import ndimage

from wanderlab.certify import (
    Budget,
    ConstBound,
    ExprBound,
    PowerBound,
    _circle,
    _discrete_winding,
    certify_inclusion,
    certify_inequality,
    count_zeros_inside,
    derive_ex2_constants,
    locate_preimages,
    riemann_hurwitz_check,
    winding_number,
)
from wanderlab.dynamics import find_fixed_point, track_wandering
from wanderlab.maps import (
    PoleHitError,
    build_family,
    custom_map,
    derivative,
    eval_map,
    eval_map_vec,
    solve_ex2_params,
)
from wanderlab.numerics import (
    Boxes,
    ComplexBox,
    box_add,
    box_cos,
    box_div,
    box_exp,
    box_mig,
    box_mul,
    box_pow_int,
    box_recip,
    box_sin,
    box_sub,
)
from wanderlab.regions import Difference, Disk, HalfStrip, annulus
from wanderlab.topology import (
    connectivity,
    connectivity_monotonicity_check,
    surrounds,
)

from oracles import count_holes_reference, encloses

A1 = 2.0 ** -6          # pole offset of the first family
EPS1 = 2.0 ** -16       # its perturbation weight
EPS2 = 1e-5             # perturbation weight of the second family
TWO_PI = 2.0 * math.pi


@pytest.fixture
def verdict(capfd):
    @contextmanager
    def _report(number: int, slug: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"criterion {number} {slug}: FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"criterion {number} {slug}: PASS", flush=True)

    return _report


def test_criterion_1_parameter_identities(verdict):
    with verdict(1, "parameter-identities"):
        a, lam = solve_ex2_params()
        assert abs(lam * math.sin(a) - TWO_PI) < 1e-12
        assert abs(1.0 + lam * math.cos(a)) < 1e-12
        # the quoted three-decimal values are truncations (1.72862..., 6.36226...)
        assert abs(a - 1.728) < 1e-3
        assert abs(lam - 6.362) < 1e-3


def test_criterion_2_ex1_core_certificates(verdict):
    with verdict(2, "ex1-core-certificates"):
        m = build_family("ex1", {"a": A1, "eps": EPS1})
        source = Difference(Disk(0j, 2.0 * A1, closed=True),
                            Disk(complex(A1), A1 / 2.0))
        t0 = time.perf_counter()
        cert = certify_inclusion(m, source, Disk(0j, A1 / 2.0),
                                 Budget(max_boxes=1_000_000, max_depth=24))
        assert time.perf_counter() - t0 < 120.0
        assert cert.proved
        assert cert.stats["boxes_examined"] <= 1_000_000

        tail = certify_inequality(
            ExprBound(custom_map("(mul 2 (sub (sub (exp z) 1) z))")),
            PowerBound(2.0, 2),
            annulus(0j, 2.0 ** -20, 1.0),
            cmp="<",
        )
        assert tail.proved

        pole_term = custom_map("(div eps (sub (exp z) (exp a)))",
                               params={"eps": EPS1, "a": A1},
                               declared_poles=(complex(A1),))
        rim = certify_inequality(ExprBound(pole_term), ConstBound(A1 / 4.0),
                                 annulus(complex(A1), A1 / 2.0, 0.5), cmp="<=")
        assert rim.proved


def test_criterion_3_ex1_dynamics(verdict):
    with verdict(3, "ex1-dynamics"):
        m = build_family("ex1", {"a": A1, "eps": EPS1})
        rep = find_fixed_point(m, Disk(0j, A1 / 2.0))
        assert abs(rep.location) < A1 / 2.0
        assert rep.residual < 1e-12
        assert abs(rep.multiplier) < 1.0 and rep.attracting

        assert abs(eval_map(m, TWO_PI * 1j) - 2.0 * TWO_PI * 1j) < A1 / 2.0

        centers = [TWO_PI * 1j * 2.0 ** n for n in range(11)]
        flags = track_wandering(m, TWO_PI * 1j, centers, A1 / 2.0)
        assert flags == [True] * 11


def test_criterion_4_ex2_certified_constants(verdict, ex2_constants, ex2_report):
    with verdict(4, "ex2-certified-constants"):
        d = ex2_constants
        num, den = d["r1"].as_integer_ratio()
        assert 0.0 < d["r1"] < 0.5
        assert den & (den - 1) == 0 and den <= 1024  # dyadic, grid-resolved
        assert d["station_cert"].proved
        assert 6.0 * math.sqrt(d["eps"]) < d["r1"]
        assert d["eps"] < 1.0 / 144.0

        recorded = {k: d[k] for k in ("r1", "r2", "eps")}
        rerun = derive_ex2_constants()
        assert (json.dumps(recorded).encode()
                == json.dumps({k: rerun[k] for k in recorded}).encode())
        report, _ = ex2_report
        assert (json.dumps(recorded).encode()
                == json.dumps({k: report["derived"][k]
                               for k in recorded}).encode())


def test_criterion_5_station_curve_windings(verdict):
    with verdict(5, "station-curve-windings"):
        t0 = time.perf_counter()
        m = build_family("ex2", {"eps": EPS2})
        dm = derivative(m)
        circle = (0j, 0.5)

        res_f = winding_number(m, circle, complex(TWO_PI))
        assert res_f.valid and res_f.winding == 2
        assert res_f.min_distance > 0.6
        res_fp = winding_number(dm, circle, 0j)
        assert res_fp.valid and res_fp.winding == 1

        assert count_zeros_inside(m, circle, complex(TWO_PI), poles_inside=1) == 3
        assert count_zeros_inside(dm, circle, 0j, poles_inside=2) == 3

        r = (EPS2 / math.pi) ** (1.0 / 3.0)
        roots = locate_preimages(m, complex(TWO_PI), Disk(0j, 0.05), expected=3)
        assert len(roots) == 3
        for k in range(3):
            target = r * cmath.exp(2j * math.pi * k / 3.0)
            assert sum(abs(z - target) < 0.3 * r for z in roots) == 1
        assert time.perf_counter() - t0 < 30.0


def test_criterion_6_degree_counting_identity(verdict):
    with verdict(6, "degree-counting-identity"):
        assert riemann_hurwitz_check(2, 3, 3, 1) is True
        for c_u in range(1, 7):
            for k in range(1, 7):
                for n_crit in range(0, 7):
                    for c_v in range(1, 7):
                        want = (c_u - 2) == k * (c_v - 2) + n_crit
                        assert riemann_hurwitz_check(c_u, k, n_crit, c_v) is want


def test_criterion_7_ex2_raster_topology(verdict, ex2_raster, ex2_components,
                                         ex2_timings):
    with verdict(7, "ex2-raster-topology"):
        t0 = time.perf_counter()
        grid, cm = ex2_raster, ex2_components
        assert grid.width >= 1600 and grid.height >= 400

        candidates = [(info.pixel_count, cid)
                      for cid, info in cm.component_table.items()
                      if not info.touches_border and surrounds(cm, cid, 0j)]
        assert candidates, "no bounded component surrounds the origin"
        u0 = min(candidates)[1]
        assert cm.component_table[u0].behavior_label[0] == "drifting"
        rep0 = connectivity(cm, u0, flagged_points=(0j,))
        assert rep0.connectivity == 2
        assert any(0j in hole.contains for hole in rep0.holes)
        assert surrounds(cm, u0, 0j)

        chain = [rep0]
        for n in (1, 2, 3):
            i, j = grid.pixel_of(complex(TWO_PI * n))
            cid = int(cm.labels[j, i])
            assert cid != 0
            assert cm.component_table[cid].behavior_label[0] == "drifting"
            chain.append(connectivity(cm, cid))
            assert chain[-1].connectivity == 1
        assert len({rep.component_id for rep in chain}) == 4

        assert connectivity_monotonicity_check(cm, chain).non_increasing

        total = (ex2_timings["raster"] + ex2_timings["components"]
                 + time.perf_counter() - t0)
        assert total < 300.0


def test_criterion_8_ex5_invariant_strip(verdict):
    with verdict(8, "ex5-invariant-strip"):
        m = build_family("ex5")
        half_pi = math.pi / 2.0
        source = Difference(HalfStrip(-20.0, 0.0, -half_pi, half_pi, closed=True),
                            Disk(0j, 1e-3))
        target = HalfStrip(-math.inf, 0.0, -half_pi, half_pi, closed=False)
        cert = certify_inclusion(m, source, target)
        assert cert.proved

        for k in range(1, 1001):
            x = 100.0 * k / 1000.0
            w = eval_map(m, complex(x))
            assert w.real > x > 0.0
            assert abs(w.imag) < 1e-9 * (1.0 + abs(w.real))

        rep = find_fixed_point(m, Disk(0j, 0.1))
        assert abs(rep.location) < 1e-9
        assert rep.residual < 1e-12
        assert abs(abs(rep.multiplier) - 1.0) < 1e-9
        assert not rep.attracting


# --- criterion 9: the property suites at full advertised sample counts --------

def _random_box(rng: random.Random, scale: float = 3.0) -> ComplexBox:
    cx = rng.uniform(-scale, scale)
    cy = rng.uniform(-scale, scale)
    return ComplexBox(cx, cx + rng.uniform(0.0, 1.5),
                      cy, cy + rng.uniform(0.0, 1.5))


def _nonzero_box(rng: random.Random) -> ComplexBox:
    while True:
        box = _random_box(rng)
        if box_mig(Boxes.of([box]))[0] > 1e-3:
            return box


def _sample(rng: random.Random, box: ComplexBox) -> complex:
    return complex(rng.uniform(box.re_lo, box.re_hi),
                   rng.uniform(box.im_lo, box.im_hi))


def _enclosure_violations(rng: random.Random) -> int:
    """10^4 membership samples per operation, checked exactly, one batched
    call per operation (per exponent for powers); returns total escapes."""
    bad = 0

    def check(out, values):
        nonlocal bad
        bad += int(np.count_nonzero(~encloses(out, values)))

    binary = [(box_add, lambda a, b: a + b, _random_box),
              (box_sub, lambda a, b: a - b, _random_box),
              (box_mul, lambda a, b: a * b, _random_box),
              (box_div, lambda a, b: a / b, _nonzero_box)]
    for op, scalar, make_b in binary:
        boxes_a, boxes_b, values = [], [], []
        for _ in range(1000):
            ba, bb = _random_box(rng), make_b(rng)
            boxes_a.append(ba)
            boxes_b.append(bb)
            values.append([scalar(_sample(rng, ba), _sample(rng, bb)) for _ in range(10)])
        check(op(Boxes.of(boxes_a), Boxes.of(boxes_b)), values)

    unary = [(box_exp, cmath.exp, _random_box),
             (box_sin, cmath.sin, _random_box),
             (box_cos, cmath.cos, _random_box),
             (box_recip, lambda z: 1.0 / z, _nonzero_box)]
    for op, scalar, make in unary:
        boxes, values = [], []
        for _ in range(1000):
            ba = make(rng)
            boxes.append(ba)
            values.append([scalar(_sample(rng, ba)) for _ in range(10)])
        check(op(Boxes.of(boxes)), values)

    for n in range(2, 12):
        boxes, values = [], []
        for _ in range(100):
            ba = _random_box(rng, scale=1.5)
            boxes.append(ba)
            values.append([_sample(rng, ba) ** n for _ in range(10)])
        check(box_pow_int(Boxes.of(boxes), n), values)
    return bad


def _derivative_fd_worst(rng: random.Random) -> float:
    """Largest relative symbolic-vs-central-difference error, 100 pts/family."""
    families = [build_family("ex1", {"a": A1, "eps": EPS1}),
                build_family("ex2", {"eps": EPS2}),
                build_family("ex5"),
                build_family("ex3_model", {"eps": 1e-5}),
                build_family("ex4_model", {"eps": 1e-5})]
    worst = 0.0
    for m in families:
        dm = derivative(m)
        checked = 0
        while checked < 100:
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            if any(abs(z - p) <= 0.05 for p in m.declared_poles):
                continue
            h = 1e-6 * max(1.0, abs(z))
            try:
                got = eval_map(dm, z)
                fd = (eval_map(m, z + h) - eval_map(m, z - h)) / (2.0 * h)
            except PoleHitError:
                continue
            if abs(fd) < 1e-9:
                continue
            worst = max(worst, abs(got - fd) / abs(fd))
            checked += 1
    return worst


def _winding_doubling_changes() -> int:
    m = build_family("ex2", {"eps": EPS2})
    changes = 0
    for mp, w0 in ((m, complex(TWO_PI)), (derivative(m), 0j)):
        res = winding_number(mp, (0j, 0.5), w0)
        assert res.valid
        for factor in (2, 4):
            vals, hit = eval_map_vec(mp, _circle(0j, 0.5, res.samples * factor))
            assert not hit.any()
            w, _, step = _discrete_winding(vals, w0)
            assert step < math.pi / 2.0
            changes += int(w != res.winding)
    return changes


def _euler_disagreements(rng: np.random.Generator, masks: int = 100) -> int:
    """Flood-fill hole count vs the 4-adjacency Euler identity V - E + F."""
    bad = 0
    for _ in range(masks):
        h = int(rng.integers(8, 28))
        w = int(rng.integers(8, 28))
        mask = rng.random((h, w)) < rng.uniform(0.3, 0.7)
        holes = count_holes_reference(mask)
        components = ndimage.label(mask)[1]  # default structure: 4-adjacency
        v = int(mask.sum())
        e = int((mask[:, :-1] & mask[:, 1:]).sum()
                + (mask[:-1, :] & mask[1:, :]).sum())
        f = int((mask[:-1, :-1] & mask[:-1, 1:]
                 & mask[1:, :-1] & mask[1:, 1:]).sum())
        bad += int(components - (v - e + f) != holes)
    return bad


def test_criterion_9_property_suites(verdict):
    with verdict(9, "property-suites"):
        assert _enclosure_violations(random.Random(20260815)) == 0
        worst = _derivative_fd_worst(random.Random(77))
        assert worst < 1e-6
        assert _winding_doubling_changes() == 0
        assert _euler_disagreements(np.random.default_rng(411)) == 0
