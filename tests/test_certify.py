import cmath
import math
import random
import time

import numpy as np
import pytest

from oracles import certificate_reference
from wanderlab.certify import (
    WINDING_MAX_SAMPLES,
    Bound,
    Budget,
    ConstBound,
    CountMismatch,
    DegenerateCurve,
    ExprBound,
    InvalidCurve,
    PowerBound,
    certify_inclusion,
    certify_inequality,
    count_zeros_inside,
    locate_preimages,
    riemann_hurwitz_check,
    winding_number,
    _bisect,
    _circle,
    _discrete_winding,
    _finish,
    _inclusion_test,
    _inequality_test,
    _prove_on_region,
    _root_cells,
)
from wanderlab.maps import (
    build_family,
    custom_map,
    derivative,
    eval_map,
    eval_map_box,
    eval_map_vec,
    eval_taylor_ball,
    ex2_g_map,
)
from wanderlab.numerics import (
    NONE,
    OVERFLOW,
    POLE,
    Boxes,
    ComplexBox,
    PoleIntersect,
    box_mag,
    box_mig,
)
from wanderlab.regions import Annulus, Difference, Disk

A1 = 2.0 ** -6
EPS1 = 2.0 ** -16
EPS2 = 1e-5


def ex1():
    return build_family("ex1", {"a": A1, "eps": EPS1})


def ex2():
    return build_family("ex2", {"eps": EPS2})


# --- subdivision engine -----------------------------------------------------

def test_budget_validation():
    with pytest.raises(ValueError):
        Budget(max_boxes=0, max_depth=4)


def test_identity_inclusion_proved():
    cert = certify_inclusion(custom_map("z"), Disk(0j, 1.0), Disk(0j, 2.0))
    assert cert.proved
    assert cert.verdict == "proved"
    assert cert.frontier == []
    assert cert.stats["survivors"] == 0


def test_false_inclusion_stays_inconclusive():
    # the engine only ever proves or gives up; a wrong statement must not
    # "prove" and must leave a frontier
    cert = certify_inclusion(custom_map("z"), Disk(0j, 1.0), Disk(0j, 0.5),
                             budget=Budget(max_boxes=20_000, max_depth=6))
    assert cert.verdict == "inconclusive"
    assert 0 < len(cert.frontier) <= 64
    assert all(f["reason"] == "undecided" for f in cert.frontier)


def test_budget_exhaustion_flagged():
    cert = certify_inclusion(ex1(), Disk(0j, 2.0 * A1), Disk(0j, A1 / 2),
                             budget=Budget(max_boxes=40, max_depth=3))
    assert cert.verdict == "inconclusive"
    assert cert.stats["budget_exhausted"]
    assert any(f["reason"] == "budget" for f in cert.frontier)


@pytest.mark.parametrize("m, source", [
    (build_family("ex5"), Disk(800.0, 1.0, closed=True)),    # exp overflows
    (custom_map("(sin z)"), Disk(800j, 1.0, closed=True)),   # cosh overflows
], ids=["ex5-exp", "sin-cosh"])
def test_overflow_box_is_undecided(m, source):
    cert = certify_inclusion(m, source, Disk(0j, 1.0),
                             budget=Budget(max_boxes=2000, max_depth=6))
    assert cert.verdict == "inconclusive"
    assert {f["reason"] for f in cert.frontier} == {"overflow"}


def test_pole_contact_verdict():
    # source disk contains the pole at 0: boxes straddling it cannot be
    # evaluated and the verdict must say so
    cert = certify_inclusion(ex2(), Disk(0j, 0.01), Disk(0j, 1e9),
                             budget=Budget(max_boxes=50_000, max_depth=8))
    assert cert.verdict == "pole_contact"
    assert any(f["reason"] == "pole" for f in cert.frontier)


def test_inf_minus_inf_box_is_undecided():
    # e^800 overflows to inf inside the products, and inf - inf is NaN: the
    # boxes must be undecided with reason overflow, not crash the certificate
    m = custom_map("(sub (mul (exp z) (exp z)) (mul (exp z) (exp z)))")
    cert = certify_inclusion(m, Disk(400.0, 1.0, closed=True), Disk(0j, 1.0),
                             Budget(200, 3))
    assert cert.verdict == "inconclusive"
    assert {f["reason"] for f in cert.frontier} == {"overflow"}


def test_point_source_is_covered_by_its_distinct_root_cells():
    # a closed disk of radius 0 has an ulp-wide bounding box, with 3
    # distinct root edges per axis: 4 cells, not 16 x 16 copies of them
    cert = certify_inclusion(ex1(), Disk(2j * math.pi, 0.0, closed=True),
                             Disk(4j * math.pi, 1 / 128))
    assert cert.proved
    assert cert.stats["boxes_examined"] <= 4
    assert _root_cells(ComplexBox(1.0, 1.0, 2.0, 2.0)).T.tolist() == [[1.0, 1.0, 2.0, 2.0]]


def test_budget_exhaustion_examines_level_order():
    # the first max_boxes boxes in level order are examined; the examined
    # survivors come before the unexamined (budget) ones
    cert = certify_inclusion(custom_map("z"), Disk(0j, 1.0), Disk(0j, 0.5),
                             budget=Budget(max_boxes=300, max_depth=6))
    assert cert.stats["boxes_examined"] == 300
    assert cert.stats["max_depth"] == 1
    assert cert.stats["budget_exhausted"]
    reasons = [f["reason"] for f in cert.frontier]
    assert "budget" in reasons and reasons[0] == "undecided"
    assert reasons == sorted(reasons, key=lambda r: r == "budget")
    assert all(f["depth"] == 1 for f in cert.frontier)


def test_budget_exhaustion_counts_every_unexamined_box():
    # the children of every failing root cell are survivors: the one that
    # was examined, and the unexamined ones, kept or only counted
    m, source, target = custom_map("z"), Disk(0j, 1.0), Disk(0j, 0.5)
    failing_roots = certify_inclusion(m, source, target, Budget(1000, 0)).stats["survivors"]
    assert failing_roots > 64
    cert = certify_inclusion(m, source, target, Budget(257, 6))
    examined_failed = cert.frontier[0]["reason"] != "budget"
    assert cert.stats["survivors"] == examined_failed + 4 * failing_roots - 1
    assert len(cert.frontier) == 64


def _single_box(batch_test):
    """A batch test run on a batch of one, raising from the reason code."""
    def test(one):
        ok, why = batch_test(one)
        if why[0] == POLE:
            raise PoleIntersect("pole")
        if why[0] == OVERFLOW:
            raise OverflowError("overflow")
        return bool(ok[0])
    return test


_CORE = Difference(Disk(0j, 2.0 * A1, closed=True), Disk(complex(A1), A1 / 2))


_TWO_PI = 2.0 * math.pi
_STATION = Disk(complex(_TWO_PI), 40 / 1024, closed=True)   # B(2pi, r1), closed


@pytest.mark.parametrize("m, source, target, budget, verdict", [
    (ex1(), _CORE, Disk(0j, A1 / 2), Budget(), "proved"),
    (custom_map("z"), Disk(0j, 1.0, closed=True), Disk(0j, 1.0), Budget(50_000, 4),
     "inconclusive"),
    (ex2(), Disk(0j, 0.01), Disk(0j, 1e9), Budget(50_000, 8), "pole_contact"),
    (build_family("ex5"), Disk(800.0, 1.0, closed=True), Disk(0j, 1.0), Budget(50_000, 1),
     "inconclusive"),
    # g'(2pi) = 0: the mean-value ball proves boxes the natural image does not
    (ex2_g_map(), _STATION, Disk(complex(2.0 * _TWO_PI), 10 / 1024), Budget(), "proved"),
], ids=["proved", "depth", "pole", "overflow", "centred"])
def test_inclusion_engine_matches_depth_first_oracle(m, source, target, budget, verdict):
    cert = certify_inclusion(m, source, target, budget)
    statement = {"kind": "inclusion", "family": m.family_id,
                 "source": source, "target": target}
    centred = []
    test, escape = _inclusion_test(m, source, target, centred)
    ref = certificate_reference(statement, source, _single_box(test), budget)
    ref.stats.update(centred_boxes=sum(centred), sampled_escape=escape)
    assert not ref.stats["budget_exhausted"]
    assert ref.verdict == verdict
    assert cert == ref


def _natural_inclusion(m, target):
    """The inclusion test by the natural image alone, without the mean-value ball."""
    def test(boxes):
        image = eval_map_box(m, boxes)
        return target.box_inside(image), image.why
    return test


def _natural_certificate(m, source, target, budget):
    survivors, stats = _prove_on_region(source, _natural_inclusion(m, target), budget)
    return _finish({"kind": "inclusion", "family": m.family_id,
                    "source": source, "target": target}, survivors, stats)


def test_mean_value_form_is_what_proves_rho_g():
    # g(B(2pi, r1)) inside B(4pi, 5/1024) has under 2 % slack, as g'(2pi) = 0:
    # the natural image alone needs 77,472 boxes, the centred form a few
    # thousand
    g, target = ex2_g_map(), Disk(complex(2.0 * _TWO_PI), 5 / 1024)
    budget = Budget(300_000, 20)
    natural = _natural_certificate(g, _STATION, target, budget)
    assert natural.proved and natural.stats["boxes_examined"] == 77_472
    cert = certify_inclusion(g, _STATION, target, budget)
    assert cert.proved and cert.stats["boxes_examined"] <= 3_304
    assert cert.stats["centred_boxes"] > 0 and cert.stats["sampled_escape"] is None


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_sample_gate_leaves_false_claims_to_the_natural_test(k):
    # certify-refute's g-station-in-k claims: a root-cell centre's float image
    # leaves B(4pi, k/1024), so the ball never runs and the certificate is the
    # natural test's
    g, target = ex2_g_map(), Disk(complex(2.0 * _TWO_PI), k / 1024)
    budget = Budget(20_000, 20)
    cert = certify_inclusion(g, _STATION, target, budget)
    escape = cert.stats.pop("sampled_escape")
    assert cert.stats.pop("centred_boxes") == 0
    assert _STATION.contains(complex(*escape))
    assert not target.contains(eval_map(g, complex(*escape)))
    assert cert == _natural_certificate(g, _STATION, target, budget)
    assert cert.verdict == "inconclusive"


_POLE_TERM = custom_map("(div eps (sub (exp z) (exp a)))",
                        params={"eps": EPS1, "a": A1}, declared_poles=(complex(A1),))


@pytest.mark.parametrize("rhs, region, budget, verdict", [
    (ConstBound(A1 / 4), Annulus(complex(A1), A1 / 2, 0.5, closed=True), Budget(), "proved"),
    (PowerBound(0.5, 1, complex(A1)), Annulus(complex(A1), A1 / 4, 0.05, closed=True),
     Budget(50_000, 3), "inconclusive"),
], ids=["proved", "depth"])
def test_inequality_engine_matches_depth_first_oracle(rhs, region, budget, verdict):
    lhs = ExprBound(_POLE_TERM)
    cert = certify_inequality(lhs, rhs, region, budget, cmp="<=")
    statement = {"kind": "inequality", "lhs": lhs.label, "cmp": "<=",
                 "rhs": rhs.label, "region": region}
    ref = certificate_reference(statement, region,
                                _single_box(_inequality_test(lhs, rhs, region, "<=")), budget)
    assert not ref.stats["budget_exhausted"]
    assert ref.verdict == verdict
    assert cert == ref


def test_ex1_core_inclusion():
    from wanderlab.regions import Difference
    source = Difference(Disk(0j, 2.0 * A1, closed=True), Disk(complex(A1), A1 / 2))
    t0 = time.perf_counter()
    cert = certify_inclusion(ex1(), source, Disk(0j, A1 / 2))
    assert time.perf_counter() - t0 < 120.0
    assert cert.proved
    assert cert.stats["boxes_examined"] <= 1_000_000


def test_proved_inclusion_is_sound_on_samples():
    from wanderlab.regions import Difference
    source = Difference(Disk(0j, 2.0 * A1, closed=True), Disk(complex(A1), A1 / 2))
    cert = certify_inclusion(ex1(), source, Disk(0j, A1 / 2))
    assert cert.proved
    rng = random.Random(4242)
    m = ex1()
    checked = 0
    while checked < 2000:
        z = complex(rng.uniform(-2 * A1, 2 * A1), rng.uniform(-2 * A1, 2 * A1))
        if not source.contains(z):
            continue
        assert abs(eval_map(m, z)) < A1 / 2
        checked += 1


def test_proved_inclusion_monotone_in_target():
    # growing the target by 10% must not lose the proof
    from wanderlab.regions import Difference
    source = Difference(Disk(0j, 2.0 * A1, closed=True), Disk(complex(A1), A1 / 2))
    assert certify_inclusion(ex1(), source, Disk(0j, 1.1 * A1 / 2)).proved


# --- inequality certificates ------------------------------------------------

def test_series_remainder_inequality():
    # |e^z - 1 - z| < 2 |z|^2 away from 0: the classic cancellation case a
    # plain rectangle evaluation cannot close at small |z|
    lhs = ExprBound(custom_map("(sub (sub (exp z) 1) z)"), label="|exp(z)-1-z|")
    rhs = PowerBound(2.0, 2, label="2|z|^2")
    region = Annulus(0j, 2.0 ** -20, 1.0, closed=True)
    cert = certify_inequality(lhs, rhs, region, cmp="<")
    assert cert.proved
    assert cert.stats["boxes_examined"] <= 1_000_000


def test_lower_bound_inequality_with_region_floor():
    # |z|/2 <= |e^z - 1| < 2|z| on a punctured neighbourhood.  Each side's
    # lower bound must survive boxes near the inner rim: that of |e^z - 1|
    # through the Taylor form, as its image boxes meet 0 there, and that of
    # 2|z| through the region floor, as the raw box distance to 0 collapses
    # on boxes that straddle the rim
    f = ExprBound(custom_map("(sub (exp z) 1)"), label="|e^z - 1|")
    region = Annulus(0j, 2.0 ** -20, 0.5, closed=True)
    assert certify_inequality(f, PowerBound(0.5, 1, label="|z|/2"), region, cmp=">=").proved
    assert certify_inequality(f, PowerBound(2.0, 1, label="2|z|"), region, cmp="<").proved


class _NaturalBound(Bound):
    """|f| from the rectangle image alone: ExprBound without its Taylor form."""

    def __init__(self, m):
        self.map = m

    def upper(self, boxes, region):
        image = eval_map_box(self.map, boxes)
        return box_mag(image), image.why


def test_taylor_form_is_what_proves_eq_4_1():
    # Eq. 4.1, 2|e^z - 1 - z| < 2|z|^2 on 2^-20 <= |z| <= 1: the rectangle
    # image of the left side meets 0 on every box near the origin, so alone it
    # stays inconclusive where ExprBound proves the claim
    m = custom_map("(mul 2 (sub (sub (exp z) 1) z))")
    region = Annulus(0j, 2.0 ** -20, 1.0, closed=True)
    budget = Budget(20_000)
    natural = certify_inequality(_NaturalBound(m), PowerBound(2.0, 2), region, budget)
    assert natural.verdict == "inconclusive" and natural.stats["budget_exhausted"]
    taylor = certify_inequality(ExprBound(m), PowerBound(2.0, 2), region, budget)
    assert taylor.proved and taylor.stats["boxes_examined"] == 4720


@pytest.mark.parametrize("text, box, code", [
    # f'' = 1e400 e^(1e200 z) overflows, while f and f' stay finite
    ("(sub (exp (mul 1e200 z)) 1)", ComplexBox(-1e-300, 1e-300, -1e-300, 1e-300), OVERFLOW),
    # f'' = 2/z^3: the rectangle square of z meets 0 on a box that misses it
    ("(sub (div 1 z) 0.5)", ComplexBox(1.0, 1.5, -1.0, 1.0), POLE),
], ids=["overflow", "pole"])
def test_expr_bound_keeps_the_rectangle_bound_where_the_taylor_form_has_a_code(text, box, code):
    m = custom_map(text)
    boxes = Boxes.of([box])
    image = eval_map_box(m, boxes)
    assert image.why[0] == NONE and box_mig(image)[0] == 0.0   # where the rule runs
    fc, _ = eval_taylor_ball(m, derivative(m), derivative(derivative(m)), boxes)
    assert fc.why[0] == code
    bound, region = ExprBound(m), Disk(0j, 2.0)
    hi, why_hi = bound.upper(boxes, region)
    lo, why_lo = bound.lower(boxes, region)
    assert hi.tolist() == box_mag(image).tolist() and lo.tolist() == [0.0]
    assert why_hi.tolist() == why_lo.tolist() == [NONE]


def test_pole_term_inequality():
    # |eps/(e^z - e^a)| <= a/4 on the annulus a/2 <= |z-a| <= 1/2
    m = custom_map("(div eps (sub (exp z) (exp a)))",
                   params={"eps": EPS1, "a": A1}, declared_poles=(complex(A1),))
    cert = certify_inequality(ExprBound(m), ConstBound(A1 / 4),
                              Annulus(complex(A1), A1 / 2, 0.5, closed=True),
                              cmp="<=")
    assert cert.proved


def test_inequality_rejects_unknown_cmp():
    with pytest.raises(ValueError):
        certify_inequality(ConstBound(1.0), ConstBound(2.0), Disk(0j, 1.0),
                           cmp="!=")


# --- winding numbers and the argument principle ------------------------------

def test_winding_identity_and_square():
    w1 = winding_number(custom_map("z"), (0j, 1.0), 0j)
    assert w1.valid and w1.winding == 1
    w2 = winding_number(custom_map("(pow z 2)"), (0j, 1.0), 0j)
    assert w2.valid and w2.winding == 2
    w0 = winding_number(custom_map("z"), (0j, 1.0), complex(3.0))
    assert w0.valid and w0.winding == 0


def test_winding_curve_through_pole_degenerate():
    m = custom_map("(div 1 z)", declared_poles=(0j,))
    with pytest.raises(DegenerateCurve):
        winding_number(m, (complex(0.5), 0.5), 0j)


def test_winding_through_the_base_point_is_invalid():
    # the image of |z| = 0.5 under z passes through w0 = 0.5, so no sample
    # count makes the argument steps small: the winding stays invalid at the cap
    m = custom_map("z")
    res = winding_number(m, (0j, 0.5), 0.5)
    assert not res.valid and res.samples == WINDING_MAX_SAMPLES
    with pytest.raises(InvalidCurve):
        count_zeros_inside(m, (0j, 0.5), 0.5, poles_inside=0)


def test_station_curve_windings():
    m = ex2()
    two_pi = 2.0 * math.pi
    wf = winding_number(m, (0j, 0.5), complex(two_pi))
    assert wf.valid
    assert wf.winding == 2
    assert wf.min_distance > 0.6
    wd = winding_number(derivative(m), (0j, 0.5), 0j)
    assert wd.valid
    assert wd.winding == 1


def test_winding_stable_under_sample_doubling():
    m = ex2()
    for target, mp in (((0j, 0.5), m), ((0j, 0.5), derivative(m))):
        w0 = complex(2.0 * math.pi) if mp is m else 0j
        res = winding_number(mp, target, w0)
        assert res.valid
        for factor in (2, 4):
            vals, bad = eval_map_vec(mp, _circle(target[0], target[1],
                                                 res.samples * factor))
            assert not bad.any()
            winding, _, step = _discrete_winding(vals, w0)
            assert step < math.pi / 2
            assert winding == res.winding


def test_zero_counts_inside_station_curve():
    m = ex2()
    assert count_zeros_inside(m, (0j, 0.5), complex(2.0 * math.pi),
                              poles_inside=1) == 3
    assert count_zeros_inside(derivative(m), (0j, 0.5), 0j,
                              poles_inside=2) == 3


def test_preimages_sit_near_cube_root_targets():
    m = ex2()
    r = (EPS2 / math.pi) ** (1.0 / 3.0)
    roots = locate_preimages(m, complex(2.0 * math.pi), Disk(0j, 0.05),
                             expected=3)
    assert len(roots) == 3
    targets = [r * cmath.exp(2j * math.pi * k / 3.0) for k in range(3)]
    for t in targets:
        close = [z for z in roots if abs(z - t) < 0.3 * r]
        assert len(close) == 1


def test_preimage_count_mismatch_raises():
    with pytest.raises(CountMismatch) as exc:
        locate_preimages(custom_map("z"), complex(5.0), Disk(0j, 1.0),
                         expected=1)
    assert exc.value.found == 0
    assert exc.value.expected == 1


def test_preimage_double_root_dedupes():
    roots = locate_preimages(custom_map("(pow z 2)"), 0j, Disk(0j, 1.0),
                             expected=1)
    assert abs(roots[0]) < 1e-6


# --- Riemann-Hurwitz bookkeeping ---------------------------------------------

def test_riemann_hurwitz_known_case():
    assert riemann_hurwitz_check(2, 3, 3, 1)
    assert not riemann_hurwitz_check(2, 3, 2, 1)


def test_riemann_hurwitz_exhaustive_small():
    for c_u in range(1, 7):
        for k in range(1, 7):
            for n_crit in range(0, 7):
                for c_v in range(1, 7):
                    want = (c_u - 2) == k * (c_v - 2) + n_crit
                    assert riemann_hurwitz_check(c_u, k, n_crit, c_v) == want


def test_riemann_hurwitz_rejects_bad_arguments():
    for args in ((0, 1, 0, 1), (1, 0, 0, 1), (1, 1, -1, 1), (1, 1, 0, 0)):
        with pytest.raises(ValueError):
            riemann_hurwitz_check(*args)


# --- derived station constants -----------------------------------------------

def test_derived_constants_pinned(ex2_constants):
    c = ex2_constants
    assert c["r1"] == 0.0390625            # 40/1024
    assert c["eps"] == 1e-5
    assert c["rho_g"] == 0.0048828125      # 5/1024
    assert c["r2"] == 0.005859375          # 6/1024
    assert 0.0 < c["r1"] < 0.5
    assert (c["r1"] * 1024).is_integer()
    assert 6.0 * math.sqrt(c["eps"]) < c["r1"]
    assert c["eps"] < 1.0 / 144.0
    assert c["station_cert"].proved
    assert c["rho_g"] + c["pole_weight_first_station"] <= c["r2"]


def test_constant_search_trail_pinned(ex2_constants):
    """Every certificate the search runs, in order: kind, radius * 1024,
    verdict and boxes; a sampled witness refutes every other candidate."""
    trail = []
    for c in ex2_constants["certificates"]:
        s = c.statement
        disk = s["region"] if s["kind"] == "inequality" else s["target"]
        trail.append((s["kind"], disk.radius * 1024, c.verdict, c.stats["boxes_examined"]))
    assert trail == [
        ("inequality", 32, "proved", 256), ("inequality", 40, "proved", 1_456),
        ("inclusion", 40, "proved", 256), ("inclusion", 20, "proved", 256),
        ("inclusion", 10, "proved", 256), ("inclusion", 5, "proved", 3_304),
        ("inclusion", 6, "proved", 320)]
    assert ex2_constants["certificates"][-1] is ex2_constants["station_cert"]


@pytest.mark.parametrize("good, bad, last, calls", [
    (0, 129, 40, [64, 32, 48, 40, 44, 42, 41]), (40, 0, 5, [20, 10, 5, 2, 3, 4]),
    (3, 4, 3, [])])
def test_bisect_calls_midpoints_only(good, bad, last, calls):
    seen = []

    def ok(n):
        seen.append(n)
        return 5 <= n <= 40
    assert _bisect(ok, good, bad) == last
    assert seen == calls


def test_derived_constants_deterministic(ex2_constants):
    again = __import__("wanderlab.certify", fromlist=["derive_ex2_constants"])
    c2 = again.derive_ex2_constants()
    for key in ("r1", "eps", "rho_g", "r2", "pole_weight_first_station"):
        assert c2[key] == ex2_constants[key]
