"""Acceptance criteria, one test per criterion, each printing a verdict line.

All comparisons are exact (rational arithmetic end to end); the only
tolerances are the wall-clock budgets stated alongside the heavy suites.
Run with  pytest tests/test_acceptance.py -v -s  to see the verdict lines.
"""

import random
import time

from sympy.external.gmpy import MPQ

from nugrass.superalgebra import (
    EVEN,
    ODD,
    GeneratorContext,
    GrassmannNumber,
    RationalFunction,
    SuperFunction,
    lambda_sample,
)
from nugrass.atlas import get_atlas, transition_symbolic, verify_cocycle
from nugrass.action import (
    BasePoint,
    verify_action_axioms,
    verify_action_gluing,
    verify_transitivity,
)
from nugrass.nulie import h_report, nu_defect
from paper_reference import assignments, eval_rational, field_of


def verdict(num, ok, desc, elapsed=None):
    tag = "PASS" if ok else "FAIL"
    timing = f"  [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num} {tag}: {desc}{timing}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_worked_examples_reproduce_exactly():
    t0 = time.monotonic()
    at01 = get_atlas(0, 1, 1, 2)
    c1, c2 = at01.chart((), (1,)), at01.chart((), (2,))
    t = transition_symbolic(c1, c2)
    x, e = c1.ctx.gen("x1"), c1.ctx.gen("e1")
    values = assignments(t)
    ok = values["x1"] == x.inv() and values["e1"] == e * x.inv()

    at23 = get_atlas(1, 2, 2, 3)
    ok &= at23.chart((1,), (2, 3)).label_tokens() == [
        ["1", "x1", "e3", "0", "0"],
        ["0", "e1", "x2", "1", "0"],
        ["0", "e2", "x3", "0", "1"],
    ]
    ok &= at23.chart((1, 2), (2,)).label_tokens() == [
        ["1", "0", "nu(x1)", "0", "e3"],
        ["0", "1nu", "nu(e1)", "0", "x2"],
        ["0", "0", "nu(e2)", "1", "x3"],
    ]
    ok &= at01.chart((1,), ()).label_tokens() == [["1nu", "nu(e1)", "x1"]]

    ok &= len(at01.charts) == 3 and len(at23.charts) == 10
    ok &= (at23.charts[0].alpha, at23.charts[0].beta) == (3, 3)
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    verdict(1, ok, "worked transition, label displays, chart counts, dimensions",
            elapsed)


def test_criterion_2_cocycle_suite():
    t0 = time.monotonic()
    ok = True
    for (k, l, m, n) in [(0, 1, 1, 2), (1, 2, 2, 3)]:
        rep = verify_cocycle(k, l, m, n, r=2, samples=100, seed=2024)
        ok &= rep.ok
        idents = [r for r in rep.results if r.check == "identity-symbolic"]
        ok &= len(idents) == len(get_atlas(k, l, m, n).charts)
        ok &= all(r.failed == 0 and r.passed == 1 for r in idents)
        pairs = [r for r in rep.results if r.check == "pair-round-trip" and r.samples]
        ok &= all(r.samples >= 100 and r.failed == 0 for r in pairs)
        triples = [r for r in rep.results if r.check == "triple-cycle"]
        ok &= all(r.samples >= 100 and r.failed == 0 for r in triples)
        if (k, l) == (0, 1):
            ok &= len(pairs) == 6
        else:
            ok &= len(pairs) == 62 and len(triples) == 120
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    verdict(2, ok, "pasting identities: symbolic on charts, exact at sampled "
                   "Lambda_2 points on every defined pair and triple", elapsed)


def test_criterion_3_action_gluing():
    t0 = time.monotonic()
    ok = True
    for r in (2, 4):
        rep = verify_action_gluing(0, 1, 1, 2, r=r, samples=100, seed=11)
        ok &= rep.ok and rep.results[0].samples >= 100 and rep.results[0].failed == 0
    rep = verify_action_gluing(1, 2, 2, 3, r=2, samples=100, seed=11)
    ok &= rep.ok and rep.results[0].samples >= 100 and rep.results[0].failed == 0
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    verdict(3, ok, "gluing square of the action, exact at >=100 sampled "
                   "instances per atlas", elapsed)


def test_criterion_4_action_axioms():
    t0 = time.monotonic()
    ok = True
    for (k, l, m, n) in [(0, 1, 1, 2), (1, 2, 2, 3)]:
        rep = verify_action_axioms(k, l, m, n, r=2, samples=100, seed=5)
        ok &= rep.ok
        by = {r.check: r for r in rep.results}
        ok &= by["axiom-unit"].samples >= 100 and by["axiom-unit"].failed == 0
        ok &= by["axiom-associativity"].samples >= 100
        ok &= by["axiom-associativity"].failed == 0
        ok &= by["axiom-inverse"].samples >= 100 and by["axiom-inverse"].failed == 0
    elapsed = time.monotonic() - t0
    verdict(4, ok, "unit, associativity and inverse compatibility, exact at "
                   ">=100 samples", elapsed)


def test_criterion_5_transitivity_witnesses():
    t0 = time.monotonic()
    base = BasePoint([], [[1, 0]], m=1)
    rep = verify_transitivity(0, 1, 1, 2, r=4, count=50, seed=77, base=base)
    res = rep.results[0]
    ok = rep.ok and res.samples == 50 and res.failed == 0
    elapsed = time.monotonic() - t0
    verdict(5, ok, "50 exact invertible witnesses over Lambda_4 (r = 2mn)",
            elapsed)


def test_criterion_6_kernel_properties():
    t0 = time.monotonic()
    ctx = GeneratorContext(("x", "y"), ("e1", "e2"))
    rng = random.Random(101)

    def rand_sf(nonzero_body=False, parity=None):
        terms = {}
        for mask in range(4):
            if parity is not None and mask.bit_count() & 1 != parity:
                continue
            c = rng.randint(-3, 3)
            if mask == 0 and nonzero_body:
                while c == 0:
                    c = rng.randint(-3, 3)
            if c:
                terms[mask] = RationalFunction.from_rat(ctx.even_names, c)
        return SuperFunction(ctx, terms)

    one = ctx.one()
    ok = True
    for _ in range(1000):
        a = rand_sf(nonzero_body=True)
        ok &= a * a.inv() == one
    lam_one = GrassmannNumber.scalar(3, 1)
    for _ in range(1000):
        g = lambda_sample(3, EVEN, rng)
        ok &= g * g.inv() == lam_one

    coeff = ctx.gen("x") + ctx.gen("y").inv()
    for _ in range(1000):
        a = rand_sf()
        ok &= a.nu().nu() == a
        ok &= (coeff * a).nu() == coeff * a.nu()
        h = SuperFunction(a.ctx, {m: c for m, c in a.terms.items()
                                  if m.bit_count() % 2 == 0})
        if not h.is_zero():
            ok &= h.nu().parity() == ODD

    for _ in range(500):
        pa, pb = rng.randint(0, 1), rng.randint(0, 1)
        a, b = rand_sf(parity=pa), rand_sf(parity=pb)
        ok &= a * b == (b * a).scale(-1 if pa and pb else 1)
        v = rng.choice(["x", "e1", "e2"])
        pv = ODD if v.startswith("e") else EVEN
        c = rand_sf()
        lhs = (a * c).partial(v)
        rhs = a.partial(v) * c + (a * c.partial(v)).scale(-1 if pv and pa else 1)
        ok &= lhs == rhs

    for _ in range(200):
        g = lambda_sample(3, rng.randint(0, 1), rng)
        s = g - GrassmannNumber.scalar(3, g.body())
        power = lam_one
        for _ in range(4):
            power = power * s
        ok &= power.is_zero()

    elapsed = time.monotonic() - t0
    verdict(6, ok, "inverses (1000+1000), involution laws (1000), "
                   "supercommutativity and Leibniz (500), soul nilpotency",
            elapsed)


def test_criterion_7_nu_commutant():
    t0 = time.monotonic()
    data = h_report(0, 1, 1, 2)
    ok = data["dim_even"] >= 1
    ok &= data["defect_residual"] == "0"
    ok &= data["bracket_closed"] and data["jacobi_exact"]
    ok &= data["rho_morphism_ok"] and data["sign_s"] in ("1", "-1")
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    verdict(7, ok, "nontrivial nu-commutant, zero defects on all charts, "
                   "bracket closure, exact Jacobi, one global morphism sign",
            elapsed)


def test_criterion_8_defect_regression_pair():
    t0 = time.monotonic()
    chart = get_atlas(0, 1, 1, 2).chart((), (1,))
    ctx = chart.ctx
    xdx = field_of(chart, 0, {"x1": ctx.gen("x1"), "e1": ctx.zero()})
    ede = field_of(chart, 0, {"x1": ctx.zero(), "e1": ctx.gen("e1")})
    ok = not any(nu_defect(xdx).values())
    ok &= any(nu_defect(ede).values())
    verdict(8, ok, "x d/dx commutes with the involution, e d/de does not",
            time.monotonic() - t0)


def test_criterion_9_reduced_line_bundle_sign():
    t0 = time.monotonic()
    at = get_atlas(0, 1, 1, 2)
    t = transition_symbolic(at.chart((), (1,)), at.chart((), (2,)))
    coeff = assignments(t)["e1"].terms[1]  # the e-coefficient, a function of x
    at_minus_one = eval_rational(coeff, {"x1": -1})
    at_plus_one = eval_rational(coeff, {"x1": 1})
    ok = at_minus_one == MPQ(-1) and at_minus_one < 0 < at_plus_one
    verdict(9, ok, "the line-bundle cocycle 1/x changes sign across the two "
                   "body points", time.monotonic() - t0)
