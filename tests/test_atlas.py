import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from types import MappingProxyType

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.external.gmpy import MPQ

from nugrass.errors import (
    GenericallySingular,
    MinorNotInvertible,
    NoOddGenerators,
    NotInvertible,
    OverlapNotSampled,
    ResidualNuSymbol,
    UncoveredCase,
    ZeroBody,
)
from nugrass.superalgebra import (
    EVEN,
    ODD,
    FlatFraction,
    GeneratorContext,
    GrassmannNumber,
    RationalFunction,
    SuperFunction,
    _get_ring,
    _layout,
    flat_key,
    from_flat,
    mono_sign,
)
from nugrass.linalg import shape_solver
from nugrass.supermatrix import SuperMatrix, smat_inv, smat_mul
import nugrass.atlas as atlas
import nugrass.linalg as linalg
import nugrass.superalgebra as superalgebra
from nugrass.nulie import GlElement, fundamental_field
from nugrass.reports import CheckResult
from nugrass.atlas import (
    GrassPoint,
    IndexPair,
    _get_plan,
    _lam_gauss_inv,
    _cycle_check,
    apply_pullback,
    chart_dims,
    enumerate_charts,
    evaluate_transition,
    get_atlas,
    pair_defined,
    point_transition,
    sample_point,
    transition_symbolic,
    verify_cocycle,
)
from paper_reference import (
    BodySolveFailed,
    adjusted_minor,
    apply_pullback_reference,
    assignments,
    components,
    grid_normalize,
    invert_transition_at_point,
    label,
    minor_M,
    minor_Mprime,
    nu_equivariance_defects,
    palette_hop,
    remainder_D,
)
from test_pins import check


def gn(r, q):
    return GrassmannNumber.scalar(r, q)


def theta(r, i):
    return GrassmannNumber.theta(r, i)


# ---------------------------------------------------------------------------
# chart enumeration and labels
# ---------------------------------------------------------------------------


def test_chart_enumeration_against_brute_force():
    def brute(k, l, m, n):
        count = 0
        for p in range(m + 1):
            q = k + l - p
            if 0 <= q <= n:
                count += len(list(itertools.combinations(range(m), p))) * len(
                    list(itertools.combinations(range(n), q))
                )
        return count

    for (k, l, m, n) in [(0, 1, 1, 2), (1, 2, 2, 3), (1, 0, 1, 1), (1, 1, 2, 2)]:
        charts = enumerate_charts(k, l, m, n)
        assert len(charts) == brute(k, l, m, n)
    assert len(enumerate_charts(0, 1, 1, 2)) == 3
    assert len(enumerate_charts(1, 2, 2, 3)) == 10
    assert len(enumerate_charts(1, 0, 1, 1)) == 2
    assert sum(c.index.standard for c in enumerate_charts(1, 2, 2, 3)) == 6
    with pytest.raises(ValueError):
        enumerate_charts(3, 1, 2, 2)


def test_enumeration_order_is_lexicographic():
    charts = enumerate_charts(0, 1, 1, 2)
    assert [(c.index.I, c.index.R) for c in charts] == [((), (1,)), ((), (2,)), ((1,), ())]


def test_dimension_law_on_every_chart():
    for (k, l, m, n) in [(0, 1, 1, 2), (1, 2, 2, 3), (1, 1, 2, 2)]:
        alpha, beta = chart_dims(k, l, m, n)
        for c in enumerate_charts(k, l, m, n):
            assert (c.alpha, c.beta) == (alpha, beta)
            assert len(c.slots) == alpha + beta
    assert chart_dims(1, 2, 2, 3) == (3, 3)


def test_labels_match_the_worked_displays():
    at = get_atlas(1, 2, 2, 3)
    assert at.chart((1,), (2, 3)).label_tokens() == [
        ["1", "x1", "e3", "0", "0"],
        ["0", "e1", "x2", "1", "0"],
        ["0", "e2", "x3", "0", "1"],
    ]
    assert at.chart((1, 2), (2,)).label_tokens() == [
        ["1", "0", "nu(x1)", "0", "e3"],
        ["0", "1nu", "nu(e1)", "0", "x2"],
        ["0", "0", "nu(e2)", "1", "x3"],
    ]
    assert at.chart((), (1, 2, 3)).label_tokens() == [
        ["x1", "nu(e3)", "1nu", "0", "0"],
        ["e1", "nu(x2)", "0", "1", "0"],
        ["e2", "nu(x3)", "0", "0", "1"],
    ]
    at01 = get_atlas(0, 1, 1, 2)
    assert at01.chart((1,), ()).label_tokens() == [["1nu", "nu(e1)", "x1"]]
    assert at01.chart((), (1,)).label_tokens() == [["e1", "1", "x1"]]
    assert at01.chart((), (2,)).label_tokens() == [["e1", "x1", "1"]]


def test_total_ordering_of_generators_walks_columns():
    chart = get_atlas(1, 2, 2, 3).chart((1,), (2, 3))
    ordered = [name for _, _, name, _ in chart.slots]
    assert ordered == ["x1", "e1", "e2", "e3", "x2", "x3"]


# ---------------------------------------------------------------------------
# symbolic transitions
# ---------------------------------------------------------------------------


def test_transition_between_the_two_standard_charts():
    at = get_atlas(0, 1, 1, 2)
    c1, c2 = at.chart((), (1,)), at.chart((), (2,))
    t = transition_symbolic(c1, c2)
    x, e = c1.ctx.gen("x1"), c1.ctx.gen("e1")
    assert assignments(t)["x1"] == x.inv()
    assert assignments(t)["e1"] == e * x.inv()


def test_self_transition_is_the_identity_on_every_chart():
    for (k, l, m, n) in [(0, 1, 1, 2), (1, 2, 2, 3)]:
        for c in get_atlas(k, l, m, n).charts:
            assert transition_symbolic(c, c).is_identity()


def test_transition_into_the_non_standard_chart():
    at = get_atlas(0, 1, 1, 2)
    c1, c3 = at.chart((), (1,)), at.chart((1,), ())
    t = transition_symbolic(c1, c3)
    assert assignments(t)["x1"] == c1.ctx.gen("x1")
    assert assignments(t)["e1"] == c1.ctx.gen("e1")


def test_no_symbolic_formula_out_of_a_non_standard_chart(monkeypatch):
    monkeypatch.setattr(atlas, "_GLOBAL_PLANS", {})
    at = get_atlas(0, 1, 1, 2)
    with pytest.raises(UncoveredCase):
        transition_symbolic(at.chart((1,), ()), at.chart((), (1,)))
    assert atlas._GLOBAL_PLANS == {}  # the check runs before any plan is built


@pytest.mark.parametrize("dims, src, dst, exc, message", [
    ((1, 1, 2, 2), ((1,), (1,)), ((), (1, 2)), GenericallySingular,
     "no body-invertible pivot in column 0"),
    ((1, 2, 2, 3), ((), (1, 2, 3)), ((1, 2), (1,)), ResidualNuSymbol,
     "odd unit column 2 selected but not moved"),
])
def test_a_cached_symbolic_failure_raises_a_fresh_error_each_time(dims, src, dst, exc,
                                                                   message):
    at = get_atlas(*dims)
    a, b = at.chart(*src), at.chart(*dst)
    raised = []
    for _ in range(2):
        with pytest.raises(exc) as info:
            transition_symbolic(a, b)
        raised.append(info.value)
    first, second = raised
    assert type(first) is type(second) is exc
    assert str(first) == str(second) == message
    assert first is not second and first is not _get_plan(a, b).symbolic


def test_a_shared_transition_map_is_read_only():
    at = get_atlas(1, 2, 2, 3)
    src, dst = at.chart((1,), (1, 2)), at.chart((2,), (2, 3))
    for t in (transition_symbolic(src, dst), transition_symbolic(src, src)):
        assert transition_symbolic(t.src, t.dst) is t
        with pytest.raises(TypeError):
            t.values["x1"] = FlatFraction(src.ctx, {})
        with pytest.raises(TypeError):
            del t.values["e1"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.values = {}
        # the values hold their numerator and denominator terms read-only too
        for value in t.values.values():
            for terms in (value.num, value.den):
                key = next(iter(terms))
                with pytest.raises(AttributeError):
                    terms.clear()
                with pytest.raises(AttributeError):
                    terms.pop(key)
                with pytest.raises(TypeError):
                    terms[key] = 1
                with pytest.raises(TypeError):
                    del terms[key]
    # every attempt above failed, so the shared maps still give the pins
    check('transition -k 1 -l 2 -m 2 -n 3 --from "{1}|{1,2}" --to "{2}|{2,3}" --format json')
    check("verify_cocycle (1, 2, 2, 3) r=2 samples=2 audit_nu_triples=6")


def test_a_map_view_shares_nothing_with_the_stored_values():
    # the view's sympy numerators are mutable dicts: clearing them in place
    # must leave the stored FlatFractions, and so every later view, map
    # verdict and report (the printed map of `nugrass transition` is such
    # a view), as they were
    at = get_atlas(0, 1, 1, 2)
    src, dst = at.chart((), (1,)), at.chart((), (2,))
    t = transition_symbolic(src, dst)
    next(iter(assignments(t)["x1"].terms.values())).num.clear()
    assert assignments(transition_symbolic(src, dst))["x1"] == src.ctx.gen("x1").inv()
    for dims in [(0, 1, 1, 2), (1, 2, 2, 3)]:
        charts = get_atlas(*dims).charts
        for a, b in itertools.product(charts, charts):
            t = _get_plan(a, b).symbolic
            if isinstance(t, atlas.TransitionMap):
                for value in assignments(t).values():
                    for c in value.terms.values():
                        c.num.clear()
    check('transition -k 1 -l 2 -m 2 -n 3 --from "{1}|{1,2}" --to "{2}|{2,3}" --format json')
    check("verify-cocycle -k 0 -l 1 -m 1 -n 2 -r 1 --samples 5 --format json")


def test_symbolic_transitions_match_the_paper_literal_route():
    # the shared normalizer, run on the label with the plan's unit columns,
    # against D((M or M')^-1 A) built from the public matrix operators
    checked = 0
    for dims in [(0, 1, 1, 2), (1, 1, 2, 2)]:
        at = get_atlas(*dims)
        for a in at.charts:
            for b in at.charts:
                try:
                    t = transition_symbolic(a, b)
                except (UncoveredCase, ResidualNuSymbol, GenericallySingular):
                    continue
                want = literal_normalization(label(a), b)
                got = assignments(t)
                assert set(got) == set(want) == set(b.coords)
                for name in b.coords:
                    assert got[name] == want[name], (dims, a, b, name)
                checked += 1
    assert checked == 7 + 22


def test_fundamental_fields_match_the_paper_literal_route():
    # fundamental_field, the first-order formula in the chart ring, against
    # the eps-linear part of D((M or M')^-1 A) for A = label (1 + eps E),
    # built from the public matrix operators over the eps-ring
    for dims in [(0, 1, 1, 2), (1, 2, 2, 3)]:
        m, n = dims[2:]
        for chart, E in itertools.product(get_atlas(*dims).charts, GlElement.basis(m, n)):
            odd = E.parity() == ODD
            ctx2 = GeneratorContext(chart.ctx.even_names,
                                    chart.ctx.odd_names + (("t1",) if odd else ("t1", "t2")))
            eps = ctx2.gen("t1") if odd else ctx2.gen("t1") * ctx2.gen("t2")
            one, zero = ctx2.one(), ctx2.zero()
            P = SuperMatrix((m, n), (m, n), [
                [(one if i == j else zero) + eps.scale(E.coeffs.get((i + 1, j + 1), 0))
                 for j in range(m + n)] for i in range(m + n)], zero)
            want = literal_normalization(smat_mul(label(chart, ctx2), P), chart)
            field = fundamental_field(E, chart)
            for name in chart.coords:
                comp = want[name].partial("t1")
                if not odd:
                    comp = comp.partial("t2")
                assert components(field)[name].terms == comp.terms, (chart, E, name)


def test_transition_assignments_respect_parity():
    at = get_atlas(1, 2, 2, 3)
    src = at.chart((1,), (1, 2))
    dst = at.chart((1, 2), (3,))
    t = transition_symbolic(src, dst)
    for name, sf in assignments(t).items():
        want = dst.coord_parity[name]
        assert sf.is_zero() or sf.parity() == want


# ---------------------------------------------------------------------------
# pointwise transitions
# ---------------------------------------------------------------------------


def test_point_transition_example_and_out_of_overlap_error():
    at = get_atlas(0, 1, 1, 2)
    c1, c2 = at.chart((), (1,)), at.chart((), (2,))
    X = GrassPoint(c1, 2, {"x1": gn(2, 2), "e1": theta(2, 1)})
    Y = point_transition(X, c2)
    assert Y.values["x1"] == gn(2, MPQ(1, 2))
    assert Y.values["e1"] == theta(2, 1) * MPQ(1, 2)
    assert point_transition(X, c1) == X
    X0 = GrassPoint(c1, 2, {"x1": GrassmannNumber(2, {}), "e1": theta(2, 1)})
    with pytest.raises(MinorNotInvertible):
        point_transition(X0, c2)


def literal_normalization(A, dst):
    """The paper's D((M or M')^-1 A) through the public matrix operators:
    destination coordinates of the supermatrix A, read off its slots."""
    if dst.index.standard:
        Z = minor_M(A, dst.index.I, dst.index.R)
    else:
        Z = minor_Mprime(A, dst.index.I, dst.index.R, dst.index)
    R = smat_mul(smat_inv(Z), A)
    D = remainder_D(R, dst.index.I, dst.index.R)
    free_even = [j for j in range(1, dst.index.m + 1) if j not in dst.index.I]
    free_odd = [t for t in range(1, dst.index.n + 1) if t not in dst.index.R]
    col_of = {}
    for pos, j in enumerate(free_even):
        col_of[j - 1] = pos
    for pos, t in enumerate(free_odd):
        col_of[dst.index.m + t - 1] = len(free_even) + pos
    values = {}
    for row, gcol, name, marked in dst.slots:
        v = D.entries[row][col_of[gcol]]
        values[name] = v.nu() if marked else v
    return values


def slow_point_transition(X, dst):
    """Independent reference route through the public matrix operators."""
    idx = X.chart.index
    A = SuperMatrix._of((idx.k, idx.l), (idx.m, idx.n), X.chart.realize(X.values, X.r),
                        GrassmannNumber(X.r, {}))
    return GrassPoint(dst, X.r, literal_normalization(A, dst))


def test_fast_pointwise_route_agrees_with_the_matrix_route():
    rng = random.Random(21)
    for (k, l, m, n) in [(0, 1, 1, 2), (1, 2, 2, 3)]:
        at = get_atlas(k, l, m, n)
        for _ in range(30):
            a, b = rng.choice(at.charts), rng.choice(at.charts)
            from nugrass.atlas import _get_plan

            if _get_plan(a, b).status != "ok":
                continue
            for _try in range(100):
                X = sample_point(a, 2, rng)
                try:
                    fast = point_transition(X, b)
                    slow = slow_point_transition(X, b)
                except Exception:
                    continue
                assert fast == slow
                break


def test_symbolic_and_pointwise_routes_agree_on_standard_pairs():
    # evaluate_transition substitutes the point into the map's stored
    # FlatFractions; every pair must find a point that hops
    rng = random.Random(4)
    for dims in [(0, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 3), (2, 1, 3, 2), (2, 2, 3, 3)]:
        for a, b in itertools.permutations(get_atlas(*dims).standard_charts, 2):
            t = transition_symbolic(a, b)
            for r in (1, 2, 3):
                for _try in range(100):
                    X = sample_point(a, r, rng)
                    try:
                        direct = point_transition(X, b)
                    except MinorNotInvertible:
                        continue
                    assert direct == evaluate_transition(t, X), f"{a.index} -> {b.index}, r={r}"
                    break
                else:
                    pytest.fail(f"{a.index} -> {b.index}: no sampled point hops at r={r}")


def test_round_trips_on_all_defined_pairs():
    rng = random.Random(17)
    for (k, l, m, n) in [(0, 1, 1, 2), (1, 2, 2, 3)]:
        at = get_atlas(k, l, m, n)
        for a in at.charts:
            for b in at.charts:
                if a is b or not pair_defined(a, b):
                    continue
                for _try in range(200):
                    X = sample_point(a, 2, rng)
                    try:
                        assert point_transition(point_transition(X, b), a) == X
                    except MinorNotInvertible:
                        continue
                    break


def test_inverse_solver_examples():
    at = get_atlas(0, 1, 1, 2)
    c1, c2 = at.chart((), (1,)), at.chart((), (2,))
    target = GrassPoint(c2, 2, {"x1": gn(2, MPQ(1, 2)), "e1": theta(2, 1) * MPQ(1, 2)})
    Q = invert_transition_at_point(target, c1, c2)
    assert Q.values["x1"] == gn(2, 2)
    assert Q.values["e1"] == theta(2, 1)
    # the identity transition inverts to the same point
    same = invert_transition_at_point(target, c2, c2)
    assert same == target
    # a target with zero body has no preimage in the overlap
    bad = GrassPoint(c2, 2, {"x1": GrassmannNumber(2, {}), "e1": theta(2, 1)})
    with pytest.raises(BodySolveFailed):
        invert_transition_at_point(bad, c1, c2)


def test_inverse_solver_undoes_every_evaluable_hop():
    # forward-vs-inverse oracle: the exact inverse solver, which shares no
    # elimination with the hop, recovers the start point of every 'ok' hop
    rng = random.Random(3)
    for dims, want in [((1, 1, 2, 2), 28), ((1, 2, 2, 3), 72)]:
        at = get_atlas(*dims)
        checked = 0
        for a in at.charts:
            for b in at.charts:
                if _get_plan(a, b).status != "ok":
                    continue
                for _try in range(100):
                    X = sample_point(a, 2, rng)
                    try:
                        Y = point_transition(X, b)
                    except MinorNotInvertible:
                        continue
                    assert invert_transition_at_point(Y, a, b) == X
                    checked += 1
                    break
        assert checked == want, dims


def test_pair_statuses_on_the_larger_atlas():
    at = get_atlas(1, 2, 2, 3)
    from nugrass.atlas import _get_plan

    blocked = ((1, 2), (1,)), ((), (1, 2, 3))
    a = at.chart(*blocked[0])
    b = at.chart(*blocked[1])
    assert _get_plan(a, b).status == "singular"
    assert _get_plan(b, a).status == "residual"
    assert not pair_defined(a, b)
    undefined = sum(
        not pair_defined(x, y)
        for x in at.charts for y in at.charts if x is not y
    )
    assert undefined == 28
    for x in at.standard_charts:
        for y in at.standard_charts:
            if x is not y:
                assert _get_plan(x, y).status == "ok"


def test_hop_statuses_are_symmetric():
    # pair_defined and the cocycle suite rely on every 'ok' direction
    # having an 'ok' reverse; a one-sided pair would send round trips
    # through the inverse solver
    for dims in [(0, 1, 1, 2), (1, 0, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2),
                 (1, 2, 2, 3), (2, 1, 3, 2), (2, 2, 3, 3)]:
        at = get_atlas(*dims)
        for a in at.charts:
            for b in at.charts:
                there = _get_plan(a, b).status == "ok"
                back = _get_plan(b, a).status == "ok"
                assert there == back, f"{dims}: {a.index} -> {b.index}"


# The per-cell body rule that decided plan statuses before the hop's own
# minor and solve did, kept as the oracle for HopPlan.status.


def _poly_det(rows):
    """Determinant by Laplace expansion; fine at desk-scale sizes."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    det = None
    for j in range(n):
        a = rows[0][j]
        if not a:
            continue
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = a * _poly_det(minor)
        if j & 1:
            term = -term
        det = term if det is None else det + term
    if det is None:
        return rows[0][0].ring.zero if hasattr(rows[0][0], "ring") else 0
    return det


def classify_reference(plan):
    src = plan.src
    R = _get_ring(tuple(f"b_{name}" for name in src.coords))
    gens = {name: R.gens[i] for i, name in enumerate(src.coords)}
    rows = []
    for i in range(len(src.pattern)):
        row = []
        for c, moved in plan.zsel:
            cell = src.pattern[i][c]
            kind = cell[0]
            if kind == "zero":
                row.append(R.zero)
            elif kind == "one":
                # a moved constant 1 becomes nu(1), whose body vanishes
                row.append(R.zero if moved else R.one)
            elif kind == "nu1":
                if not moved:
                    return "residual"
                row.append(R.one)
            else:
                name, marked = cell[1], cell[2]
                eff = marked ^ moved
                parity = src.coord_parity[name]
                # body of the realized entry: an even value contributes
                # its own body, an involuted odd value its theta_1 part
                if (parity == EVEN and not eff) or (parity == ODD and eff):
                    row.append(gens[name])
                else:
                    row.append(R.zero)
        rows.append(row)
    return "ok" if _poly_det(rows) else "singular"


STATUS_ATLASES = [
    (0, 1, 1, 2), (1, 0, 2, 1), (1, 1, 2, 2), (1, 2, 2, 3), (2, 1, 3, 2), (2, 2, 3, 3),
    (0, 2, 1, 3), (1, 1, 3, 2), (2, 1, 2, 3), (1, 3, 2, 4), (3, 1, 4, 2), (0, 0, 1, 1),
]


def test_plan_status_matches_the_body_rule_reference():
    plans = [_get_plan(a, b) for dims in STATUS_ATLASES
             for a in get_atlas(*dims).charts for b in get_atlas(*dims).charts]
    assert len(plans) == 1166
    seen = set()
    for plan in plans:
        want = classify_reference(plan)
        assert plan.status == want, f"{plan.src.index} -> {plan.dst.index}"
        seen.add(want)
    assert seen == {"ok", "residual", "singular"}


def test_a_plan_keeps_its_residual_and_its_audit_verdict_as_values():
    # a residual pair keeps its message and no rows, and raises a fresh
    # error from it on every hop; the nu-audit verdict is None, not an
    # error, where there is no symbolic map or no odd coordinate
    plans = [_get_plan(a, b) for dims in STATUS_ATLASES
             for a in get_atlas(*dims).charts for b in get_atlas(*dims).charts]
    verdicts = set()
    for plan in plans:
        assert (plan.residual is not None) == (plan.status == "residual")
        if plan.residual is not None:
            assert plan.rows == ()
            values = {name: plan.src.ctx.gen(name) for name in plan.src.coords}
            raised = []
            for _ in range(2):
                with pytest.raises(ResidualNuSymbol) as info:
                    plan.transition(values)
                raised.append(info.value)
            first, second = raised
            assert first is not second and str(first) == str(second) == plan.residual
        has_map = isinstance(plan.symbolic, atlas.TransitionMap)
        want_none = not has_map or not plan.src.odd_coords
        assert (plan.nu_equivariant is None) == want_none
        verdicts.add((plan.nu_equivariant, has_map))
    assert verdicts == {(True, True), (False, True), (None, True), (None, False)}


def ok_plans(dims):
    at = get_atlas(*dims)
    return [_get_plan(a, b) for a in at.charts for b in at.charts
            if _get_plan(a, b).status == "ok"]


def draw_point(chart, r, rng):
    """A point whose even coordinates may have zero body, so that some
    minors are singular."""
    values = {}
    for name in chart.coords:
        parity = chart.coord_parity[name]
        values[name] = GrassmannNumber(r, {
            mask: MPQ(rng.randint(-2, 2))
            for mask in range(1 << r) if mask.bit_count() & 1 == parity
        })
    return GrassPoint(chart, r, values)


@pytest.mark.parametrize("r", [2, 4])
@pytest.mark.parametrize("dims", [(0, 1, 1, 2), (1, 2, 2, 3), (2, 1, 3, 2)])
@given(st.integers(0, 10**6))
@settings(max_examples=5, deadline=None)
def test_structured_hop_matches_inverse_then_multiply(dims, r, seed):
    rng = random.Random(seed)
    for plan in ok_plans(dims):
        X = draw_point(plan.src, r, rng)
        try:
            slow = slow_point_transition(X, plan.dst)
        except NotInvertible:
            with pytest.raises(MinorNotInvertible):
                point_transition(X, plan.dst)
            continue
        assert point_transition(X, plan.dst) == slow


# The route every hop and symbolic map took before the pasting systems were
# compiled, kept as their oracle: realize the whole grid (a Lambda_r point
# or a chart label), then normalize it.

COMPILED_ATLASES = [(0, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 3), (2, 1, 3, 2)]


def grid_route(plan, A):
    return grid_normalize(A, plan.dst, plan.src.nu_unit_rows)


@pytest.mark.parametrize("dims", COMPILED_ATLASES)
@given(st.integers(1, 4), st.integers(0, 10**6))
@settings(max_examples=8, deadline=None)
def test_compiled_hop_matches_the_realized_grid_route(dims, r, seed):
    rng = random.Random(seed)
    plans = ok_plans(dims)
    assert any(not p.src.index.standard for p in plans)
    for plan in plans:
        X = draw_point(plan.src, r, rng)
        try:
            want = grid_route(plan, plan.src.realize(X.values, r))
        except NotInvertible:
            with pytest.raises(MinorNotInvertible):
                point_transition(X, plan.dst)
            continue
        assert point_transition(X, plan.dst) == GrassPoint(plan.dst, r, want)


def _hop_outcome(hop, plan, values):
    try:
        return hop(plan, values)
    except (NotInvertible, ResidualNuSymbol, NoOddGenerators) as exc:
        return type(exc), exc.args


def second_hop_values(chart, r, rng):
    """The coordinate values of a point hopped into chart from another chart,
    so that their denominators are mostly not 1; None where no draw hops
    (on Lambda_0 a hop that needs nu does not)."""
    charts = get_atlas(chart.index.k, chart.index.l, chart.index.m, chart.index.n).charts
    for c in rng.sample(charts, len(charts)):
        if c is not chart and _get_plan(c, chart).status == "ok":
            try:
                return point_transition(draw_point(c, r, rng), chart).values
            except (MinorNotInvertible, NoOddGenerators):
                continue
    return None


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("dims", [(1, 2, 2, 3), (2, 2, 3, 3)])
def test_the_hop_on_numerator_tuples_matches_the_palette_route(dims, r):
    # every ordered pair, at a drawn point (some minors singular) and at a
    # point that a hop brought in (rational coordinates); on Lambda_0 a hop
    # that needs nu raises NoOddGenerators on both routes
    rng = random.Random(100 * r + sum(dims))
    charts = get_atlas(*dims).charts
    kinds, rational = set(), 0
    for a, b in itertools.product(charts, charts):
        plan = _get_plan(a, b)
        for values in (draw_point(a, r, rng).values, second_hop_values(a, r, rng)):
            if values is None:
                continue
            rational += any(v.den != 1 for v in values.values())
            want = _hop_outcome(palette_hop, plan, values)
            assert _hop_outcome(atlas.HopPlan.transition, plan, values) == want, \
                f"{a.index} -> {b.index}"
            kinds.add(want[0] if isinstance(want, tuple) else dict)
    assert kinds == {dict, NotInvertible, ResidualNuSymbol} | ({NoOddGenerators} if r == 0 else set())
    # on Lambda_0 about half of the hops need nu, so fewer points hop in
    assert rational > len(charts) ** 2 // (4 if r == 0 else 2)


def test_hops_on_lambda_0_eliminate_integer_rows(monkeypatch):
    calls = []

    def spy(name):
        real = getattr(linalg, name)

        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    for name in ("lambda_solve", "ring_solve"):
        monkeypatch.setattr(linalg, name, spy(name))
    rng = random.Random(0)
    charts = get_atlas(1, 2, 2, 3).charts
    hopped = sum(isinstance(_hop_outcome(atlas.HopPlan.transition, _get_plan(a, b),
                                         draw_point(a, 0, rng).values), dict)
                 for a, b in itertools.product(charts, charts))
    assert hopped and calls and set(calls) == {"lambda_solve"}


def _pivot_at_zero_body(plan, values, r):
    """The values with the body of the first fixed pivot set to 0, where that
    pivot is a coordinate entry, so that the generated solve gives way; None
    where the pivot is a constant or Lambda_r has no slot for it."""
    units = {j for j, _ in plan.units}
    cols = [j for j in range(len(plan.zsel)) if j not in units]
    if not cols or plan.rows[plan.body_pivots[cols[0]]][0] < 3:
        return None
    name, flag = plan.coords[plan.rows[plan.body_pivots[cols[0]]][0] - 3]
    slot = int(flag)  # the body of nu(v) is the theta_1 slot of v
    if slot >= 1 << r:
        return None
    v = values[name]
    return {**values, name: GrassmannNumber(r, {m: MPQ(c, v.den) for m, c in enumerate(v.num)
                                                if m != slot})}


def _general_route(plan, values):
    """HopPlan.transition with the pair's generated solve masked in the
    plan's instance dict, so the general route alone solves.  The cached
    _hop is put back as it was: deleted where it was absent, since a None
    left behind would stand for it in later tests."""
    cached, had = plan.__dict__.get("_hop"), "_hop" in plan.__dict__
    plan.__dict__["_hop"] = None
    try:
        return plan.transition(values)
    finally:
        if had:
            plan.__dict__["_hop"] = cached
        else:
            del plan.__dict__["_hop"]


def _generated_or_fallback(plan, values, r):
    """The outcome of the hop through point_transition and of the general
    route alone, its NotInvertible raised as point_transition raises it."""
    outcomes = []
    for hop in (lambda: point_transition(GrassPoint(plan.src, r, values), plan.dst).values,
                lambda: _general_route(plan, values)):
        try:
            outcomes.append(hop())
        except (MinorNotInvertible, NoOddGenerators) as exc:
            outcomes.append(type(exc))
        except NotInvertible:
            outcomes.append(MinorNotInvertible)
    return outcomes


def _solves_its_system(plan, values, out):
    """Whether a hop's output X solves the pair's system Z X = Y, each product
    a loop over monomial pairs with signs from mono_sign: apart from the
    slot writer that the kernel and the generated solves share."""
    def terms(v, flag=False):
        return {m ^ flag: Fraction(c, v.den) for m, c in enumerate(v.num) if c}

    def add_product(acc, x, y):
        for a, ca in x.items():
            for b, cb in y.items():
                if not a & b:
                    acc[a | b] = acc.get(a | b, 0) + mono_sign(a, b) * ca * cb

    palette = [{}, {0: 1}, {1: 1}] + [terms(values[name], flag) for name, flag in plan.coords]
    X = {(row, t): terms(out[name], flag) for row, t, name, flag in plan.read}
    unit_col = {i: j for j, i in plan.units}
    cols = [j for j in range(len(plan.zsel)) if j not in unit_col.values()]
    for i, row in enumerate(plan.rows):
        for t in range(len(plan.dcols)):
            acc = dict(X[unit_col[i], t]) if i in unit_col else {}
            for k, j in zip(row, cols):
                add_product(acc, palette[k], X[j, t])
            if {m: c for m, c in acc.items() if c} != palette[row[plan.width + t]]:
                return False
    return True


def _one_wrong_slot(plan, values, r, rng):
    """The values with one nonzero slot of the other parity added to one
    input of the pair's generated solve, which must then give way; None on
    Lambda_0, which has no odd slot, and where the solve has no input."""
    if not (r and plan._hop[1]):
        return None
    name = rng.choice(plan._hop[1])
    v = values[name]
    slot = rng.choice(_layout(r).by_parity[1 - plan.src.coord_parity[name]])
    return {**values, name: GrassmannNumber(r, {**v.terms, slot: MPQ(rng.choice((-2, 1, 3)))})}


def _hop_points(r):
    """(plan, kind, values) for every 'ok' pair of the status atlases: a
    drawn point (some minors singular), a point a hop brought in (rational
    coordinates), the drawn point with its first fixed pivot's body zeroed
    ('zeroed'), where the generated solve gives way and the general route
    picks another row, and the drawn point with one input slot of the wrong
    parity ('mixed'), where it gives way too."""
    rng = random.Random(700 + r)
    for dims in STATUS_ATLASES:
        brought = {}
        for plan in ok_plans(dims):
            a = plan.src
            if a not in brought:
                brought[a] = second_hop_values(a, r, rng)
            drawn = draw_point(a, r, rng).values
            points = [("drawn", drawn), ("brought", brought[a]),
                      ("zeroed", _pivot_at_zero_body(plan, drawn, r))]
            for kind, values in points:
                if values:
                    yield plan, kind, values
            mixed = _one_wrong_slot(plan, drawn, r, rng)
            if mixed is not None:
                yield plan, "mixed", mixed


@pytest.mark.parametrize("r", [0, 1, 2, 3, 4, 5, 6])
def test_the_generated_hop_matches_the_general_route_on_every_plan(r):
    # every point of _hop_points.  At r = 6 an even soul has a nonzero
    # cube, so the pivot inverses take three Horner steps
    hopped = singular = forced = wrong = 0
    for plan, kind, values in _hop_points(r):
        where = f"{plan.src.index} -> {plan.dst.index} at r = {r}"
        if kind == "mixed":
            assert plan._hop_transition(values, r) is None
            want = _hop_outcome(_general_route, plan, values)
            assert _hop_outcome(atlas.HopPlan.transition, plan, values) == want, where
            wrong += isinstance(want, dict)
            continue
        got, want = _generated_or_fallback(plan, values, r)
        assert got == want, where
        hopped += isinstance(want, dict)
        singular += want is MinorNotInvertible
        if kind == "zeroed" and r and plan._hop_transition(values, r) is None:
            forced += isinstance(want, dict)
        # both routes multiply through one writer; check it apart
        assert r > 3 or not isinstance(got, dict) or _solves_its_system(plan, values, got)
    # on Lambda_0 about half of the hops need nu, and no solve is generated
    assert hopped > (500 if r == 0 else 1000) and singular > 400
    assert (forced > 40 and wrong > 300) or r == 0


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_every_hop_value_is_in_lowest_terms(r):
    # the generated solve divides each output by the gcd of its row's
    # denominator and its live slots, the general route by _reduced; a
    # value off its canonical form would compare unequal to an equal one.
    # point_transition returns what HopPlan.transition returns; a mixed
    # point is no GrassPoint, so the plan is called directly
    hopped, fractions = Counter(), 0
    for plan, kind, values in _hop_points(r):
        try:
            out = plan.transition(values)
        except NotInvertible:
            continue
        for name, v in out.items():
            assert v.den > 0 and math.gcd(v.den, *v.num) == 1, \
                f"{plan.src.index} -> {plan.dst.index}: {name} at r = {r}"
            fractions += v.den != 1
        hopped[kind] += 1
    assert min(hopped[kind] for kind in ("drawn", "brought", "zeroed", "mixed")) > 40
    assert fractions > 1000


def test_only_the_fallback_hops_reduce_through_reduced(monkeypatch):
    # the generated solves return their outputs in lowest terms, so in a
    # cocycle run _reduced builds only the values of the hops that gave
    # way to the general route (linalg.eliminate), one per output.  A cycle
    # chains numerator hops; where one gives way, the draw reruns through
    # point_transition, whose transition gives way at the same hop.  Seed 3
    # draws three points whose generated solve gives way and whose general
    # route hops
    reduced, fallback, generated, gave_way = [], [], [], []
    real_reduced = superalgebra._reduced
    hop, transition = atlas.HopPlan._numerator_hop, atlas.HopPlan.transition

    def counted(*args):
        reduced.append(args[0])
        return real_reduced(*args)

    def watched_hop(self, *args):
        out = hop(self, *args)
        (gave_way if out is None else generated).append(out)
        return out

    def watched_transition(self, values):
        before = len(gave_way)
        out = transition(self, values)
        if len(gave_way) > before:
            fallback.append(len(out))
        return out

    for module in (superalgebra, linalg):
        monkeypatch.setattr(module, "_reduced", counted)
    monkeypatch.setattr(atlas.HopPlan, "_numerator_hop", watched_hop)
    monkeypatch.setattr(atlas.HopPlan, "transition", watched_transition)
    verify_cocycle(1, 2, 2, 3, r=2, samples=2, seed=3)
    assert len(generated) > 100 and fallback
    assert len(reduced) == sum(fallback)


def test_a_cocycle_run_generates_one_solve_per_plan_shape(monkeypatch):
    # the 62 chart pairs that a 1|2(2|3) cocycle run hops share 8 generated
    # solves (3 without the entries' parities in the shape); one per plan
    # would cost setup time in every fresh process
    monkeypatch.setattr(atlas, "_GLOBAL_PLANS", {})
    shape_solver.cache_clear()
    verify_cocycle(1, 2, 2, 3, r=2, samples=1)
    assert sum(bool(p.__dict__.get("_hop")) for p in atlas._GLOBAL_PLANS.values()) == 62
    assert shape_solver.cache_info().currsize == 8


def _label_route(plan):
    return grid_route(plan, label(plan.src).entries)


def _chart_ring_route(plan):
    return palette_hop(plan, {name: plan.src.ctx.gen(name) for name in plan.src.coords})


def _symbolic_kinds_match(charts, route=_label_route):
    """Check every ordered pair's symbolic map, read through its view, or
    its failure, against the route (by default the normalized label);
    returns the kinds of outcome seen."""
    kinds = set()
    for a, b in itertools.product(charts, charts):
        plan = _get_plan(a, b)
        try:
            want = route(plan)
        except NotInvertible as exc:
            want = GenericallySingular(str(exc))
        except ResidualNuSymbol as exc:
            want = exc
        got = plan.symbolic
        kinds.add(type(want))
        if isinstance(want, dict):
            assert assignments(got) == want, f"{a.index} -> {b.index}"
        else:
            assert type(got) is type(want)
            # the label route eliminates the unit columns too, so it may
            # find a singular minor at another column than the compiled rows
            if not (route is _label_route and type(want) is GenericallySingular):
                assert got.args == want.args
        if b.index.standard and not a.index.standard:
            continue
        if isinstance(want, dict):
            assert transition_symbolic(a, b) is got
        else:
            with pytest.raises(type(want)) as info:
                transition_symbolic(a, b)
            assert info.value.args == got.args
    return kinds


def test_compiled_symbolic_maps_match_the_normalized_labels():
    kinds = set()
    for dims in COMPILED_ATLASES:
        charts = get_atlas(*dims).charts
        kinds |= _symbolic_kinds_match(charts)
    assert kinds == {dict, GenericallySingular, ResidualNuSymbol}


def test_flat_fraction_maps_match_the_chart_ring_solve_on_every_plan():
    # the same compiled system solved over SuperFunctions, whose gcd keeps
    # every step canonical, against the gcd-free FlatFraction solve
    kinds = set()
    for dims in STATUS_ATLASES:
        kinds |= _symbolic_kinds_match(get_atlas(*dims).charts, _chart_ring_route)
    assert kinds == {dict, GenericallySingular, ResidualNuSymbol}


def test_the_nu_audit_verdict_matches_the_pullback_defects():
    # HopPlan.nu_equivariant cross-multiplies the map's FlatFractions; the
    # oracle pulls nu(g) back through the SuperFunction view.  The three
    # atlases of 225 plans are left out for time (about 8 s for the oracle)
    verdicts = set()
    for dims in STATUS_ATLASES:
        charts = get_atlas(*dims).charts
        if len(charts) == 15:
            continue
        for a, b in itertools.product(charts, charts):
            plan = _get_plan(a, b)
            t = plan.symbolic
            if a.odd_coords and isinstance(t, atlas.TransitionMap):
                want = all(d.is_zero() for d in nu_equivariance_defects(t).values())
                assert plan.nu_equivariant is want, f"{a.index} -> {b.index}"
                verdicts.add(want)
    assert verdicts == {True, False}


def sampled_minor(seed):
    """A random square Lambda_r matrix, or the minor of a hop at a point."""
    rng = random.Random(seed)
    r = rng.randint(1, 3)
    if rng.random() < 0.5:
        n = rng.randint(1, 4)
        return r, [[GrassmannNumber(r, {mask: MPQ(rng.randint(-2, 2))
                                        for mask in range(1 << r)})
                    for _ in range(n)] for _ in range(n)]
    plan = rng.choice(ok_plans(rng.choice([(1, 2, 2, 3), (2, 1, 3, 2)])))
    X = draw_point(plan.src, r, rng)
    A = plan.src.realize(X.values, r)
    return r, adjusted_minor(A, plan.zsel, GrassmannNumber.scalar(r, 1))


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_minor_inverse_body_matches_sympy(seed):
    r, Z = sampled_minor(seed)
    n = len(Z)
    body = sympy.Matrix(n, n, lambda i, j: sympy.Rational(str(Z[i][j].body())))
    if body.det() == 0:
        with pytest.raises(NotInvertible):
            _lam_gauss_inv(Z)
        return
    Zinv = _lam_gauss_inv(Z)
    want = body.inv()
    assert [[sympy.Rational(str(e.body())) for e in row] for row in Zinv] == want.tolist()
    one, zero = GrassmannNumber.scalar(r, 1), GrassmannNumber(r, {})
    for i in range(n):
        for j in range(n):
            acc = zero
            for u in range(n):
                acc = acc + Z[i][u] * Zinv[u][j]
            assert acc == (one if i == j else zero)


def test_an_unsampleable_overlap_raises_a_typed_error(monkeypatch):
    at = get_atlas(0, 1, 1, 2)
    c1, c2 = at.chart((), (1,)), at.chart((), (2,))
    outside = GrassPoint(c1, 2, {"x1": GrassmannNumber(2, {}), "e1": theta(2, 1)})
    monkeypatch.setattr(atlas, "sample_point", lambda chart, r, rng: outside)
    with pytest.raises(OverlapNotSampled):
        _cycle_check(CheckResult("pair-round-trip", "x"), [c1, c2], 2, 1, random.Random(0))


def test_point_parity_validation():
    at = get_atlas(0, 1, 1, 2)
    c1 = at.chart((), (1,))
    with pytest.raises(ValueError):
        GrassPoint(c1, 2, {"x1": theta(2, 1), "e1": theta(2, 1)})


def test_point_parity_validation_messages():
    # mixed values and nonzero values of the wrong pure parity are refused
    # with the same message; a zero value has every parity
    c1 = get_atlas(0, 1, 1, 2).chart((), (1,))
    mixed, zero = gn(2, 1) + theta(2, 1), GrassmannNumber(2, {})
    cases = [
        ({"x1": mixed, "e1": theta(2, 1)}, "coordinate x1 has parity None, wants 0"),
        ({"x1": gn(2, 1), "e1": mixed}, "coordinate e1 has parity None, wants 1"),
        ({"x1": theta(2, 2), "e1": theta(2, 1)}, "coordinate x1 has parity 1, wants 0"),
        ({"x1": gn(2, 1), "e1": theta(2, 1) * theta(2, 2)},
         "coordinate e1 has parity 0, wants 1"),
        ({"x1": mixed, "e1": mixed}, "coordinate x1 has parity None, wants 0"),
    ]
    for values, message in cases:
        with pytest.raises(ValueError) as info:
            GrassPoint(c1, 2, values)
        assert str(info.value) == message
    assert GrassPoint(c1, 2, {"x1": zero, "e1": zero}).values == {"x1": zero, "e1": zero}
    assert GrassPoint(c1, 4, {"x1": GrassmannNumber(4, {}), "e1": theta(4, 3)}).r == 4


def test_grass_point_rejects_a_value_from_another_lambda_r():
    # such a value used to pass, and the next hop crashed in the product
    # kernel; points the kernel builds (_point) stay unchecked
    at = get_atlas(0, 1, 1, 2)
    c1, c2 = at.chart((), (1,)), at.chart((), (2,))
    values = {"x1": GrassmannNumber.scalar(3, 2), "e1": theta(2, 1)}
    with pytest.raises(ValueError) as info:
        GrassPoint(c1, 2, values)
    assert str(info.value) == "coordinate x1 is in Lambda_3, not Lambda_2"
    assert point_transition(GrassPoint(c1, 2, dict(values, x1=gn(2, 2))), c2).r == 2


def test_grass_point_rejects_a_wrong_parity_coordinate():
    # points the kernel builds skip the parity check; a point built from
    # outside still gets it
    at = get_atlas(1, 2, 2, 3)
    X = sample_point(at.chart((1,), (2, 3)), 2, random.Random(9))
    odd = next(name for name in X.chart.coords if X.chart.coord_parity[name] == ODD)
    even = next(name for name in X.chart.coords if X.chart.coord_parity[name] != ODD)
    assert GrassPoint(X.chart, 2, dict(X.values)) == X
    for name, wrong in ((odd, theta(2, 1) * theta(2, 2)), (even, theta(2, 2))):
        with pytest.raises(ValueError, match=f"coordinate {name} has parity"):
            GrassPoint(X.chart, 2, dict(X.values, **{name: wrong}))


def test_grass_point_rejects_a_missing_coordinate():
    # the check runs before the parity check: the second x1 has the wrong parity
    chart = get_atlas(0, 1, 1, 2).chart((), (1,))
    for x1 in (gn(2, 1), theta(2, 1)):
        with pytest.raises(ValueError) as info:
            GrassPoint(chart, 2, {"x1": x1})
        assert str(info.value) == ("point on {}|{1}: missing coordinates ['e1'], "
                                   "unknown coordinates []")


def test_grass_point_rejects_an_unknown_coordinate():
    c1 = get_atlas(0, 1, 1, 2).chart((), (1,))
    values = {"x1": gn(2, 1), "e1": theta(2, 1), "x2": theta(2, 2)}
    with pytest.raises(ValueError) as info:
        GrassPoint(c1, 2, values)
    assert str(info.value) == "point on {}|{1}: missing coordinates [], unknown coordinates ['x2']"


@pytest.mark.parametrize("args, message", [
    (((2, 1), (), 1, 0, 2, 1), "index sets must be strictly increasing"),
    (((1, 1), (), 2, 0, 2, 1), "index sets must be strictly increasing"),
    (((), (2, 1), 0, 2, 1, 2), "index sets must be strictly increasing"),
    (((3,), (), 1, 0, 2, 1), "even indices out of range"),
    (((0,), (), 1, 0, 2, 1), "even indices out of range"),
    (((), (2,), 0, 1, 1, 1), "odd indices out of range"),
    (((1,), (1,), 1, 0, 1, 1), r"need p \+ q = k \+ l"),
])
def test_index_pair_rejects_a_malformed_index(args, message):
    with pytest.raises(ValueError, match=message):
        IndexPair(*args)


def test_the_one_chart_atlas_hops_by_the_identity():
    # 1|1(1|1) has the one chart {1}|{1}, without coordinates
    (chart,) = get_atlas(1, 1, 1, 1).charts
    assert chart.coords == ()
    X = GrassPoint(chart, 2, {})
    assert point_transition(X, chart) == X
    rep = verify_cocycle(1, 1, 1, 1)
    assert rep.ok and [r.check for r in rep.results] == ["identity-symbolic"]


# ---------------------------------------------------------------------------
# the cocycle suite
# ---------------------------------------------------------------------------


def test_pullback_extends_multiplicatively_and_audits_equivariance():
    at = get_atlas(0, 1, 1, 2)
    c1, c2 = at.chart((), (1,)), at.chart((), (2,))
    t = transition_symbolic(c1, c2)
    x2, e2 = FlatFraction.gen(c2.ctx, "x1"), FlatFraction.gen(c2.ctx, "e1")
    x1 = FlatFraction.gen(c1.ctx, "x1")
    # morphism property: products and inverses pass through
    assert apply_pullback(t, x2 * e2) == t.values["x1"] * t.values["e1"]
    assert apply_pullback(t, x2.inv()) == x1
    for f in (x2 * e2, x2.inv(), e2.nu()):
        assert _view(apply_pullback(t, f)) == apply_pullback_reference(t, _view(f))
    # the round map is not equivariant for the concrete involution ...
    assert any(not d.is_zero() for d in nu_equivariance_defects(t).values())
    assert _get_plan(c1, c2).nu_equivariant is False
    # ... while the identity-shaped hop into the non-standard chart is
    c3 = at.chart((1,), ())
    t13 = transition_symbolic(c1, c3)
    assert all(d.is_zero() for d in nu_equivariance_defects(t13).values())
    assert _get_plan(c1, c3).nu_equivariant is True
    with pytest.raises(ValueError, match="destination chart"):
        apply_pullback(t, FlatFraction.gen(get_atlas(1, 2, 2, 3).charts[0].ctx, "x1"))


def _composition_failures(charts, maps):
    """How many triple identities t_ac*(t_cb(y)) == t_ab(y) and round-trip
    identities t_ab*(t_ba(y)) == y fail, over the ordered triples and pairs
    of charts, with the maps keyed by (source, destination)."""
    triples = sum(apply_pullback(maps[a, c], maps[c, b].values[y]) != maps[a, b].values[y]
                  for a, b, c in itertools.permutations(charts, 3) for y in b.coords)
    round_trips = sum(apply_pullback(maps[a, b], maps[b, a].values[y])
                      != FlatFraction.gen(a.ctx, y)
                      for a, b in itertools.permutations(charts, 2) for y in a.coords)
    return triples, round_trips


def test_the_pullback_composes_the_standard_maps():
    # 720 triple and 180 round-trip identities of 1|2(2|3) hold in the chart
    # ring; one negated value of one map breaks some of each
    at = get_atlas(1, 2, 2, 3)
    std = at.standard_charts
    maps = {(a, b): transition_symbolic(a, b) for a, b in itertools.permutations(std, 2)}
    assert _composition_failures(std, maps) == (0, 0)
    key = (at.chart((1,), (1, 2)), at.chart((1,), (1, 3)))
    t = maps[key]
    x1 = t.values["x1"]
    negated = FlatFraction(x1.ctx, {k: -c for k, c in x1.num.items()}, x1.den)
    maps[key] = dataclasses.replace(t, values=MappingProxyType({**t.values, "x1": negated}))
    assert _composition_failures(std, maps) == (27, 2)


# Evaluation of a canonical SuperFunction at a Lambda_r point, the oracle of
# FlatFraction.substitute there; paper_reference.apply_pullback_reference is
# the oracle of the pullback along a symbolic transition.


def _eval_poly_grassmann(p, names, assign, r):
    total = GrassmannNumber(r, {})
    for exp, coeff in p.terms():
        term = GrassmannNumber.scalar(r, MPQ(coeff))
        for i, k in enumerate(exp):
            for _ in range(k):
                term = term * assign[names[i]]
        total = total + term
    return total


def eval_grassmann_reference(sf, assign, r):
    ctx = sf.ctx
    total = GrassmannNumber(r, {})
    for mask, c in sf.terms.items():
        num = _eval_poly_grassmann(c.num, c.names, assign, r)
        den = _eval_poly_grassmann(c.den, c.names, assign, r)
        val = num * den.inv()
        mm = mask
        i = 0
        while mm:
            if mm & 1:
                val = val * assign[ctx.odd_names[i]]
            mm >>= 1
            i += 1
        total = total + val
    return total


def _view(f):
    """The canonical SuperFunction of a FlatFraction."""
    return from_flat(f.ctx, f.num, f.den)


def flat_fraction(sf):
    """The canonical SuperFunction sf as one FlatFraction, reduced as far as
    its coefficients are: each of them over the lcm L of their
    denominators, then every numerator and L times the one integer that
    clears their rational coefficients.  The image of L has no body exactly
    where the image of some coefficient's denominator has none."""
    R = _get_ring(sf.ctx.even_names)
    L = R.one
    for c in sf.terms.values():
        L = L.lcm(c.den)
    polys = {(mask, 0): c.num * L.exquo(c.den) for mask, c in sf.terms.items()}
    polys[0, 1] = L
    q = math.lcm(*(c.denominator for p in polys.values() for c in p.coeffs()))
    num, den = {}, {}
    for (mask, is_den), p in polys.items():
        for exp, c in p.terms():
            (den if is_den else num)[mask, exp] = int(c * q)
    return FlatFraction(sf.ctx, num, den)


def _outcome(fn, *args):
    """The value, or the type of the kernel error raised."""
    try:
        return fn(*args)
    except ZeroBody:
        return ZeroBody


@st.composite
def chart_ring_elements(draw, ctx):
    """Sparse elements with small polynomial numerators and denominators.
    Denominators are often one monomial, whose image has no body wherever
    one of its variables maps to an element without body."""
    R = _get_ring(ctx.even_names)
    exps = st.tuples(*[st.integers(0, 2)] * len(ctx.even_names))

    def poly(min_size, max_size):
        terms = draw(st.dictionaries(exps, st.integers(-2, 2).filter(bool),
                                     min_size=min_size, max_size=max_size))
        return R.from_dict({e: sympy.QQ(c) for e, c in terms.items()}) if terms else R.zero

    masks = draw(st.lists(st.integers(0, (1 << len(ctx.odd_names)) - 1),
                          min_size=1, max_size=3, unique=True))
    return SuperFunction(ctx, {
        m: RationalFunction(ctx.even_names, poly(0, 3), poly(1, draw(st.sampled_from([1, 3]))))
        for m in masks
    })


@given(st.integers(0, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_substitute_at_a_point_matches_the_evaluation_reference(r, data):
    chart = get_atlas(1, 2, 2, 3).chart((1,), (2, 3))
    sf = data.draw(chart_ring_elements(chart.ctx))
    # bodies in -2..2, zero included, so that denominators can lose theirs
    values = {name: GrassmannNumber(r, {
        mask: data.draw(st.integers(-2, 2)) for mask in range(1 << r)
        if mask.bit_count() & 1 == chart.coord_parity[name]})
        for name in chart.coords}
    got = _outcome(flat_fraction(sf).substitute, values, GrassmannNumber.scalar(r, 1))
    assert got == _outcome(eval_grassmann_reference, sf, values, r)


def _symbolic_transitions(dims):
    at = get_atlas(*dims)
    out = []
    for a in at.charts:
        for b in at.charts:
            try:
                out.append(transition_symbolic(a, b))
            except (UncoveredCase, GenericallySingular, ResidualNuSymbol):
                pass
    return out


TRANSITIONS_1223 = _symbolic_transitions((1, 2, 2, 3))
# the transitions that send an even coordinate to an element without body
BODYLESS_1223 = [t for t in TRANSITIONS_1223
                 if any(not t.values[x].has_body() for x in t.dst.even_coords)]


@given(st.one_of(st.sampled_from(TRANSITIONS_1223), st.sampled_from(BODYLESS_1223)),
       st.data())
@settings(max_examples=40, deadline=None)
def test_substitute_along_a_transition_matches_the_pullback_reference(t, data):
    sf = data.draw(chart_ring_elements(t.dst.ctx))
    got = _outcome(apply_pullback, t, flat_fraction(sf))
    assert (got if got is ZeroBody else _view(got)) == _outcome(apply_pullback_reference, t, sf)


def test_substitute_raises_zero_body_where_a_denominator_image_has_none():
    at = get_atlas(1, 2, 2, 3)
    # x3 of {1,2}|{3} pulls back to -e1*e2, which has no body
    t = transition_symbolic(at.chart((1,), (2, 3)), at.chart((1, 2), (3,)))
    ctx = t.dst.ctx
    f, sf = FlatFraction.gen(ctx, "x3").inv(), ctx.gen("x3").inv()
    with pytest.raises(ZeroBody):
        apply_pullback(t, f)
    with pytest.raises(ZeroBody):
        apply_pullback_reference(t, sf)
    values = {name: GrassmannNumber(2, {}) for name in t.dst.coords}
    with pytest.raises(ZeroBody):
        f.substitute(values, GrassmannNumber.scalar(2, 1))
    with pytest.raises(ZeroBody):
        eval_grassmann_reference(sf, values, 2)
    # the stored denominator decides: x1 * x3 / x3 raises where x1 does not
    x1, x3 = flat_key(ctx, "x1")[1], flat_key(ctx, "x3")[1]
    unreduced = FlatFraction(ctx, {(0, tuple(map(sum, zip(x1, x3)))): 1}, {(0, x3): 1})
    assert unreduced == FlatFraction.gen(ctx, "x1")
    with pytest.raises(ZeroBody):
        apply_pullback(t, unreduced)
    assert apply_pullback(t, FlatFraction.gen(ctx, "x1")) == t.values["x1"]


def test_cocycle_suite_small_run_passes():
    rep = verify_cocycle(0, 1, 1, 2, r=2, samples=10, seed=5)
    assert rep.ok
    pair_checks = [r for r in rep.results if r.check == "pair-round-trip"]
    assert len(pair_checks) == 6
    assert all(r.samples == 10 and r.failed == 0 for r in pair_checks)


def test_cocycle_reports_are_deterministic():
    a = verify_cocycle(0, 1, 1, 2, r=2, samples=5, seed=42).to_json()
    b = verify_cocycle(0, 1, 1, 2, r=2, samples=5, seed=42).to_json()
    assert a == b


def test_nu_triple_audit_is_reported_but_not_gating():
    rep = verify_cocycle(0, 1, 1, 2, r=2, samples=5, seed=5, audit_nu_triples=2)
    audits = [r for r in rep.results if r.check == "nu-triple-audit"]
    assert audits and all(not r.gating for r in audits)
    assert rep.ok  # audit failures never gate


def test_nu_triple_audit_reports_undefined_triples_without_sampling():
    # 20 of the 24 audited triples of 1|1(2|2) route a hop whose plan status
    # is not 'ok'; they are reported with 0 samples and draw nothing
    rep = verify_cocycle(1, 1, 2, 2, r=2, samples=2, seed=1, audit_nu_triples=24)
    assert rep.ok
    audits = [r for r in rep.results if r.check == "nu-triple-audit"]
    assert len(audits) == 24 and not any(r.gating for r in audits)
    undefined = [r for r in audits if r.note.startswith("undefined: hop ")]
    assert len(undefined) == 20
    assert all(r.samples == 0 for r in undefined)
    assert all(r.note.endswith((" is singular", " is residual")) for r in undefined)
    assert sum(r.samples == 2 for r in audits) == 4


def test_a_nu_triple_audit_cycle_with_no_evaluable_sample_is_reported(monkeypatch):
    # every draw of the 4 sampled audit cycles of 1|1(2|2) falls outside the
    # overlap; the pair round trips and triple cycles are left alone
    cycle_check = atlas._cycle_check

    def outside(X, dst):
        raise MinorNotInvertible("outside the overlap")

    def audited(result, charts, *args):
        if result.check != "nu-triple-audit":
            return cycle_check(result, charts, *args)
        with pytest.MonkeyPatch.context() as mp:
            # each numerator hop gives way, and the fallback hop raises
            mp.setattr(atlas.HopPlan, "_numerator_hop", lambda *args: None)
            mp.setattr(atlas, "point_transition", outside)
            return cycle_check(result, charts, *args)

    monkeypatch.setattr(atlas, "_cycle_check", audited)
    rep = verify_cocycle(1, 1, 2, 2, r=2, samples=2, seed=1, audit_nu_triples=24)
    assert rep.ok
    audits = [r for r in rep.results if r.check == "nu-triple-audit"]
    unsampled = [r for r in audits if r.note == "no evaluable samples"]
    assert len(audits) == 24 and len(unsampled) == 4
    assert all(r.samples == 0 and not r.gating and not r.counterexamples for r in unsampled)


def _cocycle_run(dims, r, monkeypatch):
    """The cycles that verify_cocycle samples on this atlas over Lambda_r,
    audit cycles included, in its order; the report bytes of that run; and
    how many solves it sent down the general route (linalg.eliminate)."""
    cycles, solved = [], []
    cycle_check, eliminate = atlas._cycle_check, atlas.eliminate

    def recorded(result, charts, *args):
        cycles.append(charts)
        return cycle_check(result, charts, *args)

    def general(*args):
        solved.append(args)
        return eliminate(*args)

    with monkeypatch.context() as mp:
        mp.setattr(atlas, "_cycle_check", recorded)
        mp.setattr(atlas, "eliminate", general)
        report = verify_cocycle(*dims, r=r, samples=2, seed=r, audit_nu_triples=200).to_json()
    return cycles, report, len(solved)


def _point_route(X, cycle):
    """The cycle run through point_transition: the returned point, or the
    MinorNotInvertible type where a hop falls outside the overlap."""
    Y = X
    try:
        for c in cycle[1:] + cycle[:1]:
            Y = point_transition(Y, c)
    except MinorNotInvertible:
        return MinorNotInvertible
    return Y


@pytest.mark.parametrize("r", [1, 2, 3, 4])
@pytest.mark.parametrize("dims", [(1, 1, 2, 2), (1, 2, 2, 3), (2, 1, 3, 2)])
def test_the_chained_numerator_hops_match_the_point_transition_route(dims, r, monkeypatch):
    # every pair, triple and audit cycle of a cocycle run: where the chain
    # of numerator hops goes round, point_transition returns the values it
    # reads off and the same verdict (audit cycles need not close, so both
    # verdicts occur); where a hop gives way, the draw runs point_transition
    _cocycle_run(dims, r, monkeypatch)  # the symbolic maps' solves happen once per process
    cycles, report, general = _cocycle_run(dims, r, monkeypatch)
    rng = random.Random(31 * r + sum(dims))
    verdicts = Counter()
    for cycle in cycles:
        start = cycle[0]
        plans = [_get_plan(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
        assert all(plan._hop for plan in plans)
        for _ in range(3):
            X = sample_point(start, r, rng)
            out = atlas._chain(r, X.values, start, plans)
            Y = _point_route(X, cycle)
            if out is None:
                continue
            assert Y is not MinorNotInvertible, cycle
            assert Y.values == atlas._read_values(r, *out), cycle
            verdicts[atlas._closes(X, *out)] += 1
            assert atlas._closes(X, *out) == (Y == X), cycle
    assert verdicts[True] > 2 * len(cycles) and verdicts[False]
    # the same run with one plan's generated solve masked hops that pair
    # through the general route, which gives the same report bytes
    plan = _get_plan(*cycles[-1][:2])
    assert "_hop" in plan.__dict__
    plan.__dict__["_hop"] = None
    try:
        masked = _cocycle_run(dims, r, monkeypatch)
    finally:
        del plan.__dict__["_hop"]
    assert masked[1] == report and masked[2] > general


def test_the_draws_of_the_traced_cocycle_call_fix_its_hops(monkeypatch):
    # the traced call of the benchmark's cocycle workload.  Its 1,849 draws
    # run 4,861 numerator hops in chains; 37 give way, and those 37 draws
    # run their cycle through point_transition instead: 45 hops, 37 of which
    # give way again at the same hop and take the general route, where 29
    # raise MinorNotInvertible for a redraw.  A change in how points are
    # drawn, or in how a cycle hops, moves these counts
    counts = Counter()
    inside = []
    hop, transition = atlas.HopPlan._numerator_hop, atlas.point_transition

    def watched_hop(self, *args):
        out = hop(self, *args)
        where = "fallback" if inside else "chain"
        counts[where] += 1
        counts[where, "gave way"] += out is None
        return out

    def watched_transition(X, dst):
        inside.append(dst)
        try:
            return transition(X, dst)
        except MinorNotInvertible:
            counts["raised"] += 1
            raise
        finally:
            inside.pop()

    def drawn(*args):
        counts["draws"] += 1
        return draw(*args)

    draw = atlas.sample_point
    monkeypatch.setattr(atlas.HopPlan, "_numerator_hop", watched_hop)
    monkeypatch.setattr(atlas, "point_transition", watched_transition)
    monkeypatch.setattr(atlas, "sample_point", drawn)
    assert verify_cocycle(1, 2, 2, 3, r=2, samples=10, seed=2024).ok
    assert counts == {"draws": 1849, "chain": 4861, ("chain", "gave way"): 37,
                      "fallback": 45, ("fallback", "gave way"): 37, "raised": 29}
