import json
import random
from collections import Counter
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy.external.gmpy import MPQ

from nugrass.errors import InhomogeneousInput, NoOddGenerators
from nugrass.atlas import get_atlas
from nugrass.nulie import (
    ChartVectorField,
    GlElement,
    compute_h,
    field_bracket,
    fundamental_field,
    h_report,
    in_span,
    nu_defect,
    rho_field,
    super_jacobi_defect,
    superbracket,
    verify_rho_morphism,
)
import nugrass.nulie as nl
from nugrass.reports import CheckResult, Report
from nugrass.superalgebra import EVEN, ODD, SuperFunction, flat_key, flat_lincomb, flat_partial
from paper_reference import (
    apply_formal_reference,
    chart_ring_fundamental_field,
    components,
    embed,
    eps_ring_fundamental_field,
    field_of,
    formal_context,
    nu_defect_reference,
)
from test_pins import PINS, check, digest

AT = get_atlas(0, 1, 1, 2)
C1 = AT.chart((), (1,))


def same_field(X: ChartVectorField, Y: ChartVectorField) -> bool:
    """Fields compare by identity; two are the same field when they share
    the chart, the parity and the flat terms."""
    return X.chart.index == Y.chart.index and X.parity == Y.parity and X.flat == Y.flat


def scaled(X: ChartVectorField, q) -> ChartVectorField:
    """The field q * X, on its flat terms."""
    return nl._field(X.chart, X.parity, {name: flat_lincomb([(q, t)]) for name, t in X.flat.items()})


# ---------------------------------------------------------------------------
# gl(m|n) arithmetic
# ---------------------------------------------------------------------------


def test_elementary_brackets():
    E11 = GlElement.unit(1, 2, 1, 1)
    assert superbracket(E11, E11).is_zero()
    E12 = GlElement.unit(1, 2, 1, 2)
    # a mixed chain with distinct indices composes to the outer unit
    E23 = GlElement.unit(1, 2, 2, 3)
    E31 = GlElement.unit(1, 2, 3, 1)
    assert superbracket(E23, E31) == GlElement.unit(1, 2, 2, 1)
    # odd-odd pairs anticommute: [E12, E21] = E12 E21 + E21 E12
    E21 = GlElement.unit(1, 2, 2, 1)
    assert superbracket(E12, E21) == GlElement.unit(1, 2, 1, 1) + GlElement.unit(1, 2, 2, 2)
    with pytest.raises(InhomogeneousInput):
        superbracket(E11 + E12, E11)


@pytest.mark.parametrize("call, error, message", [
    (lambda: GlElement(1, 2, {(1, 4): 1}), ValueError, r"index \(1,4\) outside gl\(1\|2\)"),
    (lambda: GlElement(1, 2, {(0, 1): 1}), ValueError, r"index \(0,1\) outside gl\(1\|2\)"),
    (lambda: fundamental_field(_elt(1, 2, E11=1, E12=1), C1), InhomogeneousInput,
     "fundamental_field needs a homogeneous element"),
    (lambda: fundamental_field(GlElement.unit(2, 1, 1, 1), C1), ValueError,
     "element and chart have mismatched shapes"),
    (lambda: rho_field(_elt(1, 2, E11=1, E12=1), C1), InhomogeneousInput,
     "rho needs a homogeneous element"),
    (lambda: field_bracket(rho_field(GlElement.unit(1, 2, 1, 1), AT.charts[0]),
                           rho_field(GlElement.unit(1, 2, 1, 1), AT.charts[1])),
     ValueError, "fields live on different charts"),
])
def test_gl_elements_and_fields_reject_malformed_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_even_chain_bracket():
    a = GlElement.unit(1, 2, 2, 3)
    b = GlElement.unit(1, 2, 3, 2)
    expected = GlElement.unit(1, 2, 2, 2) - GlElement.unit(1, 2, 3, 3)
    assert superbracket(a, b) == expected


def test_jacobi_holds_for_matrix_brackets():
    basis = GlElement.basis(1, 2)
    for a in basis[:4]:
        for b in basis[3:7]:
            for c in basis[5:]:
                assert super_jacobi_defect(a, b, c).is_zero()


# ---------------------------------------------------------------------------
# fundamental fields
# ---------------------------------------------------------------------------


def test_even_diagonal_fields_on_the_first_chart():
    f11 = fundamental_field(GlElement.unit(1, 2, 1, 1), C1)
    ctx = C1.ctx
    assert components(f11)["e1"] == ctx.gen("e1")
    assert components(f11)["x1"].is_zero()
    f22 = fundamental_field(GlElement.unit(1, 2, 2, 2), C1)
    assert components(f22)["x1"] == -ctx.gen("x1")
    assert components(f22)["e1"] == -ctx.gen("e1")


def test_fundamental_field_is_linear():
    E23 = GlElement.unit(1, 2, 2, 3)
    E32 = GlElement.unit(1, 2, 3, 2)
    combo = E23.scale(MPQ(2)) + E32.scale(MPQ(-3))
    f23, f32 = fundamental_field(E23, C1), fundamental_field(E32, C1)
    by_parts = {name: flat_lincomb([(2, f23.flat[name]), (-3, f32.flat[name])])
                for name in C1.coords}
    assert rho_field(combo, C1).flat == by_parts
    zero_field = rho_field(GlElement(1, 2, {}), C1)
    assert set(zero_field.flat) == set(C1.coords) and not any(zero_field.flat.values())


# the eps-ring route of paper_reference against the first-order formula, on
# every chart: odd units on non-standard charts, moved minor columns,
# charts without odd generators, and atlases whose charts have no coordinates
FIELD_ATLASES = [(0, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 3), (2, 1, 3, 2), (0, 2, 1, 3),
                 (2, 2, 3, 3), (1, 0, 2, 1), (0, 1, 2, 2), (1, 1, 2, 3), (1, 0, 2, 0),
                 (0, 0, 1, 1), (1, 1, 1, 1)]


def assert_same_field(got, want):
    assert same_field(got, want)
    assert list(got.flat) == list(want.flat)
    assert set(got.flat) == set(got.chart.coords)


@pytest.mark.parametrize("dims", FIELD_ATLASES)
def test_fundamental_fields_match_the_eps_ring_route(dims):
    m, n = dims[2:]
    for chart in get_atlas(*dims).charts:
        for E in GlElement.basis(m, n):
            assert_same_field(fundamental_field(E, chart), eps_ring_fundamental_field(E, chart))


def _elt(m, n, **coeffs):
    return GlElement(m, n, {(int(k[1]), int(k[2])): MPQ(v) for k, v in coeffs.items()})


@pytest.mark.parametrize("dims, E", [
    ((0, 1, 1, 2), _elt(1, 2, E23=2, E32=-3)),
    # two entries in one column: column 2, then column 1
    ((0, 1, 1, 2), _elt(1, 2, E22="5/2", E32=-1)),
    ((0, 1, 1, 2), _elt(1, 2, E21=1, E31=4, E13="-1/3")),
    ((1, 2, 2, 3), _elt(2, 3, E34=2, E43=-3, E12=1, E22=7)),
    ((1, 2, 2, 3), _elt(2, 3, E31=1, E41=-2, E13=3, E25="1/2")),
    ((1, 1, 2, 2), _elt(2, 2, E14=-1, E24=2, E31=5, E41="3/4")),
    ((2, 1, 3, 2), _elt(3, 2, E11=2, E21=-1, E31=3, E45=1, E55=-2)),
])
def test_fundamental_fields_of_combinations_match_the_eps_ring_route(dims, E):
    assert E.parity() is not None and len(E.coeffs) > 1
    for chart in get_atlas(*dims).charts:
        assert_same_field(fundamental_field(E, chart), eps_ring_fundamental_field(E, chart))


# the flat route against the same first-order formula over the chart ring,
# on every basis element and chart: odd units and moved minor columns on the
# non-standard charts, marked slots, and both parities of E
CHART_RING_ATLASES = [(0, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 3), (2, 1, 3, 2)]


def test_flat_fundamental_fields_match_the_chart_ring_formula():
    pairs = 0
    for dims in CHART_RING_ATLASES:
        m, n = dims[2:]
        for chart in get_atlas(*dims).charts:
            for E in GlElement.basis(m, n):
                got, want = fundamental_field(E, chart), chart_ring_fundamental_field(E, chart)
                assert same_field(got, want), (dims, chart, E)
                assert all(type(c) is int for t in got.flat.values() for c in t.values())
                pairs += 1
    assert pairs == 3 * 9 + 6 * 16 + 10 * 25 + 10 * 25


def test_gl_coefficients_are_ints_where_integral():
    E = GlElement(1, 2, {(1, 1): MPQ(4, 2), (1, 2): "1/2", (2, 2): Fraction(-3, 3), (3, 3): 0})
    assert E.coeffs == {(1, 1): 2, (1, 2): Fraction(1, 2), (2, 2): -1}
    assert [type(c) for c in E.coeffs.values()] == [int, Fraction, int]
    assert type((E + E).coeffs[1, 2]) is int and type(E.scale(2).coeffs[1, 2]) is int
    assert E.to_dict() == {"1,1": "2", "1,2": "1/2", "2,2": "-1"}
    with pytest.raises(TypeError):
        GlElement(1, 2, {(1, 1): 0.5})


def test_regression_pair_for_the_commutation_defect():
    ctx = C1.ctx
    xdx = field_of(C1, 0, {"x1": ctx.gen("x1"), "e1": ctx.zero()})
    assert nu_defect(xdx) == {}
    assert all(d.is_zero() for d in nu_defect_reference(xdx))
    ede = field_of(C1, 0, {"x1": ctx.zero(), "e1": ctx.gen("e1")})
    # an even field with X[e1] != 0: its e1 component must vanish
    assert nu_defect(ede) == {"e1": {flat_key(ctx, "e1"): 1}}
    defects = nu_defect_reference(ede)
    assert any(not d.is_zero() for d in defects)
    # the defect on the plain generic symbol is f*e, exactly
    ctxF = defects[0].ctx
    assert defects[0] == ctxF.gen("f") * ctxF.gen("e1")


def test_zero_field_has_no_defect():
    ctx = C1.ctx
    zero = field_of(C1, 0, {"x1": ctx.zero(), "e1": ctx.zero()})
    assert nu_defect(zero) == {}
    assert all(d.is_zero() for d in nu_defect_reference(zero))


# ---------------------------------------------------------------------------
# the commutant
# ---------------------------------------------------------------------------


def test_commutant_of_the_small_atlas_is_the_scalar_line():
    h = compute_h(0, 1, 1, 2)
    assert h.dim_even >= 1
    assert h.dim_even == 1 and h.dim_odd == 0
    scalar = GlElement(1, 2, {(1, 1): MPQ(1), (2, 2): MPQ(1), (3, 3): MPQ(1)})
    assert h.even[0] == scalar


@pytest.mark.parametrize("dims", [(0, 1, 0, 2), (0, 2, 0, 3)])
def test_the_commutant_of_an_atlas_without_odd_coordinates_raises(dims):
    assert not any(chart.odd_coords for chart in get_atlas(*dims).charts)
    with pytest.raises(NoOddGenerators):
        compute_h(*dims)
    with pytest.raises(NoOddGenerators):
        h_report(*dims)


# The census of the nu-commutant (ROADMAP item 9) on every atlas with
# 1 <= m, n and m + n <= 5 that has an odd coordinate, i.e. every k|l but
# 0|0 and m|n: dim h is 2|0 on these k|l and 1|0 on all the others.
_DIM_H_2 = {
    (1, 3): {(0, 2), (1, 1)},
    (1, 4): {(0, 2), (0, 3), (1, 1), (1, 2)},
    (2, 2): {(0, 2), (2, 0)},
    (2, 3): {(0, 2), (0, 3), (1, 2), (2, 0), (2, 1)},
    (3, 2): {(0, 2), (1, 2), (2, 0), (3, 0)},
}
_CENSUS = [(k, l, m, n) for m in range(1, 5) for n in range(1, 6 - m)
           for k in range(m + 1) for l in range(n + 1) if 0 < k + l < m + n]


@pytest.mark.parametrize("dims", _CENSUS, ids=[f"{k}|{l}({m}|{n})" for k, l, m, n in _CENSUS])
def test_the_commutant_census_is_an_even_diagonal_torus(dims):
    # with d = m + n and dim h = s + 1, h is spanned by E_11 + ... +
    # E_{d-s,d-s} and E_jj for each of the last s indices
    k, l, m, n = dims
    h = compute_h(*dims)
    s = 1 if (k, l) in _DIM_H_2.get((m, n), ()) else 0
    d = m + n
    torus = [GlElement(m, n, {(u, u): 1 for u in range(1, d - s + 1)})]
    torus += [GlElement.unit(m, n, j, j) for j in range(d - s + 1, d + 1)]
    assert h.odd == [] and h.even == torus


def e1_components(dims) -> list[set[int]]:
    """The rule of the census: on the columns 1..m+n, join on every chart
    the column of e1 to the pivot column of its label row; the components."""
    m, n = dims[2:]
    root = list(range(m + n + 1))

    def find(u):
        while root[u] != u:
            u = root[u]
        return u

    for chart in get_atlas(*dims).charts:
        row, gcol = next((row, gcol) for row, gcol, name, _ in chart.slots if name == "e1")
        root[find(gcol + 1)] = find(chart.identity[row][1] + 1)
    groups = {}
    for u in range(1, m + n + 1):
        groups.setdefault(find(u), set()).add(u)
    return list(groups.values())


@pytest.mark.parametrize("dims", _CENSUS, ids=[f"{k}|{l}({m}|{n})" for k, l, m, n in _CENSUS])
def test_the_commutant_is_the_torus_constant_on_the_e1_components(dims):
    # diag(w) scales the coordinate in row i, column j by w_j - w_p(i) on
    # every chart, so its field keeps nu exactly when w is constant on each
    # component; that nothing off the diagonal survives is compute_h's cut
    m, n = dims[2:]
    for chart in get_atlas(*dims).charts:
        for u in range(1, m + n + 1):
            X = rho_field(GlElement.unit(m, n, u, u), chart)
            for row, gcol, name, _ in chart.slots:
                w = (u == gcol + 1) - (u == chart.identity[row][1] + 1)
                assert X.flat[name] == ({flat_key(chart.ctx, name): w} if w else {})
    groups = e1_components(dims)
    h = compute_h(*dims)
    assert h.odd == [] and h.dim_even == len(groups)
    assert all(in_span(GlElement(m, n, {(u, u): 1 for u in g}), h.even) for g in groups)


def test_the_commutant_census_holds_every_atlas_with_an_odd_coordinate():
    every = [(k, l, m, n) for m in range(1, 5) for n in range(1, 6 - m)
             for k in range(m + 1) for l in range(n + 1)]
    assert [dims for dims in every
            if any(c.odd_coords for c in get_atlas(*dims).charts)] == _CENSUS
    assert len(_CENSUS) == 65


def test_commutant_defects_vanish_on_every_chart():
    h = compute_h(0, 1, 1, 2)
    for Y in h.even + h.odd:
        for chart in AT.charts:
            assert nu_defect(rho_field(Y, chart)) == {}


def test_commutant_is_bracket_closed_with_exact_jacobi():
    h = compute_h(0, 1, 1, 2)
    basis = h.even + h.odd
    for a in basis:
        for b in basis:
            assert in_span(superbracket(a, b), basis)
            for c in basis:
                assert super_jacobi_defect(a, b, c).is_zero()


def test_standard_charts_already_cut_the_same_commutant():
    # the non-standard chart's conditions are consistent with the cut made
    # by the standard charts alone on this atlas
    h_all = compute_h(0, 1, 1, 2)
    even, odd = commutant_reference((0, 1, 1, 2), AT.standard_charts)
    assert [even, odd] == [h_all.even, h_all.odd]


def test_bracket_compatibility_sign_is_globally_consistent():
    rep = verify_rho_morphism(0, 1, 1, 2)
    assert rep.ok
    assert rep.results[0].samples == 81
    assert rep.notes == ["sign: -1"]


def test_field_bracket_matches_hand_computation():
    f12 = rho_field(GlElement.unit(1, 2, 1, 2), C1)
    f21 = rho_field(GlElement.unit(1, 2, 2, 1), C1)
    br = field_bracket(f12, f21)
    # x e d/dx against d/de: the anticommutator is x d/dx
    assert components(br)["x1"] == C1.ctx.gen("x1")
    assert components(br)["e1"].is_zero()


def test_h_report_contents():
    data = h_report(0, 1, 1, 2)
    assert data["dim_even"] >= 1
    assert data["defect_residual"] == "0"
    assert data["bracket_closed"] and data["jacobi_exact"]
    assert data["rho_morphism_ok"]
    assert data["sign_s"] == "-1"
    assert data["basis_even"] == [{"1,1": "1", "2,2": "1", "3,3": "1"}]


def test_h_report_rechecks_the_defects_of_the_basis_it_reports(monkeypatch):
    # compute_h keeps its true basis E11 + E22 + E33, but the stored field
    # of E11 on one chart also carries E22, which does not commute with nu
    # there: the re-check reads that field through rho_field and must flag it
    h = compute_h(0, 1, 1, 2)
    monkeypatch.setattr(nl, "compute_h", lambda *dims: h)
    E22 = GlElement.unit(1, 2, 2, 2)
    chart = next(c for c in AT.charts
                 if any(nu_defect(rho_field(E22, c)).values()))
    bad = rho_field(GlElement.unit(1, 2, 1, 1) + E22, chart)
    monkeypatch.setitem(nl._UNIT_FIELDS, (chart.index, 1, 1), bad)
    data = h_report(0, 1, 1, 2)
    assert data["defect_residual"] == "nonzero"
    assert data["basis_even"] == [{"1,1": "1", "2,2": "1", "3,3": "1"}]


def test_rho_field_leaves_the_shared_cache_intact(monkeypatch):
    # rho_field hands out the stored field itself for a unit coefficient,
    # so no caller may mutate a field it gets back
    store = {}
    monkeypatch.setattr(nl, "_UNIT_FIELDS", store)
    assert verify_rho_morphism(0, 1, 1, 2).ok
    assert len(store) == len(AT.standard_charts) * 9
    per_chart = Counter(index for index, _, _ in store)
    assert per_chart == {chart.index: 9 for chart in AT.standard_charts}
    for (index, u, v), stored in store.items():
        fresh = fundamental_field(GlElement.unit(1, 2, u, v), AT.chart(index.I, index.R))
        assert same_field(stored, fresh)


def test_a_warm_commutant_multiplies_and_embeds_nothing(monkeypatch):
    # the defects are signed, shifted copies of the field's coefficients:
    # once the fields are stored, the cut makes no ring product and builds
    # no generator context
    from nugrass.superalgebra import GeneratorContext

    compute_h(1, 2, 2, 3)
    calls = Counter()
    for cls, name in ((SuperFunction, "__mul__"), (GeneratorContext, "__init__")):
        def counted(*args, _name=name, _orig=getattr(cls, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)
    h = compute_h(1, 2, 2, 3)
    assert (h.dim_even, h.dim_odd) == (2, 0)
    assert calls == {}


def test_a_warm_morphism_check_runs_no_superfunction_product_or_partial(monkeypatch):
    # the brackets, their Jacobians and the rho sides all run on flat terms
    verify_rho_morphism(1, 2, 2, 3)
    calls = Counter()
    for name in ("__mul__", "partial"):
        def counted(*args, _name=name, _orig=getattr(SuperFunction, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)
        monkeypatch.setattr(SuperFunction, name, counted)
    assert verify_rho_morphism(1, 2, 2, 3).ok
    assert calls == {}


def test_the_cut_and_the_recheck_run_through_nu_defect(monkeypatch):
    # 25 basis fields on 10 charts in the cut, the 2 basis elements of h on
    # the same charts in the re-check; a cold store changes neither count
    dims = (1, 2, 2, 3)
    assert len(get_atlas(*dims).charts) == 10
    calls = []
    defect = nl.nu_defect
    monkeypatch.setattr(nl, "nu_defect", lambda f: calls.append(f) or defect(f))
    for run, want in ((compute_h, 250), (h_report, 270)):
        monkeypatch.setattr(nl, "_UNIT_FIELDS", {})
        for _ in ("cold", "warm"):
            calls.clear()
            run(*dims)
            assert len(calls) == want


# ---------------------------------------------------------------------------
# reference routes: the derivation applied coordinate by coordinate
# ---------------------------------------------------------------------------


def apply_reference(X: ChartVectorField, F: SuperFunction) -> SuperFunction:
    """X(F) = sum_c X[c] * d_c F, differentiating F afresh."""
    out = F.ctx.zero()
    for name, comp in components(X).items():
        if comp.is_zero():
            continue
        out = out + comp * F.partial(name)
    return out


def bracket_reference(X1: ChartVectorField, X2: ChartVectorField) -> ChartVectorField:
    both_odd = bool(X1.parity and X2.parity)
    comps = {}
    for name in X1.chart.coords:
        a = apply_reference(X1, components(X2)[name])
        b = apply_reference(X2, components(X1)[name])
        comps[name] = a + b if both_odd else a - b
    return field_of(X1.chart, (X1.parity + X2.parity) & 1, comps)


def commutant_reference(dims, charts=None):
    """The cut over every odd monomial S of the given charts (all by
    default), one row per (chart, S, odd mask, exponent over the even
    coordinates and the formal symbols); returns the even and odd bases."""
    m, n = dims[2:]
    bases = []
    for parity in (EVEN, ODD):
        columns = [E for E in GlElement.basis(m, n) if E.parity() == parity]
        rows = {}
        for col_i, E in enumerate(columns):
            for chart in charts or get_atlas(*dims).charts:
                for S, defect in enumerate(nu_defect_reference(rho_field(E, chart))):
                    for mask, coeff in defect.terms.items():
                        for exp, q in coeff.num.terms():
                            key = (chart.index.I, chart.index.R, S, mask, exp)
                            rows.setdefault(key, [MPQ(0)] * len(columns))[col_i] = MPQ(q)
        bases.append([GlElement(m, n, {uv: c for E, c in zip(columns, vec) for uv in E.coeffs})
                      for vec in nl._nullspace(list(rows.values()), len(columns))])
    return bases


def verify_rho_morphism_reference(k, l, m, n) -> Report:
    """The pair-by-pair scan: every ordered pair (E1, E2) in turn, each
    bracket and each rho built afresh, the sign matched on scaled copies."""
    atlas = get_atlas(k, l, m, n)
    basis = GlElement.basis(m, n)
    report = Report(suite="rho-morphism", config={"k": k, "l": l, "m": m, "n": n})
    sign = None
    pairs = passed = failed = 0
    counterexamples = []
    for E1 in basis:
        for E2 in basis:
            pairs += 1
            B_rev = superbracket(E2, E1)
            ok_pair = True
            for chart in atlas.standard_charts:
                lhs = field_bracket(rho_field(E1, chart), rho_field(E2, chart))
                rhs = rho_field(B_rev, chart)
                lhs, rhs = components(lhs), components(rhs)
                if all(c.is_zero() for c in rhs.values()):
                    if not all(c.is_zero() for c in lhs.values()):
                        ok_pair = False
                    continue
                if all(c.is_zero() for c in lhs.values()):
                    ok_pair = False
                    continue
                matched = None
                for s in (1, -1):
                    if all(lhs[name] == rhs[name].scale(s) for name in chart.coords):
                        matched = s
                        break
                if matched is None:
                    ok_pair = False
                elif sign is None:
                    sign = matched
                elif sign != matched:
                    ok_pair = False
            if ok_pair:
                passed += 1
            else:
                failed += 1
                if len(counterexamples) < 3:
                    counterexamples.append({"E1": E1.to_dict(), "E2": E2.to_dict()})
    report.results.append(
        CheckResult("bracket-compatibility", f"gl({m}|{n}) on {k}|{l}({m}|{n})",
                    pairs, passed, failed, counterexamples,
                    note=f"anti-morphism sign s = {sign} (reversed bracket)")
    )
    report.notes.append(f"sign: {sign}")
    return report


# a corrupted basis field: (chart index in standard_charts, unit, factor)
CORRUPTIONS = [(0, (1, 1), 2), (0, (1, 1), -1), (0, (1, 2), -1), (-1, (2, 1), 3), (1, (3, 3), 0)]


@pytest.mark.parametrize("dims", [(0, 1, 1, 2), (1, 1, 2, 2), (1, 0, 2, 1)])
@pytest.mark.parametrize("corruption", [None] + CORRUPTIONS)
def test_rho_morphism_replay_matches_the_pair_by_pair_scan(monkeypatch, dims, corruption):
    assert_replay_matches_the_scan(monkeypatch, dims, corruption)


@pytest.mark.parametrize("corruption", [None, CORRUPTIONS[2]])
def test_rho_morphism_replay_matches_the_scan_on_the_bench_atlas(monkeypatch, corruption):
    # 1|2(2|3), the atlas of the commutant benchmark: 625 pairs, odd-odd
    # pairs whose other order is the same bracket, and a sign-flipped field
    assert_replay_matches_the_scan(monkeypatch, (1, 2, 2, 3), corruption)


def assert_replay_matches_the_scan(monkeypatch, dims, corruption):
    # a scaled basis field in the store makes some pairs fail, or match with
    # the other sign; the replayed outcomes must report the same counts,
    # counterexamples and sign as the scan in (E1, E2) order
    m, n = dims[2:]
    charts = get_atlas(*dims).standard_charts
    for chart in charts:
        for E in GlElement.basis(m, n):
            rho_field(E, chart)
    if corruption is not None:
        at, (u, v), q = corruption
        key = (charts[at].index, u, v)
        monkeypatch.setitem(nl._UNIT_FIELDS, key, scaled(nl._UNIT_FIELDS[key], q))
    got = verify_rho_morphism(*dims)
    want = verify_rho_morphism_reference(*dims)
    assert got.results == want.results
    assert got.notes == want.notes
    assert got.to_json() == want.to_json()
    assert want.ok == (corruption is None)


# ---------------------------------------------------------------------------
# the Jacobian bracket against the reference
# ---------------------------------------------------------------------------

# rho_field's store is shared by every example: later examples bracket
# fields whose Jacobians earlier ones computed, as h_report's pair loop does
BRACKET_DIMS = [(0, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 3)]


@st.composite
def homogeneous_elements(draw, m, n):
    """An elementary unit, or a rational combination of units of one parity."""
    d = m + n
    units = [(u, v) for u in range(1, d + 1) for v in range(1, d + 1)]
    u, v = draw(st.sampled_from(units))
    if draw(st.booleans()):
        return GlElement.unit(m, n, u, v)
    parity = (u > m) ^ (v > m)
    same = [uv for uv in units if ((uv[0] > m) ^ (uv[1] > m)) == parity]
    keys = draw(st.lists(st.sampled_from(same), min_size=1, max_size=3, unique=True))
    return GlElement(m, n, {key: MPQ(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
                            for key in keys})


def assert_jacobian_is_fresh(X: ChartVectorField):
    # keyed by variable, in coordinate order: every nonzero partial appears
    # under its variable and name, and no empty row or partial does
    ctx, coords = X.chart.ctx, X.chart.coords
    for c in coords:
        for name, terms in X.flat.items():
            assert X.jacobian.get(c, {}).get(name, {}) == flat_partial(terms, ctx, c)
    assert list(X.jacobian) == [c for c in coords if c in X.jacobian]
    assert all(row and all(row.values()) for row in X.jacobian.values())


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_field_bracket_matches_the_apply_reference(data):
    dims = data.draw(st.sampled_from(BRACKET_DIMS))
    m, n = dims[2:]
    E1 = data.draw(homogeneous_elements(m, n))
    E2 = data.draw(homogeneous_elements(m, n))
    for chart in get_atlas(*dims).standard_charts:
        # the elementary parts carry their Jacobians before the combinations
        # are built from them by scale and +
        for u, v in list(E1.coeffs) + list(E2.coeffs):
            rho_field(GlElement.unit(m, n, u, v), chart).jacobian
        X1, X2 = rho_field(E1, chart), rho_field(E2, chart)
        want = bracket_reference(X1, X2)
        assert same_field(field_bracket(X1, X2), want)
        # bracketing the same fields again reads their cached Jacobians
        assert same_field(field_bracket(X1, X2), want)
        assert same_field(field_bracket(X2, X1), bracket_reference(X2, X1))
        assert_jacobian_is_fresh(X1)
        assert_jacobian_is_fresh(X2)


def test_every_elementary_bracket_matches_the_reference_twice():
    basis = GlElement.basis(1, 2)
    seen = []
    for chart in AT.standard_charts:
        fields = [rho_field(E, chart) for E in basis]
        seen += fields
        for _ in range(2):
            for X1 in fields:
                for X2 in fields:
                    assert same_field(field_bracket(X1, X2), bracket_reference(X1, X2))
    for X in seen:
        assert_jacobian_is_fresh(X)


@pytest.mark.parametrize("dims", BRACKET_DIMS)
def test_every_elementary_bracket_matches_the_reference_on_the_non_standard_charts(dims):
    # the charts whose labels hold a formal odd unit: their fields carry
    # nu-marked terms, which the standard charts' fields never do
    atlas = get_atlas(*dims)
    charts = [chart for chart in atlas.charts if chart not in atlas.standard_charts]
    assert charts
    for chart in charts:
        fields = [rho_field(E, chart) for E in GlElement.basis(*dims[2:])]
        for i, X1 in enumerate(fields):
            for X2 in fields[i:]:
                assert same_field(field_bracket(X1, X2), bracket_reference(X1, X2))
                assert same_field(field_bracket(X2, X1), bracket_reference(X2, X1))
        for X in fields:
            assert_jacobian_is_fresh(X)


def test_scale_and_sum_get_their_own_jacobians():
    # rho_field combines the stored unit fields into a new field for a
    # scaled or summed element; each combination computes its own Jacobian
    E12, E13 = GlElement.unit(1, 2, 1, 2), GlElement.unit(1, 2, 1, 3)
    f12, f13 = rho_field(E12, C1), rho_field(E13, C1)
    # the source fields hold their Jacobians before new ones are built from them
    assert f12.jacobian and f13.jacobian
    for Y in (E12.scale(MPQ(-3, 2)), E12 + E13, E12.scale(0)):
        assert_jacobian_is_fresh(rho_field(Y, C1))
    assert rho_field(E12 + E13, C1).flat == {
        name: flat_lincomb([(1, f12.flat[name]), (1, f13.flat[name])]) for name in C1.coords}
    assert rho_field(E12.scale(2), C1).flat == scaled(f12, 2).flat
    assert "jacobian" not in repr(f12)


# ---------------------------------------------------------------------------
# nu_defect against the generic chain rule
# ---------------------------------------------------------------------------


def decomposition_reference(field: ChartVectorField) -> list[SuperFunction]:
    """nu_defect's closed form applied to T = f e_S for every odd monomial
    e_S in ascending order, by the chain rule over formal_context:
    X[e1] T + [X, d](T), with d = d/de1 and [X, d] the derivation
    y -> -(-1)^p d(X[y]), and -2 nu(X(T)) more for an odd X."""
    chart = field.chart
    ctxF = formal_context(chart)
    comps = {name: embed(ctxF, c) for name, c in components(field).items()}
    e1 = chart.odd_coords[0]
    commutator = {name: c.partial(e1).scale(1 if field.parity else -1)
                  for name, c in comps.items()}
    f_rf = ctxF.gen("f").body()
    out = []
    for S in range(1 << len(chart.odd_coords)):
        T = SuperFunction(ctxF, {S: f_rf})
        D = comps[e1] * T + apply_formal_reference(chart, commutator, T, ctxF)
        if field.parity:
            D = D - apply_formal_reference(chart, comps, T, ctxF).nu().scale(2)
        out.append(D)
    return out


def assert_nu_defect_matches_the_chain_rule(field: ChartVectorField):
    defects = nu_defect_reference(field)
    assert decomposition_reference(field) == defects
    assert (nu_defect(field) == {}) == all(d.is_zero() for d in defects)


@pytest.mark.parametrize("dims", [(0, 1, 1, 2), (1, 1, 2, 2)])
def test_nu_defect_matches_the_chain_rule_on_every_basis_field(dims):
    m, n = dims[2:]
    atlas = get_atlas(*dims)
    assert len(atlas.charts) > len(atlas.standard_charts)
    for chart in atlas.charts:
        for E in GlElement.basis(m, n):
            assert_nu_defect_matches_the_chain_rule(fundamental_field(E, chart))


def odd_component_field() -> ChartVectorField:
    """X = e1 d/dx1 + x2 d/de2 on a chart of 1|1(2|2): odd, with an odd
    partial whose sign shows."""
    chart = get_atlas(1, 1, 2, 2).chart((1,), (1,))
    ctx = chart.ctx
    return field_of(chart, 1, {"x1": ctx.gen("e1"), "x2": ctx.zero(),
                               "e1": ctx.zero(), "e2": ctx.gen("x2")})


def test_nu_defect_of_a_field_with_odd_components():
    # worked out by hand from
    # X(f e_S) = X(f) e_S + f X(e_S),  X(f) = e1 f_x1,  X(e1 e2) = -x2 e1
    field = odd_component_field()
    assert_nu_defect_matches_the_chain_rule(field)
    # an odd field commutes with nu only when it is zero: its nonzero
    # components are the defect
    ctx = field.chart.ctx
    assert nu_defect(field) == {"x1": {flat_key(ctx, "e1"): 1}, "e2": {flat_key(ctx, "x2"): 1}}
    defects = nu_defect_reference(field)
    g = defects[0].ctx.gen
    f, fx1, x2, e1, e2 = g("f"), g("f_x1"), g("x2"), g("e1"), g("e2")
    assert defects == [
        -fx1,
        fx1 * e1,
        (x2 * f * e1).scale(-2) - fx1 * e2,
        fx1 * e1 * e2 + (x2 * f).scale(2),
    ]


def masks_of(chart, parity: int, e1=None) -> list[int]:
    """The odd masks of the given parity; e1 True or False keeps those
    that hold e1, or those that do not."""
    return [mask for mask in range(1 << len(chart.odd_coords))
            if mask.bit_count() & 1 == parity and e1 in (None, bool(mask & 1))]


def random_terms(chart, parity: int, rng: random.Random, count: int, e1=None) -> dict:
    """count flat terms on masks_of(chart, parity, e1), with small exponents
    and coefficients."""
    masks = masks_of(chart, parity, e1)
    return {(rng.choice(masks), tuple(rng.randrange(3) for _ in chart.even_coords)):
            rng.choice((-2, -1, 1, 2, 3)) for _ in range(count)}


def random_field(chart, parity: int, rng: random.Random, kind: str) -> ChartVectorField:
    """A homogeneous field of random flat terms: "any"; "rule", built to
    commute with nu (X[e1] = 0 and no e1 term for an even field, zero for an
    odd one); or "rule+1", such a field with one term added that breaks the
    rule (a term holding e1, or any term of X[e1] or of an odd field)."""
    e1 = chart.odd_coords[0]
    component = {name: (chart.coord_parity[name] + parity) & 1 for name in chart.coords}
    flat = {name: {} for name in chart.coords}
    for name, p in component.items():
        if kind == "any":
            flat[name] = random_terms(chart, p, rng, rng.randrange(3))
        elif parity == EVEN and name != e1:
            flat[name] = random_terms(chart, p, rng, rng.randrange(3), e1=False)
    if kind == "rule+1":
        held = {name: True if parity == EVEN and name != e1 else None for name in chart.coords}
        name = rng.choice([name for name in chart.coords
                           if masks_of(chart, component[name], held[name])])
        flat[name] = {**flat[name], **random_terms(chart, component[name], rng, 1, held[name])}
    return ChartVectorField(chart, parity, flat)


@pytest.mark.parametrize("dims", [(0, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 3)])
def test_nu_defect_is_empty_exactly_when_the_chain_rule_defects_vanish(dims):
    rng = random.Random(sum(dims))
    for chart in get_atlas(*dims).charts:
        for parity in (EVEN, ODD):
            for kind in ("any", "rule", "rule+1") * 4:
                field = random_field(chart, parity, rng, kind)
                assert_nu_defect_matches_the_chain_rule(field)
                if kind != "any":
                    assert (nu_defect(field) == {}) == (kind == "rule")


def assert_nu_partners_are_determined(defects):
    # D_{S^1} = X(f e_S) - nu X(f e_{S^1}) = -nu(D_S): half the odd
    # monomials carry every condition
    assert len(defects) % 2 == 0
    for S in range(0, len(defects), 2):
        assert defects[S + 1] == -defects[S].nu()


@pytest.mark.parametrize("dims", [(0, 1, 1, 2), (1, 1, 2, 2)])
def test_the_chain_rule_defects_of_nu_partners_are_determined(dims):
    m, n = dims[2:]
    for chart in get_atlas(*dims).charts:
        for E in GlElement.basis(m, n):
            assert_nu_partners_are_determined(nu_defect_reference(fundamental_field(E, chart)))
    assert_nu_partners_are_determined(nu_defect_reference(odd_component_field()))


@pytest.mark.parametrize("dims", [(0, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 3), (2, 1, 3, 2),
                                  (1, 1, 1, 3), (0, 1, 2, 2)])
def test_the_commutant_matches_the_cut_over_every_odd_monomial(dims):
    h = compute_h(*dims)
    assert [h.even, h.odd] == commutant_reference(dims)


# ---------------------------------------------------------------------------
# the per-process store of basis fields
# ---------------------------------------------------------------------------


def test_a_warm_h_report_builds_no_field_and_repeats_the_cold_bytes(monkeypatch):
    monkeypatch.setattr(nl, "_UNIT_FIELDS", {})
    calls = []
    build = nl.fundamental_field
    monkeypatch.setattr(nl, "fundamental_field", lambda *a: calls.append(a) or build(*a))
    dims = (1, 2, 2, 3)
    cold = json.dumps(h_report(*dims), indent=2, sort_keys=True)
    assert len(calls) == 25 * len(get_atlas(*dims).charts)
    calls.clear()
    warm = json.dumps(h_report(*dims), indent=2, sort_keys=True)
    assert calls == []
    assert warm == cold
    assert digest(cold) == PINS[f"h_report {dims}"].sha256


def test_charts_with_the_same_index_sets_keep_their_own_fields(monkeypatch):
    # every (I, R) of 1|1(2|2) is also a chart of 1|1(2|3), and the units
    # E_uv with u, v <= 4 exist in both, of the same parity: a key without
    # k|l(m|n) would hand the first atlas's field to the second
    monkeypatch.setattr(nl, "_UNIT_FIELDS", {})
    small, large = get_atlas(1, 1, 2, 2), get_atlas(1, 1, 2, 3)
    for a in small.charts:
        b = large.chart(a.index.I, a.index.R)
        for u in range(1, 5):
            for v in range(1, 5):
                Ea, Eb = GlElement.unit(2, 2, u, v), GlElement.unit(2, 3, u, v)
                fa, fb = rho_field(Ea, a), rho_field(Eb, b)
                assert fa is not fb and fa.chart.index != fb.chart.index
                assert same_field(fa, fundamental_field(Ea, a))
                assert same_field(fb, fundamental_field(Eb, b))
                assert fb.chart.index == b.index and set(fb.flat) == set(b.coords)


def test_a_stored_field_does_not_skip_the_shape_check():
    chart = get_atlas(1, 2, 2, 3).charts[0]
    rho_field(GlElement.unit(2, 3, 1, 1), chart)  # the store now holds E11 here
    with pytest.raises(ValueError):
        rho_field(GlElement.unit(1, 1, 1, 1), chart)
    with pytest.raises(ValueError):
        rho_field(GlElement(1, 1, {}), chart)


def test_stored_fields_are_read_only():
    for chart in AT.charts:
        for E in GlElement.basis(1, 2):
            field = rho_field(E, chart)
            assert rho_field(E, chart) is field
            for name, terms in field.flat.items():
                with pytest.raises(TypeError):
                    field.flat[name] = {}
                for key in list(terms) + [(0, (0,) * len(chart.even_coords))]:
                    with pytest.raises(TypeError):
                        terms[key] = 1
                with pytest.raises(AttributeError):
                    terms.clear()
    # every attempt above failed, so the process's fields still give the pin
    check("h_report (0, 1, 1, 2)")


def test_a_field_is_frozen():
    chart = AT.standard_charts[0]
    E12 = GlElement.unit(1, 2, 1, 2)
    field = rho_field(E12, chart)
    for attr, value in (("flat", {}), ("parity", 0), ("chart", chart)):
        with pytest.raises(FrozenInstanceError):
            setattr(field, attr, value)
    # every rebinding failed, so the store still hands out the true field
    assert rho_field(E12, chart) is field
    assert same_field(rho_field(E12, chart), fundamental_field(E12, chart))


def test_a_component_view_shares_nothing_with_the_stored_fields():
    # the view's sympy numerators are mutable dicts: clearing every one of
    # them in place must leave the stored fields, and so the report, as they were
    dims = (1, 2, 2, 3)
    for chart in get_atlas(*dims).charts:
        for E in GlElement.basis(*dims[2:]):
            for comp in components(rho_field(E, chart)).values():
                for c in comp.terms.values():
                    c.num.clear()
    check("h_report (1, 2, 2, 3)")
