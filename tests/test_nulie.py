import pytest
from sympy.external.gmpy import MPQ

from nugrass.errors import InhomogeneousInput
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

AT = get_atlas(0, 1, 1, 2)
C1 = AT.chart((), (1,))


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
    assert f11.components["e1"] == ctx.gen("e1")
    assert f11.components["x1"].is_zero()
    f22 = fundamental_field(GlElement.unit(1, 2, 2, 2), C1)
    assert f22.components["x1"] == -ctx.gen("x1")
    assert f22.components["e1"] == -ctx.gen("e1")


def test_fundamental_field_is_linear():
    E23 = GlElement.unit(1, 2, 2, 3)
    E32 = GlElement.unit(1, 2, 3, 2)
    combo = E23.scale(MPQ(2)) + E32.scale(MPQ(-3))
    direct = rho_field(combo, C1)
    by_parts = fundamental_field(E23, C1).scale(2) + fundamental_field(E32, C1).scale(-3)
    assert direct == by_parts
    zero_field = rho_field(GlElement(1, 2, {}), C1)
    assert zero_field.is_zero()


def test_regression_pair_for_the_commutation_defect():
    ctx = C1.ctx
    xdx = ChartVectorField(C1, 0, {"x1": ctx.gen("x1"), "e1": ctx.zero()})
    assert all(d.is_zero() for d in nu_defect(xdx))
    ede = ChartVectorField(C1, 0, {"x1": ctx.zero(), "e1": ctx.gen("e1")})
    defects = nu_defect(ede)
    assert any(not d.is_zero() for d in defects)
    # the defect on the plain generic symbol is f*e, exactly
    ctxF = defects[0].ctx
    assert defects[0] == ctxF.gen("f") * ctxF.gen("e1")


def test_zero_field_has_no_defect():
    ctx = C1.ctx
    zero = ChartVectorField(C1, 0, {"x1": ctx.zero(), "e1": ctx.zero()})
    assert all(d.is_zero() for d in nu_defect(zero))


# ---------------------------------------------------------------------------
# the commutant
# ---------------------------------------------------------------------------


def test_commutant_of_the_small_atlas_is_the_scalar_line():
    h = compute_h(0, 1, 1, 2)
    assert h.dim_even >= 1
    assert h.dim_even == 1 and h.dim_odd == 0
    scalar = GlElement(1, 2, {(1, 1): MPQ(1), (2, 2): MPQ(1), (3, 3): MPQ(1)})
    assert h.even[0] == scalar


def test_commutant_defects_vanish_on_every_chart():
    h = compute_h(0, 1, 1, 2)
    for Y in h.even + h.odd:
        for chart in AT.charts:
            assert all(d.is_zero() for d in nu_defect(rho_field(Y, chart)))


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
    import nugrass.nulie as nl
    from nugrass.superalgebra import EVEN, ODD

    cache = {}
    h_all = compute_h(0, 1, 1, 2, field_cache=cache)
    # re-run the cut keeping only standard-chart rows
    basis_all = GlElement.basis(1, 2)
    for parity, expected in ((EVEN, h_all.even), (ODD, h_all.odd)):
        columns = [E for E in basis_all if E.parity() == parity]
        rows = []
        row_index = {}
        for col_i, E in enumerate(columns):
            for chart in AT.standard_charts:
                f = rho_field(E, chart, cache)
                for S, defect in enumerate(nu_defect(f)):
                    for mask, coeff in defect.terms.items():
                        for exp, q in coeff.num.terms():
                            key = (chart.index.I, chart.index.R, S, mask, exp)
                            i = row_index.get(key)
                            if i is None:
                                i = len(rows)
                                row_index[key] = i
                                rows.append([MPQ(0)] * len(columns))
                            rows[i][col_i] = MPQ(q)
        got = nl._nullspace(rows, len(columns))
        assert len(got) == len(expected)


def test_bracket_compatibility_sign_is_globally_consistent():
    rep = verify_rho_morphism(0, 1, 1, 2)
    assert rep.ok
    assert rep.results[0].samples == 81
    assert rep.notes == ["sign: -1"]


def test_field_bracket_matches_hand_computation():
    cache = {}
    f12 = rho_field(GlElement.unit(1, 2, 1, 2), C1, cache)
    f21 = rho_field(GlElement.unit(1, 2, 2, 1), C1, cache)
    br = field_bracket(f12, f21)
    # x e d/dx against d/de: the anticommutator is x d/dx
    assert br.components["x1"] == C1.ctx.gen("x1")
    assert br.components["e1"].is_zero()


def test_h_report_contents():
    data = h_report(0, 1, 1, 2)
    assert data["dim_even"] >= 1
    assert data["defect_residual"] == "0"
    assert data["bracket_closed"] and data["jacobi_exact"]
    assert data["rho_morphism_ok"]
    assert data["sign_s"] == "-1"
    assert data["basis_even"] == [{"1,1": "1", "2,2": "1", "3,3": "1"}]


def test_rho_field_leaves_the_shared_cache_intact():
    # rho_field hands out the cached field itself for a unit coefficient,
    # so no caller may mutate a field it gets back
    cache = {}
    assert verify_rho_morphism(0, 1, 1, 2, field_cache=cache).ok
    assert len(cache) == len(AT.standard_charts) * 9
    for (I, R, u, v), cached in cache.items():
        fresh = fundamental_field(GlElement.unit(1, 2, u, v), AT.chart(I, R))
        assert cached == fresh
        assert cached.parity == fresh.parity


def test_nu_defect_embeds_each_component_once(monkeypatch):
    from nugrass.superalgebra import GeneratorContext

    calls = []
    embed = GeneratorContext.embed
    monkeypatch.setattr(GeneratorContext, "embed",
                        lambda self, sf: calls.append(sf) or embed(self, sf))
    field = rho_field(GlElement.unit(1, 2, 1, 2), C1, {})
    defects = nu_defect(field)
    assert len(defects) == 1 << len(C1.odd_coords)
    assert len(calls) == len(field.components)
