"""Infinitesimal action of gl(m|n) and the subalgebra commuting with nu.

The fundamental vector field of a Lie-algebra element E is the eps-linear
part of the chart action of  Id + eps*E,  eps^2 = 0, computed from its
first-order formula in the chart ring: the chart's own label has the
identity as its adjusted minor (Z0 = 1), so the acted minor inverts as
1 - N1 eps and no solve runs (see fundamental_field).  Fields are
polynomial, so a ChartVectorField keeps each coordinate's value as flat
terms {(odd mask, even exponent tuple): int or Fraction} (superalgebra's
flat layout), built on those terms from the chart's label, its one form:
linear combinations (rho_field), Jacobians, brackets and defects all run
on those terms.  A field's coordinate
representation either commutes with the involution or not; collecting the
commutation conditions over every chart cuts an exact linear subspace of
gl(m|n): the nu-commutant.  nu_defect is the one defect function: since
nu = (left product by e1) + d/de1, the condition is a closed form on the
field's own flat terms (an even field has X[e1] = 0 and no e1 in any
term, an odd field is zero), so the cut runs on the field's integer
coefficients with no product and no odd monomial.  The field of a basis
element on a chart is a per-process fact of that pair: rho_field builds
it once, frozen with read-only terms, and every later call reads the same
object, whose Jacobian is computed once, keyed by variable, and lives as
long as the process.  A bracket runs only over the variables where a
field is nonzero.  The morphism check compares each unordered pair of
basis elements once per chart, the terms of one field bracket against
those of rho of one reversed matrix bracket; the other order has the same
outcome by the graded antisymmetry of both brackets and the linearity of
rho, and the outcomes are replayed in (E1, E2) order.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from types import MappingProxyType

from fractions import Fraction

from .errors import InhomogeneousInput, NoOddGenerators
from .superalgebra import (
    EVEN,
    ODD,
    _exact,
    flat_dot,
    flat_key,
    flat_lincomb,
    flat_nu,
    flat_partial,
)
from .linalg import rref
from .atlas import Chart, IndexPair, get_atlas
from .reports import CheckResult, Report


class GlElement:
    """Element of gl(m|n) as exact coefficients on the elementary basis:
    ``coeffs`` maps (u, v) to an int where the coefficient is integral and
    to a Fraction otherwise, each read through superalgebra._exact."""

    __slots__ = ("m", "n", "coeffs")

    def __init__(self, m: int, n: int, coeffs: dict[tuple[int, int], int | Fraction]):
        self.m = m
        self.n = n
        self.coeffs = {uv: q for uv, c in coeffs.items() if (q := _exact(c))}
        d = m + n
        for u, v in self.coeffs:
            if not (1 <= u <= d and 1 <= v <= d):
                raise ValueError(f"index ({u},{v}) outside gl({m}|{n})")

    @classmethod
    def unit(cls, m: int, n: int, u: int, v: int) -> "GlElement":
        return cls(m, n, {(u, v): 1})

    @classmethod
    def basis(cls, m: int, n: int) -> list["GlElement"]:
        d = m + n
        return [cls.unit(m, n, u, v) for u in range(1, d + 1) for v in range(1, d + 1)]

    def entry_parity(self, u: int, v: int) -> int:
        return (u > self.m) ^ (v > self.m)

    def parity(self):
        if not self.coeffs:
            return EVEN
        ps = {self.entry_parity(u, v) for u, v in self.coeffs}
        if len(ps) == 1:
            return ps.pop()
        return None

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        out = dict(self.coeffs)
        for uv, c in other.coeffs.items():
            out[uv] = out.get(uv, 0) + c
        return GlElement(self.m, self.n, out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for uv, c in other.coeffs.items():
            out[uv] = out.get(uv, 0) - c
        return GlElement(self.m, self.n, out)

    def scale(self, q) -> "GlElement":
        q = _exact(q)
        return GlElement(self.m, self.n, {uv: c * q for uv, c in self.coeffs.items()})

    def matmul(self, other: "GlElement") -> "GlElement":
        out: dict[tuple[int, int], int | Fraction] = {}
        for (u, v), a in self.coeffs.items():
            for (v2, w), b in other.coeffs.items():
                if v != v2:
                    continue
                key = (u, w)
                out[key] = out.get(key, 0) + a * b
        return GlElement(self.m, self.n, out)

    def __eq__(self, other):
        if not isinstance(other, GlElement):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.coeffs == other.coeffs

    def to_dict(self) -> dict:
        return {f"{u},{v}": str(c) for (u, v), c in sorted(self.coeffs.items())}

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            (f"E{u}{v}" if c == 1 else f"({c})*E{u}{v}")
            for (u, v), c in sorted(self.coeffs.items())
        )


def superbracket(a: GlElement, b: GlElement) -> GlElement:
    """Matrix supercommutator  ab - (-1)^{|a||b|} ba  of homogeneous elements."""
    pa, pb = a.parity(), b.parity()
    if pa is None or pb is None:
        raise InhomogeneousInput("superbracket needs homogeneous arguments")
    ab = a.matmul(b)
    ba = b.matmul(a)
    return ab + ba if (pa and pb) else ab - ba


@dataclass(frozen=True, eq=False)
class ChartVectorField:
    """A derivation on one chart, given by its value on each coordinate.

    ``flat`` maps each coordinate to the flat terms of its value (see
    superalgebra: {(odd mask, even exponent tuple): int or Fraction}), in
    read-only mappings; fields are polynomial, so every sum, multiple,
    bracket and Jacobian runs on these terms and no chart-ring polynomial.  The
    field is frozen, so the Jacobian is computed once per field object, on
    first use, and lives as long as it does; it is neither compared nor
    serialized.  It is keyed by variable: for each coordinate c, in
    coordinate order, the nonzero d_c X[name] as {name: terms}, and no
    entry for a c that no component holds.  Fields compare by identity:
    their terms are compared as ``flat``."""

    chart: Chart
    parity: int
    flat: Mapping[str, Mapping[tuple[int, tuple[int, ...]], int | Fraction]]

    @cached_property
    def jacobian(self) -> dict[str, dict[str, dict]]:
        ctx, flat = self.chart.ctx, self.flat
        by_var = {c: {name: d for name, t in flat.items() if t and (d := flat_partial(t, ctx, c))}
                  for c in self.chart.coords}
        return {c: row for c, row in by_var.items() if row}


def _field(chart: Chart, parity: int, flat: dict[str, dict]) -> ChartVectorField:
    """A field of flat terms that no one else holds, made read-only."""
    return ChartVectorField(chart, parity, MappingProxyType(
        {name: MappingProxyType(t) for name, t in flat.items()}))


def _combine(chart: Chart, parity: int, parts) -> ChartVectorField:
    """The field sum q * X over the pairs (q, X), coordinate by coordinate."""
    return _field(chart, parity, {name: flat_lincomb((q, X.flat[name]) for q, X in parts)
                                  for name in chart.coords})


def fundamental_field(E: GlElement, chart: Chart) -> ChartVectorField:
    """The chart representation of the infinitesimal action of E: the
    eps-linear part of the chart action of  Id + eps*E,  eps^2 = 0.

    With L the chart's label (a formal odd unit read as nu(1)) and G = L E,
    the acted label is  L + G eps.  The adjusted minor of L is the identity,
    since the chart's own I u R columns hold its identity and the involution
    resolves each moved odd unit to 1; so the minor is  Z = 1 + N1 eps  with
    N1 the adjusted minor of G: the first k+l entries of each of the rows
    of the chart's plain HopPlan (Chart.plain_plan), filled with G.  The
    free columns are  Y = Y0 + G_d eps  with Y0 = L[:, dcols], and
    Z^-1 Y = Y - N1 eps Y0.  The field is therefore  X1 = G_d - N1 sigma(Y0),
    read off through the chart's slots, where sigma(y) = (-1)^{|y||E|} y
    moves eps past y; for odd E the left derivative d/d eps adds a sign
    (-1)^{|w|} on each component w.

    All of it runs on flat terms: each label entry is one term (a
    coordinate, 1, or nu of either, nu toggling the first odd generator as
    SuperFunction.nu does), G is a linear combination of them, and N1
    sigma(Y0) one flat_dot per component.
    """
    parity = E.parity()
    if parity is None:
        raise InhomogeneousInput("fundamental_field needs a homogeneous element")
    idx = chart.index
    if (E.m, E.n) != (idx.m, idx.n):
        raise ValueError("element and chart have mismatched shapes")
    odd = parity == ODD
    ctx = chart.ctx
    one = flat_key(ctx)
    # the label as {column: key} per row; a formal odd unit is e1 = nu(1)
    L = [{} for _ in chart.pattern]
    for row, gcol, odd_unit in chart.identity:
        L[row][gcol] = (1, one[1]) if odd_unit else one
    for row, gcol, name, marked in chart.slots:
        mask, exp = flat_key(ctx, name)
        L[row][gcol] = (mask ^ 1 if marked else mask, exp)
    G = [[flat_lincomb((c, {k: 1}) for u, k in Li.items() if (c := E.coeffs.get((u + 1, v))))
          for v in range(1, idx.m + idx.n + 1)] for Li in L]
    _, dcols, read = chart.dst_plan
    sigma_Y0 = [[{k: -1 if odd and k[0].bit_count() & 1 else 1} if (k := Li.get(c)) else {}
                 for c in dcols] for Li in L]
    plan = chart.plain_plan  # square k+l, no unit column and no constant
    palette = [{}, {one: 1}, None] + [flat_nu(G[i][j]) if flag else G[i][j]
                                      for (i, j), flag in plan.coords]
    N1 = [[palette[s] for s in row[:len(L)]] for row in plan.rows]
    flat = {}
    for row, t, name, marked in read:
        w = flat_dot([(1, G[row][dcols[t]], {one: 1})]
                     + [(-1, n, y[t]) for n, y in zip(N1[row], sigma_Y0)])
        w = flat_nu(w) if marked else w
        flat[name] = {(m, e): _exact(-c if odd and m.bit_count() & 1 else c)
                      for (m, e), c in w.items()}
    return _field(chart, parity, flat)


# (chart index, u, v) -> the field of E_uv there, for the life of the
# process; IndexPair carries k|l(m|n), so atlases never share a key
_UNIT_FIELDS: dict[tuple[IndexPair, int, int], ChartVectorField] = {}


def rho_field(Y: GlElement, chart: Chart) -> ChartVectorField:
    """Fundamental field of an arbitrary element, by linearity over the
    stored basis fields, in one pass over their flat terms; a lone unit
    coefficient hands out the stored field itself.  The shape check comes
    first: a stored field would skip fundamental_field's."""
    parity = Y.parity()
    if parity is None:
        raise InhomogeneousInput("rho needs a homogeneous element")
    idx = chart.index
    if (Y.m, Y.n) != (idx.m, idx.n):
        raise ValueError("element and chart have mismatched shapes")
    parts = []
    for (u, v), c in sorted(Y.coeffs.items()):
        f = _UNIT_FIELDS.get((idx, u, v))
        if f is None:
            f = _UNIT_FIELDS[idx, u, v] = fundamental_field(GlElement.unit(Y.m, Y.n, u, v), chart)
        parts.append((_exact(c), f))
    if len(parts) == 1 and parts[0][0] == 1:
        return parts[0][1]
    return _combine(chart, parity, parts)


# ---------------------------------------------------------------------------
# the nu-commutation defect
# ---------------------------------------------------------------------------


def nu_defect(field: ChartVectorField) -> dict[str, dict]:
    """The flat terms of the field X that must vanish for X to commute with
    the involution, {coordinate: {(odd mask, even exponent): coefficient}}:
    empty exactly when  X nu = nu X  on the chart ring.

    nu toggles e1 with no sign, so  nu = lambda + d,  lambda the left
    product by e1 and d the left derivative d/de1.  For X of parity p the
    graded Leibniz rule gives
        X nu - nu X = lambda_{X[e1]} + [X, d] + ((-1)^p - 1) nu X,
    with [X, d] the derivation  y -> -(-1)^p d(X[y]).  The defect takes
    X[e1] at 1.  An even X therefore commutes with nu exactly when X[e1] = 0
    and no term of any component holds e1 (the derivation [X, d] is then
    the whole defect).  An odd X commutes only when it is zero: with
    X[y] = a + e1 b, the defect takes  X[e1] y - 2 e1 a - b  at y."""
    chart = field.chart
    if not chart.odd_coords:
        raise NoOddGenerators("the chart carries no odd generators")
    e1, odd = chart.odd_coords[0], field.parity == ODD
    defects = {}
    for name, terms in field.flat.items():
        held = {key: c for key, c in terms.items() if odd or name == e1 or key[0] & 1}
        if held:
            defects[name] = held
    return defects


# ---------------------------------------------------------------------------
# cutting the commutant
# ---------------------------------------------------------------------------


def _nullspace(rows: list[list], ncols: int) -> list[list]:
    """Exact rational nullspace; returns basis vectors."""
    M, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for row_i, pc in enumerate(pivots):
            v[pc] = -M[row_i][fc]
        basis.append(v)
    return basis


@dataclass
class HBasis:
    m: int
    n: int
    even: list[GlElement] = dc_field(default_factory=list)
    odd: list[GlElement] = dc_field(default_factory=list)

    @property
    def dim_even(self) -> int:
        return len(self.even)

    @property
    def dim_odd(self) -> int:
        return len(self.odd)


def compute_h(k: int, l: int, m: int, n: int) -> HBasis:
    """Exact basis of the subalgebra of gl(m|n) whose fundamental fields
    commute with the involution on every chart, one parity at a time: one
    row per (chart, coordinate, odd mask, even exponent) of nu_defect, each
    a flat term of the basis fields that must vanish, with their
    coefficients as they are."""
    atlas = get_atlas(k, l, m, n)
    basis_all = GlElement.basis(m, n)
    result = HBasis(m, n)
    for parity, sink in ((EVEN, result.even), (ODD, result.odd)):
        columns = [E for E in basis_all if E.parity() == parity]
        row_index: dict[tuple, int] = {}
        rows: list[list] = []
        for col_i, E in enumerate(columns):
            for chart in atlas.charts:
                for name, terms in nu_defect(rho_field(E, chart)).items():
                    for (mask, exp), q in terms.items():
                        key = (chart.index.I, chart.index.R, name, mask, exp)
                        i = row_index.get(key)
                        if i is None:
                            i = len(rows)
                            row_index[key] = i
                            rows.append([0] * len(columns))
                        rows[i][col_i] = q
        # distinct rows in first-seen order span the same row space, so the
        # reduced form and the basis are the same
        for vec in _nullspace(list(dict.fromkeys(map(tuple, rows))), len(columns)):
            elt = GlElement(m, n, {})
            for c, E in zip(vec, columns):
                if c:
                    elt = elt + E.scale(c)
            sink.append(elt)
    return result


def in_span(Y: GlElement, basis: list[GlElement]) -> bool:
    """Exact membership of Y in the rational span of the basis."""
    keys = sorted({uv for b in basis for uv in b.coeffs} | set(Y.coeffs))
    if not keys:
        return Y.is_zero()
    rows = [[b.coeffs.get(key, 0) for b in basis] + [Y.coeffs.get(key, 0)] for key in keys]
    M, pivots = rref(rows, len(basis))
    return not any(row[-1] for row in M[len(pivots):])


def super_jacobi_defect(a: GlElement, b: GlElement, c: GlElement) -> GlElement:
    """Graded Jacobi combination; zero for an honest super Lie bracket."""
    pa, pb, pc = a.parity(), b.parity(), c.parity()
    t1 = superbracket(a, superbracket(b, c)).scale(-1 if (pa and pc) else 1)
    t2 = superbracket(b, superbracket(c, a)).scale(-1 if (pb and pa) else 1)
    t3 = superbracket(c, superbracket(a, b)).scale(-1 if (pc and pb) else 1)
    return t1 + t2 + t3


def field_bracket(X1: ChartVectorField, X2: ChartVectorField) -> ChartVectorField:
    """Super bracket of derivations  [X1,X2][name] = X1(X2[name]) -+ X2(X1[name]),
    with  X(Y[name]) = sum_c X[c] d_c Y[name]  over the variables c of Y's
    Jacobian where X[c] is nonzero, in one flat sum per coordinate: the
    X1(X2[name]) triples first, each side in coordinate order."""
    if X1.chart.index != X2.chart.index:
        raise ValueError("fields live on different charts")
    s = 1 if X1.parity and X2.parity else -1
    triples: dict[str, list] = {}
    for q, F, J in ((1, X1.flat, X2.jacobian), (s, X2.flat, X1.jacobian)):
        for c, row in J.items():
            if f := F[c]:
                for name, d in row.items():
                    triples.setdefault(name, []).append((q, f, d))
    return _field(X1.chart, (X1.parity + X2.parity) & 1, {
        name: flat_dot(triples[name]) if name in triples else {} for name in X1.chart.coords})


def verify_rho_morphism(k: int, l: int, m: int, n: int) -> Report:
    """Exact comparison of field brackets with matrix brackets over every
    elementary basis pair, chart by chart on the standard charts.

    For this right action the law comes out as an anti-morphism: a single
    global sign s with  [rho(Y1), rho(Y2)] = s * rho([Y2, Y1])  (note the
    reversed bracket; the Koszul parity signs are absorbed by the reversal).
    The verifier determines s empirically and reports any inconsistency.
    Non-standard charts are excluded: their actions route a formal odd unit
    through the two-sided product rule and do not glue with the standard
    representations (see verify_cocycle's audit notes).

    The bracket formula gives  [X_j, X_i] = s [X_i, X_j]  and the matrix
    bracket  [E_i, E_j] = s [E_j, E_i],  with s = 1 for two odd elements and
    -1 otherwise, and rho_field is linear, so the pair (E_j, E_i) has the
    outcome of (E_i, E_j): each unordered pair is compared once per chart,
    against rho of its reversed bracket: the bracket's flat terms against
    rho's and their negation, as plain dicts built once per distinct value
    and chart.  The outcomes are replayed in (E1, E2) order,
    so the sign, counts and counterexamples are a pair-by-pair scan's.  The
    basis fields and their Jacobians are per-process facts (rho_field).
    """
    atlas = get_atlas(k, l, m, n)
    basis = GlElement.basis(m, n)
    report = Report(suite="rho-morphism", config={"k": k, "l": l, "m": m, "n": n})
    # per pair i <= j: the reversed matrix bracket [E_j, E_i], and per
    # standard chart the sign s with lhs = s*rhs, 0 when both sides vanish,
    # None for a mismatch
    pairs = [(i, j) for i in range(len(basis)) for j in range(i, len(basis))]
    reversed_brackets = [superbracket(basis[j], basis[i]) for i, j in pairs]
    outcomes: dict[tuple[int, int], list[int | None]] = {pair: [] for pair in pairs}
    for chart in atlas.standard_charts:
        fields = [rho_field(E, chart) for E in basis]
        rho: dict[frozenset, tuple] = {}  # reversed bracket -> ((sign, sign*rho terms), ...)
        for (i, j), Y in zip(pairs, reversed_brackets):
            if (key := frozenset(Y.coeffs.items())) not in rho:
                rhs = rho_field(Y, chart).flat
                rho[key] = tuple((q, {name: {term: q * c for term, c in t.items()}
                                      for name, t in rhs.items()})
                                 for q in ((1, -1) if any(rhs.values()) else (0,)))
            lhs = field_bracket(fields[i], fields[j]).flat
            outcomes[i, j].append(next((s for s, side in rho[key] if lhs == side), None))
    sign = None
    result = CheckResult("bracket-compatibility", f"gl({m}|{n}) on {k}|{l}({m}|{n})")
    for i, E1 in enumerate(basis):
        for j, E2 in enumerate(basis):
            ok_pair = True
            for outcome in outcomes[min(i, j), max(i, j)]:
                if sign is None and outcome:
                    sign = outcome
                if outcome is None or outcome not in (0, sign):
                    ok_pair = False
            result.record(ok_pair, lambda: {"E1": E1.to_dict(), "E2": E2.to_dict()})
    result.note = f"anti-morphism sign s = {sign} (reversed bracket)"
    report.results.append(result)
    report.notes.append(f"sign: {sign}")
    return report


def h_report(k: int, l: int, m: int, n: int) -> dict:
    """Full nu-commutant report: dimensions, basis, re-verified defects,
    bracket closure, Jacobi, and the morphism sign."""
    atlas = get_atlas(k, l, m, n)
    h = compute_h(k, l, m, n)
    all_basis = h.even + h.odd

    residual_zero = True
    for Y in all_basis:
        for chart in atlas.charts:
            if nu_defect(rho_field(Y, chart)):
                residual_zero = False

    closed = True
    bracket_table = []
    for i, a in enumerate(all_basis):
        for j, b in enumerate(all_basis):
            br = superbracket(a, b)
            inside = in_span(br, all_basis)
            closed = closed and inside
            bracket_table.append(
                {"i": i, "j": j, "bracket": br.to_dict(), "in_span": inside}
            )

    jacobi_ok = all(
        super_jacobi_defect(a, b, c).is_zero()
        for a in all_basis for b in all_basis for c in all_basis
    )

    morph = verify_rho_morphism(k, l, m, n)
    return {
        "dim_even": h.dim_even,
        "dim_odd": h.dim_odd,
        "basis_even": [Y.to_dict() for Y in h.even],
        "basis_odd": [Y.to_dict() for Y in h.odd],
        "bracket_table": bracket_table,
        "bracket_closed": closed,
        "jacobi_exact": jacobi_ok,
        "sign_s": morph.notes[0].split(": ")[1] if morph.notes else None,
        "rho_morphism_ok": morph.ok,
        "defect_residual": "0" if residual_zero else "nonzero",
    }
