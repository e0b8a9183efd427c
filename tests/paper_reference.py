"""Reference routines that only the tests use.

The library evaluates a chart-ring element at a point, and pulls it back
along a transition, through one ring substitution, FlatFraction.substitute,
and builds a fundamental field from its first-order formula.  The routines
here are independent routes kept as
test oracles; nothing in ``nugrass`` calls them.  grid_normalize is the
pasting normalization of a realized grid, the oracle of every compiled
pasting system.  minor_M, remainder_D and minor_Mprime spell out the
paper's minors M, M' and remainder D on a SuperMatrix, column by column.
palette_hop is the pointwise hop on value objects, the oracle of the hop on
numerator tuples, and of the symbolic maps' FlatFraction solve when given
chart-ring generators; assignments is a TransitionMap as canonical
SuperFunctions, and components a ChartVectorField's values as
SuperFunctions, one from_flat call per coordinate each;
apply_pullback_reference is the pullback of a SuperFunction through
assignments, the oracle of atlas.apply_pullback, and
nu_equivariance_defects the nu-audit through it, the oracle of
HopPlan.nu_equivariant; ring_route is linalg.solve through ring_solve,
the oracle of its integer rows, and strips the unit columns it is given,
as HopPlan does.  Both eliminations take one row layout: each row of Z
without its unit columns, then the row of Y.  The eps-ring of
eps_ring_fundamental_field is a context it builds itself, with the eps
parameters as trailing odd generators.  invert_transition_at_point solves
the pasting equation of a direction as an exact linear system over QQ; it
realizes no direction and checks forward hops against their inverse.
nu_defect_reference applies the generic chain rule over the chart ring
extended by a symbol f and its partials f_x (formal_context) on every odd
monomial, the oracle of nulie.nu_defect's closed form.  field_of builds a
field from SuperFunction values, through to_flat, the flat terms of a
polynomial chart-ring element.  label is a chart's label as a supermatrix
over its chart ring, and chart_ring_fundamental_field the first-order
formula of nulie.fundamental_field run on that label with the ring's own
products: the oracle of the flat route.
"""

from sympy import QQ
from sympy.external.gmpy import MPQ

from nugrass.atlas import (
    Chart,
    GrassPoint,
    _cells,
    _get_plan,
    _rows,
    point_transition,
)
from nugrass.errors import (
    InhomogeneousInput,
    MinorNotInvertible,
    NuGrassError,
    ResidualNuSymbol,
)
from nugrass.linalg import ring_solve, rref, solve
from nugrass.nulie import ChartVectorField, _field
from nugrass.superalgebra import (
    EVEN,
    ODD,
    GeneratorContext,
    GrassmannNumber,
    RationalFunction,
    SuperFunction,
    _exact,
    _get_ring,
    from_flat,
)
from nugrass.supermatrix import SuperMatrix, is_nu, matmul


def _poly_eval(p, pairs):
    """Evaluate a PolyElement fully; tolerates empty substitution lists."""
    if not pairs:
        return p.const()
    v = p.evaluate(pairs)
    if not isinstance(v, (MPQ, int)):
        # partially evaluated polynomial left over: constant in remaining gens
        return v.const()
    return MPQ(v)


def eval_rational(rf, assign: dict[str, object]):
    """Evaluate a RationalFunction at exact rational arguments; returns an MPQ."""
    R = _get_ring(rf.names)
    pairs = [(R.gens[i], QQ(MPQ(assign[n]).numerator, MPQ(assign[n]).denominator))
             for i, n in enumerate(rf.names)]
    d = _poly_eval(rf.den, pairs)
    if not d:
        raise ZeroDivisionError("denominator vanishes at the point")
    return MPQ(_poly_eval(rf.num, pairs)) / MPQ(d)


def adjusted_minor(A, zsel, one):
    """The pasting minor of a grid: the selected columns, with the
    involution applied to the moved ones.  A formal odd unit resolves to 1
    in a moved column; in an unmoved one it has no value."""
    Z = []
    for Ai in A:
        zrow = []
        for c, moved in zsel:
            e = Ai[c]
            if is_nu(e):
                if not moved:
                    raise ResidualNuSymbol(f"odd unit column {c} selected but not moved")
                zrow.append(one)
            else:
                zrow.append(e.nu() if moved else e)
        Z.append(zrow)
    return Z


def grid_normalize(A, dst: Chart, unit_rows=None) -> dict:
    """Destination coordinates of the row space of a grid A, the pasting
    normalization D((M or M')^-1 A) on the realized grid: the oracle of the
    compiled pasting systems (chart hops, symbolic maps, acted points).

    A holds Lambda_r values or chart-ring elements, and may hold the formal
    odd unit; 0 and 1 come from the entries' own ring.  One exact solve
    Z X = Y  with Z the adjusted minor and Y the columns free in the
    destination, read off through the destination's slots.  `unit_rows`
    maps a column of A that holds a formal odd unit to its row u; that
    column of Y is e_u and its solution column is twisted by the involution
    (the odd-unit rule  x 1nu = nu(x)).  The whole minor is eliminated,
    unit columns included.  Raises NotInvertible where the minor is
    singular.
    """
    zsel, dcols, read = dst.dst_plan
    proto = next((e for row in A for e in row if not is_nu(e)), None)
    if proto is None:  # no rows: the charts of 0|0(m|n) have no coordinates
        return {}
    one, zero = proto.ring_one(), proto.ring_zero()
    unit_rows = unit_rows or {}
    Z = adjusted_minor(A, zsel, one)
    Y = [[] for _ in A]
    twisted = set()
    for t, c in enumerate(dcols):
        u = unit_rows.get(c)
        if u is None:
            for yrow, Ai in zip(Y, A):
                yrow.append(Ai[c])
        else:
            twisted.add(t)
            for i, yrow in enumerate(Y):
                yrow.append(one if i == u else zero)
    X = solve(Z, Y)
    values = {}
    for row, t, name, marked in read:
        v = X[row][t]
        values[name] = v.nu() if marked != (t in twisted) else v
    return values


def column(A: SuperMatrix, j: int) -> list:
    return [row[j] for row in A.entries]


def take_columns(A: SuperMatrix, indices, col_split) -> SuperMatrix:
    entries = [[row[j] for j in indices] for row in A.entries]
    return SuperMatrix._of(A.row_split, col_split, entries, A.proto)


def minor_M(A: SuperMatrix, J, S) -> SuperMatrix:
    """Columns of A with even indices in J and odd indices in S, sides kept."""
    c0, c1 = A.col_split
    J = sorted(J)
    S = sorted(S)
    for j in J:
        if not 1 <= j <= c0:
            raise IndexError(f"even column {j} out of range")
    for s in S:
        if not 1 <= s <= c1:
            raise IndexError(f"odd column {s} out of range")
    indices = [j - 1 for j in J] + [c0 + s - 1 for s in S]
    return take_columns(A, indices, (len(J), len(S)))


def remainder_D(A: SuperMatrix, J, S) -> SuperMatrix:
    """A with the J|S columns omitted, remaining columns keeping order and sides."""
    c0, c1 = A.col_split
    Jset = set(J)
    Sset = set(S)
    even_keep = [j for j in range(c0) if (j + 1) not in Jset]
    odd_keep = [c0 + s for s in range(c1) if (s + 1) not in Sset]
    return take_columns(A, even_keep + odd_keep, (len(even_keep), len(odd_keep)))


def minor_Mprime(A: SuperMatrix, J, S, target) -> SuperMatrix:
    """The divider-adjusted minor for pasting into the chart indexed by target.

    target is the IndexPair of the destination chart; its non-standard
    identity dictates which selected columns cross the divider line and pick
    up the involution.  For a standard target this is minor_M.
    """
    k, l = target.k, target.l
    p, q = target.p, target.q
    M = minor_M(A, J, S)
    if p == k:
        return M
    one = A.proto.ring_one()

    def nu_entry(e):
        return one if is_nu(e) else e.nu()

    cols = [column(M, j) for j in range(sum(M.col_split))]
    if p > k:
        moved = [[nu_entry(e) for e in cols[j]] for j in range(k, p)]
        even_cols = cols[:k]
        odd_cols = moved + cols[p:]
    else:
        moved = [[nu_entry(e) for e in cols[p + j]] for j in range(k - p)]
        even_cols = cols[:p] + moved
        odd_cols = cols[p + (k - p):]
    all_cols = even_cols + odd_cols
    entries = [[all_cols[j][i] for j in range(len(all_cols))] for i in range(sum(M.row_split))]
    out = SuperMatrix._of(M.row_split, (k, l), entries, A.proto)
    if any(is_nu(e) for row in entries for e in row):
        raise ResidualNuSymbol("an odd unit survives in an unmoved column")
    return out


def eps_ring_fundamental_field(E, chart) -> ChartVectorField:
    """The fundamental field of E over the eps-ring, the Lie-correspondence
    route: act with  Id + eps*E  over the chart ring extended by square-zero
    parameters (eps = t1 for odd E, t1*t2 for even E), renormalize into
    the same chart by the full solve, and extract the eps-linear part of
    each coordinate.

    The eps-ring is a context built here, with the t's as trailing odd
    generators.  nu toggles only the first odd generator, so on a chart
    with an odd coordinate it never touches a t.  A chart with no odd
    coordinate has no marks and no odd units, so nothing there applies
    nu, and t1 never stands in as the first odd generator."""
    parity = E.parity()
    if parity is None:
        raise InhomogeneousInput("fundamental_field needs a homogeneous element")
    idx = chart.index
    m, n = idx.m, idx.n
    if (E.m, E.n) != (m, n):
        raise ValueError("element and chart have mismatched shapes")
    ctx = chart.ctx
    ctx2 = GeneratorContext(ctx.even_names,
                            ctx.odd_names + (("t1",) if parity == ODD else ("t1", "t2")))
    eps = ctx2.gen("t1")
    if parity == EVEN:
        eps = eps * ctx2.gen("t2")
    one = ctx2.one()
    zero = ctx2.zero()
    d = m + n
    P = [
        [
            (one if i == j else zero) + eps.scale(E.coeffs.get((i + 1, j + 1), 0))
            for j in range(d)
        ]
        for i in range(d)
    ]
    W = matmul(label(chart, ctx2).entries, P, zero)
    comps = {}
    for name, val in grid_normalize(W, chart).items():
        if parity == ODD:
            comp2 = val.partial("t1")
        else:
            comp2 = val.partial("t1").partial("t2")
        # the extracted component is parameter-free; rebuild over the chart ring
        assert all(mask < (1 << chart.beta) for mask in comp2.terms)
        comps[name] = SuperFunction(chart.ctx, dict(comp2.terms))
    return field_of(chart, parity, comps)


def label(chart: Chart, ctx: GeneratorContext | None = None) -> SuperMatrix:
    """The chart's label as a symbolic supermatrix over the chart ring, or
    over ctx, a ring with the chart's coordinates among its generators."""
    ctx = ctx or chart.ctx
    zero = ctx.zero()
    grid = chart.grid({name: ctx.gen(name) for name in chart.coords}, ctx.one(), zero)
    idx = chart.index
    return SuperMatrix._of((idx.k, idx.l), (idx.m, idx.n), grid, zero)


def to_flat(f: SuperFunction) -> dict:
    """The flat terms of f, {(odd mask, even exponents): int or Fraction};
    ArithmeticError if a coefficient of f is not a polynomial."""
    out = {}
    for mask, c in f.terms.items():
        if not c.den.is_ground:  # a monic constant denominator is 1
            raise ArithmeticError("flat terms need polynomial coefficients")
        for exp, q in c.num.terms():
            out[mask, exp] = _exact(q)
    return out


def chart_ring_fundamental_field(E, chart: Chart) -> ChartVectorField:
    """nulie.fundamental_field's first-order formula  X1 = G_d - N1 sigma(Y0)
    over the chart ring: G = L E by supermatrix.matmul on the label, N1 from
    the rows of the chart's plain HopPlan filled with G through its palette,
    and N1 sigma(Y0) by matmul again; the result converted by to_flat."""
    parity = E.parity()
    if parity is None:
        raise InhomogeneousInput("fundamental_field needs a homogeneous element")
    idx = chart.index
    if (E.m, E.n) != (idx.m, idx.n):
        raise ValueError("element and chart have mismatched shapes")
    ctx, odd = chart.ctx, parity == ODD
    zero = ctx.zero()
    d = idx.m + idx.n
    L = label(chart).entries
    # matmul reads  1nu * c  as  nu(c) = c nu(1),  only where an odd unit occurs
    G = matmul(L, [[ctx.scalar(c) if (c := E.coeffs.get((u, v))) else zero
                    for v in range(1, d + 1)] for u in range(1, d + 1)], zero)
    _, dcols, read = chart.dst_plan
    sigma_Y0 = [[-Li[c] if odd and Li[c].parity() else Li[c] for c in dcols] for Li in L]
    plan = chart.plain_plan  # square k+l, no unit column
    N1 = _rows([row[:len(L)] for row in plan.rows], plan.palette(_cells(G), ctx.one()))
    NY = matmul(N1, sigma_Y0, zero)
    flat = {}
    for row, t, name, marked in read:
        w = G[row][dcols[t]] - NY[row][t]
        w = w.nu() if marked else w
        flat[name] = to_flat(-w if odd and w.parity() else w)
    return _field(chart, parity, flat)


def field_of(chart: Chart, parity: int, values: dict) -> ChartVectorField:
    """The field whose value on each coordinate is the given SuperFunction."""
    return ChartVectorField(chart, parity, {name: to_flat(c) for name, c in values.items()})


def formal_context(chart: Chart) -> GeneratorContext:
    """The chart ring extended by the generic symbol f and its partials f_x."""
    ctx = chart.ctx
    names = ("f",) + tuple(f"f_{x}" for x in chart.even_coords)
    return GeneratorContext(ctx.even_names + names, ctx.odd_names)


def embed(ctxF: GeneratorContext, sf: SuperFunction) -> SuperFunction:
    """A chart-ring element read in the ring of formal_context: its
    exponents padded with zeros for the trailing formal symbols."""
    R = _get_ring(ctxF.even_names)
    pad = (0,) * (len(ctxF.even_names) - len(sf.ctx.even_names))
    terms = {}
    for mask, c in sf.terms.items():
        num = R.from_dict({exp + pad: co for exp, co in c.num.terms()})
        den = R.from_dict({exp + pad: co for exp, co in c.den.terms()})
        terms[mask] = RationalFunction(ctxF.even_names, num, den, _canonical=True)
    return SuperFunction(ctxF, terms)


def apply_formal_reference(chart, comps, F, ctxF):
    """Generic chain rule: every coordinate partial of F, with the symbol f
    depending on the even coordinates through formal partials f_x."""
    out = ctxF.zero()
    for name in chart.even_coords:
        comp = comps[name]
        if comp.is_zero():
            continue
        dF = F.partial(name) + ctxF.gen(f"f_{name}") * F.partial("f")
        out = out + comp * dF
    for name in chart.odd_coords:
        comp = comps[name]
        if comp.is_zero():
            continue
        out = out + comp * F.partial(name)
    return out


def nu_defect_reference(field: ChartVectorField) -> list[SuperFunction]:
    """The defects  X(nu(f e_S)) - nu(X(f e_S))  for every odd monomial e_S,
    by the chain rule over formal_context."""
    chart = field.chart
    ctxF = formal_context(chart)
    comps = {name: embed(ctxF, c) for name, c in components(field).items()}
    f_rf = ctxF.gen("f").body()
    defects = []
    for S in range(1 << len(chart.odd_coords)):
        T = SuperFunction(ctxF, {S: f_rf})
        lhs = apply_formal_reference(chart, comps, T.nu(), ctxF)
        rhs = apply_formal_reference(chart, comps, T, ctxF).nu()
        defects.append(lhs - rhs)
    return defects


def palette_hop(plan, values: dict) -> dict:
    """HopPlan.transition through value objects: the rows of the compiled
    system filled from its palette of the values themselves (nu by the
    values' own nu), eliminated by ring_solve and read off with nu where the
    read-off is flagged.  Raises as the hop does."""
    if plan.residual is not None:
        raise ResidualNuSymbol(plan.residual)
    proto = next(iter(values.values()), None)
    if proto is None:
        return {}
    M = _rows(plan.rows, plan.palette(values, proto.ring_one()))
    X = [M[i][plan.width:] for i in ring_solve(M, plan.units)]
    return {name: X[row][t].nu() if flag else X[row][t]
            for row, t, name, flag in plan.read}


def _eval_poly_super(p, names, values, src_ctx):
    total = src_ctx.zero()
    for exp, q in p.terms():
        term = src_ctx.scalar(MPQ(q))
        for i, k in enumerate(exp):
            for _ in range(k):
                term = term * values[names[i]]
        total = total + term
    return total


def assignments(t) -> dict:
    """The transition map t as canonical SuperFunctions over its source
    chart ring: {destination coordinate: from_flat of its value}."""
    return {name: from_flat(v.ctx, v.num, v.den) for name, v in t.values.items()}


def components(X: ChartVectorField) -> dict:
    """The values of the field X as SuperFunctions over its chart ring:
    {coordinate: from_flat of its flat terms}."""
    return {name: from_flat(X.chart.ctx, t) for name, t in X.flat.items()}


def apply_pullback_reference(t, sf):
    """The pullback of the SuperFunction sf along the transition map t, on
    the canonical SuperFunctions of assignments(t): each coefficient's
    numerator and denominator pulled back term by term, then the odd
    generators of its mask in ascending order."""
    src_ctx = t.src.ctx
    dst_ctx = t.dst.ctx
    values = assignments(t)

    def eval_rf(rf):
        num = _eval_poly_super(rf.num, dst_ctx.even_names, values, src_ctx)
        den = _eval_poly_super(rf.den, dst_ctx.even_names, values, src_ctx)
        return num * den.inv()

    out = src_ctx.zero()
    for mask, coeff in sf.terms.items():
        val = eval_rf(coeff)
        for i, name in enumerate(dst_ctx.odd_names):
            if mask >> i & 1:
                val = val * values[name]
        out = out + val
    return out


def nu_equivariance_defects(t) -> dict:
    """For each destination generator g of the transition map t, the
    difference  g*(nu(g)) - nu(g*(g))  in the source chart ring, through
    apply_pullback_reference on assignments(t): all zero iff the pasting map
    intertwines the two charts' involutions.  The oracle of
    HopPlan.nu_equivariant, which pulls back on the map's FlatFractions."""
    values = assignments(t)
    out = {}
    for name in t.dst.coords:
        g = t.dst.ctx.gen(name)
        out[name] = apply_pullback_reference(t, g.nu()) - values[name].nu()
    return out


def ring_route(Z, Y, units=()):
    """linalg.solve through ring_solve on any ring, Lambda_r included: the
    oracle of the integer rows.  It strips the unit columns that `units`
    names from the rows of Z itself, as HopPlan does, and returns X."""
    named = {j for j, _ in units}
    cols = [j for j in range(len(Z)) if j not in named]
    M = [[zrow[j] for j in cols] + list(yrow) for zrow, yrow in zip(Z, Y)]
    return [M[i][len(cols):] for i in ring_solve(M, units)]


def gating_failures(report):
    """The gating checks of a report that recorded a failure."""
    return [r for r in report.results if r.gating and r.failed]


class BodySolveFailed(NuGrassError):
    """The inverse-transition system has no admissible solution."""


class SingularJacobian(NuGrassError):
    """The inverse-transition system is degenerate at the body solution."""


def _coeff_basis(chart: Chart, r: int):
    """Unknown slots (coord, mask) respecting coordinate parity."""
    out = []
    for name in chart.coords:
        parity = chart.coord_parity[name]
        for mask in range(1 << r):
            if mask.bit_count() & 1 == parity:
                out.append((name, mask))
    return out


def invert_transition_at_point(
    target: GrassPoint, src_chart: Chart, dst_chart: Chart
) -> GrassPoint:
    """Find the source point the forward pasting sends to target, exactly.

    The pasting equation  M'([Q]) [target] = [Q]  is affine in the rational
    coefficients of Q, so one exact linear solve plus a forward post-check
    inverts the direction without a closed formula.  No hop uses it: it is
    the oracle that checks forward hops against their inverse.
    """
    if target.chart.index != dst_chart.index:
        raise ValueError("target must live in the destination chart")
    r = target.r
    plan = _get_plan(src_chart, dst_chart)
    zero = GrassmannNumber(r, {})
    one = GrassmannNumber.scalar(r, 1)
    src_nu_rows = src_chart.nu_unit_rows
    # the destination's free columns of [T]; at a source odd-unit column the
    # product twists through the involution, so the constraint there reads
    # Z nu(T_col) = e_u
    T = target.chart.realize(target.values, r)
    Tfree = [[Ti[c].nu() if c in src_nu_rows else Ti[c] for c in plan.dcols] for Ti in T]

    def residual(values) -> list:
        """Coefficients of the pasting equation  Z(Q) [T] = [Q]  at the
        destination's free columns (label columns hold identically)."""
        A = src_chart.realize(values, r)
        ZT = matmul(adjusted_minor(A, plan.zsel, one), Tfree, zero)
        out = []
        for t, c in enumerate(plan.dcols):
            unit_row = src_nu_rows.get(c)
            for i, Ai in enumerate(A):
                acc = ZT[i][t]
                if unit_row is None:
                    acc = acc - Ai[c]
                elif i == unit_row:
                    acc = acc - one
                terms = acc.terms
                out.extend(terms.get(mask, 0) for mask in range(1 << r))
        return out

    basis = _coeff_basis(src_chart, r)
    zero_vals = {name: zero for name in src_chart.coords}
    b0 = residual(zero_vals)
    cols = len(basis)
    Amat = []
    for name, mask in basis:
        col = residual({**zero_vals, name: GrassmannNumber(r, {mask: MPQ(1)})})
        Amat.append([x - y for x, y in zip(col, b0)])
    # solve A q = -b0 exactly
    M, pivots = rref([[col[i] for col in Amat] + [-y] for i, y in enumerate(b0)], cols)
    if any(row[cols] for row in M[len(pivots):]):
        raise BodySolveFailed("inconsistent inverse-transition system")
    if len(pivots) < cols:
        raise SingularJacobian("inverse-transition system is underdetermined")
    values = dict(zero_vals)
    for (name, mask), row in zip(basis, M):
        if row[cols]:
            values[name] = values[name] + GrassmannNumber(r, {mask: row[cols]})
    Q = GrassPoint(src_chart, r, values)
    try:
        back = point_transition(Q, dst_chart)
    except (MinorNotInvertible, ResidualNuSymbol) as exc:
        raise BodySolveFailed(f"solution lies outside the overlap: {exc}") from exc
    if back != target:
        raise BodySolveFailed("post-check failed: forward image differs from target")
    return Q
