"""Charts of a nu-Grassmannian, their labels, and the transition machinery.

A chart is indexed by a p|q-index I|R with p+q = k+l.  Its label is a
k|l x m|n supermatrix whose I u R columns form an identity (standard chart,
p = k) or the non-standard identity with formal odd units on the off-parity
diagonal (p != k), and whose remaining columns are filled top to bottom,
left to right, by the chart coordinates in a fixed global ordering, with the
involution applied to any symbol landing in a block of the opposite parity.

Transitions come in two flavours:

* symbolic, between charts of the structure rings, via the pasting
  normalization D((M or M')^-1 A); only the standard-to-standard and
  arbitrary-to-non-standard directions admit a closed formula;
* pointwise, on Lambda_r-valued points, where the same normalization is
  evaluated with the involution acting on Lambda_r values.  Every direction
  is available pointwise, if need be by solving the pasting equation as an
  exact linear system (invert_transition_at_point).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from sympy.external.gmpy import MPQ

from .errors import (
    BodySolveFailed,
    GenericallySingular,
    MinorNotInvertible,
    NotInvertible,
    OverlapNotSampled,
    ResidualNuSymbol,
    SingularJacobian,
    UncoveredCase,
)
from .superalgebra import (
    EVEN,
    ODD,
    GeneratorContext,
    GrassmannNumber,
    SuperFunction,
    _get_ring as _status_ring,
    lambda_sample,
)
from .supermatrix import (
    NU,
    SuperMatrix,
    is_nu,
    minor_M,
    minor_Mprime,
    remainder_D,
    smat_inv,
    smat_mul,
    format_blocked,
)


def chart_dims(k: int, l: int, m: int, n: int) -> tuple[int, int]:
    """Even|odd coordinate counts of every chart."""
    return k * (m - k) + l * (n - l), l * (m - k) + k * (n - l)


@dataclass(frozen=True)
class IndexPair:
    """A p|q-index: ascending I in {1..m}, R in {1..n} with p+q = k+l."""

    I: tuple[int, ...]
    R: tuple[int, ...]
    k: int
    l: int
    m: int
    n: int

    def __post_init__(self):
        if list(self.I) != sorted(set(self.I)) or list(self.R) != sorted(set(self.R)):
            raise ValueError("index sets must be strictly increasing")
        if self.I and not (1 <= self.I[0] and self.I[-1] <= self.m):
            raise ValueError("even indices out of range")
        if self.R and not (1 <= self.R[0] and self.R[-1] <= self.n):
            raise ValueError("odd indices out of range")
        if len(self.I) + len(self.R) != self.k + self.l:
            raise ValueError("need p + q = k + l")

    @property
    def p(self) -> int:
        return len(self.I)

    @property
    def q(self) -> int:
        return len(self.R)

    @property
    def standard(self) -> bool:
        return self.p == self.k

    def __str__(self):
        fmt = lambda t: "{" + ",".join(map(str, t)) + "}" if t else "{}"
        return f"{fmt(self.I)}|{fmt(self.R)}"


def ordering_groups(k: int, l: int, m: int, n: int):
    """The global coordinate ordering, one group of k+l symbols per column.

    The first m-k groups serve columns left of the divider (k even symbols
    then l odd ones); the last n-l groups serve columns right of it (k odd
    symbols then l even ones).
    """
    groups = []
    for j in range(1, m - k + 1):
        g = [(f"x{(j - 1) * k + a}", EVEN) for a in range(1, k + 1)]
        g += [(f"e{(j - 1) * l + b}", ODD) for b in range(1, l + 1)]
        groups.append(g)
    for j in range(1, n - l + 1):
        g = [(f"e{(m - k) * l + (j - 1) * k + a}", ODD) for a in range(1, k + 1)]
        g += [(f"x{(m - k) * k + (j - 1) * l + b}", EVEN) for b in range(1, l + 1)]
        groups.append(g)
    return groups


class Chart:
    """One nu-domain with its label supermatrix and coordinate bookkeeping."""

    def __init__(self, index: IndexPair):
        self.index = index
        k, l, m, n = index.k, index.l, index.m, index.n
        self.alpha, self.beta = chart_dims(k, l, m, n)
        self.even_coords = tuple(f"x{i}" for i in range(1, self.alpha + 1))
        self.odd_coords = tuple(f"e{i}" for i in range(1, self.beta + 1))
        self.ctx = GeneratorContext(self.even_coords, self.odd_coords)
        self._build_pattern()

    # -- construction --------------------------------------------------------

    def _build_pattern(self):
        idx = self.index
        k, l, m, n = idx.k, idx.l, idx.m, idx.n
        s = k + l
        ncols = m + n
        grid = [[("zero",)] * ncols for _ in range(s)]

        # identity / non-standard identity in the I u R columns
        for i in range(1, s + 1):
            if i <= idx.p:
                gcol = idx.I[i - 1] - 1
            else:
                gcol = m + idx.R[i - idx.p - 1] - 1
            tok = "one" if (i <= k) == (i <= idx.p) else "nu1"
            grid[i - 1][gcol] = (tok,)

        # coordinates in the remaining columns, following the ordering
        free_cols = [j - 1 for j in range(1, m + 1) if j not in idx.I]
        free_cols += [m + t - 1 for t in range(1, n + 1) if t not in idx.R]
        groups = ordering_groups(k, l, m, n)
        slots = []
        for gcol, group in zip(free_cols, groups):
            col_parity = ODD if gcol >= m else EVEN
            for row, (name, sym_parity) in enumerate(group):
                pos_parity = (ODD if row >= k else EVEN) ^ col_parity
                marked = sym_parity != pos_parity
                grid[row][gcol] = ("coord", name, marked)
                slots.append((row, gcol, name, marked))
        self.pattern = grid
        self.slots = slots
        self.coord_parity = {name: EVEN for name in self.even_coords}
        self.coord_parity.update({name: ODD for name in self.odd_coords})
        self.nu_unit_rows = {
            gcol: row
            for row in range(s)
            for gcol in range(ncols)
            if grid[row][gcol][0] == "nu1"
        }
        self._dst_plan = None

    @property
    def dst_plan(self):
        """Destination-side pasting data: the minor's column selection with
        divider moves (zsel), the free columns (dcols), and the read-off
        slots into those columns (read)."""
        if self._dst_plan is None:
            idx = self.index
            k, m, p = idx.k, idx.m, idx.p
            sel_even = [j - 1 for j in idx.I]
            sel_odd = [m + t - 1 for t in idx.R]
            if p == k:
                zsel = [(c, False) for c in sel_even + sel_odd]
            elif p > k:
                zsel = [(c, False) for c in sel_even[:k]]
                zsel += [(c, True) for c in sel_even[k:]]
                zsel += [(c, False) for c in sel_odd]
            else:
                zsel = [(c, False) for c in sel_even]
                zsel += [(c, True) for c in sel_odd[: k - p]]
                zsel += [(c, False) for c in sel_odd[k - p:]]
            label = set(sel_even) | set(sel_odd)
            dcols = [c for c in range(m + idx.n) if c not in label]
            dpos = {c: t for t, c in enumerate(dcols)}
            read = [
                (row, dpos[gcol], name, marked)
                for row, gcol, name, marked in self.slots
            ]
            self._dst_plan = (zsel, dcols, read)
        return self._dst_plan

    # -- views ---------------------------------------------------------------

    @property
    def coords(self) -> tuple[str, ...]:
        return self.even_coords + self.odd_coords

    def label(self, ctx: GeneratorContext | None = None) -> SuperMatrix:
        """The label as a symbolic supermatrix over the chart ring."""
        ctx = ctx or self.ctx
        one = ctx.one()
        zero = ctx.zero()
        ent = []
        for row in self.pattern:
            out = []
            for cell in row:
                if cell[0] == "zero":
                    out.append(zero)
                elif cell[0] == "one":
                    out.append(one)
                elif cell[0] == "nu1":
                    out.append(NU)
                else:
                    g = ctx.gen(cell[1])
                    out.append(g.nu() if cell[2] else g)
            ent.append(out)
        idx = self.index
        return SuperMatrix((idx.k, idx.l), (idx.m, idx.n), ent, zero, validate=False)

    def label_tokens(self) -> list[list[str]]:
        toks = []
        for row in self.pattern:
            out = []
            for cell in row:
                if cell[0] == "zero":
                    out.append("0")
                elif cell[0] == "one":
                    out.append("1")
                elif cell[0] == "nu1":
                    out.append("1nu")
                else:
                    out.append(f"nu({cell[1]})" if cell[2] else cell[1])
            toks.append(out)
        return toks

    def pretty_label(self) -> str:
        return format_blocked(self.label_tokens(), self.index.k, self.index.m)

    def __eq__(self, other):
        return isinstance(other, Chart) and self.index == other.index

    def __hash__(self):
        return hash(self.index)

    def __repr__(self):
        return f"Chart({self.index})"

    # -- realization over Lambda_r --------------------------------------------

    def realize(self, values: dict[str, GrassmannNumber], r: int):
        """Raw grid of the point matrix; formal odd units stay symbolic."""
        one = GrassmannNumber.scalar(r, 1)
        zero = GrassmannNumber(r, {})
        grid = []
        for row in self.pattern:
            out = []
            for cell in row:
                if cell[0] == "zero":
                    out.append(zero)
                elif cell[0] == "one":
                    out.append(one)
                elif cell[0] == "nu1":
                    out.append(NU)
                else:
                    v = values[cell[1]]
                    out.append(v.nu() if cell[2] else v)
            grid.append(out)
        return grid

    def realize_matrix(self, values: dict[str, GrassmannNumber], r: int) -> SuperMatrix:
        idx = self.index
        return SuperMatrix(
            (idx.k, idx.l),
            (idx.m, idx.n),
            self.realize(values, r),
            GrassmannNumber(r, {}),
            validate=False,
        )


def enumerate_charts(k: int, l: int, m: int, n: int) -> list[Chart]:
    """All p|q-indices with p+q = k+l, lexicographic in (I, R)."""
    if not (0 <= k <= m and 0 <= l <= n):
        raise ValueError("need 0 <= k <= m and 0 <= l <= n")
    pairs = []
    for p in range(max(0, k + l - n), min(m, k + l) + 1):
        q = k + l - p
        for I in itertools.combinations(range(1, m + 1), p):
            for R in itertools.combinations(range(1, n + 1), q):
                pairs.append((I, R))
    pairs.sort()
    return [Chart(IndexPair(I, R, k, l, m, n)) for I, R in pairs]


class Atlas:
    """The charts of one nu-Grassmannian, looked up by index."""

    def __init__(self, k: int, l: int, m: int, n: int):
        self.k, self.l, self.m, self.n = k, l, m, n
        self.charts = enumerate_charts(k, l, m, n)
        self._by_index = {(c.index.I, c.index.R): c for c in self.charts}

    @property
    def standard_charts(self) -> list[Chart]:
        return [c for c in self.charts if c.index.standard]

    @property
    def act_order(self) -> list[Chart]:
        """Chart preference for the group action: standard charts first, so
        results stay in the plain rational regime whenever possible."""
        return self.standard_charts + [c for c in self.charts if not c.index.standard]

    def chart(self, I, R) -> Chart:
        return self._by_index[(tuple(I), tuple(R))]


_ATLASES: dict[tuple, Atlas] = {}


def get_atlas(k: int, l: int, m: int, n: int) -> Atlas:
    key = (k, l, m, n)
    try:
        return _ATLASES[key]
    except KeyError:
        at = Atlas(k, l, m, n)
        _ATLASES[key] = at
        return at


_GLOBAL_PLANS: dict[tuple, "HopPlan"] = {}


def _get_plan(src: Chart, dst: Chart) -> "HopPlan":
    key = (
        src.index.k, src.index.l, src.index.m, src.index.n,
        src.index.I, src.index.R, dst.index.I, dst.index.R,
    )
    try:
        return _GLOBAL_PLANS[key]
    except KeyError:
        pl = HopPlan(src, dst)
        _GLOBAL_PLANS[key] = pl
        return pl


class HopPlan:
    """Precomputed column selections for one source/destination chart pair."""

    def __init__(self, src: Chart, dst: Chart):
        self.src = src
        self.dst = dst
        self.zsel, self.dcols, self.read = dst.dst_plan
        self.units = self._unit_columns()
        self._status = None

    def _unit_columns(self) -> tuple[tuple[int, int], ...]:
        """Minor columns that are the unit vector e_i at every point: an
        unmoved constant 1, or a moved odd unit (which resolves to 1), with
        zeros elsewhere.  Pairs (minor column, i) for _lam_solve."""
        units = []
        for j, (c, moved) in enumerate(self.zsel):
            cells = [(i, row[c][0]) for i, row in enumerate(self.src.pattern)
                     if row[c][0] != "zero"]
            if len(cells) == 1 and cells[0][1] == ("nu1" if moved else "one"):
                units.append((j, cells[0][0]))
        return tuple(units)

    @property
    def status(self) -> str:
        """Structural evaluability of this direction at generic points.

        'ok'       the minor is body-invertible at generic points;
        'residual' a source odd unit lands in an unmoved selected column;
        'singular' the minor's body determinant vanishes identically
                   (e.g. a moved identity column, whose body the involution
                   kills), so no point of the source chart can hop this way.
        """
        if self._status is None:
            self._status = self._classify()
        return self._status

    def _classify(self) -> str:
        src = self.src
        names = tuple(f"b_{name}" for name in src.coords)
        R = _status_ring(names)
        gens = {name: R.gens[i] for i, name in enumerate(src.coords)}
        rows = []
        for i in range(len(src.pattern)):
            row = []
            for c, moved in self.zsel:
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


def pair_defined(src: Chart, dst: Chart) -> bool:
    """A chart pair supports a pointwise round trip if at least one of the
    two directions is generically evaluable (the other can be realized by
    the exact inverse solver)."""
    return _get_plan(src, dst).status == "ok" or _get_plan(dst, src).status == "ok"


@dataclass
class GrassPoint:
    """A Lambda_r-valued point of one chart: a parity-respecting assignment."""

    chart: Chart
    r: int
    values: dict[str, GrassmannNumber]

    def __post_init__(self):
        for name, v in self.values.items():
            want = self.chart.coord_parity[name]
            p = v.parity()
            if p is None or (p != want and not v.is_zero()):
                raise ValueError(f"coordinate {name} has parity {p}, wants {want}")

    def __eq__(self, other):
        if not isinstance(other, GrassPoint):
            return NotImplemented
        return (
            self.chart.index == other.chart.index
            and self.r == other.r
            and self.values == other.values
        )

    def to_dict(self) -> dict:
        return {
            "chart": {"I": list(self.chart.index.I), "R": list(self.chart.index.R)},
            "r": self.r,
            "coords": {name: self.values[name].to_dict() for name in self.chart.coords},
        }

    @classmethod
    def from_dict(cls, atlas: Atlas, data: dict) -> "GrassPoint":
        chart = atlas.chart(data["chart"]["I"], data["chart"]["R"])
        r = data["r"]
        values = {
            name: GrassmannNumber.from_dict(r, d) for name, d in data["coords"].items()
        }
        return cls(chart, r, values)


# ---------------------------------------------------------------------------
# symbolic transitions
# ---------------------------------------------------------------------------


@dataclass
class TransitionMap:
    """g*: assigns to each destination coordinate a function on the source."""

    src: Chart
    dst: Chart
    assignments: dict[str, SuperFunction]
    minor: SuperMatrix = field(repr=False, default=None)

    def is_identity(self) -> bool:
        return all(
            self.assignments[name] == self.src.ctx.gen(name)
            for name in self.dst.coords
        )


def transition_symbolic(src: Chart, dst: Chart) -> TransitionMap:
    """The pasting map from the source chart ring into the destination's.

    Standard destinations require a standard source (the reverse direction
    has no closed formula here); non-standard destinations accept any source
    whose odd units resolve under the divider move.
    """
    if dst.index.standard and not src.index.standard:
        raise UncoveredCase(
            f"no symbolic formula for non-standard {src.index} -> standard {dst.index}"
        )
    A = src.label()
    if dst.index.standard:
        Z = minor_M(A, dst.index.I, dst.index.R)
        if Z.has_nu():
            raise ResidualNuSymbol("odd unit in a standard-destination minor")
    else:
        Z = minor_Mprime(A, dst.index.I, dst.index.R, dst.index)
    try:
        Zinv = smat_inv(Z)
    except NotInvertible as exc:
        raise GenericallySingular(str(exc)) from exc
    R = smat_mul(Zinv, A)
    D = remainder_D(R, dst.index.I, dst.index.R)
    plan = _get_plan(src, dst)
    assignments = {}
    for row, dpos, name, marked in plan.read:
        entry = D.entries[row][dpos]
        assignments[name] = entry.nu() if marked else entry
    return TransitionMap(src, dst, assignments, minor=Z)


def evaluate_transition(t: TransitionMap, X: GrassPoint) -> GrassPoint:
    """Evaluate a symbolic transition at a point of the source chart."""
    assign = dict(X.values)
    values = {
        name: sf.eval_grassmann(assign, X.r) for name, sf in t.assignments.items()
    }
    return GrassPoint(t.dst, X.r, values)


def apply_pullback(t: TransitionMap, sf: SuperFunction) -> SuperFunction:
    """Extend the coordinate assignments of a transition to a ring morphism
    and apply it to an element of the destination chart ring."""
    src_ctx = t.src.ctx
    dst_ctx = t.dst.ctx
    if sf.ctx != dst_ctx:
        raise ValueError("element does not live on the destination chart")

    def eval_rf(rf):
        num = _eval_poly_super(rf.num, dst_ctx.even_names, t.assignments, src_ctx)
        den = _eval_poly_super(rf.den, dst_ctx.even_names, t.assignments, src_ctx)
        return num * den.inv()

    out = src_ctx.zero()
    for mask, coeff in sf.terms.items():
        val = eval_rf(coeff)
        for i, name in enumerate(dst_ctx.odd_names):
            if mask >> i & 1:
                val = val * t.assignments[name]
        out = out + val
    return out


def _eval_poly_super(p, names, assignments, src_ctx):
    total = src_ctx.zero()
    for exp, q in p.terms():
        term = src_ctx.scalar(MPQ(q))
        for i, k in enumerate(exp):
            for _ in range(k):
                term = term * assignments[names[i]]
        total = total + term
    return total


def nu_equivariance_defects(t: TransitionMap) -> dict[str, SuperFunction]:
    """For each destination generator g, the difference
    g*(nu(g)) - nu(g*(g));  all zero iff the pasting map intertwines the two
    charts' involutions.  With the concrete first-generator toggle this
    typically fails off the identity, which is why it is reported rather
    than assumed."""
    out = {}
    for name in t.dst.coords:
        g = t.dst.ctx.gen(name)
        lhs = apply_pullback(t, g.nu())
        rhs = t.assignments[name].nu()
        out[name] = lhs - rhs
    return out


# ---------------------------------------------------------------------------
# pointwise transitions over Lambda_r
# ---------------------------------------------------------------------------


def _lam_solve(Z, Y, r: int, units=()):
    """Exact solution X of  Z X = Y  over Lambda_r, Z square, as nested lists.

    Gauss-Jordan on the augmented rows [Z | Y], taking in each column the
    first unused row whose entry has a nonzero body.  `units` lists pairs
    (j, i) for columns j of Z known to be the unit vector e_i: they are
    pivoted on row i first, which costs nothing, so only the remaining block
    is eliminated.  Raises NotInvertible exactly when the body of Z is
    singular, whatever the pivot order.
    """
    n = len(Z)
    pivot_row = dict(units)
    free = [i for i in range(n) if i not in pivot_row.values()]
    cols = [j for j in range(n) if j not in pivot_row]
    w = len(cols)
    # each row keeps only the columns still to be eliminated, then Y; the
    # unit columns stay untouched because their other entries are zero
    M = [[Z[i][j] for j in cols] + list(Y[i]) for i in range(n)]
    width = w + (len(Y[0]) if n else 0)
    for t, col in enumerate(cols):
        for piv in free:
            if M[piv][t].body():
                break
        else:
            raise NotInvertible(f"no body-invertible pivot in column {col}")
        free.remove(piv)
        prow = M[piv]
        pinv = prow[t].inv()
        for j in range(t + 1, width):
            if not prow[j].is_zero():
                prow[j] = pinv * prow[j]
        for i in range(n):
            row = M[i]
            f = row[t]
            if i == piv or f.is_zero():
                continue
            for j in range(t + 1, width):
                p = prow[j]
                if not p.is_zero():
                    row[j] = row[j] - f * p
        pivot_row[col] = piv
    return [M[pivot_row[j]][w:] for j in range(n)]


def _lam_gauss_inv(rows, r: int):
    """Exact inverse of a square Lambda_r matrix given as nested lists."""
    n = len(rows)
    one = GrassmannNumber.scalar(r, 1)
    zero = GrassmannNumber(r, {})
    return _lam_solve(rows, [[one if j == i else zero for j in range(n)] for i in range(n)], r)


def _adjusted_minor(A, zsel, one):
    """The pasting minor of a realized grid: the selected columns, with the
    involution applied to the moved ones.  A formal odd unit resolves to 1
    in a moved column; in an unmoved one it has no value over Lambda_r."""
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


def _normalize(A, r: int, dst: Chart, units=(), unit_rows=None) -> dict:
    """Destination coordinates of the row space of a realized grid A.

    One exact solve  Z X = Y  with Z the adjusted minor and Y the columns
    free in the destination, read off through the destination's slots.
    `unit_rows` maps a column of A that holds a formal odd unit to its row
    u; that column of Y is e_u and its solution column is twisted by the
    involution (the odd-unit rule  x 1nu = nu(x)).  `units` is passed to
    _lam_solve.  Raises NotInvertible where the minor is singular.
    """
    zsel, dcols, read = dst.dst_plan
    one = GrassmannNumber.scalar(r, 1)
    zero = GrassmannNumber(r, {})
    unit_rows = unit_rows or {}
    Z = _adjusted_minor(A, zsel, one)
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
    X = _lam_solve(Z, Y, r, units)
    values = {}
    for row, t, name, marked in read:
        v = X[row][t]
        values[name] = v.nu() if marked != (t in twisted) else v
    return values


def point_transition(X: GrassPoint, dst: Chart) -> GrassPoint:
    """Move a Lambda_r point into the destination chart via the pasting
    normalization, the involution acting on Lambda_r values."""
    src = X.chart
    plan = _get_plan(src, dst)
    A = src.realize(X.values, X.r)
    try:
        values = _normalize(A, X.r, dst, plan.units, src.nu_unit_rows)
    except NotInvertible as exc:
        raise MinorNotInvertible(f"{src.index} -> {dst.index}: {exc}") from exc
    return GrassPoint(dst, X.r, values)


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
    realizes the inverse direction without a closed formula.
    """
    if target.chart.index != dst_chart.index:
        raise ValueError("target must live in the destination chart")
    r = target.r
    plan = _get_plan(src_chart, dst_chart)
    s = src_chart.index.k + src_chart.index.l
    zero = GrassmannNumber(r, {})
    one = GrassmannNumber.scalar(r, 1)
    T = target.chart.realize(target.values, r)
    src_nu_rows = src_chart.nu_unit_rows

    def residual(values) -> list[MPQ]:
        """Coefficients of the pasting equation  Z(Q) [T] = [Q] at the
        destination's free columns (label columns hold identically).

        At a source odd-unit column the product twists through the
        involution, so the constraint there reads  Z nu(T_col) = e_u.
        """
        A = src_chart.realize(values, r)
        Z = _adjusted_minor(A, plan.zsel, one)
        out = []
        for c in plan.dcols:
            unit_row = src_nu_rows.get(c)
            if unit_row is None:
                tcol = [T[j][c] for j in range(s)]
            else:
                tcol = [T[j][c].nu() for j in range(s)]
            for i in range(s):
                acc = zero
                zi = Z[i]
                for j in range(s):
                    t = tcol[j]
                    if not t.is_zero():
                        acc = acc + zi[j] * t
                if unit_row is None:
                    a = A[i][c]
                    if not a.is_zero():
                        acc = acc - a
                elif i == unit_row:
                    acc = acc - one
                for mask in range(1 << r):
                    out.append(acc.terms.get(mask, MPQ(0)))
        return out

    basis = _coeff_basis(src_chart, r)
    zero_vals = {name: zero for name in src_chart.coords}
    b0 = residual(zero_vals)
    rows = len(b0)
    cols = len(basis)
    Amat = []
    for name, mask in basis:
        vals = {n: zero for n in src_chart.coords}
        vals[name] = GrassmannNumber(r, {mask: MPQ(1)})
        col = residual(vals)
        Amat.append([col[i] - b0[i] for i in range(rows)])
    # solve A q = -b0 exactly
    aug = [[Amat[j][i] for j in range(cols)] + [-b0[i]] for i in range(rows)]
    pivots = []
    rank = 0
    for c in range(cols):
        piv = None
        for i in range(rank, rows):
            if aug[i][c]:
                piv = i
                break
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pr = aug[rank]
        inv = MPQ(1) / pr[c]
        aug[rank] = [e * inv for e in pr]
        for i in range(rows):
            if i == rank:
                continue
            f = aug[i][c]
            if f:
                aug[i] = [e - f * p for e, p in zip(aug[i], aug[rank])]
        pivots.append(c)
        rank += 1
    for i in range(rank, rows):
        if aug[i][cols]:
            raise BodySolveFailed("inconsistent inverse-transition system")
    if rank < cols:
        raise SingularJacobian("inverse-transition system is underdetermined")
    q = [MPQ(0)] * cols
    for row_i, c in enumerate(pivots):
        q[c] = aug[row_i][cols]
    values = {name: GrassmannNumber(r, {}) for name in src_chart.coords}
    for (name, mask), coeff in zip(basis, q):
        if coeff:
            values[name] = values[name] + GrassmannNumber(r, {mask: coeff})
    Q = GrassPoint(src_chart, r, values)
    try:
        back = point_transition(Q, dst_chart)
    except (MinorNotInvertible, ResidualNuSymbol) as exc:
        raise BodySolveFailed(f"solution lies outside the overlap: {exc}") from exc
    if back != target:
        raise BodySolveFailed("post-check failed: forward image differs from target")
    return Q


def hop_point(X: GrassPoint, dst: Chart) -> GrassPoint:
    """Pointwise transition, falling back to the exact inverse solver when
    the direct minor keeps an unresolved odd unit."""
    try:
        return point_transition(X, dst)
    except ResidualNuSymbol:
        return invert_transition_at_point(X, dst, X.chart)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_point(chart: Chart, r: int, rng: random.Random) -> GrassPoint:
    values = {
        name: lambda_sample(r, chart.coord_parity[name], rng) for name in chart.coords
    }
    return GrassPoint(chart, r, values)


# ---------------------------------------------------------------------------
# cocycle verification
# ---------------------------------------------------------------------------


def _hop_by_status(X: GrassPoint, dst: Chart) -> GrassPoint:
    """One pointwise hop, direct when that direction is generically
    evaluable, otherwise through the exact inverse of the reverse hop.
    Raises MinorNotInvertible / BodySolveFailed outside the overlap."""
    if _get_plan(X.chart, dst).status == "ok":
        return point_transition(X, dst)
    return invert_transition_at_point(X, dst, X.chart)


def _round_trip_check(a: Chart, b: Chart, r: int, samples: int, rng: random.Random,
                      max_tries: int = 400):
    passed = failed = 0
    counterexamples = []
    for _ in range(samples):
        for _attempt in range(max_tries):
            X = sample_point(a, r, rng)
            try:
                Y = _hop_by_status(X, b)
                X2 = _hop_by_status(Y, a)
            except (MinorNotInvertible, BodySolveFailed, SingularJacobian):
                continue
            if X2 == X:
                passed += 1
            else:
                failed += 1
                if len(counterexamples) < 3:
                    counterexamples.append(
                        {"start": X.to_dict(), "returned": X2.to_dict()}
                    )
            break
        else:
            raise OverlapNotSampled(f"could not sample the overlap of {a.index}, {b.index}")
    return passed, failed, counterexamples


def _cycle_check(charts: list[Chart], r: int, samples: int, rng: random.Random,
                 max_tries: int = 400):
    """Round trip through a cycle of charts, first entry is start and end."""
    start, rest = charts[0], charts[1:]
    passed = failed = 0
    counterexamples = []
    for _ in range(samples):
        for _attempt in range(max_tries):
            X = sample_point(start, r, rng)
            try:
                Y = X
                for c in rest:
                    Y = _hop_by_status(Y, c)
                Y = _hop_by_status(Y, start)
            except (MinorNotInvertible, BodySolveFailed, SingularJacobian):
                continue
            if Y == X:
                passed += 1
            else:
                failed += 1
                if len(counterexamples) < 3:
                    counterexamples.append({"start": X.to_dict(), "returned": Y.to_dict()})
            break
        else:
            raise OverlapNotSampled(
                "could not sample the common overlap of "
                + ", ".join(str(c.index) for c in charts)
            )
    return passed, failed, counterexamples


def verify_cocycle(k: int, l: int, m: int, n: int, r: int = 2, samples: int = 100,
                   seed: int = 0, audit_nu_triples: int = 0):
    """Check the three pasting identities on one atlas.

    Identity transitions are checked symbolically on every chart.  Pair
    round trips run pointwise over Lambda_r on every ordered pair with at
    least one generically evaluable direction; pairs with none are reported
    as undefined (their overlap never meets the refined cover).  Triple
    cycles run on ordered triples of distinct standard charts, where the
    composite stays inside plain rational algebra; cycles through
    non-standard charts do not close exactly under the concrete involution
    and can be sampled separately as a non-gating audit via audit_nu_triples.
    """
    from .reports import CheckResult, Report

    atlas = get_atlas(k, l, m, n)
    rng = random.Random(seed)
    report = Report(
        suite="cocycle",
        config={"k": k, "l": l, "m": m, "n": n, "r": r, "samples": samples, "seed": seed},
    )

    for c in atlas.charts:
        ok = transition_symbolic(c, c).is_identity()
        report.results.append(
            CheckResult("identity-symbolic", str(c.index), 1, int(ok), int(not ok))
        )

    for a in atlas.charts:
        for b in atlas.charts:
            if a is b:
                continue
            inst = f"{a.index} <-> {b.index}"
            if not pair_defined(a, b):
                report.results.append(
                    CheckResult(
                        "pair-round-trip", inst, 0, 0, 0,
                        note="undefined: both directions structurally singular",
                    )
                )
                continue
            p, f, ce = _round_trip_check(a, b, r, samples, rng)
            report.results.append(CheckResult("pair-round-trip", inst, p + f, p, f, ce))

    for a in atlas.charts:
        for b in atlas.charts:
            if a is b or (b.index.standard and not a.index.standard):
                continue
            try:
                t = transition_symbolic(a, b)
            except (GenericallySingular, ResidualNuSymbol):
                continue
            defects = nu_equivariance_defects(t)
            clean = all(d.is_zero() for d in defects.values())
            report.results.append(
                CheckResult(
                    "nu-equivariance-audit", f"{a.index} -> {b.index}", 1,
                    int(clean), int(not clean),
                    note="pullback intertwines the involutions"
                    if clean else "pullback does not intertwine the involutions",
                    gating=False,
                )
            )

    std = atlas.standard_charts
    triples = [
        (a, b, c)
        for a in std
        for b in std
        for c in std
        if a is not b and b is not c and a is not c
    ]
    if not triples:
        report.notes.append(
            "no triple of distinct standard charts at this size; triple check vacuous"
        )
    for a, b, c in triples:
        inst = f"{a.index} -> {c.index} -> {b.index} -> {a.index}"
        p, f, ce = _cycle_check([a, c, b], r, samples, rng)
        report.results.append(CheckResult("triple-cycle", inst, p + f, p, f, ce))

    if audit_nu_triples:
        nonstd = [c for c in atlas.charts if not c.index.standard]
        audited = 0
        for mid in nonstd:
            for a in std:
                for b in std:
                    if a is b or audited >= audit_nu_triples:
                        continue
                    audited += 1
                    inst = f"{a.index} -> {mid.index} -> {b.index} -> {a.index}"
                    try:
                        p, f, ce = _cycle_check([a, mid, b], r, min(samples, 10), rng)
                    except OverlapNotSampled:
                        report.results.append(
                            CheckResult("nu-triple-audit", inst, 0, 0, 0,
                                        note="no evaluable samples", gating=False)
                        )
                        continue
                    report.results.append(
                        CheckResult(
                            "nu-triple-audit", inst, p + f, p, f, [],
                            note="cycle through a non-standard chart; "
                                 "exactness not implied by the concrete involution",
                            gating=False,
                        )
                    )
        if audited:
            report.notes.append(
                "nu-triple audit is informational: such cycles pick up soul-order "
                "corrections because the involution on Lambda_r is not linear over "
                "the even part"
            )
    return report
