"""Charts of a nu-Grassmannian, their labels, and the transition machinery.

A chart is indexed by a p|q-index I|R with p+q = k+l.  Its label is a
k|l x m|n supermatrix whose I u R columns form an identity (standard chart,
p = k) or the non-standard identity with formal odd units on the off-parity
diagonal (p != k), and whose remaining columns are filled top to bottom,
left to right, by the chart coordinates in a fixed global ordering, with the
involution applied to any symbol landing in a block of the opposite parity.

Transitions come in two flavours, both computed from the pasting system
that the pair's HopPlan compiles, which evaluates the pasting normalization
D((M or M')^-1 A) as one exact solve:

* symbolic, between charts of the structure rings; only the
  standard-to-standard and arbitrary-to-non-standard directions admit a
  closed formula.  It is solved on FlatFractions (flat int terms over a
  cleared int-polynomial denominator, no gcd), the map's one form, which
  the identity verdict, apply_pullback, evaluate_transition and the
  nu-audit read;
* pointwise, on Lambda_r-valued points, with the involution acting on
  Lambda_r values.  Only directions whose plan status is 'ok' are
  evaluable; hop statuses are symmetric on every tested atlas, so a pair
  is either evaluable both ways or not at all.

Where each entry of the system comes from (a constant, or a coordinate with
or without the involution) is a fact of the chart pair, so it is compiled
once per process from the source label's pattern and the destination's
plan, into one row table in the layout of both of linalg's eliminations;
a hop fills it straight from the coordinate values and builds no grid.
A direction's plan status comes from the minor part of the same rows,
filled with the bodies of a generic point (one indeterminate per source
coordinate, on FlatFractions without odd generators) and solved once.  The
body of a minor at any Lambda_r point is a specialization of that body, so
the solve fails exactly where no point can hop.  A matrix that is not a
chart grid (an acted point [X]P, the acted label L E of a fundamental
field) is plain: every entry is a coordinate of its own.  It fills the
system compiled from a plain source into its destination chart
(Chart.plain_plan), so every pasting normalization runs through
HopPlan._compile.
The one grid that is still built, a realized Lambda_r point to act on,
comes from Chart.grid, which realizes the label over any ring.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType, SimpleNamespace

from . import superalgebra
from .errors import (
    GenericallySingular,
    MinorNotInvertible,
    NotInvertible,
    OverlapNotSampled,
    ResidualNuSymbol,
    UncoveredCase,
)
from .linalg import eliminate, inverse, ring_solve, shape_solver
from .reports import CheckResult, Report, check_count, first_defined
from .superalgebra import (
    EVEN,
    ODD,
    FlatFraction,
    GeneratorContext,
    GrassmannNumber,
    _ff,
    _layout,
    flat_key,
    lambda_sample,
)
from .supermatrix import NU, format_blocked

# the square inverse under the name the tests and bench/tracer.py look up here
_lam_gauss_inv = inverse


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
        # index pairs key the plan and field stores on every hop: hash once
        object.__setattr__(self, "_hash", hash((self.I, self.R, self.k, self.l, self.m, self.n)))

    def __hash__(self):
        return self._hash

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
    """One nu-domain with its label pattern and coordinate bookkeeping."""

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
        self.ncols = ncols = m + n
        grid = [[("zero",)] * ncols for _ in range(s)]

        # identity / non-standard identity in the I u R columns
        identity = []
        for i in range(1, s + 1):
            if i <= idx.p:
                gcol = idx.I[i - 1] - 1
            else:
                gcol = m + idx.R[i - idx.p - 1] - 1
            odd_unit = (i <= k) != (i <= idx.p)
            grid[i - 1][gcol] = ("nu1",) if odd_unit else ("one",)
            identity.append((i - 1, gcol, odd_unit))

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
        self.identity = tuple(identity)
        self.slots = slots
        self.coord_parity = {name: EVEN for name in self.even_coords}
        self.coord_parity.update({name: ODD for name in self.odd_coords})
        self.nu_unit_rows = {gcol: row for row, gcol, odd_unit in identity if odd_unit}

    @cached_property
    def dst_plan(self):
        """Destination-side pasting data: the minor's column selection with
        divider moves (zsel), the free columns (dcols), and the read-off
        slots into those columns (read)."""
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
        read = [(row, dpos[gcol], name, marked) for row, gcol, name, marked in self.slots]
        return zsel, dcols, read

    @cached_property
    def plain_plan(self) -> "HopPlan":
        """The HopPlan into this chart from a plain k|l x m|n matrix, one
        whose every entry (i, j) is a coordinate: no identity, no odd unit.
        An acted point [X]P or acted label L E fills its system with the
        matrix's _cells."""
        plain = SimpleNamespace(
            pattern=[[("coord", (i, j), False) for j in range(self.ncols)]
                     for i in range(len(self.pattern))],
            identity=(), nu_unit_rows={})
        return HopPlan(plain, self)

    # -- views ---------------------------------------------------------------

    @property
    def coords(self) -> tuple[str, ...]:
        return self.even_coords + self.odd_coords

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

    # -- realization ----------------------------------------------------------

    def grid(self, values: dict, one, zero) -> list[list]:
        """The label at coordinate values from any ring (a chart ring,
        Lambda_r): the ring's 0 and 1, the formal odd unit NU, and each
        coordinate's value, through the involution where the label marks it."""
        grid = [[zero] * self.ncols for _ in self.pattern]
        for row, gcol, odd_unit in self.identity:
            grid[row][gcol] = NU if odd_unit else one
        for row, gcol, name, marked in self.slots:
            v = values[name]
            grid[row][gcol] = v.nu() if marked else v
        return grid

    def realize(self, values: dict[str, GrassmannNumber], r: int):
        """Raw grid of the point matrix; formal odd units stay symbolic."""
        return self.grid(values, GrassmannNumber.scalar(r, 1), GrassmannNumber(r, {}))


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
        self.standard_charts = [c for c in self.charts if c.index.standard]
        # chart preference for the group action: standard charts first, so
        # results stay in the plain rational regime whenever possible
        self.act_order = self.standard_charts + [c for c in self.charts
                                                 if not c.index.standard]

    def chart(self, I, R) -> Chart:
        return self._by_index[(tuple(I), tuple(R))]


@lru_cache(maxsize=None)
def get_atlas(k: int, l: int, m: int, n: int) -> Atlas:
    return Atlas(k, l, m, n)


_GLOBAL_PLANS: dict[tuple[IndexPair, IndexPair], "HopPlan"] = {}


def _get_plan(src: Chart, dst: Chart) -> "HopPlan":
    key = (src.index, dst.index)
    try:
        return _GLOBAL_PLANS[key]
    except KeyError:
        pl = HopPlan(src, dst)
        _GLOBAL_PLANS[key] = pl
        return pl


def _rows(index_rows, palette) -> list[list]:
    return [[palette[k] for k in row] for row in index_rows]


def _cells(A) -> dict:
    """The entries of a plain matrix, keyed (i, j) as the coordinates of
    Chart.plain_plan."""
    return {(i, j): e for i, row in enumerate(A) for j, e in enumerate(row)}


class HopPlan:
    """One source/destination chart pair, computed once per process: column
    selections, the compiled pasting system  Z X = Y, hop status, symbolic
    pasting map and its nu-audit verdict.  The pointwise hop, the symbolic
    map and the status all fill the one row table.  The source may also be
    the plain matrix of Chart.plain_plan, whose plan is only ever filled.

    Every entry of the system is a slot of the palette that palette builds
    from one point's coordinate values: slot 0 is the ring's 0, slot 1 its
    1, slot 2 nu(1) (an unmoved constant 1 in a moved column; None unless
    nu_one) and slot 3 + i the value of coords[i] = (name, apply nu).  A
    coordinate takes nu where its label mark differs from its column's
    move, because nu o nu = id.  `rows` is the one row table, the layout
    that both eliminations of linalg take: each row of Z without the pair's
    unit columns (units), then the row of Y, whose twisted odd-unit columns
    are e_u.  `read` holds the read-off slots (row, column of X, name,
    apply nu), the nu flag combining the label mark with the twist of the
    odd-unit rule  x 1nu = nu(x).  A plain source has no constants, no odd
    unit and so no unit column: each entry (i, j) is a coordinate, with nu
    where its column moves, so the first k+l entries of each row are the
    divider-adjusted minor.  Where a source odd unit lands in an unmoved
    selected column the pair has no system: `rows` is empty and `residual`
    holds the message of the ResidualNuSymbol that transition raises.
    Between two charts whose status is 'ok', `body_pivots` holds the pivot
    row of each minor column that the status's body solve picked, and the
    Lambda_r hop, r >= 1, runs the straight-line solve of the system's
    shape in that order (`_hop`).  Every other solve of the system, and
    one where that solve gives way, fills `rows` from the palette and runs
    linalg.eliminate.
    """

    def __init__(self, src, dst: Chart):
        self.src = src
        self.dst = dst
        self.zsel, self.dcols, _ = dst.dst_plan
        self.units = self._unit_columns()
        self.width = len(self.zsel) - len(self.units)  # X starts past these columns
        self.rows, self.coords, self.read, self.nu_one, self.residual = self._compile()

    def _unit_columns(self) -> tuple[tuple[int, int], ...]:
        """Minor columns that are the unit vector e_i at every point: source
        identity columns (zero off row i) holding an unmoved constant 1 or a
        moved odd unit, which resolves to 1.  Pairs (minor column, i) for
        linalg's eliminations."""
        ident = {gcol: (row, odd_unit) for row, gcol, odd_unit in self.src.identity}
        return tuple((j, ident[c][0]) for j, (c, moved) in enumerate(self.zsel)
                     if c in ident and ident[c][1] == moved)

    def _compile(self):
        """rows, coords, read, nu_one and residual, from the source pattern,
        the destination's plan and the pair's unit columns.  The first
        source odd unit, by rows, in an unmoved selected column leaves no
        system, only its residual message; a moved odd unit resolves to 1,
        so it only occurs in a unit column."""
        unit_cols = {j for j, _ in self.units}
        unit_rows = self.src.nu_unit_rows
        coords = []

        def entry(cell, moved):
            kind = cell[0]
            if kind == "zero":
                return 0
            if kind == "one":
                return 2 if moved else 1
            coords.append((cell[1], cell[2] != moved))
            return len(coords) + 2

        rows = []
        for i, row in enumerate(self.src.pattern):
            zrow = []
            for j, (c, moved) in enumerate(self.zsel):
                if row[c][0] == "nu1" and not moved:
                    return (), (), (), False, f"odd unit column {c} selected but not moved"
                if j not in unit_cols:
                    zrow.append(entry(row[c], moved))
            # a twisted column is e_u: slot 1 (one) in row u, slot 0 elsewhere
            rows.append(tuple(zrow) + tuple(int(i == unit_rows[c]) if c in unit_rows
                                            else entry(row[c], False) for c in self.dcols))
        read = tuple((row, t, name, marked != (self.dcols[t] in unit_rows))
                     for row, t, name, marked in self.dst.dst_plan[2])
        return tuple(rows), tuple(coords), read, any(2 in row for row in rows), None

    def palette(self, values: dict, one) -> list:
        pal = [one.ring_zero(), one, one.nu() if self.nu_one else None]
        pal += [values[name].nu() if flag else values[name] for name, flag in self.coords]
        return pal

    @cached_property
    def status(self) -> str:
        """Structural evaluability of this direction at generic points.

        'ok'       the minor is body-invertible at generic points;
        'residual' a source odd unit lands in an unmoved selected column;
        'singular' the minor's body determinant vanishes identically
                   (e.g. a moved identity column, whose body the involution
                   kills), so no point of the source chart can hop this way.

        The hop decides it itself: the minor of its own pasting system is
        solved on the bodies of a generic point, over one indeterminate per
        source coordinate.  1 has body 1 and nu(1) body 0; a coordinate
        slot (name, apply nu) has body `name` where nu is applied to an odd
        coordinate or not applied to an even one, else 0.  Taking bodies
        is a ring morphism that commutes with the elimination, so the solve
        fails exactly where no point of the source chart can hop.
        """
        return self._classify()

    def _classify(self) -> str:
        if self.residual is not None:
            return "residual"
        src = self.src
        ctx = GeneratorContext(src.coords, ())
        zero, one = FlatFraction(ctx, {}), FlatFraction(ctx, {flat_key(ctx): 1})
        body = [zero, one, zero] + [
            FlatFraction.gen(ctx, name) if (src.coord_parity[name] == ODD) == flag else zero
            for name, flag in self.coords]
        try:
            self.body_pivots = tuple(ring_solve(
                _rows([row[:self.width] for row in self.rows], body), self.units))
        except NotInvertible:
            return "singular"
        return "ok"

    @cached_property
    def _hop(self):
        """The generated solve of this pair's system over Lambda_r and how to
        feed it: (bind, coordinate names, nu flags, read-offs), or None for
        a plain source and for a pair whose status is not 'ok'.

        The rows go in the order of the status's body solve: the pivot row
        of each eliminated column, then the unit rows.  Each entry reduces
        to its kind (linalg.shape_solver): 0, 1, nu(1), or e / o for a
        coordinate slot whose value is even / odd, the coordinate's parity
        flipped where nu is applied.  Plans of one shape share one
        generated function; the plan keeps what the shape leaves out, the
        coordinate of each input in row order with its nu flag.  A read-off
        (name, nu flag, output) takes the numerators and the denominator of
        that entry of Y, which the solve returns in lowest terms."""
        if not isinstance(self.src, Chart) or self.status != "ok":
            return None
        pivot, units = self.body_pivots, {j for j, _ in self.units}
        order = [pivot[j] for j in range(len(self.zsel)) if j not in units]
        order += [i for i in range(len(self.rows)) if i not in order]
        rows = [self.rows[i] for i in order]
        odd = {name: (self.src.coord_parity[name] == ODD) != flag for name, flag in self.coords}

        def kind(k):
            return "01n"[k] if k < 3 else "eo"[odd[self.coords[k - 3][0]]]

        inputs = [self.coords[k - 3] for row in rows for k in row if k > 2]
        at, ny = {i: pos for pos, i in enumerate(order)}, len(self.dcols)
        read = tuple((name, flag, at[pivot[row]] * ny + t) for row, t, name, flag in self.read)
        return (shape_solver(tuple("".join(map(kind, row)) for row in rows), self.width),
                tuple(name for name, _ in inputs), tuple(flag for _, flag in inputs), read)

    def transition(self, values: dict) -> dict:
        """Destination coordinates of the source point with these coordinate
        values, from any ring with an involution (a chart ring, Lambda_r);
        0 and 1 come from the values' own ring.  One exact solve of the
        pasting system.  Over Lambda_r, r >= 1, a chart pair whose status
        is 'ok' runs its generated solve (_hop_transition).  Everywhere
        else, and where that gives way, the rows are filled from the
        palette of the values themselves and linalg.eliminate solves them:
        on integer numerator rows over Lambda_r (Lambda_0 and plain sources
        included), through ring_solve over a chart ring; the read-off
        applies nu where it is flagged.  Raises ResidualNuSymbol where the
        pair has no system, NotInvertible where the minor is singular, and
        NoOddGenerators where Lambda_0 would need nu."""
        if self.residual is not None:
            raise ResidualNuSymbol(self.residual)
        proto = next(iter(values.values()), None)
        if proto is None:  # no coordinates: the atlas is one chart, the hop the identity
            return {}
        if isinstance(proto, GrassmannNumber) and proto.r and self._hop:
            out = self._hop_transition(values, proto.r)
            if out is not None:
                return out
        M = _rows(self.rows, self.palette(values, proto.ring_one()))
        pivot = eliminate(M, self.units)
        out = {}
        for row, t, name, flag in self.read:
            v = M[pivot[row]][self.width + t]
            out[name] = v.nu() if flag else v
        return out

    def _hop_transition(self, values: dict, r: int) -> dict | None:
        """transition over Lambda_r, r >= 1, through the pair's generated
        solve: nu applied to the inputs and, as a slot permutation of the
        numerator tuple, to the flagged read-offs.  The solve returns each
        output in lowest terms, so each value is built by superalgebra._gn
        alone, with no reduction and no GrassmannNumber arithmetic.  None
        where an input has a slot of the wrong parity or a fixed pivot has a
        zero body at this point; then transition solves from scratch
        through linalg.eliminate, which picks another pivot or raises."""
        bind, names, flags, read = self._hop
        nu = _layout(r).nu
        vs = list(map(values.__getitem__, names))
        solved = bind(r)([nu(v.num) if flag else v.num for v, flag in zip(vs, flags)],
                         [v.den for v in vs])
        if solved is None:
            return None
        nums, dens = solved
        gn = superalgebra._gn  # looked up at each call, so a spy on it sees these values
        return {name: gn(r, nu(nums[at]) if flag else nums[at], dens[at])
                for name, flag, at in read}

    @cached_property
    def symbolic(self) -> "TransitionMap | GenericallySingular | ResidualNuSymbol":
        """The pasting map between the chart rings, solved on FlatFractions,
        or its typed failure kept unraised; transition_symbolic raises a
        fresh copy of the failure.  Every caller shares the map, so its
        values hold their terms in read-only views."""
        src, dst = self.src, self.dst
        try:
            values = self.transition({name: FlatFraction.gen(src.ctx, name)
                                      for name in src.coords})
        except NotInvertible as exc:
            return GenericallySingular(str(exc))
        except ResidualNuSymbol as exc:
            return ResidualNuSymbol(*exc.args)
        return TransitionMap(src, dst, MappingProxyType({
            name: _ff(v.ctx, MappingProxyType(v.num), MappingProxyType(v.den))
            for name, v in values.items()}))

    @cached_property
    def nu_equivariant(self) -> bool | None:
        """Whether the symbolic map t intertwines the two charts'
        involutions, t*(nu(g)) = nu(t*(g)) for every destination coordinate
        g; None where the pair has no symbolic map, or no odd coordinate
        for the involution to act on."""
        t = self.symbolic
        if not self.src.odd_coords or not isinstance(t, TransitionMap):
            return None
        return all(apply_pullback(t, FlatFraction.gen(t.dst.ctx, g).nu()) == v.nu()
                   for g, v in t.values.items())


def pair_defined(src: Chart, dst: Chart) -> bool:
    """A chart pair supports a pointwise round trip if at least one of the
    two directions is generically evaluable.  Hop statuses are symmetric on
    every tested atlas, so then both are; a one-sided pair would make the
    round trip raise a typed error (ResidualNuSymbol, or OverlapNotSampled
    for a singular direction), never skip it silently."""
    return _get_plan(src, dst).status == "ok" or _get_plan(dst, src).status == "ok"


@dataclass
class GrassPoint:
    """A Lambda_r-valued point of one chart: a parity-respecting assignment."""

    chart: Chart
    r: int
    values: dict[str, GrassmannNumber]

    def __post_init__(self):
        missing = [name for name in self.chart.coords if name not in self.values]
        unknown = sorted(set(self.values) - set(self.chart.coords))
        if missing or unknown:
            raise ValueError(f"point on {self.chart.index}: missing coordinates "
                             f"{missing}, unknown coordinates {unknown}")
        for name, v in self.values.items():
            if v.r != self.r:
                raise ValueError(f"coordinate {name} is in Lambda_{v.r}, not Lambda_{self.r}")
            want, p = self.chart.coord_parity[name], v.parity()
            if p != want and not v.is_zero():
                raise ValueError(f"coordinate {name} has parity {p}, wants {want}")

    def to_dict(self) -> dict:
        return {
            "chart": {"I": list(self.chart.index.I), "R": list(self.chart.index.R)},
            "r": self.r,
            "coords": {name: self.values[name].to_dict() for name in self.chart.coords},
        }


def _point(chart: Chart, r: int, values: dict[str, GrassmannNumber]) -> GrassPoint:
    """A GrassPoint from values the kernel normalized, which respect parity
    by construction: the parity check runs only on points from outside."""
    p = object.__new__(GrassPoint)
    p.chart, p.r, p.values = chart, r, values
    return p


# ---------------------------------------------------------------------------
# symbolic transitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransitionMap:
    """g*: assigns to each destination coordinate a function on the source,
    as a FlatFraction over the source chart ring.  Read-only down to its
    values' terms, as HopPlan.symbolic shares one map per pair with every
    caller."""

    src: Chart
    dst: Chart
    values: MappingProxyType[str, FlatFraction]

    def is_identity(self) -> bool:
        return all(self.values[name] == FlatFraction.gen(self.src.ctx, name)
                   for name in self.dst.coords)


def transition_symbolic(src: Chart, dst: Chart) -> TransitionMap:
    """The pasting map from the source chart ring into the destination's.

    Standard destinations require a standard source (the reverse direction
    has no closed formula here); non-standard destinations accept any source
    whose odd units resolve under the divider move.  The map is the pair's
    HopPlan.symbolic, built once per process.
    """
    if dst.index.standard and not src.index.standard:
        raise UncoveredCase(
            f"no symbolic formula for non-standard {src.index} -> standard {dst.index}"
        )
    t = _get_plan(src, dst).symbolic
    if not isinstance(t, TransitionMap):
        raise type(t)(*t.args)
    return t


def evaluate_transition(t: TransitionMap, X: GrassPoint) -> GrassPoint:
    """Evaluate a symbolic transition at a point of the source chart: each
    value of the map through FlatFraction.substitute over Lambda_r."""
    one = GrassmannNumber.scalar(X.r, 1)
    return GrassPoint(t.dst, X.r, {name: v.substitute(X.values, one)
                                   for name, v in t.values.items()})


def apply_pullback(t: TransitionMap, f: FlatFraction) -> FlatFraction:
    """The pullback t*(f) of an element of the destination chart ring: the
    ring morphism that sends each destination coordinate to its value under
    the map, through FlatFraction.substitute."""
    if f.ctx != t.dst.ctx:
        raise ValueError("element does not live on the destination chart")
    return f.substitute(t.values, FlatFraction(t.src.ctx, {flat_key(t.src.ctx): 1}))


# ---------------------------------------------------------------------------
# pointwise transitions over Lambda_r
# ---------------------------------------------------------------------------


def point_transition(X: GrassPoint, dst: Chart) -> GrassPoint:
    """Move a Lambda_r point into the destination chart: the pair's compiled
    pasting system, filled straight from the point's coordinate values (the
    involution acting on Lambda_r values), and one solve."""
    src = X.chart
    try:
        values = _get_plan(src, dst).transition(X.values)
    except NotInvertible as exc:
        raise MinorNotInvertible(f"{src.index} -> {dst.index}: {exc}") from exc
    return _point(dst, X.r, values)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_point(chart: Chart, r: int, rng: random.Random) -> GrassPoint:
    """A random point of the chart; lambda_sample draws each value with its
    coordinate's parity, so the point skips the parity check."""
    values = {
        name: lambda_sample(r, chart.coord_parity[name], rng) for name in chart.coords
    }
    return _point(chart, r, values)


# ---------------------------------------------------------------------------
# cocycle verification
# ---------------------------------------------------------------------------


def _cycle_check(result: CheckResult, charts: list[Chart], r: int, samples: int,
                 rng: random.Random) -> CheckResult:
    """Record into result `samples` round trips through a cycle of charts;
    the first entry is start and end, so a pair [a, b] is a round trip."""
    start = charts[0]

    def attempt():
        X = Y = sample_point(start, r, rng)
        for c in charts[1:] + [start]:
            Y = point_transition(Y, c)
        return Y == X, lambda: {"start": X.to_dict(), "returned": Y.to_dict()}

    what = "the common overlap of " + ", ".join(str(c.index) for c in charts)
    for _ in range(samples):
        result.record(*first_defined(attempt, MinorNotInvertible, what))
    return result


def verify_cocycle(k: int, l: int, m: int, n: int, r: int = 2, samples: int = 100,
                   seed: int = 0, audit_nu_triples: int = 0):
    """Check the three pasting identities on one atlas.

    Identity transitions (every chart) and the nu-equivariance audit (every
    pair with a symbolic map, on atlases with an odd coordinate; a note
    stands in for it on the others) are facts of a chart pair, not of a
    sample: they are read from the pair's HopPlan, computed once per
    process.  Pair round trips run pointwise over Lambda_r on every ordered
    pair with at least one generically evaluable direction; pairs with none
    are reported as undefined (their overlap never meets the refined
    cover).  Triple
    cycles run on ordered triples of distinct standard charts, where the
    composite stays inside plain rational algebra; cycles through
    non-standard charts do not close exactly under the concrete involution
    and can be sampled separately as a non-gating audit via audit_nu_triples.
    """
    check_count("r", r, 0)
    check_count("samples", samples)
    check_count("audit_nu_triples", audit_nu_triples, 0)
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

    pairs = list(itertools.permutations(atlas.charts, 2))
    for a, b in pairs:
        result = CheckResult("pair-round-trip", f"{a.index} <-> {b.index}")
        if pair_defined(a, b):
            _cycle_check(result, [a, b], r, samples, rng)
        else:
            result.note = "undefined: both directions structurally singular"
        report.results.append(result)

    if pairs and not atlas.charts[0].odd_coords:
        report.notes.append("no odd coordinate: the nu-equivariance audit does not apply")
    for a, b in pairs:
        if b.index.standard and not a.index.standard:
            continue
        clean = _get_plan(a, b).nu_equivariant
        if clean is not None:
            report.results.append(CheckResult(
                "nu-equivariance-audit", f"{a.index} -> {b.index}", 1, int(clean), int(not clean),
                note="pullback intertwines the involutions" if clean
                else "pullback does not intertwine the involutions",
                gating=False))

    std = atlas.standard_charts
    triples = list(itertools.permutations(std, 3))
    if not triples:
        report.notes.append(
            "no triple of distinct standard charts at this size; triple check vacuous"
        )
    for a, b, c in triples:
        inst = f"{a.index} -> {c.index} -> {b.index} -> {a.index}"
        report.results.append(
            _cycle_check(CheckResult("triple-cycle", inst), [a, c, b], r, samples, rng)
        )

    nu_triples = [(a, mid, b) for mid in atlas.charts if not mid.index.standard
                  for a, b in itertools.permutations(std, 2)][:audit_nu_triples]
    for a, mid, b in nu_triples:
        inst = f"{a.index} -> {mid.index} -> {b.index} -> {a.index}"
        audit = CheckResult("nu-triple-audit", inst, gating=False)
        blocked = next(((x, y) for x, y in ((a, mid), (mid, b), (b, a))
                        if _get_plan(x, y).status != "ok"), None)
        if blocked:
            x, y = blocked
            audit.note = f"undefined: hop {x.index} -> {y.index} is {_get_plan(x, y).status}"
        else:
            try:
                _cycle_check(audit, [a, mid, b], r, min(samples, 10), rng)
                audit.counterexamples = []  # informational: it keeps no examples
                audit.note = ("cycle through a non-standard chart; "
                              "exactness not implied by the concrete involution")
            except OverlapNotSampled:  # drop the tally of the samples drawn so far
                audit = CheckResult("nu-triple-audit", inst, note="no evaluable samples",
                                    gating=False)
        report.results.append(audit)
    if nu_triples:
        report.notes.append(
            "nu-triple audit is informational: such cycles pick up soul-order "
            "corrections because the involution on Lambda_r is not linear over "
            "the even part"
        )
    return report
