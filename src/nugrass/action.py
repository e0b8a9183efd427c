"""The right GL(m|n) action on Lambda_r-valued points of the atlas.

A group point (GLPoint) is an invertible even m|n x m|n supermatrix over
Lambda_r: the Lambda_r case of supermatrix.SuperMatrix, whose constructor
checks shape, ring and block parity and GLPoint's invertibility.
Acting on a chart point X means multiplying its realized matrix by the
group matrix on the right and re-normalizing into some chart of the refined
cover: the first chart (standard charts first) whose adjusted minor is
body-invertible, through each candidate's Chart.plain_plan.
Well-definedness across chart choices is what verify_action_gluing
samples, not an assumption.
"""

from __future__ import annotations

import random

from .errors import (
    MinorNotInvertible,
    NoChartFound,
    NotInvertible,
    NuEntriesPresent,
    RankDeficient,
)
from .superalgebra import EVEN, GrassmannNumber, _exact, _gn, _layout, lambda_sample
from .supermatrix import SuperMatrix, is_nu, matmul
from .linalg import inverse, rref, solve
from .atlas import (
    Atlas,
    Chart,
    GrassPoint,
    _cells,
    _point,
    get_atlas,
    point_transition,
    sample_point,
)
from .reports import CheckResult, Report, check_count, first_defined


class GLPoint(SuperMatrix):
    """An invertible even m|n x m|n supermatrix over Lambda_r: the Lambda_r
    case of SuperMatrix, whose splits give m|n and whose proto gives r."""

    __slots__ = ()

    def __init__(self, m: int, n: int, r: int, entries):
        super().__init__((m, n), (m, n), entries, GrassmannNumber(r, {}))
        if any(is_nu(e) for row in self.entries for e in row):
            raise NuEntriesPresent("a group point has no odd unit")
        inverse(self.entries)  # raises NotInvertible if singular

    @property
    def m(self) -> int:
        return self.row_split[0]

    @property
    def n(self) -> int:
        return self.row_split[1]

    @property
    def r(self) -> int:
        return self.proto.r

    @classmethod
    def identity(cls, m: int, n: int, r: int) -> "GLPoint":
        return super().identity(m, n, GrassmannNumber(r, {}))

    # defined on GLPoint itself: bench/tracer.py wraps vars(GLPoint)["__mul__"]
    def __mul__(self, other: "GLPoint") -> "GLPoint":
        if (self.m, self.n, self.r) != (other.m, other.n, other.r):
            raise ValueError("group context mismatch")
        out = matmul(self.entries, other.entries, self.proto)
        return GLPoint._of(self.row_split, self.col_split, out, self.proto)

    def inv(self) -> "GLPoint":
        return GLPoint._of(self.row_split, self.col_split, inverse(self.entries), self.proto)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "r": self.r,
            "entries": [[e.to_dict() for e in row] for row in self.entries],
        }


def sample_gl(m: int, n: int, r: int, rng: random.Random) -> GLPoint:
    """Random group point built as (unit lower) * diag(units) * (unit upper),
    hence invertible by construction."""
    d = m + n
    layout = _layout(r)

    def entry(parity):
        # int numerators over 1, drawn in ascending mask order
        num = list(layout.zero)
        for mask in layout.by_parity[parity]:
            num[mask] = rng.randint(-2, 2)
        return _gn(r, tuple(num), 1)

    def unit_triangular(upper: bool):
        U = GLPoint.identity(m, n, r)
        for i in range(d):
            for j in range(i + 1, d) if upper else range(i):
                U.entries[i][j] = entry((i >= m) ^ (j >= m))
        return U

    diag = GLPoint.identity(m, n, r)
    for i in range(d):
        diag.entries[i][i] = lambda_sample(r, EVEN, rng, lo=-2, hi=2)
    return unit_triangular(False) * diag * unit_triangular(True)


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------


def _acted_matrix(X: GrassPoint, P: GLPoint):
    """W = [X] P, with the odd-unit rule resolving left factors."""
    chart = X.chart
    if (chart.index.m, chart.index.n) != (P.m, P.n) or X.r != P.r:
        raise ValueError("group context mismatch")
    return matmul(chart.realize(X.values, X.r), P.entries, P.proto)


def grass_point_from_matrix(W, atlas: Atlas, r: int, target: Chart | None = None) -> GrassPoint:
    """Normalize a plain k|l x m|n matrix over Lambda_r into a chart point:
    its entries, keyed once, fill each candidate chart's plain pasting
    system (Chart.plain_plan)."""
    cells = _cells(W)
    candidates = [target] if target is not None else atlas.act_order
    for dst in candidates:
        try:
            values = dst.plain_plan.transition(cells)
        except NotInvertible:
            if target is not None:
                raise MinorNotInvertible(f"minor for {dst.index} is singular here")
            continue
        return _point(dst, r, values)
    raise NoChartFound("no chart admits this matrix")


def act(X: GrassPoint, P: GLPoint, target: Chart | None = None) -> GrassPoint:
    """Right action: normalize [X] P into a chart of the refined cover."""
    idx = X.chart.index
    atlas = get_atlas(idx.k, idx.l, idx.m, idx.n)
    W = _acted_matrix(X, P)
    return grass_point_from_matrix(W, atlas, X.r, target)


# ---------------------------------------------------------------------------
# the base point of the transitivity argument
# ---------------------------------------------------------------------------


class BasePoint:
    """A reduced point: full-row-rank rational matrices p1 (k x m), p2 (l x n).

    Pass m or n explicitly when the corresponding block has no rows.
    """

    def __init__(self, p1, p2, m: int | None = None, n: int | None = None):
        self.p1 = [[_exact(e) for e in row] for row in p1]
        self.p2 = [[_exact(e) for e in row] for row in p2]
        self._m = len(self.p1[0]) if self.p1 else m
        self._n = len(self.p2[0]) if self.p2 else n
        if self._m is None or self._n is None:
            raise ValueError("pass m and n explicitly for empty blocks")
        for name, rows in (("p1", self.p1), ("p2", self.p2)):
            if len({len(row) for row in rows}) > 1:
                raise ValueError(f"{name} has rows of unequal width")
        for name, rows, width in (("p1", self.p1, self._m), ("p2", self.p2, self._n)):
            if len(rref(rows, width)[1]) != len(rows):
                raise RankDeficient(f"{name} is not of full row rank")

    @property
    def k(self) -> int:
        return len(self.p1)

    @property
    def l(self) -> int:
        return len(self.p2)

    @property
    def m(self) -> int:
        return self._m

    @property
    def n(self) -> int:
        return self._n

    def matrix(self, r: int):
        """p-hat as a plain k|l x m|n matrix over Lambda_r."""
        k, l, m, n = self.k, self.l, self.m, self.n
        zero = GrassmannNumber(r, {})
        W = [[zero] * (m + n) for _ in range(k + l)]
        for i in range(k):
            for j in range(m):
                W[i][j] = GrassmannNumber.scalar(r, self.p1[i][j])
        for i in range(l):
            for j in range(n):
                W[k + i][m + j] = GrassmannNumber.scalar(r, self.p2[i][j])
        return W

    def as_point(self, r: int) -> GrassPoint:
        atlas = get_atlas(self.k, self.l, self.m, self.n)
        return grass_point_from_matrix(self.matrix(r), atlas, r)


def _completed(rows, width: int):
    """The independent rational rows followed by the standard basis rows
    that complete them to an invertible matrix."""
    pivots = rref(rows, width)[1]
    if len(pivots) != len(rows):
        raise RankDeficient("rows are not independent")
    return list(rows) + [[int(j == c) for j in range(width)]
                         for c in range(width) if c not in pivots]


def transitivity_witness(W: GrassPoint, p: BasePoint) -> GLPoint:
    """A group point V with  p-hat V = [W]  exactly: complete the base
    blocks and the bodies of the even blocks of [W] to invertible matrices,
    then solve  blockdiag(P1, P2) V = [W] completed."""
    chart = W.chart
    if not chart.index.standard:
        raise ValueError("witness construction expects the target in a standard chart")
    k, l, m, n = chart.index.k, chart.index.l, chart.index.m, chart.index.n
    if (p.k, p.l, p.m, p.n) != (k, l, m, n):
        raise ValueError("base point has the wrong shape")
    r = W.r
    zero = GrassmannNumber(r, {})
    Wmat = chart.realize(W.values, r)
    lift = lambda rows: [[GrassmannNumber.scalar(r, q) for q in row] for row in rows]

    # blockdiag(P1, P2): each base block completed by basis rows
    P = [row + [zero] * n for row in lift(_completed(p.p1, m))]
    P += [[zero] * m + row for row in lift(_completed(p.p2, n))]
    # [W] with its even blocks completed by basis rows on their bodies;
    # the soul rows stay intact
    top, bottom = Wmat[:k], Wmat[k:]
    A_compl = _completed([[e.body() for e in row[:m]] for row in top], m)[k:]
    D_compl = _completed([[e.body() for e in row[m:]] for row in bottom], n)[l:]
    T = top + [row + [zero] * n for row in lift(A_compl)]
    T += bottom + [[zero] * m + row for row in lift(D_compl)]
    V = GLPoint(m, n, r, solve(P, T))  # validates parity and invertibility

    # exact post-checks: the matrix equation and the acted point
    if matmul(p.matrix(r), V.entries, zero) != Wmat:
        raise RankDeficient("witness post-check failed on the matrix equation")
    base = p.as_point(r)
    if act(base, V, target=chart) != W:
        raise RankDeficient("witness post-check failed on the acted point")
    return V


def stabilizer_membership(P: GLPoint, p: BasePoint) -> bool:
    """True iff the group point fixes the base point exactly."""
    if (p.m, p.n) != (P.m, P.n):
        raise ValueError("base point and group point have mismatched shapes")
    base = p.as_point(P.r)
    try:
        moved = act(base, P)
        back = moved if moved.chart == base.chart else point_transition(moved, base.chart)
    except (MinorNotInvertible, NoChartFound, NotInvertible):
        return False
    return back == base


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


# a sampled instance outside the domain of a hop or of the action
_UNDEFINED = (MinorNotInvertible, NotInvertible)


def _sample_standard_point(atlas: Atlas, r: int, rng: random.Random) -> GrassPoint:
    chart = rng.choice(atlas.standard_charts)
    return sample_point(chart, r, rng)


def verify_action_gluing(k: int, l: int, m: int, n: int, r: int = 2,
                         samples: int = 100, seed: int = 0) -> Report:
    """Sample the commuting square: transition after action equals action
    after transition, both equal to the direct normalization, on quadruples
    of standard charts."""
    check_count("r", r, 0)
    check_count("samples", samples)
    atlas = get_atlas(k, l, m, n)
    rng = random.Random(seed)
    std = atlas.standard_charts
    report = Report(
        suite="action-gluing",
        config={"k": k, "l": l, "m": m, "n": n, "r": r, "samples": samples, "seed": seed},
    )
    result = CheckResult("gluing-square", f"standard quadruples of {k}|{l}({m}|{n})")
    quadruples = set()

    def gluing():
        X = _sample_standard_point(atlas, r, rng)
        P = sample_gl(m, n, r, rng)
        J, K, H = (rng.choice(std) for _ in range(3))
        via_J = point_transition(act(X, P, target=J), H)
        via_K = act(point_transition(X, K), P, target=H)
        direct = act(X, P, target=H)
        quadruple = (X.chart.index, J.index, K.index, H.index)
        quadruples.add(quadruple)
        return via_J == via_K == direct, lambda: {
            "X": X.to_dict(), "P": P.to_dict(), "quadruple": [str(i) for i in quadruple]}

    for _ in range(samples):
        result.record(*first_defined(gluing, _UNDEFINED, "a defined gluing instance"))
    result.note = f"{len(quadruples)} distinct quadruples exercised"
    report.results.append(result)
    return report


def verify_action_axioms(k: int, l: int, m: int, n: int, r: int = 2,
                         samples: int = 100, seed: int = 0) -> Report:
    """Unit, associativity against group multiplication, and inverse
    compatibility, all exact at sampled points."""
    check_count("r", r, 0)
    check_count("samples", samples)
    atlas = get_atlas(k, l, m, n)
    rng = random.Random(seed)
    report = Report(
        suite="action-axioms",
        config={"k": k, "l": l, "m": m, "n": n, "r": r, "samples": samples, "seed": seed},
    )
    ident = GLPoint.identity(m, n, r)
    unit, assoc, inv = (CheckResult(f"axiom-{key}", f"{k}|{l}({m}|{n})")
                        for key in ("unit", "associativity", "inverse"))

    def associativity():
        X = _sample_standard_point(atlas, r, rng)
        P1 = sample_gl(m, n, r, rng)
        P2 = sample_gl(m, n, r, rng)
        lhs = act(act(X, P1), P2)
        rhs = act(X, P1 * P2)
        rhs_t = rhs if rhs.chart == lhs.chart else point_transition(rhs, lhs.chart)
        return lhs == rhs_t, lambda: {"X": X.to_dict(), "P1": P1.to_dict(),
                                      "P2": P2.to_dict()}

    def inverse_law():
        X = _sample_standard_point(atlas, r, rng)
        P = sample_gl(m, n, r, rng)
        Y = act(act(X, P), P.inv())
        Y_t = Y if Y.chart == X.chart else point_transition(Y, X.chart)
        return Y_t == X, lambda: {"X": X.to_dict(), "P": P.to_dict()}

    for _ in range(samples):
        X = _sample_standard_point(atlas, r, rng)
        unit.record(act(X, ident, target=X.chart) == X, lambda: {"X": X.to_dict()})
        assoc.record(*first_defined(associativity, _UNDEFINED,
                                    "a defined associativity instance"))
        inv.record(*first_defined(inverse_law, _UNDEFINED, "a defined inverse instance"))
    report.results += [unit, assoc, inv]
    return report


def verify_transitivity(k: int, l: int, m: int, n: int, r: int, count: int = 50,
                        seed: int = 0, base: BasePoint | None = None) -> Report:
    """Construct and post-check a witness for `count` random chart points."""
    check_count("r", r, 0)
    check_count("count", count)
    atlas = get_atlas(k, l, m, n)
    rng = random.Random(seed)
    if base is None:
        base = BasePoint(
            [[1 if j == i else 0 for j in range(m)] for i in range(k)],
            [[1 if j == i else 0 for j in range(n)] for i in range(l)],
            m=m, n=n,
        )
    elif (base.k, base.l, base.m, base.n) != (k, l, m, n):
        raise ValueError(f"base point is {base.k}|{base.l}({base.m}|{base.n}), "
                         f"the atlas {k}|{l}({m}|{n})")
    report = Report(
        suite="transitivity",
        config={"k": k, "l": l, "m": m, "n": n, "r": r, "count": count, "seed": seed},
    )
    result = CheckResult("witness", f"{k}|{l}({m}|{n}) over Lambda_{r}")
    for _ in range(count):
        W = _sample_standard_point(atlas, r, rng)
        try:
            transitivity_witness(W, base)
            result.record(True, None)
        except (RankDeficient, NotInvertible, ValueError) as exc:
            result.record(False, lambda: {"W": W.to_dict(), "error": str(exc)})
    report.results.append(result)
    return report
