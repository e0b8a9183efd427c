"""The exact linear algebra of the kernel: rref over QQ and solve.

* rref works over QQ, on ints and Fractions: its entries enter through
  superalgebra._exact, and a row stays on ints while its pivots are +-1.
  It is rank-revealing: a column without a nonzero
  entry below the rows already used is skipped, not an error.  The rank
  checks, the basis completion of the transitivity witness, the commutant's
  nullspace, span membership and the inverse-transition system use it.
* solve solves a square system and raises NotInvertible when the body of
  the matrix is singular.  Every supermatrix inverse and every group
  inverse goes through it, on the full rows [Z | Y].  It runs one of two
  eliminations, which take one row layout (each row of Z without the unit
  columns that the caller names, then the row of Y), eliminate in place,
  pick the same pivots and return the row that holds each column's
  solution:
  - lambda_solve on Lambda_r (GrassmannNumber input): rows of integer
    numerator tuples over one int denominator each, fused product-kernel
    steps and no GrassmannNumber until the solution.
  - ring_solve on any other ring, through the ring's own has_body(),
    inv(), is_zero() and add_product().  In the library it sees only
    superalgebra.FlatFraction: the chart rings of the symbolic maps and the
    ring of bodies of a generic point (no odd generator) of the plan
    statuses, with cleared denominators and no gcd.  The tests also run it
    on SuperFunction (the canonical chart-ring oracle of those solves) and
    on Lambda_r as lambda_solve's oracle.
  A chart normalization fills the rows of its pair's compiled pasting
  system (atlas.HopPlan.rows) in that layout and calls one of them
  directly.
* shape_solver is lambda_solve for one shape of system (where its
  entries are 0, 1, nu(1) or a coordinate, and which row pivots on which
  column), generated once per process as straight-line code.  The
  Lambda_r hop between two charts, r >= 1, runs it in the pivot order of
  the pair's body solve; where one of those pivots has a zero body at the
  point it gives way, and lambda_solve solves the system from scratch.

The two kinds stay apart on purpose: rref skips columns and reports the
rank, solve must find a pivot in every column.

The one matrix product, with the odd-unit rule, is supermatrix.matmul.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from . import superalgebra
from .errors import NotInvertible
from .superalgebra import GrassmannNumber, _exact, _inverse_num, _layout, _reduced


def rref(rows, ncols: int):
    """Reduced row echelon form of a matrix of exact rationals on its first
    ncols columns.

    Columns past ncols (an augmented block) are carried along but never
    pivoted on.  Returns (reduced rows, pivot columns); the rows past the
    rank vanish on the first ncols columns.  Entries come back as ints or
    Fractions.
    """
    M = [[_exact(e) for e in row] for row in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        for piv in range(rank, len(M)):
            if M[piv][c]:
                break
        else:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = _exact(1 / Fraction(M[rank][c]))
        prow = M[rank] = [e * inv for e in M[rank]]
        for i, row in enumerate(M):
            f = row[c]
            if i != rank and f:
                M[i] = [e - f * p for e, p in zip(row, prow)]
        pivots.append(c)
    return M, pivots


def solve(Z, Y):
    """Exact solution X of  Z X = Y  with Z square, as nested lists.

    Gauss-Jordan on the augmented rows [Z | Y], taking in each column the
    first unused row whose entry has a nonzero body.  Raises NotInvertible
    exactly when the body of Z is singular, whatever the pivot order.

    Lambda_r input is eliminated on integer rows (lambda_solve), any other
    ring by ring_solve.  Both take the same pivots and give the same X.
    atlas.HopPlan, which knows the unit columns of its systems, calls the
    two eliminations itself, on rows without those columns.
    """
    M = [list(zrow) + list(yrow) for zrow, yrow in zip(Z, Y)]
    w = len(Z)
    if not (Z and isinstance(Z[0][0], GrassmannNumber)):
        return [M[i][w:] for i in ring_solve(M)]
    r = Z[0][0].r
    dens = [lcm(*[e.den for e in row]) for row in M]
    M = [[e.num if e.den == den else tuple([den // e.den * c for c in e.num]) for e in row]
         for row, den in zip(M, dens)]
    return [[_reduced(r, num, dens[i]) for num in M[i][w:]]
            for i in lambda_solve(r, M, dens)]


@lru_cache(maxsize=None)
def _pivot_plan(n: int, units: tuple) -> tuple:
    """For an n x n system with these unit columns: the columns to
    eliminate, the rows free to pivot on, and the pivot row of each column
    (its unit's row, None where the elimination picks it)."""
    pivot = [None] * n
    for j, i in units:
        pivot[j] = i
    return (tuple(j for j in range(n) if pivot[j] is None),
            tuple(i for i in range(n) if i not in pivot), tuple(pivot))


def lambda_solve(r: int, M, dens, units=()) -> list[int]:
    """solve on Lambda_r, in place on integer rows: row i of the system is
    the numerator tuples M[i] over the int dens[i] > 0, M[i] holding the
    columns of Z that `units` does not name, in order, and then Y.

    The pivot row of a column is multiplied by h / e, the inverse of its
    pivot numerator from _inverse_num, which drops the row's own
    denominator; each other row i with a nonzero entry f in that column
    becomes  e * row_i - f * pivot row  over  e * dens[i], one fused kernel
    call per entry and no reduction.  Returns, for each column j of Z, the
    row i that holds X[j]: M[i] past the eliminated columns over dens[i],
    unreduced.

    Its callers: solve on Lambda_r (every supermatrix and group inverse),
    and atlas.HopPlan's general Lambda_r hop, which serves the plain
    sources of act, Lambda_0 and the points where a chart pair's generated
    solve (shape_solver) gives way.
    """
    cols, free, pivot = _pivot_plan(len(M), tuple(units))
    free, pivot = list(free), list(pivot)
    width = len(M[0]) if M else 0
    # looked up at each call, so a spy on the kernel sees these products
    kernel = superalgebra._product_kernel(r)
    for t, col in enumerate(cols):
        for piv in free:
            if M[piv][t][0]:
                break
        else:
            raise NotInvertible(f"no body-invertible pivot in column {col}")
        free.remove(piv)
        prow = M[piv]
        h, e = _inverse_num(r, prow[t])
        live = []  # the columns where the pivot row is nonzero
        for j in range(t + 1, width):
            if any(prow[j]):
                prow[j] = kernel(h, prow[j])
                live.append(j)
        dens[piv] = e
        for i, row in enumerate(M):
            f = row[t]
            if i == piv or not any(f):
                continue
            if e != 1:
                dens[i] *= e
                for j in range(t + 1, width):
                    row[j] = tuple([e * c for c in row[j]])
            for j in live:
                row[j] = kernel(f, prow[j], row[j], -1)
        pivot[col] = piv
    return pivot


@lru_cache(maxsize=None)
def shape_solver(kinds: tuple[str, ...], width: int):
    """lambda_solve for one shape of system, as straight-line code generated
    once per process: returns bind, and bind(r), made once per r, is
    solve(a, d), which eliminates one system of that shape over Lambda_r.

    kinds[i] spells row i in the row layout of lambda_solve, one letter per
    entry: 0, 1, n for nu(1), c for a coordinate.  The rows are ordered so
    that row t is the pivot row of column t < width, the pivots that the
    body solve of the system picked; the rows past width are unit rows.  a
    and d are the numerator tuples and int denominators of the coordinate
    entries, row by row.  Each row goes over the lcm of its denominators,
    its constants scaled to it, and the columns are eliminated in the fixed
    pivot order by lambda_solve's steps: zero entries are known here, with
    their fill-in, and cost nothing.  Where a pivot has a zero body, solve
    returns None, since lambda_solve might pick another row or raise;
    otherwise it returns, row by row, the numerators of Y and the row's
    denominator, unreduced.  The product kernel is looked up at each solve,
    as lambda_solve looks it up, so a spy on it sees these products.
    """
    nrows, ncols = len(kinds), len(kinds[0])
    lines, E, den, coord = [], [], [], 0
    for i, row in enumerate(kinds):
        ks = range(coord, coord + row.count("c"))
        coord = ks.stop
        den.append(f"D{i}" if ks else "")
        names = iter(f"a{k}" for k in ks)
        E.append([None if ch == "0" else next(names) if ch == "c"
                  else (f"u{i}" if ks else "one") if ch == "1" else (f"v{i}" if ks else "nuone")
                  for ch in row])
        if not ks:
            continue
        lines.append(f"D{i} = " + (f"d{ks[0]}" if len(ks) == 1
                                   else f"lcm({', '.join(f'd{k}' for k in ks)})"))
        scaled = [f"a{k} = a{k} if d{k} == D{i} else tuple([D{i} // d{k} * c for c in a{k}])"
                  for k in ks if len(ks) > 1]
        for ch, name, const in (("1", "u", "one"), ("n", "v", "nuone")):
            if ch in row:
                lines.append(f"{name}{i} = {const}")
                scaled.append(f"{name}{i} = tuple([D{i} * c for c in {const}])")
        if scaled:
            lines += [f"if D{i} != 1:"] + [f"    {s}" for s in scaled]
    for t in range(width):
        p = E[t][t]
        lines += [f"if not {p}[0]:", "    return None", f"h, e{t} = inverse(r, {p})"]
        for j in range(t + 1, ncols):
            if E[t][j]:
                lines.append(f"p{t}_{j} = kernel(h, {E[t][j]})")
                E[t][j] = f"p{t}_{j}"
        den[t] = f"e{t}"
        for i in range(nrows):
            f = E[i][t]
            if i == t or not f:
                continue
            for j in range(t + 1, ncols):
                pj, x = E[t][j], E[i][j]
                if not (pj or x):
                    continue
                scaled = x and f"tuple([e{t} * c for c in {x}])"
                E[i][j] = f"x{i}_{j}_{t}"
                lines.append(f"{E[i][j]} = " + (scaled if not pj else
                                                 f"kernel({f}, {pj}, {scaled or 'zero'}, -1)"))
            den[i] = f"{den[i]} * e{t}" if den[i] else f"e{t}"
    out = "".join(f"{E[i][j] or 'zero'}, " for i in range(nrows) for j in range(width, ncols))
    lines.append(f"return ({out}), ({''.join(f'{d or 1}, ' for d in den)})")
    head = ["def bind(r):",
            "    zero, one = _layout(r).zero, _layout(r).one",
            "    nuone = _layout(r).nu(one)",
            "    def solve(a, d):",
            "        kernel = superalgebra._product_kernel(r)",
            f"        {''.join(f'a{k}, ' for k in range(coord))}= a",
            f"        {''.join(f'd{k}, ' for k in range(coord))}= d"]
    scope = {"lcm": lcm, "inverse": _inverse_num, "_layout": _layout, "superalgebra": superalgebra}
    exec("\n".join(head + [f"        {line}" for line in lines] + ["    return solve"]), scope)
    return lru_cache(maxsize=None)(scope["bind"])


def ring_solve(M, units=()) -> list[int]:
    """solve over any ring whose elements offer has_body(), inv(),
    is_zero() and the fused step x.add_product(a, b, sign) = x + sign*a*b:
    the elimination of the chart rings, and the tests' oracle for
    lambda_solve.  It runs in place on the rows lambda_solve takes, the
    columns of Z that `units` does not name and then Y, and returns, as
    lambda_solve does, the row that holds X[j] past the eliminated columns
    for each column j of Z; the unit columns stay untouched because their
    other entries are zero."""
    cols, free, pivot = _pivot_plan(len(M), tuple(units))
    free, pivot = list(free), list(pivot)
    width = len(M[0]) if M else 0
    for t, col in enumerate(cols):
        for piv in free:
            if M[piv][t].has_body():
                break
        else:
            raise NotInvertible(f"no body-invertible pivot in column {col}")
        free.remove(piv)
        prow = M[piv]
        pinv = prow[t].inv()
        for j in range(t + 1, width):
            if not prow[j].is_zero():
                prow[j] = pinv * prow[j]
        for i, row in enumerate(M):
            f = row[t]
            if i == piv or f.is_zero():
                continue
            for j in range(t + 1, width):
                p = prow[j]
                if not p.is_zero():
                    row[j] = row[j].add_product(f, p, -1)
        pivot[col] = piv
    return pivot


def inverse(Z):
    """Exact inverse of a square matrix: the solution of  Z X = 1."""
    if not Z:
        return []
    one, zero = Z[0][0].ring_one(), Z[0][0].ring_zero()
    n = len(Z)
    return solve(Z, [[one if j == i else zero for j in range(n)] for i in range(n)])
