"""The exact linear algebra of the kernel: rref over QQ and solve.

* rref works over QQ, on ints and Fractions: its entries enter through
  superalgebra._exact, and a row stays on ints while its pivots are +-1.
  It is rank-revealing: a column without a nonzero
  entry below the rows already used is skipped, not an error.  The rank
  checks, the basis completion of the transitivity witness, the commutant's
  nullspace, span membership and the inverse-transition system use it.
* solve solves a square system and raises NotInvertible when the body of
  the matrix is singular.  Every supermatrix inverse and every group
  inverse goes through it, on the full rows [Z | Y].
* eliminate is the one general pasting solve: solve runs it, and so does
  every chart normalization that is not a generated solve, on the rows of
  its pair's compiled pasting system (atlas.HopPlan.rows, filled with ring
  values).  It works in place on one row layout (each row of Z without
  the unit columns that the caller names, then the row of Y), returns the
  row that holds each column's solution and leaves ring values there.  It
  runs one of two eliminations, which take that layout and pick the same
  pivots:
  - lambda_solve on Lambda_r (GrassmannNumber input): eliminate converts
    each row once to integer numerator tuples over one int denominator,
    lambda_solve eliminates with fused product-kernel steps and no
    GrassmannNumber, and eliminate reduces each solution cell once.
  - ring_solve on any other ring, through the ring's own has_body(),
    inv(), is_zero() and add_product().  In the library it sees only
    superalgebra.FlatFraction: the chart rings of the symbolic maps and,
    called directly by atlas.HopPlan's status, the ring of bodies of a
    generic point (no odd generator), with cleared denominators and no
    gcd.  The tests also run it on SuperFunction (the canonical chart-ring
    oracle of those solves) and on Lambda_r as lambda_solve's oracle.
* shape_solver is lambda_solve for one shape of system (where its
  entries are 0, 1, nu(1) or an even or odd coordinate, and which row
  pivots on which column), generated once per process and r as
  straight-line code on the scalar slots of the numerator tuples: the
  parity of each entry fixes its live slots, so the other slots and their
  fill-in are never written, and each product is a sum over slot locals
  spelled by superalgebra._slot_sum, the product kernel's writer.  It
  returns each entry of the solution in lowest terms, divided in the
  generated code by the gcd of its denominator and its live slots.  The
  Lambda_r hop between two charts, r >= 1, runs it in the pivot order of
  the pair's body solve; where an input has a slot of the wrong parity or
  one of those pivots has a zero body at the point it gives way, and
  eliminate solves the system from scratch.

The two kinds stay apart on purpose: rref skips columns and reports the
rank, solve must find a pivot in every column.

The one matrix product, with the odd-unit rule, is supermatrix.matmul.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import count
from math import gcd, lcm

from . import superalgebra
from .errors import NotInvertible
from .superalgebra import GrassmannNumber, _exact, _inverse_num, _layout, _reduced, _slot_sum


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

    Gauss-Jordan on the augmented rows [Z | Y] (eliminate), taking in each
    column the first unused row whose entry has a nonzero body.  Raises
    NotInvertible exactly when the body of Z is singular, whatever the
    pivot order.  atlas.HopPlan, which knows the unit columns of its
    systems, calls eliminate itself, on rows without those columns.
    """
    M = [list(zrow) + list(yrow) for zrow, yrow in zip(Z, Y)]
    return [M[i][len(Z):] for i in eliminate(M)]


def eliminate(M, units=()) -> list[int]:
    """Gauss-Jordan in place on the rows of a square system in the layout of
    both eliminations, each row of Z without the unit columns that `units`
    names and then Y.  Returns the pivot row of each column of Z, as they
    do, and leaves ring values in the solution cells, past the eliminated
    columns.

    Lambda_r input (GrassmannNumber) goes to lambda_solve: each row
    converted once to integer numerator tuples over the lcm of its
    denominators, and each solution cell reduced once (_reduced).  Any
    other ring goes to ring_solve.  Both are looked up at each call.
    """
    if not (M and M[0] and isinstance(M[0][0], GrassmannNumber)):
        return ring_solve(M, units)
    r, dens = M[0][0].r, []
    for i, row in enumerate(M):
        den = lcm(*[e.den for e in row])
        M[i] = [e.num if e.den == den else tuple([den // e.den * c for c in e.num])
                for e in row]
        dens.append(den)
    pivot = lambda_solve(r, M, dens, units)
    w = len(M) - len(units)
    for row, den in zip(M, dens):
        row[w:] = [_reduced(r, num, den) for num in row[w:]]
    return pivot


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

    Its one caller is eliminate on Lambda_r: every supermatrix and group
    inverse (through solve), and atlas.HopPlan's general hop, which serves
    the plain sources of act, Lambda_0 and the points where a chart pair's
    generated solve (shape_solver) gives way.
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
    """lambda_solve for one shape of system, as straight-line code on the
    scalar slots of its entries: returns bind, and bind(r), generated once
    per process and r, is solve(a, d), which eliminates one system of that
    shape over Lambda_r.

    kinds[i] spells row i in the row layout of lambda_solve, one letter per
    entry: 0, 1, n for nu(1), e or o for an even or odd coordinate.  The
    rows are ordered so that row t is the pivot row of column t < width,
    the pivots that the body solve of the system picked; the rows past
    width are unit rows.  a and d are the numerator tuples and int
    denominators of the coordinate entries, row by row.

    solve unpacks each tuple into one local per slot.  An entry's parity
    fixes its live slots: slot 0 for 1, slot 1 for nu(1), the slots of its
    letter for a coordinate, and for a product the slots that _slot_sum
    finds terms for.  Only live slots are written, so zero entries, the
    slots of the wrong parity and all their fill-in cost nothing.  Each
    row goes over the lcm of its denominators, its constants scaled to it,
    and the columns are eliminated in the fixed pivot order by
    lambda_solve's steps, each product a sum over slot locals with the
    signs of _slot_sum.  A pivot's inverse is _inverse_num's Horner series,
    unrolled until the powers of its soul have no live slot (r // 2 steps
    for an even soul).  solve returns None where an input has a nonzero
    slot of the wrong parity or a pivot has a zero body, since lambda_solve
    might then pick another row or raise.  Otherwise it returns the
    numerator tuples and the int denominators of the entries of Y, row by
    row, each entry in lowest terms with its denominator > 0: the parity of
    an entry fixes its live slots, so its gcd with the row's denominator
    is taken over those alone and divided out only where it is not 1, and
    an entry with no live slot is 0 over 1.
    """
    return lru_cache(maxsize=None)(partial(_scalar_solve, kinds, width))


def _scalar_solve(kinds: tuple[str, ...], width: int, r: int):
    """shape_solver's solve over Lambda_r, written and compiled.  While its
    source is written, an entry is a dict {live mask: the local that holds
    that slot}, or None where the entry is 0.  Each row's denominator is one
    local q, and each entry of Y leaves as n, p: its slots and q divided by
    g = gcd(q, its live slots) where g != 1, as they are otherwise."""
    size, by_parity = 1 << r, _layout(r).by_parity
    lines, inputs, dead, E, den = [], [], [], [], []
    fresh = count()

    def assign(slots):
        # a new local for each live slot of an entry that is not one already
        names = {m: e if e.isidentifier() else f"w{next(fresh)}" for m, e in slots.items()}
        lines.extend(f"{names[m]} = {e}" for m, e in slots.items() if names[m] != e)
        return names

    def product(x, y):
        return {m: _slot_sum(r, m, x, y)
                for m in sorted({a | b for a in x for b in y if not a & b})}

    def inverse(t, b, soul):
        # h / e{t} = 1 / (b + soul): b - soul over b**2, then one Horner step
        # per live power of the soul, and one sign fix where e{t} may be < 0
        if not soul:
            h, depth = assign({0: "1"}), 0
        else:
            h, depth = assign({0: b, **{m: f"-{v}" for m, v in soul.items()}}), 1
            power = product(soul, soul)
            while power:
                power, depth = assign(power), depth + 1
                sign = "-" if depth & 1 else "+"
                h = assign({m: f"{h[m]}*{b} {sign} {power[m]}" if m in h and m in power
                            else f"{h[m]}*{b}" if m in h else f"{sign}{power[m]}"
                            for m in sorted(h.keys() | power.keys())})
                power = product(power, soul)
        lines.append(f"e{t} = {b} ** {depth + 1}")
        if not depth & 1:
            lines.append(f"if e{t} < 0:")
            lines.extend(f"    {v} = -{v}" for v in (f"e{t}", *h.values()))
        return h

    for i, row in enumerate(kinds):
        D = f"D{i}" if "e" in row or "o" in row else "1"
        coords = {}  # input index: entry
        for ch in row:
            if ch in "eo":
                k = len(inputs)
                inputs.append(f"({''.join(f'a{k}_{m}, ' for m in range(size))})")
                dead += [f"a{k}_{m}" for m in by_parity[ch == "e"]]
                coords[k] = {m: f"a{k}_{m}" for m in by_parity[ch == "o"]}
        ks = iter(coords.values())
        E.append([None if ch == "0" else {0: D} if ch == "1" else {1: D} if ch == "n"
                  else next(ks) for ch in row])
        den.append(D if coords else "")
        if len(coords) == 1:
            lines.append(f"D{i} = d{next(iter(coords))}")
        elif coords:
            lines += [f"D{i} = lcm({', '.join(f'd{k}' for k in coords)})", f"if D{i} != 1:"]
            for k, entry in coords.items():
                lines += [f"    if d{k} != D{i}:", f"        f = D{i} // d{k}"]
                lines += [f"        {v} *= f" for v in entry.values()]

    nrows, ncols = len(kinds), len(kinds[0])
    for t in range(width):
        P = E[t][t]  # the body solve picked it, so its slot 0 is live
        lines += [f"if not {P[0]}:", "    return None"]
        h = inverse(t, P[0], {m: v for m, v in P.items() if m})
        for j in range(t + 1, ncols):
            if E[t][j]:
                E[t][j] = assign(product(h, E[t][j]))
        den[t] = f"e{t}"
        for i in range(nrows):
            f = E[i][t]
            if i == t or not f:
                continue
            for j in range(t + 1, ncols):
                pj, x = E[t][j] or {}, E[i][j] or {}
                fp = product(f, pj)
                if x or fp:
                    E[i][j] = assign({m: f"e{t}*{x[m]} - ({fp[m]})" if m in x and m in fp
                                      else f"e{t}*{x[m]}" if m in x else f"-({fp[m]})"
                                      for m in sorted(x.keys() | fp.keys())})
            den[i] = f"{den[i]} * e{t}" if den[i] else f"e{t}"

    def spell(x, div=""):
        return f"({''.join(f'{x[m]}{div}, ' if m in x else '0, ' for m in range(size))})"

    # each output over its row's denominator q, in lowest terms: g is the
    # gcd of q and the output's live slots, divided out where it is not 1
    nums, dens = [], []
    for i in range(nrows):
        q = den[i] or "1"
        if " " in q:  # a product, computed once per row
            lines.append(f"q{i} = {q}")
            q = f"q{i}"
        for j in range(width, ncols):
            x, k = E[i][j] or {}, len(nums)
            if not x or q == "1":  # 0, or integers: over 1 already
                nums.append(spell(x))
                dens.append("1")
                continue
            lines += [f"g = gcd({q}, {', '.join(x.values())})", "if g == 1:",
                      f"    n{k}, p{k} = {spell(x)}, {q}", "else:",
                      f"    n{k}, p{k} = {spell(x, ' // g')}, {q} // g"]
            nums.append(f"n{k}")
            dens.append(f"p{k}")
    lines.append(f"return ({''.join(f'{n}, ' for n in nums)}), ({''.join(f'{d}, ' for d in dens)})")
    head = ["def solve(a, d):"]
    if inputs:
        head += [f"    {', '.join(inputs)}, = a",
                 f"    {''.join(f'd{k}, ' for k in range(len(inputs)))}= d"]
    if dead:
        head += [f"    if {' or '.join(dead)}:", "        return None"]
    scope = {"gcd": gcd, "lcm": lcm}
    # named by shape and r, so that profiles and tracebacks tell them apart
    exec(compile("\n".join(head + [f"    {line}" for line in lines]),
                 f"<solve {' '.join(kinds)} /{width} r={r}>", "exec"), scope)
    return scope["solve"]


def ring_solve(M, units=()) -> list[int]:
    """solve over any ring whose elements offer has_body(), inv(),
    is_zero() and the fused step x.add_product(a, b, sign) = x + sign*a*b:
    the elimination of the chart rings, which eliminate and the plan
    status of atlas.HopPlan call, and the tests' oracle for lambda_solve.
    It runs in place on the rows lambda_solve takes, the columns of Z that
    `units` does not name and then Y, and returns, as lambda_solve does,
    the row that holds X[j] past the eliminated columns for each column j
    of Z; the unit columns stay untouched because their other entries are
    zero."""
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
