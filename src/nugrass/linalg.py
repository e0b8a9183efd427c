"""The exact linear algebra of the kernel: two eliminations.

* rref works over QQ.  It is rank-revealing: a column without a nonzero
  entry below the rows already used is skipped, not an error.  The rank
  checks, the basis completion of the transitivity witness, the commutant's
  nullspace, span membership and the inverse-transition system use it.
* solve works over any ring whose elements offer has_body(), inv(),
  is_zero() and the fused step x.add_product(a, b, sign) = x + sign*a*b:
  Lambda_r (GrassmannNumber) or a chart ring (SuperFunction).  It
  solves a square system and raises NotInvertible when the body of the
  matrix is singular.  Every chart normalization, every supermatrix inverse
  and every group inverse goes through it.

The two stay apart on purpose: one skips columns and reports the rank, the
other must find a pivot in every column.

The one matrix product, with the odd-unit rule, is supermatrix.matmul.
"""

from __future__ import annotations

from sympy.external.gmpy import MPQ

from .errors import NotInvertible


def rref(rows, ncols: int):
    """Reduced row echelon form of a matrix of MPQ on its first ncols columns.

    Columns past ncols (an augmented block) are carried along but never
    pivoted on.  Returns (reduced rows, pivot columns); the rows past the
    rank vanish on the first ncols columns.
    """
    M = [list(row) for row in rows]
    pivots = []
    for c in range(ncols):
        rank = len(pivots)
        for piv in range(rank, len(M)):
            if M[piv][c]:
                break
        else:
            continue
        M[rank], M[piv] = M[piv], M[rank]
        inv = MPQ(1) / M[rank][c]
        prow = M[rank] = [e * inv for e in M[rank]]
        for i, row in enumerate(M):
            f = row[c]
            if i != rank and f:
                M[i] = [e - f * p for e, p in zip(row, prow)]
        pivots.append(c)
    return M, pivots


def solve(Z, Y, units=()):
    """Exact solution X of  Z X = Y  with Z square, as nested lists.

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
        for i in range(n):
            row = M[i]
            f = row[t]
            if i == piv or f.is_zero():
                continue
            for j in range(t + 1, width):
                p = prow[j]
                if not p.is_zero():
                    row[j] = row[j].add_product(f, p, -1)
        pivot_row[col] = piv
    return [M[pivot_row[j]][w:] for j in range(n)]


def inverse(Z):
    """Exact inverse of a square matrix: the solution of  Z X = 1."""
    if not Z:
        return []
    one, zero = Z[0][0].ring_one(), Z[0][0].ring_zero()
    n = len(Z)
    return solve(Z, [[one if j == i else zero for j in range(n)] for i in range(n)])
