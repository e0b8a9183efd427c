import random

import sympy
from hypothesis import given, settings, strategies as st
from sympy.external.gmpy import MPQ

from nugrass.linalg import rref


def rational_matrix(seed):
    """A small rational matrix, often rank-deficient (repeated, scaled and
    combined rows, zero columns), with an optional augmented block.
    Returns (rows, ncols)."""
    rng = random.Random(seed)
    nrows, ncols = rng.randint(0, 5), rng.randint(1, 5)
    aug = rng.choice([0, 0, 1, 2])
    width = ncols + aug
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.3:
            a, b = rng.choice(rows), rng.choice(rows)
            p, q = MPQ(rng.randint(-3, 3), rng.randint(1, 3)), MPQ(rng.randint(-3, 3))
            rows.append([p * x + q * y for x, y in zip(a, b)])
        else:
            rows.append([MPQ(rng.randint(-3, 3), rng.randint(1, 4))
                         if rng.random() < 0.7 else MPQ(0) for _ in range(width)])
    if rows and rng.random() < 0.3:
        dead = rng.randrange(ncols)
        for row in rows:
            row[dead] = MPQ(0)
    return rows, ncols


def to_sympy(rows, width):
    return sympy.Matrix(len(rows), width,
                        lambda i, j: sympy.Rational(rows[i][j].numerator,
                                                    rows[i][j].denominator))


@given(st.integers(0, 10**6))
@settings(max_examples=150, deadline=None)
def test_rref_matches_sympy_over_qq(seed):
    rows, ncols = rational_matrix(seed)
    width = len(rows[0]) if rows else ncols
    M, pivots = rref(rows, ncols)
    assert len(M) == len(rows)
    if not rows:
        assert pivots == []
        return
    # the coefficient block is sympy's reduced row echelon form
    want, want_pivots = to_sympy([row[:ncols] for row in rows], ncols).rref()
    assert pivots == list(want_pivots)
    assert to_sympy([row[:ncols] for row in M], ncols) == want
    # the augmented block rides along: M is row-equivalent to the input
    A, R = to_sympy(rows, width), to_sympy(M, width)
    assert R.rank() == A.rank() == A.col_join(R).rank()
    if width == ncols:
        assert R == A.rref()[0]


def test_rref_skips_columns_without_a_pivot_and_keeps_the_augmented_block():
    rows = [[MPQ(0), MPQ(2), MPQ(4), MPQ(1)],
            [MPQ(0), MPQ(1), MPQ(2), MPQ(1)],
            [MPQ(0), MPQ(0), MPQ(0), MPQ(3)]]
    M, pivots = rref(rows, 3)
    assert pivots == [1]
    assert M[0] == [MPQ(0), MPQ(1), MPQ(2), MPQ(1, 2)]
    # rows past the rank vanish on the coefficient block; the last column
    # shows the system is inconsistent
    assert all(not any(row[:3]) for row in M[1:])
    assert any(row[3] for row in M[1:])
