import random

import pytest

from nugrass.action import sample_gl
from nugrass.errors import DoubleNu, NotInvertible, NuEntriesPresent, ResidualNuSymbol
from nugrass.superalgebra import GeneratorContext, GrassmannNumber
from nugrass.supermatrix import NU, SuperMatrix, matmul, smat_inv, smat_mul
from nugrass.atlas import Atlas
from paper_reference import label, minor_M, minor_Mprime, remainder_D

CTX = GeneratorContext(("x",), ("e1", "e2"))


def one():
    return CTX.one()


def zero():
    return CTX.zero()


def test_identity_multiplication_fixes_plain_matrices():
    x, e1 = CTX.gen("x"), CTX.gen("e1")
    A = SuperMatrix((1, 1), (1, 1), [[x, e1], [e1, one()]], zero())
    I = SuperMatrix.identity(1, 1, zero())
    assert smat_mul(I, A) == A
    assert smat_mul(A, I) == A


def test_odd_unit_resolves_through_the_involution_on_either_side():
    e1 = CTX.gen("e1")
    c = CTX.gen("x") * e1
    # a row holding nu(c) against a column holding the odd unit gives back c
    row = SuperMatrix((0, 1), (0, 1), [[c.nu()]], zero())
    col = SuperMatrix((0, 1), (1, 0), [[NU]], zero())
    prod = smat_mul(row, col)
    assert prod.entries[0][0] == c
    # the unit on the left resolves a plain right factor the same way
    lrow = SuperMatrix((0, 1), (1, 0), [[NU]], zero())
    rcol = SuperMatrix((1, 0), (1, 0), [[CTX.gen("x")]], zero())
    assert smat_mul(lrow, rcol).entries[0][0] == CTX.gen("x").nu()


def test_two_odd_units_in_one_term_are_rejected():
    a = SuperMatrix((0, 1), (1, 0), [[NU]], zero())
    b = SuperMatrix((1, 0), (0, 1), [[NU]], zero())
    with pytest.raises(DoubleNu):
        smat_mul(a, b)


def test_inverse_of_diagonal_and_mixed_matrices():
    x, e1 = CTX.gen("x"), CTX.gen("e1")
    A = SuperMatrix((1, 1), (1, 1), [[x, zero()], [zero(), one()]], zero())
    Ainv = smat_inv(A)
    assert Ainv.entries[0][0] == x.inv()
    B = SuperMatrix((1, 1), (1, 1), [[x, e1], [e1, one()]], zero())
    Binv = smat_inv(B)
    I = SuperMatrix.identity(1, 1, zero())
    assert smat_mul(B, Binv) == I
    assert smat_mul(Binv, B) == I


def test_singular_and_unit_bearing_matrices_do_not_invert():
    e1, e2 = CTX.gen("e1"), CTX.gen("e2")
    soul_only = SuperMatrix((1, 0), (1, 0), [[e1 * e2]], zero())
    with pytest.raises(NotInvertible):
        smat_inv(soul_only)
    zero_bodies = SuperMatrix((1, 1), (1, 1), [[zero(), e1], [e1, zero()]], zero())
    with pytest.raises(NotInvertible):
        smat_inv(zero_bodies)
    with_unit = SuperMatrix((1, 1), (1, 1), [[one(), NU], [e1, one()]], zero())
    with pytest.raises(NuEntriesPresent):
        smat_inv(with_unit)


def test_product_inverse_reverses_factors():
    import random
    from nugrass.superalgebra import lambda_sample, EVEN, ODD

    rng = random.Random(3)
    proto = GrassmannNumber(2, {})

    def rand_mat():
        while True:
            e = [[lambda_sample(2, EVEN, rng), lambda_sample(2, ODD, rng)],
                 [lambda_sample(2, ODD, rng), lambda_sample(2, EVEN, rng)]]
            M = SuperMatrix((1, 1), (1, 1), e, proto)
            try:
                smat_inv(M)
            except NotInvertible:
                continue
            return M

    for _ in range(10):
        A, B = rand_mat(), rand_mat()
        lhs = smat_inv(smat_mul(A, B))
        rhs = smat_mul(smat_inv(B), smat_inv(A))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# column operators on actual labels
# ---------------------------------------------------------------------------


def test_minor_of_the_standard_1_2_chart_selects_the_displayed_columns():
    at = Atlas(1, 2, 2, 3)
    chart = at.chart((1,), (1, 2))
    A = label(chart)
    M = minor_M(A, (1, 2), (3,))
    assert (M.row_split, M.col_split) == ((1, 2), (2, 1))
    ctx = chart.ctx
    expect = [
        [ctx.one(), ctx.gen("x1"), ctx.gen("e3")],
        [ctx.zero(), ctx.gen("e1"), ctx.gen("x2")],
        [ctx.zero(), ctx.gen("e2"), ctx.gen("x3")],
    ]
    assert M.entries == expect


def test_divider_move_matches_the_worked_minor():
    at = Atlas(1, 2, 2, 3)
    chart = at.chart((1,), (1, 2))
    target = at.chart((1, 2), (3,)).index
    Mp = minor_Mprime(label(chart), (1, 2), (3,), target)
    assert Mp.col_split == (1, 2)
    ctx = chart.ctx
    expect = [
        [ctx.one(), ctx.gen("x1").nu(), ctx.gen("e3")],
        [ctx.zero(), ctx.gen("e1").nu(), ctx.gen("x2")],
        [ctx.zero(), ctx.gen("e2").nu(), ctx.gen("x3")],
    ]
    assert Mp.entries == expect
    SuperMatrix(Mp.row_split, Mp.col_split, Mp.entries, Mp.proto)  # parity stays consistent


def test_divider_move_is_identity_for_standard_targets():
    at = Atlas(1, 2, 2, 3)
    chart = at.chart((1,), (1, 2))
    target = at.chart((2,), (1, 2)).index
    assert minor_Mprime(label(chart), (2,), (1, 2), target) == minor_M(
        label(chart), (2,), (1, 2)
    )


def test_divider_move_resolves_an_odd_unit_column():
    at = Atlas(0, 1, 1, 2)
    c1 = at.chart((), (1,))
    target = at.chart((1,), ()).index
    M = minor_M(label(c1), (1,), ())
    assert M.entries == [[c1.ctx.gen("e1")]]
    Mp = minor_Mprime(label(c1), (1,), (), target)
    assert Mp.entries == [[c1.ctx.one()]]
    assert Mp.col_split == (0, 1)
    # moving the non-standard chart's own label resolves its unit to one
    c3 = at.chart((1,), ())
    Mp3 = minor_Mprime(label(c3), (1,), (), target)
    assert Mp3.entries == [[c3.ctx.one()]]


def test_unmoved_odd_unit_column_is_an_error():
    at = Atlas(1, 2, 2, 3)
    src = at.chart((), (1, 2, 3))          # unit sits in odd column 1
    target = at.chart((1, 2), (1,)).index  # selects it but moves an even column
    with pytest.raises(ResidualNuSymbol):
        minor_Mprime(label(src), (1, 2), (1,), target)


def test_selected_and_remaining_columns_partition_the_label():
    at = Atlas(1, 2, 2, 3)
    chart = at.chart((1,), (2, 3))
    A = label(chart)
    J, S = (2,), (1, 3)
    M = minor_M(A, J, S)
    D = remainder_D(A, J, S)
    assert sum(M.col_split) + sum(D.col_split) == sum(A.col_split)
    # every original column shows up exactly once across the two results
    def columns(mat):
        return [tuple(repr(row[j]) for row in mat.entries)
                for j in range(sum(mat.col_split))]
    got = sorted(columns(M) + columns(D))
    assert got == sorted(columns(A))


def test_remainder_drops_the_selected_odd_column():
    at = Atlas(0, 1, 1, 2)
    c1 = at.chart((), (1,))
    D = remainder_D(label(c1), (), (1,))
    ctx = c1.ctx
    assert D.entries == [[ctx.gen("e1"), ctx.gen("x1")]]
    assert D.col_split == (1, 1)
    # empty selection keeps everything
    assert remainder_D(label(c1), (), ()) == label(c1)
    with pytest.raises(IndexError):
        minor_M(label(c1), (2,), ())


def test_parity_validation_rejects_misplaced_entries():
    with pytest.raises(ValueError):
        SuperMatrix((1, 1), (1, 1), [[CTX.gen("e1"), CTX.gen("e1")],
                                     [CTX.gen("e1"), CTX.one()]], CTX.zero())
    # the odd unit is legal exactly in the odd blocks
    SuperMatrix((1, 1), (1, 1), [[CTX.one(), NU], [NU, CTX.one()]], CTX.zero())
    with pytest.raises(ValueError):
        SuperMatrix((1, 1), (1, 1), [[NU, CTX.gen("e1")],
                                     [CTX.gen("e1"), CTX.one()]], CTX.zero())


def _plain_matmul(A, B, zero):
    """The triple loop with no zero test: the reference of matmul."""
    out = []
    for i, arow in enumerate(A):
        row = []
        for j in range(len(B[0])):
            acc = zero
            for a, brow in zip(arow, B):
                b = brow[j]
                if a is NU and b is NU:
                    raise DoubleNu(f"two odd units meet at ({i},{j})")
                acc = acc + (b.nu() if a is NU else a.nu() if b is NU else a * b)
            row.append(acc)
        out.append(row)
    return out


def _outcome(product, A, B, zero):
    try:
        return product(A, B, zero)
    except DoubleNu as exc:
        return str(exc)


@pytest.mark.parametrize("seed", range(8))
def test_matmul_matches_the_plain_triple_loop(seed):
    # dense and sparse r = 4 group points of gl(2|3), and odd units in the
    # odd blocks of either factor or of both (where two may meet)
    rng = random.Random(seed)
    zero = GrassmannNumber(4, {})
    A, B = (sample_gl(2, 3, 4, rng).entries for _ in range(2))
    odd_block = [(i, j) for i in range(5) for j in range(5) if (i < 2) != (j < 2)]
    sparse = [[zero if rng.random() < 0.4 else e for e in row] for row in A]
    cases = [(A, B, ()), (sparse, B, ()), (B, sparse, ())]
    for sides in ((0,), (1,), (0, 1)):
        P, Q = [row[:] for row in sparse], [row[:] for row in B]
        for side in sides:
            for i, j in rng.sample(odd_block, 3):
                (P, Q)[side][i][j] = NU
        cases.append((P, Q, sides))
    for P, Q, sides in cases:
        got = _outcome(matmul, P, Q, zero)
        assert got == _outcome(_plain_matmul, P, Q, zero)
        assert isinstance(got, list) or sides == (0, 1)
