import random
from fractions import Fraction
from functools import partial
from math import lcm

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.external.gmpy import MPQ

import nugrass.atlas as atlas_module
from nugrass import superalgebra
from nugrass.atlas import get_atlas, transition_symbolic
from nugrass.errors import GenericallySingular, NotInvertible, ResidualNuSymbol, UncoveredCase
from nugrass.linalg import inverse, lambda_solve, ring_solve, rref, solve
from nugrass.nulie import GlElement, fundamental_field
from nugrass.superalgebra import (
    FlatFraction,
    GeneratorContext,
    GrassmannNumber,
    SuperFunction,
    _reduced,
)
from paper_reference import assignments, ring_route


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


def test_rref_reads_every_exact_rational_and_keeps_integral_entries_as_ints():
    as_mpq = [[MPQ(2), MPQ(1, 2), MPQ(0)], [MPQ(1), MPQ(1), MPQ(-3, 4)]]
    mixed = [[2, Fraction(1, 2), "0"], [True, MPQ(1), "-3/4"]]
    want = rref(as_mpq, 2)
    assert rref(mixed, 2) == want
    assert all(type(e) in (int, Fraction) for row in want[0] for e in row)
    # pivots of +-1 leave an integer matrix on ints
    M, pivots = rref([[-1, 2, 0], [0, 1, 3], [1, -2, 1]], 3)
    assert M == [[1, 0, 0], [0, 1, 0], [0, 0, 1]] and pivots == [0, 1, 2]
    assert all(type(e) is int for row in M for e in row)
    with pytest.raises(TypeError):
        rref([[1.5, 1]], 2)


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


def _solve_or_singular(Z, Y):
    try:
        return solve(Z, Y), inverse(Z)
    except NotInvertible:
        return "singular"


def _product(Z, X):
    zero = Z[0][0].ring_zero()
    return [[sum((Z[i][k] * X[k][j] for k in range(len(X))), zero)
             for j in range(len(X[0]))] for i in range(len(Z))]


def _grassmann_system(rng):
    """Z (n x n) and Y (n x 2) over Lambda_r with bodies often zero and
    rational coefficients."""
    r, n = rng.randint(0, 4), rng.randint(1, 3)

    def entry(body_zero):
        terms = {mask: MPQ(rng.randint(-2, 2), rng.choice([1, 1, 2, 3]))
                 for mask in range(1 << r)}
        if body_zero:
            terms[0] = 0
        return GrassmannNumber(r, terms)

    Z = [[entry(rng.random() < 0.25) for _ in range(n)] for _ in range(n)]
    Y = [[entry(False) for _ in range(2)] for _ in range(n)]
    bodies = [[e.body() for e in row] for row in Z]
    return Z, Y, len(rref(bodies, n)[1]) < n


def _chart_ring_system(rng):
    """Z (n x n) and Y (n x 2) over Q(x1)[e1, e2] with bodies often zero or
    dependent over Q(x1); n stays small, the gcds over Q(x1) are costly."""
    ctx = GeneratorContext(("x1",), ("e1", "e2"))
    x, e1, e2 = ctx.gen("x1"), ctx.gen("e1"), ctx.gen("e2")
    n = rng.randint(1, 2)
    X = sympy.Symbol("x")

    def entry():
        a, b = rng.choice([0, 0, 1, -2, 3]), rng.choice([0, 0, 1, -1])
        c, d = rng.randint(-2, 2), rng.randint(-2, 2)
        value = ctx.one().scale(a) + x.scale(b) + (e1 * e2).scale(c) + e1.scale(d)
        return value, a + b * X

    cells = [[entry() for _ in range(n)] for _ in range(n)]
    Z = [[v for v, _ in row] for row in cells]
    Y = [[entry()[0] for _ in range(2)] for _ in range(n)]
    singular = sympy.Matrix([[b for _, b in row] for row in cells]).det().expand() == 0
    return Z, Y, singular


def _refuse_body(self):
    raise AssertionError("a pivot test built the body")


@given(st.integers(0, 10**6), st.sampled_from([_grassmann_system, _chart_ring_system]))
@settings(max_examples=60, deadline=None)
def test_solve_tests_pivots_without_building_the_body(seed, system):
    Z, Y, singular = system(random.Random(seed))
    before = _solve_or_singular(Z, Y)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GrassmannNumber, "body", _refuse_body)
        mp.setattr(SuperFunction, "body", _refuse_body)
        after = _solve_or_singular(Z, Y)
    assert after == before
    # NotInvertible exactly on body-singular input
    assert (after == "singular") == singular
    if not singular:
        X, Zinv = after
        assert _product(Z, X) == Y
        one, zero = Z[0][0].ring_one(), Z[0][0].ring_zero()
        assert _product(Z, Zinv) == [[one if i == j else zero for j in range(len(Z))]
                                     for i in range(len(Z))]


def _lambda_entry(rng, r, parity):
    """A Lambda_r value of the given parity (None: mixed), with rational
    coefficients; an even one has a zero body a quarter of the time."""
    masks = [m for m in range(1 << r) if parity is None or m.bit_count() & 1 == parity]
    terms = {m: MPQ(rng.randint(-3, 3), rng.choice([1, 1, 2, 3, 4])) for m in masks}
    if 0 in terms and rng.random() < 0.25:
        terms[0] = 0
    return GrassmannNumber(r, terms)


def _lambda_system(rng):
    """Z (n x n), Y (n x 0-2) and units over Lambda_r, r <= 4, n <= 5: unit
    columns e_i at random rows, and the other entries all homogeneous (the
    parity of a supermatrix block) or any mix of parities, some with zero
    bodies.  Returns Z, Y, units and whether the body of Z is singular."""
    r, n = rng.randint(0, 4), rng.randint(1, 5)
    split = rng.randint(0, n)
    mixed = rng.random() < 0.3

    def parity(i, j):
        return None if mixed else int((i < split) != (j < split))

    Z = [[_lambda_entry(rng, r, parity(i, j)) for j in range(n)] for i in range(n)]
    rows = rng.sample(range(n), rng.randint(0, n))
    units = tuple(zip(rng.sample(range(n), len(rows)), rows))
    one, zero = GrassmannNumber.scalar(r, 1), GrassmannNumber(r, {})
    for j, i in units:
        for u in range(n):
            Z[u][j] = one if u == i else zero
    width = rng.randint(0, 2)
    Y = [[_lambda_entry(rng, r, None) for _ in range(width)] for _ in range(n)]
    singular = sympy.Matrix(n, n, lambda i, j: sympy.Rational(str(Z[i][j].body()))).det() == 0
    return Z, Y, units, singular


def _outcome(route, *args):
    try:
        return route(*args)
    except NotInvertible as exc:
        return NotInvertible, exc.args


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_the_integer_rows_match_the_ring_elimination(seed):
    # solve eliminates Lambda_r on numerator rows, every column of Z;
    # ring_route is the elimination through GrassmannNumber's own
    # arithmetic, with the unit columns pivoted first as HopPlan does
    Z, Y, units, singular = _lambda_system(random.Random(seed))
    want = _outcome(ring_route, Z, Y, units)
    got = _outcome(solve, Z, Y)
    assert (want[0] is NotInvertible) == singular
    if singular:
        # the unit columns change the pivot order, and with it the column
        # that the error names: without them, ring_route names solve's
        assert got[0] is NotInvertible
        assert got == _outcome(ring_route, Z, Y)
    else:
        # the unit columns only skip work
        assert got == want
        if Y[0]:
            assert _product(Z, want) == Y


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_both_eliminations_take_one_row_layout_and_pick_the_same_pivots(seed):
    # the rows of Z without the unit columns, then Y: as values for
    # ring_solve, as numerator tuples over each row's lcm for lambda_solve
    Z, Y, units, singular = _lambda_system(random.Random(seed))
    r, named = Z[0][0].r, {j for j, _ in units}
    values = [[e for j, e in enumerate(zrow) if j not in named] + yrow
              for zrow, yrow in zip(Z, Y)]
    dens = [lcm(*[e.den for e in row]) for row in values]
    nums = [[tuple([den // e.den * c for c in e.num]) for e in row]
            for row, den in zip(values, dens)]
    want = _outcome(ring_solve, values, units)
    assert _outcome(lambda_solve, r, nums, dens, units) == want
    assert (want[0] is NotInvertible) == singular
    if not singular:
        w = len(Z) - len(units)
        assert ([[_reduced(r, num, dens[i]) for num in nums[i][w:]] for i in want]
                == [values[i][w:] for i in want])


@pytest.mark.parametrize("r, pivot, inverse", [
    # no soul: the inverse of -2 has the denominator 2 after the sign fix
    (1, {0: -2}, {0: MPQ(-1, 2)}),
    # n = O1*O2 + O3*O4 has n*n = 2*O1*O2*O3*O4, so 1 / (-2 + n) is
    # -1/2 - n/4 - (n*n)/8 over the denominator (-2)**3 before the fix
    (4, {0: -2, 3: 1, 12: 1}, {0: MPQ(-1, 2), 3: MPQ(-1, 4), 12: MPQ(-1, 4), 15: MPQ(-1, 4)}),
])
def test_the_integer_rows_scale_by_the_pivot_denominator_and_fix_its_sign(r, pivot, inverse):
    # the pivot has a negative body; the other row has a nonzero entry in
    # the pivot column, so it is scaled by the pivot row's denominator
    g = partial(GrassmannNumber, r)
    Z = [[g(pivot), g({})], [g({0: MPQ(1, 3), 1: 1}), g({0: 1})]]
    Y = [[g({0: 1})], [g({1: MPQ(1, 2)})]]
    X = solve(Z, Y)
    assert X == ring_route(Z, Y, [(1, 1)])
    assert X[0] == [g(inverse)]
    assert _product(Z, X) == Y


def test_the_lambda_r_routes_build_values_only_for_their_outputs(monkeypatch):
    # the integer elimination and the hop on numerator tuples combine no
    # GrassmannNumber: the only values they build are their outputs
    rng = random.Random(11)
    systems = [_lambda_system(rng) for _ in range(40)]
    plans = [atlas_module._get_plan(a, b) for at in (get_atlas(1, 2, 2, 3),)
             for a in at.charts for b in at.charts]
    plans = [p for p in plans if p.status == "ok"]
    points = [(p, atlas_module.sample_point(p.src, 2, rng).values) for p in plans]
    built = []
    gn = superalgebra._gn

    def counted(r, num, den):
        built.append(r)
        return gn(r, num, den)

    def refuse(*args, **kwargs):
        raise AssertionError("a GrassmannNumber was built or combined")

    monkeypatch.setattr(superalgebra, "_gn", counted)
    for name in ("__init__", "__mul__", "__add__", "__sub__", "__neg__", "add_product",
                 "inv", "nu", "ring_one", "ring_zero"):
        monkeypatch.setattr(GrassmannNumber, name, refuse)
    solved = hopped = 0
    for Z, Y, units, singular in systems:
        del built[:]
        if singular:
            with pytest.raises(NotInvertible):
                solve(Z, Y)
            assert not built
        else:
            X = solve(Z, Y)
            assert len(built) == sum(map(len, X)) == len(Z) * len(Y[0])
            solved += 1
    for plan, values in points:
        del built[:]
        try:
            out = plan.transition(values)
        except NotInvertible:
            assert not built
            continue
        assert len(built) == len(out)
        hopped += 1
    assert solved > 10 and hopped > 20


def _symbolic_maps(charts):
    """Every ordered pair's symbolic map, or the type of its failure."""
    out = []
    for a in charts:
        for b in charts:
            try:
                out.append(assignments(transition_symbolic(a, b)))
            except (UncoveredCase, GenericallySingular, ResidualNuSymbol) as exc:
                out.append(type(exc))
    return out


def test_chart_normalization_never_builds_a_body(monkeypatch):
    # symbolic transitions built on a fresh plan dict fill each pair's
    # pasting system with the source chart's generators and solve it over
    # that chart ring, on FlatFractions; fundamental fields read the
    # adjusted minor off their first-order formula.  Neither builds a body.
    atlases = [get_atlas(0, 1, 1, 2), get_atlas(1, 1, 2, 2)]
    fields = [(E, chart) for at in atlases for chart in at.charts
              for E in GlElement.basis(at.m, at.n)]
    want = [fundamental_field(E, chart).flat for E, chart in fields]
    monkeypatch.setattr(atlas_module, "_GLOBAL_PLANS", {})
    want_maps = [_symbolic_maps(at.charts) for at in atlases]
    monkeypatch.setattr(atlas_module, "_GLOBAL_PLANS", {})
    solved = []

    def counting_solve(M, units=()):
        solved.append(all(isinstance(e, FlatFraction) for row in M for e in row))
        return ring_solve(M, units)

    transition = atlas_module.HopPlan.transition
    filled = []

    def counting_transition(plan, values):
        filled.append(all(v.ctx == plan.src.ctx for v in values.values()))
        return transition(plan, values)

    monkeypatch.setattr(atlas_module, "ring_solve", counting_solve)
    monkeypatch.setattr(atlas_module.HopPlan, "transition", counting_transition)
    monkeypatch.setattr(SuperFunction, "body", _refuse_body)
    monkeypatch.setattr(GrassmannNumber, "body", _refuse_body)
    assert [fundamental_field(E, chart).flat for E, chart in fields] == want
    assert not solved and not filled
    assert [_symbolic_maps(at.charts) for at in atlases] == want_maps
    assert solved and all(solved)
    # every solve is the compiled system of a pair, filled with the source
    # chart's generators; the residual pairs stop before their solve
    residual = sum(m is ResidualNuSymbol for maps in want_maps for m in maps)
    assert filled and all(filled) and len(solved) == len(filled) - residual
