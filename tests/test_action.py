import random

import pytest
from hypothesis import given, settings, strategies as st
from sympy.external.gmpy import MPQ

import nugrass.atlas as atlas_module
from nugrass.errors import (
    MinorNotInvertible,
    NoChartFound,
    NoOddGenerators,
    NotInvertible,
    NuEntriesPresent,
    RankDeficient,
)
from nugrass.superalgebra import GeneratorContext, GrassmannNumber
from nugrass.supermatrix import NU, SuperMatrix
from nugrass.atlas import GrassPoint, get_atlas, point_transition, sample_point
from nugrass.action import (
    BasePoint,
    GLPoint,
    _acted_matrix,
    act,
    grass_point_from_matrix,
    sample_gl,
    stabilizer_membership,
    transitivity_witness,
    verify_action_axioms,
    verify_action_gluing,
    verify_transitivity,
)
from paper_reference import grid_normalize


def gn(r, q):
    return GrassmannNumber.scalar(r, q)


def theta(r, i):
    return GrassmannNumber.theta(r, i)


AT = get_atlas(0, 1, 1, 2)
C1, C2, C3 = AT.charts


def point_x2():
    return GrassPoint(C1, 2, {"x1": gn(2, 2), "e1": theta(2, 1)})


def test_identity_acts_trivially():
    X = point_x2()
    assert act(X, GLPoint.identity(1, 2, 2), target=C1) == X


def test_odd_column_swap_moves_between_the_standard_charts():
    X = point_x2()
    one, zero = gn(2, 1), GrassmannNumber(2, {})
    swap = GLPoint(1, 2, 2, [[one, zero, zero], [zero, zero, one], [zero, one, zero]])
    Y = act(X, swap, target=C2)
    assert Y.chart is C2
    assert Y.values["x1"] == gn(2, 2)
    assert Y.values["e1"] == theta(2, 1)
    # the default chart choice lands on the same glued point
    Yd = act(X, swap)
    assert point_transition(Yd, C2) == Y


def test_unit_scaling_of_the_pivot_column():
    X = point_x2()
    one, zero = gn(2, 1), GrassmannNumber(2, {})
    lam = gn(2, 3)
    P = GLPoint(1, 2, 2, [[one, zero, zero], [zero, lam, zero], [zero, zero, one]])
    Y = act(X, P, target=C1)
    assert Y.values["x1"] == gn(2, MPQ(2, 3))
    assert Y.values["e1"] == theta(2, 1) * MPQ(1, 3)


def test_group_point_validation_and_inverse():
    rng = random.Random(11)
    for r in (2, 4):
        P = sample_gl(1, 2, r, rng)
        assert P * P.inv() == GLPoint.identity(1, 2, r)
        assert P.inv() * P == GLPoint.identity(1, 2, r)
    with pytest.raises(ValueError):
        GLPoint(1, 1, 2, [[theta(2, 1), gn(2, 1)], [gn(2, 1), gn(2, 1)]])


# a chart ring, another chart ring, and the entries of both kinds of table row
CTX = GeneratorContext(("x",), ("e1", "e2"))
OTHER = GeneratorContext(("y",), ("e1",))
ONE, ZERO, TH = gn(2, 1), gn(2, 0), theta(2, 1)
F1, FZ, FE = CTX.one(), CTX.zero(), CTX.gen("e1")


def unchecked(cls, rows, proto, what):
    """A table row: cls._of builds a 1|1 x 1|1 matrix, bad in `what`, unchecked."""
    return pytest.param(lambda: cls._of((1, 1), (1, 1), rows, proto), None,
                        id=f"_of-{cls.__name__}-{what}")


@pytest.mark.parametrize("build, message", [
    (lambda: GLPoint(1, 1, 2, [[gn(2, 1), theta(2, 1)]]), "shape mismatch"),
    (lambda: GLPoint(1, 1, 2, [[gn(2, 1)], [gn(2, 1)]]), "shape mismatch"),
    (lambda: GLPoint.identity(1, 2, 2) * GLPoint.identity(1, 2, 4), "group context mismatch"),
    (lambda: GLPoint.identity(1, 2, 2) * GLPoint.identity(2, 1, 2), "group context mismatch"),
    # SuperMatrix and GLPoint share one check: shape, then entry by entry the
    # ring and the block parity; the odd unit only in an odd block
    (lambda: SuperMatrix((1, 1), (1, 1), [[ONE, TH], [TH, ONE], [TH, ONE]], ZERO),
     "shape mismatch"),
    (lambda: SuperMatrix((1, 1), (1, 1), [[F1, FE], [FE]], FZ), "shape mismatch"),
    (lambda: GLPoint(1, 1, 2, [[ONE, TH], [gn(3, 0), ONE]]),
     "entry (1,0) is in Lambda_3, not Lambda_2"),
    (lambda: SuperMatrix((1, 1), (1, 1), [[F1, OTHER.gen("e1")], [FE, F1]], FZ),
     f"entry (0,1) is in {OTHER!r}, not {CTX!r}"),
    (lambda: SuperMatrix((1, 0), (1, 0), [[ONE]], FZ), f"entry (0,0) is in Lambda_2, not {CTX!r}"),
    (lambda: GLPoint(1, 1, 2, [[TH, ONE], [ONE, ONE]]), "entry (0,0) has parity 1, block wants 0"),
    (lambda: SuperMatrix((1, 1), (1, 1), [[F1, F1], [FE, F1]], FZ),
     "entry (0,1) has parity 0, block wants 1"),
    (lambda: SuperMatrix((1, 1), (1, 1), [[F1, FE], [FE, ONE]], ZERO),
     f"entry (0,0) is in {CTX!r}, not Lambda_2"),
    (lambda: SuperMatrix((1, 1), (1, 1), [[NU, FE], [FE, F1]], FZ),
     "1nu in an even block at (0,0)"),
    (lambda: GLPoint(1, 1, 2, [[ONE, ZERO], [ZERO, NU]]), "1nu in an even block at (1,1)"),
    # a GLPoint is also invertible, and holds no odd unit at all
    pytest.param(lambda: GLPoint(1, 1, 2, [[ONE, NU], [ZERO, ONE]]),
                 NuEntriesPresent("a group point has no odd unit"), id="odd-unit"),
    pytest.param(lambda: GLPoint(1, 1, 2, [[ZERO, TH], [TH, ONE]]),
                 NotInvertible("no body-invertible pivot in column 0"), id="singular"),
    # _of takes a value the kernel built and checks none of it
    unchecked(GLPoint, [[ONE, TH]], ZERO, "shape"),
    unchecked(GLPoint, [[gn(3, 1), ZERO], [ZERO, ONE]], ZERO, "ring"),
    unchecked(GLPoint, [[TH, ONE], [ONE, ONE]], ZERO, "parity"),
    unchecked(GLPoint, [[NU, ZERO], [ZERO, ONE]], ZERO, "1nu"),
    unchecked(GLPoint, [[ZERO, TH], [TH, ONE]], ZERO, "singular"),
    unchecked(SuperMatrix, [[F1, OTHER.gen("e1")], [FE, F1]], FZ, "ring"),
    unchecked(SuperMatrix, [[NU, FE], [FE, F1]], FZ, "1nu"),
])
def test_group_points_reject_mismatched_shapes(build, message):
    if message is None:  # taken as it is
        build()
        return
    # a message names a ValueError, an exception its own type
    want = message if isinstance(message, Exception) else ValueError(message)
    with pytest.raises(type(want)) as info:
        build()
    assert str(info.value) == str(want)


def test_group_point_rejects_an_entry_from_another_lambda_r():
    # such entries used to pass; act then raised ContextMismatch and the
    # serialization round trip UnknownVariable.  _of stays unchecked.
    entries = sample_gl(2, 3, 3, random.Random(4)).entries
    with pytest.raises(ValueError) as info:
        GLPoint(2, 3, 2, entries)
    assert str(info.value) == "entry (0,0) is in Lambda_3, not Lambda_2"
    assert GLPoint._of((2, 3), (2, 3), entries, gn(2, 0)).r == 2


def test_action_gluing_suites_pass():
    assert verify_action_gluing(0, 1, 1, 2, r=2, samples=25, seed=1).ok
    assert verify_action_gluing(0, 1, 1, 2, r=4, samples=10, seed=1).ok
    assert verify_action_gluing(1, 2, 2, 3, r=2, samples=15, seed=1).ok


def test_action_axiom_suites_pass():
    rep = verify_action_axioms(0, 1, 1, 2, r=2, samples=20, seed=2)
    assert rep.ok
    names = {r.check for r in rep.results}
    assert names == {"axiom-unit", "axiom-associativity", "axiom-inverse"}


def test_trivial_quadruple_reduces_to_one_leg():
    rng = random.Random(6)
    X = point_x2()
    P = sample_gl(1, 2, 2, rng)
    direct = act(X, P, target=C2)
    via = point_transition(act(X, P, target=C2), C2)
    assert direct == via


def _outcome(normalize):
    try:
        return normalize()
    except (MinorNotInvertible, NotInvertible):
        return "singular"
    except NoOddGenerators:
        return "no odd generators"
    except NoChartFound:
        return "no chart"


def acted_matrix(atlas, r, rng, degenerate):
    """[X]P at a random point (a standard one at r = 0, whose label has no
    odd unit for the product to resolve); `degenerate` strips the body off
    one column, so that every minor selecting it is singular."""
    charts = atlas.charts if r else atlas.standard_charts
    X = sample_point(rng.choice(charts), r, rng)
    W = _acted_matrix(X, sample_gl(atlas.m, atlas.n, r, rng))
    if degenerate:
        c = rng.randrange(atlas.m + atlas.n)
        for row in W:
            row[c] = row[c] - GrassmannNumber.scalar(r, row[c].body())
    return W


@pytest.mark.parametrize("dims", [(1, 2, 2, 3), (2, 1, 3, 2), (2, 2, 3, 3)])
@given(st.integers(0, 4), st.integers(0, 10**6), st.booleans())
@settings(max_examples=10, deadline=None)
def test_acted_points_match_the_grid_normalizer(dims, r, seed, degenerate):
    # the plain pasting system of every chart, filled with [X]P, against the
    # normalization of the grid itself: the same point, or the same failure
    atlas = get_atlas(*dims)
    W = acted_matrix(atlas, r, random.Random(seed), degenerate)
    for dst in atlas.charts:
        want = _outcome(lambda: GrassPoint(dst, r, grid_normalize(W, dst)))
        assert _outcome(lambda: grass_point_from_matrix(W, atlas, r, target=dst)) == want, \
            str(dst.index)
    # the untargeted search takes the first chart of act_order that admits W
    for dst in atlas.act_order:
        want = _outcome(lambda: GrassPoint(dst, r, grid_normalize(W, dst)))
        if want != "singular":
            break
    else:
        want = "no chart"
    assert _outcome(lambda: grass_point_from_matrix(W, atlas, r)) == want


def test_act_over_lambda_r_runs_the_integer_elimination_and_no_ring_solve(monkeypatch):
    # at every r, r = 0 included, an acted matrix fills the numerator rows of
    # its destination's plain pasting system and goes straight to
    # linalg.lambda_solve; on Lambda_0 a destination that needs nu raises
    eliminated = []
    lambda_solve = atlas_module.lambda_solve

    def counted(*args):
        eliminated.append(args[0])
        return lambda_solve(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("act ran atlas.ring_solve")

    monkeypatch.setattr(atlas_module, "lambda_solve", counted)
    monkeypatch.setattr(atlas_module, "ring_solve", refuse)
    rng = random.Random(19)
    atlas = get_atlas(1, 2, 2, 3)
    for r in (1, 2, 4, 0):
        X = sample_point(rng.choice(atlas.standard_charts), r, rng)
        P = sample_gl(2, 3, r, rng)
        act(X, P)
        for dst in atlas.charts:
            try:
                act(X, P, target=dst)
            except MinorNotInvertible:
                pass
            except NoOddGenerators:
                assert r == 0
    assert set(eliminated) == {0, 1, 2, 4}


# ---------------------------------------------------------------------------
# transitivity
# ---------------------------------------------------------------------------


BASE = BasePoint([], [[1, 0]], m=1)


def test_witness_for_the_base_point_itself_is_accepted():
    base_pt = BASE.as_point(2)
    V = transitivity_witness(base_pt, BASE)
    assert act(base_pt, V, target=base_pt.chart) == base_pt


def test_witness_moves_a_soulful_point_exactly():
    W = GrassPoint(C1, 2, {"x1": gn(2, 3) + theta(2, 1) * theta(2, 2),
                           "e1": theta(2, 1)})
    V = transitivity_witness(W, BASE)
    assert act(BASE.as_point(2), V, target=C1) == W


def test_witnesses_for_random_points_over_lambda_4():
    rep = verify_transitivity(0, 1, 1, 2, r=4, count=50, seed=12, base=BASE)
    assert rep.ok
    assert rep.results[0].samples == 50


def test_rank_deficient_base_is_rejected():
    with pytest.raises(RankDeficient):
        BasePoint([], [[0, 0]], m=1)
    with pytest.raises(RankDeficient):
        BasePoint([[1, 2], [2, 4]], [[1]], n=1)


# ---------------------------------------------------------------------------
# stabilizer
# ---------------------------------------------------------------------------


def test_identity_is_in_the_stabilizer():
    assert stabilizer_membership(GLPoint.identity(1, 2, 2), BASE)


def test_a_witness_moving_the_base_point_is_not_in_the_stabilizer():
    W = point_x2()
    V = transitivity_witness(W, BASE)
    assert not stabilizer_membership(V, BASE)


def test_row_space_preserving_block_matrix_stabilizes():
    one, zero = gn(2, 1), GrassmannNumber(2, {})
    P = GLPoint(1, 2, 2, [[gn(2, 2), zero, zero],
                          [zero, gn(2, 3), zero],
                          [zero, one, one]])
    assert stabilizer_membership(P, BASE)


def test_stabilizer_is_closed_under_product_and_inverse():
    one, zero = gn(2, 1), GrassmannNumber(2, {})
    P = GLPoint(1, 2, 2, [[gn(2, 2), zero, zero],
                          [zero, gn(2, 3), zero],
                          [zero, one, one]])
    Q = GLPoint(1, 2, 2, [[gn(2, 1), zero, zero],
                          [zero, gn(2, -2), zero],
                          [zero, gn(2, 5), one]])
    assert stabilizer_membership(Q, BASE)
    assert stabilizer_membership(P * Q, BASE)
    assert stabilizer_membership(P.inv(), BASE)


def test_a_group_point_whose_action_leaves_the_base_chart_is_not_in_the_stabilizer():
    # swapping the odd columns moves the base point into chart {}|{2}, at a
    # point outside the overlap with the base chart: the hop back is undefined
    one, zero = gn(2, 1), GrassmannNumber(2, {})
    swap = GLPoint(1, 2, 2, [[one, zero, zero], [zero, zero, one], [zero, one, zero]])
    base = BASE.as_point(2)
    moved = act(base, swap)
    assert moved.chart != base.chart
    with pytest.raises(MinorNotInvertible):
        point_transition(moved, base.chart)
    assert not stabilizer_membership(swap, BASE)
