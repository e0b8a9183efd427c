import random

import pytest
from sympy.external.gmpy import MPQ

from nugrass.errors import MinorNotInvertible, RankDeficient
from nugrass.superalgebra import GrassmannNumber
from nugrass.atlas import GrassPoint, get_atlas, point_transition
from nugrass.action import (
    BasePoint,
    GLPoint,
    act,
    sample_gl,
    stabilizer_membership,
    transitivity_witness,
    verify_action_axioms,
    verify_action_gluing,
    verify_transitivity,
)


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


def test_gl_serialization_round_trip():
    rng = random.Random(2)
    P = sample_gl(2, 1, 2, rng)
    assert GLPoint.from_dict(P.to_dict()) == P


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
