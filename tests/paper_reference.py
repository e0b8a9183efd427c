"""Reference routines that only the tests use.

The library evaluates a chart-ring element at a point through one ring
substitution, SuperFunction.substitute, and builds a fundamental field from
its first-order formula.  The routines here are independent routes kept as
test oracles; nothing in ``nugrass`` calls them.
"""

from sympy import QQ
from sympy.external.gmpy import MPQ

from nugrass.atlas import _normalize
from nugrass.errors import InhomogeneousInput
from nugrass.nulie import ChartVectorField
from nugrass.superalgebra import EVEN, ODD, SuperFunction, _get_ring
from nugrass.supermatrix import matmul


def _poly_eval(p, pairs):
    """Evaluate a PolyElement fully; tolerates empty substitution lists."""
    if not pairs:
        return p.const()
    v = p.evaluate(pairs)
    if not isinstance(v, (MPQ, int)):
        # partially evaluated polynomial left over: constant in remaining gens
        return v.const()
    return MPQ(v)


def eval_rational(rf, assign: dict[str, object]):
    """Evaluate a RationalFunction at exact rational arguments; returns an MPQ."""
    R = _get_ring(rf.names)
    pairs = [(R.gens[i], QQ(MPQ(assign[n]).numerator, MPQ(assign[n]).denominator))
             for i, n in enumerate(rf.names)]
    d = _poly_eval(rf.den, pairs)
    if not d:
        raise ZeroDivisionError("denominator vanishes at the point")
    return MPQ(_poly_eval(rf.num, pairs)) / MPQ(d)


def eps_ring_fundamental_field(E, chart) -> ChartVectorField:
    """The fundamental field of E over the eps-ring, the Lie-correspondence
    route: act with  Id + eps*E  over the chart ring extended by square-zero
    parameters (eps = tau for odd E, tau1*tau2 for even E), renormalize into
    the same chart by the full solve, and extract the eps-linear part of
    each coordinate."""
    parity = E.parity()
    if parity is None:
        raise InhomogeneousInput("fundamental_field needs a homogeneous element")
    idx = chart.index
    m, n = idx.m, idx.n
    if (E.m, E.n) != (m, n):
        raise ValueError("element and chart have mismatched shapes")
    aux = ("t1",) if parity == ODD else ("t1", "t2")
    ctx2 = chart.ctx.adjoin_nilpotent(aux)
    eps = ctx2.gen("t1")
    if parity == EVEN:
        eps = eps * ctx2.gen("t2")
    one = ctx2.one()
    zero = ctx2.zero()
    d = m + n
    P = [
        [
            (one if i == j else zero) + eps.scale(E.coeffs.get((i + 1, j + 1), 0))
            for j in range(d)
        ]
        for i in range(d)
    ]
    # label (1 + eps E) is not the label, so the chart's unit columns are not
    # known in advance: no `units` for the solve
    W = matmul(chart.label(ctx2).entries, P, zero)
    components = {}
    for name, val in _normalize(W, chart).items():
        if parity == ODD:
            comp2 = val.partial("t1")
        else:
            comp2 = val.partial("t1").partial("t2")
        # the extracted component is parameter-free; rebuild over the chart ring
        assert all(mask < (1 << chart.beta) for mask in comp2.terms)
        components[name] = SuperFunction(chart.ctx, dict(comp2.terms))
    return ChartVectorField(chart, parity, components)


def gating_failures(report):
    """The gating checks of a report that recorded a failure."""
    return [r for r in report.results if r.gating and r.failed]
