"""Reference routines that only the tests use.

The library evaluates a chart-ring element at a point through one ring
substitution, SuperFunction.substitute.  The routines here are independent
evaluations kept as test oracles; nothing in ``nugrass`` calls them.
"""

from sympy import QQ
from sympy.external.gmpy import MPQ

from nugrass.superalgebra import _get_ring


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
