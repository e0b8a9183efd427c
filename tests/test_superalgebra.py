import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st
from sympy import QQ
from sympy.external.gmpy import MPQ

from nugrass.errors import (
    ContextMismatch,
    NameClash,
    NoOddGenerators,
    UnknownVariable,
    ZeroBody,
)
from nugrass.superalgebra import (
    EVEN,
    ODD,
    FlatFraction,
    GeneratorContext,
    GrassmannNumber,
    RationalFunction,
    SuperFunction,
    _exact,
    _get_ring,
    _layout,
    _product_kernel,
    _sign_table,
    flat_dot,
    flat_lincomb,
    flat_partial,
    from_flat,
    lambda_sample,
    mono_sign,
)
from paper_reference import eval_rational, to_flat

CTX = GeneratorContext(("x", "y"), ("e1", "e2"))


def rf(q):
    return RationalFunction.from_rat(CTX.even_names, q)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def test_rational_canonical_form_cancels_and_makes_denominator_monic():
    x = RationalFunction.gen(("x", "y"), "x")
    y = RationalFunction.gen(("x", "y"), "y")
    two = RationalFunction.from_rat(("x", "y"), 2)
    a = (x * x - y * y) * (two * (x + y)).inv()
    assert a == (x - y) * two.inv()
    assert a.den.LC == 1
    b = rf(1) * (rf(3) * x).inv()
    assert b.den.LC == 1


def test_rational_arithmetic_and_diff():
    x = RationalFunction.gen(("x", "y"), "x")
    y = RationalFunction.gen(("x", "y"), "y")
    q = (x + y) * (x - y).inv()
    assert q * (x - y) == x + y
    d = q.diff("x")
    # quotient rule: ((x-y) - (x+y)) / (x-y)^2 = -2y/(x-y)^2
    expected = (rf(-2) * y) * ((x - y) * (x - y)).inv()
    assert d == expected
    with pytest.raises(UnknownVariable):
        q.diff("z")


def test_rational_eval_at_a_point():
    x = RationalFunction.gen(("x", "y"), "x")
    y = RationalFunction.gen(("x", "y"), "y")
    q = (x * x + rf(3) * y) * (x - y).inv()
    assert eval_rational(q, {"x": 2, "y": 1}) == MPQ(7)
    with pytest.raises(ZeroDivisionError):
        eval_rational(q, {"x": 1, "y": 1})


_coefficients = st.builds(MPQ, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def _rational_functions(draw, names, polynomial):
    """A canonical value over ``names``, built by the generic gcd route;
    ``polynomial`` picks a denominator of one or a nonconstant one.  A
    polynomial is sometimes a constant, 0, 1 and -1 among them."""
    R = _get_ring(names)
    if polynomial and draw(st.booleans()):
        q = draw(st.one_of(st.sampled_from([MPQ(0), MPQ(1), MPQ(-1)]), _coefficients))
        return RationalFunction(names, R(QQ(q.numerator, q.denominator)), R.one)
    monomials = st.tuples(*[st.integers(0, 2)] * len(names))

    def poly(min_size):
        terms = draw(st.dictionaries(monomials, _coefficients, min_size=min_size, max_size=4))
        return R.from_dict({e: QQ(c.numerator, c.denominator) for e, c in terms.items() if c})

    num = poly(0)
    if polynomial:
        return RationalFunction(names, num, R.one)
    den = poly(1)
    assume(not den.is_ground)
    return RationalFunction(names, num, den)


def _assert_canonical_equal(got, names, num, den):
    want = RationalFunction(names, num, den)
    assert (got.num, got.den) == (want.num, want.den)


@pytest.mark.parametrize("a_poly,b_poly", [(True, True), (True, False), (False, True), (False, False)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_polynomial_fast_path_matches_the_gcd_route(a_poly, b_poly, data):
    names = data.draw(st.sampled_from([("x",), ("x", "y"), ("x", "y", "z")]))
    a = data.draw(_rational_functions(names, a_poly))
    b = data.draw(_rational_functions(names, b_poly))
    q = data.draw(st.one_of(st.sampled_from([MPQ(0), MPQ(1), MPQ(-1)]), _coefficients))
    _assert_canonical_equal(a + b, names, a.num * b.den + b.num * a.den, a.den * b.den)
    _assert_canonical_equal(a - b, names, a.num * b.den - b.num * a.den, a.den * b.den)
    _assert_canonical_equal(a * b, names, a.num * b.num, a.den * b.den)
    _assert_canonical_equal(-a, names, -a.num, a.den)
    _assert_canonical_equal(a.scale(q), names, a.num.mul_ground(QQ(q.numerator, q.denominator)), a.den)
    R = _get_ring(names)
    for name, x in zip(names, R.gens):
        _assert_canonical_equal(
            a.diff(name), names, a.num.diff(x) * a.den - a.num * a.den.diff(x), a.den * a.den
        )


# ---------------------------------------------------------------------------
# the structure ring
# ---------------------------------------------------------------------------


def test_odd_generators_anticommute_and_square_to_zero():
    e1, e2 = CTX.gen("e1"), CTX.gen("e2")
    assert e1 * e2 == -(e2 * e1)
    assert (e1 * e1).is_zero()
    assert (e1 * e2).parity() == EVEN


def test_product_expansion_with_nilpotents():
    x, y = CTX.gen("x"), CTX.gen("y")
    e12 = CTX.gen("e1") * CTX.gen("e2")
    lhs = (x + e12) * (y + e12)
    assert lhs == x * y + (x + y) * e12


def test_inverse_of_unit_plus_nilpotent():
    x = CTX.gen("x")
    e12 = CTX.gen("e1") * CTX.gen("e2")
    assert x.inv() * x == CTX.one()
    u = CTX.one() + e12
    assert u.inv() == CTX.one() - e12
    assert u * u.inv() == CTX.one()
    with pytest.raises(ZeroBody):
        CTX.gen("e1").inv()


def test_nu_on_one_odd_generator_matches_the_defining_example():
    ctx = GeneratorContext(("x",), ("e",))
    assert ctx.one().nu() == ctx.gen("e")
    assert ctx.gen("e").nu() == ctx.one()
    f = ctx.gen("x")
    assert (f * ctx.gen("e")).nu() == f


def test_nu_toggles_first_generator_without_signs():
    x = CTX.gen("x")
    e1, e2 = CTX.gen("e1"), CTX.gen("e2")
    assert (x * e2).nu() == x * e1 * e2
    assert (e1 * e2).nu() == e2
    ctx0 = GeneratorContext(("x",), ())
    with pytest.raises(NoOddGenerators):
        ctx0.one().nu()


def test_partial_derivatives():
    x = CTX.gen("x")
    e1, e2 = CTX.gen("e1"), CTX.gen("e2")
    assert (x * x * e1).partial("x") == x.scale(2) * e1
    assert (e1 * e2).partial("e1") == e2
    assert (e1 * e2).partial("e2") == -e1
    with pytest.raises(UnknownVariable):
        x.partial("nope")


def test_adjoined_parameters_square_to_zero_and_extract():
    # square-zero parameters are trailing odd generators of a context
    ctx2 = GeneratorContext(CTX.even_names, CTX.odd_names + ("t1", "t2"))
    t1, t2 = ctx2.gen("t1"), ctx2.gen("t2")
    assert (t1 * t1).is_zero()
    eps = t1 * t2
    assert eps.parity() == EVEN
    assert (eps * eps).is_zero()
    a = ctx2.gen("x")
    b = ctx2.gen("e1") + ctx2.gen("y")
    combo = a + t1 * b
    assert combo.partial("t1") == b
    # the involution toggles only the first odd generator, never a trailing one
    assert t1.nu() == ctx2.gen("e1") * t1
    with pytest.raises(NameClash):
        GeneratorContext(CTX.even_names, CTX.odd_names + ("x",))


def test_context_mismatch_is_rejected():
    other = GeneratorContext(("x", "y"), ("e1", "e2", "e3"))
    with pytest.raises(ContextMismatch):
        CTX.gen("x") * other.gen("x")


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


def random_superfunction(rng, ctx=CTX, nonzero_body=False):
    terms = {}
    for mask in range(1 << len(ctx.odd_names)):
        c = rng.randint(-3, 3)
        if mask == 0 and nonzero_body:
            while c == 0:
                c = rng.randint(-3, 3)
        if c:
            terms[mask] = RationalFunction.from_rat(ctx.even_names, c)
    return SuperFunction(ctx, terms)


def homogeneous_part(a, parity):
    return SuperFunction(a.ctx, {m: c for m, c in a.terms.items() if m.bit_count() & 1 == parity})


@given(st.integers(0, 10**6), st.sampled_from([EVEN, ODD]), st.sampled_from([EVEN, ODD]))
@settings(max_examples=60, deadline=None)
def test_supercommutativity(seed, pa, pb):
    rng = random.Random(seed)
    a = homogeneous_part(random_superfunction(rng), pa)
    b = homogeneous_part(random_superfunction(rng), pb)
    lhs = a * b
    rhs = b * a
    if pa and pb:
        assert lhs == -rhs
    else:
        assert lhs == rhs


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_inverse_multiplies_back_to_one(seed):
    rng = random.Random(seed)
    a = random_superfunction(rng, nonzero_body=True)
    assert a * a.inv() == CTX.one()


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_multiplication_is_associative_and_distributive(seed):
    rng = random.Random(seed)
    a = random_superfunction(rng)
    b = random_superfunction(rng)
    c = random_superfunction(rng)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_nu_is_a_parity_flipping_involution(seed):
    rng = random.Random(seed)
    a = random_superfunction(rng)
    assert a.nu().nu() == a
    h = homogeneous_part(a, EVEN)
    if not h.is_zero():
        assert h.nu().parity() == ODD
    c = CTX.gen("x") + CTX.gen("y").inv()
    assert (c * a).nu() == c * a.nu()


@given(st.integers(0, 10**6), st.sampled_from(["x", "e1", "e2"]),
       st.sampled_from([EVEN, ODD]))
@settings(max_examples=60, deadline=None)
def test_leibniz_rule(seed, v, pa):
    rng = random.Random(seed)
    a = homogeneous_part(random_superfunction(rng), pa)
    b = random_superfunction(rng)
    pv = ODD if v.startswith("e") else EVEN
    lhs = (a * b).partial(v)
    sign = -1 if (pv and pa) else 1
    rhs = a.partial(v) * b + (a * b.partial(v)).scale(sign)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# finite Grassmann algebras
# ---------------------------------------------------------------------------


def test_grassmann_arithmetic_and_nilpotency():
    t1, t2 = GrassmannNumber.theta(3, 1), GrassmannNumber.theta(3, 2)
    assert t1 * t2 == -(t2 * t1)
    a = GrassmannNumber.scalar(3, 2) + t1 * t2 + GrassmannNumber.theta(3, 3)
    s = a - GrassmannNumber.scalar(3, a.body())
    power = GrassmannNumber.scalar(3, 1)
    for _ in range(4):
        power = power * s
    assert power.is_zero()


def test_grassmann_inverse_and_nu():
    rng = random.Random(5)
    for _ in range(50):
        a = lambda_sample(3, EVEN, rng)
        assert a * a.inv() == GrassmannNumber.scalar(3, 1)
    g = lambda_sample(3, ODD, rng)
    assert g.nu().nu() == g
    with pytest.raises(ZeroBody):
        GrassmannNumber.theta(2, 1).inv()


# every exact rational the kernel accepts, and the value _exact keeps
EXACT = [(3, 3), (True, 1), (Fraction(6, 3), 2), (Fraction(-1, 2), Fraction(-1, 2)),
         (MPQ(4, 2), 2), (MPQ(-1, 3), Fraction(-1, 3)), ("1/10", Fraction(1, 10)),
         (" -7 ", -7)]


@pytest.mark.parametrize("q, want", EXACT)
def test_exact_keeps_ints_and_fractions(q, want):
    got = _exact(q)
    assert got == want and type(got) is type(want)


@pytest.mark.parametrize("q", [1.5, 2.0, complex(1, 0), None, [1], "x/2"])
def test_exact_refuses_what_is_not_an_exact_rational(q):
    with pytest.raises((TypeError, ValueError)):
        _exact(q)


@pytest.mark.parametrize("q, want", EXACT)
def test_every_exact_rational_scales_and_builds_a_grassmann_number(q, want):
    t = GrassmannNumber.theta(2, 1)
    scaled = GrassmannNumber(2, {1: want})
    assert GrassmannNumber(2, {1: q}) == GrassmannNumber.scalar(2, q) * t == scaled
    if not isinstance(q, str):  # a scalar operand is a number, not its text
        assert t * q == q * t == scaled
    assert type(scaled.body()) is Fraction and dict(scaled.terms) == {1: want}


@pytest.mark.parametrize("q", [1.5, 2.0, "1/2", None, complex(1, 0)])
def test_a_grassmann_number_refuses_an_inexact_scalar_with_type_error(q):
    t = GrassmannNumber.theta(2, 1)
    with pytest.raises(TypeError):
        t * q
    with pytest.raises(TypeError):
        q * t
    if not isinstance(q, str):
        with pytest.raises(TypeError):
            GrassmannNumber(2, {1: q})
        with pytest.raises(TypeError):
            GrassmannNumber.scalar(2, q)


@given(st.integers(0, 10**6), st.sampled_from([2, 3]))
@settings(max_examples=60, deadline=None)
def test_grassmann_subtraction_matches_adding_the_negation(seed, r):
    rng = random.Random(seed)
    a = lambda_sample(r, EVEN, rng) + lambda_sample(r, ODD, rng)
    b = lambda_sample(r, rng.choice([EVEN, ODD]), rng)
    for x, y in ((a, b), (b, a), (a, a + b), (a, a), (a, GrassmannNumber(r, {}))):
        d = x - y
        assert d == x + (-y)
        assert all(d.terms.values())
    assert (a - a).terms == {}
    with pytest.raises(ContextMismatch):
        a - GrassmannNumber.scalar(r + 1, 1)


def test_lambda_sample_is_deterministic_and_parity_homogeneous():
    a = lambda_sample(2, EVEN, 99)
    b = lambda_sample(2, EVEN, 99)
    assert a == b
    assert a.body() != 0
    g = lambda_sample(2, ODD, 99)
    assert g.parity() == ODD
    c = lambda_sample(0, EVEN, 1)
    assert c.body() != 0 and (c - GrassmannNumber.scalar(0, c.body())).is_zero()


def _randint_sample(r, parity, rng, lo, hi):
    """The numerators lambda_sample drew through random.Random.randint."""
    num = [0] * (1 << r)
    masks = _layout(r).by_parity[parity]
    while masks and not any(num):
        for mask in masks:
            c = rng.randint(lo, hi)
            if mask == 0:
                while c == 0:
                    c = rng.randint(lo, hi)
            num[mask] = c
    return tuple(num)


@pytest.mark.parametrize("lo, hi", [(-3, 3), (-2, 2), (0, 3), (-4, 3)])
def test_lambda_sample_draws_what_randint_draws(lo, hi):
    # lambda_sample reads getrandbits with randint's rejection rule inlined:
    # every seeded report rests on it drawing the same values from the same
    # bits, and leaving the stream where randint would
    for seed in range(150):
        ours, theirs = random.Random(seed), random.Random(seed)
        for r in range(5):
            for parity in (EVEN, ODD, EVEN):
                assert lambda_sample(r, parity, ours, lo, hi).num == \
                    _randint_sample(r, parity, theirs, lo, hi), (seed, r, parity)
                assert ours.getstate() == theirs.getstate()


def test_lambda_sample_rejects_a_range_without_a_nonzero_integer():
    # these used to redraw zeros forever
    for r, parity in [(0, EVEN), (1, EVEN), (1, ODD), (3, EVEN), (3, ODD)]:
        with pytest.raises(ValueError, match=r"\[0, 0\] holds no nonzero integer"):
            lambda_sample(r, parity, 5, lo=0, hi=0)
    # Lambda_0 has no odd slot, so its odd sample is 0 without a draw
    assert lambda_sample(0, ODD, 5, lo=0, hi=0).is_zero()
    assert lambda_sample(2, EVEN, 5, lo=0, hi=1).body() == 1


def test_mono_sign_counts_transpositions():
    # e2 * e1 needs one transposition
    assert mono_sign(0b10, 0b01) == -1
    assert mono_sign(0b01, 0b10) == 1
    assert mono_sign(0b101, 0b010) == -1  # e1e3 * e2: one swap past e3


def _bubble_sign(a, b):
    """The sign of e_a * e_b by bubble-sorting the generator list of a then
    b and counting the swaps; 0 where a and b share a generator."""
    if a & b:
        return 0
    gens = [i for i in range(a.bit_length()) if a >> i & 1]
    gens += [i for i in range(b.bit_length()) if b >> i & 1]
    swaps = 0
    for end in range(len(gens) - 1, 0, -1):
        for i in range(end):
            if gens[i] > gens[i + 1]:
                gens[i], gens[i + 1] = gens[i + 1], gens[i]
                swaps += 1
    return -1 if swaps & 1 else 1


@pytest.mark.parametrize("r", range(7))
def test_the_koszul_sign_and_its_table_match_a_bubble_sort(r):
    table = _sign_table(r)
    for a in range(1 << r):
        for b in range(1 << r):
            want = _bubble_sign(a, b)
            assert table[a][b] == want, (a, b)
            if want:
                assert mono_sign(a, b) == want, (a, b)


def test_nu_on_lambda_0_raises_no_odd_generators():
    with pytest.raises(NoOddGenerators):
        _layout(0).nu((1,))
    with pytest.raises(NoOddGenerators):
        GrassmannNumber.scalar(0, 3).nu()


# ---------------------------------------------------------------------------
# the integer layout of GrassmannNumber against the MPQ-dict reference
# ---------------------------------------------------------------------------


class _MPQGrassmann:
    """The MPQ-dict Lambda_r arithmetic GrassmannNumber used before it moved
    to integer numerators over one denominator; the oracle of the tests
    below."""

    def __init__(self, r, terms):
        self.r = r
        self.terms = {m: MPQ(c) for m, c in terms.items() if c}

    def body(self):
        return self.terms.get(0, MPQ(0))

    def soul(self):
        return _MPQGrassmann(self.r, {m: c for m, c in self.terms.items() if m})

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, MPQ(0)) + c
        return _MPQGrassmann(self.r, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _MPQGrassmann(self.r, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, MPQ)):
            return _MPQGrassmann(self.r, {m: c * MPQ(other) for m, c in self.terms.items()})
        out = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if not ma & mb:
                    m = ma | mb
                    out[m] = out.get(m, MPQ(0)) + ca * cb * mono_sign(ma, mb)
        return _MPQGrassmann(self.r, out)

    def inv(self):
        b = self.body()
        if not b:
            raise ZeroBody("zero body")
        binv = MPQ(1) / b
        minus_n = _MPQGrassmann(self.r, {m: -c * binv for m, c in self.terms.items() if m})
        result = power = _MPQGrassmann(self.r, {0: MPQ(1)})
        for _ in range(self.r):
            power = power * minus_n
            result = result + power
        return result * binv

    def nu(self):
        return _MPQGrassmann(self.r, {m ^ 1: c for m, c in self.terms.items()})

    def to_dict(self):
        return {",".join(str(i + 1) for i in range(self.r) if m >> i & 1): str(c)
                for m, c in sorted(self.terms.items())}

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for mask in sorted(self.terms):
            c = self.terms[mask]
            gens = "*".join(f"O{i+1}" for i in range(self.r) if mask >> i & 1)
            parts.append(str(c) if not gens else gens if c == 1 else f"({c})*{gens}")
        return " + ".join(parts)


_big = st.integers(-10**30, 10**30)
_rationals = st.one_of(
    st.integers(-6, 6),
    st.builds(MPQ, st.integers(-6, 6), st.integers(1, 12)),
    # large numerators and denominators, negative denominators included
    st.builds(MPQ, _big, _big.filter(bool)),
    st.builds(MPQ, st.integers(-4, 4), st.sampled_from([-(2**61 - 1), -36, 10**18, 3**40])),
)


@st.composite
def _grassmann_operands(draw, count=2, max_r=4):
    """`count` coefficient dicts for one r in 0..max_r, zeros and empty dicts
    included."""
    r = draw(st.integers(0, max_r))
    masks = st.integers(0, (1 << r) - 1)

    def coefficients():
        terms = draw(st.dictionaries(masks, st.one_of(st.just(0), _rationals), max_size=1 << r))
        if draw(st.booleans()):  # often give a nonzero body, so inv has work to do
            terms[0] = draw(_rationals.filter(bool))
        return terms

    return (r, *(coefficients() for _ in range(count)))


def _assert_canonical(g):
    assert isinstance(g.den, int) and g.den >= 1
    assert type(g.num) is tuple and len(g.num) == 1 << g.r
    assert all(isinstance(c, int) for c in g.num)
    # the nonzero slots are exactly the masks the public view shows
    assert {m for m, c in enumerate(g.num) if c} == set(g.terms)
    assert gcd(g.den, *g.num) == 1
    assert any(g.num) or g.den == 1


def _assert_matches(g, ref):
    _assert_canonical(g)
    assert dict(g.terms) == ref.terms
    assert g.to_dict() == ref.to_dict()
    assert repr(g) == repr(ref)
    assert g.body() == ref.body() and type(g.body()) is Fraction
    assert all(type(c) is Fraction for c in g.terms.values())
    assert g.is_zero() == (not ref.terms)


@given(_grassmann_operands(3, max_r=6), st.one_of(st.just(0), _rationals))
@settings(max_examples=300, deadline=None)
def test_integer_layout_matches_the_mpq_reference(operands, q):
    r, ta, tb, tc = operands
    a, b, c = GrassmannNumber(r, ta), GrassmannNumber(r, tb), GrassmannNumber(r, tc)
    ra, rb, rc = _MPQGrassmann(r, ta), _MPQGrassmann(r, tb), _MPQGrassmann(r, tc)
    _assert_matches(a, ra)
    _assert_matches(b, rb)
    _assert_matches(a + b, ra + rb)
    _assert_matches(a - b, ra - rb)
    _assert_matches(a * b, ra * rb)
    _assert_matches(b * a, rb * ra)
    _assert_matches(-a, -ra)
    _assert_matches(a - GrassmannNumber.scalar(r, a.body()), ra.soul())
    _assert_matches(a * q, ra * q)
    _assert_matches(q * a, ra * q)
    _assert_matches(c.add_product(a, b), rc + ra * rb)
    _assert_matches(c.add_product(a, b, -1), rc - ra * rb)
    _assert_matches(GrassmannNumber(r, {}).add_product(b, a, -1), -(rb * ra))
    if r:
        _assert_matches(a.nu(), ra.nu())
    if ra.body():
        _assert_matches(a.inv(), ra.inv())
    else:
        with pytest.raises(ZeroBody):
            a.inv()


@given(_grassmann_operands())
@settings(max_examples=150, deadline=None)
def test_equal_grassmann_values_have_equal_fields_and_hashes(operands):
    r, ta, tb = operands
    a, b = GrassmannNumber(r, ta), GrassmannNumber(r, tb)
    # the same value reached by different routes and denominators
    for x, y in (((a + b) - b, a), (GrassmannNumber(r, dict((a * b).terms)), a * b),
                 (a - a, GrassmannNumber(r, {})), (-(-a), a), (a * 1, a)):
        assert x == y and hash(x) == hash(y)
        assert (x.r, x.den, x.num) == (y.r, y.den, y.num)
    assert GrassmannNumber(r, {}).den == 1 and GrassmannNumber(r, {0: 0}).num == (0,) * (1 << r)
    # and different values differ, also when only the denominator does
    assert (a * MPQ(1, 2) == a) == a.is_zero()
    assert (a == b) == (dict(a.terms) == dict(b.terms))


def _loop_product(r, x, y):
    """The sign-table double loop that multiplied numerator dicts before the
    generated kernel; the reference of the test below."""
    signs = _sign_table(r)
    out = {}
    for ma, ca in x.items():
        for mb, cb in y.items():
            s = signs[ma][mb]
            if s:
                out[ma | mb] = out.get(ma | mb, 0) + s * ca * cb
    return {m: c for m, c in out.items() if c}


def _dense(r, terms):
    """The numerator tuple of a {mask: int} dict."""
    return tuple(terms.get(m, 0) for m in range(1 << r))


@pytest.mark.parametrize("r", range(6))
def test_product_kernel_matches_the_sign_table_loop(r):
    kernel = _product_kernel(r)
    size = 1 << r
    for a in range(size):
        for b in range(size):
            want = _dense(r, _loop_product(r, {a: 2}, {b: -3}))
            assert kernel(_dense(r, {a: 2}), _dense(r, {b: -3})) == want
            assert kernel(_dense(r, {a: 2}), _dense(r, {b: -3}), _dense(r, {b: 5}), -2) == tuple(
                5 * (m == b) - 2 * c for m, c in enumerate(want))
    rng = random.Random(r)
    for _ in range(40):
        x = {m: rng.randint(-5, 5) for m in range(size)}
        y = {m: rng.randint(-5, 5) for m in rng.sample(range(size), rng.randint(0, size))}
        x = {m: c for m, c in x.items() if c}
        y = {m: c for m, c in y.items() if c}
        z = {m: rng.randint(-5, 5) for m in range(size)}
        s = rng.choice((-3, -1, 1, 2))
        X, Y, Z = _dense(r, x), _dense(r, y), _dense(r, z)
        xy = _loop_product(r, x, y)
        assert kernel(X, Y) == _dense(r, xy)
        assert kernel(Y, X) == _dense(r, _loop_product(r, y, x))
        assert kernel(X, Y, Z, s) == tuple(z[m] + s * xy.get(m, 0) for m in range(size))
        assert kernel(X, Y, _layout(r).zero, 1) == kernel(X, Y)


def _operand(rng, r, kind):
    """A random {mask: int} of one kind: "even", "odd", "zero", or "mixed"
    (an even or odd operand with one nonzero slot of the other parity)."""
    by_parity = _layout(r).by_parity
    if kind == "zero":
        return {}
    if kind == "mixed":
        p = rng.randint(0, 1)
        out = _operand(rng, r, ("even", "odd")[p])
        out[rng.choice(by_parity[1 - p])] = rng.choice((-2, -1, 1, 3))
        return out
    masks = by_parity[kind == "odd"]
    out = {}
    while masks and not out:  # sparse, but not zero
        out = {m: c for m in masks if (c := rng.choice((0, 0, -4, -1, 1, 2, 5)))}
    return out


# the four parity pairs, then a zero and a mixed operand on either side
KINDS = [(a, b) for a in ("even", "odd") for b in ("even", "odd")] + sorted(
    {(a, b) for c in ("zero", "mixed") for o in ("even", "odd", c) for a, b in ((c, o), (o, c))})


@pytest.mark.parametrize("r", range(7))
def test_product_kernel_matches_the_loop_on_every_parity_class(r):
    # homogeneous operands take the parity branches, zero ones read as either
    # parity, and an operand with slots of both parities takes the full body;
    # each must agree with the sign-table loop, with and without z
    kernel = _product_kernel(r)
    size = 1 << r
    rng = random.Random(r)
    for kinds in KINDS:
        if r == 0 and "mixed" in kinds:
            continue  # Lambda_0 has no odd slot
        for _ in range(12):
            x, y = (_operand(rng, r, kind) for kind in kinds)
            X, Y = _dense(r, x), _dense(r, y)
            xy = _dense(r, _loop_product(r, x, y))
            assert kernel(X, Y) == xy, kinds
            assert kernel(X, Y, None, rng.choice((-3, -1, 1, 2))) == xy, kinds
            for z in (_layout(r).zero, tuple(rng.randint(-5, 5) for _ in range(size))):
                for s in (-3, -1, 1, 2):
                    assert kernel(X, Y, z, s) == tuple(c + s * p for c, p in zip(z, xy)), kinds


def test_the_suites_multiply_only_homogeneous_operands(monkeypatch):
    # the parity branches of the kernel are the fast path only while every
    # product the suites make has homogeneous operands (zero counts as either
    # parity); a mixed operand would still be right, only slower.  The
    # cocycle hops run the generated solves, which keep only the slots of
    # each entry's parity and give way where an input has a slot of the
    # other: no numerator hop may give way for that, and most must be
    # solved there
    from nugrass import atlas, superalgebra
    from nugrass.action import verify_action_gluing
    from nugrass.atlas import verify_cocycle

    build = superalgebra._product_kernel
    operands, solved, guarded = [], [], []

    def spy(r):
        kernel = build(r)

        def counted(x, y, *rest):
            operands.append((r, x, y))
            return kernel(x, y, *rest)
        return counted

    hop = atlas.HopPlan._numerator_hop

    def watched(plan, r, nums, dens, at):
        # the value of each source coordinate, nu undone where at flags it
        parity, nu = plan.src.coord_parity, _layout(r).nu
        for name, (i, flag) in at.items():
            num = nu(nums[i]) if flag else nums[i]
            if any(num[m] for m in _layout(r).by_parity[1 - parity[name]]):
                guarded.append(name)
        out = hop(plan, r, nums, dens, at)
        solved.append(out is not None)
        return out

    monkeypatch.setattr(superalgebra, "_product_kernel", spy)
    monkeypatch.setattr(atlas.HopPlan, "_numerator_hop", watched)
    counts = []
    for suite in (lambda: verify_action_gluing(1, 2, 2, 3, r=4, samples=5),
                  lambda: verify_cocycle(1, 2, 2, 3, r=2, samples=2)):
        assert suite().ok
        counts.append(len(operands) - sum(counts))
    assert counts[0] > 100  # the cocycle's products are the fallbacks' (13 here)
    assert not guarded and sum(solved) > 100
    for r, x, y in operands:
        for v in (x, y):
            assert not all(any(v[m] for m in masks) for masks in _layout(r).by_parity), (r, v)


@pytest.mark.parametrize("r", range(7))
def test_every_numerator_tuple_has_one_slot_per_mask(r):
    rng = random.Random(r)
    a = lambda_sample(r, EVEN, rng)
    g = lambda_sample(r, ODD, rng)
    x = GrassmannNumber(r, {(1 << r) - 1: MPQ(2, 3), 0: 1})
    values = [a, g, x, a + g, a - x, a * g, -g, a * MPQ(3, 4), a.inv(), x.inv(),
              a - GrassmannNumber.scalar(r, a.body()),
              x.add_product(a, g, -1), GrassmannNumber(r, {}), GrassmannNumber.scalar(r, 5),
              a.ring_zero(), a.ring_one(), GrassmannNumber(r, dict(x.terms)),
              lambda_sample(r, ODD, 1) * lambda_sample(r, ODD, 2)]
    if r:
        values += [a.nu(), GrassmannNumber.theta(r, r)]
    for v in values:
        assert type(v.num) is tuple and len(v.num) == 1 << r


def test_add_product_keeps_the_context_check():
    with pytest.raises(ContextMismatch):
        GrassmannNumber(2, {}).add_product(GrassmannNumber(2, {0: 1}), GrassmannNumber(3, {0: 1}))
    with pytest.raises(ContextMismatch):
        GrassmannNumber(3, {}).add_product(GrassmannNumber(2, {0: 1}), GrassmannNumber(2, {0: 1}))


def test_superfunction_add_product_is_the_plain_sum_or_difference():
    x, e1, e2 = CTX.gen("x"), CTX.gen("e1"), CTX.gen("e2")
    f = x + e1 * e2
    assert f.add_product(e1, e2) == f + e1 * e2
    assert f.add_product(e1, e2, -1) == f - e1 * e2 == x
    assert CTX.zero().add_product(x, x) == x * x


def test_grassmann_terms_is_a_read_only_view():
    a = GrassmannNumber(2, {0: MPQ(1, 2), 3: 3})
    assert (a.num, a.den) == ((1, 0, 0, 6), 2)
    with pytest.raises(TypeError):
        a.terms[1] = MPQ(1)
    assert a.terms == {0: MPQ(1, 2), 3: MPQ(3)}


@pytest.mark.parametrize("terms", [{4: 1, 0: 1}, {-1: 1}, {8: 0}, {0: 1, 7: MPQ(1, 2)}])
def test_grassmann_constructor_rejects_masks_outside_lambda_r(terms):
    with pytest.raises(UnknownVariable):
        GrassmannNumber(2, terms)


# ---------------------------------------------------------------------------
# the flat layout of polynomial elements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("beta", range(5))
def test_the_flat_product_matches_superfunction_mul_on_every_mask_pair(beta):
    # x e_a * y e_b: the key (a | b, (1, 1)) and the sign of the bubble sort,
    # or nothing where a and b overlap; the same as SuperFunction.__mul__
    ctx = GeneratorContext(("x", "y"), tuple(f"e{i}" for i in range(1, beta + 1)))
    x, y = (RationalFunction.gen(ctx.even_names, v) for v in ("x", "y"))
    for a in range(1 << beta):
        for b in range(1 << beta):
            f, g = SuperFunction(ctx, {a: x}), SuperFunction(ctx, {b: y})
            sign = _bubble_sign(a, b)
            got = flat_dot([(1, to_flat(f), to_flat(g))])
            assert got == ({(a | b, (1, 1)): sign} if sign else {}), (a, b)
            assert got == to_flat(f * g), (a, b)
            assert flat_dot([(-3, to_flat(f), to_flat(g))]) == to_flat((f * g).scale(-3))


def test_flat_sums_drop_cancelled_terms():
    e1, e2, x = (to_flat(CTX.gen(v)) for v in ("e1", "e2", "x"))
    assert flat_dot([(1, e1, e2), (1, e2, e1)]) == {}
    assert flat_dot([(1, x, e1), (-1, e1, x)]) == {}
    assert flat_lincomb([(2, x), (1, e1), (-2, x)]) == {(1, (0, 0)): 1}
    assert flat_lincomb([(MPQ(1, 2), e1), (MPQ(-1, 2), e1)]) == {}


def test_flat_partial_and_to_flat_reject_what_they_cannot_read():
    with pytest.raises(UnknownVariable):
        flat_partial({}, CTX, "z")
    x = RationalFunction.gen(CTX.even_names, "x")
    with pytest.raises(ArithmeticError):
        to_flat(SuperFunction(CTX, {1: x.inv()}))


_flat_coefficients = st.one_of(
    st.integers(-10**20, 10**20).filter(bool),
    st.builds(MPQ, st.integers(-6, 6).filter(bool), st.integers(1, 12)),
)


@st.composite
def _flat_terms(draw, ctx=CTX):
    key = st.tuples(st.integers(0, (1 << ctx.beta) - 1),
                    st.tuples(*[st.integers(0, 3)] * len(ctx.even_names)))
    return draw(st.dictionaries(key, _flat_coefficients, max_size=6))


def _ring_element(ctx, flat):
    """The element of flat terms built by the ring's own + and *, not from_flat."""
    total = ctx.zero()
    for (mask, exp), c in flat.items():
        term = ctx.scalar(c)
        for name, k in zip(ctx.even_names, exp):
            for _ in range(k):
                term = term * ctx.gen(name)
        for i, name in enumerate(ctx.odd_names):
            if mask >> i & 1:
                term = term * ctx.gen(name)  # ascending order: no sign
        total = total + term
    return total


@given(_flat_terms())
@settings(max_examples=150, deadline=None)
def test_flat_terms_round_trip_through_superfunction(flat):
    f = _ring_element(CTX, flat)
    got = to_flat(f)
    assert got == flat
    for c in got.values():
        assert type(c) is (int if c.denominator == 1 else Fraction)
    assert from_flat(CTX, flat) == f
    assert from_flat(CTX, got) == f


@given(_flat_terms(), _flat_terms(), _flat_coefficients)
@settings(max_examples=150, deadline=None)
def test_flat_routines_match_the_superfunction_ring(a, b, q):
    fa, fb = from_flat(CTX, a), from_flat(CTX, b)
    assert flat_dot([(1, a, b)]) == to_flat(fa * fb)
    assert flat_dot([(q, a, b), (1, b, a)]) == to_flat((fa * fb).scale(q) + fb * fa)
    assert flat_lincomb([(q, a), (1, b)]) == to_flat(fa.scale(q) + fb)
    for name in CTX.even_names + CTX.odd_names:
        assert flat_partial(a, CTX, name) == to_flat(fa.partial(name))


# ---------------------------------------------------------------------------
# chart-ring elements with cleared denominators
# ---------------------------------------------------------------------------


_EXPS = st.tuples(*[st.integers(0, 2)] * len(CTX.even_names))
_EVEN_KEYS = st.tuples(st.just(0), _EXPS)  # the flat keys of an even polynomial


def _int_flat(min_size=0):
    key = st.tuples(st.integers(0, (1 << CTX.beta) - 1), _EXPS)
    return st.dictionaries(key, st.integers(-6, 6).filter(bool), min_size=min_size,
                           max_size=4)


@st.composite
def _flat_fractions(draw, body=False):
    """A FlatFraction over CTX with a nonzero denominator, its numerator
    sometimes empty and, with body=True, always with a mask-0 term."""
    num = draw(_int_flat(min_size=int(body)))
    if body and not any(m == 0 for m, _ in num):
        num[0, draw(_EXPS)] = draw(st.integers(1, 5))
    den = draw(st.dictionaries(_EVEN_KEYS, st.integers(-4, 4).filter(bool), min_size=1,
                               max_size=2))
    return FlatFraction(CTX, num, den)


def _unreduced(f, factor):
    """f with numerator and denominator multiplied by the even int
    polynomial factor (flat terms of mask 0), through flat_dot: another
    form of the same value."""
    return FlatFraction(CTX, flat_dot([(1, f.num, factor)]), flat_dot([(1, f.den, factor)]))


def _view(f):
    return from_flat(f.ctx, f.num, f.den)


@given(_flat_fractions(), _flat_fractions(), _flat_fractions(body=True),
       st.dictionaries(_EVEN_KEYS, st.integers(-3, 3).filter(bool), min_size=1, max_size=2))
@settings(max_examples=80, deadline=None)
def test_flat_fractions_match_the_superfunction_ring(a, b, c, factor):
    A, B, C = _view(a), _view(b), _view(c)
    one = a.ring_one()
    assert _view(a.add_product(one, b)) == A + B
    assert _view(a.add_product(b, c, -1)) == A - B * C
    assert _view(a * c) == A * C
    assert _view(c.inv()) == C.inv()
    assert _view(a.nu()) == A.nu()
    assert (a.is_zero(), a.has_body(), c.has_body()) == (A.is_zero(), A.has_body(), True)
    assert (a == b) == (A == B)
    # an unreduced form is the same value, whichever side compares
    u = _unreduced(a, factor)
    assert u == a and a == u and _view(u) == A
    assert (u == b) == (b == u) == (A == B)
    assert _view(u.add_product(c, c.inv())) == A + C * C.inv()


def test_flat_fraction_equality_cross_multiplies():
    one = (0, (0, 0))
    x = {(0, (1, 0)): 1}
    assert FlatFraction(CTX, x) != FlatFraction(CTX, x, {one: 2})
    assert FlatFraction(CTX, {(0, (1, 0)): 2}, {one: 2}) == FlatFraction(CTX, x)
    assert FlatFraction(CTX, {(0, (2, 0)): 1}, x) == FlatFraction(CTX, x)
    e1 = FlatFraction.gen(CTX, "e1")
    assert e1.nu() == e1.ring_one() and e1.nu().nu() == e1
    with pytest.raises(TypeError):
        hash(e1)
    with pytest.raises(ZeroBody):
        e1.inv()
    with pytest.raises(ZeroDivisionError):
        FlatFraction(CTX, x, {one: 0})
    bare = GeneratorContext(("x",), ())
    with pytest.raises(NoOddGenerators):
        FlatFraction.gen(bare, "x").nu()
    with pytest.raises(ZeroDivisionError):
        from_flat(CTX, x, {})


def test_flat_fraction_rejects_malformed_keys():
    # a mask outside e1, e2 is no monomial; a short exponent tuple used to
    # multiply as a truncated one, so x^1 * y read as x
    for mask in (4, 8, -1):
        with pytest.raises(UnknownVariable):
            FlatFraction(CTX, {(mask, (0, 0)): 1})
    for exp in ((1,), (1, 0, 0), (0, -1)):
        with pytest.raises(ValueError):
            FlatFraction(CTX, {(0, exp): 1})
        with pytest.raises(ValueError):
            FlatFraction(CTX, {(0, (0, 0)): 1}, {(0, exp): 1})
    # the denominator is an even polynomial: flat terms of mask 0 only
    with pytest.raises(ValueError):
        FlatFraction(CTX, {(0, (1, 0)): 1}, {(1, (0, 0)): 1})
    with pytest.raises(UnknownVariable):
        FlatFraction(CTX, {(0, (1, 0)): 1}, {(4, (0, 0)): 1})
    x = FlatFraction(CTX, {(0, (1, 0)): 1})
    assert x * FlatFraction.gen(CTX, "y") == FlatFraction(CTX, {(0, (1, 1)): 1})


def test_from_flat_rejects_the_keys_the_constructor_rejects():
    # a mask outside e1, e2 used to print as 1, a negative exponent as a
    # power of y**(-1), and a short exponent tuple raised a bare IndexError
    with pytest.raises(UnknownVariable):
        from_flat(CTX, {(8, (0, 0)): 1})
    for exp in ((0, -1), (1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            from_flat(CTX, {(0, exp): 1})
        with pytest.raises(ValueError):
            from_flat(CTX, {(0, (1, 0)): 1}, {(0, exp): 1})
    # a denominator is an even polynomial: e1 * y used to divide as y
    with pytest.raises(ValueError):
        from_flat(CTX, {(0, (1, 0)): 1}, {(1, (0, 1)): 1})
    # Fraction coefficients stay allowed, unlike in FlatFraction
    half = from_flat(CTX, {(2, (1, 0)): Fraction(1, 2)})
    assert half == (CTX.gen("x") * CTX.gen("e2")).scale(Fraction(1, 2))
