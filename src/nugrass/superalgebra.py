"""Exact arithmetic for the structure ring of a nu-domain.

Elements are finite sums  sum_S  c_S * e_S  where each coefficient c_S is a
rational function over QQ in declared even indeterminates and e_S is a
monomial in anticommuting odd generators.  The first odd generator carries
the odd involution nu (toggle membership of e_1, left insertion, no sign).
The numerator and denominator of such a coefficient (RationalFunction) are
elements of the polynomial ring that _get_ring builds on first use, the one
import of a computer-algebra package in the kernel; nothing else here needs
one, FlatFraction included.

Finite Grassmann algebras Lambda_r over QQ (class GrassmannNumber) model the
coordinate rings of the odd probe superpoints used throughout the
verification suites.  A GrassmannNumber stores a dense tuple of 2**r
integer numerators, indexed by monomial bitmask, over one positive common
denominator in lowest terms (zero is the zero tuple over 1), so its
arithmetic runs on Python ints and equality compares the stored fields;
fractions.Fraction appears only at its boundary (constructor, ``terms``,
``body``), and every exact rational that enters goes through ``_exact``.  Its
products run through one straight-line kernel per r on those tuples, which
the inverse and the fused step ``x.add_product(a, b, sign)`` build on.  The
kernel follows the Z/2 grading of Lambda_r: a product of two homogeneous
operands computes only the slots of its parity, from the terms of its
parity pair, and any other product takes the full 3**r-term body.
linalg.lambda_solve eliminates on the same numerator tuples, with the same
kernel, inverse formula (``_inverse_num``) and reduction (``_reduced``).

A polynomial element also has a flat layout, {(odd mask, even exponent
tuple): coefficient} with int coefficients where they are integral (a
Fraction otherwise, never a float): ``flat_dot``, ``flat_lincomb``,
``flat_partial`` and ``flat_nu`` are its products, linear combinations,
partial derivatives and involution, with no chart-ring polynomial in
between; ``flat_key`` is the key of a generator or of 1.  The fundamental
fields of nulie are built and live in it.  A FlatFraction is any
chart-ring element in that layout: flat int terms over flat int terms of
mask 0 (an even polynomial), cleared but never reduced by a gcd.  The
symbolic transition maps and the plan statuses of atlas are solved on
it, without sympy, and its ``substitute`` is the one ring substitution: a
pullback along a map, or an evaluation at a Lambda_r point.  ``from_flat``
turns flat terms, over a denominator where one is given, into a canonical
SuperFunction; the printed map of ``nugrass transition`` is the one
reader of that form outside the tests.

Each rule of the Grassmann algebra is written once here: the Koszul sign
of e_a * e_b is ``mono_sign`` (the product kernel's ``_sign_table``, the
odd derivative and both flat routines read it), nu on numerator tuples is
``_layout(r).nu`` at every r and on flat terms ``flat_nu``, and a
monomial key of ``to_dict`` is ``_mask_key``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import add, index, itemgetter, neg
from types import MappingProxyType
from typing import Callable, NamedTuple

from .errors import (
    ContextMismatch,
    NameClash,
    NoOddGenerators,
    UnknownVariable,
    ZeroBody,
)

EVEN = 0
ODD = 1

@lru_cache(maxsize=None)
def _get_ring(names: tuple[str, ...]):
    """The polynomial ring over QQ in these names: the one place that loads
    sympy, so only a chart-ring RationalFunction pays for it."""
    from sympy import QQ
    from sympy.polys.rings import ring

    return ring(" ".join(names), QQ)[0]


def _exact(q) -> int | Fraction:
    """An exact rational as the kernel keeps it: an int where it is
    integral, else a Fraction.  Takes an int, a Fraction, a string such as
    "1/10", or any value with integer numerator and denominator attributes
    (the MPQ coefficients of a chart-ring polynomial); anything else, a
    float among them, raises TypeError."""
    if type(q) is int:
        return q
    if type(q) is Fraction:
        return q.numerator if q.denominator == 1 else q
    if isinstance(q, str):
        q = Fraction(q)
    try:
        num, den = index(q.numerator), index(q.denominator)
    except AttributeError:
        raise TypeError(f"{q!r} is not an exact rational") from None
    return num if den == 1 else Fraction(num, den)


@lru_cache(maxsize=None)
def mono_sign(a: int, b: int) -> int:
    """Sign of e_a * e_b for disjoint bitmask monomials (ascending order)."""
    inversions = 0
    t = 0
    bb = b
    while bb:
        if bb & 1:
            inversions += (a >> (t + 1)).bit_count()
        bb >>= 1
        t += 1
    return -1 if inversions & 1 else 1


def _mask_key(mask: int) -> str:
    """The ``to_dict`` key of a monomial bitmask: its generator numbers,
    ascending from 1, joined by commas."""
    return ",".join(str(i + 1) for i in range(mask.bit_length()) if mask >> i & 1)


class RationalFunction:
    """Quotient of multivariate polynomials over QQ in canonical form.

    Canonical means: numerator and denominator share no common factor and the
    denominator is monic under the ring's lex order, so equality of values is
    equality of representations.

    A denominator equal to the ring's one therefore marks a polynomial (a
    monic constant is one, so ``den.is_ground`` is the test), and a
    polynomial numerator over one is already canonical.  Sums, differences
    and products of two polynomials, the derivative of a polynomial and any
    nonzero rational multiple skip the gcd; every other operation goes
    through it.  A product of two polynomials one of which is a constant
    multiplies no polynomials at all: 1 gives the other operand itself, 0
    the canonical zero, and any other q a unit multiple of the numerator.
    """

    __slots__ = ("names", "num", "den")

    def __init__(self, names, num, den, _canonical=False):
        self.names = names
        if not _canonical:
            if not den:
                raise ZeroDivisionError("zero denominator")
            g = num.gcd(den)
            if g != g.ring.one:
                num = num.quo(g)
                den = den.quo(g)
            lc = den.LC
            if lc != 1:
                inv = den.ring.domain.one / lc
                num = num.mul_ground(inv)
                den = den.mul_ground(inv)
        self.num = num
        self.den = den

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rat(cls, names: tuple[str, ...], value) -> "RationalFunction":
        R = _get_ring(names)
        zero_exp = (0,) * len(names)
        q = _exact(value)
        num = R.from_dict({zero_exp: R.domain(q.numerator, q.denominator)}) if q else R.zero
        return cls(names, num, R.one, _canonical=True)

    @classmethod
    def gen(cls, names: tuple[str, ...], name: str) -> "RationalFunction":
        R = _get_ring(names)
        i = names.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(names)))
        return cls(names, R.from_dict({exp: R.domain.one}), R.one, _canonical=True)

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.names == other.names and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.names, self.num, self.den))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other):
        if self.names != other.names:
            raise ContextMismatch(f"{self.names} vs {other.names}")

    def __add__(self, other):
        self._check(other)
        if self.den.is_ground and other.den.is_ground:
            return RationalFunction(self.names, self.num + other.num, self.den, _canonical=True)
        return RationalFunction(
            self.names, self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        self._check(other)
        if self.den.is_ground and other.den.is_ground:
            return RationalFunction(self.names, self.num - other.num, self.den, _canonical=True)
        return RationalFunction(
            self.names, self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RationalFunction(self.names, -self.num, self.den, _canonical=True)

    def __mul__(self, other):
        self._check(other)
        if self.den.is_ground and other.den.is_ground:
            # values are immutable: a constant c gives c for 0, the other
            # operand p for 1, and a unit multiple of p for any other q
            for p, c in ((self, other), (other, self)):
                if c.num.is_ground:
                    q = c.num.const()
                    if q == 1:
                        return p
                    return RationalFunction(p.names, p.num.mul_ground(q), p.den,
                                            _canonical=True) if q else c
            return RationalFunction(self.names, self.num * other.num, self.den, _canonical=True)
        return RationalFunction(self.names, self.num * other.num, self.den * other.den)

    def inv(self) -> "RationalFunction":
        if not self.num:
            raise ZeroDivisionError("inverse of zero rational function")
        return RationalFunction(self.names, self.den, self.num)

    def scale(self, q) -> "RationalFunction":
        q = _exact(q)
        R = self.num.ring
        if not q:
            return RationalFunction(self.names, R.zero, R.one, _canonical=True)
        # a unit multiple of the numerator keeps the gcd 1 and the monic denominator
        return RationalFunction(
            self.names, self.num.mul_ground(R.domain(q.numerator, q.denominator)), self.den,
            _canonical=True,
        )

    def diff(self, name: str) -> "RationalFunction":
        if name not in self.names:
            raise UnknownVariable(name)
        x = _get_ring(self.names).gens[self.names.index(name)]
        dn = self.num.diff(x)
        if self.den.is_ground:
            return RationalFunction(self.names, dn, self.den, _canonical=True)
        dd = self.den.diff(x)
        return RationalFunction(
            self.names, dn * self.den - self.num * dd, self.den * self.den
        )

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        def poly_dict(p):
            return {",".join(map(str, exp)): str(c) for exp, c in sorted(p.terms())}

        return {"vars": list(self.names), "num": poly_dict(self.num), "den": poly_dict(self.den)}

    def __repr__(self):
        if self.den == _get_ring(self.names).one:
            return str(self.num)
        return f"({self.num})/({self.den})"


class GeneratorContext:
    """Declares the generators of one structure ring: even_names are the
    commuting indeterminates of the coefficient field, odd_names the
    exterior generators, the first of which carries the involution."""

    __slots__ = ("even_names", "odd_names")

    def __init__(self, even_names, odd_names):
        even_names = tuple(even_names)
        odd_names = tuple(odd_names)
        all_names = even_names + odd_names
        if len(set(all_names)) != len(all_names):
            raise NameClash(f"duplicate generator name in {all_names}")
        self.even_names = even_names
        self.odd_names = odd_names

    @property
    def beta(self) -> int:
        return len(self.odd_names)

    def __eq__(self, other):
        if not isinstance(other, GeneratorContext):
            return NotImplemented
        return self.even_names == other.even_names and self.odd_names == other.odd_names

    def __hash__(self):
        return hash((self.even_names, self.odd_names))

    def __repr__(self):
        return f"GeneratorContext(even={self.even_names}, odd={self.odd_names})"

    # -- element builders ---------------------------------------------------

    def zero(self) -> "SuperFunction":
        return SuperFunction(self, {})

    def one(self) -> "SuperFunction":
        return self.scalar(1)

    def scalar(self, q) -> "SuperFunction":
        c = RationalFunction.from_rat(self.even_names, q)
        return SuperFunction(self, {0: c} if c else {})

    def gen(self, name: str) -> "SuperFunction":
        if name in self.even_names:
            return SuperFunction(self, {0: RationalFunction.gen(self.even_names, name)})
        if name in self.odd_names:
            bit = 1 << self.odd_names.index(name)
            return SuperFunction(self, {bit: RationalFunction.from_rat(self.even_names, 1)})
        raise UnknownVariable(name)


class SuperFunction:
    """Element of the structure ring over a generator context.

    ``terms`` maps monomial bitmasks to nonzero coefficients.  The public
    constructor drops zeros; negation, nu, odd derivatives, the soul and
    nonzero rational multiples cannot make one, so they build through
    ``_sf`` without the filter.  Values are never mutated, so a sum with a
    zero operand is the other operand itself; a view from ``from_flat``
    holds its terms in a read-only mapping.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: GeneratorContext, terms: dict[int, RationalFunction]):
        """Drops zero coefficients; masks are not checked against the odd
        generators.  Sums, products and even partials build through it; the
        chart-ring work of the kernel, pullbacks and evaluations included,
        runs on flat terms and FlatFractions instead, so it serves the views
        and the tests' oracles."""
        self.ctx = ctx
        self.terms = {m: c for m, c in terms.items() if c}

    # -- inspection ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def has_body(self) -> bool:
        return 0 in self.terms  # terms hold no zero coefficient

    def body(self) -> RationalFunction:
        c = self.terms.get(0)
        if c is None:
            return RationalFunction.from_rat(self.ctx.even_names, 0)
        return c

    def parity(self):
        """0 for even, 1 for odd, None for mixed; zero counts as both."""
        if not self.terms:
            return EVEN
        parities = {m.bit_count() & 1 for m in self.terms}
        if len(parities) == 1:
            return parities.pop()
        return None

    def __eq__(self, other):
        if not isinstance(other, SuperFunction):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    # -- ring operations -----------------------------------------------------

    def _check(self, other):
        if self.ctx is not other.ctx and self.ctx != other.ctx:
            raise ContextMismatch(f"{self.ctx} vs {other.ctx}")

    def __add__(self, other):
        self._check(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = c if s is None else s + c
        return SuperFunction(self.ctx, out)

    def __sub__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            out[m] = -c if s is None else s - c
        return SuperFunction(self.ctx, out)

    def __neg__(self):
        return _sf(self.ctx, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return SuperFunction(self.ctx, {m: c * other for m, c in self.terms.items()})
        self._check(other)
        out: dict[int, RationalFunction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                if ma & mb:
                    continue
                m = ma | mb
                c = ca * cb
                if mono_sign(ma, mb) < 0:
                    c = -c
                s = out.get(m)
                out[m] = c if s is None else s + c
        return SuperFunction(self.ctx, out)

    def add_product(self, a, b, sign: int = 1) -> "SuperFunction":
        """self + sign * a * b, through the ring's own + - *."""
        return self + a * b if sign > 0 else self - a * b

    def scale(self, q) -> "SuperFunction":
        q = _exact(q)
        if not q:
            return _sf(self.ctx, {})
        return _sf(self.ctx, {m: c.scale(q) for m, c in self.terms.items()})

    def inv(self) -> "SuperFunction":
        """Exact inverse: body**-1 * sum (-soul/body)**i, finite by nilpotency."""
        b = self.terms.get(0)
        if b is None:
            raise ZeroBody("cannot invert an element with zero body")
        binv = b.inv()
        minus_n = SuperFunction(
            self.ctx, {m: -(c * binv) for m, c in self.terms.items() if m}
        )
        result = self.ctx.one()
        power = self.ctx.one()
        for _ in range(self.ctx.beta):
            power = power * minus_n
            if power.is_zero():
                break
            result = result + power
        return result * binv

    # -- structure maps ------------------------------------------------------

    def nu(self) -> "SuperFunction":
        """Odd involution: toggle membership of the first odd generator."""
        if self.ctx.beta < 1:
            raise NoOddGenerators("nu needs at least one odd generator")
        return _sf(self.ctx, {m ^ 1: c for m, c in self.terms.items()})

    def partial(self, name: str) -> "SuperFunction":
        ctx = self.ctx
        bit, _ = flat_key(ctx, name)
        if not bit:
            return SuperFunction(ctx, {m: c.diff(name) for m, c in self.terms.items()})
        return _sf(ctx, {m ^ bit: c if mono_sign(bit, m ^ bit) > 0 else -c
                         for m, c in self.terms.items() if m & bit})

    def ring_zero(self) -> "SuperFunction":
        return SuperFunction(self.ctx, {})

    def ring_one(self) -> "SuperFunction":
        return self.ctx.one()

    # -- serialization / display ---------------------------------------------

    def to_dict(self) -> dict:
        return {_mask_key(mask): self.terms[mask].to_dict() for mask in sorted(self.terms)}

    def __repr__(self):
        if not self.terms:
            return "0"
        odd = self.ctx.odd_names
        parts = []
        for mask in sorted(self.terms):
            c = repr(self.terms[mask])
            gens = "*".join(odd[i] for i in range(len(odd)) if mask >> i & 1)
            if not gens:
                parts.append(c)
            elif c == "1":
                parts.append(gens)
            else:
                parts.append(f"({c})*{gens}")
        return " + ".join(parts)


def _sf(ctx: GeneratorContext, terms: dict[int, RationalFunction]) -> SuperFunction:
    """A SuperFunction from terms known to hold no zero coefficient."""
    f = object.__new__(SuperFunction)
    f.ctx = ctx
    f.terms = terms
    return f


# ---------------------------------------------------------------------------
# the flat layout of a polynomial element
# ---------------------------------------------------------------------------
#
# A polynomial SuperFunction as flat terms: {(odd mask, even exponent
# tuple): coefficient}, every coefficient nonzero, an int where it is
# integral and a Fraction otherwise, the exponents over ctx.even_names.

Flat = dict[tuple[int, tuple[int, ...]], int | Fraction]


def from_flat(ctx: GeneratorContext, flat, den=None) -> SuperFunction:
    """The read-only SuperFunction view of flat terms over ctx, divided by
    den (flat terms of mask 0) where one is given: each coefficient then
    goes through RationalFunction's gcd to its canonical form, while a
    polynomial over 1 already is one.  Every key is checked as
    FlatFraction's constructor checks it, and den by that constructor."""
    names = ctx.even_names
    R = _get_ring(names)
    if den is not None:
        den = FlatFraction(ctx, {}, den).den
    D = R.one if den is None else R.from_dict({exp: c for (_, exp), c in den.items()})
    polys: dict[int, dict] = {}
    for (mask, exp), c in flat.items():
        _check_key(ctx, mask, exp)
        polys.setdefault(mask, {})[exp] = c
    return _sf(ctx, MappingProxyType({mask: RationalFunction(names, R.from_dict(p), D, den is None)
                                      for mask, p in polys.items()}))


def flat_key(ctx: GeneratorContext, name: str | None = None) -> tuple[int, tuple[int, ...]]:
    """The flat key of the generator name over ctx, or of 1 without one."""
    zero = (0,) * len(ctx.even_names)
    if name is None:
        return 0, zero
    if name in ctx.even_names:
        i = ctx.even_names.index(name)
        return 0, zero[:i] + (1,) + zero[i + 1:]
    if name in ctx.odd_names:
        return 1 << ctx.odd_names.index(name), zero
    raise UnknownVariable(name)


def flat_nu(flat) -> Flat:
    """nu on flat terms: toggle the first odd generator, as SuperFunction.nu."""
    return {(m ^ 1, e): c for (m, e), c in flat.items()}


def flat_dot(triples) -> Flat:
    """sum of q * a * b over the triples (q, a, b), a and b flat terms and
    q an int or Fraction: the product rule of SuperFunction.__mul__,
    e_a * e_b = mono_sign(a, b) e_(a|b) on disjoint masks, exponents added."""
    out = {}
    for q, a, b in triples:
        for (ma, ea), ca in a.items():
            ca *= q
            for (mb, eb), cb in b.items():
                if ma & mb:
                    continue
                key = (ma | mb, tuple(map(add, ea, eb)))
                c = ca * cb if mono_sign(ma, mb) > 0 else -ca * cb
                s = out.get(key)
                out[key] = c if s is None else s + c
    return {key: c for key, c in out.items() if c}


def flat_lincomb(pairs) -> Flat:
    """sum of q * a over the pairs (q, a), a flat terms, q an int or Fraction."""
    out = {}
    for q, a in pairs:
        for key, c in a.items():
            s = out.get(key)
            out[key] = c * q if s is None else s + c * q
    return {key: c for key, c in out.items() if c}


def flat_partial(flat, ctx: GeneratorContext, name: str) -> Flat:
    """d/d name of flat terms over ctx, as SuperFunction.partial: an even
    name lowers its exponent, an odd one is the left derivative."""
    bit, unit = flat_key(ctx, name)
    if not bit:
        i = unit.index(1)
        return {(m, e[:i] + (e[i] - 1,) + e[i + 1:]): c * e[i]
                for (m, e), c in flat.items() if e[i]}
    return {(m ^ bit, e): c if mono_sign(bit, m ^ bit) > 0 else -c
            for (m, e), c in flat.items() if m & bit}


class FlatFraction:
    """A chart-ring element with cleared denominators: flat int terms
    ``num`` over flat int terms ``den`` of mask 0 (an even polynomial),
    nonzero, both keyed {(odd mask, exponent tuple over ctx.even_names)}.

    No gcd is ever taken (denominators are cleared as in Bareiss's
    integer-preserving elimination): each operation divides out only the
    integer content of its result.  So one value has many forms: equality
    is cross-multiplication, N1 * D2 == N2 * D1, and the type is
    unhashable.  Zero is the empty numerator over 1.  The operations are
    what linalg.ring_solve and atlas.HopPlan's palette and transition call:
    has_body, is_zero, *, add_product, inv, nu, ring_zero and ring_one, and
    every product in them, of numerators or denominators, is flat_dot.
    ``inv`` of (b + n)/D is  D * sum_{k<=K} (-n)**k b**(K-k) / b**(K+1),
    the series of _inverse_num.  from_flat(ctx, num, den) is its canonical
    SuperFunction.
    """

    __slots__ = ("ctx", "num", "den")
    __hash__ = None

    def __init__(self, ctx: GeneratorContext, num, den=None):
        """num and den as above, int coefficients, not reduced; den
        defaults to 1.  A mask outside the odd generators raises
        UnknownVariable; an exponent tuple of the wrong length or with a
        negative entry, and a denominator term with an odd mask, raise
        ValueError."""
        den = {flat_key(ctx): 1} if den is None else _int_terms(ctx, den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if any(m for m, _ in den):
            raise ValueError("a denominator term has an odd mask")
        self.ctx = ctx
        self.num = _int_terms(ctx, num)
        self.den = den

    @classmethod
    def gen(cls, ctx: GeneratorContext, name: str) -> "FlatFraction":
        return _ff(ctx, {flat_key(ctx, name): 1}, {flat_key(ctx): 1})

    def is_zero(self) -> bool:
        return not self.num

    def has_body(self) -> bool:
        return any(not m for m, _ in self.num)

    def __eq__(self, other):
        if not isinstance(other, FlatFraction):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        if self.den == other.den:
            return self.num == other.num
        return flat_dot(((1, self.num, other.den),)) == flat_dot(((1, other.num, self.den),))

    def __mul__(self, other):
        return _ff_reduced(self.ctx, flat_dot(((1, self.num, other.num),)),
                           flat_dot(((1, self.den, other.den),)))

    def add_product(self, a, b, sign: int = 1) -> "FlatFraction":
        """self + sign * a * b, over the product of the denominators unless
        self's already is that of a * b."""
        num = flat_dot(((sign, a.num, b.num),))
        if not num:
            return self
        den = flat_dot(((1, a.den, b.den),))
        if den != self.den:
            num = flat_dot(((1, self.num, den), (1, num, self.den)))
            den = flat_dot(((1, self.den, den),))
        else:
            num = flat_lincomb(((1, self.num), (1, num)))
        return _ff_reduced(self.ctx, num, den)

    def inv(self) -> "FlatFraction":
        b = {key: c for key, c in self.num.items() if not key[0]}
        if not b:
            raise ZeroBody("cannot invert an element with zero body")
        minus_n = {key: -c for key, c in self.num.items() if key[0]}
        out = power = one = {flat_key(self.ctx): 1}
        den = b
        while power := flat_dot(((1, power, minus_n),)):  # ends: n is nilpotent
            out = flat_dot(((1, out, b), (1, power, one)))
            den = flat_dot(((1, den, b),))
        return _ff_reduced(self.ctx, flat_dot(((1, out, self.den),)), den)

    def nu(self) -> "FlatFraction":
        """Odd involution: toggle membership of the first odd generator."""
        if self.ctx.beta < 1:
            raise NoOddGenerators("nu needs at least one odd generator")
        return _ff(self.ctx, flat_nu(self.num), self.den)

    def ring_zero(self) -> "FlatFraction":
        return _ff_reduced(self.ctx, {}, {})

    def ring_one(self) -> "FlatFraction":
        one = flat_key(self.ctx)
        return _ff(self.ctx, {one: 1}, {one: 1})

    def substitute(self, values: dict, one):
        """The image under the ring morphism that sends each generator to
        values[name], in the ring of one (a GrassmannNumber at a Lambda_r
        point, a FlatFraction for a pullback): each term is its coefficient
        times its even values, then its odd ones in ascending order, and
        the image is image(num) * image(den).inv().  Raises ZeroBody where
        the image of the stored denominator has no body, so an unreduced
        form can raise where the reduced one would not."""
        ctx = self.ctx

        def image(terms):
            total = one.ring_zero()
            for (mask, exp), c in terms.items():
                term = one
                for name, k in zip(ctx.even_names, exp):
                    for _ in range(k):
                        term = term * values[name]
                for i, name in enumerate(ctx.odd_names):
                    if mask >> i & 1:
                        term = term * values[name]
                total = total.add_product(term, one, c)
            return total

        return image(self.num) * image(self.den).inv()


def _check_key(ctx: GeneratorContext, mask: int, exp: tuple) -> None:
    """A flat key over ctx: UnknownVariable for a mask outside the odd
    generators, ValueError for an exponent tuple of the wrong length or
    with a negative entry."""
    if not 0 <= mask < 1 << ctx.beta:
        raise UnknownVariable(f"monomial mask {mask} outside the odd generators of {ctx}")
    if len(exp) != len(ctx.even_names) or any(k < 0 for k in exp):
        raise ValueError(f"exponent tuple {exp} is not one over {ctx.even_names}")


def _int_terms(ctx: GeneratorContext, terms) -> dict:
    """terms as flat int terms over ctx without zeros, each key checked."""
    out = {}
    for (mask, exp), c in terms.items():
        _check_key(ctx, mask, exp)
        if c := index(c):
            out[mask, exp] = c
    return out


def _ff(ctx: GeneratorContext, num, den) -> FlatFraction:
    """A FlatFraction from terms known to hold ints and no zero."""
    f = object.__new__(FlatFraction)
    f.ctx = ctx
    f.num = num
    f.den = den
    return f


def _ff_reduced(ctx: GeneratorContext, num: dict, den: dict) -> FlatFraction:
    """num over den without their integer content; zero over 1 if num is."""
    if not num:
        return _ff(ctx, {}, {flat_key(ctx): 1})
    g = gcd(*num.values(), *den.values())
    if g != 1:
        num = {key: c // g for key, c in num.items()}
        den = {key: c // g for key, c in den.items()}
    return _ff(ctx, num, den)


class GrassmannNumber:
    """Element of the finite Grassmann algebra Lambda_r over QQ.

    Layout: integer numerators over one shared denominator.  ``num`` is a
    tuple of ``2**r`` ints, slot m holding the numerator of the monomial with
    bitmask m (0 where the coefficient is zero); ``den`` is a positive int,
    and the pair is in lowest terms: ``gcd(den, *num) == 1``.  Zero is the
    zero tuple over 1.  The form is canonical, so equal values have equal
    ``(r, den, num)``, and ``+ - * neg nu inv`` run on Python ints.

    Products of numerator tuples run through ``_product_kernel(r)``, and each
    operation reduces once: ``x.add_product(a, b, sign) = x + sign*a*b``
    puts x and the product over one denominator, and ``inv`` of (b + n)/D is
    ``D * sum_{k<=K} (-n)**k b**(K-k) / b**(K+1)`` with ``n**(K+1) = 0``
    (``_inverse_num``).

    The public constructor takes ``{mask: exact rational}`` with every mask
    in ``range(2**r)`` (what ``_exact`` takes: an int, a Fraction, a string
    such as "1/10", an MPQ); ``terms`` is a read-only ``{mask: Fraction}``
    view of the nonzero slots.
    """

    __slots__ = ("r", "num", "den")

    def __init__(self, r: int, terms: dict):
        self.r = r
        size = 1 << r
        fracs = []
        for m, c in terms.items():
            if not 0 <= m < size:
                raise UnknownVariable(f"monomial mask {m} outside Lambda_{r}")
            c = _exact(c)  # an int is its own numerator over 1
            if c:
                fracs.append((m, c))
        # over the lcm of reduced denominators no common factor is left: a
        # prime at its highest power in den divides no numerator of a term
        # that brings that power
        self.den = den = lcm(*(q.denominator for _, q in fracs))
        num = [0] * size
        for m, q in fracs:
            num[m] = q.numerator * (den // q.denominator)
        self.num = tuple(num)

    @classmethod
    def scalar(cls, r: int, q) -> "GrassmannNumber":
        q = _exact(q)
        zero = _layout(r).zero
        return _gn(r, (q.numerator,) + zero[1:], q.denominator) if q else _gn(r, zero, 1)

    @classmethod
    def theta(cls, r: int, i: int) -> "GrassmannNumber":
        """The i-th odd generator, 1-based."""
        if not 1 <= i <= r:
            raise UnknownVariable(f"theta_{i} outside Lambda_{r}")
        num = list(_layout(r).zero)
        num[1 << (i - 1)] = 1
        return _gn(r, tuple(num), 1)

    @property
    def terms(self):
        """Read-only view {mask: Fraction} of the nonzero coefficients."""
        den = self.den
        return MappingProxyType({m: Fraction(c, den) for m, c in enumerate(self.num) if c})

    def is_zero(self) -> bool:
        return not any(self.num)

    def has_body(self) -> bool:
        return self.num[0] != 0

    def body(self) -> Fraction:
        return Fraction(self.num[0], self.den)

    def parity(self):
        parities = {m.bit_count() & 1 for m, c in enumerate(self.num) if c}
        if len(parities) == 1:
            return parities.pop()
        return None if parities else EVEN

    def __eq__(self, other):
        if not isinstance(other, GrassmannNumber):
            return NotImplemented
        return self.r == other.r and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.r, self.den, self.num))

    def _check(self, other):
        if self.r != other.r:
            raise ContextMismatch(f"Lambda_{self.r} vs Lambda_{other.r}")

    # a sum is a fused step with the factor one: one path accumulates
    def __add__(self, other):
        return self.add_product(other, self.ring_one())

    def __sub__(self, other):
        return self.add_product(other, self.ring_one(), -1)

    def __neg__(self):
        return _gn(self.r, tuple(map(neg, self.num)), self.den)

    def __mul__(self, other):
        if isinstance(other, GrassmannNumber):
            self._check(other)
            return _reduced(self.r, _product_kernel(self.r)(self.num, other.num),
                            self.den * other.den)
        if isinstance(other, str):  # a scalar operand is a number, not its text
            return NotImplemented
        try:
            q = _exact(other)
        except TypeError:
            return NotImplemented
        if not q:
            return self.ring_zero()
        p = q.numerator
        return _reduced(self.r, tuple([c * p for c in self.num]), self.den * q.denominator)

    __rmul__ = __mul__

    def add_product(self, a, b, sign: int = 1) -> "GrassmannNumber":
        """self + sign * a * b: self and the product over the lcm of their
        denominators, summed by the kernel and reduced once."""
        if not self.r == a.r == b.r:
            raise ContextMismatch(f"Lambda_{self.r}, Lambda_{a.r} and Lambda_{b.r}")
        da, db = self.den, a.den * b.den
        z, s = self.num, sign
        if da != db:
            g = gcd(da, db)
            fa, s = db // g, sign * (da // g)
            z = tuple([c * fa for c in z])
            da *= fa
        return _reduced(self.r, _product_kernel(self.r)(a.num, b.num, z, s), da)

    def inv(self) -> "GrassmannNumber":
        """Exact inverse of (b + n)/D: D times the inverse of b + n that
        _inverse_num builds on the numerators."""
        if not self.num[0]:
            raise ZeroBody("cannot invert a Grassmann number with zero body")
        return _reduced(self.r, *_inverse_num(self.r, self.num, self.den))

    def nu(self) -> "GrassmannNumber":
        """Odd involution on Lambda_r: toggle membership of theta_1."""
        return _gn(self.r, _layout(self.r).nu(self.num), self.den)

    def ring_zero(self) -> "GrassmannNumber":
        return _gn(self.r, _layout(self.r).zero, 1)

    def ring_one(self) -> "GrassmannNumber":
        return _gn(self.r, _layout(self.r).one, 1)

    def to_dict(self) -> dict:
        return {_mask_key(m): str(c) for m, c in sorted(self.terms.items())}

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "0"
        parts = []
        for mask in sorted(terms):
            c = terms[mask]
            gens = "*".join(f"O{i+1}" for i in range(self.r) if mask >> i & 1)
            if not gens:
                parts.append(str(c))
            elif c == 1:
                parts.append(gens)
            else:
                parts.append(f"({c})*{gens}")
        return " + ".join(parts)


def _gn(r: int, num: tuple[int, ...], den: int) -> GrassmannNumber:
    """A GrassmannNumber from numerators already in canonical form."""
    g = object.__new__(GrassmannNumber)
    g.r = r
    g.num = num
    g.den = den
    return g


def _reduced(r: int, num: tuple[int, ...], den: int) -> GrassmannNumber:
    """num over den > 0 in lowest terms."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            den //= g
            num = tuple([c // g for c in num])
    return _gn(r, num, den)


def _inverse_num(r: int, num: tuple[int, ...], scale: int = 1) -> tuple[tuple[int, ...], int]:
    """(h, d) with h / d = scale / (b + n) on numerator tuples of Lambda_r,
    for b = num[0] != 0 and n the soul; d > 0, not reduced.  The one
    inverse formula: GrassmannNumber.inv and linalg.lambda_solve's pivots.

    With n**(K+1) = 0, 1 / (b + n) = sum_{k<=K} (-n)**k b**(K-k) / b**(K+1):
    the sum in Horner form in b, then one sign fix that makes d positive."""
    kernel = _product_kernel(r)
    b = num[0]
    out, den = _layout(r).one, b
    power = minus_n = (0, *map(neg, num[1:]))
    if any(power):  # the first step of the sum, b - n over b**2, needs no product
        out, den = (b, *minus_n[1:]), b * b
        power = kernel(power, minus_n)
        while any(power):  # ends: n is nilpotent
            out = tuple([c * b + p for c, p in zip(out, power)])
            den *= b
            power = kernel(power, minus_n)
    if den < 0:
        scale, den = -scale, -den
    if scale != 1:
        out = tuple([scale * c for c in out])
    return out, den


class _Layout(NamedTuple):
    zero: tuple[int, ...]  # the numerators of 0 and of 1
    one: tuple[int, ...]
    by_parity: tuple[tuple[int, ...], tuple[int, ...]]  # even masks, odd masks
    nu: Callable  # the numerators of nu(x) from those of x: slot m is slot m ^ 1


def _no_nu(num):
    raise NoOddGenerators("nu on Lambda_r needs r >= 1")


@lru_cache(maxsize=None)
def _layout(r: int) -> _Layout:
    """The per-r constants of the numerator tuples of Lambda_r; Lambda_0 has
    no theta_1, so its nu raises NoOddGenerators."""
    masks = range(1 << r)
    zero = (0,) * len(masks)
    return _Layout(zero, (1,) + zero[1:],
                   tuple(tuple(m for m in masks if m.bit_count() & 1 == p) for p in (0, 1)),
                   itemgetter(*(m ^ 1 for m in masks)) if r else _no_nu)


@lru_cache(maxsize=None)
def _sign_table(r: int) -> tuple[tuple[int, ...], ...]:
    """S[a][b]: mono_sign(a, b) in Lambda_r, 0 where a and b overlap."""
    masks = range(1 << r)
    return tuple(tuple(0 if a & b else mono_sign(a, b) for b in masks) for a in masks)


@lru_cache(maxsize=None)
def _product_kernel(r: int):
    """z + s * x * y on numerator tuples of Lambda_r (no z gives the product)
    as one straight-line function, generated once per r: slot m of the
    result adds to z[m] the signed sum of x[a] * y[m ^ a] over the submasks
    a of m, signs from _sign_table(r), so 3**r products in the full body.

    Lambda_r is Z/2-graded, so for r >= 1 four branches come first, one per
    parity pair (px, py): when the slots of x of parity 1 - px and those of
    y of parity 1 - py are all zero, only the slots m of parity px ^ py are
    computed, each from the submasks a of parity px; every other slot is 0
    (z[m] when z is given).  At r = 4 that is 21 products for even * even
    and 20 for each other pair, against 81.  A zero operand passes either
    parity test, and an operand with nonzero slots of both parities falls
    through to the full body, so every value of Lambda_r is multiplied
    right."""
    size = 1 << r
    signs = _sign_table(r)
    by_parity = _layout(r).by_parity

    def terms(m, masks):
        # the split a = 0 comes first and has sign +
        return " ".join(f"{'-' if signs[a][m ^ a] < 0 else '+'} x{a}*y{m ^ a}"
                        for a in masks if a & m == a)[2:]

    x, y, z = ("".join(f"{v}{a}, " for a in range(size)) for v in "xyz")

    def returns(pad, sums):
        # an empty sum leaves its slot 0, or z[m]
        plain = "".join(f"{e or 0}, " for e in sums)
        fused = "".join(f"z{m} + s * ({e}), " if e else f"z{m}, " for m, e in enumerate(sums))
        return [f"{pad}if z is None:", f"{pad}    return ({plain})",
                f"{pad}{z}= z", f"{pad}return ({fused})"]

    def all_zero(v, masks):
        return f"not ({' or '.join(f'{v}{a}' for a in masks)})"

    lines = ["def kernel(x, y, z=None, s=1):", f"    {x}= x", f"    {y}= y"]
    for px in (0, 1) if r else ():
        lines.append(f"    {('if', 'elif')[px]} {all_zero('x', by_parity[1 - px])}:")
        for py in (0, 1):
            lines.append(f"        {('if', 'elif')[py]} {all_zero('y', by_parity[1 - py])}:")
            lines += returns(" " * 12, [terms(m, by_parity[px]) if m.bit_count() & 1 == px ^ py
                                        else "" for m in range(size)])
    lines += returns(" " * 4, [terms(m, range(m + 1)) for m in range(size)])
    scope = {}
    exec("\n".join(lines), scope)
    return scope["kernel"]


def lambda_sample(r: int, parity: int, seed, lo: int = -3, hi: int = 3) -> GrassmannNumber:
    """Deterministic small-integer sample from Lambda_r of the given parity.

    Even samples always carry a nonzero body so they can serve as invertible
    inputs.  Raises ValueError where [lo, hi] holds no nonzero integer and
    the parity has a slot, so the draw would never end.  Passing a
    random.Random instance instead of an integer seed draws from that
    stream (one worker per stream).
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    layout = _layout(r)
    masks = layout.by_parity[parity]
    if masks and not (lo <= hi and (lo or hi)):
        raise ValueError(f"[{lo}, {hi}] holds no nonzero integer to draw")
    num = list(layout.zero)
    while masks and not any(num):
        for mask in masks:
            c = rng.randint(lo, hi)
            if mask == 0:
                while c == 0:
                    c = rng.randint(lo, hi)
            num[mask] = c
    return _gn(r, tuple(num), 1)
