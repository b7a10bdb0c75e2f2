import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab.errors import (DegreeCapExceeded, DivisionByZero,
                            NegativeValuation, PrecisionExhausted)
from wittlab.fields import (INF, AtLeast, GF2m, LaurentField, RatFuncField,
                            make_field, ratfunc)
from wittlab.fields.common import power
from wittlab.fields.gf2m import IRREDUCIBLE
from wittlab.residue_witt import _Coords, _Slots

from residue_brute_force import _bounded_as_search

ffelem = st.integers(min_value=0, max_value=15).map(lambda b: GF2m(4).elem(b))


@given(ffelem, ffelem, ffelem)
@settings(max_examples=200, deadline=None)
def test_gf2m_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inv() == GF2m(4).one


def test_gf2m_sqrt_and_trace():
    for m in (1, 2, 3, 4):
        K = GF2m(m)
        for c in map(K.elem, range(K.order)):
            assert c.sqrt() * c.sqrt() == c
        assert sum(K.trace(b) for b in range(K.order)) == K.order // 2


def test_gf2m_artin_schreier():
    # a root exactly when trace(c) = 0, and every root is one
    for m in range(1, 11):
        K = GF2m(m)
        for c in map(K.elem, range(K.order)):
            u = K.artin_schreier_root(c)
            assert c.trace() in (0, 1)
            assert (u is not None) == (c.trace() == 0)
            if u is not None:
                assert u * u + u == c


@pytest.mark.parametrize("m", (1, 2, 5))
def test_ratfunc_artin_schreier_matches_bounded_search(m):
    R = RatFuncField(m)
    rng = random.Random(m)
    cs = [R.zero, R.one]
    for _ in range(40):
        u = R.random(rng, rng.randrange(4))
        cs += [u * u + u, R.random(rng, 2),
               R.random(rng, 1) / (R.x + R.random(rng, 0))]
    found = 0
    for c in cs:
        u = R.artin_schreier_root(c)
        assert u == _bounded_as_search(R, c)
        if u is not None:
            assert u * u + u == c
            found += 1
    # order^3 > 4096 over GF(32)(x): the search is not run
    assert (found == 0) == (m == 5)


def _clmulmod(a, b, f):
    """a * b modulo f, bit-polynomials over GF(2)."""
    r, df = 0, f.bit_length() - 1
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> df & 1:
            a ^= f
    return r


def _clmod(a, f):
    while a.bit_length() >= f.bit_length():
        a ^= f << (a.bit_length() - f.bit_length())
    return a


def _rabin_irreducible(f):
    """Rabin's test: f of degree m is irreducible over GF(2) iff x^(2^m)
    = x mod f and gcd(f, x^(2^(m/p)) - x) = 1 for every prime p | m."""
    m = f.bit_length() - 1
    x = _clmod(0b10, f)

    def x_pow_2e(e):
        r = x
        for _ in range(e):
            r = _clmulmod(r, r, f)
        return r

    if x_pow_2e(m) != x:
        return False
    for p in (p for p in range(2, m + 1) if m % p == 0
              and all(p % d for d in range(2, p))):
        a, b = f, x_pow_2e(m // p) ^ x
        while b:
            a, b = b, _clmod(a, b)
        if a != 1:
            return False
    return True


def _has_factor(f):
    m = f.bit_length() - 1
    return any(_clmod(f, g) == 0 for g in range(2, 1 << (m // 2 + 1))
               if 1 <= g.bit_length() - 1 <= m // 2)


def test_rabin_agrees_with_trial_division():
    for m in range(1, 9):
        for f in range(1 << m, 1 << (m + 1)):
            assert _rabin_irreducible(f) == (not _has_factor(f)), bin(f)


def test_moduli_are_the_smallest_irreducibles():
    assert sorted(IRREDUCIBLE) == list(range(1, 17))
    for m, f in IRREDUCIBLE.items():
        assert f.bit_length() - 1 == m
        assert _rabin_irreducible(f), (m, bin(f))
        for g in range(1 << m, f):
            assert not _rabin_irreducible(g), (m, bin(g), bin(f))


def test_ratfunc_axioms_random():
    R = RatFuncField(2)
    rng = random.Random(1)
    for _ in range(100):
        a, b, c = (R.random(rng, 3) for _ in range(3))
        assert (a + b) * c == a * c + b * c
        if not a.is_zero():
            assert a * a.inv() == R.one


def test_frobenius_coordinates_ratfunc():
    R = RatFuncField(1)
    x = R.x
    c0, c1 = R.frobenius_coordinates(x ** 3)
    assert (c0, c1) == (R.zero, x)
    c0, c1 = R.frobenius_coordinates(R.one + x)
    assert (c0, c1) == (R.one, R.one)
    rng = random.Random(2)
    for _ in range(100):
        c = RatFuncField(2).random(rng, 4)
        c0, c1 = c.field.frobenius_coordinates(c)
        xx = RatFuncField(2).x
        assert c0 * c0 + xx * c1 * c1 == c


def test_frobenius_coordinates_finite():
    for m in (1, 2, 3, 4):
        K = GF2m(m)
        for c in map(K.elem, range(K.order)):
            c0, c1 = K.frobenius_coordinates(c)
            assert c1.is_zero()
            assert c0 * c0 == c


def test_degree_cap():
    R = RatFuncField(1, degree_cap=8)
    with pytest.raises(DegreeCapExceeded):
        R.x ** 9
    # the last bit is not followed by a square, so x^8 fits under cap 8
    assert R.x ** 8 == R.from_poly([0] * 8 + [1])


def test_field_cache_keys_on_the_degree_cap():
    A = RatFuncField(1)
    B = RatFuncField(1, degree_cap=8)
    C = RatFuncField(1)
    assert A is C and A is not B
    assert A.one == C.one
    assert A.x + C.x == A.zero


class _Counted:
    def __init__(self, value, log):
        self.value, self.log = value, log

    def __mul__(self, other):
        self.log.append(1)
        return _Counted(self.value * other.value, self.log)


@pytest.mark.parametrize("e", range(0, 40))
def test_power_squares_only_between_bits(e):
    log = []
    got = power(_Counted(3, log), e, _Counted(1, log))
    assert got.value == 3 ** e
    assert len(log) == bin(e).count("1") + max(e.bit_length() - 1, 0)


def test_negative_powers_invert_first():
    for F in (make_field("laurent", m=2), make_field("dyadic"),
              make_field("laurent-ratfunc", m=1)):
        pi = F.uniformizer()
        assert pi ** -3 == pi.inv() * pi.inv() * pi.inv()
        assert pi ** 0 == F.one
    R = RatFuncField(2)
    assert (R.x + R.one) ** -2 * (R.x + R.one) ** 2 == R.one


# -- Laurent series ---------------------------------------------------------


def test_laurent_basics():
    F = make_field("laurent", m=1)
    t, one = F.uniformizer(), F.one
    assert t * t.inv() == one
    assert (one + t) + t == one
    assert (t.inv() + t).valuation() == -1
    assert F.zero.valuation() == INF
    assert (one + t).residue() == F.residue_field.one
    with pytest.raises(NegativeValuation):
        t.inv().residue()


def test_laurent_residue_over_ratfunc():
    F = make_field("laurent-ratfunc", m=1)
    x = F.section(F.residue_field.x)
    t = F.uniformizer()
    e = x + x * x * t
    assert e.residue() == F.residue_field.x


def test_section_laws():
    rng = random.Random(3)
    for F in (make_field("laurent", m=2), make_field("laurent-ratfunc", m=1),
              make_field("dyadic")):
        k = F.residue_field
        for _ in range(100):
            if isinstance(k, GF2m):
                c = k.random(rng)
            else:
                c = k.random(rng, 2)
            s = F.section(c)
            assert s.residue() == c
            v = s.valuation()
            assert v == INF or v >= 0
        assert F.section(k.zero).is_exactly_zero()


def test_valuation_rules_random():
    F = make_field("laurent", m=2)
    k = F.residue_field
    rng = random.Random(4)

    def rand_elem():
        pairs = [(rng.randrange(-4, 5), k.random(rng)) for _ in range(3)]
        return F.make(pairs)

    for _ in range(200):
        a, b = rand_elem(), rand_elem()
        va, vb = a.low_bound(), b.low_bound()
        vs = (a + b).low_bound()
        assert vs >= min(va, vb)
        if a.is_certified_nonzero() and b.is_certified_nonzero():
            assert (a * b).valuation() == va + vb


def test_precision_propagation():
    F = make_field("laurent", m=1)
    one, t = F.one, F.uniformizer()
    iv = (one + t).inv()
    assert iv.abs_prec == F.precision
    assert ((one + t) * iv + one).is_zero_to_precision()
    shallow = F.zero_to_precision(2)
    assert isinstance((shallow + t * t * t).valuation(), AtLeast)


# -- 2-adics -------------------------------------------------------------------


def test_dyadic_basics():
    Q = make_field("dyadic")
    assert Q.from_int(12).valuation() == 2
    half = Q.one / Q.from_int(2)
    assert half.abs_prec is None and half.v0 == -1
    m1 = Q.one - Q.from_int(4) * half
    assert m1 == Q.from_int(-1)
    assert m1.inv() == Q.from_int(-1)
    third = Q.from_int(3).inv()
    assert (third * Q.from_int(3) - Q.one).is_zero_to_precision()
    with pytest.raises(DivisionByZero):
        Q.zero.inv()


# -- packed GF(2^m)((t)) against the boxed schoolbook oracle -----------------


class Schoolbook:
    """Boxed reference for GF(2^m)((t)): (v0, coeffs, abs_prec) with a tuple
    of residue elements, multiplied term by term."""

    def __init__(self, F, v0, coeffs, abs_prec):
        self.F, self.abs_prec = F, abs_prec
        self.v0, self.coeffs = (v0, coeffs) if coeffs else (0, ())

    @classmethod
    def make(cls, F, pairs, abs_prec=None):
        k = F.residue_field
        by_exp = {}
        for e, c in pairs:
            by_exp[e] = by_exp.get(e, k.zero) + c
        exps = sorted(e for e, c in by_exp.items()
                      if not c.is_zero() and (abs_prec is None or e < abs_prec))
        if not exps:
            return cls(F, 0, (), abs_prec)
        return cls(F, exps[0], tuple(by_exp.get(e, k.zero)
                                     for e in range(exps[0], exps[-1] + 1)),
                   abs_prec)

    def pairs(self):
        return [(self.v0 + i, c) for i, c in enumerate(self.coeffs)]

    def low_bound(self):
        if self.coeffs:
            return self.v0
        return INF if self.abs_prec is None else self.abs_prec

    def join(self, other):
        precs = [p for p in (self.abs_prec, other.abs_prec) if p is not None]
        return min(precs) if precs else None

    def __add__(self, other):
        return self.make(self.F, self.pairs() + other.pairs(), self.join(other))

    def __mul__(self, other):
        precs = [a.abs_prec + b.low_bound() for a, b in ((self, other), (other, self))
                 if a.abs_prec is not None and b.low_bound() != INF]
        prec = min(precs) if precs else None
        terms = [(e + f, c * d) for e, c in self.pairs() for f, d in other.pairs()
                 if prec is None or e + f < prec]
        return self.make(self.F, terms, prec)

    def truncated(self, abs_prec):
        if self.abs_prec is not None:
            abs_prec = min(abs_prec, self.abs_prec)
        return self.make(self.F, self.pairs(), abs_prec)

    def inv(self):
        if not self.coeffs:
            raise DivisionByZero("zero")
        lead = self.coeffs[0].inv()
        if len(self.coeffs) == 1 and self.abs_prec is None:
            return self.make(self.F, [(-self.v0, lead)])
        rel = self.F.precision
        if self.abs_prec is not None:
            rel = min(rel, self.abs_prec - self.v0)
        if rel <= 0:
            raise PrecisionExhausted("no digits")
        one = self.make(self.F, [(0, self.F.residue_field.one)], rel)
        # no slot at or above rel is formed: over GF(2^m)(x) it could
        # trip the degree cap, and the answer does not reach it
        u = self.make(self.F, [(i, lead * c) for i, c in enumerate(self.coeffs)
                               if 0 < i < rel], rel)
        geo = term = one
        while True:
            term = self.make(self.F, [(e + f, c * d) for e, c in term.pairs()
                                      for f, d in u.pairs() if e + f < rel],
                             rel)
            if not term.coeffs:
                break
            geo = geo + term
        return self.make(self.F, [(e - self.v0, lead * c) for e, c in geo.pairs()],
                         rel - self.v0)

    def residue(self):
        k = self.F.residue_field
        if self.coeffs and self.v0 < 0:
            raise NegativeValuation("v < 0")
        if not self.coeffs:
            return self.coeff_at(0)
        i = -self.v0
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else k.zero

    def coeff_at(self, d):
        # O(t^p) knows its coefficients below degree p only
        k = self.F.residue_field
        if not self.coeffs:
            if self.abs_prec is None or self.abs_prec > d:
                return k.zero
            raise PrecisionExhausted("at or below precision")
        if self.v0 < d:
            raise ValueError("v < d")
        return self.coeffs[0] if self.v0 == d else k.zero


PACKED_M = (1, 2, 8, 16)


@st.composite
def laurent_pairs(draw, m):
    """(pairs, abs_prec) for one element: exact or truncated, possibly the
    exact zero, zero to precision, or with cancelling repeated exponents;
    often a monomial, and often with the coefficient 1."""
    kind = draw(st.sampled_from(["exact", "truncated", "zero", "O"]))
    if kind == "zero":
        return [], None
    if kind == "O":
        return [], draw(st.integers(-6, 12))
    bits = st.one_of(st.just(1), st.integers(0, (1 << m) - 1))
    pairs = draw(st.lists(st.tuples(st.integers(-6, 10), bits),
                          max_size=draw(st.sampled_from([1, 8]))))
    prec = None if kind == "exact" else draw(st.integers(-4, 14))
    return pairs, prec


def _both(F, drawn):
    """The element and its oracle; packed draws hold bit-patterns."""
    pairs, prec = drawn
    if F._pk is not None:
        pairs = [(e, F.residue_field.elem(b)) for e, b in pairs]
    return F.make(pairs, prec), Schoolbook.make(F, pairs, prec)


def _agrees(x, o):
    assert (x.v0, x.coeffs, x.abs_prec) == (o.v0, o.coeffs, o.abs_prec)
    # normalization: empty digits at v0 = 0, or nonzero end coefficients
    # strictly below abs_prec, every slot a reduced field element
    if x.is_zero_to_precision():
        assert x.v0 == 0 and x.coeffs == ()
    else:
        assert not x.coeffs[0].is_zero() and not x.coeffs[-1].is_zero()
        assert x.abs_prec is None or x.v0 + len(x.coeffs) <= x.abs_prec
        if x.field._pk is None:
            assert type(x.digits) is tuple
        else:
            assert x.digits.bit_length() <= len(x.coeffs) * x.field._pk.S
    if x.field._pk is None:
        # the public constructor builds the same element, with the same hash
        y = x.field.make(o.pairs(), o.abs_prec)
        assert x == y and hash(x) == hash(y)


def _outcome(fn):
    try:
        return fn()
    except (DivisionByZero, PrecisionExhausted, NegativeValuation,
            ValueError) as e:
        return type(e)


def _agrees_or_raised(r, o):
    """An element that agrees with the oracle's, or the oracle's error."""
    if isinstance(o, Schoolbook):
        _agrees(r, o)
    else:
        assert r is o


def _ops_agree(data, F, x_drawn, y_drawn):
    """Every operation on two drawn elements agrees with the oracle."""
    (x, ox), (y, oy) = _both(F, x_drawn), _both(F, y_drawn)
    _agrees(x, ox)
    _agrees(x + y, ox + oy)
    _agrees(x * y, ox * oy)
    _agrees((x * y) * x, (ox * oy) * ox)
    p = data.draw(st.integers(-6, 14))
    _agrees(x.truncated(p), ox.truncated(p))
    _agrees_or_raised(_outcome(x.inv), _outcome(ox.inv))
    assert _outcome(x.residue) == _outcome(ox.residue)
    for d in (p, Fraction(p), Fraction(2 * p + 1, 2)):
        assert _outcome(lambda: x.coeff_at(d)) == _outcome(lambda: ox.coeff_at(d))
    return (x, ox), (y, oy)


@pytest.mark.parametrize("m", PACKED_M)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_laurent_matches_schoolbook(m, data):
    F = make_field("laurent", m=m, precision=12)
    _ops_agree(data, F, data.draw(laurent_pairs(m)), data.draw(laurent_pairs(m)))


@pytest.mark.parametrize("m", PACKED_M)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_laurent_make_and_hash(m, data):
    F = make_field("laurent", m=m, precision=12)
    k = F.residue_field
    pairs, prec = data.draw(laurent_pairs(m))
    pairs = [(e, k.elem(b)) for e, b in pairs]
    x = F.make(pairs, prec)
    # a repeated exponent cancels: c + c = 0 in characteristic 2
    doubled = pairs + [(e, c) for e, c in pairs if e % 2 == 0] * 2
    y = F.make(list(reversed(doubled)), prec)
    assert x == y and hash(x) == hash(y)
    z = x + F.zero
    assert z == x and hash(z) == hash(x)
    if prec is None:
        assert x + x == F.zero


def test_packed_laurent_long_products():
    # exact products longer than the precomputed reduction masks
    for m in PACKED_M:
        F = make_field("laurent", m=m, precision=8)
        k = F.residue_field
        rng = random.Random(m)
        pairs = [(e, k.elem(rng.randrange(1, k.order))) for e in range(0, 150, 3)]
        x, ox = F.make(pairs), Schoolbook.make(F, pairs)
        _agrees(x * x, ox * ox)
        _agrees(x * x * x, ox * ox * ox)


# -- Q_2 against the Fraction schoolbook ----------------------------------------


def _v2(r: Fraction) -> int:
    """2-adic valuation of a nonzero rational."""
    v, n, d = 0, r.numerator, r.denominator
    while n % 2 == 0:
        n, v = n // 2, v + 1
    while d % 2 == 0:
        d, v = d // 2, v - 1
    return v


class DyadicSchoolbook:
    """Reference for Q_2: a rational value known modulo 2^abs_prec, kept
    as its representative in [0, 2^abs_prec) when abs_prec is finite."""

    def __init__(self, F, value, abs_prec=None):
        self.F, self.abs_prec = F, abs_prec
        value = Fraction(value)
        self.value = value if abs_prec is None else value % Fraction(2) ** abs_prec

    def valuation(self):
        if self.value:
            return _v2(self.value)
        return INF if self.abs_prec is None else AtLeast(self.abs_prec)

    def low_bound(self):
        v = self.valuation()
        return v.bound if isinstance(v, AtLeast) else v

    def __add__(self, other):
        precs = [p for p in (self.abs_prec, other.abs_prec) if p is not None]
        return DyadicSchoolbook(self.F, self.value + other.value,
                                min(precs) if precs else None)

    def __neg__(self):
        return DyadicSchoolbook(self.F, -self.value, self.abs_prec)

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        precs = [a.abs_prec + b.low_bound() for a, b in ((self, other), (other, self))
                 if a.abs_prec is not None and b.low_bound() != INF]
        return DyadicSchoolbook(self.F, self.value * other.value,
                                min(precs) if precs else None)

    def truncated(self, abs_prec):
        if self.abs_prec is not None:
            abs_prec = min(abs_prec, self.abs_prec)
        return DyadicSchoolbook(self.F, self.value, abs_prec)

    def inv(self):
        if not self.value:
            raise DivisionByZero("zero")
        v = _v2(self.value)
        if self.abs_prec is None and abs(self.value) == Fraction(2) ** v:
            return DyadicSchoolbook(self.F, 1 / self.value)
        rel = self.F.precision
        if self.abs_prec is not None:
            rel = min(rel, self.abs_prec - v)
        if rel <= 0:
            raise PrecisionExhausted("no digits")
        # the j in [0, 2^rel) with value * j 2^-v = 1 modulo 2^rel
        unit = self.value / Fraction(2) ** v
        j = next(j for j in range(1 << rel)
                 if ((unit * j - 1) / (1 << rel)).denominator == 1)
        return DyadicSchoolbook(self.F, Fraction(j, 1) / Fraction(2) ** v,
                                rel - v)

    def coeff_at(self, d):
        # O(2^p) knows its digits below 2^p only
        k = self.F.residue_field
        if not self.value:
            if self.abs_prec is None or self.abs_prec > d:
                return k.zero
            raise PrecisionExhausted("at or below precision")
        v = _v2(self.value)
        if v < d:
            raise ValueError("v < d")
        return k.one if v == d else k.zero

    def residue(self):
        if self.value and _v2(self.value) < 0:
            raise NegativeValuation("v < 0")
        return self.coeff_at(0)


@st.composite
def dyadic_drawn(draw):
    """(n, e, abs_prec) for the element n 2^e: exact or truncated, possibly
    the exact zero or zero to precision.  n may be negative, and in one
    draw of two it carries up to 2^24, a high 2-adic valuation."""
    kind = draw(st.sampled_from(["exact", "truncated", "zero", "O"]))
    if kind == "zero":
        return 0, 0, None
    if kind == "O":
        return 0, 0, draw(st.integers(-6, 10))
    n = draw(st.integers(-40, 40)) << draw(
        st.one_of(st.just(0), st.integers(1, 24)))
    e = draw(st.integers(-4, 4))
    return n, e, None if kind == "exact" else draw(st.integers(-4, 10))


@st.composite
def dyadic_pair_drawn(draw):
    """Two drawn elements; in one draw of two the first is truncated at p
    and the second is -x + s 2^(p - 1), so that x + y cancels every digit
    below the cut but perhaps the last one."""
    x = draw(dyadic_drawn())
    if draw(st.booleans()):
        return x, draw(dyadic_drawn())
    n, e, _ = x
    p = e + draw(st.integers(1, 8))
    s = draw(st.integers(-2, 2))
    y = (-2 * n + (s << (p - e)), e - 1, p + draw(st.integers(0, 3)))
    return (n, e, p), y


def _dyadic_both(F, drawn):
    n, e, prec = drawn
    return F.make(n, e, prec), DyadicSchoolbook(F, n * Fraction(2) ** e, prec)


def _dyadic_agrees(x, o):
    assert x.abs_prec == o.abs_prec
    assert Fraction(x.digits) * Fraction(2) ** x.v0 == o.value
    assert x.valuation() == o.valuation() and x.low_bound() == o.low_bound()
    if x.abs_prec is not None and x.digits:
        assert 1 <= x.digits < 1 << (x.abs_prec - x.v0)


def _dyadic_agrees_or_raised(r, o):
    if isinstance(o, DyadicSchoolbook):
        _dyadic_agrees(r, o)
    else:
        assert r is o


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_dyadic_matches_fraction_schoolbook(data):
    F = make_field("dyadic", precision=6)
    (x, ox), (y, oy) = (_dyadic_both(F, drawn)
                        for drawn in data.draw(dyadic_pair_drawn()))
    _dyadic_agrees(x, ox)
    _dyadic_agrees(x + y, ox + oy)
    _dyadic_agrees(x - y, ox - oy)
    _dyadic_agrees(-x, -ox)
    _dyadic_agrees(x * y, ox * oy)
    _dyadic_agrees((x * y) * x, (ox * oy) * ox)
    p = data.draw(st.integers(-6, 12))
    _dyadic_agrees(x.truncated(p), ox.truncated(p))
    _dyadic_agrees_or_raised(_outcome(x.inv), _outcome(ox.inv))
    assert _outcome(x.residue) == _outcome(ox.residue)
    for d in (p, Fraction(p), Fraction(2 * p + 1, 2)):
        assert _outcome(lambda: x.coeff_at(d)) == _outcome(lambda: ox.coeff_at(d))


def test_certified_equality_needs_one_type():
    # a Laurent series over GF(2) and a 2-adic number may store the same
    # (v0, digits, abs_prec); they are still different elements
    L, Q = make_field("laurent", m=1), make_field("dyadic")
    for v0, digits, prec in ((0, 1, None), (2, 5, 7), (-1, 3, 4), (0, 0, 3)):
        x = L.make([(v0 + i, L.residue_field.elem(1))
                    for i in range(digits.bit_length()) if digits >> i & 1],
                   prec)
        y = Q.make(digits, v0, prec)
        assert (x.v0, x.digits, x.abs_prec) == (y.v0, y.digits, y.abs_prec)
        assert x != y and y != x
        for z in (x, y):
            w = z + z.field.zero
            assert w == z and w is not z and hash(w) == hash(z)


def test_dyadic_zero_to_precision_coefficients():
    # O(2^3) knows its digits at 2^0, 2^1, 2^2 and nothing at 2^3
    F = make_field("dyadic")
    z = F.zero_to_precision(3)
    assert z.coeff_at(2) == F.residue_field.zero
    for d in (3, 4):
        with pytest.raises(PrecisionExhausted):
            z.coeff_at(d)
    assert z.residue() == F.residue_field.zero
    for p in (0, -1):
        with pytest.raises(PrecisionExhausted):
            F.zero_to_precision(p).residue()


def test_ff_powers_and_square_roots():
    # x ** e through the one square-and-multiply; sqrt by m - 1 squarings
    for m in (1, 3, 9):
        K = GF2m(m)
        rng = random.Random(m)
        for _ in range(20):
            c = K.elem(rng.randrange(1, K.order))
            assert c ** 5 == c * c * c * c * c
            assert c ** -3 * (c * c * c) == K.one and c ** 0 == K.one
            assert c.sqrt() * c.sqrt() == c
    with pytest.raises(DivisionByZero):
        GF2m(3).zero ** -1


# -- packed GF(2^m)(x) against the tuple-polynomial oracle -------------------


def _ptrim(c):
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    c = list(a)
    for i, bi in enumerate(b):
        c[i] ^= bi
    return _ptrim(c)


def _pmul(K, a, b):
    if not a or not b:
        return ()
    c = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    c[i + j] ^= K.mul(ai, bj)
    return _ptrim(c)


def _pscale(K, s, a):
    return _ptrim([K.mul(s, ai) for ai in a])


def _pdivmod(K, a, b):
    r = list(a)
    q = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = K.inv(b[-1])
    for i in range(len(r) - len(b), -1, -1):
        c = K.mul(r[i + len(b) - 1], inv_lead)
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                r[i + j] ^= K.mul(c, bj)
    return _ptrim(q), _ptrim(r)


def _pgcd(K, a, b):
    while b:
        a, b = b, _pdivmod(K, a, b)[1]
    if a:
        a = _pscale(K, K.inv(a[-1]), a)
    return a


class TupleRatFuncs:
    """Reference for GF(2^m)(x): an element is a pair (num, den) of
    low-first coefficient tuples with no trailing zero, normalized to gcd 1
    and a monic den, multiplied coefficient by coefficient."""

    def __init__(self, R):
        self.K, self.cap, self.var = R.base, R.degree_cap, R.variable
        self.name = repr(R)

    def make(self, num, den):
        K = self.K
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            return (), (1,)
        g = _pgcd(K, num, den)
        if len(g) > 1:
            num, den = _pdivmod(K, num, g)[0], _pdivmod(K, den, g)[0]
        if den[-1] != 1:
            il = K.inv(den[-1])
            num, den = _pscale(K, il, num), _pscale(K, il, den)
        if max(len(num), len(den)) - 1 > self.cap:
            raise DegreeCapExceeded(
                f"degree {max(len(num), len(den)) - 1} exceeds cap {self.cap}")
        return num, den

    def add(self, a, b):
        K = self.K
        if a[1] == (1,) and b[1] == (1,):
            return _padd(a[0], b[0]), (1,)
        return self.make(_padd(_pmul(K, a[0], b[1]), _pmul(K, b[0], a[1])),
                         _pmul(K, a[1], b[1]))

    def mul(self, a, b):
        K = self.K
        if a[1] == (1,) and b[1] == (1,):
            num = _pmul(K, a[0], b[0])
            if len(num) - 1 > self.cap:
                raise DegreeCapExceeded(f"degree {len(num) - 1} exceeds cap {self.cap}")
            return num, (1,)
        return self.make(_pmul(K, a[0], b[0]), _pmul(K, a[1], b[1]))

    def inv(self, a):
        if not a[0]:
            raise DivisionByZero("inverse of 0 in " + self.name)
        return self.make(a[1], a[0])

    def frobenius_coordinates(self, c):
        K = self.K
        pq = _pmul(K, c[0], c[1])
        even = _ptrim([K.sqrt(v) for v in pq[0::2]])
        odd = _ptrim([K.sqrt(v) for v in pq[1::2]])
        return self.make(even, c[1]), self.make(odd, c[1])

    def random(self, rng, degree=2):
        num = [rng.randrange(self.K.order) for _ in range(degree + 1)]
        return self.make(_ptrim(num), (1,))

    def format_poly(self, p):
        if not p:
            return "0"
        parts = []
        for e in range(len(p) - 1, -1, -1):
            c = p[e]
            if c == 0:
                continue
            if e == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else f"{c}*"
                parts.append(f"{head}{self.var}" + (f"^{e}" if e > 1 else ""))
        return " + ".join(parts)

    def format_elem(self, c):
        num = self.format_poly(c[0])
        if c[1] == (1,):
            return num
        den = self.format_poly(c[1])
        if len(c[0]) > 1:
            num = f"({num})"
        if len(c[1]) > 1:
            den = f"({den})"
        return f"{num}/{den}"


def _unpack(R, p):
    S, smask = R._pk.S, R._pk.smask
    out = []
    while p:
        out.append(p & smask)
        p >>= S
    return tuple(out)


def _ratfunc_agrees(r, o):
    R = r.field
    assert (_unpack(R, r.num), _unpack(R, r.den)) == o
    assert R.format_elem(r) == TupleRatFuncs(R).format_elem(o)


def _ratfunc_outcome(fn):
    try:
        return fn()
    except (DivisionByZero, DegreeCapExceeded) as e:
        return type(e), str(e)


def _check_ratfunc(r, o):
    if isinstance(o, tuple) and isinstance(o[0], type):
        assert r == o
    else:
        _ratfunc_agrees(r, o)


def polys(m, max_size=6):
    return st.lists(st.integers(0, (1 << m) - 1), max_size=max_size).map(
        lambda c: _ptrim(list(c)))


# a small cap, which is a field of its own
def _capped(m):
    return RatFuncField(m, degree_cap=8)


@pytest.mark.parametrize("m", PACKED_M)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_ratfunc_matches_tuple_oracle(m, data):
    R = _capped(m)
    O = TupleRatFuncs(R)
    pairs = [data.draw(st.tuples(polys(m), polys(m))) for _ in range(2)]
    r = [_ratfunc_outcome(lambda p=p: R.make(*p)) for p in pairs]
    o = [_ratfunc_outcome(lambda p=p: O.make(*p)) for p in pairs]
    for ri, oi in zip(r, o):
        _check_ratfunc(ri, oi)
    if not all(isinstance(ri, type(R.one)) for ri in r):
        return
    (a, b), (oa, ob) = r, o
    for fr, fo in ((lambda: a + b, lambda: O.add(oa, ob)),
                   (lambda: a * b, lambda: O.mul(oa, ob)),
                   (lambda: (a * b) * a, lambda: O.mul(O.mul(oa, ob), oa)),
                   (lambda: a - b, lambda: O.add(oa, ob)),
                   (a.inv, lambda: O.inv(oa)),
                   (lambda: a / b, lambda: O.mul(oa, O.inv(ob)))):
        _check_ratfunc(_ratfunc_outcome(fr), _ratfunc_outcome(fo))
    c0, c1 = R.frobenius_coordinates(a)
    oc0, oc1 = O.frobenius_coordinates(oa)
    _ratfunc_agrees(c0, oc0)
    _ratfunc_agrees(c1, oc1)
    assert (a == b) == (oa == ob)
    assert a == R.make(*oa) and hash(a) == hash(R.make(*oa))


@pytest.mark.parametrize("m", PACKED_M)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_ratfunc_constructors(m, data):
    R = _capped(m)
    O = TupleRatFuncs(R)
    coeffs = data.draw(st.lists(st.integers(0, (1 << m) - 1), max_size=12))
    _check_ratfunc(_ratfunc_outcome(lambda: R.from_poly(coeffs)),
                   _ratfunc_outcome(lambda: O.make(_ptrim(list(coeffs)), (1,))))
    bits = data.draw(st.integers(0, (1 << m) - 1))
    _ratfunc_agrees(R.from_poly((bits,)), O.make((bits,) if bits else (), (1,)))
    _ratfunc_agrees(R.x, ((0, 1), (1,)))
    _ratfunc_agrees(R.zero, ((), (1,)))
    _ratfunc_agrees(R.one, ((1,), (1,)))
    seed, degree = data.draw(st.integers(0, 1 << 30)), data.draw(st.integers(0, 8))
    rng, orng = random.Random(seed), random.Random(seed)
    _check_ratfunc(_ratfunc_outcome(lambda: R.random(rng, degree)),
                   _ratfunc_outcome(lambda: O.random(orng, degree)))
    assert rng.getstate() == orng.getstate()


@pytest.mark.parametrize("m", PACKED_M)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_packed_pdivmod_and_pgcd_match_tuple_oracle(m, data):
    R = RatFuncField(m)
    K, S = R.base, R._pk.S
    a, b = data.draw(polys(m, 9)), data.draw(polys(m))
    pa, pb = (R.make(p, (1,)).num for p in (a, b))
    if b:
        q, r = ratfunc.pdivmod(R._pk, K, pa, pb)
        assert (_unpack(R, q), _unpack(R, r)) == _pdivmod(K, a, b)
    assert _unpack(R, ratfunc.pgcd(R._pk, K, pa, pb)) == _pgcd(K, a, b)
    assert ratfunc.format_poly(K, pa, "x") == TupleRatFuncs(R).format_poly(a)


def test_ratfunc_make_takes_coefficient_tuples():
    for m in PACKED_M:
        R = RatFuncField(m)
        K = R.base
        g = K.order - 1  # the top bit-pattern, a unit
        # (x^2 + 1)/(g x + g) = (x + 1)/g in characteristic 2
        r = R.make((1, 0, 1), (g, g))
        assert r == R.make([K.inv(g), K.inv(g)], [1]) == (R.x + R.one) / R.from_poly((g,))
        assert R.format_elem(R.make((1,), (0, 1))) == "1/(x)"
        with pytest.raises(DivisionByZero):
            R.make((1,), ())


def test_ratfunc_product_by_one_is_the_other_factor():
    for m in PACKED_M:
        R = _capped(m)
        # a denominator other than 1, and the cap of 8 reached exactly
        for r in (R.make((1, 1), (0, 1, 1)),
                  R.make((0,) * 8 + (1,), (1, 1)),
                  R.x ** 8):
            for one in (R.one, R.make((1,), (1,)), R.x / R.x):
                assert one * r == r and r * one == r
        with pytest.raises(DegreeCapExceeded, match="degree 9 exceeds cap 8"):
            R.x ** 8 * R.x


def test_ratfunc_degree_cap_message():
    for m in PACKED_M:
        R = _capped(m)
        with pytest.raises(DegreeCapExceeded, match="degree 9 exceeds cap 8"):
            R.x ** 9
        with pytest.raises(DegreeCapExceeded, match="degree 9 exceeds cap 8"):
            R.make((0,) * 9 + (1,), (1, 1))
        x8, y8 = R.x ** 7 * R.x, (R.x + R.one) ** 4 * (R.x + R.one) ** 4
        assert x8 / y8 == R.make((0,) * 8 + (1,), (1,) + (0,) * 7 + (1,))


# -- tuple-layout GF(2^m)(x)((t)) against the schoolbook oracle ---------------


TUPLE_M = (1, 2)


@st.composite
def ratfunc_coeffs(draw, R):
    """A residue element of R: zero, one, a monomial c x^k, or num/den
    with a denominator that need not be monic or coprime to the
    numerator."""
    m = R.base.m
    pick = draw(st.integers(0, 5))
    if pick == 0:
        return R.zero
    if pick == 1:
        return R.one
    if pick == 2:
        c = draw(st.integers(1, (1 << m) - 1))
        return R.make((0,) * draw(st.integers(0, 6)) + (c,), (1,))
    num = draw(polys(m, 4).filter(bool))
    den = draw(polys(m, 4).filter(bool))
    return R.make(num, den)


@st.composite
def ratfunc_laurent_pairs(draw, R):
    """(pairs, abs_prec) as `laurent_pairs` draws them, over R: exponents
    with gaps (interior zero slots), zero coefficients, repeated exponents,
    exponents at and above abs_prec; often a monomial."""
    kind = draw(st.sampled_from(["exact", "truncated", "zero", "O"]))
    if kind == "zero":
        return [], None
    if kind == "O":
        return [], draw(st.integers(-6, 12))
    pairs = draw(st.lists(st.tuples(st.integers(-6, 10), ratfunc_coeffs(R)),
                          max_size=draw(st.sampled_from([1, 8]))))
    prec = None if kind == "exact" else draw(st.integers(-4, 14))
    return pairs, prec


def _capped_outcome(fn):
    try:
        return fn()
    except (DivisionByZero, PrecisionExhausted, NegativeValuation,
            ValueError, DegreeCapExceeded) as e:
        return type(e)


@pytest.mark.parametrize("m", TUPLE_M)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_tuple_laurent_matches_schoolbook(m, data):
    F = make_field("laurent-ratfunc", m=m, precision=12)
    R = F.residue_field
    x_drawn = data.draw(ratfunc_laurent_pairs(R))
    (x, ox), (y, oy) = _ops_agree(data, F, x_drawn,
                                  data.draw(ratfunc_laurent_pairs(R)))
    _agrees(y + x, oy + ox)
    _agrees((x + y) * y, (ox + oy) * oy)
    # == and hash: a repeated exponent cancels, and zero adds nothing
    pairs, prec = x_drawn
    doubled = pairs + [(e, c) for e, c in pairs if e % 2 == 0] * 2
    x2 = F.make(list(reversed(doubled)), prec)
    assert x == x2 and hash(x) == hash(x2)
    assert x + F.zero == x and hash(x + F.zero) == hash(x)
    if prec is None:
        assert x + x == F.zero
    assert (x == y) == ((ox.v0, ox.coeffs, ox.abs_prec)
                        == (oy.v0, oy.coeffs, oy.abs_prec))


@pytest.mark.parametrize("m", TUPLE_M)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_tuple_laurent_degree_cap_matches_schoolbook(m, data):
    # a cap of 8 on num/den degrees: sums and products of these
    # coefficients cross it some of the time
    F = LaurentField(_capped(m), precision=6)
    R = F.residue_field
    # make adds the coefficients at a repeated exponent, so building an
    # operand can cross the cap too: the oracle must raise with it
    built = []
    for _ in range(2):
        pairs, prec = data.draw(ratfunc_laurent_pairs(R))
        x, ox = (_capped_outcome(lambda: F.make(pairs, prec)),
                 _capped_outcome(lambda: Schoolbook.make(F, pairs, prec)))
        _agrees_or_raised(x, ox)
        if not isinstance(ox, Schoolbook):
            return
        built.append((x, ox))
    (x, ox), (y, oy) = built
    for fr, fo in ((lambda: x + y, lambda: ox + oy),
                   (lambda: x * y, lambda: ox * oy),
                   (lambda: (x * y) * x, lambda: (ox * oy) * ox),
                   (x.inv, ox.inv)):
        _agrees_or_raised(_capped_outcome(fr), _capped_outcome(fo))


def test_tuple_laurent_degree_cap_examples():
    R = _capped(1)
    F = LaurentField(R, precision=6)
    one, t, x = F.one, F.uniformizer(), F.section(R.x)
    x5 = F.section(R.x ** 5)
    b = one + x ** 4 * t
    # x^5 * x^4 = x^9 crosses the cap of 8 in slot 2 ...
    with pytest.raises(DegreeCapExceeded, match="degree 9 exceeds cap 8"):
        (one + x5 * t) * b
    # ... unless that slot lies at or above the precision cut-off
    assert (one + x5 * t).truncated(2) * b == \
        F.make([(0, R.one), (1, R.x ** 5 + R.x ** 4)], 2)
    # 1/x^5 + 1/(x^4 + 1) has a denominator of degree 9
    a = F.section(R.make((1,), (0, 0, 0, 0, 0, 1)))
    c = F.section(R.make((1,), (1, 0, 0, 0, 1)))
    with pytest.raises(DegreeCapExceeded, match="degree 9 exceeds cap 8"):
        a + c
    # with a zero slot between them nothing is added
    assert a + c * t == F.make([(0, a.coeffs[0]), (1, c.coeffs[0])])
    # a monomial factor multiplies every slot of the other: x^5 * x^4 in
    # slot 1, on either side, and for a monomial of each
    x4 = F.section(R.x ** 4)
    for p, q in ((x5, b), (b, x5), (x5 * t, x4 * t ** 2), (x4, x5)):
        with pytest.raises(DegreeCapExceeded, match="degree 9 exceeds cap 8"):
            p * q
    # ... unless that slot lies at or above the precision cut-off
    c = one + x * t + x4 * t ** 2
    for p, q in ((x5.truncated(2), c), (c, x5.truncated(2))):
        assert p * q == F.make([(0, R.x ** 5), (1, R.x ** 6)], 2)
    assert x5 * (one + x * t ** 3) * F.one == \
        F.make([(0, R.x ** 5), (3, R.x ** 6)])


def test_tuple_laurent_inverse_cuts_before_the_degree_cap():
    # 1/(x^3 + x^-2 t^3) = x^-3 (1 + x^-5 t^3 + x^-10 t^6 + ...): the t^6
    # term would cross the cap of 8, but lies at the precision cut-off
    R = _capped(1)
    F = LaurentField(R, precision=6)
    x = R.x
    u = F.make([(0, x ** 3), (3, x.inv() ** 2)])
    assert u.inv() == F.make([(0, (x ** 3).inv()), (3, (x ** 8).inv())], 6)
    assert F.format_elem(u.inv()) == "(1/(x^3)) + (1/(x^8))*t^3 + O(t^6)"
    # at precision 7 the t^6 term is below the cut-off, and trips the cap
    F7 = LaurentField(R, precision=7)
    with pytest.raises(DegreeCapExceeded, match="degree 10 exceeds cap 8"):
        F7.make([(0, x ** 3), (3, x.inv() ** 2)]).inv()


def test_tuple_laurent_shares_zero_and_one():
    R = RatFuncField(2)
    F = make_field("laurent-ratfunc", m=2)
    assert R.zero is R.zero and R.one is R.one and F.one is F.one
    assert (R.x / (R.x + R.one) + R.x / (R.x + R.one)) is R.zero
    assert F.one == F.make([(0, R.one)]) and F.one.digits == (R.one,)


# -- inverse tables and packed slot vectors --------------------------------------


@pytest.mark.parametrize("m", range(1, 9))
def test_gf2m_inverse_table_matches_euclid(m):
    K = GF2m(m)
    assert K._inv is not None
    for a in range(1, K.order):
        assert K.inv(a) == K._euclid_inv(a)
        assert K.mul(a, K.inv(a)) == 1
        assert K.elem(a).inv() is K.elem(K._euclid_inv(a))
    with pytest.raises(DivisionByZero):
        K.zero.inv()


def test_gf2m_without_tables_inverts_by_euclid():
    K = GF2m(9)
    assert K._inv is None
    for a in (1, 2, 3, 257, K.order - 1):
        assert K.mul(a, K.inv(a)) == 1
    with pytest.raises(DivisionByZero):
        K.zero.inv()


SLOT_M = (1, 2, 3, 8, 9, 16)


@pytest.mark.parametrize("m", TUPLE_M)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_coordinate_vectors_scale_by_one_as_the_tuple_formula(m, data):
    R = RatFuncField(m)
    vec = _Coords(R)
    n = data.draw(st.integers(1, 6))
    coords = st.lists(ratfunc_coeffs(R), min_size=n, max_size=n).map(tuple)
    u, w = data.draw(coords), data.draw(coords)
    for a in (R.one, R.make((1,), (1,)), data.draw(ratfunc_coeffs(R))):
        assert vec.scale(a, u) == tuple(a * x for x in u)
        assert vec.axpy(w, a, u) == tuple(y + a * x for x, y in zip(u, w))


@pytest.mark.parametrize("m", SLOT_M)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_packed_slot_vectors_match_ff_arithmetic(m, data):
    K = GF2m(m)
    vec = _Slots(K)
    n = data.draw(st.integers(1, 18))
    bits = st.one_of(st.just(0), st.just(1), st.integers(0, K.order - 1))
    coords = st.lists(bits.map(K.elem), min_size=n, max_size=n)
    u, w = data.draw(coords), data.draw(coords)
    a = K.elem(data.draw(st.integers(0, K.order - 1)))
    pu, pw = vec.pack(u), vec.pack(w)
    assert vec.unpack(pu, n) == tuple(u)
    assert [vec.entry(pu, i) for i in range(n)] == \
        [None if x.is_zero() else x for x in u]
    assert vec.unpack(pu ^ pw, n) == tuple(x + y for x, y in zip(u, w))
    assert vec.unpack(vec.scale(a, pu), n) == tuple(a * x for x in u)
    assert vec.unpack(vec.axpy(pw, a, pu), n) == \
        tuple(y + a * x for x, y in zip(u, w))
    assert vec.first(pu) == next((i for i, x in enumerate(u)
                                  if not x.is_zero()), None)
    i = data.draw(st.integers(0, n - 1))
    assert vec.unpack(vec.drop(pu, i), n - 1) == tuple(u[:i] + u[i + 1:])


def test_every_exported_field_name_resolves():
    import wittlab.fields
    for name in wittlab.fields.__all__:
        assert hasattr(wittlab.fields, name), name
