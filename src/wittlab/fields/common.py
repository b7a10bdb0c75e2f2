"""Certified valuations, the precision rules, the half-integer grid, and
the one square-and-multiply.

A valuation query on a precision-tracked element has three possible
answers: an exact integer, `math.inf` for the exact zero, or
`AtLeast(bound)` when every known coefficient vanishes and the element
is indistinguishable from zero at the current precision.

The precision rules.  `Laurent` and `Dyadic` elements are known modulo
t^abs_prec or 2^abs_prec; `abs_prec is None` marks an exact element.
Their base `Certified` holds the element protocol, one for both: an
element is (v0, digits, abs_prec), digits empty for a zero, with
equality, hash, the zero tests, `valuation` and `low_bound` written once.
It holds every precision rule that does not depend on layout:
* a sum is known to the smaller abs_prec of its operands (`_join_prec`);
* a product to the smaller, over both factors, of the factor's abs_prec
  plus the other factor's certified low bound (`_mul_prec`); a product of
  exact elements is exact, so structural zeros are never lost;
* the inverse of x of valuation v carries the working precision of
  relative digits, capped at abs_prec - v, and raises PrecisionExhausted
  when none is left (`_inv_prec`); an exact monomial inverts exactly;
* O(t^k) knows its coefficients below degree k only: `coeff_at(d)` is 0
  when k > d and raises PrecisionExhausted when k <= d; `residue()` is
  `coeff_at(0)`, and NegativeValuation when v(x) < 0.
Each subclass keeps its constructor, leading coefficient, `+` and `*`
(their field checks inline, on the hottest path), the step of `inv` and
`truncated`.  The residue-field elements `FF` and `RatFunc` are exact:
their base `Exact` sets abs_prec = None, so one exactness test
(`is_exact`) serves every field, and negates as the identity
(characteristic 2).  Both bases share `Element`: x / y is
x * y.inv(), and x ** e is `power`.

Depths, norm values and graded degrees are exact rationals, and nearly
all of them lie on the grid (1/2)Z.  Such a value is built as a `Half`:
a `Fraction` that also stores its doubled numerator n2 and does its
common arithmetic on that int.  `half(n)` is n/2 as a Half; `grid(x)` is
x as a Half when it lies on the grid and as a plain `Fraction` when it
does not (a norm value that `norms.norm_shift` lowers by an odd number
of quarter steps, a degree a caller chooses off the grid).
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction

from ..errors import NegativeValuation, PrecisionExhausted, Record


class AtLeast(Record):
    """v(x) >= bound is certified; the exact value is unknown."""

    __slots__ = _fields = ("bound",)

    def __init__(self, bound: int):
        self.bound = bound

    def __repr__(self):
        return f"v>={self.bound}"


INF = math.inf


def is_exact(*rows) -> bool:
    """Whether every element of the rows has abs_prec None (is exact)."""
    return {x.abs_prec for row in rows for x in row} <= {None}


def _comparison(op, fallback):
    """The Half method for op: on n2 against a Half or an int, as Fraction
    compares against an infinite float or a nan, else Fraction's own."""
    def compare(a, b):
        t = type(b)
        if t is Half:
            return op(a.n2, b.n2)
        if t is int:
            return op(a.n2, 2 * b)
        if t is float and b - b != 0:
            # INF, the valuation of an exact zero, meets thresholds often
            return op(0.0, b)
        return fallback(a, b)
    return compare


class Half(Fraction):
    """An exact value on (1/2)Z that also stores n2 = 2 * value.

    A Half is a Fraction: str, repr, ==, hash and isinstance answer as for
    the equal Fraction, so it can key a dict that is looked up with
    Fractions.  Sums and differences with a Half or an int, int multiples
    n * h, negation and `% m` for an int m run on n2 alone and give a
    Half; comparisons with a Half or an int run on n2 alone, and those
    with an infinite float or a nan answer without it, as Fraction's do.
    Every other operand or operation falls through to Fraction's own
    method and gives what Fraction gives, a plain Fraction.

    Half(x) is grid(Fraction(x)): off the grid it is a plain Fraction.
    Fraction's own methods build values through the class (from_float in
    a comparison with a float, copy, pickle), and this keeps them exact.
    """

    __slots__ = ("n2",)

    def __new__(cls, numerator=0, denominator=None):
        return grid(Fraction(numerator, denominator))

    @classmethod
    def from_float(cls, f):
        # Fraction compares with a finite float through cls.from_float
        return grid(Fraction.from_float(f))

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    def __hash__(self):
        # hash(Fraction(n2, 2)) is the class of n2 * 2^-1 modulo the hash
        # prime, signed as n2, which is how an int of that class hashes
        return hash(self.n2 * _INV2)

    __eq__ = _comparison(operator.eq, Fraction.__eq__)
    __lt__ = _comparison(operator.lt, Fraction.__lt__)
    __le__ = _comparison(operator.le, Fraction.__le__)
    __gt__ = _comparison(operator.gt, Fraction.__gt__)
    __ge__ = _comparison(operator.ge, Fraction.__ge__)

    def __add__(a, b):
        t = type(b)
        if t is Half:
            return half(a.n2 + b.n2)
        if t is int:
            return half(a.n2 + 2 * b)
        return Fraction.__add__(a, b)

    def __radd__(a, b):
        if type(b) is int:
            return half(a.n2 + 2 * b)
        return Fraction.__radd__(a, b)

    def __sub__(a, b):
        t = type(b)
        if t is Half:
            return half(a.n2 - b.n2)
        if t is int:
            return half(a.n2 - 2 * b)
        return Fraction.__sub__(a, b)

    def __rsub__(a, b):
        if type(b) is int:
            return half(2 * b - a.n2)
        return Fraction.__rsub__(a, b)

    def __rmul__(a, b):
        if type(b) is int:
            return half(a.n2 * b)
        return Fraction.__rmul__(a, b)

    def __neg__(a):
        return half(-a.n2)

    def __mod__(a, b):
        # (n2 / 2) mod m = (n2 mod 2m) / 2; `% 1` gives one of the two cosets
        if type(b) is int:
            return half(a.n2 % (2 * b))
        return Fraction.__mod__(a, b)


_INV2 = pow(2, -1, sys.hash_info.modulus)
# one shared Half per small n2: the values are immutable, and the grid
# points a computation meets are few
_MEMO_LIMIT = 1 << 12
_memo: dict = {}


def half(n: int) -> Half:
    """n / 2 as a Half, for an int n."""
    h = _memo.get(n)
    if h is None:
        # built in place, in the two slots every Fraction keeps, since
        # Fraction(n, 2) would normalize through a gcd
        h = object.__new__(Half)
        h.n2 = n
        if n & 1:
            h._numerator, h._denominator = n, 2
        else:
            h._numerator, h._denominator = n >> 1, 1
        if -_MEMO_LIMIT <= n <= _MEMO_LIMIT:
            _memo[n] = h
    return h


def grid(x) -> Fraction:
    """x as a Half when 2x is an integer, else as the plain Fraction(x)."""
    t = type(x)
    if t is Half:
        return x
    if t is int:
        return half(2 * x)
    f = Fraction(x)
    if f.denominator > 2:
        return f
    return half(2 * f.numerator // f.denominator)


HALF = half(1)


def power(base, e: int, one):
    """base ** e by square-and-multiply (a negative e inverts the base
    first); the base is not squared after the last bit, so no product
    exceeds the result's size."""
    if e < 0:
        base, e = base.inv(), -e
    out = one
    while True:
        if e & 1:
            out = out * base
        e >>= 1
        if not e:
            return out
        base = base * base


class Element:
    """Printing, division and powers, for every field element class."""

    __slots__ = ()

    def __repr__(self):
        return self.field.format_elem(self)

    def __truediv__(self, other):
        return self * other.inv()

    def __pow__(self, e: int):
        return power(self, e, self.field.one)


class Exact(Element):
    """An element of a residue field: exact, of characteristic 2."""

    __slots__ = ()

    abs_prec = None  # exact, as the valued fields mark it

    def __neg__(self):
        return self


class Certified(Element):
    """A precision-tracked element of k((t)) or Q_2: (v0, digits, abs_prec),
    the value digits * (uniformizer)^v0 known modulo (uniformizer)^abs_prec,
    with digits empty (0 or ()) and v0 = 0 for a zero.  A subclass provides
    `_lead`, the leading residue coefficient of a nonzero element."""

    __slots__ = ("field", "v0", "digits", "abs_prec")

    def __eq__(self, other):
        return (type(other) is type(self) and other.field == self.field
                and other.v0 == self.v0 and other.digits == self.digits
                and other.abs_prec == self.abs_prec)

    def __hash__(self):
        return hash((self.v0, self.digits, self.abs_prec))

    def is_exactly_zero(self) -> bool:
        return not self.digits and self.abs_prec is None

    def is_certified_nonzero(self) -> bool:
        return bool(self.digits)

    def is_zero_to_precision(self) -> bool:
        return not self.digits

    def valuation(self):
        if self.digits:
            return self.v0
        return INF if self.abs_prec is None else AtLeast(self.abs_prec)

    def low_bound(self) -> "int | float":
        """Certified lower bound for the valuation."""
        if self.digits:
            return self.v0
        return INF if self.abs_prec is None else self.abs_prec

    def _join_prec(self, other):
        if self.abs_prec is None:
            return other.abs_prec
        if other.abs_prec is None:
            return self.abs_prec
        return min(self.abs_prec, other.abs_prec)

    def _mul_prec(self, other):
        """abs_prec of self * other: the minimum over the O() cross terms."""
        prec = None
        if self.abs_prec is not None:
            lb = other.low_bound()
            prec = None if lb == INF else self.abs_prec + lb
        if other.abs_prec is not None:
            lb = self.low_bound()
            p2 = None if lb == INF else other.abs_prec + lb
            prec = p2 if prec is None else (prec if p2 is None else min(prec, p2))
        return prec

    def _inv_prec(self, v: int) -> int:
        """Relative precision of the inverse of a nonzero element of
        valuation v, capped at the working precision."""
        rel = self.field.precision
        if self.abs_prec is not None:
            rel = min(rel, self.abs_prec - v)
        if rel <= 0:
            raise PrecisionExhausted("inverse would carry no certified digits")
        return rel

    def residue(self):
        v = self.valuation()
        if type(v) is int and v < 0:
            raise NegativeValuation(f"residue of element with v = {v}")
        return self.coeff_at(0)

    def coeff_at(self, degree):
        """Residue coefficient at `degree`, requiring certified v(x) >= degree.

        The degree is an int or a Fraction.  Fractional degrees have no
        coefficient: the answer is zero provided the certification holds.
        Raises PrecisionExhausted when the element is zero to a precision
        at or below `degree`, ValueError when v(x) < degree.
        """
        v = self.valuation()
        if type(v) is int:
            if v < degree:
                raise ValueError(
                    f"coeff_at({degree}) on element of valuation {v}")
            if v > degree:
                return self.field.residue_field.zero
            return self._lead()
        if self.abs_prec is None or self.abs_prec > degree:
            return self.field.residue_field.zero
        if self.abs_prec == degree:
            raise PrecisionExhausted(
                f"cannot read the coefficient at {degree}; "
                f"known only v >= {self.abs_prec}")
        raise PrecisionExhausted(f"cannot certify v >= {degree}; "
                                 f"known only v >= {self.abs_prec}")
