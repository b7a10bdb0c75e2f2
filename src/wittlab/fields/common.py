"""Certified valuations, the half-integer grid, and the one
square-and-multiply.

A valuation query on a precision-tracked element has three possible
answers: an exact integer, `math.inf` for the exact zero, or
`AtLeast(bound)` when every known coefficient vanishes and the element
is indistinguishable from zero at the current precision.

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
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class AtLeast:
    """v(x) >= bound is certified; the exact value is unknown."""

    bound: int

    def __repr__(self):
        return f"v>={self.bound}"


INF = math.inf

Valuation = "int | float | AtLeast"


def lower_bound(v) -> "int | float":
    """A certified lower bound for the valuation answer v."""
    return v.bound if isinstance(v, AtLeast) else v


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
    Fractions.  Sums and differences with a Half or an int, products with
    an int, negation and `% m` for an int m run on n2 alone and give a
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

    def __mul__(a, b):
        if type(b) is int:
            return half(a.n2 * b)
        return Fraction.__mul__(a, b)

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
