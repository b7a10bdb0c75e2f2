"""The field Q_2 of 2-adic numbers with v(2) = 1 and residue field F_2.

An element is (v0, digits, abs_prec), as every `Certified` element: the
value digits * 2^v0 with digits odd, known modulo 2^abs_prec, or the
digits 0 for zero.  The odd unit `digits` is the 2-adic digit string of
the unit part.  An exact element may carry any odd Python int, possibly
negative, whose two's complement is its infinite 2-adic expansion.  At
finite precision the digits are normalized into [1, 2^(abs_prec - v0)).
The leading residue coefficient of a nonzero element is 1.

A sum shifts both digit strings to the smaller exponent, a product
multiplies them, and an inverse is the inverse of the unit modulo 2^rel;
`fields.common` gives the precisions.
"""

from __future__ import annotations

from ..errors import DivisionByZero, NotApplicable
from .common import Certified, half
from .gf2m import GF2m


class DyadicField:
    """Q_2 at a working relative precision (bits of the unit part)."""

    def __init__(self, precision: int = 64):
        self.residue_field = GF2m(1)
        self.precision = precision
        # one shared zero and one: elements are immutable
        self.zero, self.one = Dyadic(self, 0, 0, None), Dyadic(self, 1, 0, None)

    def __repr__(self):
        return "Q_2"

    def __eq__(self, other):
        return isinstance(other, DyadicField) and other.precision == self.precision

    def __hash__(self):
        return hash(("Q2", self.precision))

    char = 0
    v2 = half(2)

    # -- construction -------------------------------------------------------

    def make(self, unit: int, e: int, abs_prec=None) -> "Dyadic":
        if unit == 0:
            return Dyadic(self, 0, 0, abs_prec)
        v = (unit & -unit).bit_length() - 1
        unit >>= v
        e += v
        if abs_prec is not None:
            if abs_prec <= e:
                return Dyadic(self, 0, 0, abs_prec)
            unit %= 1 << (abs_prec - e)
        return Dyadic(self, unit, e, abs_prec)

    def from_int(self, n: int) -> "Dyadic":
        return self.make(n, 0, None)

    def uniformizer(self) -> "Dyadic":
        return Dyadic(self, 1, 1, None)

    def section(self, c) -> "Dyadic":
        """s: F_2 -> {0, 1}."""
        return self.one if not c.is_zero() else self.zero

    def lift_homog(self, c, degree) -> "Dyadic":
        """s(c) * 2^degree for an integer degree (an int or a Fraction)."""
        if c.is_zero():
            return self.zero
        if degree.denominator != 1:
            raise ValueError(f"no element of fractional valuation {degree}")
        return Dyadic(self, 1, degree.numerator, None)

    def zero_to_precision(self, bound: int) -> "Dyadic":
        return Dyadic(self, 0, 0, bound)

    def format_elem(self, x: "Dyadic") -> str:
        if x.digits == 0:
            return "0" if x.abs_prec is None else f"O(2^{x.abs_prec})"
        if x.abs_prec is None and x.v0 >= 0:
            return str(x.digits << x.v0)
        if x.abs_prec is None:
            return f"{x.digits}/{1 << -x.v0}"
        body = f"{x.digits}*2^{x.v0}" if x.v0 else str(x.digits)
        return f"{body} + O(2^{x.abs_prec})"


class Dyadic(Certified):
    __slots__ = ()

    def __init__(self, field: DyadicField, digits: int, v0: int, abs_prec):
        self.field = field
        self.v0 = v0 if digits else 0
        self.digits = digits
        self.abs_prec = abs_prec
        if digits:
            assert digits % 2 == 1
            assert abs_prec is None or v0 < abs_prec

    def _lead(self):
        return self.field.residue_field.one

    def truncated(self, abs_prec: int) -> "Dyadic":
        if self.abs_prec is not None:
            abs_prec = min(abs_prec, self.abs_prec)
        return self.field.make(self.digits, self.v0, abs_prec)

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        F = self.field
        if other.field is not F and other.field != F:
            raise NotApplicable("a sum needs one field")
        prec = self._join_prec(other)
        if self.digits == 0:
            return other.field.make(other.digits, other.v0, prec)
        if other.digits == 0:
            return self.field.make(self.digits, self.v0, prec)
        v0 = min(self.v0, other.v0)
        total = ((self.digits << (self.v0 - v0))
                 + (other.digits << (other.v0 - v0)))
        return self.field.make(total, v0, prec)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self):
        if self.digits == 0:
            return self
        if self.abs_prec is None:
            return Dyadic(self.field, -self.digits, self.v0, None)
        return self.field.make(-self.digits, self.v0, self.abs_prec)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        F = self.field
        if other.field is not F and other.field != F:
            raise NotApplicable("a product needs one field")
        exact = self.abs_prec is None and other.abs_prec is None
        prec = None if exact else self._mul_prec(other)
        if self.digits == 0 or other.digits == 0:
            return Dyadic(self.field, 0, 0, prec)
        if exact:  # a product of odd units is odd: already normalized
            return Dyadic(F, self.digits * other.digits, self.v0 + other.v0,
                          None)
        return self.field.make(self.digits * other.digits, self.v0 + other.v0,
                               prec)

    def inv(self) -> "Dyadic":
        if self.digits == 0:
            raise DivisionByZero("inverse of (certified) zero 2-adic")
        if self.abs_prec is None and self.digits in (1, -1):
            return Dyadic(self.field, self.digits, -self.v0, None)
        rel = self._inv_prec(self.v0)
        iu = pow(self.digits, -1, 1 << rel)
        return self.field.make(iu, -self.v0, rel - self.v0)
