"""The field Q_2 of 2-adic numbers with v(2) = 1 and residue field F_2.

An element is (unit, e, abs_prec): the value unit * 2^e with unit odd,
known modulo 2^abs_prec, or the unit 0 for zero.  The unit of an exact
element is an arbitrary odd Python integer, possibly negative.  At finite
precision the unit is normalized into [1, 2^(abs_prec - e)) and odd.
The leading residue coefficient of a nonzero element is 1.

A sum shifts both units to the smaller exponent, a product multiplies
the units, and an inverse is the inverse of the unit modulo 2^rel;
`fields.common` gives the precisions.  Hensel roots of u^2 + u + c
(v(c) > 0) come from Newton iteration, which converges since 2u + 1 is
a unit.
"""

from __future__ import annotations

from ..errors import DivisionByZero, NotApplicable
from .common import INF, AtLeast, Certified, half
from .gf2m import GF2m


def _v2_int(n: int) -> int:
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


class DyadicField:
    """Q_2 at a working relative precision (bits of the unit part)."""

    def __init__(self, precision: int = 64):
        self.residue_field = GF2m(1)
        self.precision = precision

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
        v = _v2_int(unit)
        unit >>= v
        e += v
        if abs_prec is not None:
            if abs_prec <= e:
                return Dyadic(self, 0, 0, abs_prec)
            unit %= 1 << (abs_prec - e)
        return Dyadic(self, unit, e, abs_prec)

    def from_int(self, n: int) -> "Dyadic":
        return self.make(n, 0, None)

    @property
    def zero(self) -> "Dyadic":
        return Dyadic(self, 0, 0, None)

    @property
    def one(self) -> "Dyadic":
        return Dyadic(self, 1, 0, None)

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

    # -- Hensel ---------------------------------------------------------------

    def artin_schreier_lift(self, c: "Dyadic") -> "Dyadic":
        """Newton iteration for the v > 0 root of u^2 + u + c = 0."""
        if c.low_bound() < 1:
            raise NotApplicable(
                f"artin_schreier_lift needs v(c) > 0, got v = {c.valuation()}")
        if c.is_exactly_zero():
            return self.zero
        if c.is_zero_to_precision():
            return self.zero_to_precision(c.abs_prec)
        bound = c.e + self.precision
        if c.abs_prec is not None:
            bound = min(bound, c.abs_prec)
        u = self.make(0, 0, bound)
        while True:
            fu = u * u + u + c
            fv = fu.low_bound()
            if fv >= bound or fv == INF:
                return u.truncated(bound)
            deriv = self.from_int(2) * u + self.one
            u = (u - fu / deriv).truncated(bound)

    def format_elem(self, x: "Dyadic") -> str:
        if x.unit == 0:
            return "0" if x.abs_prec is None else f"O(2^{x.abs_prec})"
        if x.abs_prec is None and x.e >= 0:
            return str(x.unit << x.e)
        if x.abs_prec is None:
            return f"{x.unit}/{1 << -x.e}"
        body = f"{x.unit}*2^{x.e}" if x.e else str(x.unit)
        return f"{body} + O(2^{x.abs_prec})"


class Dyadic(Certified):
    __slots__ = ("field", "unit", "e", "abs_prec")

    def __init__(self, field: DyadicField, unit: int, e: int, abs_prec):
        self.field = field
        self.unit = unit
        self.e = e if unit else 0
        self.abs_prec = abs_prec
        if unit:
            assert unit % 2 == 1
            assert abs_prec is None or e < abs_prec

    def __eq__(self, other):
        return (isinstance(other, Dyadic) and other.field == self.field
                and other.unit == self.unit and other.e == self.e
                and other.abs_prec == self.abs_prec)

    def __hash__(self):
        return hash((self.unit, self.e, self.abs_prec))

    # -- queries ----------------------------------------------------------------

    def is_exactly_zero(self) -> bool:
        return self.unit == 0 and self.abs_prec is None

    def is_certified_nonzero(self) -> bool:
        return self.unit != 0

    def is_zero_to_precision(self) -> bool:
        return self.unit == 0

    def valuation(self):
        if self.unit:
            return self.e
        return INF if self.abs_prec is None else AtLeast(self.abs_prec)

    def low_bound(self):
        if self.unit:
            return self.e
        return INF if self.abs_prec is None else self.abs_prec

    def _lead(self):
        return self.field.residue_field.one

    def truncated(self, abs_prec: int) -> "Dyadic":
        if self.abs_prec is not None:
            abs_prec = min(abs_prec, self.abs_prec)
        return self.field.make(self.unit, self.e, abs_prec)

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other: "Dyadic") -> "Dyadic":
        F = self.field
        if other.field is not F and other.field != F:
            raise NotApplicable("a sum needs one field")
        prec = self._join_prec(other)
        if self.unit == 0:
            return other.field.make(other.unit, other.e, prec)
        if other.unit == 0:
            return self.field.make(self.unit, self.e, prec)
        e = min(self.e, other.e)
        total = (self.unit << (self.e - e)) + (other.unit << (other.e - e))
        return self.field.make(total, e, prec)

    def __sub__(self, other: "Dyadic") -> "Dyadic":
        return self + (-other)

    def __neg__(self):
        if self.unit == 0:
            return self
        if self.abs_prec is None:
            return Dyadic(self.field, -self.unit, self.e, None)
        return self.field.make(-self.unit, self.e, self.abs_prec)

    def __mul__(self, other: "Dyadic") -> "Dyadic":
        F = self.field
        if other.field is not F and other.field != F:
            raise NotApplicable("a product needs one field")
        prec = (None if self.abs_prec is None and other.abs_prec is None
                else self._mul_prec(other))
        if self.unit == 0 or other.unit == 0:
            return Dyadic(self.field, 0, 0, prec)
        return self.field.make(self.unit * other.unit, self.e + other.e, prec)

    def inv(self) -> "Dyadic":
        if self.unit == 0:
            raise DivisionByZero("inverse of (certified) zero 2-adic")
        if self.abs_prec is None and self.unit in (1, -1):
            return Dyadic(self.field, self.unit, -self.e, None)
        rel = self._inv_prec(self.e)
        iu = pow(self.unit, -1, 1 << rel)
        return self.field.make(iu, -self.e, rel - self.e)
