"""Formal Laurent series k((t)) over a characteristic-2 residue field.

An element is (v0, digits, abs_prec): the series
c_0*t^v0 + c_1*t^(v0+1) + ..., known modulo t^abs_prec; `fields.common`
states the precision rules.  The inverse of c_0 t^v0 (1 + u) is
c_0^-1 t^-v0 times the geometric series in u.

Storage depends on the residue field, chosen once by `LaurentField`:

* GF(2^m): `digits` is one packed int.  Slot i, of S bits (S = 1 for
  m = 1, S = 2m - 1 otherwise), holds the bit-pattern of c_i, so
  digits = sum c_i << (S*i).  A sum is one shift and one xor.  A product
  is a carryless product of the two ints (xor of shifted copies of one
  operand, one per set bit of the other); slot products have degree at
  most 2m - 2 < S, so no slot overflows into the next, and every slot is
  then reduced modulo the field modulus at once with masked shifts.  The
  kernel (`gf2m._clmul`, `gf2m._Packing`) is the one `RatFunc` uses.
* GF(2^m)(x): `digits` is a tuple of residue elements c_0, c_1, ...
  The kernels work on one slot list of `RatFunc`s, and read a slot as
  zero when its numerator is, without a call.  A sum overlays the two
  shifted operands and adds only where both slots are nonzero.  A
  product fills min(len(a) + len(b) - 1, prec - v0) slots, stopping at
  the precision cut-off: a monomial factor (one slot) makes it one
  scalar multiple of the other factor's slots, a product of two monomials is one slot, and
  otherwise it convolves, seeding each slot with its first product
  instead of adding it to zero.  The residue products are the same, in
  the same order, on every path, so the degree cap of GF(2^m)(x) trips
  at the same slot; a residue factor 1 costs no product at all
  (`RatFunc.__mul__`).  The inverse cuts every term of its geometric
  series at the relative precision before forming it, so no slot that
  the answer does not hold can trip the cap.  One helper (`_trimmed`)
  drops the zero slots at both ends; every residue add and product is
  exact, so this is canonical without any sorting.

Normalization: the exact zero and the zero-to-precision element have
empty digits (0 or ()) and v0 = 0; otherwise c_0 and the top coefficient
are nonzero, and every stored exponent is below abs_prec.  `coeffs` is a
tuple view of c_0, c_1, ..., built on demand for packed elements.
"""

from __future__ import annotations

from ..errors import DivisionByZero, NotApplicable
from .common import INF, Certified
from .gf2m import GF2m, _clmul


class LaurentField:
    """k((t)) with v(t) = 1 and a default working precision in slots."""

    def __init__(self, residue, precision: int = 64):
        self.residue_field = residue
        self.precision = precision
        # packed digits over GF(2^m), a tuple of residue elements otherwise
        self._pk = residue.packing if isinstance(residue, GF2m) else None
        self._nil = () if self._pk is None else 0
        # one shared zero and one: elements are immutable
        self.zero = Laurent(self, 0, self._nil, None)
        self.one = self.make([(0, residue.one)])

    def __repr__(self):
        return f"{self.residue_field!r}(({self.variable}))"

    def __eq__(self, other):
        return (isinstance(other, LaurentField)
                and other.residue_field is self.residue_field
                and other.precision == self.precision)

    def __hash__(self):
        return hash((id(self.residue_field), self.precision))

    char = 2
    v2 = INF  # v(2) = infinity in characteristic 2
    variable = "t"  # the only uniformizer the literal grammar reads

    # -- construction ------------------------------------------------------

    def make(self, pairs, abs_prec=None) -> "Laurent":
        """Element from (exponent, residue coefficient) pairs; coefficients
        at a repeated exponent are added."""
        pk = self._pk
        if pk is not None:
            pairs = [(e, c.bits) for e, c in pairs
                     if abs_prec is None or e < abs_prec]
            if not pairs:
                return Laurent(self, 0, 0, abs_prec)
            v0 = min(e for e, _ in pairs)
            digits = 0
            for e, bits in pairs:
                digits ^= bits << (pk.S * (e - v0))
            return _normalized(self, pk.S, v0, digits, abs_prec)
        by_exp = {}
        for e, c in pairs:
            if e in by_exp:
                by_exp[e] = by_exp[e] + c
            else:
                by_exp[e] = c
        exps = sorted(e for e, c in by_exp.items()
                      if not c.is_zero() and (abs_prec is None or e < abs_prec))
        if not exps:
            return Laurent(self, 0, (), abs_prec)
        v0, top = exps[0], exps[-1]
        z = self.residue_field.zero
        coeffs = tuple(by_exp.get(e, z) for e in range(v0, top + 1))
        return Laurent(self, v0, coeffs, abs_prec)

    def uniformizer(self) -> "Laurent":
        return self.make([(1, self.residue_field.one)])

    def section(self, c) -> "Laurent":
        """The constant-coefficient lift; exact, s(0) = 0."""
        return self.make([(0, c)])

    def lift_homog(self, c, degree) -> "Laurent":
        """s(c) * t^degree for an integer degree (an int or a Fraction)."""
        if degree.denominator != 1:
            if c.is_zero():
                return self.zero
            raise ValueError(f"no element of fractional valuation {degree}")
        return self.make([(degree.numerator, c)])

    def zero_to_precision(self, bound: int) -> "Laurent":
        return Laurent(self, 0, self._nil, bound)

    def format_elem(self, x: "Laurent") -> str:
        k = self.residue_field
        parts = []
        for i, c in enumerate(x.coeffs):
            if c.is_zero():
                continue
            e = x.v0 + i
            cs = k.format_elem(c)
            if e == 0:
                parts.append(f"({cs})" if ("+" in cs or "/" in cs) else cs)
                continue
            t = self.variable + (f"^{e}" if e != 1 else "")
            if cs == "1":
                parts.append(t)
            elif "+" in cs or "/" in cs or "*" in cs:
                parts.append(f"({cs})*{t}")
            else:
                parts.append(f"{cs}*{t}")
        body = " + ".join(parts) if parts else "0"
        if x.abs_prec is not None:
            tail = f"O({self.variable}^{x.abs_prec})"
            body = tail if not parts else f"{body} + {tail}"
        return body


def _normalized(F: LaurentField, S: int, v0: int, digits: int, abs_prec):
    """Packed element: drop slots at or above abs_prec, then shift out the
    zero slots at the bottom."""
    if abs_prec is not None:
        n = abs_prec - v0
        digits = digits & ((1 << (S * n)) - 1) if n > 0 else 0
    if not digits:
        return Laurent(F, 0, 0, abs_prec)
    low = ((digits & -digits).bit_length() - 1) // S
    if low:
        digits >>= S * low
        v0 += low
    return Laurent(F, v0, digits, abs_prec)


def _trimmed(F: LaurentField, v0: int, c, abs_prec):
    """Tuple element from the slot list c, c[i] the coefficient of
    t^(v0 + i): drop the slots at or above abs_prec, then the zero slots
    at both ends."""
    hi = len(c) if abs_prec is None else min(len(c), abs_prec - v0)
    while hi > 0 and not c[hi - 1].num:
        hi -= 1
    lo = 0
    while lo < hi and not c[lo].num:
        lo += 1
    if lo >= hi:
        return Laurent(F, 0, (), abs_prec)
    return Laurent(F, v0 + lo, tuple(c[lo:hi]), abs_prec)


def _add_slots(x: Laurent, y: Laurent) -> Laurent:
    """x + y over a tuple layout: the operands overlaid on one slot list,
    added only where both slots are nonzero."""
    prec = x._join_prec(y)
    if x.v0 > y.v0:
        x, y = y, x
    a, b = x.digits, y.digits
    if not a or not b:
        return _trimmed(x.field, x.v0 if a else y.v0, a or b, prec)
    # b starts s slots above a; a slot of both lies below both precisions
    s = y.v0 - x.v0
    if s >= len(a):
        c = list(a)
        c += [x.field.residue_field.zero] * (s - len(a))
        c += b
    else:
        c = list(a[:s])
        for p, q in zip(a[s:], b):
            c.append(q if not p.num else p if not q.num else p + q)
        c += a[s + len(b):]  # the longer tail; the other slice is empty
        c += b[len(a) - s:]
    return _trimmed(x.field, x.v0, c, prec)


def _mul_slots(F: LaurentField, v0: int, a, b, prec) -> Laurent:
    """a * b over a tuple layout, both nonzero, product valuation v0: the
    convolution up to the precision cut-off, in the order i, then j, of
    the slot products a_i * b_j.  A monomial factor makes it one scalar
    multiple of the other factor's slots, in the same order."""
    n = len(a) + len(b) - 1
    if prec is not None:
        n = min(n, prec - v0)
        if n <= 0:
            return Laurent(F, 0, (), prec)
    if n == 1:  # a_0 * b_0 != 0, alone below the cut-off
        return Laurent(F, v0, (a[0] * b[0],), prec)
    z = F.residue_field.zero
    if len(a) == 1:
        a, b = b, a  # residue products commute
    if len(b) == 1:
        y = b[0]
        return _trimmed(F, v0, [z if not x.num else x * y for x in a[:n]],
                        prec)
    nb = [(j, y) for j, y in enumerate(b) if y.num]
    c = [z] * n
    for i, x in enumerate(a[:n]):
        if not x.num:
            continue
        for j, y in nb:
            k = i + j
            if k >= n:
                break
            acc = c[k]
            c[k] = x * y if acc is z else acc + x * y
    return _trimmed(F, v0, c, prec)


class Laurent(Certified):
    __slots__ = ()

    def __init__(self, field: LaurentField, v0: int, digits, abs_prec):
        self.field = field
        self.v0 = v0 if digits else 0
        self.digits = digits
        self.abs_prec = abs_prec
        if digits:
            pk = field._pk
            if pk is None:
                assert not digits[0].is_zero() and not digits[-1].is_zero()
                assert abs_prec is None or v0 + len(digits) <= abs_prec
            else:
                assert digits & pk.smask and not digits & pk.high
                assert abs_prec is None or \
                    digits.bit_length() <= pk.S * (abs_prec - v0)

    @property
    def coeffs(self) -> tuple:
        """The residue coefficients c_0, c_1, ... of t^v0, t^(v0+1), ..."""
        pk = self.field._pk
        if pk is None:
            return self.digits
        elem = self.field.residue_field.elem
        d, S, smask = self.digits, pk.S, pk.smask
        out = []
        while d:
            out.append(elem(d & smask))
            d >>= S
        return tuple(out)

    # -- queries -------------------------------------------------------------

    def _lead(self):
        """c_0, the residue coefficient of t^v0, of a nonzero element."""
        pk = self.field._pk
        if pk is None:
            return self.digits[0]
        return self.field.residue_field.elem(self.digits & pk.smask)

    def truncated(self, abs_prec: int) -> "Laurent":
        if self.abs_prec is not None and abs_prec >= self.abs_prec:
            return self
        F = self.field
        if F._pk is not None:
            return _normalized(F, F._pk.S, self.v0, self.digits, abs_prec)
        return _trimmed(F, self.v0, self.digits, abs_prec)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Laurent") -> "Laurent":
        F = self.field
        if other.field is not F and other.field != F:
            raise NotApplicable("a sum needs one field")
        pk = F._pk
        if pk is None:
            return _add_slots(self, other)
        a, b = self.digits, other.digits
        if not b:
            v0, digits = self.v0, a
        elif not a:
            v0, digits = other.v0, b
        else:
            s = other.v0 - self.v0
            if s >= 0:
                v0, digits = self.v0, a ^ (b << (pk.S * s))
            else:
                v0, digits = other.v0, b ^ (a << (-pk.S * s))
        return _normalized(F, pk.S, v0, digits, self._join_prec(other))

    __sub__ = __add__  # characteristic 2

    def __neg__(self):
        return self

    def __mul__(self, other: "Laurent") -> "Laurent":
        F = self.field
        if other.field is not F and other.field != F:
            raise NotApplicable("a product needs one field")
        a, b = self.digits, other.digits
        prec = (None if self.abs_prec is None and other.abs_prec is None
                else self._mul_prec(other))
        if not a or not b:
            return Laurent(F, 0, F._nil, prec)
        v0 = self.v0 + other.v0
        pk = F._pk
        if pk is None:
            return _mul_slots(F, v0, a, b, prec)
        if prec is not None:
            # slot i of either factor reaches only product slots >= i
            n = prec - v0
            if n <= 0:
                return Laurent(F, 0, 0, prec)
            mask = (1 << (pk.S * n)) - 1
            digits = _clmul(a & mask, b & mask) & mask
        else:
            digits = _clmul(a, b)
        # c_0 * c'_0 != 0 stays in slot 0, so v0 needs no renormalizing
        return Laurent(F, v0, pk.reduce(digits), prec)

    def inv(self) -> "Laurent":
        if not self.digits:
            raise DivisionByZero("inverse of (certified) zero Laurent series")
        F = self.field
        pk = F._pk
        lead = self._lead().inv()
        monomial = (self.digits < (1 << pk.S) if pk is not None
                    else len(self.digits) == 1)
        if monomial and self.abs_prec is None:
            return F.make([(-self.v0, lead)])
        rel = self._inv_prec(self.v0)
        # x = c t^v (1 + u): invert the unit part by a geometric series
        if pk is not None:
            # on packed ints from slot 0, each term cut at rel once, as its
            # factors are; reduce works slot by slot, so it commutes with
            # the cut
            cut = (1 << (pk.S * rel)) - 1
            u = (pk.reduce(_clmul(lead.bits, self.digits)) ^ 1) & cut
            geo = term = 1
            while term:
                term = pk.reduce(_clmul(term, u)) & cut
                geo ^= term
            return Laurent(F, -self.v0, pk.reduce(_clmul(lead.bits, geo)),
                           rel - self.v0)
        # every slot at or above rel is cut before it is formed: over
        # GF(2^m)(x) it could only trip the degree cap
        u = _trimmed(F, 1, [lead * c for c in self.digits[1:rel]], rel)
        geo = term = F.one.truncated(rel)
        while u.digits:
            term = _mul_slots(F, term.v0 + u.v0, term.digits, u.digits, rel)
            if not term.digits:
                break
            geo = geo + term
        return _trimmed(F, geo.v0 - self.v0, [lead * c for c in geo.digits],
                        rel - self.v0)
