"""The rational function fields GF(2^m)(x), the imperfect residue fields.

A polynomial over GF(2^m) is one packed int, in the slot layout that
`Laurent` over GF(2^m) uses too (`gf2m._Packing`): slot i, of S bits
(S = 1 for m = 1, S = 2m - 1 otherwise), holds the bit-pattern of the
coefficient of x^i, so p = sum c_i << (S*i), and the zero polynomial is 0.
Every slot holds a reduced field element.  A sum is one xor.  A product is
the carryless product of the two ints (`gf2m._clmul`), whose slot products
have degree at most 2m - 2 < S and so never overflow into the next slot,
followed by the reduction of every slot at once (`_Packing.reduce`); a
scalar multiple is the same product with a one-slot factor.  A product
with the factor 1 is the other factor, with no work: every element is
built within the degree cap, so it cannot trip the cap.  The degree is
(bit_length - 1) // S, -1 for the zero polynomial, and the leading
coefficient is the top slot.

A rational function is a normalized pair num/den of packed polynomials:
gcd 1 and monic denominator, so representations are canonical and
equality is structural.  `RatFuncField.make` takes low-first coefficient
tuples; the arithmetic builds its results from packed ints through
`RatFuncField._make`.

These fields satisfy [k : k^2] = 2 with 2-basis {1, x}: every c splits
uniquely as c = c0^2 + x*c1^2 (`frobenius_coordinates`), computed by
even/odd coefficient splitting after clearing the denominator.  The
Artin-Schreier root u^2 + u = c is only searched for, among polynomials
of degree at most AS_DEGREE_BOUND (`artin_schreier_root`).

A degree cap (default 512 on num/den degrees) converts runaway
intermediate growth into DegreeCapExceeded instead of a silent hang.
"""

from __future__ import annotations

from itertools import product

from ..errors import DegreeCapExceeded, DivisionByZero
from .common import Exact
from .gf2m import GF2m, _clmul, _Packing

# the degree bound of the Artin-Schreier search over GF(2^m)(x)
AS_DEGREE_BOUND = 2


def _pack(S: int, coeffs) -> int:
    """The packed polynomial with low-first coefficients `coeffs`."""
    p = 0
    for i, c in enumerate(coeffs):
        p |= c << (S * i)
    return p


def _lead(S: int, p: int) -> int:
    """Leading coefficient of a nonzero packed polynomial."""
    return p >> (S * ((p.bit_length() - 1) // S))


def pdivmod(pk: _Packing, K: GF2m, a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of packed polynomials, b != 0."""
    if not b:
        raise DivisionByZero("polynomial division by zero")
    S = pk.S
    stop = S * ((b.bit_length() - 1) // S)  # deg a >= deg b iff a.bit_length() > stop
    il = 1
    if b >> stop != 1:
        il = K.inv(b >> stop)
        b = pk.reduce(_clmul(il, b))  # monic
    q = 0
    while a.bit_length() > stop:
        s = S * ((a.bit_length() - 1) // S) - stop
        c = a >> (s + stop)
        q ^= c << s
        a ^= (b if c == 1 else pk.reduce(_clmul(c, b))) << s
    if il != 1:
        q = pk.reduce(_clmul(il, q))
    return q, a


def pgcd(pk: _Packing, K: GF2m, a: int, b: int) -> int:
    """Monic gcd of packed polynomials (0 for two zeros)."""
    while b:
        a, b = b, pdivmod(pk, K, a, b)[1]
    if a and _lead(pk.S, a) != 1:
        a = pk.reduce(_clmul(K.inv(_lead(pk.S, a)), a))
    return a


class RatFuncField:
    """GF(2^m)(x) with canonical num/den representation."""

    _cache: dict[tuple[int, int], "RatFuncField"] = {}

    def __new__(cls, m: int = 1, degree_cap: int = 512):
        key = (m, degree_cap)
        if key in cls._cache:
            return cls._cache[key]
        self = super().__new__(cls)
        self.base = GF2m(m)
        self._pk = self.base.packing
        self.degree_cap = degree_cap
        # one shared zero and one: elements are immutable
        self.zero = RatFunc(self, 0, 1)
        self.one = RatFunc(self, 1, 1)
        cls._cache[key] = self
        return self

    def __repr__(self):
        return f"{self.base!r}({self.variable})"

    char = 2
    is_perfect = False
    variable = "x"  # the only variable the literal grammar reads

    @property
    def x(self) -> "RatFunc":
        return RatFunc(self, 1 << self._pk.S, 1)

    def from_poly(self, coeffs) -> "RatFunc":
        return self._make(_pack(self._pk.S, coeffs), 1)

    def make(self, num, den) -> "RatFunc":
        """num/den from low-first coefficient tuples of GF(2^m) bit-patterns."""
        S = self._pk.S
        return self._make(_pack(S, num), _pack(S, den))

    def _make(self, num: int, den: int) -> "RatFunc":
        """num/den from packed polynomials, normalized."""
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        if not num:
            return self.zero
        pk, K = self._pk, self.base
        S = pk.S
        if den != 1:
            g = pgcd(pk, K, num, den)
            if g >> S:  # degree >= 1
                num = pdivmod(pk, K, num, g)[0]
                den = pdivmod(pk, K, den, g)[0]
            lead = _lead(S, den)
            if lead != 1:
                il = K.inv(lead)
                num = pk.reduce(_clmul(il, num))
                den = pk.reduce(_clmul(il, den))
        deg = (max(num.bit_length(), den.bit_length()) - 1) // S
        if deg > self.degree_cap:
            raise DegreeCapExceeded(f"degree {deg} exceeds cap {self.degree_cap}")
        return RatFunc(self, num, den)

    def frobenius_coordinates(self, c: "RatFunc") -> tuple["RatFunc", "RatFunc"]:
        """c = c0^2 + x*c1^2 with respect to the 2-basis {1, x}."""
        pk, K = self._pk, self.base
        S, smask = pk.S, pk.smask
        pq = pk.reduce(_clmul(c.num, c.den))  # c = (num*den)/den^2
        even = odd = shift = 0
        while pq:
            lo, hi = pq & smask, (pq >> S) & smask
            if lo:
                even |= K.sqrt(lo) << shift
            if hi:
                odd |= K.sqrt(hi) << shift
            pq >>= 2 * S
            shift += S
        return self._make(even, c.den), self._make(odd, c.den)

    def artin_schreier_root(self, c: "RatFunc") -> "RatFunc | None":
        """Bounded search for u with u^2 + u = c: the polynomials of
        degree at most AS_DEGREE_BOUND, so None means `none found'."""
        base = self.base
        if base.order ** (AS_DEGREE_BOUND + 1) > 1 << 12:
            return None
        for coeffs in product(range(base.order), repeat=AS_DEGREE_BOUND + 1):
            u = self.from_poly(coeffs)
            if u * u + u == c:
                return u
        return None

    def random(self, rng, degree: int = 2) -> "RatFunc":
        num = [rng.randrange(self.base.order) for _ in range(degree + 1)]
        return self.from_poly(num)

    def format_elem(self, c: "RatFunc") -> str:
        S = self._pk.S
        num = format_poly(self.base, c.num, self.variable)
        if c.den == 1:
            return num
        den = format_poly(self.base, c.den, self.variable)
        if c.num >> S:
            num = f"({num})"
        if c.den >> S:
            den = f"({den})"
        return f"{num}/{den}"


def format_poly(K: GF2m, p: int, var: str) -> str:
    if not p:
        return "0"
    S, smask = K.packing.S, K.packing.smask
    parts = []
    for e in range((p.bit_length() - 1) // S, -1, -1):
        c = (p >> (S * e)) & smask
        if c == 0:
            continue
        if e == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else f"{c}*"
            parts.append(f"{head}{var}" + (f"^{e}" if e > 1 else ""))
    return " + ".join(parts)


class RatFunc(Exact):
    """An element of GF(2^m)(x), canonically normalized; `num` and `den`
    are packed polynomials."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: RatFuncField, num: int, den: int):
        self.field = field
        self.num = num
        self.den = den

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and other.field is self.field
                and other.num == self.num and other.den == self.den)

    def __hash__(self):
        return hash((id(self.field), self.num, self.den))

    def is_zero(self) -> bool:
        return not self.num

    # the exact-zero test of the valued fields, which residue forms and
    # the shared steps of linalg read too
    is_exactly_zero = is_zero

    def __add__(self, other: "RatFunc") -> "RatFunc":
        F = self.field
        if self.den == 1 and other.den == 1:
            return RatFunc(F, self.num ^ other.num, 1)
        # reduction is linear, so the two cross products share one
        reduce = F._pk.reduce
        num = reduce(_clmul(self.num, other.den) ^ _clmul(other.num, self.den))
        return F._make(num, reduce(_clmul(self.den, other.den)))

    __sub__ = __add__

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        # every element is within the degree cap, so a factor 1 is free
        if self.num == 1 and self.den == 1:
            return other
        if other.num == 1 and other.den == 1:
            return self
        F = self.field
        reduce = F._pk.reduce
        num = reduce(_clmul(self.num, other.num))
        if self.den == 1 and other.den == 1:
            deg = (num.bit_length() - 1) // F._pk.S
            if deg > F.degree_cap:
                raise DegreeCapExceeded(f"degree {deg} exceeds cap {F.degree_cap}")
            return RatFunc(F, num, 1)
        return F._make(num, reduce(_clmul(self.den, other.den)))

    def inv(self) -> "RatFunc":
        if not self.num:
            raise DivisionByZero("inverse of 0 in " + repr(self.field))
        return self.field._make(self.den, self.num)
