"""Arithmetic in the finite fields GF(2^m), 1 <= m <= 16.

Elements are represented as integer bit-patterns: the polynomial
a_0 + a_1*g + ... + a_{m-1}*g^(m-1) in the residue class ring
GF(2)[g]/(modulus) corresponds to the integer a_0 + 2*a_1 + ... .
The modulus for each degree is a fixed irreducible polynomial (the
smallest one as an int), shipped as constants so that square roots,
sections and all derived canonical choices are reproducible across
runs; a test checks both properties, the field does not re-check them.

Multiplication is carryless (shift/xor) followed by reduction; inversion
uses the extended Euclidean algorithm on bit-polynomials.  Fields with
m <= 8 read both from tables built once, next to an interned element
pool.  Every field of characteristic 2 here is perfect: sqrt is the
inverse of Frobenius, c^(2^(m-1)), computed by m - 1 squarings;
`artin_schreier_root` solves u^2 + u = c in closed form.

This module also holds the one carryless kernel of the package, shared by
the packed polynomials over GF(2^m): the coefficients of `Laurent` over
GF(2^m) and the numerators and denominators of `RatFunc`.  `_clmul` is
the carryless product of two ints.  `_Packing` (one per field, as
`GF2m.packing`) fixes the slot layout: coefficient i sits in slot i of S
bits, S = 1 for m = 1 and 2m - 1 otherwise, so the product of two packed
polynomials is `_clmul` of the two ints with no slot spilling into the
next (a slot product has degree at most 2m - 2 < S), and
`_Packing.reduce` then reduces every slot modulo the field modulus at
once with masked shifts.  Over GF(2) the slots are single bits and the
reduction is the identity.
"""

from __future__ import annotations

from ..errors import DivisionByZero, UnsupportedResidueField
from .common import Exact

# Smallest irreducible polynomial of each degree over GF(2), as bit-patterns.
IRREDUCIBLE = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
    9: 0b1000000011,
    10: 0b10000001001,
    11: 0b100000000101,
    12: 0b1000000001001,
    13: 0b10000000011011,
    14: 0b100000000100001,
    15: 0b1000000000000011,
    16: 0b10000000000101011,
}


def _clmul(a: int, b: int) -> int:
    """Carryless product of two bit-polynomials: one shifted copy of one
    operand per set bit of the other (the one with fewer set bits)."""
    if a.bit_count() > b.bit_count():
        a, b = b, a
    r = 0
    while a:
        low = a & -a
        r ^= b << (low.bit_length() - 1)
        a ^= low
    return r


class _Packing:
    """Slot layout of GF(2^m) coefficients in one int, with the masks that
    reduce every slot modulo the field modulus at once."""

    __slots__ = ("m", "S", "smask", "shifts", "nbits", "high", "masks")

    def __init__(self, k: "GF2m"):
        m = self.m = k.m
        self.S = 1 if m == 1 else 2 * m - 1
        self.smask = (1 << self.S) - 1
        low = k.modulus ^ (1 << m)
        # g^d = g^(d-m) * (modulus - g^m): bit d goes to d - m + b per set
        # bit b of the modulus below g^m, a right shift by m - b
        self.shifts = tuple(m - b for b in range(m) if low >> b & 1)
        self._grow(64 * self.S)

    def _grow(self, nbits: int):
        S, m = self.S, self.m
        n = -(-nbits // S)
        ones = ((1 << (S * n)) - 1) // self.smask  # bit 0 of every slot
        self.nbits = S * n
        self.high = ones * (self.smask ^ ((1 << m) - 1))
        self.masks = tuple(ones << d for d in range(2 * m - 2, m - 1, -1))

    def reduce(self, r: int) -> int:
        """Reduce every slot of an unreduced product modulo the modulus."""
        if self.m == 1:
            return r
        if r.bit_length() > self.nbits:
            self._grow(2 * r.bit_length())
        if r & self.high:
            for mask in self.masks:  # from bit 2m-2 down to bit m
                hi = r & mask
                if hi:
                    r ^= hi
                    for s in self.shifts:
                        r ^= hi >> s
        return r


def clmod(a: int, f: int) -> int:
    """Remainder of the bit-polynomial a modulo f."""
    df = f.bit_length() - 1
    while a.bit_length() - 1 >= df and a:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def cldivmod(a: int, f: int) -> tuple[int, int]:
    df = f.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= df and a:
        shift = a.bit_length() - 1 - df
        q |= 1 << shift
        a ^= f << shift
    return q, a


class GF2m:
    """The field GF(2^m) with the fixed modulus for its degree.

    Small fields (m <= 8) get an interned element pool, a full
    multiplication table and an inverse table; the filtration algorithms
    spend most of their time here, so element arithmetic must not
    allocate.
    """

    _cache: dict[int, "GF2m"] = {}

    def __new__(cls, m: int):
        if m in cls._cache:
            return cls._cache[m]
        if m not in IRREDUCIBLE:
            raise UnsupportedResidueField(
                f"GF(2^m) supported only for 1 <= m <= 16, got m={m}")
        self = super().__new__(cls)
        self.m = m
        self.modulus = IRREDUCIBLE[m]
        self.order = 1 << m
        self.packing = _Packing(self)
        self._table = self._inv = self._pool = None
        if m <= 8:
            self._table = [[clmod(_clmul(a, b), self.modulus)
                            for b in range(self.order)]
                           for a in range(self.order)]
            self._inv = [0] + [self._euclid_inv(a) for a in range(1, self.order)]
            self._pool = [FF(self, bits) for bits in range(self.order)]
        # one shared zero and one: elements are immutable
        self.zero, self.one = self.elem(0), self.elem(1)
        cls._cache[m] = self
        return self

    def __repr__(self):
        return f"GF(2^{self.m})" if self.m > 1 else "GF(2)"

    # -- payload-level arithmetic on bit-patterns ------------------------

    def mul(self, a: int, b: int) -> int:
        if self._table is not None:
            return self._table[a][b]
        return clmod(_clmul(a, b), self.modulus)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0 in " + repr(self))
        if self._inv is not None:
            return self._inv[a]
        return self._euclid_inv(a)

    def _euclid_inv(self, a: int) -> int:
        """The inverse of a nonzero a by extended Euclid on bit-polynomials."""
        r0, r1 = self.modulus, a
        s0, s1 = 0, 1
        while r1:
            q, r = cldivmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, s0 ^ _clmul(q, s1)
        return clmod(s0, self.modulus)

    def sqrt(self, a: int) -> int:
        """Inverse Frobenius: the unique b with b^2 = a, which is
        a^(2^(m-1)), so a squared m - 1 times."""
        for _ in range(self.m - 1):
            a = self.mul(a, a)
        return a

    def trace(self, a: int) -> int:
        """Absolute trace to GF(2), as 0 or 1."""
        t, x = 0, a
        for _ in range(self.m):
            t ^= x
            x = self.mul(x, x)
        return t

    def artin_schreier_root(self, c: "FF") -> "FF | None":
        """Some u with u^2 + u = c, or None when there is none, which is
        when trace(c) = 1; the other root is u + 1.

        The closed form through d = `canonical_trace_one()`,
        u = sum_{i<j<m} d^(2^j) c^(2^i), has u^2 + u = c + trace(c) d.
        """
        d, x, s, u = self.canonical_trace_one().bits, c.bits, 0, 0
        for _ in range(1, self.m):  # step j: d^(2^j) (c + ... + c^(2^(j-1)))
            s ^= x
            x, d = self.mul(x, x), self.mul(d, d)
            u ^= self.mul(d, s)
        return self.elem(u) if self.mul(u, u) ^ u == c.bits else None

    # -- element construction --------------------------------------------

    def elem(self, bits: int) -> "FF":
        if not 0 <= bits < self.order:
            raise ValueError(f"bit-pattern {bits} out of range for {self!r}")
        if self._pool is not None:
            return self._pool[bits]
        return FF(self, bits)

    def random(self, rng) -> "FF":
        return self.elem(rng.randrange(self.order))

    # -- residue-field protocol -------------------------------------------

    char = 2
    is_perfect = True

    def frobenius_coordinates(self, c: "FF") -> tuple["FF", "FF"]:
        """c = c0^2 + x*c1^2; perfect fields have c1 = 0 and c0 = sqrt(c)."""
        return self.elem(self.sqrt(c.bits)), self.zero

    def canonical_trace_one(self) -> "FF":
        """Smallest bit-pattern with absolute trace 1 (deterministic)."""
        return self.elem(next(b for b in range(1, self.order) if self.trace(b)))

    def format_elem(self, c: "FF") -> str:
        return str(c.bits)


class FF(Exact):
    """An element of GF(2^m), wrapping its bit-pattern."""

    __slots__ = ("field", "bits")

    def __init__(self, field: GF2m, bits: int):
        self.field = field
        self.bits = bits

    def __repr__(self):
        return f"{self.bits}:{self.field!r}"

    def __eq__(self, other):
        return (isinstance(other, FF) and other.field is self.field
                and other.bits == self.bits)

    def __hash__(self):
        return hash((self.field.m, self.bits))

    def is_zero(self) -> bool:
        return self.bits == 0

    # the exact-zero test of the valued fields, which residue forms and
    # the shared steps of linalg read too
    is_exactly_zero = is_zero

    def __add__(self, other: "FF") -> "FF":
        return self.field.elem(self.bits ^ other.bits)

    __sub__ = __add__

    def __mul__(self, other: "FF") -> "FF":
        f = self.field
        if f._table is not None:
            return f._pool[f._table[self.bits][other.bits]]
        return FF(f, f.mul(self.bits, other.bits))

    def inv(self) -> "FF":
        f = self.field
        if f._inv is not None and self.bits:
            return f._pool[f._inv[self.bits]]
        return f.elem(f.inv(self.bits))

    def sqrt(self) -> "FF":
        return self.field.elem(self.field.sqrt(self.bits))

    def trace(self) -> int:
        return self.field.trace(self.bits)
