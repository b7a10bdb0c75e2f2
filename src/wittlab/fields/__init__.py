"""Exact arithmetic for the supported residue and valued base fields.

Residue fields: GF(2^m) for 1 <= m <= 16 (perfect) and GF(2^m)(x)
(imperfect, [k:k^2] = 2 with 2-basis {1, x}).  Base fields: k((t)) with
the t-adic valuation and Q_2 with the 2-adic valuation.  All arithmetic
is exact or certified-precision-tracked; there is no floating point
anywhere.
"""

from __future__ import annotations

from ..errors import NotApplicable, UnsupportedResidueField
from . import dyadic, laurent
from .common import INF, AtLeast
from .dyadic import Dyadic, DyadicField
from .gf2m import FF, GF2m
from .laurent import Laurent, LaurentField
from .ratfunc import RatFunc, RatFuncField

__all__ = [
    "GF2m", "FF", "RatFuncField", "RatFunc", "LaurentField", "Laurent",
    "DyadicField", "Dyadic", "AtLeast", "INF", "make_field", "field_shorthand",
    "raw_digits",
]


def raw_digits(F):
    """The exact elements of F on their bare ints, for the kernels that sum
    many exact products at once; built once per residue field, as
    `residue_witt._vectors(k)` is.  None unless the digits of F are one
    int: Q_2 and GF(2^m)((t)).

    The element (v0, digits) is digits * (uniformizer)^v0, and the layout
    is (S, add, mul, reduce, make): values at exponents v, w >= base add
    as add(a << S*(v - base), b << S*(w - base)) at base, so a sum of any
    number of terms is one int at or below the least exponent among them;
    mul multiplies the digits of two elements, and reduce, unless None,
    brings a sum of such products back to digits; make(F, digits, v0) is
    the element, the exact zero for digits 0."""
    if isinstance(F, DyadicField):
        return dyadic.RAW
    if isinstance(F, LaurentField) and F._pk is not None:
        return laurent._raw(F._pk)
    return None


def make_field(kind: str, *, m: int = 1, precision: int = 64,
               degree_cap: int = 512):
    """Build a valued base field.

    kind: "laurent" for GF(2^m)((t)), "laurent-ratfunc" for GF(2^m)(x)((t)),
    "dyadic" for Q_2.
    """
    if kind == "laurent":
        return LaurentField(GF2m(m), precision)
    if kind == "laurent-ratfunc":
        return LaurentField(RatFuncField(m, degree_cap=degree_cap), precision)
    if kind == "dyadic":
        return DyadicField(precision)
    raise NotApplicable(f"unknown field kind {kind!r}")


def field_shorthand(text: str, *, precision: int = 64, degree_cap: int = 512):
    """CLI field shorthands: f2-laurent, f2m-laurent:m=K, f2x-laurent,
    f2mx-laurent:m=K, q2."""
    name, _, opts = text.partition(":")
    m = 1
    if opts:
        for part in opts.split(","):
            key, _, val = part.partition("=")
            if key.strip() != "m":
                raise UnsupportedResidueField(f"unknown field option {key!r}")
            try:
                m = int(val)
            except ValueError:
                raise UnsupportedResidueField(
                    f"field option m={val.strip()!r} is not an integer") from None
    if name == "q2":
        return make_field("dyadic", precision=precision)
    if name in ("f2-laurent", "f2m-laurent"):
        return make_field("laurent", m=m, precision=precision)
    if name in ("f2x-laurent", "f2mx-laurent"):
        return make_field("laurent-ratfunc", m=m, precision=precision,
                          degree_cap=degree_cap)
    raise UnsupportedResidueField(f"unknown field shorthand {text!r}")
