"""Exact arithmetic for the supported residue and valued base fields.

Residue fields: GF(2^m) for 1 <= m <= 16 (perfect) and GF(2^m)(x)
(imperfect, [k:k^2] = 2 with 2-basis {1, x}).  Base fields: k((t)) with
the t-adic valuation and Q_2 with the 2-adic valuation.  All arithmetic
is exact or certified-precision-tracked; there is no floating point
anywhere.
"""

from __future__ import annotations

from ..errors import NotApplicable, UnsupportedResidueField
from .common import INF, AtLeast
from .dyadic import Dyadic, DyadicField
from .gf2m import FF, GF2m
from .laurent import Laurent, LaurentField
from .ratfunc import RatFunc, RatFuncField

__all__ = [
    "GF2m", "FF", "RatFuncField", "RatFunc", "LaurentField", "Laurent",
    "DyadicField", "Dyadic", "AtLeast", "INF", "make_field", "field_shorthand",
]


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
