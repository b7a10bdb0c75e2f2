"""Certified valuations, and the one square-and-multiply.

A valuation query on a precision-tracked element has three possible
answers: an exact integer, `math.inf` for the exact zero, or
`AtLeast(bound)` when every known coefficient vanishes and the element
is indistinguishable from zero at the current precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


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
