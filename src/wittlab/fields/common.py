"""Certified valuations.

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
