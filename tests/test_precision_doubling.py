"""Doubling the precision keeps every answer that does not ask for more.

The CLI retries a form at a doubled precision only when it ends in
`PrecisionExhausted`.  So a certified answer must not depend on the
precision it was found at, and an error of any other kind must not
either: at precision 2p the depth, the symbol and the canonical
decomposition of a form are those at p, and an error other than
`PrecisionExhausted` at p is the same error, with the same message, at
2p.  The forms are small sums of binary forms [a, b], and diagonal
entries <c> over Q_2, over F2((t)), F4((t)), F2(x)((t)) and Q_2; their
entries are exact monomial sums, or truncated by an O() term, or the
inverse of a non-monomial, which the field expands to its precision.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab import arason, norms
from wittlab.cli import _symbol_payload
from wittlab.errors import PrecisionExhausted, WittlabError
from wittlab.fields import field_shorthand
from wittlab.literals import parse_form

SHORTHANDS = ("f2-laurent", "f2m-laurent:m=2", "f2x-laurent", "q2")
UNITS = {"f2-laurent": ("1",), "f2m-laurent:m=2": ("1", "2", "3"),
         "f2x-laurent": ("1", "x", "(1+x)", "(x/(1+x))"),
         "q2": ("1", "3", "5", "7")}


@st.composite
def entries(draw, shorthand):
    """An entry's literal: a sum of one or two unit monomials, plain, with
    an O() term above them, or divided by (1 + u)."""
    u = "2" if shorthand == "q2" else "t"
    exps = sorted(draw(st.sets(st.integers(-4, 2), min_size=1, max_size=2)))
    text = "+".join(f"{draw(st.sampled_from(UNITS[shorthand]))}*{u}^{e}"
                    for e in exps)
    style = draw(st.sampled_from(("exact", "exact", "truncated", "inverse")))
    if style == "truncated":
        return f"{text} + O({u}^{exps[-1] + draw(st.integers(1, 4))})"
    if style == "inverse":
        return f"({text})/(1+{u})"
    return text


@st.composite
def forms(draw, shorthand):
    parts = [f"[{draw(entries(shorthand))}, {draw(entries(shorthand))}]"
             for _ in range(draw(st.integers(1, 2)))]
    if shorthand == "q2":
        parts += [f"<{draw(entries(shorthand))}>"
                  for _ in range(draw(st.integers(0, 2)))]
    return f"sum({', '.join(parts)})"


def answers(text, shorthand, precision):
    """The depth, symbol and canonical answers of the form at the given
    precision, an error as its type and message."""
    F = field_shorthand(shorthand, precision=precision)
    out = []
    for ask in (lambda q: str(norms.wildness_index(q)[0]),
                lambda q: _symbol_payload(arason.boundary_symbol(q)[1], F),
                lambda q: arason.canonical_decomposition(q).describe(
                    F.residue_field)):
        try:
            out.append(ask(parse_form(text, F)))
        except WittlabError as e:
            out.append((type(e), str(e)))
    return out


@pytest.mark.parametrize("shorthand", SHORTHANDS)
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_doubling_the_precision_keeps_the_answer(shorthand, data):
    text = data.draw(forms(shorthand))
    p = data.draw(st.sampled_from((6, 8, 12, 16)))
    for got, want in zip(answers(text, shorthand, 2 * p),
                         answers(text, shorthand, p)):
        if isinstance(want, tuple) and want[0] is PrecisionExhausted:
            continue
        assert got == want, (text, p)
