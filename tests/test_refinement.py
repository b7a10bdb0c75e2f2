"""Certified answers do not depend on the digits a truncated entry leaves
open.

A form with O(t^k) or O(2^k) entries stands for every form whose entries
agree with it below k.  So every depth, symbol and canonical answer the
library gives for it, when it gives one rather than an error, must equal
the answer for any exact refinement: the same form with the unknown
digits at and above k filled in at random.  The forms are small sums of
binary forms [a, b] over F2((t)), F4((t)), F2(x)((t)) and Q_2, plus
diagonal entries <c> over Q_2.  Over every field the draws must reach
truncated forms that get a depth answer and a symbol payload, so that
over F2(x)((t)) too the imperfect residue field is exercised past its
errors.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab import arason, norms
from wittlab.cli import _symbol_payload
from wittlab.errors import WittlabError
from wittlab.fields import make_field
from wittlab.quadform import QuadraticForm

FIELDS = {
    "F2((t))": make_field("laurent", m=1, precision=32),
    "F4((t))": make_field("laurent", m=2, precision=32),
    "F2(x)((t))": make_field("laurent-ratfunc", m=1, precision=32),
    "Q_2": make_field("dyadic", precision=32),
}

# an entry: (terms, abs_prec), terms a list of (exponent, coefficient)
# with the coefficient a residue bit-pattern over k((t)), over F2(x)((t))
# that of a polynomial in x, and an odd int over Q_2; abs_prec None for
# an exact entry
TERMS = {
    "F2((t))": st.lists(st.tuples(st.integers(-4, 3), st.just(1)),
                        min_size=1, max_size=3),
    "F4((t))": st.lists(st.tuples(st.integers(-4, 3), st.integers(1, 3)),
                        min_size=1, max_size=3),
    "F2(x)((t))": st.lists(st.tuples(st.integers(-4, 3), st.integers(1, 7)),
                           min_size=1, max_size=3),
    "Q_2": st.lists(st.tuples(st.integers(-3, 3),
                              st.sampled_from([1, 3, 5, 7])),
                    min_size=1, max_size=2),
}


@st.composite
def entries(draw, name):
    terms = draw(TERMS[name])
    lo = min(e for e, _ in terms)
    prec = draw(st.one_of(st.none(), st.integers(lo - 1, lo + 4)))
    return terms, prec


@st.composite
def drawn_forms(draw, name):
    """Binary blocks [a, b], and diagonal entries <c> over Q_2."""
    blocks = draw(st.lists(st.tuples(entries(name), entries(name)),
                           min_size=1, max_size=2))
    diagonal = draw(st.lists(entries(name), max_size=2)) if name == "Q_2" else []
    return blocks, diagonal


def element(F, terms, prec, fill=()):
    """The entry's element; `fill` lists (exponent, coefficient) terms at
    or above prec that an exact refinement adds."""
    if F.char == 0:
        x = F.zero
        for e, u in list(terms) + list(fill):
            x = x + F.make(u, e)
        return x if prec is None or fill else x.truncated(prec)
    pairs = [(e, residue(F.residue_field, c))
             for e, c in list(terms) + list(fill)]
    return F.make(pairs, None if fill else prec)


def residue(k, c):
    """The residue element with bit-pattern c: over GF(2^m)(x) the
    polynomial in x whose coefficient of x^i is bit i of c."""
    if k.is_perfect:
        return k.elem(c)
    return k.from_poly([(c >> i) & 1 for i in range(c.bit_length())])


def build(F, drawn, refine=None):
    """The drawn form, or its exact refinement when `refine` draws the
    filled-in digits of each truncated entry."""
    def entry(terms, prec):
        if prec is None or refine is None:
            return element(F, terms, prec)
        return element(F, terms, prec, refine(prec))

    blocks, diagonal = drawn
    q = QuadraticForm(F, [])
    for a, b in blocks:
        q = q.ortho_sum(QuadraticForm.binary(F, entry(*a), entry(*b)))
    if diagonal:
        q = q.ortho_sum(QuadraticForm.diagonal(F, [entry(*c) for c in diagonal]))
    return q


def answers(q):
    """The depth, symbol and canonical answers, an error as its type."""
    F = q.field
    out = []
    for ask in (lambda: str(norms.wildness_index(q)[0]),
                lambda: _symbol_payload(arason.boundary_symbol(q)[1], F),
                lambda: arason.canonical_decomposition(q).describe(
                    F.residue_field)):
        try:
            out.append(ask())
        except WittlabError as e:
            out.append(type(e))
    return out


def _is_truncated(drawn):
    blocks, diagonal = drawn
    entries = [e for pair in blocks for e in pair] + list(diagonal)
    return any(prec is not None for _, prec in entries)


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_answers_hold_on_exact_refinements(name):
    F = FIELDS[name]
    k = F.residue_field
    # random digits at exponents prec, prec + 1, prec + 2
    digit = st.integers(0, 7 if F.char == 0 or not k.is_perfect
                        else k.order - 1)
    digits = st.lists(digit, min_size=3, max_size=3)
    # the truncated forms that got a depth answer and a symbol payload
    reached = []

    @given(data=st.data())
    @settings(max_examples=100, deadline=None)
    def check(data):
        drawn = data.draw(drawn_forms(name))
        certified = answers(build(F, drawn))
        depth, symbol = certified[:2]
        if _is_truncated(drawn) and isinstance(depth, str) \
                and isinstance(symbol, dict) and symbol["payload"]:
            reached.append(drawn)
        for _ in range(2):
            refined = answers(build(F, drawn, lambda prec: [
                (prec + i, c) for i, c in enumerate(data.draw(digits)) if c]))
            for got, want in zip(refined, certified):
                if not (isinstance(want, type)
                        and issubclass(want, WittlabError)):
                    assert got == want

    check()
    assert reached
