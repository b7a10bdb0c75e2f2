"""A sweep of the public API over drawn forms, as a regression guard: each
form, over every field shorthand, with exact, `O()`-truncated and
inverted non-monomial entries and nested `sum` and `scale`, goes through
the wildness index, the boundary symbol, the canonical decomposition,
Witt equality with itself, the initial norm, the symplectic blocks and
the generator certificate at depths 0, 1/2, 1 and 3/2; each call ends in
an answer or a `WittlabError`, never in any other exception."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from wittlab import (boundary_symbol, canonical_decomposition,
                     generator_certificate, initial_norm, symplectic_blocks,
                     wildness_index, witt_equal)
from wittlab.errors import WittlabError
from wittlab.fields import field_shorthand
from wittlab.fields.common import half
from wittlab.literals import parse_form

# shorthand -> (the uniformizer's literal, residue constants)
SHORTHANDS = {
    "f2-laurent": ("t", ("1",)),
    "f2m-laurent:m=2": ("t", ("1", "2", "3")),
    "f2x-laurent": ("t", ("1", "x", "(1+x)")),
    "f2mx-laurent:m=2": ("t", ("1", "2", "x", "(3+x)")),
    "q2": ("2", ("1", "3", "5", "-1")),
}
FIELDS = {name: field_shorthand(name, precision=32, degree_cap=12)
          for name in SHORTHANDS}
DEPTHS = [half(n2) for n2 in range(4)]


@st.composite
def element_text(draw, u, consts):
    """An exact sum of one to three monomials, then possibly truncated
    by an `O()` term and divided by a sum of two or three monomials."""

    def poly(lo, hi):
        exps = draw(st.lists(st.integers(-3, 3), min_size=lo, max_size=hi,
                             unique=True))
        return " + ".join(f"{draw(st.sampled_from(consts))}*{u}^{e}"
                          for e in exps)

    text = poly(1, 3)
    if draw(st.integers(0, 3)) == 0:
        text += f" + O({u}^{draw(st.integers(-1, 6))})"
    if draw(st.integers(0, 3)) == 0:
        text = f"({text})/({poly(2, 3)})"
    return text


def form_text(u, consts, depth=2):
    el = element_text(u, consts)
    forms = [st.tuples(el, el).map(lambda p: f"[{p[0]}, {p[1]}]"),
             st.lists(el, min_size=1, max_size=2).map(
                 lambda xs: "<" + ", ".join(xs) + ">")]
    if depth:
        sub = form_text(u, consts, depth - 1)
        forms += [st.lists(sub, min_size=1, max_size=3).map(
                      lambda fs: "sum(" + ", ".join(fs) + ")"),
                  st.tuples(el, sub).map(lambda p: f"scale({p[0]}, {p[1]})")]
    return st.one_of(forms)


cases = st.sampled_from(sorted(SHORTHANDS)).flatmap(
    lambda name: st.tuples(st.just(name), form_text(*SHORTHANDS[name])))


def _ends_well(fn, *args):
    try:
        fn(*args)
    except WittlabError:
        pass


@given(case=cases)
@example(case=("f2m-laurent:m=2", "[2*t^-2 + 2*t, t^-2 + O(t^2)]"))
@example(case=("f2-laurent", "sum([t^-3, t^-2], [t^-3+t^2, t^-2+O(t^3)], "
                             "[t^2+O(t^5), t^-3])"))
@settings(max_examples=300, deadline=None)
def test_every_api_call_ends_in_an_answer_or_a_wittlab_error(case):
    name, text = case
    try:
        q = parse_form(text, FIELDS[name])
    except WittlabError:
        return
    for fn in (wildness_index, boundary_symbol, canonical_decomposition,
               initial_norm, symplectic_blocks):
        _ends_well(fn, q)
    _ends_well(witt_equal, q, q)
    for eps in DEPTHS:
        _ends_well(generator_certificate, q, eps)
