"""A sweep of the public API over drawn forms, as a regression guard: each
form, over every field shorthand, with exact, `O()`-truncated and
inverted non-monomial entries and nested `sum` and `scale`, goes through
the wildness index, the boundary symbol, the canonical decomposition,
Witt equality with itself, the initial norm, the symplectic blocks and
the generator certificate at depths 0, 1/2, 1 and 3/2; each call ends in
an answer or a `WittlabError`, never in any other exception.  A second
sweep sends drawn Witt expressions, rules and indices through
`quadform.rewrite`, which ends in `RuleNotApplicable` or in an expression
of the same Witt class."""

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wittlab import (boundary_symbol, canonical_decomposition,
                     generator_certificate, initial_norm, symplectic_blocks,
                     wildness_index, witt_equal)
from wittlab.arason import class_is_zero_tame_oracle
from wittlab.errors import RuleNotApplicable, WittlabError
from wittlab.fields import field_shorthand
from wittlab.fields.common import half
from wittlab.literals import parse_element, parse_form
from wittlab.quadform import WittExpr, rewrite

from form_helpers import expr_form, is_nonsingular

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
def monomial_sum(draw, u, consts, lo=1, hi=3):
    """An exact sum of lo to hi monomials with exponents in -3..3."""
    exps = draw(st.lists(st.integers(-3, 3), min_size=lo, max_size=hi,
                         unique=True))
    return " + ".join(f"{draw(st.sampled_from(consts))}*{u}^{e}" for e in exps)


@st.composite
def element_text(draw, u, consts):
    """An exact sum of one to three monomials, then possibly truncated
    by an `O()` term and divided by a sum of two or three monomials."""
    text = draw(monomial_sum(u, consts))
    if draw(st.integers(0, 3)) == 0:
        text += f" + O({u}^{draw(st.integers(-1, 6))})"
    if draw(st.integers(0, 3)) == 0:
        text = f"({text})/({draw(monomial_sum(u, consts, 2, 3))})"
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


@st.composite
def rewrite_calls(draw):
    """(shorthand, summands, rule, at, c): one to three exact binary
    summands ("bin", a, b), or over Q_2 also diagonal pairs ("diag", a,
    b), as literals; one of the eight rules or an unknown one; the
    indices, a bare int or a tuple of 0-3 ints in -2..4, half of the time
    as many distinct ones in range as the rule reads; and the factor c
    of rule (b) as a literal."""
    name = draw(st.sampled_from(["f2-laurent", "q2"]))
    u, consts = SHORTHANDS[name]
    el = monomial_sum(u, consts)
    kinds = ["bin", "diag"] if name == "q2" else ["bin"]
    summands = [draw(st.tuples(st.sampled_from(kinds), el, el))
                for _ in range(draw(st.integers(1, 3)))]
    rule = draw(st.sampled_from(["a", "b", "c", "d", "d_merge", "e", "f",
                                 "g", "z"]))
    n = sum(1 if kind == "bin" else 2 for kind, _, _ in summands)
    arity = 2 if rule in ("d", "d_merge", "f", "g") else 1
    if draw(st.booleans()):
        at = tuple(draw(st.permutations(range(min(n, 5))))[:arity])
    else:
        at = draw(st.one_of(st.integers(-2, 4), st.lists(
            st.integers(-2, 4), max_size=3).map(tuple)))
    return name, tuple(summands), rule, at, draw(el)


@given(call=rewrite_calls())
@example(call=("f2-laurent", (("bin", "1", "1"), ("bin", "1", "t")), "d",
               (0, 0), "1"))
@settings(max_examples=300, deadline=None)
def test_every_rewrite_keeps_the_class_or_is_not_applicable(call):
    name, summands, rule, at, c = call
    F = FIELDS[name]
    e = WittExpr(F)
    for kind, a, b in summands:
        a, b = parse_element(a, F), parse_element(b, F)
        e += (WittExpr.binary(F, a, b) if kind == "bin"
              else WittExpr.diagonal(F, [a, b]))
    assume(is_nonsingular(expr_form(e)))  # a singular form has no class
    try:
        out = rewrite(e, rule, at, c=parse_element(c, F))
    except RuleNotApplicable:
        return
    assert class_is_zero_tame_oracle(
        expr_form(e).ortho_sum(-expr_form(out))) is True
