"""The half-integer grid type against Fraction, values off the grid, and
the NotReducible evidence a descent keeps for the residue symbol."""

import copy
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from wittlab import arason, graded, norms
from wittlab.fields import make_field
from wittlab.fields.common import HALF, Half, grid, half
from wittlab.graded import ShiftedQuadSpace, coset_decomposition, is_metabolic
from wittlab.literals import parse_form
from wittlab.norms import NotReducible

F2T = make_field("laurent", m=1)
F4T = make_field("laurent", m=2)
Q2 = make_field("dyadic")

BINARY = [operator.add, operator.sub, operator.mul, operator.truediv,
          operator.floordiv, operator.mod, operator.pow]
COMPARE = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt,
           operator.ge]

n2s = st.one_of(st.integers(-50, 50), st.integers(-2 ** 80, 2 ** 80))
partners = st.one_of(
    st.integers(-50, 50),
    st.integers(-2 ** 70, 2 ** 70),
    st.fractions(max_denominator=12),
    n2s.map(half),
    st.sampled_from([0.5, -1.25, 0.1, math.inf, -math.inf, math.nan]),
)


def as_fraction(x):
    """A Half as the plain Fraction of equal value; anything else as is."""
    return Fraction(x.numerator, x.denominator) if type(x) is Half else x


def outcome(fn):
    """What fn() gives, in a form that compares a Half like its Fraction."""
    try:
        r = fn()
    except (ArithmeticError, ValueError, TypeError) as e:
        return type(e), str(e)
    if isinstance(r, float) and math.isnan(r):
        return float, "nan"
    assert_well_formed(r)
    return type(as_fraction(r)), as_fraction(r), str(r), repr(r)


def assert_well_formed(x):
    """A Half holds n2 = 2x and the normalized numerator and denominator."""
    if type(x) is Half:
        assert x.n2 == 2 * x
        assert x.denominator in (1, 2)
        assert math.gcd(x.numerator, x.denominator) == 1
        assert (x.denominator == 2) == (x.n2 % 2 == 1)


@given(n2=n2s, b=partners)
@settings(max_examples=400, deadline=None)
def test_half_agrees_with_fraction(n2, b):
    h, f, fb = half(n2), Fraction(n2, 2), as_fraction(b)
    for op in COMPARE:
        assert outcome(lambda: op(h, b)) == outcome(lambda: op(f, fb))
        assert outcome(lambda: op(b, h)) == outcome(lambda: op(fb, f))
    for op in BINARY:
        if op is operator.pow and (abs(n2) > 50 or not isinstance(b, int)
                                   or abs(b) > 8):
            continue  # keep the powers small and exact
        assert outcome(lambda: op(h, b)) == outcome(lambda: op(f, fb))
        if op is not operator.pow or n2 >= 0:
            assert outcome(lambda: op(b, h)) == outcome(lambda: op(fb, f))


@given(n2=n2s)
@settings(max_examples=300, deadline=None)
def test_half_unary_hash_and_copies(n2):
    h, f = half(n2), Fraction(n2, 2)
    for op in (operator.neg, operator.pos, abs, int, bool, math.floor,
               math.ceil, round):
        assert outcome(lambda: op(h)) == outcome(lambda: op(f))
    coset = h % 1
    assert type(coset) is Half and coset == f % 1
    assert coset is half(0) or coset is HALF
    assert (str(h), repr(h), hash(h)) == (str(f), repr(f), hash(f))
    assert isinstance(h, Fraction)
    assert {f: "x"}[h] == "x" and {h: "x"}[f] == "x"
    assert {Fraction(0): 0, HALF: 1}[f % 1] == (n2 % 2)
    for c in (copy.copy(h), copy.deepcopy(h), pickle.loads(pickle.dumps(h))):
        assert type(c) is Half and c == h and c.n2 == n2


@given(x=st.one_of(st.integers(-50, 50), st.fractions(max_denominator=12),
                   n2s.map(half)))
def test_grid_keeps_off_grid_values_plain(x):
    for g in (grid(x), Half(x)):
        assert g == x and str(g) == str(Fraction(x))
        if (2 * Fraction(x)).denominator == 1:
            assert type(g) is Half and g.n2 == 2 * x
        else:
            assert type(g) is Fraction


def test_grid_from_strings_and_floats():
    assert type(Half("3/2")) is Half and Half("3/2").n2 == 3
    assert type(Half(0.25)) is Fraction and Half(0.25) == Fraction(1, 4)
    assert Half.from_float(-1.5).n2 == -3
    assert type(Half.from_float(0.1)) is Fraction


# -- values off the half-integer grid ---------------------------------------------


def test_generator_certificate_off_the_grid():
    # the quarter-grid norm norm_shift builds at eps = 1/2 stays plain
    # Fraction; the outcomes are those recorded before the grid type
    for lit, values, terms, vanished in [
            ("[1, t]", ["-1/4", "-1/4"], [], 1),
            ("[t, t^-1]", ["1/4", "-3/4"], [(True, "1", "t")], 0)]:
        q = parse_form(lit, F2T)
        expr = arason.generator_certificate(q, Fraction(1, 2))
        got = [(t.scaled, str(t.alpha), str(t.beta)) for t in expr.terms]
        assert (got, expr.vanished) == (terms, vanished)
        assert type(expr.eps) is Half and expr.eps == HALF
        w, cert = norms.wildness_index(q)
        shifted = norms.norm_shift(cert.norm, w, HALF)
        assert [str(v) for v in shifted.values] == values
        assert all(type(v) is Fraction for v in shifted.values)
        moved = norms.require_certificate(q, shifted, HALF)
        (_, vals, _), = norms.split_respecting_norm(q, moved)
        assert [str(v) for v in vals] == values
        assert all(type(v) is Fraction for v in vals)
        assert [str(shifted.value(c)) for c in (
            [F2T.one, F2T.zero], [F2T.zero, F2T.one])] == values


def test_off_grid_shifted_space_keeps_fractions():
    k = F2T.residue_field
    third = Fraction(1, 3)
    S = ShiftedQuadSpace(k, F2T.v2, 1, [third, -third - 1],
                         [k.zero, k.zero],
                         [[k.zero, k.one], [k.one, k.zero]], "II")
    assert [repr(d) for d in S.degrees] == \
        ["Fraction(1, 3)", "Fraction(-4, 3)"]
    assert [type(d) for d in S.degrees] == [Fraction, Fraction]
    assert type(S.eps) is Half and S.eps == 1
    assert coset_decomposition(S) == \
        {Fraction(1, 3): [0], Fraction(2, 3): [1]}
    report = is_metabolic(S)
    assert [(repr(x.degree), repr(y.degree)) for x, y in report.planes] == \
        [("Fraction(1, 3)", "Fraction(-4, 3)")]


# -- the NotReducible evidence ----------------------------------------------------


@pytest.mark.parametrize("field, literals", [
    (F2T, ["[1, t^-1]", "[1+t, t^-1+t]", "sum([1, t^-3], [t, t^-1])",
           "sum([1, t^-1], [1, t^-3])"]),
    (F4T, ["[1, t^-1]", "sum([1, t^-3], [1, 1])", "[t, t^-5]"]),
    (Q2, ["<1>", "<1, 1>", "<1, 2, 5>", "[1, 1/2]", "<3, 6>"]),
])
def test_kept_evidence_gives_the_fresh_symbol(field, literals):
    kept = 0
    for lit in literals:
        q = parse_form(lit, field)
        eps, cert = norms.wildness_index(q)
        fresh = copy.copy(cert)
        fresh.evidence = None
        assert fresh == cert
        assert arason._symbol_from_cert(q, cert) == \
            arason._symbol_from_cert(q, fresh)
        if cert.evidence is None:
            continue
        kept += 1
        step = norms.depth_reduce(q, cert)
        assert isinstance(step, NotReducible)
        assert cert.evidence == step.evidence == \
            graded.orbit_invariants(norms.induced_space(q, cert))
    assert kept
