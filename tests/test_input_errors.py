"""Checks of caller input and answer guards raise wittlab errors, so they
hold under `python -O` as well, which drops `assert` statements."""

from fractions import Fraction

import pytest

from wittlab import arason, graded, norms
from wittlab.errors import (DegenerateForm, GridViolation, NotApplicable,
                            WittlabError)
from wittlab.fields import make_field
from wittlab.graded import GradedVector, ShiftedQuadSpace
from wittlab.literals import parse_form
from wittlab.quadform import WittExpr

F2T = make_field("laurent", m=1)
F4T = make_field("laurent", m=2)
Q2 = make_field("dyadic")


def test_ortho_sum_over_two_fields_is_not_applicable():
    with pytest.raises(NotApplicable, match="one field"):
        parse_form("[1, t]", F2T).ortho_sum(parse_form("[1, t]", F4T))


def test_witt_expressions_over_two_fields_do_not_add():
    with pytest.raises(NotApplicable, match="one field"):
        WittExpr.binary(F2T, F2T.one, F2T.one) + \
            WittExpr.binary(F4T, F4T.one, F4T.one)


def test_norm_sum_over_two_fields_is_not_applicable():
    n1 = norms.initial_norm(parse_form("[1, t^-1]", F2T)).norm
    n2 = norms.initial_norm(parse_form("[1, t^-1]", F4T)).norm
    with pytest.raises(NotApplicable, match="one field"):
        norms.norm_sum(n1, n2)


@pytest.mark.parametrize("length", (1, 3))
def test_evaluate_on_a_vector_of_the_wrong_length(length):
    q = parse_form("[1, t^-1]", F2T)
    with pytest.raises(NotApplicable, match=f"length {length}"):
        q.evaluate([F2T.one] * length)


def test_residue_symbols_of_two_depths_do_not_add():
    _, s1 = arason.boundary_symbol(parse_form("[1, t^-1]", F2T))
    _, s2 = arason.boundary_symbol(parse_form("[1, 1]", F2T))
    assert s1.eps != s2.eps
    with pytest.raises(NotApplicable, match="one depth"):
        s1 + s2


def test_enumerate_wq_q2_reports_a_failed_round_trip(monkeypatch):
    real = arason.canonical_decomposition
    seen = []

    def wrong_once(form):
        dec = real(form)
        seen.append(dec)
        return dec if len(seen) != 5 else real(parse_form("<1, 1>", Q2))

    monkeypatch.setattr(arason, "canonical_decomposition", wrong_once)
    with pytest.raises(WittlabError, match="representative 4"):
        arason.enumerate_wq_Q2()


@pytest.mark.parametrize("op", ("+", "*"))
def test_laurent_arithmetic_over_two_fields_is_not_applicable(op):
    a, b = F2T.one + F2T.uniformizer(), F4T.make([(0, F4T.residue_field.elem(3))])
    with pytest.raises(NotApplicable, match="one field"):
        a + b if op == "+" else a * b


@pytest.mark.parametrize("op", ("+", "*"))
def test_dyadic_arithmetic_at_two_precisions_is_not_applicable(op):
    a = make_field("dyadic", precision=64).from_int(3)
    b = make_field("dyadic", precision=8).from_int(5)
    with pytest.raises(NotApplicable, match="one field"):
        a + b if op == "+" else a * b


def test_graded_vector_off_the_degree_grid():
    k = F2T.residue_field
    S = ShiftedQuadSpace(k, F2T.v2, 1, [0, Fraction(1, 2)], [k.one, k.one],
                         [[k.zero, k.one], [k.one, k.zero]], "II")
    with pytest.raises(GridViolation, match="off the degree grid"):
        GradedVector(S, Fraction(0), (k.one, k.one))


def test_descend_case2_with_unpaired_cosets_is_degenerate():
    k = F2T.residue_field
    half = Fraction(1, 2)
    z, o = k.zero, k.one
    S = ShiftedQuadSpace(k, F2T.v2, half, [0, 0, -half], [o, o, o],
                         [[z, z, o], [z, z, z], [o, z, z]], "II")
    with pytest.raises(DegenerateForm, match="do not pair"):
        graded.descend_case2(S)


def test_is_metabolic_reports_a_witness_that_disagrees(monkeypatch):
    q = parse_form("sum([1, t^-2], [1, t^-2])", F2T)
    S = norms.induced_space(q, norms.initial_norm(q))
    assert graded.is_metabolic(S).metabolic
    monkeypatch.setattr(graded, "metabolic_planes", lambda S: None)
    with pytest.raises(WittlabError, match="disagree"):
        graded.is_metabolic(S)
