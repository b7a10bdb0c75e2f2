"""Checks of caller input and answer guards raise wittlab errors, so they
hold under `python -O` as well, which drops `assert` statements."""

import re
from fractions import Fraction

import pytest

from wittlab import arason, graded, norms, quadform
from wittlab.errors import (DegenerateForm, GridViolation, NotApplicable,
                            RuleNotApplicable, SingularMatrix,
                            UnsupportedResidueField, WittlabError, WrongCase)
from wittlab.fields import INF, field_shorthand, make_field
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


# -- safety raises of the library, each with its type and message -----------------


def _k2_space(eps, degrees, qvals, bmat, tag, v2=INF):
    """A hand-built space over GF(2), entries given as bits."""
    k = F2T.residue_field
    return ShiftedQuadSpace(k, v2, eps, degrees, [k.elem(b) for b in qvals],
                            [[k.elem(b) for b in row] for row in bmat], tag)


QUARTER = Fraction(1, 4)


@pytest.mark.parametrize("space, message", [
    (_k2_space(-1, [0], [0], [[0]], "II"), "shift eps = -1 is negative"),
    (_k2_space(0, [QUARTER], [1], [[0]], "II"),
     "q(e_0) must vanish: degree 1/2 is off-grid"),
    (_k2_space(0, [0, QUARTER], [0, 0], [[0, 1], [1, 0]], "II"),
     "b(e_0,e_1) must vanish: degree 1/4 is off-grid"),
    (_k2_space(0, [0, 0], [0, 0], [[0, 1], [0, 0]], "I"),
     "b is not symmetric at (0,1)"),
    (_k2_space(Fraction(1, 2), [0], [0], [[0]], "II"),
     "dim V_[0] = 1 != dim V_[1/2] = 0; b is degenerate"),
    (_k2_space(1, [0, -1], [1, 1], [[0, 0], [0, 0]], "II"),
     "b is degenerate on the coset pair [0], [0]"),
    (_k2_space(1, [0, 0], [0, 0], [[0, 1], [1, 0]], "I"),
     "type I requires eps = 0, got 1"),
    (_k2_space(0, [0, 0], [0, 0], [[1, 1], [1, 0]], "I"),
     "the polar of a quadratic form is alternating in characteristic 2; "
     "b(e_0,e_0) != 0"),
    (_k2_space(1, [0, -1], [1, 1], [[1, 1], [1, 0]], "II"),
     "type II requires alternating b; b(e_0,e_0) != 0"),
    (_k2_space(0, [0], [1], [[1]], "III", v2=Q2.v2),
     "type III requires eps = v(2) < infinity"),
    (_k2_space(1, [0], [0], [[1]], "III", v2=Q2.v2),
     "type III requires q(e_0) = tau^-1 b(e_0,e_0)"),
    (_k2_space(0, [0, 0], [0, 0], [[0, 1], [1, 0]], "IV"),
     "unknown type tag 'IV'"),
])
def test_is_metabolic_names_the_first_violation(space, message):
    with pytest.raises(DegenerateForm, match=f"^{re.escape(message)}$"):
        graded.is_metabolic(space)


def _certificate(lit, field):
    return norms.wildness_index(parse_form(lit, field))[1]


def _singular_norm_value():
    one = F2T.one
    norm = norms.VNorm(F2T, [[one, one], [one, one]], [0, 0])
    return norm.value([one, F2T.zero])


def _change_basis_singular():
    one = F2T.one
    return parse_form("[1, t]", F2T).change_basis([[one, one], [one, one]])


def _rewrite_unknown_rule():
    return quadform.rewrite(WittExpr.binary(F2T, F2T.one, F2T.one), "z", at=0)


@pytest.mark.parametrize("call, error, message", [
    (lambda: graded.orbit_partition(Fraction(1, 3)), DegenerateForm,
     "depth 1/3 is not on the half-integer grid"),
    (lambda: graded.descend_case2(
        _k2_space(Fraction(1, 2), [0, Fraction(-1, 2)], [0, 0],
                  [[0, 1], [1, 0]], "III", v2=Q2.v2)),
     WrongCase, "case 2 applies to symplectic quadratic spaces"),
    (_singular_norm_value, SingularMatrix, "valued matrix is singular"),
    (lambda: norms.norm_shift(_certificate("[1, t^-1]", F2T).norm, 0,
                              Fraction(1, 3)),
     GridViolation, "depth step 1/3 is off the half-integer grid"),
    (lambda: norms.builder_binary(Q2, Q2.one, Q2.one / Q2.from_int(4)),
     NotApplicable, "depth 1 >= v(2); no compatible norm from this builder"),
    (lambda: norms.split_respecting_norm(parse_form("<1>", Q2),
                                         _certificate("<1>", Q2)),
     NotApplicable, "binary splitting requires eps < v(2)"),
    (lambda: arason.generator_certificate(parse_form("<1>", Q2), 1),
     NotApplicable, "generators are defined for eps < v(2)"),
    (lambda: norms.depth_reduce(parse_form("[1, 1]", F2T),
                                _certificate("[1, 1]", F2T)),
     NotApplicable, "depth_reduce needs a positive depth"),
    (_change_basis_singular, SingularMatrix,
     "change of basis matrix not certified invertible"),
    (lambda: WittExpr.diagonal(F2T, [F2T.one]), RuleNotApplicable,
     "diagonal summands need characteristic 0"),
    (_rewrite_unknown_rule, RuleNotApplicable, "unknown rule 'z'"),
    (lambda: arason.witt_equal(parse_form("[1, t]", F2T),
                               parse_form("[1, t]", F4T)),
     NotApplicable, "forms over different fields"),
    (lambda: field_shorthand("f2m-laurent:n=2"), UnsupportedResidueField,
     "unknown field option 'n'"),
    (lambda: field_shorthand("f3-laurent"), UnsupportedResidueField,
     "unknown field shorthand 'f3-laurent'"),
])
def test_safety_raises(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
