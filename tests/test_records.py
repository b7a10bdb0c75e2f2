"""The value records (`errors.Record` subclasses): equality only within
one class and never with a tuple, the hash of the tuple of the compared
fields, the fields left out of both, the records that are unhashable,
and the repr they print."""

import copy

import pytest

from wittlab.arason import (GeneratorExpression, NotInSubgroup,
                            boundary_symbol, canonical_decomposition)
from wittlab.fields import make_field
from wittlab.fields.common import AtLeast, half
from wittlab.graded import GradedVector, MetabolicityReport, ShiftedQuadSpace
from wittlab.literals import parse_form
from wittlab.norms import NotReducible, wildness_index
from wittlab.quadform import Summand
from wittlab.residue_witt import TensorElem, WClass, WedgeElem, WqClass

F2T = make_field("laurent", m=1)
K = F2T.residue_field


def _symbol(literal):
    return boundary_symbol(parse_form(literal, F2T))[1]


def _space():
    return ShiftedQuadSpace(K, F2T.v2, half(0), [half(0), half(0)],
                            [K.one, K.zero], [[K.zero, K.one], [K.one, K.zero]],
                            "II")


def test_records_of_two_classes_with_equal_fields_differ():
    assert WClass(K, 0) != WedgeElem(K, 0)
    assert WedgeElem(K, K.one) != TensorElem(K, K.one)
    assert WClass(K, 0) == WClass(K, 0)


def test_no_record_equals_the_tuple_of_its_fields():
    sym = _symbol("[t^-1, 1]")
    dec = canonical_decomposition(parse_form("[t^-3, 1+t]", F2T))
    for rec, fields in [(AtLeast(3), (3,)), (WClass(K, 1), (K, 1)),
                        (Summand("bin", K.one, K.zero),
                         ("bin", K.one, K.zero, None)),
                        (sym, (sym.eps, sym.kind, sym.payload)),
                        (dec, (dec.wild, dec.a0, dec.b0, 0, 0))]:
        assert rec != fields and fields != rec
        assert hash(rec) == hash(fields)  # the hash is the tuple's


def test_equal_symbols_and_decompositions_hash_equal():
    a, b = _symbol("[t^-3, 1+t]"), _symbol("[t^-3, 1+t]")
    assert a is not b and a == b and hash(a) == hash(b)
    q1, q2 = parse_form("[t^-3, 1+t]", F2T), parse_form("[t^-3, 1+t]", F2T)
    c, d = canonical_decomposition(q1), canonical_decomposition(q2)
    assert c is not d and c == d and hash(c) == hash(d)
    assert len({a, b}) == 1 and len({c, d, WqClass(K, arf=0)}) == 2


def test_graded_vector_equality_ignores_support():
    S = _space()
    read = GradedVector(S, half(0), (K.one, K.zero))
    given = GradedVector(S, half(0), (K.one, K.zero), support=())
    assert read.support == (0,) and given.support == ()
    assert read == given and hash(read) == hash(given)
    assert read != GradedVector(S, half(0), (K.zero, K.one))


def test_certificate_equality_ignores_its_gram_and_is_unhashable():
    _, cert = wildness_index(parse_form("[t^-1, 1]", F2T))
    other = copy.copy(cert)
    other.qe = other.be = other.rows = None
    other.evidence = {}
    assert other == cert
    for rec in (cert, NotReducible(half(1), {}), MetabolicityReport(True),
                GeneratorExpression(half(1), [], 0),
                NotInSubgroup(half(1), half(2), _symbol("[t^-1, 1]"))):
        with pytest.raises(TypeError):
            hash(rec)


def test_metabolicity_report_evidence_defaults_to_a_new_dict():
    a, b = MetabolicityReport(False), MetabolicityReport(False)
    assert a.evidence == {} and a.evidence is not b.evidence


def test_reprs_are_unchanged():
    assert repr(_symbol("[t^-1, 1]")) == (
        "ResidueSymbol(eps=Fraction(1, 2), kind='tensor', "
        "payload=((1)*(1@1),))")
    assert repr(canonical_decomposition(parse_form("[t^-3, 1+t]", F2T))) == (
        "CanonicalDecomposition(wild=(1:GF(2), 1:GF(2)), a0=0:GF(2), "
        "b0=0:GF(2), unit_bit=0, pi_bit=0)")
    assert repr(GradedVector(_space(), half(0), (K.one, K.zero))) == (
        "GradedVector(space=ShiftedQuadSpace(eps=0, type II, "
        "degrees=['0', '0']), degree=Fraction(0, 1), "
        "coords=(1:GF(2), 0:GF(2)))")
    assert repr(wildness_index(parse_form("[t^-1, 1]", F2T))[1]) == (
        "DepthCertificate(form=QuadraticForm[[t^-1, 1]; [0, 1]], "
        "norm=VNorm(values=['-1/2', '0']), eps=Fraction(1, 2))")
