"""The wildness index is found once per form.

`norms.wildness_index` keeps the parts of the certificate it descends to
on the form, and later calls wrap them in a new certificate.  So a form
asked a second time must answer exactly as a fresh copy of it does, a
form whose descent raises must raise again, and the kept parts must not
tie the form into a reference cycle.  The forms are scrambled sums of
binary forms [a, b] over F2((t)), F4((t)), F2(x)((t)) and Q_2, plus
diagonal entries <c> over Q_2, some with truncated entries.
"""

import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab import arason, norms
from wittlab.cli import _certificate_payload, _invariant_payload
from wittlab.errors import WittlabError
from wittlab.fields import make_field
from wittlab.literals import parse_form
from wittlab.quadform import QuadraticForm

FIELDS = {
    "F2((t))": make_field("laurent", m=1, precision=32),
    "F4((t))": make_field("laurent", m=2, precision=32),
    "F2(x)((t))": make_field("laurent-ratfunc", m=1, precision=32),
    "Q_2": make_field("dyadic", precision=32),
}

# a coefficient: a residue bit-pattern over GF(2^m), the bits of a
# polynomial in x over GF(2)(x), an odd int over Q_2
COEFFS = {
    "F2((t))": st.just(1),
    "F4((t))": st.integers(1, 3),
    "F2(x)((t))": st.integers(1, 7),
    "Q_2": st.sampled_from([1, 3, 5, 7]),
}


@st.composite
def entries(draw, name):
    """(terms, abs_prec): (exponent, coefficient) terms, abs_prec None
    for an exact entry."""
    terms = draw(st.lists(st.tuples(st.integers(-4, 3), COEFFS[name]),
                          min_size=1, max_size=3))
    lo = min(e for e, _ in terms)
    prec = draw(st.one_of(st.none(), st.none(), st.none(),
                          st.integers(lo, lo + 6)))
    return terms, prec


def element(F, terms, prec):
    if F.char == 0:
        x = F.zero
        for e, u in terms:
            x = x + F.make(u, e)
        return x if prec is None else x.truncated(prec)
    k = F.residue_field
    if hasattr(k, "from_poly"):
        coeff = lambda bits: k.from_poly([bits >> i & 1
                                          for i in range(bits.bit_length())])
    else:
        coeff = k.elem
    return F.make([(e, coeff(c)) for e, c in terms], prec)


@st.composite
def scrambled_forms(draw, name):
    """A sum of binary blocks (and diagonal entries over Q_2) in the basis
    of a unimodular upper-triangular matrix with 0, 1 and pi entries."""
    F = FIELDS[name]
    entry = lambda: element(F, *draw(entries(name)))
    q = QuadraticForm(F, [])
    for _ in range(draw(st.integers(1, 2))):
        q = q.ortho_sum(QuadraticForm.binary(F, entry(), entry()))
    if name == "Q_2":
        q = q.ortho_sum(QuadraticForm.diagonal(
            F, [entry() for _ in range(draw(st.integers(0, 2)))]))
    pick = st.sampled_from([F.zero, F.one, F.uniformizer()])
    M = [[F.one if i == j else draw(pick) if i < j else F.zero
          for j in range(q.n)] for i in range(q.n)]
    return q.change_basis(M)


def _symbol(q):
    sym = arason.boundary_symbol(q)[1]
    k = q.field.residue_field
    return {"depth": str(sym.eps), "kind": sym.kind,
            "payload": [_invariant_payload(p, k) for p in sym.payload]}


def answers(q):
    """Depth, norm values and printed basis columns, symbol and, over a
    perfect residue field, canonical; an error as its type."""
    F = q.field
    asks = [lambda: _certificate_payload(norms.wildness_index(q)[1], F),
            lambda: _symbol(q)]
    if F.residue_field.is_perfect:
        asks.append(lambda: arason.canonical_decomposition(q).describe(
            F.residue_field))
    out = []
    for ask in asks:
        try:
            out.append(ask())
        except WittlabError as e:
            out.append(type(e))
    return out


def first_call(q):
    try:
        norms.wildness_index(q)
    except WittlabError as e:
        return type(e)
    return None


@pytest.mark.parametrize("name", sorted(FIELDS))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_warm_form_answers_as_a_fresh_copy(name, data):
    q = data.draw(scrambled_forms(name))
    first = first_call(q)
    assert first_call(q) == first
    if first is not None:
        assert q._wild is None  # an error is not kept
    assert answers(q) == answers(QuadraticForm(q.field, q.U))


def test_the_pipeline_descends_once(monkeypatch):
    calls = []
    initial_norm = norms.initial_norm

    def counted(q):
        calls.append(q)
        return initial_norm(q)

    monkeypatch.setattr(norms, "initial_norm", counted)
    F = FIELDS["F2((t))"]
    q = parse_form("sum([1+t, t^-3+t], [t^-1, t^-1])", F)
    eps, _ = norms.wildness_index(q)
    assert eps > 0
    assert arason.boundary_symbol(q)[0] == eps
    arason.canonical_decomposition(q)
    assert calls == [q]


def test_rebinding_a_returned_certificate_leaves_the_kept_parts():
    q = parse_form("[1+t, t^-1+t]", FIELDS["F2((t))"])
    eps, cert = norms.wildness_index(q)
    want = _symbol(q)
    cert.qe = cert.be = cert.rows = cert.evidence = None
    eps2, cert2 = norms.wildness_index(q)
    assert cert2 is not cert and eps2 == eps
    assert cert2.qe is not None and cert2.be is not None
    assert cert2.rows is not None
    assert _symbol(q) == want


class _Probe(QuadraticForm):
    __slots__ = ("__weakref__",)


@pytest.mark.parametrize("name, lit", [
    ("F2((t))", "sum([1+t, t^-3+t], [t^-1, t^-1])"),
    ("F2(x)((t))", "sum([x, t^-1], [1, x*t^-2])"),
    ("Q_2", "<1, 3, 2, 6>"),
])
def test_a_dropped_form_is_freed_without_the_cycle_collector(name, lit):
    F = FIELDS[name]
    q = _Probe(F, parse_form(lit, F).U)
    norms.wildness_index(q)
    _symbol(q)
    assert q._wild is not None
    assert all(part is not q for part in q._wild.values())
    ref = weakref.ref(q)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del q
        assert ref() is None
    finally:
        if enabled:
            gc.enable()
