"""The exact Gram kernel on raw digits, and the leading coefficients a
certificate keeps packed.

* `quadform.gram_of` sums exact entries over Q_2 and GF(2^m)((t)) as ints
  (`fields.raw_digits`).  It is compared with `gram_of_parent`, the dense
  loop of `test_linalg_oracles`, over Q_2, F2((t)), F4((t)) and
  F16((t)): random exact symmetric B, sparse or dense, with empty rows,
  twinned rows whose images cancel, negative odd 2-adic digits and
  entries of many exponents, and monomial and general columns.  Every
  entry must be the parent's element, value and exponent both.
* The q values of `norms._gram_by_congruence`, summed as `evaluate` sums
  them, are compared with `QuadraticForm.evaluate` on the ambient
  columns, and its Gram with the parent's, over the same fields and over
  F2(x)((t)); its slack is read once, off the whole Gram.
* A certificate keeps the leading coefficients only as the packed rows of
  its rank test; unpacked, and as the `ShiftedQuadSpace.bmat` the induced
  space unpacks on its first read, they must equal the dense
  construction.

These tests fail on each of the mutants: the 2-adic raw sum without the
shift to its base, xor in place of + for 2-adic digits, a GF(4) product
without `reduce`, and an entry built without `laurent._normalized`.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab import linalg, norms
from wittlab.fields import field_shorthand, raw_digits
from wittlab.graded import ShiftedQuadSpace
from wittlab.literals import parse_form
from wittlab.norms import (DepthCertificate, NotReducible, depth_reduce,
                           induced_space, initial_norm, wildness_index)
from wittlab.quadform import QuadraticForm, gram_of
from form_helpers import lead_of
from test_linalg_oracles import gram_of_parent
from test_norms import SHORTHAND_FORMS, scrambled

RAW_FIELDS = {name: field_shorthand(name, precision=16)
              for name in ("q2", "f2-laurent", "f2m-laurent:m=2",
                           "f2m-laurent:m=4")}
ALL_FIELDS = {**RAW_FIELDS,
              "f2x-laurent": field_shorthand("f2x-laurent", precision=16)}


def _monomial(F, rng):
    """A nonzero exact monomial: an odd unit times 2^e over Q_2 (negative
    too), a residue unit times t^e over k((t))."""
    e = rng.randrange(-4, 5)
    if F.char == 0:
        return F.make(rng.choice((-1, 1)) * rng.randrange(1, 16, 2), e)
    k = F.residue_field
    if k.is_perfect:
        return F.make([(e, k.elem(rng.randrange(1, k.order)))])
    return F.make([(e, rng.choice((k.one, k.x, k.x + k.one)))])


def _elem(F, rng):
    """A nonzero exact element: a monomial or a sum of a few, which may
    cancel to the exact zero."""
    x = _monomial(F, rng)
    for _ in range(rng.choice((0, 0, 1, 2))):
        x = x + _monomial(F, rng)
    return x


def _symmetric(F, rng, n):
    """A random exact symmetric n x n matrix: sparse, with empty rows, and
    sometimes a row twinned with another, so that images cancel."""
    dense = rng.random() < 0.3
    B = [[F.zero] * n for _ in range(n)]
    empty = {i for i in range(n) if rng.random() < 0.2}
    for i in range(n):
        for j in range(i, n):
            if i in empty or j in empty:
                continue
            if rng.random() < (0.7 if dense else 0.25):
                B[i][j] = B[j][i] = _elem(F, rng)
    twins = None
    if n >= 2 and rng.random() < 0.3:
        a, b = rng.sample(range(n), 2)
        for j in range(n):
            B[b][j] = B[j][b] = B[a][j]
        B[b][b] = B[a][b] = B[b][a] = B[a][a]
        twins = a, b
    return B, twins


def _columns(F, rng, n, twins):
    """Monomial columns, general sparse columns and, with twinned rows a
    and b, columns y e_a - y e_b that B sends to the exact zero."""
    cols = []
    for _ in range(rng.randrange(0, 7)):
        roll = rng.random()
        col = [F.zero] * n
        if twins is not None and roll < 0.2:
            y = _monomial(F, rng)
            col[twins[0]], col[twins[1]] = y, -y
        elif roll < 0.6:
            col[rng.randrange(n)] = _monomial(F, rng)
        else:
            for i in rng.sample(range(n), rng.randrange(1, n + 1)):
                col[i] = _elem(F, rng)
        cols.append(col)
    return cols


def _sparse(M, rng):
    """The rows of M as given, or as their sparse pairs."""
    return [linalg.sparse(row) if rng.random() < 0.5 else row for row in M]


@pytest.mark.parametrize("name", RAW_FIELDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_raw_gram_matches_parent(name, seed):
    F = RAW_FIELDS[name]
    assert raw_digits(F) is not None
    rng = random.Random(seed)
    n = rng.randrange(1, 8)
    B, twins = _symmetric(F, rng, n)
    cols = _columns(F, rng, n, twins)
    want = gram_of_parent(B, cols, F.zero)
    G = gram_of(_sparse(B, rng), _sparse(cols, rng))
    assert linalg.dense(G, F.zero) == want
    # sparse rows in column order, exact zeros left out
    for row in G:
        assert [c for c, _ in row] == sorted(c for c, _ in row)
        assert all(not g.is_exactly_zero() for _, g in row)
    assert linalg.dense(gram_of(B, cols), F.zero) == want


@pytest.mark.parametrize("name", RAW_FIELDS)
def test_raw_gram_entries_are_canonical(name):
    """Entries that the parent builds by the element sums: the same
    (v0, digits), so equal bytes wherever they are printed."""
    F = RAW_FIELDS[name]
    rng = random.Random(7)
    for _ in range(40):
        B, twins = _symmetric(F, rng, rng.randrange(1, 6))
        cols = _columns(F, rng, len(B), twins)
        want = gram_of_parent(B, cols, F.zero)
        got = linalg.dense(gram_of(B, cols), F.zero)
        assert [[(x.v0, x.digits) for x in row] for row in got] == \
            [[(x.v0, x.digits) for x in row] for row in want]


def _basis_certificate(F, rng, n):
    """A random exact form over F with the q values and Gram rows of a
    random exact basis, as a certificate's Gram data: all that
    _gram_by_congruence reads."""
    B, _ = _symmetric(F, rng, n)
    q = QuadraticForm(F, [[B[i][j] if j >= i else F.zero for j in range(n)]
                          for i in range(n)])
    basis = [[_elem(F, rng) if rng.random() < 0.5 else F.zero
              for _ in range(n)] for _ in range(n)]
    qe = [q.evaluate(col) for col in basis]
    be = [linalg.sparse(row) for row in
          gram_of_parent(q.polar_matrix(), basis, F.zero)]
    return q, basis, DepthCertificate(q, None, None, qe, be)


@pytest.mark.parametrize("name", ALL_FIELDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_congruence_q_values_match_evaluate(name, seed):
    F = ALL_FIELDS[name]
    rng = random.Random(seed)
    n = rng.randrange(1, 7)
    q, basis, cert = _basis_certificate(F, rng, n)
    H = []
    for _ in range(rng.randrange(1, 7)):
        size = min(n, rng.choice((1, 1, 2, 3)))
        H.append([(i, _monomial(F, rng))
                  for i in sorted(rng.sample(range(n), size))])
    head = rng.randrange(0, len(H) + 1)
    slacks = []

    def slack(G, qe):
        slacks.append((G, qe))
        return 1

    eps, qe, G = norms._gram_by_congruence(cert, H, head, slack)
    assert eps == 1 and slacks == [(G, qe)]
    ambient = [[sum((h * basis[i][r] for i, h in col), F.zero)
                for r in range(n)] for col in H]
    assert qe == [q.evaluate(col) for col in ambient]
    assert linalg.dense(G, F.zero) == \
        gram_of_parent(q.polar_matrix(), ambient, F.zero)


def _lead_parent(cert):
    """The leading coefficients as check_compatibility built them densely:
    b_ij at g_i + g_j + eps off the upper triangle, mirrored."""
    k = cert.form.field.residue_field
    g, eps, n = cert.norm.values, cert.eps, cert.norm.n
    G = linalg.dense(cert.be, cert.form.field.zero)
    lead = [[k.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            lead[i][j] = lead[j][i] = G[i][j].coeff_at(g[i] + g[j] + eps)
    return lead


def _descent(q):
    cert = initial_norm(q)
    certs = [cert]
    while cert.eps > 0:
        step = depth_reduce(q, cert)
        if isinstance(step, NotReducible):
            break
        cert = step
        certs.append(cert)
    return certs


@pytest.mark.parametrize("shorthand", sorted(SHORTHAND_FORMS))
def test_lead_and_bmat_unpack_to_the_dense_construction(shorthand):
    F = field_shorthand(shorthand)
    q = scrambled(parse_form(SHORTHAND_FORMS[shorthand], F), random.Random(3))
    certs = _descent(q)
    assert len(certs) >= 2
    for cert in certs:
        # the induced space holds the certificate's packed rows alone
        S = induced_space(q, cert)
        assert S._bmat is None and S.rows == tuple(cert.rows)
        want = _lead_parent(cert)
        assert lead_of(cert) == want
        assert S.bmat == tuple(map(tuple, want))
        rebuilt = ShiftedQuadSpace(S.k, S.v2, S.eps, S.degrees, S.qvals,
                                   want, S.type_tag)
        assert rebuilt.bmat == S.bmat


@pytest.mark.parametrize("shorthand", ["f2-laurent", "f2m-laurent:m=2"])
def test_lead_stays_packed_along_a_gf2m_descent(shorthand):
    F = field_shorthand(shorthand)
    q = scrambled(parse_form(SHORTHAND_FORMS[shorthand], F), random.Random(5))
    seen = []
    real = norms.check_compatibility

    def recording(*args, **kwargs):
        res = real(*args, **kwargs)
        seen.append(res)
        return res

    norms.check_compatibility = recording
    try:
        eps, cert = wildness_index(q)
    finally:
        norms.check_compatibility = real
    assert eps > 0 and len(seen) >= 2
    assert all(isinstance(row, int) for c in seen for row in c.rows)
    assert lead_of(cert) == _lead_parent(cert)
    # the form keeps the packed rows, which a new certificate shares
    assert "lead" not in q._wild and q._wild["rows"] is cert.rows
    assert wildness_index(q)[1].rows is cert.rows
