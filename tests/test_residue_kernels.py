"""The residue side of a depth step on packed rows, against the routines
it replaced.

* The rank test of condition (c) in `norms.check_compatibility` is the
  `rank` of the row layout `graded._vectors(k)`: elimination on packed
  ints over GF(2^m), `linalg.independent_rows` itself on coordinate
  tuples over GF(2^m)(x).  It is compared with `independent_rows` on the
  element rows; over GF(2)(x) under a degree cap of 6 too, where both
  must raise `DegreeCapExceeded` alike.
* The Arf bit of `residue_witt.kquad_witt_class` over a finite field
  splits off the plane of the first row with `graded._split_plane`,
  whether that row is isotropic or not.  It is compared with
  `arf_invariant` of `k_symplectic_blocks`, odd and degenerate forms
  included (the same error, the same message).
* Type-III spaces whose b is not diagonal, so that b(y, y) = q(y) and
  b(w_c, x) are both nonzero in some projection: the planes of
  `graded.metabolic_planes` must be isotropic, hyperbolic and pairwise
  orthogonal, which fails when the b(y, y) b(w_c, x) term of
  `_split_plane` is dropped.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab import graded, linalg
from wittlab.errors import DegreeCapExceeded, WittlabError
from wittlab.fields import GF2m, RatFuncField
from wittlab.fields.common import HALF
from wittlab.quadform import QuadraticForm
from wittlab.residue_witt import (arf_invariant, k_symplectic_blocks,
                                  kquad_witt_class)

from form_helpers import bval, qval

FINITE = {"GF(2)": GF2m(1), "GF(4)": GF2m(2), "GF(2^8)": GF2m(8)}
RESIDUE = {**FINITE, "GF(2)(x)": RatFuncField(1),
           "GF(2)(x), cap 6": RatFuncField(1, "x", 6)}


def _elem(k, rng):
    if rng.random() < 0.4:
        return k.zero
    if k.is_perfect:
        return k.random(rng)
    num = k.random(rng, rng.randrange(3))
    den = k.random(rng, rng.randrange(3))
    return num if den.is_zero() else num / den


def _outcome(fn, *args):
    try:
        return fn(*args)
    except WittlabError as e:
        return type(e), str(e)


# -- the rank test of (c) ----------------------------------------------------------


def _packed_rank(rows):
    vec = graded._vectors(rows[0][0].field)
    return vec.rank([vec.pack(row) for row in rows])


@pytest.mark.parametrize("name", RESIDUE)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_packed_rank_matches_independent_rows(name, seed):
    k = RESIDUE[name]
    rng = random.Random(seed)
    n = rng.randrange(1, 8)
    rows = [[_elem(k, rng) for _ in range(n)] for _ in range(n)]
    for r in range(n):  # repeated rows and sums of earlier rows
        if r and rng.random() < 0.3:
            a, b = rng.randrange(r), rng.randrange(r)
            try:
                rows[r] = [x + y for x, y in zip(rows[a], rows[b])]
            except DegreeCapExceeded:
                pass  # the drawn row stays
        if rng.random() < 0.3:  # the symmetric lead of a certificate
            for c in range(r):
                rows[r][c] = rows[c][r]
    want = _outcome(lambda: len(linalg.independent_rows(rows, n)))
    assert _outcome(_packed_rank, rows) == want


# -- the Arf bit -------------------------------------------------------------------


def _arf_by_blocks(form):
    return arf_invariant(k_symplectic_blocks(form)[0], form.field).arf


@pytest.mark.parametrize("name", FINITE)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=120, deadline=None)
def test_packed_arf_bit_matches_the_symplectic_blocks(name, seed):
    k = FINITE[name]
    rng = random.Random(seed)
    n = rng.choice((0, 1, 2, 2, 3, 4, 4, 5, 6, 6, 8))
    U = [[_elem(k, rng) if j >= i else k.zero for j in range(n)]
         for i in range(n)]
    if n and rng.random() < 0.5:  # a first row that is not isotropic
        U[0][0] = k.random(rng) if k.order > 2 else k.one
        U[0][0] = U[0][0] if not U[0][0].is_zero() else k.one
    form = QuadraticForm(k, U)
    want = _outcome(_arf_by_blocks, form)
    got = _outcome(lambda: kquad_witt_class(form).arf)
    assert got == want


@pytest.mark.parametrize("name", FINITE)
def test_the_arf_draws_reach_every_case(name):
    # forms with q(e_0) != 0 and a nonzero Arf bit, hyperbolic ones and
    # singular ones all occur among fixed draws of the generator above
    k = FINITE[name]
    rng = random.Random(f"arf {name}")
    seen = set()
    for _ in range(400):
        n = rng.choice((2, 3, 4, 6))
        U = [[_elem(k, rng) if j >= i else k.zero for j in range(n)]
             for i in range(n)]
        U[0][0] = k.one
        form = QuadraticForm(k, U)
        got = _outcome(lambda: kquad_witt_class(form).arf)
        assert got == _outcome(_arf_by_blocks, form)
        seen.add(got if isinstance(got, int) else got[0])
    assert len(seen) == 3, seen


# -- type-III planes ---------------------------------------------------------------


def _type_III_space(k, rng):
    """A valid type-III space (eps = v(2) = 1, q(e_i) = b(e_i, e_i)) whose
    b has a nonzero entry off the diagonal, or None."""
    degrees = [rng.choice((0, 1, -1, HALF, -HALF))
               for _ in range(rng.randrange(2, 9))]
    n = len(degrees)
    bmat = [[k.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (degrees[i] + degrees[j]) % 1 == 0:
                bmat[i][j] = bmat[j][i] = _elem(k, rng)
    if all(bmat[i][j].is_zero() for i in range(n) for j in range(i + 1, n)):
        return None
    S = graded.ShiftedQuadSpace(k, 1, 1, degrees,
                                [bmat[i][i] for i in range(n)], bmat, "III")
    return S if graded.validate(S) is None else None


@pytest.mark.parametrize("name", FINITE)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None)
def test_type_III_planes_with_a_dense_b_are_hyperbolic_and_orthogonal(name,
                                                                      seed):
    k = FINITE[name]
    S = _type_III_space(k, random.Random(seed))
    if S is None:
        return
    planes = graded.metabolic_planes(S)
    if planes is None:
        return
    for x, y in planes:
        assert qval(S, x).is_zero()
        assert bval(S, x, y) == k.one
    vectors = [v for plane in planes for v in plane]
    for a, u in enumerate(vectors):
        for b, w in enumerate(vectors[a + 1:], a + 1):
            if b != a + 1 or a % 2:  # not the two vectors of one plane
                assert bval(S, u, w).is_zero()


@pytest.mark.parametrize("name", FINITE)
def test_type_III_draws_split_planes(name):
    # fixed draws of the generator above split planes with b(y, y) != 0
    k = FINITE[name]
    rng = random.Random(f"type III {name}")
    split = 0
    for _ in range(300):
        S = _type_III_space(k, rng)
        planes = None if S is None else graded.metabolic_planes(S)
        split += any(not bval(S, y, y).is_zero() for _, y in planes or ())
    assert split > 10
