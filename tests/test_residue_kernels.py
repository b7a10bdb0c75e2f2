"""The residue side of a depth step on packed rows, against the routines
it replaced.

* The rank test of condition (c) in `norms.check_compatibility` is the
  `rank` of the row layout `residue_witt._vectors(k)`: elimination on packed
  ints over GF(2^m), `linalg.independent_rows` itself on coordinate
  tuples over GF(2^m)(x).  It is compared with `independent_rows` on the
  element rows; over GF(2)(x) under a degree cap of 6 too, where both
  must raise `DegreeCapExceeded` alike.
* The Arf bit of `residue_witt.kquad_witt_class` over a finite field
  splits off the plane of the first row with `residue_witt._split_plane`,
  whether that row is isotropic or not.  It is compared with
  `arf_invariant` of the symplectic blocks of the hand-written oracle
  `test_residue_oracles.k_symplectic_blocks`, odd and degenerate forms
  included (the same error, the same message).
* Type-III spaces whose b is not diagonal, so that b(y, y) = q(y) and
  b(w_c, x) are both nonzero in some projection: the planes of
  `graded.metabolic_planes` must be isotropic, hyperbolic and pairwise
  orthogonal, which fails when the b(y, y) b(w_c, x) term of
  `_split_plane` is dropped.
* The type-III invariants of `graded.orbit_invariants`, the dimension of
  each principal coset mod 2, are compared with the number of lines the
  hand-written Gram-Schmidt `test_residue_oracles._diagonalize_bilinear`
  splits off the coset's block of b.
* The isotropic relation of a totally singular class, which
  `graded._find_isotropic_rel` reads off its first three rows at most,
  is compared with the first kernel vector that `linalg.rref_exact`
  gives the 2 x n matrix of the Frobenius coordinates of its q values,
  over GF(2), GF(4), GF(2)(x) and GF(4)(x).  A type-II descent of an
  empty principal coset is the zero space.
"""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab import graded, linalg, residue_witt
from wittlab.errors import DegreeCapExceeded, WittlabError
from wittlab.fields import GF2m, RatFuncField
from wittlab.fields.common import HALF, INF, half
from wittlab.quadform import QuadraticForm
from wittlab.residue_witt import arf_invariant, kquad_witt_class

from form_helpers import bval, first_kernel_vector, qval, random_choice
from test_residue_oracles import (KQuadForm, _diagonalize_bilinear,
                                  k_symplectic_blocks)

FINITE = {"GF(2)": GF2m(1), "GF(4)": GF2m(2), "GF(2^8)": GF2m(8)}
RESIDUE = {**FINITE, "GF(2)(x)": RatFuncField(1),
           "GF(2)(x), cap 6": RatFuncField(1, degree_cap=6)}


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
    vec = residue_witt._vectors(rows[0][0].field)
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
    pairs, _ = k_symplectic_blocks(KQuadForm(form.field, form.U))
    return arf_invariant(pairs, form.field).arf


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


@pytest.mark.parametrize("name", RESIDUE)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_from_gram_polar_matrix_is_rebuilt_from_the_upper_triangle(name,
                                                                     seed):
    """Whether G is a polar matrix (symmetric, zero diagonal) or not,
    polar_matrix() of the form from_gram builds is the matrix that a
    fresh form with the same coefficients rebuilds."""
    k = RESIDUE[name]
    rng = random.Random(seed)
    n = rng.randrange(0, 7)
    G = [[k.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            G[i][j] = G[j][i] = _elem(k, rng)
    if n and rng.random() < 0.3:  # not a polar matrix
        i, j = rng.randrange(n), rng.randrange(n)
        G[i][j] = k.one if G[i][j].is_zero() else k.zero
    form = QuadraticForm.from_gram(k, [_elem(k, rng) for _ in range(n)], G)
    want = QuadraticForm(k, form.U).polar_matrix()
    assert form.polar_matrix() == want


# -- type-III planes ---------------------------------------------------------------


def _type_III_space(k, rng, diagonal=False):
    """A valid type-III space (eps = v(2) = 1, q(e_i) = b(e_i, e_i)) whose
    b is diagonal, or else has a nonzero entry off the diagonal; or None."""
    degrees = [rng.choice((0, 1, -1, HALF, -HALF))
               for _ in range(rng.randrange(1 if diagonal else 2, 9))]
    n = len(degrees)
    bmat = [[k.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, i + 1 if diagonal else n):
            if (degrees[i] + degrees[j]) % 1 == 0:
                bmat[i][j] = bmat[j][i] = _elem(k, rng)
    if not diagonal and all(bmat[i][j].is_zero() for i in range(n)
                            for j in range(i + 1, n)):
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


# -- type-III invariants without a split -------------------------------------------


def _planes_by_rounds(S):
    """The number of planes the rounds of metabolic_planes split off
    before no isotropic relation is left, None when a row is left: the
    rounds without the exit on a class of odd dimension."""
    vec = residue_witt._vectors(S.k)
    G, qs = [vec.pack(row) for row in S.bmat], list(S.qvals)
    cls = [graded.coset(d) for d in S.degrees]
    planes = 0
    while G:
        sol = graded._find_isotropic_rel(S.k, S.type_tag, cls, qs, G)
        if sol is None:
            return None
        (_, _, _, _, keep), _, G, qs = residue_witt._split_plane(
            vec, vec.units(len(G)), G, qs, sol, polar=False)
        cls = [cls[c] for c in keep]
        planes += 1
    return planes


def _odd_classes(S):
    return {c for c, idx in graded.coset_decomposition(S).items()
            if len(idx) % 2}


@pytest.mark.parametrize("name", [*FINITE, "GF(2)(x)"])
@given(seed=st.integers(0, 2 ** 32 - 1), diagonal=st.booleans())
@settings(max_examples=100, deadline=None)
def test_type_III_parities_match_the_descent(name, seed, diagonal):
    """orbit_invariants, the dimension of each principal coset mod 2, for
    the default choice (given or not) and a random one, against the
    number of lines the schoolbook Gram-Schmidt of `test_residue_oracles`
    splits off the coset's block of b, scaled by the choice as the
    descent scales it, mod 2; and metabolic_planes, which stops at once
    on a class of odd dimension, against its rounds run until no relation
    is left."""
    k = RESIDUE[name]
    rng = random.Random(seed)
    S = _type_III_space(k, rng, diagonal)
    if S is None:
        return
    cosets = graded.coset_decomposition(S)
    for choice in (None, graded.default_choice(S), random_choice(S, rng)):
        used = choice or graded.default_choice(S)
        want = {}
        for (c,) in graded.orbit_partition(S.eps).principal:
            idx = cosets.get(c, [])
            scale = (used.pi[c].coeff * used.rho.coeff).inv()
            lines, _ = _diagonalize_bilinear(
                [[scale * S.bmat[i][j] for j in idx] for i in idx], k)
            want[c] = len(lines) % 2
        got = graded.orbit_invariants(S, choice)
        assert {c: inv.bit for c, inv in got.items()} == want
    planes = _outcome(graded.metabolic_planes, S)
    rounds = _outcome(_planes_by_rounds, S)
    assert (planes is None) == (rounds is None)
    if isinstance(rounds, int):
        assert len(planes) == rounds
    if _odd_classes(S):
        assert planes is None


@pytest.mark.parametrize("name", FINITE)
def test_type_III_parity_draws_reach_every_case(name):
    # diagonal and dense b, each with an odd class (a nonzero invariant)
    # and with every class even, among fixed draws of the generator above
    k = FINITE[name]
    rng = random.Random(f"type III parity {name}")
    seen = set()
    for _ in range(300):
        diagonal = rng.random() < 0.5
        S = _type_III_space(k, rng, diagonal)
        if S is not None:
            seen.add((diagonal, bool(_odd_classes(S)),
                      graded.metabolic_planes(S) is None))
    assert {(d, odd) for d, odd, _ in seen} == \
        {(d, odd) for d in (False, True) for odd in (False, True)}, seen


# -- the isotropic relation of a totally singular class --------------------------

SINGULAR = {"GF(2)": GF2m(1), "GF(4)": GF2m(2), "GF(2)(x)": RatFuncField(1),
            "GF(4)(x)": RatFuncField(2)}
CASES = ("u0 = 0", "proportional first pair", "two independent rows",
         "three-row relation", "four or more rows")


def _unit(k, rng):
    while True:
        c = _elem(k, rng)
        if not c.is_zero():
            return c


def _singular_class(k, rng):
    """The nonzero q values of one type-II class: over GF(2^m)(x) squares,
    x times squares and sums of both; now and then a square multiple of
    the first, so that the first pair is proportional."""
    qs = []
    for _ in range(rng.choice((1, 2, 2, 3, 3, 3, 4, 5))):
        a, b = _unit(k, rng), _unit(k, rng)
        if qs and rng.random() < 0.2:
            qs.append(a * a * qs[0])
        elif k.is_perfect:
            qs.append(a * a)
        else:
            x = k.x
            qs.append(rng.choice((a * a, x * b * b, a * a + x * b * b)))
    return qs


def _relation_by_rref(k, qs):
    """The first kernel vector of the rows (u_r) and (v_r), where
    q_r = u_r^2 + x v_r^2, as (row, nonzero coefficient) pairs."""
    splits = [k.frobenius_coordinates(q) for q in qs]
    v = first_kernel_vector([[u for u, _ in splits], [w for _, w in splits]],
                            k.zero, k.one)
    return None if v is None else \
        [(r, a) for r, a in enumerate(v) if not a.is_zero()]


def _relation_cases(k, qs):
    (u0, v0), *rest = [k.frobenius_coordinates(q) for q in qs[:2]]
    cases = {CASES[0]} if u0.is_zero() else set()
    if rest:
        (u1, v1), = rest
        cases.add(CASES[1] if (u0 * v1 + u1 * v0).is_zero() else
                  CASES[2] if len(qs) == 2 else CASES[3])
    if len(qs) > 3:
        cases.add(CASES[4])
    return cases


def _check_relation(k, qs):
    got = graded._find_isotropic_rel(k, "II", [0] * len(qs), qs, None)
    assert got == _relation_by_rref(k, qs)
    if got is not None:
        acc = k.zero
        for r, a in got:
            acc = acc + a * a * qs[r]
        assert acc.is_zero()


@pytest.mark.parametrize("name", SINGULAR)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_singular_relation_is_the_first_kernel_vector(name, seed):
    k = SINGULAR[name]
    _check_relation(k, _singular_class(k, random.Random(seed)))


@pytest.mark.parametrize("name", SINGULAR)
def test_singular_relation_draws_reach_every_case(name):
    # over GF(2^m) every v_r is zero, so the first pair is proportional
    k = SINGULAR[name]
    rng = random.Random(f"singular relation {name}")
    seen = Counter()
    for _ in range(300):
        qs = _singular_class(k, rng)
        _check_relation(k, qs)
        seen.update(_relation_cases(k, qs))
    want = {CASES[1], CASES[4]} if k.is_perfect else set(CASES)
    assert set(seen) == want and min(seen.values()) >= 5, seen


@pytest.mark.parametrize("name", ["GF(4)", "GF(2)(x)"])
def test_type_II_descent_of_an_empty_principal_coset(name):
    # at eps = 1 the coset 1/2 pairs with itself, and the coset 0 is empty
    k = RESIDUE[name]
    S = graded.ShiftedQuadSpace(k, INF, 1, [HALF, HALF], [k.one, k.one],
                                [[k.zero, k.one], [k.one, k.zero]], "II")
    assert graded.validate(S) is None
    assert graded.descend_case1(S)[half(0)] == \
        residue_witt.SymplecticQuadSpace(k, ())
