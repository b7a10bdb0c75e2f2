"""The memos of `graded.metabolic_planes` and `graded.orbit_invariants`
over a finite residue field.

Over GF(2^m) the rounds of `metabolic_planes` are looked up in
`graded.planes_memo`, keyed on (k, type, eps, degrees, packed q values,
packed Gram rows).  A hit must answer as a miss does, with new
`GradedVector`s of the caller's space, whose construction checks the
degree grid again; an error is never kept, so it is raised again on the
next call; spaces that differ only in their q values or their degrees
get their own planes; spaces over GF(2^m)(x) never reach the memo; and
the memo never holds more than its maxsize.

Under the same key, `graded.invariants_memo` holds the orbit invariants
of the type-I and type-II spaces at integer eps for the default choice.
A hit answers as a miss does, every call returns a new dict, an error is
never kept, the memo never holds more than its maxsize, and half-integer
eps, type III, a given choice and spaces over GF(2^m)(x) never reach it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab import graded, residue_witt
from wittlab.errors import DegenerateForm, GridViolation, WittlabError
from wittlab.fields import RatFuncField
from wittlab.fields.common import HALF

from test_residue_kernels import FINITE, _elem, _type_III_space

TYPES = ("I", "II", "III")


def _space(k, rng, type_tag):
    """A valid space of the type over k, or None: types I and II with an
    alternating b on degrees in (1/2)Z, built on pairs of rows that b
    pairs with a unit, type III from the type-III draws of the residue
    kernel tests."""
    if type_tag == "III":
        return _type_III_space(k, rng, diagonal=rng.random() < 0.3)
    eps = 0 if type_tag == "I" else rng.choice((1, 2, HALF, 3 * HALF))
    degrees = []
    for _ in range(rng.choice((1, 1, 2, 2, 3, 4))):
        d = rng.choice((0, 1, -1, HALF, -HALF))
        degrees += [d, rng.choice((0, 1, -1)) - d - eps]
    n = len(degrees)
    bmat = [[k.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (degrees[i] + degrees[j] + eps) % 1 == 0:
                bmat[i][j] = bmat[j][i] = _elem(k, rng)
        if i % 2 == 0 and bmat[i][i + 1].is_zero():
            bmat[i][i + 1] = bmat[i + 1][i] = k.one
    qvals = [_elem(k, rng) for _ in range(n)]
    S = graded.ShiftedQuadSpace(k, 1, eps, degrees, qvals, bmat, type_tag)
    return S if graded.validate(S) is None else None


def _copy(S):
    """An equal space that is another object."""
    return graded.ShiftedQuadSpace(S.k, S.v2, S.eps, S.degrees, S.qvals,
                                   S.bmat, S.type_tag)


def _outcome(S):
    try:
        return graded.metabolic_planes(S)
    except WittlabError as e:
        return type(e), str(e)


def _spaces_of(planes):
    return {id(v.space) for plane in planes or () for v in plane}


def _data(planes):
    """The planes without their space; None and an error stay as they are."""
    if not isinstance(planes, list):
        return planes
    return [[(v.degree, v.coords) for v in plane] for plane in planes]


@pytest.mark.parametrize("type_tag", TYPES)
@pytest.mark.parametrize("name", FINITE)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_a_hit_answers_as_a_miss(name, type_tag, seed):
    S = _space(FINITE[name], random.Random(seed), type_tag)
    if S is None:
        return
    info = graded.planes_memo.cache_info
    first = _outcome(S)
    hits = info().hits
    again = _outcome(S)
    assert info().hits == hits + 1
    T = _copy(S)
    hit = _outcome(T)
    assert info().hits == hits + 2
    graded.planes_memo.cache_clear()
    fresh = _outcome(T)
    assert info()[:2] == (0, 1)
    # the planes of S on every call, and those of T, each in its own space
    assert first == again
    assert hit == fresh
    assert _data(hit) == _data(first)
    assert _spaces_of(first) <= {id(S)}
    assert _spaces_of(again) <= {id(S)}
    assert _spaces_of(hit) <= {id(T)}
    assert _spaces_of(fresh) <= {id(T)}
    assert info().currsize <= info().maxsize


@pytest.mark.parametrize("type_tag", TYPES)
@pytest.mark.parametrize("name", FINITE)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_spaces_that_differ_in_q_or_degrees_get_their_own_planes(
        name, type_tag, seed):
    # S, S with its degrees moved by one and, but for type III, where q
    # is the diagonal of b, S with other q values: each after the ones
    # before it (a warm memo) and alone (an empty one)
    k = FINITE[name]
    rng = random.Random(seed)
    S = _space(k, rng, type_tag)
    if S is None:
        return
    variants = [S, graded.ShiftedQuadSpace(
        k, S.v2, S.eps, [d + 1 for d in S.degrees], S.qvals, S.bmat,
        S.type_tag)]
    if type_tag != "III":
        variants.append(graded.ShiftedQuadSpace(
            k, S.v2, S.eps, S.degrees, [_elem(k, rng) for _ in S.qvals],
            S.bmat, S.type_tag))
    graded.planes_memo.cache_clear()
    warm = [_outcome(V) for V in variants]
    cold = []
    for V in variants:
        graded.planes_memo.cache_clear()
        cold.append(_outcome(V))
    assert warm == cold


@pytest.mark.parametrize("name", FINITE)
def test_the_draws_reach_planes_and_anisotropy_in_every_type(name):
    k = FINITE[name]
    rng = random.Random(f"memo {name}")
    seen = set()
    for _ in range(300):
        type_tag = rng.choice(TYPES)
        S = _space(k, rng, type_tag)
        if S is not None:
            seen.add((type_tag, graded.metabolic_planes(S) is None))
    assert seen == {(t, none) for t in TYPES for none in (False, True)}, seen


@pytest.mark.parametrize("name", FINITE)
def test_a_degenerate_space_raises_on_every_call(name):
    # b = 0: the isotropic first row lies in the radical
    k = FINITE[name]
    S = graded.ShiftedQuadSpace(k, 1, 1, [0, 0], [k.zero, k.one],
                                [[k.zero] * 2] * 2, "II")
    graded.planes_memo.cache_clear()
    for calls in (1, 2):
        with pytest.raises(DegenerateForm, match="in the radical"):
            graded.metabolic_planes(S)
        assert graded.planes_memo.cache_info()[:2] == (0, calls)
    assert graded.planes_memo.cache_info().currsize == 0


def test_a_grid_violation_is_raised_on_a_hit_too(monkeypatch):
    # a patched round moves x off its degree class: the miss keeps the
    # rounds, and GradedVector raises on that call and on the hit after it
    k = FINITE["GF(4)"]
    third = 1 / graded.grid(3)
    S = graded.ShiftedQuadSpace(k, 1, 1, [third, -third - 1],
                                [k.zero, k.zero],
                                [[k.zero, k.one], [k.one, k.zero]], "II")
    real = residue_witt._split_plane

    def off_grid(vec, *args, **kwargs):
        (x, yi, *plane), *rest = real(vec, *args, **kwargs)
        return (vec.axpy(x, k.one, vec.units(S.n)[yi]), yi, *plane), *rest

    monkeypatch.setattr(residue_witt, "_split_plane", off_grid)
    graded.planes_memo.cache_clear()
    try:
        for _ in range(2):
            with pytest.raises(GridViolation, match="off the degree grid"):
                graded.metabolic_planes(S)
        assert graded.planes_memo.cache_info()[:2] == (1, 1)
    finally:
        graded.planes_memo.cache_clear()


@pytest.mark.parametrize("type_tag", TYPES)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_a_space_over_a_rational_function_field_skips_the_memo(type_tag, seed):
    S = _space(RatFuncField(1), random.Random(seed), type_tag)
    if S is None:
        return
    before = graded.planes_memo.cache_info()
    _outcome(S)
    _outcome(S)
    assert graded.planes_memo.cache_info() == before


def test_the_memo_keeps_at_most_its_maxsize():
    k = FINITE["GF(2)"]
    size = graded.PLANES_MEMO_SIZE
    assert graded.planes_memo.cache_info().maxsize == size
    graded.planes_memo.cache_clear()
    for d in range(size + 8):
        # a hyperbolic plane on the degrees d and -d - 1
        S = graded.ShiftedQuadSpace(k, 1, 1, [d, -d - 1], [k.zero, k.zero],
                                    [[k.zero, k.one], [k.one, k.zero]], "II")
        assert len(graded.metabolic_planes(S)) == 1
        assert graded.planes_memo.cache_info().currsize == min(d + 1, size)
    graded.planes_memo.cache_clear()


# -- the memo of orbit_invariants ---------------------------------------------


def _invariants(S, choice=None):
    try:
        return graded.orbit_invariants(S, choice)
    except WittlabError as e:
        return type(e), str(e)


def _memoized(S):
    """Whether orbit_invariants looks S up in its memo."""
    return (S.type_tag in ("I", "II") and S.eps.denominator == 1
            and S.k.is_perfect)


@pytest.mark.parametrize("type_tag", ("I", "II"))
@pytest.mark.parametrize("name", FINITE)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_an_invariants_hit_answers_as_a_miss(name, type_tag, seed):
    S = _space(FINITE[name], random.Random(seed), type_tag)
    if S is None or not _memoized(S):
        return
    info = graded.invariants_memo.cache_info
    first = _invariants(S)
    hits = info().hits
    again = _invariants(S)
    hit = _invariants(_copy(S))
    assert info().hits == hits + 2
    graded.invariants_memo.cache_clear()
    fresh = _invariants(_copy(S))
    assert info()[:2] == (0, 1)
    # a given choice equal to the default one descends without the memo
    given_choice = _invariants(S, graded.default_choice(S))
    assert first == again == hit == fresh == given_choice
    assert info().currsize <= info().maxsize


@pytest.mark.parametrize("type_tag", ("I", "II"))
@pytest.mark.parametrize("name", FINITE)
def test_every_invariants_call_returns_a_new_dict(name, type_tag):
    k = FINITE[name]
    rng = random.Random(f"new dict {name} {type_tag}")
    spaces = [S for S in (_space(k, rng, type_tag) for _ in range(40))
              if S is not None and _memoized(S)]
    assert spaces
    for S in spaces:
        first = graded.orbit_invariants(S)
        expected = dict(first)
        second = graded.orbit_invariants(S)
        assert second is not first and second == expected
        # a caller that changes its dict changes no later answer
        first.clear()
        second[HALF] = None
        assert graded.orbit_invariants(S) == expected


@pytest.mark.parametrize("type_tag, eps", (("I", 0), ("II", 1)))
@pytest.mark.parametrize("name", FINITE)
def test_degenerate_invariants_raise_on_every_call(name, type_tag, eps):
    # b = 0: the descended form is degenerate
    k = FINITE[name]
    S = graded.ShiftedQuadSpace(k, 1, eps, [0, 0], [k.zero, k.one],
                                [[k.zero] * 2] * 2, type_tag)
    graded.invariants_memo.cache_clear()
    for calls in (1, 2):
        with pytest.raises(DegenerateForm, match="degenerate"):
            graded.orbit_invariants(S)
        assert graded.invariants_memo.cache_info()[:2] == (0, calls)
    assert graded.invariants_memo.cache_info().currsize == 0


@pytest.mark.parametrize("name", [*FINITE, "GF(2)(x)"])
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_other_invariants_skip_the_memo(name, seed):
    # half-integer eps, type III, a given choice and GF(2^m)(x) spaces
    k = FINITE.get(name) or RatFuncField(1)
    rng = random.Random(seed)
    S = _space(k, rng, rng.choice(TYPES))
    if S is None:
        return
    before = graded.invariants_memo.cache_info()
    if not _memoized(S):
        _invariants(S)
        _invariants(S)
    if S.eps.denominator == 1:
        _invariants(S, graded.default_choice(S))
    assert graded.invariants_memo.cache_info() == before


def test_the_draws_reach_every_skipped_kind():
    rng = random.Random("skipped kinds")
    seen = set()
    for _ in range(300):
        name = rng.choice([*FINITE, "GF(2)(x)"])
        k = FINITE.get(name) or RatFuncField(1)
        S = _space(k, rng, rng.choice(TYPES))
        if S is not None and not _memoized(S):
            seen.add("III" if S.type_tag == "III"
                     else "half" if S.eps.denominator == 2 else "GF(2)(x)")
    assert seen == {"III", "half", "GF(2)(x)"}, seen


def test_the_invariants_memo_keeps_at_most_its_maxsize():
    k = FINITE["GF(2)"]
    size = graded.PLANES_MEMO_SIZE
    assert graded.invariants_memo.cache_info().maxsize == size
    graded.invariants_memo.cache_clear()
    for d in range(size + 8):
        # a hyperbolic plane on the degrees d and -d - 1
        S = graded.ShiftedQuadSpace(k, 1, 1, [d, -d - 1], [k.zero, k.zero],
                                    [[k.zero, k.one], [k.one, k.zero]], "II")
        assert all(inv.is_zero()
                   for inv in graded.orbit_invariants(S).values())
        assert graded.invariants_memo.cache_info().currsize == min(d + 1, size)
    graded.invariants_memo.cache_clear()
