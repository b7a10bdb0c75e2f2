import random

import pytest

from wittlab.errors import DegenerateForm, UnsupportedResidueField
from wittlab.fields import GF2m, RatFuncField
from wittlab.quadform import QuadraticForm
from wittlab.residue_witt import (SeparatedSpace, SymplecticQuadSpace,
                                  WqClass, arf_invariant, functor_U,
                                  k_symplectic_blocks, kquad_isotropic_vector,
                                  kquad_witt_class, sq_normalize,
                                  sq_witt_class, ssq_normalize,
                                  ssq_witt_class, tensor_of, w_class,
                                  wedge_of, wq_raw_class)

from residue_brute_force import (TooLarge, kquad_anisotropic_part,
                                 witt_decompose_small)

K2 = GF2m(1)
K4 = GF2m(2)
RX = RatFuncField(1)


def sq(k, *pairs):
    return SymplecticQuadSpace(k, tuple(pairs))


def sep(k, *pairs):
    return SeparatedSpace(k, tuple(pairs))


# -- wedge classes -------------------------------------------------------------


def test_sq_class_known_values():
    a = RX.x + RX.one
    assert sq_witt_class(sq(RX, (a, a))).is_zero()  # <a, a> metabolic
    xx = RX.x * RX.x
    assert sq_witt_class(sq(RX, (RX.one, xx))).is_zero()  # x^2 is a square
    w = sq_witt_class(sq(RX, (RX.one, RX.x)))
    assert not w.is_zero()
    assert w.coordinate() == RX.one  # the basis coordinate of 1 wedge x


def test_sq_class_brute_force_cross_check():
    # <1, x> over GF(2)(x): no Lagrangian among low-degree coefficients
    S = sq(RX, (RX.one, RX.x))
    found = False
    polys = [RX.from_poly(c) for c in
             [(0,), (1,), (0, 1), (1, 1), (0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]]
    for c1 in polys:
        for c2 in polys:
            if c1.is_zero() and c2.is_zero():
                continue
            val = c1 * c1 * RX.one + c2 * c2 * RX.x
            if val.is_zero():
                found = True
    assert not found


def test_sq_moves_preserve_class():
    rng = random.Random(0)
    for _ in range(50):
        a, b, c, d = (RX.random(rng, 2) for _ in range(4))
        xi = RX.random(rng, 1)
        if xi.is_zero():
            continue
        base = sq_witt_class(sq(RX, (a, b), (c, d)))
        move2 = sq_witt_class(sq(RX, (a, xi * xi * b), (c, d)))
        swap = sq_witt_class(sq(RX, (xi * xi * a, b), (c, d)))
        assert move2 == swap
        move3 = sq_witt_class(sq(RX, (a + c, b), (c, b + d)))
        assert move3 == base


def test_sq_random_symplectic_base_change_invariance():
    rng = random.Random(1)
    for _ in range(25):
        pairs = [(K4.random(rng), K4.random(rng)) for _ in range(2)]
        S = sq(K4, *pairs)
        qvals = [pairs[0][0], pairs[0][1], pairs[1][0], pairs[1][1]]
        bmat = [[K4.zero] * 4 for _ in range(4)]
        bmat[0][1] = bmat[1][0] = K4.one
        bmat[2][3] = bmat[3][2] = K4.one
        # scramble by a random invertible change preserving nothing special
        n = 4
        M = [[K4.one if i == j else K4.zero for j in range(n)] for i in range(n)]
        for _ in range(8):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = K4.random(rng)
            for r in range(n):
                M[r][i] = M[r][i] + c * M[r][j]
        qv2 = []
        for cidx in range(n):
            col = [M[r][cidx] for r in range(n)]
            acc = K4.zero
            for r in range(n):
                acc = acc + col[r] * col[r] * qvals[r]
            qv2.append(acc)
        bm2 = [[K4.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                acc = K4.zero
                for r in range(n):
                    for s in range(n):
                        acc = acc + M[r][i] * M[s][j] * bmat[r][s]
                bm2[i][j] = acc
        S2, _ = sq_normalize(qv2, bm2, K4)
        assert sq_witt_class(S2) == sq_witt_class(S)


def test_sq_normalize_errors():
    deg = [[K2.zero, K2.zero], [K2.zero, K2.zero]]
    with pytest.raises(DegenerateForm):
        sq_normalize([K2.one, K2.one], deg, K2)


# -- tensor classes ---------------------------------------------------------------


def test_ssq_class_examples():
    assert ssq_witt_class(sep(K2, (K2.zero, K2.one))).is_zero()
    t = ssq_witt_class(sep(K2, (K2.one, K2.one)))
    assert not t.is_zero() and t.coords[0] == K2.one
    s = ssq_witt_class(sep(RX, (RX.one, RX.x), (RX.x, RX.one)))
    assert not s.is_zero()
    # coordinates on 1@x and x@1 both nonzero
    assert not s.coords[1].is_zero() and not s.coords[2].is_zero()


def test_tensor_and_wedge_reprs_over_ratfunc():
    x = RX.x
    assert repr(tensor_of(RX.one + x, x, RX)) == "(1)*(1@x) + (1)*(x@x)"
    assert repr(tensor_of(RX.one, x * x, RX)) == "(x^2)*(1@1)"
    assert repr(tensor_of(RX.zero, x, RX)) == "0"
    assert repr(wedge_of(RX.one, x, RX)) == "(1)*(1^x)"
    assert repr(wedge_of(x, x, RX)) == "0"


def test_values_over_a_perfect_field_on_the_two_basis():
    # every x-part is zero over GF(4): a tensor is sqrt(ab) on 1@1 and
    # every wedge, the image of a tensor too, is zero
    elems = [K4.elem(b) for b in range(4)]
    for a in elems:
        for b in elems:
            t = tensor_of(a, b, K4)
            assert t.coords[0] ** 2 == a * b
            assert all(c.is_zero() for c in t.coords[1:])
            assert wedge_of(a, b, K4).is_zero()
            assert t.to_wedge().is_zero() and repr(t.to_wedge()) == "0"
    assert repr(tensor_of(K4.elem(2), K4.one, K4)) == "(2)*(1@1)"


def test_space_reprs():
    assert repr(sq(RX, (RX.one, RX.x), (RX.x, RX.one))) == "<1, x> perp <x, 1>"
    assert repr(sep(K4, (K4.elem(2), K4.elem(3)), (K4.one, K4.zero))) == \
        "<2 | 3> perp <1 | 0>"
    assert repr(sq(K2)) == repr(sep(K2)) == "0"


def test_ssq_moves_preserve_class():
    rng = random.Random(2)
    for _ in range(50):
        a, b, c, d = (RX.random(rng, 2) for _ in range(4))
        xi = RX.random(rng, 1)
        if xi.is_zero():
            continue
        base = ssq_witt_class(sep(RX, (a, b), (c, d)))
        move1 = ssq_witt_class(sep(RX, (xi * xi * a, b), (c, d)))
        move1b = ssq_witt_class(sep(RX, (a, xi * xi * b), (c, d)))
        assert move1 == move1b
        move2 = ssq_witt_class(sep(RX, (a + c, b), (c, b + d)))
        assert move2 == base


def test_functor_square_commutes():
    rng = random.Random(3)
    for _ in range(200):
        pairs = tuple((RX.random(rng, 2), RX.random(rng, 2))
                      for _ in range(rng.randrange(1, 4)))
        S = sep(RX, *pairs)
        assert ssq_witt_class(S).to_wedge() == sq_witt_class(functor_U(S))
    assert functor_U(sep(RX)).pairs == ()


def test_ssq_normalize_roundtrip():
    qv = [K4.one, K4.elem(2)]
    qv2 = [K4.elem(3), K4.zero]
    S = ssq_normalize(qv, qv2, K4)
    assert S.pairs == ((K4.one, K4.elem(3)), (K4.elem(2), K4.zero))


# -- Arf and small-space oracles ---------------------------------------------------


def test_arf_known_values():
    assert arf_invariant([(K2.one, K2.one)], K2).arf == 1
    assert arf_invariant([(K2.one, K2.zero)], K2).arf == 0
    assert arf_invariant([(K2.one, K2.one), (K2.one, K2.one)], K2).arf == 0


def test_arf_matches_enumeration_oracle():
    rng = random.Random(4)
    for k in (K2, K4):
        for _ in range(40):
            pairs = [(k.random(rng), k.random(rng))
                     for _ in range(rng.randrange(1, 3))]
            rows = [[k.zero] * (2 * len(pairs)) for _ in range(2 * len(pairs))]
            for i, (a, b) in enumerate(pairs):
                rows[2 * i][2 * i] = a
                rows[2 * i + 1][2 * i + 1] = b
                rows[2 * i][2 * i + 1] = k.one
            form = QuadraticForm(k, rows)
            hyper = kquad_anisotropic_part(form).n == 0
            assert hyper == (arf_invariant(pairs, k).arf == 0)


def test_arf_additivity():
    rng = random.Random(5)
    for _ in range(100):
        p1 = [(K4.random(rng), K4.random(rng))]
        p2 = [(K4.random(rng), K4.random(rng)) for _ in range(2)]
        assert (arf_invariant(p1 + p2, K4).arf
                == arf_invariant(p1, K4).arf ^ arf_invariant(p2, K4).arf)


def test_arf_unsupported_over_ratfunc():
    with pytest.raises(UnsupportedResidueField):
        arf_invariant([(RX.one, RX.x)], RX)
    raw = wq_raw_class([(RX.one, RX.x)], RX)
    assert not raw.decides()
    assert raw.arf_representative == RX.x


def test_witt_decompose_small():
    hyper = sq(K2, (K2.zero, K2.one))
    assert witt_decompose_small(hyper).dim() == 0
    # every GF(4) element is a square: wedge trivial, Lagrangian exists
    s = sq(K4, (K4.one, K4.elem(2)))
    assert witt_decompose_small(s).dim() == 0
    aniso = QuadraticForm.binary(K2, K2.one, K2.one)
    part = witt_decompose_small(aniso)
    assert part.n == 2
    with pytest.raises(TooLarge):
        witt_decompose_small(sq(K2, *[(K2.one, K2.one)] * 13))


def test_oracle_equivalence_small():
    rng = random.Random(6)
    for k in (K2, K4):
        for _ in range(60):
            pairs = tuple((k.random(rng), k.random(rng))
                          for _ in range(rng.randrange(1, 4)))
            S = sq(k, *pairs)
            assert (sq_witt_class(S).is_zero()
                    == (witt_decompose_small(S).dim() == 0))
            P = sep(k, *pairs)
            assert (ssq_witt_class(P).is_zero()
                    == (witt_decompose_small(P).dim() == 0))


def test_kquad_isotropic_vector_constructive():
    rng = random.Random(7)
    for k in (K2, K4, GF2m(3)):
        for _ in range(60):
            n = rng.choice((2, 4))
            rows = [[k.zero] * n for _ in range(n)]
            for i in range(0, n, 2):
                rows[i][i] = k.random(rng)
                rows[i + 1][i + 1] = k.random(rng)
                rows[i][i + 1] = k.one
            form = QuadraticForm(k, rows)
            vec = kquad_isotropic_vector(form)
            if vec is None:
                assert kquad_anisotropic_part(form).n == form.n
            else:
                assert not all(c.is_zero() for c in vec)
                assert form.evaluate(vec).is_zero()


def test_w_class():
    assert w_class([K2.one], K2).bit == 1
    assert w_class([K2.one, K2.one], K2).bit == 0
    rng = random.Random(8)
    for _ in range(20):
        c = K4.random(rng)
        if not c.is_zero():
            assert w_class([c], K4).bit == 1
    with pytest.raises(UnsupportedResidueField):
        w_class([RX.one], RX)
    with pytest.raises(DegenerateForm):
        w_class([K2.zero], K2)


def test_k_symplectic_blocks_roundtrip():
    rng = random.Random(9)
    for _ in range(30):
        n = 4
        rows = [[K4.random(rng) if j >= i else K4.zero for j in range(n)]
                for i in range(n)]
        form = QuadraticForm(K4, rows)
        B = form.polar_matrix()
        try:
            pairs, M = k_symplectic_blocks(form)
        except DegenerateForm:
            continue
        assert len(pairs) == 2
        cls = kquad_witt_class(form)
        assert cls.arf == arf_invariant(pairs, K4).arf


def test_wq_class_sum_keeps_the_arf_representative():
    # an empty orbit is the decided zero WqClass(k, arf=0); adding it must
    # not drop the other side's partial data
    from wittlab.arason import boundary_symbol
    from wittlab.fields import field_shorthand
    from wittlab.literals import parse_form
    from wittlab.residue_witt import WqClass
    F = field_shorthand("f2x-laurent")
    k = F.residue_field
    _, s1 = boundary_symbol(parse_form("[1, x]", F))
    _, s2 = boundary_symbol(parse_form("[t, x*t^-1]", F))
    total = s1 + s2
    assert [p.arf_representative for p in total.payload] == [k.x, k.x]
    assert [p.raw for p in total.payload] == [((k.one, k.x),)] * 2
    assert total.payload == (s1.payload[0], s2.payload[1])
    zero, one = WqClass(K2, arf=0), WqClass(K2, arf=1)
    assert zero + one == one + zero == one and one + one == zero


def test_partial_wq_classes_add_their_raw_data():
    one, x = RX.one, RX.x
    a = wq_raw_class([(one, x)], RX)
    b = wq_raw_class([(x, x), (one, one)], RX)
    total = a + b
    assert total.arf is None and not total.decides()
    assert total.raw == ((one, x), (x, x), (one, one))
    assert total.arf_representative == x + x * x + one
    bare = WqClass(RX, raw=((x, one),))  # raw data, no representative
    assert (a + bare).raw == ((one, x), (x, one))
    assert (a + bare).arf_representative is None
    assert (bare + a).arf_representative is None
