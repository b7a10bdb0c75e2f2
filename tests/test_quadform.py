import random
from fractions import Fraction

import pytest

from wittlab import arason, linalg, norms
from wittlab.errors import (DegreeCapExceeded, NotApplicable,
                            PrecisionExhausted, RuleNotApplicable,
                            SingularForm)
from wittlab.fields import GF2m, RatFuncField, make_field
from wittlab.literals import parse_element, parse_form
from wittlab.quadform import (QuadraticForm, WittExpr, gram_of, rewrite,
                              symplectic_blocks)

from form_helpers import expr_form, is_nonsingular, polar, random_invertible

F2T = make_field("laurent", m=1)
F4T = make_field("laurent", m=2)
Q2 = make_field("dyadic")


def rand_laurent(F, rng, lo=-3, hi=4, terms=3):
    k = F.residue_field
    return F.make([(rng.randrange(lo, hi), k.random(rng)) for _ in range(terms)])


def test_evaluate_and_polar():
    q = parse_form("[1, 1]", F2T)
    one = F2T.one
    assert q.evaluate([one, one]) == one  # 1 + 1 + 1
    e1 = [one, F2T.zero]
    e2 = [F2T.zero, one]
    assert polar(q, e1, e2) == one
    rng = random.Random(0)
    qq = parse_form("<1, 1>", Q2)
    for _ in range(20):
        x = [Q2.from_int(rng.randrange(-9, 9)) for _ in range(2)]
        assert polar(qq, x, x) == Q2.from_int(2) * qq.evaluate(x)


def test_polar_of_sum_identity():
    rng = random.Random(1)
    q = parse_form("sum([1, t^-1], [t, 1+t])", F2T)
    for _ in range(20):
        x = [rand_laurent(F2T, rng) for _ in range(4)]
        y = [rand_laurent(F2T, rng) for _ in range(4)]
        lhs = q.evaluate([a + b for a, b in zip(x, y)])
        rhs = q.evaluate(x) + q.evaluate(y) + polar(q, x, y)
        assert (lhs + rhs).is_zero_to_precision()


def test_polar_matrix_built_once_with_exact_char2_diagonal():
    q = parse_form("[1/(1+t), t^-3]", F2T)
    assert q.U[0][0].abs_prec is not None  # a truncated diagonal entry
    B = q.polar_matrix()
    assert B is q.polar_matrix()
    assert all(B[i][i].is_exactly_zero() for i in range(2))
    assert B[0][1] == B[1][0] == F2T.one
    qq = parse_form("<1, 3>", Q2)
    assert qq.polar_matrix()[1][1] == Q2.from_int(6)


def rand_truncated(F, rng):
    if F.char == 0:
        x = F.make(rng.randrange(-40, 40), rng.randrange(-3, 4))
    else:
        x = rand_laurent(F, rng)
    return x.truncated(rng.randrange(-1, 6)) if rng.random() < 0.6 else x


@pytest.mark.parametrize("field", [F2T, F4T, Q2], ids=str)
def test_gram_of_triangles_agree_to_the_lower_precision(field):
    # G[r][c] and G[c][r] are two sums for one value of the symmetric polar
    # form: they agree to the lower of their two precisions, but over
    # truncated columns the precisions themselves can differ, so gram_of
    # forms the lower triangle on its own instead of mirroring it
    rng = random.Random(8)
    differ = 0
    for _ in range(150):
        n = rng.randrange(2, 6)
        q = QuadraticForm(field, [[rand_truncated(field, rng) if j >= i
                                   else field.zero for j in range(n)]
                                  for i in range(n)])
        cols = [[rand_truncated(field, rng) if rng.random() < 0.7
                 else field.zero for _ in range(n)]
                for _ in range(rng.randrange(2, 6))]
        G = linalg.dense(gram_of(q.polar_matrix(), cols), field.zero)
        for r in range(len(cols)):
            for c in range(r + 1, len(cols)):
                assert (G[r][c] - G[c][r]).is_zero_to_precision()
                differ += G[r][c].abs_prec != G[c][r].abs_prec
    assert differ > 0


def test_gram_of_lower_entry_certifies_its_own_precision():
    D = Q2
    q = QuadraticForm(D, [[D.from_int(2), D.from_int(-3)], [D.zero, D.one]])
    cols = [[D.make(-1, 2), D.make(3, -1, 2)], [D.make(-1, 2), D.make(-5, 1)]]
    G = linalg.dense(gram_of(q.polar_matrix(), cols), D.zero)
    assert (G[0][1].abs_prec, G[1][0].abs_prec) == (5, 4)


def test_is_nonsingular():
    assert is_nonsingular(parse_form("[1, t^-1]", F2T))
    assert not is_nonsingular(QuadraticForm.diagonal(F2T, [F2T.one]))
    assert is_nonsingular(parse_form("<1, 1>", Q2))
    assert not is_nonsingular(QuadraticForm.diagonal(F2T, [F2T.one, F2T.uniformizer()]))


def test_scale_isometry():
    t = F2T.uniformizer()
    q = parse_form("[1, 1]", F2T)
    s = q.scale(t)
    # scale(t, [1,1]) is isometric to [t^-1, t]: e1' = t^-1 e1
    M = [[t.inv(), F2T.zero], [F2T.zero, F2T.one]]
    assert_forms_identical(s.change_basis(M), parse_form("[t^-1, t]", F2T))


def assert_forms_identical(q1, q2):
    assert q1.n == q2.n
    for i in range(q1.n):
        for j in range(q1.n):
            assert (q1.U[i][j] - q2.U[i][j]).is_zero_to_precision()


def test_change_basis_example():
    # [1, t^-2] with e1' = e1, e2' = e2 + t^-1 e1 becomes [1, t^-1]
    q = parse_form("[1, t^-2]", F2T)
    t = F2T.uniformizer()
    M = [[F2T.one, t.inv()], [F2T.zero, F2T.one]]
    assert_forms_identical(q.change_basis(M), parse_form("[1, t^-1]", F2T))


def test_change_basis_preserves_evaluation():
    rng = random.Random(2)
    q = parse_form("sum([1, t^-1], [t, t^-1])", F2T)
    M = random_invertible(F2T, 4, rng,
                          lambda: rand_laurent(F2T, rng, -1, 2, 1))
    qM = q.change_basis(M)
    for _ in range(10):
        x = [rand_laurent(F2T, rng) for _ in range(4)]
        Mx = [sum((M[r][c] * x[c] for c in range(4)), start=F2T.zero)
              for r in range(4)]
        assert (qM.evaluate(x) + q.evaluate(Mx)).is_zero_to_precision()


def test_symplectic_blocks_scrambled():
    rng = random.Random(3)
    q = parse_form("sum([1, 1], [t, t^-1])", F2T)
    M = random_invertible(F2T, 4, rng,
                          lambda: rand_laurent(F2T, rng, -1, 2, 1))
    q2 = q.change_basis(M)
    blocks, Mb = symplectic_blocks(q2)
    assert [b[0] for b in blocks] == ["pair", "pair"]
    qb = q2.change_basis(Mb)
    B = qb.polar_matrix()
    for i in range(4):
        for j in range(4):
            if i // 2 == j // 2 and i != j:
                assert B[i][j].is_certified_nonzero()
            else:
                assert B[i][j].is_zero_to_precision()


def test_symplectic_blocks_diag_q2():
    blocks, _ = symplectic_blocks(parse_form("<1, 1>", Q2))
    assert [b[0] for b in blocks] == ["line", "line"]


def test_symplectic_blocks_singular():
    with pytest.raises(SingularForm):
        symplectic_blocks(QuadraticForm.diagonal(F2T, [F2T.one, F2T.one]))


# U = [[1,2,0,0],[0,1,0,0],[0,0,1,1],[0,0,0,3]] over Q_2, whose polar block
# [[2,2],[2,2]] is singular, changed by L = [[1,0,0,0],[2,1,0,0],
# [1,4,1,0],[0,1,2,1]]: the split divides by non-units and leaves a rest
# that is zero only to precision
SCRAMBLED_SINGULAR = \
    "[[10, 15, 4, 1], [0, 24, 29, 10], [0, 0, 15, 13], [0, 0, 0, {}]]"


@pytest.mark.parametrize("k", [GF2m(1), RatFuncField(1)], ids=repr)
def test_valued_field_routines_refuse_residue_forms(k):
    # a WittlabError naming residue_witt, not an AttributeError
    q = QuadraticForm.binary(k, k.one, k.one)
    for call in (lambda: q.scale(k.one),
                 lambda: q.change_basis([[k.one, k.zero], [k.zero, k.one]]),
                 lambda: symplectic_blocks(q)):
        with pytest.raises(NotApplicable, match="residue_witt"):
            call()


@pytest.mark.parametrize("precision", (16, 64, 1024))
def test_scrambled_exact_singular_form_is_singular(precision):
    F = make_field("dyadic", precision=precision)
    q = parse_form(SCRAMBLED_SINGULAR.format(3), F)
    with pytest.raises(SingularForm, match="radical"):
        norms.wildness_index(q)
    truncated = parse_form(SCRAMBLED_SINGULAR.format('"3 + O(2^40)"'), F)
    with pytest.raises(PrecisionExhausted):
        norms.wildness_index(truncated)


def test_undecided_singularity_stays_precision_exhausted(monkeypatch):
    def capped(A):
        raise DegreeCapExceeded("capped")

    monkeypatch.setattr(linalg, "is_invertible_certified", capped)
    with pytest.raises(PrecisionExhausted):
        symplectic_blocks(parse_form(SCRAMBLED_SINGULAR.format(3), Q2))


# -- the rewrite engine ---------------------------------------------------------


def klass_zero(expr):
    """Independent Witt-triviality oracle for the expression's form."""
    return arason.class_is_zero_tame_oracle(expr_form(expr))


def exprs_equal(e1, e2):
    diff = expr_form(e1).ortho_sum(-expr_form(e2))
    return arason.class_is_zero_tame_oracle(diff)


def test_rule_e_known_kills():
    t = F2T.uniformizer()
    for a, b in ((F2T.one, t), (t, t)):
        e = WittExpr.binary(F2T, a, b)
        assert len(rewrite(e, "e", at=0).summands) == 0
        assert klass_zero(e) is True
    with pytest.raises(RuleNotApplicable):
        rewrite(WittExpr.binary(F2T, F2T.one, t.inv()), "e", at=0)


def test_rule_f_derived_example():
    e = WittExpr.diagonal(Q2, [Q2.one, Q2.one])
    r = rewrite(e, "f", at=(0, 1))
    (s,) = r.summands
    assert s.a == Q2.one and s.b == Q2.one / Q2.from_int(2)
    # verify the recorded basis change e' = e, f' = (e - f)/2a gives [1, 1/2]
    q = expr_form(e)
    half = Q2.one / Q2.from_int(2)
    M = [[Q2.one, half], [Q2.zero, -half]]
    q2 = q.change_basis(M)
    target = expr_form(r)
    for i in range(2):
        for j in range(2):
            assert (q2.U[i][j] - target.U[i][j]).is_zero_to_precision()


def test_rule_d_merge_char2_exact():
    rng = random.Random(4)
    for _ in range(25):
        alpha = rand_laurent(F2T, rng, 0, 3)
        beta = rand_laurent(F2T, rng, 0, 3)
        gamma = rand_laurent(F2T, rng, 0, 3)
        e = WittExpr.binary(F2T, alpha, gamma) + WittExpr.binary(F2T, beta, gamma)
        merged = rewrite(e, "d_merge", at=(0, 1))
        assert len(merged.summands) == 1
        assert exprs_equal(e, merged) is True


def test_rule_d_remainder_tagged_q2():
    rng = random.Random(5)
    hits = 0
    while hits < 10:
        a = Q2.from_int(rng.randrange(1, 20))
        b = Q2.from_int(rng.randrange(1, 20))
        g = Q2.from_int(2 * rng.randrange(1, 10)) / Q2.from_int(4)
        e = WittExpr.binary(Q2, a, g) + WittExpr.binary(Q2, b, g)
        try:
            r = rewrite(e, "d_merge", at=(0, 1))
        except RuleNotApplicable:
            continue
        hits += 1
        assert len(r.summands) == 2
        assert r.summands[1].depth_bound is not None
        assert exprs_equal(e, r) is True


def test_rule_c_unscaled():
    t = F2T.uniformizer()
    e = WittExpr.binary(F2T, t.inv(), t)
    r = rewrite(e, "c", at=0)
    (s,) = r.summands
    assert s.a == t and s.b == t.inv()
    assert exprs_equal(e, r) is True


def test_rules_a_b_soundness():
    rng = random.Random(6)
    for _ in range(20):
        a, b = rand_laurent(F2T, rng, -2, 3), rand_laurent(F2T, rng, -2, 3)
        e = WittExpr.binary(F2T, a, b)
        assert exprs_equal(rewrite(e, "a", at=0), e) is True
        c = rand_laurent(F2T, rng, 0, 2, 1)
        if c.is_certified_nonzero():
            assert exprs_equal(rewrite(e, "b", at=0, c=c), e) is True


def test_rule_g_soundness():
    rng = random.Random(7)
    done = 0
    while done < 20:
        a = Q2.from_int(rng.randrange(-20, 20))
        b = Q2.from_int(rng.randrange(-20, 20))
        e = WittExpr.diagonal(Q2, [a, b])
        try:
            r = rewrite(e, "g", at=(0, 1))
        except RuleNotApplicable:
            continue
        done += 1
        assert exprs_equal(e, r) is True


def test_scale_by_square_preserves_class():
    rng = random.Random(10)
    for _ in range(10):
        q = parse_form(rng.choice(["[1, t^-1]", "[1+t, t^-2]", "[t, 1]"]), F2T)
        c = rand_laurent(F2T, rng, -1, 2, 1)
        if not c.is_certified_nonzero():
            continue
        assert arason.witt_equal(q.scale(c * c), q) is True
