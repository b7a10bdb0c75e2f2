import random
from fractions import Fraction

import pytest

from wittlab import graded, linalg, norms
from wittlab.errors import DegreeCapExceeded, NotApplicable, PrecisionExhausted
from wittlab.fields import INF, field_shorthand, make_field
from wittlab.fields.common import AtLeast
from wittlab.literals import parse_element, parse_form
from wittlab.norms import (CompatibilityViolation, DepthCertificate,
                           NotReducible, VNorm, builder_binary, builder_unary,
                           check_compatibility, descend, depth_reduce,
                           extend_certificate, induced_space, initial_norm,
                           norm_shift, norm_sum, require_certificate,
                           split_respecting_norm, wildness_index)
from wittlab.quadform import QuadraticForm

from form_helpers import is_nonsingular, lead_of, polar

HALF = Fraction(1, 2)
F2T = make_field("laurent", m=1)
F2XT = make_field("laurent-ratfunc", m=1)
Q2 = make_field("dyadic")


def std_norm(field, values):
    n = len(values)
    basis = [[field.one if i == j else field.zero for j in range(n)]
             for i in range(n)]
    return VNorm(field, basis, values)


# -- norm values --------------------------------------------------------------


def test_norm_value_formula():
    t = F2T.uniformizer()
    alpha = std_norm(F2T, [0, 0])
    assert alpha.value([t, F2T.one + t]) == 0
    beta = std_norm(F2T, [0, -HALF])
    assert beta.value([F2T.zero, t]) == HALF
    assert beta.value([F2T.zero, F2T.zero]) == INF


def test_norm_value_scaling_axiom():
    rng = random.Random(0)
    alpha = std_norm(F2T, [0, -HALF, Fraction(3, 2)])
    k = F2T.residue_field
    for _ in range(50):
        x = [F2T.make([(rng.randrange(-3, 4), k.random(rng))]) for _ in range(3)]
        lam = F2T.make([(rng.randrange(-2, 3), k.one)])
        ax = alpha.value(x)
        assert alpha.value([lam * c for c in x]) == Fraction(lam.valuation()) + ax


def test_norm_value_on_a_truncated_non_diagonal_basis():
    # columns e_0 and (t + O(t^4)) e_0 + e_1: solving for the coordinates
    # eliminates the second column's entry from the first row
    basis = [[F2T.one, parse_element("t + O(t^4)", F2T)], [F2T.zero, F2T.one]]
    alpha = VNorm(F2T, basis, [0, HALF])
    value = lambda *x: alpha.value([parse_element(c, F2T) for c in x])
    # the first coordinate is O(t^4): its bound 4 lies above the value 1/2
    assert value("t", "1") == HALF
    assert value("1 + O(t^3)", "O(t^3)") == 0
    # every coordinate truncated: only a lower bound is certified
    assert value("O(t^2)", "O(t^2)") == AtLeast(2)
    # the first coordinate O(t) may hide a term below v = 3 + 1/2
    with pytest.raises(PrecisionExhausted):
        value("O(t)", "t^3")


# -- compatibility -------------------------------------------------------------


def test_check_compatibility_known_case():
    q = parse_form("[1, t^-1]", F2T)
    norm = std_norm(F2T, [0, -HALF])
    cert = check_compatibility(q, norm, HALF)
    assert not isinstance(cert, CompatibilityViolation)
    assert cert.eps == HALF
    # at depth 0 the same norm fails: (a) and (b) hold but the induced
    # graded form is degenerate, so the violated condition is (c)
    res = check_compatibility(q, norm, 0)
    assert isinstance(res, CompatibilityViolation)
    assert res.condition == "c"


def test_check_compatibility_hyperbolic_tame():
    q = parse_form("[0, 0]", F2T)
    cert = check_compatibility(q, std_norm(F2T, [0, 0]), 0)
    assert not isinstance(cert, CompatibilityViolation)


@pytest.mark.parametrize("field, U, values, eps, condition", [
    # v(q(e_1)) = -1 < 2 * 0
    (F2T, [["1", "1"], [None, "t^-1"]], [0, 0], 0, "b"),
    # v(q(e_0)) = 0 < 2 * 1
    (Q2, [["1"]], [1], 1, "b"),
    # q(e_i) = t is deep enough, b(e_0, e_1) = 1 is not: 0 < 1/2 + 1/2
    (F2T, [["t", "1"], [None, "t"]], [HALF, HALF], 0, "a"),
    # b(e_0, e_0) = 2 passes, b(e_0, e_1) = 1 fails: 0 < 0 + 0 + 1/2
    (Q2, [["1", "1"], [None, "1"]], [0, 0], HALF, "a"),
])
def test_check_compatibility_names_the_violated_condition(field, U, values,
                                                          eps, condition):
    q = QuadraticForm(field, [[field.zero if c is None else parse_element(c, field)
                               for c in row] for row in U])
    res = check_compatibility(q, std_norm(field, values), eps)
    assert isinstance(res, CompatibilityViolation)
    assert res.condition == condition
    with pytest.raises(NotApplicable):
        require_certificate(q, std_norm(field, values), eps)


@pytest.mark.parametrize("field, U, values, eps", [
    # q(e_0) = O(t^0) cannot certify v(q(e_0)) >= 2 * 1/2
    (F2T, [["O(t^0)", "1"], [None, "t^-1"]], [HALF, -HALF], HALF),
    (Q2, [["O(2^0)"]], [HALF], 1),
    # q(e_i) = t passes, b(e_0, e_1) = O(t^0) cannot certify v >= 1
    (F2T, [["t", "O(t^0)"], [None, "t"]], [HALF, HALF], 0),
    (Q2, [["1", "O(2^0)"], [None, "1"]], [0, 0], HALF),
])
def test_check_compatibility_truncated_entry_below_the_threshold(field, U,
                                                                 values, eps):
    q = QuadraticForm(field, [[field.zero if c is None else parse_element(c, field)
                               for c in row] for row in U])
    with pytest.raises(PrecisionExhausted):
        check_compatibility(q, std_norm(field, values), eps)


def test_check_compatibility_dimension_mismatch():
    q = parse_form("[1, t^-1]", F2T)
    res = check_compatibility(q, std_norm(F2T, [0]), 0)
    assert isinstance(res, CompatibilityViolation)
    assert (res.condition, res.detail) == ("a", "dimension mismatch")
    with pytest.raises(NotApplicable, match="dimension mismatch"):
        require_certificate(q, std_norm(F2T, [0]), 0)


def test_rank_test_errors_reach_the_caller(monkeypatch):
    # condition (c) over GF(2^m)(x) can trip the degree cap; that is not
    # a degenerate form, so neither check_compatibility nor initial_norm
    # may turn it into a violation
    def capped(self, rows):
        raise DegreeCapExceeded("rank test")

    monkeypatch.setattr(norms.residue_witt._Coords, "rank", capped)
    q = parse_form("[1, x*t^-2]", F2XT)
    with pytest.raises(DegreeCapExceeded):
        check_compatibility(q, std_norm(F2XT, [0, -1]), 1)
    with pytest.raises(DegreeCapExceeded):
        initial_norm(q)


def test_certificates_revalidate():
    for lit, field in (("[1+t, t^-1+t]", F2T), ("[1, x*t^-2]", F2XT),
                       ("<1, 1>", Q2)):
        q = parse_form(lit, field)
        eps, cert = wildness_index(q)
        assert cert.revalidate()


# -- builders ---------------------------------------------------------------------


def test_builder_binary_depths():
    t = F2T.uniformizer()
    _, eps = builder_binary(F2T, F2T.one, t.inv())
    assert eps == HALF
    _, eps = builder_binary(F2T, F2T.one, t)
    assert eps == 0
    _, eps = builder_binary(F2T, F2T.one, F2T.one)
    assert eps == 0
    norm, eps = builder_binary(F2T, F2T.zero, t.inv() * t.inv() * t.inv())
    assert eps == 0
    q = QuadraticForm.binary(F2T, F2T.zero, t.inv() ** 3)
    assert not isinstance(check_compatibility(q, norm, eps),
                          CompatibilityViolation)


def test_builder_unary():
    norm, eps = builder_unary(Q2, Q2.one)
    assert eps == 1
    q = QuadraticForm.diagonal(Q2, [Q2.one])
    assert not isinstance(check_compatibility(q, norm, eps),
                          CompatibilityViolation)
    with pytest.raises(NotApplicable):
        builder_unary(F2T, F2T.one)


def test_builders_certify():
    rng = random.Random(1)
    k = F2T.residue_field
    for _ in range(60):
        a = F2T.make([(rng.randrange(-3, 4), k.random(rng)) for _ in range(2)])
        b = F2T.make([(rng.randrange(-3, 4), k.random(rng)) for _ in range(2)])
        norm, eps = builder_binary(F2T, a, b)
        q = QuadraticForm.binary(F2T, a, b)
        assert not isinstance(check_compatibility(q, norm, eps),
                              CompatibilityViolation)


# -- norm algebra ------------------------------------------------------------------


def test_norm_sum_and_shift():
    q1 = parse_form("[1, t^-1]", F2T)
    q2 = parse_form("[t, t^-1]", F2T)
    n1, e1 = builder_binary(F2T, q1.U[0][0], q1.U[1][1])
    n2, e2 = builder_binary(F2T, q2.U[0][0], q2.U[1][1])
    assert (e1, e2) == (HALF, 0)
    lifted = norm_shift(n2, e2, HALF)
    total = norm_sum(n1, lifted)
    cert = require_certificate(q1.ortho_sum(q2), total, HALF)
    assert cert.eps == HALF
    # shift by zero is the identity
    same = norm_shift(n1, HALF, HALF)
    assert same.values == n1.values
    with pytest.raises(NotApplicable):
        norm_shift(n1, HALF, 0)


def test_induced_sum_is_sum_of_induced():
    q1 = parse_form("[1, t^-1]", F2T)
    q2 = parse_form("[1, t^-2]", F2T)
    e1, c1 = wildness_index(q1)
    # shift q1's certificate to depth 1 and sum with q2's initial one
    c2 = initial_norm(q2)
    lifted = norm_shift(c1.norm, e1, c2.eps)
    total = norm_sum(lifted, c2.norm)
    qs = q1.ortho_sum(q2)
    cert = require_certificate(qs, total, c2.eps)
    S = induced_space(qs, cert)
    S1 = induced_space(q1, require_certificate(q1, lifted, c2.eps))
    S2 = induced_space(q2, c2)
    assert S.degrees == S1.degrees + S2.degrees
    assert S.qvals == S1.qvals + S2.qvals


def test_shift_after_recheck_random():
    rng = random.Random(2)
    k = F2T.residue_field
    for _ in range(30):
        a = F2T.make([(rng.randrange(-2, 3), k.random(rng))])
        b = F2T.make([(rng.randrange(-2, 3), k.random(rng))])
        norm, eps = builder_binary(F2T, a, b)
        target = eps + rng.choice((HALF, 1, Fraction(3, 2)))
        shifted = norm_shift(norm, eps, target)
        q = QuadraticForm.binary(F2T, a, b)
        assert not isinstance(check_compatibility(q, shifted, target),
                              CompatibilityViolation)


# -- initial norms ------------------------------------------------------------------


def test_initial_norm_examples():
    hyp = parse_form("sum([0,0], [0,0])", F2T)
    assert initial_norm(hyp).eps == 0
    assert initial_norm(parse_form("[1+t, t^-1+t]", F2T)).eps <= 1
    assert initial_norm(parse_form("<1, 1>", Q2)).eps == 1


# -- splitting ----------------------------------------------------------------------


def test_split_respecting_norm_reassembly():
    rng = random.Random(3)
    q = parse_form("sum([1, t^-1], [t, t^-1])", F2T)
    M = [[F2T.one if i == j else F2T.zero for j in range(4)] for i in range(4)]
    for _ in range(6):
        i, j = rng.randrange(4), rng.randrange(4)
        if i != j:
            c = F2T.make([(rng.randrange(0, 2), F2T.residue_field.random(rng))])
            for r in range(4):
                M[r][i] = M[r][i] + c * M[r][j]
    q2 = q.change_basis(M)
    eps, cert = wildness_index(q2)
    blocks = split_respecting_norm(q2, cert)
    assert len(blocks) == 2
    for (a, b), (ga, gb), (e, f) in blocks:
        blk = QuadraticForm.binary(F2T, a, b)
        bc = check_compatibility(blk, std_norm(F2T, [ga, gb]), eps)
        assert not isinstance(bc, CompatibilityViolation)
        assert (polar(q2, e, f) - F2T.one).is_zero_to_precision()


def test_split_min_property():
    # Coyette: the norm is the min over the returned blocks
    q = parse_form("sum([1, t^-1], [t, t^-1])", F2T)
    eps, cert = wildness_index(q)
    blocks = split_respecting_norm(q, cert)
    rng = random.Random(4)
    k = F2T.residue_field
    for _ in range(20):
        coords = [F2T.make([(rng.randrange(-2, 3), k.random(rng))])
                  for _ in range(4)]
        x = [F2T.zero] * 4
        parts = []
        for (a, b), (ga, gb), (e, f) in blocks:
            c1, c2 = coords.pop(), coords.pop()
            u = [c1 * e[r] + c2 * f[r] for r in range(4)]
            x = [x[r] + u[r] for r in range(4)]
            val = min((Fraction(c1.valuation()) + ga) if c1.is_certified_nonzero() else INF,
                      (Fraction(c2.valuation()) + gb) if c2.is_certified_nonzero() else INF)
            parts.append(val)
        expect = min(parts)
        if expect == INF:
            continue
        assert cert.norm.value(x) == expect


# -- reduction and the wildness loop ---------------------------------------------------


def test_depth_reduce_known_chain():
    q = parse_form("[1, t^-2]", F2T)
    cert = initial_norm(q)
    assert cert.eps == 1
    step = depth_reduce(q, cert)
    assert not isinstance(step, NotReducible)
    assert step.eps == HALF
    step2 = depth_reduce(q, step)
    assert isinstance(step2, NotReducible)
    assert any(not inv.is_zero() for inv in step2.evidence.values())


def test_depth_reduce_q2_example():
    q = parse_form("<1, 1>", Q2)
    cert = initial_norm(q)
    assert cert.eps == 1
    step = depth_reduce(q, cert)
    assert not isinstance(step, NotReducible)
    assert step.eps == HALF
    assert isinstance(depth_reduce(q, step), NotReducible)


def test_wildness_known_values():
    assert wildness_index(parse_form("[1+t, t^-1+t]", F2T))[0] == HALF
    assert wildness_index(parse_form("[1, x*t^-2]", F2XT))[0] == 1
    assert wildness_index(parse_form("[t, t^-1]", F2T))[0] == 0


def test_depth_reduce_soundness_returns_certificate():
    rng = random.Random(5)
    k = F2T.residue_field
    for _ in range(30):
        a = F2T.make([(rng.randrange(-3, 3), k.random(rng)) for _ in range(2)])
        b = F2T.make([(rng.randrange(-3, 3), k.random(rng)) for _ in range(2)])
        q = QuadraticForm.binary(F2T, a, b)
        cert = initial_norm(q)
        while cert.eps > 0:
            step = depth_reduce(q, cert)
            if isinstance(step, NotReducible):
                break
            assert step.eps < cert.eps
            assert step.revalidate()
            cert = step


def test_monotone_filtration():
    rng = random.Random(6)
    k = F2T.residue_field
    for _ in range(25):
        lits = ["[1, t^-1]", "[t, t^-1]", "[1, t^-2]", "[1+t, t^-1]"]
        q1 = parse_form(rng.choice(lits), F2T)
        q2 = parse_form(rng.choice(lits), F2T)
        e1 = wildness_index(q1)[0]
        e2 = wildness_index(q2)[0]
        es = wildness_index(q1.ortho_sum(q2))[0]
        assert es <= max(e1, e2)


def test_generator_characterization():
    # random [a, b] with v(a) + v(b) >= -2 eps has wildness <= eps
    rng = random.Random(7)
    k = F2T.residue_field
    for _ in range(40):
        eps = rng.choice((0, HALF, 1, Fraction(3, 2)))
        va = rng.randrange(-3, 4)
        vb_min = -int(2 * eps) - va
        vb = rng.randrange(vb_min, vb_min + 3)
        a = F2T.make([(va, k.one)])
        b = F2T.make([(vb, k.one)])
        q = QuadraticForm.binary(F2T, a, b)
        assert wildness_index(q)[0] <= eps


def test_scaling_invariance_of_wildness():
    rng = random.Random(8)
    k = F2T.residue_field
    t = F2T.uniformizer()
    for _ in range(20):
        a = F2T.make([(rng.randrange(-2, 3), k.random(rng)) for _ in range(2)])
        b = F2T.make([(rng.randrange(-2, 3), k.random(rng)) for _ in range(2)])
        q = QuadraticForm.binary(F2T, a, b)
        if not is_nonsingular(q):
            continue
        assert wildness_index(q.scale(t))[0] == wildness_index(q)[0]


def test_wildness_q2_saturates_at_v2():
    rng = random.Random(9)
    for _ in range(25):
        entries = [Q2.from_int(rng.randrange(1, 30) * 2 ** rng.randrange(0, 3))
                   for _ in range(2)]
        q = QuadraticForm.diagonal(Q2, entries)
        if not is_nonsingular(q):
            continue
        assert wildness_index(q)[0] <= 1


# -- certificates carry their Gram data --------------------------------------------


SHORTHAND_FORMS = {
    "f2-laurent": "sum([1+t, t^-1+t], [1, t^-2], [t, t^-3])",
    "f2m-laurent:m=2": "sum([2, t^-2], [1+t, 3*t^-1], [t, t^-3])",
    "f2x-laurent": "sum([1, x*t^-2], [x, t^-1], [1+t, (1+x)*t^-3])",
    "f2mx-laurent:m=2": "sum([1, x*t^-2], [2, t^-1], [x, 3*t^-3])",
    "q2": "<1, 1, 3, 3>",
}


def scrambled(q, rng):
    """q in a random unimodular basis, so the Gram data is dense."""
    F = q.field
    M = [[F.one if i == j else F.zero for j in range(q.n)] for i in range(q.n)]
    for i in range(q.n):
        for j in range(q.n):
            if i != j and rng.random() < 0.5:
                for r in range(q.n):
                    M[r][i] = M[r][i] + M[r][j]
    return q.change_basis(M)


def certificates_along_the_loop(q):
    """initial_norm, every depth_reduce step of the wildness loop, and a
    require_certificate at one step above the wildness index."""
    cert = initial_norm(q)
    certs = [cert]
    while cert.eps > 0:
        step = depth_reduce(q, cert)
        if isinstance(step, NotReducible):
            break
        cert = step
        certs.append(cert)
    up = cert.eps + HALF
    if q.field.v2 == INF or up < q.field.v2:
        certs.append(require_certificate(q, norm_shift(cert.norm, cert.eps, up), up))
    return certs


def space_from_scratch(q, cert):
    qe, be = norms._gram_on_basis(q, cert.norm)
    be = linalg.dense(be, q.field.zero)
    g, eps = cert.norm.values, cert.eps
    qvals = tuple(qe[i].coeff_at(2 * g[i]) for i in range(q.n))
    bmat = tuple(tuple(be[i][j].coeff_at(g[i] + g[j] + eps) for j in range(q.n))
                 for i in range(q.n))
    return cert.norm.values, qvals, bmat


@pytest.mark.parametrize("shorthand", sorted(SHORTHAND_FORMS))
def test_induced_space_matches_gram_from_scratch(shorthand):
    F = field_shorthand(shorthand)
    q = scrambled(parse_form(SHORTHAND_FORMS[shorthand], F), random.Random(11))
    certs = certificates_along_the_loop(q)
    assert len(certs) >= 3  # a reduction step was taken
    for cert in certs:
        S = induced_space(q, cert)
        degrees, qvals, bmat = space_from_scratch(q, cert)
        assert S.degrees == degrees
        assert S.qvals == qvals
        assert S.bmat == bmat


def test_revalidate_ignores_the_cached_gram():
    q = parse_form("sum([1+t, t^-1+t], [1, t^-2])", F2T)
    _, cert = wildness_index(q)
    cert.qe = cert.be = cert.rows = None
    assert cert.revalidate()


def test_induced_space_rejects_another_form():
    q = parse_form("[1, t^-2]", F2T)
    cert = initial_norm(q)
    copy = QuadraticForm(F2T, [list(row) for row in q.U])
    assert induced_space(copy, cert).degrees == induced_space(q, cert).degrees
    with pytest.raises(NotApplicable):
        induced_space(parse_form("[1, t^-4]", F2T), cert)


def test_wildness_with_truncated_entries_in_char2():
    # the polar diagonal of a truncated entry is an exact zero, so the
    # blocks split at the first precision
    assert wildness_index(parse_form("[1/(1+t), t^-3]", F2T))[0] == Fraction(3, 2)
    assert wildness_index(parse_form("[1+t+O(t^9), t^-1]", F2T))[0] == HALF


def test_lead_reads_only_the_certified_upper_triangle():
    # (a) certifies b(e_0, e_1) on the upper triangle; a lower entry with
    # too little precision for its lead coefficient is never read
    q = parse_form("[1, t^-1]", F2T)
    norm = std_norm(F2T, [0, -HALF])
    qe, be = norms._gram_on_basis(q, norm)
    low = parse_element("O(t^-1)", F2T)
    be[1] = [(j, low if j == 0 else b) for j, b in be[1]]
    assert linalg.dense(be, F2T.zero)[1][0] is low
    with pytest.raises(PrecisionExhausted):
        low.coeff_at(0)
    cert = check_compatibility(q, norm, HALF, _gram=(qe, be))
    assert isinstance(cert, DepthCertificate)
    lead = lead_of(cert)
    assert lead[1][0] == lead[0][1] == F2T.residue_field.one


# -- extending a certificate by an orthogonal summand -------------------------------


@pytest.mark.parametrize("base, summand, field", [
    ("[1, t^-3]", "[1, t^-1]", F2T),
    ("sum([1+t, t^-1+t], [1, t^-2])", "[1, t^-1 + O(t^2)]", F2T),
    ("[1, x*t^-2]", "[x, t^-1]", F2XT),
    ("<1, 1>", "[1, 1/2]", Q2),
    ("<1, 2>", "<-1>", Q2),
    ("<1, 2>", "<-2>", Q2),
])
def test_extend_certificate_joins_the_summand_norm(base, summand, field):
    q, s = parse_form(base, field), parse_form(summand, field)
    cert = initial_norm(q)
    ext = extend_certificate(cert, s)
    assert ext.eps == cert.eps
    assert ext.form.U == q.ortho_sum(s).U
    assert ext.norm.values[:q.n] == cert.norm.values
    assert ext.revalidate()
    # the block-diagonal Gram is the one a fresh check computes
    fresh = check_compatibility(ext.form, ext.norm, ext.eps)
    assert lead_of(fresh) == lead_of(ext)
    G = linalg.dense(ext.be, field.zero)
    assert all(G[i][j].is_exactly_zero()
               for i in range(q.n) for j in range(q.n, ext.norm.n))


def test_extend_certificate_lowers_a_shallower_summand():
    # [t, t^-1] has builder depth 0; at depth 3/2 its first value drops by
    # the full difference, as in initial_norm
    cert = initial_norm(parse_form("[1, t^-3]", F2T))
    ext = extend_certificate(cert, parse_form("[t, t^-1]", F2T))
    assert ext.norm.values[2:] == (HALF - Fraction(3, 2), -HALF)
    assert descend(ext).eps == wildness_index(ext.form)[0]


def test_extend_certificate_rejects_a_deeper_summand():
    cert = initial_norm(parse_form("[t, t^-1]", F2T))
    with pytest.raises(NotApplicable):
        extend_certificate(cert, parse_form("[1, t^-3]", F2T))
    with pytest.raises(NotApplicable):
        extend_certificate(cert, parse_form("sum([1, 1], [1, 1])", F2T))


@pytest.mark.parametrize("a, b, values", [
    ("t^3", "O(t^-1)", [HALF, -HALF]),
    ("O(t^-1)", "t^3", [-HALF, HALF]),
    ("t", "O(t^-1)", [HALF, -HALF]),
    ("O(t^3)", "t^-3", [3 * HALF, -3 * HALF]),
    ("O(t^0)", "1", [0, 0]),
])
def test_builder_binary_truncated_entry_certified(a, b, values):
    # v(a) + v(b) >= 0 is certified by the bounds alone: depth 0
    norm, eps = builder_binary(F2T, parse_element(a, F2T), parse_element(b, F2T))
    assert eps == 0 and list(norm.values) == values
    q = QuadraticForm.binary(F2T, parse_element(a, F2T), parse_element(b, F2T))
    eps, cert = wildness_index(q)
    assert eps == 0 and list(cert.norm.values) == values


@pytest.mark.parametrize("a, b", [("1", "O(t^-1)"), ("O(t^-1)", "1"),
                                  ("O(t^-1)", "O(t^-1)"), ("O(t^2)", "t^-3")])
def test_builder_binary_truncated_entry_uncertified(a, b):
    # v(a) + v(b) may be negative or not: the depth is not determined
    with pytest.raises(PrecisionExhausted):
        builder_binary(F2T, parse_element(a, F2T), parse_element(b, F2T))
