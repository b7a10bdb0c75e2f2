import random
from fractions import Fraction

import pytest

from wittlab import arason, norms
from wittlab.arason import (CanonicalDecomposition, GeneratorExpression,
                            NotInSubgroup, boundary_symbol,
                            canonical_decomposition, class_is_zero_tame_oracle,
                            decomposition_form, generator_certificate,
                            witt_equal)
from wittlab.errors import (INDISTINGUISHABLE, PrecisionExhausted,
                            UnsupportedResidueField)
from wittlab.fields import field_shorthand, make_field
from wittlab.literals import parse_form
from wittlab.quadform import QuadraticForm

HALF = Fraction(1, 2)
F2T = make_field("laurent", m=1)
F4T = make_field("laurent", m=2)
F2XT = make_field("laurent-ratfunc", m=1)
Q2 = make_field("dyadic")


# -- boundary symbols ----------------------------------------------------------


def test_symbol_half_integer_known_value():
    eps, sym = boundary_symbol(parse_form("[1, t^-1]", F2T))
    assert eps == HALF and sym.kind == "tensor"
    assert sym.payload[0].coords[0] == F2T.residue_field.one


def test_symbol_wedge_known_value():
    eps, sym = boundary_symbol(parse_form("[1, x*t^-2]", F2XT))
    assert eps == 1 and sym.kind == "wedge_pair"
    assert sym.payload[0].coordinate() == F2XT.residue_field.one
    assert sym.payload[1].is_zero()


def test_symbol_w_pair_known_values():
    eps, sym = boundary_symbol(parse_form("<1>", Q2))
    assert eps == 1 and sym.kind == "w_pair"
    assert (sym.payload[0].bit, sym.payload[1].bit) == (1, 0)
    eps, sym = boundary_symbol(parse_form("<2>", Q2))
    assert (sym.payload[0].bit, sym.payload[1].bit) == (0, 1)


def test_w_pair_symbols_add():
    # <1, 2> keeps depth 1, so its symbol is the sum of those of <1> and
    # <2>; <1, 1> is the sum's zero
    def symbol(lit):
        return boundary_symbol(parse_form(lit, Q2))[1]

    assert symbol("<1, 2>") == symbol("<1>") + symbol("<2>")
    assert (symbol("<1>") + symbol("<1>")).is_zero()
    assert not (symbol("<1>") + symbol("<2>")).is_zero()


def test_symbol_tame_pair():
    eps, sym = boundary_symbol(parse_form("[1, 1]", F2T))
    assert eps == 0 and sym.kind == "wq_pair"
    assert (sym.payload[0].arf, sym.payload[1].arf) == (1, 0)
    eps, sym = boundary_symbol(parse_form("[t, t^-1]", F2T))
    assert (sym.payload[0].arf, sym.payload[1].arf) == (0, 1)


def test_symbol_additive_on_fixed_depth():
    rng = random.Random(0)
    k = F4T.residue_field
    done = attempts = 0
    while done < 40 and attempts < 2000:
        attempts += 1
        a1 = F4T.make([(0, k.random(rng))])
        b1 = F4T.make([(-1, k.random(rng))])
        a2 = F4T.make([(0, k.random(rng))])
        b2 = F4T.make([(-1, k.random(rng))])
        if any(c.is_zero_to_precision() for c in (a1, b1, a2, b2)):
            continue
        q1 = QuadraticForm.binary(F4T, a1, b1)
        q2 = QuadraticForm.binary(F4T, a2, b2)
        e1, s1 = boundary_symbol(q1)
        e2, s2 = boundary_symbol(q2)
        es, ss = boundary_symbol(q1.ortho_sum(q2))
        if not (e1 == e2 == es == HALF):
            continue
        done += 1
        assert ss == s1 + s2
    assert done == 40


def test_symbol_norm_independent():
    rng = random.Random(1)
    for lit, field in (("[1, t^-1]", F2T), ("[1, x*t^-2]", F2XT),
                       ("<1, 1>", Q2)):
        q = parse_form(lit, field)
        eps, cert = norms.wildness_index(q)
        sym = arason._symbol_from_cert(q, cert)
        for _ in range(3):
            M = [[field.one if i == j else field.zero for j in range(q.n)]
                 for i in range(q.n)]
            for _ in range(4):
                i, j = rng.randrange(q.n), rng.randrange(q.n)
                if i == j:
                    continue
                if field.char == 0:
                    c = field.from_int(rng.randrange(-2, 3))
                else:
                    c = field.make([(rng.randrange(0, 2),
                                     field.residue_field.random(rng, 1)
                                     if hasattr(field.residue_field, "variable")
                                     else field.residue_field.random(rng))])
                for r in range(q.n):
                    M[r][i] = M[r][i] + c * M[r][j]
            qM = q.change_basis(M)
            epsM, certM = norms.wildness_index(qM)
            assert epsM == eps
            # pull the certificate back through M: basis columns M * E
            from wittlab import linalg
            E = [[certM.norm.basis[r][c] for c in range(q.n)]
                 for r in range(q.n)]
            ME = linalg.mat_mul(M, E, field.zero)
            cert2 = norms.require_certificate(
                q, norms.VNorm(field, ME, certM.norm.values), epsM)
            sym2 = arason._symbol_from_cert(q, cert2)
            assert sym2 == sym


# -- generator certificates -------------------------------------------------------


def test_generator_certificate_known_expansion():
    expr = generator_certificate(parse_form("[1+t, t^-1+t]", F2T), HALF)
    assert isinstance(expr, GeneratorExpression)
    got = [(t.scaled, str(t.alpha), str(t.beta)) for t in expr.terms]
    assert got == [(False, "1", "1"), (True, "1", "t")]
    assert expr.vanished == 2


def test_generator_certificate_not_in_subgroup():
    res = generator_certificate(parse_form("[1, t^-1]", F2T), 0)
    assert isinstance(res, NotInSubgroup)
    assert res.actual == HALF
    assert res.symbol.kind == "tensor" and not res.symbol.is_zero()


def test_generator_certificate_hyperbolic_empty():
    expr = generator_certificate(parse_form("sum([0,0],[0,0])", F2T), 0)
    assert expr.terms == [] and expr.vanished == 2


@pytest.mark.parametrize("shorthand, text, depths", [
    ("f2m-laurent:m=2", "[2*t^-2 + 2*t, t^-2 + O(t^2)]",
     (0, HALF, 1, 3 * HALF)),
    ("f2-laurent", "sum([t^-3, t^-2], [t^-3+t^2, t^-2+O(t^3)], "
                   "[t^2+O(t^5), t^-3])", (HALF, 1, 3 * HALF)),
])
def test_generator_certificate_on_a_truncated_block_entry(shorthand, text,
                                                          depths):
    # a block entry known only to a bound has no valuation to scale by
    F = field_shorthand(shorthand, precision=32)
    q = parse_form(text, F)
    for eps in depths:
        with pytest.raises(PrecisionExhausted, match="zero only to precision"):
            generator_certificate(q, eps)


def test_generator_terms_reassemble():
    rng = random.Random(2)
    k = F2T.residue_field
    pi = F2T.uniformizer()
    for _ in range(15):
        a = F2T.make([(rng.randrange(-1, 2), k.random(rng)) for _ in range(2)])
        b = F2T.make([(rng.randrange(-2, 2), k.random(rng)) for _ in range(2)])
        q = QuadraticForm.binary(F2T, a, b)
        w = norms.wildness_index(q)[0]
        expr = generator_certificate(q, max(w, HALF))
        total = QuadraticForm(F2T, [])
        for term in expr.terms:
            beta = term.beta
            coeff = beta * pi ** (-int(2 * expr.eps))
            g = QuadraticForm.binary(F2T, term.alpha, coeff)
            if term.scaled:
                g = g.scale(pi)
            total = total.ortho_sum(g)
        assert class_is_zero_tame_oracle(q.ortho_sum(-total)) is True


# -- canonical decompositions --------------------------------------------------------


def test_canonical_q2_examples():
    k = Q2.residue_field
    dec = canonical_decomposition(parse_form("<1>", Q2))
    assert dec == CanonicalDecomposition((), k.zero, k.zero, 1, 0)
    dec = canonical_decomposition(parse_form("<1, 1>", Q2))
    assert dec == CanonicalDecomposition((k.one,), k.zero, k.zero, 0, 0)


def test_canonical_f2t_flagged_example():
    # [1+t, t^-1+t]_W = [1, t^-1]_W + [t, t^-1]_W; the tame summand has
    # Arf([1,1]) = 1 over GF(2), so beta0 = 1  (resolved per the oracle)
    k = F2T.residue_field
    dec = canonical_decomposition(parse_form("[1+t, t^-1+t]", F2T))
    assert dec == CanonicalDecomposition((k.one,), k.zero, k.one, 0, 0)


def test_canonical_roundtrip_random_f4():
    rng = random.Random(3)
    k = F4T.residue_field
    one_t = k.canonical_trace_one()
    for _ in range(10):
        wild = tuple(k.random(rng) for _ in range(rng.randrange(0, 3)))
        while wild and wild[-1].is_zero():
            wild = wild[:-1]
        dec = CanonicalDecomposition(
            wild,
            rng.choice((k.zero, one_t)),
            rng.choice((k.zero, one_t)))
        q = decomposition_form(F4T, dec)
        assert canonical_decomposition(q) == dec


def test_canonical_unsupported_over_ratfunc():
    with pytest.raises(UnsupportedResidueField):
        canonical_decomposition(parse_form("[1, x*t^-2]", F2XT))


def test_canonical_tame_transversal():
    # over GF(4) the lift 1 has trace 0: [1, 1] is already hyperbolic and
    # the canonical tame parameter collapses to 0
    k = F4T.residue_field
    dec = canonical_decomposition(parse_form("[1, 1]", F4T))
    assert dec == CanonicalDecomposition((), k.zero, k.zero, 0, 0)
    # while the trace-one element is elem(2)
    assert k.canonical_trace_one() == k.elem(2)


# -- equality --------------------------------------------------------------------


def test_witt_equal_known_values():
    assert witt_equal(parse_form("[1, t^-2]", F2T),
                      parse_form("[1, t^-1]", F2T)) is True
    assert witt_equal(parse_form("[1, t^-1]", F2T),
                      parse_form("[t, t^-1]", F2T)) is False
    q = parse_form("[1, t^-1]", F2T)
    qh = parse_form("sum([1, t^-1], [0, 0])", F2T)
    assert witt_equal(q, qh) is True


def test_witt_equal_imperfect_cascade():
    q1 = parse_form("[1, x*t^-2]", F2XT)
    q2 = parse_form("[1, t^-1]", F2XT)
    assert witt_equal(q1, q2) is False  # depths 1 vs 1/2
    q3 = parse_form("sum([1, x*t^-2], [0,0])", F2XT)
    assert witt_equal(q1, q3) is True  # witnessed hyperbolic difference
    aniso = parse_form("[x, x]", F2XT)
    hyp = parse_form("[0, 0]", F2XT)
    res = witt_equal(aniso, hyp)
    assert res is INDISTINGUISHABLE
    with pytest.raises(TypeError):
        bool(res)


def test_witt_equal_q2():
    assert witt_equal(parse_form("<1, 1>", Q2),
                      parse_form("[1, 1/2]", Q2)) is True
    assert witt_equal(parse_form("<1>", Q2), parse_form("<2>", Q2)) is False


def test_filtration_ordering_consequences():
    rng = random.Random(4)
    lits = ["[1, t^-1]", "[1, t^-2]", "[t, t^-1]", "[1+t, t^-1+t]", "[0, 0]"]
    for _ in range(20):
        l1, l2 = rng.choice(lits), rng.choice(lits)
        q1, q2 = parse_form(l1, F2T), parse_form(l2, F2T)
        if witt_equal(q1, q2) is True:
            e1, s1 = boundary_symbol(q1)
            e2, s2 = boundary_symbol(q2)
            assert e1 == e2 and s1 == s2


# -- the resumed canonical recursion ------------------------------------------------


def resumed_rounds(q, monkeypatch):
    """canonical_decomposition(q) and the certificate of every resumed round
    (each later round extends the last certificate and descends from it)."""
    seen = []

    def recording(cert):
        out = norms.descend(cert)
        seen.append(out)
        return out

    monkeypatch.setattr(arason, "descend", recording)
    return canonical_decomposition(q), seen


def assert_rounds_match_a_fresh_start(rounds):
    for cert in rounds:
        assert cert.revalidate()
        eps, fresh = norms.wildness_index(cert.form)
        assert cert.eps == eps
        assert (arason._symbol_from_cert(cert.form, cert)
                == arason._symbol_from_cert(cert.form, fresh))


def random_binary_sum(F, rng, blocks):
    k = F.residue_field
    q = QuadraticForm(F, [])
    for _ in range(blocks):
        a = F.make([(rng.randrange(-2, 3), k.random(rng)) for _ in range(2)])
        b = F.make([(rng.randrange(-6, 1), k.random(rng)) for _ in range(2)])
        q = q.ortho_sum(QuadraticForm.binary(F, a, b))
    return q


@pytest.mark.parametrize("field", [F2T, F4T], ids=["F2((t))", "F4((t))"])
def test_resumed_rounds_certify_the_fresh_depth_laurent(field, monkeypatch):
    rng = random.Random(5)
    resumed = 0
    for _ in range(12):
        q = random_binary_sum(field, rng, rng.randrange(1, 4))
        _dec, rounds = resumed_rounds(q, monkeypatch)
        assert_rounds_match_a_fresh_start(rounds)
        resumed += len(rounds)
    assert resumed >= 12


@pytest.mark.parametrize("lit", [
    "sum([1/(1+t), t^-5/(1+t)], [1, t^-1 + O(t^2)])",
    "[1 + O(t^4), t^-3 + t^-1 + O(t^1)]",
])
@pytest.mark.parametrize("field", [F2T, F4T], ids=["F2((t))", "F4((t))"])
def test_resumed_rounds_over_truncated_entries(field, lit, monkeypatch):
    _dec, rounds = resumed_rounds(parse_form(lit, field), monkeypatch)
    assert len(rounds) == 2
    assert_rounds_match_a_fresh_start(rounds)


def test_resumed_rounds_certify_the_fresh_depth_q2(monkeypatch):
    rng = random.Random(6)
    k = Q2.residue_field
    for _ in range(10):
        dec = CanonicalDecomposition(
            (k.one,) if rng.randrange(2) else (),
            rng.choice((k.zero, k.one)), rng.choice((k.zero, k.one)),
            rng.randrange(2), rng.randrange(2))
        other = CanonicalDecomposition((k.one,), k.one, k.zero, 1, 1)
        q = decomposition_form(Q2, dec).ortho_sum(decomposition_form(Q2, other))
        _dec, rounds = resumed_rounds(q, monkeypatch)
        assert_rounds_match_a_fresh_start(rounds)


def test_w_pair_round_with_both_bits_resumes(monkeypatch):
    # <1, 2> has both diagonal bits: the round adds <-1> and <-2> as two
    # one-dimensional summands to the depth-1 certificate
    k = Q2.residue_field
    for lit, wild in (("<1, 2>", ()), ("sum(<1, 2>, [1, 1/2])", (k.one,))):
        q = parse_form(lit, Q2)
        eps, sym = boundary_symbol(q)
        assert eps == 1 and sym.kind == "w_pair"
        assert (sym.payload[0].bit, sym.payload[1].bit) == (1, 1)
        dec, rounds = resumed_rounds(q, monkeypatch)
        assert dec == CanonicalDecomposition(wild, k.zero, k.zero, 1, 1)
        assert rounds[0].form.n == q.n + 2
        assert_rounds_match_a_fresh_start(rounds)
