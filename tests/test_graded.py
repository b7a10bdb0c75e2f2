import random
from fractions import Fraction

import pytest

from wittlab import graded, norms, residue_witt
from wittlab.errors import (DegenerateForm, GridViolation, NotApplicable,
                            Undecidable, WittlabError, WrongCase)
from wittlab.fields import make_field
from wittlab.graded import (HomogeneousScalar, ShiftedQuadSpace,
                            UniformizingChoice, coset_decomposition,
                            default_choice, descend_case1, descend_case2,
                            is_metabolic, orbit_invariants, orbit_partition,
                            split_principal_metabolic, validate)
from wittlab.literals import parse_form
from wittlab.residue_witt import (SymplecticQuadSpace, sq_witt_class,
                                  ssq_witt_class)

from form_helpers import bval, qval

HALF = Fraction(1, 2)
F2T = make_field("laurent", m=1)
F4T = make_field("laurent", m=2)
F2XT = make_field("laurent-ratfunc", m=1)
Q2 = make_field("dyadic")


def induced(lit, field):
    q = parse_form(lit, field)
    eps, cert = norms.wildness_index(q)
    return norms.induced_space(q, cert)


def induced_at_initial(lit, field):
    q = parse_form(lit, field)
    cert = norms.initial_norm(q)
    return q, cert, norms.induced_space(q, cert)


# -- validation --------------------------------------------------------------


def test_validate_type_II_non_alternating():
    k = F2T.residue_field
    S = ShiftedQuadSpace(k, F2T.v2, 1, [0, -1], [k.one, k.one],
                         [[k.one, k.one], [k.one, k.zero]], "II")
    assert "alternating" in validate(S)


def test_validate_type_I_ok():
    S = induced("[1, 1]", F2T)
    assert S.type_tag == "I" and validate(S) is None


def test_validate_type_III_violation():
    k = Q2.residue_field
    S = ShiftedQuadSpace(k, Q2.v2, 1, [0], [k.zero], [[k.one]], "III")
    assert validate(S) is not None


def test_validate_degenerate():
    k = F2T.residue_field
    S = ShiftedQuadSpace(k, F2T.v2, 1, [0, -1], [k.one, k.one],
                         [[k.zero, k.zero], [k.zero, k.zero]], "II")
    assert "degenerate" in validate(S)


# -- cosets and orbits ------------------------------------------------------------


def test_coset_decomposition():
    k = F2T.residue_field
    S = ShiftedQuadSpace(k, F2T.v2, 1, [0, -1], [k.one, k.one],
                         [[k.zero, k.one], [k.one, k.zero]], "II")
    assert coset_decomposition(S) == {Fraction(0): [0, 1]}
    S2 = ShiftedQuadSpace(k, F2T.v2, HALF, [0, HALF], [k.one, k.zero],
                          [[k.zero, k.one], [k.one, k.zero]], "II")
    assert coset_decomposition(S2) == {Fraction(0): [0], HALF: [1]}


def test_orbit_partition():
    assert orbit_partition(1).principal == ((Fraction(0),), (HALF,))
    assert orbit_partition(HALF).principal == ((Fraction(0), HALF),)
    assert orbit_partition(0).principal == ((Fraction(0),), (HALF,))


def test_nondegenerate_coset_dims_match():
    rng = random.Random(0)
    k = F2T.residue_field
    for _ in range(40):
        S = induced(rng.choice(["[1, t^-1]", "[t, t^-1]", "[1, t^-2]",
                                "sum([1,t^-1],[1,t^-1])"]), F2T)
        cosets = coset_decomposition(S)
        for c, idx in cosets.items():
            partner = (-c - S.eps) % 1
            assert len(cosets.get(partner, [])) == len(idx)


# -- principal/metabolic split -------------------------------------------------------


def test_split_principal_metabolic_all_principal():
    S = induced("[1, t^-1]", F2T)
    parts, psi, _ = split_principal_metabolic(S)
    assert psi.n == 0
    assert sum(p.n for p in parts.values()) == 2


def test_split_offgrid_plane_is_metabolic():
    k = F2T.residue_field
    third = Fraction(1, 3)
    S = ShiftedQuadSpace(k, F2T.v2, 1, [third, -third - 1],
                         [k.zero, k.zero],
                         [[k.zero, k.one], [k.one, k.zero]], "II")
    assert validate(S) is None
    parts, psi, _ = split_principal_metabolic(S)
    assert all(p.n == 0 for p in parts.values())
    assert psi.n == 2
    report = is_metabolic(psi)
    assert report.metabolic and len(report.planes) == 1


def test_metabolic_planes_check_the_degree_grid(monkeypatch):
    # a plane vector with a coordinate outside its degree class leaves
    # metabolic_planes as GridViolation from GradedVector, under -O too
    k = F2T.residue_field
    third = Fraction(1, 3)
    S = ShiftedQuadSpace(k, F2T.v2, 1, [third, -third - 1],
                         [k.zero, k.zero],
                         [[k.zero, k.one], [k.one, k.zero]], "II")
    real = residue_witt._split_plane

    def off_grid(vec, *args, **kwargs):
        (x, yi, *plane), *rest = real(vec, *args, **kwargs)
        return (vec.axpy(x, k.one, vec.units(S.n)[yi]), yi, *plane), *rest

    assert len(graded.metabolic_planes(S)) == 1
    monkeypatch.setattr(residue_witt, "_split_plane", off_grid)
    # the first call left the planes of S in the memo: a hit runs no round
    graded.planes_memo.cache_clear()
    with pytest.raises(GridViolation, match="off the degree grid"):
        graded.metabolic_planes(S)
    graded.planes_memo.cache_clear()  # the off-grid planes go too


def test_a_row_pairing_only_with_itself_is_degenerate():
    # type III over GF(2) with q values off the diagonal of b: row 0 is
    # isotropic, but b pairs it only with itself, so its plane split has no
    # second row of the relation to drop.  DegenerateForm, not a bare
    # ValueError from max(); and again on the next call, which the memo of
    # the rounds does not answer, as it keeps no error
    k = Q2.residue_field
    S = ShiftedQuadSpace(k, Q2.v2, Q2.v2, [0, 0], [k.zero, k.one],
                         [[k.one, k.zero], [k.zero, k.one]], "III")
    assert validate(S) is not None
    for _ in range(2):
        with pytest.raises(DegenerateForm, match="only with its own row"):
            graded.metabolic_planes(S)


@pytest.mark.parametrize("field", [F2T, F4T, F2XT, Q2], ids=str)
def test_plane_vectors_carry_their_support(field):
    # the support of a plane vector, read off the packed slots over
    # GF(2^m) and off the coordinates over GF(2^m)(x), is the index set of
    # its nonzero coordinates; a vector built without one reads it so
    rng = random.Random(f"support {field}")
    u = "2" if field.char == 0 else "t"
    units = {F2T: ("1",), F4T: ("1", "2", "3"), F2XT: ("1", "x", "(1+x)"),
             Q2: ("1", "3", "5")}[field]
    seen = 0
    for _ in range(60):
        parts = [f"[{rng.choice(units)}*{u}^{rng.randrange(-4, 2)}, "
                 f"{u}^{rng.randrange(-5, 2)}]"
                 for _ in range(rng.randrange(1, 4))]
        q = parse_form(f"sum({', '.join(parts)})", field)
        try:
            cert = norms.initial_norm(q)
            while cert.eps > 0:
                S = norms.induced_space(q, cert)
                for plane in graded.metabolic_planes(S) or ():
                    for v in plane:
                        nonzero = tuple(i for i, c in enumerate(v.coords)
                                        if not c.is_zero())
                        assert v.support == nonzero
                        fresh = graded.GradedVector(S, v.degree, v.coords)
                        assert fresh.support == nonzero and fresh == v
                        seen += 1
                step = norms.depth_reduce(q, cert)
                if isinstance(step, norms.NotReducible):
                    break
                cert = step
        except WittlabError:
            continue
    assert seen >= 10


def test_split_reassembles():
    S = induced("sum([1,1], [t, t^-1])", F2T)
    parts, psi, maps = split_principal_metabolic(S)
    seen = sorted(i for idx in maps.values() for i in idx) + \
        [i for i in range(S.n) if all(i not in idx for idx in maps.values())]
    assert sorted(seen) == list(range(S.n))


# -- descents ----------------------------------------------------------------------


def test_descend_case1_tame_known_values():
    # [1,1] perp [t,t^-1] at depth 0 descends to ([1,1], [1,1])
    q, cert, S = induced_at_initial("sum([1,1], [t, t^-1])", F2T)
    assert cert.eps == 0
    out = descend_case1(S)
    k = F2T.residue_field
    for c, form in out.items():
        assert form.n == 2
        assert form.U[0][0] == k.one and form.U[1][1] == k.one
        assert form.U[0][1] == k.one


def test_descend_case1_type_II_known_values():
    S = induced("[1, x*t^-2]", F2XT)
    out = descend_case1(S)
    k = F2XT.residue_field
    zero_orbit = out[Fraction(0)]
    assert isinstance(zero_orbit, SymplecticQuadSpace)
    assert sq_witt_class(zero_orbit).coordinate() == k.one  # 1 wedge x
    assert out[HALF].dim() == 0


def test_descend_case1_type_III_q2():
    S = induced("<1>", Q2)
    assert S.type_tag == "III"
    out = descend_case1(S)
    assert len(out[Fraction(0)]) == 1
    assert len(out[HALF]) == 0
    S2 = induced("<2>", Q2)
    out2 = descend_case1(S2)
    assert len(out2[Fraction(0)]) == 0
    assert len(out2[HALF]) == 1


def test_descend_case2_examples():
    k = F2T.residue_field
    S = induced("[1, t^-1]", F2T)
    sep = descend_case2(S)
    assert sep.pairs == ((k.one, k.one),)
    S2 = induced("[t, t^-2]", F2T)
    sep2 = descend_case2(S2)
    assert sep2.pairs == ((k.one, k.one),)


def test_descend_case2_metabolic_plane():
    k = F2T.residue_field
    # type-II plane at eps=1/2 with q(e)=0: class 0
    S = ShiftedQuadSpace(k, F2T.v2, HALF, [0, -HALF], [k.zero, k.one],
                         [[k.zero, k.one], [k.one, k.zero]], "II")
    sep = descend_case2(S)
    assert ssq_witt_class(sep).is_zero()


def test_descend_wrong_case():
    S = induced("[1, t^-1]", F2T)  # eps = 1/2
    with pytest.raises(WrongCase):
        descend_case1(S)
    S2 = induced("[1, x*t^-2]", F2XT)  # eps = 1
    with pytest.raises(WrongCase):
        descend_case2(S2)


def test_descend_case1_off_grid_pi():
    S = induced("<1>", Q2)
    choice = default_choice(S)
    one = S.k.one
    off = UniformizingChoice(choice.rho, {**choice.pi,
                                          HALF: HomogeneousScalar(2, one)})
    for fn in (descend_case1, orbit_invariants):
        with pytest.raises(WrongCase, match="off the orbit grid"):
            fn(S, off)


def test_descend_case2_off_grid_pi():
    S = induced("[1, t^-1]", F2T)
    choice = default_choice(S)
    off = UniformizingChoice(choice.rho,
                             {Fraction(0): HomogeneousScalar(1, S.k.one)})
    with pytest.raises(WrongCase, match="of coset 1/2"):
        descend_case2(S, off)


def test_homogeneous_scalar_rejects_a_fractional_degree():
    with pytest.raises(GridViolation, match="integer degrees"):
        HomogeneousScalar(HALF, F2T.residue_field.one)


def test_homogeneous_scalar_rejects_a_zero_coefficient():
    with pytest.raises(NotApplicable, match="nonzero coefficient"):
        HomogeneousScalar(Fraction(1), F2T.residue_field.zero)


def test_descent_additive():
    q1 = parse_form("[1, t^-1]", F2T)
    q2 = parse_form("[t, t^-2]", F2T)
    qs = q1.ortho_sum(q2)
    eps1, c1 = norms.wildness_index(q1)
    eps2, c2 = norms.wildness_index(q2)
    assert eps1 == eps2 == HALF
    summed = norms.norm_sum(c1.norm, c2.norm)
    cert = norms.require_certificate(qs, summed, HALF)
    Ss = norms.induced_space(qs, cert)
    combined = descend_case2(Ss)
    left = descend_case2(norms.induced_space(q1, c1))
    right = descend_case2(norms.induced_space(q2, c2))
    assert ssq_witt_class(combined) == ssq_witt_class(left) + ssq_witt_class(right)


# -- metabolicity -----------------------------------------------------------------


def test_is_metabolic_q2_example():
    S = induced_at_initial("<1, 1>", Q2)[2]
    report = is_metabolic(S)
    assert report.metabolic
    (x, y) = report.planes[0]
    # witness is the diagonal vector (1,1)
    assert [c.bits for c in x.coords] == [1, 1]


def test_is_metabolic_wild_example():
    S = induced("[1, x*t^-2]", F2XT)
    report = is_metabolic(S)
    assert not report.metabolic
    assert any(not inv.is_zero() for inv in report.evidence.values())


def test_s_perp_minus_s_metabolic():
    rng = random.Random(1)
    for lit in ("[1, t^-1]", "[1+t, t^-1+t]", "[1, t^-2]"):
        q = parse_form(lit, F2T)
        d = q.ortho_sum(-q)
        eps, cert = norms.wildness_index(d)
        assert eps == 0


def test_is_metabolic_choice_independent():
    rng = random.Random(2)
    S = induced("[1, x*t^-2]", F2XT)
    k = F2XT.residue_field
    base = default_choice(S)

    def rnd():
        while True:
            c = k.random(rng, 1)
            if not c.is_zero():
                return c

    for _ in range(5):
        pi = {key: HomogeneousScalar(h.degree + 2 * rng.randrange(-1, 2), rnd())
              for key, h in base.pi.items()}
        ch = UniformizingChoice(HomogeneousScalar(base.rho.degree, rnd()), pi)
        assert not is_metabolic(S, ch).metabolic


def test_undecidable_type_I_imperfect():
    k = F2XT.residue_field
    x = k.x
    # anisotropic-looking tame residue data over GF(2)(x): the class form
    # [x, x] has trace-undecided Artin-Schreier membership
    S = ShiftedQuadSpace(k, F2XT.v2, 0, [0, 0], [x, x],
                         [[k.zero, k.one], [k.one, k.zero]], "I")
    with pytest.raises(Undecidable):
        is_metabolic(S)


def test_metabolic_planes_are_orthogonal_lagrangian_data():
    q, cert, S = induced_at_initial("sum([1, t^-2], [1, t^-2])", F2T)
    report = is_metabolic(S)
    assert report.metabolic
    for (x, y) in report.planes:
        assert qval(S, x).is_zero()
        assert bval(S, x, x).is_zero()
        assert bval(S, x, y) == F2T.residue_field.one
    for i, (x1, y1) in enumerate(report.planes):
        for (x2, y2) in report.planes[i + 1:]:
            assert bval(S, x1, x2).is_zero()
            assert bval(S, x1, y2).is_zero()
            assert bval(S, y1, x2).is_zero()
            assert bval(S, y1, y2).is_zero()
