"""The linear-algebra steps as they were written before they got one home
in `linalg`, kept as test oracles.

* `select_independent` is the per-degree-class greedy selection that
  `graded.metabolic_planes` ran; `complete_by_rref` is the basis
  completion that the plane split of `residue_witt` ran before it became
  the round of `graded.metabolic_planes`, and that `_separated_split`
  (in `residue_brute_force`) runs, a full `rref_exact` per candidate.
  Both are compared with `linalg.independent_rows`.
* `metabolic_planes` is the parent routine: it projects all m vectors,
  forms the whole m x m Gram update, re-evaluates q on every projected
  vector and then keeps the m - 2 rows a greedy echelon pass selects.
  It is compared with `graded.metabolic_planes`, which drops the two
  rows its isotropic relation names, updates the Gram rows and q values
  of the kept rows in place and packs vectors over GF(2^m) into ints,
  on the induced spaces met along the wildness loop over F2((t)),
  F4((t)), F2(x)((t)) and Q_2, and on random spaces over every residue
  field of `RESIDUE`: GF(8) packs at slot width 2m - 1 = 5 and GF(2^9)
  lies above the m <= 8 multiplication and inverse tables.  Its type-I
  relations come from the hand-written `kquad_isotropic_vector` of
  `test_residue_oracles`, not from the library's plane splitter.
* `pick_pivot`, `pick_line` and `pick_pair` are the pick loops of
  `linalg` and `quadform.split_gram`, compared with
  `linalg.min_valuation` on truncated entries with ties.
* `degenerate_by_inverse` is condition (c) of `norms.check_compatibility`
  as it was decided before, by inverting the leading-coefficient matrix;
  it is compared with the rank test on `independent_rows` that replaced it.
* `depth_reduce` is the reduction step that lifts every plane vector to
  ambient coordinates and re-forms the Gram with `quadform.gram_of` and
  the q values with `QuadraticForm.evaluate`.  It is compared with
  `norms.depth_reduce`, which on exact Gram data forms them over the
  certificate's basis instead, along the wildness loop over F2((t)),
  F4((t)), F2(x)((t)) and Q_2, values and precisions both.
* `gram_of_parent` and `evaluate_parent` are the dense loops of
  `quadform.gram_of` and `QuadraticForm.evaluate`: every sum seeded with
  zero, both triangles formed, B col on every row.  They are compared
  with the sparse kernel on plain, scrambled and truncated data over the
  valued and the residue fields.  `initial_norm_parent` certifies the
  initial norm with the Gram and q values re-formed on the columns of M;
  it is compared with `norms.initial_norm`, which reads them off the
  split.  A last test checks that reduced norms lift their basis only
  when it is read.
* `gram_of_dense`, `compatibility_dense` and `split_gram_dense` are the
  certificate kernels as they ran before they touched only entries that
  are not exact zeros: `gram_of` on coordinate columns, scanning the
  nonzero set of every row of B it reaches; (a) and the leading
  coefficients of `check_compatibility` on every upper-triangle entry;
  the `split_gram` update of every kept entry, a line pivot divided into
  each row by `/`.  They are compared with the sparse kernels over
  F2((t)), F4((t)), F2(x)((t)) (also under a degree cap of 6) and Q_2,
  on block-diagonal and scrambled Grams, exact and truncated, truncated
  zeros included: every entry's value and precision, the first violation
  and its detail, and the class and message of a raised error.
* `gram_schoolbook` is H^T (B H) formed densely over every term.  It is
  compared with `gram_of` on B given as a certificate's sparse rows and
  as a dense matrix, on exact and truncated data over F2((t)), F4((t)),
  F2(x)((t)) and Q_2, with twinned rows of B whose images and pairings
  cancel to exact zeros; and with the rows every certificate of a drawn
  descent keeps.  Over F2(x)((t)) with a degree cap of 6 each step of a
  descent is compared with the re-forming route, errors included.
"""

import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab import graded, linalg, norms
from wittlab.errors import (DegenerateForm, DegreeCapExceeded,
                            PrecisionExhausted, SingularForm, Undecidable,
                            WittlabError)
from wittlab.fields import GF2m, RatFuncField, field_shorthand
from wittlab.fields.common import INF, grid, half
from wittlab.graded import GradedVector, coset
from wittlab.literals import parse_element, parse_form
from wittlab.quadform import (QuadraticForm, gram_of, split_gram,
                              symplectic_blocks)

from form_helpers import (first_kernel_vector, lead_of, qval, random_residue,
                          unit_vector)
from test_residue_oracles import KQuadForm, kquad_isotropic_vector

RESIDUE = {"GF(2)": GF2m(1), "GF(4)": GF2m(2), "GF(2)(x)": RatFuncField(1),
           "GF(8)": GF2m(3), "GF(2^9)": GF2m(9)}
VALUED = ("f2-laurent", "f2m-laurent:m=2", "f2x-laurent", "q2")
HALF = Fraction(1, 2)


# -- the oracles ------------------------------------------------------------------


def select_independent(cands, k, want):
    """Greedy graded-independent subset (indices): per degree class the
    coordinate rows must grow the k-rank; reduction is incremental."""
    chosen = []
    reduced_by_class: dict = {}
    for ci, v in enumerate(cands):
        if len(chosen) == want:
            break
        if v.is_zero():
            continue
        c = coset(v.degree)
        reduced = reduced_by_class.setdefault(c, [])
        row = list(v.coords)
        for (lead, base) in reduced:
            if not row[lead].is_zero():
                f = row[lead] * base[lead].inv()
                row = [row[t] + f * base[t] for t in range(len(row))]
        lead = next((t for t, val in enumerate(row) if not val.is_zero()), None)
        if lead is None:
            continue
        reduced.append((lead, row))
        chosen.append(ci)
    assert len(chosen) == want, "projection lost rank"
    return chosen


def complete_by_rref(rows, want):
    """Take the rows in order while a full row reduction of the kept rows
    plus the candidate shows full rank, until want are kept."""
    basis, chosen = [], []
    for idx, row in enumerate(rows):
        cand = basis + [list(row)]
        if len(linalg.rref_exact([list(v) for v in cand])[1]) == len(cand):
            basis.append(list(row))
            chosen.append(idx)
        if len(chosen) == want:
            break
    return chosen


def _combine(v, scalars, others):
    coords = list(v.coords)
    for s, o in zip(scalars, others):
        if s.is_zero():
            continue
        for i, c in enumerate(o.coords):
            coords[i] = coords[i] + s * c
    return GradedVector(v.space, v.degree, tuple(coords))


def _sum_k(k, items):
    acc = k.zero
    for it in items:
        if not it.is_zero():
            acc = acc + it
    return acc


def _find_isotropic_rel(S, vecs, qs, G):
    k = S.k
    classes: dict = {}
    for r, v in enumerate(vecs):
        classes.setdefault(coset(v.degree), []).append(r)
    undecided = False
    for c in sorted(classes):
        idx = classes[c]
        for r in idx:
            if qs[r].is_zero():
                out = [k.zero] * len(vecs)
                out[r] = k.one
                return out
        if S.type_tag in ("II", "III"):
            if k.is_perfect:
                rows = [[qs[r].sqrt() for r in idx]]
            else:
                splits = [k.frobenius_coordinates(qs[r]) for r in idx]
                rows = [[s[0] for s in splits], [s[1] for s in splits]]
            kernel = first_kernel_vector(rows, k.zero, k.one)
            if kernel is not None:
                out = [k.zero] * len(vecs)
                for r, a in zip(idx, kernel):
                    out[r] = a
                return out
        else:
            n = len(idx)
            rows = [[qs[idx[i]] if i == j else
                     (G[idx[i]][idx[j]] if j > i else k.zero)
                     for j in range(n)] for i in range(n)]
            try:
                sol = kquad_isotropic_vector(KQuadForm(k, rows))
            except DegenerateForm:
                sol = None
                undecided = True
            if sol is not None:
                out = [k.zero] * len(vecs)
                for r, a in zip(idx, sol):
                    out[r] = a
                return out
            if not k.is_perfect:
                undecided = True
    if undecided:
        raise Undecidable(
            "isotropy of a depth-0 space over an imperfect residue field")
    return None


def metabolic_planes(S, selections):
    """The parent routine; each selection step also appends the pair
    (select_independent, linalg.independent_rows) to `selections`."""
    k = S.k
    vecs = [unit_vector(S, i) for i in range(S.n)]
    G = [list(row) for row in S.bmat]
    planes = []
    while vecs:
        m = len(vecs)
        qs = [qval(S, w) for w in vecs]
        sol = _find_isotropic_rel(S, vecs, qs, G)
        if sol is None:
            return None
        base = next(r for r in range(m) if not sol[r].is_zero())
        x = _combine(GradedVector(S, vecs[base].degree,
                                  tuple(sol[base] * c for c in vecs[base].coords)),
                     [sol[r] for r in range(m) if r != base],
                     [vecs[r] for r in range(m) if r != base])
        bx = [_sum_k(k, (sol[r] * G[r][c] for r in range(m))) for c in range(m)]
        yi = next((c for c in range(m) if not bx[c].is_zero()), None)
        assert yi is not None, "restriction of b must stay nondegenerate"
        sc = bx[yi].inv()
        y = GradedVector(S, vecs[yi].degree, tuple(sc * c for c in vecs[yi].coords))
        planes.append((x, y))
        gyy = G[yi][yi] * sc * sc
        by = [G[c][yi] * sc for c in range(m)]
        bxx = _sum_k(k, (sol[r] * bx[r] for r in range(m)))
        den = (bxx * gyy + k.one).inv()
        lams = [(bx[c] * gyy + by[c]) * den for c in range(m)]
        mus = [(by[c] * bxx + bx[c]) * den for c in range(m)]
        projected = [_combine(vecs[c], [lams[c], mus[c]], [x, y]) for c in range(m)]
        G2 = [[G[r][c] + lams[c] * bx[r] + mus[c] * by[r] for c in range(m)]
              for r in range(m)]
        keep = select_independent(projected, k, m - 2)
        selections.append((keep, linalg.independent_rows(
            [w.coords for w in projected], m - 2)))
        vecs = [projected[r] for r in keep]
        G = [[G2[r][c] for c in keep] for r in keep]
    return planes


def pick_pivot(R, rows_left, cols_left):
    best = None
    for i in rows_left:
        for j in cols_left:
            x = R[i][j]
            if x.is_certified_nonzero():
                v = x.valuation()
                if best is None or v < best[0] or (v == best[0] and (i, j) < best[1]):
                    best = (v, (i, j))
    return best[1] if best else None


def pick_line(G):
    pick = None
    for idx in range(len(G)):
        d = G[idx][idx]
        if d.is_certified_nonzero():
            v = d.valuation()
            if pick is None or v < pick[0] or (v == pick[0] and idx < pick[1]):
                pick = (v, idx)
    return None if pick is None else pick[1]


def pick_pair(G):
    pair = None
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            g = G[i][j]
            if g.is_certified_nonzero():
                v = g.valuation()
                if pair is None or v < pair[0] or (v == pair[0] and (i, j) < pair[1]):
                    pair = (v, (i, j))
    return None if pair is None else pair[1]


def degenerate_by_inverse(lead, k):
    try:
        if lead:
            linalg.invert_exact(lead, k.zero, k.one)
    except WittlabError:
        return True
    return False


def depth_reduce(q, cert):
    """The parent reduction step: ambient columns, gram_of, evaluate."""
    gamma = cert.eps
    S = norms.induced_space(q, cert)
    planes = graded.metabolic_planes(S)
    if planes is None:
        return norms.NotReducible(gamma, graded.orbit_invariants(S))
    F = q.field
    cols = [cert.norm.column(i) for i in range(cert.norm.n)]

    def lift_vec(gv):
        amb = [F.zero] * q.n
        for i, c in enumerate(gv.coords):
            if c.is_zero():
                continue
            h = F.lift_homog(c, gv.degree - S.degrees[i])
            for r in range(q.n):
                amb[r] = amb[r] + h * cols[i][r]
        return amb

    es, fs, e_vals, f_vals = [], [], [], []
    for (x, y) in planes:
        es.append(lift_vec(x))
        e_vals.append(x.degree)
        fs.append(lift_vec(y))
        f_vals.append(y.degree)
    # the slack of the e block, formed on its own first, so that it raises
    # before an f column can trip the degree cap
    B = q.polar_matrix()
    Ge = linalg.dense(gram_of(B, es), F.zero)
    qe = [q.evaluate(e) for e in es]
    terms = [gamma]
    for l in range(len(es)):
        qv = qe[l].low_bound()
        if qv != INF:
            terms.append(half(qv) - e_vals[l])
        for m in range(len(es)):
            if m == l:
                continue
            bb = Ge[l][m].low_bound()
            if bb != INF:
                terms.append(bb - e_vals[l] - e_vals[m] - gamma)
    eps_prime = min(terms)
    if eps_prime <= 0:
        raise PrecisionExhausted(
            "metabolic witness slack not certified positive")
    qe += [q.evaluate(f) for f in fs]
    basis_cols = es + fs
    G = gram_of(B, basis_cols)
    values = [v + eps_prime for v in e_vals] + f_vals
    new_norm = norms.VNorm(F, linalg.transpose(basis_cols), values)
    res = norms.check_compatibility(q, new_norm, gamma - eps_prime,
                                    _gram=(qe, G))
    if isinstance(res, norms.CompatibilityViolation):
        raise PrecisionExhausted(
            f"reduced norm failed to re-certify: {res!r}")
    return res


def gram_of_read_dense(B, cols, zero):
    """gram_of with its rows read back as a dense matrix, for the oracles
    that form dense ones."""
    return linalg.dense(gram_of(B, cols), zero)


def gram_of_parent(B, cols, zero):
    """The parent gram_of: B col on every row, both triangles, every sum
    seeded with zero and every zero test repeated per term."""
    n = len(B)
    m = len(cols)
    Bc = [[zero] * m for _ in range(n)]
    G = [[zero] * m for _ in range(m)]

    for i in range(n):
        Bi = B[i]
        for c in range(m):
            acc = zero
            for j in range(n):
                if Bi[j].is_exactly_zero() or cols[c][j].is_exactly_zero():
                    continue
                acc = acc + Bi[j] * cols[c][j]
            Bc[i][c] = acc
    for r in range(m):
        for c in range(m):
            acc = zero
            for i in range(n):
                if cols[r][i].is_exactly_zero() or Bc[i][c].is_exactly_zero():
                    continue
                acc = acc + cols[r][i] * Bc[i][c]
            G[r][c] = acc
    return G


def evaluate_parent(q, x):
    """The parent QuadraticForm.evaluate: the sum seeded with zero."""
    assert len(x) == q.n
    acc = q.field.zero
    for i in range(q.n):
        if x[i].is_exactly_zero():
            continue
        for j in range(i, q.n):
            if q.U[i][j].is_exactly_zero() or x[j].is_exactly_zero():
                continue
            acc = acc + q.U[i][j] * x[i] * x[j]
    return acc


def _sparse_rows(M):
    """The sparse rows of a dense matrix, both triangles as they are."""
    return [linalg.sparse(row) for row in M]


def initial_norm_parent(q):
    """The parent initial_norm: the blockwise norm on the split basis M,
    its Gram data re-formed on the columns of M with gram_of_parent and
    evaluate_parent."""
    F = q.field
    blocks, M = symplectic_blocks(q)
    built = [norms.builder_unary(F, b[1]) if b[0] == "line"
             else norms.builder_binary(F, b[1], b[2]) for b in blocks]
    eps = max(b[1] for b in built)
    values = [v for b in built for v in norms._values_at_depth(b, eps)]
    full = norms.VNorm(F, M, values)
    cols = [full.column(i) for i in range(q.n)]
    res = norms.check_compatibility(
        q, full, eps, _gram=(
            [evaluate_parent(q, c) for c in cols],
            _sparse_rows(gram_of_parent(q.polar_matrix(), cols, F.zero))))
    if isinstance(res, norms.CompatibilityViolation):
        raise SingularForm(f"initial norm failed to certify: {res!r}")
    return res


# -- random draws -----------------------------------------------------------------


def _rows(k, rng):
    """Rows with zero rows, repeated rows and sums of earlier rows."""
    n, cols = rng.randrange(1, 7), rng.randrange(1, 6)
    rows = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.15:
            rows.append([k.zero] * cols)
        elif rows and roll < 0.35:
            rows.append(list(rng.choice(rows)))
        elif len(rows) > 1 and roll < 0.5:
            a, b = rng.sample(rows, 2)
            c = random_residue(k, rng)
            rows.append([p + c * q for p, q in zip(a, b)])
        else:
            rows.append([random_residue(k, rng) for _ in range(cols)])
    return rows


def _coeff(F, rng):
    k = F.residue_field
    if F.char == 0:
        return f"{rng.choice((1, 1, 3, 5, 7))}*2^{rng.randrange(-1, 3)}"
    if k.is_perfect:
        unit = str(rng.randrange(1, k.order))
    elif k.degree_cap == 6:
        # units of degree up to 3, so that a few products pass the cap
        unit = rng.choice(("1", "x", "(x^3+x+1)", "(x^2/(x^3+1))"))
    else:
        unit = rng.choice(("1", "x", "(1+x)", "(x/(1+x))"))
    terms = [f"{unit}*t^{e}" for e in rng.sample(range(-3, 3), rng.choice((1, 1, 2)))]
    return "+".join(terms)


def _form(F, rng):
    """A scrambled orthogonal sum of binary (and, over Q_2, diagonal)
    summands."""
    parts = []
    for _ in range(rng.choice((1, 2, 2, 3))):
        if F.char == 0 and rng.random() < 0.4:
            parts.append(f"<{_coeff(F, rng)}, {_coeff(F, rng)}>")
        else:
            parts.append(f"[{_coeff(F, rng)}, {_coeff(F, rng)}]")
    q = parse_form(f"sum({', '.join(parts)})", F)
    n = q.n
    M = linalg.identity(n, F.zero, F.one)
    for _ in range(n):
        i, j = rng.sample(range(n), 2)
        for r in range(n):
            M[r][i] = M[r][i] + M[r][j]
    return q.change_basis(M)


def _induced_spaces(q):
    """The induced space of every certificate of the wildness loop."""
    try:
        cert = norms.initial_norm(q)
        while True:
            yield norms.induced_space(q, cert)
            if cert.eps <= 0:
                return
            step = norms.depth_reduce(q, cert)
            if isinstance(step, norms.NotReducible):
                return
            cert = step
    except WittlabError:
        return


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (AssertionError, WittlabError) as e:
        return type(e), str(e)


def _planes(planes):
    if not isinstance(planes, list):
        return planes
    return [tuple((v.degree, v.coords) for v in plane) for plane in planes]


# -- comparisons ------------------------------------------------------------------


@pytest.mark.parametrize("name", RESIDUE)
def test_independent_rows_matches_rref_completion(name):
    k = RESIDUE[name]
    rng = random.Random(f"independent_rows {name}")
    above_rank = 0
    for _ in range(150):
        rows = _rows(k, rng)
        rank = len(linalg.rref_exact(rows)[1])
        for want in range(1, len(rows) + 2):
            above_rank += want > rank
            assert linalg.independent_rows(rows, want) == \
                complete_by_rref(rows, want)
    assert above_rank


def _graded_rows(k, rng):
    """Random homogeneous vectors, some zero and some repeated, over a
    space whose basis degrees fall in both classes of (1/2)Z/Z."""
    degrees = [rng.choice((0, 1, -1, HALF, 3 * HALF))
               for _ in range(rng.randrange(1, 7))]
    S = graded.ShiftedQuadSpace(k, 1, 0, degrees, [], [], "I")
    vecs = []
    for _ in range(rng.randrange(1, 8)):
        if vecs and rng.random() < 0.2:
            v = rng.choice(vecs)
            vecs.append(GradedVector(S, v.degree, v.coords))
            continue
        d = rng.choice((0, HALF))
        vecs.append(GradedVector(S, d, tuple(
            random_residue(k, rng) if (d - g) % 1 == 0 else k.zero
            for g in degrees)))
    return vecs


@pytest.mark.parametrize("name", RESIDUE)
def test_independent_rows_matches_select_independent(name):
    k = RESIDUE[name]
    rng = random.Random(f"select_independent {name}")
    compared = 0
    for _ in range(150):
        vecs = _graded_rows(k, rng)
        rows = [v.coords for v in vecs]
        rank = len(linalg.rref_exact([list(r) for r in rows])[1])
        for want in range(rank + 1):
            assert linalg.independent_rows(rows, want) == \
                select_independent(vecs, k, want)
            compared += 1
    assert compared > 300


@pytest.mark.parametrize("shorthand", VALUED)
def test_metabolic_planes_matches_parent_along_the_wildness_loop(shorthand):
    F = field_shorthand(shorthand, precision=32)
    rng = random.Random(f"metabolic_planes {shorthand}")
    types, selections, spaces = set(), [], 0
    for _ in range(25):
        for S in _induced_spaces(_form(F, rng)):
            spaces += 1
            types.add(S.type_tag)
            want = _outcome(metabolic_planes, S, selections)
            got = _outcome(graded.metabolic_planes, S)
            assert _planes(got) == _planes(want), S
    assert spaces >= 25
    for keep, chosen in selections:
        assert chosen == keep
    assert selections
    expected = {"I", "II", "III"} if shorthand == "q2" else {"I", "II"}
    assert types == expected


def _random_space(k, rng):
    """A random valid space of type I (eps = 0) or II (eps = 1 or 1/2),
    its basis degrees in both classes of (1/2)Z/Z and its Gram dense
    wherever the degree grid allows."""
    eps = rng.choice((0, 1, HALF))
    # class [0] pairs with [-eps] and [1/2] with [-1/2 - eps]: an
    # alternating b needs even classes at integer eps, equal ones else
    a, c = rng.choice(((2, 0), (0, 2), (2, 2), (4, 2), (2, 4)) if eps != HALF
                      else ((1, 1), (2, 2), (3, 3)))
    degrees = [rng.choice((0, 1, -1)) for _ in range(a)] + \
        [rng.choice((HALF, -HALF)) for _ in range(c)]
    rng.shuffle(degrees)
    n = len(degrees)
    bmat = [[k.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (degrees[i] + degrees[j] + eps) % 1 == 0:
                bmat[i][j] = bmat[j][i] = random_residue(k, rng)
    qvals = [random_residue(k, rng) for _ in range(n)]
    S = graded.ShiftedQuadSpace(k, 1, eps, degrees, qvals, bmat,
                                "I" if eps == 0 else "II")
    return S if graded.validate(S) is None else None


@pytest.mark.parametrize("name", RESIDUE)
def test_metabolic_planes_matches_parent_on_random_spaces(name):
    k = RESIDUE[name]
    rng = random.Random(f"metabolic_planes random {name}")
    selections, split = [], 0
    for _ in range(400):
        S = _random_space(k, rng)
        if S is None:
            continue
        want = _outcome(metabolic_planes, S, selections)
        got = _outcome(graded.metabolic_planes, S)
        assert _planes(got) == _planes(want), S
        split += isinstance(want, list) and len(want) > 1
    assert split > 15
    for keep, chosen in selections:
        assert chosen == keep


def _random_type_III_space(k, rng):
    """A random valid type-III space: eps = v(2) = 1, so each class of
    (1/2)Z/Z pairs with itself, q(e_i) = b(e_i, e_i), and b is dense
    wherever the degree grid allows, off the diagonal too."""
    degrees = [rng.choice((0, 1, -1, HALF, -HALF))
               for _ in range(rng.randrange(2, 9))]
    n = len(degrees)
    bmat = [[k.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (degrees[i] + degrees[j]) % 1 == 0:
                bmat[i][j] = bmat[j][i] = random_residue(k, rng)
    S = graded.ShiftedQuadSpace(k, 1, 1, degrees,
                                [bmat[i][i] for i in range(n)], bmat, "III")
    return S if graded.validate(S) is None else None


@pytest.mark.parametrize("name", RESIDUE)
def test_metabolic_planes_matches_parent_on_random_type_III_spaces(name):
    """b(y, y) = q(y) need not vanish here, so the projection's
    b(y, y) b(w_c, x) term and the q update by q(y) both count."""
    k = RESIDUE[name]
    rng = random.Random(f"metabolic_planes type III {name}")
    selections, split = [], 0
    for _ in range(400):
        S = _random_type_III_space(k, rng)
        if S is None:
            continue
        want = _outcome(metabolic_planes, S, selections)
        got = _outcome(graded.metabolic_planes, S)
        assert _planes(got) == _planes(want), S
        split += isinstance(want, list) and len(want) > 1
    assert split > 5
    for keep, chosen in selections:
        assert chosen == keep


def _entries(shorthand):
    F = field_shorthand(shorthand, precision=16)
    if F.char == 0:
        texts = ("0", "1", "3", "2", "6", "4", "1 + O(2^3)", "2 + O(2^4)",
                 "O(2^2)", "O(2^5)", "12", "5 + O(2^2)")
    else:
        texts = ("0", "1", "1+t", "t", "t+t^2", "t^-1", "t^-1+1", "t^2",
                 "1 + O(t^2)", "t + O(t^3)", "O(t^1)", "O(t^-1)", "t^-1 + O(t)")
    return [parse_element(t, F) for t in texts]


@pytest.mark.parametrize("shorthand", ("f2-laurent", "q2"))
def test_min_valuation_matches_the_pick_loops(shorthand):
    pool = _entries(shorthand)
    rng = random.Random(f"min_valuation {shorthand}")
    picked = 0
    for _ in range(400):
        n = rng.randrange(1, 6)
        G = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                G[i][j] = G[j][i] = rng.choice(pool)
        rows = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        cols = sorted(rng.sample(range(n), rng.randrange(1, n + 1)))
        want = pick_pivot(G, rows, cols)
        picked += want is not None
        assert linalg.min_valuation(((i, j), G[i][j])
                                    for i in rows for j in cols) == want
        shuffled = [((i, j), G[i][j]) for i in rows for j in cols]
        rng.shuffle(shuffled)
        assert linalg.min_valuation(shuffled) == want
        assert linalg.min_valuation((r, G[r][r]) for r in range(n)) == pick_line(G)
        assert linalg.min_valuation(((i, j), G[i][j]) for i in range(n)
                                    for j in range(i + 1, n)) == pick_pair(G)
    assert picked > 300


def _square(k, rng):
    """An n x n matrix, symmetric half of the time, singular often: zero
    rows, repeated rows and sums of earlier rows."""
    n = rng.randrange(1, 6)
    rows = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.1:
            rows.append([k.zero] * n)
        elif rows and roll < 0.25:
            rows.append(list(rng.choice(rows)))
        elif len(rows) > 1 and roll < 0.4:
            a, b = rng.sample(rows, 2)
            c = random_residue(k, rng)
            rows.append([p + c * q for p, q in zip(a, b)])
        else:
            rows.append([random_residue(k, rng) for _ in range(n)])
    if rng.random() < 0.5:
        for i in range(n):
            for j in range(i):
                rows[i][j] = rows[j][i]
    return rows


@pytest.mark.parametrize("name", RESIDUE)
def test_rank_test_matches_invert_exact(name):
    k = RESIDUE[name]
    rng = random.Random(f"rank test {name}")
    seen = set()
    for _ in range(300):
        lead = _square(k, rng)
        n = len(lead)
        degenerate = len(linalg.independent_rows(lead, n)) < n
        assert degenerate == degenerate_by_inverse(lead, k)
        seen.add(degenerate)
    assert seen == {True, False}


def _loop_form(F, rng):
    """A sum of binary (and, over Q_2, diagonal) summands: scrambled half
    of the time, else as written, with O() terms in a third of the
    coefficients half of that time."""
    if rng.random() < 0.5:
        return _form(F, rng)
    truncate = rng.random() < 0.5
    u = "2" if F.char == 0 else "t"

    def coeff():
        text = _coeff(F, rng)
        if truncate and rng.random() < 1 / 3:
            return f"{text} + O({u}^{rng.randrange(2, 8)})"
        return text

    parts = []
    for _ in range(rng.choice((1, 2, 2, 3))):
        a, b = coeff(), coeff()
        parts.append(f"<{a}, {b}>" if F.char == 0 and rng.random() < 0.4
                     else f"[{a}, {b}]")
    return parse_form(f"sum({', '.join(parts)})", F)


def _certificate_bytes(res):
    """Everything a reduction step returns, with each element's value and
    precision spelled out, so that an abs_prec mismatch fails the test."""
    if not isinstance(res, norms.DepthCertificate):
        return res if isinstance(res, tuple) else ("not reducible", res.depth)

    def spell(x):
        return (x.field.format_elem(x), x.abs_prec)

    return (res.eps, res.norm.values,
            [[spell(x) for x in row] for row in res.norm.basis],
            [spell(x) for x in res.qe],
            [[spell(x) for x in row]
             for row in linalg.dense(res.be, res.form.field.zero)],
            lead_of(res))


def _compare_reductions(q):
    """Walk the wildness loop of q, comparing each step with the parent
    step; returns how many steps read exact Gram data."""
    try:
        cert = norms.initial_norm(q)
    except WittlabError:
        return 0
    exact = 0
    while cert.eps > 0:
        exact += norms._is_exact(cert)
        want = _outcome(depth_reduce, q, cert)
        got = _outcome(norms.depth_reduce, q, cert)
        assert _certificate_bytes(got) == _certificate_bytes(want), q
        if not isinstance(got, norms.DepthCertificate):
            break
        cert = got
    return exact


@pytest.mark.parametrize("shorthand", VALUED)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_congruence_matches_parent_depth_reduce(shorthand, seed):
    F = field_shorthand(shorthand, precision=32)
    _compare_reductions(_loop_form(F, random.Random(seed)))


@pytest.mark.parametrize("shorthand", VALUED)
def test_congruence_and_fallback_both_run_along_the_loop(shorthand, monkeypatch):
    F = field_shorthand(shorthand, precision=32)
    rng = random.Random(f"congruence {shorthand}")
    taken = {"congruence": 0, "reform": 0}
    for path, name in (("congruence", "_gram_by_congruence"),
                       ("reform", "_gram_by_reforming")):
        def spy(*args, _real=getattr(norms, name), _path=path):
            taken[_path] += 1
            return _real(*args)
        monkeypatch.setattr(norms, name, spy)
    exact = sum(_compare_reductions(_loop_form(F, rng)) for _ in range(120))
    # a step that finds no metabolic plane forms no Gram at all
    assert exact >= taken["congruence"] >= 10
    assert taken["reform"] >= 1


def _reducible_certificate(shorthand):
    """The first exact certificate of positive depth that reduces."""
    F = field_shorthand(shorthand, precision=32)
    rng = random.Random(f"reducible {shorthand}")
    while True:
        q = _form(F, rng)
        try:
            cert = norms.initial_norm(q)
        except WittlabError:
            continue
        if cert.eps > 0 and norms._is_exact(cert) and \
                isinstance(_outcome(depth_reduce, q, cert), norms.DepthCertificate):
            return q, cert


def _truncated(x):
    """x with the same digits, known only modulo a high power of t or 2."""
    lb = x.low_bound()
    return x.truncated(40 if lb == INF else lb + 40)


@pytest.mark.parametrize("entry", ("qe", "be"))
@pytest.mark.parametrize("shorthand", VALUED)
def test_one_truncated_entry_takes_the_gram_of_path(shorthand, entry,
                                                    monkeypatch):
    q, cert = _reducible_certificate(shorthand)
    truncated = copy.copy(cert)
    if entry == "qe":
        truncated.qe = [_truncated(cert.qe[0])] + cert.qe[1:]
    else:
        be = linalg.dense(cert.be, cert.form.field.zero)
        be[0][1] = be[1][0] = _truncated(be[0][1])
        truncated.be = _sparse_rows(be)
    assert not norms._is_exact(truncated)

    def refuse(*args):
        raise AssertionError("congruence on a truncated certificate")

    monkeypatch.setattr(norms, "_gram_by_congruence", refuse)
    assert _certificate_bytes(norms.depth_reduce(q, truncated)) == \
        _certificate_bytes(depth_reduce(q, truncated))


@pytest.mark.parametrize("shorthand", VALUED)
def test_degree_cap_in_the_congruence_falls_back_to_gram_of(shorthand,
                                                            monkeypatch):
    q, cert = _reducible_certificate(shorthand)
    real = norms._gram_by_congruence
    reformed = []

    def capped(cert, H, head, slack):
        # the e block and its slack pass, then an f entry trips the cap
        real(cert, H[:head], head, slack)
        raise DegreeCapExceeded("forced")

    def spy(*args, _real=norms._gram_by_reforming):
        reformed.append(True)
        return _real(*args)

    monkeypatch.setattr(norms, "_gram_by_congruence", capped)
    monkeypatch.setattr(norms, "_gram_by_reforming", spy)
    assert _certificate_bytes(norms.depth_reduce(q, cert)) == \
        _certificate_bytes(depth_reduce(q, cert))
    assert reformed == [True]


# -- the Gram kernel against its parent -------------------------------------------


GRAM_FIELDS = {**{name: field_shorthand(name, precision=16)
                  for name in VALUED}, **RESIDUE}


def _spelled(res):
    """A matrix, row or element with each entry's value and precision
    spelled out, or the outcome of a raised error as it is."""
    if isinstance(res, tuple):
        return res
    if isinstance(res, list):
        return [_spelled(x) for x in res]
    return (res.field.format_elem(res), res.abs_prec)


def _gram_elem(F, rng, truncate):
    """A random element of F: zero often; over a valued field a sum of
    monomials, with an O() term in some entries of truncated data."""
    if F in RESIDUE.values():
        return random_residue(F, rng)
    u = "2" if F.char == 0 else "t"
    if rng.random() < 0.3:
        if truncate and rng.random() < 0.3:
            return parse_element(f"O({u}^{rng.randrange(-1, 6)})", F)
        return F.zero
    text = _coeff(F, rng)
    if truncate and rng.random() < 0.4:
        text = f"{text} + O({u}^{rng.randrange(-1, 8)})"
    return parse_element(text, F)


def _gram_data(F, rng):
    """A symmetric B and columns cols over F: plain data is block-shaped
    and sparse (unit-like columns), scrambled data is dense, truncated
    data is dense with O() terms."""
    kind = rng.choice(("plain", "scrambled", "truncated"))
    n, m = rng.randrange(1, 7), rng.randrange(0, 7)

    def elem(keep=True):
        return _gram_elem(F, rng, kind == "truncated") if keep else F.zero

    plain = kind == "plain"
    B = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = elem(not plain or j == i ^ 1 or
                                     (i == j and rng.random() < 0.3))
    cols = []
    for _ in range(m):
        support = set(rng.sample(range(n), min(n, rng.choice((1, 1, 2)))))
        cols.append([elem(not plain or i in support) for i in range(n)])
    return B, cols


@pytest.mark.parametrize("name", GRAM_FIELDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_gram_of_matches_parent(name, seed):
    F = GRAM_FIELDS[name]
    rng = random.Random(seed)
    B, cols = _gram_data(F, rng)
    assert _spelled(_outcome(gram_of_read_dense, B, cols, F.zero)) == \
        _spelled(_outcome(gram_of_parent, B, cols, F.zero))


@pytest.mark.parametrize("name", GRAM_FIELDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_parent(name, seed):
    F = GRAM_FIELDS[name]
    rng = random.Random(seed)
    B, cols = _gram_data(F, rng)
    q = QuadraticForm(F, B)  # the upper triangle of B as coefficients
    for x in cols:
        assert _spelled(q.evaluate(x)) == _spelled(evaluate_parent(q, x))


@pytest.mark.parametrize("shorthand", VALUED)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_mat_mul_takes_sparse_rows(shorthand, seed):
    """Rows of A given as their sparse (s, a_s) pairs, as the lift of
    norms.depth_reduce passes them, give the product of the same rows
    dense: every entry's value and precision."""
    F = GRAM_FIELDS[shorthand]
    rng = random.Random(seed)
    B, A = _gram_data(F, rng)
    sparse = [[(s, a) for s, a in enumerate(row) if not a.is_exactly_zero()]
              for row in A]
    assert _spelled(_outcome(linalg.mat_mul, sparse, B, F.zero)) == \
        _spelled(_outcome(linalg.mat_mul, A, B, F.zero))


@pytest.mark.parametrize("shorthand", VALUED)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_initial_norm_matches_parent(shorthand, seed):
    F = field_shorthand(shorthand, precision=32)
    q = _loop_form(F, random.Random(seed))
    assert _certificate_bytes(_outcome(norms.initial_norm, q)) == \
        _certificate_bytes(_outcome(initial_norm_parent, q))


@pytest.mark.parametrize("shorthand", VALUED)
def test_initial_norm_takes_both_gram_sources(shorthand, monkeypatch):
    """Exact forms with an exact split read the Gram off the split; the
    rest form it with gram_of (over Q_2 the scrambled forms, whose split
    divides by non-units)."""
    F = field_shorthand(shorthand, precision=32)
    rng = random.Random(f"initial_norm sources {shorthand}")
    calls = []

    def spy(*args, _real=norms.gram_of):
        calls.append(True)
        return _real(*args)

    monkeypatch.setattr(norms, "gram_of", spy)
    taken = {"split": 0, "gram_of": 0}
    for _ in range(80):
        q = _loop_form(F, rng)
        calls.clear()
        got = _outcome(norms.initial_norm, q)
        if isinstance(got, norms.DepthCertificate):
            taken["gram_of" if calls else "split"] += 1
        assert _certificate_bytes(got) == \
            _certificate_bytes(_outcome(initial_norm_parent, q))
    assert taken["split"] >= 5 and taken["gram_of"] >= 5, taken


def _eager_descent(q, cert):
    """The parent descent: every step lifts its basis columns."""
    steps = 0
    while cert.eps > 0:
        step = depth_reduce(q, cert)
        if isinstance(step, norms.NotReducible):
            break
        cert, steps = step, steps + 1
    return cert, steps


@pytest.mark.parametrize("shorthand", VALUED)
def test_reduced_norms_lift_their_basis_when_read(shorthand, monkeypatch):
    F = field_shorthand(shorthand, precision=32)
    rng = random.Random(f"lazy basis {shorthand}")
    lifts = []

    def spy(*args, _real=linalg.mat_mul):
        lifts.append(True)
        return _real(*args)

    monkeypatch.setattr(linalg, "mat_mul", spy)
    for _ in range(300):
        q = _loop_form(F, rng)
        try:
            start = norms.initial_norm(q)
            lifts.clear()
            lazy = norms.descend(start)
        except WittlabError:
            continue
        eager, steps = _eager_descent(q, start)
        if steps >= 2 and not lifts:
            break
    else:
        pytest.fail("no exact descent of two steps")
    shifted = norms.norm_shift(lazy.norm, lazy.eps, lazy.eps + 1)
    summed = norms.norm_sum(lazy.norm, start.norm)
    assert not lifts
    assert _certificate_bytes(lazy) == _certificate_bytes(eager)
    assert len(lifts) == steps  # one lift per step, read down the chain
    assert _spelled([list(r) for r in shifted.basis]) == \
        _spelled([list(r) for r in eager.norm.basis])
    assert shifted.values == tuple(v - HALF for v in eager.norm.values)
    assert _spelled([list(r) for r in summed.basis]) == _spelled(
        linalg.block_diag(eager.norm.basis, start.norm.basis, F.zero))
    assert len(lifts) == steps


# -- the certificate kernels against their dense parents --------------------------


def gram_of_dense(B, cols, zero):
    """The dense gram_of: coordinate columns, the support of each and the
    nonzero set of every row of B that a column reaches, scanned per call."""
    m = len(cols)
    supp = [[i for i, x in enumerate(col) if not x.is_exactly_zero()]
            for col in cols]
    nzB = {i: {j for j, b in enumerate(B[i]) if not b.is_exactly_zero()}
           for i in set().union(*supp)}
    images = [{} for _ in cols]
    G = [[zero] * m for _ in range(m)]
    mirror = all(x.abs_prec is None for row in [*B, *cols] for x in row)

    for r in range(m):
        for c in range(r if mirror else 0, m):
            img, col = images[c], cols[c]
            acc = None
            for i in supp[r]:
                if i not in img:
                    Bi, b = B[i], None
                    for j in supp[c]:
                        if j in nzB[i]:
                            t = Bi[j] * col[j]
                            b = t if b is None else b + t
                    img[i] = None if b is None or b.is_exactly_zero() else b
                if img[i] is not None:
                    t = cols[r][i] * img[i]
                    acc = t if acc is None else acc + t
            if acc is not None:
                G[r][c] = acc
                if mirror:
                    G[c][r] = acc
    return G


def compatibility_dense(q, norm, eps, gram):
    """check_compatibility with (a) and the leading coefficients run on
    every upper-triangle entry of be, exact zeros included; a certificate
    comes with its dense lead matrix beside it, (cert, lead)."""
    eps = grid(eps)
    qe, be = gram
    g = norm.values
    for i in range(norm.n):
        thr = 2 * g[i]
        lb = qe[i].low_bound()
        if lb < thr:
            if qe[i].is_certified_nonzero():
                return norms.CompatibilityViolation(
                    "b", f"v(q(e_{i})) = {lb} < {thr}")
            raise PrecisionExhausted(f"cannot certify v(q(e_{i})) >= {thr}")
    deg = [[gi + gj for gj in g[i:]] for i, gi in enumerate(v + eps for v in g)]
    for i in range(norm.n):
        for j in range(i, norm.n):
            thr = deg[i][j - i]
            lb = be[i][j].low_bound()
            if lb < thr:
                if be[i][j].is_certified_nonzero():
                    return norms.CompatibilityViolation(
                        "a", f"v(b(e_{i},e_{j})) = {lb} < {thr}")
                raise PrecisionExhausted(
                    f"cannot certify v(b(e_{i},e_{j})) >= {thr}")
    lead = [[None] * norm.n for _ in range(norm.n)]
    for i in range(norm.n):
        for j in range(i, norm.n):
            lead[i][j] = lead[j][i] = be[i][j].coeff_at(deg[i][j - i])
    if len(linalg.independent_rows(lead, norm.n)) < norm.n:
        return norms.CompatibilityViolation(
            "c", "induced graded bilinear form is degenerate")
    return norms.DepthCertificate(q, norm, eps, qe, be), lead


def _symmetric(keep, entry):
    m = len(keep)
    G = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(a, m):
            G[a][b] = G[b][a] = entry(keep[a], keep[b])
    return G


def split_gram_dense(G, F):
    """split_gram with every entry of the kept block passed through the
    update, and a line pivot divided into each remaining row by `/`."""
    n = len(G)
    vecs = linalg.identity(n, F.zero, F.one)
    G = [list(row) for row in G]
    blocks = []
    while vecs:
        m = len(vecs)
        idx = linalg.min_valuation((r, G[r][r]) for r in range(m))
        if idx is not None:
            e = vecs[idx]
            de = G[idx][idx]
            blocks.append(("line", e, de))
            keep = [r for r in range(m) if r != idx]
            coef = {r: G[r][idx] / de for r in keep}
            vecs = [linalg.combine(vecs[r], [(-coef[r], e)]) for r in keep]
            live = {r for r in keep if not coef[r].is_exactly_zero()}

            def line_update(r, c):
                acc = G[r][c]
                if r in live:
                    acc = acc - coef[r] * G[idx][c]
                if c in live:
                    acc = acc - coef[c] * G[r][idx]
                    if r in live:
                        acc = acc + coef[r] * coef[c] * de
                return acc

            G = _symmetric(keep, line_update)
            continue
        if not all(G[idx][idx].is_exactly_zero() for idx in range(m)):
            break
        pair = linalg.min_valuation(((i, j), G[i][j])
                                    for i in range(m) for j in range(i + 1, m))
        if pair is None:
            break
        i, j = pair
        g = G[i][j]
        ginv = g.inv()
        e = vecs[i]
        f = [c * ginv for c in vecs[j]]
        blocks.append(("pair", e, f))
        keep = [r for r in range(m) if r not in (i, j)]
        lam = {r: G[r][j] * ginv for r in keep}
        mu = {r: G[r][i] for r in keep}
        vecs = [linalg.combine(vecs[r], [(-lam[r], e), (-mu[r], f)])
                for r in keep]
        live_lam = {r for r in keep if not lam[r].is_exactly_zero()}
        live_mu = {r for r in keep if not mu[r].is_exactly_zero()}

        def pair_update(r, c):
            acc = G[r][c]
            if c in live_lam:
                acc = acc - lam[c] * G[r][i]
            if c in live_mu:
                acc = acc - mu[c] * (G[r][j] * ginv)
            return acc

        G = _symmetric(keep, pair_update)
        if F.char == 2:
            for r in range(len(G)):
                G[r][r] = F.zero
    return blocks, G


KERNEL_FIELDS = {**{name: field_shorthand(name, precision=16)
                    for name in VALUED},
                 "f2x-laurent cap 6": field_shorthand(
                     "f2x-laurent", precision=16, degree_cap=6)}


def _kernel_elem(F, rng, truncate, low=-3, high=3, zero=0.5):
    """Zero with probability `zero` (a truncated zero O(u^k) in some
    entries of truncated data), else a monomial sum of valuation in
    [low, high], with an O() tail in over half the entries of truncated
    data.  Over the capped field the units reach degree 3 in x, so that a
    product of a few entries passes the cap."""
    u = "2" if F.char == 0 else "t"
    if rng.random() < zero:
        if truncate and rng.random() < 0.4:
            return parse_element(f"O({u}^{rng.randrange(low, high + 2)})", F)
        return F.zero
    k = F.residue_field
    if F.char == 0:
        units = ("1", "3", "5", "7")
    elif k.is_perfect:
        units = [str(c) for c in range(1, k.order)]
    elif k.degree_cap == 6:
        units = ("1", "x", "(x^3+x+1)", "(x^2/(x^3+1))")
    else:
        units = ("1", "x", "(1+x)", "(x/(1+x))")
    exps = sorted(rng.sample(range(low, high + 2), rng.choice((1, 1, 2))))
    text = "+".join(f"{rng.choice(units)}*{u}^{e}" for e in exps)
    if truncate and rng.random() < 0.6:
        text = f"{text} + O({u}^{exps[-1] + rng.randrange(1, 4)})"
    return parse_element(text, F)


def _kernel_gram(F, rng, elem, n=None):
    """A symmetric n x n Gram, mirrored objects, from elem(i, j): block
    diagonal (blocks of one or two) or scrambled (every entry drawn); in
    characteristic 2 the diagonal is an exact zero, as on a polar form,
    most of the time."""
    n = n or rng.randrange(1, 7)
    block = [0] * n
    if rng.random() < 0.5:
        block = []
        while len(block) < n:
            block += [len(block)] * rng.choice((1, 2))
    alternating = F.char == 2 and rng.random() < 0.8
    G = [[F.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if (i == j and alternating) or block[i] != block[j]:
                continue
            G[i][j] = G[j][i] = elem(i, j)
    return G


def _kernel_outcome(fn, *args):
    res = _outcome(fn, *args)
    if isinstance(res, tuple) and isinstance(res[0], type):
        return res
    if isinstance(res, norms.CompatibilityViolation):
        return ("violation", res.condition, res.detail)
    if isinstance(res, norms.DepthCertificate):
        return ("certificate", res.eps, lead_of(res))
    if isinstance(res[0], norms.DepthCertificate):  # compatibility_dense
        return ("certificate", res[0].eps, res[1])
    blocks, rest, *_ = res  # split_gram's pivot valuations are not compared
    return ([(kind, _spelled(list(e)), _spelled(x if kind == "pair" else [x]))
             for kind, e, x in blocks], _spelled(rest))


def _low_precision(F, rng):
    """An entry of a low-precision column: a monomial sum of valuation -1
    or 0, cut one or two digits above its valuation half of the time.
    Against an exact B whose entries collide in valuation, such columns
    give the two triangles different precisions often."""
    x = _kernel_elem(F, rng, False, -1, 0, zero=0.2)
    if not x.is_exactly_zero() and rng.random() < 0.5:
        x = x.truncated(x.low_bound() + rng.randrange(1, 3))
    return x


@pytest.mark.parametrize("name", KERNEL_FIELDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_gram_of_on_sparse_columns_matches_dense(name, seed):
    """gram_of on the sparse (i, x_i) columns and on coordinate lists
    against the dense parent: entries, precisions and the error a product
    raises over the capped field.  Data is exact,
    truncated (truncated zeros included), or an exact B against
    low-precision columns."""
    F = KERNEL_FIELDS[name]
    rng = random.Random(seed)
    kind = rng.choice(("exact", "truncated", "low-precision columns"))
    truncate = kind == "truncated"
    if kind == "low-precision columns":
        B = _kernel_gram(F, rng, lambda i, j: _kernel_elem(
            F, rng, False, -1, 0, zero=0.3))
    else:
        B = _kernel_gram(F, rng, lambda i, j: _kernel_elem(F, rng, truncate))

    def entry():
        if kind == "low-precision columns":
            return _low_precision(F, rng)
        return _kernel_elem(F, rng, truncate, zero=0.2)

    n, m = len(B), rng.randrange(0, 6)
    dense = []
    for _ in range(m):
        support = rng.sample(range(n), rng.randrange(1, n + 1))
        dense.append([entry() if i in support else F.zero for i in range(n)])
    sparse = [[(i, x) for i, x in enumerate(col) if not x.is_exactly_zero()]
              for col in dense]
    want = _spelled(_outcome(gram_of_dense, B, dense, F.zero))
    assert _spelled(_outcome(gram_of_read_dense, B, sparse, F.zero)) == want
    assert _spelled(_outcome(gram_of_read_dense, B, dense, F.zero)) == want


@pytest.mark.parametrize("name", KERNEL_FIELDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=80, deadline=None)
def test_check_compatibility_matches_dense_loop(name, seed):
    """(a) and the leading coefficients on the nonzero entries only
    against the loop over every entry: the certificate's leading
    coefficients, the first violation and its detail, or the error.  Each
    entry of be sits near its threshold g_i + g_j + eps, some of them
    truncated zeros at or below it."""
    F = KERNEL_FIELDS[name]
    rng = random.Random(seed)
    truncate = rng.random() < 0.5
    n = rng.randrange(1, 7)
    step = rng.choice((1, 2))  # 2: integral values and thresholds
    values = [half(step * rng.randrange(-2, 3)) for _ in range(n)]
    eps = half(step * rng.randrange(2))

    def near(i, j):
        thr = values[i] + values[j] + eps
        lo = math.ceil(thr) - (rng.random() < 0.2)
        return _kernel_elem(F, rng, truncate, lo, lo)

    be = _kernel_gram(F, rng, near, n)
    qe = [F.zero if rng.random() < 0.7 else _kernel_elem(
        F, rng, truncate, math.ceil(2 * v), math.ceil(2 * v) + 1)
        for v in values]
    q = QuadraticForm.from_gram(F, qe, be)
    norm = norms.VNorm(F, linalg.identity(n, F.zero, F.one), values)
    want = _kernel_outcome(compatibility_dense, q, norm, eps, (qe, be))
    assert _kernel_outcome(norms.check_compatibility, q, norm, eps,
                           (qe, _sparse_rows(be))) == want


@pytest.mark.parametrize("name", KERNEL_FIELDS)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_split_gram_matches_dense_update(name, seed):
    """split_gram updating only the live rows and columns, with one pivot
    inverse per line step, against the update of every entry: the blocks'
    vectors and values, the rest, or the error, entry by entry."""
    F = KERNEL_FIELDS[name]
    rng = random.Random(seed)
    truncate = rng.random() < 0.5
    G = _kernel_gram(F, rng, lambda i, j: _kernel_elem(F, rng, truncate))
    assert _kernel_outcome(split_gram, G, F) == \
        _kernel_outcome(split_gram_dense, G, F)


# -- the certificate's Gram rows against a dense schoolbook ---------------------


def gram_schoolbook(B, cols, zero):
    """cols^T (B cols) as a dense matrix over every term, exact zeros
    included, each sum seeded with zero and each entry of both triangles
    formed on its own."""
    n, m = len(B), len(cols)
    BH = [[zero] * m for _ in range(n)]
    for i in range(n):
        for c in range(m):
            for j in range(n):
                BH[i][c] = BH[i][c] + B[i][j] * cols[c][j]
    G = [[zero] * m for _ in range(m)]
    for r in range(m):
        for c in range(m):
            for i in range(n):
                G[r][c] = G[r][c] + cols[r][i] * BH[i][c]
    return G


def _assert_rows(rows, mirrored):
    """Gram rows hold (j, entry) pairs in strictly increasing j, no entry
    an exact zero; mirrored rows hold the same objects in both triangles."""
    for i, row in enumerate(rows):
        js = [j for j, _ in row]
        assert js == sorted(set(js))
        assert not any(b.is_exactly_zero() for _, b in row)
        if mirrored:
            for j, b in row:
                assert dict(rows[j])[i] is b


def _twinned(B, rng):
    """B with row and column p2 made copies of p, for two random indices:
    on exact data B then sends a column a e_p - a e_p2 to an exact zero,
    and its pairing with any column cancels to an exact zero."""
    n = len(B)
    p, p2 = rng.sample(range(n), 2)
    at = [p if i == p2 else i for i in range(n)]
    return [[B[at[i]][at[j]] for j in range(n)] for i in range(n)], (p, p2)


@pytest.mark.parametrize("shorthand", VALUED)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_gram_of_on_sparse_rows_matches_schoolbook(shorthand, seed):
    """gram_of on B given as sparse rows (a certificate's Gram) and as a
    dense matrix against H^T B H formed densely, entry by entry, value and
    precision, both triangles.  B is exact or
    truncated; half of the draws twin two of its rows, and then some
    columns are a e_p - a e_p2, whose image and pairings cancel to exact
    zeros on exact data, which the rows leave out."""
    F = KERNEL_FIELDS[shorthand]
    rng = random.Random(seed)
    truncate = rng.random() < 0.5
    B = _kernel_gram(F, rng, lambda i, j: _kernel_elem(F, rng, truncate))
    n = len(B)
    cols = []
    for _ in range(rng.randrange(0, 5)):
        support = rng.sample(range(n), rng.randrange(1, n + 1))
        cols.append([_kernel_elem(F, rng, truncate, zero=0.2)
                     if i in support else F.zero for i in range(n)])
    if n >= 2 and rng.random() < 0.5:
        B, (p, p2) = _twinned(B, rng)
        for _ in range(rng.randrange(1, 3)):
            a = _kernel_elem(F, rng, False, zero=0)
            col = [F.zero] * n
            col[p], col[p2] = a, -a
            cols.insert(rng.randrange(len(cols) + 1), col)
    rows = _sparse_rows(B)
    want = gram_schoolbook(B, cols, F.zero)
    got = gram_of(rows, [linalg.sparse(c) for c in cols])
    exact = all(x.abs_prec is None for v in (*B, *cols) for x in v)
    _assert_rows(got, exact)
    assert _spelled(linalg.dense(got, F.zero)) == _spelled(want)
    assert _spelled(gram_of_read_dense(B, cols, F.zero)) == _spelled(want)


def test_gram_of_rows_leave_out_what_cancels():
    # rows 1 and 2 of B are twins: B (e_1 + e_2) cancels in the image, and
    # (e_1 + e_2)^T B e_0 cancels in the pairing, both to exact zeros
    F = KERNEL_FIELDS["f2-laurent"]
    o, z = F.one, F.zero
    B = [[z, o, o], [o, z, z], [o, z, z]]
    for cols in ([[o, z, z], [z, o, o]], [[z, o, o], [o, z, z]]):
        assert gram_of(B, cols) == [[], []]
        assert linalg.dense(gram_of(B, cols), z) == \
            gram_schoolbook(B, cols, z)


@pytest.mark.parametrize("shorthand", VALUED)
@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=30, deadline=None)
def test_certificate_rows_match_a_dense_recomputation(shorthand, seed):
    """Along the descent of a drawn form, exact or truncated, every
    certificate's Gram rows are in the row format and read back as the
    Gram on the norm's basis formed densely from the polar matrix, and as
    the dense view of _gram_on_basis: every entry, value and precision."""
    F = field_shorthand(shorthand, precision=32)
    q = _loop_form(F, random.Random(seed))
    step = _outcome(norms.initial_norm, q)
    while isinstance(step, norms.DepthCertificate):
        cert = step
        _assert_rows(cert.be, norms._is_exact(cert))
        cols = [cert.norm.column(i) for i in range(q.n)]
        want = _spelled(gram_schoolbook(q.polar_matrix(), cols, F.zero))
        assert _spelled(linalg.dense(cert.be, F.zero)) == want
        assert _spelled(linalg.dense(norms._gram_on_basis(q, cert.norm)[1],
                                     F.zero)) == want
        if cert.eps <= 0:
            break
        step = _outcome(norms.depth_reduce, q, cert)


CAPPED = field_shorthand("f2x-laurent", precision=16, degree_cap=6)


@given(seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_capped_steps_match_the_reforming_route(seed):
    """Over F2(x)((t)) with a degree cap of 6, each step of the descent
    gives the certificate, or the error and its message, that the
    re-forming route (ambient columns, gram_of on the polar matrix,
    evaluate) gives."""
    _compare_reductions(_loop_form(CAPPED, random.Random(seed)))


def test_capped_descents_reach_the_cap_and_certify():
    rng = random.Random("capped descents")
    outcomes = set()
    for _ in range(150):
        cert = _outcome(norms.initial_norm, _loop_form(CAPPED, rng))
        if isinstance(cert, tuple):
            continue
        q = cert.form
        while cert.eps > 0:
            step = _outcome(norms.depth_reduce, q, cert)
            outcomes.add(step[0] if isinstance(step, tuple) else type(step))
            if not isinstance(step, norms.DepthCertificate):
                break
            cert = step
    assert {DegreeCapExceeded, norms.DepthCertificate} <= outcomes


def test_an_uncertified_slack_raises_before_a_later_degree_cap():
    """A re-forming step whose e block cannot certify its slack raises
    PrecisionExhausted, which doubles the precision, even when an f column
    trips the degree cap.  The certificate is that of [t^-1, t^-1], whose
    one plane is e = e_1 + e_2 and f = e_1, with a truncated q value to
    take the re-forming route, on the basis [[1 + p, p], [p, 1 + p]]
    (determinant 1), p = x^4, for the form [O(t^-1), t^-1]: e lifts to
    (1, 1), whose q value is known only above t^-1, and f to (1 + p, p),
    whose q value multiplies (1 + p) p, of degree 8."""
    q = parse_form("[t^-1, t^-1]", CAPPED)
    cert = norms.initial_norm(q)
    p = parse_element("x^4", CAPPED)
    one = CAPPED.one
    step = copy.copy(cert)
    step.form = parse_form("[O(t^-1), t^-1]", CAPPED)
    step.norm = norms.VNorm(CAPPED, [[one + p, p], [p, one + p]],
                            cert.norm.values)
    step.qe = [_truncated(cert.qe[0])] + cert.qe[1:]
    assert step.form.evaluate([one, one]).low_bound() == -1
    with pytest.raises(DegreeCapExceeded):
        step.form.evaluate([one + p, p])
    with pytest.raises(PrecisionExhausted, match="slack not certified"):
        norms.depth_reduce(step.form, step)
    assert _outcome(depth_reduce, step.form, step) == \
        (PrecisionExhausted, "metabolic witness slack not certified positive")


def test_a_certified_slack_lets_a_later_degree_cap_through():
    """The same step on the exact form [t^-1, t^-1], with the truncated
    q value that takes the re-forming route: the q value of e = (1, 1)
    is 1, exact, so the e block certifies its slack, and the cap that
    the f column (1 + p, p) trips is raised as it is."""
    q = parse_form("[t^-1, t^-1]", CAPPED)
    cert = norms.initial_norm(q)
    p = parse_element("x^4", CAPPED)
    one = CAPPED.one
    step = copy.copy(cert)
    step.norm = norms.VNorm(CAPPED, [[one + p, p], [p, one + p]],
                            cert.norm.values)
    step.qe = [_truncated(cert.qe[0])] + cert.qe[1:]
    assert q.evaluate([one, one]) == one
    with pytest.raises(DegreeCapExceeded, match="degree 8 exceeds cap 6"):
        norms.depth_reduce(q, step)
