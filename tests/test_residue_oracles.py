"""Hand-written residue-field splitting routines, kept as test oracles.

Each function below is a loop that `residue_witt` and `graded` carried
before they shared one plane splitter: `KQuadForm`,
`k_symplectic_blocks` (with the isotropic-vector search that rides on
it), `sq_normalize`, `_diagonalize_bilinear`, `kquad_anisotropic_part`
and `kquad_is_hyperbolic_witnessed`.  The tests draw seeded random forms
and Grams over GF(2), GF(4), GF(8), GF(2)(x) and GF(4)(x) and require
the library to give exactly the same pairs, basis, anisotropic part,
hyperbolicity answer, or exception type.  The Arf-bit comparison and
the type-III parities of `test_residue_kernels` and the type-I
relations of the parent `metabolic_planes` in `test_linalg_oracles` run
these oracles too, so they do not compare the library's plane splitter
or its parity read with itself.  The isotropic-vector oracles take their
Artin-Schreier roots from `residue_brute_force` (an enumeration of
GF(2^m), the bounded search over GF(2^m)(x)), not from the field's own
`artin_schreier_root`, whose callers they check.
"""

import random
from itertools import product

import pytest

from wittlab import linalg, residue_witt
from wittlab.errors import DegenerateForm, UnsupportedResidueField
from wittlab.fields import GF2m, RatFuncField
from wittlab.quadform import QuadraticForm
from wittlab.residue_witt import SymplecticQuadSpace

import residue_brute_force
from residue_brute_force import (_bounded_as_search, _check_enum_size,
                                 _finite_as_root, _is_finite)
from form_helpers import random_residue

FIELDS = {"GF(2)": GF2m(1), "GF(4)": GF2m(2), "GF(8)": GF2m(3),
          "GF(2)(x)": RatFuncField(1), "GF(4)(x)": RatFuncField(2)}
FINITE = ("GF(2)", "GF(4)", "GF(8)")


# -- the oracles ------------------------------------------------------------------


class KQuadForm:
    """Upper-triangular quadratic form over a residue field (char 2)."""

    def __init__(self, k, coeffs):
        self.k = k
        self.n = len(coeffs)
        z = k.zero
        self.U = tuple(tuple(coeffs[i][j] if j >= i else z for j in range(self.n))
                       for i in range(self.n))

    def __repr__(self):
        rows = ["[" + ", ".join(self.k.format_elem(c) for c in row) + "]"
                for row in self.U]
        return "KQuadForm[" + "; ".join(rows) + "]"

    @classmethod
    def binary(cls, k, a, b):
        return cls(k, [[a, k.one], [k.zero, b]])

    def evaluate(self, x):
        acc = self.k.zero
        for i in range(self.n):
            if x[i].is_zero():
                continue
            for j in range(i, self.n):
                if not self.U[i][j].is_zero() and not x[j].is_zero():
                    acc = acc + self.U[i][j] * x[i] * x[j]
        return acc

    def polar_matrix(self):
        return [[self.U[i][j] + self.U[j][i] for j in range(self.n)]
                for i in range(self.n)]


def k_symplectic_blocks(form: KQuadForm):
    """Binary blocks [a_i, b_i] of a nonsingular form over char-2 k.

    The working Gram matrix is updated incrementally (O(n^3) total)."""
    k = form.k
    n = form.n
    if n % 2:
        raise DegenerateForm("odd-dimensional forms are singular in char 2")
    vecs = [[k.one if i == r else k.zero for i in range(n)] for r in range(n)]
    G = form.polar_matrix()
    pairs, columns = [], []
    while vecs:
        m = len(vecs)
        pivot = next(((i, j) for i in range(m) for j in range(i + 1, m)
                      if not G[i][j].is_zero()), None)
        if pivot is None:
            raise DegenerateForm("polar form over the residue field is degenerate")
        i, j = pivot
        giv = G[i][j].inv()
        e = vecs[i]
        f = [c * giv for c in vecs[j]]
        pairs.append((form.evaluate(e), form.evaluate(f)))
        columns.extend([e, f])
        keep = [r for r in range(m) if r not in (i, j)]
        lam = {r: G[r][j] * giv for r in keep}
        mu = {r: G[r][i] for r in keep}
        nxt = []
        for r in keep:
            w = list(vecs[r])
            for coeff, src in ((lam[r], e), (mu[r], f)):
                if not coeff.is_zero():
                    for t in range(n):
                        if not src[t].is_zero():
                            w[t] = w[t] + coeff * src[t]
            nxt.append(w)
        vecs = nxt
        G = [[G[r][c] + lam[c] * mu[r] + mu[c] * lam[r] for c in keep]
             for r in keep]
    M = [[columns[c][r] for c in range(n)] for r in range(n)]
    return pairs, M


def kquad_isotropic_vector(form: KQuadForm):
    """A nonzero isotropic vector of a nonsingular form, or None.

    Constructive over finite k: a block with trace(ab) = 0 yields a
    vector through an Artin-Schreier root; two trace-1 blocks combine
    through a square root.  A single trace-1 block is anisotropic.
    """
    k = form.k
    if form.n == 0:
        return None
    if not _is_finite(k):
        return _kquad_isotropic_best_effort(form)
    pairs, M = k_symplectic_blocks(form)

    def through(block_index, local):
        v = [k.zero] * form.n
        for col, coeff in zip((2 * block_index, 2 * block_index + 1), local):
            for r in range(form.n):
                v[r] = v[r] + coeff * M[r][col]
        return v

    for bi, (a, b) in enumerate(pairs):
        if a.is_zero():
            return through(bi, (k.one, k.zero))
        if b.is_zero():
            return through(bi, (k.zero, k.one))
        root = _finite_as_root(k, a * b)
        if root is not None:
            return through(bi, (root / a, k.one))
    if len(pairs) >= 2:
        # both blocks anisotropic: q(0,1,x2,0) = b1 + a2 x2^2 = 0
        (a1, b1), (a2, b2) = pairs[0], pairs[1]
        x2 = (b1 / a2).sqrt()
        v1 = through(0, (k.zero, k.one))
        v2 = through(1, (x2, k.zero))
        return [p + q for p, q in zip(v1, v2)]
    return None


def _kquad_isotropic_best_effort(form: KQuadForm):
    """Imperfect residue field: only certain constructive moves are tried;
    None means `no isotropic vector found', not `anisotropic'."""
    k = form.k
    pairs, M = k_symplectic_blocks(form)

    def through(block_index, local):
        v = [k.zero] * form.n
        for col, coeff in zip((2 * block_index, 2 * block_index + 1), local):
            for r in range(form.n):
                v[r] = v[r] + coeff * M[r][col]
        return v

    for bi, (a, b) in enumerate(pairs):
        if a.is_zero():
            return through(bi, (k.one, k.zero))
        if b.is_zero():
            return through(bi, (k.zero, k.one))
        root = _bounded_as_search(k, a * b)
        if root is not None:
            return through(bi, (root / a, k.one))
    # duplicated blocks cancel: the diagonal of [a,b] perp [a,b] is isotropic
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pairs[i] == pairs[j]:
                vi = through(i, (k.one, k.zero))
                vj = through(j, (k.one, k.zero))
                return [p + q for p, q in zip(vi, vj)]
    return None


def sq_normalize(qvals, bmat, k):
    """Symplectic normalization of raw totally-singular data (q values on a
    basis, alternating Gram matrix); returns (space, basis columns)."""
    n = len(qvals)
    for i in range(n):
        if not bmat[i][i].is_zero():
            raise DegenerateForm("bilinear form is not alternating")
    vecs = [[k.one if i == r else k.zero for i in range(n)] for r in range(n)]

    def bval(u, w):
        acc = k.zero
        for i in range(n):
            for j in range(n):
                acc = acc + bmat[i][j] * u[i] * w[j]
        return acc

    def qval(u):
        acc = k.zero
        for i in range(n):
            acc = acc + u[i] * u[i] * qvals[i]
        return acc

    pairs, columns = [], []
    while vecs:
        pivot = next(((i, j) for i in range(len(vecs))
                      for j in range(i + 1, len(vecs))
                      if not bval(vecs[i], vecs[j]).is_zero()), None)
        if pivot is None:
            raise DegenerateForm("alternating form is degenerate")
        i, j = pivot
        g = bval(vecs[i], vecs[j])
        e, f = vecs[i], [c / g for c in vecs[j]]
        pairs.append((qval(e), qval(f)))
        columns.extend([e, f])
        rest = [w for r, w in enumerate(vecs) if r not in (i, j)]
        vecs = [[w[r] + bval(w, f) * e[r] + bval(w, e) * f[r] for r in range(n)]
                for w in rest]
    return SymplecticQuadSpace(k, tuple(pairs)), columns


def kquad_anisotropic_part(form: KQuadForm) -> KQuadForm:
    """Anisotropic kernel of a nonsingular quadratic form over finite k,
    by exhaustive isotropic-vector search and splitting."""
    k = form.k
    _check_enum_size(k, form.n)
    current = form
    while current.n:
        found = None
        for vec in product(list(map(k.elem, range(k.order))), repeat=current.n):
            if all(c.is_zero() for c in vec):
                continue
            if current.evaluate(list(vec)).is_zero():
                found = list(vec)
                break
        if found is None:
            return current
        B = current.polar_matrix()

        def b_of(u, w):
            acc = k.zero
            for i in range(current.n):
                for j in range(current.n):
                    acc = acc + B[i][j] * u[i] * w[j]
            return acc

        partner = None
        for j in range(current.n):
            unit = [k.one if i == j else k.zero for i in range(current.n)]
            if not b_of(found, unit).is_zero():
                partner = unit
                break
        if partner is None:
            raise DegenerateForm("isotropic vector in the radical")
        g = b_of(found, partner)
        partner = [c / g for c in partner]
        basis = []
        n = current.n
        for r in range(n):
            w = [k.one if i == r else k.zero for i in range(n)]
            bp, bf = b_of(w, partner), b_of(w, found)
            w2 = [w[i] + bp * found[i] + bf * partner[i] for i in range(n)]
            cand = basis + [w2]
            if len(linalg.rref_exact([list(v) for v in cand])[1]) == len(cand):
                basis.append(w2)
            if len(basis) == n - 2:
                break
        rows = [[k.zero] * (n - 2) for _ in range(n - 2)]
        for i in range(n - 2):
            rows[i][i] = current.evaluate(basis[i])
            for j in range(i + 1, n - 2):
                rows[i][j] = b_of(basis[i], basis[j])
        current = KQuadForm(k, rows)
    return current


def kquad_is_hyperbolic_witnessed(form: KQuadForm) -> bool:
    """Constructive hyperbolicity: split isotropic vectors until empty.

    Over finite k this decides; over GF(2^m)(x) only successful runs are
    meaningful (False means `no witness found').
    """
    k = form.k
    current = form
    while current.n:
        vec = kquad_isotropic_vector(current)
        if vec is None:
            return False
        B = current.polar_matrix()
        n = current.n

        def b_of(u, w):
            acc = k.zero
            for i in range(n):
                for j in range(n):
                    acc = acc + B[i][j] * u[i] * w[j]
            return acc

        partner = None
        for j in range(n):
            unit = [k.one if i == j else k.zero for i in range(n)]
            if not b_of(vec, unit).is_zero():
                partner = unit
                break
        if partner is None:
            raise DegenerateForm("isotropic vector in the radical")
        g = b_of(vec, partner)
        partner = [c / g for c in partner]
        basis = []
        for r in range(n):
            w = [k.one if i == r else k.zero for i in range(n)]
            bp, bv = b_of(w, partner), b_of(w, vec)
            w2 = [w[i] + bp * vec[i] + bv * partner[i] for i in range(n)]
            cand = basis + [w2]
            if len(linalg.rref_exact([list(v) for v in cand])[1]) == len(cand):
                basis.append(w2)
            if len(basis) == n - 2:
                break
        rows = [[k.zero] * (n - 2) for _ in range(n - 2)]
        for i in range(n - 2):
            rows[i][i] = current.evaluate(basis[i])
            for j in range(i + 1, n - 2):
                rows[i][j] = b_of(basis[i], basis[j])
        current = KQuadForm(k, rows)
    return True


def _diagonalize_bilinear(gram, k):
    """The diagonal entries Gram-Schmidt splits off a symmetric bilinear
    form, and the dimension of the alternating rest."""
    G = [list(row) for row in gram]
    diag = []
    while G:
        m = len(G)
        idx = next((i for i in range(m) if not G[i][i].is_zero()), None)
        if idx is None:
            break
        de = G[idx][idx]
        diag.append(de)
        keep = [r for r in range(m) if r != idx]
        coef = {r: G[r][idx] / de for r in keep}
        G = [[G[r][c] + coef[c] * G[r][idx] + coef[r] * G[idx][c]
              + coef[r] * coef[c] * de for c in keep] for r in keep]
    return tuple(diag), len(G)


# -- random draws -----------------------------------------------------------------


def _upper(k, n, rng):
    return [[random_residue(k, rng) if j >= i else k.zero for j in range(n)]
            for i in range(n)]


def _scrambled_blocks(k, pairs, rng):
    """Upper rows of the block sum of [a, b] pairs after a random
    unimodular change of basis (built by hand, independent of the
    library's change_basis)."""
    n = 2 * len(pairs)
    U = [[k.zero] * n for _ in range(n)]
    for i, (a, b) in enumerate(pairs):
        U[2 * i][2 * i], U[2 * i + 1][2 * i + 1] = a, b
        U[2 * i][2 * i + 1] = k.one
    M = [[k.one if i == j else k.zero for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = random_residue(k, rng)
            for r in range(n):
                M[r][i] = M[r][i] + c * M[r][j]
    G = [[k.zero] * n for _ in range(n)]  # M^T U M
    for i in range(n):
        for j in range(n):
            acc = k.zero
            for r in range(n):
                for s in range(n):
                    acc = acc + M[r][i] * U[r][s] * M[s][j]
            G[i][j] = acc
    return [[G[i][i] if i == j else (G[i][j] + G[j][i] if j > i else k.zero)
             for j in range(n)] for i in range(n)]


def _symmetric_gram(k, n, rng, alternating):
    G = [[k.zero] * n for _ in range(n)]
    for i in range(n):
        G[i][i] = k.zero if alternating else random_residue(k, rng)
        for j in range(i + 1, n):
            G[i][j] = G[j][i] = random_residue(k, rng)
    return G


def _outcome(fn, *args):
    """fn's result, or the type of the library error it raised."""
    try:
        return fn(*args)
    except (DegenerateForm, UnsupportedResidueField) as e:
        return type(e)


# -- comparisons ------------------------------------------------------------------


@pytest.mark.parametrize("name", FIELDS)
def test_k_symplectic_blocks_matches_oracle(name):
    k = FIELDS[name]
    rng = random.Random(f"k_symplectic_blocks {name}")
    for _ in range(60):
        rows = _upper(k, rng.choice((0, 1, 2, 3, 4, 4, 6)), rng)
        want = _outcome(k_symplectic_blocks, KQuadForm(k, rows))
        got = _outcome(residue_witt.k_symplectic_blocks, QuadraticForm(k, rows))
        assert got == want


@pytest.mark.parametrize("name", FIELDS)
def test_sq_normalize_matches_oracle(name):
    k = FIELDS[name]
    rng = random.Random(f"sq_normalize {name}")
    for _ in range(60):
        n = rng.choice((0, 1, 2, 3, 4, 4, 6))
        qvals = [random_residue(k, rng) for _ in range(n)]
        bmat = _symmetric_gram(k, n, rng, alternating=rng.random() < 0.9)
        want = _outcome(sq_normalize, qvals, bmat, k)
        got = _outcome(residue_witt.sq_normalize, qvals, bmat, k)
        assert got == want


@pytest.mark.parametrize("name", FINITE)
def test_kquad_anisotropic_part_matches_oracle(name):
    k = FIELDS[name]
    rng = random.Random(f"kquad_anisotropic_part {name}")
    for _ in range(25):
        dim = rng.choice((2, 4)) if k.order < 8 else 2
        if rng.random() < 0.5:
            rows = _upper(k, dim, rng)
        else:
            pairs = [(random_residue(k, rng), random_residue(k, rng))
                     for _ in range(dim // 2)]
            rows = _scrambled_blocks(k, pairs, rng)
        want = _outcome(kquad_anisotropic_part, KQuadForm(k, rows))
        got = _outcome(residue_brute_force.kquad_anisotropic_part,
                       QuadraticForm(k, rows))
        if isinstance(want, type):
            assert got == want
        else:
            assert got.U == want.U


@pytest.mark.parametrize("name", FIELDS)
def test_kquad_is_hyperbolic_witnessed_matches_oracle(name):
    k = FIELDS[name]
    rng = random.Random(f"kquad_is_hyperbolic_witnessed {name}")
    answers = set()
    for _ in range(40):
        pairs = [(random_residue(k, rng), random_residue(k, rng))
                 for _ in range(rng.choice((1, 2)))]
        if rng.random() < 0.5:
            pairs = pairs + pairs  # hyperbolic: [a,b] perp [a,b]
        rows = _scrambled_blocks(k, pairs, rng)
        want = _outcome(kquad_is_hyperbolic_witnessed, KQuadForm(k, rows))
        got = _outcome(residue_witt.kquad_is_hyperbolic_witnessed,
                       QuadraticForm(k, rows))
        assert got == want
        answers.add(want)
    assert {True, False} <= answers
