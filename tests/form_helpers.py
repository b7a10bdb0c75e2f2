"""Helpers that only the tests use: evaluation of graded vectors, a random
uniformizing choice, the polar form at two vectors, nonsingularity of a
form, the form of a Witt expression, a random invertible matrix, the
first kernel vector of a row reduction, a random residue element and the
leading coefficients of a depth certificate."""

from wittlab import linalg, residue_witt
from wittlab.graded import (GradedVector, HomogeneousScalar, UniformizingChoice,
                            default_choice)
from wittlab.quadform import QuadraticForm


def unit_vector(S, i) -> GradedVector:
    """The basis vector e_i of the shifted graded space S."""
    coords = [S.k.zero] * S.n
    coords[i] = S.k.one
    return GradedVector(S, S.degrees[i], tuple(coords))


def qval(S, v):
    """k-coefficient of q(v) at degree 2*deg(v)."""
    acc = S.k.zero
    for i, c in enumerate(v.coords):
        if not c.is_zero() and not S.qvals[i].is_zero():
            acc = acc + c * c * S.qvals[i]
    if S.type_tag == "I":
        for i in range(S.n):
            if v.coords[i].is_zero():
                continue
            for j in range(i + 1, S.n):
                if not v.coords[j].is_zero() and not S.bmat[i][j].is_zero():
                    acc = acc + v.coords[i] * v.coords[j] * S.bmat[i][j]
    return acc


def bval(S, u, w):
    """k-coefficient of b(u, w) at degree deg(u) + deg(w) + eps."""
    acc = S.k.zero
    for i, ci in enumerate(u.coords):
        if ci.is_zero():
            continue
        for j, cj in enumerate(w.coords):
            if not cj.is_zero():
                acc = acc + ci * cj * S.bmat[i][j]
    return acc


def random_choice(S, rng) -> UniformizingChoice:
    """A random valid choice: unit coefficients are randomized and the pi
    degrees move by even steps (rho is pinned for types I and III)."""
    k = S.k

    def unit():
        while True:
            if k.is_perfect:
                c = k.random(rng)
            else:
                c = k.random(rng, 1)
            if not c.is_zero():
                return c

    base = default_choice(S)
    rho = base.rho if S.type_tag in ("I", "III") else \
        HomogeneousScalar(base.rho.degree, unit())
    pi = {key: HomogeneousScalar(h.degree + 2 * rng.randrange(-2, 3), unit())
          for key, h in base.pi.items()}
    return UniformizingChoice(rho, pi)


def polar(q, x, y):
    """b(x, y) for the polar form b of q."""
    B = q.polar_matrix()
    acc = q.field.zero
    for i in range(q.n):
        for j in range(q.n):
            acc = acc + B[i][j] * x[i] * y[j]
    return acc


def is_nonsingular(q) -> bool:
    if q.n == 0:
        return True
    if q.field.char == 2 and q.n % 2 == 1:
        return False  # alternating odd rank
    return linalg.is_invertible_certified(q.polar_matrix())


def expr_form(expr) -> QuadraticForm:
    """The orthogonal sum of the summands of the Witt expression expr."""
    form = QuadraticForm(expr.field, [])
    for s in expr.summands:
        if s.kind == "bin":
            form = form.ortho_sum(QuadraticForm.binary(expr.field, s.a, s.b))
        else:
            form = form.ortho_sum(QuadraticForm.diagonal(expr.field, [s.a]))
    return form


def random_invertible(F, n, rng, entry):
    """An invertible n x n matrix over F: 2n draws of a column pair i, j,
    each with i != j adding entry() times column j to column i."""
    M = [[F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = entry()
        for r in range(n):
            M[r][i] = M[r][i] + c * M[r][j]
    return M


def first_kernel_vector(A, zero, one):
    """The first basis vector of the right kernel of A over an exact field,
    read off `linalg.rref_exact`: one at the first free column, minus that
    column of the reduced rows at the pivot columns; None if there is no
    free column."""
    R, pivots = linalg.rref_exact(A)
    cols = len(A[0])
    fc = next((c for c in range(cols) if c not in pivots), None)
    if fc is None:
        return None
    v = [zero] * cols
    v[fc] = one
    for r, pc in enumerate(pivots):
        v[pc] = zero - R[r][fc]
    return v


def random_residue(k, rng):
    """A random element of the residue field k, zero about a third of the
    time: uniform over GF(2^m), over GF(2^m)(x) a numerator of degree at
    most 1 over a denominator of degree at most 1."""
    if rng.random() < 0.3:
        return k.zero
    if k.is_perfect:
        return k.random(rng)
    num = k.random(rng, rng.randrange(2))
    den = k.random(rng, 1)
    return num if den.is_zero() else num / den


def lead_of(cert):
    """The leading coefficients of a depth certificate as n x n lists:
    b(e_i, e_j) at degree g_i + g_j + eps, unpacked from its packed rows."""
    vec = residue_witt._vectors(cert.form.field.residue_field)
    n = len(cert.rows)
    return [list(vec.unpack(row, n)) for row in cert.rows]
