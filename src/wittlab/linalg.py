"""Small dense linear algebra over the library's exact and valued fields.

Two regimes:

* residue fields (GF(2^m), GF(2^m)(x)): arithmetic is exact, and the
  row reduction and inverse take the first nonzero pivot;
* valued base fields: entries carry certified precision, so pivots are
  chosen certified-nonzero with minimal valuation (maximal confidence),
  ties broken lexicographically for determinism.  Rank decisions use a
  division-free elimination so that exact zeros stay exact: a singular
  matrix of exact entries is *certified* singular instead of drowning in
  lost precision.

A sparse vector or row is the list of its (s, a_s) pairs, a_s not an
exact zero, in index order (`sparse`; `dense` reads n such rows back
as an n x n matrix).  `mat_mul` takes a row of its left factor dense or
so, as `quadform.gram_of` takes a column and a row of its Gram; the
lift of a depth step passes its monomial columns so.

The steps the splitting routines share live here once: the valued
fields' pivot rule `min_valuation`, the echelon pass
`independent_rows` (the rank test of condition (c) over GF(2^m)(x),
where over GF(2^m) it runs on packed rows, `residue_witt._Slots.rank`;
and that of each coset block in `graded.validate`), the
join `block_diag` and the linear combination `combine`.
"""

from __future__ import annotations

from .errors import PrecisionExhausted, SingularMatrix


def sparse(v):
    """v as its (s, a_s) pairs, a_s not an exact zero, in index order: v
    itself when it is given so, else read off the coordinate list v."""
    if v and type(v[0]) is not tuple:
        return [(s, a) for s, a in enumerate(v) if not a.is_exactly_zero()]
    return v


def dense(rows, zero):
    """The n x n matrix of n sparse rows, exact zeros off their pairs."""
    out = [[zero] * len(rows) for _ in rows]
    for row, pairs in zip(out, rows):
        for j, b in pairs:
            row[j] = b
    return out


def mat_mul(A, B, zero):
    """A B, skipping every product with an exact-zero operand: such a
    product is an exact zero, and adding one changes neither the value
    nor the precision of a sum.  A row of A may be given sparse, as
    `quadform.gram_of` takes a column."""
    n, m = len(A), len(B[0])
    out = [[zero] * m for _ in range(n)]
    for i in range(n):
        Ai = sparse(A[i])
        for j in range(m):
            acc = None
            for s, a in Ai:
                b = B[s][j]
                if b.is_exactly_zero():
                    continue
                acc = a * b if acc is None else acc + a * b
            if acc is not None:
                out[i][j] = acc
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def identity(n, zero, one):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def block_diag(A, B, zero):
    """The block-diagonal matrix diag(A, B), as lists of rows."""
    n, m = len(A), len(B)
    return [list(row) + [zero] * m for row in A] + \
        [[zero] * n + list(row) for row in B]


def combine(vec, terms):
    """vec + sum coeff*other over (coeff, other) terms, skipping zero
    coefficients and zero entries."""
    out = list(vec)
    for coeff, other in terms:
        if coeff.is_exactly_zero():
            continue
        for r in range(len(out)):
            if not other[r].is_exactly_zero():
                out[r] = out[r] + coeff * other[r]
    return out


def min_valuation(cands):
    """The key of the certified-nonzero entry of minimal valuation among
    (key, entry) pairs over a valued field, ties to the smaller key; None
    if there is none.  Residue elements carry no valuation."""
    best = None
    for key, x in cands:
        if x.is_certified_nonzero():
            v = x.valuation()
            if best is None or v < best[0] or (v == best[0] and key < best[1]):
                best = (v, key)
    return None if best is None else best[1]


# -- exact residue-field elimination ---------------------------------------


def rref_exact(A):
    """Row-reduce a matrix over an exact field; returns (R, pivot columns)."""
    R = [row[:] for row in A]
    if not R:
        return R, []
    rows, cols = len(R), len(R[0])
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if not R[i][c].is_zero()), None)
        if pr is None:
            continue
        R[r], R[pr] = R[pr], R[r]
        inv = R[r][c].inv()
        R[r] = [inv * v for v in R[r]]
        for i in range(rows):
            if i != r and not R[i][c].is_zero():
                f = R[i][c]
                R[i] = [R[i][j] - f * R[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return R, pivots


def independent_rows(rows, want):
    """Indices of the first rows, in order, that stay linearly independent
    over an exact field, at most `want` of them.  One incremental echelon
    pass: each row is reduced by the rows kept before it."""
    chosen, echelon = [], []  # echelon: (lead column, its inverse, row)
    for idx, row in enumerate(rows):
        if len(chosen) == want:
            break
        row = list(row)
        for lead, inv, base in echelon:
            if not row[lead].is_zero():
                f = row[lead] * inv
                row = [x if b.is_zero() else x - f * b for x, b in zip(row, base)]
        lead = next((t for t, x in enumerate(row) if not x.is_zero()), None)
        if lead is None:
            continue
        echelon.append((lead, row[lead].inv(), row))
        chosen.append(idx)
    return chosen


def invert_exact(A, zero, one):
    n = len(A)
    aug = [list(row) + unit for row, unit in zip(A, identity(n, zero, one))]
    R, pivots = rref_exact(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix over the residue field is singular")
    return [row[n:] for row in R]


# -- valued-field elimination -----------------------------------------------


def is_invertible_certified(A) -> bool:
    """Certified invertibility decision over a valued field.

    Division-free elimination; True when n pivots are certified nonzero,
    False when the remaining block is exactly zero, PrecisionExhausted
    when the block is merely zero-to-precision.
    """
    n = len(A)
    if n == 0:
        return True
    R = [row[:] for row in A]
    rows_left = list(range(n))
    cols_left = list(range(n))
    while rows_left:
        piv = min_valuation(((i, j), R[i][j])
                            for i in rows_left for j in cols_left)
        if piv is None:
            if all(R[i][j].is_exactly_zero() for i in rows_left for j in cols_left):
                return False
            raise PrecisionExhausted(
                "cannot certify invertibility: remaining entries are "
                "indistinguishable from zero at this precision")
        pi, pj = piv
        p = R[pi][pj]
        # a term f * 0 subtracts an exact zero: skip it
        live = [not c.is_exactly_zero() for c in R[pi]]
        for i in rows_left:
            if i == pi:
                continue
            f = R[i][pj]
            if f.is_exactly_zero():
                continue
            R[i] = [p * x - f * R[pi][j] if live[j] else p * x
                    for j, x in enumerate(R[i])]
        rows_left.remove(pi)
        cols_left.remove(pj)
    return True


def solve_valued(A, B):
    """Solve A X = B columnwise over a valued field (division allowed)."""
    n = len(A)
    m = len(B[0])
    R = [A[i][:] + B[i][:] for i in range(n)]
    rows_left = list(range(n))
    cols_left = list(range(n))
    order = []
    while rows_left:
        piv = min_valuation(((i, j), R[i][j])
                            for i in rows_left for j in cols_left)
        if piv is None:
            if all(R[i][j].is_exactly_zero() for i in rows_left for j in cols_left):
                raise SingularMatrix("valued matrix is singular")
            raise PrecisionExhausted("cannot certify a pivot while solving")
        pi, pj = piv
        ip = R[pi][pj].inv()
        R[pi] = [ip * v for v in R[pi]]
        for i in range(n):
            if i != pi and not R[i][pj].is_exactly_zero():
                f = R[i][pj]
                R[i] = [R[i][j] - f * R[pi][j] for j in range(n + m)]
        order.append((pi, pj))
        rows_left.remove(pi)
        cols_left.remove(pj)
    X = [[None] * m for _ in range(n)]
    for pi, pj in order:
        for j in range(m):
            X[pj][j] = R[pi][n + j]
    return X
