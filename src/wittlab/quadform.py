"""Quadratic and bilinear forms over the valued base fields and their
residue fields.

A form of dimension n is stored as upper-triangular coefficient data
q(x) = sum_{i<=j} U[i][j] x_i x_j.  This keeps the characteristic-2
quadratic information that the polar form B = U + U^T cannot see.
The polar form is alternating in characteristic 2 (exact structural
zeros on the diagonal), which downstream singularity certification
relies on.

`split_gram` is the one splitting kernel, a symplectic Gram-Schmidt on
a symmetric Gram matrix: split one-dimensional lines while the diagonal
has a certified-nonzero entry (characteristic 0), then split binary
blocks on pivot pairs, both picked by `linalg.min_valuation`, and hand
back what is left when no certified pivot remains.  `symplectic_blocks`,
the ungraded normalisation, runs it on the polar form once per form and
keeps the split.  A form built by `ortho_sum` records its two summands,
and the split of an exact sum is merged from theirs: a step of the
kernel on diag(G1, G2) touches only its own summand's rows, so the loop
on the sum takes each summand's steps in its own order and interleaves
them by kind and pivot valuation (`_merge`); the blocks, the basis and
the errors are those of a split of the whole polar matrix.  A sum with
a truncated entry, or with a summand that raises, is split whole.
Forms over a residue field (`GF2m`, `GF(2^m)(x)`) are `QuadraticForm`s
as well, split by the plane splitter of `residue_witt`, not by this
kernel; `QuadraticForm.from_gram` builds one from q values and the
upper triangle of a polar Gram.

`gram_of`, the Gram kernel of the certificates of `norms`, forms
cols^T B cols in one pass as sparse rows (`linalg.sparse`): row r holds
the (c, G_rc) pairs whose entry is not an exact zero, in c order; B is
given as such rows (a certificate's Gram) or dense (a polar matrix).
It has two paths.  Exact data over Q_2 and GF(2^m)((t)) is summed on
the bare digit ints of `fields.raw_digits` (`_gram_raw`, the one kernel
outside `fields` that reads that layout), one element built per nonzero
entry: an exact sum is canonical whatever its grouping.  Truncated data
and GF(2^m)(x)((t)) keep the element sums in index order, as the
summation order carries the precision there or trips the degree cap at
a set product.  On exact data the rows are mirrored; on truncated data
they hold both triangles, whose sums can certify different precisions.

`WittExpr` is a formal orthogonal sum of binary [a,b] summands (plus
diagonal <a> summands in characteristic 0) with the rewrite rules of
the binary-form relation engine; `rewrite` preserves the Witt class,
and remainder terms created at positive depth are kept and tagged with
their guaranteed filtration bound.  It checks its operands once, before
a rule runs, against the table of the summand kinds each rule reads:
anything else raises RuleNotApplicable.  The merge `d_merge` is rule
(d) on two summands with one second entry.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import (DegreeCapExceeded, NotApplicable, PrecisionExhausted,
                     Record, RuleNotApplicable, SingularForm, SingularMatrix,
                     WittlabError)
from .fields import raw_digits
from .fields.common import INF, is_exact


class QuadraticForm:
    # Built once per form, on first use: _polar, the polar matrix; _wild,
    # the fields of the certificate norms.wildness_index found, as a dict,
    # all but the form (the norms module docstring says why); and _split,
    # the split symplectic_blocks made (see _kept_split).  _parts is the
    # pair of summands ortho_sum built the form from, else None
    __slots__ = ("field", "n", "U", "_polar", "_wild", "_parts", "_split")

    def __init__(self, field, coeffs):
        """coeffs: n x n upper-triangular rows; entries below the diagonal
        must be (exact) zeros and are normalized away."""
        self.field = field
        self.n = len(coeffs)
        z = field.zero
        self.U = tuple((z,) * i + tuple(row[i:])
                       for i, row in enumerate(coeffs))
        self._polar = self._wild = self._parts = self._split = None

    def __repr__(self):
        rows = ["[" + ", ".join(self.field.format_elem(c) for c in row) + "]"
                for row in self.U]
        return "QuadraticForm[" + "; ".join(rows) + "]"

    @classmethod
    def binary(cls, field, a, b):
        """[a, b]: a x1^2 + x1 x2 + b x2^2."""
        return cls(field, [[a, field.one], [field.zero, b]])

    @classmethod
    def from_gram(cls, field, qvals, G):
        """The form with q(e_i) = qvals[i] and polar form G, read from the
        upper triangle of G alone; `polar_matrix()` rebuilds the polar
        matrix from the coefficients on first use."""
        return cls(field, [(*G[i][:i], q, *G[i][i + 1:])
                           for i, q in enumerate(qvals)])

    @classmethod
    def diagonal(cls, field, entries):
        z = field.zero
        n = len(entries)
        return cls(field, [[entries[i] if i == j else z for j in range(n)]
                           for i in range(n)])

    def evaluate(self, x):
        """q(x) over the nonzero terms in index order, the sum seeded with
        its first term."""
        if len(x) != self.n:
            raise NotApplicable(f"length {len(x)} vector, dimension {self.n}")
        U = self.U
        nz = [i for i, c in enumerate(x) if not c.is_exactly_zero()]
        acc = None
        for a, i in enumerate(nz):
            Ui, xi = U[i], x[i]
            for j in nz[a:]:
                if not Ui[j].is_exactly_zero():
                    # grouped so that monomial coordinates multiply first;
                    # value and precision do not depend on the grouping
                    t = Ui[j] * (xi * x[j])
                    acc = t if acc is None else acc + t
        return self.field.zero if acc is None else acc

    def polar_matrix(self):
        """B = U + U^T as rows of a tuple, built once per form; alternating
        in characteristic 2, with exact zeros on the diagonal even where
        U[i][i] is truncated.  Off the diagonal one of U[i][j], U[j][i] is
        the exact zero below the diagonal, so B[i][j] is the other."""
        if self._polar is None:
            U, n = self.U, self.n
            zero = self.field.zero
            alternating = self.field.char == 2
            self._polar = tuple(
                tuple(U[i][j] if i < j else U[j][i] if i > j
                      else zero if alternating else U[i][i] + U[i][i]
                      for j in range(n))
                for i in range(n))
        return self._polar

    def __neg__(self):
        return QuadraticForm(self.field, [[-c for c in row] for row in self.U])

    def ortho_sum(self, other: "QuadraticForm") -> "QuadraticForm":
        if other.field != self.field:
            raise NotApplicable("an orthogonal sum needs one field")
        out = QuadraticForm(self.field,
                            linalg.block_diag(self.U, other.U, self.field.zero))
        out._parts = (self, other)
        return out

    def scale(self, c) -> "QuadraticForm":
        _need_valued(self, "scale")
        if not c.is_certified_nonzero():
            raise SingularForm("scaling by (certified) zero")
        return QuadraticForm(self.field, [[c * v for v in row] for row in self.U])

    def change_basis(self, M) -> "QuadraticForm":
        """The form x -> q(Mx), M given by columns in the old basis."""
        _need_valued(self, "change_basis")
        if not linalg.is_invertible_certified(M):
            raise SingularMatrix("change of basis matrix not certified invertible")
        n = self.n
        G = linalg.mat_mul(linalg.mat_mul(linalg.transpose(M),
                                          [list(r) for r in self.U], self.field.zero),
                           M, self.field.zero)
        # q(Mx) has the diagonal of G = M^T U M and the polar part G + G^T
        return QuadraticForm(self.field, [[G[i][j] + G[j][i] if j > i else G[i][j]
                                           for j in range(n)] for i in range(n)])


def _need_valued(q: QuadraticForm, what: str):
    """NotApplicable for a form over a residue field: residue_witt splits
    and classifies those."""
    if not hasattr(q.field, "residue_field"):
        raise NotApplicable(f"{what} needs a valued field, not {q.field!r}; "
                            "use residue_witt.k_symplectic_blocks")


def gram_of(B, cols):
    """cols^T B cols as sparse rows: row r holds the (c, G_rc) pairs whose
    entry is not an exact zero, in c order (`linalg.sparse`).  B is
    symmetric, each of its rows and of the columns given sparse or as a
    coordinate list.

    On exact entries of a field with raw digits (`fields.raw_digits`:
    Q_2 and GF(2^m)((t))) the sums run on ints (`_gram_raw`), one element
    built per nonzero entry: an exact sum is canonical whatever its
    grouping.  Otherwise (B col_c)_i is formed when a pairing first
    reaches row i, over the pairs of row i of B whose index is in the
    support of col_c, so no entry is tested for zero; each sum runs in
    index order, seeded with its first term, as does
    G_rc = sum_i x_i (B col_c)_i over (i, x_i) in col_r, and the entries
    are formed row by row, in c order.  That order is kept where it
    shows: on truncated data it is where each sum's precision comes from,
    and over GF(2^m)(x) it decides at which product the degree cap trips.
    On exact input G_cr is copied from G_rc, r < c, while truncated input
    gets both triangles, whose sums can certify different precisions.
    """
    B = [linalg.sparse(row) for row in B]
    cols = [linalg.sparse(col) for col in cols]
    mirror = {x.abs_prec for v in (*B, *cols) for _, x in v} <= {None}
    if mirror:
        F = next((col[0][1].field for col in cols if col), None)
        raw = F is not None and raw_digits(F)
        if raw:
            return _gram_raw(raw, F, B, cols)
    m = len(cols)
    coords = [dict(col) for col in cols]
    images = [{} for _ in cols]  # images[c][i]: (B col_c)_i, None if zero
    G = [[] for _ in range(m)]
    for r, col in enumerate(cols):
        Gr = G[r]
        for c in range(r if mirror else 0, m):
            img = images[c]
            acc = None
            for i, x in col:
                if i in img:
                    b = img[i]
                else:
                    ys, b = coords[c], None
                    for j, bij in B[i]:
                        if j in ys:
                            t = bij * ys[j]
                            b = t if b is None else b + t
                    if b is not None and b.is_exactly_zero():
                        b = None
                    img[i] = b
                if b is not None:
                    t = x * b
                    acc = t if acc is None else acc + t
            if acc is not None and not acc.is_exactly_zero():
                Gr.append((c, acc))
                if mirror and c != r:
                    G[c].append((r, acc))
    return G


def _gram_raw(R, F, B, cols):
    """gram_of on exact entries over F, in its raw digits R
    (`fields.raw_digits`).  Every term of (B col_c)_i lies at or
    above vb + vc, vb and vc the least exponents in B and in the columns,
    and every term of a pairing at or above vb + 2 vc, so each sum is one
    int shifted to that base.  The Gram is formed column by column: the
    image B col_c is scattered over the rows of B in the support of col_c
    (B is symmetric) and reduced once, and each of its nonzero entries
    (B col_c)_i meets the entries x_i of the columns col_r, r <= c, that
    reach row i, each pairing one int; the entries are built in
    row-major order, one element each."""
    S, add, mul, reduce, make = R
    m = len(cols)
    vb = min([x.v0 for row in B for _, x in row], default=0)
    vc = min([x.v0 for col in cols for _, x in col], default=0)
    base = vb + 2 * vc
    G = [[] for _ in range(m)]
    at = {}  # row i -> (r, digits, shift) of x_i, for the col_r through i
    for r, col in enumerate(cols):
        for i, x in col:
            t = r, x.digits, S * (x.v0 - vc)
            if i in at:
                at[i].append(t)
            else:
                at[i] = [t]
    acc = {}  # r * m + c -> the pairing of col_r and col_c, r <= c
    for c, col in enumerate(cols):
        img = {}
        for j, y in col:
            yd, sy = y.digits, y.v0 - vc - vb
            for i, b in B[j]:
                t = ((b.digits if yd == 1 else mul(b.digits, yd))
                     << S * (b.v0 + sy))
                img[i] = add(img[i], t) if i in img else t
        for i, d in img.items():
            if reduce is not None:
                d = reduce(d)
            if d:
                for r, x, sx in at.get(i, ()):
                    if r <= c:
                        t = (d if x == 1 else mul(x, d)) << sx
                        k = r * m + c
                        acc[k] = add(acc[k], t) if k in acc else t
    for k in sorted(acc):
        d = acc[k]
        if reduce is not None:
            d = reduce(d)
        if d:
            r, c = divmod(k, m)
            g = make(F, d, base)
            G[r].append((c, g))
            if c != r:
                G[c].append((r, g))
    return G


def _updated(G, keep, live, entry):
    """G on the indices keep (ascending), read off its upper triangle and
    mirrored, with entry(r, c), r <= c, wherever r and c are both in live;
    field sums and products commute in value and precision, so the mirror
    is what the lower triangle would compute.  Elsewhere every term of the
    update is a product with an exact zero, which adds an exact zero and
    leaves the entry's value and precision as they are."""
    out = [[G[r][c] if r <= c else G[c][r] for c in keep] for r in keep]
    at = [b for b, c in enumerate(keep) if c in live]
    for i, a in enumerate(at):
        r = keep[a]
        for b in at[i:]:
            out[a][b] = out[b][a] = entry(r, keep[b])
    return out


def split_gram(G, F):
    """Symplectic Gram-Schmidt on a symmetric Gram matrix G over F; its
    one caller in the package, `_kept_split`, passes a form's polar
    matrix, and the working copy is read off its upper triangle at every
    step.

    While the diagonal has a certified-nonzero entry (characteristic 0),
    split off the line of the one of minimal valuation; once the diagonal
    is exactly zero, split off the plane of the certified-nonzero pairing
    of minimal valuation, ties broken lexicographically.  The Gram matrix
    of the working basis is maintained incrementally, on the entries
    whose row and column both have a line or pair coefficient that is not
    an exact zero, and a pair step forms only the terms whose two
    coefficients are not exact zeros and scales by b(e, f)^-1 only the
    entries that are not exact zeros, so the whole split costs O(n^3)
    field operations.

    Returns (blocks, rest, pivots).  blocks lists ("line", e, b(e, e)) and
    ("pair", e, f) with b(e, f) = 1, the vectors in the coordinates of G;
    rest is the Gram matrix of the complement left when no certified
    pivot remains, empty when G splits completely; pivots lists the
    valuation of each block's pivot: b(e, e) for a line, the pairing the
    pair step divided by for a pair.
    """
    n = len(G)
    vecs = linalg.identity(n, F.zero, F.one)
    G = [list(row) for row in G]
    blocks, pivots = [], []
    while vecs:
        m = len(vecs)
        idx = linalg.min_valuation((r, G[r][r]) for r in range(m))
        if idx is not None:
            e = vecs[idx]
            de = G[idx][idx]
            blocks.append(("line", e, de))
            pivots.append(de.valuation())
            keep = [r for r in range(m) if r != idx]
            if keep:  # only then, as inv can raise PrecisionExhausted
                dinv = de.inv()
            coef = {r: G[r][idx] * dinv for r in keep
                    if not G[r][idx].is_exactly_zero()}
            vecs = [linalg.combine(vecs[r], [(-coef[r], e)]) if r in coef
                    else vecs[r] for r in keep]

            def line_update(r, c):
                return (G[r][c] - coef[r] * G[idx][c] - coef[c] * G[r][idx]
                        + coef[r] * coef[c] * de)

            G = _updated(G, keep, coef, line_update)
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
        # b(e, f) = 1; an exact zero times ginv is that exact zero
        f = [c if c.is_exactly_zero() else c * ginv for c in vecs[j]]
        blocks.append(("pair", e, f))
        pivots.append(g.valuation())
        keep = [r for r in range(m) if r not in (i, j)]
        # with b(e,e) = b(f,f) = 0 and b(e,f) = 1: w' = w - b(w,f)e - b(w,e)f
        lam = {r: G[r][j] if G[r][j].is_exactly_zero() else G[r][j] * ginv
               for r in keep}
        mu = {r: G[r][i] for r in keep}
        vecs = [linalg.combine(vecs[r], [(-lam[r], e), (-mu[r], f)])
                for r in keep]
        live_lam = {r for r in keep if not lam[r].is_exactly_zero()}
        live_mu = {r for r in keep if not mu[r].is_exactly_zero()}

        def pair_update(r, c):
            acc = G[r][c]
            if c in live_lam and r in live_mu:
                acc = acc - lam[c] * mu[r]
            if c in live_mu and r in live_lam:
                acc = acc - mu[c] * lam[r]
            return acc

        G = _updated(G, keep, live_lam | live_mu, pair_update)
        if F.char == 2:
            # the complement Gram stays alternating; restore the structural
            # zeros that limited-precision cancellation cannot certify
            for r in range(len(G)):
                G[r][r] = F.zero
    return blocks, G, pivots


def symplectic_blocks(q: QuadraticForm):
    """Decompose q into <a> lines and binary [a,b] blocks.

    Returns (blocks, M): blocks are ("line", a, b(e, e)) or ("pair", a, b)
    tuples, a and b the q values of the basis vectors, M the basis-change
    matrix whose columns list the new basis grouped per block;
    q.change_basis(M) is the block-diagonal form.  The split is made once
    per form and kept; an orthogonal sum of exact forms merges it from
    the kept splits of its summands (see _merge).
    """
    _need_valued(q, "symplectic_blocks")
    split = None
    if q._split is None and q._parts is not None and is_exact(*q.U):
        split = _summands_split(q)
    if split is None:
        split = _kept_split(q)
    return ([blk for blk, _, _ in split],
            linalg.transpose([e for _, vecs, _ in split for e in vecs]))


def _kept_split(q: QuadraticForm):
    """q's split by split_gram on its polar matrix, kept on q: per block,
    the block symplectic_blocks reports, its basis vectors and the
    valuation of its pivot.  Raises as symplectic_blocks does when a rest
    is left, and keeps nothing then: SingularForm when the form has a
    radical, which on exact U the division-free elimination of
    linalg.is_invertible_certified decides, PrecisionExhausted when more
    precision may split it."""
    if q._split is None:
        blocks, rest, pivots = split_gram(q.polar_matrix(), q.field)
        if rest:
            if is_exact(*q.U):
                try:
                    if not linalg.is_invertible_certified(q.polar_matrix()):
                        raise SingularForm("form has a (certified) radical")
                except DegreeCapExceeded:
                    pass  # undecided; the checks below say how
            m = len(rest)
            if not all(rest[i][i].is_exactly_zero() for i in range(m)):
                raise PrecisionExhausted(
                    "diagonal polar entries indistinguishable from zero")
            if all(rest[i][j].is_exactly_zero() for i in range(m)
                   for j in range(i + 1, m)):
                raise SingularForm("form has a (certified) radical")
            raise PrecisionExhausted(
                "pairings indistinguishable from zero while splitting")
        q._split = [
            (("line", q.evaluate(e), x), (e,), v) if kind == "line" else
            (("pair", q.evaluate(e), q.evaluate(x)), (e, x), v)
            for (kind, e, x), v in zip(blocks, pivots)]
    return q._split


def _summands_split(q: QuadraticForm):
    """The split of an exact orthogonal sum merged from its summands'
    splits, down the tree of summands without recursion; None when some
    summand with no summands of its own leaves a rest or raises, and then
    the sum does too, so its own split_gram says how."""
    stack = [q]
    while stack:
        form = stack[-1]
        if form._split is None:
            if form._parts is None:
                try:
                    _kept_split(form)
                except WittlabError:
                    return None
            else:
                todo = [p for p in form._parts if p._split is None]
                if todo:
                    stack.extend(todo)
                    continue
                a, b = form._parts
                form._split = _merge(a._split, b._split, a.n, b.n,
                                     form.field.zero)
        stack.pop()
    return q._split


def _merge(s1, s2, n1, n2, zero):
    """The split of the orthogonal sum of two forms from their splits s1
    and s2, for a sum whose split_gram would run on diag(G1, G2).

    A step of split_gram touches only the rows of its pivot's summand: the
    entries across the summands are exact zeros, so every coefficient of
    a row of the other summand is one and adds nothing.  Each summand
    thus takes the steps of its own split, and the loop interleaves them:
    a line before a pair (a line is taken while any diagonal entry is
    certified nonzero), then the smaller pivot valuation, a tie to s1,
    whose rows come first.  The vectors are padded with exact zeros; the
    q values are the summands', as evaluate on the sum forms the same
    terms in the same order."""
    def rank(entry):
        return entry[0][0] == "pair", entry[2]

    pad1, pad2 = [zero] * n2, [zero] * n1
    out, i, j = [], 0, 0
    while i < len(s1) or j < len(s2):
        if j == len(s2) or i < len(s1) and rank(s1[i]) <= rank(s2[j]):
            blk, vecs, v = s1[i]
            out.append((blk, tuple([*e, *pad1] for e in vecs), v))
            i += 1
        else:
            blk, vecs, v = s2[j]
            out.append((blk, tuple([*pad2, *e] for e in vecs), v))
            j += 1
    return out


# -- Witt expressions and the relation engine --------------------------------


class Summand(Record):
    __slots__ = _fields = ("kind", "a", "b", "depth_bound")

    def __init__(self, kind, a, b=None, depth_bound=None):
        self.kind = kind  # "bin" or "diag"
        self.a = a
        self.b = b
        self.depth_bound = depth_bound  # guaranteed filtration bound, if tagged

    def pretty(self, field):
        if self.kind == "bin":
            return f"[{field.format_elem(self.a)}, {field.format_elem(self.b)}]"
        return f"<{field.format_elem(self.a)}>"


class WittExpr:
    """A formal orthogonal sum representing a Witt class."""

    def __init__(self, field, summands=()):
        self.field = field
        self.summands = tuple(summands)

    def __repr__(self):
        if not self.summands:
            return "0_W"
        return " + ".join(s.pretty(self.field) for s in self.summands) + "_W"

    @classmethod
    def binary(cls, field, a, b):
        return cls(field, [Summand("bin", a, b)])

    @classmethod
    def diagonal(cls, field, entries):
        if field.char == 2:
            raise RuleNotApplicable("diagonal summands need characteristic 0")
        return cls(field, [Summand("diag", e) for e in entries])

    def __add__(self, other: "WittExpr") -> "WittExpr":
        if other.field != self.field:
            raise NotApplicable("a sum of Witt expressions needs one field")
        return WittExpr(self.field, self.summands + other.summands)

    def replaced(self, at, new_summands) -> "WittExpr":
        at = sorted(at, reverse=True)
        items = list(self.summands)
        for i in at:
            items.pop(i)
        return WittExpr(self.field, items + list(new_summands))


def _need(cond, message):
    if not cond:
        raise RuleNotApplicable(message)


# the summand kinds each rule reads, one per index of `at`
_OPERANDS = {"a": ("bin",), "b": ("bin",), "c": ("bin",), "e": ("bin",),
             "d": ("bin", "bin"), "d_merge": ("bin", "bin"),
             "f": ("diag", "diag"), "g": ("diag", "diag")}


def rewrite(expr: WittExpr, rule: str, at, c=None) -> WittExpr:
    """Apply one relation of the binary-form engine at the given indices.

    Rules: "a" swap; "b" transfer of a square factor c^2 (needs c);
    "c" uniformizer shuffle; "d" the two-summand isometry; "d_merge"
    rule (d) on summands sharing their second entry, which keeps the
    merged first slot and, in characteristic 0, the remainder tagged
    with its depth bound; "e" deletion when v(ab) > 0; "f" diagonal
    pair to binary; "g" diagonal pair rewrite (characteristic 0 only
    for f, g).

    `at` is one index (a bare int for a one-summand rule) or a tuple of
    distinct indices of `expr.summands`, one per summand the rule reads;
    any other `at`, an unknown rule or a summand of the wrong kind
    raises RuleNotApplicable before a rule runs.
    """
    F = expr.field
    kinds = _OPERANDS.get(rule)
    _need(kinds is not None, f"unknown rule {rule!r}")
    name = f"rule ({rule[0]})"
    n = len(expr.summands)
    idxs = (at,) if isinstance(at, int) else \
        tuple(at) if isinstance(at, (tuple, list)) else ()
    _need(all(isinstance(i, int) and 0 <= i < n for i in idxs)
          and len(set(idxs)) == len(idxs) == len(kinds),
          f"{name} needs {('one index', 'two distinct indices')[len(kinds) - 1]}"
          f" in range({n})")
    _need(F.char == 0 or kinds[0] == "bin", f"{name} needs characteristic 0")
    terms = [expr.summands[i] for i in idxs]
    _need(all(x.kind == k for x, k in zip(terms, kinds)),
          f"{name} applies to " + ("binary summands" if kinds[0] == "bin"
                                   else "a diagonal pair"))
    s, t = terms[0], terms[-1]  # t is s for a one-summand rule

    if rule == "a":
        return expr.replaced(idxs, [Summand("bin", s.b, s.a)])

    if rule == "b":
        _need(c is not None and c.is_certified_nonzero(), "rule (b) needs c != 0")
        c2 = c * c
        return expr.replaced(idxs, [Summand("bin", s.a / c2, s.b * c2)])

    if rule == "c":
        pi = F.uniformizer()
        alpha = pi * s.a
        _need(alpha.low_bound() >= 0,
              "rule (c) needs v(a) >= -1 so that pi*a is integral")
        vb = s.b.low_bound()
        k = 0
        if vb != INF and vb < 0:
            k = (-int(vb) + 1) // 2
        return expr.replaced(idxs, [Summand("bin", s.b * pi ** (2 * k),
                                            alpha / pi ** (2 * k + 1))])

    if rule in ("d", "d_merge"):
        # [a,b] perp [c,d] is isometric to [a+c, b] perp
        # [-c/(1-4cd), d - b/(1-4ab)] via e1' = e1+e2, f1' = f1,
        # e2' = (e2-2cf2)/(1-4cd), f2' = (2be1-f1+(1-4ab)f2)/(1-4ab);
        # the second entry is d - b/(1-4ab), not (d-b)/(1-4ab): only the
        # former reproduces the Gram of that basis change.
        merge = rule == "d_merge"
        a, b, cc, d = s.a, s.b, t.a, t.b
        _need(not merge or (b - d).is_exactly_zero(),
              "merge needs summands with equal second entries")
        first = Summand("bin", a + cc, b)
        if F.char == 2:
            if merge:  # the remainder [-c, 0] is hyperbolic
                return expr.replaced(idxs, [first])
            den1 = den2 = F.one
        else:
            four = F.from_int(4)
            den2 = F.one - four * cc * d
            den1 = F.one - four * a * b
            _need(den1.is_certified_nonzero() and den2.is_certified_nonzero(),
                  f"{'merge' if merge else name} needs both summands nonsingular")
        ra, rb = (-cc) / den2, d - b / den1
        bound = None
        if merge:
            bound = Fraction(0)
            la, lb = ra.low_bound(), rb.low_bound()
            if la != INF and lb != INF:
                bound = max(Fraction(0), -Fraction(la + lb) / 2)
        return expr.replaced(idxs, [first, Summand("bin", ra, rb, bound)])

    if rule == "e":
        la, lb = s.a.low_bound(), s.b.low_bound()
        _need(la == INF or lb == INF or la + lb > 0,
              "rule (e) needs certified v(ab) > 0")
        return expr.replaced(idxs, [])

    a, b = s.a, t.a
    if rule == "f":
        _need(a.is_certified_nonzero(), "rule (f) needs a != 0")
        four_a2 = F.from_int(4) * a * a
        return expr.replaced(idxs, [Summand("bin", a, (a + b) / four_a2)])

    sab = a + b
    _need(a.is_certified_nonzero() and b.is_certified_nonzero()
          and sab.is_certified_nonzero(), "rule (g) needs a, b, a+b != 0")
    return expr.replaced(idxs, [Summand("diag", sab), Summand("diag", a * b * sab)])
