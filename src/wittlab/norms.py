"""v-norms compatible with quadratic forms and the wildness-index loop.

A v-norm is stored through a splitting basis (columns of an invertible
matrix over the base field) and rational values; alpha(sum l_i e_i) =
min(v(l_i) + gamma_i).  The builders and the reduction step make values
and depths on the grid (1/2)Z, as `Half`s (`fields.common`); norm_shift
lowers values by half a depth step, which can leave a value on the
quarter grid, and such a value stays a plain Fraction.

A depth certificate witnesses the three compatibility conditions at
depth eps: (a) and (b) are valuation bounds on the splitting basis, (c)
is invertibility over the residue field of the matrix of leading
coefficients, which is exactly nondegeneracy of the induced graded
form.  A certificate carries the Gram data it was certified with
(q(e_i), b(e_i, e_j) and their leading coefficients), so the induced
space, the depth-reduction step and the residue symbol read it instead
of recomputing it.  The Gram is kept as sparse rows (`linalg.sparse`):
row i holds the (j, b(e_i, e_j)) pairs whose entry is not an exact
zero, in j order.  On exact data the rows are mirrored; on truncated
data they hold both triangles as `gram_of` formed them, whose sums can
certify different precisions.  Only split_respecting_norm reads a dense
view (`DepthCertificate.gram`).  One pass over the upper-triangle pairs
of the rows checks (a), its bounds compared as ints in units of the
common denominator of the values and eps, and collects the entries that
lead at their threshold.  (c) is then the rank of the rows of the
mirrored leading coefficients in `residue_witt._vectors`, the layout of
the residue-field plane splitter `residue_witt._split_plane`:
elimination on ints packed straight from the leading entries over
GF(2^m), `linalg.independent_rows` on coordinate tuples over
GF(2^m)(x), where a degree cap can trip.  It keeps the packed
rows of the rank test too: the induced space splits on them, and over
GF(2^m) they key the memos of `graded.metabolic_planes` and, at
integer depth, `graded.orbit_invariants` (with k, the type, eps, the
degrees and the packed q values: `graded._space_key`), so a depth step
whose induced space an earlier step met looks its planes and its
residue invariants up.

Depth reduction follows the constructive proof of the metabolicity
criterion: decompose the induced space into metabolic planes, lift the
witness basis through the section, measure the slack eps' > 0, raise
the values of the isotropic half by eps'.  The descent repeats it until
the induced space carries a nonzero residue invariant, which is returned
as the irreducibility evidence and kept on the final certificate for
the residue symbol.  The wildness index descends from initial_norm once
per form: the form keeps every part of the final certificate but the
form itself (QuadraticForm._wild), and each later call, so the symbol
and the canonical decomposition of the same form, wraps those parts in
a new certificate.  The certificates of one form share those parts, so
no code changes them in place.  The parts leave the form out because a
certificate refers to its form: kept whole, it would tie the two in a
reference cycle that only the cyclic collector frees.  A descent that
raises keeps nothing, so the next call raises again.

An orthogonal sum of eps-compatible norms is eps-compatible, so
extend_certificate joins a certificate and the builder norm of a summand
of dimension one or two, brought to the same depth, into a certificate
of the orthogonal sum.  Its Gram data is block diagonal and reuses the
old block, and a single check_compatibility recertifies the whole basis.
The canonical recursion resumes each round this way.  The basis of such
a certificate differs from the one wildness_index finds for the same
form; the depth and the residue symbol do not.

Gram matrices are symmetric.  initial_norm takes its q values from the
split's evaluations, and on an exact form and split basis its Gram too,
its rows emitted block by block: b(e, e) on a line, 1 for b(e, f) on a
pair, nothing across blocks; otherwise gram_of forms the Gram rows on
the basis columns.  extend_certificate appends the summand's polar rows,
shifted past the old block, to the old rows.  The split is the form's
kept `symplectic_blocks`, which an exact orthogonal sum merges from its
summands' splits, so a summand that enters many sums is split once.
check_compatibility reads the upper triangle, which (a) certifies (an
exact zero passes (a) and leads with zero), and mirrors the leading
coefficients.
depth_reduce keeps each new basis vector sum h_i e_i, h_i = s(c) t^d an
exact monomial, as a sparse column of (i, h_i) pairs read off the
plane vector's support (`graded.GradedVector.support`); on exact qe and
be it forms H^T be H with gram_of on the rows of be and the q values
over the same pairs (exact values are canonical, so the bytes are those
of the ambient columns); otherwise, or when that trips the degree cap
over GF(2^m)(x), it lifts the ambient columns, H times the transposed
basis by `linalg.mat_mul` on the sparse rows H, and re-forms the Gram
rows from the polar matrix.  A reduced norm, and norm_sum and
norm_shift of one, lifts its ambient basis on the first read, from the
bases of the norms it came from; a long descent chains many such norms,
and the first read walks the chain in a loop.
"""

from __future__ import annotations

from copy import copy
from fractions import Fraction
from math import lcm

from . import graded, linalg, residue_witt
from .errors import (DegreeCapExceeded, GridViolation, NotApplicable,
                     PrecisionExhausted, Record, SingularForm)
from .fields.common import INF, AtLeast, grid, half, is_exact
from .graded import ShiftedQuadSpace
from .quadform import QuadraticForm, gram_of, symplectic_blocks


class VNorm:
    """Splitting basis (matrix columns) plus values.  Given lift, a pair
    (parents, step), instead of a basis, its basis is step applied to the
    bases of the parent norms, formed on the first read."""

    def __init__(self, field, basis, values, lift=None):
        self.field = field
        self._basis = None if lift else tuple(tuple(row) for row in basis)
        self._lift = lift
        self.values = tuple(map(grid, values))
        self.n = len(self.values)

    def __repr__(self):
        return f"VNorm(values={[str(v) for v in self.values]})"

    @property
    def basis(self):
        if self._basis is not None:
            return self._basis
        # a descent of many depth steps chains as many lazy norms, so the
        # chain is walked with a stack, not by recursion: down to the
        # formed bases, then each step forward
        stack = [self]
        while stack:
            norm = stack[-1]
            if norm._basis is None:
                parents, step = norm._lift
                todo = [p for p in parents if p._basis is None]
                if todo:
                    stack.extend(todo)
                    continue
                norm._basis = tuple(tuple(row) for row in
                                    step(*(p._basis for p in parents)))
                norm._lift = None
            stack.pop()
        return self._basis

    def column(self, i):
        return [row[i] for row in self.basis]

    def value(self, x):
        """alpha(x) by expansion in the splitting basis."""
        if all(c.is_exactly_zero() for c in x):
            return INF
        lam = linalg.solve_valued([list(r) for r in self.basis], [[c] for c in x])
        best = None
        bound = None
        for i in range(self.n):
            v = lam[i][0].valuation()
            if isinstance(v, AtLeast):
                b = v.bound + self.values[i]
                bound = b if bound is None else min(bound, b)
            elif v != INF:
                c = v + self.values[i]
                best = c if best is None else min(best, c)
        if best is None:
            return AtLeast(bound) if bound is not None else INF
        if bound is not None and bound <= best:
            raise PrecisionExhausted(
                "norm value hidden below the certified precision")
        return best


class CompatibilityViolation(Record):
    __slots__ = _fields = ("condition", "detail")

    def __init__(self, condition, detail):
        self.condition = condition  # "a", "b" or "c"
        self.detail = detail

    def __repr__(self):
        return f"violation of ({self.condition}): {self.detail}"


class DepthCertificate(Record):
    """The form, the norm and the depth it is compatible at, with the Gram
    data on the norm's splitting basis that certified it: qe[i] = q(e_i);
    be, the Gram b(e_i, e_j) as sparse rows, be[i] the (j, b(e_i, e_j))
    pairs that are not exact zeros, in j order; and lead[i][j], the
    residue coefficient of b(e_i, e_j) at degree g_i + g_j + eps.  The
    Gram data takes no part in ==."""

    __slots__ = ("form", "norm", "eps", "qe", "be", "lead", "rows", "evidence")
    _fields = ("form", "norm", "eps")
    __hash__ = None
    checked = ("a", "b", "c")

    def __init__(self, form, norm, eps, qe, be, lead, rows=None, evidence=None):
        self.form = form
        self.norm = norm
        self.eps = eps
        self.qe = qe
        self.be = be
        self.lead = lead
        # the rows of lead in the layout of residue_witt._vectors, which the
        # rank test of (c) formed and the induced space splits on
        self.rows = rows
        # orbit -> residue invariant of the induced space, kept by descend
        # from the NotReducible step that stopped it
        self.evidence = evidence

    def revalidate(self):
        """Recheck from form, norm and eps alone, ignoring the Gram data."""
        res = check_compatibility(self.form, self.norm, self.eps)
        return isinstance(res, DepthCertificate)

    def gram(self):
        """be as a dense n x n matrix."""
        return linalg.dense(self.be, self.form.field.zero)


def _gram_on_basis(q: QuadraticForm, norm: VNorm):
    cols = [norm.column(i) for i in range(norm.n)]
    qe = [q.evaluate(c) for c in cols]
    be = gram_of(q.polar_matrix(), cols)
    return qe, be


def check_compatibility(q: QuadraticForm, norm: VNorm, eps,
                        _gram=None) -> "DepthCertificate | CompatibilityViolation":
    """Verify (a), (b) on the splitting basis and (c) as nondegeneracy of
    the induced graded form; returns a certificate or the first violation.

    _gram, a (qe, be) pair already computed on the norm's basis, be as
    the sparse rows of a DepthCertificate, is used instead of recomputing
    it."""
    eps = grid(eps)
    if q.n != norm.n:
        return CompatibilityViolation("a", "dimension mismatch")
    qe, be = _gram if _gram is not None else _gram_on_basis(q, norm)
    g = norm.values
    n = norm.n
    # the bounds in units of 1/D, D the common denominator of the values
    # and eps (1, 2 or 4), so that each comparison is one of ints
    D = lcm(eps.denominator, *(v.denominator for v in g))
    e = D * eps.numerator // eps.denominator
    gD = [D * v.numerator // v.denominator for v in g]
    for i in range(n):
        lb = qe[i].low_bound()
        if lb * D < 2 * gD[i]:
            if qe[i].is_certified_nonzero():
                return CompatibilityViolation(
                    "b", f"v(q(e_{i})) = {lb} < {2 * g[i]}")
            raise PrecisionExhausted(
                f"cannot certify v(q(e_{i})) >= {2 * g[i]}")
    # one pass over the upper triangle of the rows, thr = g_i + g_j + eps:
    # (a), and the entries that lead at thr.  An exact zero, which the rows
    # leave out, passes (a) and leads with zero, and so does an entry
    # certified above thr
    at = []
    for i, row in enumerate(be):
        ti = gD[i] + e
        for j, b in row:
            if j < i:
                continue
            lb = b.low_bound()
            if lb * D < ti + gD[j]:
                thr = g[i] + eps + g[j]
                if b.is_certified_nonzero():
                    return CompatibilityViolation(
                        "a", f"v(b(e_{i},e_{j})) = {lb} < {thr}")
                raise PrecisionExhausted(
                    f"cannot certify v(b(e_{i},e_{j})) >= {thr}")
            if lb * D == ti + gD[j]:
                at.append((i, j, b, lb))
    # b is symmetric: read the upper triangle that (a) certified, mirror it
    k = q.field.residue_field
    lead = [[k.zero] * n for _ in range(n)]
    at = [(i, j, b.coeff_at(deg)) for i, j, b, deg in at]
    for i, j, c in at:
        lead[i][j] = lead[j][i] = c
    vec = residue_witt._vectors(k)
    rows = vec.pack_symmetric(lead, at)
    if vec.rank(rows) < n:
        return CompatibilityViolation(
            "c", "induced graded bilinear form is degenerate")
    return DepthCertificate(q, norm, eps, qe, be, lead, rows)


def require_certificate(q, norm, eps, _gram=None) -> DepthCertificate:
    res = check_compatibility(q, norm, eps, _gram=_gram)
    if isinstance(res, CompatibilityViolation):
        raise NotApplicable(repr(res))
    return res


def _require_certified_form(q: QuadraticForm, cert: DepthCertificate):
    if q is not cert.form and q.U != cert.form.U:
        raise NotApplicable("the form is not the one the certificate is for")


def induced_space(q: QuadraticForm, cert: DepthCertificate) -> ShiftedQuadSpace:
    """Leading-coefficient graded space of the certified norm, read off
    the certificate's Gram data; q must be the certified form."""
    _require_certified_form(q, cert)
    F = q.field
    g = cert.norm.values
    eps = cert.eps
    qv = [cert.qe[i].coeff_at(2 * g[i]) for i in range(cert.norm.n)]
    v2 = F.v2
    if eps == 0:
        tag = "I"
    elif v2 != INF and eps == v2:
        tag = "III"
    else:
        tag = "II"
    return ShiftedQuadSpace(F.residue_field, v2, eps, list(g), qv, cert.lead,
                            tag, cert.rows)


# -- norm algebra ------------------------------------------------------------


def norm_sum(n1: VNorm, n2: VNorm) -> VNorm:
    if n1.field != n2.field:
        raise NotApplicable("norm_sum needs two norms over one field")
    return VNorm(n1.field, None, n1.values + n2.values, lift=(
        (n1, n2), lambda b1, b2: linalg.block_diag(b1, b2, n1.field.zero)))


def norm_shift(norm: VNorm, old_depth, new_depth) -> VNorm:
    """Raise the depth from old to new by lowering all values by half the
    difference (the depth-raising construction)."""
    old_depth, new_depth = Fraction(old_depth), Fraction(new_depth)
    if new_depth < old_depth:
        raise NotApplicable("norm_shift only raises the depth")
    if (2 * (new_depth - old_depth)).denominator != 1:
        raise GridViolation(
            f"depth step {new_depth - old_depth} is off the half-integer grid")
    shift = (new_depth - old_depth) / 2
    return VNorm(norm.field, None, [v - shift for v in norm.values],
                 lift=((norm,), lambda basis: basis))


def builder_binary(field, a, b):
    """A compatible norm for [a, b] on its standard basis, with its depth."""
    va, vb = a.valuation(), b.valuation()
    la = va if not isinstance(va, AtLeast) else None
    lb = vb if not isinstance(vb, AtLeast) else None
    e = [[field.one, field.zero], [field.zero, field.one]]
    la_bound, lb_bound = a.low_bound(), b.low_bound()
    if la is not None and lb is not None and la != INF and lb != INF \
            and la + lb <= 0:
        eps = half(-(la + lb))
        if field.v2 != INF and eps >= field.v2:
            raise NotApplicable(
                f"depth {eps} >= v(2); no compatible norm from this builder")
        return VNorm(field, e, [half(la), half(lb)]), eps
    if la_bound + lb_bound < 0:
        raise PrecisionExhausted(
            "a truncated entry leaves the sign of v(a) + v(b) uncertified")
    # v(a) + v(b) >= 0 certified from here on: depth 0
    zero = half(0)
    if lb_bound < 0:
        h = half(lb_bound)
        return VNorm(field, e, [-h, h]), zero
    if la_bound < 0:
        h = half(la_bound)
        return VNorm(field, e, [h, -h]), zero
    return VNorm(field, e, [zero, zero]), zero


def builder_unary(field, a):
    """<a> in characteristic 0: depth exactly v(2)."""
    if field.char != 0:
        raise NotApplicable("one-dimensional forms are singular in char 2")
    va = a.valuation()
    if isinstance(va, AtLeast):
        raise PrecisionExhausted("a line entry is zero only to precision")
    if va == INF:
        raise NotApplicable("cannot build a norm on a zero form")
    return VNorm(field, [[field.one]], [half(va)]), field.v2


def _values_at_depth(built, eps):
    """The values of a builder norm of depth d <= eps, raised to depth eps.

    A binary block is raised by lowering only its first value by the full
    difference eps - d, which keeps every value on the half-integer grid;
    lines sit at v(2), the largest depth, already."""
    norm, d = built
    vals = list(norm.values)
    if d < eps:
        vals[0] -= eps - d
    return vals


def initial_norm(q: QuadraticForm) -> DepthCertificate:
    """Blockwise norms lifted to the maximal block depth (see
    _values_at_depth), certified on the split's Gram data."""
    if q.n == 0:
        return require_certificate(q, VNorm(q.field, [], []), half(0))
    F = q.field
    blocks, M = symplectic_blocks(q)
    built, qe = [], []
    for blk in blocks:
        if blk[0] == "line":
            built.append(builder_unary(F, blk[1]))
            qe.append(blk[1])
        else:
            built.append(builder_binary(F, blk[1], blk[2]))
            qe.extend(blk[1:])
    eps = max(b[1] for b in built)
    values = [v for b in built for v in _values_at_depth(b, eps)]
    if is_exact(*q.U, *M):
        # the rows of the Gram the split formed: b(e, e) on a line,
        # b(e, f) = 1 on a pair, nothing across blocks
        be = []
        for blk in blocks:
            at = len(be)
            if blk[0] == "line":
                be.append([(at, blk[2])])
            else:
                be += [(at + 1, F.one)], [(at, F.one)]
    else:
        be = gram_of(q.polar_matrix(), linalg.transpose(M))
    res = check_compatibility(q, VNorm(F, M, values), eps, _gram=(qe, be))
    if isinstance(res, CompatibilityViolation):
        raise SingularForm(f"initial norm failed to certify: {res!r}")
    return res


def extend_certificate(cert: DepthCertificate,
                       summand: QuadraticForm) -> DepthCertificate:
    """A certificate for cert.form + summand (orthogonal sum) at cert.eps.

    The summand is a line <a> (characteristic 0) or a binary [a, b] on its
    standard basis, with b(e_1, e_2) a unit.  Its builder norm is brought
    to cert.eps as in initial_norm and joined to cert.norm by norm_sum.
    The Gram data on the joined basis is block diagonal: the old block is
    the certificate's own, the summand's block is new, and the cross
    entries are exact zeros.  One check_compatibility then recertifies
    (a), (b) and (c) on the full basis.
    """
    F = summand.field
    U = summand.U
    if summand.n == 1:
        built = builder_unary(F, U[0][0])
    elif summand.n == 2:
        built = builder_binary(F, U[0][0], U[1][1])
    else:
        raise NotApplicable("a summand has dimension one or two")
    eps = cert.eps
    if built[1] > eps:
        raise NotApplicable(
            f"summand depth {built[1]} exceeds the certified depth {eps}")
    norm = VNorm(F, built[0].basis, _values_at_depth(built, eps))
    # on the builder's standard basis the q values are U's diagonal and
    # the Gram is the polar matrix, its rows shifted past the old block
    sq = [U[i][i] for i in range(summand.n)]
    n = cert.norm.n
    rows = [[(n + j, b) for j, b in linalg.sparse(row)]
            for row in summand.polar_matrix()]
    return require_certificate(
        cert.form.ortho_sum(summand), norm_sum(cert.norm, norm), eps,
        _gram=(list(cert.qe) + sq, cert.be + rows))


def split_respecting_norm(q: QuadraticForm, cert: DepthCertificate):
    """Binary orthogonal blocks whose restricted norms stay eps-compatible.

    Returns a list of ((a, b), block values, block basis columns in
    ambient coordinates), each block the binary form [a, b].
    """
    F = q.field
    eps = cert.eps
    if F.v2 != INF and eps >= F.v2:
        raise NotApplicable("binary splitting requires eps < v(2)")
    _require_certified_form(q, cert)
    vecs = [cert.norm.column(i) for i in range(cert.norm.n)]
    vals = list(cert.norm.values)
    G = cert.gram()
    blocks = []
    while vecs:
        m = len(vecs)
        lead = None
        for i in range(m):
            for j in range(i + 1, m):
                thr = vals[i] + vals[j] + eps
                c = G[i][j].coeff_at(thr)
                if not c.is_zero():
                    lead = (i, j)
                    break
            if lead:
                break
        if lead is None:
            raise PrecisionExhausted(
                "no pivot pair achieves equality; certificate inconsistent")
        i, j = lead
        gij = G[i][j]
        giv = gij.inv()
        e = vecs[i]
        f = [c * giv for c in vecs[j]]  # b(e, f) = 1
        ge, gf = vals[i], vals[j] - gij.valuation()
        blocks.append(((q.evaluate(e), q.evaluate(f)), (ge, gf), (e, f)))
        keep = [r for r in range(m) if r not in (i, j)]
        # orthogonal projection away from span(e, f): the determinant
        # formulas guarantee the projection never lowers the norm value
        gee, gff, gef = G[i][i], G[j][j] * giv * giv, F.one
        d0 = gee * gff - gef * gef
        d0i = d0.inv()
        lam = {r: (G[r][i] * gff - gef * (G[r][j] * giv)) * d0i for r in keep}
        mu = {r: (gee * (G[r][j] * giv) - G[r][i] * gef) * d0i for r in keep}
        vecs = [linalg.combine(vecs[r], [(-lam[r], e), (-mu[r], f)])
                for r in keep]
        vals = [vals[r] for r in keep]
        # b(u', w') = b(u, w') since u' is already orthogonal to e and f
        G = [[G[r][c] - lam[c] * G[r][i] - mu[c] * (G[r][j] * giv)
              for c in keep] for r in keep]
    return blocks


class NotReducible(Record):
    """Evidence that the induced space at this depth is not metabolic."""

    __slots__ = _fields = ("depth", "evidence")
    __hash__ = None

    def __init__(self, depth, evidence):
        self.depth = depth
        self.evidence = evidence  # orbit -> nonzero residue invariant

    def __repr__(self):
        return f"NotReducible(depth={self.depth})"


def _is_exact(cert: DepthCertificate) -> bool:
    """Whether every entry of the certificate's Gram data is exact; the
    exact zeros the rows leave out are."""
    return is_exact(cert.qe, [b for row in cert.be for _, b in row])


def _gram_and_slack(B, cols, qval, head, slack):
    """(eps', q values, Gram rows) of the columns by gram_of over B and qval;
    slack gets the Gram and q values of cols[:head] before any entry of a
    later column is formed."""
    qe, eps = [], []

    def on_head(Ge):
        qe.extend(map(qval, cols[:head]))
        eps.append(slack(Ge, qe))
        qe.extend(map(qval, cols[head:]))

    G = gram_of(B, cols, head=head, on_head=on_head)
    return eps[0], qe, G


def _gram_by_congruence(cert: DepthCertificate, H, head, slack):
    """The same for the vectors sum_i h_i e_i on the certificate's basis,
    H their sparse columns of (i, h_i) pairs: the Gram H^T be H, and the q
    values sum h_i^2 qe_i + sum_{i<j} h_i h_j be_ij, term by term as
    QuadraticForm.evaluate forms them.  Exact entries are canonical, so on
    exact Gram data the bytes are those the ambient columns give."""
    qe, be = cert.qe, cert.be
    zero = cert.form.field.zero

    def qval(h):
        acc = None
        for a, (i, hi) in enumerate(h):
            u = qe[i]
            if not u.is_exactly_zero():
                t = u * (hi * hi)
                acc = t if acc is None else acc + t
            if a + 1 < len(h):
                row = dict(be[i])
                for j, hj in h[a + 1:]:
                    u = row.get(j)
                    if u is not None:
                        t = u * (hi * hj)
                        acc = t if acc is None else acc + t
        return zero if acc is None else acc

    return _gram_and_slack(be, H, qval, head, slack)


def _gram_by_reforming(q: QuadraticForm, cols, head, slack):
    """The same for the ambient columns, re-formed from q."""
    return _gram_and_slack(q.polar_matrix(), cols, q.evaluate, head, slack)


def depth_reduce(q: QuadraticForm, cert: DepthCertificate):
    """One constructive reduction step, or NotReducible with evidence."""
    gamma = cert.eps
    if gamma <= 0:
        raise NotApplicable("depth_reduce needs a positive depth")
    S = induced_space(q, cert)
    planes = graded.metabolic_planes(S)
    if planes is None:
        return NotReducible(gamma, graded.orbit_invariants(S))
    F = q.field
    parent = cert.norm

    def sparse(gv):
        # the plane vector as sum h_i e_i, h_i = s(c) t^d an exact monomial
        return [(i, F.lift_homog(gv.coords[i], gv.degree - S.degrees[i]))
                for i in gv.support]

    # x_1, ..., x_k, y_1, ..., y_k
    H = [sparse(x) for x, _ in planes] + [sparse(y) for _, y in planes]
    head = len(planes)
    e_vals = [x.degree for x, _ in planes]
    f_vals = [y.degree for _, y in planes]

    def certify_slack(Ge, qe):
        # eps' from the e block, before any entry of an f column is formed:
        # f arithmetic may raise (DegreeCapExceeded over GF(2^m)(x)) and must
        # not pre-empt the PrecisionExhausted here
        terms = [gamma]
        for l, row in enumerate(Ge):
            qv = qe[l].low_bound()
            if qv != INF:
                terms.append(half(qv) - e_vals[l])
            for m, b in row:
                if m == l:
                    continue
                bb = b.low_bound()
                if bb != INF:
                    terms.append(bb - e_vals[l] - e_vals[m] - gamma)
        eps_prime = min(terms)
        if eps_prime <= 0:
            raise PrecisionExhausted(
                "metabolic witness slack not certified positive")
        return eps_prime

    def ambient(basis):
        # the columns sum_i h_i e_i, e_i the columns of basis
        return linalg.mat_mul(H, linalg.transpose(basis), F.zero)

    gram = lifted = None
    if _is_exact(cert):
        try:
            gram = _gram_by_congruence(cert, H, head, certify_slack)
        except DegreeCapExceeded:
            pass  # the ambient sums may stay under the cap
    if gram is None:
        lifted = ambient(parent.basis)
        gram = _gram_by_reforming(q, lifted, head, certify_slack)
    eps_prime, qe, G = gram
    values = [v + eps_prime for v in e_vals] + f_vals
    new_norm = VNorm(F, None, values, lift=((parent,), lambda basis:
        linalg.transpose(ambient(basis) if lifted is None else lifted)))
    res = check_compatibility(q, new_norm, gamma - eps_prime, _gram=(qe, G))
    if isinstance(res, CompatibilityViolation):
        raise PrecisionExhausted(
            f"reduced norm failed to re-certify: {res!r}")
    return res


def descend(cert: DepthCertificate) -> DepthCertificate:
    """Loop depth_reduce from cert down to the minimal depth of its form.

    A descent that stops at a NotReducible step returns the certificate
    with that step's evidence, which the residue symbol then reads."""
    while cert.eps > 0:
        step = depth_reduce(cert.form, cert)
        if isinstance(step, NotReducible):
            cert = copy(cert)
            cert.evidence = step.evidence
            return cert
        cert = step
    return cert


def wildness_index(q: QuadraticForm):
    """(minimal depth, certificate at that depth); descends from
    initial_norm on the first call for q, and later calls wrap the kept
    parts in a new certificate."""
    if q._wild is None:
        c = descend(initial_norm(q))
        # all but the form: kept, it would tie q and its parts in a cycle
        q._wild = dict(norm=c.norm, eps=c.eps, qe=c.qe, be=c.be, lead=c.lead,
                       rows=c.rows, evidence=c.evidence)
    cert = DepthCertificate(q, **q._wild)
    return cert.eps, cert
