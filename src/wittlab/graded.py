"""Shifted graded quadratic spaces over gr_v(F) = k[T, T^-1], value group Z.

Since the graded field is a Laurent ring over the residue field k with
the degree-1 generator T (the image of the canonical uniformizer), a
homogeneous quantity is stored as its k-coefficient, the T-power being
implied by the degree slot.  A space holds basis degrees gamma_i (exact
rationals), the k-coefficients of q(e_i) at degree 2*gamma_i, and the
k-coefficients of b(e_i, e_j) at degree gamma_i + gamma_j + eps; slots
whose implied degree is not an integer are forced to zero.  The degrees
and eps are built with `fields.common.grid`: a `Half` on (1/2)Z, whose
coset in Q/Z is read off its doubled numerator, and a plain `Fraction`
off it (a degree such as 1/3, which pairs freely with its involute).

Types: I (eps = 0, b is the polar of q), II (q totally singular, b
alternating), III (q(v) = tau^-1 b(v,v) for tau = the image of 2, only
over Q_2 at eps = v(2)).  Homogeneous isotropic-vector search reduces
degree-class by degree-class to residue-field problems: semilinear
kernels for types II/III, and for type I the isotropic search of
`residue_witt` on the polar rows of the class.  The plane split is
`residue_witt._split_plane`, the one residue-field plane splitter: each
round of `metabolic_planes` runs it on an isotropic relation, which
names the two rows each projection makes dependent, so no elimination
chooses the kept basis; the Gram rows and q values of the kept rows are
updated in place.  The type-I and type-II descents are split by it too
(`residue_witt.kquad_witt_class`, `sq_normalize`); a type-III descent
needs no split (below).  The splitter's vectors and Gram rows are in the
layout `residue_witt._vectors(k)`: ints in the slot layout of
`GF2m.packing` over GF(2^m), coordinate tuples over GF(2^m)(x).  The
planes leave `metabolic_planes` as `GradedVector`s, whose construction
is the one check of the degree grid.  A `GradedVector` carries its
support, the indices of its nonzero coordinates, which over GF(2^m) is
read off the packed slots; the grid check and the monomial columns of
`norms.depth_reduce` run over it, not over the whole coordinate
tuple.  The dual q values of a half-integer descent, totally singular
over k, are those of `QuadraticForm.diagonal` (`evaluate`).  The rank
test of condition (c) in `norms.check_compatibility` runs on the same
layouts (`rank`), and keeps its packed rows on the certificate; the
induced space hands them to `metabolic_planes`
(`ShiftedQuadSpace.rows`), so no row is packed twice, and a space built
without them packs bmat.

Over GF(2^m) the rounds of `metabolic_planes` are a pure function,
`_plane_rounds`, of (k, type, eps, degrees, q values, Gram rows), and
the sums of W_q(Q_2) classes meet the same small spaces again and
again, so they are looked up in `planes_memo`: one `functools.lru_cache`
of `PLANES_MEMO_SIZE` = 1024 entries, which holds the whole working set
of the bench's `q2-class-sums` (about 600 spaces).  Its key,
`_space_key`, is k, the type tag, eps, the degrees, the q values packed
into one int and the packed Gram rows; its value is the planes as
(degree, packed vector) pairs, x then y of each plane in one flat
tuple, or None: never a space or a `GradedVector`, and no tuple per
plane.  An error is never kept, so it is raised again on the next
call.  Each call, a hit too, builds new `GradedVector`s of the caller's
space, so every plane refers to that space and the degree grid is
checked on every call.
`planes_memo.cache_info()` gives the hit and miss counts and
`cache_clear()` empties it.  Over GF(2^m)(x) the rounds run without the
memo: the key would hash and compare rational-function coordinates
entry by entry, and the bench's `ratfunc-semidecision` meets few spaces
twice.

The depth-0 symbol of a round is read off `orbit_invariants`, which
took 17.8 % of the `q2-class-sums` loop before it had a memo (seed 1,
640 ops, timed around each call).  Its integer-eps calls over GF(2^m) for the default choice,
types I and II, took 12.4 %, and 57 % of them met a space already seen
(273 distinct ones).  Those are looked up in `invariants_memo`, under
the same `_space_key` and with the same bound: the descent reads no
field of the space outside the key.  Its value is the (orbit, invariant)
pairs, and every call builds a new dict of them; an error is never
kept.  A type-III orbit is a parity read without a descent (below), a
given choice descends anew, and GF(2^m)(x) spaces skip it as they skip
`planes_memo`.  The half-integer branch (`descend_case2`) is not
memoized: the traced pass of `bench/run.py --trace 1` replays the ops
of its untraced pass in the same process, and must still reach the
layers that branch calls (`linalg.invert_exact` on `laurent-pipeline`),
which a warm memo would skip.

A type-III orbit needs no split either.  Its descent is a nondegenerate
symmetric bilinear form over k, which Gram-Schmidt splits into lines
and an alternating rest, metabolic and of even dimension, so its class
is the dimension of its principal coset mod 2 (`orbit_invariants`); over
the perfect residue field of Q_2, the one type III occurs over, every
unit is a square and <1, 1> is metabolic, so that parity is its W(k)
class.  A coset that b pairs with itself holds whole planes only, so
one of odd dimension stops `metabolic_planes` before its first round.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import linalg, residue_witt
from .errors import (DegenerateForm, GridViolation, NotApplicable, Record,
                     SingularMatrix, Undecidable, WittlabError, WrongCase)
from .fields.common import HALF, INF, grid, half
from .fields.gf2m import GF2m
from .quadform import QuadraticForm
from .residue_witt import SeparatedSpace, SymplecticQuadSpace, sq_normalize


def _is_int(d: Fraction) -> bool:
    return d.denominator == 1


def coset(d: Fraction) -> Fraction:
    return d % 1


class HomogeneousScalar(Record):
    """A nonzero homogeneous element coeff * T^degree of the graded field."""

    __slots__ = _fields = ("degree", "coeff")

    def __init__(self, degree, coeff):
        if not _is_int(degree):
            raise GridViolation("graded field is supported in integer degrees")
        if coeff.is_zero():
            raise NotApplicable("a homogeneous scalar needs a nonzero coefficient")
        self.degree = degree
        self.coeff = coeff


class ShiftedQuadSpace:
    """rows, when given, are the rows of bmat in the layout of
    `residue_witt._vectors(k)`, which `metabolic_planes` splits on instead
    of packing bmat again."""

    def __init__(self, k, v2, eps, degrees, qvals, bmat, type_tag, rows=None):
        self.k = k
        self.v2 = v2  # Fraction or INF; needed to tell types II and III apart
        self.eps = grid(eps)
        self.degrees = tuple(map(grid, degrees))
        self.qvals = tuple(qvals)
        self.bmat = tuple(tuple(row) for row in bmat)
        self.type_tag = type_tag
        self.n = len(self.degrees)
        self.rows = None if rows is None else tuple(rows)

    def __repr__(self):
        return (f"ShiftedQuadSpace(eps={self.eps}, type {self.type_tag}, "
                f"degrees={[str(d) for d in self.degrees]})")


class GradedVector(Record):
    """Homogeneous vector: coords[i] multiplies T^(degree - gamma_i) e_i.
    support lists the i with coords[i] nonzero, ascending; read off the
    coordinates when not given."""

    __slots__ = ("space", "degree", "coords", "support")
    _fields = ("space", "degree", "coords")

    def __init__(self, space, degree, coords, support=None):
        self.space = space
        self.degree = degree
        self.coords = coords
        if support is None:
            support = tuple(i for i, c in enumerate(coords) if not c.is_zero())
        self.support = support
        degrees = space.degrees
        for i in support:
            if not _is_int(degree - degrees[i]):
                raise GridViolation("coordinate in a slot off the degree grid")

    def is_zero(self) -> bool:
        return not self.support


# -- validation ---------------------------------------------------------------


def validate(S: ShiftedQuadSpace):
    """None when all type invariants hold, else the first violation."""
    k = S.k
    n = S.n
    if S.eps < 0:
        return f"shift eps = {S.eps} is negative"
    for i in range(n):
        if not _is_int(2 * S.degrees[i]) and not S.qvals[i].is_zero():
            return f"q(e_{i}) must vanish: degree {2 * S.degrees[i]} is off-grid"
        for j in range(n):
            d = S.degrees[i] + S.degrees[j] + S.eps
            if not _is_int(d) and not S.bmat[i][j].is_zero():
                return f"b(e_{i},e_{j}) must vanish: degree {d} is off-grid"
            if S.bmat[i][j] != S.bmat[j][i]:
                return f"b is not symmetric at ({i},{j})"
    # nondegeneracy: b pairs coset [gamma] with [-gamma-eps]; each block of
    # the coset-graded matrix must be invertible over k
    cosets = coset_decomposition(S)
    for c, idx in cosets.items():
        partner = coset(-c - S.eps)
        jdx = cosets.get(partner, [])
        if len(idx) != len(jdx):
            return (f"dim V_[{c}] = {len(idx)} != dim V_[{partner}] "
                    f"= {len(jdx)}; b is degenerate")
        block = [[S.bmat[i][j] for j in jdx] for i in idx]
        if idx:
            try:
                linalg.invert_exact(block, k.zero, k.one)
            except SingularMatrix:
                return f"b is degenerate on the coset pair [{c}], [{partner}]"
    if S.type_tag == "I":
        if S.eps != 0:
            return f"type I requires eps = 0, got {S.eps}"
        for i in range(n):
            if not S.bmat[i][i].is_zero():
                return (f"the polar of a quadratic form is alternating in "
                        f"characteristic 2; b(e_{i},e_{i}) != 0")
    elif S.type_tag == "II":
        for i in range(n):
            if not S.bmat[i][i].is_zero():
                return f"type II requires alternating b; b(e_{i},e_{i}) != 0"
    elif S.type_tag == "III":
        if S.v2 == INF or S.eps != S.v2:
            return "type III requires eps = v(2) < infinity"
        for i in range(n):
            if S.qvals[i] != S.bmat[i][i]:
                return (f"type III requires q(e_{i}) = tau^-1 b(e_{i},e_{i})")
    else:
        return f"unknown type tag {S.type_tag!r}"
    return None


# -- cosets and orbits -----------------------------------------------------------


def coset_decomposition(S: ShiftedQuadSpace) -> dict:
    """Basis indices grouped by degree class in Q/Z (sorted keys)."""
    out: dict = {}
    for i, d in enumerate(S.degrees):
        out.setdefault(coset(d), []).append(i)
    return dict(sorted(out.items()))


class OrbitPartition(Record):
    """Orbits of the involution [gamma] -> [-gamma-eps] on (1/2)Z/Z."""

    __slots__ = _fields = ("eps", "principal")

    def __init__(self, eps, principal):
        self.eps = eps
        self.principal = principal  # tuples of coset representatives in {0, 1/2}


def orbit_partition(eps) -> OrbitPartition:
    eps = grid(eps)
    if eps < 0 or eps.denominator > 2:
        raise DegenerateForm(f"depth {eps} is not on the half-integer grid")
    if _is_int(eps):
        return OrbitPartition(eps, ((half(0),), (HALF,)))
    return OrbitPartition(eps, ((half(0), HALF),))


def _subspace(S: ShiftedQuadSpace, idx) -> ShiftedQuadSpace:
    return ShiftedQuadSpace(
        S.k, S.v2, S.eps,
        [S.degrees[i] for i in idx],
        [S.qvals[i] for i in idx],
        [[S.bmat[i][j] for j in idx] for i in idx],
        S.type_tag)


def split_principal_metabolic(S: ShiftedQuadSpace):
    """(per-orbit principal parts, metabolic rest Psi, index maps)."""
    cosets = coset_decomposition(S)
    parts = {}
    psi_idx = []
    maps = {}
    for orbit in orbit_partition(S.eps).principal:
        idx = sorted(i for c in orbit for i in cosets.get(c, []))
        parts[orbit] = _subspace(S, idx)
        maps[orbit] = idx
    principal_all = {i for idx in maps.values() for i in idx}
    psi_idx = [i for i in range(S.n) if i not in principal_all]
    return parts, _subspace(S, psi_idx), maps


# -- uniformizing choices ----------------------------------------------------------


class UniformizingChoice(Record):
    """rho and the per-orbit pi, as homogeneous scalars.

    pi is keyed by the coset of the descent slice: for integer eps the
    orbit's coset itself; for half-integer eps the single key names
    which side of the two-coset orbit becomes the primal slice.
    """

    __slots__ = _fields = ("rho", "pi")

    def __init__(self, rho, pi):
        self.rho = rho
        self.pi = pi


def default_choice(S: ShiftedQuadSpace) -> UniformizingChoice:
    """Powers of the canonical uniformizer image, unit coefficients."""
    one = S.k.one
    if S.type_tag == "I":
        rho = HomogeneousScalar(half(0), one)
    elif S.type_tag == "III":
        rho = HomogeneousScalar(S.v2, one)
    elif _is_int(S.eps):
        rho = HomogeneousScalar(S.eps, one)
    else:
        rho = HomogeneousScalar(2 * S.eps, one)
    if _is_int(S.eps):
        pi = {half(0): HomogeneousScalar(half(0), one),
              HALF: HomogeneousScalar(half(2), one)}
    else:
        pi = {half(0): HomogeneousScalar(half(0), one)}
    return UniformizingChoice(rho, pi)


def descend_case1(S: ShiftedQuadSpace, choice: UniformizingChoice = None) -> dict:
    """Per-orbit residue objects for integer eps.

    type I -> QuadraticForm over k, type II -> SymplecticQuadSpace,
    type III -> the Gram rows of the descended bilinear form over k.
    """
    if not _is_int(S.eps):
        raise WrongCase(f"case 1 needs integer eps, got {S.eps}")
    if choice is None:
        choice = default_choice(S)
    k = S.k
    cosets = coset_decomposition(S)
    out = {}
    for (c,) in orbit_partition(S.eps).principal:
        idx = cosets.get(c, [])
        h = choice.pi[c]
        if coset(half(h.degree.numerator)) != c:
            raise WrongCase(f"pi degree {h.degree} is off the orbit grid of {c}")
        ip = h.coeff.inv()
        ipr = (h.coeff * choice.rho.coeff).inv()
        qv = [S.qvals[i] for i in idx]
        bm = [[S.bmat[i][j] for j in idx] for i in idx]
        # the unit coefficients of the default choice scale by nothing
        if ip != k.one:
            qv = [ip * v for v in qv]
        if ipr != k.one:
            bm = [[ipr * v for v in row] for row in bm]
        if S.type_tag == "I":
            out[c] = QuadraticForm.from_gram(k, qv, bm)
        elif S.type_tag == "II":
            out[c] = sq_normalize(qv, bm, k)[0] if idx else \
                SymplecticQuadSpace(k, ())
        else:
            out[c] = bm
    return out


def descend_case2(S: ShiftedQuadSpace, choice: UniformizingChoice = None) -> SeparatedSpace:
    """The separated symplectic quadratic space of a half-integer-shift
    type-II space (single two-element principal orbit)."""
    if _is_int(S.eps):
        raise WrongCase(f"case 2 needs half-integer eps, got {S.eps}")
    if S.type_tag != "II":
        raise WrongCase("case 2 applies to symplectic quadratic spaces")
    if choice is None:
        choice = default_choice(S)
    k = S.k
    (key, h), = choice.pi.items()
    gamma = coset(half(h.degree.numerator))
    if gamma != key:
        raise WrongCase(f"pi keyed by {key} has degree {h.degree}, of coset {gamma}")
    cosets = coset_decomposition(S)
    idx_a = cosets.get(gamma, [])
    idx_b = cosets.get(coset(-gamma - S.eps), [])
    if len(idx_a) != len(idx_b):
        raise DegenerateForm(
            f"cosets of {len(idx_a)} and {len(idx_b)} basis vectors do not pair")
    if not idx_a:
        return SeparatedSpace(k, ())
    ip = h.coeff.inv()
    qv_a = [ip * S.qvals[i] for i in idx_a]
    pr = h.coeff * choice.rho.coeff
    M = [[S.bmat[j][i] for i in idx_a] for j in idx_b]
    # the q value of the dual basis vector sum_j Minv[i][j] f_j
    q_b = QuadraticForm.diagonal(k, [S.qvals[j] for j in idx_b]).evaluate
    return SeparatedSpace(k, tuple(
        (a, pr * q_b(row))
        for a, row in zip(qv_a, linalg.invert_exact(M, k.zero, k.one))))


# -- metabolicity -----------------------------------------------------------------


class MetabolicityReport(Record):
    __slots__ = _fields = ("metabolic", "planes", "evidence")
    __hash__ = None

    def __init__(self, metabolic, planes=None, evidence=None):
        self.metabolic = metabolic
        self.planes = planes  # [(x, y)] with q(x)=0, b(x,y)=1, planes orthogonal
        self.evidence = {} if evidence is None else evidence  # orbit -> invariant


def _find_isotropic_rel(k, type_tag, cls, qs, G):
    """Isotropic k-combination of the current rows of a space of type
    type_tag over k, as the (row, nonzero coefficient) pairs in row
    order; cls[r] is the degree class of row r, qs[r] its q value and
    G[r] its Gram row in the layout `residue_witt._vectors(k)`.

    None certifies anisotropy except for type I over an imperfect residue
    field, where Undecidable is raised.
    """
    classes: dict = {}
    for r, c in enumerate(cls):
        classes.setdefault(c, []).append(r)
    undecided = False
    for c in sorted(classes):
        idx = classes[c]
        for r in idx:
            if qs[r].is_zero():
                return [(r, k.one)]
        if type_tag in ("II", "III"):
            if k.is_perfect:
                # the kernel of one row (s_r) = (sqrt q_r), no s_r zero:
                # its first basis vector is (s_1 / s_0, 1, 0, ...)
                sol = None if len(idx) < 2 else \
                    [qs[idx[0]].sqrt().inv() * qs[idx[1]].sqrt(), k.one]
            else:
                splits = [k.frobenius_coordinates(qs[r]) for r in idx]
                rows = [[s[0] for s in splits], [s[1] for s in splits]]
                sol = (linalg.kernel_exact(rows, k.zero, k.one) or [None])[0]
        else:
            # the polar rows of the class: its rows without the columns
            # of the other classes
            vec = residue_witt._vectors(k)
            rows = [G[r] for r in idx]
            for col in reversed(range(len(cls))):
                if cls[col] != c:
                    rows = [vec.drop(v, col) for v in rows]
            try:
                v = residue_witt._isotropic_vector(k, rows,
                                                   [qs[r] for r in idx])
            except DegenerateForm:
                v = None  # class form degenerate: no conclusion here
                undecided = True
            if v is None and not k.is_perfect:
                undecided = True
            sol = None if v is None else vec.unpack(v, len(idx))
        if sol is not None:
            return [(r, a) for r, a in zip(idx, sol) if not a.is_zero()]
    if undecided:
        raise Undecidable(
            "isotropy of a depth-0 space over an imperfect residue field")
    return None


def _plane_rounds(k, type_tag, eps, degrees, qs, rows):
    """The rounds of `metabolic_planes` on a space given by its data: the
    planes as one flat tuple of (degree, x, degree, y) runs, x and y in
    the layout of `residue_witt._vectors(k)`, or None when an anisotropic
    kernel remains."""
    vec = residue_witt._vectors(k)
    vecs = vec.units(len(degrees))
    G, qs, degs = list(rows), list(qs), list(degrees)
    # degree classes by their rank in Q/Z
    cosets = [coset(d) for d in degs]
    order = sorted(set(cosets))
    cls = [order.index(c) for c in cosets]
    if type_tag == "III" and any(
            cls.count(c) % 2 for c, g in enumerate(order)
            if coset(-g - eps) == g):
        # the plane of a vector in a class that b pairs with itself lies
        # in that class, so a class of odd dimension keeps a line
        return None
    polar = type_tag == "I"
    planes = []
    while vecs:
        sol = _find_isotropic_rel(k, type_tag, cls, qs, G)
        if sol is None:
            return None
        (x, yi, y, _, keep), vecs, G, qs = residue_witt._split_plane(
            vec, vecs, G, qs, sol, polar)
        planes += degs[sol[0][0]], x, degs[yi], y
        degs = [degs[c] for c in keep]
        cls = [cls[c] for c in keep]
    return tuple(planes)


# the number of spaces each memo keeps; the sums of W_q(Q_2) class
# representatives of the bench's q2-class-sums meet 613 distinct ones at
# seed 1
PLANES_MEMO_SIZE = 1024


def _space_key(S: ShiftedQuadSpace) -> tuple:
    """(k, type tag, eps, degrees, q values, Gram rows) of S, the q values
    and rows packed in the layout `residue_witt._vectors(k)`: over GF(2^m)
    the q values are one int, and the tuple is the key of both memos."""
    vec = residue_witt._vectors(S.k)
    rows = S.rows
    if rows is None:
        rows = tuple(vec.pack(row) for row in S.bmat)
    return S.k, S.type_tag, S.eps, S.degrees, vec.pack(S.qvals), rows


@lru_cache(maxsize=PLANES_MEMO_SIZE)
def planes_memo(k, type_tag, eps, degrees, qbits, rows):
    """`_plane_rounds` over GF(2^m), its q values packed into the one int
    qbits: a pure function of its arguments, and all of them hash."""
    return _plane_rounds(k, type_tag, eps, degrees,
                         residue_witt._vectors(k).unpack(qbits, len(degrees)),
                         rows)


def metabolic_planes(S: ShiftedQuadSpace):
    """Decomposition into pairwise-orthogonal metabolic planes, or None
    when an anisotropic kernel remains; each round splits off the plane
    of an isotropic relation among the current rows with
    `residue_witt._split_plane`.
    Over GF(2^m) the rounds are looked up in `planes_memo`, keyed on
    `_space_key(S)`.  Each plane vector is a new `GradedVector` of S,
    whose construction checks the degree grid, on a hit too."""
    k = S.k
    vec = residue_witt._vectors(k)
    key = _space_key(S)
    planes = (planes_memo if isinstance(k, GF2m) else _plane_rounds)(*key)
    if planes is None:
        return None
    n = S.n

    def graded_vector(degree, v):
        support = vec.support(v)
        return GradedVector(S, degree, vec.unpack(v, n, support), support)

    runs = iter(planes)  # (degree, x, degree, y) four at a time
    return [(graded_vector(dx, x), graded_vector(dy, y))
            for dx, x, dy, y in zip(runs, runs, runs, runs)]


def _case1_invariants(S: ShiftedQuadSpace, choice) -> dict:
    """The invariants of the orbits `descend_case1` descends."""
    out = {}
    for c, obj in descend_case1(S, choice).items():
        if S.type_tag == "I":
            out[c] = residue_witt.kquad_witt_class(obj) if obj.n else \
                residue_witt.WqClass(S.k, arf=0)
        elif S.type_tag == "II":
            out[c] = residue_witt.sq_witt_class(obj)
        else:
            out[c] = residue_witt.WClass(S.k, len(obj) % 2)
    return out


@lru_cache(maxsize=PLANES_MEMO_SIZE)
def invariants_memo(k, type_tag, eps, degrees, qbits, rows):
    """The orbit invariants of a type-I or type-II space over GF(2^m) at
    integer eps for the default choice, as (orbit, invariant) pairs: a
    pure function of the `_space_key` it is called with, since that
    branch reads no other field of the space (v2 tells type III from
    type II only, so the space it descends is rebuilt without it)."""
    vec = residue_witt._vectors(k)
    n = len(degrees)
    S = ShiftedQuadSpace(k, None, eps, degrees, vec.unpack(qbits, n),
                         [vec.unpack(row, n) for row in rows], type_tag, rows)
    return tuple(_case1_invariants(S, None).items())


def orbit_invariants(S: ShiftedQuadSpace, choice: UniformizingChoice = None) -> dict:
    """Per-orbit Witt-group invariants of the descended residue objects;
    a type-III orbit's is the parity of its dimension, read without the
    descent for the default choice.  For the default choice over GF(2^m)
    at integer eps, types I and II are looked up in `invariants_memo`;
    every call returns a new dict."""
    if not _is_int(S.eps):
        sep = descend_case2(S, choice)
        return {(half(0), HALF): residue_witt.ssq_witt_class(sep)}
    if choice is None:
        if S.type_tag == "III":
            # the class of a principal coset is its dimension mod 2: at
            # integer eps each such coset pairs with itself, and condition
            # (c) makes its block of b nondegenerate
            cosets = coset_decomposition(S)
            return {c: residue_witt.WClass(S.k, len(cosets.get(c, ())) % 2)
                    for (c,) in orbit_partition(S.eps).principal}
        if isinstance(S.k, GF2m):
            return dict(invariants_memo(*_space_key(S)))
    return _case1_invariants(S, choice)


def is_metabolic(S: ShiftedQuadSpace, choice: UniformizingChoice = None) -> MetabolicityReport:
    """Metabolicity with witness planes; the splitting search is complete
    for types II and III and for type I over finite residue fields.

    Raises Undecidable for type I over GF(2^m)(x) when the best-effort
    moves run out.
    """
    vio = validate(S)
    if vio is not None:
        raise DegenerateForm(vio)
    evidence = {}
    exact_classes = True
    try:
        evidence = orbit_invariants(S, choice)
    except Undecidable:
        exact_classes = False
    planes = metabolic_planes(S)
    if exact_classes and not (S.type_tag == "I" and not S.k.is_perfect):
        classes_zero = all(inv.is_zero() for inv in evidence.values())
        if classes_zero != (planes is not None):
            raise WittlabError("descent invariants disagree with the witness search")
    return MetabolicityReport(planes is not None, planes, evidence)
