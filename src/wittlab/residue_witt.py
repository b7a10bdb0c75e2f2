"""Witt-like groups of the characteristic-2 residue fields.

Symplectic quadratic spaces (totally singular q, alternating
nondegenerate b) are classified by their image in k wedge_{k^2} k;
separated spaces (q on V, q' on V*) by their image in k tensor_{k^2} k.
Over every residue field both invariants are stored the same way: as the
square roots of their k^2 coordinates on the basis built from the
2-basis {1, x}, one coordinate on 1 wedge x and four on `TENSOR_BASIS`.
An element splits as c = c0^2 + x c1^2 (`k.frobenius_coordinates`), so
every coordinate of a wedge or tensor value is a square; as Frobenius is
additive, the square roots form the same group, in canonical form.
Over GF(2^m), where c = sqrt(c)^2, every x-part is zero: the wedge group
is trivial and the tensor group is k on 1@1.

Quadratic forms over k are `QuadraticForm`s.  `_split_plane` is the one
residue-field plane splitter, on vectors and Gram rows in the layout
`_vectors(k)`: ints in the slot layout of `GF2m.packing` over GF(2^m)
(`_Slots`), coordinate tuples over GF(2^m)(x) (`_Coords`).  Its one
loop, `_plane_pairs`, splits off the plane of the first row, isotropic
or not, until no row is left.  `k_symplectic_blocks` and `sq_normalize`
read their symplectic bases off it, `kquad_witt_class` its (q(x), q(y))
pairs: the Arf bit over finite k, raw data over GF(2^m)(x).  The
isotropic search `_isotropic_vector` reads a vector off its planes, on
the packed rows of a form (`kquad_isotropic_vector`, each round of
`kquad_is_hyperbolic_witnessed`) or of a type-I degree class of
`graded.metabolic_planes`, whose rounds run `_split_plane` too.  Its
root of u^2 + u = ab is the field's `k.artin_schreier_root`: closed form
over GF(2^m), a bounded search over GF(2^m)(x).  `k.is_perfect` tells
the finite residue fields GF(2^m) from GF(2^m)(x).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

from . import linalg
from .errors import (DegenerateForm, Record, Undecidable,
                     UnsupportedResidueField)
from .fields.gf2m import GF2m, _clmul
from .quadform import QuadraticForm


# -- the plane splitter -------------------------------------------------------


class _Slots:
    """Vectors over GF(2^m) packed into one int each, in the slot layout
    of `GF2m.packing`: coordinate i sits in bits S*i to S*i + S - 1.
    Adding is xor, a scalar multiple one carryless product and one slot
    reduction; over GF(2) a vector is a plain bitmask."""

    def __init__(self, k):
        # the interned elements of a field with tables, read without a call
        self.elem = k.elem if k._pool is None else k._pool.__getitem__
        self.S = k.packing.S
        self.smask = k.packing.smask
        self.reduce = k.packing.reduce
        self.inv = k.inv

    def units(self, n):
        return [1 << (self.S * i) for i in range(n)]

    def pack(self, coords):
        S, v = self.S, 0
        for i, c in enumerate(coords):
            if c.bits:
                v |= c.bits << (S * i)
        return v

    def pack_symmetric(self, mat, entries):
        """The rows of the symmetric matrix mat, packed from entries, the
        (i, j, mat[i][j]) triples, i <= j, that hold every nonzero entry
        of its upper triangle."""
        S, rows = self.S, [0] * len(mat)
        for i, j, c in entries:
            rows[i] |= c.bits << (S * j)
            rows[j] |= c.bits << (S * i)
        return tuple(rows)

    def support(self, v):
        """The nonzero coordinates of v, ascending."""
        S, smask, out = self.S, self.smask, []
        while v:
            i = ((v & -v).bit_length() - 1) // S
            out.append(i)
            v &= ~(smask << (S * i))
        return tuple(out)

    def unpack(self, v, n, support=None):
        """The coordinates of v; support, if given, is support(v)."""
        S, smask, elem = self.S, self.smask, self.elem
        out = [elem(0)] * n
        for i in self.support(v) if support is None else support:
            out[i] = elem(v >> (S * i) & smask)
        return tuple(out)

    def entry(self, v, i):
        """Coordinate i of v, None when it is zero."""
        bits = v >> (self.S * i) & self.smask
        return self.elem(bits) if bits else None

    def scale(self, a, v):
        return v if a.bits == 1 else self.reduce(_clmul(a.bits, v))

    def axpy(self, v, a, u):
        """v + a u."""
        return v ^ (u if a.bits == 1 else self.reduce(_clmul(a.bits, u)))

    def first(self, v):
        """The first nonzero coordinate, None for the zero vector."""
        return ((v & -v).bit_length() - 1) // self.S if v else None

    def drop(self, v, i):
        """v without coordinate i; the ones above it move down."""
        lo = self.S * i
        return v >> (lo + self.S) << lo | v & ((1 << lo) - 1)

    def rank(self, rows):
        """The rank of the rows: one incremental echelon pass in row
        order, each kept row scaled to 1 at its first nonzero slot."""
        S, smask, reduce, inv = self.S, self.smask, self.reduce, self.inv
        echelon = []  # (shift of the lead slot, kept row)
        for v in rows:
            for sh, base in echelon:
                c = v >> sh & smask
                if c:
                    v ^= base if c == 1 else reduce(_clmul(c, base))
            if v:
                sh = ((v & -v).bit_length() - 1) // S * S
                c = v >> sh & smask
                echelon.append((sh, v if c == 1 else reduce(_clmul(inv(c), v))))
        return len(echelon)


class _Coords:
    """The `_Slots` operations on coordinate tuples, for GF(2^m)(x); a
    scalar 1 forms no products.  Every coordinate is a `RatFunc`, zero
    when its numerator is, which is read without a call."""

    def __init__(self, k):
        self.k = k
        self.one = k.one

    def units(self, n):
        k = self.k
        return [tuple(row) for row in linalg.identity(n, k.zero, k.one)]

    def pack(self, coords):
        return tuple(coords)

    def pack_symmetric(self, mat, entries):
        return tuple(map(tuple, mat))

    def support(self, v):
        return tuple(i for i, c in enumerate(v) if c.num)

    def unpack(self, v, n, support=None):
        return v

    def entry(self, v, i):
        return v[i] if v[i].num else None

    def scale(self, a, v):
        if a == self.one:
            return v
        return tuple(a * c if c.num else c for c in v)

    def axpy(self, v, a, u):
        if a == self.one:
            return tuple(x + y if y.num else x for x, y in zip(v, u))
        return tuple(x + a * y if y.num else x for x, y in zip(v, u))

    def first(self, v):
        return next((i for i, c in enumerate(v) if c.num), None)

    def drop(self, v, i):
        return v[:i] + v[i + 1:]

    def rank(self, rows):
        """The rank of the rows by `linalg.independent_rows`, whose
        products a degree cap trips on."""
        return len(linalg.independent_rows(rows, len(rows)))


@cache
def _vectors(k):
    """The vector layout of `_split_plane` over k: packed ints over
    GF(2^m), coordinate tuples over GF(2^m)(x)."""
    return (_Slots if isinstance(k, GF2m) else _Coords)(k)


def _split_plane(vec, vecs, G, qs, sol, polar):
    """Split off the plane (x, y) of the relation sol, (row, nonzero
    coefficient) pairs in row order, among the rows vecs with Gram rows G
    and q values qs in the layout vec; polar says b is the polar form of
    q (type I).  y is the first row pairing nonzero with x, scaled to
    b(x, y) = 1; each other row goes to the complement of the plane,
    w_c' = w_c + lam_c x + mu_c y.  The projected rows satisfy exactly two
    relations, sol and the unit vector at yi (w_yi' = 0), so the rows yi
    and max(supp(sol) minus yi) go: the rows a greedy echelon pass drops.
    vecs may be None when only the Gram rows and q values are wanted;
    then no vector is formed, and x, y and the vectors returned are None.

    A sol of two or more rows is isotropic.  A one-row x = a w_r need not
    be when b is alternating (types I and II): the plane is then not
    hyperbolic, and q(w_c') gains the term lam_c^2 q(x); `_plane_pairs`
    splits so, with x the first row.

    Returns (x, yi, y, q(y), keep) and the kept rows' vectors, Gram rows
    and q values.  Raises DegenerateForm when x lies in the radical of b."""
    (base, a), *rest = sol
    qx = None if rest or qs[base].is_zero() else qs[base] * a * a
    bx = vec.scale(a, G[base])
    for r, c in rest:
        bx = vec.axpy(bx, c, G[r])
    yi = vec.first(bx)
    if yi is None:
        raise DegenerateForm("isotropic vector in the radical")
    sc = vec.entry(bx, yi).inv()
    x = y = vecs2 = None
    if vecs is not None:
        x = vec.scale(a, vecs[base])
        for r, c in rest:
            x = vec.axpy(x, c, vecs[r])
        y = vec.scale(sc, vecs[yi])
        vecs2 = []
    # b(x, y) = 1 and b(x, x) = 0: b is alternating for types I and
    # II, and b(x, x) = tau q(x) for type III, so mu_c = b(w_c, x) and
    # lam_c = b(w_c, y) + mu_c b(y, y)
    by = vec.scale(sc, G[yi])
    gyy = vec.entry(G[yi], yi)
    lam = by if gyy is None else vec.axpy(by, gyy * sc * sc, bx)
    q_y = qs[yi] * sc * sc
    qy = None if q_y.is_zero() else q_y
    drop = max((r for r, _ in sol if r != yi), default=None)
    if drop is None:
        # x = a w_yi has b(x, x) != 0, which no space of its type allows:
        # b is alternating for types I and II, and b(x, x) = tau q(x) = 0
        # for type III, as sol is isotropic there
        raise DegenerateForm("a one-row relation pairs only with its own row")
    keep = [c for c in range(len(G)) if c != yi and c != drop]
    hi, lo = max(yi, drop), min(yi, drop)
    G2, qs2 = [], []
    for c in keep:
        row, qc = G[c], qs[c]
        lc, mc, bc = vec.entry(lam, c), vec.entry(bx, c), vec.entry(by, c)
        # q(w_c') = q(w_c) + lam_c^2 q(x) + mu_c^2 q(y), and for type I
        # also lam_c b(w_c,x) + mu_c b(w_c,y) + lam_c mu_c = mu_c b(w_c,y)
        if lc is not None and qx is not None:
            qc = qc + lc * lc * qx
        if mc is not None:
            if qy is not None:
                qc = qc + mc * mc * qy
            if polar and bc is not None:
                qc = qc + mc * bc
            # b(w_c', w_d') = b(w_c, w_d) + mu_c lam_d + b(w_c, y) mu_d
            row = vec.axpy(row, mc, lam)
        if bc is not None:
            row = vec.axpy(row, bc, bx)
        if vecs is not None:
            w = vecs[c]
            if lc is not None:
                w = vec.axpy(w, lc, x)
            if mc is not None:
                w = vec.axpy(w, mc, y)
            vecs2.append(w)
        G2.append(vec.drop(vec.drop(row, hi), lo))
        qs2.append(qc)
    return (x, yi, y, q_y, keep), vecs2, G2, qs2


def _plane_pairs(k, G, qs, vectors=False, polar=True):
    """Split the nonsingular space over k with Gram rows G and q values
    qs, in the layout `_vectors(k)`, into planes (x, y), b(x, y) = 1: x is
    the first row, isotropic or not, and `_split_plane` splits its plane
    off until no row is left.  polar says b is the polar form of q, of
    even dimension; else q is totally singular and b alternating.

    Returns the (q(x), q(y)) pairs and, with vectors, x and y of each
    plane in one flat list, in the layout."""
    if polar and len(G) % 2:
        raise DegenerateForm("odd-dimensional forms are singular in char 2")
    vec = _vectors(k)
    vecs = vec.units(len(G)) if vectors else None
    pairs, basis = [], []
    while G:
        if vec.first(G[0]) is None:
            raise DegenerateForm(
                "polar form over the residue field is degenerate" if polar
                else "alternating form is degenerate")
        qx = qs[0]
        (x, _, y, qy, _), vecs, G, qs = _split_plane(vec, vecs, G, qs,
                                                     [(0, k.one)], polar)
        pairs.append((qx, qy))
        basis += x, y
    return pairs, basis


# -- quadratic forms over k ----------------------------------------------------


def _packed(form: QuadraticForm):
    """The polar rows of form in the layout `_vectors(k)`, and its q
    values."""
    vec = _vectors(form.field)
    return ([vec.pack(row) for row in form.polar_matrix()],
            [form.U[i][i] for i in range(form.n)])


def k_symplectic_blocks(form: QuadraticForm):
    """Binary blocks [a_i, b_i] of a nonsingular form over char-2 k, and
    the basis-change matrix whose columns are the symplectic basis."""
    pairs, basis = _plane_pairs(form.field, *_packed(form), vectors=True)
    vec = _vectors(form.field)
    return pairs, linalg.transpose([vec.unpack(v, form.n) for v in basis])


def _isotropic_vector(k, G, qs):
    """A nonzero isotropic vector, in the layout `_vectors(k)`, of the
    nonsingular form over k with polar rows G and q values qs in that
    layout, or None.

    A plane (x, y) of `_plane_pairs` with (q(x), q(y)) = (a, b) yields one
    when a or b is zero or `k.artin_schreier_root(ab)` finds a root.
    Over finite k that decides: two trace-1 planes combine through a
    square root, a single one is anisotropic.  Over GF(2^m)(x) the root
    search is bounded and only equal planes combine (the diagonal of
    [a,b] perp [a,b]), so None means `none found'.
    """
    vec = _vectors(k)
    pairs, basis = _plane_pairs(k, G, qs, vectors=True)
    for (a, b), x, y in zip(pairs, basis[::2], basis[1::2]):
        if a.is_zero():
            return x
        if b.is_zero():
            return y
        root = k.artin_schreier_root(a * b)
        if root is not None:
            return vec.axpy(y, root / a, x)
    if k.is_perfect:
        if len(pairs) < 2:
            return None
        # both planes anisotropic: q(y_1 + sqrt(b_1 / a_2) x_2) = 0
        (_, b1), (a2, _) = pairs[0], pairs[1]
        return vec.axpy(basis[1], (b1 / a2).sqrt(), basis[2])
    # duplicated planes cancel: the diagonal of [a,b] perp [a,b] is isotropic
    for i, j in combinations(range(len(pairs)), 2):
        if pairs[i] == pairs[j]:
            return vec.axpy(basis[2 * i], k.one, basis[2 * j])
    return None


def kquad_isotropic_vector(form: QuadraticForm):
    """A nonzero isotropic vector of a nonsingular form, or None; see
    `_isotropic_vector` for what None means over GF(2^m)(x)."""
    v = _isotropic_vector(form.field, *_packed(form))
    return None if v is None else list(_vectors(form.field).unpack(v, form.n))


def arf_invariant(pairs, k) -> "WqClass":
    """Sum of trace bits of a_i b_i; classifies W_q over finite k."""
    if not k.is_perfect:
        raise UnsupportedResidueField(
            "Arf classification needs a finite residue field; "
            "use wq_raw_class for the partial invariant")
    return WqClass(k, arf=sum((a * b).trace() for a, b in pairs) % 2)


def wq_raw_class(pairs, k) -> "WqClass":
    """Partial, non-deciding W_q data over an imperfect residue field."""
    rep = sum((a * b for a, b in pairs), k.zero)
    return WqClass(k, arf=None, raw=tuple(pairs), arf_representative=rep)


class WqClass(Record):
    """W_q(k) data: the Arf bit over finite k; raw forms plus the Arf
    representative (defined mod c^2 + c) over GF(2^m)(x)."""

    __slots__ = _fields = ("k", "arf", "raw", "arf_representative")

    def __init__(self, k, arf=None, raw=(), arf_representative=None):
        self.k = k
        self.arf = arf
        self.raw = raw
        self.arf_representative = arf_representative

    def decides(self) -> bool:
        return self.arf is not None

    def is_zero(self) -> bool:
        if not self.decides():
            raise Undecidable("W_q class over an imperfect residue field")
        return self.arf == 0

    def __add__(self, other: "WqClass") -> "WqClass":
        if self.arf == 0:  # a decided zero, such as an empty orbit
            return other
        if other.arf == 0:
            return self
        if self.decides() and other.decides():
            return WqClass(self.k, arf=self.arf ^ other.arf)
        rep = None
        if self.arf_representative is not None and other.arf_representative is not None:
            rep = self.arf_representative + other.arf_representative
        return WqClass(self.k, arf=None, raw=self.raw + other.raw,
                       arf_representative=rep)


class WClass(Record):
    """W(k) for perfect char-2 k: dimension mod 2."""

    __slots__ = _fields = ("k", "bit")

    def __init__(self, k, bit):
        self.k = k
        self.bit = bit

    def is_zero(self) -> bool:
        return self.bit == 0

    def __add__(self, other: "WClass") -> "WClass":
        return WClass(self.k, self.bit ^ other.bit)


def w_class(entries, k) -> WClass:
    """Witt class of a diagonal bilinear form <c_1, ..., c_n>, perfect k."""
    if not k.is_perfect:
        raise UnsupportedResidueField("W(k) classification needs perfect k")
    for c in entries:
        if c.is_zero():
            raise DegenerateForm("diagonal bilinear form with a zero entry")
    return WClass(k, len(entries) % 2)


# -- symplectic quadratic spaces ------------------------------------------------


class SymplecticQuadSpace(Record):
    """<a1, a1'> perp ... perp <ar, ar'> in a symplectic basis."""

    __slots__ = _fields = ("k", "pairs")

    def __init__(self, k, pairs):
        self.k = k
        self.pairs = pairs

    def __repr__(self):
        inner = " perp ".join(f"<{self.k.format_elem(a)}, {self.k.format_elem(b)}>"
                              for a, b in self.pairs)
        return inner or "0"

    def dim(self) -> int:
        return 2 * len(self.pairs)


class SeparatedSpace(Record):
    """<a1 | a1'> perp ... perp <ar | ar'>: q on V and q' on the dual."""

    __slots__ = _fields = ("k", "pairs")

    def __init__(self, k, pairs):
        self.k = k
        self.pairs = pairs

    def __repr__(self):
        inner = " perp ".join(f"<{self.k.format_elem(a)} | {self.k.format_elem(b)}>"
                              for a, b in self.pairs)
        return inner or "0"

    def dim(self) -> int:
        return len(self.pairs)


def sq_normalize(qvals, bmat, k):
    """Symplectic normalization of raw totally-singular data (q values on a
    basis, alternating Gram matrix); returns (space, basis columns)."""
    if not all(bmat[i][i].is_zero() for i in range(len(qvals))):
        raise DegenerateForm("bilinear form is not alternating")
    vec = _vectors(k)
    pairs, basis = _plane_pairs(k, [vec.pack(row) for row in bmat],
                                list(qvals), vectors=True, polar=False)
    return (SymplecticQuadSpace(k, tuple(pairs)),
            [list(vec.unpack(v, len(qvals))) for v in basis])


def ssq_normalize(qvals, dual_qvals, k):
    """Raw separated data on a basis and its dual basis; any basis splits."""
    if len(qvals) != len(dual_qvals):
        raise DegenerateForm("separated data of mismatched dimensions")
    return SeparatedSpace(k, tuple(zip(qvals, dual_qvals)))


def functor_U(S: SeparatedSpace) -> SymplecticQuadSpace:
    """<a | a'> maps to <a, a'> with b((v,phi),(w,psi)) = psi(v) - phi(w)."""
    return SymplecticQuadSpace(S.k, S.pairs)


# -- wedge and tensor coordinates ------------------------------------------------


# the basis of k tensor_{k^2} k that `TensorElem.coords` are read on
TENSOR_BASIS = ("1@1", "1@x", "x@1", "x@x")


class WedgeElem(Record):
    """Element of k wedge_{k^2} k, stored as the square root of its
    coordinate on the basis 1 wedge x."""

    __slots__ = _fields = ("k", "sqrt_coord")

    def __init__(self, k, sqrt_coord):
        self.k = k
        self.sqrt_coord = sqrt_coord

    def is_zero(self) -> bool:
        return self.sqrt_coord.is_zero()

    def __add__(self, other: "WedgeElem") -> "WedgeElem":
        return WedgeElem(self.k, self.sqrt_coord + other.sqrt_coord)

    def coordinate(self):
        """The honest k^2 coordinate on 1 wedge x."""
        return self.sqrt_coord * self.sqrt_coord

    def __repr__(self):
        if self.is_zero():
            return "0"
        return f"({self.k.format_elem(self.coordinate())})*(1^x)"


class TensorElem(Record):
    """Element of k tensor_{k^2} k, stored as the square roots of its
    four k^2 coordinates on `TENSOR_BASIS`."""

    __slots__ = _fields = ("k", "coords")

    def __init__(self, k, coords):
        self.k = k
        self.coords = coords

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "TensorElem") -> "TensorElem":
        return TensorElem(self.k, tuple(a + b for a, b in
                                        zip(self.coords, other.coords)))

    def __repr__(self):
        parts = [f"({self.k.format_elem(c * c)})*({n})"
                 for c, n in zip(self.coords, TENSOR_BASIS) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def to_wedge(self) -> WedgeElem:
        """The quotient map tensor -> wedge."""
        return WedgeElem(self.k, self.coords[1] + self.coords[2])


def wedge_zero(k) -> WedgeElem:
    return WedgeElem(k, k.zero)


def tensor_zero(k) -> TensorElem:
    return TensorElem(k, (k.zero,) * 4)


def wedge_of(a, b, k) -> WedgeElem:
    a0, a1 = k.frobenius_coordinates(a)
    b0, b1 = k.frobenius_coordinates(b)
    return WedgeElem(k, a0 * b1 + a1 * b0)


def tensor_of(a, b, k) -> TensorElem:
    a0, a1 = k.frobenius_coordinates(a)
    b0, b1 = k.frobenius_coordinates(b)
    return TensorElem(k, (a0 * b0, a0 * b1, a1 * b0, a1 * b1))


def sq_witt_class(S: SymplecticQuadSpace) -> WedgeElem:
    """Sum of a_i wedge a_i'; zero iff S is metabolic."""
    acc = wedge_zero(S.k)
    for a, b in S.pairs:
        acc = acc + wedge_of(a, b, S.k)
    return acc


def ssq_witt_class(S: SeparatedSpace) -> TensorElem:
    """Sum of a_i tensor a_i'; zero iff S is metabolic."""
    acc = tensor_zero(S.k)
    for a, b in S.pairs:
        acc = acc + tensor_of(a, b, S.k)
    return acc


# -- hyperbolic planes ------------------------------------------------------------


def _split_isotropic(k, G, qs, find):
    """Split off the hyperbolic plane through the isotropic vector
    find(k, G, qs), in the layout `_vectors(k)`, with `_split_plane`, and
    search what is left again, until find returns None; the Gram rows and
    q values left."""
    vec = _vectors(k)
    while G:
        v = find(k, G, qs)
        if v is None:
            break
        sol = [(r, vec.entry(v, r)) for r in vec.support(v)]
        _, _, G, qs = _split_plane(vec, None, G, qs, sol, polar=True)
    return G, qs


def kquad_witt_class(form: QuadraticForm) -> WqClass:
    """Witt class of a nonsingular form over k, read off the pairs of
    `_plane_pairs`: the Arf bit over finite k, partial raw data over
    GF(2^m)(x)."""
    k = form.field
    pairs, _ = _plane_pairs(k, *_packed(form))
    return (arf_invariant if k.is_perfect else wq_raw_class)(pairs, k)


def kquad_is_hyperbolic_witnessed(form: QuadraticForm) -> bool:
    """Constructive hyperbolicity: split isotropic vectors until empty.

    Over finite k this decides; over GF(2^m)(x) only successful runs are
    meaningful (False means `no witness found').
    """
    G, _ = _split_isotropic(form.field, *_packed(form), _isotropic_vector)
    return not G
