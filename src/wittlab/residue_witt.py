"""Witt-like groups of the characteristic-2 residue fields.

Symplectic quadratic spaces (totally singular q, alternating
nondegenerate b) are classified by their image in k wedge_{k^2} k;
separated spaces (q on V, q' on V*) by their image in k tensor_{k^2} k.
Both invariants are stored through their square roots: with respect to
the 2-basis {1, x}, an element splits as c = c0^2 + x c1^2, all k^2
coordinates of wedge/tensor values are squares, and Frobenius is
additive, so the square-root coordinates form the same group and stay
in canonical normalized form.  Over a perfect field the wedge group is
trivial and the tensor group is k itself.

Quadratic forms over k are `QuadraticForm`s, the totally singular q of
a symplectic space too (`QuadraticForm.diagonal`, read by `evaluate`).
Residue elements carry the trivial valuation, so
`k_symplectic_blocks`, `sq_normalize` and `w_class_of_gram` are short
callers of the one splitting kernel `quadform.split_gram`.

Nonsingular quadratic forms over a finite residue field are classified
by their Arf invariant (the absolute trace bit).  `kquad_witt_class`
reads it without a symplectic basis: on the polar rows packed once, it
splits off the plane of the first row x, isotropic or not, with
`graded._split_plane`, and `arf_invariant` adds up the trace bits of
q(x) q(y), b(x, y) = 1.  Over GF(2^m)(x) it keeps `k_symplectic_blocks`,
whose raw pairs it reports.
`kquad_is_hyperbolic_witnessed` splits off hyperbolic planes through
isotropic vectors with `graded._split_plane`, the round of
`graded.metabolic_planes`, on Gram rows and q values packed once; the
brute-force enumeration oracles of the test suite split with it too.
`k.is_perfect` tells the finite residue fields GF(2^m) from GF(2^m)(x).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import linalg
from .errors import DegenerateForm, Undecidable, UnsupportedResidueField
from .fields.ratfunc import RatFuncField
from .quadform import QuadraticForm, split_gram

# the degree bound of the Artin-Schreier search over GF(2^m)(x)
AS_DEGREE_BOUND = 2


# -- quadratic forms over k ----------------------------------------------------


def _pair_columns(blocks):
    """The basis vectors of the pair blocks of split_gram, in order."""
    return [v for _, e, f in blocks for v in (e, f)]


def k_symplectic_blocks(form: QuadraticForm):
    """Binary blocks [a_i, b_i] of a nonsingular form over char-2 k, and
    the basis-change matrix whose columns are the symplectic basis."""
    if form.n % 2:
        raise DegenerateForm("odd-dimensional forms are singular in char 2")
    blocks, rest = split_gram(form.polar_matrix(), form.field)
    if rest:
        raise DegenerateForm("polar form over the residue field is degenerate")
    pairs = [(form.evaluate(e), form.evaluate(f)) for _, e, f in blocks]
    return pairs, linalg.transpose(_pair_columns(blocks))


def _through(M, terms, k):
    """The vector sum coeff * (column col of M) over (col, coeff) terms, M
    the basis matrix of k_symplectic_blocks."""
    return linalg.combine([k.zero] * len(M),
                          [(coeff, [row[col] for row in M]) for col, coeff in terms])


def kquad_isotropic_vector(form: QuadraticForm):
    """A nonzero isotropic vector of a nonsingular form, or None.

    A block [a, b] with a zero entry or an Artin-Schreier root u^2 + u =
    ab yields one.  Over finite k that decides: two trace-1 blocks combine
    through a square root, a single one is anisotropic.  Over GF(2^m)(x)
    the root search is bounded and only equal blocks combine (the
    diagonal of [a,b] perp [a,b]), so None means `none found'.
    """
    k = form.field
    if form.n == 0:
        return None
    pairs, M = k_symplectic_blocks(form)
    for bi, (a, b) in enumerate(pairs):
        e, f = 2 * bi, 2 * bi + 1
        if a.is_zero():
            return _through(M, [(e, k.one)], k)
        if b.is_zero():
            return _through(M, [(f, k.one)], k)
        if k.is_perfect:
            root = k.artin_schreier_root((a * b).bits)
            root = None if root is None else k.elem(root)
        else:
            root = _artin_schreier_small(k, a * b)
        if root is not None:
            return _through(M, [(e, root / a), (f, k.one)], k)
    if k.is_perfect:
        if len(pairs) < 2:
            return None
        # both blocks anisotropic: q(0,1,x2,0) = b1 + a2 x2^2 = 0
        (_, b1), (a2, _) = pairs[0], pairs[1]
        return _through(M, [(1, k.one), (2, (b1 / a2).sqrt())], k)
    # duplicated blocks cancel: the diagonal of [a,b] perp [a,b] is isotropic
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            if pairs[i] == pairs[j]:
                return _through(M, [(2 * i, k.one), (2 * j, k.one)], k)
    return None


def _artin_schreier_small(k: RatFuncField, c):
    """Bounded search for u with u^2 + u = c over GF(2^m)(x): the
    polynomials of degree at most AS_DEGREE_BOUND."""
    base = k.base
    if base.order ** (AS_DEGREE_BOUND + 1) > 1 << 12:
        return None
    for coeffs in product(range(base.order), repeat=AS_DEGREE_BOUND + 1):
        u = k.from_poly(coeffs)
        if u * u + u == c:
            return u
    return None


def arf_invariant(pairs, k) -> "WqClass":
    """Sum of trace bits of a_i b_i; classifies W_q over finite k."""
    if not k.is_perfect:
        raise UnsupportedResidueField(
            "Arf classification needs a finite residue field; "
            "use wq_raw_class for the partial invariant")
    bit = 0
    for a, b in pairs:
        bit ^= (a * b).trace()
    return WqClass(k, arf=bit)


def wq_raw_class(pairs, k) -> "WqClass":
    """Partial, non-deciding W_q data over an imperfect residue field."""
    rep = k.zero
    for a, b in pairs:
        rep = rep + a * b
    return WqClass(k, arf=None, raw=tuple(pairs), arf_representative=rep)


@dataclass(frozen=True)
class WqClass:
    """W_q(k) data: the Arf bit over finite k; raw forms plus the Arf
    representative (defined mod c^2 + c) over GF(2^m)(x)."""

    k: object
    arf: int = None
    raw: tuple = ()
    arf_representative: object = None

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


@dataclass(frozen=True)
class WClass:
    """W(k) for perfect char-2 k: dimension mod 2."""

    k: object
    bit: int

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


def w_class_of_gram(gram, k) -> WClass:
    """Witt class of a symmetric bilinear Gram matrix over perfect k.

    Diagonalizable lines count mod 2; the residual alternating part is
    metabolic and contributes nothing.
    """
    if not k.is_perfect:
        raise UnsupportedResidueField("W(k) classification needs perfect k")
    blocks, rest = split_gram(gram, k)
    if rest:
        raise DegenerateForm("degenerate bilinear form over k")
    return WClass(k, sum(kind == "line" for kind, _, _ in blocks) % 2)


# -- symplectic quadratic spaces ------------------------------------------------


@dataclass(frozen=True)
class SymplecticQuadSpace:
    """<a1, a1'> perp ... perp <ar, ar'> in a symplectic basis."""

    k: object
    pairs: tuple

    def __repr__(self):
        inner = " perp ".join(f"<{self.k.format_elem(a)}, {self.k.format_elem(b)}>"
                              for a, b in self.pairs)
        return inner or "0"

    def dim(self) -> int:
        return 2 * len(self.pairs)


@dataclass(frozen=True)
class SeparatedSpace:
    """<a1 | a1'> perp ... perp <ar | ar'>: q on V and q' on the dual."""

    k: object
    pairs: tuple

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
    blocks, rest = split_gram(bmat, k)
    if rest:
        raise DegenerateForm("alternating form is degenerate")
    q = QuadraticForm.diagonal(k, qvals).evaluate
    pairs = tuple((q(e), q(f)) for _, e, f in blocks)
    return SymplecticQuadSpace(k, pairs), _pair_columns(blocks)


def ssq_normalize(qvals, dual_qvals, k):
    """Raw separated data on a basis and its dual basis; any basis splits."""
    if len(qvals) != len(dual_qvals):
        raise DegenerateForm("separated data of mismatched dimensions")
    return SeparatedSpace(k, tuple(zip(qvals, dual_qvals)))


def functor_U(S: SeparatedSpace) -> SymplecticQuadSpace:
    """<a | a'> maps to <a, a'> with b((v,phi),(w,psi)) = psi(v) - phi(w)."""
    return SymplecticQuadSpace(S.k, S.pairs)


# -- wedge and tensor coordinates ------------------------------------------------


@dataclass(frozen=True)
class WedgeElem:
    """Element of k wedge_{k^2} k, stored as the square root of its
    coordinate on the basis 1 wedge x (k.zero over perfect k)."""

    k: object
    sqrt_coord: object

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


@dataclass(frozen=True)
class TensorElem:
    """Element of k tensor_{k^2} k.

    Perfect k: the coordinate of 1 tensor 1 (an element of k).
    GF(2^m)(x): square roots of the four k^2 coordinates on
    (1 tensor 1, 1 tensor x, x tensor 1, x tensor x).
    """

    k: object
    coords: tuple

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __add__(self, other: "TensorElem") -> "TensorElem":
        return TensorElem(self.k, tuple(a + b for a, b in
                                        zip(self.coords, other.coords)))

    def __repr__(self):
        if self.k.is_perfect:
            return f"({self.k.format_elem(self.coords[0])})*(1@1)"
        names = ("1@1", "1@x", "x@1", "x@x")
        parts = [f"({self.k.format_elem(c * c)})*({n})"
                 for c, n in zip(self.coords, names) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def to_wedge(self) -> WedgeElem:
        """The quotient map tensor -> wedge."""
        if self.k.is_perfect:
            return wedge_zero(self.k)
        return WedgeElem(self.k, self.coords[1] + self.coords[2])


def wedge_zero(k) -> WedgeElem:
    return WedgeElem(k, k.zero)


def tensor_zero(k) -> TensorElem:
    if k.is_perfect:
        return TensorElem(k, (k.zero,))
    return TensorElem(k, (k.zero,) * 4)


def wedge_of(a, b, k) -> WedgeElem:
    if k.is_perfect:
        return wedge_zero(k)
    a0, a1 = k.frobenius_coordinates(a)
    b0, b1 = k.frobenius_coordinates(b)
    return WedgeElem(k, a0 * b1 + a1 * b0)


def tensor_of(a, b, k) -> TensorElem:
    if k.is_perfect:
        return TensorElem(k, (a * b,))
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


def _split_isotropic(form: QuadraticForm, find) -> QuadraticForm:
    """Split off the hyperbolic plane through find(current) with the
    round of `graded.metabolic_planes` until find returns None; the form
    that is left."""
    from . import graded  # graded imports this module
    k = form.field
    vec = graded._vectors(k)
    G = [vec.pack(row) for row in form.polar_matrix()]
    qs = [form.U[i][i] for i in range(form.n)]
    current = form
    while current.n:
        found = find(current)
        if found is None:
            break
        sol = [(r, a) for r, a in enumerate(found) if not a.is_zero()]
        _, _, G, qs = graded._split_plane(vec, None, G, qs, sol, polar=True)
        current = QuadraticForm.from_gram(
            k, qs, [vec.unpack(row, len(qs)) for row in G])
    return current


def _arf_pairs(form: QuadraticForm) -> list:
    """(q(x), q(y)) for planes (x, y), b(x, y) = 1, that split a
    nonsingular form over finite k, on packed polar rows: x is the first
    row, isotropic or not, and `graded._split_plane` splits it off until
    no row is left."""
    from . import graded  # graded imports this module
    k = form.field
    if form.n % 2:
        raise DegenerateForm("odd-dimensional forms are singular in char 2")
    vec = graded._vectors(k)
    G = [vec.pack(row) for row in form.polar_matrix()]
    qs = [form.U[i][i] for i in range(form.n)]
    pairs = []
    while G:
        yi = vec.first(G[0])
        if yi is None:
            raise DegenerateForm(
                "polar form over the residue field is degenerate")
        sc = vec.entry(G[0], yi).inv()
        pairs.append((qs[0], qs[yi] * sc * sc))
        _, _, G, qs = graded._split_plane(vec, None, G, qs, [(0, k.one)],
                                          polar=True)
    return pairs


def kquad_witt_class(form: QuadraticForm) -> WqClass:
    """Witt class of a nonsingular form over k: Arf bit over finite k,
    partial raw data over GF(2^m)(x), read off `k_symplectic_blocks`."""
    if form.field.is_perfect:
        return arf_invariant(_arf_pairs(form), form.field)
    return wq_raw_class(k_symplectic_blocks(form)[0], form.field)


def kquad_is_hyperbolic_witnessed(form: QuadraticForm) -> bool:
    """Constructive hyperbolicity: split isotropic vectors until empty.

    Over finite k this decides; over GF(2^m)(x) only successful runs are
    meaningful (False means `no witness found').
    """
    return _split_isotropic(form, kquad_isotropic_vector).n == 0
