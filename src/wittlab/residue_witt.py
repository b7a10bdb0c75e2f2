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

Nonsingular quadratic forms over a finite residue field are classified
by their Arf invariant (the absolute trace bit); `witt_decompose_small`
is the independent brute-force oracle, splitting off metabolic planes
found by exhaustive vector enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from . import linalg
from .errors import (DegenerateForm, TooLarge, Undecidable,
                     UnsupportedResidueField)
from .fields.gf2m import GF2m
from .fields.ratfunc import RatFuncField

ORACLE_ENUM_CAP = 1 << 21


def _is_finite(k) -> bool:
    return isinstance(k, GF2m)


# -- quadratic forms over k ----------------------------------------------------


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
        ab = a * b
        root = k.artin_schreier_root(ab.bits)
        if root is not None:
            u = k.elem(root)
            return through(bi, (u / a, k.one))
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
        root = _artin_schreier_small(k, a * b)
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


def _artin_schreier_small(k: RatFuncField, c, degree_bound: int = 2):
    """Bounded search for u with u^2 + u = c over GF(2^m)(x)."""
    base = k.base
    if base.order ** (degree_bound + 1) > 1 << 12:
        return None
    for coeffs in product(range(base.order), repeat=degree_bound + 1):
        u = k.from_poly(coeffs)
        if u * u + u == c:
            return u
    return None


def arf_invariant(pairs, k) -> "WqClass":
    """Sum of trace bits of a_i b_i; classifies W_q over finite k."""
    if not _is_finite(k):
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
    if not getattr(k, "is_perfect", False):
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
    if not getattr(k, "is_perfect", False):
        raise UnsupportedResidueField("W(k) classification needs perfect k")
    n = len(gram)
    vecs = [[k.one if i == r else k.zero for i in range(n)] for r in range(n)]

    def bval(u, w):
        acc = k.zero
        for i in range(n):
            for j in range(n):
                acc = acc + gram[i][j] * u[i] * w[j]
        return acc

    lines = 0
    while vecs:
        idx = next((i for i, v in enumerate(vecs) if not bval(v, v).is_zero()), None)
        if idx is None:
            # alternating remainder: nondegenerate => metabolic
            rank = len(linalg.rref_exact(
                [[bval(u, w) for w in vecs] for u in vecs])[1])
            if rank != len(vecs):
                raise DegenerateForm("degenerate bilinear form over k")
            break
        e = vecs[idx]
        de = bval(e, e)
        lines += 1
        rest = [v for i, v in enumerate(vecs) if i != idx]
        vecs = [[v[r] + (bval(v, e) / de) * e[r] for r in range(n)] for v in rest]
    return WClass(k, lines % 2)


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

    def perp(self, other: "SymplecticQuadSpace") -> "SymplecticQuadSpace":
        return SymplecticQuadSpace(self.k, self.pairs + other.pairs)

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

    def perp(self, other: "SeparatedSpace") -> "SeparatedSpace":
        return SeparatedSpace(self.k, self.pairs + other.pairs)

    def dim(self) -> int:
        return len(self.pairs)


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
    coordinate on the basis 1 wedge x (zero over perfect k)."""

    k: object
    sqrt_coord: object = None

    def is_zero(self) -> bool:
        return self.sqrt_coord is None or self.sqrt_coord.is_zero()

    def __add__(self, other: "WedgeElem") -> "WedgeElem":
        if self.sqrt_coord is None:
            return other
        if other.sqrt_coord is None:
            return self
        return WedgeElem(self.k, self.sqrt_coord + other.sqrt_coord)

    def coordinate(self):
        """The honest k^2 coordinate on 1 wedge x."""
        if self.sqrt_coord is None:
            return None
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
        if getattr(self.k, "is_perfect", False):
            return f"({self.k.format_elem(self.coords[0])})*(1@1)"
        names = ("1@1", "1@x", "x@1", "x@x")
        parts = [f"({self.k.format_elem(c * c)})*({n})"
                 for c, n in zip(self.coords, names) if not c.is_zero()]
        return " + ".join(parts) if parts else "0"

    def to_wedge(self) -> WedgeElem:
        """The quotient map tensor -> wedge."""
        if getattr(self.k, "is_perfect", False):
            return WedgeElem(self.k, None)
        return WedgeElem(self.k, self.coords[1] + self.coords[2])


def wedge_zero(k) -> WedgeElem:
    return WedgeElem(k, None if getattr(k, "is_perfect", False) else k.zero)


def tensor_zero(k) -> TensorElem:
    if getattr(k, "is_perfect", False):
        return TensorElem(k, (k.zero,))
    return TensorElem(k, (k.zero,) * 4)


def wedge_of(a, b, k) -> WedgeElem:
    if getattr(k, "is_perfect", False):
        return WedgeElem(k, None)
    a0, a1 = k.frobenius_coordinates(a)
    b0, b1 = k.frobenius_coordinates(b)
    return WedgeElem(k, a0 * b1 + a1 * b0)


def tensor_of(a, b, k) -> TensorElem:
    if getattr(k, "is_perfect", False):
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


# -- brute-force oracles ----------------------------------------------------------


def _check_enum_size(k, dim):
    if dim > 12:
        raise TooLarge(f"oracle limited to dim <= 12, got {dim}")
    if not _is_finite(k):
        raise UnsupportedResidueField("enumeration oracle needs a finite field")
    if k.order ** dim > ORACLE_ENUM_CAP:
        raise TooLarge(f"{k.order}^{dim} vectors exceed the oracle budget")


def sq_anisotropic_part(S: SymplecticQuadSpace) -> SymplecticQuadSpace:
    """Anisotropic kernel by exhaustive isotropic-vector search and
    splitting; the independent oracle for the wedge invariant."""
    k = S.k
    _check_enum_size(k, S.dim())
    pairs = list(S.pairs)
    while pairs:
        n = 2 * len(pairs)

        def q_of(vec):
            acc = k.zero
            for idx, (a, b) in enumerate(pairs):
                acc = acc + vec[2 * idx] * vec[2 * idx] * a
                acc = acc + vec[2 * idx + 1] * vec[2 * idx + 1] * b
            return acc

        def b_of(u, w):
            acc = k.zero
            for idx in range(len(pairs)):
                acc = acc + u[2 * idx] * w[2 * idx + 1] + u[2 * idx + 1] * w[2 * idx]
            return acc

        found = None
        for vec in product(list(k.elements()), repeat=n):
            if all(c.is_zero() for c in vec):
                continue
            if q_of(list(vec)).is_zero():
                found = list(vec)
                break
        if found is None:
            return SymplecticQuadSpace(k, tuple(pairs))
        partner = None
        for j in range(n):
            unit = [k.one if i == j else k.zero for i in range(n)]
            if not b_of(found, unit).is_zero():
                partner = unit
                break
        g = b_of(found, partner)
        partner = [c / g for c in partner]
        vecs = [[k.one if i == r else k.zero for i in range(n)] for r in range(n)]
        basis = []
        for w in vecs:
            bp, bf = b_of(w, partner), b_of(w, found)
            w2 = [w[r] + bp * found[r] + bf * partner[r] for r in range(n)]
            cand = basis + [w2]
            rows = [list(v) for v in cand]
            if len(linalg.rref_exact(rows)[1]) == len(cand):
                basis.append(w2)
            if len(basis) == n - 2:
                break
        qvals = [q_of(v) for v in basis]
        bmat = [[b_of(u, w) for w in basis] for u in basis]
        S2, _ = sq_normalize(qvals, bmat, k)
        pairs = list(S2.pairs)
    return SymplecticQuadSpace(k, ())


def separated_anisotropic_part(S: SeparatedSpace) -> SeparatedSpace:
    """Anisotropic kernel of a separated space by exhaustive search for
    isotropic vectors of q (on V) and of q' (on the dual)."""
    k = S.k
    _check_enum_size(k, max(1, S.dim()))
    pairs = list(S.pairs)
    changed = True
    while changed and pairs:
        changed = False
        n = len(pairs)
        for vec in product(list(k.elements()), repeat=n):
            if all(c.is_zero() for c in vec):
                continue
            qv = k.zero
            for c, (a, _) in zip(vec, pairs):
                qv = qv + c * c * a
            if qv.is_zero():
                # new basis containing vec diagonalizes; the vec line is
                # <0 | *> and splits off as a metabolic line
                pairs = _separated_split(pairs, list(vec), k, primal=True)
                changed = True
                break
        if changed:
            continue
        for vec in product(list(k.elements()), repeat=n):
            if all(c.is_zero() for c in vec):
                continue
            qv = k.zero
            for c, (_, b) in zip(vec, pairs):
                qv = qv + c * c * b
            if qv.is_zero():
                pairs = _separated_split(pairs, list(vec), k, primal=False)
                changed = True
                break
    return SeparatedSpace(k, tuple(pairs))


def _separated_split(pairs, vec, k, primal: bool):
    """Complete vec (isotropic for q if primal, else for q' in dual
    coordinates) to a basis and drop its metabolic line."""
    n = len(pairs)
    rows = [vec]
    chosen = []
    for j in range(n):
        unit = [k.one if i == j else k.zero for i in range(n)]
        cand = rows + [unit]
        if len(linalg.rref_exact([list(r) for r in cand])[1]) == len(cand):
            rows.append(unit)
            chosen.append(j)
        if len(rows) == n:
            break
    # basis of V (or V*): vec, then unit vectors `chosen`
    M = [list(r) for r in zip(*rows)]  # columns are the new basis
    Minv = linalg.invert_exact(M, k.zero, k.one)
    out = []
    for idx in range(1, n):
        col = [M[r][idx] for r in range(n)]
        dual_row = Minv[idx]
        if primal:
            a = k.zero
            for c, (av, _) in zip(col, pairs):
                a = a + c * c * av
            bprime = k.zero
            for c, (_, bv) in zip(dual_row, pairs):
                bprime = bprime + c * c * bv
        else:
            a = k.zero
            for c, (av, _) in zip(dual_row, pairs):
                a = a + c * c * av
            bprime = k.zero
            for c, (_, bv) in zip(col, pairs):
                bprime = bprime + c * c * bv
        out.append((a, bprime))
    return out


def witt_decompose_small(space):
    """Brute-force anisotropic part of a small space over a finite field."""
    if isinstance(space, SymplecticQuadSpace):
        return sq_anisotropic_part(space)
    if isinstance(space, SeparatedSpace):
        return separated_anisotropic_part(space)
    if isinstance(space, KQuadForm):
        return kquad_anisotropic_part(space)
    raise TypeError(f"no oracle for {type(space).__name__}")


def kquad_anisotropic_part(form: KQuadForm) -> KQuadForm:
    """Anisotropic kernel of a nonsingular quadratic form over finite k,
    by exhaustive isotropic-vector search and splitting."""
    k = form.k
    _check_enum_size(k, form.n)
    current = form
    while current.n:
        found = None
        for vec in product(list(k.elements()), repeat=current.n):
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


def kquad_witt_class(form: KQuadForm) -> WqClass:
    """Witt class of a nonsingular form over k: Arf bit over finite k,
    partial raw data over GF(2^m)(x)."""
    pairs, _ = k_symplectic_blocks(form)
    if _is_finite(form.k):
        return arf_invariant(pairs, form.k)
    return wq_raw_class(pairs, form.k)


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
