"""The brute-force residue-field oracles: anisotropic parts found by
exhaustive isotropic-vector enumeration over a finite field.

They split with `residue_witt._split_plane`, the residue-field plane
splitter that `kquad_is_hyperbolic_witnessed` runs too,
and serve as independent checks of the Arf invariant, the wedge and
tensor invariants and the hyperbolicity witness.  The Artin-Schreier
roots u^2 + u = c are found here too, for the oracles that check
`artin_schreier_root` and its callers: over GF(2^m) the enumeration of
the field decides whether one exists, and over GF(2^m)(x) the bounded
search the library states does.  No library answer or CLI path calls
them.
"""

from itertools import product

from wittlab import linalg
from wittlab.errors import UnsupportedResidueField, WittlabError
from wittlab.quadform import QuadraticForm
from wittlab.residue_witt import (SeparatedSpace, SymplecticQuadSpace,
                                  _packed, _split_isotropic, _split_plane,
                                  _vectors, sq_normalize)

ORACLE_ENUM_CAP = 1 << 21


class TooLarge(WittlabError):
    """The enumeration would exceed the oracle's budget."""


def _is_finite(k) -> bool:
    return k.is_perfect  # the perfect residue fields are the finite GF(2^m)


def _check_enum_size(k, dim):
    if dim > 12:
        raise TooLarge(f"oracle limited to dim <= 12, got {dim}")
    if not k.is_perfect:
        raise UnsupportedResidueField("enumeration oracle needs a finite field")
    if k.order ** dim > ORACLE_ENUM_CAP:
        raise TooLarge(f"{k.order}^{dim} vectors exceed the oracle budget")


def _first_isotropic(k, n, q):
    """The first nonzero vector of k^n, in enumeration order, with q = 0,
    or None."""
    for vec in product(list(map(k.elem, range(k.order))), repeat=n):
        if not all(c.is_zero() for c in vec) and q(list(vec)).is_zero():
            return list(vec)
    return None


def _finite_as_root(k, c):
    """A u of GF(2^m) with u^2 + u = c, or None when the enumeration of k
    finds none.  Of the two roots u and u + 1 it is the one the library's
    root method names too, so that the oracles' vectors can be compared
    with the library's: the closed form through d, the first element of
    trace 1, u = sum_{i<j<m} d^(2^j) c^(2^i), formed here on elements."""
    elems = list(map(k.elem, range(k.order)))
    if not any(u * u + u == c for u in elems):
        return None
    d = next(x for x in elems if _trace(k, x) == k.one)
    u, s, x = k.zero, k.zero, c
    for _ in range(1, k.m):  # step j: d^(2^j) (c + ... + c^(2^(j-1)))
        s, x, d = s + x, x * x, d * d
        u = u + d * s
    assert u * u + u == c
    return u


def _trace(k, x):
    """x + x^2 + ... + x^(2^(m-1)), an element of GF(2)."""
    t = k.zero
    for _ in range(k.m):
        t, x = t + x, x * x
    return t


def _bounded_as_search(R, c, bound=2):
    """The Artin-Schreier search over GF(2^m)(x) as the library states
    it: the polynomials of degree at most bound, in the order of
    itertools.product on their coefficients, none when there are over
    4096."""
    order = R.base.order
    if order ** (bound + 1) > 1 << 12:
        return None
    for coeffs in product(range(order), repeat=bound + 1):
        u = R.from_poly(coeffs)
        if u * u + u == c:
            return u
    return None


def sq_anisotropic_part(S: SymplecticQuadSpace) -> SymplecticQuadSpace:
    """Anisotropic kernel by exhaustive isotropic-vector search and
    splitting; the independent oracle for the wedge invariant."""
    k = S.k
    _check_enum_size(k, S.dim())
    pairs = list(S.pairs)
    while pairs:
        n = 2 * len(pairs)
        q = QuadraticForm.diagonal(k, [c for pair in pairs for c in pair])
        found = _first_isotropic(k, n, q.evaluate)
        if found is None:
            return SymplecticQuadSpace(k, tuple(pairs))
        vec = _vectors(k)
        B = [vec.pack([k.one if i ^ j == 1 else k.zero for j in range(n)])
             for i in range(n)]
        sol = [(r, a) for r, a in enumerate(found) if not a.is_zero()]
        _, _, G, qvals = _split_plane(
            vec, vec.units(n), B, [c for pair in pairs for c in pair], sol,
            polar=False)
        bmat = [vec.unpack(row, n - 2) for row in G]
        pairs = list(sq_normalize(qvals, bmat, k)[0].pairs)
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
        for primal in (True, False):
            # a q-isotropic vec spans a <0 | *> line of a diagonalizing
            # basis, which splits off as a metabolic line (dually for q')
            q = QuadraticForm.diagonal(
                k, [p[0] if primal else p[1] for p in pairs])
            vec = _first_isotropic(k, len(pairs), q.evaluate)
            if vec is not None:
                pairs = _separated_split(pairs, vec, k, primal)
                changed = True
                break
    return SeparatedSpace(k, tuple(pairs))


def _separated_split(pairs, vec, k, primal: bool):
    """Complete vec (isotropic for q if primal, else for q' in dual
    coordinates) to a basis and drop its metabolic line."""
    n = len(pairs)
    rows = [vec] + linalg.identity(n, k.zero, k.one)
    rows = [rows[r] for r in linalg.independent_rows(rows, n)]
    # basis of V (or V*): vec, then the chosen unit vectors
    M = [list(r) for r in zip(*rows)]  # columns are the new basis
    Minv = linalg.invert_exact(M, k.zero, k.one)
    q = QuadraticForm.diagonal(k, [a for a, _ in pairs]).evaluate
    q_dual = QuadraticForm.diagonal(k, [b for _, b in pairs]).evaluate
    out = []
    for idx in range(1, n):
        col = [M[r][idx] for r in range(n)]
        if primal:
            out.append((q(col), q_dual(Minv[idx])))
        else:
            out.append((q(Minv[idx]), q_dual(col)))
    return out


def witt_decompose_small(space):
    """Brute-force anisotropic part of a small space over a finite field."""
    if isinstance(space, SymplecticQuadSpace):
        return sq_anisotropic_part(space)
    if isinstance(space, SeparatedSpace):
        return separated_anisotropic_part(space)
    if isinstance(space, QuadraticForm):
        return kquad_anisotropic_part(space)
    raise TypeError(f"no oracle for {type(space).__name__}")


def kquad_anisotropic_part(form: QuadraticForm) -> QuadraticForm:
    """Anisotropic kernel of a nonsingular quadratic form over finite k,
    by exhaustive isotropic-vector search and splitting."""
    k = form.field
    _check_enum_size(k, form.n)
    vec = _vectors(k)

    def form_of(G, qs):
        return QuadraticForm.from_gram(
            k, qs, [vec.unpack(row, len(G)) for row in G])

    def find(_, G, qs):
        found = _first_isotropic(k, len(G), form_of(G, qs).evaluate)
        return None if found is None else vec.pack(found)

    return form_of(*_split_isotropic(k, *_packed(form), find))
