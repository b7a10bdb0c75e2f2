"""Residue symbols, canonical decompositions and Witt-class equality.

The boundary symbol of a form is the descended residue invariant of its
induced graded space at the minimal (wildness) depth: a pair of W_q
classes at depth 0, a tensor element at half-integer depths, a pair of
wedge elements at positive integer depths below v(2), and a pair of
W(k) classes at v(2).  The orbit order is pinned to ([0] first, [1/2]
second) and the default uniformizing choice (powers of the canonical
uniformizer) is emitted with every symbol.

Over a complete field with perfect residue field, every Witt class has
a unique canonical expression once the tame parameters are drawn from
the fixed transversal {0, the smallest trace-one lift}; equality of
classes is decided by comparing these expressions.  The recursion that
finds them peels one generator off per depth: the first round takes the
wildness index, and each later round extends the last round's
certificate by the new summand (norms.extend_certificate) and descends
from there, so no round starts again from an initial norm.  Over GF(2^m)(x)
residue fields equality is a semi-decision with Indistinguishable as a
first-class answer.
"""

from __future__ import annotations

from . import graded, residue_witt
from .errors import (INDISTINGUISHABLE, NotApplicable, PrecisionExhausted,
                     Record, UnsupportedResidueField, WittlabError)
from .fields import DyadicField
from .fields.common import HALF, INF, grid, half
from .graded import default_choice, orbit_invariants
from .norms import (_require_certified_form, descend, extend_certificate,
                    induced_space, norm_shift, require_certificate,
                    split_respecting_norm, wildness_index)
from .quadform import QuadraticForm

class ResidueSymbol(Record):
    """The value of the boundary map at the given depth."""

    __slots__ = _fields = ("eps", "kind", "payload")

    def __init__(self, eps, kind, payload):
        self.eps = eps
        self.kind = kind  # "wq_pair" | "tensor" | "wedge_pair" | "w_pair"
        self.payload = payload

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.payload)

    def __add__(self, other: "ResidueSymbol") -> "ResidueSymbol":
        if (self.eps, self.kind) != (other.eps, other.kind):
            raise NotApplicable("a sum of residue symbols needs one depth "
                                "and one kind")
        return ResidueSymbol(self.eps, self.kind,
                             tuple(a + b for a, b in zip(self.payload, other.payload)))


def _symbol_from_cert(q, cert) -> ResidueSymbol:
    if cert.evidence is None:
        inv = orbit_invariants(induced_space(q, cert))
    else:  # the invariants of the NotReducible step that ended a descent
        _require_certified_form(q, cert)
        inv = cert.evidence
    eps = cert.eps
    if eps.denominator == 2:
        return ResidueSymbol(eps, "tensor", (inv[(half(0), HALF)],))
    kind = ("wq_pair" if eps == 0 else "w_pair" if eps == q.field.v2
            else "wedge_pair")
    return ResidueSymbol(eps, kind, (inv[half(0)], inv[HALF]))


def boundary_symbol(q: QuadraticForm):
    """(wildness index, residue symbol at that depth)."""
    eps, cert = wildness_index(q)
    return eps, _symbol_from_cert(q, cert)


# -- generator expressions -----------------------------------------------------


class GeneratorTerm(Record):
    """(pi^scaled)[alpha, pi^(-2 eps) beta] with v(alpha), v(beta) >= 0."""

    __slots__ = _fields = ("scaled", "alpha", "beta")

    def __init__(self, scaled, alpha, beta):
        self.scaled = scaled
        self.alpha = alpha
        self.beta = beta


class GeneratorExpression(Record):
    __slots__ = _fields = ("eps", "terms", "vanished")
    __hash__ = None

    def __init__(self, eps, terms, vanished):
        self.eps = eps
        self.terms = terms
        self.vanished = vanished  # summands dropped because their class is zero


class NotInSubgroup(Record):
    __slots__ = _fields = ("requested", "actual", "symbol")
    __hash__ = None

    def __init__(self, requested, actual, symbol):
        self.requested = requested
        self.actual = actual
        self.symbol = symbol


def _monomials(x):
    """Split a base-field element into its t-monomials (char 2 only)."""
    F = x.field
    out = []
    for i, c in enumerate(x.coeffs):
        if not c.is_zero():
            out.append(F.make([(x.v0 + i, c)]))
    return out


def generator_certificate(q: QuadraticForm, eps):
    """Express q_W in the depth-eps generators, or report the obstruction."""
    eps = grid(eps)
    F = q.field
    if F.v2 != INF and eps >= F.v2:
        raise NotApplicable("generators are defined for eps < v(2)")
    w, cert = wildness_index(q)
    if w > eps:
        return NotInSubgroup(eps, w, _symbol_from_cert(q, cert))
    if cert.eps < eps:
        cert = require_certificate(q, norm_shift(cert.norm, cert.eps, eps), eps)
    blocks = split_respecting_norm(q, cert)
    pi = F.uniformizer()
    n2 = int(2 * eps)
    terms = []
    vanished = 0
    for i, ((a, b), _vals, _basis) in enumerate(blocks):
        factors = [(a, b)]
        if F.char == 2 and a.is_certified_nonzero() and b.is_certified_nonzero() \
                and a.abs_prec is None and b.abs_prec is None \
                and len(a.coeffs) * len(b.coeffs) <= 64:
            factors = [(am, bm) for am in _monomials(a) for bm in _monomials(b)]
        for (am, bm) in factors:
            if am.low_bound() + bm.low_bound() > 0:
                vanished += 1  # hyperbolic by completeness (or a zero slot)
                continue
            if not am.is_certified_nonzero():
                raise PrecisionExhausted(
                    f"block {i} entry a = {F.format_elem(am)} is zero only "
                    "to precision")
            # am pi^(-2s) has valuation 0 or 1; the factors are exact monomials
            s = int(am.valuation()) // 2
            am2, bm2 = am * pi ** (-2 * s), bm * pi ** (2 * s + n2)
            if int(am2.valuation()) == 0:
                terms.append(GeneratorTerm(False, am2, bm2))
            else:
                terms.append(GeneratorTerm(True, am2 / pi, bm2 * pi))
    return GeneratorExpression(eps, terms, vanished)


# -- canonical decomposition -----------------------------------------------------


class CanonicalDecomposition(Record):
    """Residue parameters of the canonical expression of a Witt class.

    wild[j] is the residue of the coefficient at half-integer depth
    j + 1/2 (trailing zeros trimmed; empty when the class is tame).
    a0/b0 are the tame parameters, drawn from {0, smallest trace-one
    element}; unit_bit/pi_bit are the two diagonal bits (characteristic
    0 only, zero otherwise).
    """

    __slots__ = _fields = ("wild", "a0", "b0", "unit_bit", "pi_bit")

    def __init__(self, wild, a0, b0, unit_bit=0, pi_bit=0):
        self.wild = wild
        self.a0 = a0
        self.b0 = b0
        self.unit_bit = unit_bit
        self.pi_bit = pi_bit

    @property
    def n(self):
        return max(0, len(self.wild) - 1)

    def describe(self, k):
        return {
            "n": self.n,
            "wild": [k.format_elem(c) for c in self.wild],
            "alpha0": k.format_elem(self.a0),
            "beta0": k.format_elem(self.b0),
            "unit_bit": self.unit_bit,
            "pi_bit": self.pi_bit,
        }


def decomposition_form(field, dec: CanonicalDecomposition) -> QuadraticForm:
    """The explicit representative built from the parameters.

    Summands with a zero parameter are hyperbolic and are dropped, so the
    zero class is represented by the empty form."""
    pi = field.uniformizer()
    form = QuadraticForm(field, [])
    for j, alpha in enumerate(dec.wild):
        if alpha.is_zero():
            continue
        lift = field.section(alpha)
        coeff = lift * lift / pi ** (2 * j + 1)
        form = form.ortho_sum(QuadraticForm.binary(field, field.one, coeff))
    if not dec.a0.is_zero():
        a0 = field.section(dec.a0)
        form = form.ortho_sum(QuadraticForm.binary(field, field.one, a0 * a0))
    if not dec.b0.is_zero():
        b0 = field.section(dec.b0)
        form = form.ortho_sum(QuadraticForm.binary(field, pi, b0 * b0 / pi))
    if dec.unit_bit:
        form = form.ortho_sum(QuadraticForm.diagonal(field, [field.one]))
    if dec.pi_bit:
        form = form.ortho_sum(QuadraticForm.diagonal(field, [pi]))
    return form


def canonical_decomposition(q: QuadraticForm) -> CanonicalDecomposition:
    """Unique parameters of the Witt class over a perfect residue field."""
    F = q.field
    if not F.residue_field.is_perfect:
        raise UnsupportedResidueField(
            "canonical decomposition needs a perfect residue field")
    k = F.residue_field
    pi = F.uniformizer()
    wild = {}
    a0 = b0 = k.zero
    unit_bit = pi_bit = 0
    last_eps = None
    cert = wildness_index(q)[1]
    # each later round descends from the last certificate joined to the
    # new summand; the depths strictly decrease on the half-integer grid
    # at 0 or above, so the loop ends
    while True:
        eps = cert.eps
        if last_eps is not None and eps >= last_eps:
            raise PrecisionExhausted(
                "canonical recursion failed to reduce the depth")
        last_eps = eps
        sym = _symbol_from_cert(cert.form, cert)
        if eps == 0:
            bit0, bit1 = sym.payload[0].arf, sym.payload[1].arf
            one = k.canonical_trace_one()
            a0 = one if bit0 else k.zero
            b0 = one if bit1 else k.zero
            break
        if sym.kind == "w_pair":
            # two lines: the binary builder has no norm for <-1, -pi>
            unit_bit = sym.payload[0].bit
            pi_bit = sym.payload[1].bit
            if unit_bit:
                cert = extend_certificate(
                    cert, QuadraticForm.diagonal(F, [-F.one]))
            if pi_bit:
                cert = extend_certificate(cert, QuadraticForm.diagonal(F, [-pi]))
            cert = descend(cert)
            continue
        assert sym.kind == "tensor", \
            "integer-depth symbols vanish over perfect residue fields"
        alpha = sym.payload[0].coords[0]
        wild[eps] = alpha
        lift = F.section(alpha)
        gen = QuadraticForm.binary(F, F.one, lift * lift / pi ** int(2 * eps))
        cert = descend(extend_certificate(cert, -gen))
    top = max((int(e - HALF) for e in wild), default=-1)
    alphas = [wild.get(j + HALF, k.zero) for j in range(top + 1)]
    return CanonicalDecomposition(tuple(alphas), a0, b0, unit_bit, pi_bit)


# -- equality ------------------------------------------------------------------


def class_is_zero_tame_oracle(q: QuadraticForm):
    """Independent zero test: wildness 0 and vanishing tame symbol.

    Complete over perfect residue fields; over imperfect ones True needs
    a constructive hyperbolicity witness and the fallback answer is
    INDISTINGUISHABLE.
    """
    eps, cert = wildness_index(q)
    if eps > 0:
        return False
    S = induced_space(q, cert)
    descended = graded.descend_case1(S, default_choice(S))
    if q.field.residue_field.is_perfect:
        return all(obj.n == 0 or
                   residue_witt.kquad_witt_class(obj).is_zero()
                   for obj in descended.values())
    witnessed = all(obj.n == 0 or
                    residue_witt.kquad_is_hyperbolic_witnessed(obj)
                    for obj in descended.values())
    return True if witnessed else INDISTINGUISHABLE


def witt_equal(q1: QuadraticForm, q2: QuadraticForm):
    """True, False, or INDISTINGUISHABLE (imperfect residue at depth 0)."""
    if q1.field != q2.field:
        raise NotApplicable("forms over different fields")
    if q1.field.residue_field.is_perfect:
        return canonical_decomposition(q1) == canonical_decomposition(q2)
    return class_is_zero_tame_oracle(q1.ortho_sum(-q2))


# -- the thirty-two classes over Q_2 ----------------------------------------------


def enumerate_wq_Q2(precision: int = 64):
    """All canonical decompositions over Q_2 with their addition table.

    Returns (decomps, table): 32 pairwise-distinct parameter tuples and
    the 32 x 32 index table of re-canonicalized orthogonal sums.
    """
    F = DyadicField(precision)
    k = F.residue_field
    decomps = []
    forms = []
    for bits in range(32):
        a1 = (bits >> 4) & 1
        a0 = (bits >> 3) & 1
        b0 = (bits >> 2) & 1
        ub = (bits >> 1) & 1
        pb = bits & 1
        dec = CanonicalDecomposition(
            (k.one,) if a1 else (),
            k.one if a0 else k.zero,
            k.one if b0 else k.zero,
            ub, pb)
        decomps.append(dec)
        forms.append(decomposition_form(F, dec))
    for i, (dec, form) in enumerate(zip(decomps, forms)):
        if canonical_decomposition(form) != dec:
            raise WittlabError(f"round trip failed at representative {i}")
    table = [[None] * 32 for _ in range(32)]
    index = {dec: i for i, dec in enumerate(decomps)}
    for i in range(32):
        for j in range(i, 32):
            s = canonical_decomposition(forms[i].ortho_sum(forms[j]))
            table[i][j] = table[j][i] = index[s]
    return decomps, table
