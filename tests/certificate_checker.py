"""An independent check of the depth certificates that `wittlab depth`
prints.

A `depth` answer prints, for each form, a certificate: the depth eps,
the norm values g_i and the basis columns e_i.  `check` reads the field,
the precision and the degree cap off the printed output, re-parses the
form and every column with `parse_form` and `parse_element`, forms
q(e_i) and b(e_i, e_j) by double loops over the form's matrix U, and
tests the three compatibility conditions:

(b) v(q(e_i)) >= 2 g_i;
(a) v(b(e_i, e_j)) >= g_i + g_j + eps for every i and j;
(c) the residue coefficients of b(e_i, e_j) at degree g_i + g_j + eps
    form a matrix of full rank, found by Gauss-Jordan elimination over
    the residue field.

A valuation is read as `low_bound`, a certified lower bound, so an entry
known to too little precision fails its bound.  Nothing of the library
is used but the parser and the field arithmetic: no `evaluate`,
`gram_of`, `polar_matrix`, `linalg` or `norms`.
"""

from fractions import Fraction

from wittlab.errors import PrecisionExhausted
from wittlab.fields import make_field
from wittlab.literals import parse_element, parse_form


def field_of(output):
    """The field a CLI output names, at its printed precision and cap."""
    spec = output["field"]
    if spec["kind"] == "dyadic":
        kind = "dyadic"
    else:
        kind = "laurent-ratfunc" if "variable" in spec else "laurent"
    return make_field(kind, m=spec.get("m", 1),
                      precision=output["precision"],
                      degree_cap=output["degree_cap"])


def _q(U, x, F):
    """q(x) = sum_ij U_ij x_i x_j."""
    acc = F.zero
    for i, row in enumerate(U):
        for j, u in enumerate(row):
            acc = acc + u * x[i] * x[j]
    return acc


def _b(U, x, y, F):
    """b(x, y) = q(x + y) - q(x) - q(y) = sum_ij U_ij (x_i y_j + x_j y_i)."""
    acc = F.zero
    for i, row in enumerate(U):
        for j, u in enumerate(row):
            acc = acc + u * (x[i] * y[j] + x[j] * y[i])
    return acc


def _full_rank(M):
    """Whether the square matrix M over a field has full rank."""
    M = [list(row) for row in M]
    n = len(M)
    for c in range(n):
        p = next((r for r in range(c, n) if not M[r][c].is_zero()), None)
        if p is None:
            return False
        M[c], M[p] = M[p], M[c]
        inv = M[c][c].inv()
        M[c] = [x * inv for x in M[c]]
        for r in range(n):
            if r != c and not M[r][c].is_zero():
                f = M[r][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return True


def check(output, answer):
    """None if the certificate of `answer`, one entry of the printed
    results of `output`, passes (a), (b) and (c); else the letter of the
    first condition that fails, or "shape" for a malformed certificate."""
    F = field_of(output)
    cert = answer["certificate"]
    U = parse_form(answer["form"], F).U
    n = len(U)
    g = [Fraction(v) for v in cert["values"]]
    eps = Fraction(cert["depth"])
    cols = [[parse_element(c, F) for c in col]
            for col in cert["basis_columns"]]
    if len(g) != n or len(cols) != n or any(len(c) != n for c in cols):
        return "shape"
    if any(_q(U, cols[i], F).low_bound() < 2 * g[i] for i in range(n)):
        return "b"
    b = [[_b(U, x, y, F) for y in cols] for x in cols]
    thr = [[g[i] + g[j] + eps for j in range(n)] for i in range(n)]
    if any(b[i][j].low_bound() < thr[i][j]
           for i in range(n) for j in range(n)):
        return "a"
    try:
        lead = [[b[i][j].coeff_at(thr[i][j]) for j in range(n)]
                for i in range(n)]
    except PrecisionExhausted:
        return "c"
    return None if _full_rank(lead) else "c"
