import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab.errors import FormSyntaxError, WittlabError
from wittlab.fields import make_field
from wittlab.literals import parse_element, parse_form

F2T = make_field("laurent", m=1)
F2XT = make_field("laurent-ratfunc", m=1)
Q2 = make_field("dyadic")


def test_element_literals_laurent():
    t = F2T.uniformizer()
    assert parse_element("t^-1 + t", F2T) == t.inv() + t
    assert parse_element("1 + t", F2T) == F2T.one + t
    assert parse_element("(1+t)*(1+t)", F2T) == F2T.one + t * t
    assert parse_element("0", F2T).is_exactly_zero()


def test_element_literals_ratfunc():
    e = parse_element("x*t^2 + 1", F2XT)
    x = F2XT.section(F2XT.residue_field.x)
    t = F2XT.uniformizer()
    assert e == x * t * t + F2XT.one


def test_element_literals_dyadic():
    assert parse_element("1/2", Q2) == Q2.one / Q2.from_int(2)
    assert parse_element("-3", Q2) == Q2.from_int(-3)
    assert parse_element("3*2^5", Q2) == Q2.from_int(96)
    with pytest.raises(FormSyntaxError):
        parse_element("t", Q2)


def test_element_print_parse_roundtrip():
    for text in ("t^-1 + t", "1 + t + t^3", "t^-2"):
        e = parse_element(text, F2T)
        assert parse_element(F2T.format_elem(e), F2T) == e
    for text in ("x*t^-1 + 1", "(x^2+1)*t"):
        e = parse_element(text, F2XT)
        assert parse_element(F2XT.format_elem(e), F2XT) == e
    for text in ("12", "1/2", "-7"):
        e = parse_element(text, Q2)
        assert parse_element(Q2.format_elem(e), Q2) == e


def test_truncated_values_reparse():
    e = parse_element("1 + t + O(t^5)", F2T)
    assert e.abs_prec == 5
    assert parse_element(F2T.format_elem(e), F2T) == e
    d = parse_element("3 + O(2^7)", Q2)
    assert d.abs_prec == 7
    assert parse_element(Q2.format_elem(d), Q2) == d


def test_bitpattern_atoms():
    F4T = make_field("laurent", m=2)
    e = parse_element("2*t + 3", F4T)
    k = F4T.residue_field
    assert e == F4T.section(k.elem(2)) * F4T.uniformizer() + F4T.section(k.elem(3))
    with pytest.raises(FormSyntaxError):
        parse_element("4", F4T)
    with pytest.raises(FormSyntaxError):
        parse_element("2", F2T)


def test_syntax_error_positions():
    with pytest.raises(FormSyntaxError) as exc:
        parse_form("[1,,t]", F2T)
    assert exc.value.column == 4
    with pytest.raises(FormSyntaxError) as exc:
        parse_element("1 + * t", F2T)
    assert exc.value.column == 5


@pytest.mark.parametrize("field, text, message, line, column", [
    (F2T, "[1 +, t]", "unexpected ','", 1, 5),
    (F2T, "sum([1,t],\n [t, 1 *])", "unexpected ']'", 2, 9),
    (Q2, "<1, 1 ^>", "expected an integer exponent, found '>'", 1, 8),
    (F2T, "[O(t)^-1, 1]", "negative power of a non-invertible element", 1, 9),
    (F2T, "[1,,t]", "unexpected ','", 1, 4),
    (F2T, "[1, t^", "expected an integer exponent, found 'end of input'", 1, 7),
    (F2T, '[["1", "0"], ["0"]]',
     "matrix row 2 has 1 entries; a 2x2 matrix needs 2", 1, 14),
    (F2T, '[["1", "0"], ["0", "t +"]]', "unexpected 'end of input'", 1, 24),
    (F2T, '[["1", "0"],\n ["0", "t +"]]', "unexpected 'end of input'", 2, 12),
    (F2T, '[[1, 2], [0, 1]]',
     "residue constant 2 out of range for GF(2^1) (bit-pattern atoms)", 1, 6),
    (F2T, '[["1", "t"], [1, "1"]]',
     "matrix entry (2, 1) below the diagonal is not 0; the matrix is "
     "upper-triangular", 1, 15),
    (F2T, '[["1", "\\u0074 +"], [0, "1"]]', "unexpected 'end of input'", 1, 8),
    (F2T, "[1/0, 1]", "division by a non-invertible element", 1, 3),
    (F2XT, "[1, t/(t-t)]", "division by a non-invertible element", 1, 6),
    (Q2, "<1/O(2^3)>", "division by a non-invertible element", 1, 3),
    (F2T, '[["1/0","0"],["0","1"]]', "division by a non-invertible element",
     1, 5),
])
def test_error_points_at_the_offending_token(field, text, message, line,
                                             column):
    # an element of a form is parsed where it stands, so an error at its
    # end points at the token that ends it
    with pytest.raises(FormSyntaxError) as exc:
        parse_form(text, field)
    assert str(exc.value) == f"{message} (line {line}, column {column})"
    assert (exc.value.line, exc.value.column) == (line, column)


# field, its atoms; the tokens a mutation inserts or substitutes
LITERAL_FIELDS = {
    "f2-laurent": (F2T, ("0", "1", "t", "O(t^3)", "O(t^-1)")),
    "f2x-laurent": (F2XT, ("1", "t", "x", "O(t^2)")),
    "q2": (Q2, ("1", "3", "-2", "O(2^4)")),
}
MUTANTS = (",", "[", "]", "<", ">", "(", ")", "^", "-", "+", "*", "/", "1",
           "t", "x", "O", "sum", "scale", "2")
_LEXEME = re.compile(r"\d+|[A-Za-z_]\w*|\S")


def element_text(atoms, depth=2):
    leaf = st.sampled_from(atoms)
    if not depth:
        return leaf
    sub = element_text(atoms, depth - 1)
    return st.one_of(
        leaf,
        sub.map(lambda a: f"({a})"),
        st.tuples(sub, st.integers(-2, 3)).map(lambda p: f"({p[0]})^{p[1]}"),
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(" ".join))


def form_text(atoms, depth=1):
    el = element_text(atoms)
    forms = [st.tuples(el, el).map(lambda p: f"[{p[0]}, {p[1]}]"),
             st.lists(el, min_size=1, max_size=3).map(
                 lambda xs: "<" + ", ".join(xs) + ">")]
    if depth:
        sub = form_text(atoms, depth - 1)
        forms += [st.lists(sub, min_size=1, max_size=2).map(
                      lambda fs: "sum(" + ", ".join(fs) + ")"),
                  st.tuples(el, sub).map(lambda p: f"scale({p[0]}, {p[1]})")]
    return st.one_of(forms)


def _joined(draw, tokens, seps=(" ", "", "\n", " \n  ")):
    """The tokens, or the tokens with one deleted, replaced or inserted,
    joined by separators drawn from seps."""
    if tokens and draw(st.booleans()):
        i = draw(st.integers(0, len(tokens) - 1))
        how = draw(st.sampled_from(["delete", "replace", "insert"]))
        new = [] if how == "delete" else [draw(st.sampled_from(MUTANTS))]
        tokens[i:i + (how != "insert")] = new
    gaps = draw(st.lists(st.sampled_from(seps), min_size=len(tokens),
                         max_size=len(tokens)))
    return "".join(s + tok for s, tok in zip(gaps, tokens))


@st.composite
def literal_text(draw, atoms):
    """A well-formed form literal, or one with one token deleted, replaced
    or inserted; its tokens are joined by blanks and line breaks."""
    return _joined(draw, _LEXEME.findall(draw(form_text(atoms))))


@st.composite
def json_matrix_text(draw, atoms):
    """A JSON matrix literal, mostly square, of JSON integers and strings
    of element literals, some with one token deleted, replaced or
    inserted; its JSON tokens are joined by blanks and line breaks."""
    n = draw(st.integers(1, 3))
    sep = st.sampled_from([" ", "", "\n"])
    rows = []
    for _ in range(n):
        items = []
        for _ in range(draw(st.sampled_from([n, n, n, max(n - 1, 1), n + 1]))):
            if draw(st.booleans()):
                items.append(str(draw(st.integers(0, 2))))
            else:
                tokens = _LEXEME.findall(draw(element_text(atoms, depth=1)))
                items.append(json.dumps(_joined(draw, tokens, (" ", ""))))
        rows.append("[" + ",".join(draw(sep) + x for x in items) + "]")
    return "[" + ",".join(draw(sep) + row for row in rows) + "]"


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_error_position_moves_with_the_text(data):
    # a line break in front of a malformed literal moves its error one
    # line down and keeps the column, for a JSON matrix too
    field, atoms = LITERAL_FIELDS[data.draw(st.sampled_from(sorted(LITERAL_FIELDS)))]
    text = data.draw(st.one_of(literal_text(atoms), json_matrix_text(atoms)))
    try:
        parse_form(text, field)
    except FormSyntaxError as e:
        with pytest.raises(FormSyntaxError) as moved:
            parse_form("\n" + text, field)
        assert (moved.value.line, moved.value.column) == (e.line + 1, e.column)
    except WittlabError:
        pass


def test_form_literals():
    q = parse_form("[1+t, t^-1]", F2T)
    assert q.n == 2
    assert q.U[0][1] == F2T.one
    q = parse_form("<1, 1>", Q2)
    assert q.n == 2 and q.U[0][1].is_exactly_zero()
    q = parse_form("sum([1,1], [t, t^-1])", F2T)
    assert q.n == 4
    q = parse_form("scale(t, [1, 1])", F2T)
    t = F2T.uniformizer()
    assert q.U[0][0] == t and q.U[0][1] == t


def test_form_json_matrix():
    q = parse_form('[["1", "t"], ["0", "t^-1"]]', F2T)
    assert q.n == 2 and q.U[0][1] == F2T.uniformizer()
    with pytest.raises(FormSyntaxError):
        parse_form('[["1", ]]', F2T)


def test_form_json_matrix_integer_entries():
    q = parse_form("[[1,0],[0,1]]", F2T)
    assert q.U == parse_form('[["1","0"],["0","1"]]', F2T).U
    assert parse_form("[[3, -1], [0, 5]]", Q2).U[0][1] == Q2.from_int(-1)


@pytest.mark.parametrize("text", [
    '[["1"],["0","1"]]',          # ragged
    '[[]]',                       # empty row
    '[["1","0"]]',                # not square
    '[["1","0"],["0","1"],["0","0"]]',
    '[["1","1"],["t","t^-1"]]',   # nonzero entry below the diagonal
    '[["1","1"],["O(t^3)","t^-1"]]',
    '[["1",true],["0","1"]]',     # neither a literal nor an integer
    '[["1",0.5],["0","1"]]',
    '[[1], 2]',
])
def test_form_json_matrix_rejects_malformed(text):
    with pytest.raises(FormSyntaxError):
        parse_form(text, F2T)
