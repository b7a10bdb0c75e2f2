import pytest

from wittlab.errors import FormSyntaxError
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
