"""The literal parser against the parser it replaced, kept verbatim in
literals_parent.py as a differential oracle.

On a drawn literal, well-formed or with one token deleted, replaced or
inserted, and on a drawn JSON matrix, both parsers give the same form
(by repr) or raise the same exception with the same message, line and
column.  The one intended difference: where the old parser let a
division by a non-invertible element escape as DivisionByZero, the new
one raises a syntax error at the "/" of that division.

Every rule that consumes the end of the text raises at once, at that
token, so no literal reads past it; that reading past it stays at the
end is checked on the parser itself.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import literals_parent
from test_literals import LITERAL_FIELDS, json_matrix_text, literal_text
from wittlab.errors import DivisionByZero, FormSyntaxError
from wittlab.fields import field_shorthand
from wittlab.literals import _Parser, parse_form

# the three fields of test_literals, and two over GF(4) whose integer
# atoms 2 and 3 are bit patterns of residue constants
FIELDS = {
    **LITERAL_FIELDS,
    "f2m-laurent:m=2": (field_shorthand("f2m-laurent:m=2"),
                        ("1", "2", "3", "t", "O(t^3)")),
    "f2mx-laurent:m=2": (field_shorthand("f2mx-laurent:m=2"),
                         ("2", "3", "t", "x", "O(t^2)")),
}


def _outcome(parse, text, field):
    """("form", its repr), or (exception type, str, line, column)."""
    try:
        return "form", repr(parse(text, field))
    except Exception as e:
        return (type(e), str(e), getattr(e, "line", None),
                getattr(e, "column", None))


def _offset(text, line, column):
    """The offset of the 1-based line and column in text."""
    lines = text.split("\n")
    return sum(len(s) + 1 for s in lines[:line - 1]) + column - 1


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_parser_agrees_with_the_parser_it_replaced(data):
    field, atoms = FIELDS[data.draw(st.sampled_from(sorted(FIELDS)))]
    text = data.draw(st.one_of(literal_text(atoms), json_matrix_text(atoms)))
    old = _outcome(literals_parent.parse_form, text, field)
    new = _outcome(parse_form, text, field)
    if old[0] is not DivisionByZero:
        assert new == old
        return
    kind, message, line, column = new
    assert kind is FormSyntaxError
    assert message == ("division by a non-invertible element "
                       f"(line {line}, column {column})")
    assert text[_offset(text, line, column)] == "/"


def test_reading_past_the_end_stays_at_the_end():
    field = FIELDS["f2-laurent"][0]
    p = _Parser("t \n", field)
    assert [p.next(), p.next(), p.next()] == [("name", "t", 0),
                                              ("eof", "", 3), ("eof", "", 3)]
    assert p.peek() == ("eof", "", 3)
