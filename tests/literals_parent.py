r"""Bit-exact literal grammar for field elements and forms.

Element grammar (EBNF):

    element   = term , { ("+" | "-") , term } ;
    term      = factor , { ("*" | "/") , factor } ;
    factor    = [ "-" ] , power ;
    power     = atom , [ "^" , signed ] ;
    atom      = integer | "t" | "x" | "(" , element , ")"
              | "O" , "(" , ("t" | "2") , [ "^" , signed ] , ")" ;
    signed    = [ "-" ] , digits ;

Semantics: over k((t)) the symbol `t` is the uniformizer and integer
atoms are residue-field constants by bit-pattern (so they must be below
2^m; for GF(2) that is just 0 and 1); `x` is the generator of a
rational-function residue field.  Over Q_2 integer atoms are 2-adic
integers and `t`/`x` are errors.  `O(t^k)` (resp. `O(2^k)`) is the
zero-to-precision element, so printed truncated values re-parse.

Form grammar:

    form      = "[" , element , "," , element , "]"
              | "<" , element , { "," , element } , ">"
              | "sum" , "(" , form , { "," , form } , ")"
              | "scale" , "(" , element , "," , form , ")" ;

The elements of a form are parsed in place, on the form's own tokens:
the element grammar cannot consume ",", "]", ">" or an unmatched ")",
so it stops at the token that ends each element, and a syntax error
carries the line and column of the offending token.

A JSON array of arrays (detected by a leading "[[") is accepted as a
raw upper-triangular coefficient matrix: it must be square, its entries
are element literals or JSON integers (read as integer atoms), and every
entry below the diagonal must be exactly 0.  A shape error points at its
row or entry, and an element error inside an entry at its column in the
text (at the entry's opening quote when the string has escapes).
"""

from __future__ import annotations

import json
import re

from wittlab.errors import DivisionByZero, FormSyntaxError
from wittlab.fields.common import power
from wittlab.fields.dyadic import DyadicField
from wittlab.fields.gf2m import GF2m
from wittlab.fields.laurent import LaurentField
from wittlab.fields.ratfunc import RatFuncField
from wittlab.quadform import QuadraticForm

# one token per match; the empty match at the end of the text is "eof"
_TOKEN = re.compile(r"(\d+)|([A-Za-z_]\w*)|(\S)|\Z")
_KINDS = ("eof", "int", "name", "op")


class _Scanner:
    """The tokens of a text as (kind, lexeme, line, column), 1-based, the
    last one "eof" at the end of the text."""

    def __init__(self, text: str):
        self.tokens = []
        line, start, last = 1, 0, 0  # start: the offset where the line begins
        for m in _TOKEN.finditer(text):
            i = m.start()
            breaks = text.count("\n", last, i)
            if breaks:
                line += breaks
                start = text.rindex("\n", last, i) + 1
            self.tokens.append((_KINDS[m.lastindex or 0], m.group(), line,
                                i - start + 1))
            last = m.end()
        self.pos = 0

    def peek(self):
        return self.tokens[min(self.pos, len(self.tokens) - 1)]

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, lexeme):
        kind, lex, line, col = self.next()
        if lex != lexeme:
            raise FormSyntaxError(f"expected {lexeme!r}, found {lex or 'end of input'!r}",
                                  line, col)

    def error(self, message):
        _, lex, line, col = self.peek()
        raise FormSyntaxError(message, line, col)


class ElementParser:
    def __init__(self, field):
        self.field = field

    def parse(self, text: str):
        sc = _Scanner(text)
        val = self._element(sc)
        if sc.peek()[0] != "eof":
            sc.error(f"unexpected trailing {sc.peek()[1]!r}")
        return val

    def _element(self, sc):
        val = self._term(sc)
        while sc.peek()[1] in ("+", "-"):
            op = sc.next()[1]
            rhs = self._term(sc)
            val = val + rhs if op == "+" else val - rhs
        return val

    def _term(self, sc):
        val = self._factor(sc)
        while sc.peek()[1] in ("*", "/"):
            op = sc.next()[1]
            rhs = self._factor(sc)
            val = val * rhs if op == "*" else val / rhs
        return val

    def _factor(self, sc):
        if sc.peek()[1] == "-":
            sc.next()
            return -self._power(sc)
        return self._power(sc)

    def _power(self, sc):
        base = self._atom(sc)
        if sc.peek()[1] != "^":
            return base
        sc.next()
        e = self._signed(sc)
        try:
            return power(base, e, self.field.one)
        except DivisionByZero:
            sc.error("negative power of a non-invertible element")

    def _signed(self, sc) -> int:
        neg = False
        if sc.peek()[1] == "-":
            sc.next()
            neg = True
        kind, lex, line, col = sc.next()
        if kind != "int":
            raise FormSyntaxError(
                f"expected an integer exponent, found {lex or 'end of input'!r}",
                line, col)
        return -int(lex) if neg else int(lex)

    def _atom(self, sc):
        F = self.field
        kind, lex, line, col = sc.next()
        if kind == "int":
            return self._int_atom(int(lex), line, col)
        if lex == "(":
            val = self._element(sc)
            sc.expect(")")
            return val
        if lex == "O":
            sc.expect("(")
            kind2, lex2, line2, col2 = sc.next()
            uni = "t" if isinstance(F, LaurentField) else "2"
            if lex2 != uni:
                raise FormSyntaxError(
                    f"O() takes the uniformizer {uni!r} here, found {lex2!r}",
                    line2, col2)
            bound = 1
            if sc.peek()[1] == "^":
                sc.next()
                bound = self._signed(sc)
            sc.expect(")")
            return F.zero_to_precision(bound)
        if lex == "t":
            if not isinstance(F, LaurentField):
                raise FormSyntaxError("t is only defined over Laurent fields",
                                      line, col)
            return F.uniformizer()
        if lex == "x":
            if isinstance(F, LaurentField) and isinstance(F.residue_field,
                                                          RatFuncField):
                return F.section(F.residue_field.x)
            raise FormSyntaxError(
                "x needs a rational-function residue field", line, col)
        raise FormSyntaxError(f"unexpected {lex or 'end of input'!r}", line, col)

    def _int_atom(self, n, line, col):
        F = self.field
        if isinstance(F, DyadicField):
            return F.from_int(n)
        k = F.residue_field
        if isinstance(k, GF2m):
            if n >= k.order:
                raise FormSyntaxError(
                    f"residue constant {n} out of range for GF(2^{k.m}) "
                    f"(bit-pattern atoms)", line, col)
            return F.section(k.elem(n))
        if n >= k.base.order:
            raise FormSyntaxError(
                f"residue constant {n} out of range for the coefficient field",
                line, col)
        return F.section(k.from_poly((n,)))


def parse_element(text: str, field):
    return ElementParser(field).parse(text)


def parse_form(text: str, field) -> QuadraticForm:
    """Parse a form literal (binary, diagonal, sum, scale or JSON matrix)."""
    if re.match(r"\s*\[\s*\[", text):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormSyntaxError(f"bad JSON matrix: {e.msg}", e.lineno, e.colno)
        return QuadraticForm(field, _matrix(text, rows, ElementParser(field)))
    sc = _Scanner(text)
    form = _form(sc, ElementParser(field))
    if sc.peek()[0] != "eof":
        sc.error(f"unexpected trailing {sc.peek()[1]!r}")
    return form


_JSON_SPACE = re.compile(r"[ \t\n\r]*")
_JSON = json.JSONDecoder()


def _items(text, pos):
    """The offsets of the items of the JSON array that starts at pos of
    the valid JSON text."""
    out = []
    pos = _JSON_SPACE.match(text, pos + 1).end()
    while text[pos] != "]":
        out.append(pos)
        pos = _JSON_SPACE.match(text, _JSON.raw_decode(text, pos)[1]).end()
        if text[pos] == ",":
            pos = _JSON_SPACE.match(text, pos + 1).end()
    return out


def _position(text, pos):
    """The 1-based (line, column) of the offset pos of text."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _matrix(text, rows, parser):
    """Entries of a square JSON matrix literal, rows its value in text.
    Entries are element literals or JSON integers; every entry below the
    diagonal must be the exact zero, because the form reads only the
    upper triangle."""
    n = len(rows)
    out = []
    for i, (row, at) in enumerate(zip(rows, _items(text, text.index("["))), 1):
        if not isinstance(row, list) or not row:
            raise FormSyntaxError(f"matrix row {i} is not a nonempty array",
                                  *_position(text, at))
        if len(row) != n:
            raise FormSyntaxError(
                f"matrix row {i} has {len(row)} entries; a {n}x{n} matrix "
                f"needs {n}", *_position(text, at))
        vals = []
        for j, (entry, at) in enumerate(zip(row, _items(text, at)), 1):
            if isinstance(entry, int) and not isinstance(entry, bool):
                entry = str(entry)
            if not isinstance(entry, str):
                raise FormSyntaxError(
                    f"matrix entry ({i}, {j}) is neither a string nor an "
                    f"integer", *_position(text, at))
            try:
                val = parser.parse(entry)
            except FormSyntaxError as e:
                # the entry's column in the text, where its source is the
                # literal itself: no quotes around an integer, no escapes
                quoted = text[at] == '"'
                end = _JSON.raw_decode(text, at)[1] - quoted
                if text[at + quoted:end] == entry:
                    at += quoted + e.column - 1
                raise FormSyntaxError(e.message, *_position(text, at)) from None
            if j < i and not val.is_exactly_zero():
                raise FormSyntaxError(
                    f"matrix entry ({i}, {j}) below the diagonal is not 0; "
                    f"the matrix is upper-triangular", *_position(text, at))
            vals.append(val)
        out.append(vals)
    return out


def _form(sc, parser) -> QuadraticForm:
    field = parser.field
    kind, lex, line, col = sc.peek()
    if lex == "[":
        sc.next()
        a = parser._element(sc)
        sc.expect(",")
        b = parser._element(sc)
        sc.expect("]")
        return QuadraticForm.binary(field, a, b)
    if lex == "<":
        sc.next()
        entries = [parser._element(sc)]
        while sc.peek()[1] == ",":
            sc.next()
            entries.append(parser._element(sc))
        sc.expect(">")
        return QuadraticForm.diagonal(field, entries)
    if lex == "sum":
        sc.next()
        sc.expect("(")
        form = _form(sc, parser)
        while sc.peek()[1] == ",":
            sc.next()
            form = form.ortho_sum(_form(sc, parser))
        sc.expect(")")
        return form
    if lex == "scale":
        sc.next()
        sc.expect("(")
        c = parser._element(sc)
        sc.expect(",")
        form = _form(sc, parser)
        sc.expect(")")
        return form.scale(c)
    raise FormSyntaxError(f"expected a form literal, found {lex or 'end of input'!r}",
                          line, col)
