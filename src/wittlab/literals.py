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

Each literal is read once into (kind, lexeme, offset) tokens, the last
"eof".  A form's elements are parsed in place, on the form's tokens: the
element grammar cannot consume ",", "]", ">" or an unmatched ")", so it
stops at the token that ends each element.  A syntax error, among them a
negative power of or a division by a non-invertible element, carries the
1-based line and column of its token, computed from the offset only when
the error is raised, by the rule that places JSON matrix errors too.

A JSON array of arrays (detected by a leading "[[") is accepted as a
raw upper-triangular coefficient matrix: it must be square, its entries
are element literals or JSON integers (read as integer atoms), and every
entry below the diagonal must be exactly 0.  A shape error points at its
row or entry, and an element error inside an entry at its column in the
text (at the entry's opening quote when the string has escapes).
"""

from __future__ import annotations

import json
import operator
import re

from .errors import DivisionByZero, FormSyntaxError
from .fields.common import power
from .fields.dyadic import DyadicField
from .fields.gf2m import GF2m
from .fields.laurent import LaurentField
from .fields.ratfunc import RatFuncField
from .quadform import QuadraticForm

# one token per match; the empty match at the end of the text is "eof"
_TOKEN = re.compile(r"(\d+)|([A-Za-z_]\w*)|(\S)|\Z")
_KINDS = ("eof", "int", "name", "op")
_SUM = {"+": operator.add, "-": operator.sub}
_PRODUCT = {"*": operator.mul, "/": operator.truediv}


class _Parser:
    """Recursive descent over the (kind, lexeme, offset) tokens of text,
    the last one "eof"; a method per rule of the grammars."""

    def __init__(self, text: str, field):
        self.text, self.field = text, field
        self.tokens = [(_KINDS[m.lastindex or 0], m.group(), m.start())
                       for m in _TOKEN.finditer(text)]
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        if tok[0] != "eof":
            self.pos += 1
        return tok

    def error(self, message, tok=None):
        """Raise a syntax error at tok, by default the next token."""
        raise FormSyntaxError(message, *_position(self.text,
                                                  (tok or self.peek())[2]))

    def expect(self, lexeme):
        tok = self.next()
        if tok[1] != lexeme:
            self.error(f"expected {lexeme!r}, found {tok[1] or 'end of input'!r}",
                       tok)

    def end(self, value):
        """value, once the whole text is read."""
        if self.peek()[0] != "eof":
            self.error(f"unexpected trailing {self.peek()[1]!r}")
        return value

    def fold(self, operand, ops):
        """The left fold of operands joined by the operators of ops."""
        val = operand()
        while self.peek()[1] in ops:
            tok = self.next()
            rhs = operand()
            try:
                val = ops[tok[1]](val, rhs)
            except DivisionByZero:
                self.error("division by a non-invertible element", tok)
        return val

    def element(self):
        return self.fold(self.term, _SUM)

    def term(self):
        return self.fold(self.factor, _PRODUCT)

    def factor(self):
        if self.peek()[1] == "-":
            self.next()
            return -self.power()
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[1] != "^":
            return base
        self.next()
        e = self.signed()
        try:
            return power(base, e, self.field.one)
        except DivisionByZero:
            self.error("negative power of a non-invertible element")

    def signed(self) -> int:
        neg = self.peek()[1] == "-"
        if neg:
            self.next()
        tok = self.next()
        if tok[0] != "int":
            self.error(f"expected an integer exponent, found "
                       f"{tok[1] or 'end of input'!r}", tok)
        return -int(tok[1]) if neg else int(tok[1])

    def atom(self):
        F = self.field
        kind, lex, _ = tok = self.next()
        if kind == "int":
            return self.int_atom(int(lex), tok)
        if lex == "(":
            val = self.element()
            self.expect(")")
            return val
        if lex == "O":
            self.expect("(")
            uni = "t" if isinstance(F, LaurentField) else "2"
            tok = self.next()
            if tok[1] != uni:
                self.error(f"O() takes the uniformizer {uni!r} here, found "
                           f"{tok[1]!r}", tok)
            bound = 1
            if self.peek()[1] == "^":
                self.next()
                bound = self.signed()
            self.expect(")")
            return F.zero_to_precision(bound)
        if lex == "t":
            if not isinstance(F, LaurentField):
                self.error("t is only defined over Laurent fields", tok)
            return F.uniformizer()
        if lex == "x":
            if isinstance(F, LaurentField) and isinstance(F.residue_field,
                                                          RatFuncField):
                return F.section(F.residue_field.x)
            self.error("x needs a rational-function residue field", tok)
        self.error(f"unexpected {lex or 'end of input'!r}", tok)

    def int_atom(self, n, tok):
        F = self.field
        if isinstance(F, DyadicField):
            return F.from_int(n)
        k = F.residue_field
        if isinstance(k, GF2m):
            if n >= k.order:
                self.error(f"residue constant {n} out of range for "
                           f"GF(2^{k.m}) (bit-pattern atoms)", tok)
            return F.section(k.elem(n))
        if n >= k.base.order:
            self.error(f"residue constant {n} out of range for the "
                       f"coefficient field", tok)
        return F.section(k.from_poly((n,)))

    def form(self) -> QuadraticForm:
        F = self.field
        _, lex, _ = tok = self.next()
        if lex == "[":
            a = self.element()
            self.expect(",")
            b = self.element()
            self.expect("]")
            return QuadraticForm.binary(F, a, b)
        if lex == "<":
            entries = [self.element()]
            while self.peek()[1] == ",":
                self.next()
                entries.append(self.element())
            self.expect(">")
            return QuadraticForm.diagonal(F, entries)
        if lex == "sum":
            self.expect("(")
            form = self.form()
            while self.peek()[1] == ",":
                self.next()
                form = form.ortho_sum(self.form())
            self.expect(")")
            return form
        if lex == "scale":
            self.expect("(")
            c = self.element()
            self.expect(",")
            form = self.form()
            self.expect(")")
            return form.scale(c)
        self.error(f"expected a form literal, found {lex or 'end of input'!r}",
                   tok)


def parse_element(text: str, field):
    p = _Parser(text, field)
    return p.end(p.element())


def parse_form(text: str, field) -> QuadraticForm:
    """Parse a form literal (binary, diagonal, sum, scale or JSON matrix)."""
    if re.match(r"\s*\[\s*\[", text):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormSyntaxError(f"bad JSON matrix: {e.msg}", e.lineno, e.colno)
        return QuadraticForm(field, _matrix(text, rows, field))
    p = _Parser(text, field)
    return p.end(p.form())


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


def _matrix(text, rows, field):
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
                val = parse_element(entry, field)
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
