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

A JSON array of arrays (detected by a leading "[[") is accepted as a
raw upper-triangular coefficient matrix: it must be square, its entries
are element literals or JSON integers (read as integer atoms), and every
entry below the diagonal must be exactly 0.
"""

from __future__ import annotations

import json
import re

from .errors import FormSyntaxError
from .fields.common import power
from .fields.dyadic import DyadicField
from .fields.gf2m import GF2m
from .fields.laurent import LaurentField
from .fields.ratfunc import RatFuncField
from .quadform import QuadraticForm

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_]\w*)|(.))")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.tokens = []
        line, col = 1, 1
        i = 0
        while i < len(text):
            ch = text[i]
            if ch == "\n":
                line += 1
                col = 1
                i += 1
                continue
            if ch.isspace():
                col += 1
                i += 1
                continue
            m = _TOKEN.match(text, i)
            lexeme = m.group(1) or m.group(2) or m.group(3)
            kind = "int" if m.group(1) else ("name" if m.group(2) else "op")
            self.tokens.append((kind, lexeme, line, col))
            col += m.end() - i - (len(m.group(0)) - len(lexeme))
            i = m.end()
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("eof", "", 1, len(self.text) + 1)

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
        if sc.peek()[1] == "^":
            sc.next()
            e = self._signed(sc)
            return self._pow(base, e, sc)
        return base

    def _pow(self, base, e, sc):
        F = self.field
        if e < 0:
            try:
                base = base.inv()
            except Exception:
                sc.error("negative power of a non-invertible element")
            e = -e
        return power(base, e, F.one)

    def _signed(self, sc) -> int:
        neg = False
        if sc.peek()[1] == "-":
            sc.next()
            neg = True
        kind, lex, line, col = sc.next()
        if kind != "int":
            raise FormSyntaxError(f"expected an integer exponent, found {lex!r}",
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
        return F.section(k.from_base(n))


def parse_element(text: str, field):
    return ElementParser(field).parse(text)


def parse_form(text: str, field) -> QuadraticForm:
    """Parse a form literal (binary, diagonal, sum, scale or JSON matrix)."""
    if re.match(r"\s*\[\s*\[", text):
        try:
            rows = json.loads(text)
        except json.JSONDecodeError as e:
            raise FormSyntaxError(f"bad JSON matrix: {e.msg}", e.lineno, e.colno)
        return QuadraticForm(field, _matrix(rows, ElementParser(field)))
    sc = _Scanner(text)
    form = _form(sc, field)
    if sc.peek()[0] != "eof":
        sc.error(f"unexpected trailing {sc.peek()[1]!r}")
    return form


def _matrix(rows, parser):
    """Entries of a square JSON matrix literal.  Entries are element
    literals or JSON integers; every entry below the diagonal must be the
    exact zero, because the form reads only the upper triangle."""
    n = len(rows)
    out = []
    for i, row in enumerate(rows, 1):
        if not isinstance(row, list) or not row:
            raise FormSyntaxError(f"matrix row {i} is not a nonempty array")
        if len(row) != n:
            raise FormSyntaxError(
                f"matrix row {i} has {len(row)} entries; a {n}x{n} matrix "
                f"needs {n}")
        vals = []
        for j, entry in enumerate(row, 1):
            if isinstance(entry, int) and not isinstance(entry, bool):
                entry = str(entry)
            if not isinstance(entry, str):
                raise FormSyntaxError(
                    f"matrix entry ({i}, {j}) is neither a string nor an integer")
            val = parser.parse(entry)
            if j < i and not val.is_exactly_zero():
                raise FormSyntaxError(
                    f"matrix entry ({i}, {j}) below the diagonal is not 0; "
                    f"the matrix is upper-triangular")
            vals.append(val)
        out.append(vals)
    return out


def _form(sc, field) -> QuadraticForm:
    parser = ElementParser(field)
    kind, lex, line, col = sc.peek()
    if lex == "[":
        sc.next()
        a = _subelement(sc, parser, ",")
        sc.expect(",")
        b = _subelement(sc, parser, "]")
        sc.expect("]")
        return QuadraticForm.binary(field, a, b)
    if lex == "<":
        sc.next()
        entries = [_subelement(sc, parser, ",>")]
        while sc.peek()[1] == ",":
            sc.next()
            entries.append(_subelement(sc, parser, ",>"))
        sc.expect(">")
        return QuadraticForm.diagonal(field, entries)
    if lex == "sum":
        sc.next()
        sc.expect("(")
        form = _form(sc, field)
        while sc.peek()[1] == ",":
            sc.next()
            form = form.ortho_sum(_form(sc, field))
        sc.expect(")")
        return form
    if lex == "scale":
        sc.next()
        sc.expect("(")
        c = _subelement(sc, parser, ",")
        sc.expect(",")
        form = _form(sc, field)
        sc.expect(")")
        return form.scale(c)
    raise FormSyntaxError(f"expected a form literal, found {lex or 'end of input'!r}",
                          line, col)


def _subelement(sc, parser, stop_chars):
    """Parse an element sub-expression up to an unparenthesized stop char."""
    depth = 0
    start = sc.pos
    while True:
        kind, lex, line, col = sc.peek()
        if kind == "eof":
            break
        if lex in "([":
            depth += 1
        elif lex in ")]":
            if depth == 0:
                break
            depth -= 1
        elif depth == 0 and (lex in stop_chars or lex == ">"):
            break
        sc.pos += 1
    if sc.pos == start:
        kind, lex, line, col = sc.peek()
        raise FormSyntaxError(f"expected an element, found {lex or 'end of input'!r}",
                              line, col)
    sub = _Scanner("")
    sub.tokens = sc.tokens[start:sc.pos]
    sub.pos = 0
    val = parser._element(sub)
    if sub.peek()[0] != "eof":
        _, lex, line, col = sub.peek()
        raise FormSyntaxError(f"unexpected {lex!r} in element", line, col)
    return val
