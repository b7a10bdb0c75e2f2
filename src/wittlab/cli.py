"""Command-line front end: deterministic JSON answers for depth, symbol,
canonical decomposition, equality and the Q_2 enumeration, plus built-in
reproducible example fixtures.

Exit codes: 0 success, 2 literal syntax error (also a negative power of,
or a division by, a non-invertible element) or bad command line (an
unknown option, a missing command or argument, an invalid option value
or a --json-out path that cannot be written prints {"error": "usage"};
--help still exits 0), 3 Indistinguishable, 4 unsupported
field/operation, 5 precision exhausted, 141 stdout closed by its reader
before the answer was written (nothing more is printed; a process ended
by SIGPIPE reports the same status), 1 anything else (an unexpected
exception prints {"error": "internal"} on stdout and its traceback on
stderr).

The options --field, --precision, --degree-cap and --json-out may stand
before or after the command; given in both places, the later one wins.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from fractions import Fraction

from . import arason, norms, quadform
from .errors import (INDISTINGUISHABLE, FormSyntaxError, PrecisionExhausted,
                     UnsupportedResidueField, Undecidable, UsageError,
                     WittlabError)
from .fields import DyadicField, LaurentField, field_shorthand
from .fields.gf2m import GF2m
from .fields.ratfunc import RatFuncField
from .literals import parse_form
from .residue_witt import TENSOR_BASIS, TensorElem, WClass, WedgeElem, WqClass

SCHEMA = "wittlab/1"

EXIT_SYNTAX = 2
EXIT_INDISTINGUISHABLE = 3
EXIT_UNSUPPORTED = 4
EXIT_PRECISION = 5
EXIT_BROKEN_PIPE = 141


def _field_payload(field):
    if isinstance(field, DyadicField):
        return {"kind": "dyadic", "residue": "GF(2)"}
    k = field.residue_field
    if isinstance(k, GF2m):
        return {"kind": "laurent", "residue": f"GF(2^{k.m})", "m": k.m}
    return {"kind": "laurent", "residue": f"GF(2^{k.base.m})(x)",
            "m": k.base.m, "variable": k.variable}


def _pinned(field):
    pinned = {
        "uniformizer": "t" if isinstance(field, LaurentField) else "2",
        "section": ("constant-coefficient" if isinstance(field, LaurentField)
                    else "bits {0,1}"),
        "orbit_order": ["0", "1/2"],
    }
    if isinstance(field, LaurentField) and isinstance(field.residue_field,
                                                      RatFuncField):
        pinned["two_basis"] = ["1", "x"]
    return pinned


def _invariant_payload(inv, k):
    if isinstance(inv, WqClass):
        if inv.decides():
            return {"group": "Wq", "arf": inv.arf}
        return {"group": "Wq(partial)",
                "raw": [[k.format_elem(a), k.format_elem(b)] for a, b in inv.raw],
                "arf_representative": k.format_elem(inv.arf_representative)}
    if isinstance(inv, WedgeElem):
        return {"group": "wedge",
                "coordinate_on_1^x": k.format_elem(inv.coordinate())}
    if isinstance(inv, TensorElem):
        coords = [k.format_elem(c * c) for c in inv.coords]
        if k.is_perfect:
            return {"group": "tensor", "coordinate_on_1@1": coords[0]}
        return {"group": "tensor", "coordinates": dict(zip(TENSOR_BASIS, coords))}
    if isinstance(inv, WClass):
        return {"group": "W", "dim_mod_2": inv.bit}
    raise TypeError(f"unknown invariant {type(inv).__name__}")


def _symbol_payload(sym, field):
    k = field.residue_field
    return {
        "depth": str(sym.eps),
        "kind": sym.kind,
        "payload": [_invariant_payload(p, k) for p in sym.payload],
        "nonzero": not sym.is_zero(),
    }


def _certificate_payload(cert, field):
    return {
        "depth": str(cert.eps),
        "values": [str(v) for v in cert.norm.values],
        "basis_columns": [[field.format_elem(cert.norm.basis[r][c])
                           for r in range(cert.norm.n)]
                          for c in range(cert.norm.n)],
        "conditions_checked": list(cert.checked),
    }


def _equal_payload(res):
    if res is INDISTINGUISHABLE:
        return "indistinguishable"
    return bool(res)


# -- command implementations ----------------------------------------------------


def _depth_answer(q, field):
    eps, cert = norms.wildness_index(q)
    return {"depth": str(eps),
            "certificate": _certificate_payload(cert, field)}


def _symbol_answer(q, field):
    _, sym = arason.boundary_symbol(q)
    return {"symbol": _symbol_payload(sym, field)}


def _canonical_answer(q, field):
    dec = arason.canonical_decomposition(q)
    return {"canonical": dec.describe(field.residue_field)}


# the commands that answer each of their form literals on its own
PER_FORM = {"depth": _depth_answer, "symbol": _symbol_answer,
            "canonical": _canonical_answer}


def _cmd_forms(answer, field, forms):
    return {"results": [{"form": text, **answer(parse_form(text, field), field)}
                        for text in forms]}


def _cmd_equal(field, text1, text2):
    q1 = parse_form(text1, field)
    q2 = parse_form(text2, field)
    res = arason.witt_equal(q1, q2)
    return {"forms": [text1, text2], "equal": _equal_payload(res)}


def _cmd_enumerate_q2(field):
    decomps, table = arason.enumerate_wq_Q2(field.precision)
    k = field.residue_field
    return {
        "count": len(decomps),
        "classes": [d.describe(k) for d in decomps],
        "addition_table": table,
        "zero_class_index": next(
            i for i, d in enumerate(decomps)
            if not d.wild and d.a0.is_zero() and d.b0.is_zero()
            and not d.unit_bit and not d.pi_bit),
    }


def _assert_entry(name, expected, computed):
    return {"name": name, "expected": expected, "computed": computed,
            "pass": expected == computed}


def _fixture_example_1(precision, degree_cap):
    F2t = field_shorthand("f2-laurent", precision=precision)
    F2xt = field_shorthand("f2x-laurent", precision=precision,
                           degree_cap=degree_cap)
    entries = []
    eps, _ = norms.wildness_index(parse_form("[1+t, t^-1+t]", F2t))
    entries.append(_assert_entry("depth([1+t, t^-1+t]) over F2((t))", "1/2", str(eps)))
    for lit in ("[1, t]", "[t, t]"):
        q = parse_form(lit, F2t)
        e = quadform.WittExpr.binary(F2t, q.U[0][0], q.U[1][1])
        reduced = quadform.rewrite(e, "e", at=0)
        entries.append(_assert_entry(f"{lit}_W = 0 by rule (e)", 0,
                                     len(reduced.summands)))
    eps, _ = norms.wildness_index(parse_form("[t, t^-1]", F2t))
    entries.append(_assert_entry("depth([t, t^-1])", "0", str(eps)))
    res = arason.witt_equal(parse_form("[1, t^-2]", F2t),
                            parse_form("[1, t^-1]", F2t))
    entries.append(_assert_entry("[1,t^-2]_W = [1,t^-1]_W", True,
                                 _equal_payload(res)))
    q = parse_form("[1, x*t^-2]", F2xt)
    eps, sym = arason.boundary_symbol(q)
    entries.append(_assert_entry("depth([1, x*t^-2]) over F2(x)((t))",
                                 "1", str(eps)))
    entries.append(_assert_entry("symbol([1, x*t^-2]) = (1^x, 0)",
                                 [{"group": "wedge", "coordinate_on_1^x": "1"},
                                  {"group": "wedge", "coordinate_on_1^x": "0"}],
                                 _symbol_payload(sym, F2xt)["payload"]))
    expr = arason.generator_certificate(parse_form("[1+t, t^-1+t]", F2t),
                                        Fraction(1, 2))
    entries.append(_assert_entry(
        "[1+t, t^-1+t]_W = [1, t^-1]_W + [t, t^-1]_W",
        [[False, "1", "1"], [True, "1", "t"]],
        [[t.scaled, F2t.format_elem(t.alpha), F2t.format_elem(t.beta)]
         for t in expr.terms]))
    return entries


def _fixture_example_2(precision, degree_cap):
    F2t = field_shorthand("f2-laurent", precision=precision)
    F2xt = field_shorthand("f2x-laurent", precision=precision,
                           degree_cap=degree_cap)
    entries = []
    _, sym = arason.boundary_symbol(parse_form("[1, 1]", F2t))
    entries.append(_assert_entry("[1,1]_W maps to ([1,1]_W, 0) tamely",
                                 [{"group": "Wq", "arf": 1},
                                  {"group": "Wq", "arf": 0}],
                                 _symbol_payload(sym, F2t)["payload"]))
    _, sym = arason.boundary_symbol(parse_form("[t, t^-1]", F2t))
    entries.append(_assert_entry("[t,t^-1]_W maps to (0, [1,1]_W)",
                                 [{"group": "Wq", "arf": 0},
                                  {"group": "Wq", "arf": 1}],
                                 _symbol_payload(sym, F2t)["payload"]))
    res = arason.witt_equal(parse_form("scale(t, [1, t^-1])", F2t),
                            parse_form("[1, t^-1]", F2t))
    entries.append(_assert_entry("t[1,t^-1] = [1,t^-1] in W_q", True,
                                 _equal_payload(res)))
    _, sym = arason.boundary_symbol(parse_form("scale(t, [1, x*t^-2])", F2xt))
    entries.append(_assert_entry("t[1, x t^-2] maps to (0, 1^x)",
                                 [{"group": "wedge", "coordinate_on_1^x": "0"},
                                  {"group": "wedge", "coordinate_on_1^x": "1"}],
                                 _symbol_payload(sym, F2xt)["payload"]))
    return entries


def _fixture_example_3(precision, degree_cap):
    Q2 = field_shorthand("q2", precision=precision)
    entries = []
    eps, sym = arason.boundary_symbol(parse_form("<1>", Q2))
    entries.append(_assert_entry("depth(<1>)", "1", str(eps)))
    entries.append(_assert_entry("symbol(<1>) = (<1>_W, 0)",
                                 [{"group": "W", "dim_mod_2": 1},
                                  {"group": "W", "dim_mod_2": 0}],
                                 _symbol_payload(sym, Q2)["payload"]))
    eps, sym = arason.boundary_symbol(parse_form("<2>", Q2))
    entries.append(_assert_entry("symbol(2<1>) = (0, <1>_W)",
                                 [{"group": "W", "dim_mod_2": 0},
                                  {"group": "W", "dim_mod_2": 1}],
                                 _symbol_payload(sym, Q2)["payload"]))
    eps, _ = norms.wildness_index(parse_form("<1, 1>", Q2))
    entries.append(_assert_entry("depth(<1,1>)", "1/2", str(eps)))
    realized = set()
    for lit in ("[0, 0]", "<1, 1>", "<1>"):
        e, _ = norms.wildness_index(parse_form(lit, Q2))
        realized.add(e)
    entries.append(_assert_entry("realized filtration indices", ["0", "1/2", "1"],
                                 [str(e) for e in sorted(realized)]))
    return entries


FIXTURES = {"1": _fixture_example_1, "2": _fixture_example_2,
            "3": _fixture_example_3}


def _cmd_example(name, precision, degree_cap):
    key = name.split(":")[-1]
    if key not in FIXTURES:
        raise UnsupportedResidueField(f"unknown fixture {name!r}")
    entries = FIXTURES[key](precision, degree_cap)
    return {"fixture": f"example:{key}",
            "assertions": entries,
            "all_pass": all(e["pass"] for e in entries)}


# -- driver ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Raises UsageError for a bad command line instead of exiting, so it
    ends in schema JSON like every other input; subparsers inherit it."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: {message}")


# the options a command line may give before or after the command, and
# their defaults; the parsers leave an option that is not given unset, so
# that a subparser never overwrites one given before the command
DEFAULTS = {"field": "f2-laurent", "precision": 64, "degree_cap": 512,
            "json_out": None}


@functools.cache
def build_parser():
    """The command-line parser, built once per process: parse_args keeps
    no state between calls, and every call parses into a fresh namespace."""
    common = _Parser(add_help=False, argument_default=argparse.SUPPRESS)
    common.add_argument("--field",
                        help="f2-laurent | f2m-laurent:m=K | f2x-laurent | "
                             "f2mx-laurent:m=K | q2")
    common.add_argument("--precision", type=int)
    common.add_argument("--degree-cap", type=int)
    common.add_argument("--json-out",
                        help="also write the JSON result to this path")
    p = _Parser(prog="wittlab", parents=[common], description=__doc__)
    p.add_argument("--fixture", default=None,
                   help="run a named fixture (example:1|2|3) and exit")
    sub = p.add_subparsers(dest="command")
    for name in PER_FORM:
        sp = sub.add_parser(name, parents=[common])
        sp.add_argument("forms", nargs="+",
                        help="form literal(s); '-' reads one per stdin line")
    sp = sub.add_parser("equal", parents=[common])
    sp.add_argument("form1")
    sp.add_argument("form2")
    sub.add_parser("enumerate-q2", parents=[common])
    sp = sub.add_parser("example", parents=[common])
    sp.add_argument("name", help="1, 2, 3 or example:N")
    return p


def _expand_stdin(forms):
    out = []
    for f in forms:
        if f == "-":
            out.extend(line.strip() for line in sys.stdin if line.strip())
        else:
            out.append(f)
    return out


def _run_once(args, precision):
    # enumerate-q2 computes over Q_2 whatever --field says
    name = "q2" if args.command == "enumerate-q2" else args.field
    field = field_shorthand(name, precision=precision,
                            degree_cap=args.degree_cap)
    if args.fixture:
        return field, _cmd_example(args.fixture, precision, args.degree_cap)
    if args.command in PER_FORM:
        return field, _cmd_forms(PER_FORM[args.command], field, args.forms)
    if args.command == "equal":
        return field, _cmd_equal(field, args.form1, args.form2)
    if args.command == "enumerate-q2":
        return field, _cmd_enumerate_q2(field)
    return field, _cmd_example(args.name, precision, args.degree_cap)


def run(argv):
    parser = build_parser()
    args = parser.parse_args(argv, argparse.Namespace(**DEFAULTS))
    if args.command is None and not args.fixture:
        parser.error("no command given (see --help)")
    if args.precision < 1:
        raise UsageError(f"--precision must be at least 1, got {args.precision}")
    if args.degree_cap < 0:
        raise UsageError(f"--degree-cap must be at least 0, got {args.degree_cap}")
    if args.command in PER_FORM:
        # once, before any retry: a second attempt finds stdin drained
        args.forms = _expand_stdin(args.forms)
    attempts = 0
    precision = args.precision
    indistinguishable = False
    while True:
        try:
            field, result = _run_once(args, precision)
            break
        except PrecisionExhausted:
            attempts += 1
            if attempts > 4:
                raise
            precision *= 2
    payload = {
        "schema": SCHEMA,
        "command": "fixture" if args.fixture else args.command,
        "field": _field_payload(field),
        "precision": precision,
        "degree_cap": args.degree_cap,
        "pinned": _pinned(field),
        "result": result,
    }
    if result.get("equal") == "indistinguishable":
        indistinguishable = True
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.json_out:
        try:
            with open(args.json_out, "w") as fh:
                fh.write(text + "\n")
        except OSError as e:
            raise UsageError(f"--json-out {args.json_out}: {e.strerror}") from None
    print(text)
    if indistinguishable:
        return EXIT_INDISTINGUISHABLE
    if result.get("all_pass") is False:
        return 1
    return 0


# (error types, "error" value, exit code), matched in order; any other
# WittlabError reports its class name and exits 1
ERRORS = (
    ((FormSyntaxError,), "syntax", EXIT_SYNTAX),
    ((UsageError,), "usage", EXIT_SYNTAX),
    ((UnsupportedResidueField, Undecidable), "unsupported", EXIT_UNSUPPORTED),
    ((PrecisionExhausted,), "precision-exhausted", EXIT_PRECISION),
)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        code = _answer(argv)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader is gone: send whatever is still buffered to devnull,
        # so that the flush at interpreter exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


def _answer(argv):
    try:
        return run(argv)
    except BrokenPipeError:
        raise
    except WittlabError as e:
        error, code = next(((error, code) for types, error, code in ERRORS
                            if isinstance(e, types)), (type(e).__name__, 1))
        out = {"schema": SCHEMA, "error": error, "message": str(e)}
        if isinstance(e, FormSyntaxError):
            out.update(line=e.line, column=e.column)
        print(json.dumps(out, sort_keys=True))
        return code
    except Exception as e:
        traceback.print_exc()
        print(json.dumps({"schema": SCHEMA, "error": "internal",
                          "message": f"{type(e).__name__}: {e}"}, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
