"""The four benchmark workloads: seeded inputs, the ops run on them, and
the checks on every answer.

Each workload yields an endless, seed-determined stream of `Op`s.  The
inputs follow a fixed cycle of (field, dimension) classes, or for
q2-class-sums a fixed stratification by dimension, so every seed has the
same field and dimension mix and a run's cost depends little on which
seed drew the forms.  Only the generated forms and literals reach the
library; all randomness lives here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import wittlab
from wittlab import arason, cli, linalg, norms
from wittlab.quadform import QuadraticForm

CLI_FAIL_CODES = (1, 2, 4, 5)
CLI_OK_CODES = (0, 3)


@dataclass
class Op:
    """One closed-loop request: ``call()`` returns a JSON-able answer.

    ``field`` and ``size`` place the input in the workload's mix;
    ``inputs`` are the forms or argument strings the library receives.
    """

    kind: str
    call: Callable[[], dict]
    field: str
    size: object
    inputs: tuple
    after: Callable[[], None] | None = None  # a check run outside the timed region

    def describe(self):
        return [self.kind, self.field, self.size, [repr(x) for x in self.inputs]]


def _rng(seed, name):
    # str seeds hash with sha512, so the stream is independent of PYTHONHASHSEED
    return random.Random(f"wittlab-bench:{name}:{seed}")


class Deck:
    """Draws without replacement from a shuffled copy of `items`, refilled
    when empty, so every stretch of draws holds each item nearly equally
    often: the seed changes the inputs, not their make-up, which keeps a
    run's cost close to the same for every seed.  All random choices of
    the workloads go through decks."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.pile = []

    def draw(self):
        if not self.pile:
            self.pile = list(self.items)
            self.rng.shuffle(self.pile)
        return self.pile.pop()


def _unimodular(F, n, entry):
    """L*U with unit diagonals and off-diagonal entries drawn by entry()."""
    one, zero = F.one, F.zero
    L = [[one if i == j else entry() if i > j else zero for j in range(n)]
         for i in range(n)]
    U = [[one if i == j else entry() if i < j else zero for j in range(n)]
         for i in range(n)]
    return linalg.mat_mul(L, U, zero)


EXPONENTS = range(-3, 3)
PAIRS = list(itertools.combinations(EXPONENTS, 2))
# exponent sets of 1- and 2-term coefficients, each kind half the time
ONE_OR_TWO = [(e,) for e in EXPONENTS] * 5 + PAIRS * 2


def _binary_sum(F, blocks):
    q = QuadraticForm(F, [])
    for a, b in blocks:
        q = q.ortho_sum(QuadraticForm.binary(F, a, b))
    return q


class Mismatch(Exception):
    """An answer differs from what the benchmark knows to be right."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def wildness_answer(q):
    eps, _ = norms.wildness_index(q)
    return {"depth": str(eps)}


def symbol_answer(q):
    """The symbol payload as the CLI prints it, without the CLI's "nonzero"
    flag: deciding it raises Undecidable for a partial W_q class over an
    imperfect residue field, while the payload itself is well defined."""
    _, sym = arason.boundary_symbol(q)
    k = q.field.residue_field
    return {"depth": str(sym.eps), "kind": sym.kind,
            "payload": [cli._invariant_payload(p, k) for p in sym.payload]}


class Workload:
    name = ""
    fields = ()
    round_ops = 0  # ops in one or more whole input cycles; runs are whole rounds

    def __init__(self, seed):
        self.seed = seed
        self.rng = _rng(seed, self.name)
        self.F = {s: wittlab.field_shorthand(s) for s in self.fields}
        self.decks = {}

    def pick(self, key, items):
        """Draw from the deck named `key`, made from `items` on first use."""
        if key not in self.decks:
            self.decks[key] = Deck(self.rng, items)
        return self.decks[key].draw()

    def ops(self):
        raise NotImplementedError

    def failed(self, answer) -> bool:
        return False

    def check(self, answer):
        """Seed-independent check of one answer; raises Mismatch."""


# -- laurent-pipeline -----------------------------------------------------------


class LaurentPipeline(Workload):
    name = "laurent-pipeline"
    fields = ("f2-laurent", "f2m-laurent:m=2")
    # Small forms come more often: a run then holds more forms, and the
    # latency percentiles, which fall among the small and middle forms'
    # ops, move less from seed to seed.  Dims 8 and 10 still take about a
    # third of the loop time, canonical_decomposition about 80 %.
    CLASSES = (("f2-laurent", 4), ("f2m-laurent:m=2", 4), ("f2-laurent", 6),
               ("f2-laurent", 4), ("f2m-laurent:m=2", 4), ("f2m-laurent:m=2", 6),
               ("f2-laurent", 4), ("f2m-laurent:m=2", 4), ("f2-laurent", 8),
               ("f2-laurent", 4), ("f2m-laurent:m=2", 4), ("f2-laurent", 6),
               ("f2m-laurent:m=2", 6), ("f2-laurent", 10))
    round_ops = 3 * len(CLASSES)

    def form(self, shorthand, dim):
        F = self.F[shorthand]
        k = F.residue_field
        units = [k.elem(b) for b in range(1, k.order)]
        consts = [F.section(c) for c in [k.zero] + units]
        cls = (shorthand, dim)
        elems = [F.make([(e, self.pick(("unit", cls), units))
                         for e in self.pick(("exps", cls), PAIRS)])
                 for _ in range(dim)]
        q = _binary_sum(F, zip(elems[0::2], elems[1::2]))
        return q.change_basis(
            _unimodular(F, dim, lambda: self.pick(("mix", cls), consts)))

    def ops(self):
        i = 0
        while True:
            shorthand, dim = self.CLASSES[i % len(self.CLASSES)]
            i += 1
            q = self.form(shorthand, dim)
            got = {}
            where = (shorthand, dim, (q,))
            yield Op("wildness_index", lambda q=q, got=got: self._wild(q, got), *where)
            yield Op("boundary_symbol", lambda q=q: symbol_answer(q), *where)
            yield Op("canonical_decomposition", lambda q=q, got=got: self._canon(q, got),
                     *where, after=lambda q=q, got=got: self._verify(q, got))

    def _wild(self, q, got):
        eps, got["cert"] = norms.wildness_index(q)
        return {"depth": str(eps)}

    def _canon(self, q, got):
        got["dec"] = arason.canonical_decomposition(q)
        return {"canonical": got["dec"].describe(q.field.residue_field)}

    @staticmethod
    def _verify(q, got):
        """The certificate revalidates and the decomposition survives the
        round trip through its own representative."""
        expect(got["cert"].revalidate(), f"certificate of {q!r} failed to revalidate")
        back = arason.canonical_decomposition(
            arason.decomposition_form(q.field, got["dec"]))
        expect(back == got["dec"], f"canonical round trip of {q!r} changed the parameters")


# -- ratfunc-semidecision -------------------------------------------------------


class RatfuncSemidecision(Workload):
    name = "ratfunc-semidecision"
    fields = ("f2x-laurent",)
    # witt_equal at dim 6 owns the top latencies; twice per cycle puts
    # latency_p90_ms inside that class instead of at its lower edge
    DIMS = (2, 4, 6, 6)
    round_ops = 3 * len(DIMS)

    def ops(self):
        F = self.F["f2x-laurent"]
        k = F.residue_field
        coeffs = [k.from_poly(p) for p in ([1], [0, 1], [1, 1])]
        i = 0
        while True:
            dim = self.DIMS[i % len(self.DIMS)]
            i += 1
            elems = [F.make([(e, self.pick("coeff", coeffs))
                             for e in self.pick("exps", ONE_OR_TWO)])
                     for _ in range(dim)]
            q = _binary_sum(F, zip(elems[0::2], elems[1::2]))
            q2 = q.change_basis(
                _unimodular(F, dim, lambda: self.pick("mix", [F.zero, F.one])))
            where = ("f2x-laurent", dim)
            yield Op("wildness_index", lambda q=q: wildness_answer(q), *where, (q,))
            yield Op("boundary_symbol", lambda q=q: symbol_answer(q), *where, (q,))
            yield Op("witt_equal", lambda q=q, q2=q2: self._equal(q, q2), *where,
                     (q, q2))

    def _equal(self, q, q2):
        res = arason.witt_equal(q, q2)
        return {"equal": "indistinguishable" if res is wittlab.INDISTINGUISHABLE
                else bool(res)}

    def check(self, answer):
        # the two forms are isometric, so False would be a wrong answer
        if "equal" in answer:
            expect(answer["equal"] in (True, "indistinguishable"),
                   f"isometric forms reported {answer['equal']!r}")


# -- q2-class-sums ----------------------------------------------------------------


class Q2ClassSums(Workload):
    """Sums of two of the 32 class representatives; the class of each sum
    must be the one the stored W_q(Q_2) addition table names."""

    name = "q2-class-sums"
    fields = ("q2",)
    round_ops = 64  # any 64 consecutive pairs hold about each dimension's share
    TABLE = Path(__file__).resolve().parent / "expected" / "q2-table.json"

    def __init__(self, seed):
        super().__init__(seed)
        F = self.F["q2"]
        k = F.residue_field
        table = json.loads(self.TABLE.read_text())
        self.classes = table["classes"]
        self.table = table["table"]
        self.key = {json.dumps(c, sort_keys=True): i
                    for i, c in enumerate(self.classes)}
        self.reps = []
        for bits in range(32):
            dec = arason.CanonicalDecomposition(
                (k.one,) if (bits >> 4) & 1 else (),
                k.one if (bits >> 3) & 1 else k.zero,
                k.one if (bits >> 2) & 1 else k.zero,
                (bits >> 1) & 1, bits & 1)
            expect(dec.describe(k) == self.classes[bits], "stale class table")
            self.reps.append(arason.decomposition_form(F, dec))

    def order(self):
        """All 1024 ordered pairs, interleaved so that every prefix has the
        same share of each sum dimension; the seed shuffles each stratum."""
        strata = {}
        for i in range(32):
            for j in range(32):
                strata.setdefault(self.reps[i].n + self.reps[j].n, []).append((i, j))
        keyed = []
        for dim in sorted(strata):
            pairs = strata[dim]
            self.rng.shuffle(pairs)
            for rank, p in enumerate(pairs):
                keyed.append(((rank + 0.5) / len(pairs), dim, p))
        keyed.sort()
        return [p for _, _, p in keyed]

    def ops(self):
        while True:
            for i, j in self.order():
                q = self.reps[i].ortho_sum(self.reps[j])
                yield Op("canonical_decomposition",
                         lambda q=q, i=i, j=j: self._canon(q, i, j), "q2", q.n, (q,))

    def _canon(self, q, i, j):
        dec = arason.canonical_decomposition(q)
        return {"pair": [i, j], "canonical": dec.describe(q.field.residue_field)}

    def check(self, answer):
        i, j = answer["pair"]
        got = self.key.get(json.dumps(answer["canonical"], sort_keys=True))
        expect(got == self.table[i][j],
               f"class {i} + class {j} gave {answer['canonical']}, "
               f"table says {self.table[i][j]}")


# -- cli-batch ---------------------------------------------------------------------


FIELD_COEFFS = {
    "f2-laurent": ["1"],
    "f2m-laurent:m=2": ["1", "2", "3"],
    "f2x-laurent": ["1", "x", "(1+x)"],
    "f2mx-laurent:m=2": ["1", "2", "x", "(3+x)"],
}
PERFECT = ("f2-laurent", "f2m-laurent:m=2", "q2")


def _term(c, e):
    t = "1" if e == 0 else "t" if e == 1 else f"t^{e}"
    if c == "1":
        return t
    return c if e == 0 else f"{c}*{t}"


class CliBatch(Workload):
    """In-process ``wittlab`` invocations over all five field shorthands.

    The cycle below fixes which invocations carry a truncated literal:
    single-form ``depth`` and ``canonical`` get an inverted non-monomial
    (``a/(1+t)``, over Q_2 ``a/b``), batch ``depth`` an ``O(t^k)`` tail.
    Over characteristic 2 the first kind fails slowly, after five ever
    more precise attempts; at about a fifth of the ops, those failures
    hold latency_p90_ms inside their class rather than at its edge.  The
    seed picks everything else.
    """

    name = "cli-batch"
    fields = ("f2-laurent", "f2m-laurent:m=2", "f2x-laurent",
              "f2mx-laurent:m=2", "q2")
    # (command, batch, truncation, dimension) per field; a batch is three
    # binary forms; canonical needs a perfect residue field
    TEMPLATES = (("depth", False, "inverse", 2), ("symbol", False, None, 4),
                 ("canonical", False, "inverse", 2), ("equal", False, None, 4),
                 ("depth", True, "big-o", 2), ("symbol", True, None, 2),
                 ("canonical", True, None, 2))

    @property
    def round_ops(self):
        return len(self.cycle())

    def cycle(self):
        return [(f, *t) for f in self.fields for t in self.TEMPLATES
                if t[0] != "canonical" or f in PERFECT]

    # -- literals --

    def element(self, field, trunc=None):
        if field == "q2":
            if trunc:
                return self.pick("q2-fraction", [f"{a}/{b}" for a in (1, 3, 5, 7)
                                                 for b in (3, 5, 7)])
            return str(self.pick("q2-int", [n for n in range(-12, 13) if n]))
        coeffs = FIELD_COEFFS[field]
        if trunc == "inverse":
            return _term(self.pick(("coeff", field), coeffs),
                         self.pick(("inverse", field), EXPONENTS)) + "/(1+t)"
        body = " + ".join(_term(self.pick(("coeff", field), coeffs), e)
                          for e in self.pick(("exps", field), ONE_OR_TWO))
        if trunc == "big-o":
            return f"{body} + O(t^{self.pick(('big-o', field), range(4, 10))})"
        return body

    def parts(self, field, dim, trunc=None):
        """Summands of a form: diagonal entries over Q_2, else binary blocks."""
        elems = [self.element(field) for _ in range(dim)]
        if trunc:
            elems[self.pick(("at", field, dim), range(dim))] = self.element(field, trunc)
        if field == "q2":
            return elems
        return [f"[{elems[i]}, {elems[i + 1]}]" for i in range(0, dim, 2)]

    @staticmethod
    def literal(field, parts):
        if field == "q2":
            return "<" + ", ".join(parts) + ">"
        return parts[0] if len(parts) == 1 else "sum(" + ", ".join(parts) + ")"

    def form(self, field, dim, trunc=None):
        return self.literal(field, self.parts(field, dim, trunc))

    def ops(self):
        while True:
            for field, cmd, batch, trunc, dim in self.cycle():
                size = f"{cmd}{'-batch' if batch else ''}:{dim}"
                if cmd == "equal":
                    # the same form with its summands reversed: an isometric pair
                    parts = self.parts(field, dim)
                    argv = ["equal", "--field", field, self.literal(field, parts),
                            self.literal(field, parts[::-1])]
                    yield self._op(argv, None, 1, size)
                elif batch:
                    lines = [self.form(field, dim) for _ in range(3)]
                    if trunc:
                        lines[self.pick(("line", field), (1, 2))] = \
                            self.form(field, dim, trunc)
                    yield self._op([cmd, "--field", field, "-"],
                                   "\n".join(lines) + "\n", len(lines), size)
                else:
                    yield self._op([cmd, "--field", field, self.form(field, dim, trunc)],
                                   None, 1, size)

    def _op(self, argv, stdin, lines, size):
        return Op(f"cli.{argv[0]}", self._invoker(argv, stdin, lines), argv[2], size,
                  tuple(argv) + ((stdin,) if stdin else ()))

    @staticmethod
    def _invoker(argv, stdin, lines):
        def call():
            out = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin or "")
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.main(argv)
            except Exception as e:  # main lets only non-WittlabErrors escape
                rc = f"exception:{type(e).__name__}"
            finally:
                sys.stdin = saved
            text = out.getvalue()
            return {"rc": rc, "lines": lines,
                    "results": _result_count(text),
                    "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
        return call

    def failed(self, answer):
        rc = answer["rc"]
        if not isinstance(rc, int) or rc in CLI_FAIL_CODES:
            return True
        return answer["results"] is not None and answer["results"] < answer["lines"]

    def check(self, answer):
        rc = answer["rc"]
        expect(not isinstance(rc, int) or rc in CLI_OK_CODES + CLI_FAIL_CODES,
               f"undocumented exit code {rc}")


def _result_count(text):
    """Length of the ``results`` list of a schema payload, else None."""
    try:
        payload = json.loads(text)
    except ValueError:
        return None
    if payload.get("schema") != cli.SCHEMA:
        return None
    result = payload.get("result")
    if isinstance(result, dict) and "results" in result:
        return len(result["results"])
    return None


def schema_ok(answer):
    """A succeeding CLI op printed schema JSON whose results cover its input."""
    return (answer["rc"] in CLI_OK_CODES
            and (answer["results"] is None or answer["results"] == answer["lines"]))


WORKLOADS = {cls.name: cls for cls in
             (LaurentPipeline, RatfuncSemidecision, Q2ClassSums, CliBatch)}
