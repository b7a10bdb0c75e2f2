"""The depth certificates the CLI prints pass an independent check.

`certificate_checker.check` re-derives conditions (a), (b) and (c) from
the printed output alone.  It must accept every certificate that the
`depth` lines of `tests/data/cli-transcript.json` print, and every one
that `cli.main` prints for seeded forms over all five field shorthands,
truncated `O()` and inverted entries included.  It must reject three
mutants of each: the first value raised by 1/2, the first value lowered
by 1/2, and the depth raised by 1/2.
"""

import copy
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from certificate_checker import check
from test_cli import run_cli

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli-transcript.json"
HALF = Fraction(1, 2)
MUTANTS = {"first value raised": ("values", HALF),
           "first value lowered": ("values", -HALF),
           "depth raised": ("depth", HALF)}

# unit coefficients per shorthand, and the uniformizer
UNITS = {"f2-laurent": ("1",),
         "f2m-laurent:m=2": ("1", "2", "3"),
         "f2x-laurent": ("1", "x", "(1+x)"),
         "f2mx-laurent:m=2": ("1", "3", "x", "(2+x)"),
         "q2": ("1", "3", "5", "-1", "-3")}


def _mutant(answer, name):
    key, delta = MUTANTS[name]
    answer = copy.deepcopy(answer)
    cert = answer["certificate"]
    if key == "depth":
        cert["depth"] = str(Fraction(cert["depth"]) + delta)
    else:
        cert["values"][0] = str(Fraction(cert["values"][0]) + delta)
    return answer


def _assert_checked(output, answer):
    assert answer["depth"] == answer["certificate"]["depth"]
    assert check(output, answer) is None, answer
    for name in MUTANTS:
        assert check(output, _mutant(answer, name)) is not None, (name, answer)


def _depth_outputs(runs):
    """The parsed outputs of the successful `depth` runs among (argv,
    exit, stdout) triples."""
    return [json.loads(out) for argv, code, out in runs
            if argv[0] == "depth" and code == 0]


def test_transcript_certificates_pass_and_their_mutants_fail():
    records = json.loads(TRANSCRIPT.read_text())
    outputs = _depth_outputs((r["argv"], r["exit"], r["stdout"])
                             for r in records)
    answers = [(out, a) for out in outputs for a in out["result"]["results"]]
    assert len(answers) == 36
    for output, answer in answers:
        _assert_checked(output, answer)


def _coeff(shorthand, rng):
    """One or two unit monomials; a quarter of them truncated by an O()
    term, and some of the rest divided by 1 + u."""
    u = "2" if shorthand == "q2" else "t"
    exps = sorted(rng.sample(range(-4, 3), rng.choice((1, 1, 2))))
    text = "+".join(f"{rng.choice(UNITS[shorthand])}*{u}^{e}" for e in exps)
    r = rng.random()
    if r < 0.25:
        return f"{text} + O({u}^{rng.randrange(3, 9)})"
    if r < 0.4:
        return f"({text})/(1+{u})"
    return text


def _form(shorthand, rng):
    parts = []
    for _ in range(rng.choice((1, 1, 2, 3))):
        a, b = _coeff(shorthand, rng), _coeff(shorthand, rng)
        diagonal = shorthand == "q2" and rng.random() < 0.4
        parts.append(f"<{a}, {b}>" if diagonal else f"[{a}, {b}]")
    return parts[0] if len(parts) == 1 else f"sum({', '.join(parts)})"


@pytest.mark.parametrize("shorthand", sorted(UNITS))
def test_seeded_certificates_pass_and_their_mutants_fail(shorthand):
    rng = random.Random(f"certificates {shorthand}")
    runs = []
    for _ in range(25):
        argv = ["depth", "--field", shorthand, _form(shorthand, rng)]
        runs.append((argv, *run_cli(argv)))
    outputs = _depth_outputs(runs)
    answers = [(out, a) for out in outputs for a in out["result"]["results"]]
    assert len(answers) >= 20
    assert any("O(" in a["form"] for _, a in answers)
    assert any("/(1+" in a["form"] for _, a in answers)
    assert any(Fraction(a["depth"]) > 0 for _, a in answers)
    for output, answer in answers:
        _assert_checked(output, answer)
