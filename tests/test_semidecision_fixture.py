"""Replay the recorded answers of the Witt-equality semi-decision.

`tests/data/semidecision.json` holds, for 200 seeded pairs of forms over
`F2(x)((t))` and `F4(x)((t))` of dimensions 2 to 8, the answer of
`arason.witt_equal(q1, q2)` and of `arason.class_is_zero_tame_oracle(q1)`
(`true`, `false`, `"indistinguishable"` or the name of the error raised).
Half the pairs are isometric (q2 is q1 in a scrambled unimodular basis,
so `false` would be wrong); in the other half q2 is built from q1's
coefficients shuffled across its binary blocks.  The forms are recorded
by `repr`, so a change to the generator shows up as well.

Regenerate the fixture (only when an answer is meant to change) with

    PYTHONPATH=src python tests/test_semidecision_fixture.py --write
"""

import json
import random
import sys
from pathlib import Path

import wittlab
from wittlab import arason, linalg
from wittlab.errors import WittlabError
from wittlab.quadform import QuadraticForm

FIXTURE = Path(__file__).resolve().parent / "data" / "semidecision.json"
FIELDS = ("f2x-laurent", "f2mx-laurent:m=2")
DIMS = (2, 4, 6, 8)
PAIRS_PER_CLASS = 25  # per field and dimension, isometric and scrambled alternating


def _binary_sum(F, elems):
    q = QuadraticForm(F, [])
    for a, b in zip(elems[0::2], elems[1::2]):
        q = q.ortho_sum(QuadraticForm.binary(F, a, b))
    return q


def _unimodular(F, n, rng):
    """L*U with unit diagonals and off-diagonal entries 0 or 1."""
    one, zero = F.one, F.zero
    L = [[one if i == j else rng.choice((zero, one)) if i > j else zero
          for j in range(n)] for i in range(n)]
    U = [[one if i == j else rng.choice((zero, one)) if i < j else zero
          for j in range(n)] for i in range(n)]
    return linalg.mat_mul(L, U, zero)


def cases():
    """(shorthand, dim, kind, q1, q2) for every recorded pair, in order."""
    for shorthand in FIELDS:
        F = wittlab.field_shorthand(shorthand)
        k = F.residue_field
        # 1, x, 1 + x and, over GF(4)(x), w and w x with w a generator
        polys = [[1], [0, 1], [1, 1]] + ([[2], [0, 2]] if k.base.order > 2 else [])
        coeffs = [k.from_poly(p) for p in polys]
        for dim in DIMS:
            rng = random.Random(f"wittlab-semidecision:{shorthand}:{dim}")
            for i in range(PAIRS_PER_CLASS):
                elems = [F.make([(e, rng.choice(coeffs))
                                 for e in rng.sample(range(-3, 3), rng.choice((1, 2)))])
                         for _ in range(dim)]
                q1 = _binary_sum(F, elems)
                kind = "isometric" if i % 2 == 0 else "scrambled"
                if kind == "scrambled":
                    elems = elems[:]
                    rng.shuffle(elems)
                q2 = (q1 if kind == "isometric" else _binary_sum(F, elems)) \
                    .change_basis(_unimodular(F, dim, rng))
                yield shorthand, dim, kind, q1, q2


def _answer(fn, *args):
    try:
        res = fn(*args)
    except WittlabError as exc:
        return type(exc).__name__
    return "indistinguishable" if res is wittlab.INDISTINGUISHABLE else bool(res)


def records():
    return [{"field": shorthand, "dim": dim, "kind": kind,
             "q1": repr(q1), "q2": repr(q2),
             "witt_equal": _answer(arason.witt_equal, q1, q2),
             "class_is_zero": _answer(arason.class_is_zero_tame_oracle, q1)}
            for shorthand, dim, kind, q1, q2 in cases()]


def test_semidecision_answers_match_the_fixture():
    want = json.loads(FIXTURE.read_text())
    assert len(want) == 2 * len(DIMS) * PAIRS_PER_CLASS
    got = records()
    mismatched = [(w["field"], w["dim"], w["kind"], w["q1"])
                  for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and mismatched == []


def test_isometric_pairs_are_never_reported_unequal():
    for rec in json.loads(FIXTURE.read_text()):
        if rec["kind"] == "isometric":
            assert rec["witt_equal"] in (True, "indistinguishable"), rec


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_semidecision_fixture.py --write")
    FIXTURE.write_text(json.dumps(records(), indent=1) + "\n")
