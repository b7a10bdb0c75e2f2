"""Replay a recorded CLI transcript and compare it byte for byte.

`tests/data/cli-transcript.json` holds the argv, stdout and exit code of
123 invocations of `depth`, `symbol`, `canonical` and `equal` over all
five field shorthands, with truncated `O(t^k)` / `O(2^k)` and inverted
literals.  Among them are type-II symbols over `f2x-laurent` (the
`sq_normalize` descent), `w_pair` symbols over `q2` (the type-III
bilinear descent) and `equal` over `f2x-laurent` answering both `true`
and `indistinguishable` (the constructive hyperbolicity witness).
"""

import json
from pathlib import Path

from test_cli import run_cli

TRANSCRIPT = Path(__file__).resolve().parent / "data" / "cli-transcript.json"


def test_cli_transcript_is_byte_identical():
    records = json.loads(TRANSCRIPT.read_text())
    assert len(records) >= 100
    mismatched = []
    for rec in records:
        code, out = run_cli(list(rec["argv"]))
        if (code, out) != (rec["exit"], rec["stdout"]):
            mismatched.append(rec["argv"])
    assert mismatched == []
