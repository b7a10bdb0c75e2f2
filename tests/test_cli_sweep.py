"""A sweep of the CLI over grammar-drawn literals, as a regression guard:
every input, well-formed or with one token deleted, replaced or
inserted, ends in one schema JSON object and a documented exit code, and
never in an internal error or an unmapped DivisionByZero."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from test_cli import run_cli
from test_literals import literal_text
from test_literals_oracle import FIELDS

DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}


@given(data=st.data())
@settings(max_examples=500, deadline=None)
def test_every_literal_ends_in_schema_json_and_a_documented_exit(data):
    shorthand = data.draw(st.sampled_from(sorted(FIELDS)))
    atoms = FIELDS[shorthand][1]
    command = data.draw(st.sampled_from(["depth", "symbol", "canonical",
                                         "equal"]))
    literals = [data.draw(literal_text(atoms))
                for _ in range(2 if command == "equal" else 1)]
    code, out = run_cli([command, "--field", shorthand, *literals])
    assert code in DOCUMENTED_EXITS
    payload = json.loads(out)
    assert isinstance(payload, dict) and payload["schema"] == "wittlab/1"
    assert payload.get("error") not in ("internal", "DivisionByZero")
