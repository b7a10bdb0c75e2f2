import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wittlab import cli


def run_cli(argv, stdin=""):
    out = io.StringIO()
    old_out, old_in = sys.stdout, sys.stdin
    sys.stdout = out
    sys.stdin = io.StringIO(stdin)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = old_out
        sys.stdin = old_in
    return code, out.getvalue()


def test_depth_command():
    code, out = run_cli(["depth", "--field", "f2-laurent", "[1+t, t^-1+t]"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "wittlab/1"
    assert payload["result"]["results"][0]["depth"] == "1/2"
    assert payload["pinned"]["uniformizer"] == "t"


def test_a_long_descent_prints_its_certificate():
    # 614 depth steps chain as many lazily lifted norms; printing the
    # basis of the last one must not recurse through all of them
    code, out = run_cli(["depth", "--field", "f2-laurent",
                         "[(1+t^-1)^7000, 1]"])
    assert code == 0
    result = json.loads(out)["result"]["results"][0]
    assert result["depth"] == "875/2"
    assert result["certificate"]["depth"] == "875/2"


def test_equal_command_and_exit_codes():
    code, out = run_cli(["equal", "--field", "f2-laurent",
                         "[1,t^-2]", "[1,t^-1]"])
    assert code == 0
    assert json.loads(out)["result"]["equal"] is True
    code, out = run_cli(["equal", "--field", "f2x-laurent", "[x, x]", "[0, 0]"])
    assert code == 3
    assert json.loads(out)["result"]["equal"] == "indistinguishable"


def test_syntax_error_exit_code_and_position():
    code, out = run_cli(["depth", "--field", "f2-laurent", "[1,,t]"])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "syntax"
    assert payload["column"] == 4


@pytest.mark.parametrize("field, lit, column", [
    ("f2-laurent", "[1/0, 1]", 3),
    ("f2-laurent", "[1/O(t^3), 1]", 3),
    ("f2x-laurent", "[1, t/(t-t)]", 6),
])
def test_division_by_a_non_invertible_element_is_a_syntax_error(field, lit,
                                                                column):
    # as a negative power of such an element is: exit 2 at the "/"
    code, out = run_cli(["depth", "--field", field, lit])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "syntax"
    assert payload["message"].startswith("division by a non-invertible element")
    assert (payload["line"], payload["column"]) == (1, column)


def test_degree_cap_inside_a_negative_power_is_not_a_syntax_error():
    # the cap trips while the literal inverts its base; written as a
    # power or as a quotient, the value ends in the same DegreeCapExceeded
    outs = []
    for lit in ("[(x^2 + x*t)^-1, 1]", "[1/(x^2 + x*t), 1]"):
        code, out = run_cli(["depth", "--degree-cap", "2", "--field",
                             "f2x-laurent", lit])
        assert code == 1
        outs.append(json.loads(out))
    assert outs[0] == outs[1]
    assert outs[0]["error"] == "DegreeCapExceeded"


def test_unsupported_exit_code():
    code, out = run_cli(["canonical", "--field", "f2x-laurent", "[1, x*t^-2]"])
    assert code == 4


def test_symbol_command_q2():
    code, out = run_cli(["symbol", "--field", "q2", "<1>"])
    assert code == 0
    sym = json.loads(out)["result"]["results"][0]["symbol"]
    assert sym["kind"] == "w_pair"
    assert sym["payload"][0] == {"group": "W", "dim_mod_2": 1}


def test_canonical_command_q2():
    code, out = run_cli(["canonical", "--field", "q2", "<1,1>"])
    assert code == 0
    dec = json.loads(out)["result"]["results"][0]["canonical"]
    assert dec == {"n": 0, "wild": ["1"], "alpha0": "0", "beta0": "0",
                   "unit_bit": 0, "pi_bit": 0}


def test_batch_stdin():
    code, out = run_cli(["depth", "--field", "f2-laurent", "-"],
                        stdin="[1, t^-1]\n[t, t^-1]\n")
    assert code == 0
    results = json.loads(out)["result"]["results"]
    assert [r["depth"] for r in results] == ["1/2", "0"]


def test_fixtures_all_pass():
    for name in ("1", "2", "3"):
        code, out = run_cli(["example", name])
        assert code == 0, out
        payload = json.loads(out)
        assert payload["result"]["all_pass"] is True
    code, out = run_cli(["--fixture", "example:1"])
    assert code == 0
    assert json.loads(out)["result"]["fixture"] == "example:1"


def test_byte_identical_reruns():
    argv = ["symbol", "--field", "f2x-laurent", "[1, x*t^-2]"]
    out1 = run_cli(argv)[1]
    out2 = run_cli(argv)[1]
    assert out1 == out2


def test_json_out_file(tmp_path):
    path = tmp_path / "out.json"
    code, out = run_cli(["depth", "--field", "q2", "<1>",
                         "--json-out", str(path)])
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


@pytest.mark.parametrize("where", ["missing/dir/out.json", "."])
def test_json_out_that_cannot_be_written_is_usage_error(where, tmp_path, capsys):
    # the answer is computed first; the failed write then prints only the
    # usage error, with no traceback
    path = tmp_path / where
    code, out = run_cli(["depth", "--json-out", str(path), "[1, t]"])
    assert code == 2
    payload = json.loads(out)
    assert payload["error"] == "usage" and str(path) in payload["message"]
    assert out.count("\n") == 1
    assert "Traceback" not in capsys.readouterr().err


def test_precision_retry_protocol(monkeypatch):
    from wittlab.errors import PrecisionExhausted
    calls = []
    real = cli._run_once

    def flaky(args, precision):
        calls.append(precision)
        if len(calls) < 3:
            raise PrecisionExhausted("forced")
        return real(args, precision)

    monkeypatch.setattr(cli, "_run_once", flaky)
    code, out = run_cli(["depth", "--field", "f2-laurent", "[1, t^-1]"])
    assert code == 0
    assert calls == [64, 128, 256]
    assert json.loads(out)["precision"] == 256


def test_depth_with_truncated_entries_in_char2():
    for lit, depth in (("[1/(1+t), t^-3]", "3/2"), ("[1+t+O(t^9), t^-1]", "1/2")):
        code, out = run_cli(["depth", "--field", "f2-laurent", lit])
        assert code == 0, out
        assert json.loads(out)["result"]["results"][0]["depth"] == depth


def test_batch_stdin_survives_precision_retry():
    code, out = run_cli(["depth", "--field", "q2", "--precision", "1", "-"],
                        stdin="<1/3, 5/7>\n")
    assert code == 0
    payload = json.loads(out)
    assert payload["precision"] > 1  # at least one retry happened
    assert len(payload["result"]["results"]) == 1


def test_field_option_out_of_range_is_unsupported():
    for field in ("f2m-laurent:m=17", "f2mx-laurent:m=0", "f2m-laurent:m=two",
                  "bogus", "f2m-laurent:k=2"):
        code, out = run_cli(["depth", "--field", field, "[1, t]"])
        assert code == 4
        payload = json.loads(out)
        assert payload["schema"] == "wittlab/1"
        assert payload["error"] == "unsupported"


def test_enumerate_q2_reports_q2(monkeypatch):
    seen = []

    def fake(field):
        seen.append(field)
        return {"count": 0}

    monkeypatch.setattr(cli, "_cmd_enumerate_q2", fake)
    code, out = run_cli(["enumerate-q2"])  # --field defaults to f2-laurent
    assert code == 0
    assert json.loads(out)["field"] == {"kind": "dyadic", "residue": "GF(2)"}
    assert seen[0].precision == 64


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "wittlab", "depth", "--field",
                           "q2", "<1>"], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["results"][0]["depth"] == "1"


@pytest.mark.parametrize("text", ['[["1"],["0","1"]]', '[[]]', '[["1","0"]]',
                                  '[["1","1"],["t","t^-1"]]'])
def test_malformed_json_matrix_is_a_syntax_error(text):
    code, out = run_cli(["depth", "--field", "f2-laurent", text])
    assert code == 2
    assert json.loads(out)["error"] == "syntax"


def test_json_matrix_with_integer_entries():
    code, out = run_cli(["depth", "--field", "f2-laurent", "[[1,1],[0,1]]"])
    _, ref = run_cli(["depth", "--field", "f2-laurent", '[["1","1"],["0","1"]]'])
    assert code == 0
    got, want = (json.loads(o)["result"]["results"][0] for o in (out, ref))
    assert got["depth"] == "0" and got["certificate"] == want["certificate"]
    code, out = run_cli(["depth", "--field", "f2-laurent", "[[1,0],[0,1]]"])
    assert code == 1 and json.loads(out)["error"] == "SingularForm"


def test_a_scrambled_singular_form_is_singular_not_precision_exhausted():
    # a singular U over Q_2 under a basis change: its split leaves a rest
    # that no precision certifies, and the exact entries decide the radical
    code, out = run_cli(["depth", "--field", "q2", "[[10, 15, 4, 1], "
                         "[0, 24, 29, 10], [0, 0, 15, 13], [0, 0, 0, 3]]"])
    assert code == 1
    assert json.loads(out) == {"error": "SingularForm",
                               "message": "form has a (certified) radical",
                               "schema": "wittlab/1"}


@pytest.mark.parametrize("argv, option", [
    (["depth", "--precision", "-3", "[1/(1+t),t^-1]"], "--precision"),
    (["depth", "--precision", "0", "[1/(1+t),t^-1]"], "--precision"),
    (["depth", "--degree-cap", "-1", "--field", "f2x-laurent", "[x,t^-1]"],
     "--degree-cap"),
])
def test_out_of_range_options_are_rejected(argv, option):
    code, out = run_cli(argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["schema"] == "wittlab/1" and payload["error"] == "usage"
    assert option in payload["message"]


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def boom(field, forms):
        raise RuntimeError("kaboom")

    monkeypatch.setitem(cli.PER_FORM, "depth", boom)
    code, out = run_cli(["depth", "--field", "f2-laurent", "[1, t]"])
    assert code == 1
    payload = json.loads(out)
    assert payload == {"schema": "wittlab/1", "error": "internal",
                       "message": "RuntimeError: kaboom"}
    assert "Traceback" in capsys.readouterr().err


@pytest.mark.parametrize("argv, needle", [
    (["depth", "--precision", "abc", "[1,t]"], "invalid int value"),
    (["depth", "--no-such-option", "[1,t]"], "--no-such-option"),
    (["equal", "[1,t]"], "form2"),
    (["depth"], "forms"),
    ([], "no command given"),
    (["--field", "q2"], "no command given"),
])
def test_bad_command_line_is_usage_error(argv, needle, capsys):
    code, out = run_cli(argv)
    assert code == 2
    payload = json.loads(out)
    assert payload["schema"] == "wittlab/1" and payload["error"] == "usage"
    assert needle in payload["message"]
    assert "usage:" in capsys.readouterr().err


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["depth", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_power_literal_under_the_degree_cap():
    # x^8 squares three times, not four: degree 16 is never formed
    depths = []
    for lit in ("[x^8, t^-1]", "[x^7*x, t^-1]"):
        code, out = run_cli(["depth", "--degree-cap", "8", "--field",
                             "f2x-laurent", lit])
        assert code == 0, out
        depths.append(json.loads(out)["result"]["results"][0]["depth"])
    assert depths == ["1/2", "1/2"]


def test_enumerate_q2_stdout_is_byte_identical_to_the_fixture():
    fixture = Path(__file__).resolve().parent / "data" / "enumerate-q2.stdout"
    code, out = run_cli(["enumerate-q2"])
    assert code == 0
    assert out.encode() == fixture.read_bytes()


@pytest.mark.parametrize("lit, code, depth", [
    ("[t^3, O(t^-1)]", 0, "0"), ("[O(t^-1), t^3]", 0, "0"),
    ("[1, O(t^-1)]", 5, None), ("[O(t^-1), 1]", 5, None),
    ("[O(t^-1), O(t^-1)]", 5, None),
])
def test_truncated_zero_entry_ends_in_schema_json(lit, code, depth):
    got, out = run_cli(["depth", "--field", "f2-laurent", lit])
    payload = json.loads(out)
    assert got == code and payload["schema"] == "wittlab/1"
    if depth is None:
        assert payload["error"] == "precision-exhausted"
    else:
        assert payload["result"]["results"][0]["depth"] == depth


def test_a_line_zero_to_precision_certifies_through_the_retry():
    # the split leaves a line entry O(2^k) at precision 8; one doubling
    # certifies, with the answer the CLI gives at precision 16
    form = ('[["181125/8","907629/4","576399/4","551791/4"],'
            '[0,"4550213/8","2912603/4","2773559/4"],'
            '[0,0,"2124109/8","1857633/4"],[0,0,0,"1716669/8"]]')
    code, out = run_cli(["canonical", "--field", "q2", "--precision", "8", form])
    assert code == 0
    payload = json.loads(out)
    assert payload["precision"] == 16
    assert payload["result"]["results"][0]["canonical"] == {
        "n": 0, "wild": ["1"], "alpha0": "0", "beta0": "0",
        "unit_bit": 1, "pi_bit": 1}
    assert (code, out) == run_cli(
        ["canonical", "--field", "q2", "--precision", "16", form])


@pytest.mark.parametrize("name", ["1", "2", "3"])
def test_example_stdout_is_byte_identical_to_the_fixture(name):
    fixture = Path(__file__).resolve().parent / "data" / f"example-{name}.stdout"
    code, out = run_cli(["example", name])
    assert code == 0
    assert out.encode() == fixture.read_bytes()


@pytest.mark.parametrize("options, command, code, kind", [
    (["--field", "q2"], ["canonical", "<1,1>"], 0, "dyadic"),
    (["--field", "q2", "--precision", "1"], ["depth", "<1/3, 5/7>"], 0, "dyadic"),
    (["--field", "f2x-laurent", "--degree-cap", "8"], ["depth", "[x^8, t^-1]"],
     0, "laurent"),
    # the cap applies wherever it is given: degree 4 is over a cap of 3
    (["--field", "f2x-laurent", "--degree-cap", "3"], ["depth", "[x^8, t^-1]"],
     1, None),
    (["--precision", "16"], ["equal", "[1,t^-2]", "[1,t^-1]"], 0, "laurent"),
])
def test_options_before_and_after_the_command_agree(options, command, code,
                                                    kind):
    before = run_cli(options + command)
    after = run_cli(command[:1] + options + command[1:])
    assert before == after
    assert before[0] == code
    payload = json.loads(before[1])
    if kind is None:
        assert payload["error"] == "DegreeCapExceeded"
    else:
        assert payload["field"]["kind"] == kind


def test_json_out_before_the_command(tmp_path):
    path = tmp_path / "out.json"
    code, out = run_cli(["--json-out", str(path), "depth", "--field", "q2", "<1>"])
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


def test_an_option_after_the_command_wins():
    _, out = run_cli(["--precision", "16", "depth", "--precision", "32", "[1, t]"])
    assert json.loads(out)["precision"] == 32


@pytest.mark.parametrize("argv", [
    ["depth", "--field", "f2-laurent", "[1+t+O(t^5), t^-1]"],
    ["depth", "--field", "f2-laurent", "[1,,t]"],
    ["enumerate-q2"],
])
def test_closed_stdout_ends_quietly(argv):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte is written
    try:
        proc = subprocess.run([sys.executable, "-m", "wittlab", *argv],
                              env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == cli.EXIT_BROKEN_PIPE
    assert proc.stderr == ""


@pytest.mark.parametrize("argv", [
    ["--precision", "16", "depth", "--field", "q2", "<1, 3, 5>"],
    ["depth", "--field", "q2", "--precision", "16", "<1, 3, 5>"],
    ["--field", "f2m-laurent:m=2", "canonical", "sum([1, t^-1], [2, t^-3])"],
    ["canonical", "--field", "f2m-laurent:m=2", "sum([1, t^-1], [2, t^-3])"],
])
def test_a_usage_error_leaves_the_next_call_as_in_a_fresh_process(argv, capsys):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    fresh = subprocess.run([sys.executable, "-m", "wittlab", *argv], env=env,
                           capture_output=True, text=True)
    assert cli.build_parser() is cli.build_parser()  # one parser per process
    for bad in (["--precision", "0", "depth", "[1, t]"],
                ["depth", "--precision", "0", "[1, t]"],
                ["depth", "--no-such-option", "[1, t]"]):
        code, out = run_cli(bad)
        assert code == 2 and json.loads(out)["error"] == "usage"
    assert run_cli(argv) == (fresh.returncode, fresh.stdout)
    assert fresh.returncode == 0
