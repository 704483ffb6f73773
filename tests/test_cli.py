import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EDGE_NETWORK, EDGE_SOURCE, FIB_SOURCE
from mimosa.cli import main

BAD_INIT = """\
step f (x : int) --> y { y = 0 -> 0 -> pre pre x }
channel a : int
channel b : int
node n implements f (a) --> (b) every 10ms
node m implements g (b) --> (a) every 10ms
step g (v : int) --> (w : int) { w = v }
"""


@pytest.fixture()
def fib_file(tmp_path):
    path = tmp_path / "fib.mim"
    path.write_text(FIB_SOURCE)
    return str(path)


class TestCheck:
    def test_fibonacci_checks_clean(self, fib_file):
        assert main(["check", fib_file]) == 0

    def test_unwired_detector_needs_allow_unwired(self, tmp_path, capsys):
        path = tmp_path / "edge.mim"
        path.write_text(EDGE_SOURCE)
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert "no writing node" in err
        assert main(["check", str(path), "--allow-unwired"]) == 0

    def test_initialization_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.mim"
        path.write_text(BAD_INIT)
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}:1:" in err
        assert "error" in err and "first cycle" in err

    def test_json_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "bad.mim"
        path.write_text(BAD_INIT)
        assert main(["check", str(path), "--diag-format=json"]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload[0]["severity"] == "error"
        assert payload[0]["line"] == 1
        assert payload[0]["file"].endswith("bad.mim")

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.mim"]) == 1
        assert "mimosa:" in capsys.readouterr().err

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["check"]) == 2
        assert main(["frobnicate"]) == 2

    def test_malformed_number_is_a_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.mim"
        path.write_text("step f x --> y { y = x + \u00b2 }\n", encoding="utf-8")
        assert main(["check", str(path)]) == 1
        assert f"{path}:1:26: error: malformed number" in capsys.readouterr().err


# Pieces of Mimosa source, whole declarations among them so that some texts get
# past the parser, plus letters and digits outside ASCII.
FRAGMENTS = st.sampled_from(
    [
        *"step channel node implements every if then else pre fby either otherwise".split(),
        *"Some None true false int bool x y f n a 0 1 2.5 10ms 3s".split(),
        *"--> -> ( ) { } , ; : = ? + - * / < <= == != && || ! _ --".split(),
        " ",
        "\n",
        "step f x --> y { y = x }",
        "step p () --> (v : int)",
        "channel a : int = { 1 }",
        "node n implements f (a) --> (a) every 10ms",
        "y = 0 -> pre x + 1;",
        "\u00e9",
        "\u03bb",
        "\u00b2",
        "\u00bd",
        "\u0663",
        "\u216b",
        "x\u00b2",
    ]
) | st.characters(min_codepoint=0x80, max_codepoint=0x33FF).filter(str.isalnum)


@settings(max_examples=200, deadline=None)
@given(st.lists(FRAGMENTS, max_size=40).map(lambda parts: "".join(parts)[:80]))
def test_malformed_input_never_raises(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.mim"
        path.write_text(text, encoding="utf-8")
        assert main(["check", str(path)]) in (0, 1)
        assert main(["fmt", str(path)]) in (0, 1)


class TestRun:
    def test_run_writes_fibonacci_trace(self, fib_file, tmp_path, capsys):
        out = tmp_path / "fib.csv"
        assert main(["run", fib_file, "--for", "200ms", "--trace", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "time_us,channel,value,node"
        d_values = [line.split(",")[2] for line in lines[1:] if line.split(",")[1] == "d"]
        assert d_values == ["0", "1", "1", "2", "3", "5", "8", "13", "21", "34"]
        # print_int is bound to the builtin printer by default.
        assert "10ms: 0" in capsys.readouterr().out

    def test_run_trace_to_stdout(self, fib_file, capsys):
        assert main(["run", fib_file, "--for", "40ms", "--trace", "-"]) == 0
        out = capsys.readouterr().out
        assert "time_us,channel,value,node" in out

    def test_run_requires_horizon(self, fib_file):
        assert main(["run", fib_file]) == 2

    def test_bad_duration(self, fib_file, capsys):
        assert main(["run", fib_file, "--for", "10parsecs"]) == 1
        assert "duration" in capsys.readouterr().err

    def test_run_is_deterministic(self, fib_file, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["run", fib_file, "--for", "100ms", "--trace", str(first)]) == 0
        assert main(["run", fib_file, "--for", "100ms", "--trace", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_stub_file_and_builtin_print(self, tmp_path, capsys):
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        levels = tmp_path / "levels.txt"
        levels.write_text("false\nfalse\ntrue\ntrue\nfalse\nfalse\n")
        trace = tmp_path / "edge.csv"
        code = main(
            [
                "run",
                str(program),
                "--for",
                "600ms",
                "--stub",
                f"pin={levels}",
                "--stub",
                "watch=builtin:print",
                "--trace",
                str(trace),
            ]
        )
        assert code == 0
        rows = [line for line in trace.read_text().splitlines()[1:] if ",b," in line]
        assert [r.split(",")[2] for r in rows] == ["true", "false"]
        out = capsys.readouterr().out
        # The watcher consumes true@400 at its t=400 activation.
        assert out.splitlines() == ["400ms: true", "600ms: false"]

    def test_stub_const(self, tmp_path, capsys):
        # A constant level never produces an edge: `in -> pre in` seeds the
        # memory with the first sample, so cycle one compares equal.
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        code = main(
            [
                "run",
                str(program),
                "--for",
                "300ms",
                "--stub",
                "pin=const:true",
                "--stub",
                "watch=builtin:print",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_unbound_prototype_reported(self, tmp_path, capsys):
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        assert main(["run", str(program), "--for", "100ms"]) == 1
        assert "unbound prototype" in capsys.readouterr().err

    def test_bad_stub_spec(self, fib_file, capsys):
        assert main(["run", fib_file, "--for", "10ms", "--stub", "oops"]) == 1
        assert "--stub" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["foo", "1 2", ")"])
    def test_bad_stub_literal_is_a_diagnostic(self, tmp_path, capsys, literal):
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        assert main(["run", str(program), "--for", "10ms", "--stub", f"pin=const:{literal}"]) == 1
        assert "<literal>:1:" in capsys.readouterr().err


class TestFmt:
    def test_fmt_outputs_canonical_form(self, fib_file, capsys):
        assert main(["fmt", fib_file]) == 0
        out = capsys.readouterr().out
        assert "step add (x, y) --> z {" in out
        assert "channel a : int = { 1 }" in out
        assert "node print implements print_int (d) --> () every 10ms" in out

    def test_fmt_is_stable(self, fib_file, tmp_path, capsys):
        assert main(["fmt", fib_file]) == 0
        once = capsys.readouterr().out
        again = tmp_path / "canonical.mim"
        again.write_text(once)
        assert main(["fmt", str(again)]) == 0
        assert capsys.readouterr().out == once


class TestExplainTrace:
    def test_summary(self, fib_file, tmp_path, capsys):
        trace = tmp_path / "fib.csv"
        assert main(["run", fib_file, "--for", "100ms", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["explain-trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "d: 5 events" in out
        assert "first 0@10ms" in out

    def test_missing_trace(self, capsys):
        assert main(["explain-trace", "/nonexistent.csv"]) == 1
