import argparse
import json
import os
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import EDGE_NETWORK, EDGE_SOURCE, FIB_SOURCE
from mimosa import SimConfig, builtin_hosts, check_program, parse_program, run
from mimosa.analysis import MAX_CALL_DEPTH
from mimosa.cli import _COMMANDS, _build_parser, main
from mimosa.errors import MimosaError, render_diagnostics
from mimosa.parser import MAX_EXPR_DEPTH, MAX_TYPE_DEPTH

DIAGNOSTICS_ORACLE = Path(__file__).parent / "oracles" / "diagnostics.json"

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

    # Each recorded program through the command line, and through the library
    # with the file named only to the parser.
    ROUTES = [
        pytest.param(name, library, id=f"{name}-library" if library else name)
        for name in sorted(json.loads(DIAGNOSTICS_ORACLE.read_text()))
        for library in (False, True)
    ]

    @pytest.mark.parametrize("name, library", ROUTES)
    def test_recorded_diagnostics(self, name, library, tmp_path, capsys, monkeypatch):
        # The JSON of each program's diagnostics, byte for byte, as CI checks it too.
        case = json.loads(DIAGNOSTICS_ORACLE.read_text())[name]
        expected = json.dumps(case["diagnostics"], indent=2)
        if library:
            with pytest.raises(MimosaError) as info:
                check_program(parse_program(case["source"], file=name))
            assert render_diagnostics(info.value.diagnostics, "json") == expected
            return
        (tmp_path / name).write_text(case["source"])
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--diag-format", "json", name]) == 1
        assert capsys.readouterr().err == expected + "\n"

    # A diagnostic at the end of input is located just past the last character
    # that is not blank, whether or not the file ends in a newline.
    @pytest.mark.parametrize(
        "source, where",
        [
            ("channel a : (int, bool", "1:23"),
            ("channel a : (int, bool\n", "1:23"),
            ("channel a : (int, bool\r\n", "1:23"),
            ("channel a : (int, bool  \n\n\t\n", "1:23"),
            ("channel a : (int, bool -- a comment \n\n", "1:36"),
            ("node n implements", "1:18"),
            ("node n implements\n", "1:18"),
            ("step f () --> ()\nnode n implements f () --> ()", "2:30"),
            ("step f () --> ()\nnode n implements f () --> ()\n", "2:30"),
        ],
    )
    def test_end_of_input_is_located_inside_the_file(self, source, where, tmp_path, capsys):
        path = tmp_path / "eof.mim"
        path.write_bytes(source.encode())
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"{path}:{where}: error: expected ")

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
        assert capsys.readouterr().err == "/nonexistent.mim: error: cannot read file: No such file or directory\n"

    def test_missing_file_json_has_no_position(self, capsys):
        assert main(["check", "/nonexistent.mim", "--diag-format=json"]) == 1
        (diag,) = json.loads(capsys.readouterr().err)
        assert diag == {
            "file": "/nonexistent.mim",
            "severity": "error",
            "message": "cannot read file: No such file or directory",
        }

    @pytest.mark.parametrize(
        "setting, error", [(None, "\x1b[31merror\x1b[0m"), ("1", "\x1b[31merror\x1b[0m"), ("0", "error")]
    )
    def test_text_diagnostics_on_a_terminal_are_colored_unless_mimosa_color_is_0(
        self, capsys, monkeypatch, setting, error
    ):
        monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
        if setting is None:
            monkeypatch.delenv("MIMOSA_COLOR", raising=False)
        else:
            monkeypatch.setenv("MIMOSA_COLOR", setting)
        assert main(["check", "/nonexistent.mim"]) == 1
        assert capsys.readouterr().err == f"/nonexistent.mim: {error}: cannot read file: No such file or directory\n"

    def test_usage_error_is_exit_2(self, capsys):
        assert main(["check"]) == 2
        assert main(["frobnicate"]) == 2

    def test_every_command_has_a_handler(self):
        sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(_COMMANDS)

    # One failed call of each command: exit 1, the exact diagnostics on
    # stderr, in JSON where the command takes --diag-format, and no output.
    DIVIDE = (
        "step divide (x : int) --> (y : int) { y = 100 / x }\n"
        "step g (v : int) --> (w : int) { w = v }\n"
        "channel a : int = { 0 }\n"
        "channel b : int\n"
        "node n implements divide (a) --> (b) every 10ms\n"
        "node m implements g (b) --> (a) every 10ms\n"
    )
    FAILED_COMMANDS = [
        (
            ["check", "--diag-format", "json"],
            "step f x --> y { y = }\n",
            [{"line": 1, "col": 22, "severity": "error", "message": "expected an expression, found '}'"}],
        ),
        (
            ["run", "--for", "30ms", "--diag-format", "json"],
            DIVIDE,
            [{"line": 5, "col": 1, "severity": "error", "message": "node 'n' failed at 0s: division by zero"}],
        ),
        (["fmt"], "step f x --> y { y = }\n", "{path}:1:22: error: expected an expression, found '}'\n"),
        (
            ["explain-trace"],
            "time,chan\n",
            "{path}:1:1: error: not a trace: the header must name the columns time_us, channel and value\n",
        ),
    ]

    @pytest.mark.parametrize("argv, source, expected", FAILED_COMMANDS, ids=["check", "run", "fmt", "explain-trace"])
    def test_failed_command_is_reported_by_main(self, tmp_path, capsys, argv, source, expected):
        path = tmp_path / "input"
        path.write_text(source)
        assert main([argv[0], str(path), *argv[1:]]) == 1
        if type(expected) is list:
            expected = json.dumps([{"file": str(path), **diag} for diag in expected], indent=2) + "\n"
        assert capsys.readouterr() == ("", expected.replace("{path}", str(path)))

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

    @pytest.mark.parametrize(
        "argv, option, message",
        [
            (["--for", "10parsecs"], "--for", "in '10parsecs', unknown duration unit 'parsecs' (use us, ms, or s)"),
            (["--for", "0ms"], "--for", "in '0ms', durations must be positive"),
            (["--for", "10ms", "--stub", "oops"], "--stub", "expected STEP=SPEC, got 'oops'"),
            (["--for", "10ms", "--stub", "print_int=const:(1"], "--stub", "in 'print_int=const:(1', expected ')'"),
            (["--for", "10ms", "--seed", "3"], "--seed", "only --schedule randomized takes a seed"),
        ],
    )
    def test_argument_errors_name_the_option(self, fib_file, capsys, argv, option, message):
        assert main(["run", fib_file, *argv]) == 1
        assert capsys.readouterr().err == f"argument {option}: error: {message}\n"
        assert main(["run", fib_file, *argv, "--diag-format", "json"]) == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload == [{"argument": option, "severity": "error", "message": message}]

    @pytest.mark.parametrize("diag_format", ["text", "json"])
    def test_runtime_error_is_located_at_the_node(self, tmp_path, capsys, diag_format):
        program = tmp_path / "div.mim"
        program.write_text(
            "step divide (x : int) --> (y : int) { y = 100 / x }\n"
            "step g (v : int) --> (w : int) { w = v }\n"
            "channel a : int = { 0 }\n"
            "channel b : int\n"
            "node n implements divide (a) --> (b) every 10ms\n"
            "node m implements g (b) --> (a) every 10ms\n"
        )
        assert main(["run", str(program), "--for", "30ms", "--diag-format", diag_format]) == 1
        err = capsys.readouterr().err
        message = "node 'n' failed at 0s: division by zero"
        if diag_format == "json":
            (diag,) = json.loads(err)
            assert (diag["file"], diag["line"], diag["col"], diag["message"]) == (str(program), 5, 1, message)
        else:
            assert err.strip() == f"{program}:5:1: error: {message}"

    @pytest.mark.parametrize("diag_format", ["text", "json"])
    def test_stub_of_the_wrong_shape_is_an_option_error(self, tmp_path, capsys, diag_format):
        program = tmp_path / "pair.mim"
        program.write_text(
            "step pair () --> (y : int, z : int)\n"
            "step sink (v : int, w : int) --> ()\n"
            "channel b : int\n"
            "channel c : int\n"
            "node n implements pair () --> (b, c) every 10ms\n"
            "node m implements sink (b, c) --> () every 10ms\n"
        )
        stubs = ["--stub", "pair=const:1", "--stub", "sink=builtin:print"]
        argv = ["run", str(program), "--for", "30ms", *stubs, "--diag-format", diag_format]
        assert main(argv) == 1
        err = capsys.readouterr().err
        message = "in 'pair=const:1', step 'pair' returns (int, int), but its host value has type int"
        if diag_format == "json":
            assert json.loads(err) == [{"argument": "--stub", "severity": "error", "message": message}]
        else:
            assert err == f"argument --stub: error: {message}\n"

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

    @pytest.mark.parametrize(
        "stub, why",
        [
            ("nosuch=builtin:print", "step 'nosuch' is not a step of the program"),
            ("nosuch=/nonexistent.txt", "step 'nosuch' is not a step of the program"),
            ("nosuch=const:zz", "step 'nosuch' is not a step of the program"),
            ("add=const:1", "step 'add' has a body"),
            ("add=const:zz", "step 'add' has a body"),
        ],
    )
    def test_stub_for_a_step_that_is_not_a_prototype(self, fib_file, capsys, stub, why):
        assert main(["run", fib_file, "--for", "10ms", "--stub", stub]) == 1
        message = f"in {stub!r}, {why}; only a prototype step takes a stub"
        assert capsys.readouterr() == ("", f"argument --stub: error: {message}\n")
        assert main(["run", fib_file, "--for", "10ms", "--stub", stub, "--diag-format", "json"]) == 1
        assert json.loads(capsys.readouterr().err) == [{"argument": "--stub", "severity": "error", "message": message}]

    @pytest.mark.parametrize("first, second", [("levels", "const:false"), ("const:false", "levels")])
    def test_two_stubs_for_one_step_are_an_option_error(self, tmp_path, capsys, first, second):
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        levels = tmp_path / "levels.txt"
        levels.write_text("false\ntrue\n")
        first, second = (str(levels) if spec == "levels" else spec for spec in (first, second))
        argv = ["run", str(program), "--for", "600ms", "--stub", f"pin={first}", "--stub", f"pin={second}"]
        argv += ["--stub", "watch=builtin:print"]
        message = f"step 'pin' has two stubs, {first!r} and {second!r}; give it one"
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"argument --stub: error: {message}\n")
        assert main([*argv, "--diag-format", "json"]) == 1
        assert json.loads(capsys.readouterr().err) == [{"argument": "--stub", "severity": "error", "message": message}]

    def test_stub_of_the_wrong_type_is_an_option_error(self, tmp_path, capsys):
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        assert main(["run", str(program), "--for", "600ms", "--stub", "pin=const:3", "--stub", "watch=builtin:print"]) == 1
        message = "in 'pin=const:3', step 'pin' returns bool, but its host value has type int"
        assert capsys.readouterr() == ("", f"argument --stub: error: {message}\n")

    @pytest.mark.parametrize(
        "spec, found",
        [("const:Some 3", "int?"), ("const:None", "'a?"), ("builtin:print", "unit")],
    )
    def test_host_value_must_have_the_declared_result_type(self, tmp_path, capsys, spec, found):
        program = tmp_path / "p.mim"
        program.write_text(
            "step f (x : int) --> (y : int)\n"
            "channel a : int = { 1 }\n"
            "channel b : int\n"
            "node n implements f (a) --> (b) every 10ms\n"
            "node m implements f (b) --> (a) every 10ms\n"
        )
        argv = ["run", str(program), "--for", "20ms", "--stub", f"f={spec}", "--trace", "-"]
        message = f"in 'f={spec}', step 'f' returns int, but its host value has type {found}"
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"argument --stub: error: {message}\n")
        assert main([*argv, "--diag-format", "json"]) == 1
        assert json.loads(capsys.readouterr().err) == [{"argument": "--stub", "severity": "error", "message": message}]

    def test_stub_file_value_of_the_wrong_type_names_file_and_line(self, tmp_path, capsys):
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        levels = tmp_path / "levels.txt"
        argv = ["run", str(program), "--for", "10ms", "--stub", f"pin={levels}", "--stub", "watch=builtin:print"]
        # The position is the literal's, as a parse error on its line gives.
        cases = [("true\n-- a comment\nSome true\n", 3, 1, "bool?"), ("  true\n  3\n", 2, 3, "int")]
        for text, line, col, found in cases:
            levels.write_text(text)
            message = f"step 'pin' returns bool, but its host value has type {found}"
            assert main(argv) == 1
            assert capsys.readouterr() == ("", f"{levels}:{line}:{col}: error: {message}\n")
            assert main([*argv, "--diag-format", "json"]) == 1
            (diag,) = json.loads(capsys.readouterr().err)
            assert (diag["file"], diag["line"], diag["col"], diag["message"]) == (str(levels), line, col, message)

    def test_stub_file_with_no_values_names_the_file(self, tmp_path, capsys):
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        levels = tmp_path / "EMPTY"
        levels.write_text("-- only a comment\n")
        argv = ["run", str(program), "--for", "60ms", "--stub", f"pin={levels}", "--stub", "watch=builtin:print"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err == f"{levels}: error: stub input contains no values\n"
        assert "<string>" not in err
        assert main([*argv, "--diag-format", "json"]) == 1
        message = "stub input contains no values"
        assert json.loads(capsys.readouterr().err) == [{"file": str(levels), "severity": "error", "message": message}]

    def test_default_print_int_must_return_unit(self, tmp_path, capsys):
        program = tmp_path / "p.mim"
        program.write_text(
            "step print_int (x : int) --> (y : int)\n"
            "channel a : int = { 1 }\n"
            "channel b : int\n"
            "node n implements print_int (a) --> (b) every 10ms\n"
            "node m implements print_int (b) --> (a) every 10ms\n"
        )
        assert main(["run", str(program), "--for", "20ms"]) == 1
        message = "in 'print_int=builtin:print', step 'print_int' returns int, but its host value has type unit"
        assert capsys.readouterr() == ("", f"argument --stub: error: {message}\n")

    def test_bad_stub_spec(self, fib_file, capsys):
        assert main(["run", fib_file, "--for", "10ms", "--stub", "oops"]) == 1
        assert "--stub" in capsys.readouterr().err

    @pytest.mark.parametrize("literal", ["foo", "1 2", ")"])
    def test_bad_stub_literal_is_a_diagnostic(self, tmp_path, capsys, literal):
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        assert main(["run", str(program), "--for", "10ms", "--stub", f"pin=const:{literal}"]) == 1
        assert capsys.readouterr().err.startswith(f"argument --stub: error: in 'pin=const:{literal}', ")

    def test_bad_stub_file_line_names_file_and_line(self, tmp_path, capsys):
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        levels = tmp_path / "levels.txt"
        levels.write_text("true\n)\n")
        assert main(["run", str(program), "--for", "10ms", "--stub", f"pin={levels}"]) == 1
        assert f"{levels}:2:1: error: expected a literal value, found ')'" in capsys.readouterr().err


def chain_program(operators: int) -> str:
    """A runnable network whose step body is `x + 1 + ... + 1`."""
    return f"""\
step f (x : int) --> (y : int) {{ y = x{" + 1" * operators} }}
step g (v : int) --> (w : int) {{ w = v }}
channel a : int = {{ 0 }}
channel b : int
node n implements f (a) --> (b) every 10ms
node m implements g (b) --> (a) every 10ms
"""


class TestDeepExpressions:
    COMMANDS = [["check"], ["fmt"], ["run", "--for", "100ms"]]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_long_operator_chain_is_a_diagnostic(self, tmp_path, capsys, command):
        path = tmp_path / "chain.mim"
        path.write_text(chain_program(1500))
        assert main([command[0], str(path), *command[1:]]) == 1
        assert f"{path}:1:38: error: expression nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_deep_parentheses_are_a_diagnostic(self, tmp_path, capsys, command):
        # They overflow the parser's stack; the diagnostic names the
        # parenthesis where it did, which depends on the caller's stack.
        path = tmp_path / "parens.mim"
        path.write_text(chain_program(0).replace("y = x", "y = " + "(" * 1000 + "x" + ")" * 1000))
        assert main([command[0], str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert "error: expression nested too deeply" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_operator_chain_at_the_depth_limit_runs(self, tmp_path, capsys, command):
        # x + 1 + ... with k operators is a tree 2k + 1 levels deep.
        path = tmp_path / "chain.mim"
        path.write_text(chain_program((MAX_EXPR_DEPTH - 1) // 2))
        assert main([command[0], str(path), *command[1:]]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_option_chain_at_the_depth_limit_runs(self, tmp_path, capsys, command):
        # if (1), == (2), its argument tuple (3), 252 Somes and x: 256 levels,
        # and a type 253 options deep for the type walkers.
        somes = "Some " * 252
        path = tmp_path / "chain.mim"
        path.write_text(chain_program(0).replace("y = x", f"y = if {somes}x == {somes}x then x + 1 else 0"))
        assert main([command[0], str(path), *command[1:]]) == 0
        assert capsys.readouterr().err == ""


def deep_type(shape: str, depth: int) -> str:
    """`int` under depth - 1 options, or nested as the last of pairs."""
    if shape == "option":
        return "int" + "?" * (depth - 1)
    return "(int, " * (depth - 1) + "int" + ")" * (depth - 1)


def deep_literal(shape: str, depth: int) -> str:
    """A literal value of `deep_type(shape, depth)`."""
    if shape == "option":
        return "Some " * (depth - 1) + "1"
    return "(1, " * (depth - 1) + "1" + ")" * (depth - 1)


def printed_options(inner: str, count: int) -> str:
    """How the printer shows type `inner` under `count` options."""
    return "(" * (count - 1) + inner + "?" + ")?" * (count - 1) if count else inner


def printed_type(shape: str, depth: int) -> str:
    """How the printer shows `deep_type(shape, depth)`."""
    return printed_options("int", depth - 1) if shape == "option" else deep_type(shape, depth)


def printed_literal(shape: str, depth: int) -> str:
    """How the printer shows `deep_literal(shape, depth)`."""
    if shape == "option":
        return "Some (" * (depth - 2) + "Some 1" + ")" * (depth - 2)
    return deep_literal(shape, depth)


def typed_network(ty: str, value: str) -> str:
    """A runnable network src -> copy -> sink carrying `ty`, whose first
    channel starts with `value`; src and sink are prototypes."""
    return f"""\
step src () --> (y : {ty})
step copy (x : {ty}) --> (y : {ty}) {{ y = x }}
step sink (x : {ty}) --> ()
channel a : {ty} = {{ {value} }}
channel b : {ty}
node n implements src () --> (a) every 10ms
node k implements copy (a) --> (b) every 10ms
node m implements sink (b) --> () every 10ms
"""


class TestDeepTypesAndLiterals:
    SHAPES = ["option", "tuple"]

    def commands(self, tmp_path, shape: str, depth: int) -> list[list[str]]:
        """check, fmt, and a run whose source prototype reads the deepest value from a stub file."""
        stub = tmp_path / "values.txt"
        stub.write_text(deep_literal(shape, depth) + "\n")
        return [["check"], ["fmt"], ["run", "--for", "30ms", "--stub", f"src={stub}", "--stub", "sink=builtin:print"]]

    @pytest.mark.parametrize(
        "shape, depth", [("option", 350), ("option", 3000), ("tuple", 250), ("tuple", MAX_TYPE_DEPTH + 1)]
    )
    def test_deep_annotation_is_a_diagnostic(self, tmp_path, capsys, shape, depth):
        path = tmp_path / "deep.mim"
        path.write_text(typed_network(deep_type(shape, depth), deep_literal(shape, depth)))
        for command in self.commands(tmp_path, shape, depth):
            assert main([command[0], str(path), *command[1:]]) == 1
            out, err = capsys.readouterr()
            assert "Traceback" not in out + err
            # Every declaration that names the type is reported at the type.
            assert err.splitlines() == [
                f"{path}:{line}:{col}: error: type nested too deeply"
                for line, col in [(1, 22), (2, 16), (3, 16), (4, 13), (5, 13)]
            ]

    @pytest.mark.parametrize("depth", [900, MAX_TYPE_DEPTH + 1])
    def test_deep_literal_is_a_diagnostic(self, tmp_path, capsys, depth):
        path = tmp_path / "deep.mim"
        path.write_text(typed_network("int", deep_literal("option", depth)))
        for command in self.commands(tmp_path, "option", 1):
            assert main([command[0], str(path), *command[1:]]) == 1
            out, err = capsys.readouterr()
            assert "Traceback" not in out + err
            assert err.splitlines() == [f"{path}:4:21: error: literal value nested too deeply"]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_deep_stub_value_is_a_diagnostic(self, tmp_path, capsys, shape):
        path = tmp_path / "deep.mim"
        path.write_text(typed_network("int", "1"))
        value = deep_literal(shape, MAX_TYPE_DEPTH + 1)
        stub = tmp_path / "values.txt"
        stub.write_text(f"1\n{value}\n")
        assert main(["run", str(path), "--for", "30ms", "--stub", f"src={stub}", "--stub", "sink=builtin:print"]) == 1
        assert capsys.readouterr().err == f"{stub}:2:1: error: literal value nested too deeply\n"
        const = f"src=const:{value}"
        assert main(["run", str(path), "--for", "30ms", "--stub", const, "--stub", "sink=builtin:print"]) == 1
        assert capsys.readouterr().err == f"argument --stub: error: in {const!r}, literal value nested too deeply\n"

    @pytest.mark.parametrize("shape", SHAPES)
    def test_types_and_literals_at_the_limit_run(self, tmp_path, capsys, shape):
        value = deep_literal(shape, MAX_TYPE_DEPTH)
        shown = printed_literal(shape, MAX_TYPE_DEPTH)
        path = tmp_path / "deep.mim"
        path.write_text(typed_network(deep_type(shape, MAX_TYPE_DEPTH), value))
        for command in self.commands(tmp_path, shape, MAX_TYPE_DEPTH):
            assert main([command[0], str(path), *command[1:]]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            if command[0] == "run":
                assert out.splitlines() == [f"{t}ms: {shown}" for t in (10, 20, 30)]
        stub = f"src=const:{value}"
        assert main(["run", str(path), "--for", "10ms", "--stub", stub, "--stub", "sink=builtin:print"]) == 0
        assert capsys.readouterr() == (f"10ms: {shown}\n", "")

    @pytest.mark.parametrize("shape", SHAPES)
    def test_mismatch_prints_the_deepest_type(self, tmp_path, capsys, shape):
        ty, value = deep_type(shape, MAX_TYPE_DEPTH), deep_literal(shape, MAX_TYPE_DEPTH)
        shown = printed_type(shape, MAX_TYPE_DEPTH)
        # The deepest annotation under an expression at MAX_EXPR_DEPTH.
        somes = MAX_EXPR_DEPTH - 1
        if shape == "option":
            wrapped = printed_options("int", MAX_TYPE_DEPTH - 1 + somes)
        else:
            wrapped = printed_options(shown, somes)
        path = tmp_path / "deep.mim"
        for source, message in [
            (f"channel a : {ty} = {{ true }}", f"1:1: error: type mismatch: expected {shown}, found bool"),
            (f"channel a : int = {{ {value} }}", f"1:1: error: type mismatch: expected int, found {shown}"),
            (
                f"step f (x : {ty}) --> (y : bool) {{ y = {'Some ' * somes}x }}",
                f"1:{len(ty) + 20}: error: type mismatch: expected {wrapped}, found bool",
            ),
        ]:
            path.write_text(source + "\n")
            assert main(["check", str(path), "--allow-unwired"]) == 1
            assert capsys.readouterr().err == f"{path}:{message}\n"


def call_chain_program(operators: list[int], caller_first: bool = False) -> str:
    """A runnable network whose node runs s{n-1}, where step s{i} calls s{i-1}
    under `+ 1 + ... + 1` with `operators[i]` operators (s0 starts from x).
    The steps are declared s0 first, or s{n-1} first if `caller_first`."""
    steps = []
    for i, count in enumerate(operators):
        head = "x" if i == 0 else f"s{i - 1} x"
        steps.append(f"step s{i} (x : int) --> (y : int) {{ y = {head}{' + 1' * count} }}")
    if caller_first:
        steps.reverse()
    return "\n".join(steps) + f"""
step g (v : int) --> (w : int) {{ w = v }}
channel a : int = {{ 0 }}
channel b : int
node n implements s{len(operators) - 1} (a) --> (b) every 10ms
node m implements g (b) --> (a) every 10ms
"""


def higher_order_program(top: str, *steps: str) -> str:
    """A runnable network src -> t -> sink whose node t runs `top`, after
    `steps`; `{ops}` in a step stands for `+ 1 + ... + 1`, 125 operators."""
    ops = " + 1" * 125
    return "\n".join(step.replace("{ops}", ops) for step in steps) + f"""
step top (x) --> y {{ y = {top} }}
step count () --> (n : int) {{ n = 0 -> pre (n + 1) }}
step drop (_ : int) --> ()
channel a : int
channel b : int
node src implements count () --> (a) every 10ms
node t implements top (a) --> (b) every 10ms
node sink implements drop (b) --> () every 10ms
"""


class TestStepCallNesting:
    COMMANDS = [["check"], ["run", "--for", "30ms"]]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_deep_call_chain_is_a_diagnostic(self, tmp_path, capsys, command):
        # Each body is 241 or 242 levels deep, under the per-expression limit;
        # s2 is the first step whose chain passes MAX_CALL_DEPTH.
        path = tmp_path / "calls.mim"
        path.write_text(call_chain_program([120] * 5))
        assert main([command[0], str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"{path}:3:1: error: expression nested too deeply: the calls from step 's2' nest "
            f"725 levels (at most {MAX_CALL_DEPTH})"
        ]

    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_call_chain_under_the_limit_runs(self, tmp_path, capsys, command):
        # 255 + 256 = 511 levels.
        path = tmp_path / "calls.mim"
        path.write_text(call_chain_program([127, 127]))
        assert main([command[0], str(path), *command[1:]]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("caller_first", [False, True], ids=["callee_first", "caller_first"])
    @pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
    def test_chain_of_more_steps_than_the_recursion_limit(self, tmp_path, capsys, command, caller_first):
        # s{i} nests 2i + 1 levels, so s256 is the first past the limit.
        steps = 1200
        path = tmp_path / "calls.mim"
        path.write_text(call_chain_program([0] * steps, caller_first))
        assert main([command[0], str(path), *command[1:]]) == 1
        line = steps - 256 if caller_first else 257
        assert capsys.readouterr().err.splitlines() == [
            f"{path}:{line}:1: error: expression nested too deeply: the calls from step 's256' nest "
            f"513 levels (at most {MAX_CALL_DEPTH})"
        ]

    def test_chain_just_past_the_limit_is_a_diagnostic(self, tmp_path, capsys):
        # A third step `y = s1 x` adds two levels (the call and its name): 513.
        path = tmp_path / "calls.mim"
        path.write_text(call_chain_program([127, 127, 0]))
        assert main(["check", str(path)]) == 1
        assert "the calls from step 's2' nest 513 levels" in capsys.readouterr().err

    HIGHER_ORDER = [
        ["check"],
        ["run", "--for", "20ms", "--stub", "drop=builtin:print"],
    ]

    @pytest.mark.parametrize("command", HIGHER_ORDER, ids=lambda c: c[0])
    def test_step_value_that_applies_a_step_value_is_a_diagnostic(self, tmp_path, capsys, command):
        # hof1 applies hof2, which applies d1, which calls d0: four 251-level
        # bodies on one stack, though every chain of names stays under 512.
        path = tmp_path / "hof.mim"
        path.write_text(
            higher_order_program(
                "hof1 (hof2, d1, x)",
                "step d0 (x) --> y { y = x{ops} }",
                "step d1 (x) --> y { y = d0 x{ops} }",
                "step hof2 (f, v) --> y { y = f v{ops} }",
                "step hof1 (h, f, v) --> y { y = h (f, v){ops} }",
            )
        )
        assert main([command[0], str(path), *command[1:]]) == 1
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        assert err.splitlines() == [
            f"{path}:3:1: error: step 'hof2' is passed as a value but applies a function value, "
            "itself or through the steps it calls, so the depth of its calls cannot be bounded"
        ]

    def test_step_value_counts_in_the_chain_of_its_applier(self, tmp_path, capsys):
        # hof's 252 levels plus the 503 of d1 -> d0, which it applies.
        path = tmp_path / "hof.mim"
        path.write_text(
            higher_order_program(
                "hof (d1, x)",
                "step d0 (x) --> y { y = x{ops} }",
                "step d1 (x) --> y { y = d0 x{ops} }",
                "step hof (f, v) --> y { y = f v{ops} }",
            )
        )
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"{path}:3:1: error: expression nested too deeply: the calls from step 'hof' nest "
            f"755 levels (at most {MAX_CALL_DEPTH})"
        ]

    @pytest.mark.parametrize("command", HIGHER_ORDER, ids=lambda c: c[0])
    def test_first_order_step_value_runs(self, tmp_path, capsys, command):
        path = tmp_path / "hof.mim"
        path.write_text(
            higher_order_program(
                "hof (d0, x)",
                "step d0 (x) --> y { y = x{ops} }",
                "step hof (f, v) --> y { y = f v{ops} }",
            )
        )
        assert main([command[0], str(path), *command[1:]]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        if command[0] == "run":
            assert out.splitlines() == ["20ms: 250"]


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


class TestInputOutputErrors:
    NOT_UTF8 = b"\xff\xfe\x00bad"

    @pytest.mark.parametrize("command", [["check"], ["fmt"], ["run", "--for", "10ms"]], ids=lambda c: c[0])
    def test_source_that_is_not_utf8(self, tmp_path, capsys, command):
        path = tmp_path / "bad.mim"
        path.write_bytes(self.NOT_UTF8)
        assert main([command[0], str(path), *command[1:]]) == 1
        assert capsys.readouterr().err == f"{path}:1:1: error: file is not UTF-8 text (invalid start byte)\n"

    def test_bad_byte_is_located(self, tmp_path, capsys):
        path = tmp_path / "bad.mim"
        # Columns count characters: the é before the bad byte is two bytes.
        path.write_bytes(b"step f x --> y { y = x }\r\n-- caf\xc3\xa9 \xe9\n")
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err == f"{path}:2:9: error: file is not UTF-8 text (invalid continuation byte)\n"

    def test_stub_file_that_is_not_utf8(self, tmp_path, capsys):
        program = tmp_path / "edge.mim"
        program.write_text(EDGE_NETWORK)
        levels = tmp_path / "levels.txt"
        levels.write_bytes(self.NOT_UTF8)
        assert main(["run", str(program), "--for", "10ms", "--stub", f"pin={levels}"]) == 1
        assert capsys.readouterr().err == f"{levels}:1:1: error: file is not UTF-8 text (invalid start byte)\n"

    def test_unwritable_trace_fails_before_the_run(self, fib_file, tmp_path, capsys):
        trace = tmp_path / "missing" / "fib.csv"
        assert main(["run", fib_file, "--for", "100ms", "--trace", str(trace)]) == 1
        # print_int would print each value of the run.
        assert capsys.readouterr() == ("", f"{trace}: error: cannot write trace: No such file or directory\n")

    def test_trace_with_a_bad_time(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("time_us,channel,value,node\n10000,a,1,n\nx,a,2,n\n")
        assert main(["explain-trace", str(trace)]) == 1
        assert capsys.readouterr().err == (
            f"{trace}:3:1: error: malformed trace row: expected an integer time_us, a channel and a value\n"
        )

    def test_trace_with_a_short_row(self, tmp_path, capsys):
        trace = tmp_path / "short.csv"
        trace.write_text("time_us,channel,value,node\n10000,a,1,n\n20000,a\n")
        assert main(["explain-trace", str(trace)]) == 1
        assert capsys.readouterr().err == (
            f"{trace}:3:1: error: malformed trace row: expected an integer time_us, a channel and a value\n"
        )


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

    @pytest.mark.parametrize(
        "text",
        ["", FIB_SOURCE, "time,chan,val,node\n10000,a,1,n\n", "time_us,channel,node\n10000,a,n\n"],
        ids=["empty", "program", "other columns", "no value column"],
    )
    def test_a_file_that_is_not_a_trace(self, tmp_path, capsys, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert main(["explain-trace", str(path)]) == 1
        message = "not a trace: the header must name the columns time_us, channel and value"
        assert capsys.readouterr() == ("", f"{path}:1:1: error: {message}\n")

    def test_a_run_without_writes_has_no_channel_events(self, fib_file, tmp_path, capsys):
        # The first write of the Fibonacci network is tagged 10ms.
        trace = tmp_path / "fib.csv"
        assert main(["run", fib_file, "--for", "5ms", "--trace", str(trace)]) == 0
        assert trace.read_text() == "time_us,channel,value,node\n"
        assert main(["explain-trace", str(trace)]) == 0
        assert capsys.readouterr() == ("no channel events\n", "")


class TestTraceFile:
    FIB = Path(__file__).resolve().parent.parent / "programs" / "fib.mim"

    def test_verbose_idle_writes_the_librarys_idle_rows(self, tmp_path, capsys):
        path = tmp_path / "fib.csv"
        assert main(["run", str(self.FIB), "--for", "60ms", "--verbose-idle", "--trace", str(path)]) == 0
        text = path.read_text()
        assert any(row.endswith(",idle,split") for row in text.splitlines())
        checked = check_program(parse_program(self.FIB.read_text()))
        library = run(checked, SimConfig(horizon_us=60_000), builtin_hosts())
        assert text == library.render_csv(include_idle=True)

    def test_without_verbose_idle_there_are_no_idle_rows(self, tmp_path, capsys):
        path = tmp_path / "fib.csv"
        assert main(["run", str(self.FIB), "--for", "60ms", "--trace", str(path)]) == 0
        rows = path.read_text().splitlines()
        assert len(rows) > 1 and not any(",idle," in row for row in rows)

    # Checks cleanly, fails at run time: the first firing divides by zero.
    DIVIDE = (
        "step divide (x : int) --> (y : int) { y = x / 0 }\n"
        "step g (v : int) --> (w : int) { w = v }\n"
        "channel a : int = { 1 }\n"
        "channel b : int\n"
        "node n implements divide (a) --> (b) every 10ms\n"
        "node m implements g (b) --> (a) every 10ms\n"
    )

    def run_divide(self, tmp_path, capsys, trace):
        program = tmp_path / "div.mim"
        program.write_text(self.DIVIDE)
        assert main(["run", str(program), "--for", "30ms", "--trace", str(trace)]) == 1
        assert capsys.readouterr() == ("", f"{program}:5:1: error: node 'n' failed at 0s: division by zero\n")

    def test_a_failed_run_keeps_the_previous_trace(self, tmp_path, capsys):
        trace = tmp_path / "div.csv"
        assert main(["run", str(self.FIB), "--for", "60ms", "--trace", str(trace)]) == 0
        before = trace.read_bytes()
        capsys.readouterr()
        self.run_divide(tmp_path, capsys, trace)
        assert trace.read_bytes() == before and len(before) > len("time_us,channel,value,node\n")

    def test_a_failed_run_makes_no_trace_file(self, tmp_path, capsys):
        trace = tmp_path / "div.csv"
        self.run_divide(tmp_path, capsys, trace)
        assert not trace.exists()

    def test_a_directory_is_not_written_and_fails_before_the_run(self, tmp_path, capsys):
        trace = tmp_path / "dir.csv"
        trace.mkdir()
        assert main(["run", str(self.FIB), "--for", "60ms", "--trace", str(trace)]) == 1
        # print_int would print each value of the run.
        assert capsys.readouterr() == ("", f"{trace}: error: cannot write trace: Is a directory\n")
        assert trace.is_dir() and not any(trace.iterdir())


class TestClosedOutput:
    """A reader that stops early (`mimosa … | head -1`) ends the command
    quietly: exit 1 and nothing on stderr, where a traceback used to be."""

    SRC = str(Path(__file__).resolve().parent.parent / "src")

    def first_line_then_close(self, argv: list[str]) -> tuple[bytes, int, bytes]:
        env = {**os.environ, "PYTHONPATH": self.SRC}
        proc = subprocess.Popen(
            [sys.executable, "-m", "mimosa", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        return line, proc.wait(timeout=60), err

    def test_run_into_a_closed_pipe(self, fib_file):
        # 2,000 printed Fibonacci numbers are far more than a pipe buffer holds.
        line, status, err = self.first_line_then_close(["run", fib_file, "--for", "20000ms"])
        assert line == b"10ms: 0\n"
        assert (status, err) == (1, b"")

    def test_run_into_a_pipe_closed_in_process(self, fib_file, capsys, monkeypatch):
        # The same in this process, so the handler's own lines run here.
        read_end, write_end = os.pipe()
        out = open(write_end, "w")
        monkeypatch.setattr(sys, "stdout", out)
        lines = []

        def first_line_then_close():
            with open(read_end, "rb") as reader:
                lines.append(reader.readline())

        reader = threading.Thread(target=first_line_then_close)
        reader.start()
        status = main(["run", fib_file, "--for", "100s"])
        reader.join()
        out.close()
        assert (lines, status, capsys.readouterr().err) == ([b"10ms: 0\n"], 1, "")

    def test_explain_trace_into_a_closed_pipe(self, fib_file, tmp_path, capsys):
        trace = tmp_path / "fib.csv"
        assert main(["run", fib_file, "--for", "20000ms", "--trace", str(trace)]) == 0
        capsys.readouterr()
        line, status, err = self.first_line_then_close(["explain-trace", str(trace)])
        assert line.startswith(b"a: 1000 events, first 0@10ms")
        assert (status, err) == (1, b"")
