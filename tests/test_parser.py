import random

import pytest
from hypothesis import given, strategies as st

from exprgen import TOP_TYPES, gen_expr
from mimosa import ParseError, parse_duration, parse_expression, parse_program
from mimosa.ast import (
    Apply,
    Arrow,
    Const,
    Either,
    If,
    NoneLit,
    Pre,
    Some,
    Tuple,
    UNIT_LIT,
    Var,
    VConst,
)
from mimosa.parser import tokenize
from mimosa.pretty import format_duration, pretty_expr, pretty_program
from mimosa.types import BOOL, TOption


class TestExamplePrograms:
    def test_fibonacci_example(self, fib_program):
        p = fib_program
        assert [s.name for s in p.steps] == ["print_int", "add", "split"]
        assert p.step("print_int").is_prototype
        assert not p.step("add").is_prototype
        assert [c.name for c in p.channels] == ["a", "b", "c", "d"]
        assert p.channel("a").initial == (VConst(1),)
        assert p.channel("b").initial == (VConst(0),)
        assert p.channel("c").initial == ()
        assert [n.name for n in p.nodes] == ["add", "split", "print"]
        assert all(n.period_us == 10_000 for n in p.nodes)
        assert [port.channel for port in p.node("split").outputs] == ["a", "d", "c"]

    def test_edge_example(self, edge_program):
        p = edge_program
        step = p.step("edge_detect")
        assert not step.is_prototype
        out = step.out_pattern
        assert out.name == "out" and out.annot == TOption(BOOL)
        assert p.channel("b").elem_type == BOOL
        node = p.node("edge")
        assert node.period_us == 100_000
        assert node.outputs[0].channel == "b" and node.outputs[0].optional
        assert not node.inputs[0].optional

    def test_empty_step_body_rejected(self):
        with pytest.raises(ParseError, match="at least one equation"):
            parse_program("step f x --> y { }")


class TestExpressions:
    def test_arrow_pre(self):
        e = parse_expression("in -> pre in")
        assert e == Arrow(Var("in"), Pre(Var("in")))

    def test_edge_conditional_shape(self):
        e = parse_expression(
            "if !pre_in && in then (Some true) else if pre_in && !in then (Some false) else None"
        )
        assert isinstance(e, If)
        assert e.then == Some(Const(True))
        inner = e.orelse
        assert isinstance(inner, If)
        assert inner.orelse == NoneLit()
        cond = e.cond
        assert cond == Apply(Var("&&"), Tuple((Apply(Var("!"), Var("pre_in")), Var("in"))))

    def test_operator_desugaring(self):
        assert parse_expression("x + y") == Apply(Var("+"), Tuple((Var("x"), Var("y"))))

    def test_precedence_mul_binds_tighter(self):
        assert parse_expression("a + b * c") == parse_expression("a + (b * c)")
        assert parse_expression("a + b * c") != parse_expression("(a + b) * c")

    def test_arrow_is_loosest_and_right_associative(self):
        assert parse_expression("a -> b -> c") == parse_expression("a -> (b -> c)")
        assert parse_expression("1 -> x + y") == parse_expression("1 -> (x + y)")

    def test_fby_between_arrow_and_if(self):
        e = parse_expression("0 -> 1 fby 2")
        assert isinstance(e, Arrow) and e.rest == parse_expression("1 fby 2")

    def test_unary_tighter_than_binary(self):
        assert parse_expression("pre x + y") == parse_expression("(pre x) + y")
        assert parse_expression("!a && b") == parse_expression("(!a) && b")
        assert parse_expression("Some x + y") == parse_expression("(Some x) + y")

    def test_application(self):
        assert parse_expression("split inp") == Apply(Var("split"), Var("inp"))
        assert parse_expression("f (x, y)") == Apply(Var("f"), Tuple((Var("x"), Var("y"))))
        assert parse_expression("f x y") == Apply(Apply(Var("f"), Var("x")), Var("y"))

    def test_either_otherwise(self):
        e = parse_expression("either o otherwise 0")
        assert e == Either(Var("o"), Const(0))

    def test_either_nests_to_the_right(self):
        assert parse_expression("either a otherwise either b otherwise c") == Either(
            Var("a"), Either(Var("b"), Var("c"))
        )

    def test_unit_and_tuples(self):
        assert parse_expression("()") == Const(UNIT_LIT)
        assert parse_expression("(a)") == Var("a")
        assert parse_expression("(a, b)") == Tuple((Var("a"), Var("b")))

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("1 2 }")

    def test_in_is_an_identifier_not_a_keyword(self):
        assert parse_expression("in") == Var("in")


class TestLexer:
    def test_durations(self):
        assert parse_duration("10ms") == 10_000
        assert parse_duration("2s") == 2_000_000
        assert parse_duration("750us") == 750
        with pytest.raises(ParseError):
            parse_duration("10m")
        with pytest.raises(ParseError):
            parse_duration("ms")

    def test_duration_requires_no_space(self):
        with pytest.raises(ParseError):
            parse_duration("10 ms")

    def test_comments_do_not_eat_arrows(self):
        src = "step f x --> y { y = x } -- trailing comment\n-- full line\nchannel a : int"
        p = parse_program(src)
        assert p.step("f") and p.channel("a")

    def test_comment_inside_expression(self):
        p = parse_program("step f x --> y {\n  y = x + 1; -- add one\n}")
        assert p.step("f")

    def test_real_literals(self):
        assert parse_expression("1.5") == Const(1.5)
        with pytest.raises(ParseError):
            parse_expression("1.")

    def test_spans_are_one_based(self):
        toks = tokenize("step f")
        assert toks[0].span.line == 1 and toks[0].span.col == 1
        assert toks[1].span.col == 6

    @pytest.mark.parametrize(
        "source, col, end_col",
        [
            ("x + \u00b2", 5, 5),  # superscript two: a digit to str.isdigit, not to int()
            ("1\u0663", 1, 2),  # Arabic-Indic three: int() would read "13"
            ("9" * 5000, 1, 5000),  # beyond the interpreter's int string limit
            ("1.0e999", 1, 7),  # float() would read inf, which prints as `inf.0`
        ],
        ids=["superscript", "arabic-indic", "5000-digits", "real-overflow"],
    )
    def test_number_literals_use_ascii_digits(self, source, col, end_col):
        with pytest.raises(ParseError) as err:
            parse_expression(source)
        (diag,) = err.value.diagnostics
        assert (diag.span.line, diag.span.col, diag.span.end_col) == (1, col, end_col)

    @given(st.integers(min_value=1, max_value=10**9))
    def test_duration_print_parse_round_trip(self, us):
        assert parse_duration(format_duration(us)) == us


class TestErrors:
    def test_duplicate_top_level_names(self):
        src = "channel a : int\nchannel a : bool"
        with pytest.raises(ParseError, match="duplicate channel name 'a'"):
            parse_program(src)

    def test_recovery_reports_multiple_errors(self):
        src = "step f --> { }\nchannel c :\nnode n implements f () --> () every 10ms"
        with pytest.raises(ParseError) as err:
            parse_program(src)
        assert len(err.value.diagnostics) >= 2

    def test_error_cap_at_ten(self):
        src = "\n".join("step f -->" for _ in range(25))
        with pytest.raises(ParseError) as err:
            parse_program(src)
        assert len(err.value.diagnostics) <= 10

    def test_error_spans_point_into_source(self):
        with pytest.raises(ParseError) as err:
            parse_program("step f x --> y {\n  y = ;\n}")
        diag = err.value.diagnostics[0]
        assert diag.span.line == 2


class TestNesting:
    def test_deep_nesting_is_a_diagnostic(self):
        source = "(" * 200 + "x" + ")" * 200
        for parse in (parse_expression, lambda text: parse_program(f"step f x --> y {{ y = {text} }}")):
            with pytest.raises(ParseError, match="expression nested too deeply") as err:
                parse(source)
            (diag,) = err.value.diagnostics
            assert diag.span.line == 1 and diag.span.end_col == diag.span.col

    def test_moderate_nesting_parses(self):
        assert parse_expression("(" * 40 + "x" + ")" * 40) == Var("x")

    def test_parsing_continues_after_deep_nesting(self):
        deep = "(" * 200 + "x" + ")" * 200
        with pytest.raises(ParseError) as err:
            parse_program(f"step f x --> y {{ y = {deep} }}\nchannel c :\n")
        messages = [d.message for d in err.value.diagnostics]
        assert messages[0] == "expression nested too deeply" and len(messages) == 2


class TestRoundTrip:
    def test_fibonacci_round_trip(self, fib_program):
        assert parse_program(pretty_program(fib_program)) == fib_program

    def test_edge_round_trip(self, edge_program):
        assert parse_program(pretty_program(edge_program)) == edge_program

    def test_fmt_is_idempotent(self, fib_program, edge_program):
        for program in (fib_program, edge_program):
            once = pretty_program(program)
            assert pretty_program(parse_program(once)) == once

    @pytest.mark.parametrize("value", [0.0, 1.5, 2.0, 1e20, 1e-05, 1.25e-300])
    def test_real_literal_round_trip(self, value):
        assert parse_expression(pretty_expr(Const(value))) == Const(value)

    @pytest.mark.parametrize("seed", range(200))
    def test_random_expression_round_trip(self, seed):
        rng = random.Random(seed)
        ty = rng.choice(TOP_TYPES)
        expr = gen_expr(rng, ty, depth=rng.randrange(1, 5), need_init=False)
        printed = pretty_expr(expr)
        reparsed = parse_expression(printed)
        assert expr == reparsed, f"{printed!r} reparsed differently"
        assert pretty_expr(reparsed) == printed
