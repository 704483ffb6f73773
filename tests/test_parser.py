import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from exprgen import TOP_TYPES, base_env, gen_expr
from mimosa import ParseError, eval_expr, parse_duration, parse_expression, parse_program
from mimosa.ast import (
    Apply,
    Arrow,
    Const,
    Either,
    If,
    Pre,
    Some,
    Tuple,
    UNIT_VALUE,
    Var,
    VConst,
    VExtern,
    VNone,
    VSome,
    VTuple,
    nesting,
)
from mimosa.errors import Diagnostic, Span
from mimosa.parser import (
    _TOKEN,
    DURATION_UNITS,
    KEYWORDS,
    MAX_EXPR_DEPTH,
    MAX_TYPE_DEPTH,
    PUNCT,
    Token,
    parse_literal,
    tokenize,
)
from mimosa.pretty import format_duration, pretty_expr, pretty_program
from mimosa.types import BOOL, INT, TOption


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
        assert e.then == Some(Const(VConst(True)))
        inner = e.orelse
        assert isinstance(inner, If)
        assert inner.orelse == Const(VNone())
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
        assert e == Either(Var("o"), Const(VConst(0)))

    def test_either_nests_to_the_right(self):
        assert parse_expression("either a otherwise either b otherwise c") == Either(
            Var("a"), Either(Var("b"), Var("c"))
        )

    def test_unit_and_tuples(self):
        assert parse_expression("()") == Const(UNIT_VALUE)
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
        assert parse_expression("1.5") == Const(VConst(1.5))
        with pytest.raises(ParseError):
            parse_expression("1.")

    def test_spans_match_character_offsets(self):
        # The shipped programs, and printed expressions one per line, each
        # followed by a comment.
        rng = random.Random(5)
        generated = "".join(
            f"{pretty_expr(gen_expr(rng, rng.choice(TOP_TYPES), 3, False))}  -- expression {k}\n"
            for k in range(200)
        )
        programs = sorted((Path(__file__).parent.parent / "programs").glob("*.mim"))
        assert programs
        for source in [path.read_text() for path in programs] + [generated]:
            tokens = tokenize(source)
            trivia = ("newline", "space", "comment")
            starts = [m.start() for m in _TOKEN.finditer(source) if m.lastgroup not in trivia]
            assert len(tokens) == len(starts) + 1
            for token, start in zip(tokens, starts + [len(source)]):
                assert source[start : start + len(token.text)] == token.text
                line = source.count("\n", 0, start) + 1
                col = start - source.rfind("\n", 0, start)
                assert token.span == Span(line, col, line, col + max(len(token.text), 1) - 1)

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


# The tokenizer as it was with one regex match per token class, spaces
# included: the oracle for the one-match-per-token tokenizer.
REFERENCE_TOKEN = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<space>[^\S\n]+)"
    r"|(?P<comment>--(?!>)[^\n]*)"
    r"|(?P<number>(?P<digits>[0-9]+(?P<fraction>\.[0-9]+(?:[eE][+-]?[0-9]+)?)?)(?P<unit>\w*))"
    r"|(?P<word>\w+)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in sorted(PUNCT, key=len, reverse=True)) + r")"
    r"|(?P<error>.)"
)


def reference_tokenize(source: str, file: str = "<string>", line: int = 1) -> list[Token]:
    tokens: list[Token] = []
    line_start = 0
    for m in REFERENCE_TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "space" and kind != "comment":
            start, end = m.span()
            col = start - line_start + 1
            span = Span(line, col, line, col + end - start - 1)
            if kind == "punct":
                tokens.append(Token("punct", m.group(), span))
                continue
            try:
                tokens.append(reference_token(m, span))
            except ValueError as exc:
                raise ParseError([Diagnostic(str(exc), span, file=file)]) from None
    col = len(source) - line_start + 1
    tokens.append(Token("eof", "", Span(line, col, line, col)))
    return tokens


def reference_token(m: re.Match, span: Span) -> Token:
    kind, text, unit = m.lastgroup, m.group(), m["unit"]
    if kind == "word" and (text[0].isalpha() or text[0] == "_"):
        return Token("kw" if text in KEYWORDS else "punct" if text == "_" else "ident", text, span)
    if kind == "error":
        raise ValueError(f"unexpected character {text!r}")
    if kind == "word" or (unit and not unit.isalpha()):
        raise ValueError(f"malformed number '{text}'")
    if m["fraction"]:
        if unit:
            raise ValueError("durations take integer values")
        if math.isinf(value := float(text)):
            raise ValueError(f"real literal '{text}' is out of range")
        return Token("real", text, span, value)
    if unit and unit not in DURATION_UNITS:
        raise ValueError(f"unknown duration unit '{unit}' (use us, ms, or s)")
    try:
        value = int(m["digits"])
    except ValueError:
        raise ValueError(f"integer literal has too many digits ({len(m['digits'])})") from None
    if unit:
        return Token("duration", text, span, value * DURATION_UNITS[unit])
    return Token("int", text, span, value)


def token_outcome(tokenizer, source: str, line: int = 1):
    """The tokens, as plain tuples, or the diagnostics as (text, span)."""
    try:
        return [tuple(t) for t in tokenizer(source, "f.mim", line)]
    except ParseError as exc:
        return [(d.text(), d.span) for d in exc.diagnostics]


TOKEN_EDGE_CASES = [
    "",
    "   ",
    "x   ",
    "1\u0663",
    "12ab",
    "1.5ms",
    "3xs",
    "x --> y",
    "x -- comment",
    "x --comment\ny",
    "x -->y --> z",
    "x\ty",
    "\tx",
    "x\r\ny\r\n",
    "x = 1 -- trailing comment with no newline",
    "-- only a comment",
    "   $",
    "x\n    \u00a7",
    "x \x0c y \u2003 z",
    "step f x --> y { y = 0 fby pre x }",
    "12 1.5 3e 2.5e3 1e400 4.0e999 10us 3s 7ms 0ms",
    "_ _x x_ \u00e9t\u00e9 true None Some",
    "1" * 5000,
]


class TestTokenizerOracle:
    """The tokenizer against the one-match-per-class reference: the same
    tokens (kind, text, span and value), or the same diagnostic and span."""

    @pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "programs").glob("*.mim")))
    def test_shipped_programs(self, path):
        source = path.read_text()
        assert token_outcome(tokenize, source) == token_outcome(reference_tokenize, source)

    def test_printed_expressions(self):
        rng = random.Random(13)
        for k in range(300):
            ty = rng.choice(TOP_TYPES)
            source = pretty_expr(gen_expr(rng, ty, rng.randrange(1, 6), False))
            if k % 3 == 0:  # also as a line of a larger text, with a comment and indentation
                source = f"  {source}  -- expression {k}\n\t{source}\n"
            assert token_outcome(tokenize, source) == token_outcome(reference_tokenize, source)

    @pytest.mark.parametrize("source", TOKEN_EDGE_CASES)
    def test_edge_cases(self, source):
        assert token_outcome(tokenize, source) == token_outcome(reference_tokenize, source)
        assert token_outcome(tokenize, source, line=7) == token_outcome(reference_tokenize, source, line=7)

    def test_edge_case_diagnostics(self):
        # A few outcomes pinned outright, so the oracle cannot drift with the tokenizer.
        assert token_outcome(tokenize, "1\u0663") == [("f.mim:1:1: error: malformed number '1\u0663'", Span(1, 1, 1, 2))]
        assert token_outcome(tokenize, "3xs") == [
            ("f.mim:1:1: error: unknown duration unit 'xs' (use us, ms, or s)", Span(1, 1, 1, 3))
        ]
        assert token_outcome(tokenize, "   $") == [("f.mim:1:4: error: unexpected character '$'", Span(1, 4, 1, 4))]
        assert [t.text for t in tokenize("x --> y -- z")] == ["x", "-->", "y", ""]

    def test_tokens_are_named_tuples(self):
        token = tokenize("x")[0]
        assert type(token) is Token
        assert (token.kind, token.text, token.span, token.value) == ("ident", "x", Span(1, 1, 1, 1), None)
        assert token == Token("ident", "x", Span(1, 1, 1, 1))


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

    def test_recovery_keeps_the_declaration_after_the_last_token_read(self):
        # The period error is raised after `0ms`, the node's last token.
        src = "step f () --> ()\nnode n implements f () --> () every 0ms\nchannel b :\n"
        with pytest.raises(ParseError) as err:
            parse_program(src)
        assert [(d.message, d.span.line) for d in err.value.diagnostics] == [
            ("periods must be positive", 2),
            ("expected a type, found 'end of input'", 4),
        ]

    @pytest.mark.parametrize("src", ["step", "step step", "node node channel", "channel step node", "foo step"])
    def test_recovery_at_a_declaration_keyword_terminates(self, src):
        with pytest.raises(ParseError) as err:
            parse_program(src)
        # One diagnostic per keyword at most: each failing declaration reads a token.
        assert 1 <= len(err.value.diagnostics) <= len(src.split())

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

    def test_expression_depth_limit(self):
        # k prefix operators nest k applications above the operand.
        assert parse_expression("!" * (MAX_EXPR_DEPTH - 1) + "x")
        with pytest.raises(ParseError, match="expression nested too deeply") as err:
            parse_expression("!" * MAX_EXPR_DEPTH + "x")
        assert str(err.value.diagnostics[0].span) == "1:1"

    @pytest.mark.parametrize(
        "text",
        ["x", "()", "x + 1 + 1", "f x y z", "!!pre x", "((x))", "(a, (b, c))", "if a then b else c"]
        + [
            pretty_expr(gen_expr(random.Random(seed), TOP_TYPES[seed % 5], depth=6, need_init=False))
            for seed in range(40)
        ],
    )
    def test_depth_is_at_most_the_token_count(self, text):
        # The parser walks only expressions longer than MAX_EXPR_DEPTH
        # tokens, which relies on this bound.
        tokens = len(tokenize(text)) - 1  # without the end-of-input token
        assert nesting((parse_expression(text),))[0] <= tokens

    @pytest.mark.parametrize("prefix", ["!", "pre ", "Some ", "0 -> "])
    def test_257_levels_is_a_diagnostic(self, prefix):
        # 256 levels parse and 257 do not, alone or as a step's right-hand side.
        for parse in (parse_expression, lambda text: parse_program(f"step f x --> y {{ y = {text} }}")):
            assert parse(prefix * (MAX_EXPR_DEPTH - 1) + "x")
            with pytest.raises(ParseError, match="expression nested too deeply"):
                parse(prefix * MAX_EXPR_DEPTH + "x")

    def test_moderate_nesting_parses(self):
        assert parse_expression("(" * 40 + "x" + ")" * 40) == Var("x")

    def test_parsing_continues_after_deep_nesting(self):
        deep = "(" * 200 + "x" + ")" * 200
        with pytest.raises(ParseError) as err:
            parse_program(f"step f x --> y {{ y = {deep} }}\nchannel c :\n")
        messages = [d.message for d in err.value.diagnostics]
        assert messages[0] == "expression nested too deeply" and len(messages) == 2


class TestTypeAndLiteralDepth:
    @staticmethod
    def option_type(depth: int) -> str:
        return "int" + "?" * (depth - 1)

    @staticmethod
    def tuple_type(depth: int) -> str:
        return "(int, " * (depth - 1) + "int" + ")" * (depth - 1)

    def test_types_at_the_limit_parse(self):
        program = parse_program(
            f"channel a : {self.option_type(MAX_TYPE_DEPTH)}\nchannel b : {self.tuple_type(MAX_TYPE_DEPTH)}"
        )
        a, b = (channel.elem_type for channel in program.channels)
        for _ in range(MAX_TYPE_DEPTH - 1):
            a, b = a.elem, b.items[1]
        assert a == b == INT

    @pytest.mark.parametrize(
        "shape, depth",
        [("option", MAX_TYPE_DEPTH + 1), ("option", 3000), ("tuple", MAX_TYPE_DEPTH + 1), ("tuple", 3000), ("parens", 3000)],
    )
    def test_deep_type_is_a_diagnostic(self, shape, depth):
        # Parentheses that group one type add no level, but 3000 of them
        # overflow the parser's stack; the diagnostic is the same.
        ty = {
            "option": self.option_type(depth),
            "tuple": self.tuple_type(depth),
            "parens": "(" * depth + "int, int" + ")" * depth,
        }[shape]
        for source in (f"channel a : {ty} = {{ 1 }}", f"step f (x : {ty}) --> ()"):
            with pytest.raises(ParseError) as err:
                parse_program(source + "\nchannel b :\n")
            first, second = err.value.diagnostics
            assert (first.message, str(first.span)) == ("type nested too deeply", f"1:{source.index(ty) + 1}")
            assert second.message == "expected a type, found 'end of input'"

    def test_literals_at_the_limit_parse(self):
        some = parse_literal("Some " * (MAX_TYPE_DEPTH - 1) + "1")
        pair = parse_literal("(1, " * (MAX_TYPE_DEPTH - 1) + "1" + ")" * (MAX_TYPE_DEPTH - 1))
        for _ in range(MAX_TYPE_DEPTH - 1):
            some, pair = some.value, pair.items[1]
        assert some == pair == VConst(1)

    @pytest.mark.parametrize("depth", [MAX_TYPE_DEPTH + 1, 3000])
    @pytest.mark.parametrize("shape", ["option", "tuple"])
    def test_deep_literal_is_a_diagnostic(self, shape, depth):
        if shape == "option":
            value = "Some " * (depth - 1) + "1"
        else:
            value = "(1, " * (depth - 1) + "1" + ")" * (depth - 1)
        with pytest.raises(ParseError, match="literal value nested too deeply") as err:
            parse_literal(value, "values.txt", 4)
        assert str(err.value.diagnostics[0].span) == "4:1"
        with pytest.raises(ParseError, match="literal value nested too deeply") as err:
            parse_program(f"channel a : int = {{ 1, {value} }}")
        assert str(err.value.diagnostics[0].span) == "1:24"


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
        assert parse_expression(pretty_expr(Const(VConst(value)))) == Const(VConst(value))

    @pytest.mark.parametrize(
        "value, text",
        [(VSome(VConst(1)), "f (Some 1)"), (VSome(VTuple((VConst(2), VNone()))), "f (Some (2, None))")],
    )
    def test_some_literal_argument_round_trip(self, value, text):
        # A firing applies the node's step to its argument as one literal.
        rewritten = Apply(Var("f"), Const(value))
        printed = pretty_expr(rewritten)
        assert printed == text
        reparsed = parse_expression(printed)
        assert pretty_expr(reparsed) == printed
        env = {"f": VExtern("f", lambda v, _host: v)}
        assert eval_expr(env, reparsed).value == eval_expr(env, rewritten).value == value

    def test_negative_pre_value_reparses(self):
        # After one cycle `pre x` holds x's value as a literal, here negative.
        rewritten = eval_expr({"x": VConst(-3)}, parse_expression("pre x")).next
        printed = pretty_expr(rewritten)
        assert printed == "-3 -> pre x"
        assert parse_expression(printed) == rewritten
        assert pretty_expr(parse_expression(printed)) == printed

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("f (-3)", Apply(Var("f"), Const(VConst(-3)))),
            ("-2.5", Const(VConst(-2.5))),
            ("x - -3", Apply(Var("-"), Tuple((Var("x"), Const(VConst(-3)))))),
            ("-3 * x", Apply(Var("*"), Tuple((Const(VConst(-3)), Var("x"))))),
            ("Some -1", Some(Const(VConst(-1)))),
            ("(-1, -2)", Tuple((Const(VConst(-1)), Const(VConst(-2))))),
        ],
    )
    def test_negative_literal_round_trip(self, text, expected):
        assert parse_expression(text) == expected
        assert pretty_expr(expected) == text

    @pytest.mark.parametrize("text", ["x -3", "f -3"])
    def test_minus_after_an_operand_is_subtraction(self, text):
        assert parse_expression(text) == Apply(Var("-"), Tuple((Var(text[0]), Const(VConst(3)))))

    def test_minus_before_a_name_is_not_a_literal(self):
        with pytest.raises(ParseError, match="expected an expression, found '-'"):
            parse_expression("-x")

    @pytest.mark.parametrize("seed", range(200))
    def test_random_next_expression_round_trip(self, seed):
        # Next expressions hold any value as a literal; all but ⊥ print as text
        # that parses back to an expression printing the same. Negative
        # numbers in the environment make negative literals common.
        rng = random.Random(seed)
        expr = gen_expr(rng, rng.choice(TOP_TYPES), depth=rng.randrange(1, 5), need_init=False)
        env = base_env() | {"i1": VConst(-3), "r1": VConst(-2.5)}
        for _ in range(4):
            expr = eval_expr(env, expr).next
            printed = pretty_expr(expr)
            if "⊥" not in printed:
                assert pretty_expr(parse_expression(printed)) == printed

    @pytest.mark.parametrize("seed", range(200))
    def test_random_expression_round_trip(self, seed):
        rng = random.Random(seed)
        ty = rng.choice(TOP_TYPES)
        expr = gen_expr(rng, ty, depth=rng.randrange(1, 5), need_init=False)
        printed = pretty_expr(expr)
        reparsed = parse_expression(printed)
        assert expr == reparsed, f"{printed!r} reparsed differently"
        assert pretty_expr(reparsed) == printed
