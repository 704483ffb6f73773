import dataclasses
import math
import random
import re
from functools import partial
from pathlib import Path
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from exprgen import TOP_TYPES, base_env, gen_expr
from mimosa import ParseError, eval_expr, parse_duration, parse_expression, parse_program
from mimosa.ast import (
    Apply,
    Arrow,
    ChannelDecl,
    Const,
    Either,
    Equation,
    Expr,
    Fby,
    If,
    NodeDecl,
    PortRef,
    Program,
    PTuple,
    PUnit,
    PVar,
    PWild,
    Pre,
    Some,
    StepDecl,
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
from mimosa.builtins import BINARY_LEVELS, BINARY_OPS
from mimosa.errors import SYNTHETIC, Diagnostic, Located, Source, Span, span_of
from mimosa.parser import (
    DURATION_UNITS,
    KEYWORDS,
    MAX_EXPR_DEPTH,
    MAX_TYPE_DEPTH,
    PUNCT,
    Parser,
    _Diag,
    parse_literal,
    tokenize,
)
from mimosa.pretty import format_duration, pretty_expr, pretty_pattern, pretty_program
from mimosa.types import BOOL, INT, REAL, UNIT, TOption, TTuple


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
            starts = [m.start() for m in REFERENCE_TOKEN.finditer(source) if m.lastgroup not in trivia]
            # The end of input is just past the last match that is not blank.
            end = max(m.end() for m in REFERENCE_TOKEN.finditer(source) if m.lastgroup not in ("newline", "space"))
            assert len(tokens) == len(starts) + 1
            for token, start in zip(tokens, starts + [end]):
                text = token[1]
                assert token[2] == start and source[start : start + len(text)] == text
                line = source.count("\n", 0, start) + 1
                col = start - source.rfind("\n", 0, start)
                assert span_of(token) == Span(line, col, line, col + max(len(text), 1) - 1)

    def test_spans_are_one_based(self):
        toks = tokenize("step f")
        assert span_of(toks[0]).line == 1 and span_of(toks[0]).col == 1
        assert span_of(toks[1]).col == 6

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
    r"|(?P<comment>--(?!>)(?:[^\n]*\S)?)"  # a comment's trailing blanks are spaces
    r"|(?P<number>(?P<digits>[0-9]+(?P<fraction>\.[0-9]+(?:[eE][+-]?[0-9]+)?)?)(?P<unit>\w*))"
    r"|(?P<word>\w+)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in sorted(PUNCT, key=len, reverse=True)) + r")"
    r"|(?P<error>.)"
)


class RefToken(NamedTuple):
    """A token as the reference tokenizer gives it: with its span."""

    kind: str
    text: str
    span: Span
    value: object = None


def reference_tokenize(source: str, file: str = "<string>", line: int = 1) -> list[RefToken]:
    tokens: list[RefToken] = []
    line_start = 0
    eof = Span(line, 1, line, 1)  # just past the last match that is not blank
    for m in REFERENCE_TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "space":
            start, end = m.span()
            col = start - line_start + 1
            span = Span(line, col, line, col + end - start - 1)
            eof = Span(line, span.end_col + 1, line, span.end_col + 1)
            if kind == "comment":
                continue
            if kind == "punct":
                tokens.append(RefToken("punct", m.group(), span))
                continue
            try:
                tokens.append(reference_token(m, span))
            except ValueError as exc:
                raise ParseError([Diagnostic(str(exc), span, file=file)]) from None
    tokens.append(RefToken("eof", "", eof))
    return tokens


def reference_token(m: re.Match, span: Span) -> RefToken:
    kind, text, unit = m.lastgroup, m.group(), m["unit"]
    if kind == "word" and (text[0].isalpha() or text[0] == "_"):
        return RefToken("kw" if text in KEYWORDS else "punct" if text == "_" else "ident", text, span)
    if kind == "error":
        raise ValueError(f"unexpected character {text!r}")
    if kind == "word" or (unit and not unit.isalpha()):
        raise ValueError(f"malformed number '{text}'")
    if m["fraction"]:
        if unit:
            raise ValueError("durations take integer values")
        if math.isinf(value := float(text)):
            raise ValueError(f"real literal '{text}' is out of range")
        return RefToken("real", text, span, value)
    if unit and unit not in DURATION_UNITS:
        raise ValueError(f"unknown duration unit '{unit}' (use us, ms, or s)")
    try:
        value = int(m["digits"])
    except ValueError:
        raise ValueError(f"integer literal has too many digits ({len(m['digits'])})") from None
    if unit:
        return RefToken("duration", text, span, value * DURATION_UNITS[unit])
    return RefToken("int", text, span, value)


def token_outcome(tokenizer, source: str, line: int = 1):
    """The tokens as (kind, text, span, value), or the diagnostics as (text, span)."""
    try:
        tokens = tokenizer(source, "f.mim", line)
    except ParseError as exc:
        return [(d.text(), d.span) for d in exc.diagnostics]
    # A reference token is already (kind, text, span, value).
    return [t if type(t) is RefToken else (t[0], t[1], span_of(t), t[3]) for t in tokens]


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
    "x + \u00b2",
    "2.5 4.0e999",
    # Blanks of every kind between and after tokens, and comments that end in
    # blanks: a token's spelling is its match with the blanks stripped.
    "x\r\n  -- comment \r\ny = 1\r\n",
    "x\ty\x0bz\x0c1\u00a0two\u2003 3ms",
    "x -- comment ending in blanks \t\ny",
    "x -- comment ending in blanks at the end \u00a0\u2003",
    " \t\x0b\x0c\u00a0\u2003\r\n\n",
    "-- only a comment \t\n\n",
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
        assert [t[1] for t in tokenize("x --> y -- z")] == ["x", "-->", "y", ""]

    def test_tokens_are_plain_tuples(self):
        # (kind, text, offset, value, source), one source for all.
        tokens = tokenize("  x\n 2.5 3ms 12 ")
        source = tokens[0][4]
        assert type(source) is Source and source.text == "  x\n 2.5 3ms 12 "
        assert all(type(t) is tuple and len(t) == 5 and t[4] is source for t in tokens)
        assert [t[:4] for t in tokens] == [
            ("ident", "x", 2, None),
            ("real", "2.5", 5, 2.5),
            ("duration", "3ms", 9, 3000),
            ("int", "12", 13, 12),
            ("eof", "", 15, None),
        ]
        spans = [Span(1, 3, 1, 3), Span(2, 2, 2, 4), Span(2, 6, 2, 8), Span(2, 10, 2, 11), Span(2, 12, 2, 12)]
        assert [span_of(t) for t in tokens] == spans
        # A composite node's location is a pair: its first and last token.
        assert span_of((tokens[0], tokens[3])) == Span(1, 3, 2, 11)


def generated_steps(seed: int, count: int) -> str:
    """Printed expressions as step bodies, one per line, each followed by a comment."""
    rng = random.Random(seed)
    return "".join(
        f"step s{k} () --> y {{\n  y = {pretty_expr(gen_expr(rng, rng.choice(TOP_TYPES), 3, False))}  -- expression {k}\n}}\n"
        for k in range(count)
    )


def gen_leafy_expr(rng: random.Random, depth: int) -> Expr:
    """An expression, not always well typed, whose operands are often a name
    or a number, negative ones included: on either side of every binary
    operator, under `!`, `pre` and `Some`, as an application's argument, and
    right before `->`, `fby`, `then`, `else`, `otherwise`, `)` and `,`."""

    def leaf() -> Expr:
        roll = rng.random()
        if roll < 0.45:
            return Var(rng.choice(("a", "b", "c")))
        if roll < 0.8:
            return Const(VConst(rng.randrange(-20, 100)))
        if roll < 0.9:
            return Const(VConst(rng.choice((0.5, -2.25))))
        return Const(VConst(rng.random() < 0.5))

    def expr(depth: int) -> Expr:
        if depth <= 0 or rng.random() < 0.25:
            return leaf()
        kind = rng.randrange(11)
        if kind < 4:
            return Apply(Var(rng.choice(BINARY_OPS)), Tuple((expr(depth - 1), expr(depth - 1))))
        if kind == 4:
            fn = Var("f") if rng.random() < 0.7 else Apply(Var("f"), expr(depth - 1))
            return Apply(fn, expr(depth - 1))
        if kind == 5:
            return Arrow(expr(depth - 1), expr(depth - 1))
        if kind == 6:
            return Fby(expr(depth - 1), expr(depth - 1))
        if kind == 7:
            return If(expr(depth - 1), expr(depth - 1), expr(depth - 1))
        if kind == 8:
            return Either(expr(depth - 1), expr(depth - 1))
        if kind == 9:
            return Tuple(tuple(expr(depth - 1) for _ in range(rng.randrange(2, 4))))
        wrap = rng.choice((Pre, Some, partial(Apply, Var("!"))))
        return wrap(expr(depth - 1))

    return expr(depth)


def leafy_steps(seed: int, count: int) -> tuple[str, list[list[Expr]]]:
    """Steps whose equations have `gen_leafy_expr` right-hand sides, and those
    right-hand sides. A tuple right-hand side is printed without parentheses,
    and the last equation of a body ends at `;` or at `}`."""
    rng = random.Random(seed)
    steps, trees = [], []
    for k in range(count):
        rhs = [gen_leafy_expr(rng, rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))]
        printed = [", ".join(map(pretty_expr, e.items)) if type(e) is Tuple else pretty_expr(e) for e in rhs]
        body = "; ".join(f"y{i} = {text}" for i, text in enumerate(printed)) + rng.choice(("", ";"))
        steps.append(f"step s{k} () --> y0 {{\n  {body}\n}}\n")
        trees.append(rhs)
    return "".join(steps), trees


STUB_SOURCE = """step f (x : int, _ : bool?) --> (y : int) {
  y = if x > 0 then x - 1 else -2; -- a comment
  (a, _) = (Some x, ())
}
channel c : (int, bool?) = { (1, None), (-2, Some true) }
node n implements f (c, d?) --> (e) every 10ms
"""


# Channel types, each with literal values of it (read in place of its `{}`).
NETWORK_TYPES = {
    "int": lambda rng: str(rng.randrange(-20, 100)),
    "bool": lambda rng: rng.choice(("true", "false")),
    "real": lambda rng: rng.choice(("0.5", "-2.25", "(1.0)")),
    "unit": lambda rng: "()",
    "int?": lambda rng: rng.choice(("None", f"Some {rng.randrange(-9, 9)}", "Some (3)")),
    "(int, bool?)": lambda rng: f"({rng.randrange(-9, 9)}, {rng.choice(('None', 'Some false'))})",
    "((int, real), unit)?": lambda rng: rng.choice(("None", f"Some (({rng.randrange(-5, 5)}, 2.5), ())")),
}

# Step signatures: prototypes, typed and untyped patterns, `_`, `()` and tuples.
NETWORK_SIGNATURES = [
    "() --> (y : int)",
    "(x : int, _ : bool?) --> (y : int)",
    "x --> y { y = x }",
    "(a, (b, _ : unit)) --> (c, d) { c = a; d = b; }",
    "_ --> () { () = () }",
    "(x : (int, bool?)?) --> (y : real, z : unit)",
]


def generated_network(seed: int, count: int, periods: tuple[str, ...] = ("us", "ms", "s")) -> str:
    """`count` of each declaration, shuffled, in every form the grammar has:
    the forms of NETWORK_TYPES and NETWORK_SIGNATURES, initial values, nodes
    with no, one or several ports, optional ones among them, and periods in
    each unit of `periods` (a unit with a zero in front is a zero period).
    Comments stand between declarations and after them on their lines.
    Names need not resolve: only the parser reads it."""
    rng = random.Random(seed)
    decls = []
    for k in range(count):
        decls.append(f"step s{k} {rng.choice(NETWORK_SIGNATURES)}")
        ty = rng.choice(list(NETWORK_TYPES))
        initial = ", ".join(NETWORK_TYPES[ty](rng) for _ in range(rng.randrange(4)))
        decls.append(f"channel c{k} : {ty}" + (f" = {{ {initial} }}" if initial else ""))
        ports = [
            ", ".join(f"c{rng.randrange(count)}" + rng.choice(("", "", "?")) for _ in range(rng.randrange(4)))
            for _ in range(2)
        ]
        unit = rng.choice(periods)
        period = f"{rng.randrange(1, 500)}{unit}" if unit[0] != "0" else unit
        decls.append(f"node n{k} implements s{rng.randrange(count)} ({ports[0]}) --> ({ports[1]}) every {period}")
    rng.shuffle(decls)
    lines = []
    for k, decl in enumerate(decls):
        roll = rng.random()
        if roll < 0.2:
            lines.append(f"-- declaration {k}")
        lines.append(decl + (f"  -- after {k}" if roll > 0.8 else ""))
    return "\n".join(lines) + "\n"


def position_children(node) -> list:
    """The located nodes directly under `node`: in its fields, or in tuples there."""
    children = []
    for f in dataclasses.fields(node):
        if f.name == "loc":
            continue
        value = getattr(node, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Located):
                children.append(item)
    return children


class TestPositionOracle:
    """Every node's resolved span runs from its first token's start to its
    last token's end, and every token's span is its characters, both as the
    reference tokenizer computes them."""

    def check(self, source: str, line: int = 1):
        tokens = tokenize(source, "f.mim", line)
        reference = [t.span for t in reference_tokenize(source, "f.mim", line)]
        assert [span_of(t) for t in tokens] == reference
        for t, span in zip(tokens, reference):
            assert span == Span(span.line, span.col, span.line, span.col + max(len(t[1]), 1) - 1)
        index = {id(t): k for k, t in enumerate(tokens)}
        program = Parser(tokens).parse_program()
        seen = 0
        stack = [(node, 0, len(tokens) - 1) for node in program.steps + program.channels + program.nodes]
        while stack:
            node, lowest, highest = stack.pop()
            loc = node.loc
            first, last = loc if len(loc) == 2 else (loc, loc)
            i, j = index[id(first)], index[id(last)]
            # A node's tokens lie within its parent's.
            assert lowest <= i <= j <= highest
            start, end = reference[i], reference[j]
            assert node.span == Span(start.line, start.col, end.end_line, end.end_col)
            stack.extend((child, i, j) for child in position_children(node))
            seen += 1
        return seen

    @pytest.mark.parametrize("path", sorted((Path(__file__).parent.parent / "programs").glob("*.mim")))
    def test_shipped_programs(self, path):
        assert self.check(path.read_text()) > 40

    def test_generated_steps(self):
        assert self.check(generated_steps(5, 200)) > 2000

    def test_leaf_operands(self):
        source, trees = leafy_steps(11, 300)
        assert self.check(source) > 3000
        program = parse_program(source)
        assert [[eq.rhs for eq in step.equations] for step in program.steps] == trees
        # The source puts a name and a number before every token that ends an
        # operand read in place, and after every binary operator.
        spelled = [t[1] if t[0] in ("kw", "punct") else t[0] for t in tokenize(source)]
        pairs = set(zip(spelled, spelled[1:]))
        ends = ("->", "fby", "then", "else", "otherwise", ")", ",", ";", "}", *BINARY_OPS)
        for leaf in ("ident", "int"):
            assert {(leaf, end) for end in ends} <= pairs
            assert {(op, leaf) for op in BINARY_OPS} <= pairs
        # Negative numbers after an operator, and arguments of an application.
        assert {(op, "-") for op in BINARY_OPS} & pairs
        assert {("ident", "ident"), ("ident", "int"), ("ident", "(")} <= pairs

    def test_generated_network(self):
        source = generated_network(7, 120)
        assert self.check(source) >= 1000
        # Every declaration form is there: tuple, option and unit channel types,
        program = parse_program(source)
        types = {c.elem_type for c in program.channels}
        assert UNIT in types and any(type(t) is TTuple for t in types) and any(type(t) is TOption for t in types)
        # initial values with negative numbers, `Some`, `None`, tuples and `()`,
        initial = [v for c in program.channels for v in c.initial]
        assert any(type(v) is VConst and type(v.value) is int and v.value < 0 for v in initial)
        assert UNIT_VALUE in initial and {VSome, VNone, VTuple} <= set(map(type, initial))
        # optional input and output ports, nodes with several ports,
        assert any(p.optional for n in program.nodes for p in n.inputs)
        assert any(p.optional for n in program.nodes for p in n.outputs)
        assert any(len(n.inputs) > 1 and len(n.outputs) > 1 for n in program.nodes)
        # periods in each unit, and comments between declarations.
        units = {re.search(r" every \d+([a-z]+)", line)[1] for line in source.splitlines() if " every " in line}
        assert units == {"us", "ms", "s"}
        assert "\n-- declaration" in source

    def test_stub_lines(self):
        assert self.check(STUB_SOURCE, line=7) > 30
        (step,) = parse_program(STUB_SOURCE).steps
        assert step.span == Span(1, 1, 4, 1)


class DescentParser(Parser):
    """The expression grammar as a descent with one method per prefix level,
    then precedence climbing over BINARY_LEVELS alone: the oracle for the one
    climber over all levels."""

    BINARY_LEVEL = {op: level for level, ops in enumerate(BINARY_LEVELS) for op in ops}

    def expr_list(self) -> Expr:
        start = self.peek()
        items = self.comma_list(self.arrow_expr)
        return items[0] if len(items) == 1 else Tuple(tuple(items), loc=self.loc_from(start))

    def arrow_expr(self) -> Expr:
        start = self.peek()
        left = self.fby_expr()
        if not self.at("->"):
            return left
        self.advance()
        return Arrow(left, self.arrow_expr(), loc=self.loc_from(start))

    def fby_expr(self) -> Expr:
        start = self.peek()
        left = self.either_expr()
        if not self.at("fby"):
            return left
        self.advance()
        return Fby(left, self.fby_expr(), loc=self.loc_from(start))

    def either_expr(self) -> Expr:
        start = self.peek()
        if not self.at("either"):
            return self.if_expr()
        self.advance()
        scrutinee = self.either_expr()
        self.expect("otherwise")
        return Either(scrutinee, self.either_expr(), loc=self.loc_from(start))

    def if_expr(self) -> Expr:
        start = self.peek()
        if not self.at("if"):
            return self.binary_expr()
        self.advance()
        cond = self.binary_expr()
        self.expect("then")
        then = self.if_expr()
        self.expect("else")
        return If(cond, then, self.if_expr(), loc=self.loc_from(start))

    def binary_expr(self, min_level: int = 0) -> Expr:
        start = self.peek()
        left = self.unary_expr()
        while (level := self.BINARY_LEVEL.get(self.peek()[1], -1)) >= min_level:
            op = self.advance()
            right = self.binary_expr(level + 1)
            loc = self.loc_from(start)
            left = Apply(Var(op[1], loc=op), Tuple((left, right), loc=loc), loc=loc)
        return left


# The tokens of the random strings the two expression parsers are compared on.
ORACLE_ALPHABET = "a b f 1 2 -> fby either otherwise if then else ( ) + * == && ! pre Some - ,".split()


def expression_outcome(source: str):
    """The tree and every node's span, or the diagnostics' text and spans."""
    try:
        tree = parse_expression(source, "f.mim")
    except ParseError as exc:
        return [(d.text(), d.span) for d in exc.diagnostics]
    spans, stack = [], [tree]
    while stack:
        node = stack.pop()
        spans.append(node.span)
        stack.extend(position_children(node))
    return tree, spans


class TestDescentOracle:
    """`parse_expression` gives the same tree and spans, or the same
    diagnostics, as it does with `DescentParser` in the parser's place."""

    def compare(self, monkeypatch, sources: list[str]) -> int:
        climbed = [expression_outcome(source) for source in sources]
        monkeypatch.setattr("mimosa.parser.Parser", DescentParser)
        for source, expected in zip(sources, climbed):
            assert expression_outcome(source) == expected, source
        return sum(type(outcome) is tuple for outcome in climbed)

    def test_random_token_strings(self, monkeypatch):
        rng = random.Random(22)
        sources = [" ".join(rng.choices(ORACLE_ALPHABET, k=rng.randint(1, 14))) for _ in range(4000)]
        assert self.compare(monkeypatch, sources) > 50

    def test_mutated_expressions(self, monkeypatch):
        # Printed expressions with a few tokens of the alphabet inserted or deleted.
        rng = random.Random(23)
        sources = []
        for _ in range(1500):
            printed = pretty_expr(gen_expr(rng, rng.choice(TOP_TYPES), rng.randrange(1, 6), False))
            words = [t[1] for t in tokenize(printed)[:-1]]
            for _ in range(rng.randrange(3)):
                if words and rng.random() < 0.5:
                    del words[rng.randrange(len(words))]
                else:
                    words.insert(rng.randrange(len(words) + 1), rng.choice(ORACLE_ALPHABET))
            sources.append(" ".join(words))
        assert self.compare(monkeypatch, sources) > 300


class HelperDeclarationParser(Parser):
    """The declaration and pattern rules read through the token helpers
    `peek`, `at`, `advance` and `expect`, with locations passed by keyword:
    the oracle for the rules that read tokens in place."""

    def expect(self, text: str) -> tuple:
        if self.at(text):
            return self.advance()
        t = self.peek()
        raise _Diag(f"expected '{text}', found '{t[1]}'" if t[1] else f"expected '{text}'", t)

    def expect_ident(self, what: str) -> tuple:
        if self.peek()[0] == "ident":
            return self.advance()
        t = self.peek()
        raise _Diag(f"expected {what}, found '{t[1] or 'end of input'}'", t)

    def comma_list(self, item):
        items = [item()]
        while self.at(","):
            self.advance()
            items.append(item())
        return items

    def parse_program(self) -> Program:
        steps, channels, nodes = [], [], []
        while self.peek()[0] != "eof":
            start = self.pos
            try:
                if self.at("step"):
                    steps.append(self.step_decl())
                elif self.at("channel"):
                    channels.append(self.channel_decl())
                elif self.at("node"):
                    nodes.append(self.node_decl())
                else:
                    t = self.peek()
                    raise _Diag(f"expected a step, channel, or node declaration, found '{t[1]}'", t)
            except (_Diag, RecursionError) as exc:
                self.diags.append(self.diagnostic(exc))
                if len(self.diags) >= self.MAX_ERRORS:
                    break
                self.recover(start)
        self.check_duplicates(steps, channels, nodes)
        if self.diags:
            raise ParseError(self.diags)
        return Program(tuple(steps), tuple(channels), tuple(nodes))

    def recover(self, start: int):
        if self.pos == start:
            self.advance()
        depth = sum((t[1] == "{") - (t[1] == "}") for t in self.tokens[start : self.pos])
        while self.peek()[0] != "eof":
            t = self.peek()
            if t[1] in ("step", "channel", "node") and (
                depth <= 0 or span_of(self.tokens[self.pos - 1]).end_line < span_of(t).line
            ):
                return
            depth += (t[1] == "{") - (t[1] == "}")
            self.advance()

    def step_decl(self) -> StepDecl:
        start = self.expect("step")
        name = self.expect_ident("step name")[1]
        in_pat = self.signature_pattern()
        self.expect("-->")
        out_pat = self.signature_pattern()
        equations = self.step_body() if self.at("{") else None
        return StepDecl(name, in_pat, out_pat, equations, loc=self.loc_from(start))

    def step_body(self) -> tuple:
        open_tok = self.expect("{")
        if self.at("}"):
            raise _Diag("step body must contain at least one equation", open_tok)
        eqs = [self.equation()]
        while self.at(";"):
            self.advance()
            if self.at("}"):
                break
            eqs.append(self.equation())
        self.expect("}")
        return tuple(eqs)

    def equation(self) -> Equation:
        start = self.peek()
        lhs = self.lhs_pattern()
        self.expect("=")
        return Equation(lhs, self.expression(), loc=self.loc_from(start))

    def lhs_pattern(self):
        start = self.peek()
        items = self.comma_list(self.lhs_atom)
        return items[0] if len(items) == 1 else self.build_tuple_pattern(items, self.loc_from(start))

    def pattern(self, inside, what: str):
        t = self.peek()
        if t[0] == "ident":
            self.advance()
            return PVar(t[1], loc=t)
        if self.at("_"):
            self.advance()
            return PWild(loc=t)
        if self.at("("):
            self.advance()
            if self.at(")"):
                self.advance()
                return PUnit(loc=self.loc_from(t))
            items = inside()
            self.expect(")")
            return items[0] if len(items) == 1 else self.build_tuple_pattern(items, self.loc_from(t))
        raise _Diag(f"expected {what}, found '{t[1] or 'end of input'}'", t)

    def build_tuple_pattern(self, items, loc):
        try:
            return PTuple(tuple(items), loc=loc)
        except ValueError as exc:
            raise _Diag(str(exc), loc) from None

    def signature_entry(self):
        pat = self.signature_pattern()
        if self.at(":"):
            colon = self.advance()
            annot = self.type_expr()
            if type(pat) is PVar:
                return PVar(pat.name, annot, loc=pat.loc)
            if type(pat) is PWild:
                return PWild(annot, loc=pat.loc)
            raise _Diag("type annotations attach to variables or '_' only", colon)
        return pat

    def type_term(self):
        t = self.peek()
        if t[0] == "ident":
            base = {"int": INT, "bool": BOOL, "real": REAL, "unit": UNIT}.get(t[1])
            if base is None:
                raise _Diag(f"unknown type '{t[1]}'", t)
            self.advance()
            ty = base
        elif self.at("("):
            self.advance()
            items = self.comma_list(self.type_term)
            self.expect(")")
            ty = items[0] if len(items) == 1 else TTuple(tuple(items))
        else:
            raise _Diag(f"expected a type, found '{t[1] or 'end of input'}'", t)
        while self.at("?"):
            self.advance()
            ty = TOption(ty)
        return ty

    def channel_decl(self) -> ChannelDecl:
        start = self.expect("channel")
        name = self.expect_ident("channel name")[1]
        self.expect(":")
        ty = self.type_expr()
        initial = ()
        if self.at("="):
            self.advance()
            self.expect("{")
            initial = tuple(self.comma_list(self.literal_value))
            self.expect("}")
        return ChannelDecl(name, ty, initial, loc=self.loc_from(start))

    def negative_number(self):
        self.advance()
        num = self.peek()
        if num[0] not in ("int", "real"):
            raise _Diag("expected a number after '-'", num)
        self.advance()
        return VConst(-num[3])

    def literal_term(self):
        t = self.peek()
        if self.at("-"):
            return self.negative_number()
        if t[0] in ("int", "real"):
            self.advance()
            return VConst(t[3])
        if self.at("true") or self.at("false") or self.at("None"):
            self.advance()
            return {"true": VConst(True), "false": VConst(False), "None": VNone()}[t[1]]
        if self.at("Some"):
            self.advance()
            return VSome(self.literal_term())
        if self.at("("):
            self.advance()
            if self.at(")"):
                self.advance()
                return UNIT_VALUE
            items = self.comma_list(self.literal_term)
            self.expect(")")
            return items[0] if len(items) == 1 else VTuple(tuple(items))
        raise _Diag(f"expected a literal value, found '{t[1] or 'end of input'}'", t)

    def node_decl(self) -> NodeDecl:
        start = self.expect("node")
        name = self.expect_ident("node name")[1]
        self.expect("implements")
        step = self.expect_ident("step name")[1]
        inputs = self.port_list()
        self.expect("-->")
        outputs = self.port_list()
        self.expect("every")
        t = self.peek()
        if t[0] != "duration":
            raise _Diag(f"expected a period like 10ms, found '{t[1] or 'end of input'}'", t)
        self.advance()
        if t[3] <= 0:
            raise _Diag("periods must be positive", t)
        return NodeDecl(name, step, inputs, outputs, t[3], loc=self.loc_from(start))

    def port_list(self) -> tuple:
        self.expect("(")
        if self.at(")"):
            self.advance()
            return ()
        ports = self.comma_list(self.port)
        self.expect(")")
        return tuple(ports)

    def port(self) -> PortRef:
        t = self.expect_ident("channel name")
        optional = False
        if self.at("?"):
            self.advance()
            optional = True
        return PortRef(t[1], optional, loc=self.loc_from(t))


# The tokens of the random strings the two declaration parsers are compared
# on, and runs of them that a declaration has, so that a string gets past
# its first few tokens.
DECLARATION_ALPHABET = (
    "step channel node implements every --> ( ) , ? : = { } - Some None true int bool unit a b f 3 10ms 0ms".split()
)
DECLARATION_PHRASES = [
    *DECLARATION_ALPHABET,
    "node a implements f",
    "( a , b ? )",
    "( )",
    "--> ( b )",
    "every 10ms",
    "every 0ms",
    "channel a :",
    "( int , bool ? )",
    "unit",
    "= { 3 , - 3 }",
    "{ Some ( 3 , None ) }",
    "step f",
    "( a : int , _ )",
    "--> b",
]


def program_outcome(source: str):
    """The program and every node's span, or the diagnostics' text and spans."""
    try:
        program = parse_program(source, "f.mim")
    except ParseError as exc:
        return [(d.text(), d.span) for d in exc.diagnostics]
    spans, stack = [], [*program.steps, *program.channels, *program.nodes]
    while stack:
        node = stack.pop()
        spans.append(node.span)
        stack.extend(position_children(node))
    return program, spans


def mutated_words(rng: random.Random, source: str, alphabet: list[str]) -> str:
    """`source` with a few tokens of `alphabet` inserted or deleted, each line
    kept a line and its tokens spaced; comments are dropped."""
    words = [(span_of(t).line, t[1]) for t in tokenize(source)[:-1]]
    for _ in range(rng.randrange(4)):
        k = rng.randrange(len(words) + 1)
        if words and rng.random() < 0.5:
            del words[min(k, len(words) - 1)]
        else:
            words.insert(k, (words[min(k, len(words) - 1)][0] if words else 1, rng.choice(alphabet)))
    lines: dict[int, list[str]] = {}
    for line, word in words:
        lines.setdefault(line, []).append(word)
    return "\n".join(" ".join(ws) for ws in lines.values())


class TestDeclarationOracle:
    """`parse_program` gives the same program and spans, or the same
    diagnostics, as it does with `HelperDeclarationParser` in the parser's
    place."""

    def compare(self, monkeypatch, sources: list[str]) -> list:
        """Both parsers' outcomes agree on every source; the in-place ones."""
        in_place = [program_outcome(source) for source in sources]
        monkeypatch.setattr("mimosa.parser.Parser", HelperDeclarationParser)
        for source, expected in zip(sources, in_place):
            assert program_outcome(source) == expected, source
        return in_place

    def test_random_token_strings(self, monkeypatch):
        rng = random.Random(33)
        sources = [
            "".join(w + rng.choice("    \n") for w in rng.choices(DECLARATION_PHRASES, k=rng.randint(1, 10)))
            for _ in range(4000)
        ]
        outcomes = self.compare(monkeypatch, sources)
        texts = [text for o in outcomes if type(o) is list for text, _ in o]
        messages = {re.sub("'[^']*'", "'_'", text.split(": error: ")[1]) for text in texts}
        assert len(messages) >= 9, sorted(messages)

    def test_mutated_networks(self, monkeypatch):
        # One network in three may have a zero period.
        rng = random.Random(34)
        units = [("us", "ms", "s", "0ms")[: 3 + (seed % 3 == 0)] for seed in range(1500)]
        networks = [generated_network(seed, 3, units[seed]) for seed in range(1500)]
        sources = [mutated_words(rng, network, DECLARATION_ALPHABET) for network in networks]
        outcomes = self.compare(monkeypatch, sources)
        assert sum(type(o) is tuple for o in outcomes) > 200
        assert sum(type(o) is list and any("periods must be positive" in d for d, _ in o) for o in outcomes) > 100


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
            ("expected a type, found 'end of input'", 3),
        ]

    # A keyword inside the body a failing step left open is a misplaced word,
    # unless it starts a line: then it begins the next declaration.
    RECOVERY_IN_BODY = {
        "keyword as an expression": ("step f () --> (y : int) { y = node }", [("expected an expression, found 'node'", 1)]),
        "missing close brace": (
            "step f (x : int) --> (y : int) {\n    y = x\nnode n implements f (a) --> (b) every 0ms\n",
            [("expected '}', found 'node'", 3), ("periods must be positive", 3)],
        ),
        "keyword mid-line, then one starting a line": (
            "step f () --> (y : int) { y = 1 + step;\n  z = 2 }\n  channel c :\n",
            [("expected an expression, found 'step'", 1), ("expected a type, found 'end of input'", 3)],
        ),
    }

    @pytest.mark.parametrize("case", RECOVERY_IN_BODY)
    def test_recovery_inside_an_open_body(self, case):
        src, expected = self.RECOVERY_IN_BODY[case]
        with pytest.raises(ParseError) as err:
            parse_program(src)
        assert [(d.message, d.span.line) for d in err.value.diagnostics] == expected

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

    # A token, a pair of tokens (the source of the first names the file) and
    # a span, which has no source.
    LOCATIONS = {
        "token": (lambda toks: toks[3], "f.mim:3:4: error: m"),
        "token pair": (lambda toks: (toks[2], toks[4]), "f.mim:3:3: error: m"),
        "synthetic span": (lambda toks: SYNTHETIC, "<string>: error: m"),
    }

    @pytest.mark.parametrize("kind", LOCATIONS)
    def test_diagnostic_at_names_the_file_of_its_location(self, kind):
        locate, expected = self.LOCATIONS[kind]
        tokens = tokenize("step f\n  (x) --> y", "f.mim", line=2)
        assert Diagnostic.at("m", locate(tokens)).text() == expected


def pattern_shape(p):
    """`p` as its kind and span, with its name or its items."""
    s = p.span
    head = (type(p).__name__, (s.line, s.col, s.end_line, s.end_col))
    if type(p) is PTuple:
        return (*head, tuple(pattern_shape(item) for item in p.items))
    if type(p) is PVar:
        return (*head, p.name)
    return head


class TestPatterns:
    """Left-hand sides and signatures share the reading of a name, `_`, `()`
    and a parenthesised pattern; a tuple spans its items on the left and its
    parentheses in a signature."""

    @pytest.mark.parametrize(
        "text, shape",
        [
            ("x", ("PVar", (1, 18, 1, 18), "x")),
            ("_", ("PWild", (1, 18, 1, 18))),
            ("()", ("PUnit", (1, 18, 1, 19))),
            (
                "(a, (b, c))",
                (
                    "PTuple",
                    (1, 19, 1, 27),
                    (
                        ("PVar", (1, 19, 1, 19), "a"),
                        ("PTuple", (1, 23, 1, 26), (("PVar", (1, 23, 1, 23), "b"), ("PVar", (1, 26, 1, 26), "c"))),
                    ),
                ),
            ),
            ("((x))", ("PVar", (1, 20, 1, 20), "x")),
        ],
    )
    def test_left_hand_side(self, text, shape):
        (equation,) = parse_program(f"step f a --> b {{ {text} = 1 }}").steps[0].equations
        assert pattern_shape(equation.lhs) == shape

    @pytest.mark.parametrize(
        "text, shape",
        [
            ("x", ("PVar", (1, 8, 1, 8), "x")),
            ("_", ("PWild", (1, 8, 1, 8))),
            ("()", ("PUnit", (1, 8, 1, 9))),
            (
                "(a, (b, c))",
                (
                    "PTuple",
                    (1, 8, 1, 18),
                    (
                        ("PVar", (1, 9, 1, 9), "a"),
                        ("PTuple", (1, 12, 1, 17), (("PVar", (1, 13, 1, 13), "b"), ("PVar", (1, 16, 1, 16), "c"))),
                    ),
                ),
            ),
            ("((x))", ("PVar", (1, 10, 1, 10), "x")),
        ],
    )
    def test_signature(self, text, shape):
        (step,) = parse_program(f"step f {text} --> y").steps
        assert pattern_shape(step.in_pattern) == shape

    @pytest.mark.parametrize(
        "source, message, span",
        [
            ("step f a --> b { a, = 1 }", "expected a pattern, found '='", Span(1, 21, 1, 21)),
            ("step f --> y", "expected a parameter pattern, found '-->'", Span(1, 8, 1, 10)),
            ("step f (a, a --> y", "expected ')', found '-->'", Span(1, 14, 1, 16)),
            ("step f a --> b { (a, a = 1 }", "duplicate names in pattern: a", Span(1, 19, 1, 22)),
        ],
    )
    def test_errors(self, source, message, span):
        with pytest.raises(ParseError) as info:
            parse_program(source)
        ((got_message, got_span),) = [(d.message, d.span) for d in info.value.diagnostics]
        assert (got_message, got_span) == (message, span)


class TestNesting:
    def test_deep_nesting_is_a_diagnostic(self):
        source = "(" * 1000 + "x" + ")" * 1000
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
        deep = "(" * 1000 + "x" + ")" * 1000
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

    @pytest.mark.parametrize(
        "pattern, text",
        [
            (PVar("x"), "x"),
            (PVar("x", INT), "(x : int)"),
            (PWild(), "_"),
            (PWild(BOOL), "(_ : bool)"),
            (PUnit(), "()"),
            (PTuple((PVar("a", INT), PTuple((PWild(REAL), PVar("b"))), PVar("c"))), "(a : int, (_ : real, b), c)"),
        ],
    )
    def test_signature_pattern_round_trip(self, pattern, text):
        assert pretty_pattern(pattern) == text
        (step,) = parse_program(f"step f {text} --> ()").steps
        assert step.in_pattern == pattern

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
