"""Lexer and recursive-descent parser for `.mim` source files.

Grammar reference: docs/grammar.md. Infix operators desugar to applications
of the symbol-named builtins (`x + y` becomes `+ (x, y)`).
"""

from __future__ import annotations

import math
import re
from functools import partial
from typing import Callable, NamedTuple, TypeVar

from . import ast
from .ast import (
    Arrow,
    Apply,
    ChannelDecl,
    Const,
    Either,
    Equation,
    Expr,
    Fby,
    If,
    NodeDecl,
    Pattern,
    PortRef,
    Pre,
    Program,
    PTuple,
    PUnit,
    PVar,
    PWild,
    Some,
    StepDecl,
    Tuple,
    Var,
    VConst,
    VNone,
    VSome,
    VTuple,
    Value,
    nesting,
)
from .builtins import BINARY_LEVELS
from .errors import Diagnostic, ParseError, Span
from .types import BOOL, INT, REAL, UNIT, TOption, TTuple, Type, _parts as _type_parts

KEYWORDS = set(
    "step channel node implements every if then else pre fby either otherwise Some None true false".split()
)

PUNCT = tuple("--> -> <= >= == != && || ( ) { } , ; : = ? + - * / < > !".split())

DURATION_UNITS = {"us": 1, "ms": 1_000, "s": 1_000_000}

_BINARY_LEVEL = {op: level for level, ops in enumerate(BINARY_LEVELS) for op in ops}

# The deepest expression tree the parser accepts: the checks, the printer and
# the evaluator recurse per level, and all of them run at this depth under the
# interpreter's default recursion limit.
MAX_EXPR_DEPTH = 256

# The deepest type annotation or literal value the parser accepts; a literal
# is as deep as its type. Inference wraps an annotated type in up to
# MAX_EXPR_DEPTH more levels, and a type mismatch prints the whole of it. A
# tuple level costs the printer the most frames: a 64-level tuple type under
# the deepest mix of `Some` and tuple expressions still prints with about 50
# frames to spare inside the test runner, while 96 levels overflow.
MAX_TYPE_DEPTH = 64

# One alternative per token class, tried in order; punctuation longest first,
# so `-->` is never read as `-` `->`, and the catch-all `error` matches any
# character no other alternative accepts. A number's unit is any run of word
# characters, so `1٣` and `12ab` are one malformed literal rather than a
# number followed by something else. Each match takes the spaces after its
# token too, so a match starts where its token does and only spaces at the
# start of the source are a match of their own.
_TOKEN = re.compile(
    r"(?:(?P<newline>\n)"
    r"|(?P<space>[^\S\n]+)"
    r"|(?P<comment>--(?!>)[^\n]*)"
    r"|(?P<number>(?P<digits>[0-9]+(?P<fraction>\.[0-9]+(?:[eE][+-]?[0-9]+)?)?)(?P<unit>\w*))"
    r"|(?P<word>\w+)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in sorted(PUNCT, key=len, reverse=True)) + r")"
    r"|(?P<error>.))[^\S\n]*"
)


class Token(NamedTuple):
    kind: str  # kw | ident | int | real | duration | punct | eof
    text: str
    span: Span
    value: object = None


# Token((kind, text, span, value)) without the named tuple's Python-level __new__.
_new_token = partial(tuple.__new__, Token)


class _Diag(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.span = span


def tokenize(source: str, file: str = "<string>", line: int = 1) -> list[Token]:
    """Split `source`, whose first line is line `line` of `file`, into tokens."""
    tokens: list[Token] = []
    line_start = 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.start() + 1
        elif kind != "space" and kind != "comment":
            text = m[kind]
            col = m.start() - line_start + 1
            span = Span(line, col, line, col + len(text) - 1)
            if kind == "word" and (text[0].isalpha() or text[0] == "_"):
                kind = "kw" if text in KEYWORDS else "punct" if text == "_" else "ident"
            elif kind != "punct":
                try:
                    tokens.append(_literal(m, kind, text, span))
                except _Diag as exc:
                    raise ParseError([Diagnostic(str(exc), exc.span, file=file)]) from None
                continue
            tokens.append(_new_token((kind, text, span, None)))
    col = len(source) - line_start + 1
    tokens.append(Token("eof", "", Span(line, col, line, col)))
    return tokens


def _literal(m: re.Match, kind: str, text: str, span: Span) -> Token:
    """The number token `m` matched, or the error it is."""
    unit = m["unit"]
    if kind == "error":
        raise _Diag(f"unexpected character {text!r}", span)
    # A number, or a word that starts with a digit other than 0-9.
    if kind == "word" or (unit and not unit.isalpha()):
        raise _Diag(f"malformed number '{text}'", span)
    if m["fraction"]:
        if unit:
            raise _Diag("durations take integer values", span)
        if math.isinf(value := float(text)):
            raise _Diag(f"real literal '{text}' is out of range", span)
        return Token("real", text, span, value)
    if unit and unit not in DURATION_UNITS:
        raise _Diag(f"unknown duration unit '{unit}' (use us, ms, or s)", span)
    try:
        value = int(m["digits"])
    except ValueError:  # beyond the interpreter's limit on integer string conversion
        raise _Diag(f"integer literal has too many digits ({len(m['digits'])})", span) from None
    if unit:
        return Token("duration", text, span, value * DURATION_UNITS[unit])
    return Token("int", text, span, value)


def parse_duration(text: str) -> int:
    """Parse a standalone duration literal like '200ms' into microseconds."""
    toks = tokenize(text)
    if len(toks) != 2 or toks[0].kind != "duration":
        raise ParseError(f"expected a duration like 10ms, got {text!r}")
    us = toks[0].value
    assert isinstance(us, int)
    if us <= 0:
        raise ParseError("durations must be positive")
    return us


_T = TypeVar("_T")


class Parser:
    MAX_ERRORS = 10

    def __init__(self, tokens: list[Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.diags: list[Diagnostic] = []

    # -- token helpers ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        """Whether the next token is the keyword or punctuation `text`: no
        other kind of token can spell one."""
        return self.tokens[self.pos].text == text

    def at_kind(self, kind: str) -> bool:
        return self.peek().kind == kind

    def advance(self) -> Token:
        t = self.tokens[self.pos]
        if t.kind != "eof":
            self.pos += 1
        return t

    def expect(self, text: str, what: str | None = None) -> Token:
        if self.at(text):
            return self.advance()
        t = self.peek()
        found = t.text or "end of input"
        wanted = what or f"'{text}'"
        raise _Diag(f"expected {wanted}, found '{found}'" if t.text else f"expected {wanted}", t.span)

    def expect_ident(self, what: str) -> Token:
        if self.at_kind("ident"):
            return self.advance()
        t = self.peek()
        raise _Diag(f"expected {what}, found '{t.text or 'end of input'}'", t.span)

    def comma_list(self, item: Callable[[], _T]) -> list[_T]:
        """One or more `item`s separated by commas."""
        items = [item()]
        while self.at(","):
            self.advance()
            items.append(item())
        return items

    def span_from(self, start: Token) -> Span:
        end = self.tokens[self.pos - 1 if self.pos else 0].span
        return Span(start.span.line, start.span.col, end.end_line, end.end_col)

    # -- program ------------------------------------------------------------

    def parse_program(self) -> Program:
        steps: list[StepDecl] = []
        channels: list[ChannelDecl] = []
        nodes: list[NodeDecl] = []
        while not self.at_kind("eof"):
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
                    raise _Diag(f"expected a step, channel, or node declaration, found '{t.text}'", t.span)
            except (_Diag, RecursionError) as exc:
                self.diags.append(self.diagnostic(exc))
                if len(self.diags) >= self.MAX_ERRORS:
                    break
                self.recover(start)
        self.check_duplicates(steps, channels, nodes)
        if self.diags:
            raise ParseError(self.diags)
        return Program(tuple(steps), tuple(channels), tuple(nodes))

    def diagnostic(self, exc: _Diag | RecursionError) -> Diagnostic:
        """A syntax error, or a stack overflow reported at the current token."""
        if isinstance(exc, RecursionError):
            exc = _Diag("expression nested too deeply", self.peek().span)
        return Diagnostic(str(exc), exc.span, file=self.file)

    def recover(self, start: int):
        """Skip to the next top-level declaration keyword after the one that
        failed at token `start`. The failing token itself is skipped only if
        nothing past `start` was read, so parsing always progresses, and a
        declaration right after the last token read is still parsed."""
        if self.pos == start:
            self.advance()
        while not self.at_kind("eof") and not (self.at("step") or self.at("channel") or self.at("node")):
            self.advance()

    def check_duplicates(self, steps, channels, nodes):
        for kind, decls in (("step", steps), ("channel", channels), ("node", nodes)):
            seen: dict[str, object] = {}
            for d in decls:
                if d.name in seen:
                    self.diags.append(
                        Diagnostic(f"duplicate {kind} name '{d.name}'", d.span, file=self.file)
                    )
                seen[d.name] = d

    def step_decl(self) -> StepDecl:
        start = self.expect("step")
        name = self.expect_ident("step name").text
        in_pat = self.signature_pattern()
        self.expect("-->")
        out_pat = self.signature_pattern()
        equations: tuple[Equation, ...] | None = None
        if self.at("{"):
            equations = self.step_body()
        return StepDecl(name, in_pat, out_pat, equations, span=self.span_from(start))

    def step_body(self) -> tuple[Equation, ...]:
        open_tok = self.expect("{")
        if self.at("}"):
            raise _Diag("step body must contain at least one equation", open_tok.span)
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
        rhs = self.expression()
        return Equation(lhs, rhs, span=self.span_from(start))

    def lhs_pattern(self) -> Pattern:
        start = self.peek()
        items = self.comma_list(self.lhs_atom)
        if len(items) == 1:
            return items[0]
        return self.build_tuple_pattern(items, self.span_from(start))

    def lhs_atom(self) -> Pattern:
        t = self.peek()
        if t.kind == "ident":
            self.advance()
            return PVar(t.text, span=t.span)
        if self.at("_"):
            self.advance()
            return PWild(span=t.span)
        if self.at("("):
            self.advance()
            if self.at(")"):
                self.advance()
                return PUnit(span=self.span_from(t))
            inner = self.lhs_pattern()
            self.expect(")")
            return inner
        raise _Diag(f"expected a pattern, found '{t.text or 'end of input'}'", t.span)

    def build_tuple_pattern(self, items: list[Pattern], span: Span) -> Pattern:
        try:
            return PTuple(tuple(items), span=span)
        except ValueError as exc:
            raise _Diag(str(exc), span) from None

    def signature_pattern(self) -> Pattern:
        t = self.peek()
        if t.kind == "ident":
            self.advance()
            return PVar(t.text, span=t.span)
        if self.at("_"):
            self.advance()
            return PWild(span=t.span)
        if self.at("("):
            self.advance()
            if self.at(")"):
                self.advance()
                return PUnit(span=self.span_from(t))
            items = self.comma_list(self.signature_entry)
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return self.build_tuple_pattern(items, self.span_from(t))
        raise _Diag(f"expected a parameter pattern, found '{t.text or 'end of input'}'", t.span)

    def signature_entry(self) -> Pattern:
        pat = self.signature_pattern()
        if self.at(":"):
            colon = self.advance()
            annot = self.type_expr()
            match pat:
                case PVar(name):
                    return PVar(name, annot, span=pat.span)
                case PWild():
                    return PWild(annot, span=pat.span)
                case _:
                    raise _Diag("type annotations attach to variables or '_' only", colon.span)
        return pat

    def bounded(self, rule: Callable[[], _T], parts: Callable, what: str) -> _T:
        """`rule`'s result, if it nests at most MAX_TYPE_DEPTH levels."""
        start = self.pos
        try:
            result = rule()
            # Every level takes a token at least, so short results skip the walk.
            deep = self.pos - start > MAX_TYPE_DEPTH and _depth(result, parts) > MAX_TYPE_DEPTH
        except RecursionError:
            deep = True
        if deep:
            raise _Diag(f"{what} nested too deeply", self.span_from(self.tokens[start]))
        return result

    def type_expr(self) -> Type:
        return self.bounded(self.type_term, _type_parts, "type")

    def type_term(self) -> Type:
        t = self.peek()
        if t.kind == "ident":
            base = {"int": INT, "bool": BOOL, "real": REAL, "unit": UNIT}.get(t.text)
            if base is None:
                raise _Diag(f"unknown type '{t.text}'", t.span)
            self.advance()
            ty = base
        elif self.at("("):
            self.advance()
            items = self.comma_list(self.type_term)
            self.expect(")")
            ty = items[0] if len(items) == 1 else TTuple(tuple(items))
        else:
            raise _Diag(f"expected a type, found '{t.text or 'end of input'}'", t.span)
        while self.at("?"):
            self.advance()
            ty = TOption(ty)
        return ty

    def channel_decl(self) -> ChannelDecl:
        start = self.expect("channel")
        name = self.expect_ident("channel name").text
        self.expect(":")
        ty = self.type_expr()
        initial: tuple[Value, ...] = ()
        if self.at("="):
            self.advance()
            self.expect("{")
            initial = tuple(self.comma_list(self.literal_value))
            self.expect("}")
        return ChannelDecl(name, ty, initial, span=self.span_from(start))

    def literal_value(self) -> Value:
        return self.bounded(self.literal_term, _value_parts, "literal value")

    def negative_number(self) -> VConst:
        """`-` and the int or real token after it, as one literal."""
        self.advance()
        num = self.peek()
        if num.kind not in ("int", "real"):
            raise _Diag("expected a number after '-'", num.span)
        self.advance()
        return VConst(-num.value)

    def literal_term(self) -> Value:
        t = self.peek()
        if self.at("-"):
            return self.negative_number()
        if t.kind in ("int", "real"):
            self.advance()
            return VConst(t.value)
        if self.at("true"):
            self.advance()
            return VConst(True)
        if self.at("false"):
            self.advance()
            return VConst(False)
        if self.at("None"):
            self.advance()
            return VNone()
        if self.at("Some"):
            self.advance()
            return VSome(self.literal_term())
        if self.at("("):
            self.advance()
            if self.at(")"):
                self.advance()
                return ast.UNIT_VALUE
            items = self.comma_list(self.literal_term)
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return VTuple(tuple(items))
        raise _Diag(f"expected a literal value, found '{t.text or 'end of input'}'", t.span)

    def node_decl(self) -> NodeDecl:
        start = self.expect("node")
        name = self.expect_ident("node name").text
        self.expect("implements")
        step = self.expect_ident("step name").text
        inputs = self.port_list()
        self.expect("-->")
        outputs = self.port_list()
        self.expect("every")
        t = self.peek()
        if t.kind != "duration":
            raise _Diag(f"expected a period like 10ms, found '{t.text or 'end of input'}'", t.span)
        self.advance()
        period = t.value
        assert isinstance(period, int)
        if period <= 0:
            raise _Diag("periods must be positive", t.span)
        return NodeDecl(name, step, inputs, outputs, period, span=self.span_from(start))

    def port_list(self) -> tuple[PortRef, ...]:
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
        return PortRef(t.text, optional, span=self.span_from(t))

    # -- expressions ---------------------------------------------------------

    def expression(self) -> Expr:
        """A complete expression whose tree is at most MAX_EXPR_DEPTH deep."""
        start = self.pos
        e = self.expr_list()
        # A tree is never deeper than its token count: short expressions skip the walk.
        if self.pos - start > MAX_EXPR_DEPTH and nesting((e,)).depth > MAX_EXPR_DEPTH:
            raise _Diag("expression nested too deeply", self.span_from(self.tokens[start]))
        return e

    def expr_list(self) -> Expr:
        """One or more comma-separated expressions; several build a tuple."""
        start = self.peek()
        items = self.comma_list(self.arrow_expr)
        if len(items) == 1:
            return items[0]
        return Tuple(tuple(items), span=self.span_from(start))

    # The descent below reads `self.tokens[self.pos]` itself rather than
    # through `at` and `peek`: it runs several tests per token. A keyword or
    # punctuation test that passes is never at the end-of-input token, so it
    # advances with `self.pos += 1`.

    def arrow_expr(self) -> Expr:
        start = self.tokens[self.pos]
        left = self.fby_expr()
        if self.tokens[self.pos].text == "->":
            self.pos += 1
            right = self.arrow_expr()
            return Arrow(left, right, span=self.span_from(start))
        return left

    def fby_expr(self) -> Expr:
        start = self.tokens[self.pos]
        left = self.either_expr()
        if self.tokens[self.pos].text == "fby":
            self.pos += 1
            right = self.fby_expr()
            return Fby(left, right, span=self.span_from(start))
        return left

    def either_expr(self) -> Expr:
        start = self.tokens[self.pos]
        if start.text == "either":
            self.pos += 1
            scrutinee = self.either_expr()
            self.expect("otherwise")
            fallback = self.either_expr()
            return Either(scrutinee, fallback, span=self.span_from(start))
        return self.if_expr()

    def if_expr(self) -> Expr:
        start = self.tokens[self.pos]
        if start.text == "if":
            self.pos += 1
            cond = self.binary_expr()
            self.expect("then")
            then = self.if_expr()
            self.expect("else")
            orelse = self.if_expr()
            return If(cond, then, orelse, span=self.span_from(start))
        return self.binary_expr()

    def binary_expr(self, min_level: int = 0) -> Expr:
        """Precedence climbing over BINARY_LEVELS; every level is left-associative."""
        tokens = self.tokens
        start = tokens[self.pos]
        left = self.unary_expr()
        while (level := _BINARY_LEVEL.get((op := tokens[self.pos]).text, -1)) >= min_level:
            self.pos += 1
            right = self.binary_expr(level + 1)
            span = self.span_from(start)
            left = Apply(Var(op.text, span=op.span), Tuple((left, right), span=span), span=span)
        return left

    def unary_expr(self) -> Expr:
        start = self.tokens[self.pos]
        text = start.text
        if text == "!":
            self.pos += 1
            operand = self.unary_expr()
            return Apply(Var("!", span=start.span), operand, span=self.span_from(start))
        if text == "pre":
            self.pos += 1
            return Pre(self.unary_expr(), span=self.span_from(start))
        if text == "Some":
            self.pos += 1
            return Some(self.unary_expr(), span=self.span_from(start))
        if text == "-" and self.tokens[self.pos + 1].kind in ("int", "real"):
            return Const(self.negative_number(), span=self.span_from(start))
        return self.app_expr()

    def starts_atom(self) -> bool:
        t = self.tokens[self.pos]
        kind = t.kind
        return kind == "ident" or kind == "int" or kind == "real" or t.text in ("(", "true", "false", "None")

    def app_expr(self) -> Expr:
        start = self.tokens[self.pos]
        e = self.atom()
        while self.starts_atom():
            arg = self.atom()
            e = Apply(e, arg, span=self.span_from(start))
        return e

    def atom(self) -> Expr:
        t = self.tokens[self.pos]
        kind = t.kind
        if kind == "ident":
            self.pos += 1
            return Var(t.text, span=t.span)
        if kind == "int" or kind == "real":
            self.pos += 1
            return Const(VConst(t.value), span=t.span)
        text = t.text
        if text == "(":
            self.pos += 1
            if self.tokens[self.pos].text == ")":
                self.pos += 1
                return Const(ast.UNIT_VALUE, span=self.span_from(t))
            inner = self.expr_list()
            self.expect(")")
            return inner
        if text == "true" or text == "false":
            self.pos += 1
            return Const(VConst(text == "true"), span=t.span)
        if text == "None":
            self.pos += 1
            return Const(VNone(), span=t.span)
        if kind == "duration":
            raise _Diag("durations only appear in node declarations", t.span)
        raise _Diag(f"expected an expression, found '{text or 'end of input'}'", t.span)


def _value_parts(v: Value) -> tuple[Value, ...]:
    return v.items if type(v) is VTuple else (v.value,) if type(v) is VSome else ()


def _depth(root, parts: Callable) -> int:
    """How many levels `root` nests, 1 for a leaf, walked with an explicit stack."""
    deepest = 0
    stack = [(root, 1)]
    while stack:
        node, depth = stack.pop()
        deepest = max(deepest, depth)
        stack.extend((part, depth + 1) for part in parts(node))
    return deepest


def parse_program(source: str, file: str = "<string>") -> Program:
    return Parser(tokenize(source, file), file).parse_program()


def parse_expression(source: str, file: str = "<string>") -> Expr:
    return _parse_all(source, file, Parser.expression)


def parse_literal(source: str, file: str = "<literal>", line: int = 1) -> Value:
    """Parse one literal value, as allowed in channel initial-value lists;
    `source` is line `line` of `file`."""
    return _parse_all(source, file, Parser.literal_value, line)


def _parse_all(source: str, file: str, rule: Callable[[Parser], _T], line: int = 1) -> _T:
    """Parse `source` as exactly one `rule`."""
    parser = Parser(tokenize(source, file, line), file)
    try:
        result = rule(parser)
        if not parser.at_kind("eof"):
            t = parser.peek()
            raise _Diag(f"unexpected trailing input '{t.text}'", t.span)
    except (_Diag, RecursionError) as exc:
        raise ParseError([parser.diagnostic(exc)]) from None
    return result
