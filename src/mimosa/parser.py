"""Lexer and recursive-descent parser for `.mim` source files.

Grammar reference: docs/grammar.md. Infix operators desugar to applications
of the symbol-named builtins (`x + y` becomes `+ (x, y)`).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Callable, TypeVar

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
    NoneLit,
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
)
from .builtins import BINARY_LEVELS
from .errors import Diagnostic, ParseError, Span
from .types import BOOL, INT, REAL, UNIT, TOption, TTuple, Type

KEYWORDS = set(
    "step channel node implements every if then else pre fby either otherwise Some None true false".split()
)

PUNCT = tuple("--> -> <= >= == != && || ( ) { } , ; : = ? + - * / < > !".split())

DURATION_UNITS = {"us": 1, "ms": 1_000, "s": 1_000_000}

_BINARY_LEVEL = {op: level for level, ops in enumerate(BINARY_LEVELS) for op in ops}

# One alternative per token class, tried in order; punctuation longest first,
# so `-->` is never read as `-` `->`, and the catch-all `error` matches any
# character no other alternative accepts. A number's unit is any run of word
# characters, so `1٣` and `12ab` are one malformed literal rather than a
# number followed by something else.
_TOKEN = re.compile(
    r"(?P<newline>\n)"
    r"|(?P<space>[^\S\n]+)"
    r"|(?P<comment>--(?!>)[^\n]*)"
    r"|(?P<number>(?P<digits>[0-9]+(?P<fraction>\.[0-9]+(?:[eE][+-]?[0-9]+)?)?)(?P<unit>\w*))"
    r"|(?P<word>\w+)"
    r"|(?P<punct>" + "|".join(re.escape(p) for p in sorted(PUNCT, key=len, reverse=True)) + r")"
    r"|(?P<error>.)"
)


@dataclass(frozen=True)
class Token:
    kind: str  # kw | ident | int | real | duration | punct | eof
    text: str
    span: Span
    value: object = None


class _Diag(Exception):
    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.span = span


def tokenize(source: str, file: str = "<string>") -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind != "space" and kind != "comment":
            col = m.start() - line_start + 1
            span = Span(line, col, line, col + m.end() - m.start() - 1)
            try:
                tokens.append(_token(m, span))
            except _Diag as exc:
                raise ParseError([Diagnostic(str(exc), exc.span, file=file)]) from None
    col = len(source) - line_start + 1
    tokens.append(Token("eof", "", Span(line, col, line, col)))
    return tokens


def _token(m: re.Match, span: Span) -> Token:
    kind, text, unit = m.lastgroup, m.group(), m["unit"]
    if kind == "punct":
        return Token("punct", text, span)
    if kind == "word" and (text[0].isalpha() or text[0] == "_"):
        return Token("kw" if text in KEYWORDS else "punct" if text == "_" else "ident", text, span)
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

    def prev(self) -> Token:
        return self.tokens[max(self.pos - 1, 0)]

    def at(self, text: str) -> bool:
        t = self.peek()
        return t.kind in ("punct", "kw") and t.text == text

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
        end = self.prev().span
        return Span(start.span.line, start.span.col, end.end_line, end.end_col)

    # -- program ------------------------------------------------------------

    def parse_program(self) -> Program:
        steps: list[StepDecl] = []
        channels: list[ChannelDecl] = []
        nodes: list[NodeDecl] = []
        while not self.at_kind("eof"):
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
                self.recover()
        self.check_duplicates(steps, channels, nodes)
        if self.diags:
            raise ParseError(self.diags)
        return Program(tuple(steps), tuple(channels), tuple(nodes))

    def diagnostic(self, exc: _Diag | RecursionError) -> Diagnostic:
        """A syntax error, or a stack overflow reported at the current token."""
        if isinstance(exc, RecursionError):
            exc = _Diag("expression nested too deeply", self.peek().span)
        return Diagnostic(str(exc), exc.span, file=self.file)

    def recover(self):
        """Skip to the next top-level declaration keyword."""
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
        rhs = self.expr_list()
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

    def type_expr(self) -> Type:
        t = self.peek()
        if t.kind == "ident":
            base = {"int": INT, "bool": BOOL, "real": REAL, "unit": UNIT}.get(t.text)
            if base is None:
                raise _Diag(f"unknown type '{t.text}'", t.span)
            self.advance()
            ty = base
        elif self.at("("):
            self.advance()
            items = self.comma_list(self.type_expr)
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
        t = self.peek()
        if self.at("-"):
            self.advance()
            num = self.peek()
            if num.kind == "int":
                self.advance()
                return VConst(-num.value)
            if num.kind == "real":
                self.advance()
                return VConst(-num.value)
            raise _Diag("expected a number after '-'", num.span)
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
            return VSome(self.literal_value())
        if self.at("("):
            self.advance()
            if self.at(")"):
                self.advance()
                return ast.UNIT_VALUE
            items = self.comma_list(self.literal_value)
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

    def expr_list(self) -> Expr:
        """One or more comma-separated expressions; several build a tuple."""
        start = self.peek()
        items = self.comma_list(self.arrow_expr)
        if len(items) == 1:
            return items[0]
        return Tuple(tuple(items), span=self.span_from(start))

    def arrow_expr(self) -> Expr:
        start = self.peek()
        left = self.fby_expr()
        if self.at("->"):
            self.advance()
            right = self.arrow_expr()
            return Arrow(left, right, span=self.span_from(start))
        return left

    def fby_expr(self) -> Expr:
        start = self.peek()
        left = self.either_expr()
        if self.at("fby"):
            self.advance()
            right = self.fby_expr()
            return Fby(left, right, span=self.span_from(start))
        return left

    def either_expr(self) -> Expr:
        start = self.peek()
        if self.at("either"):
            self.advance()
            scrutinee = self.either_expr()
            self.expect("otherwise")
            fallback = self.either_expr()
            return Either(scrutinee, fallback, span=self.span_from(start))
        return self.if_expr()

    def if_expr(self) -> Expr:
        start = self.peek()
        if self.at("if"):
            self.advance()
            cond = self.binary_expr()
            self.expect("then")
            then = self.if_expr()
            self.expect("else")
            orelse = self.if_expr()
            return If(cond, then, orelse, span=self.span_from(start))
        return self.binary_expr()

    def binary_expr(self, min_level: int = 0) -> Expr:
        """Precedence climbing over BINARY_LEVELS; every level is left-associative."""
        start = self.peek()
        left = self.unary_expr()
        while (level := _BINARY_LEVEL.get(self.peek().text, -1)) >= min_level:
            op = self.advance()
            right = self.binary_expr(level + 1)
            span = self.span_from(start)
            left = Apply(Var(op.text, span=op.span), Tuple((left, right), span=span), span=span)
        return left

    def unary_expr(self) -> Expr:
        start = self.peek()
        if self.at("!"):
            op = self.advance()
            operand = self.unary_expr()
            return Apply(Var("!", span=op.span), operand, span=self.span_from(start))
        if self.at("pre"):
            self.advance()
            return Pre(self.unary_expr(), span=self.span_from(start))
        if self.at("Some"):
            self.advance()
            return Some(self.unary_expr(), span=self.span_from(start))
        return self.app_expr()

    def starts_atom(self) -> bool:
        t = self.peek()
        return t.kind in ("int", "real", "ident") or (
            t.kind == "kw" and t.text in ("true", "false", "None")
        ) or self.at("(")

    def app_expr(self) -> Expr:
        start = self.peek()
        e = self.atom()
        while self.starts_atom():
            arg = self.atom()
            e = Apply(e, arg, span=self.span_from(start))
        return e

    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "int" or t.kind == "real":
            self.advance()
            return Const(t.value, span=t.span)
        if self.at("true"):
            self.advance()
            return Const(True, span=t.span)
        if self.at("false"):
            self.advance()
            return Const(False, span=t.span)
        if self.at("None"):
            self.advance()
            return NoneLit(span=t.span)
        if t.kind == "ident":
            self.advance()
            return Var(t.text, span=t.span)
        if self.at("("):
            self.advance()
            if self.at(")"):
                self.advance()
                return Const(ast.UNIT_LIT, span=self.span_from(t))
            inner = self.expr_list()
            self.expect(")")
            return inner
        if t.kind == "duration":
            raise _Diag("durations only appear in node declarations", t.span)
        raise _Diag(f"expected an expression, found '{t.text or 'end of input'}'", t.span)


def parse_program(source: str, file: str = "<string>") -> Program:
    return Parser(tokenize(source, file), file).parse_program()


def parse_expression(source: str, file: str = "<string>") -> Expr:
    return _parse_all(source, file, Parser.expr_list)


def parse_literal(source: str, file: str = "<literal>") -> Value:
    """Parse one literal value, as allowed in channel initial-value lists."""
    return _parse_all(source, file, Parser.literal_value)


def _parse_all(source: str, file: str, rule: Callable[[Parser], _T]) -> _T:
    """Parse `source` as exactly one `rule`."""
    parser = Parser(tokenize(source, file), file)
    try:
        result = rule(parser)
        if not parser.at_kind("eof"):
            t = parser.peek()
            raise _Diag(f"unexpected trailing input '{t.text}'", t.span)
    except (_Diag, RecursionError) as exc:
        raise ParseError([parser.diagnostic(exc)]) from None
    return result
