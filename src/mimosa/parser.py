"""Lexer and recursive-descent parser for `.mim` source files.

Grammar reference: docs/grammar.md. An expression is parsed by one precedence
climber over the levels the printer reads too (`pretty.OPERATOR_LEVEL`).
Infix operators desugar to applications of the symbol-named builtins
(`x + y` becomes `+ (x, y)`).

A token is a plain tuple `(kind, text, offset, value, source)`. Positions are
offsets: a leaf node's location is its token and a composite node's its first
and last token. A line and column are computed, from the source's table of
line starts, only when a diagnostic or a runtime message asks for a `span`
(`errors.span_of`). Only `unary_expr` reads a name or number operand in
place, when no argument follows it.
"""

from __future__ import annotations

import gc
import math
import re
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
from .errors import Diagnostic, Loc, ParseError, Source, span_of
from .pretty import ARROW, BINARY, DURATION_UNITS, EITHER, FBY, IF, OPERATOR_LEVEL
from .types import BOOL, INT, REAL, UNIT, TOption, TTuple, Type, _parts as _type_parts

KEYWORDS = set(
    "step channel node implements every if then else pre fby either otherwise Some None true false".split()
)

PUNCT = tuple("--> -> <= >= == != && || ( ) { } , ; : = ? + - * / < > !".split())

# The value of each literal word; values are never mutated, so they are shared.
_WORD_VALUES = {"true": VConst(True), "false": VConst(False), "None": VNone()}

# What an application's argument starts with: these kinds of token, or these words.
_ATOM_KINDS = ("ident", "int", "real")
_ATOM_WORDS = ("(", *_WORD_VALUES)

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

_PUNCT = "|".join(re.escape(p) for p in sorted(PUNCT, key=len, reverse=True))

# The lexer's pattern: a token's spelling and the white space after it, newlines
# included, as one string whose `rstrip` is the spelling. The spelling is a
# comment, a number, a word, punctuation or any other one character, tried in
# that order; punctuation longest first, so `-->` is never read as `-` `->`. A
# number's unit is any run of word characters, so `1٣` and `12ab` are one
# malformed literal rather than a number followed by something else.
_FRACTION = r"\.[0-9]+(?:[eE][+-]?[0-9]+)?"
_SPELLING = re.compile(r"(?:--(?!>)[^\n]*|[0-9]+(?:" + _FRACTION + r")?\w*|\w+|" + _PUNCT + r"|.)\s*")

# A number spelling's digits, fraction and unit.
_NUMBER = re.compile(r"([0-9]+)(" + _FRACTION + r")?(\w*)")

# The kind and value of each spelling of a keyword or punctuation; a comment's
# kind is None.
_SPELLED = {**dict.fromkeys(KEYWORDS, ("kw", None)), **dict.fromkeys((*PUNCT, "_"), ("punct", None))}
_COMMENT = (None, None)


class _Diag(Exception):
    """A syntax error at `loc`; a number the lexer rejects has none until
    `tokenize` gives it its token's."""

    def __init__(self, message: str, loc: Loc | None = None):
        super().__init__(message)
        self.loc = loc


def tokenize(source: str, file: str = "<string>", line: int = 1) -> list[tuple]:
    """Split `source`, whose first line is line `line` of `file`, into tokens:
    tuples (kind, text, offset, value, source), where the kind is kw, ident,
    int, real, duration, punct or eof, and the offset is that of the token's
    first character (the end of input's is just past the last one not blank).
    `errors.span_of` gives a token's line and column, and diagnostics at it
    name `file`. Each distinct spelling is classified once."""
    origin = Source(source, line, file)
    spelled = dict(_SPELLED)
    tokens: list[tuple] = []
    offset = len(source) - len(source.lstrip())  # `lstrip` and `rstrip` strip what `\s` matches
    for match in _SPELLING.findall(source, offset):
        text = match.rstrip()
        entry = spelled.get(text)
        if entry is None:
            entry = spelled[text] = _classify(text, offset, origin)
        if entry is not _COMMENT:
            tokens.append((entry[0], text, offset, entry[1], origin))
        offset += len(match)
    tokens.append(("eof", "", len(source.rstrip()), None, origin))
    return tokens


def _classify(text: str, offset: int, origin: Source) -> tuple[str | None, object]:
    """The kind and value of `text`, a spelling first seen at `offset` that
    is no keyword or punctuation."""
    if text[0].isalpha() or text[0] == "_":
        return "ident", None
    if text.startswith("--"):
        return _COMMENT
    try:
        return _literal(text)
    except _Diag as exc:
        raise ParseError([Diagnostic.at(str(exc), ("error", text, offset, None, origin))]) from None


def _literal(text: str) -> tuple[str, object]:
    """The kind and value of the number spelled `text`, or the error it is."""
    m = _NUMBER.fullmatch(text)
    # Not a number: a character no token accepts, a word that starts with a
    # digit other than 0-9, or a number whose unit is not all letters.
    if m is None or (m[3] and not m[3].isalpha()):
        if not text[0].isalnum():
            raise _Diag(f"unexpected character {text!r}")
        raise _Diag(f"malformed number '{text}'")
    digits, fraction, unit = m.groups()
    if fraction:
        if unit:
            raise _Diag("durations take integer values")
        if math.isinf(value := float(text)):
            raise _Diag(f"real literal '{text}' is out of range")
        return "real", value
    if unit and unit not in DURATION_UNITS:
        raise _Diag(f"unknown duration unit '{unit}' (use us, ms, or s)")
    try:
        value = int(digits)
    except ValueError:  # beyond the interpreter's limit on integer string conversion
        raise _Diag(f"integer literal has too many digits ({len(digits)})") from None
    if unit:
        return "duration", value * DURATION_UNITS[unit]
    return "int", value


def parse_duration(text: str) -> int:
    """Parse a standalone duration literal like '200ms' into microseconds."""
    toks = tokenize(text)
    if len(toks) != 2 or toks[0][0] != "duration":
        raise ParseError(f"expected a duration like 10ms, got {text!r}")
    us = toks[0][3]
    assert isinstance(us, int)
    if us <= 0:
        raise ParseError("durations must be positive")
    return us


_T = TypeVar("_T")

_BASE_TYPES = {"int": INT, "bool": BOOL, "real": REAL, "unit": UNIT}


class Parser:
    MAX_ERRORS = 10

    def __init__(self, tokens: list[tuple]):
        self.tokens = tokens
        self.pos = 0
        self.diags: list[Diagnostic] = []

    # -- token helpers ------------------------------------------------------

    def peek(self) -> tuple:
        return self.tokens[self.pos]

    def at(self, text: str) -> bool:
        """Whether the next token is the keyword or punctuation `text`: no
        other kind of token can spell one."""
        return self.tokens[self.pos][1] == text

    def advance(self) -> tuple:
        t = self.tokens[self.pos]
        if t[0] != "eof":
            self.pos += 1
        return t

    def expect(self, text: str) -> tuple:
        t = self.tokens[self.pos]
        if t[1] == text:
            self.pos += 1
            return t
        raise _Diag(f"expected '{text}', found '{t[1]}'" if t[1] else f"expected '{text}'", t)

    def expect_ident(self, what: str) -> tuple:
        t = self.tokens[self.pos]
        if t[0] == "ident":
            self.pos += 1
            return t
        raise _Diag(f"expected {what}, found '{t[1] or 'end of input'}'", t)

    def comma_list(self, item: Callable[[], _T]) -> list[_T]:
        """One or more `item`s separated by commas."""
        items = [item()]
        while self.tokens[self.pos][1] == ",":
            self.pos += 1
            items.append(item())
        return items

    def loc_from(self, start: tuple) -> Loc:
        """The location of a node from token `start` to the last token read:
        the token itself if it is the only one."""
        end = self.tokens[self.pos - 1 if self.pos else 0]
        return start if end is start else (start, end)

    # -- program ------------------------------------------------------------

    def parse_program(self) -> Program:
        steps: list[StepDecl] = []
        channels: list[ChannelDecl] = []
        nodes: list[NodeDecl] = []
        while (t := self.tokens[self.pos])[0] != "eof":
            start = self.pos
            try:
                if t[1] == "node":
                    nodes.append(self.node_decl())
                elif t[1] == "channel":
                    channels.append(self.channel_decl())
                elif t[1] == "step":
                    steps.append(self.step_decl())
                else:
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

    def diagnostic(self, exc: _Diag | RecursionError) -> Diagnostic:
        """A syntax error, or a stack overflow reported at the current token."""
        if isinstance(exc, RecursionError):
            exc = _Diag("expression nested too deeply", self.peek())
        return Diagnostic.at(str(exc), exc.loc)

    def recover(self, start: int):
        """Skip to the next top-level declaration keyword after the one that
        failed at token `start`. The failing token itself is skipped only if
        nothing past `start` was read, so parsing always progresses, and a
        declaration right after the last token read is still parsed. Inside a
        `{` that the failing declaration left open, a keyword is a misplaced
        word of the body, unless it starts a line."""
        if self.pos == start:
            self.advance()
        depth = sum((t[1] == "{") - (t[1] == "}") for t in self.tokens[start : self.pos])
        while (t := self.tokens[self.pos])[0] != "eof":
            if t[1] in ("step", "channel", "node") and (
                depth <= 0 or span_of(self.tokens[self.pos - 1]).end_line < span_of(t).line
            ):
                return
            depth += (t[1] == "{") - (t[1] == "}")
            self.pos += 1

    def check_duplicates(self, steps, channels, nodes):
        for kind, decls in (("step", steps), ("channel", channels), ("node", nodes)):
            seen: dict[str, object] = {}
            for d in decls:
                if d.name in seen:
                    self.diags.append(Diagnostic.at(f"duplicate {kind} name '{d.name}'", d.loc))
                seen[d.name] = d

    def step_decl(self) -> StepDecl:
        start = self.expect("step")
        name = self.expect_ident("step name")[1]
        in_pat = self.signature_pattern()
        self.expect("-->")
        out_pat = self.signature_pattern()
        equations: tuple[Equation, ...] | None = None
        if self.tokens[self.pos][1] == "{":
            equations = self.step_body()
        return StepDecl(name, in_pat, out_pat, equations, self.loc_from(start))

    def step_body(self) -> tuple[Equation, ...]:
        open_tok = self.expect("{")
        if self.tokens[self.pos][1] == "}":
            raise _Diag("step body must contain at least one equation", open_tok)
        eqs = [self.equation()]
        tokens = self.tokens
        while tokens[self.pos][1] == ";":
            self.pos += 1
            if tokens[self.pos][1] == "}":
                break
            eqs.append(self.equation())
        self.expect("}")
        return tuple(eqs)

    def equation(self) -> Equation:
        start = self.tokens[self.pos]
        if start[0] == "ident" and self.tokens[self.pos + 1][1] == "=":
            self.pos += 2
            lhs = PVar(start[1], None, start)
        else:
            lhs = self.lhs_pattern()
            self.expect("=")
        rhs = self.expression()
        return Equation(lhs, rhs, self.loc_from(start))

    def lhs_pattern(self) -> Pattern:
        start = self.tokens[self.pos]
        items = self.comma_list(self.lhs_atom)
        if len(items) == 1:
            return items[0]
        return self.build_tuple_pattern(items, self.loc_from(start))

    def lhs_atom(self) -> Pattern:
        return self.pattern(lambda: [self.lhs_pattern()], "a pattern")

    def pattern(self, inside: Callable[[], list[Pattern]], what: str) -> Pattern:
        """A name, `_`, `()`, or the patterns `inside` reads between
        parentheses: one stands for itself, more are a tuple spanning the
        parentheses. `what` names the pattern when none starts here."""
        t = self.tokens[self.pos]
        if t[0] == "ident":
            self.pos += 1
            return PVar(t[1], None, t)
        if t[1] == "_":
            self.pos += 1
            return PWild(None, t)
        if t[1] == "(":
            self.pos += 1
            if self.tokens[self.pos][1] == ")":
                self.pos += 1
                return PUnit(self.loc_from(t))
            items = inside()
            self.expect(")")
            return items[0] if len(items) == 1 else self.build_tuple_pattern(items, self.loc_from(t))
        raise _Diag(f"expected {what}, found '{t[1] or 'end of input'}'", t)

    def build_tuple_pattern(self, items: list[Pattern], loc: Loc) -> Pattern:
        try:
            return PTuple(tuple(items), loc)
        except ValueError as exc:
            raise _Diag(str(exc), loc) from None

    def signature_pattern(self) -> Pattern:
        return self.pattern(lambda: self.comma_list(self.signature_entry), "a parameter pattern")

    def signature_entry(self) -> Pattern:
        pat = self.signature_pattern()
        colon = self.tokens[self.pos]
        if colon[1] == ":":
            self.pos += 1
            annot = self.type_expr()
            match pat:
                case PVar(name):
                    return PVar(name, annot, pat.loc)
                case PWild():
                    return PWild(annot, pat.loc)
                case _:
                    raise _Diag("type annotations attach to variables or '_' only", colon)
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
            raise _Diag(f"{what} nested too deeply", self.loc_from(self.tokens[start]))
        return result

    def type_expr(self) -> Type:
        return self.bounded(self.type_term, _type_parts, "type")

    def type_term(self) -> Type:
        tokens = self.tokens
        t = tokens[self.pos]
        if t[0] == "ident":
            ty = _BASE_TYPES.get(t[1])
            if ty is None:
                raise _Diag(f"unknown type '{t[1]}'", t)
            self.pos += 1
        elif t[1] == "(":
            self.pos += 1
            items = self.comma_list(self.type_term)
            self.expect(")")
            ty = items[0] if len(items) == 1 else TTuple(tuple(items))
        else:
            raise _Diag(f"expected a type, found '{t[1] or 'end of input'}'", t)
        while tokens[self.pos][1] == "?":
            self.pos += 1
            ty = TOption(ty)
        return ty

    def channel_decl(self) -> ChannelDecl:
        start = self.expect("channel")
        name = self.expect_ident("channel name")[1]
        self.expect(":")
        ty = self.type_expr()
        initial: tuple[Value, ...] = ()
        if self.tokens[self.pos][1] == "=":
            self.pos += 1
            self.expect("{")
            initial = tuple(self.comma_list(self.literal_value))
            self.expect("}")
        return ChannelDecl(name, ty, initial, self.loc_from(start))

    def literal_value(self) -> Value:
        return self.bounded(self.literal_term, _value_parts, "literal value")

    def negative_number(self) -> VConst:
        """`-` and the int or real token after it, as one literal."""
        self.pos += 1
        num = self.tokens[self.pos]
        if num[0] not in ("int", "real"):
            raise _Diag("expected a number after '-'", num)
        self.pos += 1
        return VConst(-num[3])

    def literal_term(self) -> Value:
        t = self.tokens[self.pos]
        if t[1] == "-":
            return self.negative_number()
        if t[0] in ("int", "real"):
            self.pos += 1
            return VConst(t[3])
        if t[1] in _WORD_VALUES:
            self.pos += 1
            return _WORD_VALUES[t[1]]
        if t[1] == "Some":
            self.pos += 1
            return VSome(self.literal_term())
        if t[1] == "(":
            self.pos += 1
            if self.tokens[self.pos][1] == ")":
                self.pos += 1
                return ast.UNIT_VALUE
            items = self.comma_list(self.literal_term)
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return VTuple(tuple(items))
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
        t = self.tokens[self.pos]
        if t[0] != "duration":
            raise _Diag(f"expected a period like 10ms, found '{t[1] or 'end of input'}'", t)
        self.pos += 1
        if t[3] <= 0:
            raise _Diag("periods must be positive", t)
        return NodeDecl(name, step, inputs, outputs, t[3], (start, t))

    def port_list(self) -> tuple[PortRef, ...]:
        self.expect("(")
        if self.tokens[self.pos][1] == ")":
            self.pos += 1
            return ()
        ports = self.comma_list(self.port)
        self.expect(")")
        return tuple(ports)

    def port(self) -> PortRef:
        t = self.expect_ident("channel name")
        after = self.tokens[self.pos]
        if after[1] == "?":
            self.pos += 1
            return PortRef(t[1], True, (t, after))
        return PortRef(t[1], False, t)

    # -- expressions ---------------------------------------------------------

    def expression(self) -> Expr:
        """A complete expression whose tree is at most MAX_EXPR_DEPTH deep."""
        start = self.pos
        e = self.expr_list()
        # A tree is never deeper than its token count: short expressions skip the walk.
        if self.pos - start > MAX_EXPR_DEPTH and nesting((e,)).depth > MAX_EXPR_DEPTH:
            raise _Diag("expression nested too deeply", self.loc_from(self.tokens[start]))
        return e

    def expr_list(self) -> Expr:
        """One or more comma-separated expressions; several build a tuple."""
        start = self.tokens[self.pos]
        items = [self.binary_expr()]
        while self.tokens[self.pos][1] == ",":
            self.pos += 1
            items.append(self.binary_expr())
        if len(items) == 1:
            return items[0]
        return Tuple(tuple(items), self.loc_from(start))

    # The climber below, like the declaration and pattern rules above, reads
    # `self.tokens[self.pos]` itself rather than through `at` and `peek`: it
    # runs several tests per token. A keyword, punctuation or identifier test
    # that passes is never at the end-of-input token, so it advances with
    # `self.pos += 1`. It passes a node its location as a positional
    # argument: CPython 3.11 specializes only calls without keywords, and
    # `loc=` made the descent about a sixth slower.

    def binary_expr(self, min_level: int = ARROW) -> Expr:
        """An expression of level `min_level` or tighter, by precedence
        climbing over the printer's levels. `either` and `if` start an operand
        only where their level is allowed; `->` and `fby` join to the right
        and every other operator to the left."""
        tokens = self.tokens
        start = tokens[self.pos]
        if start[1] == "either" and min_level <= EITHER:
            self.pos += 1
            scrutinee = self.binary_expr(EITHER)
            self.expect("otherwise")
            left = Either(scrutinee, self.binary_expr(EITHER), self.loc_from(start))
        elif start[1] == "if" and min_level <= IF:
            self.pos += 1
            cond = self.binary_expr(BINARY)
            self.expect("then")
            then = self.binary_expr(IF)
            self.expect("else")
            left = If(cond, then, self.binary_expr(IF), self.loc_from(start))
        else:
            left = self.unary_expr()
        while (level := OPERATOR_LEVEL.get((op := tokens[self.pos])[1], -1)) >= min_level:
            self.pos += 1
            if level < BINARY:
                right = self.binary_expr(level)
                left = (Fby if level == FBY else Arrow)(left, right, (start, tokens[self.pos - 1]))
            else:
                right = self.binary_expr(level + 1)
                loc = (start, tokens[self.pos - 1])
                left = Apply(Var(op[1], op), Tuple((left, right), loc), loc)
        return left

    def unary_expr(self) -> Expr:
        tokens = self.tokens
        start = tokens[self.pos]
        if start[0] in _ATOM_KINDS:
            # A name or number that no argument follows, read in place.
            after = tokens[self.pos + 1]
            if after[0] in _ATOM_KINDS or after[1] in _ATOM_WORDS:
                return self.app_expr()
            self.pos += 1
            return _leaf(start)
        text = start[1]
        if text == "!":
            self.pos += 1
            operand = self.unary_expr()
            return Apply(Var("!", start), operand, self.loc_from(start))
        if text == "pre":
            self.pos += 1
            return Pre(self.unary_expr(), self.loc_from(start))
        if text == "Some":
            self.pos += 1
            return Some(self.unary_expr(), self.loc_from(start))
        if text == "-" and tokens[self.pos + 1][0] in ("int", "real"):
            return Const(self.negative_number(), self.loc_from(start))
        return self.app_expr()

    def app_expr(self) -> Expr:
        tokens = self.tokens
        start = tokens[self.pos]
        e = self.atom()
        while (t := tokens[self.pos])[0] in _ATOM_KINDS or t[1] in _ATOM_WORDS:
            arg = self.atom()
            e = Apply(e, arg, self.loc_from(start))
        return e

    def atom(self) -> Expr:
        t = self.tokens[self.pos]
        kind, text = t[0], t[1]
        if kind in _ATOM_KINDS:
            self.pos += 1
            return _leaf(t)
        if text == "(":
            self.pos += 1
            if self.tokens[self.pos][1] == ")":
                self.pos += 1
                return Const(ast.UNIT_VALUE, self.loc_from(t))
            inner = self.expr_list()
            self.expect(")")
            return inner
        if text in _WORD_VALUES:
            self.pos += 1
            return Const(_WORD_VALUES[text], t)
        if kind == "duration":
            raise _Diag("durations only appear in node declarations", t)
        raise _Diag(f"expected an expression, found '{text or 'end of input'}'", t)


def _leaf(t: tuple) -> Expr:
    """The name or number token `t` as an expression."""
    return Var(t[1], t) if t[0] == "ident" else Const(VConst(t[3]), t)


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
    """Parse `source`, the text of `file`. Tokens and trees hold no cycles, so
    the cyclic collector is paused meanwhile, process-wide: another thread's
    allocations go uncollected too. The caller's state is restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return Parser(tokenize(source, file)).parse_program()
    finally:
        if enabled:
            gc.enable()


def parse_expression(source: str, file: str = "<string>") -> Expr:
    return _parse_all(tokenize(source, file), Parser.expression)


def parse_literal(source: str, file: str = "<literal>", line: int = 1) -> Value:
    """Parse one literal value, as allowed in channel initial-value lists;
    `source` is line `line` of `file`."""
    return _parse_all(tokenize(source, file, line), Parser.literal_value)


def _parse_all(tokens: list[tuple], rule: Callable[[Parser], _T]) -> _T:
    """Parse `tokens` as exactly one `rule`."""
    parser = Parser(tokens)
    try:
        result = rule(parser)
        if (t := parser.tokens[parser.pos])[0] != "eof":
            raise _Diag(f"unexpected trailing input '{t[1]}'", t)
    except (_Diag, RecursionError) as exc:
        raise ParseError([parser.diagnostic(exc)]) from None
    return result
