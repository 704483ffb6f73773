"""Canonical concrete-syntax printing for programs, expressions, and values.

parse . pretty . parse == parse holds for every parseable program; an
operator prints infix, and an application of `!` prefix.
"""

from __future__ import annotations

from .ast import (
    Arrow,
    Apply,
    Binary,
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
    UNIT_LIT,
    Var,
    VClosure,
    VConst,
    VExtern,
    VNone,
    VSome,
    VTuple,
    VUndef,
    Value,
)
from .builtins import BINARY_LEVELS, UNARY_OPS
from .errors import InternalError

# Precedence levels, loosest to tightest, which the parser reads too: `->`,
# `fby`, `either`, `if`, one level per row of BINARY_LEVELS starting at
# BINARY, then unary, application and atoms.
ARROW, FBY, EITHER, IF, BINARY = range(5)
_UNARY = BINARY + len(BINARY_LEVELS)
_APP, _ATOM = _UNARY + 1, _UNARY + 2

# The level of each infix operator.
OPERATOR_LEVEL = {"->": ARROW, "fby": FBY} | {op: BINARY + k for k, ops in enumerate(BINARY_LEVELS) for op in ops}

# Microseconds per duration unit, which the parser reads too; largest first.
DURATION_UNITS = {"s": 1_000_000, "ms": 1_000, "us": 1}


def pretty_expr(e: Expr) -> str:
    return _expr(e, ARROW)


def _paren(text: str, level: int, minimum: int) -> str:
    return f"({text})" if level < minimum else text


def _expr(e: Expr, minimum: int) -> str:
    match e:
        case Var(name):
            return name
        case Const(value):
            # A literal `Some v` is the prefix form `Some e`, and a negative
            # number `-n` a prefix form too: both are parenthesised alike.
            text = pretty_value(value)
            prefix = type(value) is VSome or text.startswith("-")
            return _paren(text, _UNARY, minimum) if prefix else text
        case Tuple(items):
            return "(" + ", ".join(_expr(i, ARROW) for i in items) + ")"
        case Pre(inner):
            return _paren(f"pre {_expr(inner, _UNARY)}", _UNARY, minimum)
        case Some(inner):
            return _paren(f"Some {_expr(inner, _UNARY)}", _UNARY, minimum)
        case Fby(first, rest):
            text = f"{_expr(first, EITHER)} fby {_expr(rest, FBY)}"
            return _paren(text, FBY, minimum)
        case Arrow(first, rest):
            text = f"{_expr(first, FBY)} -> {_expr(rest, ARROW)}"
            return _paren(text, ARROW, minimum)
        case If(cond, then, orelse):
            text = f"if {_expr(cond, BINARY)} then {_expr(then, IF)} else {_expr(orelse, IF)}"
            return _paren(text, IF, minimum)
        case Either(scrutinee, fallback):
            text = f"either {_expr(scrutinee, EITHER)} otherwise {_expr(fallback, EITHER)}"
            return _paren(text, EITHER, minimum)
        case Binary(fn, left, right):
            level = OPERATOR_LEVEL[fn.name]
            text = f"{_expr(left, level)} {fn.name} {_expr(right, level + 1)}"
            return _paren(text, level, minimum)
        case Apply(Const(VExtern(op)), operand) if op in UNARY_OPS:
            return _paren(f"{op}{_expr(operand, _UNARY)}", _UNARY, minimum)
        case Apply(fn, arg):
            text = f"{_expr(fn, _APP)} {_expr(arg, _ATOM)}"
            return _paren(text, _APP, minimum)
        case _:
            raise InternalError(f"pretty_expr: unknown expression {e!r}")


def _equation(eq: Equation) -> str:
    rhs = eq.rhs
    if isinstance(rhs, Tuple):
        rhs_text = ", ".join(_expr(i, ARROW) for i in rhs.items)
    else:
        rhs_text = _expr(rhs, ARROW)
    return f"{_lhs(eq.lhs)} = {rhs_text};"


def _lhs(p: Pattern) -> str:
    if isinstance(p, PTuple):
        return ", ".join(pretty_pattern(i) for i in p.items)
    return pretty_pattern(p)


def pretty_pattern(p: Pattern) -> str:
    """Signature form: an annotated variable or `_` standing alone needs parentheses."""
    text = _sig_entry(p)
    return f"({text})" if type(p) in (PVar, PWild) and p.annot is not None else text


def _sig_entry(p: Pattern) -> str:
    match p:
        case PVar(name, None):
            return name
        case PVar(name, annot):
            return f"{name} : {annot}"
        case PWild(None):
            return "_"
        case PWild(annot):
            return f"_ : {annot}"
        case PUnit():
            return "()"
        case PTuple(items):
            return "(" + ", ".join(_sig_entry(i) for i in items) + ")"
        case _:
            raise InternalError(f"unknown pattern {p!r}")


def pretty_value(v: Value) -> str:
    if type(v) is VConst:  # a host's boxed scalar, or the unit value
        v = v.value
    kind = type(v)
    if kind is int:
        return str(v)
    if kind is bool:
        return "true" if v else "false"
    if kind is float:
        # The grammar needs a fraction before any exponent: 1e+20 prints as 1.0e+20.
        mantissa, e, exponent = repr(v).partition("e")
        return (mantissa if "." in mantissa else mantissa + ".0") + e + exponent
    if v is UNIT_LIT:
        return "()"
    match v:
        case VTuple(items):
            return "(" + ", ".join(pretty_value(i) for i in items) + ")"
        case VNone():
            return "None"
        case VSome(inner):
            text = pretty_value(inner)
            if isinstance(inner, (VSome, VNone)):
                text = f"({text})"
            return f"Some {text}"
        case VUndef():
            return "⊥"
        case VClosure(in_pattern, out_pattern, _):
            return f"<step {pretty_pattern(in_pattern)} --> {pretty_pattern(out_pattern)}>"
        case VExtern(name):
            return f"<extern {name}>"
        case _:
            raise InternalError(f"pretty_value: unknown value {v!r}")


def pretty_host_value(v: object) -> str:
    """A host's value as a diagnostic names it: a non-`Value` such as `3` as `Python int 3`."""
    return pretty_value(v) if isinstance(v, Value) else f"Python {type(v).__name__} {v!r}"


def format_duration(us: int) -> str:
    for unit, scale in DURATION_UNITS.items():
        if us % scale == 0:
            return f"{us // scale}{unit}"


def pretty_program(program: Program) -> str:
    chunks: list[str] = []
    for step in program.steps:
        chunks.append(_step(step))
    if program.steps and program.channels:
        chunks.append("")
    for ch in program.channels:
        chunks.append(_channel(ch))
    if program.channels and program.nodes:
        chunks.append("")
    for node in program.nodes:
        chunks.append(_node(node))
    return "\n".join(chunks) + "\n"


def _step(step: StepDecl) -> str:
    head = f"step {step.name} {pretty_pattern(step.in_pattern)} --> {pretty_pattern(step.out_pattern)}"
    if step.equations is None:
        return head
    body = "\n".join("    " + _equation(eq) for eq in step.equations)
    return f"{head} {{\n{body}\n}}"


def _channel(ch: ChannelDecl) -> str:
    head = f"channel {ch.name} : {ch.elem_type}"
    if ch.initial:
        values = ", ".join(pretty_value(v) for v in ch.initial)
        return f"{head} = {{ {values} }}"
    return head


def _ports(ports: tuple[PortRef, ...]) -> str:
    return "(" + ", ".join(p.channel + ("?" if p.optional else "") for p in ports) + ")"


def _node(node: NodeDecl) -> str:
    return (
        f"node {node.name} implements {node.step} "
        f"{_ports(node.inputs)} --> {_ports(node.outputs)} every {format_duration(node.period_us)}"
    )
