"""Canonical concrete-syntax printing for programs, expressions, and values.

parse . pretty . parse == parse holds for every parseable program; printing
re-sugars builtin applications back to infix operators.
"""

from __future__ import annotations

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
    Lambda,
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
    UNDEF_LIT,
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
from .builtins import BINARY_LEVELS, BINARY_OPS, UNARY_OPS
from .errors import InternalError

# Precedence levels, loosest to tightest: the four prefix forms, one level per
# row of BINARY_LEVELS starting at _BINARY, then unary, application and atoms.
_ARROW, _FBY, _EITHER, _IF, _BINARY = range(5)
_UNARY = _BINARY + len(BINARY_LEVELS)
_APP, _ATOM = _UNARY + 1, _UNARY + 2

_BINOP_LEVEL = {op: _BINARY + level for level, ops in enumerate(BINARY_LEVELS) for op in ops}


def pretty_expr(e: Expr) -> str:
    return _expr(e, _ARROW)


def _paren(text: str, level: int, minimum: int) -> str:
    return f"({text})" if level < minimum else text


def _expr(e: Expr, minimum: int) -> str:
    match e:
        case Var(name):
            return name
        case Const(value):
            return _literal(value)
        case Tuple(items):
            return "(" + ", ".join(_expr(i, _ARROW) for i in items) + ")"
        case Pre(inner):
            return _paren(f"pre {_expr(inner, _UNARY)}", _UNARY, minimum)
        case Some(inner):
            return _paren(f"Some {_expr(inner, _UNARY)}", _UNARY, minimum)
        case NoneLit():
            return "None"
        case Fby(first, rest):
            text = f"{_expr(first, _EITHER)} fby {_expr(rest, _FBY)}"
            return _paren(text, _FBY, minimum)
        case Arrow(first, rest):
            text = f"{_expr(first, _FBY)} -> {_expr(rest, _ARROW)}"
            return _paren(text, _ARROW, minimum)
        case If(cond, then, orelse):
            text = f"if {_expr(cond, _BINARY)} then {_expr(then, _IF)} else {_expr(orelse, _IF)}"
            return _paren(text, _IF, minimum)
        case Either(scrutinee, fallback):
            text = f"either {_expr(scrutinee, _EITHER)} otherwise {_expr(fallback, _EITHER)}"
            return _paren(text, _EITHER, minimum)
        case Apply(Var(op), Tuple((left, right))) if op in BINARY_OPS:
            level = _BINOP_LEVEL[op]
            text = f"{_expr(left, level)} {op} {_expr(right, level + 1)}"
            return _paren(text, level, minimum)
        case Apply(Var(op), operand) if op in UNARY_OPS:
            return _paren(f"{op}{_expr(operand, _UNARY)}", _UNARY, minimum)
        case Apply(fn, arg):
            text = f"{_expr(fn, _APP)} {_expr(arg, _ATOM)}"
            return _paren(text, _APP, minimum)
        case Lambda(in_pattern, out_pattern, equations):
            # Debug form only; the concrete syntax has no expression lambdas.
            eqs = " ".join(_equation(eq) for eq in equations)
            return f"<step {pretty_pattern(in_pattern)} --> {pretty_pattern(out_pattern)} {{ {eqs} }}>"
        case _:
            raise InternalError(f"pretty_expr: unknown expression {e!r}")


def _literal(value) -> str:
    if value is UNIT_LIT:
        return "()"
    if value is UNDEF_LIT:
        return "⊥"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # The grammar needs a fraction before any exponent: 1e+20 prints as 1.0e+20.
        mantissa, e, exponent = repr(value).partition("e")
        return (mantissa if "." in mantissa else mantissa + ".0") + e + exponent
    return str(value)


def _equation(eq: Equation) -> str:
    rhs = eq.rhs
    if isinstance(rhs, Tuple):
        rhs_text = ", ".join(_expr(i, _ARROW) for i in rhs.items)
    else:
        rhs_text = _expr(rhs, _ARROW)
    return f"{_lhs(eq.lhs)} = {rhs_text};"


def _lhs(p: Pattern) -> str:
    if isinstance(p, PTuple):
        return ", ".join(_lhs_atom(i) for i in p.items)
    return _lhs_atom(p)


def _lhs_atom(p: Pattern) -> str:
    match p:
        case PVar(name):
            return name
        case PWild():
            return "_"
        case PUnit():
            return "()"
        case PTuple():
            return f"({_lhs(p)})"
        case _:
            raise InternalError(f"unknown pattern {p!r}")


def pretty_pattern(p: Pattern) -> str:
    """Signature form: annotated variables need parentheses."""
    match p:
        case PVar(name, None):
            return name
        case PVar(name, annot):
            return f"({name} : {annot})"
        case PWild(None):
            return "_"
        case PWild(annot):
            return f"(_ : {annot})"
        case PUnit():
            return "()"
        case PTuple(items):
            return "(" + ", ".join(_sig_entry(i) for i in items) + ")"
        case _:
            raise InternalError(f"unknown pattern {p!r}")


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
        case _:
            return pretty_pattern(p)


def pretty_value(v: Value) -> str:
    match v:
        case VConst(x):
            return _literal(x)
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


def format_duration(us: int) -> str:
    if us % 1_000_000 == 0:
        return f"{us // 1_000_000}s"
    if us % 1_000 == 0:
        return f"{us // 1_000}ms"
    return f"{us}us"


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
