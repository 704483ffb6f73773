"""The builtin step library backing the operators.

A builtin is held by its operator, never named: `x + y` holds `+`, and `!x`
applies a literal holding `!`. So no step can shadow one (programs may freely
define steps called `add` and the like).

Operands and results are plain Python scalars. A builtin's `run` is its
checked path, which reports undefined and ill-typed operands. Binary
operators but `==` and `!=` also carry a kernel (`VExtern.kernel`): the
operand type, `int` (a bool is none) or `bool` for `&&` and `||`, and what
the evaluator applies to two operands of it.
"""

from __future__ import annotations

import operator

from .ast import VConst, VExtern, VNone, VSome, VTuple, VUndef, Value
from .errors import EvalError, UndefEscape
from .types import BOOL, INT, Scheme, TFunc, TTuple, TVar


def _show(v: Value) -> str:
    """`v` in Mimosa notation, for the messages of ill-typed operands."""
    from .pretty import pretty_value  # pretty imports this module

    return pretty_value(v)


def _int(v: Value, op: str) -> int:
    if type(v) is int:
        return v
    if type(v) is VUndef:
        raise UndefEscape(f"undefined operand for '{op}'")
    raise EvalError(f"'{op}' expects integer operands, got {_show(v)}")


def _bool(v: Value, op: str) -> bool:
    if type(v) is bool:
        return v
    if type(v) is VUndef:
        raise UndefEscape(f"undefined operand for '{op}'")
    raise EvalError(f"'{op}' expects boolean operands, got {_show(v)}")


def _pair(v: Value, op: str) -> tuple[Value, Value]:
    if isinstance(v, VTuple) and len(v.items) == 2:
        return v.items[0], v.items[1]
    raise EvalError(f"'{op}' expects a pair of operands, got {_show(v)}")


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


# The classes of a scalar or the unit value, which compare as Python values.
_LEAVES = (int, bool, float, VConst)


def structural_eq(a: Value, b: Value, op: str = "==") -> bool:
    if type(a) is VUndef or type(b) is VUndef:
        raise UndefEscape(f"undefined operand for '{op}'")
    if type(a) in _LEAVES and type(b) in _LEAVES:
        return a == b and (type(a) is bool) == (type(b) is bool)
    match (a, b):
        case (VNone(), VNone()):
            return True
        case (VNone(), VSome()) | (VSome(), VNone()):
            return False
        case (VSome(x), VSome(y)):
            return structural_eq(x, y, op)
        case (VTuple(xs), VTuple(ys)):
            return len(xs) == len(ys) and all(structural_eq(x, y, op) for x, y in zip(xs, ys))
        case _:
            raise EvalError(f"'{op}' cannot compare {_show(a)} and {_show(b)}")


def structural_cmp(a: Value, b: Value, op: str) -> int:
    """Total order over first-order values of equal type: -1, 0, or 1.

    Bools order false < true; options order None < Some; tuples lexicographic.
    """
    if type(a) is VUndef or type(b) is VUndef:
        raise UndefEscape(f"undefined operand for '{op}'")
    if type(a) in _LEAVES and type(b) in _LEAVES:
        if type(a) is VConst or type(b) is VConst:
            return 0 if a == b else 1  # unit: only equal to itself
        return (a > b) - (a < b)
    match (a, b):
        case (VNone(), VNone()):
            return 0
        case (VNone(), VSome()):
            return -1
        case (VSome(), VNone()):
            return 1
        case (VSome(x), VSome(y)):
            return structural_cmp(x, y, op)
        case (VTuple(xs), VTuple(ys)) if len(xs) == len(ys):
            for x, y in zip(xs, ys):
                c = structural_cmp(x, y, op)
                if c:
                    return c
            return 0
        case _:
            raise EvalError(f"'{op}' cannot compare {_show(a)} and {_show(b)}")


def _binary(op: str, fn, operand, plain: type) -> tuple[Scheme, VExtern]:
    # `operand` reads each operand of the pair as a `plain`: `_int` or `_bool`.
    def run(v, _ctx=None):
        a, b = _pair(v, op)
        return fn(operand(a, op), operand(b, op))

    t = INT if plain is int else BOOL
    return Scheme((), TFunc(TTuple((t, t)), t)), VExtern(op, run, (plain, fn))


_A = TVar(0)
_CMP = Scheme((0,), TFunc(TTuple((_A, _A)), BOOL), first_order=(0,))


def _compare(op: str, order) -> tuple[Scheme, VExtern]:
    # `order(a, b)` on ints is `order(structural_cmp(a, b), 0)` on anything.
    def run(v, _ctx=None):
        a, b = _pair(v, op)
        return order(structural_cmp(a, b, op), 0)

    return _CMP, VExtern(op, run, (int, order))


def _eq(op: str, want: bool) -> tuple[Scheme, VExtern]:
    def run(v, _ctx=None):
        a, b = _pair(v, op)
        return structural_eq(a, b, op) == want

    return _CMP, VExtern(op, run)


def _not(v, _ctx=None):
    return not v if type(v) is bool else not _bool(v, "!")


# Each operator's type scheme and value. The schemes are built from the
# `INT` and `BOOL` singletons, which type inference compares by identity.
_BUILTINS: dict[str, tuple[Scheme, VExtern]] = {
    "+": _binary("+", operator.add, _int, int),
    "-": _binary("-", operator.sub, _int, int),
    "*": _binary("*", operator.mul, _int, int),
    "/": _binary("/", _trunc_div, _int, int),
    "<": _compare("<", operator.lt),
    "<=": _compare("<=", operator.le),
    ">": _compare(">", operator.gt),
    ">=": _compare(">=", operator.ge),
    "==": _eq("==", True),
    "!=": _eq("!=", False),
    "&&": _binary("&&", operator.and_, _bool, bool),
    "||": _binary("||", operator.or_, _bool, bool),
    "!": (Scheme((), TFunc(BOOL, BOOL)), VExtern("!", _not)),
}
BUILTIN_TYPES: dict[str, Scheme] = {op: scheme for op, (scheme, _) in _BUILTINS.items()}
BUILTIN_VALUES: dict[str, VExtern] = {op: value for op, (_, value) in _BUILTINS.items()}

# Infix operators by precedence, loosest first; operators of one row share a
# level, and every level is left-associative.
BINARY_LEVELS = (("||",), ("&&",), ("<", "<=", ">", ">=", "==", "!="), ("+", "-"), ("*", "/"))
BINARY_OPS = tuple(op for ops in BINARY_LEVELS for op in ops)
UNARY_OPS = ("!",)
