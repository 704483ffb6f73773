"""The builtin step library backing the infix operators.

Builtins are named by their operator symbol, which no identifier can spell,
so user steps can never shadow them (programs may freely define steps called
`add` and the like).
"""

from __future__ import annotations

from .ast import VConst, VExtern, VNone, VSome, VTuple, VUndef, Value
from .errors import EvalError, UndefEscape
from .types import BOOL, INT, Scheme, TFunc, TTuple, TVar


def _int(v: Value, op: str) -> int:
    if isinstance(v, VUndef):
        raise UndefEscape(f"undefined operand for '{op}'")
    if isinstance(v, VConst) and not isinstance(v.value, bool) and isinstance(v.value, int):
        return v.value
    raise EvalError(f"'{op}' expects integer operands, got {v!r}")


def _bool(v: Value, op: str) -> bool:
    if isinstance(v, VUndef):
        raise UndefEscape(f"undefined operand for '{op}'")
    if isinstance(v, VConst) and isinstance(v.value, bool):
        return v.value
    raise EvalError(f"'{op}' expects boolean operands, got {v!r}")


def _pair(v: Value, op: str) -> tuple[Value, Value]:
    if isinstance(v, VTuple) and len(v.items) == 2:
        return v.items[0], v.items[1]
    raise EvalError(f"'{op}' expects a pair of operands, got {v!r}")


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def structural_eq(a: Value, b: Value, op: str = "==") -> bool:
    if isinstance(a, VUndef) or isinstance(b, VUndef):
        raise UndefEscape(f"undefined operand for '{op}'")
    match (a, b):
        case (VConst(x), VConst(y)):
            return x == y and isinstance(x, bool) == isinstance(y, bool)
        case (VNone(), VNone()):
            return True
        case (VNone(), VSome()) | (VSome(), VNone()):
            return False
        case (VSome(x), VSome(y)):
            return structural_eq(x, y, op)
        case (VTuple(xs), VTuple(ys)):
            return len(xs) == len(ys) and all(structural_eq(x, y, op) for x, y in zip(xs, ys))
        case _:
            raise EvalError(f"'{op}' cannot compare {a!r} and {b!r}")


def structural_cmp(a: Value, b: Value, op: str) -> int:
    """Total order over first-order values of equal type: -1, 0, or 1.

    Bools order false < true; options order None < Some; tuples lexicographic.
    """
    if isinstance(a, VUndef) or isinstance(b, VUndef):
        raise UndefEscape(f"undefined operand for '{op}'")
    match (a, b):
        case (VConst(x), VConst(y)):
            if not isinstance(x, (bool, int, float)) or not isinstance(y, (bool, int, float)):
                return 0 if x == y else 1  # unit: only equal to itself
            return (x > y) - (x < y)
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
            raise EvalError(f"'{op}' cannot compare {a!r} and {b!r}")


def _arith(op: str, fn) -> VExtern:
    def run(v, _ctx=None):
        a, b = _pair(v, op)
        return VConst(fn(_int(a, op), _int(b, op)))

    return VExtern(op, run)


def _compare(op: str, accept) -> VExtern:
    def run(v, _ctx=None):
        a, b = _pair(v, op)
        return VConst(accept(structural_cmp(a, b, op)))

    return VExtern(op, run)


def _logic(op: str, fn) -> VExtern:
    def run(v, _ctx=None):
        a, b = _pair(v, op)
        return VConst(fn(_bool(a, op), _bool(b, op)))

    return VExtern(op, run)


def _eq(op: str, want: bool) -> VExtern:
    def run(v, _ctx=None):
        a, b = _pair(v, op)
        return VConst(structural_eq(a, b, op) == want)

    return VExtern(op, run)


def _not(v, _ctx=None):
    return VConst(not _bool(v, "!"))


_A = TVar(0)

_INT_BINOP = Scheme((), TFunc(TTuple((INT, INT)), INT))
_CMP = Scheme((0,), TFunc(TTuple((_A, _A)), BOOL))
_BOOL_BINOP = Scheme((), TFunc(TTuple((BOOL, BOOL)), BOOL))

BUILTIN_TYPES: dict[str, Scheme] = {
    "+": _INT_BINOP,
    "-": _INT_BINOP,
    "*": _INT_BINOP,
    "/": _INT_BINOP,
    "<": _CMP,
    "<=": _CMP,
    ">": _CMP,
    ">=": _CMP,
    "==": _CMP,
    "!=": _CMP,
    "&&": _BOOL_BINOP,
    "||": _BOOL_BINOP,
    "!": Scheme((), TFunc(BOOL, BOOL)),
}

BUILTIN_VALUES: dict[str, VExtern] = {
    "+": _arith("+", lambda a, b: a + b),
    "-": _arith("-", lambda a, b: a - b),
    "*": _arith("*", lambda a, b: a * b),
    "/": _arith("/", _trunc_div),
    "<": _compare("<", lambda c: c < 0),
    "<=": _compare("<=", lambda c: c <= 0),
    ">": _compare(">", lambda c: c > 0),
    ">=": _compare(">=", lambda c: c >= 0),
    "==": _eq("==", True),
    "!=": _eq("!=", False),
    "&&": _logic("&&", lambda a, b: a and b),
    "||": _logic("||", lambda a, b: a or b),
    "!": VExtern("!", _not),
}

# Infix operators by precedence, loosest first; operators of one row share a
# level, and every level is left-associative.
BINARY_LEVELS = (("||",), ("&&",), ("<", "<=", ">", ">=", "==", "!="), ("+", "-"), ("*", "/"))
BINARY_OPS = tuple(op for ops in BINARY_LEVELS for op in ops)
UNARY_OPS = ("!",)
