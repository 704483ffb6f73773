"""The builtin operators against the checked code they had before their
integer fast paths: on any argument both give an equal value of the same
Python type, or raise the same exception with the same message."""

import random

import pytest

from mimosa import eval_expr, parse_expression
from mimosa.ast import UNIT_VALUE, VConst, VNone, VSome, VTuple, VUndef
from mimosa.builtins import (
    BINARY_OPS,
    BUILTIN_TYPES,
    BUILTIN_VALUES,
    UNARY_OPS,
    _bool,
    _int,
    _pair,
    _trunc_div,
    structural_cmp,
    structural_eq,
)
from mimosa.errors import MimosaError
from mimosa.types import BOOL, INT, TVar

# ---------------------------------------------------------------------------
# The checked closures, as they were before the fast paths.


def reference_arith(op, fn):
    def run(v):
        a, b = _pair(v, op)
        return VConst(fn(_int(a, op), _int(b, op)))

    return run


def reference_compare(op, accept):
    def run(v):
        a, b = _pair(v, op)
        return VConst(accept(structural_cmp(a, b, op)))

    return run


def reference_logic(op, fn):
    def run(v):
        a, b = _pair(v, op)
        return VConst(fn(_bool(a, op), _bool(b, op)))

    return run


def reference_eq(op, want):
    def run(v):
        a, b = _pair(v, op)
        return VConst(structural_eq(a, b, op) == want)

    return run


def reference_not(v):
    return VConst(not _bool(v, "!"))


REFERENCE = {
    "+": reference_arith("+", lambda a, b: a + b),
    "-": reference_arith("-", lambda a, b: a - b),
    "*": reference_arith("*", lambda a, b: a * b),
    "/": reference_arith("/", _trunc_div),
    "<": reference_compare("<", lambda c: c < 0),
    "<=": reference_compare("<=", lambda c: c <= 0),
    ">": reference_compare(">", lambda c: c > 0),
    ">=": reference_compare(">=", lambda c: c >= 0),
    "==": reference_eq("==", True),
    "!=": reference_eq("!=", False),
    "&&": reference_logic("&&", lambda a, b: a and b),
    "||": reference_logic("||", lambda a, b: a or b),
    "!": reference_not,
}


def gen_value(rng: random.Random, depth: int = 2):
    """A runtime value of any first-order shape, ints and bools most often."""
    kinds = ["int", "int", "int", "bool", "bool", "unit", "real", "undef", "option", "tuple"]
    kind = rng.choice(kinds)
    if kind == "int":
        return VConst(rng.choice([0, 1, -1, 2, -7, 10**20, -(10**20), rng.randrange(-1000, 1000)]))
    if kind == "bool":
        return VConst(rng.random() < 0.5)
    if kind == "unit":
        return UNIT_VALUE
    if kind == "real":
        return VConst(rng.choice([0.0, 1.0, -2.5]))
    if kind == "undef":
        return VUndef()
    if kind == "option" and depth > 0:
        return VNone() if rng.random() < 0.3 else VSome(gen_value(rng, depth - 1))
    if kind == "tuple" and depth > 0:
        return VTuple(tuple(gen_value(rng, depth - 1) for _ in range(rng.choice([2, 2, 3]))))
    return VConst(rng.randrange(-5, 5))


def gen_argument(rng: random.Random):
    """Mostly pairs, sometimes of one shape twice; sometimes not a pair."""
    roll = rng.random()
    if roll < 0.1:
        return gen_value(rng)
    if roll < 0.4:
        a = gen_value(rng)
        b = gen_value(rng)
        while type(b) is not type(a) or type(getattr(b, "value", None)) is not type(getattr(a, "value", None)):
            b = gen_value(rng)
        return VTuple((a, b))
    return VTuple((gen_value(rng), gen_value(rng)))


def outcome(run, v):
    """The value with the Python type of its payload, or the exception's type and message."""
    try:
        out = run(v)
    except MimosaError as exc:
        return ("raised", type(exc), str(exc))
    return ("value", out, repr(out))


@pytest.mark.parametrize("op", sorted(BUILTIN_VALUES))
@pytest.mark.parametrize("seed", range(4))
def test_builtins_match_the_checked_reference(op, seed):
    assert sorted(REFERENCE) == sorted(BUILTIN_VALUES)
    rng = random.Random(f"{op}/{seed}")
    fast = BUILTIN_VALUES[op].fn
    for _ in range(500):
        v = gen_argument(rng)
        assert outcome(fast, v) == outcome(REFERENCE[op], v), v



def test_equal_tuples_compare_as_equal():
    env = BUILTIN_VALUES | {"x": VConst(1)}
    assert eval_expr(env, parse_expression("(x, 2) <= (x, 2)")).value == VConst(True)


# An ill-typed operand, as a host can pass one, is named in Mimosa notation.
ILL_TYPED = {
    "_int": (lambda: _int(VConst(True), "+"), "'+' expects integer operands, got true"),
    "_bool": (lambda: _bool(VConst(3), "!"), "'!' expects boolean operands, got 3"),
    "_pair": (lambda: _pair(VSome(VConst(1)), "-"), "'-' expects a pair of operands, got Some 1"),
    "structural_eq": (lambda: structural_eq(VConst(1), VNone()), "'==' cannot compare 1 and None"),
    "structural_cmp": (
        lambda: structural_cmp(VTuple((VConst(1), VConst(False))), VConst(-3), "<"),
        "'<' cannot compare (1, false) and -3",
    ),
}


@pytest.mark.parametrize("function", ILL_TYPED)
def test_ill_typed_operands_print_in_mimosa_notation(function):
    call, message = ILL_TYPED[function]
    with pytest.raises(MimosaError) as info:
        call()
    assert info.value.diagnostics[0].message == message


def test_every_operator_has_one_type_and_one_value():
    assert list(BUILTIN_TYPES) == list(BUILTIN_VALUES)
    assert set(BUILTIN_TYPES) == set(BINARY_OPS + UNARY_OPS)


@pytest.mark.parametrize("op", [op for op in BINARY_OPS if BUILTIN_VALUES[op].kernel])
def test_kernel_plain_type_matches_the_operand_type(op):
    # The evaluator applies a kernel to operands of its plain type, which the
    # operator's scheme gives both operands: the very `INT` or `BOOL`, since
    # type inference tests them by identity, or a comparison's variable.
    plain, _ = BUILTIN_VALUES[op].kernel
    operand = BUILTIN_TYPES[op].body.arg.items[0]
    if type(operand) is TVar:
        assert plain is int
    else:
        assert operand is {int: INT, bool: BOOL}[plain]
