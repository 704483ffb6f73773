"""Seeded generator for well-typed expressions and equation systems.

Used by the determinism, round-trip, Eqs-uniqueness, initialization
soundness and evaluator differential tests, and (`networks`) by the
whole-network run property. Generation mirrors the initialization rules: with
`need_init=True` the produced expression is defined from the first cycle on,
so it never feeds an undefined value to a guarded position.
"""

from __future__ import annotations

import dataclasses
import itertools
import random

from hypothesis import strategies as st

from mimosa import parse_expression
from mimosa.ast import (
    Arrow,
    Apply,
    Binary,
    Const,
    Either,
    Equation,
    Expr,
    Fby,
    If,
    Pre,
    PTuple,
    PUnit,
    PVar,
    PWild,
    Some,
    Tuple,
    UNIT_VALUE,
    Var,
)
from mimosa.builtins import BUILTIN_VALUES
from mimosa.ast import VClosure, VNone, VSome, VTuple, Value
from mimosa.errors import Span
from mimosa.eval import Env, eval_equations
from mimosa.types import BOOL, INT, REAL, TOption, Type

# The evaluation environment every generated expression is closed under.
BASE_VALUES: dict[str, Value] = {
    "i1": 3,
    "i2": 7,
    "r1": 2.5,
    "b1": True,
    "b2": False,
    "oi": VSome(5),
    "ob": VNone(),
}

VARS_BY_TYPE: dict[Type, tuple[str, ...]] = {
    INT: ("i1", "i2"),
    REAL: ("r1",),
    BOOL: ("b1", "b2"),
    TOption(INT): ("oi",),
    TOption(BOOL): ("ob",),
}

TOP_TYPES = (INT, BOOL, REAL, TOption(INT), TOption(BOOL))


def base_env() -> Env:
    return BUILTIN_VALUES | BASE_VALUES


def _leaf(rng: random.Random, ty: Type) -> Expr:
    names = VARS_BY_TYPE.get(ty, ())
    if names and rng.random() < 0.5:
        return Var(rng.choice(names))
    if ty == INT:
        return Const(rng.randrange(10))
    if ty == REAL:
        return Const(rng.choice((0.5, 1.25, 3.0)))
    if ty == BOOL:
        return Const(rng.random() < 0.5)
    if isinstance(ty, TOption):
        if rng.random() < 0.4:
            return Const(VNone())
        return Some(_leaf(rng, ty.elem))
    raise AssertionError(ty)


def _binop(op: str, left: Expr, right: Expr) -> Expr:
    return Binary(BUILTIN_VALUES[op], left, right)


def as_application(e: Binary) -> Apply:
    """Operator `e` as the application of its builtin to its operand pair:
    the form the reference checks and evaluators take it in."""
    return Apply(Var(e.fn.name, e.loc), Tuple((e.left, e.right), e.loc), e.loc)


def desugared(e: Expr) -> Expr:
    """`e` with every operator written as the application of its builtin."""
    if type(e) is Binary:
        e = as_application(e)
    changes = {}
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        if isinstance(value, Expr):
            changes[f.name] = desugared(value)
        elif isinstance(value, tuple) and all(isinstance(v, Expr) for v in value):
            changes[f.name] = tuple(map(desugared, value))
    return dataclasses.replace(e, **changes)


def gen_expr(rng: random.Random, ty: Type, depth: int, need_init: bool) -> Expr:
    """A well-typed expression of type `ty`; initialized if `need_init`."""
    if depth <= 0:
        return _leaf(rng, ty)
    choices = ["leaf", "if", "arrow", "fby", "either"]
    if not need_init:
        choices.append("pre")
    if ty == INT:
        choices += ["arith", "arith"]
    if ty == BOOL:
        choices += ["cmp", "logic", "not"]
    form = rng.choice(choices)
    if form == "leaf":
        return _leaf(rng, ty)
    if form == "if":
        return If(
            gen_expr(rng, BOOL, depth - 1, True),
            gen_expr(rng, ty, depth - 1, need_init),
            gen_expr(rng, ty, depth - 1, need_init),
        )
    if form == "arrow":
        return Arrow(gen_expr(rng, ty, depth - 1, True), gen_expr(rng, ty, depth - 1, False))
    if form == "fby":
        return Fby(gen_expr(rng, ty, depth - 1, True), gen_expr(rng, ty, depth - 1, True))
    if form == "pre":
        return Pre(gen_expr(rng, ty, depth - 1, True))
    if form == "either":
        return Either(
            gen_expr(rng, TOption(ty), depth - 1, True),
            gen_expr(rng, ty, depth - 1, need_init),
        )
    if form == "arith":
        op = rng.choice(("+", "-", "*"))
        return _binop(op, gen_expr(rng, INT, depth - 1, True), gen_expr(rng, INT, depth - 1, True))
    if form == "cmp":
        op = rng.choice(("<", "<=", ">", ">=", "==", "!="))
        operand_ty = rng.choice((INT, REAL, BOOL))
        return _binop(op, gen_expr(rng, operand_ty, depth - 1, True), gen_expr(rng, operand_ty, depth - 1, True))
    if form == "logic":
        op = rng.choice(("&&", "||"))
        return _binop(op, gen_expr(rng, BOOL, depth - 1, True), gen_expr(rng, BOOL, depth - 1, True))
    if form == "not":
        return Apply(Var("!"), gen_expr(rng, BOOL, depth - 1, True))
    raise AssertionError(form)


# ---------------------------------------------------------------------------
# Integer operator forms, not always well typed.

INT_OPS = ("+", "-", "*", "/")
COMPARISON_OPS = ("<", "<=", ">", ">=", "==")
LOGIC_OPS = ("&&", "||")


def gen_operator_expr(rng: random.Random, depth: int, ops: tuple[str, ...] = INT_OPS + COMPARISON_OPS) -> Expr:
    """One of the operators `ops` on two operands, closed under
    `base_env()`. An operand is a small int literal (zero and negatives
    included, so divisors are zero and quotients negative), an int name, `pre`
    of an operand (undefined on the first cycle), `v -> pre e`, a `fby`, a
    bool or real written by hand, or a nested form, usually arithmetic. So
    on some cycle an expression may raise: an undefined or ill-typed operand,
    or division by zero. When `ops` are logical operators, a leaf is a bool
    name or literal instead, and a nested form usually a comparison."""
    logic = set(ops) <= set(LOGIC_OPS)

    def operand(depth: int) -> Expr:
        roll = rng.random()
        if depth <= 0 or roll < 0.35:
            if logic:
                return Var(rng.choice(("b1", "b2"))) if roll < 0.1 else Const(rng.random() < 0.5)
            return Var(rng.choice(("i1", "i2"))) if roll < 0.1 else Const(rng.randrange(-4, 5))
        if roll < 0.45:
            return Pre(operand(depth - 1))
        if roll < 0.55:
            return Arrow(operand(depth - 1), Pre(operand(depth - 1)))
        if roll < 0.6:
            return Fby(operand(depth - 1), operand(depth - 1))
        if roll < 0.65:
            return Var(rng.choice(("b1", "b2"))) if rng.random() < 0.5 else Const(rng.random() < 0.5)
        if roll < 0.7:
            return Var("r1") if rng.random() < 0.5 else Const(-1.5)
        usual = COMPARISON_OPS if logic else INT_OPS
        return gen_operator_expr(rng, depth - 1, usual if rng.random() < 0.85 else ops)

    return _binop(rng.choice(ops), operand(depth), operand(depth))


# ---------------------------------------------------------------------------
# Leaves in every position a parent reads in place.

UNBOUND = "u"

# Two steps: `inc`, stateless, and `mix`, on a pair, whose `pre` gives each
# call site its own memory.
INC = VClosure(PVar("a"), PVar("b"), (Equation(PVar("b"), parse_expression("a + 1")),))
MIX = VClosure(
    PTuple((PVar("a"), PVar("b"))),
    PVar("r"),
    (
        Equation(PVar("s"), parse_expression("a + b")),
        Equation(PVar("m"), parse_expression("0 -> pre (s + 1)")),
        Equation(PVar("r"), parse_expression("if m > s then m - s else s - m + b")),
    ),
)
# And `hold`, whose whole right-hand sides, `if` branches, and `Some` and
# `pre` operands are names and literals.
HOLD = VClosure(
    PVar("a"),
    PVar("r"),
    tuple(
        Equation(PVar(name), parse_expression(text))
        for name, text in (
            ("c", "a"),
            ("k", "2"),
            ("m", "0 -> pre c"),
            ("o", "Some m"),
            ("r", "either (if c > k then o else None) otherwise k"),
        )
    ),
)


# And `nest`, whose input pattern nests a tuple, a `_` and a `()`.
NEST = VClosure(
    PTuple((PTuple((PVar("a"), PWild())), PUnit())),
    PVar("r"),
    (
        Equation(PVar("s"), parse_expression("a * 2")),
        Equation(PVar("r"), parse_expression("s -> pre (s + a)")),
    ),
)


def leaf_env() -> Env:
    return base_env() | {"inc": INC, "mix": MIX, "hold": HOLD, "nest": NEST}


def gen_leaf_expr(rng: random.Random, depth: int) -> Expr:
    """An int expression whose children that a parent reads in place (both
    operands of an operator, the argument of an application, the items of a
    tuple, the branches of an `if`, and the operands of `Some` and `pre`) are
    often leaves: a name, a literal, or now and then the unbound name `u`;
    `hold`'s body has leaves as whole right-hand sides. Each `u` has its own
    column, so the error it raises tells which one was read first. Closed
    under `leaf_env()` but for `u`; an `if` condition may be `pre` of a
    leaf, undefined on the first cycle."""
    columns = itertools.count(1)

    def leaf(names: tuple[str, ...], literal: Value) -> Expr:
        roll = rng.random()
        if roll < 0.04:
            return Var(UNBOUND, Span(1, next(columns)))
        return Var(rng.choice(names)) if roll < 0.5 else Const(literal)

    def int_child(depth: int) -> Expr:
        if depth <= 0 or rng.random() < 0.5:
            return leaf(("i1", "i2"), rng.randrange(-4, 5))
        return form(depth - 1)

    def bool_leaf() -> Expr:
        return leaf(("b1", "b2"), rng.random() < 0.5)

    def condition(depth: int) -> Expr:
        roll = rng.random()
        if roll < 0.3:
            return bool_leaf()
        if roll < 0.55:
            return Apply(Var("!"), bool_leaf())
        if roll < 0.9:
            return _binop("<", int_child(depth), int_child(depth))
        return Pre(bool_leaf())

    def form(depth: int) -> Expr:
        kind = rng.randrange(8)
        if kind == 0:
            return _binop(rng.choice(("+", "-", "*")), int_child(depth), int_child(depth))
        if kind == 1:
            return Apply(Var("mix"), Tuple((int_child(depth), int_child(depth))))
        if kind == 2:  # a node firing: a step applied to the literal of its inputs
            argument = Const(VTuple((rng.randrange(5), rng.randrange(5))))
            return Apply(rng.choice((Var("mix"), Const(MIX))), argument)
        if kind == 3:
            return Apply(rng.choice((Var("inc"), Const(INC), Var("hold"), Const(HOLD))), int_child(depth))
        if kind == 4:
            return Arrow(int_child(depth), Pre(int_child(depth)))
        if kind == 5:
            return Fby(int_child(depth), int_child(depth))
        if kind == 6:
            return Either(Some(int_child(depth)), int_child(depth))
        return If(condition(depth), int_child(depth), int_child(depth))

    return form(depth)


def gen_call_expr(rng: random.Random, depth: int) -> Expr:
    """A call of `mix` on a pair, or of `nest` on a pair and a unit, whose
    items are leaves (now and then the unbound name `u`, each with its own
    column), `pre`s, `v -> pre e`s or calls again. `nest`'s first item is a
    pair expression, a pair literal or, now and then, `pre` of a pair, which
    its tuple pattern rejects; its second is `()`, now and then `pre ()`,
    which its `()` pattern rejects, or `u`. A leaf may read `w`, which the
    caller may bind after the call. Closed under `leaf_env()` plus `w`, but
    for `u`."""
    columns = itertools.count(1)

    def unbound() -> Expr:
        return Var(UNBOUND, Span(1, next(columns)))

    def item(depth: int) -> Expr:
        roll = rng.random()
        if depth <= 0 or roll < 0.4:
            if roll < 0.03:
                return unbound()
            return Var(rng.choice(("i1", "i2", "w"))) if roll < 0.25 else Const(rng.randrange(-4, 5))
        if roll < 0.46:
            return Pre(item(depth - 1))
        if roll < 0.75:
            return Arrow(item(depth - 1), Pre(item(depth - 1)))
        return call(depth - 1)

    def pair(depth: int) -> Expr:
        roll = rng.random()
        if roll < 0.7:
            return Tuple((item(depth), item(depth)))
        if roll < 0.94:
            return Const(VTuple((rng.randrange(5), rng.randrange(5))))
        return Pre(Tuple((item(depth), item(depth))))

    def unit() -> Expr:
        roll = rng.random()
        if roll < 0.9:
            return Const(UNIT_VALUE)
        return Pre(Const(UNIT_VALUE)) if roll < 0.95 else unbound()

    def call(depth: int) -> Expr:
        if rng.random() < 0.5:
            return Apply(rng.choice((Var("mix"), Const(MIX))), Tuple((item(depth), item(depth))))
        return Apply(rng.choice((Var("nest"), Const(NEST))), Tuple((pair(depth), unit())))

    return call(depth)


# ---------------------------------------------------------------------------
# Tiny equation systems over the value domain {0, 1, undef}.


SYSTEM_VARS = ("x", "y", "z")


def gen_system(rng: random.Random, n_eqs: int) -> list[Equation]:
    """A causal system of equations binding x (and y, z) with right-hand
    sides whose values stay in {0, 1, undef}.

    The names are drawn in a causal order: outside `pre`, a right-hand side
    refers only to names earlier in that order; under `pre`, to any name. The
    equation of the causally last name comes first (the tests take it as the
    step's output), so all its references are forward ones, and the others
    follow shuffled, so declaration order is independent of the causal order.
    A right-hand side is often a bare earlier name or `pre` of a constant, so
    uninitialized names are read without a `pre` in between: the shape where
    statuses computed in declaration order differ from causal order.
    """
    names = list(SYSTEM_VARS[:n_eqs])
    rng.shuffle(names)

    def atom(visible: list[str]) -> Expr:
        roll = rng.random()
        if roll < 0.4:
            return Const(rng.randrange(2))
        if roll < 0.9 and visible:
            return Var(rng.choice(visible))
        return Var("i0")

    def rhs(depth: int, visible: list[str]) -> Expr:
        if depth <= 0:
            return atom(visible)
        form = rng.choice(("atom", "pre", "arrow", "fby", "if"))
        if form == "atom":
            return atom(visible)
        if form == "pre":
            return Pre(rhs(depth - 1, names))
        if form == "arrow":
            return Arrow(rhs(depth - 1, visible), rhs(depth - 1, visible))
        if form == "fby":
            return Fby(rhs(depth - 1, visible), rhs(depth - 1, visible))
        return If(Var("b1"), rhs(depth - 1, visible), rhs(depth - 1, visible))

    def top(visible: list[str]) -> Expr:
        roll = rng.random()
        if roll < 0.3:
            return Pre(atom([]))
        if roll < 0.7 and visible:
            return Var(rng.choice(visible))
        return rhs(rng.randrange(1, 3), visible)

    equations = [Equation(PVar(name), top(names[:k])) for k, name in enumerate(names)]
    rest = equations[:-1]
    rng.shuffle(rest)
    return [equations[-1]] + rest


SYSTEM_BASE = {"i0": 0, "b1": True}


def system_env() -> Env:
    return dict(SYSTEM_BASE)


def run_cycles(equations, make_base_env, cycles: int) -> list[dict[str, Value]]:
    """Iterate an equation list, returning each cycle's bindings for the
    equation-bound names."""
    eqs = tuple(equations)
    names = [n for eq in eqs for n in eq.lhs.names()]
    out = []
    for _ in range(cycles):
        eqs, env = eval_equations(make_base_env(), eqs)
        out.append({n: env[n] for n in names})
    return out


# ---------------------------------------------------------------------------
# Int-only networks of periodic nodes, each with its own bodied step.

PERIODS_MS = (1, 2, 3, 4, 6, 12)

# What an output of a node with inputs computes from `acc`, the sum of its
# inputs; one with no inputs counts instead.
OUTPUT_FORMS = ("acc + {k}", "{k} -> pre acc", "if acc > {k} then acc else {k}")


@st.composite
def networks(draw) -> str:
    """The source of a network of 2-6 nodes with periods from PERIODS_MS and
    1-8 channels, each wired from a random writer to a random reader, so
    cycles and self-loops occur. A channel may hold initial tokens, and may be
    read through an optional port, which the step reads with `either`."""
    n = draw(st.integers(2, 6))
    periods = draw(st.lists(st.sampled_from(PERIODS_MS), min_size=n, max_size=n))
    wire = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.booleans(), st.lists(st.integers(-3, 3), max_size=2))
    wires = draw(st.lists(wire, min_size=1, max_size=8))
    lines = []
    for c, (_, _, _, initial) in enumerate(wires):
        lines.append(f"channel c{c} : int" + (" = { " + ", ".join(map(str, initial)) + " }" if initial else ""))
    for i, period in enumerate(periods):
        ins = [(c, optional) for c, (_, reader, optional, _) in enumerate(wires) if reader == i]
        outs = [c for c, (writer, _, _, _) in enumerate(wires) if writer == i]
        terms = [f"(either v{c} otherwise {c})" if optional else f"v{c}" for c, optional in ins]
        body = [f"acc = {' + '.join(terms)}" if terms else "acc = 0 -> pre (acc + 1)"]
        body += [f"w{c} = " + draw(st.sampled_from(OUTPUT_FORMS)).format(k=c) for c in outs]
        params = ", ".join(f"v{c}" for c, _ in ins)
        results = ", ".join(f"w{c}" for c in outs)
        lines.append(f"step s{i} ({params}) --> ({results}) {{ {'; '.join(body)} }}")
        ports = ", ".join(f"c{c}?" if optional else f"c{c}" for c, optional in ins)
        lines.append(f"node n{i} implements s{i} ({ports}) --> ({', '.join(f'c{c}' for c in outs)}) every {period}ms")
    return "\n".join(lines) + "\n"
