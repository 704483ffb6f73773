import copy
import dataclasses
import random

import pytest

from exprgen import TOP_TYPES, desugared, gen_expr, gen_system

from mimosa import ast, check_program, eval_equations, parse_expression, parse_program
from mimosa.ast import (
    UNIT_VALUE,
    Apply,
    Arrow,
    Binary,
    ChannelDecl,
    Const,
    Either,
    Fby,
    If,
    NodeDecl,
    PortRef,
    Pre,
    Some,
    StepDecl,
    Equation,
    Expr,
    PTuple,
    PUnit,
    PVar,
    PWild,
    Tuple,
    Value,
    Var,
    VClosure,
    VConst,
    VExtern,
    VNone,
    VSome,
    VTuple,
    VUndef,
    nesting,
)
from mimosa.builtins import BUILTIN_VALUES
from mimosa.errors import Located, Span
from mimosa.eval import Env
from mimosa.parser import tokenize
from mimosa.types import INT


def causal(text: str) -> set[str]:
    """The names an expression reads in the current cycle (`nesting().reads`)."""
    return nesting((parse_expression(text),)).reads[0]


def test_free_variables_delayed_under_pre():
    # A name read only under a `pre` is not causal.
    assert causal("0 -> pre x") == set()


def test_free_variables_operator_application():
    assert causal("x + y") == {"x", "y"}
    # An operator's symbol is no name, even among the functions; the prefix
    # `!` is an application of its builtin's name.
    assert nesting((parse_expression("x + y"),), {"+"}) == (3, set(), set(), False, ({"x", "y"},))
    assert causal("!x") == {"!", "x"}


def test_free_variables_constant():
    assert causal("42") == set()


def test_free_variables_causal_wins_over_delayed():
    assert causal("x + pre x") == {"x"}
    assert causal("pre (x + y) + y") == {"y"}


def test_free_variables_fby_right_arm_is_causal():
    # After one cycle `a fby e` rewrites to `e`, so e's references are
    # current-cycle references.
    assert causal("0 fby x") == {"x"}
    assert causal("0 -> x") == {"x"}
    assert causal("0 -> pre (1 fby x)") == set()


def reference_nesting(roots, names=()) -> tuple:
    """A plain recursive `nesting`, field by field, walking each root alone."""
    applied: set[str] = set()
    passed: set[str] = set()
    applies_value = False

    def walk(e, delayed: bool) -> int:
        nonlocal applies_value
        match e:
            case Var(name):
                if not delayed:
                    causal.add(name)
                if name in names:
                    passed.add(name)
                return 1
            case Const():
                return 1
            case Binary(_, left, right):  # the application and its operand pair
                return 2 + max(walk(left, delayed), walk(right, delayed))
            case Apply(Var(name), arg) if name in names:
                applied.add(name)
                if not delayed:
                    causal.add(name)
                return 1 + walk(arg, delayed)
            case Apply(fn, arg):
                applies_value = True
                return 1 + max(walk(fn, delayed), walk(arg, delayed))
            case Pre(inner):
                return 1 + walk(inner, True)
            case Some(inner):
                return 1 + walk(inner, delayed)
            case Tuple(items):
                return 1 + max([walk(i, delayed) for i in items])
            case Fby(first, rest) | Arrow(first, rest):
                return 1 + max(walk(first, delayed), walk(rest, delayed))
            case Either(scrutinee, fallback):
                return 1 + max(walk(scrutinee, delayed), walk(fallback, delayed))
            case If(cond, then, orelse):
                return 1 + max(walk(cond, delayed), walk(then, delayed), walk(orelse, delayed))
        raise AssertionError(e)

    depth = 0
    reads = []
    for root in roots:
        causal: set[str] = set()  # the one `walk` adds to
        depth = max(depth, walk(root, False))
        reads.append(causal)
    return (depth, applied | passed, passed, applies_value, tuple(reads))


NAME_SETS = [(), frozenset(BUILTIN_VALUES), frozenset(BUILTIN_VALUES) | {"i1", "b1", "x", "f"}, {"+", "i2", "y"}]


def nesting_trees(seed: int) -> list[tuple]:
    """Root lists: a generated expression, the same under `Some`, a tuple, a
    `pre` and an applied function value, and a generated equation system."""
    rng = random.Random(seed)
    e = gen_expr(rng, rng.choice(TOP_TYPES), rng.randrange(1, 7), False)
    wrapped = Apply(If(Var("b1"), Var("f"), Pre(Var("g"))), Tuple((Some(e), Pre(e), Var("i2"))))
    system = [eq.rhs for eq in gen_system(rng, rng.randrange(1, 4))]
    return [(e,), (wrapped,), tuple(system), (e, wrapped, *system), ()]


@pytest.mark.parametrize("seed", range(500))
def test_nesting_matches_the_recursive_reference(seed):
    for roots in nesting_trees(seed):
        for names in NAME_SETS:
            assert tuple(nesting(roots, names)) == reference_nesting(roots, names)


@pytest.mark.parametrize(
    "text, depth",
    [
        ("x + 1", 3),
        ("x + 1 + 1", 5),
        ("(x + 1) * (y - 2) / 3", 7),
        ("if pre (a + 1) < b then (0 -> pre (c * (d - 1))) else Some (x + 1) fby !(y && z)", 9),
    ],
)
def test_an_operator_nests_as_the_application_it_stands_for(text, depth):
    # Two levels per operator, as `Apply(Var(op), Tuple((l, r)))` takes, so
    # the expression and call depth limits accept the programs they did.
    e = parse_expression(text)
    assert nesting((e,)).depth == nesting((e,), set(BUILTIN_VALUES)).depth == depth
    assert nesting((e,)).depth == nesting((desugared(e),)).depth


def test_nesting_walks_a_deep_chain_without_recursion():
    # 20,000 levels, far past the interpreter's recursion limit. Only what the
    # outermost `pre` wraps is delayed, `x` among it.
    wrappers = (
        Pre,
        Some,
        lambda e: Apply(Var("f"), e),
        lambda e: Fby(Const(0), e),
        lambda e: Tuple((e, Var("y"))),
    )
    e = Var("x")
    for level in range(20_000):
        e = wrappers[level % 5](e)
    found = nesting((e,), {"f", "x"})
    assert found.depth == 20_001
    assert found.reads == ({"f", "y"},)
    assert found.mentioned == {"f", "x"}
    assert found.passed == {"x"}
    assert not found.applies_value


def test_equal_expr_identical():
    e = parse_expression("0 -> pre x")
    assert e == parse_expression("0 -> pre x")


def test_equal_expr_differs_on_literal():
    assert parse_expression("0 -> pre x") != parse_expression("1 -> pre x")


def test_equal_expr_differs_on_shape():
    assert parse_expression("pre x") != parse_expression("v -> pre x")


def test_equal_expr_ignores_spans():
    a = parse_expression("x + 1")
    b = parse_expression("  x    +   1  ")
    assert a is not b and a == b


def test_tuple_arity_is_checked():
    with pytest.raises(ValueError):
        Tuple((Const(1),))
    with pytest.raises(ValueError):
        PTuple((PVar("x"),))


def test_duplicate_pattern_names_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        PTuple((PVar("x"), PVar("x")))
    with pytest.raises(ValueError, match="duplicate"):
        PTuple((PVar("x"), PTuple((PVar("y"), PVar("x")))))
    # Wildcards never bind, so several are fine.
    PTuple((PWild(), PWild()))


def test_pattern_names_are_in_binding_order():
    nested = PTuple((PVar("a"), PTuple((PWild(), PVar("b"), PUnit())), PVar("c")))
    assert nested.names() == ["a", "b", "c"]
    assert PVar("x").names() == ["x"] and PWild().names() == [] and PUnit().names() == []


# Every production once, so each expression class is compared and hashed.
EVERY_PRODUCTION = "if c then (x fby 1, 0 -> pre x) else (None, either Some (f x) otherwise 2 + y)"


def nodes(root):
    """Every expression node and equation under `root`."""
    stack, out = [root], []
    while stack:
        e = stack.pop()
        out.append(e)
        for slot in type(e).__slots__:
            child = getattr(e, slot)
            if isinstance(child, (Expr, Equation)):
                stack.append(child)
            elif isinstance(child, tuple):
                stack.extend(c for c in child if isinstance(c, (Expr, Equation)))
    return out


def test_equality_and_hash_ignore_spans():
    assert Var("x", loc=Span(1, 1)) == Var("x")
    assert hash(Var("x", loc=Span(1, 1))) == hash(Var("x"))
    a = parse_expression(EVERY_PRODUCTION)
    b = parse_expression("\n\n   " + EVERY_PRODUCTION)
    assert a.span != b.span
    assert a == b and hash(a) == hash(b)
    assert {a: "found"}[b] == "found"
    kinds = {type(e).__name__ for e in nodes(a)}
    assert kinds >= {"If", "Tuple", "Fby", "Arrow", "Pre", "Either", "Some", "Apply", "Binary", "Var", "Const"}
    for e in nodes(a):
        assert not hasattr(e, "__dict__")


def test_values_are_structural_dict_keys():
    closure = VClosure(PVar("a"), PVar("z"), (Equation(PVar("z"), Var("a"), loc=Span(3, 4)),))
    values = [
        VConst(1),
        UNIT_VALUE,
        VTuple((VConst(1), VConst(False))),
        VNone(),
        VSome(VConst(2)),
        VUndef(),
        closure,
        BUILTIN_VALUES["+"],
    ]
    table = {v: i for i, v in enumerate(values)}
    assert len(table) == len(values)
    twins = [
        VConst(1),
        UNIT_VALUE,
        VTuple((VConst(1), VConst(False))),
        VNone(),
        VSome(VConst(2)),
        VUndef(),
        VClosure(PVar("a"), PVar("z"), (Equation(PVar("z"), Var("a")),)),
        VExtern("+", lambda v, ctx: v),  # the host function is not compared
    ]
    assert [table[v] for v in twins] == list(range(len(values)))
    for v in values:
        assert isinstance(v, Value) and not hasattr(v, "__dict__")


def test_deepcopy_of_a_rewritten_body_is_equal():
    program = parse_program(
        "step f (x : int) --> (y : int) { ps = 0 -> pre s; s = ps + x; p = 1 fby s * 2; y = if x > 0 then p else s }"
    )
    body = check_program(program, complete_network=False).ordered_equations["f"]
    env = Env(dict(BUILTIN_VALUES) | {"x": 3})
    for _ in range(3):
        body, _final = eval_equations(env, body)
        twin = copy.deepcopy(body)
        assert twin == body and hash(twin) == hash(body)
        assert all(a is not b for a, b in zip(nodes(twin[0]), nodes(body[0])))


def _step(loc) -> StepDecl:
    body = (Equation(PVar("y", None, loc), Var("x", loc), loc),)
    return StepDecl("f", PVar("x", None, loc), PVar("y", None, loc), body, loc)


def _host(v, ctx):
    return v


# One instance of each class of pattern, declaration, expression, equation
# and value, every located node in it made at the location given.
NODES = {
    PVar: lambda loc: PVar("x", INT, loc),
    PWild: lambda loc: PWild(None, loc),
    PUnit: lambda loc: PUnit(loc),
    PTuple: lambda loc: PTuple((PVar("a", None, loc), PTuple((PWild(None, loc), PUnit(loc)), loc)), loc),
    StepDecl: _step,
    ChannelDecl: lambda loc: ChannelDecl("c", INT, (1, -2), loc),
    PortRef: lambda loc: PortRef("c", True, loc),
    NodeDecl: lambda loc: NodeDecl("n", "f", (PortRef("c", False, loc),), (PortRef("d", True, loc),), 10_000, loc),
    Var: lambda loc: Var("x", loc),
    Const: lambda loc: Const(1, loc),
    Tuple: lambda loc: Tuple((Var("x", loc), Const(UNIT_VALUE, loc)), loc),
    Pre: lambda loc: Pre(Var("x", loc), loc),
    Fby: lambda loc: Fby(Const(0, loc), Var("x", loc), loc),
    Arrow: lambda loc: Arrow(Const(0, loc), Pre(Var("x", loc), loc), loc),
    Apply: lambda loc: Apply(Var("f", loc), Var("x", loc), loc),
    Binary: lambda loc: Binary(BUILTIN_VALUES["+"], Var("x", loc), Const(1, loc), loc),
    If: lambda loc: If(Var("c", loc), Var("x", loc), Var("y", loc), loc),
    Some: lambda loc: Some(Var("x", loc), loc),
    Either: lambda loc: Either(Var("o", loc), Const(2, loc), loc),
    Equation: lambda loc: Equation(PTuple((PVar("a", None, loc), PWild(None, loc)), loc), Var("x", loc), loc),
    VConst: lambda loc: VConst(1),
    VTuple: lambda loc: VTuple((1, VNone())),
    VNone: lambda loc: VNone(),
    VSome: lambda loc: VSome(True),
    VClosure: lambda loc: VClosure(PVar("x", None, loc), PVar("y", None, loc), _step(loc).equations),
    VExtern: lambda loc: VExtern("h", _host),
    VUndef: lambda loc: VUndef(),
}


def test_every_node_class_is_listed():
    classes = {c for c in vars(ast).values() if isinstance(c, type) and issubclass(c, (Located, Value))}
    assert {c for c in classes if dataclasses.is_dataclass(c)} == set(NODES)


@pytest.mark.parametrize("cls", NODES, ids=lambda cls: cls.__name__)
def test_slotted_and_equal_by_structure(cls):
    # Slotted all the way up: a base class without `__slots__ = ()` gives
    # every instance a `__dict__`.
    here, there = tokenize("x\n  y", "f.mim")[:2]
    a, b = NODES[cls](here), NODES[cls](there)
    assert type(a) is cls and not hasattr(a, "__dict__")
    # Two instances that differ only in where they were parsed are equal and hash equally.
    if isinstance(a, Located):
        assert a.span != b.span
    assert a == b and hash(a) == hash(b)
