import contextlib
import dataclasses
import random
from pathlib import Path

import pytest

from exprgen import (
    BASE_VALUES,
    COMPARISON_OPS,
    INC,
    INT_OPS,
    LOGIC_OPS,
    TOP_TYPES,
    as_application,
    base_env,
    desugared,
    gen_expr,
    gen_operator_expr,
    gen_system,
)
from mimosa import (
    CausalityError,
    InitError,
    NetworkError,
    TypeCheckError,
    check_initialization,
    check_network,
    check_program,
    infer_types,
    order_equations,
    parse_expression,
    parse_program,
)
from mimosa.analysis import _InitCheck, _Infer, _bind_init, _in_cycle, init_all, init_meet
from mimosa.ast import (
    Apply,
    Arrow,
    Binary,
    Const,
    Either,
    Equation,
    Expr,
    Fby,
    If,
    Pre,
    Program,
    PTuple,
    PUnit,
    PVar,
    Some,
    StepDecl,
    Tuple,
    Var,
    VNone,
    VSome,
    VTuple,
    VUndef,
    contains_undef,
    nesting,
)
from mimosa.builtins import BUILTIN_TYPES, BUILTIN_VALUES
from mimosa.errors import Diagnostic, InternalError, Span, span_of
from mimosa.eval import eval_equations
from mimosa.pretty import pretty_expr
from mimosa.types import BOOL, INT, REAL, UNIT, Scheme, TBase, TFunc, TOption, TTuple, Type, TVar, Unifier


def step_of(source: str) -> StepDecl:
    return parse_program(source).steps[0]


class TestTypes:
    def test_edge_detector_types(self, edge_program):
        schemes, _ = infer_types(edge_program)
        assert str(schemes["edge_detect"]) == "bool -> bool?"

    def test_fibonacci_types(self, fib_program):
        schemes, node_sigs = infer_types(fib_program)
        assert str(schemes["add"]) == "(int, int) -> int"
        assert str(schemes["split"]) == "'a -> ('a, 'a, 'a)"
        assert str(schemes["print_int"]) == "int -> unit"
        # Node wiring instantiates split at int.
        assert str(node_sigs["split"]) == "int -> (int, int, int)"

    def test_optional_port_requires_option_type(self):
        src = """
step f (x : bool) --> (y : bool) { y = x }
channel a : bool
channel b : bool
node n implements f (a) --> (b?) every 10ms
"""
        with pytest.raises(TypeCheckError):
            check_program(parse_program(src), complete_network=False)

    def test_optional_input_port_types_as_option(self):
        src = """
step f (x : bool?) --> (y : bool) { y = either x otherwise false }
channel a : bool
channel b : bool
node n implements f (a?) --> (b) every 10ms
"""
        _, node_sigs = infer_types(parse_program(src))
        assert str(node_sigs["n"]) == "bool? -> bool"

    def test_no_numeric_coercion(self):
        with pytest.raises(TypeCheckError):
            infer_types(parse_program("step f x --> y { y = x + 1.5 }"))

    def test_literal_defaults(self):
        schemes, _ = infer_types(parse_program("step f () --> y { y = 1 }"))
        assert str(schemes["f"]) == "unit -> int"
        schemes, _ = infer_types(parse_program("step f () --> y { y = 1.0 }"))
        assert str(schemes["f"]) == "unit -> real"

    def test_unknown_identifier(self):
        with pytest.raises(TypeCheckError, match="unknown identifier 'q'"):
            infer_types(parse_program("step f x --> y { y = q }"))

    @pytest.mark.parametrize("symbol, arg", [("!", Var("x")), ("+", Tuple((Var("x"), Var("x"))))])
    def test_a_builtin_is_no_name(self, symbol, arg):
        # An operator holds its builtin, so a tree that names one is rejected:
        # the run has no such name.
        body = (Equation(PVar("y"), Apply(Var(symbol), arg)),)
        program = Program((StepDecl("f", PVar("x"), PVar("y"), body),), (), ())
        with pytest.raises(TypeCheckError, match=f"unknown identifier '\\{symbol}'"):
            check_program(program, complete_network=False)

    def test_a_literal_builtin_has_its_scheme(self):
        body = (Equation(PVar("y"), Apply(Const(BUILTIN_VALUES["+"]), Tuple((Var("x"), Const(1))))),)
        schemes, _ = infer_types(Program((StepDecl("f", PVar("x"), PVar("y"), body),), (), ()))
        assert str(schemes["f"]) == "int -> int"

    def test_port_arity_mismatch(self):
        src = """
step f (x, y) --> z { z = x + y }
channel a : int
channel b : int
node n implements f (a) --> (b) every 10ms
"""
        with pytest.raises(TypeCheckError):
            infer_types(parse_program(src))

    def test_prototype_requires_annotations(self):
        with pytest.raises(TypeCheckError, match="annotation"):
            infer_types(parse_program("step ext x --> y"))

    def test_inference_is_deterministic(self, fib_program):
        first = {n: str(s) for n, s in infer_types(fib_program)[0].items()}
        second = {n: str(s) for n, s in infer_types(fib_program)[0].items()}
        assert first == second

    def test_either_scrutinee_must_be_option(self):
        with pytest.raises(TypeCheckError):
            infer_types(parse_program("step f (x : int) --> y { y = either x otherwise 0 }"))

    def test_channel_initial_values_match_element_type(self):
        src = """
step inc (v : int) --> (w : int) { w = v + 1 }
channel a : int = { true }
channel b : int
node n implements inc (a) --> (b) every 10ms
node m implements inc (b) --> (a) every 10ms
"""
        with pytest.raises(TypeCheckError, match="expected int, found bool") as info:
            check_program(parse_program(src))
        assert info.value.diagnostics[0].span.line == 3

    def test_monomorphic_scheme_instantiates_to_its_body(self):
        u = Unifier()
        plus, equal = BUILTIN_TYPES["+"], BUILTIN_TYPES["=="]
        assert u.instantiate(plus) is plus.body
        # A polymorphic scheme still gets fresh variables on every use.
        assert u.instantiate(equal) != u.instantiate(equal)

    def test_polymorphic_builtin_at_two_types_in_one_step(self):
        schemes, _ = infer_types(parse_program("step f (x : int, b : bool) --> y { y = (x == 1) == b }"))
        assert str(schemes["f"]) == "(int, bool) -> bool"

    def test_channel_initial_values_of_structured_types(self):
        src = """
channel a : (int, bool?) = { (1, None), (-2, Some true) }
channel b : real? = { None, Some 1.5 }
"""
        infer_types(parse_program(src))
        with pytest.raises(TypeCheckError):
            infer_types(parse_program("channel c : int? = { Some 1, 2 }"))


    def test_output_annotation_must_agree_with_the_body(self):
        with pytest.raises(TypeCheckError) as err:
            infer_types(parse_program("step f x --> (y : bool) { y = x + 1 }"))
        (diag,) = err.value.diagnostics
        assert (diag.message, str(diag.span)) == ("type mismatch: expected int, found bool", "1:15")


    def test_type_variable_names_count_the_operator_result(self):
        # Each operator application takes a result variable, typed in place
        # or not, so the variable in this message is still 'f.
        source = "step f (x : int) --> y { a = x + 1; b = a * 2; y = (b, None) fby Some a }"
        with pytest.raises(TypeCheckError) as err:
            check_program(parse_program(source, "f.mim"), file="f.mim")
        (diag,) = err.value.diagnostics
        assert diag.text() == "f.mim:1:52: error: type mismatch: expected (int, 'f?), found int?"
        assert diag.span == Span(1, 52, 1, 71)


FIRST_ORDER_STEPS = """
step g (x) --> y { y = x }
step same (a, b) --> y { y = a == b }
step app (f, x) --> y { y = f x == x }
"""


class TestPatternTypes:
    def test_a_wildcard_equation_and_a_unit_output_type_check(self):
        schemes, _ = infer_types(parse_program("step f (x : int) --> (y : int) { _ = x + 1; y = x }"))
        assert str(schemes["f"]) == "int -> int"
        schemes, _ = infer_types(parse_program("step g (x : int) --> () { () = () }"))
        assert str(schemes["g"]) == "int -> unit"


class TestFirstOrderComparison:
    """Compared values are first-order: a variable compared in a step stands
    only for types without a function in them."""

    def diagnostic(self, body: str):
        with pytest.raises(TypeCheckError) as err:
            infer_types(parse_program(FIRST_ORDER_STEPS + f"step h (x : int) --> y {{ y = {body} }}"))
        (diag,) = err.value.diagnostics
        return diag.message, str(diag.span)

    def test_comparing_step_values_is_rejected_at_the_comparison(self):
        message = "only first-order values can be compared, found "
        assert self.diagnostic("g == g") == (message + "'p -> 'p", "5:30")
        assert self.diagnostic("(g, x) < (g, x)") == (message + "('p -> 'p, int)", "5:30")

    def test_instantiating_a_compared_variable_with_a_step_is_rejected_at_the_call(self):
        message = "only first-order values can be compared, found "
        assert self.diagnostic("x == 1 && same (g, g)") == (message + "'r -> 'r", "5:40")
        # Through the argument of a higher-order step, too.
        assert self.diagnostic("app (g, g)") == (message + "'q -> 'q", "5:30")

    def test_first_order_uses_are_accepted(self):
        schemes, _ = infer_types(
            parse_program(FIRST_ORDER_STEPS + "step h (x : int) --> y { y = same ((x, Some 1), (1, None)) && app (g, x) }")
        )
        assert str(schemes["same"]) == "('a, 'a) -> bool" and schemes["same"].first_order == (0,)
        assert str(schemes["app"]) == "('a -> 'a, 'a) -> bool" and schemes["app"].first_order == (0,)
        assert schemes["g"].first_order == ()


class GeneralInfer(_Infer):
    """Types every application by unifying, operators included: the
    reference for the operators typed in place."""

    def expr(self, e, ctx, local):
        if type(e) is Binary:
            e = as_application(e)
        if type(e) is not Apply:
            return super().expr(e, ctx, local)
        tfn = self.expr(e.fn, ctx, local)
        targ = self.expr(e.arg, ctx, local)
        result = self.u.fresh()
        self.u.unify(tfn, TFunc(targ, result), e.loc)
        return result


OPERAND_VARIANTS = (
    Const(True),
    Tuple((Var("i1"), Var("b1"))),
    Const(VNone()),
    Var("g"),
    Var("v"),
)


def is_operator(e: Expr) -> bool:
    return type(e) is Binary


def operator_count(e: Expr) -> int:
    children = [getattr(e, f.name) for f in dataclasses.fields(e)]
    children = [c for v in children for c in (v if isinstance(v, tuple) else (v,)) if isinstance(c, Expr)]
    return is_operator(e) + sum(map(operator_count, children))


def replace_operand(e: Expr, k: int, side: int, new: Expr) -> tuple[Expr, int]:
    """`e` with operand `side` (0 or 1) of its k-th operator application, in
    preorder, replaced by `new`; and k less the applications passed."""
    if is_operator(e):
        if k == 0:
            return dataclasses.replace(e, **{("left", "right")[side]: new}), -1
        k -= 1
    changes = {}
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        if isinstance(value, Expr) and k >= 0:
            changes[f.name], k = replace_operand(value, k, side, new)
        elif isinstance(value, tuple) and k >= 0:
            items = []
            for item in value:
                if k >= 0:
                    item, k = replace_operand(item, k, side, new)
                items.append(item)
            changes[f.name] = tuple(items)
    return (dataclasses.replace(e, **changes) if changes else e), k


def typing_outcome(infer: type, e: Expr, untyped_ints: bool):
    """The scheme of `e` over the base names and a name `v` of unknown type,
    with the variables used; or the first diagnostic. If `untyped_ints`, the
    int names share one unknown type too, as unannotated inputs would."""
    inf = infer()
    ctx = dict(BUILTIN_TYPES) | {"g": inf.u.generalize(TFunc(inf.u.fresh(), TVar(0)))}
    local = {name: inf.literal_type(value) for name, value in BASE_VALUES.items()} | {"v": inf.u.fresh()}
    if untyped_ints:
        local["i1"] = local["i2"] = inf.u.fresh()
    try:
        t = inf.expr(e, ctx, local)
    except TypeCheckError as exc:
        (diag,) = exc.diagnostics
        return diag.text(), diag.span
    return inf.u.generalize(TTuple((local["v"], local["i1"], t))), inf.u._next


class TestOperatorTyping:
    """Operators typed in place against the general path: the same scheme,
    the same variable ids, or the same first diagnostic."""

    @pytest.mark.parametrize("seed", range(300))
    def test_matches_the_general_path(self, seed):
        rng = random.Random(seed)
        e = gen_operator_expr(rng, rng.randrange(1, 4), INT_OPS + COMPARISON_OPS + LOGIC_OPS)
        n = operator_count(e)
        cases = [e] + [replace_operand(e, rng.randrange(n), rng.randrange(2), new)[0] for new in OPERAND_VARIANTS]
        for case in cases:
            located = parse_expression(pretty_expr(case), "f.mim")
            untyped = seed % 2 == 1
            assert typing_outcome(_Infer, located, untyped) == typing_outcome(GeneralInfer, located, untyped)


# The type traversals as they were written before they shared one structural
# map, one match per function, kept as the reference for the shared one.


def reference_deep_resolve(u: Unifier, t: Type) -> Type:
    t = u.resolve(t)
    match t:
        case TOption(elem):
            return TOption(reference_deep_resolve(u, elem))
        case TTuple(items):
            return TTuple(tuple(reference_deep_resolve(u, i) for i in items))
        case TFunc(arg, result):
            return TFunc(reference_deep_resolve(u, arg), reference_deep_resolve(u, result))
        case _:
            return t


def reference_free_vars(u: Unifier, t: Type) -> set[int]:
    t = u.resolve(t)
    match t:
        case TVar(i):
            return {i}
        case TOption(elem):
            return reference_free_vars(u, elem)
        case TTuple(items):
            return set().union(*(reference_free_vars(u, i) for i in items))
        case TFunc(arg, result):
            return reference_free_vars(u, arg) | reference_free_vars(u, result)
        case _:
            return set()


def reference_instantiate(u: Unifier, scheme: Scheme) -> Type:
    if not scheme.vars:
        return scheme.body
    mapping = {v: u.fresh() for v in scheme.vars}

    def walk(t: Type) -> Type:
        match t:
            case TVar(i) if i in mapping:
                return mapping[i]
            case TOption(elem):
                return TOption(walk(elem))
            case TTuple(items):
                return TTuple(tuple(walk(i) for i in items))
            case TFunc(arg, result):
                return TFunc(walk(arg), walk(result))
            case _:
                return t

    return walk(scheme.body)


def reference_generalize(u: Unifier, t: Type) -> Scheme:
    t = reference_deep_resolve(u, t)
    order: list[int] = []

    def collect(t: Type):
        match t:
            case TVar(i):
                if i not in order:
                    order.append(i)
            case TOption(elem):
                collect(elem)
            case TTuple(items):
                for i in items:
                    collect(i)
            case TFunc(arg, result):
                collect(arg)
                collect(result)

    collect(t)
    mapping = {old: TVar(new) for new, old in enumerate(order)}

    def rename(t: Type) -> Type:
        match t:
            case TVar(i):
                return mapping[i]
            case TOption(elem):
                return TOption(rename(elem))
            case TTuple(items):
                return TTuple(tuple(rename(i) for i in items))
            case TFunc(arg, result):
                return TFunc(rename(arg), rename(result))
            case _:
                return t

    return Scheme(tuple(range(len(order))), rename(t))


VARIABLES = 12


def random_type(rng: random.Random, depth: int, lowest: int = 0) -> Type:
    """A type at most `depth` levels deep over variables `lowest` and up."""
    if depth == 1 or rng.random() < 0.25:
        if lowest < VARIABLES and rng.random() < 0.6:
            return TVar(rng.randrange(lowest, VARIABLES))
        return rng.choice([INT, BOOL, REAL, UNIT])
    kind = rng.randrange(3)
    if kind == 0:
        return TOption(random_type(rng, depth - 1, lowest))
    if kind == 1:
        return TTuple(tuple(random_type(rng, depth - 1, lowest) for _ in range(rng.randrange(2, 4))))
    return TFunc(random_type(rng, depth - 1, lowest), random_type(rng, depth - 1, lowest))


def random_unifier(rng: random.Random) -> Unifier:
    """A unifier that binds some variables, each to a type over higher-numbered
    ones only, so every chain of bindings ends."""
    u = Unifier()
    u._next = VARIABLES
    for v in range(VARIABLES - 1):
        if rng.random() < 0.5:
            u._subst[v] = random_type(rng, rng.randrange(1, 4), v + 1)
    return u


class TestTypeTraversal:
    @pytest.mark.parametrize("seed", range(300))
    def test_traversals_match_the_reference(self, seed):
        rng = random.Random(seed)
        u = random_unifier(rng)
        t = random_type(rng, rng.randrange(1, 9))
        assert u.deep_resolve(t) == reference_deep_resolve(u, t)
        scheme = u.generalize(t)
        want = reference_generalize(u, t)
        # The same variables in the same order, so the same printed scheme.
        assert scheme == want and str(scheme) == str(want)
        other = Unifier()
        other._next = u._next
        assert u.instantiate(scheme) == reference_instantiate(other, scheme)
        assert u._next == other._next

    @pytest.mark.parametrize("seed", range(300))
    def test_occurs_check_matches_the_reference(self, seed):
        rng = random.Random(seed)
        u = random_unifier(rng)
        unbound = [v for v in range(VARIABLES) if v not in u._subst]
        var, t = TVar(rng.choice(unbound)), random_type(rng, rng.randrange(1, 9))
        occurs = u.resolve(t) != var and var.id in reference_free_vars(u, t)
        try:
            u.unify(var, t, Span())
        except TypeCheckError as exc:
            assert occurs and exc.diagnostics[0].message.startswith("occurs check")
        else:
            assert not occurs

    def test_types_compare_and_hash_by_structure(self):
        assert TVar(3) == TVar(3) and TVar(3) is not TVar(3)
        assert {TVar(3): "a"}[TVar(3)] == "a"
        f1 = TFunc(TTuple((INT, TVar(0))), TOption(BOOL))
        f2 = TFunc(TTuple((INT, TVar(0))), TOption(BOOL))
        assert f1 is not f2 and len({f1, f2}) == 1
        assert TFunc(INT, BOOL) != TFunc(BOOL, INT) and TOption(INT) != TOption(REAL)
        assert not hasattr(f1, "__dict__")  # slotted

    @pytest.mark.parametrize("items", [(), (INT,)])
    def test_tuple_type_needs_two_items(self, items):
        with pytest.raises(ValueError, match="at least two components"):
            TTuple(items)

    def test_equal_base_types_unify(self):
        Unifier().unify(TBase("int"), INT, Span())  # equal, though not the same object

    def test_unifying_a_variable_with_itself_binds_nothing(self):
        u = Unifier()
        v = u.fresh()
        u.unify(v, v, Span())
        u.unify(v, TVar(v.id), Span())
        u.unify(TOption(v), TOption(TVar(v.id)), Span())
        assert u._subst == {}

    def test_unify_messages(self):
        u = Unifier()
        v = u.fresh()
        with pytest.raises(TypeCheckError) as err:
            u.unify(TOption(v), v, Span(1, 2, 1, 3))
        assert err.value.diagnostics[0].message == "occurs check: 'a in 'a?"
        with pytest.raises(TypeCheckError) as err:
            u.unify(TTuple((INT, BOOL)), TTuple((INT, BOOL, INT)), Span())
        assert err.value.diagnostics[0].message == "type mismatch: expected (int, bool), found (int, bool, int)"
        with pytest.raises(TypeCheckError) as err:
            u.unify(TFunc(INT, v), TFunc(REAL, BOOL), Span())
        assert err.value.diagnostics[0].message == "type mismatch: expected int, found real"
        assert u._subst == {}

    def test_shipped_programs_print_as_before(self):
        programs = Path(__file__).resolve().parent.parent / "programs"
        printed = {}
        for name in ("edge", "fib"):
            schemes, node_sigs = infer_types(parse_program((programs / f"{name}.mim").read_text()))
            printed[name] = ({n: str(s) for n, s in schemes.items()}, {n: str(s) for n, s in node_sigs.items()})
        assert printed == {
            "edge": (
                {"pin": "unit -> bool", "watch": "bool -> unit", "edge_detect": "bool -> bool?"},
                {"pin": "unit -> bool", "edge": "bool -> bool?", "watch": "bool -> unit"},
            ),
            "fib": (
                {"print_int": "int -> unit", "add": "(int, int) -> int", "split": "'a -> ('a, 'a, 'a)"},
                {"add": "(int, int) -> int", "split": "int -> (int, int, int)", "print": "int -> unit"},
            ),
        }


class TestCausality:
    def test_simple_dependency_ordering(self):
        step = step_of("step f () --> x { x = y + 1; y = 3 }")
        ordered = order_equations(step)
        assert [eq.lhs.names() for eq in ordered] == [["y"], ["x"]]

    def test_delayed_self_reference_is_fine(self):
        step = step_of("step f () --> x { x = 0 -> pre x }")
        assert len(order_equations(step)) == 1

    def test_undelayed_cycle_rejected(self):
        step = step_of("step f () --> x { x = y; y = x }")
        with pytest.raises(CausalityError) as err:
            order_equations(step)
        message = err.value.diagnostics[0].message
        assert "x" in message and "y" in message

    def test_undelayed_self_reference_rejected(self):
        with pytest.raises(CausalityError):
            order_equations(step_of("step f () --> x { x = x + 1 }"))

    def test_fby_right_arm_counts_as_causal(self):
        with pytest.raises(CausalityError):
            order_equations(step_of("step f () --> x { x = 0 fby x }"))

    def test_delayed_mutual_recursion_is_fine(self):
        step = step_of("step f () --> x { x = 0 -> pre y; y = 1 -> pre x }")
        assert len(order_equations(step)) == 2

    def test_order_preserves_equation_multiset(self):
        step = step_of("step f () --> x { x = y + z; z = y + 1; y = 3 }")
        ordered = order_equations(step)
        assert sorted(str(eq) for eq in ordered) == sorted(str(eq) for eq in step.equations)
        names = [eq.lhs.names()[0] for eq in ordered]
        assert names.index("y") < names.index("z") < names.index("x")


def round_order_equations(step: StepDecl, file: str = "<string>") -> tuple[Equation, ...]:
    """Reference for order_equations: each round emits, in index order, every
    equation whose dependencies all earlier rounds emitted."""
    equations = step.equations or ()
    bound = [set(eq.lhs.names()) for eq in equations]
    owner = {n: i for i, names in enumerate(bound) for n in names}
    deps: list[set[int]] = [set() for _ in equations]
    for i, eq in enumerate(equations):
        for name in sorted(nesting((eq.rhs,)).reads[0] & owner.keys()):
            if owner[name] == i:
                raise CausalityError(
                    [Diagnostic(f"equation for '{name}' depends on itself without a pre", eq.span, file=file)]
                )
            deps[i].add(owner[name])
    remaining = set(range(len(equations)))
    emitted: list[int] = []
    while remaining:
        ready = sorted(i for i in remaining if deps[i] <= set(emitted))
        if not ready:
            cycle_names = sorted(n for i in remaining for n in bound[i] if _in_cycle(i, deps, remaining))
            names = ", ".join(cycle_names) or "equations"
            span = equations[min(remaining)].span
            raise CausalityError(
                [Diagnostic(f"causality cycle through {{{names}}} (no pre breaks it)", span, file=file)]
            )
        for i in ready:
            emitted.append(i)
            remaining.discard(i)
    return tuple(equations[i] for i in emitted)


def rewrite(e: Expr, names: dict[str, str | Expr], keep_pre: bool = True) -> Expr:
    """`e` with its variables renamed by `names`, or replaced where `names`
    maps one to an expression, and without its `pre`s unless `keep_pre`,
    which turns the delayed references into causal ones."""
    if isinstance(e, Var):
        new = names.get(e.name, e.name)
        return new if isinstance(new, Expr) else Var(new)
    if isinstance(e, Pre) and not keep_pre:
        return rewrite(e.expr, names, keep_pre)
    changes = {}
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        if isinstance(value, Expr):
            changes[f.name] = rewrite(value, names, keep_pre)
        elif isinstance(value, tuple) and f.name != "loc":
            changes[f.name] = tuple(rewrite(v, names, keep_pre) for v in value)
    return dataclasses.replace(e, **changes)


def ordering_outcome(order, step: StepDecl):
    try:
        return [eq.span for eq in order(step)]
    except CausalityError as exc:
        return exc.diagnostics


class TestOrderingMatchesRounds:
    """order_equations against the round-based reference on two generated
    systems, the second renamed (x to X and so on) and reading the first's
    output where it read the input i0: longer chains, and ties within a
    round. Then the same without their `pre`s and with the first also
    reading the second's output: 165 of the 300 are cyclic."""

    @pytest.mark.parametrize("seed", range(300))
    def test_same_order_and_same_diagnostic(self, seed):
        rng = random.Random(seed)
        first = gen_system(rng, rng.randrange(1, 4))
        second = gen_system(rng, rng.randrange(1, 4))
        upper = {name: name.upper() for name in "xyz"}
        first_out, second_out = first[0].lhs.name, upper[second[0].lhs.name]
        for keep_pre in (True, False):
            system = [
                Equation(eq.lhs, rewrite(eq.rhs, {} if keep_pre else {"i0": second_out}, keep_pre))
                for eq in first
            ] + [
                Equation(PVar(upper[eq.lhs.name]), rewrite(eq.rhs, upper | {"i0": first_out}, keep_pre))
                for eq in second
            ]
            random.Random(seed).shuffle(system)
            # Distinct spans, so a diagnostic's span names the equation it cites.
            located = tuple(
                Equation(eq.lhs, eq.rhs, loc=Span(k + 1, 1, k + 1, 1)) for k, eq in enumerate(system)
            )
            step = StepDecl("s", PUnit(), PVar(located[0].lhs.name), located)
            assert ordering_outcome(order_equations, step) == ordering_outcome(round_order_equations, step)


def outcome(check):
    try:
        return check()
    except InitError as exc:
        return exc.diagnostics[0].message


class TwoPassInitCheck:
    """The initialization checker before it became one pass: with
    `check=False` a status skips every `pre` operand, with `check=True` it
    walks everything and raises at the first failure, in post-order."""

    def __init__(self, statuses: dict):
        self.statuses = statuses

    def _fail(self, message: str, span: Span):
        raise InitError([Diagnostic(message, span)])

    def _require(self, t, span: Span, what: str):
        if not init_all(t):
            self._fail(f"{what} may be undefined on some cycle", span)

    def status(self, e: Expr, check: bool):
        match e:
            case Var(name):
                return self.statuses.get(name, True)
            case Const(value):
                return not contains_undef(value)
            case Pre(inner):
                if check and not init_all(self.status(inner, check)):
                    self._fail("operand of pre may be undefined on the first cycle", inner.span)
                return False
            case Tuple(items):
                return tuple(self.status(i, check) for i in items)
            case Fby(first, rest):
                s1 = self.status(first, check)
                s2 = self.status(rest, check)
                if check:
                    self._require(s1, first.span, "left operand of fby")
                    self._require(s2, rest.span, "right operand of fby")
                return True
            case Arrow(first, rest):
                s1 = self.status(first, check)
                self.status(rest, check)
                if check:
                    self._require(s1, first.span, "left operand of ->")
                return s1
            case If(cond, then, orelse):
                sc = self.status(cond, check)
                st = self.status(then, check)
                so = self.status(orelse, check)
                if check:
                    self._require(sc, cond.span, "if condition")
                return init_meet(st, so)
            case Some(inner):
                return self.status(inner, check)
            case Either(scrutinee, fallback):
                ss = self.status(scrutinee, check)
                sf = self.status(fallback, check)
                if check:
                    self._require(ss, scrutinee.span, "either scrutinee")
                return sf
            case Binary():
                return self.status(as_application(e), check)
            case Apply(fn, arg):
                sf = self.status(fn, check)
                sa = self.status(arg, check)
                if check:
                    self._require(sf, fn.span, "applied step")
                    self._require(sa, arg.span, "step argument")
                return True


def two_pass_initialization(step: StepDecl, ordered) -> dict:
    """Reference for check_initialization's diagnostics: bind every status in
    causal order, then check every equation in causal order."""
    statuses: dict = {name: True for name in step.in_pattern.names()}
    checker = TwoPassInitCheck(statuses)
    for eq in ordered:
        _bind_init(statuses, eq.lhs, checker.status(eq.rhs, check=False))
    for eq in ordered:
        checker.status(eq.rhs, check=True)
    for name in step.out_pattern.names():
        if not init_all(statuses[name]):
            message = f"step output '{name}' may be undefined on the first cycle"
            raise InitError([Diagnostic(message, step.out_pattern.span)])
    return statuses


def fixpoint_initialization(step: StepDecl, ordered) -> dict:
    """Oracle for check_initialization: iterate the statuses in declaration
    order from all-initialized down to the greatest fixpoint, then check."""
    statuses: dict = {name: True for name in step.in_pattern.names()}
    for eq in step.equations:
        _bind_init(statuses, eq.lhs, True)
    checker = TwoPassInitCheck(statuses)
    while True:
        before = dict(statuses)
        for eq in step.equations:
            _bind_init(statuses, eq.lhs, checker.status(eq.rhs, check=False))
        if statuses == before:
            break
    for eq in ordered:
        checker.status(eq.rhs, check=True)
    for name in step.out_pattern.names():
        if not init_all(statuses[name]):
            raise InitError([Diagnostic(f"step output '{name}' may be undefined on the first cycle")])
    return statuses


def located_step(seed: int) -> StepDecl:
    """A generated equation system and generated expressions over the base
    names, printed and parsed back so every subexpression has a span."""
    rng = random.Random(seed)
    system = gen_system(rng, rng.randrange(1, 4))
    equations = system[1:] + [
        Equation(PVar(f"e{k}"), sprinkle_pre(rng, gen_expr(rng, rng.choice(TOP_TYPES), rng.randrange(1, 5), False)))
        for k in range(rng.randrange(0, 3))
    ]
    rng.shuffle(equations)
    body = ";\n".join(f"  {eq.lhs.name} = {pretty_expr(eq.rhs)}" for eq in [system[0], *equations])
    inputs = ", ".join(["i0", *BASE_VALUES])
    return step_of(f"step s ({inputs}) --> {system[0].lhs.name} {{\n{body}\n}}")


def sprinkle_pre(rng: random.Random, e: Expr) -> Expr:
    """`e` with about one subexpression in seven, applied functions and
    operator arguments aside, under a `pre`: many guarded positions then fail."""
    changes = {}
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        if isinstance(value, Expr) and f.name != "fn":
            changes[f.name] = sprinkle_pre(rng, value)
        elif isinstance(value, tuple):
            changes[f.name] = tuple(sprinkle_pre(rng, item) for item in value)
    e = dataclasses.replace(e, **changes) if changes else e
    return Pre(e) if type(e) is not Tuple and rng.random() < 0.15 else e


def located_outcome(check):
    try:
        return check()
    except InitError as exc:
        return [(d.message, d.span) for d in exc.diagnostics]


def two_pass_failures(step: StepDecl, e: Expr) -> list[str]:
    """Every guarded position of `e` that fails, with all statuses bound."""
    statuses = {name: True for name in step.in_pattern.names()}
    checker = TwoPassInitCheck(statuses)
    for eq in order_equations(step):
        _bind_init(statuses, eq.lhs, checker.status(eq.rhs, check=False))
    failures = []

    def fail(message, span):
        failures.append(message)

    checker._fail = fail
    checker.status(e, check=True)
    return failures


def in_place_step(*applications: str) -> StepDecl:
    """A step whose `a1`, `a2`, ... are `applications`, over `u`, undefined
    on the first cycle; `p`, a pair whose first item is undefined then; `q`,
    a defined pair; and the step values `f` and `g`, defined, and `h`, not."""
    names = "u = pre x;\n  p = (pre x, x);\n  q = (x, 0 -> pre x);\n  g = f -> pre f;\n  h = pre f"
    body = ";\n  ".join([names] + [f"a{k} = {text}" for k, text in enumerate(applications, 1)] + ["y = x"])
    return step_of(f"step s (x : int, f) --> y {{\n  {body}\n}}")


def first_failure_of_all_three(step: StepDecl):
    """check_initialization's outcome, which both oracles must give too: the
    two-pass one with its spans, the fixpoint one by message."""
    ordered = order_equations(step)
    first = located_outcome(lambda: check_initialization(step, ordered))
    assert first == located_outcome(lambda: two_pass_initialization(step, ordered))
    assert outcome(lambda: check_initialization(step, ordered)) == outcome(
        lambda: fixpoint_initialization(step, ordered)
    )
    return first


def gen_in_place_applications(rng: random.Random) -> list[str]:
    """Two to four applications whose applied name, argument and operand-pair
    items are each a defined leaf or step value, a `pre`, an undefined name,
    `p` (whose pair has an undefined item), or a nested application, now and
    then under a `pre`, which defers it."""

    def operand(depth: int) -> str:
        roll = rng.random()
        if depth > 0 and roll < 0.2:
            return f"({application(depth - 1)})" if roll < 0.15 else f"pre ({application(depth - 1)})"
        return rng.choice(("pre x", "u", "p") if roll < 0.55 else ("x", "1", "q", "0 -> pre x"))

    def application(depth: int) -> str:
        roll = rng.random()
        if roll < 0.3:
            return f"({operand(depth)}) + ({operand(depth)})"
        fn = rng.choice(("f", "g", "(0 -> pre f)") if rng.random() < 0.5 else ("(pre f)", "h", "u", "p"))
        if roll < 0.65:
            return f"{fn} (({operand(depth)}), ({operand(depth)}))"
        return f"{fn} ({operand(depth)})"

    return [application(2) for _ in range(rng.randrange(2, 5))]


class TestInitialization:
    def check(self, source: str):
        step = step_of(source)
        return check_initialization(step, order_equations(step))

    def test_nested_pre_without_arrow_rejected(self):
        with pytest.raises(InitError) as err:
            self.check("step f (x : int) --> y { y = 0 -> 0 -> pre pre x }")
        assert "pre" in err.value.diagnostics[0].message

    def test_alternating_arrow_pre_accepted(self):
        statuses = self.check("step f (x : int) --> y { y = 0 -> pre (0 -> pre x) }")
        assert statuses["y"] is True

    def test_pre_as_output_rejected(self):
        with pytest.raises(InitError):
            self.check("step f (x : int) --> y { y = pre x }")

    def test_diagnostic_cites_the_inner_pre(self):
        with pytest.raises(InitError) as err:
            check_program(
                parse_program("step f (x : int) --> y { y = 0 -> 0 -> pre pre x }"),
                complete_network=False,
            )
        diag = err.value.diagnostics[0]
        # The offending operand is the inner `pre pre x` starts at col 38.
        assert diag.span.line == 1
        assert "first cycle" in diag.message

    def test_fby_requires_both_sides_initialized(self):
        with pytest.raises(InitError):
            self.check("step f (x : int) --> y { y = 0 fby pre x }")
        assert self.check("step f (x : int) --> y { y = 0 fby (1 -> pre x) }")["y"] is True

    def test_if_branches_checked_independently(self):
        with pytest.raises(InitError):
            self.check("step f (c : bool, x : int) --> y { y = if c then 0 else pre x }")
        ok = self.check(
            "step f (c : bool, x : int) --> y { y = if c then (0 -> pre x) else (1 -> pre x) }"
        )
        assert ok["y"] is True

    def test_if_condition_must_be_initialized(self):
        with pytest.raises(InitError):
            self.check("step f (c : bool) --> y { y = if pre c then 1 else 2 }")

    def test_apply_arguments_must_be_initialized(self):
        with pytest.raises(InitError):
            self.check("step f (x : int) --> y { y = 0 -> pre x + 1 }")
        assert self.check("step f (x : int) --> y { y = (0 -> pre x) + 1 }")["y"] is True

    def test_either_scrutinee_must_be_initialized(self):
        with pytest.raises(InitError):
            self.check("step f (o : int?) --> y { y = either pre o otherwise 0 }")

    def test_either_result_takes_fallback_status(self):
        statuses = self.check("step f (o : int?, x : int) --> (y) { z = either o otherwise pre x; y = 0 -> z }")
        assert statuses["z"] is False and statuses["y"] is True

    def test_an_undefined_option_payload_is_undefined(self):
        # A literal as `pre`'s rewriting embeds it, `Some` of the undefined value.
        step = StepDecl("f", PUnit(), PVar("y"), (Equation(PVar("y"), Const(VSome(VUndef()))),))
        with pytest.raises(InitError, match="step output 'y' may be undefined"):
            check_initialization(step, step.equations)

    def test_tuple_statuses_are_pointwise(self):
        step = step_of("step f (x : int) --> y { a, b = (pre x, 0); y = 0 -> a + b }")
        with pytest.raises(InitError):
            # `a + b` uses `a`, which is uninitialized.
            check_initialization(step, order_equations(step))
        statuses = self.check("step f (x : int) --> y { a, b = (pre x, 0); y = (0 -> a) + b }")
        assert statuses["a"] is False and statuses["b"] is True

    @pytest.mark.parametrize("seed", range(200))
    def test_single_pass_matches_fixpoint(self, seed):
        rng = random.Random(seed)
        equations = gen_system(rng, rng.randrange(1, 4))
        step = StepDecl("s", PUnit(), PVar(equations[0].lhs.names()[0]), tuple(equations))
        try:
            ordered = order_equations(step)
        except CausalityError:
            return
        assert outcome(lambda: check_initialization(step, ordered)) == outcome(
            lambda: fixpoint_initialization(step, ordered)
        )

    def test_generated_systems_are_causal(self):
        # The seeded tests over gen_system skip non-causal systems, so most
        # of their seeds must draw causal ones.
        causal = 0
        for seed in range(200):
            rng = random.Random(seed)
            equations = gen_system(rng, rng.randrange(1, 4))
            step = StepDecl("s", PUnit(), PVar(equations[0].lhs.names()[0]), tuple(equations))
            try:
                order_equations(step)
            except CausalityError:
                continue
            causal += 1
        assert causal >= 180

    # A bad `pre` operand and a bad `if` condition in two equations, each
    # order, and in one equation: the first diagnostic is the one the
    # two-pass checker raised, message and span.
    @pytest.mark.parametrize(
        "body, message, span",
        [
            (
                "a = 0 -> pre (pre x);\n  b = if pre c then 1 else 2;\n  y = a + b",
                "operand of pre may be undefined on the first cycle",
                Span(2, 17, 2, 21),
            ),
            (
                "b = if pre c then 1 else 2;\n  a = 0 -> pre (pre x);\n  y = a + b",
                "if condition may be undefined on some cycle",
                Span(2, 10, 2, 14),
            ),
            (
                # Declared first, but it reads `a`, so it is checked second.
                "y = a + b;\n  b = if pre c then a else 2;\n  a = 0 -> pre (pre x)",
                "operand of pre may be undefined on the first cycle",
                Span(4, 17, 4, 21),
            ),
            (
                "y = if pre c then (0 -> pre (pre x)) else 2",
                "operand of pre may be undefined on the first cycle",
                Span(2, 32, 2, 36),
            ),
            (
                "y = if pre c then (0 -> pre (pre x)) else 2 fby pre x",
                "operand of pre may be undefined on the first cycle",
                Span(2, 32, 2, 36),
            ),
            (
                "y = if pre (pre c) then 1 else 2",
                "operand of pre may be undefined on the first cycle",
                Span(2, 15, 2, 19),
            ),
        ],
    )
    def test_first_diagnostic_is_the_two_pass_one(self, body, message, span):
        step = step_of(f"step f (x : int, c : bool) --> y {{\n  {body}\n}}")
        ordered = order_equations(step)
        for check in (check_initialization, two_pass_initialization):
            with pytest.raises(InitError) as err:
                check(step, ordered)
            (diag,) = err.value.diagnostics
            assert (diag.message, diag.span) == (message, span)

    @pytest.mark.parametrize("seed", range(300))
    def test_first_diagnostic_matches_two_passes(self, seed):
        step = located_step(seed)
        try:
            ordered = order_equations(step)
        except CausalityError:
            return
        assert located_outcome(lambda: check_initialization(step, ordered)) == located_outcome(
            lambda: two_pass_initialization(step, ordered)
        )

    def test_located_steps_fail_in_several_places(self):
        # The comparison above is only as strong as the number of steps with
        # more than one failure to choose among.
        several = 0
        for seed in range(300):
            step = located_step(seed)
            try:
                order_equations(step)
            except CausalityError:
                continue
            if sum(len(two_pass_failures(step, eq.rhs)) for eq in step.equations) > 1:
                several += 1
        assert several >= 80

    @pytest.mark.parametrize("position", ["({}) x", "f ({})", "f (({}), 1)", "x + ({})"])
    @pytest.mark.parametrize("undefined", ["pre x", "u", "p", "z"])
    def test_undefined_in_each_position_read_in_place(self, position, undefined):
        # The applied name, the argument and each item of an operand pair:
        # a `pre`, an undefined name, a name whose pair has an undefined
        # item, and a literal pair with an undefined item, which no source
        # text spells.
        step = in_place_step(position.format(undefined))
        literal = Const(VTuple((VUndef(), 1)))
        step = dataclasses.replace(
            step, equations=tuple(dataclasses.replace(eq, rhs=rewrite(eq.rhs, {"z": literal})) for eq in step.equations)
        )
        what = "applied step" if position.startswith("({})") else "step argument"
        [(message, _span)] = first_failure_of_all_three(step)
        assert message == f"{what} may be undefined on some cycle"

    @pytest.mark.parametrize("seed", range(300))
    def test_in_place_positions_match_both_oracles(self, seed):
        first_failure_of_all_three(in_place_step(*gen_in_place_applications(random.Random(seed))))

    @pytest.mark.parametrize(
        "body, message, cited",
        [
            ("y = if pre x > 0 then (pre x) * 2 else 0", "step argument", "pre x > 0"),
            ("a = x + (0 -> pre x); y = (pre a) fby (a - pre x)", "step argument", "a - pre x"),
            ("y = either (pre o) otherwise (pre x + 1)", "step argument", "pre x + 1"),
            ("y = if pre c then pre x + 1 else 0", "step argument", "pre x + 1"),
            ("y = (pre x fby 1) + pre x", "left operand of fby", "pre x"),
            ("y = 0 -> pre (pre x + 1) * (pre x)", "step argument", "pre x + 1"),
        ],
    )
    def test_an_operator_fails_where_its_application_did(self, body, message, cited):
        # An operator's operands and a later requirement both fail: the first
        # failure is the one the application of its builtin to the operand
        # pair gave, at the same position and span.
        source = f"step f (x : int, c : bool, o : int?) --> (y : int) {{ {body} }}"
        with pytest.raises(InitError) as err:
            check_program(parse_program(source, "f.mim"), complete_network=False)
        (diag,) = err.value.diagnostics
        assert diag.message == f"{message} may be undefined on some cycle"
        assert diag.span.line == diag.span.end_line == 1
        assert source[diag.span.col - 1 : diag.span.end_col] == cited

    @pytest.mark.parametrize("seed", range(100))
    def test_an_operator_takes_the_positions_of_its_application(self, seed):
        # The statuses of `in_place_step`'s names; each generated expression
        # and its operators written as applications give the same status,
        # positions and failures, `pre` operands included.
        statuses = {"x": True, "u": False, "p": (False, True), "q": (True, True), "f": True, "g": True, "h": False}

        def walk(e):
            checker = _InitCheck(dict(statuses))
            status = checker.status(e)
            count = checker.count
            with contextlib.suppress(InitError):
                checker.finish()
            return status, count, [(position, message, span_of(loc)) for position, message, loc in checker.failures]

        for text in gen_in_place_applications(random.Random(seed)):
            e = parse_expression(text, "f.mim")
            assert walk(e) == walk(desugared(e))

    def test_in_place_steps_fail_in_several_places(self):
        # Both messages of an application are among the failures, and most
        # steps have more than one failure to choose among.
        failures = [
            [m for eq in step.equations for m in two_pass_failures(step, eq.rhs)]
            for step in (in_place_step(*gen_in_place_applications(random.Random(seed))) for seed in range(300))
        ]
        assert sum(len(f) > 1 for f in failures) >= 150
        messages = {m for f in failures for m in f}
        assert {"applied step may be undefined on some cycle", "step argument may be undefined on some cycle"} <= messages

    def test_applied_step_must_be_initialized(self):
        for body in ("y = (pre f) x", "g = pre f; y = g x", "y = (if c then f else pre f) x"):
            with pytest.raises(InitError, match="applied step may be undefined on some cycle"):
                self.check(f"step app (f, x, c) --> y {{ {body} }}")
        assert self.check("step app (f, x) --> y { y = (inc -> pre f) x }")["y"] is True

    def test_lattice_helpers(self):
        assert init_meet(True, True) is True
        assert init_meet(True, (True, False)) == (True, False)

    def test_tuple_statuses_meet_pointwise_in_a_program(self):
        g = "step g (u : int) --> (p : int, q : int)\n"
        for body in ("y = if u > 0 then (u, pre u) else g u", "y = if u > 0 then (u, pre u) else (pre u, u)"):
            with pytest.raises(InitError, match="step output 'y' may be undefined on the first cycle"):
                check_program(parse_program(g + f"step f (u : int) --> y {{ {body} }}\n"))
        check_program(parse_program(g + "step f (u : int) --> (a, b) { a, b = g u }\n"))

    def test_mismatched_shapes_are_internal_errors(self):
        # Type inference rejects them before the initialization check runs.
        with pytest.raises(InternalError, match="initialization shapes disagree"):
            init_meet((True, False), (True, True, True))
        with pytest.raises(InternalError, match="initialization shapes disagree with pattern"):
            _bind_init({}, PTuple((PVar("a"), PVar("b"))), (True, True, True))


class TestNetwork:
    def test_fibonacci_wiring(self, fib_program):
        info = check_network(fib_program)
        assert info.channel_writer["b"] == "add"
        assert info.channel_reader["b"] == "split"
        assert info.channel_writer["a"] == "split"
        assert info.channel_reader["a"] == "add"

    def test_double_writer_rejected(self):
        src = """
step f () --> (y : int)
channel a : int
node n1 implements f () --> (a) every 10ms
node n2 implements f () --> (a) every 10ms
"""
        with pytest.raises(NetworkError, match="already written"):
            check_network(parse_program(src), complete=False)

    def test_mutual_recursion_rejected(self):
        src = "step f x --> y { y = g x }\nstep g x --> y { y = f x }"
        with pytest.raises(NetworkError, match="recursive steps"):
            check_network(parse_program(src))

    def test_self_recursion_rejected(self):
        with pytest.raises(NetworkError, match="recursive steps"):
            check_network(parse_program("step f x --> y { y = f x }"))

    def test_forward_reference_between_steps_is_fine(self):
        src = "step f x --> y { y = g x }\nstep g x --> y { y = x }"
        info = check_network(parse_program(src))
        assert info.step_order.index("g") < info.step_order.index("f")

    def test_dangling_channel_reported_when_complete(self, edge_program):
        with pytest.raises(NetworkError, match="no (writing|reading) node"):
            check_network(edge_program, complete=True)
        check_network(edge_program, complete=False)

    def test_unknown_step_and_channel(self):
        src = "channel a : int\nnode n implements nosuch (missing) --> (a) every 10ms"
        with pytest.raises(NetworkError) as err:
            check_network(parse_program(src), complete=False)
        messages = " ".join(d.message for d in err.value.diagnostics)
        assert "nosuch" in messages and "missing" in messages

    def test_locals_may_not_shadow_steps_or_builtins(self):
        with pytest.raises(NetworkError, match="shadows"):
            check_network(parse_program("step f x --> y { y = 1; f = 2 }"), complete=False)

    def test_rebinding_a_name_rejected(self):
        with pytest.raises(NetworkError, match="more than once"):
            check_network(parse_program("step f x --> y { y = 1; y = 2 }"), complete=False)

    def test_wildcard_output_rejected(self):
        with pytest.raises(NetworkError, match="output pattern"):
            check_network(parse_program("step f x --> (y, _) { y = x }"), complete=False)

    def test_function_typed_channels_rejected(self):
        # No syntax constructs a function channel type, so drive the check
        # directly through the AST.
        from mimosa.ast import ChannelDecl, Program
        from mimosa.types import INT, TFunc

        program = Program((), (ChannelDecl("a", TFunc(INT, INT), ()),), ())
        with pytest.raises(NetworkError, match="first-order"):
            check_network(program, complete=False)


class TestGoldenPrograms:
    def test_example_programs_fully_check(self, fib_program, edge_program):
        check_program(fib_program)  # complete network
        check_program(edge_program, complete_network=False)

    def test_checked_program_carries_ordered_equations(self, fib_checked):
        assert set(fib_checked.ordered_equations) == {"add", "split"}
        assert "print_int" not in fib_checked.ordered_equations


def shuffled_chain(seed: int, length: int = 40) -> str:
    """A step whose equations each read earlier ones, in several of the
    forms the `deep` benchmark mixes, declared in a shuffled order."""
    rng = random.Random(seed)
    forms = [
        "x{p} + {c}",
        "0 -> pre x{j}",
        "{c} fby (x{p} - x{j})",
        "if x{p} > {c} then x{j} else {c}",
        "mix (x{p}, x{j})",
        "pre x{k}",
    ]
    equations = ["x0 = u"]
    for k in range(1, length + 1):
        form = forms[0] if k < 2 else rng.choice(forms)
        rhs = form.format(p=k - 1, j=rng.randrange(k), k=min(k + 1, length), c=rng.randint(1, 9))
        equations.append(f"x{k} = {'0 -> ' + rhs if form.startswith('pre') else rhs}")
    equations.append(f"y = x{length}")
    rng.shuffle(equations)
    return (
        "step mix (a, b) --> r { r = a + b }\n"
        f"step chain (u : int) --> (y : int) {{ {'; '.join(equations)} }}\n"
    )


class TestSharedWalk:
    """`check_program` orders each step's equations from the walks
    `check_network` records; `order_equations` alone walks them itself."""

    def assert_stored_order_is_standalone(self, program):
        checked = check_program(program, complete_network=False)
        bodied = [s for s in program.steps if not s.is_prototype]
        assert set(checked.ordered_equations) == {s.name for s in bodied}
        for step in bodied:
            alone = order_equations(step)
            assert checked.ordered_equations[step.name] == alone
            assert all(a is b for a, b in zip(checked.ordered_equations[step.name], alone))

    @pytest.mark.parametrize("path", sorted((Path(__file__).resolve().parent.parent / "programs").glob("*.mim")))
    def test_shipped_programs(self, path):
        self.assert_stored_order_is_standalone(parse_program(path.read_text()))

    @pytest.mark.parametrize("seed", range(20))
    def test_shuffled_chains(self, seed):
        program = parse_program(shuffled_chain(seed))
        self.assert_stored_order_is_standalone(program)
        ordered = check_program(program, complete_network=False).ordered_equations["chain"]
        position = {eq.lhs.name: i for i, eq in enumerate(ordered)}
        reads = [(position[n], i) for i, eq in enumerate(ordered) for n in nesting((eq.rhs,)).reads[0] & position.keys()]
        assert reads and all(j < i for j, i in reads)
        assert [eq.lhs.name for eq in ordered] != [eq.lhs.name for eq in program.step("chain").equations]

    @pytest.mark.parametrize("seed", range(200))
    def test_recorded_walks_order_like_fresh_ones(self, seed):
        # Causality errors included: the same order or the same diagnostic.
        rng = random.Random(seed)
        equations = gen_system(rng, rng.randrange(1, 4))
        step = StepDecl("s", PUnit(), PVar(equations[0].lhs.names()[0]), tuple(equations))
        info = check_network(Program((step,), (), ()), complete=False)
        recorded, binds = info.causal_reads["s"], info.bound_names["s"]
        assert recorded == tuple(nesting((eq.rhs,)).reads[0] for eq in equations)
        assert binds == tuple(eq.lhs.names() for eq in equations)
        fresh = ordering_outcome(order_equations, step)
        assert ordering_outcome(lambda st: order_equations(st, recorded, binds), step) == fresh


class TestInitSoundness:
    """Randomized cross-check: whatever the analysis accepts never produces an
    undefined value at a step output when actually evaluated."""

    @pytest.mark.parametrize("seed", range(300))
    def test_accepted_steps_never_emit_undef(self, seed):
        rng = random.Random(seed)
        ty = rng.choice((INT, BOOL))
        # Deliberately allow uninitialized shapes; analysis decides.
        body = gen_expr(rng, ty, depth=rng.randrange(1, 4), need_init=False)
        helper = gen_expr(rng, INT, depth=2, need_init=False)
        step = StepDecl(
            "s",
            PVar("i1"),
            PVar("out"),
            (Equation(PVar("h"), helper), Equation(PVar("out"), body)),
        )
        try:
            ordered = order_equations(step)
            check_initialization(step, ordered)
        except (CausalityError, InitError):
            return  # rejection is always sound
        eqs = ordered
        for _ in range(8):
            eqs, env = eval_equations(base_env(), eqs)
            assert not contains_undef(env["out"]), "accepted step leaked undef"

    # Step values made from the parameter `f`, with and without a `pre`,
    # each with whether the analysis proves it defined on every cycle.
    STEP_VALUES = [
        ("f", True),
        ("pre f", False),
        ("f -> pre f", True),
        ("pre (f -> pre f)", False),
        ("f fby f", True),
        ("if b1 then f else pre f", False),
        ("if b2 then f else (f -> pre f)", True),
    ]

    @pytest.mark.parametrize("value, defined", STEP_VALUES)
    @pytest.mark.parametrize("seed", range(10))
    def test_accepted_step_values_never_escape(self, value, defined, seed):
        # Applied directly or through a name; the step value takes the
        # parameter `f`, bound to `inc`.
        rng = random.Random(seed)
        arg = pretty_expr(gen_expr(rng, INT, depth=rng.randrange(1, 4), need_init=True))
        applied = "g" if seed % 2 else f"({value})"
        step = step_of(f"step s (f, i1) --> out {{ g = {value}; out = {applied} ({arg}) }}")
        try:
            ordered = order_equations(step)
            check_initialization(step, ordered)
        except InitError as exc:
            assert not defined and exc.diagnostics[0].message == "applied step may be undefined on some cycle"
            return
        assert defined
        eqs = ordered
        for _ in range(8):
            eqs, env = eval_equations(base_env() | {"f": INC}, eqs)
            assert not contains_undef(env["out"]), "accepted step leaked undef"
