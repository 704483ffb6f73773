import copy
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import quiet_fib_hosts
from exprgen import (
    HOLD,
    INC,
    INT_OPS,
    LOGIC_OPS,
    TOP_TYPES,
    UNBOUND,
    base_env,
    gen_call_expr,
    gen_expr,
    gen_leaf_expr,
    gen_operator_expr,
    gen_system,
    leaf_env,
    run_cycles,
    system_env,
)
import mimosa.eval
from mimosa import (
    CausalityError,
    EvalError,
    SimConfig,
    Simulation,
    check_program,
    eval_equations,
    eval_expr,
    order_equations,
    parse_expression,
    parse_program,
)
from mimosa.analysis import infer_types
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
    PTuple,
    PUnit,
    PVar,
    PWild,
    Some,
    StepDecl,
    Tuple,
    UNIT_LIT,
    UNIT_VALUE,
    Var,
    VClosure,
    VConst,
    VExtern,
    VNone,
    VSome,
    VTuple,
    VUndef,
)
from mimosa.builtins import BINARY_OPS, BUILTIN_VALUES
from mimosa.coord import fire_node, init_network
from mimosa.errors import InternalError, UndefEscape
from mimosa.eval import (
    Env,
    EvalContext,
    EvalResult,
    HostContext,
    _branch,
    _escape,
    _unbound,
    _update_into,
    project,
)
from mimosa.types import BOOL, UNIT, TOption, TTuple

PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def env_of(**bindings) -> Env:
    return BUILTIN_VALUES | bindings


class TestProjection:
    def test_single_variable(self):
        env = {"x": 1, "y": 2}
        assert project(env, PVar("x")) == 1

    def test_tuple(self):
        env = {"x": 1, "y": 2}
        assert project(env, PTuple((PVar("x"), PVar("y")))) == VTuple((1, 2))

    def test_unit(self):
        assert project(Env(), PUnit()) == UNIT_VALUE

    def test_wildcard_never_projects(self):
        with pytest.raises(InternalError):
            project({"x": 1}, PWild())

    def test_unbound_name_is_an_internal_error(self):
        with pytest.raises(InternalError, match="unbound name 'x'$"):
            project(Env(), PVar("x"))


class TestUpdate:
    def test_extends(self):
        env = {"x": 1, "y": 2}
        _update_into(env, PVar("z"), 3)
        assert env["z"] == 3
        assert list(env) == ["x", "y", "z"]

    def test_previous_bindings_are_lost(self):
        env = {"x": 1, "y": 2}
        _update_into(env, PTuple((PVar("x"), PVar("y"))), VTuple((3, 4)))
        assert env["x"] == 3 and env["y"] == 4

    def test_wildcard_discards(self):
        env = {"x": 1}
        _update_into(env, PWild(), 5)
        assert env == {"x": 1}

    def test_update_does_not_mutate(self):
        # A closure binds its parameter in a copy of the caller's bindings.
        ident = VClosure(PVar("x"), PVar("y"), (Equation(PVar("y"), Var("x")),))
        env = {"x": 1, "f": ident}
        assert eval_expr(env, parse_expression("f 9")).value == 9
        assert env == {"x": 1, "f": ident}

    def test_shape_mismatch(self):
        with pytest.raises(EvalError):
            _update_into(Env(), PTuple((PVar("a"), PVar("b"))), 1)

    # Ill-typed values, as a host can return them, are named in Mimosa notation.
    def test_shape_mismatch_message(self):
        with pytest.raises(EvalError, match=r"^value Some 1 does not match tuple pattern of arity 2$"):
            _update_into(Env(), PTuple((PVar("a"), PVar("b"))), VSome(1))

    def test_unit_mismatch(self):
        with pytest.raises(EvalError, match=r"^expected the unit value for pattern \(\), got \(1, true\)$"):
            _update_into(Env(), PUnit(), VTuple((1, True)))

    def test_empty_tuple_is_told_apart_from_unit(self):
        # Both print as `()`, so the message names the empty tuple in words.
        with pytest.raises(EvalError, match=r"^expected the unit value for pattern \(\), got an empty tuple value$"):
            _update_into(Env(), PUnit(), VTuple(()))


class TestPatternDispatch:
    def test_wildcard_and_unit_inside_a_tuple(self):
        env = {"x": 1}
        pattern = PTuple((PVar("a"), PWild(), PTuple((PUnit(), PVar("b")))))
        _update_into(env, pattern, VTuple((2, 3, VTuple((UNIT_VALUE, 4)))))
        assert env == {"x": 1, "a": 2, "b": 4}
        assert project(env, PTuple((PVar("a"), PUnit()))) == VTuple((2, UNIT_VALUE))
        with pytest.raises(InternalError, match="^wildcard patterns cannot be projected$"):
            project(env, pattern)

    def test_a_unit_equal_to_the_singleton_binds(self):
        fresh = VConst(UNIT_LIT)
        assert fresh is not UNIT_VALUE
        env = Env()
        _update_into(env, PTuple((PUnit(), PVar("a"))), VTuple((fresh, 1)))
        assert env == {"a": 1}

    def test_a_nested_unit_mismatch(self):
        with pytest.raises(EvalError, match=r"^expected the unit value for pattern \(\), got 3$"):
            _update_into(Env(), PTuple((PVar("a"), PUnit())), VTuple((1, 3)))

    @pytest.mark.parametrize(
        "value, shown",
        [(VSome(1), "Some 1"), (7, "7"), (VNone(), "None")],
        ids=["value0-Some 1", "value1-7", "value2-None"],
    )
    def test_a_tuple_pattern_given_a_non_tuple(self, value, shown):
        with pytest.raises(EvalError, match=f"^value {shown} does not match tuple pattern of arity 2$"):
            _update_into(Env(), PTuple((PVar("a"), PVar("b"))), value)

    def test_a_tuple_of_the_wrong_arity(self):
        value = VTuple((1, 2, 3))
        with pytest.raises(EvalError, match=r"^value \(1, 2, 3\) does not match tuple pattern of arity 2$"):
            _update_into(Env(), PTuple((PVar("a"), PVar("b"))), value)


@st.composite
def pattern_with_value(draw, depth=2):
    """A wildcard-free pattern with distinct names plus a matching value."""
    counter = iter(range(10_000))

    def build(d):
        if d == 0 or draw(st.booleans()):
            return PVar(f"v{next(counter)}"), draw(st.integers(-5, 5))
        parts = [build(d - 1) for _ in range(draw(st.integers(min_value=2, max_value=3)))]
        return PTuple(tuple(p for p, _ in parts)), VTuple(tuple(v for _, v in parts))

    return build(depth)


class TestEnvProperties:
    @given(pattern_with_value())
    def test_update_then_project_round_trips(self, pv):
        pattern, value = pv
        env = {"keep": 99}
        _update_into(env, pattern, value)
        assert project(env, pattern) == value
        assert env["keep"] == 99

    @given(pattern_with_value(), pattern_with_value())
    def test_update_is_destructive_per_name(self, first, second):
        pattern, value = first
        other_pattern, other_value = second
        env = Env()
        _update_into(env, pattern, value)
        _update_into(env, other_pattern, other_value)
        assert project(env, other_pattern) == other_value


class TestRules:
    def test_var(self):
        env = env_of(x=1, y=2)
        r = eval_expr(env, parse_expression("x"))
        assert r.value == 1 and r.next == Var("x")

    def test_const(self):
        r = eval_expr(Env(), parse_expression("7"))
        assert r.value == 7 and r.next == Const(7)

    @pytest.mark.parametrize("text", ["7", "2.5", "true", "None", "()"])
    def test_literal_evaluates_to_its_own_value(self, text):
        e = parse_expression(text)
        r = eval_expr(Env(), e)
        assert r.value is e.value and r.next is e

    @pytest.mark.parametrize(
        "value",
        [VTuple((1, VNone())), VSome(2), VSome(VTuple((1, VSome(True))))],
    )
    def test_pre_embeds_its_value_as_one_literal(self, value):
        r = eval_expr(env_of(x=value), parse_expression("pre x"))
        assert r.value == VUndef()
        assert r.next == Arrow(Const(value), Pre(Var("x")))
        assert r.next.first.value is value
        # Next cycle the literal gives the same object back.
        assert eval_expr(env_of(x=VNone()), r.next).value is value

    def test_fby_returns_head_and_keeps_tail_unevaluated(self):
        r = eval_expr(Env(), parse_expression("1 fby 2"))
        assert r.value == 1
        assert r.next == parse_expression("2")

    def test_fby_tail_untouched_even_if_unbound(self):
        # e2 is not evaluated this cycle, so an unbound name there is fine.
        r = eval_expr(Env(), Fby(Const(1), Var("nope")))
        assert r.value == 1 and r.next == Var("nope")

    def test_pre_of_constant(self):
        r = eval_expr(Env(), parse_expression("pre 7"))
        assert r.value == VUndef()
        assert r.next == parse_expression("7 -> pre 7")

    def test_arrow_advances_right_state(self):
        r = eval_expr(env_of(x=5), parse_expression("1 -> pre x"))
        assert r.value == 1
        assert r.next == parse_expression("5 -> pre x")

    def test_if_true_keeps_else_branch_untouched(self):
        e = parse_expression("if true then 1 else pre y")
        r = eval_expr(Env(), e)
        assert r.value == 1
        assert r.next == e  # cond and taken branch are constants

    def test_if_false_keeps_then_branch_untouched(self):
        e = parse_expression("if false then pre y else 2")
        r = eval_expr(Env(), e)
        assert r.value == 2
        assert r.next == e

    def test_some_and_none(self):
        r = eval_expr(Env(), parse_expression("Some 3"))
        assert r.value == VSome(3)
        r = eval_expr(Env(), parse_expression("None"))
        assert r.value == VNone()

    def test_either_some_leaves_fallback(self):
        env = env_of(o=VSome(4))
        e = parse_expression("either o otherwise pre z")
        r = eval_expr(env, e)
        assert r.value == 4
        assert r.next == e  # fallback untouched

    def test_either_none_advances_fallback(self):
        env = env_of(o=VNone(), z=9)
        r = eval_expr(env, parse_expression("either o otherwise pre z"))
        assert r.value == VUndef()
        assert r.next == parse_expression("either o otherwise (9 -> pre z)")

    def test_undef_condition_aborts(self):
        with pytest.raises(UndefEscape):
            eval_expr(Env(), parse_expression("if pre true then 1 else 2"))

    def test_undef_scrutinee_aborts(self):
        with pytest.raises(UndefEscape):
            eval_expr(Env(), parse_expression("either pre None otherwise 1"))

    def test_apply_non_function(self):
        with pytest.raises(EvalError, match="non-function"):
            eval_expr(env_of(f=1), parse_expression("f 2"))

    # The function position as a name, as a literal and as any other expression.
    FUNCTIONS = {"name": Var("f"), "literal": Const(VTuple((1, True))), "if": "if true then f else f"}

    @pytest.mark.parametrize("form", FUNCTIONS)
    def test_apply_non_function_prints_the_value(self, form):
        fn = self.FUNCTIONS[form]
        e = Apply(parse_expression(fn) if isinstance(fn, str) else fn, Const(2))
        with pytest.raises(EvalError, match=r"^application of a non-function value \(1, true\)$"):
            eval_expr(env_of(f=VTuple((1, True))), e)

    def test_apply_undefined_literal_aborts(self):
        with pytest.raises(UndefEscape, match="applied expression"):
            eval_expr(Env(), Apply(Const(VUndef()), Const(2)))

    def test_builtin_application(self):
        r = eval_expr(env_of(x=1, y=2), parse_expression("x + y"))
        assert r.value == 3
        assert r.next == parse_expression("x + y")

    def test_division_truncates_toward_zero(self):
        assert eval_expr(env_of(), parse_expression("7 / 2")).value == 3
        assert eval_expr(env_of(), parse_expression("(0 - 7) / 2")).value == -3

    def test_division_by_zero_raises(self):
        with pytest.raises(EvalError, match="division by zero"):
            eval_expr(env_of(), parse_expression("1 / 0"))

    def test_closure_application_rewrites_to_closure_literal(self):
        double = VClosure(PVar("a"), PVar("z"), (Equation(PVar("z"), parse_expression("a + a")),))
        env = BUILTIN_VALUES | {"double": double, "x": 21}
        r = eval_expr(env, parse_expression("double x"))
        assert r.value == 42
        assert r.next == Apply(Const(double), Var("x"))

    @pytest.mark.parametrize("form", ["double x", "(if true then double else double) x"])
    def test_closure_literal_application_matches_the_named_call(self, form):
        # A step called through its closure literal, as after its first call,
        # gives what a call by name or through any other expression gives.
        double = VClosure(PVar("a"), PVar("z"), (Equation(PVar("z"), parse_expression("0 -> pre (a + a)")),))
        env = BUILTIN_VALUES | {"double": double, "x": 21}
        r = eval_expr(env, parse_expression(form))
        assert r.value == 0 and type(r.next.fn) is Const
        again = eval_expr(env | {"x": 5}, r.next)
        assert again.value == 42 and type(again.next.fn) is Const
        assert again.next.fn.value.equations == (Equation(PVar("z"), parse_expression("10 -> pre (a + a)")),)

    def test_called_step_holds_its_rewritten_equations(self):
        mem = VClosure(PVar("mv"), PVar("mw"), (Equation(PVar("mw"), parse_expression("0 -> pre mv")),))
        r = eval_expr(env_of(mem=mem, v=4), parse_expression("mem v"))
        assert r.value == 0
        callee = r.next.fn.value
        assert type(r.next.fn) is Const and type(callee) is VClosure
        assert callee.equations == (Equation(PVar("mw"), parse_expression("4 -> pre mv")),)
        # The literal evaluates to its stored closure, not to a rebuilt one.
        assert eval_expr(Env(), r.next.fn).value is callee
        # Next cycle the call runs the rewritten equations.
        r = eval_expr(env_of(v=5), r.next)
        assert r.value == 4
        assert r.next.fn.value.equations[0].rhs == parse_expression("5 -> pre mv")

    def test_unbound_name_has_no_made_up_position(self):
        with pytest.raises(InternalError, match="unbound name 'x'$"):
            eval_expr(Env(), Var("x"))
        with pytest.raises(InternalError, match="unbound name 'x' at 1:5$"):
            eval_expr(env_of(), parse_expression("1 + x"))
        with pytest.raises(InternalError, match="unbound name 'g' at 1:1$"):
            eval_expr(Env(), parse_expression("g 1"))


class TestEquations:
    def test_constant_stream_fixpoint(self):
        eqs = (Equation(PVar("x"), parse_expression("0 -> pre x")),)
        next_eqs, env = eval_equations(Env(), eqs)
        assert env["x"] == 0
        assert next_eqs[0].rhs == parse_expression("0 -> pre x")
        # Iterating keeps both the value and the equation fixed.
        for _ in range(10):
            next_eqs, env = eval_equations(Env(), next_eqs)
            assert env["x"] == 0
            assert next_eqs[0].rhs == parse_expression("0 -> pre x")

    def test_fby_pre_yields_undef_at_cycle_two(self):
        eqs = [Equation(PVar("x"), parse_expression("0 fby pre x"))]
        cycles = run_cycles(eqs, Env, 2)
        assert cycles[0]["x"] == 0
        assert cycles[1]["x"] == VUndef()

    def test_nested_pre_counterexample_cycle_values(self):
        eqs = [Equation(PVar("x"), parse_expression("0 -> 0 -> pre pre x"))]
        cycles = run_cycles(eqs, Env, 2)
        assert cycles[0]["x"] == 0
        assert cycles[1]["x"] == VUndef()

    def test_edge_detector_equations_hand_trace(self):
        body = parse_program(
            "step e (in : bool) --> (out : bool?) {\n"
            "  pre_in = in -> pre in;\n"
            "  out = if !pre_in && in then (Some true)\n"
            "        else if pre_in && !in then (Some false)\n"
            "        else None;\n"
            "}"
        ).steps[0]
        eqs = order_equations(body)
        outs = []
        for level in (False, True, True, False):
            eqs, env = eval_equations(env_of(**{"in": level}), eqs)
            outs.append(env["out"])
        assert outs == [VNone(), VSome(True), VNone(), VSome(False)]

    def test_later_equation_value_captured_by_earlier_pre(self):
        # a's next expression embeds b's final value even though b is bound
        # after a in causal order.
        eqs = (
            Equation(PVar("a"), parse_expression("0 -> pre b")),
            Equation(PVar("b"), parse_expression("1")),
        )
        next_eqs, env = eval_equations(Env(), eqs)
        assert env["a"] == 0 and env["b"] == 1
        assert next_eqs[0].rhs == parse_expression("1 -> pre b")

    def test_purity_env_is_never_mutated(self):
        env = env_of(x=1)
        snapshot = dict(env)
        eval_expr(env, parse_expression("pre (x + 1)"))
        eqs = (Equation(PVar("y"), parse_expression("x + 1")),)
        eval_equations(env, eqs)
        assert env == snapshot


class TestNestedSteps:
    def make_env(self, v):
        mem = VClosure(PVar("mv"), PVar("mw"), (Equation(PVar("mw"), parse_expression("0 -> pre mv")),))
        return BUILTIN_VALUES | {"mem": mem, "v": v}

    def test_each_call_site_gets_its_own_memory(self):
        eqs = (
            Equation(PVar("a"), parse_expression("mem v")),
            Equation(PVar("b"), parse_expression("mem (v + 1)")),
            Equation(PVar("w"), parse_expression("a + b")),
        )
        observed = []
        for v in (5, 7, 9):
            eqs, env = eval_equations(self.make_env(v), eqs)
            observed.append((env["a"], env["b"], env["w"]))
        assert observed == [
            (0, 0, 0),
            (5, 6, 11),
            (7, 8, 15),
        ]

    def test_call_state_survives_in_the_closure_literal(self):
        eqs = (Equation(PVar("w"), parse_expression("mem v")),)
        eqs, _ = eval_equations(self.make_env(1), eqs)
        # The callee variable was replaced by a literal of the updated closure.
        rhs = eqs[0].rhs
        assert isinstance(rhs, Apply) and isinstance(rhs.fn, Const)
        inner = rhs.fn.value.equations[0].rhs
        assert inner == parse_expression("1 -> pre mv")


class TestLexicalScope:
    READ_Z = VClosure(PUnit(), PVar("y"), (Equation(PVar("y"), Var("z")),))

    def test_a_callee_does_not_see_its_callers_locals(self):
        # Unchecked: `z` is a local of the caller, which the body of `f` reads.
        eqs = (Equation(PVar("z"), Const(1)), Equation(PVar("r"), parse_expression("f ()")))
        with pytest.raises(InternalError, match=r"^unbound name 'z'"):
            eval_equations(BUILTIN_VALUES | {"f": self.READ_Z}, eqs)

    def test_a_callee_sees_the_globals(self):
        eqs = (Equation(PVar("r"), parse_expression("f ()")),)
        _, env = eval_equations(BUILTIN_VALUES | {"f": self.READ_Z, "z": 4}, eqs)
        assert env["r"] == 4

    def test_a_reused_context_takes_each_evaluations_globals(self):
        e = parse_expression("f ()")
        ctx = EvalContext()
        assert eval_expr({"f": self.READ_Z, "z": 5}, e, ctx).value == 5
        env = {"f": self.READ_Z, "z": 6}
        assert eval_expr(env, e, ctx).value == 6 and ctx.globals is env


class TestHostCalls:
    def make_counting_host(self):
        calls = []

        def fn(value, ctx):
            calls.append(value)
            return len(calls)

        return VExtern("counter", fn), calls

    def test_impure_host_called_once_per_cycle_inside_equations(self):
        host, calls = self.make_counting_host()
        env = BUILTIN_VALUES | {"tick": host}
        # The call sits under a pre, so its evaluation is deferred to the end
        # of the activation; it must still run exactly once per cycle.
        eqs = (Equation(PVar("y"), parse_expression("0 -> pre (tick ())")),)
        eqs, env_out = eval_equations(env, eqs)
        assert len(calls) == 1
        eqs, env_out = eval_equations(env, eqs)
        assert len(calls) == 2

    def test_shared_call_site_runs_once_per_application(self):
        host, calls = self.make_counting_host()
        g = VClosure(PVar("x"), PVar("y"), (Equation(PVar("y"), parse_expression("tick x")),))
        env = BUILTIN_VALUES | {"tick": host, "g": g}
        # Both applications reach the same `tick x` node of g's body; each is
        # a separate host call with its own argument and result.
        eqs = (
            Equation(PVar("a"), parse_expression("g 1")),
            Equation(PVar("b"), parse_expression("g 2")),
        )
        _, env_out = eval_equations(env, eqs)
        assert calls == [1, 2]
        assert env_out["a"] == 1 and env_out["b"] == 2

    def test_host_receives_context(self):
        seen = {}

        def fn(value, ctx):
            seen["ctx"] = ctx
            return 0

        env = {"h": VExtern("h", fn)}
        ctx = EvalContext(host=HostContext(time_us=1234, node="n"))
        eval_expr(env, parse_expression("h ()"), ctx)
        assert seen["ctx"] == HostContext(time_us=1234, node="n")


class TestDeterminism:
    @pytest.mark.parametrize("seed", range(250))
    def test_same_input_same_result(self, seed):
        rng = random.Random(seed)
        ty = rng.choice(TOP_TYPES)
        expr = gen_expr(rng, ty, depth=rng.randrange(1, 5), need_init=False)
        env = base_env()
        first = eval_expr(env, expr)
        second = eval_expr(env, expr)
        assert first.value == second.value
        assert first.next == second.next


class TestEqsUniqueness:
    """Brute-force uniqueness oracle: enumerate all candidate environments over
    a tiny value domain and check the single-pass evaluation finds the unique
    fixpoint."""

    DOMAIN = (0, 1, VUndef())

    def brute_force(self, equations):
        import itertools

        names = [eq.lhs.names()[0] for eq in equations]
        solutions = []
        for candidate in itertools.product(self.DOMAIN, repeat=len(names)):
            env = system_env() | dict(zip(names, candidate))
            derived = system_env()
            try:
                for eq in equations:
                    _update_into(derived, eq.lhs, eval_expr(env, eq.rhs).value)
            except EvalError:
                continue
            if derived == env:
                solutions.append(dict(zip(names, candidate)))
        return solutions

    @pytest.mark.parametrize("seed", range(150))
    def test_two_phase_matches_unique_fixpoint(self, seed):
        rng = random.Random(seed)
        equations = gen_system(rng, rng.randrange(1, 4))
        step = StepDecl("s", PUnit(), PVar(equations[0].lhs.names()[0]), tuple(equations))
        try:
            ordered = order_equations(step)
        except CausalityError:
            return  # non-causal systems are out of scope for Eqs''
        solutions = self.brute_force(ordered)
        assert len(solutions) == 1, f"expected a unique fixpoint, found {solutions}"
        _, env = eval_equations(system_env(), ordered)
        for name, value in solutions[0].items():
            assert env[name] == value


class TestValueEmbedding:
    def test_round_trip_through_expr(self):
        values = [
            5,
            True,
            VTuple((1, VNone())),
            VSome(2),
            VUndef(),
            VClosure(PVar("a"), PVar("z"), (Equation(PVar("z"), Var("a")),)),
        ]
        for v in values:
            assert eval_expr(Env(), Const(v)).value is v


# ---------------------------------------------------------------------------
# The evaluator as it was before next expressions shared structure with the
# expressions they came from: every production allocates its next expression.
# It is the oracle for the sharing evaluator, which must agree with it on
# every value and every next expression.


def reference_context(globals_: Env) -> EvalContext:
    """A context whose step activations start from `globals_`."""
    ctx = EvalContext()
    ctx.globals = globals_
    return ctx


def reference_eval(env: Env, e: Expr, ctx: EvalContext, deferred: list | None) -> EvalResult:
    match e:
        case Var(name):
            if name not in env:
                raise _unbound(e)
            return EvalResult(env[name], e)
        case Const():
            return EvalResult(e.value, e)
        case Tuple(items):
            parts = [reference_eval(env, item, ctx, deferred) for item in items]
            return EvalResult(
                VTuple(tuple(r.value for r in parts)),
                Tuple(tuple(r.next for r in parts), loc=e.loc),
            )
        case Pre(inner):
            hole = Arrow(inner, e, loc=e.loc)
            if deferred is None:
                reference_fill_pre(hole, env, inner, ctx)
            else:
                deferred.append((hole, inner))
            return EvalResult(VUndef(), hole)
        case Fby(first, rest):
            r1 = reference_eval(env, first, ctx, deferred)
            return EvalResult(r1.value, rest)
        case Arrow(first, rest):
            r1 = reference_eval(env, first, ctx, deferred)
            r2 = reference_eval(env, rest, ctx, deferred)
            return EvalResult(r1.value, r2.next)
        case If(cond, then, orelse):
            rc = reference_eval(env, cond, ctx, deferred)
            if _branch(rc.value, e):
                rt = reference_eval(env, then, ctx, deferred)
                return EvalResult(rt.value, If(rc.next, rt.next, orelse, loc=e.loc))
            ro = reference_eval(env, orelse, ctx, deferred)
            return EvalResult(ro.value, If(rc.next, then, ro.next, loc=e.loc))
        case Some(inner):
            r = reference_eval(env, inner, ctx, deferred)
            return EvalResult(VSome(r.value), Some(r.next, loc=e.loc))
        case Either(scrutinee, fallback):
            rs = reference_eval(env, scrutinee, ctx, deferred)
            match rs.value:
                case VSome(payload):
                    return EvalResult(payload, Either(rs.next, fallback, loc=e.loc))
                case VNone():
                    rf = reference_eval(env, fallback, ctx, deferred)
                    return EvalResult(rf.value, Either(rs.next, rf.next, loc=e.loc))
                case VUndef():
                    raise UndefEscape(_escape("either scrutinee", e.span))
                case other:
                    raise InternalError(f"either scrutinee evaluated to non-option {other!r}")
        case Binary(fn, left, right):
            # Its builtin applied to the pair of its operands.
            rl = reference_eval(env, left, ctx, deferred)
            rr = reference_eval(env, right, ctx, deferred)
            return EvalResult(fn.fn(VTuple((rl.value, rr.value)), ctx.host), Binary(fn, rl.next, rr.next, loc=e.loc))
        case Apply(fn, arg):
            rf = reference_eval(env, fn, ctx, deferred)
            ra = reference_eval(env, arg, ctx, deferred)
            match rf.value:
                case VClosure(in_pattern, out_pattern, equations):
                    inner = dict(ctx.globals)
                    _update_into(inner, in_pattern, ra.value)
                    next_eqs, final = reference_run_equations(inner, equations, ctx)
                    callee = VClosure(in_pattern, out_pattern, next_eqs)
                    return EvalResult(project(final, out_pattern), Apply(Const(callee), ra.next, loc=e.loc))
                case VExtern():
                    result = rf.value.fn(ra.value, ctx.host)
                    return EvalResult(result, Apply(rf.next, ra.next, loc=e.loc))
                case VUndef():
                    raise UndefEscape(_escape("applied expression", e.span))
                case other:
                    raise EvalError(f"application of a non-function value {other!r}")
        case _:
            raise InternalError(f"eval: unknown expression {e!r}")


def reference_fill_pre(hole: Arrow, env: Env, operand: Expr, ctx: EvalContext) -> None:
    r = reference_eval(env, operand, ctx, None)
    object.__setattr__(hole, "first", Const(r.value))
    object.__setattr__(hole, "rest", Pre(r.next))


def reference_run_equations(env: Env, equations, ctx: EvalContext):
    deferred: list = []
    rewritten = []
    for eq in equations:
        r = reference_eval(env, eq.rhs, ctx, deferred)
        _update_into(env, eq.lhs, r.value)
        rewritten.append(Equation(eq.lhs, r.next, loc=eq.loc))
    for hole, operand in deferred:
        reference_fill_pre(hole, env, operand, ctx)
    return tuple(rewritten), env


class TestSharing:
    @pytest.mark.parametrize("seed", range(200))
    def test_systems_match_the_reference_evaluator(self, seed):
        rng = random.Random(seed)
        equations = gen_system(rng, rng.randrange(1, 4))
        out = equations[0].lhs.names()[0]
        try:
            ordered = order_equations(StepDecl("s", PUnit(), PVar(out), tuple(equations)))
        except CausalityError:
            return
        env = system_env() | {"s": VClosure(PUnit(), PVar(out), ordered)}
        # The system on its own, and as the body of a step called every cycle.
        called = (Equation(PVar("r"), Apply(Var("s"), Const(UNIT_VALUE))),)
        for start in (ordered, called):
            shared = reference = start
            for _ in range(6):
                before = copy.deepcopy(shared)
                shared_next, got = eval_equations(env, shared)
                reference, want = reference_run_equations(dict(env), reference, reference_context(env))
                # Evaluating a next expression leaves every node of it as it was.
                assert shared == before
                assert got == want
                assert shared_next == reference
                shared = shared_next

    @pytest.mark.parametrize("seed", range(200))
    def test_expressions_match_the_reference_evaluator(self, seed):
        rng = random.Random(seed)
        shared = reference = gen_expr(rng, rng.choice(TOP_TYPES), depth=rng.randrange(1, 5), need_init=False)
        env = base_env()
        for _ in range(6):
            before = copy.deepcopy(shared)
            got = eval_expr(env, shared)
            want = reference_eval(env, reference, reference_context(env), None)
            assert shared == before
            assert got.value == want.value and got.next == want.next
            shared, reference = got.next, want.next

    def test_a_callee_reads_the_globals_in_both_evaluators(self):
        # Unchecked: `g` calls `f`, whose body reads `z`, a local of `g`.
        read_z = VClosure(PUnit(), PVar("y"), (Equation(PVar("y"), Var("z")),))
        body = (Equation(PVar("z"), Const(1)), Equation(PVar("r"), parse_expression("f ()")))
        env = BUILTIN_VALUES | {"f": read_z, "g": VClosure(PUnit(), PVar("r"), body)}
        e = parse_expression("g ()")
        got = outcome(lambda: eval_expr(env, e))
        want = outcome(lambda: reference_eval(env, e, reference_context(env), None))
        assert got == want == (InternalError, "unbound name 'z'")

    def test_settled_fby_and_arrow_are_shared(self):
        env = env_of(x=1)
        for text in ("0 fby x + 1", "0 -> x + 1"):
            e = parse_expression(text)
            first = eval_expr(env, e).next
            assert first is e.rest
            assert eval_expr(env, first).next is e.rest

    def test_builtin_application_is_shared(self):
        e = parse_expression("x + y * 2")
        assert eval_expr(env_of(x=1, y=2), e).next is e

    def test_untaken_branch_is_shared(self):
        e = parse_expression("if c then pre x else x")
        assert eval_expr(env_of(c=False, x=1), e).next is e
        # The taken branch holds a pre, so it changes; the rest is shared.
        r = eval_expr(env_of(c=True, x=1), e)
        assert r.next is not e and r.next.cond is e.cond and r.next.orelse is e.orelse

    def test_tuple_some_and_either_are_shared(self):
        env = env_of(x=1, o=VSome(2))
        for text in ("(x, 1)", "Some x", "either o otherwise pre x"):
            e = parse_expression(text)
            assert eval_expr(env, e).next is e

    def test_a_settled_pre_keeps_its_node(self):
        eqs = (Equation(PVar("y"), parse_expression("0 -> pre x")),)
        pre = eqs[0].rhs.rest
        shared = reference = eqs
        for x in (3, 4, 5):
            env = env_of(x=x)
            shared, got = eval_equations(env, shared)
            reference, want = reference_run_equations(dict(env), reference, reference_context(env))
            assert got == want and shared == reference
        # From the first cycle on the next expression is `v -> pre x`: a new
        # arrow each cycle around the parsed `pre`.
        assert shared[0].rhs == Arrow(Const(5), pre) and shared[0].rhs.rest is pre

    def test_a_pre_whose_operand_rewrites_gets_a_new_node(self):
        e = parse_expression("pre (0 -> pre x)")
        r = eval_expr(env_of(x=1), e)
        assert r.next == parse_expression("0 -> pre (1 -> pre x)") and r.next.rest is not e

    def test_unchanged_equation_is_reused(self):
        eqs = (
            Equation(PVar("a"), parse_expression("x + 1")),
            Equation(PVar("b"), parse_expression("0 -> pre a")),
        )
        next_eqs, _ = eval_equations(env_of(x=1), eqs)
        assert next_eqs[0] is eqs[0] and next_eqs[1] is not eqs[1]

    DOUBLE = VClosure(PVar("a"), PVar("b"), (Equation(PVar("b"), parse_expression("a * 2")),))

    def test_a_settled_activation_is_its_own_next_state(self):
        env = env_of(f=INC, x=1)
        first = eval_expr(env, parse_expression("f x"))
        assert first.value == 2 and first.next.fn.value is INC
        second = eval_expr(env, first.next)
        assert second.value == 2 and second.next is first.next

    def test_a_settled_node_keeps_its_expression(self, fib_checked):
        sim = Simulation(fib_checked, SimConfig(horizon_us=200_000), quiet_fib_hosts())
        # A prototype node holds the literal of its host binding from the start.
        assert sim.state.nodes["print"].expr.value is sim.state.env["print_int"]
        sim.run_until(50_000)
        exprs = {name: node.expr for name, node in sim.state.nodes.items()}
        sim.run_until(200_000)
        for name, step in (("add", "add"), ("split", "split"), ("print", "print_int")):
            assert sim.state.nodes[name].expr is exprs[name]
            assert exprs[name].value is sim.state.env[step]

    def test_a_node_with_a_pre_gets_a_new_literal_on_each_firing(self, monkeypatch):
        source = """
step inc (x : int) --> (y : int) { y = x + 1 }
step delay (x : int) --> (y : int) { y = 0 -> pre x }
channel a : int = { 0 }
channel b : int
node inc implements inc (a) --> (b) every 10ms
node delay implements delay (b) --> (a) every 10ms
"""
        sim = Simulation(check_program(parse_program(source)), SimConfig(horizon_us=100_000))
        literals = {"inc": [sim.state.nodes["inc"].expr], "delay": [sim.state.nodes["delay"].expr]}

        def recording(ns, name):
            fire_node(ns, name)
            literals[name].append(ns.nodes[name].expr)

        monkeypatch.setattr("mimosa.sim.fire_node", recording)
        sim.run_until(100_000)
        assert literals["delay"][0].value is sim.state.env["delay"] and len(literals["delay"]) > 5
        assert len({id(expr.value) for expr in literals["delay"]}) == len(literals["delay"])
        # The stateless node settles on its first firing.
        first, *rest = literals["inc"][1:]
        assert len(rest) > 3 and all(expr is first for expr in rest)

    @pytest.mark.parametrize("body, fresh", [("0 -> pre a", 5), ("0 fby 1 fby a", 2)])
    def test_a_step_with_memory_gets_a_fresh_closure_until_it_settles(self, body, fresh):
        f = VClosure(PVar("a"), PVar("b"), (Equation(PVar("b"), parse_expression(body)),))
        shared = reference = parse_expression("f x")
        callees = [f]
        for x in range(5):
            env = env_of(f=f, x=x)
            got = eval_expr(env, shared)
            want = reference_eval(env, reference, reference_context(env), None)
            assert got.value == want.value and got.next == want.next
            callees.append(got.next.fn.value)
            shared, reference = got.next, want.next
        # A callee is new exactly when its equations changed in that cycle.
        assert [new is not old for old, new in zip(callees, callees[1:])] == [True] * fresh + [False] * (5 - fresh)

    def test_a_step_valued_parameter_keeps_its_first_callee(self):
        # `app` calls its parameter `g`, a name that may hold another step on
        # a later cycle; the call keeps the closure of its first cycle.
        app = VClosure(PTuple((PVar("g"), PVar("v"))), PVar("w"), (Equation(PVar("w"), parse_expression("g v")),))
        shared = reference = parse_expression("app (h, x)")
        values = []
        for h in (INC, self.DOUBLE, self.DOUBLE):
            env = env_of(app=app, h=h, x=5)
            got = eval_expr(env, shared)
            want = reference_eval(env, reference, reference_context(env), None)
            assert got.value == want.value and got.next == want.next
            values.append(got.value)
            shared, reference = got.next, want.next
        assert values == [6] * 3

    @pytest.mark.parametrize("seed", range(300))
    def test_leaves_read_in_place_match_the_reference_evaluator(self, seed):
        rng = random.Random(seed)
        shared = reference = gen_leaf_expr(rng, rng.randrange(1, 5))
        env = leaf_env()
        for _ in range(5):
            before = copy.deepcopy(shared)
            got = outcome(lambda: eval_expr(env, shared))
            want = outcome(lambda: reference_eval(env, reference, reference_context(env), None))
            assert shared == before
            assert got == want
            if isinstance(got[0], type):
                break
            # Every node of its input that the reference keeps, the sharing
            # evaluator keeps too, in the same place.
            counterpart = {id(r): s for r, s in corresponding(reference, shared)}
            for w, g in corresponding(want[1], got[1]):
                if id(w) in counterpart:
                    assert g is counterpart[id(w)]
            shared, reference = got[1], want[1]

    def test_the_leaf_generator_reaches_every_position(self):
        positions = {"operand", "argument", "item", "branch", "Some operand", "pre operand"}
        seen = set()
        for seed in range(300):
            rng = random.Random(seed)
            seen |= set(leaves_read_in_place(gen_leaf_expr(rng, rng.randrange(1, 5))))
        kinds = ("name", "literal", "unbound name")
        # `hold`'s body is fixed: its right-hand sides hold no unbound name.
        fixed = {("head of ->", "literal"), ("right-hand side", "name"), ("right-hand side", "literal")}
        assert seen == {(p, leaf) for p in positions for leaf in kinds} | fixed

    @pytest.mark.parametrize(
        "text, name, col",
        [
            ("u + v", "u", 1),
            ("1 + v", "v", 5),
            ("i1 * (u - 1)", "u", 7),
            ("!u", "u", 2),
            ("inc u", "u", 5),
            ("mix (i1, u)", "u", 10),
            ("mix (u, v)", "u", 6),
            ("u -> v", "u", 1),
            ("u fby v", "u", 1),
            ("if u then 1 else 2", "u", 4),
            ("nest ((u, 1), ())", "u", 8),
            ("nest ((1, u), u)", "u", 11),
            ("nest ((1, 2), u)", "u", 15),
            ("nest (pre (u, 1), ())", "u", 12),
            ("mix (pre u, v)", "u", 10),
            ("mix (i1 -> pre u, v)", "u", 16),
        ],
    )
    def test_an_unbound_leaf_fails_as_in_the_reference_evaluator(self, text, name, col):
        env = leaf_env()
        e = parse_expression(text)
        got = outcome(lambda: eval_expr(env, e))
        want = outcome(lambda: reference_eval(env, e, reference_context(env), None))
        assert got == want == (InternalError, f"unbound name '{name}' at 1:{col}")

    @pytest.mark.parametrize("seed", range(300))
    def test_tuple_arguments_bound_in_place_match_the_reference_evaluator(self, seed):
        rng = random.Random(seed)
        call = gen_call_expr(rng, rng.randrange(1, 4))
        env = leaf_env() | {"w": -1}
        context = reference_context(env)

        def system(evaluate):
            next_equations, bound = evaluate()
            return EvalResult(bound, next_equations)

        # The call alone, where a `pre` reads its operand at once, and as the
        # first of two equations, where a `pre` waits for the second to bind
        # `w`. Each pair is (evaluator, reference, first input).
        cases = [
            (lambda e: eval_expr(env, e), lambda e: reference_eval(env, e, context, None), call),
            (
                lambda eqs: system(lambda: eval_equations(env, eqs)),
                lambda eqs: system(lambda: reference_run_equations(dict(env), eqs, context)),
                (Equation(PVar("r"), call), Equation(PVar("w"), parse_expression("r + 1"))),
            ),
        ]
        for evaluate, reference_evaluate, start in cases:
            shared = reference = start
            for _ in range(5):
                before = copy.deepcopy(shared)
                got = outcome(lambda: evaluate(shared))
                want = outcome(lambda: reference_evaluate(reference))
                assert shared == before
                assert got == want
                if isinstance(got[0], type):
                    break
                # Every node of its input that the reference keeps, the
                # sharing evaluator keeps too, in the same place.
                counterpart = {id(r): s for r, s in corresponding_roots(reference, shared)}
                for w, g in corresponding_roots(want[1], got[1]):
                    if id(w) in counterpart:
                        assert g is counterpart[id(w)]
                shared, reference = got[1], want[1]


def value_of(t, rng: random.Random):
    """A random value of first-order type `t`; a type variable, or `int`, takes an int."""
    if type(t) is TTuple:
        return VTuple(tuple(value_of(item, rng) for item in t.items))
    if type(t) is TOption:
        return VSome(value_of(t.elem, rng)) if rng.random() < 0.5 else VNone()
    if t == BOOL:
        return rng.random() < 0.5
    if t == UNIT:
        return UNIT_VALUE
    return rng.randrange(-9, 10)


def shipped_steps():
    """(program, step) for each bodied step of the shipped programs."""
    for path in sorted(PROGRAMS.glob("*.mim")):
        for step in parse_program(path.read_text()).steps:
            if not step.is_prototype:
                yield path.stem, step.name


class TestFiringEntry:
    """`eval_expr(env, Const(f), ctx, applied_to=v)`, a node's firing, gives
    what the application `f v` gives, with the step's next literal as its
    next expression."""

    CYCLES = 6

    def assert_firings_agree(self, env, f, values):
        direct = applied = Const(f)
        for v in values:
            e = Apply(applied, Const(v))
            got = outcome(lambda: eval_expr(env, direct, EvalContext(HostContext(0, "n")), applied_to=v))
            want = outcome(lambda: eval_expr(env, e, EvalContext(HostContext(0, "n"))))
            if isinstance(want[0], type):
                assert got == want
                return
            assert got[0] == want[0]
            assert got[1].value == want[1].fn.value
            assert (got[1] is direct) == (want[1] is e)
            direct, applied = got[1], want[1].fn

    @pytest.mark.parametrize("program, step", list(shipped_steps()))
    def test_shipped_steps_agree_with_the_application(self, program, step):
        checked = check_program(parse_program((PROGRAMS / f"{program}.mim").read_text()))
        schemes, _ = infer_types(checked.program)
        env = init_network(checked).env
        rng = random.Random(program + step)
        values = [value_of(schemes[step].body.arg, rng) for _ in range(self.CYCLES)]
        self.assert_firings_agree(env, env[step], values)

    @pytest.mark.parametrize("seed", range(100))
    def test_systems_agree_with_the_application(self, seed):
        rng = random.Random(seed)
        equations = gen_system(rng, rng.randrange(1, 4))
        out = equations[0].lhs.names()[0]
        try:
            ordered = order_equations(StepDecl("s", PVar("i0"), PVar(out), tuple(equations)))
        except CausalityError:
            return
        values = [rng.randrange(-9, 10) for _ in range(self.CYCLES)]
        self.assert_firings_agree(system_env(), VClosure(PVar("i0"), PVar(out), ordered), values)

    def test_an_extern_is_called_once_with_the_host_context(self):
        calls = []
        pin = Const(VExtern("pin", lambda v, host: calls.append((v, host)) or VSome(v)))
        ctx = EvalContext(HostContext(30, "n"))
        r = eval_expr(env_of(), pin, ctx, applied_to=5)
        assert r.value == VSome(5) and r.next is pin
        assert calls == [(5, ctx.host)] and calls[0][1] is ctx.host


def corresponding(a, b):
    """The pairs of corresponding nodes of two equal expressions, the
    equations of step literals included."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        yield x, y
        stack.extend(zip(children(x), children(y)))


def corresponding_roots(a, b):
    """`corresponding` for two expressions or two equation lists."""
    if type(a) is tuple:
        for x, y in zip(a, b):
            yield from corresponding(x.rhs, y.rhs)
    else:
        yield from corresponding(a, b)


def children(node) -> list:
    if type(node) is Const:
        return [eq.rhs for eq in node.value.equations] if type(node.value) is VClosure else []
    out = []
    for slot in type(node).__slots__:
        child = getattr(node, slot)
        out.extend(c for c in (child if type(child) is tuple else (child,)) if isinstance(c, Expr))
    return out


def leaves_read_in_place(e: Expr):
    """(position, leaf kind) for each name or literal under `e` that its
    parent reads in place."""
    for node, _ in corresponding(e, e):
        kind = type(node)
        if kind is Binary:
            pairs = [("operand", node.left), ("operand", node.right)]
        elif kind is Apply:
            pairs = [("argument", node.arg)]
        elif kind is Tuple:
            pairs = [("item", item) for item in node.items]
        elif kind is Arrow and type(node.first) is Const:
            pairs = [("head of ->", node.first)]
        elif kind is If:
            pairs = [("branch", node.then), ("branch", node.orelse)]
        elif kind is Some:
            pairs = [("Some operand", node.expr)]
        elif kind is Pre:
            pairs = [("pre operand", node.expr)]
        elif kind is Const and type(node.value) is VClosure:
            pairs = [("right-hand side", eq.rhs) for eq in node.value.equations]
        else:
            pairs = []
        for position, leaf in pairs:
            if type(leaf) is Var:
                yield position, "unbound name" if leaf.name == UNBOUND else "name"
            elif type(leaf) is Const:
                yield position, "literal"


def outcome(evaluate):
    """What an evaluation gave: its value and next expression, or the class
    and message of what it raised."""
    try:
        result = evaluate()
    except Exception as exc:  # a kernel could raise a Python error
        return type(exc), str(exc)
    return result.value, result.next


class TestOperatorKernels:
    SEEDS = range(400)

    # One operand of each kind: int (zero included), bool, real, unit, tuple,
    # `None`, `Some` and undefined.
    OPERANDS = (0, 3, -7, True, False, 1.5, UNIT_VALUE, VTuple((1, True)), VNone(), VSome(2), VUndef())

    @pytest.mark.parametrize("op", BINARY_OPS)
    def test_an_operator_is_the_application_of_its_builtin(self, op):
        # Every pair of operands, as literals and as names read in place: the
        # same value, of the same class, or the same error as the general
        # application of the builtin to the pair; and both settle.
        env = BUILTIN_VALUES | {"a": None, "b": None}
        for a in self.OPERANDS:
            for b in self.OPERANDS:
                env["a"], env["b"] = a, b
                for left, right in ((Const(a), Const(b)), (Var("a"), Var("b"))):
                    e = Binary(BUILTIN_VALUES[op], left, right)
                    general = Apply(Var(op), Tuple((left, right)))
                    got = outcome(lambda: eval_expr(env, e))
                    want = outcome(lambda: eval_expr(env, general))
                    if isinstance(want[0], type):
                        assert got == want
                    else:
                        assert type(got[0]) is type(want[0]) and got[0] == want[0]
                        assert got[1] is e and want[1] is general

    @pytest.mark.parametrize("seed", SEEDS)
    def test_operators_match_the_reference_evaluator(self, seed):
        rng = random.Random(seed)
        shared = reference = gen_operator_expr(rng, rng.randrange(1, 4))
        env = base_env()
        for _ in range(5):
            got = outcome(lambda: eval_expr(env, shared))
            want = outcome(lambda: reference_eval(env, reference, reference_context(env), None))
            assert got == want
            if isinstance(got[0], type):
                break
            shared, reference = got[1], want[1]

    def test_the_generator_reaches_every_path(self):
        seen = set()
        for seed in self.SEEDS:
            rng = random.Random(seed)
            e = gen_operator_expr(rng, rng.randrange(1, 4))
            for _ in range(5):
                got = outcome(lambda: eval_expr(base_env(), e))
                if isinstance(got[0], type):
                    seen.add(got[1].split(",")[0])
                    break
                seen.add(type(got[0]).__name__)
                e = got[1]
        assert {"int", "bool", "division by zero", "undefined operand for '+'"} <= seen
        assert any(kind.endswith("expects integer operands") for kind in seen)

    @pytest.mark.parametrize(
        "x, y, quotient", [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (0, 5, 0), (-1, 3, 0)]
    )
    def test_division_truncates_toward_zero(self, x, y, quotient):
        assert eval_expr(env_of(x=x, y=y), parse_expression("x / y")).value == quotient

    def test_division_by_zero(self):
        with pytest.raises(EvalError, match="^division by zero$"):
            eval_expr(env_of(x=-7, y=0), parse_expression("x / y"))

    @pytest.mark.parametrize("op", ["+", "-", "*", "/", "<", "<=", ">", ">="])
    def test_bool_operands_take_the_checked_path(self, op):
        for left, right in ((True, 1), (1, False), (True, True)):
            e = Binary(BUILTIN_VALUES[op], Const(left), Const(right))
            want = outcome(lambda: reference_eval(BUILTIN_VALUES, e, reference_context(BUILTIN_VALUES), None))
            assert outcome(lambda: eval_expr(BUILTIN_VALUES, e)) == want
        if op in INT_OPS:
            e = Binary(BUILTIN_VALUES[op], Const(True), Const(1))
            with pytest.raises(EvalError, match=f"^'\\{op}' expects integer operands, got true$"):
                eval_expr(BUILTIN_VALUES, e)
        else:  # false < true
            e = Binary(BUILTIN_VALUES[op], Const(True), Const(False))
            assert eval_expr(BUILTIN_VALUES, e).value == (op in (">", ">="))

    @pytest.mark.parametrize("seed", range(200))
    def test_logical_operators_match_the_reference_evaluator(self, seed):
        rng = random.Random(seed)
        shared = reference = gen_operator_expr(rng, rng.randrange(1, 4), LOGIC_OPS)
        env = base_env()
        for _ in range(5):
            got = outcome(lambda: eval_expr(env, shared))
            want = outcome(lambda: reference_eval(env, reference, reference_context(env), None))
            assert got == want
            if isinstance(got[0], type):
                break
            shared, reference = got[1], want[1]

    def test_the_logical_generator_reaches_every_path(self):
        seen = set()
        for seed in range(200):
            rng = random.Random(seed)
            e = gen_operator_expr(rng, rng.randrange(1, 4), LOGIC_OPS)
            for _ in range(5):
                got = outcome(lambda: eval_expr(base_env(), e))
                if isinstance(got[0], type):
                    seen.add(got[1])
                    break
                seen.add(type(got[0]).__name__)
                e = got[1]
        assert "bool" in seen and "int" not in seen
        for op in LOGIC_OPS:
            assert f"undefined operand for '{op}'" in seen
            assert any(kind.startswith(f"'{op}' expects boolean operands") for kind in seen)

    @pytest.mark.parametrize("op", LOGIC_OPS)
    def test_int_operands_of_a_logical_operator_take_the_checked_path(self, op):
        for left, right in ((1, True), (False, 1), (1, 0)):
            e = Binary(BUILTIN_VALUES[op], Const(left), Const(right))
            want = outcome(lambda: reference_eval(BUILTIN_VALUES, e, reference_context(BUILTIN_VALUES), None))
            assert outcome(lambda: eval_expr(BUILTIN_VALUES, e)) == want
        e = Binary(BUILTIN_VALUES[op], Const(1), Const(True))
        with pytest.raises(EvalError, match="^" + re.escape(f"'{op}' expects boolean operands, got 1") + "$"):
            eval_expr(BUILTIN_VALUES, e)

    @pytest.mark.parametrize("a, b", [(False, False), (False, True), (True, False), (True, True)])
    def test_logical_operators_on_bools(self, a, b):
        env = env_of(a=a, b=b)
        for text, want in (("a && b", a and b), ("a || b", a or b), ("!a", not a)):
            e = parse_expression(text)
            r = eval_expr(env, e)
            # A settled operator comes back as itself.
            assert r.value == want and type(r.value) is bool and r.next is e

    def test_not_reports_an_ill_typed_operand(self):
        with pytest.raises(EvalError, match="^'!' expects boolean operands, got 1$"):
            eval_expr(env_of(x=1), parse_expression("!x"))
        with pytest.raises(UndefEscape, match="^undefined operand for '!'$"):
            eval_expr(env_of(x=True), parse_expression("!(pre x)"))

    def test_undefined_operand(self):
        with pytest.raises(UndefEscape, match="^undefined operand for '\\+'$"):
            eval_expr(env_of(x=1), parse_expression("pre x + 1"))

    @pytest.mark.parametrize("x, y", [(3, 5), (5, 3), (4, 4), (-2, 2)])
    def test_orderings_on_ints(self, x, y):
        env = env_of(x=x, y=y)
        for op, want in (("<", x < y), ("<=", x <= y), (">", x > y), (">=", x >= y), ("==", x == y)):
            value = eval_expr(env, parse_expression(f"x {op} y")).value
            assert value == want and type(value) is bool

    def test_settled_operator_comes_back_as_itself(self):
        e = parse_expression("x + 1")
        for x in (1, -4, 2**70):
            r = eval_expr(env_of(x=x), e)
            assert r.value == x + 1 and r.next is e
        e = parse_expression("(x + 1) * (x - 2) < x / 3")
        assert eval_expr(env_of(x=9), e).next is e
        e = parse_expression("r < 1.5")  # the checked path
        assert eval_expr(env_of(r=2.5), e).next is e

    def test_an_operand_that_rewrites_rebuilds_the_pair(self):
        e = parse_expression("x + (0 -> pre x)")
        r = eval_expr(env_of(x=2), e)
        assert r.value == 2
        assert r.next == parse_expression("x + (2 -> pre x)")
        assert type(r.next) is Binary and r.next.fn is e.fn and r.next.left is e.left and r.next.span == e.span


@pytest.fixture
def eval_calls(monkeypatch):
    """The class of each node `_eval` is called on, in call order."""
    calls = []
    inner = mimosa.eval._eval

    def counting(env, e, ctx, deferred):
        calls.append(type(e).__name__)
        return inner(env, e, ctx, deferred)

    monkeypatch.setattr(mimosa.eval, "_eval", counting)
    return calls


class TestCallCount:
    """A name or literal child costs no call where its parent reads it in
    place: the applied expression, an application's argument, an operator's
    operands and the literal head of the `v -> pre e` each `pre` leaves. Each
    of these reads was kept because it measured as paying; any other child is
    one call."""

    def test_an_operator_on_two_leaves_is_one_call(self, eval_calls):
        assert eval_expr(env_of(x=1), parse_expression("x + 1")).value == 2
        assert eval_calls == ["Binary"]

    def test_an_extern_firing_is_one_call(self, eval_calls):
        # A host step's name applied to a literal, as a step body calls it.
        env = env_of() | {"pin": VExtern("pin", lambda v, host: VSome(v))}
        assert eval_expr(env, Apply(Var("pin"), Const(5))).value == VSome(5)
        assert eval_calls == ["Apply"]

    def test_the_head_of_a_pre_hole_costs_no_call(self, eval_calls):
        body = (("s", "u + u"), ("a", "0 -> pre (s + 1)"))
        step = VClosure(PVar("u"), PVar("a"), tuple(Equation(PVar(n), parse_expression(t)) for n, t in body))
        first = eval_expr(env_of(), Apply(Const(step), Const(5)))
        eval_calls.clear()
        # The second firing: its call, `u + u`, the hole `11 -> pre (s + 1)`,
        # which builds its `pre`'s next hole itself, and the deferred operand
        # `s + 1`; no `Const` and no `Pre`.
        assert eval_expr(env_of(), first.next).value == 11
        assert eval_calls == ["Apply", "Binary", "Arrow", "Binary"]

    def test_one_activation_of_a_chain_step(self, eval_calls):
        body = [
            ("s", "mix (u, 1)"),
            ("a", "0 -> pre (s + 1)"),
            ("b", "1 fby a"),
            ("y", "if a < b then a + b else b - a"),
        ]
        step = VClosure(PVar("u"), PVar("y"), tuple(Equation(PVar(n), parse_expression(t)) for n, t in body))
        mix = VClosure(PTuple((PVar("a"), PVar("b"))), PVar("r"), (Equation(PVar("r"), parse_expression("a * b")),))
        # A node firing: the step's literal applied to the literal of its input.
        firing = Apply(Const(step), Const(5))
        assert eval_expr(env_of(mix=mix), firing).value == 1
        # The firing, then `mix`: its call, whose pair of leaves is bound in
        # place, and `a * b` in its body; `->`, which builds its `pre`'s hole
        # itself; `fby` and its head, which only this first activation
        # evaluates; `if`, its condition and the taken branch; and last the
        # deferred `pre` operand `s + 1`.
        assert eval_calls == [
            "Apply", "Apply", "Binary",
            "Arrow", "Fby", "Const", "If", "Binary", "Binary", "Binary",
        ]

    def test_other_leaves_of_a_body_are_one_call_each(self, eval_calls):
        # A firing of `hold`, whose right-hand sides `a` and `2`, `Some`
        # operand `m`, taken branch `o` and `pre` operand `c` are each one
        # call: the firing; `a` and `2`; `->`, which builds its `pre`'s hole
        # itself; `Some` and `m`; `either`, its `if`, the condition `c > k`
        # and the branch `o`; and last the deferred `pre` operand `c`.
        firing = Apply(Const(HOLD), Const(5))
        assert eval_expr(leaf_env(), firing).value == 0
        assert eval_calls == [
            "Apply", "Var", "Const", "Arrow", "Some", "Var",
            "Either", "If", "Binary", "Var", "Var",
        ]

    def test_a_firing_of_a_host_step_costs_no_call(self, eval_calls):
        pin = Const(VExtern("pin", lambda v, host: VSome(v)))
        assert eval_expr(env_of(), pin, applied_to=5).value == VSome(5)
        assert eval_calls == []

    def test_a_firing_costs_no_call_of_its_own(self, eval_calls):
        # `hold` fired through `applied_to`: the calls of its body only.
        assert eval_expr(leaf_env(), Const(HOLD), applied_to=5).value == 0
        assert eval_calls == [
            "Var", "Const", "Arrow", "Some", "Var",
            "Either", "If", "Binary", "Var", "Var",
        ]

    def test_a_second_firing_reads_its_pre_hole_in_place(self, eval_calls):
        body = (("s", "u + u"), ("a", "0 -> pre (s + 1)"))
        step = VClosure(PVar("u"), PVar("a"), tuple(Equation(PVar(n), parse_expression(t)) for n, t in body))
        first = eval_expr(env_of(), Const(step), applied_to=5)
        eval_calls.clear()
        # `u + u`, the hole `11 -> pre (s + 1)`, which builds its `pre`'s
        # next hole itself, and the deferred operand `s + 1`; no `Const`.
        assert eval_expr(env_of(), first.next, applied_to=5).value == 11
        assert eval_calls == ["Binary", "Arrow", "Binary"]
