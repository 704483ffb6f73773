import random

import pytest
from hypothesis import given, strategies as st

from exprgen import TOP_TYPES, base_env, gen_expr, gen_system, run_cycles, system_env
from mimosa import (
    CausalityError,
    EvalError,
    eval_equations,
    eval_expr,
    order_equations,
    parse_expression,
    parse_program,
)
from mimosa.ast import (
    Apply,
    Const,
    Equation,
    Fby,
    Lambda,
    PTuple,
    PUnit,
    PVar,
    PWild,
    StepDecl,
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
from mimosa.builtins import BUILTIN_VALUES
from mimosa.errors import InternalError, UndefEscape
from mimosa.eval import Env, EvalContext, HostContext, value_to_expr


def env_of(**bindings) -> Env:
    values = dict(BUILTIN_VALUES)
    for name, v in bindings.items():
        values[name] = VConst(v) if not isinstance(v, (VConst, VTuple, VSome, VNone, VClosure)) else v
    return Env(values)


class TestProjection:
    def test_single_variable(self):
        env = Env({"x": VConst(1), "y": VConst(2)})
        assert env.project(PVar("x")) == VConst(1)

    def test_tuple(self):
        env = Env({"x": VConst(1), "y": VConst(2)})
        assert env.project(PTuple((PVar("x"), PVar("y")))) == VTuple((VConst(1), VConst(2)))

    def test_unit(self):
        assert Env().project(PUnit()) == UNIT_VALUE

    def test_wildcard_never_projects(self):
        with pytest.raises(InternalError):
            Env({"x": VConst(1)}).project(PWild())


class TestUpdate:
    def test_extends(self):
        env = Env({"x": VConst(1), "y": VConst(2)})
        new = env.update(PVar("z"), VConst(3))
        assert new.lookup("z") == VConst(3)
        assert [n for n, _ in new] == ["x", "y", "z"]

    def test_previous_bindings_are_lost(self):
        env = Env({"x": VConst(1), "y": VConst(2)})
        new = env.update(PTuple((PVar("x"), PVar("y"))), VTuple((VConst(3), VConst(4))))
        assert new.lookup("x") == VConst(3) and new.lookup("y") == VConst(4)

    def test_wildcard_discards(self):
        env = Env({"x": VConst(1)})
        assert env.update(PWild(), VConst(5)) == env

    def test_update_does_not_mutate(self):
        env = Env({"x": VConst(1)})
        env.update(PVar("x"), VConst(9))
        assert env.lookup("x") == VConst(1)

    def test_shape_mismatch(self):
        with pytest.raises(EvalError):
            Env().update(PTuple((PVar("a"), PVar("b"))), VConst(1))


@st.composite
def pattern_with_value(draw, depth=2):
    """A wildcard-free pattern with distinct names plus a matching value."""
    counter = iter(range(10_000))

    def build(d):
        if d == 0 or draw(st.booleans()):
            return PVar(f"v{next(counter)}"), VConst(draw(st.integers(-5, 5)))
        parts = [build(d - 1) for _ in range(draw(st.integers(min_value=2, max_value=3)))]
        return PTuple(tuple(p for p, _ in parts)), VTuple(tuple(v for _, v in parts))

    return build(depth)


class TestEnvProperties:
    @given(pattern_with_value())
    def test_update_then_project_round_trips(self, pv):
        pattern, value = pv
        env = Env({"keep": VConst(99)}).update(pattern, value)
        assert env.project(pattern) == value
        assert env.lookup("keep") == VConst(99)

    @given(pattern_with_value(), pattern_with_value())
    def test_update_is_destructive_per_name(self, first, second):
        pattern, value = first
        other_pattern, other_value = second
        env = Env().update(pattern, value).update(other_pattern, other_value)
        assert env.project(other_pattern) == other_value


class TestRules:
    def test_var(self):
        env = env_of(x=1, y=2)
        r = eval_expr(env, parse_expression("x"))
        assert r.value == VConst(1) and r.next == Var("x")

    def test_const(self):
        r = eval_expr(Env(), parse_expression("7"))
        assert r.value == VConst(7) and r.next == Const(7)

    def test_fby_returns_head_and_keeps_tail_unevaluated(self):
        r = eval_expr(Env(), parse_expression("1 fby 2"))
        assert r.value == VConst(1)
        assert r.next == parse_expression("2")

    def test_fby_tail_untouched_even_if_unbound(self):
        # e2 is not evaluated this cycle, so an unbound name there is fine.
        r = eval_expr(Env(), Fby(Const(1), Var("nope")))
        assert r.value == VConst(1) and r.next == Var("nope")

    def test_pre_of_constant(self):
        r = eval_expr(Env(), parse_expression("pre 7"))
        assert r.value == VUndef()
        assert r.next == parse_expression("7 -> pre 7")

    def test_arrow_advances_right_state(self):
        r = eval_expr(env_of(x=5), parse_expression("1 -> pre x"))
        assert r.value == VConst(1)
        assert r.next == parse_expression("5 -> pre x")

    def test_if_true_keeps_else_branch_untouched(self):
        e = parse_expression("if true then 1 else pre y")
        r = eval_expr(Env(), e)
        assert r.value == VConst(1)
        assert r.next == e  # cond and taken branch are constants

    def test_if_false_keeps_then_branch_untouched(self):
        e = parse_expression("if false then pre y else 2")
        r = eval_expr(Env(), e)
        assert r.value == VConst(2)
        assert r.next == e

    def test_some_and_none(self):
        r = eval_expr(Env(), parse_expression("Some 3"))
        assert r.value == VSome(VConst(3))
        r = eval_expr(Env(), parse_expression("None"))
        assert r.value == VNone()

    def test_either_some_leaves_fallback(self):
        env = env_of(o=VSome(VConst(4)))
        e = parse_expression("either o otherwise pre z")
        r = eval_expr(env, e)
        assert r.value == VConst(4)
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

    def test_builtin_application(self):
        r = eval_expr(env_of(x=1, y=2), parse_expression("x + y"))
        assert r.value == VConst(3)
        assert r.next == parse_expression("x + y")

    def test_division_truncates_toward_zero(self):
        assert eval_expr(env_of(), parse_expression("7 / 2")).value == VConst(3)
        assert eval_expr(env_of(), parse_expression("(0 - 7) / 2")).value == VConst(-3)

    def test_division_by_zero_raises(self):
        with pytest.raises(EvalError, match="division by zero"):
            eval_expr(env_of(), parse_expression("1 / 0"))

    def test_closure_application_rewrites_to_lambda(self):
        double = VClosure(PVar("a"), PVar("z"), (Equation(PVar("z"), parse_expression("a + a")),))
        env = Env(dict(BUILTIN_VALUES) | {"double": double, "x": VConst(21)})
        r = eval_expr(env, parse_expression("double x"))
        assert r.value == VConst(42)
        assert isinstance(r.next, Apply) and isinstance(r.next.fn, Lambda)


class TestEquations:
    def test_constant_stream_fixpoint(self):
        eqs = (Equation(PVar("x"), parse_expression("0 -> pre x")),)
        next_eqs, env = eval_equations(Env(), eqs)
        assert env.lookup("x") == VConst(0)
        assert next_eqs[0].rhs == parse_expression("0 -> pre x")
        # Iterating keeps both the value and the equation fixed.
        for _ in range(10):
            next_eqs, env = eval_equations(Env(), next_eqs)
            assert env.lookup("x") == VConst(0)
            assert next_eqs[0].rhs == parse_expression("0 -> pre x")

    def test_fby_pre_yields_undef_at_cycle_two(self):
        eqs = [Equation(PVar("x"), parse_expression("0 fby pre x"))]
        cycles = run_cycles(eqs, Env, 2)
        assert cycles[0]["x"] == VConst(0)
        assert cycles[1]["x"] == VUndef()

    def test_nested_pre_counterexample_cycle_values(self):
        eqs = [Equation(PVar("x"), parse_expression("0 -> 0 -> pre pre x"))]
        cycles = run_cycles(eqs, Env, 2)
        assert cycles[0]["x"] == VConst(0)
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
            outs.append(env.lookup("out"))
        assert outs == [VNone(), VSome(VConst(True)), VNone(), VSome(VConst(False))]

    def test_later_equation_value_captured_by_earlier_pre(self):
        # a's next expression embeds b's final value even though b is bound
        # after a in causal order.
        eqs = (
            Equation(PVar("a"), parse_expression("0 -> pre b")),
            Equation(PVar("b"), parse_expression("1")),
        )
        next_eqs, env = eval_equations(Env(), eqs)
        assert env.lookup("a") == VConst(0) and env.lookup("b") == VConst(1)
        assert next_eqs[0].rhs == parse_expression("1 -> pre b")

    def test_purity_env_is_never_mutated(self):
        env = env_of(x=1)
        snapshot = dict(iter(env))
        eval_expr(env, parse_expression("pre (x + 1)"))
        eqs = (Equation(PVar("y"), parse_expression("x + 1")),)
        eval_equations(env, eqs)
        assert dict(iter(env)) == snapshot


class TestNestedSteps:
    def make_env(self, v):
        mem = VClosure(PVar("mv"), PVar("mw"), (Equation(PVar("mw"), parse_expression("0 -> pre mv")),))
        return Env(dict(BUILTIN_VALUES) | {"mem": mem, "v": VConst(v)})

    def test_each_call_site_gets_its_own_memory(self):
        eqs = (
            Equation(PVar("a"), parse_expression("mem v")),
            Equation(PVar("b"), parse_expression("mem (v + 1)")),
            Equation(PVar("w"), parse_expression("a + b")),
        )
        observed = []
        for v in (5, 7, 9):
            eqs, env = eval_equations(self.make_env(v), eqs)
            observed.append((env.lookup("a"), env.lookup("b"), env.lookup("w")))
        assert observed == [
            (VConst(0), VConst(0), VConst(0)),
            (VConst(5), VConst(6), VConst(11)),
            (VConst(7), VConst(8), VConst(15)),
        ]

    def test_call_state_survives_in_the_rewritten_lambda(self):
        eqs = (Equation(PVar("w"), parse_expression("mem v")),)
        eqs, _ = eval_equations(self.make_env(1), eqs)
        # The callee variable was replaced by an updated literal closure.
        rhs = eqs[0].rhs
        assert isinstance(rhs, Apply) and isinstance(rhs.fn, Lambda)
        inner = rhs.fn.equations[0].rhs
        assert inner == parse_expression("1 -> pre mv")


class TestHostCalls:
    def make_counting_host(self):
        calls = []

        def fn(value, ctx):
            calls.append(value)
            return VConst(len(calls))

        return VExtern("counter", fn), calls

    def test_impure_host_called_once_per_cycle_inside_equations(self):
        host, calls = self.make_counting_host()
        env = Env(dict(BUILTIN_VALUES) | {"tick": host})
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
        env = Env(dict(BUILTIN_VALUES) | {"tick": host, "g": g})
        # Both applications reach the same `tick x` node of g's body; each is
        # a separate host call with its own argument and result.
        eqs = (
            Equation(PVar("a"), parse_expression("g 1")),
            Equation(PVar("b"), parse_expression("g 2")),
        )
        _, env_out = eval_equations(env, eqs)
        assert calls == [VConst(1), VConst(2)]
        assert env_out.lookup("a") == VConst(1) and env_out.lookup("b") == VConst(2)

    def test_host_receives_context(self):
        seen = {}

        def fn(value, ctx):
            seen["ctx"] = ctx
            return VConst(0)

        env = Env({"h": VExtern("h", fn)})
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

    DOMAIN = (VConst(0), VConst(1), VUndef())

    def brute_force(self, equations):
        import itertools

        names = [eq.lhs.names()[0] for eq in equations]
        solutions = []
        for candidate in itertools.product(self.DOMAIN, repeat=len(names)):
            env = system_env()
            for name, value in zip(names, candidate):
                env = env.update(PVar(name), value)
            derived = system_env()
            try:
                for eq in equations:
                    derived = derived.update(eq.lhs, eval_expr(env, eq.rhs).value)
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
            assert env.lookup(name) == value


class TestValueEmbedding:
    def test_round_trip_through_expr(self):
        values = [
            VConst(5),
            VConst(True),
            VTuple((VConst(1), VNone())),
            VSome(VConst(2)),
            VUndef(),
        ]
        for v in values:
            assert eval_expr(Env(), value_to_expr(v)).value == v
