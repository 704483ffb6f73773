"""Step-layer interpreter: the big-step evaluation relation.

Evaluating an expression yields both its current value and the expression to
run on the next cycle; all stream state is carried by that rewriting, never by
mutable cells. A scalar is a plain Python value, boxed only at a host call.
An environment is a plain dict from names to values, and one passed in by a
caller is never mutated: each activation binds into its own.

An equation list is one activation and evaluates in a single pass. Each
right-hand side runs once, in causal order, under the activation's own
environment, which is extended in place as each equation binds (sound because
causal references only point backwards). The *value* of `pre e` is undefined
whatever the environment, but its next expression `v -> pre e'` needs e's
final current value, which may refer to equations bound later. So inside an
equation list `pre e` returns a placeholder for its next expression and
defers `e`; after the last equation every deferred operand is evaluated under
the completed environment and its placeholder filled in before the activation
returns. Outside an equation list the environment is already complete, and
`pre e` evaluates its operand at once. The value `v` goes into the next
expression as one literal holding it, `Const(v)`, and a literal evaluates to
the value it holds, so a value that waits in a `pre` is never rebuilt. The
value of `pre e` itself is `VUndef`, the only undefined value. A call of a
step rewrites the same way: `f a` rewrites to `c a'`, where the literal `c`
holds the callee's closure value with its next equations, so the closure
carries the call's state.

The hot path is direct: `_eval` dispatches on the node's class, in the order
of measured entry counts: an operator (`Binary`), `->`, `if`, an application,
then names and literals, which their parents mostly read. An operator holds
its builtin, so it is evaluated with no lookup of its symbol and no
application. A name or
literal child is read by its parent with no recursive call, and is its own
next expression, in the five positions where that measured as paying: the
applied expression, an application's argument, each operand of an operator,
each item of a tuple argument of a same-arity tuple pattern, and the literal
head of the `v -> pre e` each `pre` leaves. Any other child, and an unbound
name, goes to `_eval`, which reports every error. Two operands of an
operator's kernel type (`int`, or `bool` for `&&` and `||`) go to the kernel
with no pair built; others take its checked `run`, as an application of the
builtin to the pair would. A tuple argument's items, once all evaluated, are
bound straight into the callee's activation, with no `VTuple`, and in an
equation list `v -> pre e` builds its `pre`'s next hole itself, with no call
and no `VUndef`. A node firing builds no application: `eval_expr` with
`applied_to=v` applies a step literal to v, calling an extern with `ctx.host`
or running a closure in `_activate`, the one activation step calls use too. An
activation starts from the globals, not the caller's locals, which no checked
body can read (a local may not shadow a step). Next expressions share
structure: a `Binary`, `Tuple`, `Apply`, `If`, `Some` or `Either` whose
evaluated children all come back as themselves (by identity) comes back as
itself, and so does an equation whose right-hand side does, so a settled
`fby`, `->` or operator allocates nothing, and a `pre` of a settled operand
only the `v -> pre e` around its own node. A settled activation's closure is
its own next state, so a stateless step allocates nothing after its first
cycle, and its firing returns the literal it was given. Sharing is sound
because no node reachable from an earlier next expression is ever mutated:
`_fill_pre` sets the fields of the placeholder `Arrow`s created by the current
activation only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    Arrow,
    Apply,
    Binary,
    Const,
    Either,
    Equation,
    Expr,
    Fby,
    If,
    Pattern,
    Pre,
    PTuple,
    PUnit,
    PVar,
    PWild,
    Some,
    Tuple,
    UNIT_VALUE,
    Var,
    VClosure,
    VExtern,
    VNone,
    VSome,
    VTuple,
    VUndef,
    Value,
)
from .errors import EvalError, InternalError, Span, UndefEscape
from .pretty import pretty_value

Env = dict[str, Value]


def project(env: Env, p: Pattern) -> Value:
    """The value of pattern `p` under `env`."""
    kind = type(p)
    if kind is PVar:
        if p.name in env:
            return env[p.name]
        raise _unbound(p)
    if kind is PTuple:
        return VTuple(tuple([project(env, i) for i in p.items]))
    if kind is PUnit:
        return UNIT_VALUE
    if kind is PWild:
        raise InternalError("wildcard patterns cannot be projected")
    raise InternalError(f"project: unknown pattern {p!r}")


def _update_into(env: Env, p: Pattern, v: Value) -> None:
    kind = type(p)
    if kind is PVar:
        env[p.name] = v
    elif kind is PTuple:
        if type(v) is not VTuple or len(v.items) != len(p.items):
            raise EvalError(f"value {pretty_value(v)} does not match tuple pattern of arity {len(p.items)}")
        for sub, item in zip(p.items, v.items):
            _update_into(env, sub, item)
    elif kind is PUnit and v != UNIT_VALUE:
        got = "an empty tuple value" if v == VTuple(()) else pretty_value(v)
        raise EvalError(f"expected the unit value for pattern (), got {got}")
    elif kind is not PUnit and kind is not PWild:
        raise InternalError(f"update: unknown pattern {p!r}")


@dataclass(slots=True)
class EvalResult:
    value: Value
    next: Expr


@dataclass(slots=True)
class HostContext:
    """Passed to host (external) steps on every call: the firing node and its
    activation. A node keeps one context and each firing sets its time, so a
    host reads its context during the call and keeps no reference to it."""

    time_us: int
    node: str


@dataclass(slots=True)
class EvalContext:
    """Per-evaluation bookkeeping: the host context passed to extern calls,
    and the globals each step activation starts from, which `eval_expr` and
    `eval_equations` set to the environment they are given."""

    host: HostContext | None = None
    globals: Env | None = field(default=None, init=False)


def eval_expr(env: Env, e: Expr, ctx: EvalContext | None = None, *, applied_to: Value | None = None) -> EvalResult:
    """The evaluation relation: env |- e  =>  value, next expression. With
    `applied_to`, a node's firing of step literal `e` (a `Const` of a closure
    or an extern) on that value: the entry perfbench's tracer wraps."""
    ctx = ctx if ctx is not None else EvalContext()
    ctx.globals = env
    if applied_to is None:
        return EvalResult(*_eval(env, e, ctx, None))
    f = e.value
    if type(f) is VExtern:
        return EvalResult(f.fn(applied_to, ctx.host), e)
    value, callee = _activate(f, applied_to, ctx)
    return EvalResult(value, e if callee is f else Const(callee))


# A `pre` met inside an equation list: the placeholder standing for its next
# expression, and the operand that fills it once the activation is complete.
_Deferred = list[tuple[Arrow, Expr]]


def _eval(env: Env, e: Expr, ctx: EvalContext, deferred: _Deferred | None) -> tuple[Value, Expr]:
    """`eval_expr` as a (value, next expression) pair."""
    # One class test per production, the most entered ones first.
    kind = type(e)
    if kind is Binary:
        # A name or literal operand is read in place, and is its own next
        # expression; an unbound name (`get` gives None) or any other child
        # goes to _eval, which reports every error.
        f, left, right = e.fn, e.left, e.right
        a = env.get(left.name) if type(left) is Var else left.value if type(left) is Const else None
        left_next = left
        if a is None:
            a, left_next = _eval(env, left, ctx, deferred)
        b = env.get(right.name) if type(right) is Var else right.value if type(right) is Const else None
        right_next = right
        if b is None:
            b, right_next = _eval(env, right, ctx, deferred)
        kernel = f.kernel  # for two operands of its plain type; others take the checked path
        if kernel is not None and type(a) is kernel[0] and type(b) is kernel[0]:
            value = kernel[1](a, b)
        else:
            value = f.fn(VTuple((a, b)), ctx.host)
        return value, e if left_next is left and right_next is right else Binary(f, left_next, right_next, e.loc)
    if kind is Arrow:
        # Every firing evaluates the `v -> pre e` hole of each `pre`, whose head
        # is a literal; a parsed `->` is evaluated once and is then its rest.
        first, rest = e.first, e.rest
        value = first.value if type(first) is Const else _eval(env, first, ctx, deferred)[0]
        if type(rest) is Pre and deferred is not None:
            hole = Arrow(rest.expr, rest, rest.loc)
            deferred.append((hole, rest.expr))
            return value, hole
        return value, _eval(env, rest, ctx, deferred)[1]
    if kind is If:
        cond = e.cond
        c, cond_next = _eval(env, cond, ctx, deferred)
        took_then = _branch(c, e)
        branch = e.then if took_then else e.orelse
        value, branch_next = _eval(env, branch, ctx, deferred)
        if cond_next is cond and branch_next is branch:
            return value, e
        if took_then:
            return value, If(cond_next, branch_next, e.orelse, e.loc)
        return value, If(cond_next, e.then, branch_next, e.loc)
    if kind is Apply:
        # A name or literal child is read in place, as an operand is.
        fn, arg = e.fn, e.arg
        f = env.get(fn.name) if type(fn) is Var else fn.value if type(fn) is Const else None
        fn_next = fn
        if f is None:
            f, fn_next = _eval(env, fn, ctx, deferred)
        pattern, inner = f.in_pattern if type(f) is VClosure else None, None
        if type(arg) is Tuple and type(pattern) is PTuple and len(arg.items) == len(pattern.items):
            values, nexts, same = [], [], True
            for item in arg.items:
                value = env.get(item.name) if type(item) is Var else item.value if type(item) is Const else None
                item_next = item
                if value is None:
                    value, item_next = _eval(env, item, ctx, deferred)
                    same = same and item_next is item
                values.append(value)
                nexts.append(item_next)
            inner = dict(ctx.globals)
            for sub, value in zip(pattern.items, values):
                if type(sub) is PVar:
                    inner[sub.name] = value
                else:
                    _update_into(inner, sub, value)
            arg_value, arg_next = None, arg if same else Tuple(tuple(nexts), arg.loc)
        else:
            arg_value = env.get(arg.name) if type(arg) is Var else arg.value if type(arg) is Const else None
            arg_next = arg
            if arg_value is None:
                arg_value, arg_next = _eval(env, arg, ctx, deferred)
        if type(f) is VExtern:
            same = fn_next is fn and arg_next is arg
            return f.fn(arg_value, ctx.host), e if same else Apply(fn_next, arg_next, e.loc)
        if type(f) is VClosure:
            value, callee = _activate(f, arg_value, ctx, inner)
            # A settled call of a literal is its own next expression; a named
            # callee still becomes a literal, as the name may change meaning.
            if callee is f and type(fn) is Const and arg_next is arg:
                return value, e
            return value, Apply(Const(callee), arg_next, e.loc)
        if type(f) is VUndef:
            raise UndefEscape(_escape("applied expression", e.span))
        raise EvalError(f"application of a non-function value {pretty_value(f)}")
    if kind is Var:
        try:
            return env[e.name], e
        except KeyError:
            raise _unbound(e) from None
    if kind is Const:
        return e.value, e
    if kind is Pre:
        hole = Arrow(e.expr, e, e.loc)  # both fields are set by _fill_pre
        if deferred is None:
            _fill_pre(hole, env, e.expr, ctx)
        else:
            deferred.append((hole, e.expr))
        return VUndef(), hole
    if kind is Fby:
        return _eval(env, e.first, ctx, deferred)[0], e.rest
    if kind is Tuple:
        # A loop, not a comprehension, so each level is one interpreter frame.
        values = []
        nexts = []
        same = True
        for item in e.items:
            value, item_next = _eval(env, item, ctx, deferred)
            same = same and item_next is item
            values.append(value)
            nexts.append(item_next)
        return VTuple(tuple(values)), e if same else Tuple(tuple(nexts), e.loc)
    if kind is Some:
        value, inner_next = _eval(env, e.expr, ctx, deferred)
        return VSome(value), e if inner_next is e.expr else Some(inner_next, e.loc)
    if kind is Either:
        scrutinee, fallback = e.scrutinee, e.fallback
        option, scrutinee_next = _eval(env, scrutinee, ctx, deferred)
        if type(option) is VSome:
            same = scrutinee_next is scrutinee
            return option.value, e if same else Either(scrutinee_next, fallback, e.loc)
        if type(option) is VNone:
            value, fallback_next = _eval(env, fallback, ctx, deferred)
            same = scrutinee_next is scrutinee and fallback_next is fallback
            return value, e if same else Either(scrutinee_next, fallback_next, e.loc)
        if type(option) is VUndef:
            raise UndefEscape(_escape("either scrutinee", e.span))
        raise InternalError(f"either scrutinee evaluated to non-option {option!r}")
    raise InternalError(f"eval: unknown expression {e!r}")


def _branch(cond: Value, site: Expr) -> bool:
    if type(cond) is bool:
        return cond
    if type(cond) is VUndef:
        raise UndefEscape(_escape("if condition", site.span))
    raise InternalError(f"if condition evaluated to non-boolean {cond!r}")


def _at(span: Span) -> str:
    """Where a runtime error happened, if the node came from source text."""
    return f" at {span}" if span.line else ""


def _escape(where: str, span: Span) -> str:
    return f"undefined value used as {where}{_at(span)} (initialization analysis escape)"


def _unbound(var: Var | PVar) -> InternalError:
    return InternalError(f"unbound name '{var.name}'{_at(var.span)}")


def _activate(f: VClosure, arg_value: Value, ctx: EvalContext, inner: Env | None = None) -> tuple[Value, VClosure]:
    """One activation of step `f` on `arg_value`, from the globals, or in
    `inner` that already holds them and the bound input: its output and the
    closure holding its next equations, `f` itself if none changed."""
    if inner is None:
        inner = dict(ctx.globals)
        if type(f.in_pattern) is PVar:
            inner[f.in_pattern.name] = arg_value
        else:
            _update_into(inner, f.in_pattern, arg_value)
    equations = _run_equations(inner, f.equations, ctx)
    callee = f if equations is f.equations else VClosure(f.in_pattern, f.out_pattern, equations)
    out = f.out_pattern
    return inner[out.name] if type(out) is PVar and out.name in inner else project(inner, out), callee


def _fill_pre(hole: Arrow, env: Env, operand: Expr, ctx: EvalContext) -> None:
    """Make hole `v -> pre e'`, the next expression of `pre operand`, keeping
    the `pre` if e' is operand; env must hold the activation's final values."""
    value, operand_next = _eval(env, operand, ctx, None)
    if operand_next is not operand:
        hole.rest = Pre(operand_next)
    hole.first = Const(value)


def _run_equations(env: Env, equations: tuple[Equation, ...], ctx: EvalContext) -> tuple[Equation, ...]:
    """One activation, returning the rewritten equations, `equations` itself
    if none changed. It owns `env` and binds each equation into it in place."""
    deferred: _Deferred = []
    rewritten = []
    same = True
    for eq in equations:
        rhs = eq.rhs
        value, rhs_next = _eval(env, rhs, ctx, deferred)
        if type(eq.lhs) is PVar:
            env[eq.lhs.name] = value
        else:
            _update_into(env, eq.lhs, value)
        same = same and rhs_next is rhs
        rewritten.append(eq if rhs_next is rhs else Equation(eq.lhs, rhs_next, eq.loc))
    for hole, operand in deferred:
        _fill_pre(hole, env, operand, ctx)
    return equations if same else tuple(rewritten)


def eval_equations(
    env: Env, equations: tuple[Equation, ...] | list[Equation], ctx: EvalContext | None = None
) -> tuple[tuple[Equation, ...], Env]:
    """Evaluate an equation list in causal order.

    Returns the rewritten equations and the environment extended with every
    left-hand binding at its final value for this cycle.
    """
    ctx = ctx if ctx is not None else EvalContext()
    ctx.globals = env
    own = dict(env)
    return _run_equations(own, tuple(equations), ctx), own
