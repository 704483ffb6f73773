"""Step-layer interpreter: the big-step evaluation relation.

Evaluating an expression yields both its current value and the expression to
run on the next cycle; all stream state is carried by that rewriting, never by
mutable cells. An environment is a plain dict from names to values, and one
passed in by a caller is never mutated: a closure application copies the
caller's, and an activation binds into its own copy.

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

Next expressions share structure with the expressions they came from: a
`Tuple`, `Apply`, `If`, `Some` or `Either` whose evaluated children all come
back as themselves (by identity) comes back as itself, and so does an
equation whose right-hand side does. A settled `fby`, `->` or builtin call
therefore allocates nothing. Sharing is sound because no node reachable from
an earlier next expression is ever mutated: `_fill_pre` sets the fields of
the placeholder `Arrow`s created by the current activation only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    Arrow,
    Apply,
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
    VConst,
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
    match p:
        case PVar(name):
            if name in env:
                return env[name]
            raise _unbound(p)
        case PTuple(items):
            return VTuple(tuple(project(env, i) for i in items))
        case PUnit():
            return UNIT_VALUE
        case PWild():
            raise InternalError("wildcard patterns cannot be projected")
        case _:
            raise InternalError(f"project: unknown pattern {p!r}")


def _update_into(env: Env, p: Pattern, v: Value) -> None:
    match p:
        case PVar(name):
            env[name] = v
        case PWild():
            pass
        case PUnit():
            if v != UNIT_VALUE:
                raise EvalError(f"expected the unit value for pattern (), got {pretty_value(v)}")
        case PTuple(items):
            if not isinstance(v, VTuple) or len(v.items) != len(items):
                raise EvalError(f"value {pretty_value(v)} does not match tuple pattern of arity {len(items)}")
            for sub, item in zip(items, v.items):
                _update_into(env, sub, item)
        case _:
            raise InternalError(f"update: unknown pattern {p!r}")


@dataclass(slots=True)
class EvalResult:
    value: Value
    next: Expr


@dataclass(slots=True)
class HostContext:
    """Passed through to host (external) steps on every invocation."""

    time_us: int
    node: str


@dataclass(slots=True)
class EvalContext:
    """Per-evaluation bookkeeping: the host context passed to extern calls."""

    host: HostContext | None = None


def eval_expr(env: Env, e: Expr, ctx: EvalContext | None = None) -> EvalResult:
    """The evaluation relation: env |- e  =>  value, next expression."""
    value, next_expr = _eval(env, e, ctx if ctx is not None else EvalContext(), None)
    return EvalResult(value, next_expr)


# A `pre` met inside an equation list: the placeholder standing for its next
# expression, and the operand that fills it once the activation is complete.
_Deferred = list[tuple[Arrow, Expr]]


def _eval(env: Env, e: Expr, ctx: EvalContext, deferred: _Deferred | None) -> tuple[Value, Expr]:
    """`eval_expr` as a (value, next expression) pair."""
    # The hot productions first: names, literals, and applications.
    kind = type(e)
    if kind is Var:
        try:
            return env[e.name], e
        except KeyError:
            raise _unbound(e) from None
    if kind is Const:
        return e.value, e
    if kind is Apply:
        # A named or literal function is read in place; an unbound name, which
        # _eval reports, or any other expression is evaluated.
        fn = e.fn
        f = env.get(fn.name) if type(fn) is Var else fn.value if type(fn) is Const else None
        fn_next = fn
        if f is None:
            f, fn_next = _eval(env, fn, ctx, deferred)
        arg, arg_next = _eval(env, e.arg, ctx, deferred)
        if type(f) is VExtern:
            same = fn_next is fn and arg_next is e.arg
            return f.fn(arg, ctx.host), e if same else Apply(fn_next, arg_next, span=e.span)
        if type(f) is VClosure:
            # A call of a step, and every firing of a bodied node.
            inner = dict(env)
            _update_into(inner, f.in_pattern, arg)
            callee = VClosure(f.in_pattern, f.out_pattern, _run_equations(inner, f.equations, ctx))
            return project(inner, f.out_pattern), Apply(Const(callee), arg_next, span=e.span)
        if type(f) is VUndef:
            raise UndefEscape(_escape("applied expression", e.span))
        raise EvalError(f"application of a non-function value {pretty_value(f)}")
    match e:
        case Tuple(items):
            # A loop, not a comprehension, so each level is one interpreter frame.
            values = []
            nexts = []
            same = True
            for item in items:
                value, item_next = _eval(env, item, ctx, deferred)
                values.append(value)
                nexts.append(item_next)
                same = same and item_next is item
            return VTuple(tuple(values)), e if same else Tuple(tuple(nexts), span=e.span)
        case Pre(inner):
            hole = Arrow(inner, e, span=e.span)  # both fields are set by _fill_pre
            if deferred is None:
                _fill_pre(hole, env, inner, ctx)
            else:
                deferred.append((hole, inner))
            return VUndef(), hole
        case Fby(first, rest):
            return _eval(env, first, ctx, deferred)[0], rest
        case Arrow(first, rest):
            value = _eval(env, first, ctx, deferred)[0]
            return value, _eval(env, rest, ctx, deferred)[1]
        case If(cond, then, orelse):
            c, cond_next = _eval(env, cond, ctx, deferred)
            if _branch(c, e):
                value, then_next = _eval(env, then, ctx, deferred)
                same = cond_next is cond and then_next is then
                return value, e if same else If(cond_next, then_next, orelse, span=e.span)
            value, else_next = _eval(env, orelse, ctx, deferred)
            same = cond_next is cond and else_next is orelse
            return value, e if same else If(cond_next, then, else_next, span=e.span)
        case Some(inner):
            value, inner_next = _eval(env, inner, ctx, deferred)
            return VSome(value), e if inner_next is inner else Some(inner_next, span=e.span)
        case Either(scrutinee, fallback):
            option, scrutinee_next = _eval(env, scrutinee, ctx, deferred)
            match option:
                case VSome(payload):
                    same = scrutinee_next is scrutinee
                    return payload, e if same else Either(scrutinee_next, fallback, span=e.span)
                case VNone():
                    value, fallback_next = _eval(env, fallback, ctx, deferred)
                    same = scrutinee_next is scrutinee and fallback_next is fallback
                    return value, e if same else Either(scrutinee_next, fallback_next, span=e.span)
                case VUndef():
                    raise UndefEscape(_escape("either scrutinee", e.span))
                case other:
                    raise InternalError(f"either scrutinee evaluated to non-option {other!r}")
        case _:
            raise InternalError(f"eval: unknown expression {e!r}")


def _branch(cond: Value, site: Expr) -> bool:
    match cond:
        case VConst(bool() as b):
            return b
        case VUndef():
            raise UndefEscape(_escape("if condition", site.span))
        case other:
            raise InternalError(f"if condition evaluated to non-boolean {other!r}")


def _at(span: Span) -> str:
    """Where a runtime error happened, if the node came from source text."""
    return f" at {span}" if span.line else ""


def _escape(where: str, span: Span) -> str:
    return f"undefined value used as {where}{_at(span)} (initialization analysis escape)"


def _unbound(var: Var | PVar) -> InternalError:
    return InternalError(f"unbound name '{var.name}'{_at(var.span)}")


def _fill_pre(hole: Arrow, env: Env, operand: Expr, ctx: EvalContext) -> None:
    """Make hole `v -> pre e'`, the next expression of `pre operand`; env must
    already hold every final value of the activation."""
    value, operand_next = _eval(env, operand, ctx, None)
    hole.first = Const(value)
    hole.rest = Pre(operand_next)


def _run_equations(env: Env, equations: tuple[Equation, ...], ctx: EvalContext) -> tuple[Equation, ...]:
    """One activation, returning the rewritten equations. It owns `env` and
    binds each equation into it in place."""
    deferred: _Deferred = []
    rewritten = []
    for eq in equations:
        value, rhs_next = _eval(env, eq.rhs, ctx, deferred)
        _update_into(env, eq.lhs, value)
        rewritten.append(eq if rhs_next is eq.rhs else Equation(eq.lhs, rhs_next, span=eq.span))
    for hole, operand in deferred:
        _fill_pre(hole, env, operand, ctx)
    return tuple(rewritten)


def eval_equations(
    env: Env, equations: tuple[Equation, ...] | list[Equation], ctx: EvalContext | None = None
) -> tuple[tuple[Equation, ...], Env]:
    """Evaluate an equation list in causal order.

    Returns the rewritten equations and the environment extended with every
    left-hand binding at its final value for this cycle.
    """
    own = dict(env)
    return _run_equations(own, tuple(equations), ctx if ctx is not None else EvalContext()), own
