"""Step-layer interpreter: environments and the big-step evaluation relation.

Evaluating an expression yields both its current value and the expression to
run on the next cycle; all stream state is carried by that rewriting, never by
mutable cells. Environments passed in by a caller are never mutated.

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
`pre e` evaluates its operand at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .ast import (
    Arrow,
    Apply,
    Const,
    Either,
    Equation,
    Expr,
    Fby,
    If,
    Lambda,
    NoneLit,
    Pattern,
    Pre,
    PTuple,
    PUnit,
    PVar,
    PWild,
    Some,
    Tuple,
    UNDEF_LIT,
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


class Env:
    """Insertion-ordered map from names to values; updates build a new Env."""

    __slots__ = ("_bindings",)

    def __init__(self, bindings: dict[str, Value] | None = None):
        self._bindings: dict[str, Value] = dict(bindings) if bindings else {}

    def lookup(self, name: str, span: Span | None = None) -> Value:
        try:
            return self._bindings[name]
        except KeyError:
            where = f" at {span}" if span else ""
            raise InternalError(f"unbound name '{name}'{where}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._bindings

    def __iter__(self) -> Iterator[tuple[str, Value]]:
        return iter(self._bindings.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Env) and self._bindings == other._bindings

    def __repr__(self) -> str:
        inner = ", ".join(f"{k} -> {v!r}" for k, v in self._bindings.items())
        return f"Env({inner})"

    def project(self, p: Pattern) -> Value:
        match p:
            case PVar(name):
                return self.lookup(name, p.span)
            case PTuple(items):
                return VTuple(tuple(self.project(i) for i in items))
            case PUnit():
                return UNIT_VALUE
            case PWild():
                raise InternalError("wildcard patterns cannot be projected")
            case _:
                raise InternalError(f"project: unknown pattern {p!r}")

    def update(self, p: Pattern, v: Value) -> "Env":
        fresh = dict(self._bindings)
        _update_into(fresh, p, v)
        out = Env.__new__(Env)
        out._bindings = fresh
        return out


def _update_into(bindings: dict[str, Value], p: Pattern, v: Value) -> None:
    match p:
        case PVar(name):
            bindings[name] = v
        case PWild():
            pass
        case PUnit():
            if v != UNIT_VALUE:
                raise EvalError(f"expected the unit value for pattern (), got {v!r}")
        case PTuple(items):
            if not isinstance(v, VTuple) or len(v.items) != len(items):
                raise EvalError(f"value {v!r} does not match tuple pattern of arity {len(items)}")
            for sub, item in zip(items, v.items):
                _update_into(bindings, sub, item)
        case _:
            raise InternalError(f"update: unknown pattern {p!r}")


@dataclass(frozen=True)
class EvalResult:
    value: Value
    next: Expr


@dataclass(frozen=True)
class HostContext:
    """Passed through to host (external) steps on every invocation."""

    time_us: int
    node: str


@dataclass
class EvalContext:
    """Per-evaluation bookkeeping: the host context passed to extern calls."""

    host: HostContext | None = None


def value_to_expr(v: Value) -> Expr:
    """Embed a runtime value as a literal expression (the Pre rule needs it)."""
    match v:
        case VConst(x):
            return Const(x)
        case VUndef():
            return Const(UNDEF_LIT)
        case VTuple(items):
            return Tuple(tuple(value_to_expr(i) for i in items))
        case VNone():
            return NoneLit()
        case VSome(inner):
            return Some(value_to_expr(inner))
        case VClosure(in_pattern, out_pattern, equations):
            return Lambda(in_pattern, out_pattern, equations)
        case VExtern(name):
            return Var(name)
        case _:
            raise InternalError(f"value_to_expr: unknown value {v!r}")


def _const_value(c: Const) -> Value:
    if c.value is UNDEF_LIT:
        return VUndef()
    return VConst(c.value)


def eval_expr(env: Env, e: Expr, ctx: EvalContext | None = None) -> EvalResult:
    """The evaluation relation: env |- e  =>  value, next expression."""
    return _eval(env, e, ctx if ctx is not None else EvalContext(), None)


# A `pre` met inside an equation list: the placeholder standing for its next
# expression, and the operand that fills it once the activation is complete.
_Deferred = list[tuple[Arrow, Expr]]


def _eval(env: Env, e: Expr, ctx: EvalContext, deferred: _Deferred | None) -> EvalResult:
    match e:
        case Var(name):
            return EvalResult(env.lookup(name, e.span), e)
        case Const():
            return EvalResult(_const_value(e), e)
        case Tuple(items):
            parts = [_eval(env, item, ctx, deferred) for item in items]
            return EvalResult(
                VTuple(tuple(r.value for r in parts)),
                Tuple(tuple(r.next for r in parts), span=e.span),
            )
        case Pre(inner):
            hole = Arrow(inner, e, span=e.span)  # both fields are set by _fill_pre
            if deferred is None:
                _fill_pre(hole, env, inner, ctx)
            else:
                deferred.append((hole, inner))
            return EvalResult(VUndef(), hole)
        case Fby(first, rest):
            r1 = _eval(env, first, ctx, deferred)
            return EvalResult(r1.value, rest)
        case Arrow(first, rest):
            r1 = _eval(env, first, ctx, deferred)
            r2 = _eval(env, rest, ctx, deferred)
            return EvalResult(r1.value, r2.next)
        case If(cond, then, orelse):
            rc = _eval(env, cond, ctx, deferred)
            taken = _branch(rc.value, e)
            if taken:
                rt = _eval(env, then, ctx, deferred)
                return EvalResult(rt.value, If(rc.next, rt.next, orelse, span=e.span))
            ro = _eval(env, orelse, ctx, deferred)
            return EvalResult(ro.value, If(rc.next, then, ro.next, span=e.span))
        case NoneLit():
            return EvalResult(VNone(), e)
        case Some(inner):
            r = _eval(env, inner, ctx, deferred)
            return EvalResult(VSome(r.value), Some(r.next, span=e.span))
        case Either(scrutinee, fallback):
            rs = _eval(env, scrutinee, ctx, deferred)
            match rs.value:
                case VSome(payload):
                    return EvalResult(payload, Either(rs.next, fallback, span=e.span))
                case VNone():
                    rf = _eval(env, fallback, ctx, deferred)
                    return EvalResult(rf.value, Either(rs.next, rf.next, span=e.span))
                case VUndef():
                    raise UndefEscape(_escape("either scrutinee", e.span))
                case other:
                    raise InternalError(f"either scrutinee evaluated to non-option {other!r}")
        case Lambda(in_pattern, out_pattern, equations):
            return EvalResult(VClosure(in_pattern, out_pattern, equations), e)
        case Apply(fn, arg):
            rf = _eval(env, fn, ctx, deferred)
            ra = _eval(env, arg, ctx, deferred)
            match rf.value:
                case VClosure(in_pattern, out_pattern, equations):
                    inner = env.update(in_pattern, ra.value)
                    next_eqs, final = _run_equations(inner, equations, ctx)
                    lam = Lambda(in_pattern, out_pattern, next_eqs)
                    return EvalResult(final.project(out_pattern), Apply(lam, ra.next, span=e.span))
                case VExtern():
                    result = rf.value.fn(ra.value, ctx.host)
                    return EvalResult(result, Apply(rf.next, ra.next, span=e.span))
                case VUndef():
                    raise UndefEscape(_escape("applied expression", e.span))
                case other:
                    raise EvalError(f"application of a non-function value {other!r}")
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


def _escape(where: str, span: Span) -> str:
    at = f" at {span}" if span.line else ""
    return f"undefined value used as {where}{at} (initialization analysis escape)"


def _fill_pre(hole: Arrow, env: Env, operand: Expr, ctx: EvalContext) -> None:
    """Make hole `v -> pre e'`, the next expression of `pre operand`; env must
    already hold every final value of the activation."""
    r = _eval(env, operand, ctx, None)
    object.__setattr__(hole, "first", value_to_expr(r.value))
    object.__setattr__(hole, "rest", Pre(r.next))


def _run_equations(
    env: Env, equations: tuple[Equation, ...], ctx: EvalContext
) -> tuple[tuple[Equation, ...], Env]:
    """One activation. It owns `env` and binds each equation into it in place."""
    deferred: _Deferred = []
    rewritten = []
    for eq in equations:
        r = _eval(env, eq.rhs, ctx, deferred)
        _update_into(env._bindings, eq.lhs, r.value)
        rewritten.append(Equation(eq.lhs, r.next, span=eq.span))
    for hole, operand in deferred:
        _fill_pre(hole, env, operand, ctx)
    return tuple(rewritten), env


def eval_equations(
    env: Env, equations: tuple[Equation, ...] | list[Equation], ctx: EvalContext | None = None
) -> tuple[tuple[Equation, ...], Env]:
    """Evaluate an equation list in causal order.

    Returns the rewritten equations and the environment extended with every
    left-hand binding at its final value for this cycle.
    """
    own = Env(env._bindings)
    return _run_equations(own, tuple(equations), ctx if ctx is not None else EvalContext())
