"""Static checks: network well-formedness, causality ordering, initialization
analysis, and Hindley-Milner type inference for steps and node wiring.

A builtin binary operator applied to operands that already have its operand
type is typed in place, without unification; the variables it would have
used are taken all the same, so messages name variables as the general path
does. Compared values must be first-order, like the equality type variables
of Standard ML."""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import Callable

from .ast import (
    Apply,
    Arrow,
    Const,
    Either,
    Equation,
    Expr,
    Fby,
    If,
    Nesting,
    Pattern,
    Pre,
    Program,
    PTuple,
    PUnit,
    PVar,
    PWild,
    Some,
    StepDecl,
    Tuple,
    Value,
    UNIT_VALUE,
    Var,
    VConst,
    VNone,
    VSome,
    VTuple,
    contains_undef,
    nesting,
)
from .builtins import BINARY_OPS, BUILTIN_TYPES
from .errors import (
    SYNTHETIC,
    CausalityError,
    Diagnostic,
    InitError,
    InternalError,
    Loc,
    MimosaError,
    NetworkError,
    Span,
    TypeCheckError,
)
from .pretty import pretty_value
from .types import (
    BOOL,
    INT,
    REAL,
    UNIT,
    Scheme,
    TBase,
    TFunc,
    TOption,
    TTuple,
    TVar,
    Type,
    Unifier,
    is_first_order,
)

# ---------------------------------------------------------------------------
# Initialization lattice: True = initialized, pointwise over tuples.


def init_meet(a, b):
    if isinstance(a, bool) and isinstance(b, bool):
        return a and b
    if isinstance(a, bool):
        return tuple(init_meet(a, x) for x in b)
    if isinstance(b, bool):
        return tuple(init_meet(x, b) for x in a)
    if len(a) != len(b):  # type inference rejects mismatched shapes first
        raise InternalError("initialization shapes disagree")
    return tuple(init_meet(x, y) for x, y in zip(a, b))


def init_all(t) -> bool:
    if isinstance(t, bool):
        return t
    return all(map(init_all, t))


def _bind_init(statuses: dict, p: Pattern, t) -> None:
    kind = type(p)
    if kind is PVar:
        statuses[p.name] = t
    elif kind is PTuple:
        items = p.items
        if isinstance(t, bool):
            parts = [t] * len(items)
        elif len(t) == len(items):
            parts = list(t)
        else:
            raise InternalError("initialization shapes disagree with pattern")
        for sub, part in zip(items, parts):
            _bind_init(statuses, sub, part)


class _InitCheck:
    """Computes and checks initialization statuses in one traversal.

    The operand of a `pre` may read names bound later in causal order, so it
    is deferred to the end of the step, as the evaluator defers it. Each
    failure is recorded at its position in a post-order traversal that
    descends into `pre` operands, and the earliest is reported: a position is
    a tuple, and a deferred operand's positions extend its `pre`'s. An
    application requires its applied step, then its argument, to be defined;
    a name or literal there, or in an operand pair, is read without a call.
    """

    def __init__(self, statuses: dict):
        self.statuses = statuses
        self.prefix: tuple[int, ...] = ()
        self.count = 0  # the last position taken under `prefix`
        self.deferred: list[tuple[tuple[int, ...], Expr]] = []
        self.failures: list[tuple[tuple[int, ...], str, Loc]] = []

    def _require(self, t, loc: Loc, what: str, when: str = "on some cycle"):
        self.count += 1
        if t is not True and not init_all(t):
            self.failures.append((self.prefix + (self.count,), f"{what} may be undefined {when}", loc))

    def status(self, e: Expr):
        kind = type(e)
        if kind is Var:
            return self.statuses.get(e.name, True)
        if kind is Const:
            return not contains_undef(e.value)
        if kind is Apply:  # a name or literal child is read here, not by a call
            get, fn, arg = self.statuses.get, e.fn, e.arg
            sf = get(fn.name, True) if type(fn) is Var else self.status(fn)
            k = type(arg)
            if k is Tuple and len(arg.items) == 2:  # an operand pair
                a, b = arg.items
                k = type(a)
                s1 = get(a.name, True) if k is Var else not contains_undef(a.value) if k is Const else self.status(a)
                k = type(b)
                s2 = get(b.name, True) if k is Var else not contains_undef(b.value) if k is Const else self.status(b)
                sa = True if s1 is True and s2 is True else (s1, s2)
            else:
                sa = get(arg.name, True) if k is Var else not contains_undef(arg.value) if k is Const else self.status(arg)
            if sf is True and sa is True:
                self.count += 2  # the positions both requirements take
            else:
                self._require(sf, fn.loc, "applied step")
                self._require(sa, arg.loc, "step argument")
            return True
        if kind is Pre:  # undefined on the first cycle, whatever its operand
            self.count += 1
            self.deferred.append((self.prefix + (self.count,), e.expr))
            return False
        if kind is Tuple:
            return tuple([self.status(i) for i in e.items])
        if kind is Fby:
            s1 = self.status(e.first)
            s2 = self.status(e.rest)
            self._require(s1, e.first.loc, "left operand of fby")
            # After the first cycle the right operand becomes the whole
            # stream, so its own first value must be defined.
            self._require(s2, e.rest.loc, "right operand of fby")
            return True
        if kind is Arrow:
            s1 = self.status(e.first)
            self.status(e.rest)
            self._require(s1, e.first.loc, "left operand of ->")
            return s1
        if kind is If:
            sc = self.status(e.cond)
            st = self.status(e.then)
            so = self.status(e.orelse)
            self._require(sc, e.cond.loc, "if condition")
            return init_meet(st, so)
        if kind is Some:
            return self.status(e.expr)
        if kind is Either:
            ss = self.status(e.scrutinee)
            sf = self.status(e.fallback)
            self._require(ss, e.scrutinee.loc, "either scrutinee")
            return sf
        self.fail(f"cannot analyze expression {e!r}")

    def fail(self, message: str, loc: Loc = SYNTHETIC):
        raise InitError([Diagnostic.at(message, loc)])

    def finish(self):
        """Check the deferred `pre` operands, then raise the earliest failure."""
        for prefix, operand in self.deferred:  # grows while it is walked
            self.prefix, self.count = prefix, 0
            t = self.status(operand)
            self._require(t, operand.loc, "operand of pre", "on the first cycle")
        if self.failures:
            self.fail(*min(self.failures)[1:])


def check_initialization(step: StepDecl, ordered: tuple[Equation, ...]) -> dict:
    """Prove the step's outputs are defined on every cycle.

    `ordered` is the step's equations in causal order (`order_equations`).
    Returns the initialization type of every bound variable. Raises InitError
    with the offending subexpression's span otherwise.
    """
    statuses: dict = {name: True for name in step.in_pattern.names()}
    checker = _InitCheck(statuses)
    # A status reads only references outside any pre, and causal order binds
    # those first, so one pass computes every status.
    for eq in ordered:
        _bind_init(statuses, eq.lhs, checker.status(eq.rhs))
    checker.finish()

    for name in step.out_pattern.names():
        if not init_all(statuses.get(name, True)):
            checker.fail(f"step output '{name}' may be undefined on the first cycle", step.out_pattern.loc)
    return dict(statuses)


# ---------------------------------------------------------------------------
# Causality: order equations so causal references only point backwards.


def order_equations(
    step: StepDecl,
    reads: tuple[set[str], ...] | None = None,
    binds: tuple[list[str], ...] | None = None,
) -> tuple[Equation, ...]:
    """The step's equations in causal order. `reads` holds the causal names
    of each right-hand side and `binds` the names of each left-hand side, in
    declaration order, as `check_network` records them; without them the
    step's right-hand sides are walked here, in one call."""
    equations = step.equations or ()
    if reads is None:
        reads = nesting([eq.rhs for eq in equations]).reads
    if binds is None:
        binds = tuple(eq.lhs.names() for eq in equations)
    bound: list[set[str]] = [set(names) for names in binds]
    owner = {n: i for i, names in enumerate(bound) for n in names}
    deps: list[set[int]] = []
    for eq, names, causal in zip(equations, bound, reads):
        if own := names & causal:
            message = f"equation for '{min(own)}' depends on itself without a pre"
            raise CausalityError([Diagnostic.at(message, eq.loc)])
        deps.append({owner[name] for name in causal & owner.keys()})

    # Kahn's algorithm in rounds: a round is every equation whose last
    # dependency the previous round emitted, in index order.
    waiting = [len(d) for d in deps]
    users: list[list[int]] = [[] for _ in equations]
    for i, d in enumerate(deps):
        for j in d:
            users[j].append(i)
    emitted: list[int] = []
    ready = [i for i, n in enumerate(waiting) if n == 0]
    while ready:
        ready.sort()
        emitted.extend(ready)
        released = []
        for j in ready:
            for i in users[j]:
                waiting[i] -= 1
                if not waiting[i]:
                    released.append(i)
        ready = released
    if len(emitted) < len(equations):
        remaining = set(range(len(equations))).difference(emitted)
        cycle_names = sorted(n for i in remaining for n in bound[i] if _in_cycle(i, deps, remaining))
        names = ", ".join(cycle_names) or "equations"
        message = f"causality cycle through {{{names}}} (no pre breaks it)"
        raise CausalityError([Diagnostic.at(message, equations[min(remaining)].loc)])
    return tuple(equations[i] for i in emitted)


def _in_cycle(start: int, deps: list[set[int]], remaining: set[int]) -> bool:
    seen: set[int] = set()
    stack = [d for d in deps[start] if d in remaining]
    while stack:
        i = stack.pop()
        if i == start:
            return True
        if i in seen:
            continue
        seen.add(i)
        stack.extend(d for d in deps[i] if d in remaining)
    return False


# ---------------------------------------------------------------------------
# Network resolution

# The deepest nesting a step may reach through the steps it calls: the depths
# of the steps' deepest right-hand sides, summed along every chain of calls (a
# step that applies a function value may call any step passed as a value). The
# evaluator takes about one interpreter frame per level, so at this depth a
# run uses about half the interpreter's default recursion limit.
MAX_CALL_DEPTH = 512


@dataclass(frozen=True)
class NetworkInfo:
    step_order: tuple[str, ...]  # call-graph topological order
    channel_writer: dict[str, str | None]
    channel_reader: dict[str, str | None]
    named_steps: frozenset[str]  # the steps some step body calls or passes as a value
    # Per step, the causal names (`Nesting.reads`) of each right-hand side,
    # in declaration order, from the step's one dependency walk.
    causal_reads: dict[str, tuple[set[str], ...]]
    # Per step, the names each left-hand side binds, in declaration order.
    bound_names: dict[str, tuple[list[str], ...]]


def check_network(program: Program, *, complete: bool = True) -> NetworkInfo:
    diags: list[Diagnostic] = []

    def report(message: str, loc: Loc) -> None:
        diags.append(Diagnostic.at(message, loc))

    step_names = {s.name for s in program.steps}
    channel_names = {c.name for c in program.channels}

    for ch in program.channels:
        if not is_first_order(ch.elem_type):
            report(f"channel '{ch.name}' must carry first-order data", ch.loc)

    writer: dict[str, str | None] = {c.name: None for c in program.channels}
    reader: dict[str, str | None] = {c.name: None for c in program.channels}
    for node in program.nodes:
        if node.step not in step_names:
            report(f"unknown step '{node.step}'", node.loc)
        for ports, user, verb in ((node.inputs, reader, "read"), (node.outputs, writer, "written")):
            for port in ports:
                if port.channel not in channel_names:
                    report(f"unknown channel '{port.channel}'", port.loc)
                elif user[port.channel] is not None:
                    report(f"channel '{port.channel}' already {verb} by node '{user[port.channel]}'", port.loc)
                else:
                    user[port.channel] = node.name

    if complete:
        for ch in program.channels:
            if writer.get(ch.name) is None:
                report(f"channel '{ch.name}' has no writing node", ch.loc)
            if reader.get(ch.name) is None:
                report(f"channel '{ch.name}' has no reading node", ch.loc)

    # Per-step name hygiene.
    reserved = step_names | set(BUILTIN_TYPES)
    bound: dict[str, tuple[list[str], ...]] = {}
    for step in program.steps:
        inputs = step.in_pattern.names()
        binders = set(inputs)
        for name in inputs:
            if name in reserved:
                report(f"input '{name}' of step '{step.name}' shadows a step or builtin", step.loc)
        bound[step.name] = tuple(eq.lhs.names() for eq in step.equations or ())
        for eq, names in zip(step.equations or (), bound[step.name]):
            for name in names:
                if name in reserved:
                    report(f"'{name}' shadows a step or builtin", eq.loc)
                elif name in binders:
                    report(f"'{name}' is defined more than once in step '{step.name}'", eq.loc)
                else:
                    binders.add(name)
        if _has_wild(step.out_pattern):
            report(f"step '{step.name}' cannot use '_' in its output pattern", step.out_pattern.loc)
        if not step.is_prototype:
            for name in step.out_pattern.names():
                if name not in binders:
                    report(f"output '{name}' of step '{step.name}' is never defined", step.out_pattern.loc)

    functions = step_names | set(BUILTIN_TYPES)
    bodies = {step.name: nesting([eq.rhs for eq in step.equations or ()], functions) for step in program.steps}
    step_order = _step_topo_order(program, bodies, report)
    if diags:
        raise NetworkError(diags)
    named = frozenset().union(*(body.mentioned for body in bodies.values())) & step_names
    reads = {name: body.reads for name, body in bodies.items()}
    return NetworkInfo(step_order, writer, reader, named, reads, bound)


def _has_wild(p: Pattern) -> bool:
    return type(p) is PWild or type(p) is PTuple and any(map(_has_wild, p.items))


def _step_topo_order(
    program: Program, bodies: dict[str, Nesting], report: Callable[[str, Loc], None]
) -> tuple[str, ...]:
    steps = set(bodies)
    callees = {name: body.mentioned & steps for name, body in bodies.items()}
    order: list[str] = []
    state: dict[str, int] = {}  # 0 = visiting, 1 = done

    # Depth-first from each step in declaration order, callees in name order,
    # with an explicit stack: a chain of calls may be longer than the
    # interpreter's recursion limit.
    for root in bodies:
        if root in state:
            continue
        state[root] = 0
        stack = [(root, iter(sorted(callees[root])))]
        while stack:
            name, pending = stack[-1]
            callee = next(pending, None)
            if callee is None:
                stack.pop()
                state[name] = 1
                order.append(name)
            elif callee not in state:
                state[callee] = 0
                stack.append((callee, iter(sorted(callees[callee]))))
            elif state[callee] == 0:
                path = [n for n, _ in stack]
                cycle = path[path.index(callee) :] + [callee]
                report("recursive steps are not allowed: " + " -> ".join(cycle), program.step(callee).loc)
                state[callee] = 1

    # Callees come first in `order`, so one pass sums the depths along every
    # chain of names. A step that applies a function value may call any step
    # passed as a value, so the second pass adds the deepest of those chains
    # to its own; that bound holds only if no step value's calls apply a
    # function value, because such a step value could receive itself. Only
    # the first step of a chain past the limit is reported.
    passed = set().union(*(body.passed for body in bodies.values()))
    applies: dict[str, bool] = {}
    by_name: dict[str, int] = {}
    for name in order:
        body = bodies[name]
        applies[name] = body.applies_value or any(applies.get(c, False) for c in callees[name])
        by_name[name] = body.depth + max((by_name.get(c, 0) for c in callees[name]), default=0)
        if name in passed and applies[name]:
            report(
                f"step '{name}' is passed as a value but applies a function value, itself or "
                "through the steps it calls, so the depth of its calls cannot be bounded",
                program.step(name).loc,
            )
    if any(applies[name] for name in passed):
        return tuple(order)
    value_depth = max((by_name[name] for name in passed), default=0)
    nested: dict[str, int] = {}
    for name in order:
        body = bodies[name]
        below = max([nested.get(c, 0) for c in callees[name]] + [value_depth if body.applies_value else 0])
        nested[name] = body.depth + below
        if nested[name] > MAX_CALL_DEPTH and below <= MAX_CALL_DEPTH:
            report(
                f"expression nested too deeply: the calls from step '{name}' nest "
                f"{nested[name]} levels (at most {MAX_CALL_DEPTH})",
                program.step(name).loc,
            )
    return tuple(order)


# ---------------------------------------------------------------------------
# Type inference


_CONST_TYPES = {bool: BOOL, int: INT, float: REAL}

# The operand type of each builtin binary operator; None for a comparison,
# whose operands may have any one (first-order) type.
_OPERAND = {op: None if BUILTIN_TYPES[op].vars else BUILTIN_TYPES[op].body.arg.items[0] for op in BINARY_OPS}


class _Infer:
    def __init__(self):
        self.u = Unifier()

    def fail(self, message: str, loc: Loc):
        raise TypeCheckError([Diagnostic.at(message, loc)])

    def sig_type(self, p: Pattern, local: dict[str, Type], *, require_annot: bool, step: str) -> Type:
        kind = type(p)
        if kind is PVar:
            if p.annot is None and require_annot:
                self.fail(f"prototype step '{step}' needs a type annotation on '{p.name}'", p.loc)
            t = p.annot if p.annot is not None else self.u.fresh()
            local[p.name] = t
            return t
        if kind is PWild:
            if p.annot is None and require_annot:
                self.fail(f"prototype step '{step}' needs a type annotation on '_'", p.loc)
            return p.annot if p.annot is not None else self.u.fresh()
        if kind is PUnit:
            return UNIT
        if kind is PTuple:
            return TTuple(tuple(self.sig_type(i, local, require_annot=require_annot, step=step) for i in p.items))
        raise AssertionError(p)

    def pattern_type(self, p: Pattern, local: dict[str, Type]) -> Type:
        """The type of an equation's left-hand side or a bodied step's output
        pattern, whose names are all in `local`; an annotation must agree."""
        kind = type(p)
        if kind is PVar:
            t = local[p.name]
            if p.annot is not None:
                self.u.unify(t, p.annot, p.loc)
            return t
        if kind is PWild:
            return self.u.fresh()
        if kind is PUnit:
            return UNIT
        if kind is PTuple:
            return TTuple(tuple([self.pattern_type(i, local) for i in p.items]))
        raise AssertionError(p)

    def expr(self, e: Expr, ctx: dict[str, Scheme], local: dict[str, Type]) -> Type:
        kind = type(e)
        if kind is Var:
            name = e.name
            if name in local:
                return local[name]
            if name in ctx:
                return self.u.instantiate(ctx[name])
            self.fail(f"unknown identifier '{name}'", e.loc)
        if kind is Const:
            return self.literal_type(e.value)
        if kind is Apply:
            fn, arg = e.fn, e.arg
            if type(fn) is Var and fn.name in _OPERAND and type(arg) is Tuple and len(arg.items) == 2:
                return self.operator(e, ctx, local)
            tfn = self.expr(fn, ctx, local)
            targ = self.expr(arg, ctx, local)
            result = self.u.fresh()
            self.u.unify(tfn, TFunc(targ, result), e.loc)
            return result
        if kind is Tuple:
            return TTuple(tuple([self.expr(i, ctx, local) for i in e.items]))
        if kind is Pre:
            return self.expr(e.expr, ctx, local)
        if kind is Fby or kind is Arrow:
            t1 = self.expr(e.first, ctx, local)
            t2 = self.expr(e.rest, ctx, local)
            self.u.unify(t1, t2, e.loc)
            return t1
        if kind is If:
            tc = self.expr(e.cond, ctx, local)
            self.u.unify(tc, BOOL, e.cond.loc)
            tt = self.expr(e.then, ctx, local)
            to = self.expr(e.orelse, ctx, local)
            self.u.unify(tt, to, e.loc)
            return tt
        if kind is Some:
            return TOption(self.expr(e.expr, ctx, local))
        if kind is Either:
            tf = self.expr(e.fallback, ctx, local)
            ts = self.expr(e.scrutinee, ctx, local)
            self.u.unify(ts, TOption(tf), e.scrutinee.loc)
            return tf
        raise AssertionError(e)

    def operator(self, e: Apply, ctx: dict[str, Scheme], local: dict[str, Type]) -> Type:
        """`e` applies a builtin binary operator to a pair. If both operands
        resolve to the operator's operand type (for a comparison, to one base
        type), its result type is the operator's, with no unification; else
        `e` is typed as any application is. Either way the operator's
        variables, then the result's, take the ids the general path gives
        them, since messages print variables by id."""
        u = self.u
        name = e.fn.name
        scheme = ctx[name]
        first = u.reserve(len(scheme.vars))
        left, right = e.arg.items
        t1 = u.resolve(self.expr(left, ctx, local))
        t2 = u.resolve(self.expr(right, ctx, local))
        result = u.reserve(1)
        operand = _OPERAND[name]
        if t1 is t2 and (t1 is operand or operand is None and type(t1) is TBase):
            return scheme.body.result
        tfn = u.instantiate(scheme, first)
        u.unify(tfn, TFunc(TTuple((t1, t2)), TVar(result)), e.loc)
        return TVar(result)

    def literal_type(self, v: Value) -> Type:
        kind = type(v)
        if kind in _CONST_TYPES:
            return _CONST_TYPES[kind]
        if kind is VConst:  # the unit value, or a host's boxed scalar
            return _CONST_TYPES.get(type(v.value), UNIT)
        if kind is VTuple:
            return TTuple(tuple([self.literal_type(i) for i in v.items]))
        if kind is VNone:
            return TOption(self.u.fresh())
        if kind is VSome:
            return TOption(self.literal_type(v.value))
        raise AssertionError(v)


def infer_types(program: Program, info: NetworkInfo | None = None) -> tuple[dict[str, Scheme], dict[str, Type]]:
    """Assign a principal type scheme to every step and a concrete signature to
    every node, checking port wiring against channel element types."""
    if info is None:
        info = check_network(program, complete=False)
    inf = _Infer()
    ctx: dict[str, Scheme] = dict(BUILTIN_TYPES)
    steps = {s.name: s for s in program.steps}

    for name in info.step_order:
        step = steps[name]
        local: dict[str, Type] = {}
        tin = inf.sig_type(step.in_pattern, local, require_annot=step.is_prototype, step=name)
        if step.is_prototype:
            out_local: dict[str, Type] = {}
            tout = inf.sig_type(step.out_pattern, out_local, require_annot=True, step=name)
        else:
            for names in info.bound_names[name]:
                for n in names:
                    local.setdefault(n, inf.u.fresh())
            for eq in step.equations or ():
                trhs = inf.expr(eq.rhs, ctx, local)
                inf.u.unify(inf.pattern_type(eq.lhs, local), trhs, eq.loc)
            tout = inf.pattern_type(step.out_pattern, local)
        ctx[name] = inf.u.generalize(TFunc(tin, tout))

    schemes = {s.name: ctx[s.name] for s in program.steps}

    channel_types = {c.name: c.elem_type for c in program.channels}
    for ch in program.channels:
        for value in ch.initial:
            inf.u.unify(ch.elem_type, inf.literal_type(value), ch.loc)
    node_sigs: dict[str, Type] = {}
    for node in program.nodes:
        scheme = schemes[node.step]
        sig = inf.u.instantiate(scheme)
        tin = _ports_type(node.inputs, channel_types)
        tout = _ports_type(node.outputs, channel_types)
        inf.u.unify(sig, TFunc(tin, tout), node.loc)
        node_sigs[node.name] = inf.u.deep_resolve(sig)
    return schemes, node_sigs


def declared_type(step: StepDecl, pattern: Pattern) -> Type:
    """The type of `pattern`, an input or output of prototype `step`."""
    return _Infer().sig_type(pattern, {}, require_annot=True, step=step.name)


def check_host_value(step: StepDecl, value: Value, span: Span = SYNTHETIC, file: str = "<string>") -> None:
    """Raise TypeCheckError unless the host value `value` can be a result of
    the prototype `step`, whose output signature is fully annotated."""
    declared = declared_type(step, step.out_pattern)
    if host_unboxer(declared)(value) is None:
        try:
            found = f"has type {_Infer().literal_type(value)}"
        except AssertionError:  # no literal denotes it: undefined, a closure or an extern
            found = f"{pretty_value(value)} has no type"
        message = f"step '{step.name}' returns {declared}, but its host value {found}"
        raise TypeCheckError([Diagnostic(message, span, file=file)])


# A host gets and returns its scalars boxed in `VConst`; the run holds them plain.
_SCALARS = {INT: int, BOOL: bool, REAL: float}


def host_boxer(t: Type) -> Callable[[Value], Value] | None:
    """Boxes the run's value of type `t` for a host; None where `t` holds no scalar."""
    if t in _SCALARS:
        return VConst
    if type(t) is TOption and (box := host_boxer(t.elem)):
        return lambda v: VSome(box(v.value)) if type(v) is VSome else v
    boxes = [host_boxer(i) for i in t.items] if type(t) is TTuple else ()
    if any(boxes):
        return lambda v: VTuple(tuple([x if b is None else b(x) for b, x in zip(boxes, v.items)]))
    return None


def host_unboxer(t: Type) -> Callable[[Value], Value | None]:
    """Unboxes a host's value of type `t` for the run; None for any other value."""
    if t in _SCALARS:
        scalar = _SCALARS[t]
        return lambda v: v.value if type(v) is VConst and type(v.value) is scalar else None
    if type(t) is TOption:
        unbox = host_unboxer(t.elem)
        return lambda v: (
            v if type(v) is VNone else VSome(x) if type(v) is VSome and (x := unbox(v.value)) is not None else None
        )
    if type(t) is TTuple:
        unboxes = [host_unboxer(i) for i in t.items]

        def unbox_tuple(v: Value) -> Value | None:
            if type(v) is not VTuple or len(v.items) != len(unboxes):
                return None
            items = [unbox(x) for unbox, x in zip(unboxes, v.items)]
            return None if None in items else VTuple(tuple(items))

        return unbox_tuple
    return lambda v: UNIT_VALUE if v is UNIT_VALUE or v == UNIT_VALUE else None


def boxed(v: Value) -> Value:
    """Literal `v` as a host returns it: each scalar in a `VConst`."""
    box = host_boxer(_Infer().literal_type(v))
    return v if box is None else box(v)


def _ports_type(ports, channel_types) -> Type:
    tys = []
    for p in ports:
        elem = channel_types[p.channel]
        tys.append(TOption(elem) if p.optional else elem)
    if not tys:
        return UNIT
    if len(tys) == 1:
        return tys[0]
    return TTuple(tuple(tys))


# ---------------------------------------------------------------------------
# The checked program


@dataclass(frozen=True)
class CheckedProgram:
    program: Program
    ordered_equations: dict[str, tuple[Equation, ...]]
    channel_writer: dict[str, str | None]
    channel_reader: dict[str, str | None]
    named_steps: frozenset[str]  # the steps some step body calls or passes as a value


def check_program(
    program: Program, *, complete_network: bool = True, file: str = "<string>"
) -> CheckedProgram:
    """Run every static check and assemble the checked program.

    Raises NetworkError, TypeCheckError, CausalityError, or InitError with
    source-located diagnostics; `file` names those that point at no source.
    Like `parser.parse_program`, it builds no cycles and runs with the cyclic
    collector paused, process-wide: another thread's allocations go
    uncollected meanwhile. The caller's state is restored.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        info = check_network(program, complete=complete_network)
        infer_types(program, info)
        ordered: dict[str, tuple[Equation, ...]] = {}
        for step in program.steps:
            if not step.is_prototype:
                ordered[step.name] = order_equations(step, info.causal_reads[step.name], info.bound_names[step.name])
                check_initialization(step, ordered[step.name])
    except MimosaError as exc:
        raise exc.in_file(file)
    finally:
        if enabled:
            gc.enable()
    return CheckedProgram(
        program=program,
        ordered_equations=ordered,
        channel_writer=info.channel_writer,
        channel_reader=info.channel_reader,
        named_steps=info.named_steps,
    )
