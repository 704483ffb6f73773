"""Static checks: network well-formedness, causality ordering, initialization
analysis, and Hindley-Milner type inference for steps and node wiring."""

from __future__ import annotations

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
    Var,
    VConst,
    VNone,
    VSome,
    VTuple,
    contains_undef,
    nesting,
)
from .builtins import BUILTIN_TYPES
from .errors import (
    SYNTHETIC,
    CausalityError,
    Diagnostic,
    InitError,
    NetworkError,
    Span,
    TypeCheckError,
)
from .types import (
    BOOL,
    INT,
    REAL,
    UNIT,
    Scheme,
    TFunc,
    TOption,
    TTuple,
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
    if len(a) != len(b):
        raise ValueError("initialization shapes disagree")
    return tuple(init_meet(x, y) for x, y in zip(a, b))


def init_all(t) -> bool:
    if isinstance(t, bool):
        return t
    return all(init_all(x) for x in t)


def _bind_init(statuses: dict, p: Pattern, t) -> None:
    match p:
        case PVar(name):
            statuses[name] = t
        case PWild() | PUnit():
            pass
        case PTuple(items):
            if isinstance(t, bool):
                parts = [t] * len(items)
            elif len(t) == len(items):
                parts = list(t)
            else:
                raise ValueError("initialization shapes disagree with pattern")
            for sub, part in zip(items, parts):
                _bind_init(statuses, sub, part)


class _InitCheck:
    """Computes and checks initialization statuses in one traversal.

    The operand of a `pre` may read names bound later in causal order, so it
    is deferred to the end of the step, as the evaluator defers it. Each
    failure is recorded at its position in a post-order traversal that
    descends into `pre` operands, and the earliest is reported: a position is
    a tuple, and a deferred operand's positions extend its `pre`'s.
    """

    def __init__(self, statuses: dict, file: str):
        self.statuses = statuses
        self.file = file
        self.prefix: tuple[int, ...] = ()
        self.count = 0  # the last position taken under `prefix`
        self.deferred: list[tuple[tuple[int, ...], Expr]] = []
        self.failures: list[tuple[tuple[int, ...], str, Span]] = []

    def _require(self, t, span: Span, what: str, when: str = "on some cycle"):
        self.count += 1
        if t is not True and not init_all(t):
            self.failures.append((self.prefix + (self.count,), f"{what} may be undefined {when}", span))

    def status(self, e: Expr):
        kind = type(e)
        if kind is Var:
            return self.statuses.get(e.name, True)
        if kind is Const:
            return not contains_undef(e.value)
        if kind is Apply:
            self.status(e.fn)
            self._require(self.status(e.arg), e.arg.span, "step argument")
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
            self._require(s1, e.first.span, "left operand of fby")
            # After the first cycle the right operand becomes the whole
            # stream, so its own first value must be defined.
            self._require(s2, e.rest.span, "right operand of fby")
            return True
        if kind is Arrow:
            s1 = self.status(e.first)
            self.status(e.rest)
            self._require(s1, e.first.span, "left operand of ->")
            return s1
        if kind is If:
            sc = self.status(e.cond)
            st = self.status(e.then)
            so = self.status(e.orelse)
            self._require(sc, e.cond.span, "if condition")
            return init_meet(st, so)
        if kind is Some:
            return self.status(e.expr)
        if kind is Either:
            ss = self.status(e.scrutinee)
            sf = self.status(e.fallback)
            self._require(ss, e.scrutinee.span, "either scrutinee")
            return sf
        self.fail(f"cannot analyze expression {e!r}")

    def fail(self, message: str, span: Span = SYNTHETIC):
        raise InitError([Diagnostic(message, span, file=self.file)])

    def finish(self):
        """Check the deferred `pre` operands, then raise the earliest failure."""
        for prefix, operand in self.deferred:  # grows while it is walked
            self.prefix, self.count = prefix, 0
            t = self.status(operand)
            self._require(t, operand.span, "operand of pre", "on the first cycle")
        if self.failures:
            self.fail(*min(self.failures)[1:])


def check_initialization(
    step: StepDecl, ordered: tuple[Equation, ...], file: str = "<string>"
) -> dict:
    """Prove the step's outputs are defined on every cycle.

    `ordered` is the step's equations in causal order (`order_equations`).
    Returns the initialization type of every bound variable. Raises InitError
    with the offending subexpression's span otherwise.
    """
    statuses: dict = {name: True for name in step.in_pattern.names()}
    checker = _InitCheck(statuses, file)
    # A status reads only references outside any pre, and causal order binds
    # those first, so one pass computes every status.
    for eq in ordered:
        _bind_init(statuses, eq.lhs, checker.status(eq.rhs))
    checker.finish()

    for name in step.out_pattern.names():
        if not init_all(statuses.get(name, True)):
            checker.fail(f"step output '{name}' may be undefined on the first cycle", step.out_pattern.span)
    return dict(statuses)


# ---------------------------------------------------------------------------
# Causality: order equations so causal references only point backwards.


def order_equations(
    step: StepDecl, file: str = "<string>", reads: tuple[set[str], ...] | None = None
) -> tuple[Equation, ...]:
    """The step's equations in causal order. `reads` holds the causal names
    of each right-hand side in declaration order, as `check_network` records
    them; without it each right-hand side is walked here."""
    equations = step.equations or ()
    if reads is None:
        reads = tuple(nesting((eq.rhs,)).causal for eq in equations)
    bound: list[set[str]] = [set(eq.lhs.names()) for eq in equations]
    owner = {n: i for i, names in enumerate(bound) for n in names}
    deps: list[set[int]] = []
    for eq, names, causal in zip(equations, bound, reads):
        if own := names & causal:
            message = f"equation for '{min(own)}' depends on itself without a pre"
            raise CausalityError([Diagnostic(message, eq.span, file=file)])
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
        span = equations[min(remaining)].span
        raise CausalityError(
            [Diagnostic(f"causality cycle through {{{names}}} (no pre breaks it)", span, file=file)]
        )
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
    # Per step, the causal names (`Nesting.causal`) of each right-hand side,
    # in declaration order: the one dependency walk `order_equations` reads.
    causal_reads: dict[str, tuple[set[str], ...]]


def check_network(program: Program, *, complete: bool = True, file: str = "<string>") -> NetworkInfo:
    diags: list[Diagnostic] = []

    def report(message: str, span: Span) -> None:
        diags.append(Diagnostic(message, span, file=file))

    step_names = {s.name for s in program.steps}
    channel_names = {c.name for c in program.channels}

    for ch in program.channels:
        if not is_first_order(ch.elem_type):
            report(f"channel '{ch.name}' must carry first-order data", ch.span)

    writer: dict[str, str | None] = {c.name: None for c in program.channels}
    reader: dict[str, str | None] = {c.name: None for c in program.channels}
    for node in program.nodes:
        if node.step not in step_names:
            report(f"unknown step '{node.step}'", node.span)
        for ports, user, verb in ((node.inputs, reader, "read"), (node.outputs, writer, "written")):
            for port in ports:
                if port.channel not in channel_names:
                    report(f"unknown channel '{port.channel}'", port.span)
                elif user[port.channel] is not None:
                    report(f"channel '{port.channel}' already {verb} by node '{user[port.channel]}'", port.span)
                else:
                    user[port.channel] = node.name

    if complete:
        for ch in program.channels:
            if writer.get(ch.name) is None:
                report(f"channel '{ch.name}' has no writing node", ch.span)
            if reader.get(ch.name) is None:
                report(f"channel '{ch.name}' has no reading node", ch.span)

    # Per-step name hygiene.
    reserved = step_names | set(BUILTIN_TYPES)
    for step in program.steps:
        binders = set(step.in_pattern.names())
        for name in step.in_pattern.names():
            if name in reserved:
                report(f"input '{name}' of step '{step.name}' shadows a step or builtin", step.span)
        for eq in step.equations or ():
            for name in eq.lhs.names():
                if name in reserved:
                    report(f"'{name}' shadows a step or builtin", eq.span)
                elif name in binders:
                    report(f"'{name}' is defined more than once in step '{step.name}'", eq.span)
                else:
                    binders.add(name)
        if _has_wild(step.out_pattern):
            report(f"step '{step.name}' cannot use '_' in its output pattern", step.out_pattern.span)
        if not step.is_prototype:
            for name in step.out_pattern.names():
                if name not in binders:
                    report(f"output '{name}' of step '{step.name}' is never defined", step.out_pattern.span)

    functions = step_names | set(BUILTIN_TYPES)
    bodies: dict[str, Nesting] = {}
    reads: dict[str, tuple[set[str], ...]] = {}
    for step in program.steps:
        facts = [nesting((eq.rhs,), functions) for eq in step.equations or ()]
        bodies[step.name] = _merged(facts)
        reads[step.name] = tuple(f.causal for f in facts)
    step_order = _step_topo_order(program, bodies, report)
    if diags:
        raise NetworkError(diags)
    named = frozenset().union(*(body.mentioned for body in bodies.values())) & step_names
    return NetworkInfo(step_order, writer, reader, named, reads)


def _merged(facts: list[Nesting]) -> Nesting:
    """The `Nesting` of all the roots whose separate `Nesting`s are `facts`."""
    return Nesting(
        max((f.depth for f in facts), default=0),
        set().union(*(f.mentioned for f in facts)),
        set().union(*(f.passed for f in facts)),
        any(f.applies_value for f in facts),
        set().union(*(f.causal for f in facts)),
    )


def _has_wild(p: Pattern) -> bool:
    return type(p) is PWild or type(p) is PTuple and any(map(_has_wild, p.items))


def _step_topo_order(
    program: Program, bodies: dict[str, Nesting], report: Callable[[str, Span], None]
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
                report("recursive steps are not allowed: " + " -> ".join(cycle), program.step(callee).span)
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
                program.step(name).span,
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
                program.step(name).span,
            )
    return tuple(order)


# ---------------------------------------------------------------------------
# Type inference


_CONST_TYPES = {bool: BOOL, int: INT, float: REAL}


class _Infer:
    def __init__(self, file: str):
        self.u = Unifier()
        self.file = file

    def fail(self, message: str, span: Span):
        raise TypeCheckError([Diagnostic(message, span, file=self.file)])

    def sig_type(self, p: Pattern, local: dict[str, Type], *, require_annot: bool, step: str) -> Type:
        match p:
            case PVar(name, annot):
                if annot is None and require_annot:
                    self.fail(f"prototype step '{step}' needs a type annotation on '{name}'", p.span)
                t = annot if annot is not None else self.u.fresh()
                local[name] = t
                return t
            case PWild(annot):
                if annot is None and require_annot:
                    self.fail(f"prototype step '{step}' needs a type annotation on '_'", p.span)
                return annot if annot is not None else self.u.fresh()
            case PUnit():
                return UNIT
            case PTuple(items):
                return TTuple(tuple(self.sig_type(i, local, require_annot=require_annot, step=step) for i in items))
            case _:
                raise AssertionError(p)

    def pattern_type(self, p: Pattern, local: dict[str, Type]) -> Type:
        """The type of an equation's left-hand side or a bodied step's output
        pattern, whose names are all in `local`; an annotation must agree."""
        match p:
            case PVar(name, annot):
                t = local[name]
                if annot is not None:
                    self.u.unify(t, annot, p.span, self.file)
                return t
            case PWild():
                return self.u.fresh()
            case PUnit():
                return UNIT
            case PTuple(items):
                return TTuple(tuple(self.pattern_type(i, local) for i in items))
            case _:
                raise AssertionError(p)

    def expr(self, e: Expr, ctx: dict[str, Scheme], local: dict[str, Type]) -> Type:
        kind = type(e)
        if kind is Var:
            name = e.name
            if name in local:
                return local[name]
            if name in ctx:
                return self.u.instantiate(ctx[name])
            self.fail(f"unknown identifier '{name}'", e.span)
        if kind is Const:
            return self.literal_type(e.value)
        if kind is Apply:
            tfn = self.expr(e.fn, ctx, local)
            targ = self.expr(e.arg, ctx, local)
            result = self.u.fresh()
            self.u.unify(tfn, TFunc(targ, result), e.span, self.file)
            return result
        if kind is Tuple:
            return TTuple(tuple([self.expr(i, ctx, local) for i in e.items]))
        if kind is Pre:
            return self.expr(e.expr, ctx, local)
        if kind is Fby or kind is Arrow:
            t1 = self.expr(e.first, ctx, local)
            t2 = self.expr(e.rest, ctx, local)
            self.u.unify(t1, t2, e.span, self.file)
            return t1
        if kind is If:
            tc = self.expr(e.cond, ctx, local)
            self.u.unify(tc, BOOL, e.cond.span, self.file)
            tt = self.expr(e.then, ctx, local)
            to = self.expr(e.orelse, ctx, local)
            self.u.unify(tt, to, e.span, self.file)
            return tt
        if kind is Some:
            return TOption(self.expr(e.expr, ctx, local))
        if kind is Either:
            tf = self.expr(e.fallback, ctx, local)
            ts = self.expr(e.scrutinee, ctx, local)
            self.u.unify(ts, TOption(tf), e.scrutinee.span, self.file)
            return tf
        raise AssertionError(e)

    def literal_type(self, v: Value) -> Type:
        kind = type(v)
        if kind is VConst:
            return _CONST_TYPES.get(type(v.value), UNIT)
        if kind is VTuple:
            return TTuple(tuple([self.literal_type(i) for i in v.items]))
        if kind is VNone:
            return TOption(self.u.fresh())
        if kind is VSome:
            return TOption(self.literal_type(v.value))
        raise AssertionError(v)


def infer_types(
    program: Program, info: NetworkInfo | None = None, file: str = "<string>"
) -> tuple[dict[str, Scheme], dict[str, Type]]:
    """Assign a principal type scheme to every step and a concrete signature to
    every node, checking port wiring against channel element types."""
    if info is None:
        info = check_network(program, complete=False, file=file)
    inf = _Infer(file)
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
            for eq in step.equations or ():
                for n in eq.lhs.names():
                    local.setdefault(n, inf.u.fresh())
            for eq in step.equations or ():
                trhs = inf.expr(eq.rhs, ctx, local)
                inf.u.unify(inf.pattern_type(eq.lhs, local), trhs, eq.span, file)
            tout = inf.pattern_type(step.out_pattern, local)
        ctx[name] = inf.u.generalize(TFunc(tin, tout))

    schemes = {s.name: ctx[s.name] for s in program.steps}

    channel_types = {c.name: c.elem_type for c in program.channels}
    for ch in program.channels:
        for value in ch.initial:
            inf.u.unify(ch.elem_type, inf.literal_type(value), ch.span, file)
    node_sigs: dict[str, Type] = {}
    for node in program.nodes:
        scheme = schemes[node.step]
        sig = inf.u.instantiate(scheme)
        tin = _ports_type(node.inputs, channel_types)
        tout = _ports_type(node.outputs, channel_types)
        inf.u.unify(sig, TFunc(tin, tout), node.span, file)
        node_sigs[node.name] = inf.u.deep_resolve(sig)
    return schemes, node_sigs


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
    source-located diagnostics.
    """
    info = check_network(program, complete=complete_network, file=file)
    infer_types(program, info, file=file)
    ordered: dict[str, tuple[Equation, ...]] = {}
    for step in program.steps:
        if step.is_prototype:
            continue
        ordered[step.name] = order_equations(step, file, info.causal_reads[step.name])
        check_initialization(step, ordered[step.name], file=file)
    return CheckedProgram(
        program=program,
        ordered_equations=ordered,
        channel_writer=info.channel_writer,
        channel_reader=info.channel_reader,
        named_steps=info.named_steps,
    )
