"""Coordination layer: timed FIFO channels, periodic nodes, and the
fire/idle rewriting rules.

A channel's validity time is the earliest tag any future write may carry, so
a node can decide emptiness "up to its own activation time" locally. Both
rewriting rules advance the acting node by one period and push its output
channels' validity to activation + 2 * period.

`init_network` resolves names once: each node gets its ports as (channel,
optional) pairs, the literal of its step value and its evaluation context.
The rules and the invariant check after each rule read these, and keep the
last validity the check saw on the channel itself, so a step does no lookup
by name. A channel names its writer, so the run state holds no cycle. A
firing applies the node's step literal directly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from .analysis import CheckedProgram
from .ast import (
    Const,
    Expr,
    PortRef,
    VClosure,
    VExtern,
    VNone,
    VSome,
    VTuple,
    Value,
)
from .builtins import BUILTIN_VALUES
from .errors import Diagnostic, EvalError, InternalError, Loc, Located, SimError
from .eval import Env, EvalContext, HostContext, UNIT_VALUE, eval_expr
from .pretty import format_duration

FIRE = "fire"
IDLE = "idle"
BLOCKED = "blocked"

AVAILABLE = "available"
ABSENT = "absent"
UNDECIDED = "undecided"


@dataclass(slots=True)
class Channel:
    name: str
    writer: str
    reader: str
    queue: deque  # of (value, tag_us), oldest first
    validity: int
    last_validity: int = 0  # as the last invariant check saw it


@dataclass(slots=True)
class NodeState(Located):
    name: str
    period_us: int
    activation: int
    expr: Expr
    inputs: tuple[PortRef, ...]
    outputs: tuple[PortRef, ...]
    loc: Loc  # of the node's declaration; `span` resolves it
    # The ports resolved by init_network: (channel, optional) pairs.
    in_ports: tuple[tuple[Channel, bool], ...] = field(repr=False, compare=False)
    out_ports: tuple[tuple[Channel, bool], ...] = field(repr=False, compare=False)
    ctx: EvalContext = field(repr=False, compare=False)  # each firing sets `ctx.host.time_us`


# The run's records are plain tuples. A step record holds no container, so the
# cyclic collector stops tracking it at its first collection.
TraceEvent = tuple[int, str, Value, str]  # a write: (time_us, channel, value, node)
StepRecord = tuple[str, str, int]  # a rule: (kind, node, time_us), kind fire | idle


@dataclass
class NetworkState:
    nodes: dict[str, NodeState]
    channels: dict[str, Channel]
    env: Env
    trace: list[TraceEvent] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)

    def check_invariants(self, node: str | None = None) -> None:
        """Check every channel, or only the input and output channels of
        `node`: the only ones a rule applied to `node` changes, each in O(1).
        Only the full check scans a queue for tag order; after a rule the
        order follows from the other checks: `_write` rejects a tag below the
        validity, which is at least every queued tag, and `popleft` keeps it."""
        if node is None:
            ports = [(ch, False) for ch in self.channels.values()]
            for ch, _ in ports:
                if len(ch.queue) > 1:
                    tags = [tag for _, tag in ch.queue]
                    if any(a > b for a, b in zip(tags, tags[1:])):
                        raise InternalError(f"channel '{ch.name}' queue is not tag-sorted: {tags}")
        else:
            acting = self.nodes[node]
            ports = acting.in_ports + acting.out_ports
        for ch, _ in ports:
            validity = ch.validity
            if ch.queue and ch.queue[-1][1] > validity:
                raise InternalError(
                    f"channel '{ch.name}' holds a tag beyond its validity ({ch.queue[-1][1]} > {validity})"
                )
            if validity < ch.last_validity:
                raise InternalError(f"channel '{ch.name}' validity moved backwards")
            ch.last_validity = validity
            writer = self.nodes[ch.writer] if node is None else acting  # only its outputs moved
            if writer.name == ch.writer and validity != writer.activation + writer.period_us:
                raise InternalError(
                    f"channel '{ch.name}' validity {validity} is not its writer's next write time"
                )


def init_network(cp: CheckedProgram, hosts: Mapping[str, Value] | None = None) -> NetworkState:
    """Build the correct initial configuration: every node at activation 0,
    every channel valid from its writer's first possible write time, initial
    values enqueued with tag 0 (oldest first). Every step is bound once under
    its own name: a bodied step as its closure, a prototype as `hosts[name]`."""
    hosts = hosts or {}
    program = cp.program

    env_bindings: Env = dict(BUILTIN_VALUES)
    for step in program.steps:
        if step.is_prototype:
            env_bindings[step.name] = hosts.get(step.name) or _unbound_host(step.name)
        else:
            env_bindings[step.name] = VClosure(
                step.in_pattern, step.out_pattern, cp.ordered_equations[step.name]
            )
    # One literal per step, shared by its nodes: a literal is never mutated.
    literals = {step.name: Const(env_bindings[step.name]) for step in program.steps}

    channels: dict[str, Channel] = {}
    for ch in program.channels:
        writer = cp.channel_writer.get(ch.name)
        reader = cp.channel_reader.get(ch.name)
        if writer is None or reader is None:
            message = f"channel '{ch.name}' is not fully wired; simulation needs a complete network"
            raise SimError([Diagnostic.at(message, ch.loc)])
        channels[ch.name] = Channel(ch.name, writer, reader, deque(ch.initial and [(v, 0) for v in ch.initial]), 0)

    nodes: dict[str, NodeState] = {}
    for decl in program.nodes:
        node = nodes[decl.name] = NodeState(
            decl.name,
            decl.period_us,
            0,
            literals[decl.step],
            decl.inputs,
            decl.outputs,
            decl.loc,
            tuple([(channels[port.channel], port.optional) for port in decl.inputs]),
            tuple([(channels[port.channel], port.optional) for port in decl.outputs]),
            EvalContext(HostContext(0, decl.name)),
        )
        for ch, _ in node.out_ports:
            ch.validity = node.period_us

    state = NetworkState(nodes=nodes, channels=channels, env=env_bindings)
    state.check_invariants()
    return state


def _unbound_host(step_name: str) -> Value:
    def fail(_value, _ctx):
        raise EvalError(f"prototype step '{step_name}' has no host binding")

    return VExtern(step_name, fail)


def port_status(ch: Channel, t: int) -> str:
    """Decide a port against activation time t.

    AVAILABLE: the oldest element is usable now. ABSENT: no element can ever
    arrive with a tag <= t. UNDECIDED: an element with tag <= t may still
    arrive, so the producer must be rewritten first.
    """
    if ch.queue:
        return AVAILABLE if ch.queue[0][1] <= t else ABSENT
    return ABSENT if ch.validity > t else UNDECIDED


def node_enabled(ns: NetworkState, name: str) -> str:
    """FIRE when every mandatory input is available and no input is
    undecided, IDLE when none is undecided but a mandatory one is absent,
    BLOCKED otherwise. Each port is decided as `port_status` does."""
    node = ns.nodes[name]
    t = node.activation
    decision = FIRE
    for ch, optional in node.in_ports:
        if ch.queue:
            if ch.queue[0][1] > t and not optional:
                decision = IDLE
        elif ch.validity <= t:
            return BLOCKED
        elif not optional:
            decision = IDLE
    return decision


def fire_node(ns: NetworkState, name: str) -> None:
    node = ns.nodes[name]
    t = node.activation
    args: list[Value] = []
    for ch, optional in node.in_ports:
        queue = ch.queue
        if queue and queue[0][1] <= t:
            value = queue.popleft()[0]
            args.append(VSome(value) if optional else value)
        elif optional and (queue or ch.validity > t):
            args.append(VNone())
        else:
            raise InternalError(f"fire_node('{name}') called while not enabled")
    if not args:
        argument: Value = UNIT_VALUE
    elif len(args) == 1:
        argument = args[0]
    else:
        argument = VTuple(tuple(args))

    ctx = node.ctx
    ctx.host.time_us = t
    try:
        result = eval_expr(ns.env, node.expr, ctx, applied_to=argument)
    except EvalError as exc:
        raise _failure(node, f" failed at {format_duration(t)}: {exc.diagnostics[0].message}") from exc
    node.expr = result.next

    # One component per output port: a single port takes the whole value. It needs no check: type
    # inference gives a bodied step's value the ports' types, and `sim._per_node_host` a host's.
    value = result.value
    outs = node.out_ports
    components = (value,) if len(outs) == 1 else value.items if outs else ()
    tag = t + node.period_us
    for (ch, optional), component in zip(outs, components):
        if not optional:
            _write(ns, ch, component, tag, name)
        elif type(component) is VSome:
            _write(ns, ch, component.value, tag, name)
    _advance(ns, node, FIRE)


def _write(ns: NetworkState, ch: Channel, value: Value, tag: int, node: str) -> None:
    if tag < ch.validity:
        raise InternalError(
            f"write to '{ch.name}' tagged {tag} is below the channel validity {ch.validity}"
        )
    ch.queue.append((value, tag))
    ns.trace.append((tag, ch.name, value, node))


def _failure(node: NodeState, message: str) -> SimError:
    """A runtime failure of `node`, located at its declaration: `message`
    follows the node's name."""
    return SimError([Diagnostic.at(f"node '{node.name}'{message}", node.loc)])


def idle_node(ns: NetworkState, name: str) -> None:
    _advance(ns, ns.nodes[name], IDLE)


def _advance(ns: NetworkState, node: NodeState, kind: str) -> None:
    """The ending of both rules: move `node` one period on, push its output
    channels' validity to activation + 2 * period, record the step and check
    the invariants. A firing writes first, since `_write` rejects a tag below
    the validity."""
    t = node.activation
    period = node.period_us
    node.activation = t + period
    for ch, _ in node.out_ports:
        ch.validity = t + 2 * period
    ns.steps.append((kind, node.name, t))
    ns.check_invariants(node.name)
