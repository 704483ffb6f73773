"""Coordination layer: timed FIFO channels, periodic nodes, and the
fire/idle rewriting rules.

A channel's validity time is the earliest tag any future write may carry, so
a node can decide emptiness "up to its own activation time" locally. Both
rewriting rules advance the acting node by one period and push its output
channels' validity to activation + 2 * period.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from .analysis import CheckedProgram
from .ast import (
    Apply,
    Expr,
    PortRef,
    Var,
    VClosure,
    VExtern,
    VNone,
    VSome,
    VTuple,
    Value,
    contains_undef,
)
from .builtins import BUILTIN_VALUES
from .errors import Diagnostic, EvalError, InternalError, SimError
from .eval import Env, EvalContext, HostContext, UNIT_VALUE, eval_expr, value_to_expr
from .pretty import format_duration, pretty_value

FIRE = "fire"
IDLE = "idle"
BLOCKED = "blocked"

AVAILABLE = "available"
ABSENT = "absent"
UNDECIDED = "undecided"


@dataclass
class Channel:
    name: str
    writer: str
    reader: str
    queue: deque  # of (value, tag_us), oldest first
    validity: int


@dataclass
class NodeState:
    name: str
    period_us: int
    activation: int
    expr: Expr
    inputs: tuple[PortRef, ...]
    outputs: tuple[PortRef, ...]


@dataclass(frozen=True)
class TraceEvent:
    time_us: int
    channel: str
    value: Value
    node: str
    seq: int


@dataclass(frozen=True)
class StepRecord:
    kind: str  # fire | idle
    node: str
    time_us: int


@dataclass
class NetworkState:
    nodes: dict[str, NodeState]
    channels: dict[str, Channel]
    env: Env
    trace: list[TraceEvent] = field(default_factory=list)
    steps: list[StepRecord] = field(default_factory=list)
    _last_validity: dict[str, int] = field(default_factory=dict)

    def check_invariants(self, node: str | None = None) -> None:
        """Check every channel, or only the input and output channels of
        `node`: the only ones a rule applied to `node` changes."""
        if node is None:
            channels = self.channels.values()
        else:
            ports = self.nodes[node].inputs + self.nodes[node].outputs
            channels = [self.channels[port.channel] for port in ports]
        for ch in channels:
            tags = [tag for _, tag in ch.queue]
            if any(a > b for a, b in zip(tags, tags[1:])):
                raise InternalError(f"channel '{ch.name}' queue is not tag-sorted: {tags}")
            if tags and tags[-1] > ch.validity:
                raise InternalError(
                    f"channel '{ch.name}' holds a tag beyond its validity ({tags[-1]} > {ch.validity})"
                )
            if ch.validity < self._last_validity.get(ch.name, 0):
                raise InternalError(f"channel '{ch.name}' validity moved backwards")
            self._last_validity[ch.name] = ch.validity
            writer = self.nodes[ch.writer]
            if ch.validity != writer.activation + writer.period_us:
                raise InternalError(
                    f"channel '{ch.name}' validity {ch.validity} is not its writer's next write time"
                )


def init_network(cp: CheckedProgram, hosts: Mapping[str, Value] | None = None) -> NetworkState:
    """Build the correct initial configuration: every node at activation 0,
    every channel valid from its writer's first possible write time, initial
    values enqueued with tag 0 (oldest first). Every step is bound once under
    its own name: a bodied step as its closure, a prototype as `hosts[name]`."""
    hosts = hosts or {}
    program = cp.program

    env_bindings: dict[str, Value] = dict(BUILTIN_VALUES)
    for step in program.steps:
        if step.is_prototype:
            env_bindings[step.name] = hosts.get(step.name) or _unbound_host(step.name)
        else:
            env_bindings[step.name] = VClosure(
                step.in_pattern, step.out_pattern, cp.ordered_equations[step.name]
            )

    nodes = {
        node.name: NodeState(
            name=node.name,
            period_us=node.period_us,
            activation=0,
            expr=Var(node.step),
            inputs=node.inputs,
            outputs=node.outputs,
        )
        for node in program.nodes
    }

    channels: dict[str, Channel] = {}
    for ch in program.channels:
        writer = cp.channel_writer.get(ch.name)
        reader = cp.channel_reader.get(ch.name)
        if writer is None or reader is None:
            raise SimError(
                [Diagnostic(f"channel '{ch.name}' is not fully wired; simulation needs a complete network")]
            )
        channels[ch.name] = Channel(
            name=ch.name,
            writer=writer,
            reader=reader,
            queue=deque((value, 0) for value in ch.initial),
            validity=program.node(writer).period_us,
        )

    state = NetworkState(nodes=nodes, channels=channels, env=Env(env_bindings))
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
    BLOCKED otherwise."""
    node = ns.nodes[name]
    decision = FIRE
    for port in node.inputs:
        status = port_status(ns.channels[port.channel], node.activation)
        if status == UNDECIDED:
            return BLOCKED
        if status == ABSENT and not port.optional:
            decision = IDLE
    return decision


def fire_node(ns: NetworkState, name: str) -> None:
    node = ns.nodes[name]
    t = node.activation
    args: list[Value] = []
    for port in node.inputs:
        ch = ns.channels[port.channel]
        status = port_status(ch, t)
        if status == AVAILABLE:
            value = ch.queue.popleft()[0]
            args.append(VSome(value) if port.optional else value)
        elif status == ABSENT and port.optional:
            args.append(VNone())
        else:
            raise InternalError(f"fire_node('{name}') called while not enabled")
    if not args:
        argument: Value = UNIT_VALUE
    elif len(args) == 1:
        argument = args[0]
    else:
        argument = VTuple(tuple(args))

    ctx = EvalContext(host=HostContext(time_us=t, node=name))
    try:
        result = eval_expr(ns.env, Apply(node.expr, value_to_expr(argument)), ctx)
    except EvalError as exc:
        raise SimError(
            [
                Diagnostic(
                    f"node '{name}' failed at {format_duration(t)}: {exc.diagnostics[0].message}"
                )
            ]
        ) from exc
    if not isinstance(result.next, Apply):
        raise InternalError(f"node '{name}': rewriting did not produce an application")
    node.expr = result.next.fn

    tag = t + node.period_us
    for port, component in zip(node.outputs, _split_outputs(result.value, node.outputs, name, t)):
        ch = ns.channels[port.channel]
        if port.optional:
            match component:
                case VSome(payload):
                    _write(ns, ch, payload, tag, name)
                case VNone():
                    pass
                case _:
                    raise SimError(
                        [
                            Diagnostic(
                                f"node '{name}': optional output '{port.channel}' produced "
                                f"non-option value {pretty_value(component)}"
                            )
                        ]
                    )
        else:
            _write(ns, ch, component, tag, name)
        ch.validity = t + 2 * node.period_us
    node.activation = tag
    ns.steps.append(StepRecord(FIRE, name, t))
    ns.check_invariants(name)


def _split_outputs(value: Value, outputs: tuple[PortRef, ...], name: str, t: int) -> list[Value]:
    if not outputs:
        if value != UNIT_VALUE:
            raise SimError(
                [Diagnostic(f"node '{name}' has no output ports but produced {pretty_value(value)}")]
            )
        return []
    if len(outputs) == 1:
        return [value]
    if not isinstance(value, VTuple) or len(value.items) != len(outputs):
        raise SimError(
            [
                Diagnostic(
                    f"node '{name}' at {format_duration(t)}: output {pretty_value(value)} does not "
                    f"match its {len(outputs)} ports"
                )
            ]
        )
    return list(value.items)


def _write(ns: NetworkState, ch: Channel, value: Value, tag: int, node: str) -> None:
    if contains_undef(value):
        raise SimError(
            [
                Diagnostic(
                    f"node '{node}' wrote an undefined value to channel '{ch.name}' at tag "
                    f"{format_duration(tag)}"
                )
            ]
        )
    if tag < ch.validity:
        raise InternalError(
            f"write to '{ch.name}' tagged {tag} is below the channel validity {ch.validity}"
        )
    ch.queue.append((value, tag))
    ns.trace.append(TraceEvent(tag, ch.name, value, node, len(ns.trace)))


def idle_node(ns: NetworkState, name: str) -> None:
    node = ns.nodes[name]
    t = node.activation
    for port in node.outputs:
        ns.channels[port.channel].validity = t + 2 * node.period_us
    node.activation = t + node.period_us
    ns.steps.append(StepRecord(IDLE, name, t))
    ns.check_invariants(name)
