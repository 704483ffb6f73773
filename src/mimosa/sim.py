"""Discrete-event driver over the coordination layer.

Each step applies the rule of the first candidate (a node activated within the
horizon) in schedule order that is not BLOCKED. The deterministic order is by
activation, ties in declaration order, so same-instant host side effects
happen in declaration order. Nodes are time-triggered, so the driver walks
instants: a heap of the distinct activations, each with its batch of node
indices. It pops the earliest, sorts its batch, and decides and applies each
node in turn, then appends the node to its next activation's batch; a rule
does no heap operation. The head is never BLOCKED: every rule leaves each
channel's validity at its writer's activation plus period, which the invariant
check after each rule enforces, and no writer is behind the earliest
activation. A BLOCKED head is therefore a broken rule, reported as a livelock
over it and the rest of its batch that is BLOCKED. The randomized order is a
lazy Fisher-Yates shuffle of a live-candidate list, one `random()` call a
draw, so the chosen node is uniform among the enabled ones; it exercises
confluence: any schedule must produce the same per-channel timed history.
These structures are built anew by each `run_until` call, so the state may
change between.
"""

from __future__ import annotations

import csv
import io
import random
import sys
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Callable, Sequence

from .analysis import CheckedProgram, boxed, check_host_value, declared_type, host_boxer, host_unboxer
from .ast import UNIT_VALUE, StepDecl, VExtern, Value
from .coord import (
    BLOCKED,
    FIRE,
    UNDECIDED,
    NetworkState,
    NodeState,
    StepRecord,
    TraceEvent,
    fire_node,
    idle_node,
    init_network,
    node_enabled,
    port_status,
)
from .errors import Diagnostic, EvalError, InternalError, MimosaError, SimError, Span, read_text
from .eval import HostContext
from .parser import parse_literal
from .pretty import format_duration, pretty_host_value, pretty_value

HostFn = Callable[[Value, HostContext | None], Value]
HostFactory = Callable[[], HostFn]


@dataclass(frozen=True)
class SimConfig:
    horizon_us: int
    seed: int | None = None
    schedule: str = "deterministic"

    def __post_init__(self):
        if self.horizon_us <= 0:
            raise ValueError("horizon must be positive")
        if self.schedule not in ("deterministic", "randomized"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


class HostRegistry:
    """Bindings from prototype step names to host-function factories.

    A factory runs once per calling node per simulation, on that node's first
    call, so stateful hosts (file-driven stubs, counters) start fresh on every
    run and on every node.
    """

    def __init__(self):
        self._factories: dict[str, HostFactory] = {}

    def bind(self, step: str, factory: HostFactory) -> "HostRegistry":
        self._factories[step] = factory
        return self

    def bind_fn(self, step: str, fn: HostFn) -> "HostRegistry":
        return self.bind(step, lambda: fn)

    def bound(self, step: str) -> bool:
        return step in self._factories

    def instantiate(self, step: str) -> HostFn:
        return self._factories[step]()


def print_host(sink=None) -> HostFactory:
    """Writes one `<time>: <value>` line per invocation, in commit order."""

    def factory() -> HostFn:
        def fn(value: Value, ctx: HostContext | None) -> Value:
            out = sink if sink is not None else sys.stdout
            when = format_duration(ctx.time_us) if ctx else "?"
            print(f"{when}: {pretty_value(value)}", file=out)
            return UNIT_VALUE

        return fn

    return factory


def const_seq(value: Value) -> HostFactory:
    return from_values((value,))


def from_values(values: Sequence[Value]) -> HostFactory:
    """Emits the given values on successive calls, holding the last one."""
    values = tuple(values)
    if not values:
        raise SimError([Diagnostic("input stub needs at least one value")])

    def factory() -> HostFn:
        calls = iter(values)
        return lambda _arg, _ctx: next(calls, values[-1])

    return factory


def from_file(path: str, step: StepDecl | None = None) -> HostFactory:
    """The values of the literal lines of the file at `path`, as `from_values`
    emits them; with `step`, each must be a result of that prototype step."""
    values = []
    for number, line in enumerate(read_text(path, SimError).splitlines(), 1):
        if (text := line.strip()) and not text.startswith("--"):
            values.append(boxed(parse_literal(line, path, number)))
            if step is not None:
                col = line.index(text) + 1  # at the literal, as its parse errors are
                check_host_value(step, values[-1], Span(number, col, number, col), path)
    if not values:
        raise SimError([Diagnostic("stub input contains no values", file=path)])
    return from_values(values)


def builtin_hosts() -> HostRegistry:
    registry = HostRegistry()
    registry.bind("print_int", print_host())
    return registry


@dataclass(frozen=True)
class Trace:
    """`events` are (time_us, channel, value, node) tuples in (time, commit)
    order, which `Simulation.trace()` builds and `render_csv` relies on;
    `steps` are (kind, node, time_us) tuples in commit order."""

    events: tuple[TraceEvent, ...]
    steps: tuple[StepRecord, ...]

    def per_channel(self) -> dict[str, list[tuple[int, Value]]]:
        out: dict[str, list[tuple[int, Value]]] = {}
        for time_us, channel, value, _ in self.events:
            out.setdefault(channel, []).append((time_us, value))
        return out

    def values(self, channel: str) -> list[Value]:
        return [value for _, value in self.per_channel().get(channel, [])]

    def render_csv(self, include_idle: bool = False) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["time_us", "channel", "value", "node"])
        rows = [(time_us, channel, pretty_value(value), node) for time_us, channel, value, node in self.events]
        if include_idle:
            # A stable sort by time alone: at one time, idle rows first, then writes.
            idles = [(time_us, "", "idle", node) for kind, node, time_us in self.steps if kind != FIRE]
            rows = sorted(idles + rows, key=itemgetter(0))
        writer.writerows(rows)
        return buffer.getvalue()


class Simulation:
    """A live simulation: advance with run_until, observe the trace prefix."""

    def __init__(self, cp: CheckedProgram, cfg: SimConfig, hosts: HostRegistry | None = None):
        self.cp = cp
        self.cfg = cfg
        registry = hosts if hosts is not None else builtin_hosts()
        # Prototypes that some node implements or some step body names.
        used = cp.named_steps.union(node.step for node in cp.program.nodes)
        prototypes = [s for s in cp.program.steps if s.is_prototype and s.name in used]
        missing = [s.name for s in prototypes if not registry.bound(s.name)]
        if missing:
            raise SimError([Diagnostic("unbound prototype steps: " + ", ".join(missing))])
        hosts_by_step = {s.name: _per_node_host(s, registry) for s in prototypes}
        self.state: NetworkState = init_network(cp, hosts_by_step)
        self._rng = random.Random(cfg.seed) if cfg.schedule == "randomized" else None
        self._observed_horizon = 0

    def run_until(self, horizon_us: int) -> None:
        """Apply rewrite rules until every activation exceeds the horizon."""
        self._observed_horizon = max(self._observed_horizon, horizon_us)
        if self.cfg.schedule == "randomized":
            self._shuffle_until(horizon_us)
            return
        state = self.state
        nodes = list(state.nodes.values())
        # The declaration indices of the nodes due at each activation, and a heap of the activations.
        due: dict[int, list[int]] = {}
        for i, node in enumerate(nodes):
            if node.activation <= horizon_us:
                due.setdefault(node.activation, []).append(i)
        instants = list(due)
        heapify(instants)
        while instants:
            batch = due.pop(heappop(instants))
            batch.sort()
            for i in batch:
                node = nodes[i]
                if (decision := node_enabled(state, node.name)) == BLOCKED:
                    rest = [nodes[j] for j in batch[batch.index(i) :]]
                    raise _livelock([n for n in rest if node_enabled(state, n.name) == BLOCKED])
                (fire_node if decision == FIRE else idle_node)(state, node.name)
                if (t := node.activation) <= horizon_us:
                    if (later := due.get(t)) is None:
                        due[t] = [i]
                        heappush(instants, t)
                    else:
                        later.append(i)

    def _shuffle_until(self, horizon_us: int) -> None:
        state = self.state
        live = [n for n in state.nodes.values() if n.activation <= horizon_us]  # activations go stale unread
        draw = self._rng.random
        while live:
            n = len(live)
            for k in range(n):
                j = k + int(draw() * (n - k))  # uniform in [k, n), one call
                live[k], live[j] = live[j], live[k]
                if (decision := node_enabled(state, live[k].name)) != BLOCKED:
                    break
            else:
                raise _livelock(live)
            node = live[k]
            (fire_node if decision == FIRE else idle_node)(state, node.name)
            if node.activation > horizon_us:
                live[k] = live[-1]
                live.pop()

    def trace(self) -> Trace:
        """The timed history observed so far: every rule applied (none is past
        the horizon), and the writes tagged at or before the horizon (a node's
        last firing may produce a write tagged beyond it, which has not
        appeared yet), sorted stably by time: `state.trace` is in commit order."""
        cutoff = self._observed_horizon
        events = tuple(sorted([ev for ev in self.state.trace if ev[0] <= cutoff], key=itemgetter(0)))
        return Trace(events, tuple(self.state.steps))


def _per_node_host(step: StepDecl, registry: HostRegistry) -> VExtern:
    """The binding of a prototype step: every calling node gets its own
    instance from the step's factory, made on that node's first call. It boxes
    the argument and unboxes the result, which must have the declared type. A
    host or factory that raises or returns another type fails its node; a
    BrokenPipeError passes as is."""
    instances: dict[str, HostFn] = {}
    name, declared = step.name, declared_type(step, step.out_pattern)
    box, unbox = host_boxer(declared_type(step, step.in_pattern)), host_unboxer(declared)

    def call(value: Value, ctx: HostContext) -> Value:
        if box is not None:
            value = box(value)
        try:
            fn = instances.get(ctx.node)
            if fn is None:
                fn = instances[ctx.node] = registry.instantiate(name)
            result = fn(value, ctx)
        except (MimosaError, BrokenPipeError):
            raise
        except Exception as exc:
            raise EvalError(f"host step '{name}' raised {type(exc).__name__}: {exc}") from exc
        if (value := unbox(result)) is None:
            shown = pretty_host_value(result)
            raise EvalError(f"host step '{name}' returned {shown}, not a value of its declared type {declared}")
        return value

    return VExtern(name, call)


def _livelock(stuck: list[NodeState]) -> SimError:
    """Every node in `stuck` is BLOCKED, which only a broken rule brings about:
    name the inputs each one waits on, then list all of them."""
    waits = []
    for node in sorted(stuck, key=lambda n: n.name):
        inputs = [ch for ch, _ in node.in_ports]
        status = {ch.name: port_status(ch, node.activation) for ch in inputs}
        undecided = ", ".join(
            f"'{ch.name}' (validity {format_duration(ch.validity)})"
            for ch in inputs
            if status[ch.name] == UNDECIDED
        )
        listed = ", ".join(f"'{name}' {value}" for name, value in status.items())
        waits.append(f"'{node.name}' at {format_duration(node.activation)} waits on {undecided} (inputs: {listed})")
    return SimError([Diagnostic("livelock (internal invariant): " + "; ".join(waits))])


def run(cp: CheckedProgram, cfg: SimConfig, hosts: HostRegistry | None = None) -> Trace:
    sim = Simulation(cp, cfg, hosts)
    sim.run_until(cfg.horizon_us)
    return sim.trace()


@dataclass(frozen=True)
class EquivalenceReport:
    ok: bool
    runs: int
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def run_randomized_equivalence(
    cp: CheckedProgram,
    cfg: SimConfig,
    hosts: HostRegistry | None = None,
    runs: int = 50,
) -> EquivalenceReport:
    """Check that `runs` randomized schedules reproduce the deterministic
    per-channel (tag, value) histories exactly, and then each node's
    (activation, fire or idle) history: a sink's decisions reach no channel.
    Host bindings must be deterministic functions of their inputs and call
    count."""
    registry = hosts if hosts is not None else builtin_hosts()
    base = replace(cfg, schedule="deterministic")
    try:
        reference = _histories(run(cp, base, registry))
    except SimError as exc:
        return EquivalenceReport(False, 0, f"reference run aborted: {exc.diagnostics[0].message}")
    seed0 = cfg.seed if cfg.seed is not None else 0
    for k in range(runs):
        shuffled = replace(base, schedule="randomized", seed=seed0 + k + 1)
        try:
            candidate = _histories(run(cp, shuffled, registry))
        except SimError as exc:
            return EquivalenceReport(False, k + 1, f"run {k + 1} aborted: {exc.diagnostics[0].message}")
        for what, ref, got, show in zip(("channel", "node"), reference, candidate, _SHOW):
            if got != ref:
                return EquivalenceReport(False, k + 1, _first_divergence(ref, got, k + 1, what, show))
    return EquivalenceReport(True, runs)


def _histories(trace: Trace) -> tuple[dict, dict[str, list[tuple[int, str]]]]:
    """The per-channel (tag, value) and the per-node (activation, kind) histories."""
    decisions: dict[str, list[tuple[int, str]]] = {}
    for kind, node, time_us in trace.steps:
        decisions.setdefault(node, []).append((time_us, kind))
    return trace.per_channel(), decisions


# How `_first_divergence` shows an entry of each history: a (tag, value) write, an (activation, kind) step.
_SHOW = (lambda e: f"{pretty_value(e[1])}@{e[0]}", lambda e: f"{e[1]}@{e[0]}")


def _first_divergence(reference, candidate, run_index: int, what: str, show) -> str:
    """Where two unequal histories first differ. Some key's lists differ, as
    no history holds an empty list."""
    for key in sorted(set(reference) | set(candidate)):
        ref = reference.get(key, [])
        got = candidate.get(key, [])
        for i, (a, b) in enumerate(zip(ref, got)):
            if a != b:
                return f"run {run_index}: {what} '{key}' event {i}: expected {show(a)}, got {show(b)}"
        if len(ref) != len(got):
            return f"run {run_index}: {what} '{key}' has {len(got)} events, expected {len(ref)}"
    raise InternalError(f"run {run_index}: {what} histories differ at no key")
