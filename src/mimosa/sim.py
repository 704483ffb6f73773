"""Discrete-event driver over the coordination layer.

The deterministic schedule always rewrites the enabled node with the smallest
activation time, breaking ties by declaration order; same-instant host side
effects therefore happen in declaration order. The randomized schedule picks
uniformly among enabled nodes and exists to exercise confluence: any schedule
must produce the same per-channel timed history.
"""

from __future__ import annotations

import csv
import io
import random
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

from .analysis import CheckedProgram
from .ast import UNIT_VALUE, Lambda, VExtern, Value, free_variables
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
from .errors import Diagnostic, SimError
from .eval import HostContext
from .parser import parse_literal
from .pretty import format_duration, pretty_value

HostFn = Callable[[Value, HostContext | None], Value]
HostFactory = Callable[[], HostFn]


@dataclass(frozen=True)
class SimConfig:
    horizon_us: int
    seed: int | None = None
    schedule: str = "deterministic"
    trace_path: str | None = None
    verbose_idle: bool = False

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
    def factory() -> HostFn:
        return lambda _arg, _ctx: value

    return factory


def from_values(values: Sequence[Value]) -> HostFactory:
    """Emits the given values on successive activations, holding the last one."""
    values = tuple(values)
    if not values:
        raise SimError([Diagnostic("input stub needs at least one value")])

    def factory() -> HostFn:
        calls = iter(range(len(values)))

        def fn(_arg: Value, _ctx: HostContext | None) -> Value:
            i = next(calls, len(values) - 1)
            return values[min(i, len(values) - 1)]

        return fn

    return factory


def from_file(path: str) -> HostFactory:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
    except OSError as exc:
        raise SimError([Diagnostic(f"cannot read stub input {path!r}: {exc}")]) from exc
    values = [parse_literal(line) for line in lines if line and not line.startswith("--")]
    if not values:
        raise SimError([Diagnostic(f"stub input {path!r} contains no values")])
    return from_values(values)


def builtin_hosts() -> HostRegistry:
    registry = HostRegistry()
    registry.bind("print_int", print_host())
    return registry


@dataclass(frozen=True)
class Trace:
    events: tuple[TraceEvent, ...]  # stably sorted by (time, commit order)
    steps: tuple[StepRecord, ...]

    def per_channel(self) -> dict[str, list[tuple[int, Value]]]:
        out: dict[str, list[tuple[int, Value]]] = {}
        for ev in self.events:
            out.setdefault(ev.channel, []).append((ev.time_us, ev.value))
        return out

    def values(self, channel: str) -> list[Value]:
        return [value for _, value in self.per_channel().get(channel, [])]

    def render_csv(self, include_idle: bool = False) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["time_us", "channel", "value", "node"])
        rows = [(ev.time_us, 1, ev.seq, ev.channel, pretty_value(ev.value), ev.node) for ev in self.events]
        if include_idle:
            idles = [s for s in self.steps if s.kind != FIRE]
            rows.extend((s.time_us, 0, i, "", "idle", s.node) for i, s in enumerate(idles))
        for time_us, _, _, channel, value, node in sorted(rows):
            writer.writerow([time_us, channel, value, node])
        return buffer.getvalue()

    def write_csv(self, path: str, include_idle: bool = False) -> None:
        text = self.render_csv(include_idle)
        if path == "-":
            sys.stdout.write(text)
        else:
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)


class Simulation:
    """A live simulation: advance with run_until, observe the trace prefix."""

    def __init__(self, cp: CheckedProgram, cfg: SimConfig, hosts: HostRegistry | None = None):
        self.cp = cp
        self.cfg = cfg
        registry = hosts if hosts is not None else builtin_hosts()
        # Prototypes that some node implements or some step body names.
        used = {node.step for node in cp.program.nodes}
        for step in cp.program.steps:
            if not step.is_prototype:
                used.update(free_variables(Lambda(step.in_pattern, step.out_pattern, step.equations)))
        prototypes = [s.name for s in cp.program.steps if s.is_prototype and s.name in used]
        missing = [name for name in prototypes if not registry.bound(name)]
        if missing:
            raise SimError([Diagnostic("unbound prototype steps: " + ", ".join(missing))])
        hosts_by_step = {name: _per_node_host(name, registry) for name in prototypes}
        self.state: NetworkState = init_network(cp, hosts_by_step)
        self._rng = random.Random(cfg.seed)
        self._observed_horizon = 0

    def run_until(self, horizon_us: int) -> None:
        """Apply rewrite rules until every activation exceeds the horizon."""
        self._observed_horizon = max(self._observed_horizon, horizon_us)
        state = self.state
        while True:
            candidates = [n for n in state.nodes.values() if n.activation <= horizon_us]
            if not candidates:
                return
            enabled = []
            for node in candidates:
                decision = node_enabled(state, node.name)
                if decision != BLOCKED:
                    enabled.append((node, decision))
            if not enabled:
                raise _livelock(state, candidates)
            if self.cfg.schedule == "deterministic":
                # state.nodes is in declaration order and min keeps the first
                # minimum, so ties on activation go to the earliest declared.
                node, decision = min(enabled, key=lambda nd: nd[0].activation)
            else:
                node, decision = enabled[self._rng.randrange(len(enabled))]
            if decision == FIRE:
                fire_node(state, node.name)
            else:
                idle_node(state, node.name)

    def trace(self) -> Trace:
        """The timed history observed so far: writes tagged at or before the
        horizon (a node's last firing may produce a write tagged beyond it,
        which has not appeared yet)."""
        cutoff = self._observed_horizon
        events = tuple(
            sorted(
                (ev for ev in self.state.trace if ev.time_us <= cutoff),
                key=lambda ev: (ev.time_us, ev.seq),
            )
        )
        steps = tuple(s for s in self.state.steps if s.time_us <= cutoff)
        return Trace(events, steps)


def _per_node_host(step: str, registry: HostRegistry) -> VExtern:
    """The binding of a prototype step: every calling node gets its own
    instance from the step's factory, made on that node's first call."""
    instances: dict[str, HostFn] = {}

    def call(value: Value, ctx: HostContext) -> Value:
        fn = instances.get(ctx.node)
        if fn is None:
            fn = instances[ctx.node] = registry.instantiate(step)
        return fn(value, ctx)

    return VExtern(step, call)


def _livelock(state: NetworkState, stuck: list[NodeState]) -> SimError:
    """Every candidate is blocked: name the undecided inputs each one waits on."""
    waits = []
    for node in sorted(stuck, key=lambda n: n.name):
        channels = (state.channels[port.channel] for port in node.inputs)
        undecided = ", ".join(
            f"'{ch.name}' (validity {format_duration(ch.validity)})"
            for ch in channels
            if port_status(ch, node.activation) == UNDECIDED
        )
        waits.append(f"'{node.name}' at {format_duration(node.activation)} waits on {undecided}")
    return SimError([Diagnostic("livelock (internal invariant): " + "; ".join(waits))])


def run(cp: CheckedProgram, cfg: SimConfig, hosts: HostRegistry | None = None) -> Trace:
    sim = Simulation(cp, cfg, hosts)
    sim.run_until(cfg.horizon_us)
    trace = sim.trace()
    if cfg.trace_path:
        trace.write_csv(cfg.trace_path, include_idle=cfg.verbose_idle)
    return trace


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
    per-channel (tag, value) histories exactly. Host bindings must be
    deterministic functions of their inputs and call count."""
    registry = hosts if hosts is not None else builtin_hosts()
    base = replace(cfg, trace_path=None, schedule="deterministic")
    try:
        reference = run(cp, base, registry).per_channel()
    except SimError as exc:
        return EquivalenceReport(False, 0, f"reference run aborted: {exc.diagnostics[0].message}")
    seed0 = cfg.seed if cfg.seed is not None else 0
    for k in range(runs):
        shuffled = replace(base, schedule="randomized", seed=seed0 + k + 1)
        try:
            candidate = run(cp, shuffled, registry).per_channel()
        except SimError as exc:
            return EquivalenceReport(False, k + 1, f"run {k + 1} aborted: {exc.diagnostics[0].message}")
        if candidate != reference:
            return EquivalenceReport(False, k + 1, _first_divergence(reference, candidate, k + 1))
    return EquivalenceReport(True, runs)


def _first_divergence(reference, candidate, run_index: int) -> str:
    for channel in sorted(set(reference) | set(candidate)):
        ref = reference.get(channel, [])
        got = candidate.get(channel, [])
        for i, (a, b) in enumerate(zip(ref, got)):
            if a != b:
                return (
                    f"run {run_index}: channel '{channel}' event {i}: expected "
                    f"{pretty_value(a[1])}@{a[0]}, got {pretty_value(b[1])}@{b[0]}"
                )
        if len(ref) != len(got):
            return f"run {run_index}: channel '{channel}' has {len(got)} events, expected {len(ref)}"
    return f"run {run_index}: traces differ"
