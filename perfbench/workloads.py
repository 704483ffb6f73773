"""Seeded workload generators, their host bindings and their output oracles.

Every workload turns a seed into Mimosa source text plus the host bindings the
program's prototype steps need. The seed only permutes a fixed multiset of
periods and picks constants, so the step count (the sum over nodes of their
activations up to the horizon) and the program size are the same for every
seed: run-to-run spread then measures the machine, not the input.

The oracles compute the expected channel histories directly from the
generator's parameters, without the simulator, so they stay valid when the
scheduler or the evaluator is rewritten.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

from mimosa.ast import UNIT_VALUE, VConst
from mimosa.pretty import pretty_value
from mimosa.sim import HostRegistry

MS = 1000

# Programs come in VARIANTS variants per workload; the seed selects one, so a
# golden digest exists for every seed.
VARIANTS = 16

# Generator parameters at benchmark size and at the self-test's tiny size.
SIZES = {
    "wide": {
        "bench": {"chains": 32, "horizon_ms": 100},
        "tiny": {"chains": 4, "horizon_ms": 40},
    },
    "deep": {
        "bench": {"stages": 4, "equations": 160, "helpers": 3, "horizon_ms": 80},
        "tiny": {"stages": 2, "equations": 12, "helpers": 2, "horizon_ms": 40},
    },
    "confluence": {
        "bench": {"clusters": 16, "horizon_ms": 100},
        "tiny": {"clusters": 2, "horizon_ms": 60},
    },
}

# (src, inc, sink) periods in ms. inc and sink are at least as fast as src, so
# queues stay bounded and readers idle; where sink is slower than inc, the
# scan finds sinks ahead of their writer's validity, so decisions block.
WIDE_PERIODS = [(4, 4, 4), (6, 3, 3), (8, 4, 2), (10, 5, 5), (12, 4, 6), (6, 3, 6), (9, 3, 3), (8, 4, 8)]
# One period per confluence sub-network (fib, edge), in ms.
CONFLUENCE_PERIODS = [(5, 5), (10, 4), (4, 10), (8, 8)]


class HostLog:
    """What the benchmark's host bindings did during one run."""

    def __init__(self):
        self.calls = 0
        self.received: dict[str, list] = {}


Wrap = Callable[[Callable], Callable]


@dataclass
class Workload:
    name: str
    variant: int
    source: str
    horizon_us: int
    schedule: str
    steps: int  # rewriting steps (fire + idle) up to the horizon, any schedule
    params: dict
    # channel -> expected (tag, literal) history
    expected: dict[str, list[tuple[int, str]]] = field(default_factory=dict)
    # host node -> expected values it receives
    received: dict[str, list] = field(default_factory=dict)
    _bind: Callable[[HostRegistry, HostLog, Wrap], None] | None = None

    def hosts(self, wrap: Wrap | None = None) -> tuple[HostRegistry, HostLog]:
        """Fresh host bindings and the log they write into. `wrap` is applied
        to every host function, so a tracer can time host calls."""
        registry = HostRegistry()
        log = HostLog()
        self._bind(registry, log, wrap or (lambda fn: fn))
        return registry, log

    def check(self, per_channel: dict, log: HostLog) -> list[str]:
        """Compare a run's per-channel history and host log with the oracle."""
        problems = []
        for channel, want in self.expected.items():
            got = [(t, pretty_value(v)) for t, v in per_channel.get(channel, [])]
            if got != want:
                problems.append(f"{self.name}: channel {channel} is {got[:6]}..., expected {want[:6]}...")
        for node, want in self.received.items():
            if log.received.get(node) != want:
                problems.append(f"{self.name}: host {node} received {log.received.get(node)}, expected {want}")
        return problems


def channel_digest(per_channel: dict) -> str:
    """SHA-256 of the per-channel timed history, which is schedule independent."""
    h = hashlib.sha256()
    for channel in sorted(per_channel):
        h.update(f"#{channel}\n".encode())
        for tag, value in per_channel[channel]:
            h.update(f"{tag} {pretty_value(value)}\n".encode())
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def activations(period_ms: int, horizon_ms: int) -> int:
    return horizon_ms // period_ms + 1


def _counter(log: HostLog, wrap: Wrap, start: int) -> Callable[[], Callable]:
    def factory():
        value = start

        def fn(_arg, _ctx):
            nonlocal value
            log.calls += 1
            value += 1
            return VConst(value - 1)

        return wrap(fn)

    return factory


def _replay(log: HostLog, wrap: Wrap, values_by_node: dict[str, list[bool]]) -> Callable[[], Callable]:
    def factory():
        position = 0

        def fn(_arg, ctx):
            nonlocal position
            log.calls += 1
            values = values_by_node[ctx.node]
            position += 1
            return VConst(values[min(position - 1, len(values) - 1)])

        return wrap(fn)

    return factory


def _sink(log: HostLog, wrap: Wrap) -> Callable[[], Callable]:
    def factory():
        def fn(value, ctx):
            log.calls += 1
            log.received.setdefault(ctx.node, []).append(value.value)
            return UNIT_VALUE

        return wrap(fn)

    return factory


# ---------------------------------------------------------------------------
# wide: many independent src -> inc -> sink chains with mixed periods.


def make_wide(variant: int, chains: int, horizon_ms: int) -> Workload:
    rng = random.Random(f"wide/{variant}")
    periods = [WIDE_PERIODS[i % len(WIDE_PERIODS)] for i in range(chains)]
    rng.shuffle(periods)
    order = list(range(chains))
    rng.shuffle(order)
    lines = [
        "step src () --> (n : int)",
        "step sink (_ : int) --> ()",
        "step inc x --> y { y = x + 1 }",
    ]
    expected: dict[str, list[tuple[int, str]]] = {}
    sink_values: dict[str, list] = {}
    steps = 0
    for i in order:
        ps, pi, pk = periods[i]
        lines += [
            f"channel a{i} : int",
            f"channel b{i} : int",
            f"node src{i} implements src () --> (a{i}) every {ps}ms",
            f"node inc{i} implements inc (a{i}) --> (b{i}) every {pi}ms",
            f"node sink{i} implements sink (b{i}) --> () every {pk}ms",
        ]
        steps += sum(activations(p, horizon_ms) for p in (ps, pi, pk))
        # src emits k at tag (k + 1) * ps; inc reads it at its first activation
        # at or after that tag and writes k + 1 one period later.
        history = []
        k = 0
        while (k + 1) * ps <= horizon_ms:
            read_at = -(-(k + 1) * ps // pi) * pi
            if read_at + pi > horizon_ms:
                break
            history.append((read_at + pi, k + 1))
            k += 1
        expected[f"b{i}"] = [(t * MS, str(v)) for t, v in history]
        # sink takes one b value per activation, the oldest, once its tag is due.
        received, free_at = [], 0
        for t, v in history:
            take_at = max(-(-t // pk) * pk, free_at)
            if take_at > horizon_ms:
                break
            received.append(v)
            free_at = take_at + pk
        sink_values[f"sink{i}"] = received

    def bind(registry: HostRegistry, log: HostLog, wrap: Wrap) -> None:
        registry.bind("src", _counter(log, wrap, 0))
        registry.bind("sink", _sink(log, wrap))

    return Workload(
        name="wide",
        variant=variant,
        source="\n".join(lines) + "\n",
        horizon_us=horizon_ms * MS,
        schedule="deterministic",
        steps=steps,
        params={"chains": chains, "horizon_ms": horizon_ms},
        expected=expected,
        received=sink_values,
        _bind=bind,
    )


# ---------------------------------------------------------------------------
# deep: a short pipeline of nodes whose steps hold long equation chains.

# The right-hand sides cycle through these forms; x is the previous variable,
# w an earlier one, c and d small constants, h a helper step. Note the
# parentheses in `0 -> pre (x + c)`: `0 -> pre x + c` fails the initialization
# check.
DEEP_FORMS = [
    "{x} + {c}",
    "0 -> pre ({x} + {c})",
    "if {x} > {d} then {x} - {c} else {x} + {d}",
    "{c} fby ({x} - {w} + {c})",
    "{h} ({x}, {w})",
    "({x} + {w}) / 2",
]


def _helper_step(name: str, rng: random.Random) -> str:
    c = rng.randint(1, 9)
    return (
        f"step {name} (a, b) --> r {{ s = a + b; m = 0 -> pre (s + {c}); "
        f"r = if m > s then m - s else s - m + b }}"
    )


def make_deep(variant: int, stages: int, equations: int, helpers: int, horizon_ms: int) -> Workload:
    rng = random.Random(f"deep/{variant}")
    period = 10
    lines = [
        "step src () --> (n : int)",
        "step sink (_ : int) --> ()",
    ]
    helper_names = [f"mix{m}" for m in range(helpers)]
    lines += [_helper_step(name, rng) for name in helper_names]
    for s in range(stages):
        eqs = ["x0 = u"]
        for k in range(1, equations + 1):
            form = DEEP_FORMS[(k - 1) % len(DEEP_FORMS)]
            w = f"x{max(0, k - rng.randint(2, 4))}"
            rhs = form.format(
                x=f"x{k - 1}", w=w, c=rng.randint(1, 9), d=rng.randint(10, 99), h=rng.choice(helper_names)
            )
            eqs.append(f"x{k} = {rhs}")
        eqs.append(f"y = x{equations}")
        body = ";\n    ".join(eqs)
        lines.append(f"step chain{s} u --> y {{\n    {body}\n}}")
    lines.append("channel c0 : int")
    lines.append(f"node src implements src () --> (c0) every {period}ms")
    for s in range(stages):
        lines.append(f"channel c{s + 1} : int")
        lines.append(f"node stage{s} implements chain{s} (c{s}) --> (c{s + 1}) every {period}ms")
    lines.append(f"node sink implements sink (c{stages}) --> () every {period}ms")
    steps = (stages + 2) * activations(period, horizon_ms)
    start = rng.randint(0, 50)

    def bind(registry: HostRegistry, log: HostLog, wrap: Wrap) -> None:
        registry.bind("src", _counter(log, wrap, start))
        registry.bind("sink", _sink(log, wrap))

    return Workload(
        name="deep",
        variant=variant,
        source="\n".join(lines) + "\n",
        horizon_us=horizon_ms * MS,
        schedule="deterministic",
        steps=steps,
        params={"stages": stages, "equations": equations, "helpers": helpers, "horizon_ms": horizon_ms},
        _bind=bind,
    )


# ---------------------------------------------------------------------------
# confluence: replicated fib and edge clusters under randomized schedules.

FIB_STEPS = """\
step print_int (_ : int) --> ()
step add (x, y) --> z { z = x + y }
step split inp --> (o1, o2, o3) { o1, o2, o3 = inp, inp, inp }
step pin () --> (level : bool)
step watch (_ : bool) --> ()
step edge_detect (in : bool) --> (out : bool?)
{
    pre_in = in -> pre in;
    out = if !pre_in && in then (Some true)
          else if pre_in && !in then (Some false)
          else None;
}
"""


def _fibonacci(n: int) -> list[int]:
    out, a, b = [], 0, 1
    for _ in range(n):
        out.append(a)
        a, b = b, a + b
    return out


def _edge_history(levels: list[bool], q: int, horizon_ms: int) -> list[tuple[int, str]]:
    # pin writes levels[k] at tag (k + 1) q; edge reads it at activation
    # (k + 1) q and, from its second reading on, writes the edge at (k + 2) q.
    out = []
    for k in range(1, len(levels)):
        tag = (k + 2) * q
        if tag > horizon_ms:
            break
        before, now = levels[k - 1], levels[k]
        if now != before:
            out.append((tag * MS, "true" if now else "false"))
    return out


def make_confluence(variant: int, clusters: int, horizon_ms: int) -> Workload:
    rng = random.Random(f"confluence/{variant}")
    periods = [CONFLUENCE_PERIODS[i % len(CONFLUENCE_PERIODS)] for i in range(clusters)]
    rng.shuffle(periods)
    lines = [FIB_STEPS]
    expected: dict[str, list[tuple[int, str]]] = {}
    levels_by_node: dict[str, list[bool]] = {}
    steps = 0
    for i, (p, q) in enumerate(periods):
        lines += [
            f"channel a{i} : int = {{ 1 }}",
            f"channel b{i} : int = {{ 0 }}",
            f"channel c{i} : int",
            f"channel d{i} : int",
            f"node add{i} implements add (a{i}, c{i}) --> (b{i}) every {p}ms",
            f"node split{i} implements split (b{i}) --> (a{i}, d{i}, c{i}) every {p}ms",
            f"node print{i} implements print_int (d{i}) --> () every {p}ms",
            f"channel e{i} : bool",
            f"channel f{i} : bool",
            f"node pin{i} implements pin () --> (e{i}) every {q}ms",
            f"node edge{i} implements edge_detect (e{i}) --> (f{i}?) every {q}ms",
            f"node watch{i} implements watch (f{i}) --> () every {q}ms",
        ]
        steps += 3 * activations(p, horizon_ms) + 3 * activations(q, horizon_ms)
        # d carries F(0), F(1), ... at tags (2k + 1) p.
        count = (horizon_ms // p + 1) // 2
        expected[f"d{i}"] = [((2 * k + 1) * p * MS, str(v)) for k, v in enumerate(_fibonacci(count))]
        levels = [rng.random() < 0.5 for _ in range(activations(q, horizon_ms))]
        levels_by_node[f"pin{i}"] = levels
        expected[f"f{i}"] = _edge_history(levels, q, horizon_ms)

    def bind(registry: HostRegistry, log: HostLog, wrap: Wrap) -> None:
        registry.bind("print_int", _sink(log, wrap))
        registry.bind("pin", _replay(log, wrap, levels_by_node))
        registry.bind("watch", _sink(log, wrap))

    return Workload(
        name="confluence",
        variant=variant,
        source="\n".join(lines),
        horizon_us=horizon_ms * MS,
        schedule="randomized",
        steps=steps,
        params={"clusters": clusters, "horizon_ms": horizon_ms},
        expected=expected,
        _bind=bind,
    )


MAKERS = {"wide": make_wide, "deep": make_deep, "confluence": make_confluence}


def make(name: str, seed: int, size: str = "bench") -> Workload:
    variant = seed % VARIANTS
    return MAKERS[name](variant, **SIZES[name][size])
