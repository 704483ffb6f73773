"""Span tracing from outside the program.

`installed(tracer)` replaces the public entry points of each layer with
wrappers that record a span (name, start, end, parent) around every call, and
restores the originals on exit. Spans live in flat arrays during the run and
are reduced to per-layer totals, self times and counts afterwards; self time
is a span's duration minus the time covered by its direct children, because
`check_invariants` and `eval_expr` run inside `fire_node`.
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

from mimosa import analysis, coord, parser, sim

# (owner, attribute, span name). Module-level functions are patched where
# their callers look them up: the simulator imports the coordination rules by
# name, and fire_node calls eval_expr through mimosa.coord.
TARGETS = [
    (parser, "parse_program", "parser.parse_program"),
    (parser, "tokenize", "parser.tokenize"),
    (analysis, "check_network", "analysis.network"),
    (analysis, "infer_types", "analysis.types"),
    (analysis, "order_equations", "analysis.causality"),
    (analysis, "check_initialization", "analysis.init"),
    (sim, "node_enabled", "coord.node_enabled"),
    (sim, "fire_node", "coord.fire_node"),
    (sim, "idle_node", "coord.idle_node"),
    (coord, "eval_expr", "eval.eval_expr"),
    (coord.NetworkState, "check_invariants", "coord.check_invariants"),
    (sim.Simulation, "run_until", "sim.run_until"),
    (sim.Simulation, "trace", "sim.trace"),
    (sim.Trace, "render_csv", "pretty.render_csv"),
]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._open: list[int] = []
        self.tokens = 0
        self.equations = 0
        self.blocked = 0
        self.queue_peak = 0
        self.evaluations: list[tuple[int, str]] = []  # (span index, node)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, observe=None):
        """Wrap `fn` so every call records a span; `observe(result, args,
        index)` runs after the call, outside the span's own timing."""
        nid = self._id(name)

        def wrapped(*args, **kwargs):
            index = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self._open.append(index)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter()
                self._open.pop()
            if observe is not None:
                observe(result, args, index)
            return result

        return wrapped

    def host(self, fn):
        return self.span("host.call", fn)

    # Counts taken at the same boundaries as the spans.

    def _tokens(self, result, _args, _index):
        self.tokens += len(result)

    def _equations(self, result, _args, _index):
        self.equations += len(result)

    def _decision(self, result, _args, _index):
        if result == coord.BLOCKED:
            self.blocked += 1

    def _evaluated(self, _result, args, index):
        _env, _expr, ctx = args
        self.evaluations.append((index, ctx.host.node))

    def _fired(self, _result, args, _index):
        ns, name = args
        for port in ns.nodes[name].outputs:
            self.queue_peak = max(self.queue_peak, len(ns.channels[port.channel].queue))

    def observer(self, name: str):
        return {
            "parser.tokenize": self._tokens,
            "analysis.causality": self._equations,
            "coord.node_enabled": self._decision,
            "coord.fire_node": self._fired,
            "eval.eval_expr": self._evaluated,
        }.get(name)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, total (inclusive) seconds, self seconds and
        the list of inclusive durations."""
        n = len(self.start)
        child = [0.0] * n
        durations = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += durations[i]
        out = {name: {"calls": 0, "total": 0.0, "self": 0.0, "durations": []} for name in self.names}
        for i in range(n):
            entry = out[self.names[self.name_id[i]]]
            entry["calls"] += 1
            entry["total"] += durations[i]
            entry["self"] += durations[i] - child[i]
            entry["durations"].append(durations[i])
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("index,name,start_us,end_us,parent\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                handle.write(
                    f"{i},{self.names[self.name_id[i]]},{(self.start[i] - t0) * 1e6:.3f},"
                    f"{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]}\n"
                )


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
    try:
        for owner, attr, name in TARGETS:
            setattr(owner, attr, tracer.span(name, owner.__dict__[attr], tracer.observer(name)))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def tail(values: list[float]) -> float:
    """The highest order statistic with at least ten samples above it (the
    maximum when there are ten or fewer)."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)] if ordered else 0.0
