#!/usr/bin/env python3
"""Mimosa benchmark: parse -> check -> run -> trace, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One pipeline runs at a time, in a closed loop, with no threads: each
iteration parses the generated source, runs every static check, builds a
`Simulation` with the default `SimConfig` (so runtime invariants are
validated), runs it to the horizon, and renders the per-channel trace and the
CSV. Every iteration's outputs are checked against the workload's oracle and
the golden digests. The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`; with `--trace 0` the metrics
are the end-to-end ones, pooled from PROCESSES fresh processes run one after
the other; with `--trace 1` the per-layer ones from traced iterations in this
process, plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
WORKLOADS = ("wide", "deep", "confluence")
MIN_ITERATIONS = 3
# An end-to-end run pools the iterations of this many fresh processes, run one
# after the other. The speed of one process depends on where its memory and
# CPU land, so medians from a single process spread by about a tenth from run
# to run on `deep`; pooling several processes narrows that.
PROCESSES = 3
# CPU seconds the calibration kernel takes on the reference machine (a shared
# 2-vCPU x86-64 container with CPython 3.11). End-to-end times are rescaled to
# that speed; see calibrate().
CAL_REFERENCE_S = 0.08

# Metric names and units are the ones BENCHMARK.json declares.
SPEC = ROOT / "BENCHMARK.json"


def units(kind: str) -> dict[str, str]:
    """Metric name -> unit, for kind "end_to_end" or "per_layer"."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


@dataclass
class Sample:
    setup_s: float
    run_s: float
    total_s: float
    host_calls: int
    trace_events: int
    retained_records: int
    problems: list[str]
    layers: dict[str, float] = field(default_factory=dict)
    # Reference speed / machine speed around this iteration; see calibrate().
    scale: float = 1.0


def run_once(wl, schedule_seed: int | None, wrap=None) -> tuple[Sample, dict[str, str]]:
    """One timed pass through the public pipeline, then the oracle checks.
    Returns the sample and the digests of the per-channel history and CSV."""
    from mimosa import analysis, parser, sim
    from workloads import channel_digest, text_digest

    registry, log = wl.hosts(wrap)
    cfg = sim.SimConfig(horizon_us=wl.horizon_us, seed=schedule_seed, schedule=wl.schedule)
    t0 = process_time()
    program = parser.parse_program(wl.source, file=f"{wl.name}.mim")
    checked = analysis.check_program(program, file=f"{wl.name}.mim")
    simulation = sim.Simulation(checked, cfg, registry)
    t1 = process_time()
    simulation.run_until(wl.horizon_us)
    t2 = process_time()
    trace = simulation.trace()
    per_channel = trace.per_channel()
    csv_text = trace.render_csv()
    t3 = process_time()

    problems = wl.check(per_channel, log)
    if len(trace.steps) != wl.steps:
        problems.append(f"{len(trace.steps)} rewriting steps, expected {wl.steps}")
    state = simulation.state
    sample = Sample(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        total_s=t3 - t0,
        host_calls=log.calls,
        trace_events=len(getattr(state, "trace", ())),
        retained_records=len(getattr(state, "steps", ())),
        problems=problems,
    )
    return sample, {"channels": channel_digest(per_channel), "csv": text_digest(csv_text)}


def golden_problems(wl, digests: dict[str, str], golden: dict[str, str]) -> list[str]:
    """The per-channel digest is pinned for every run; the CSV orders rows of
    one tag by commit order, which depends on the schedule, so it is pinned
    for deterministic runs only."""
    problems = []
    if digests["channels"] != golden["channels"]:
        problems.append(f"per-channel digest {digests['channels'][:12]} differs from golden {golden['channels'][:12]}")
    if wl.schedule == "deterministic" and digests["csv"] != golden["csv"]:
        problems.append(f"CSV digest {digests['csv'][:12]} differs from golden {golden['csv'][:12]}")
    return problems


@dataclass(frozen=True)
class _Cell:
    key: str
    value: int


def calibrate(n: int = 40_000) -> float:
    """CPU seconds of a fixed pure-Python kernel that uses no Mimosa code:
    small frozen dataclasses, dict updates and copies, isinstance tests, the
    operations the interpreter-bound pipeline is made of.

    The machine's speed for such code drifts by a third over minutes on a
    shared host, and the drift hits the kernel and the pipeline alike. Timing
    the kernel between iterations and rescaling each iteration's times by
    CAL_REFERENCE_S / (mean kernel time on either side) cancels the drift and
    leaves changes in the program.
    """
    t0 = process_time()
    env: dict[str, _Cell] = {}
    for i in range(n):
        cell = _Cell(f"k{i % 97}", i)
        if i % 8 == 0:
            env = dict(env)
        env[cell.key] = cell
        if isinstance(cell, _Cell) and cell.value % 3 == 0:
            env.pop(cell.key, None)
    return process_time() - t0


def _called_steps(e, bodied: dict):
    from mimosa.ast import Apply, Expr, Var

    if isinstance(e, Apply) and isinstance(e.fn, Var) and e.fn.name in bodied:
        yield e.fn.name
    for f in dataclasses.fields(e):
        value = getattr(e, f.name)
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, Expr):
                yield from _called_steps(item, bodied)


def equations_per_firing(checked) -> dict[str, int]:
    """Equations one firing of each bodied node evaluates, counting those of
    the bodied steps it calls (statically, per call site)."""
    bodied = checked.ordered_equations
    memo: dict[str, int] = {}

    def count(step: str) -> int:
        if step not in memo:
            memo[step] = len(bodied[step]) + sum(
                count(callee) for eq in bodied[step] for callee in _called_steps(eq.rhs, bodied)
            )
        return memo[step]

    return {node.name: count(node.step) for node in checked.program.nodes if node.step in bodied}


def layer_metrics(tracer, eqs: dict[str, int], sample: Sample) -> dict[str, float]:
    from tracer import tail

    spans = tracer.summary()

    def get(name: str, key: str):
        return spans[name][key] if name in spans else 0

    fires = get("coord.fire_node", "calls")
    idles = get("coord.idle_node", "calls")
    enabled = get("coord.node_enabled", "calls")
    parse_s = get("parser.parse_program", "total")
    eval_s = get("eval.eval_expr", "self")
    firing_us = [d * 1e6 for d in spans.get("eval.eval_expr", {}).get("durations", [])]
    # Per equation, over firings of bodied nodes only: a host node's firing
    # evaluates no equation.
    bodied = [(tracer.end[i] - tracer.start[i], eqs[node]) for i, node in tracer.evaluations if node in eqs]
    bodied_s = sum(d for d, _ in bodied)
    evaluated = sum(n for _, n in bodied)
    return {
        "parser.parse_s": parse_s,
        "parser.tokens": tracer.tokens,
        "parser.tokens_per_s": tracer.tokens / parse_s,
        "analysis.network_s": get("analysis.network", "total"),
        "analysis.types_s": get("analysis.types", "total"),
        "analysis.causality_s": get("analysis.causality", "total"),
        "analysis.init_s": get("analysis.init", "total"),
        "analysis.equations": tracer.equations,
        "eval.calls": get("eval.eval_expr", "calls"),
        "eval.s": eval_s,
        "eval.firing_us_p50": median(firing_us),
        "eval.firing_us_tail": tail(firing_us),
        "eval.us_per_equation": bodied_s * 1e6 / evaluated if evaluated else 0.0,
        "host.calls": sample.host_calls,
        "host.s": get("host.call", "total"),
        "coord.enabled_calls": enabled,
        "coord.enabled_s": get("coord.node_enabled", "total"),
        "coord.blocked": tracer.blocked,
        "coord.fires": fires,
        "coord.idles": idles,
        "coord.fire_self_s": get("coord.fire_node", "self"),
        "coord.idle_s": get("coord.idle_node", "self"),
        "coord.invariants_calls": get("coord.check_invariants", "calls"),
        "coord.invariants_s": get("coord.check_invariants", "total"),
        "coord.queue_peak": tracer.queue_peak,
        "coord.decision_yield": 100.0 * (fires + idles) / enabled if enabled else 0.0,
        "sim.select_s": get("sim.run_until", "self"),
        "sim.steps": fires + idles,
        "sim.trace_s": get("sim.trace", "total"),
        "sim.trace_events": sample.trace_events,
        "sim.retained_records": sample.retained_records,
        "pretty.csv_s": get("pretty.render_csv", "total"),
    }


class Runner:
    """Runs checked iterations of one workload and keeps the tallies."""

    def __init__(self, name: str, seed: int, stream: int = 0):
        from workloads import make

        self.wl = make(name, seed)
        self.seed = seed
        self.stream = stream
        self.golden = json.loads(GOLDEN.read_text())["bench"][name][str(self.wl.variant)]
        self.attempted = 0
        self.failed = 0
        self.host_calls: int | None = None
        self.reference_digest: str | None = None

    def _attempt(self, wl, schedule_seed: int | None, wrap=None) -> tuple[Sample, str] | None:
        gc.collect()
        self.attempted += 1
        try:
            sample, digests = run_once(wl, schedule_seed, wrap)
        except Exception:  # a failed run is counted and reported; the loop goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += 1
            return None
        sample.problems += golden_problems(wl, digests, self.golden)
        if self.host_calls is None:
            self.host_calls = sample.host_calls
        elif sample.host_calls != self.host_calls:
            sample.problems.append(f"{sample.host_calls} host calls, the first run made {self.host_calls}")
        if self.reference_digest is not None and digests["channels"] != self.reference_digest:
            sample.problems.append("per-channel digest differs from the deterministic schedule's")
        if sample.problems:
            for problem in sample.problems:
                print(f"perfbench: {wl.name} ({wl.schedule}): {problem}", file=sys.stderr)
            self.failed += 1
        return sample, digests["channels"]

    def iterate(self, wrap=None) -> Sample | None:
        # Randomized workloads draw a fresh schedule seed for every iteration.
        schedule_seed = (self.seed * 100_003 + self.stream) * 10_007 + self.attempted
        outcome = self._attempt(self.wl, schedule_seed, wrap)
        return outcome[0] if outcome else None

    def prepare(self) -> None:
        """Untimed warm-up. For randomized workloads this is one deterministic
        run, whose per-channel digest every randomized run must reproduce."""
        if self.wl.schedule == "deterministic":
            self.iterate()
            return
        outcome = self._attempt(dataclasses.replace(self.wl, schedule="deterministic"), None)
        if outcome:
            self.reference_digest = outcome[1]

    def loop(self, seconds: float, tracer=None, eqs=None) -> list[Sample]:
        samples: list[Sample] = []
        started = perf_counter()
        cal_before = calibrate()
        while len(samples) < MIN_ITERATIONS or perf_counter() < started + seconds:
            # Give up early if iterations fail or are far slower than expected.
            if perf_counter() > started + 2 * seconds + 10 or self.failed > MIN_ITERATIONS:
                break
            if tracer is not None:
                tracer.reset()
            sample = self.iterate(tracer.host if tracer is not None else None)
            cal_after = calibrate()
            if sample is not None:
                sample.scale = CAL_REFERENCE_S / ((cal_before + cal_after) / 2)
                if tracer is not None:
                    sample.layers = layer_metrics(tracer, eqs, sample)
                samples.append(sample)
            cal_before = cal_after
        return samples


def median(values) -> float:
    return statistics.median(list(values))


def measure(name: str, seed: int, seconds: float, stream: int) -> dict:
    """The body of one end-to-end process: warm-up, peak memory, timed loop."""
    runner = Runner(name, seed, stream)
    runner.prepare()
    # The process has done one run so far: its peak is one run's peak.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples = runner.loop(seconds)
    return {
        "attempted": runner.attempted,
        "failed": runner.failed,
        "peak_rss_mb": peak_rss_mb,
        "samples": [[s.setup_s * s.scale, s.run_s * s.scale, s.total_s * s.scale] for s in samples],
    }


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, int, int, int]:
    """Pool PROCESSES fresh processes' iterations. Returns the metric values,
    the number of timed iterations, and the attempted and failed counts."""
    from workloads import make

    steps = make(name, seed).steps
    parts = []
    for stream in range(PROCESSES):
        share = seconds / PROCESSES
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
                   "--seconds", str(share), "--stream", str(stream)]
        try:
            proc = subprocess.run(command, capture_output=True, text=True, timeout=2 * share + 30)
            sys.stderr.write(proc.stderr)
            parts.append(json.loads(proc.stdout.splitlines()[-1]))
        except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
            print(f"perfbench: {name}: measuring process {stream} gave no result: {exc!r}", file=sys.stderr)
            parts.append({"attempted": 1, "failed": 1, "peak_rss_mb": None, "samples": []})
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts)
    samples = [row for p in parts for row in p["samples"]]
    peaks = [p["peak_rss_mb"] for p in parts if p["peak_rss_mb"] is not None]
    if not samples:
        return {}, 0, attempted, failed
    values = {
        "setup_s": median(row[0] for row in samples),
        "run_s": median(row[1] for row in samples),
        "total_s": median(row[2] for row in samples),
        "steps_per_s": median(steps / row[1] for row in samples),
        "peak_rss_mb": median(peaks),
    }
    return values, len(samples), attempted, failed


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict, int, int, int]:
    """Untraced, then traced iterations in this process. Returns the metric
    values, the number of traced iterations, and the attempted and failed
    counts."""
    from mimosa import analysis, parser
    from tracer import Tracer, installed

    runner = Runner(name, seed)
    runner.prepare()
    untraced = runner.loop(seconds / 3)
    wl = runner.wl
    eqs = equations_per_firing(analysis.check_program(parser.parse_program(wl.source)))
    tracer = Tracer()
    with installed(tracer):
        traced = runner.loop(seconds * 2 / 3, tracer, eqs)
    if not untraced or not traced:
        return {}, 0, runner.attempted, runner.failed
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(str(OUT / f"spans-{wl.name}-{runner.seed}.csv"))
    values = {name: median(s.layers[name] for s in traced) for name in traced[0].layers}
    values["trace.overhead"] = median(s.total_s * s.scale for s in traced) / median(
        s.total_s * s.scale for s in untraced
    )
    return values, len(traced), runner.attempted, runner.failed


def bench(name: str, seed: int, seconds: float, trace: int) -> int:
    from workloads import make

    values, n, attempted, failed = (per_layer if trace else end_to_end)(name, seed, seconds)
    if not values:
        print(f"perfbench: {name}: no iteration completed", file=sys.stderr)
        return 1
    unit = units("per_layer" if trace else "end_to_end")
    wl = make(name, seed)
    params = " ".join(f"{k}={v}" for k, v in wl.params.items())
    print(f"{name} (variant {wl.variant}, {params}, {wl.schedule}): {wl.steps} steps per run")
    where = "traced runs" if trace else f"untraced runs in {PROCESSES} processes"
    for key, value in values.items():
        count = f"median of {PROCESSES} processes, each after one run" if key == "peak_rss_mb" else f"median of {n} {where}"
        print(f"  {key:24} {value:14.6g} {unit[key]:6} {count}")
    print(f"  {'error_rate':24} {failed / attempted:14.6g} {'ratio':6} {failed} failed of {attempted} attempted")
    metrics = {key: {"value": value, "unit": unit[key]} for key, value in values.items()}
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: run as measuring process number STREAM of an end-to-end run.
    ap.add_argument("--stream", type=int, default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    try:
        import mimosa
    except ImportError as exc:
        print(f"perfbench: cannot import the mimosa package from src/: {exc}", file=sys.stderr)
        return 2
    if not Path(mimosa.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: mimosa was imported from {mimosa.__file__}, not from src/", file=sys.stderr)
        return 2
    for needed in (GOLDEN, SPEC):
        if not needed.exists():
            print(f"perfbench: missing {needed.name}", file=sys.stderr)
            return 2
    if args.stream is not None:
        print(json.dumps(measure(args.workload, args.seed, args.seconds, args.stream)))
        return 0
    status = 0
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        status |= bench(name, args.seed, args.seconds, args.trace)
    return status


if __name__ == "__main__":
    sys.exit(main())
