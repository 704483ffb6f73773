"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and counts are pinned here, not configurable.
"""

import random
import re
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from conftest import (
    EDGE_SOURCE,
    FIB_SOURCE,
    bools,
    edge_hosts,
    quiet_fib_hosts,
    silent,
)
from exprgen import TOP_TYPES, base_env, gen_expr
from mimosa import (
    HostRegistry,
    InitError,
    SimConfig,
    check_initialization,
    check_network,
    check_program,
    eval_equations,
    eval_expr,
    infer_types,
    order_equations,
    parse_expression,
    parse_program,
    run,
    run_randomized_equivalence,
)
from mimosa.ast import Equation, PVar, VUndef, contains_undef
from mimosa.eval import Env

MS = 1_000
ORACLE = Path(__file__).parent / "oracles" / "fib_trace.md"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} ({name}): FAIL")
        raise
    print(f"\ncriterion {number} ({name}): PASS")


def test_criterion_1_golden_parse():
    with criterion(1, "golden parse and front-end checks"):
        started = time.perf_counter()
        for source, fname in ((FIB_SOURCE, "fib.mim"), (EDGE_SOURCE, "edge.mim")):
            program = parse_program(source, file=fname)
            check_network(program, complete=False)  # name resolution
            infer_types(program)  # type check
            for step in program.steps:
                if step.is_prototype:
                    continue
                ordered = order_equations(step)  # causality check
                check_initialization(step, ordered)  # initialization check
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"front-end checks took {elapsed:.2f}s"


def oracle_d_history() -> list[tuple[int, int]]:
    """The hand-recorded channel-d history from the pre-implementation trace."""
    text = ORACLE.read_text()
    history = text.split("## Channel d history")[1]
    line = next(l for l in history.splitlines() if l.strip().startswith("d:"))
    observed = line.split("(")[0]
    return [(int(v), int(t) * MS) for v, t in re.findall(r"(\d+)@(\d+)", observed)]


def test_criterion_2_fibonacci_end_to_end(fib_checked):
    with criterion(2, "Fibonacci end-to-end vs hand trace"):
        trace = run(fib_checked, SimConfig(horizon_us=200 * MS), quiet_fib_hosts())

        # First five rule applications, exactly as recorded in the oracle.
        assert list(trace.steps[:5]) == [
            ("idle", "add", 0),
            ("fire", "split", 0),
            ("idle", "print", 0),
            ("fire", "add", 10 * MS),
            ("idle", "split", 10 * MS),
        ]

        got = [(v, t) for t, v in trace.per_channel()["d"]]
        expected = oracle_d_history()
        assert got == expected, f"channel d diverged from the recorded oracle: {got}"
        fib = [v for v, _ in got]
        assert len(fib) >= 7
        assert fib[:2] == [0, 1] and all(fib[i] == fib[i - 1] + fib[i - 2] for i in range(2, len(fib)))


def test_criterion_3_edge_detector(edge_network_checked):
    with criterion(3, "edge detector emits exactly [true, false]"):
        hosts = edge_hosts(bools(False, False, True, True, False, False))
        trace = run(edge_network_checked, SimConfig(horizon_us=600 * MS), hosts)
        assert trace.per_channel().get("b") == [
            (400 * MS, True),
            (600 * MS, False),
        ]


def test_criterion_4_confluence(fib_checked, edge_network_checked):
    with criterion(4, "confluence over 50 randomized schedules per network"):
        started = time.perf_counter()
        report = run_randomized_equivalence(
            fib_checked, SimConfig(horizon_us=200 * MS, seed=2024), quiet_fib_hosts(), runs=50
        )
        assert report.ok, report.detail
        hosts = edge_hosts(bools(False, False, True, True, False, False))
        report = run_randomized_equivalence(
            edge_network_checked, SimConfig(horizon_us=600 * MS, seed=4048), hosts, runs=50
        )
        assert report.ok, report.detail
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"confluence checks took {elapsed:.2f}s"


def test_criterion_5_evaluation_determinism():
    with criterion(5, "1000 random well-typed expressions evaluate deterministically"):
        env = base_env()
        for seed in range(1000):
            rng = random.Random(seed)
            ty = rng.choice(TOP_TYPES)
            expr = gen_expr(rng, ty, depth=rng.randrange(1, 5), need_init=False)
            first = eval_expr(env, expr)
            second = eval_expr(env, expr)
            assert first.value == second.value, f"seed {seed}: values differ"
            assert first.next == second.next, f"seed {seed}: next expressions differ"


def test_criterion_6_eqs_fixpoint():
    with criterion(6, "x = 0 -> pre x is a fixpoint of equation evaluation"):
        original = parse_expression("0 -> pre x")
        eqs = (Equation(PVar("x"), original),)
        for cycle in range(100):
            eqs, env = eval_equations(Env(), eqs)
            assert env["x"] == 0, f"cycle {cycle}: value drifted"
            assert eqs[0].rhs == original, f"cycle {cycle}: equation rewrote"


def test_criterion_7_initialization_conformance():
    with criterion(7, "nested-pre rejection and runtime counterexample"):
        # Rejected by the analysis, diagnostic on the inner pre.
        bad = parse_program("step f (x : int) --> y { y = 0 -> 0 -> pre pre x }").steps[0]
        with pytest.raises(InitError):
            check_initialization(bad, order_equations(bad))

        # With the analysis out of the way, the evaluator shows the undefined
        # value at cycle 2 (and the rewriting keeps alternating afterwards).
        eqs = (Equation(PVar("x"), parse_expression("0 -> 0 -> pre pre x")),)
        values = []
        for _ in range(4):
            eqs, env = eval_equations(Env(), eqs)
            values.append(env["x"])
        assert values[0] == 0
        assert values[1] == VUndef(), "undefined value must appear exactly at cycle 2"
        assert values[2] == 0

        # The alternating form is accepted and never goes undefined.
        good = parse_program("step f (x : int) --> y { y = 0 -> pre (0 -> pre x) }").steps[0]
        check_initialization(good, order_equations(good))
        eqs = (Equation(PVar("y"), parse_expression("0 -> pre (0 -> pre x)")),)
        for cycle in range(100):
            eqs, env = eval_equations(Env({"x": cycle}), eqs)
            assert not contains_undef(env["y"]), f"cycle {cycle} produced undef"


def test_criterion_8_channel_invariants(fib_checked, edge_network_checked):
    with criterion(8, "channel invariants hold after every rewrite"):
        # Every run checks tag <= validity, validity monotonicity and
        # validity == writer's next write time after every rule application,
        # and write-tag >= validity at every write, which keeps each queue
        # tag-sorted; any violation raises.
        cfg = SimConfig(horizon_us=200 * MS)
        run(fib_checked, cfg, quiet_fib_hosts())
        hosts = edge_hosts(bools(False, True, True, False, True, False))
        run(edge_network_checked, SimConfig(horizon_us=600 * MS), hosts)
        report = run_randomized_equivalence(
            fib_checked, SimConfig(horizon_us=200 * MS, seed=7), quiet_fib_hosts(), runs=10
        )
        assert report.ok, report.detail


def test_criterion_9_idle_correctness():
    with criterion(9, "consumer fires once per producer write, idles otherwise"):
        src = """
step count () --> (n : int) { n = (0 -> pre n) + 1 }
step sink (_ : int) --> ()
channel x : int
node producer implements count () --> (x) every 40ms
node consumer implements sink (x) --> () every 20ms
"""
        cp = check_program(parse_program(src))
        hosts = HostRegistry().bind_fn("sink", silent)
        trace = run(cp, SimConfig(horizon_us=400 * MS), hosts)

        writes = trace.per_channel()["x"]
        consumer = [(kind, t) for kind, node, t in trace.steps if node == "consumer"]
        fires = [t for kind, t in consumer if kind == "fire"]
        assert len(fires) == len(writes) == 10
        assert fires == [t for t, _ in writes]  # one firing per write, at its tag

        # Exact arithmetic progressions for both nodes, fire or idle.
        assert [t for _, t in consumer] == list(range(0, 400 * MS + 1, 20 * MS))
        producer = [t for _, node, t in trace.steps if node == "producer"]
        assert producer == list(range(0, 400 * MS + 1, 40 * MS))
        assert all(kind == "idle" for kind, t in consumer if t not in fires)
