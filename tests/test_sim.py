import io
import re

import pytest

from conftest import bools, edge_hosts, quiet_fib_hosts, silent
from mimosa import (
    HostRegistry,
    SimConfig,
    Simulation,
    check_program,
    parse_program,
    run,
    run_randomized_equivalence,
)
from mimosa.ast import UNIT_VALUE, VConst
from mimosa.coord import NetworkState, StepRecord
from mimosa.errors import ParseError, SimError
from mimosa.sim import builtin_hosts, const_seq, from_values, parse_literal, print_host

MS = 1_000
FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]


def fib_trace(fib_checked, horizon_ms=200, **kwargs):
    cfg = SimConfig(horizon_us=horizon_ms * MS, **kwargs)
    return run(fib_checked, cfg, quiet_fib_hosts())


class TestFibonacci:
    def test_channel_d_matches_the_hand_trace(self, fib_checked):
        # Writes tagged beyond the horizon (55@210ms) have not appeared yet.
        trace = fib_trace(fib_checked)
        got = trace.per_channel()["d"]
        expected = [(10 * MS + 20 * MS * k, VConst(v)) for k, v in enumerate(FIB[:10])]
        assert got == expected

    def test_channel_b_carries_the_sums(self, fib_checked):
        got = fib_trace(fib_checked).per_channel()["b"]
        assert [v.value for _, v in got] == FIB[1:]
        assert [t for t, _ in got] == [20 * MS * (k + 1) for k in range(len(FIB) - 1)]

    def test_activations_form_arithmetic_progressions(self, fib_checked):
        trace = fib_trace(fib_checked)
        for node in ("add", "split", "print"):
            times = [s.time_us for s in trace.steps if s.node == node]
            assert times == list(range(0, 200 * MS + 1, 10 * MS))

    def test_every_tag_is_activation_plus_period(self, fib_checked):
        trace = fib_trace(fib_checked)
        fires = {(s.node, s.time_us) for s in trace.steps if s.kind == "fire"}
        for ev in trace.events:
            assert (ev.node, ev.time_us - 10 * MS) in fires

    def test_per_channel_tags_nondecreasing(self, fib_checked):
        for events in fib_trace(fib_checked).per_channel().values():
            tags = [t for t, _ in events]
            assert tags == sorted(tags)


class TestEdgeDetector:
    def test_rising_and_falling_edges(self, edge_network_checked):
        hosts = edge_hosts(bools(False, False, True, True, False, False))
        trace = run(edge_network_checked, SimConfig(horizon_us=600 * MS), hosts)
        assert trace.per_channel().get("b") == [
            (400 * MS, VConst(True)),
            (600 * MS, VConst(False)),
        ]

    def test_constant_input_emits_nothing(self, edge_network_checked):
        hosts = edge_hosts(bools(True, True, True, True))
        trace = run(edge_network_checked, SimConfig(horizon_us=400 * MS), hosts)
        assert "b" not in trace.per_channel()


class TestHorizon:
    def test_horizon_below_min_period_is_empty(self, fib_checked):
        trace = fib_trace(fib_checked, horizon_ms=9)
        assert trace.events == ()

    def test_run_until_trace_is_a_prefix(self, fib_checked):
        sim = Simulation(fib_checked, SimConfig(horizon_us=200 * MS), quiet_fib_hosts())
        sim.run_until(60 * MS)
        early = sim.trace().events
        sim.run_until(200 * MS)
        late = sim.trace().events
        assert late[: len(early)] == early
        assert len(late) > len(early)

    def test_incremental_equals_one_shot(self, fib_checked):
        sim = Simulation(fib_checked, SimConfig(horizon_us=200 * MS), quiet_fib_hosts())
        for t in (30 * MS, 110 * MS, 200 * MS):
            sim.run_until(t)
        assert sim.trace().per_channel() == fib_trace(fib_checked).per_channel()


class TestConfluence:
    def test_fibonacci_schedules_agree(self, fib_checked):
        report = run_randomized_equivalence(
            fib_checked, SimConfig(horizon_us=200 * MS, seed=11), quiet_fib_hosts(), runs=15
        )
        assert report.ok, report.detail

    def test_edge_detector_schedules_agree(self, edge_network_checked):
        hosts = edge_hosts(bools(False, True, False, True, True, False))
        report = run_randomized_equivalence(
            edge_network_checked, SimConfig(horizon_us=600 * MS, seed=3), hosts, runs=15
        )
        assert report.ok, report.detail

    def test_randomized_schedule_matches_deterministic_trace(self, fib_checked):
        det = fib_trace(fib_checked).per_channel()
        rnd = fib_trace(fib_checked, schedule="randomized", seed=99).per_channel()
        assert det == rnd

    def test_broken_idle_rule_is_caught(self, monkeypatch):
        # An idle step that forgets to advance its output validity starves the
        # peer node: both end up mutually undecided, which the driver reports.
        # (On the two example networks a stale validity only delays scheduling;
        # a mutually-waiting pair makes the breakage observable.)
        src = """
step f (v : int) --> (w : int) { w = v }
step g (v : int) --> (w : int) { w = v }
channel x : int
channel y : int
node n1 implements f (x) --> (y) every 10ms
node n2 implements g (y) --> (x) every 10ms
"""
        cp = check_program(parse_program(src))

        def broken_idle(ns: NetworkState, name: str) -> None:
            node = ns.nodes[name]
            node.activation += node.period_us  # forgets the validity update
            ns.steps.append(StepRecord("idle", name, node.activation - node.period_us))

        monkeypatch.setattr("mimosa.sim.idle_node", broken_idle)
        report = run_randomized_equivalence(
            cp, SimConfig(horizon_us=100 * MS, seed=5), HostRegistry(), runs=3
        )
        assert not report.ok
        assert "aborted" in (report.detail or "")
        # The livelock report names the channel each stuck node waits on.
        assert re.search(r"waits on '[xy]' \(validity 10ms\)", report.detail)

    def test_mutually_idle_network_is_fine_with_correct_rules(self):
        src = """
step f (v : int) --> (w : int) { w = v }
step g (v : int) --> (w : int) { w = v }
channel x : int
channel y : int
node n1 implements f (x) --> (y) every 10ms
node n2 implements g (y) --> (x) every 10ms
"""
        cp = check_program(parse_program(src))
        trace = run(cp, SimConfig(horizon_us=100 * MS), HostRegistry())
        assert trace.events == ()
        assert all(s.kind == "idle" for s in trace.steps)


class TestHosts:
    def test_print_host_format(self, fib_checked):
        sink = io.StringIO()
        hosts = HostRegistry().bind("print_int", print_host(sink))
        run(fib_checked, SimConfig(horizon_us=60 * MS), hosts)
        assert sink.getvalue().splitlines() == ["10ms: 0", "30ms: 1", "50ms: 1"]

    def test_builtin_hosts_cover_print_int(self, fib_checked, capsys):
        run(fib_checked, SimConfig(horizon_us=30 * MS), builtin_hosts())
        assert capsys.readouterr().out.splitlines() == ["10ms: 0", "30ms: 1"]

    def test_unbound_prototype_reported_before_running(self, edge_network_checked):
        with pytest.raises(SimError, match="unbound prototype steps"):
            Simulation(edge_network_checked, SimConfig(horizon_us=MS), HostRegistry())

    TWICE = """\
step sensor () --> (v : int)
step sink (_ : int) --> ()
step twice () --> (w : int) { w = sensor () + sensor () }
channel a : int
channel b : int
node t1 implements twice () --> (a) every 10ms
node t2 implements twice () --> (b) every 20ms
node s1 implements sink (a) --> () every 10ms
node s2 implements sink (b) --> () every 20ms
"""

    def test_step_body_calls_prototype_with_one_instance_per_node(self):
        callers: list[set[str]] = []  # per instance, the nodes that called it

        def counter():
            seen, count = set(), iter(range(1000))
            callers.append(seen)

            def fn(_value, ctx):
                seen.add(ctx.node)
                return VConst(next(count))

            return fn

        hosts = HostRegistry().bind("sensor", counter).bind_fn("sink", silent)
        cp = check_program(parse_program(self.TWICE))
        trace = run(cp, SimConfig(horizon_us=40 * MS), hosts)
        # Each node's own counter yields 0, 1 on its first firing, 2, 3 on its second...
        assert [v.value for v in trace.values("a")] == [1, 5, 9, 13]
        assert [v.value for v in trace.values("b")] == [1, 5]
        assert sorted(map(sorted, callers)) == [["t1"], ["t2"]]

    def test_unbound_prototype_called_from_step_body_reported(self):
        cp = check_program(parse_program(self.TWICE))
        with pytest.raises(SimError, match=r"unbound prototype steps: sensor$"):
            Simulation(cp, SimConfig(horizon_us=MS), HostRegistry().bind_fn("sink", silent))

    def test_from_values_holds_last(self):
        fn = from_values([VConst(1), VConst(2)])()
        got = [fn(UNIT_VALUE, None) for _ in range(4)]
        assert got == [VConst(1), VConst(2), VConst(2), VConst(2)]

    def test_const_seq(self):
        fn = const_seq(VConst(5))()
        assert [fn(UNIT_VALUE, None) for _ in range(3)] == [VConst(5)] * 3

    def test_from_file(self, tmp_path):
        path = tmp_path / "levels.txt"
        path.write_text("true\nfalse\n-- comment\n\ntrue\n")
        from mimosa.sim import from_file

        fn = from_file(str(path))()
        assert [fn(UNIT_VALUE, None) for _ in range(3)] == bools(True, False, True)

    def test_from_file_missing(self):
        from mimosa.sim import from_file

        with pytest.raises(SimError, match="cannot read"):
            from_file("/nonexistent/path.txt")

    def test_parse_literal(self):
        assert parse_literal("42") == VConst(42)
        assert parse_literal("-3") == VConst(-3)
        assert parse_literal("Some true").value == VConst(True)
        assert parse_literal("(1, 2)").items == (VConst(1), VConst(2))

    @pytest.mark.parametrize("text", ["foo", "1 2", ")", "\u00b2"])
    def test_malformed_literal_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_literal(text)

    def test_host_instances_are_per_node(self):
        # Two nodes implementing the same prototype each get a fresh stub.
        src = """
step feed () --> (n : int)
step take (_ : int) --> ()
channel x : int
channel y : int
node f1 implements feed () --> (x) every 10ms
node f2 implements feed () --> (y) every 10ms
node t1 implements take (x) --> () every 10ms
node t2 implements take (y) --> () every 10ms
"""
        cp = check_program(parse_program(src))
        hosts = HostRegistry()
        hosts.bind("feed", from_values([VConst(1), VConst(2), VConst(3)]))
        hosts.bind_fn("take", silent)
        trace = run(cp, SimConfig(horizon_us=30 * MS), hosts)
        per = trace.per_channel()
        assert [v.value for _, v in per["x"]] == [1, 2, 3]
        assert [v.value for _, v in per["y"]] == [1, 2, 3]


class TestProducerConsumer:
    SRC = """
step count () --> (n : int) { n = (0 -> pre n) + 1 }
step sink (_ : int) --> ()
channel x : int
node producer implements count () --> (x) every 40ms
node consumer implements sink (x) --> () every 20ms
"""

    def run_net(self, horizon_ms=400):
        cp = check_program(parse_program(self.SRC))
        hosts = HostRegistry().bind_fn("sink", silent)
        return run(cp, SimConfig(horizon_us=horizon_ms * MS), hosts)

    def test_consumer_fires_once_per_write(self):
        trace = self.run_net()
        writes_in_window = [e for e in trace.events if e.time_us <= 400 * MS]
        consumer_fires = [s for s in trace.steps if s.node == "consumer" and s.kind == "fire"]
        assert len(consumer_fires) == len(writes_in_window) == 10
        assert [s.time_us for s in consumer_fires] == [t * MS for t in range(40, 401, 40)]

    def test_consumer_idles_otherwise(self):
        trace = self.run_net()
        consumer = [(s.kind, s.time_us) for s in trace.steps if s.node == "consumer"]
        assert [t for _, t in consumer] == [t * MS for t in range(0, 401, 20)]
        for kind, t in consumer:
            assert kind == ("fire" if t % (40 * MS) == 0 and t > 0 else "idle")

    def test_producer_counts_up(self):
        # Writes land at 40, 80, ..., 400 ms; the 11th is tagged past the horizon.
        trace = self.run_net()
        assert [v.value for _, v in trace.per_channel()["x"]] == list(range(1, 11))


class TestNestedStepState:
    def test_inner_step_memory_survives_across_activations(self):
        src = """
step count () --> (n : int) { n = (0 -> pre n) + 1 }
step mem (v : int) --> (w : int) { w = 0 -> pre v }
step delay (v : int) --> (w : int) { w = mem v }
step sink (_ : int) --> ()
channel x : int
channel y : int
node producer implements count () --> (x) every 10ms
node delayer implements delay (x) --> (y) every 10ms
node consumer implements sink (y) --> () every 10ms
"""
        cp = check_program(parse_program(src))
        hosts = HostRegistry().bind_fn("sink", silent)
        trace = run(cp, SimConfig(horizon_us=100 * MS), hosts)
        per = trace.per_channel()
        assert [v.value for _, v in per["x"]] == list(range(1, 11))
        # delay pipes x through a nested stateful step: one-cycle delay, 0 seed.
        assert [v.value for _, v in per["y"]] == [0, 1, 2, 3, 4, 5, 6, 7, 8]


class TestTraceOutput:
    def test_csv_is_deterministic(self, fib_checked):
        a = fib_trace(fib_checked).render_csv()
        b = fib_trace(fib_checked).render_csv()
        assert a == b

    def test_csv_shape(self, fib_checked):
        text = fib_trace(fib_checked, horizon_ms=30).render_csv()
        lines = text.splitlines()
        assert lines[0] == "time_us,channel,value,node"
        assert lines[1] == "10000,a,0,split"
        assert "20000,b,1,add" in lines

    def test_csv_rows_sorted_by_time(self, fib_checked):
        text = fib_trace(fib_checked).render_csv()
        times = [int(line.split(",")[0]) for line in text.splitlines()[1:]]
        assert times == sorted(times)

    def test_verbose_idle_rows(self, fib_checked):
        text = fib_trace(fib_checked, horizon_ms=30, verbose_idle=True).render_csv(include_idle=True)
        assert any(",idle," in line for line in text.splitlines())

    def test_write_csv_to_file(self, fib_checked, tmp_path):
        path = tmp_path / "trace.csv"
        cfg = SimConfig(horizon_us=50 * MS, trace_path=str(path))
        run(fib_checked, cfg, quiet_fib_hosts())
        assert path.read_text().startswith("time_us,channel,value,node\n")
