import csv
import io
import json
import re
import sys
from heapq import heapify, heappop, heappush
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mimosa
from conftest import FIB_SOURCE, bools, edge_hosts, quiet_fib_hosts, silent
from exprgen import networks
from mimosa import (
    HostRegistry,
    SimConfig,
    Simulation,
    check_program,
    parse_program,
    run,
    run_randomized_equivalence,
)
from mimosa.analysis import _Infer, check_host_value, host_boxer, host_unboxer
from mimosa.ast import UNIT_VALUE, PTuple, PUnit, PVar, StepDecl, VClosure, VConst, VExtern, VNone, VSome, VTuple, VUndef
from mimosa.cli import main
from mimosa.coord import BLOCKED, FIRE, IDLE, NetworkState, idle_node, node_enabled
from mimosa.errors import SYNTHETIC, InternalError, ParseError, SimError, TypeCheckError, render_diagnostics
from mimosa.pretty import pretty_value
from mimosa.sim import (
    _SHOW,
    EquivalenceReport,
    _first_divergence,
    _livelock,
    builtin_hosts,
    const_seq,
    from_file,
    from_values,
    parse_literal,
    print_host,
)
from mimosa.types import BOOL, INT, REAL, UNIT, TOption, TTuple

MS = 1_000
FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def fib_trace(fib_checked, horizon_ms=200, **kwargs):
    cfg = SimConfig(horizon_us=horizon_ms * MS, **kwargs)
    return run(fib_checked, cfg, quiet_fib_hosts())


def chains(periods: list[tuple[int, int, int]]) -> str:
    """A network of src -> inc -> sink chains with the given (src, inc, sink) periods in ms."""
    lines = [
        "step count () --> (n : int) { n = 0 -> pre (n + 1) }",
        "step inc (x : int) --> (y : int) { y = x + 1 }",
        "step drop (_ : int) --> ()",
    ]
    for c, (src, inc, sink) in enumerate(periods, 1):
        lines += [
            f"channel a{c} : int",
            f"channel b{c} : int",
            f"node src{c} implements count () --> (a{c}) every {src}ms",
            f"node inc{c} implements inc (a{c}) --> (b{c}) every {inc}ms",
            f"node sink{c} implements drop (b{c}) --> () every {sink}ms",
        ]
    return "\n".join(lines) + "\n"


def broken_idle(ns: NetworkState, name: str) -> None:
    node = ns.nodes[name]
    node.activation += node.period_us  # forgets the validity update
    ns.steps.append(("idle", name, node.activation - node.period_us))


# Two nodes that feed each other, so a broken idle rule leaves both undecided.
MUTUAL = """
step f (v : int) --> (w : int) { w = v }
step g (v : int) --> (w : int) { w = v }
channel x : int
channel y : int
node n1 implements f (x) --> (y) every 10ms
node n2 implements g (y) --> (x) every 10ms
"""


class TestFibonacci:
    def test_channel_d_matches_the_hand_trace(self, fib_checked):
        # Writes tagged beyond the horizon (55@210ms) have not appeared yet.
        trace = fib_trace(fib_checked)
        got = trace.per_channel()["d"]
        expected = [(10 * MS + 20 * MS * k, v) for k, v in enumerate(FIB[:10])]
        assert got == expected

    def test_channel_b_carries_the_sums(self, fib_checked):
        got = fib_trace(fib_checked).per_channel()["b"]
        assert [v for _, v in got] == FIB[1:]
        assert [t for t, _ in got] == [20 * MS * (k + 1) for k in range(len(FIB) - 1)]

    def test_activations_form_arithmetic_progressions(self, fib_checked):
        trace = fib_trace(fib_checked)
        for node in ("add", "split", "print"):
            times = [t for _, n, t in trace.steps if n == node]
            assert times == list(range(0, 200 * MS + 1, 10 * MS))

    def test_every_tag_is_activation_plus_period(self, fib_checked):
        trace = fib_trace(fib_checked)
        fires = {(node, t) for kind, node, t in trace.steps if kind == "fire"}
        for t, _, _, node in trace.events:
            assert (node, t - 10 * MS) in fires

    def test_per_channel_tags_nondecreasing(self, fib_checked):
        for events in fib_trace(fib_checked).per_channel().values():
            tags = [t for t, _ in events]
            assert tags == sorted(tags)


class TestEdgeDetector:
    def test_rising_and_falling_edges(self, edge_network_checked):
        hosts = edge_hosts(bools(False, False, True, True, False, False))
        trace = run(edge_network_checked, SimConfig(horizon_us=600 * MS), hosts)
        assert trace.per_channel().get("b") == [
            (400 * MS, True),
            (600 * MS, False),
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

    @pytest.mark.parametrize("network", ["fib", "wide"])
    def test_split_run_until_calls_give_the_one_shot_trace(self, network, fib_checked):
        if network == "fib":
            cp, hosts = fib_checked, quiet_fib_hosts()
        else:
            cp = check_program(parse_program(TestSelection.WIDE))
            hosts = HostRegistry().bind_fn("drop", silent)
        one_shot = Simulation(cp, SimConfig(horizon_us=200 * MS), hosts)
        one_shot.run_until(200 * MS)
        split = Simulation(cp, SimConfig(horizon_us=200 * MS), hosts)
        for t in (20 * MS, 50 * MS, 200 * MS):
            split.run_until(t)
        assert split.trace() == one_shot.trace()
        assert split.state.trace == one_shot.state.trace  # commit order too

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

    def test_one_seed_draws_one_schedule(self, fib_checked):
        def rule_order(**kwargs):
            sim = Simulation(fib_checked, SimConfig(horizon_us=200 * MS, **kwargs), quiet_fib_hosts())
            sim.run_until(200 * MS)
            return list(sim.state.steps)

        first = rule_order(schedule="randomized", seed=5)
        assert rule_order(schedule="randomized", seed=5) == first
        assert first != rule_order(schedule="randomized", seed=6) and first != rule_order()

    def test_broken_idle_rule_is_caught(self, monkeypatch):
        # An idle step that forgets to advance its output validity starves the
        # peer node: both end up mutually undecided, which the driver reports.
        # (On the two example networks a stale validity only delays scheduling;
        # a mutually-waiting pair makes the breakage observable.)
        cp = check_program(parse_program(MUTUAL))
        monkeypatch.setattr("mimosa.sim.idle_node", broken_idle)
        report = run_randomized_equivalence(
            cp, SimConfig(horizon_us=100 * MS, seed=5), HostRegistry(), runs=3
        )
        assert not report.ok
        assert "aborted" in (report.detail or "")
        # The livelock report names the channel each stuck node waits on.
        assert re.search(r"waits on '[xy]' \(validity 10ms\)", report.detail)

    @staticmethod
    def sink_only_mutant(ns: NetworkState, name: str) -> str:
        """`node_enabled`, except that a node with no output ports decides an
        empty input whose validity equals its activation as absent."""
        node = ns.nodes[name]
        t = node.activation
        decision = FIRE
        for ch, optional in node.in_ports:
            if ch.queue:
                if ch.queue[0][1] > t and not optional:
                    decision = IDLE
            elif ch.validity < t or (ch.validity == t and node.out_ports):
                return BLOCKED
            elif not optional:
                decision = IDLE
        return decision

    def test_sink_only_mutant_is_caught(self, fib_checked, monkeypatch):
        # A sink's decisions reach no channel, so only its decision history
        # shows the mutant: the channel histories still agree.
        monkeypatch.setattr("mimosa.sim.node_enabled", self.sink_only_mutant)
        cfg = SimConfig(horizon_us=200 * MS)
        channels = run(fib_checked, cfg, quiet_fib_hosts()).per_channel()
        assert fib_trace(fib_checked, schedule="randomized", seed=1).per_channel() == channels
        report = run_randomized_equivalence(fib_checked, cfg, quiet_fib_hosts(), runs=50)
        assert not report.ok
        assert re.fullmatch(r"run \d+: node 'print' event \d+: expected fire@(\d+), got idle@\1", report.detail)

    def test_report_is_true_only_when_ok(self, fib_checked):
        report = run_randomized_equivalence(fib_checked, SimConfig(horizon_us=50 * MS), quiet_fib_hosts(), runs=2)
        assert report and report.ok and report.runs == 2 and report.detail is None
        assert not EquivalenceReport(False, 1, "run 1: node 'print' has 0 events, expected 1")

    def test_a_run_that_fails_aborts_the_report(self, fib_checked):
        # The reference run instantiates `print_int` once; the first randomized run's instance raises.
        made = []

        def factory():
            made.append(None)
            if len(made) > 1:
                raise OSError("no such device")
            return silent

        report = run_randomized_equivalence(
            fib_checked, SimConfig(horizon_us=50 * MS), HostRegistry().bind("print_int", factory), runs=3
        )
        assert report == EquivalenceReport(
            False, 1, "run 1 aborted: node 'print' failed at 10ms: host step 'print_int' raised OSError: no such device"
        )

    def test_first_divergence_names_a_history_of_another_length(self):
        ref = {"a": [(0, "fire")], "b": [(0, "idle"), (10 * MS, "fire")]}
        shorter = {"a": [(0, "fire")], "b": [(0, "idle")]}
        assert _first_divergence(ref, shorter, 3, "node", _SHOW[1]) == "run 3: node 'b' has 1 events, expected 2"
        assert _first_divergence(ref, {"b": ref["b"]}, 1, "node", _SHOW[1]) == "run 1: node 'a' has 0 events, expected 1"
        # Neither history holds an empty list, so equal ones have no divergence to name.
        with pytest.raises(InternalError, match="differ at no key"):
            _first_divergence(ref, dict(ref), 1, "node", _SHOW[1])

    def test_deterministic_livelock_names_every_stuck_node(self, monkeypatch):
        monkeypatch.setattr("mimosa.sim.idle_node", broken_idle)
        with pytest.raises(SimError) as err:
            run(check_program(parse_program(MUTUAL)), SimConfig(horizon_us=100 * MS), HostRegistry())
        assert err.value.diagnostics[0].message == (
            "livelock (internal invariant): "
            "'n1' at 10ms waits on 'x' (validity 10ms) (inputs: 'x' undecided); "
            "'n2' at 10ms waits on 'y' (validity 10ms) (inputs: 'y' undecided)"
        )

    def test_randomized_livelock_names_every_stuck_node(self, monkeypatch):
        monkeypatch.setattr("mimosa.sim.idle_node", broken_idle)
        cfg = SimConfig(horizon_us=100 * MS, seed=5, schedule="randomized")
        with pytest.raises(SimError) as err:
            run(check_program(parse_program(MUTUAL)), cfg, HostRegistry())
        assert err.value.diagnostics[0].message == (
            "livelock (internal invariant): "
            "'n1' at 10ms waits on 'x' (validity 10ms) (inputs: 'x' undecided); "
            "'n2' at 10ms waits on 'y' (validity 10ms) (inputs: 'y' undecided)"
        )

    def test_livelock_lists_every_input_with_its_status(self, monkeypatch):
        # MUTUAL, where n1 also reads z, which holds its initial value, and
        # the optional w, whose writer is too slow to have written by 10ms.
        src = """
step f (v : int, u : int, o : int?) --> (w : int) { w = v }
step g (v : int) --> (w : int) { w = v }
step k () --> (n : int) { n = 1 }
channel x : int
channel y : int
channel z : int = { 5 }
channel w : int
node n1 implements f (x, z, w?) --> (y) every 10ms
node n2 implements g (y) --> (x) every 10ms
node n3 implements k () --> (z) every 50ms
node n4 implements k () --> (w) every 50ms
"""
        monkeypatch.setattr("mimosa.sim.idle_node", broken_idle)
        with pytest.raises(SimError) as err:
            run(check_program(parse_program(src)), SimConfig(horizon_us=100 * MS), HostRegistry())
        assert (
            "'n1' at 10ms waits on 'x' (validity 10ms) (inputs: 'x' undecided, 'z' available, 'w' absent)"
            in err.value.diagnostics[0].message
        )

    @staticmethod
    def reference_deterministic_run(sim, horizon_us, decide):
        """The deterministic loop as it was before it decided the heap's head
        in place: pop until a node is decidable, apply its rule, push back."""
        from mimosa import sim as module

        state = sim.state
        sim._observed_horizon = horizon_us
        live = [(n.activation, i, n) for i, n in enumerate(state.nodes.values()) if n.activation <= horizon_us]
        heapify(live)
        while live:
            popped = [heappop(live)]
            while (decision := decide(state, popped[-1][2].name)) == BLOCKED:
                if not live:
                    raise _livelock([node for _, _, node in popped])
                popped.append(heappop(live))
            _, index, node = popped.pop()
            for entry in popped:
                heappush(live, entry)
            (module.fire_node if decision == FIRE else module.idle_node)(state, node.name)
            if node.activation <= horizon_us:
                heappush(live, (node.activation, index, node))

    def test_livelock_text_matches_the_reference_loop(self, monkeypatch):
        cp = check_program(parse_program(MUTUAL))
        messages = []
        for runner in ("run_until", "reference"):
            with monkeypatch.context() as patch:
                patch.setattr("mimosa.sim.idle_node", broken_idle)
                sim = Simulation(cp, SimConfig(horizon_us=100 * MS), HostRegistry())
                with pytest.raises(SimError) as err:
                    if runner == "run_until":
                        sim.run_until(100 * MS)
                    else:
                        self.reference_deterministic_run(sim, 100 * MS, node_enabled)
            messages.append(err.value.diagnostics[0].message)
        assert messages[0] == messages[1]
        assert messages[0].startswith("livelock (internal invariant): 'n1' at 10ms waits on 'x'")

    # 24 src -> inc -> sink chains whose periods (2, 3, 4, 6 and 12 ms, in no
    # declaration order) make many nodes due at each instant, and a node
    # rescheduled earlier than one declared before it at the same instant.
    MIXED = chains([(12, 4, 6), (4, 2, 4), (6, 3, 3), (12, 6, 2), (4, 4, 4), (6, 2, 3), (3, 3, 3), (12, 3, 4)] * 3)

    # One-shot runs, one of them to an instant at which every node of each
    # network is due, and split runs.
    @pytest.mark.parametrize("horizons", [(200,), (120,), (20, 50, 200)])
    @pytest.mark.parametrize("network", ["fib", "wide", "mixed"])
    def test_instant_walk_reproduces_the_heap_order(self, network, horizons, fib_checked):
        if network == "fib":
            cp, hosts = fib_checked, quiet_fib_hosts()
        else:
            cp = check_program(parse_program(TestSelection.WIDE if network == "wide" else self.MIXED))
            hosts = HostRegistry().bind_fn("drop", silent)
        runs = []
        for runner in ("run_until", "reference"):
            sim = Simulation(cp, SimConfig(horizon_us=horizons[-1] * MS), hosts)
            for t in horizons:
                if runner == "run_until":
                    sim.run_until(t * MS)
                else:
                    self.reference_deterministic_run(sim, t * MS, node_enabled)
            runs.append((sim.state.steps, sim.state.trace))
        assert runs[0][0] == runs[1][0]  # every rule, in commit order
        assert runs[0][1] == runs[1][1]
        assert horizons[-1] * MS in {time_us for _, _, time_us in runs[0][0]}  # a rule at the horizon itself

    def test_mutually_idle_network_is_fine_with_correct_rules(self):
        cp = check_program(parse_program(MUTUAL))
        trace = run(cp, SimConfig(horizon_us=100 * MS), HostRegistry())
        assert trace.events == ()
        assert all(kind == "idle" for kind, _, _ in trace.steps)


@settings(max_examples=100, deadline=None)
@given(networks(), st.integers(1, 60))
def test_a_checked_network_runs_on_both_schedules(source, horizon_ms):
    # The instant walk's premise: its head is never BLOCKED, so the run
    # completes; and no rule applies beyond the horizon it runs under.
    cp = check_program(parse_program(source))
    cfg = SimConfig(horizon_us=horizon_ms * MS)
    sim = Simulation(cp, cfg, HostRegistry())
    for horizon_us in (horizon_ms // 2 * MS, cfg.horizon_us):
        sim.run_until(horizon_us)
        assert all(time_us <= horizon_us for _, _, time_us in sim.state.steps)
    report = run_randomized_equivalence(cp, cfg, HostRegistry(), runs=3)
    assert report.ok, report.detail


class TestSelection:
    # Chains src -> inc -> sink whose sinks are slower than their inc, so a
    # scan of every candidate finds sinks ahead of their input's validity.
    WIDE = """\
step count () --> (n : int) { n = 0 -> pre (n + 1) }
step inc (x : int) --> (y : int) { y = x + 1 }
step drop (_ : int) --> ()
channel a1 : int
channel b1 : int
channel a2 : int
channel b2 : int
node src1 implements count () --> (a1) every 8ms
node inc1 implements inc (a1) --> (b1) every 4ms
node sink1 implements drop (b1) --> () every 8ms
node src2 implements count () --> (a2) every 12ms
node inc2 implements inc (a2) --> (b2) every 4ms
node sink2 implements drop (b2) --> () every 6ms
"""

    # p writes the channel r reads; q1 and q2 are independent.
    BLOCKING = """\
step count () --> (n : int) { n = 0 -> pre (n + 1) }
step drop (_ : int) --> ()
step beat () --> ()
channel a : int
node p implements count () --> (a) every 20ms
node q1 implements beat () --> () every 20ms
node q2 implements beat () --> () every 20ms
node r implements drop (a) --> () every 10ms
"""

    @staticmethod
    def counting_decisions(monkeypatch) -> list[str]:
        decisions: list[str] = []

        def counted(ns, name):
            decision = node_enabled(ns, name)
            decisions.append(decision)
            return decision

        monkeypatch.setattr("mimosa.sim.node_enabled", counted)
        return decisions

    @pytest.mark.parametrize("network", ["fib", "edge", "wide"])
    def test_deterministic_schedule_decides_once_per_step(
        self, network, monkeypatch, fib_checked, edge_network_checked
    ):
        if network == "fib":
            cp, hosts, horizon = fib_checked, quiet_fib_hosts(), 200 * MS
        elif network == "edge":
            cp, horizon = edge_network_checked, 600 * MS
            hosts = edge_hosts(bools(False, True, True, False, True, False))
        else:
            cp, horizon = check_program(parse_program(self.WIDE)), 96 * MS
            hosts = HostRegistry().bind_fn("drop", silent)
        decisions = self.counting_decisions(monkeypatch)
        trace = run(cp, SimConfig(horizon_us=horizon), hosts)
        assert len(decisions) == len(trace.steps) > 0
        assert "blocked" not in decisions

    def test_same_instant_ties_act_in_declaration_order(self):
        # The printers are declared in the opposite of their name order.
        src = """\
step one () --> (n : int) { n = 1 }
step two () --> (n : int) { n = 2 }
step show (_ : int) --> ()
channel a : int
channel b : int
node w1 implements one () --> (a) every 10ms
node w2 implements two () --> (b) every 10ms
node zed implements show (a) --> () every 10ms
node abe implements show (b) --> () every 10ms
"""
        out = io.StringIO()
        hosts = HostRegistry().bind("show", print_host(out))
        run(check_program(parse_program(src)), SimConfig(horizon_us=30 * MS), hosts)
        assert out.getvalue().splitlines() == [
            "10ms: 1",
            "10ms: 2",
            "20ms: 1",
            "20ms: 2",
            "30ms: 1",
            "30ms: 2",
        ]

    def test_randomized_schedule_is_uniform_among_enabled(self, monkeypatch):
        cp = check_program(parse_program(self.BLOCKING))
        hosts = HostRegistry().bind_fn("drop", silent).bind_fn("beat", silent)

        class Chosen(Exception):
            pass

        def stop(_ns, name):
            raise Chosen(name)

        chosen = {"p": 0, "q1": 0, "q2": 0, "r": 0}
        seeds = 600
        for seed in range(seeds):
            sim = Simulation(cp, SimConfig(horizon_us=20 * MS, schedule="randomized", seed=seed), hosts)
            # r idles at 0ms and 10ms; at 20ms it waits on p, still at 0ms.
            idle_node(sim.state, "r")
            idle_node(sim.state, "r")
            assert node_enabled(sim.state, "r") == "blocked"
            with monkeypatch.context() as patch:
                patch.setattr("mimosa.sim.fire_node", stop)
                patch.setattr("mimosa.sim.idle_node", stop)
                with pytest.raises(Chosen) as got:
                    sim.run_until(20 * MS)
            chosen[str(got.value)] += 1
        assert chosen["r"] == 0
        for name in ("p", "q1", "q2"):
            assert abs(chosen[name] - seeds / 3) < 50, chosen


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

    @staticmethod
    def unplugged_at_30ms(exc: BaseException):
        def fn(_value, ctx):
            if ctx.time_us >= 30 * MS:
                raise exc
            return UNIT_VALUE

        return HostRegistry().bind_fn("print_int", fn)

    UNPLUGGED = "node 'print' failed at 30ms: host step 'print_int' raised ValueError: sensor unplugged"

    def test_raising_host_fails_its_node(self, fib_checked):
        hosts = self.unplugged_at_30ms(ValueError("sensor unplugged"))
        with pytest.raises(SimError) as info:
            run(fib_checked, SimConfig(horizon_us=60 * MS), hosts)
        assert render_diagnostics(info.value.diagnostics) == f"fib.mim:12:1: error: {self.UNPLUGGED}"
        assert type(info.value.__cause__.__cause__) is ValueError

    def test_raising_host_fails_its_node_in_json(self, fib_checked):
        hosts = self.unplugged_at_30ms(ValueError("sensor unplugged"))
        with pytest.raises(SimError) as info:
            run(fib_checked, SimConfig(horizon_us=60 * MS), hosts)
        assert json.loads(render_diagnostics(info.value.diagnostics, "json")) == [
            {"file": "fib.mim", "line": 12, "col": 1, "severity": "error", "message": self.UNPLUGGED}
        ]

    def test_raising_host_factory_fails_the_first_calling_node(self, fib_checked):
        def factory():
            raise OSError("no such device")

        with pytest.raises(SimError) as info:
            run(fib_checked, SimConfig(horizon_us=60 * MS), HostRegistry().bind("print_int", factory))
        message = "node 'print' failed at 10ms: host step 'print_int' raised OSError: no such device"
        assert render_diagnostics(info.value.diagnostics) == f"fib.mim:12:1: error: {message}"

    def test_host_into_a_closed_pipe_still_raises_broken_pipe(self, fib_checked):
        # The command line ends quietly on BrokenPipeError, so it passes unwrapped.
        with pytest.raises(BrokenPipeError):
            run(fib_checked, SimConfig(horizon_us=60 * MS), self.unplugged_at_30ms(BrokenPipeError()))

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
        assert trace.values("a") == [1, 5, 9, 13]
        assert trace.values("b") == [1, 5]
        assert sorted(map(sorted, callers)) == [["t1"], ["t2"]]

    def test_host_reads_each_firings_node_and_activation(self):
        # `sink` is a prototype that nodes implement, `sensor` a prototype
        # called from the step bodies of two nodes. Every call sees the node
        # that fires and that firing's activation.
        calls: list[tuple[str, str, int]] = []

        def recording(step, result):
            def fn(_value, ctx):
                calls.append((step, ctx.node, ctx.time_us))
                return result

            return fn

        hosts = HostRegistry().bind_fn("sensor", recording("sensor", VConst(1)))
        hosts.bind_fn("sink", recording("sink", UNIT_VALUE))
        sim = Simulation(check_program(parse_program(self.TWICE)), SimConfig(horizon_us=40 * MS), hosts)
        sim.run_until(40 * MS)
        expected = []
        for kind, node, t in sim.state.steps:
            if kind == FIRE:
                expected += [("sensor", node, t)] * 2 if node in ("t1", "t2") else [("sink", node, t)]
        assert calls == expected and {node for _, node, _ in calls} == {"t1", "t2", "s1", "s2"}
        # One context per node, each naming its node, so per-node host instances hold.
        contexts = [node.ctx for node in sim.state.nodes.values()]
        assert [ctx.host.node for ctx in contexts] == list(sim.state.nodes)
        assert len({id(ctx) for ctx in contexts}) == len({id(ctx.host) for ctx in contexts}) == 4

    def test_unbound_prototype_called_from_step_body_reported(self):
        cp = check_program(parse_program(self.TWICE))
        with pytest.raises(SimError, match=r"unbound prototype steps: sensor$"):
            Simulation(cp, SimConfig(horizon_us=MS), HostRegistry().bind_fn("sink", silent))

    HELPER = """\
step sensor () --> (v : int)
step spare () --> (v : int)
step sink (_ : int) --> ()
step helper () --> (w : int) { w = sensor () + 1 }
step top () --> (w : int) { w = helper () }
channel a : int
node t implements top () --> (a) every 10ms
node s implements sink (a) --> () every 10ms
"""

    def test_prototypes_to_bind_are_those_named_by_nodes_or_step_bodies(self):
        # sensor is named only in the body of helper, which no node implements;
        # spare is named nowhere, so it needs no binding.
        cp = check_program(parse_program(self.HELPER))
        with pytest.raises(SimError, match=r"unbound prototype steps: sensor$"):
            Simulation(cp, SimConfig(horizon_us=MS), HostRegistry().bind_fn("sink", silent))
        hosts = HostRegistry().bind_fn("sink", silent).bind("sensor", const_seq(VConst(4)))
        trace = run(cp, SimConfig(horizon_us=20 * MS), hosts)
        assert trace.values("a") == [5, 5]

    def test_a_config_needs_a_positive_horizon_and_a_known_schedule(self):
        with pytest.raises(ValueError, match="^horizon must be positive$"):
            SimConfig(horizon_us=0)
        with pytest.raises(ValueError, match="^unknown schedule 'fifo'$"):
            SimConfig(1, schedule="fifo")

    def test_from_values_needs_a_value(self):
        with pytest.raises(SimError, match="input stub needs at least one value"):
            from_values(())

    def test_from_values_holds_last(self):
        fn = from_values([VConst(1), VConst(2)])()
        got = [fn(UNIT_VALUE, None) for _ in range(4)]
        assert got == [VConst(1), VConst(2), VConst(2), VConst(2)]
        # Each instance of one factory starts at the first value.
        factory = from_values([VConst(1), VConst(2)])
        first, second = factory(), factory()
        assert [first(UNIT_VALUE, None), first(UNIT_VALUE, None)] == [VConst(1), VConst(2)]
        assert [second(UNIT_VALUE, None), second(UNIT_VALUE, None)] == [VConst(1), VConst(2)]

    def test_const_seq(self):
        fn = const_seq(VConst(5))()
        assert [fn(UNIT_VALUE, None) for _ in range(3)] == [VConst(5)] * 3
        factory = const_seq(VConst(5))
        first, second = factory(), factory()
        assert [first(UNIT_VALUE, None), second(UNIT_VALUE, None)] == [VConst(5)] * 2
        same = from_values((VConst(5),))()
        assert [same(UNIT_VALUE, None) for _ in range(3)] == [VConst(5)] * 3

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
        # A literal is a value as the run holds it: its scalars are plain.
        assert type(parse_literal("42")) is int and parse_literal("42") == 42
        assert parse_literal("-3") == -3
        assert parse_literal("Some true").value is True
        assert parse_literal("(1, 2)").items == (1, 2)

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
        assert [v for _, v in per["x"]] == [1, 2, 3]
        assert [v for _, v in per["y"]] == [1, 2, 3]


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
        writes_in_window = [e for e in trace.events if e[0] <= 400 * MS]
        consumer_fires = [t for kind, node, t in trace.steps if node == "consumer" and kind == "fire"]
        assert len(consumer_fires) == len(writes_in_window) == 10
        assert consumer_fires == [t * MS for t in range(40, 401, 40)]

    def test_consumer_idles_otherwise(self):
        trace = self.run_net()
        consumer = [(kind, t) for kind, node, t in trace.steps if node == "consumer"]
        assert [t for _, t in consumer] == [t * MS for t in range(0, 401, 20)]
        for kind, t in consumer:
            assert kind == ("fire" if t % (40 * MS) == 0 and t > 0 else "idle")

    def test_producer_counts_up(self):
        # Writes land at 40, 80, ..., 400 ms; the 11th is tagged past the horizon.
        trace = self.run_net()
        assert [v for _, v in trace.per_channel()["x"]] == list(range(1, 11))


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
        assert [v for _, v in per["x"]] == list(range(1, 11))
        # delay pipes x through a nested stateful step: one-cycle delay, 0 seed.
        assert [v for _, v in per["y"]] == [0, 1, 2, 3, 4, 5, 6, 7, 8]

    @pytest.mark.parametrize("schedule, seed", [("deterministic", None), ("randomized", 3), ("randomized", 11)])
    def test_helper_and_caller_with_the_same_local_names(self, schedule, seed):
        # The helper binds its own `m` and `s`; the caller's stay its own.
        src = """
step acc (x : int) --> (s : int) {
  m = x * 2;
  s = m + (0 -> pre s)
}
step top () --> (out : int) {
  m = 0 -> pre (m + 1);
  s = acc m;
  out = s * 10 + m
}
step sink (_ : int) --> ()
channel x : int
node producer implements top () --> (x) every 10ms
node consumer implements sink (x) --> () every 10ms
"""
        cp = check_program(parse_program(src))
        hosts = HostRegistry().bind_fn("sink", silent)
        trace = run(cp, SimConfig(horizon_us=100 * MS, schedule=schedule, seed=seed), hosts)
        assert [v for _, v in trace.per_channel()["x"]] == [k * (k + 1) * 10 + k for k in range(10)]


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
        text = fib_trace(fib_checked, horizon_ms=30).render_csv(include_idle=True)
        assert any(",idle," in line for line in text.splitlines())

    def test_write_csv_to_file(self, tmp_path, capsys):
        program = tmp_path / "fib.mim"
        program.write_text(FIB_SOURCE)
        path = tmp_path / "trace.csv"
        assert main(["run", str(program), "--for", "50ms", "--trace", str(path)]) == 0
        assert path.read_text().startswith("time_us,channel,value,node\n")

    @staticmethod
    def reference_render_csv(trace, include_idle=False):
        """A renderer that does not rely on the order of `events`: every row
        keyed by time, idle before write and its index, then all sorted."""
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["time_us", "channel", "value", "node"])
        rows = [(t, 1, i, ch, pretty_value(v), node) for i, (t, ch, v, node) in enumerate(trace.events)]
        if include_idle:
            idles = [(t, node) for kind, node, t in trace.steps if kind != FIRE]
            rows.extend((t, 0, i, "", "idle", node) for i, (t, node) in enumerate(idles))
        for time_us, _, _, channel, value, node in sorted(rows):
            writer.writerow([time_us, channel, value, node])
        return buffer.getvalue()

    # Each shipped program with the hosts of the README's run commands
    # (printers writing nowhere) and its horizon.
    SHIPPED = {
        "fib": (quiet_fib_hosts, 200 * MS),
        "edge": (
            lambda: HostRegistry()
            .bind("pin", from_file(str(PROGRAMS / "edge_input.txt")))
            .bind("watch", print_host(io.StringIO())),
            600 * MS,
        ),
        "pipeline": (quiet_fib_hosts, 200 * MS),
    }

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5])
    @pytest.mark.parametrize("name", sorted(SHIPPED))
    def test_csv_matches_the_sorting_renderer(self, name, seed):
        hosts, horizon = self.SHIPPED[name]
        cp = check_program(parse_program((PROGRAMS / f"{name}.mim").read_text()))
        schedule = "deterministic" if seed is None else "randomized"
        sim = Simulation(cp, SimConfig(horizon_us=horizon, schedule=schedule, seed=seed), hosts())
        sim.run_until(horizon)
        # The last firings wrote beyond the horizon, which the trace leaves out.
        assert any(t > horizon for t, _, _, _ in sim.state.trace)
        trace = sim.trace()
        assert trace.events and any(kind != FIRE for kind, _, _ in trace.steps)
        for include_idle in (False, True):
            assert trace.render_csv(include_idle) == self.reference_render_csv(trace, include_idle)

    @pytest.mark.parametrize(
        "value, text",
        [
            (VConst(True), "true"),
            (VConst(False), "false"),
            (VConst(1), "1"),
            (VConst(-3), "-3"),
            (VConst(1.0), "1.0"),
            (VConst(1e20), "1.0e+20"),
            (UNIT_VALUE, "()"),
            (VSome(VSome(VConst(3))), "Some (Some 3)"),
            (VTuple((VConst(1), VTuple((VConst(True), UNIT_VALUE)), VSome(VConst(2)))), "(1, (true, ()), Some 2)"),
            (VClosure(PVar("x"), PTuple((PVar("y"), PVar("z"))), ()), "<step x --> (y, z)>"),
            (VExtern("print_int", print), "<extern print_int>"),
        ],
    )
    def test_pretty_value(self, value, text):
        # A host's boxed scalars print as the run's plain ones do.
        # A bool is an int, so the plain-int path must not print `true` as `1`.
        assert pretty_value(value) == text

    @pytest.mark.parametrize(
        "value, text",
        [
            (True, "true"),
            (False, "false"),
            (1, "1"),
            (-3, "-3"),
            (0, "0"),
            (1.0, "1.0"),
            (0.0, "0.0"),
            (1e20, "1.0e+20"),
            (VSome(VSome(3)), "Some (Some 3)"),
            (VTuple((1, VTuple((True, UNIT_VALUE)), VSome(2))), "(1, (true, ()), Some 2)"),
        ],
    )
    def test_pretty_plain_value(self, value, text):
        assert pretty_value(value) == text


# ---------------------------------------------------------------------------
# The host boundary: a host gets and returns boxed scalars, the run holds
# plain ones, and a result is checked against the step's declared type.


def host_result_program(signature: str, channels: dict[str, str]) -> str:
    """Prototype `f () --> signature`, implemented by node `n`, which writes
    the channels (name: element type), each read by a prototype sink."""
    lines = [f"step f () --> {signature}"]
    for name, elem in channels.items():
        lines += [
            f"step drop_{name} (_ : {elem}) --> ()",
            f"channel {name} : {elem}",
            f"node s_{name} implements drop_{name} ({name}) --> () every 10ms",
        ]
    ports = "(" + ", ".join(channels) + ")"
    lines.append(f"node n implements f () --> {ports} every 10ms")
    return "\n".join(lines) + "\n"


def host_result_run(signature: str, channels: dict[str, str], result, cp=None) -> dict:
    """The per-channel histories of 10ms of that program, whose host `f` returns `result`."""
    hosts = HostRegistry().bind_fn("f", lambda _v, _ctx: result)
    for name in channels:
        hosts.bind_fn(f"drop_{name}", silent)
    cp = cp or check_program(parse_program(host_result_program(signature, channels)))
    return run(cp, SimConfig(horizon_us=10 * MS), hosts).per_channel()


class TestHostBoundary:
    # Per shape: the declared result, its channels, a result of that type and
    # the channels' plain histories, a result of another type and how it prints.
    SHAPES = {
        "base": ("(y : int)", {"b": "int"}, VConst(3), {"b": [3]}, VSome(VConst(3)), "Some 3", "int"),
        "option": ("(y : int?)", {"b": "int?"}, VSome(VConst(3)), {"b": [VSome(3)]}, VSome(VConst(True)), "Some true", "int?"),
        "tuple": (
            "(y : int, z : bool)",
            {"b": "int", "c": "bool"},
            VTuple((VConst(1), VConst(True))),
            {"b": [1], "c": [True]},
            VTuple((VConst(1), VConst(2))),
            "(1, 2)",
            "(int, bool)",
        ),
        "unit": ("()", {}, UNIT_VALUE, {}, VConst(0), "0", "unit"),
        "undefined": ("(y : int)", {"b": "int"}, VConst(0), {"b": [0]}, VUndef(), "⊥", "int"),
        "non-option": ("(y : int?)", {"b": "int?"}, VSome(VConst(4)), {"b": [VSome(4)]}, VConst(1), "1", "int?"),
        "shape": (
            "(y : int, z : int)",
            {"b": "int", "c": "int"},
            VTuple((VConst(1), VConst(2))),
            {"b": [1], "c": [2]},
            VConst(1),
            "1",
            "(int, int)",
        ),
    }

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_result_of_the_declared_type_enters_the_run_plain(self, shape):
        signature, channels, good, histories, _, _, _ = self.SHAPES[shape]
        per = host_result_run(signature, channels, good)
        assert {name: [v for _, v in per[name]] for name in channels} == histories
        for name in channels:
            (value,) = [v for _, v in per[name]]
            plain = value.value if type(value) is VSome else value
            assert type(plain) in (int, bool), plain

    @pytest.mark.parametrize("shape", SHAPES)
    def test_a_result_of_another_type_fails_its_node(self, shape):
        signature, channels, _, _, bad, shown, declared = self.SHAPES[shape]
        cp = check_program(parse_program(host_result_program(signature, channels)))
        with pytest.raises(SimError) as info:
            host_result_run(signature, channels, bad, cp)
        (diag,) = info.value.diagnostics
        assert diag.message == (
            f"node 'n' failed at 0s: host step 'f' returned {shown}, not a value of its declared type {declared}"
        )
        assert diag.span == cp.program.node("n").span != SYNTHETIC

    def test_a_host_result_of_the_wrong_shape_is_no_longer_written(self):
        # A host for `f (x : int) --> (y : int)` that returns `Some 3` used
        # to write it into an `int` channel, and the run succeeded.
        source = (
            "step count () --> (n : int) { n = 0 -> pre (n + 1) }\n"
            "step f (x : int) --> (y : int)\n"
            "step print_int (_ : int) --> ()\n"
            "channel a : int\n"
            "channel b : int\n"
            "node src implements count () --> (a) every 10ms\n"
            "node n implements f (a) --> (b) every 10ms\n"
            "node print implements print_int (b) --> () every 10ms\n"
        )
        hosts = HostRegistry().bind_fn("f", lambda v, c: VSome(VConst(3))).bind_fn("print_int", silent)
        cp = check_program(parse_program(source, file="repro.mim"), file="repro.mim")
        with pytest.raises(SimError) as info:
            run(cp, SimConfig(horizon_us=50 * MS), hosts)
        assert render_diagnostics(info.value.diagnostics) == (
            "repro.mim:7:1: error: node 'n' failed at 10ms: "
            "host step 'f' returned Some 3, not a value of its declared type int"
        )

    @pytest.mark.parametrize(
        "value, shown",
        [(VUndef(), "⊥"), (VTuple((VConst(1), VUndef())), "(1, ⊥)"), (VExtern("g", silent), "<extern g>")],
    )
    def test_check_host_value_names_a_value_of_no_type(self, value, shown):
        with pytest.raises(TypeCheckError) as info:
            check_host_value(StepDecl("f", PUnit(), PVar("y", INT), None), value)
        assert info.value.diagnostics[0].message == f"step 'f' returns int, but its host value {shown} has no type"

    def test_a_plain_python_result_is_not_a_host_value(self):
        with pytest.raises(SimError, match=r"host step 'f' returned Python int 3, not a value of its declared type int$"):
            host_result_run("(y : int)", {"b": "int"}, 3)
        with pytest.raises(SimError, match=r"host step 'f' returned Python str 'x', not a value of its declared type int$"):
            host_result_run("(y : int)", {"b": "int"}, "x")

    def test_a_host_gets_its_argument_boxed(self):
        got = []

        def sink(value, _ctx):
            got.append(value)
            return UNIT_VALUE

        source = (
            "step src () --> (p : (int, real?, bool))\n"
            "step sink (_ : (int, real?, bool)) --> ()\n"
            "channel a : (int, real?, bool)\n"
            "node src implements src () --> (a) every 10ms\n"
            "node sink implements sink (a) --> () every 10ms\n"
        )
        result = VTuple((VConst(1), VSome(VConst(2.5)), VConst(False)))
        hosts = HostRegistry().bind_fn("src", lambda _v, _c: result).bind_fn("sink", sink)
        trace = run(check_program(parse_program(source)), SimConfig(horizon_us=10 * MS), hosts)
        assert trace.values("a") == [VTuple((1, VSome(2.5), False))]
        assert got == [result] and type(got[0].items[2].value) is bool


def host_value_of(t):
    """A strategy for host values of type t."""
    if type(t) is TOption:
        return st.one_of(st.just(VNone()), host_value_of(t.elem).map(VSome))
    if type(t) is TTuple:
        return st.tuples(*map(host_value_of, t.items)).map(VTuple)
    return {
        INT: st.integers(-3, 3).map(VConst),
        BOOL: st.booleans().map(VConst),
        REAL: st.sampled_from([0.0, -1.5]).map(VConst),
        UNIT: st.just(UNIT_VALUE),
    }[t]


DECLARED_TYPES = st.recursive(
    st.sampled_from([INT, BOOL, REAL, UNIT]),
    lambda inner: st.one_of(inner.map(TOption), st.lists(inner, min_size=2, max_size=3).map(lambda ts: TTuple(tuple(ts)))),
    max_leaves=5,
)
HOST_VALUES = st.recursive(
    st.one_of(st.sampled_from([INT, BOOL, REAL, UNIT]).flatmap(host_value_of), st.just(VNone())),
    lambda inner: st.one_of(inner.map(VSome), st.lists(inner, min_size=2, max_size=3).map(lambda vs: VTuple(tuple(vs)))),
    max_leaves=5,
)


def unifies(declared, value) -> bool:
    """The check the boundary replaces: type the value, then unify."""
    inf = _Infer()
    try:
        inf.u.unify(declared, inf.literal_type(value), SYNTHETIC)
    except TypeCheckError:
        return False
    return True


def holds_a_box(value) -> bool:
    if type(value) is VConst:
        return value is not UNIT_VALUE
    if type(value) is VSome:
        return holds_a_box(value.value)
    return type(value) is VTuple and any(map(holds_a_box, value.items))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_boundary_predicate_agrees_with_check_host_value(data):
    declared = data.draw(DECLARED_TYPES)
    value = data.draw(st.one_of(host_value_of(declared), HOST_VALUES))
    try:
        check_host_value(StepDecl("f", PUnit(), PVar("y", declared), None), value)
        accepted = True
    except TypeCheckError:
        accepted = False
    assert accepted == unifies(declared, value)
    plain = host_unboxer(declared)(value)
    assert (plain is not None) == accepted
    if accepted:
        # The run's form holds no box, and boxing it gives the host's value back.
        box = host_boxer(declared)
        assert not holds_a_box(plain)
        assert (plain if box is None else box(plain)) == value


# Plain scalars are falsy where a box was not: `0`, `0.0`, `false`, and an
# option holding one, must still flow through `if` and `either` as values.
FALSY = """
step src () --> (i : int, b : bool, oi : int?, ob : bool?, r : real)
{
    i = 0 -> pre (1 - i);
    b = i == 1;
    oi = if b then None else Some 0;
    ob = if b then None else Some false;
    r = if b then 2.5 else 0.0;
}
step use (i, b, oi, ob, r) --> (j, c, k, d, s)
{
    j = if b then 5 else i;
    c = if b then b else false;
    k = either oi otherwise 7;
    d = either ob otherwise true;
    s = if b then 1.5 else r;
}
step drop x --> () { () = () }
""" + "\n".join(
    [f"channel {name} : {elem}" for name, elem in zip("ibxyrjckds", "int bool int? bool? real int bool int bool real".split())]
    + ["node src implements src () --> (i, b, x, y, r) every 10ms"]
    + ["node use implements use (i, b, x, y, r) --> (j, c, k, d, s) every 10ms"]
    + [f"node drop_{name} implements drop ({name}) --> () every 10ms" for name in "jckds"]
)


@pytest.mark.parametrize("schedule", ["deterministic", "randomized"])
def test_falsy_plain_values_flow_through_if_and_either(schedule):
    cp = check_program(parse_program(FALSY))
    trace = run(cp, SimConfig(horizon_us=40 * MS, seed=5 if schedule == "randomized" else None, schedule=schedule))
    got = {name: [(t // MS, pretty_value(v)) for t, v in history] for name, history in trace.per_channel().items()}
    assert got["x"] == [(10, "Some 0"), (20, "None"), (30, "Some 0"), (40, "None")]
    assert got["y"] == [(10, "Some false"), (20, "None"), (30, "Some false"), (40, "None")]
    assert {name: [v for _, v in got[name]] for name in "jckds"} == {
        "j": ["0", "5", "0"],
        "c": ["false", "true", "false"],
        "k": ["0", "7", "0"],
        "d": ["false", "true", "false"],
        "s": ["0.0", "1.5", "0.0"],
    }
    assert [type(v) for _, v in trace.per_channel()["s"]] == [float] * 3


class TestBoxesPerRun:
    """The run holds plain scalars: the library builds a `VConst` only to hand
    a host an argument that holds a scalar. Counted with a profile hook on
    every `VConst.__init__` called from the library's own code."""

    LIBRARY = str(Path(mimosa.__file__).resolve().parent)

    def boxes(self, sim: Simulation, horizon_us: int) -> int:
        count = 0
        init = VConst.__init__.__code__

        def profile(frame, event, _arg):
            nonlocal count
            if event == "call" and frame.f_code is init and frame.f_back.f_code.co_filename.startswith(self.LIBRARY):
                count += 1

        sys.setprofile(profile)
        try:
            sim.run_until(horizon_us)
        finally:
            sys.setprofile(None)
        return count

    @staticmethod
    def recording(calls: list[bool]):
        """Wraps a host to note, per call, whether its argument holds a scalar."""

        def wrap(fn):
            def wrapped(value, ctx):
                calls.append(holds_a_box(value))
                return fn(value, ctx)

            return wrapped

        return wrap

    def test_a_deep_workload_boxes_only_the_sinks_arguments(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PROGRAMS.parent / "perfbench"))
        import workloads

        wl = workloads.make("deep", 7, "tiny")
        calls: list[bool] = []
        registry, _ = wl.hosts(self.recording(calls))
        sim = Simulation(check_program(parse_program(wl.source)), SimConfig(horizon_us=wl.horizon_us), registry)
        # The source's unit arguments cross with no box; each sink argument takes one.
        assert self.boxes(sim, wl.horizon_us) == sum(calls) > 0
        assert len(calls) > sum(calls)

    def test_fib_boxes_each_printed_number(self):
        calls: list[bool] = []
        hosts = HostRegistry().bind_fn("print_int", self.recording(calls)(silent))
        sim = Simulation(check_program(parse_program((PROGRAMS / "fib.mim").read_text())), SimConfig(200 * MS), hosts)
        assert self.boxes(sim, 200 * MS) == len(calls) == sum(calls) == 10

    def test_a_run_without_hosts_boxes_nothing(self):
        sim = Simulation(check_program(parse_program(FALSY)), SimConfig(horizon_us=40 * MS))
        assert self.boxes(sim, 40 * MS) == 0
        assert sim.trace().values("k") == [0, 7, 0]
