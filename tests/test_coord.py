from collections import deque

import pytest

from mimosa import check_program, parse_program
from mimosa.ast import UNIT_VALUE, VConst, VExtern
from mimosa.coord import (
    ABSENT,
    AVAILABLE,
    BLOCKED,
    Channel,
    FIRE,
    IDLE,
    UNDECIDED,
    fire_node,
    idle_node,
    init_network,
    node_enabled,
    port_status,
)
from mimosa.errors import InternalError, SimError

MS = 1_000


def channel(queue=(), validity=0) -> Channel:
    return Channel("x", writer="w", reader="r", queue=deque(queue), validity=validity)


class TestPortStatus:
    def test_available_when_oldest_tag_reached(self):
        assert port_status(channel([(VConst(5), 0)], validity=10 * MS), 10 * MS) == AVAILABLE

    def test_decidably_absent_when_empty_but_valid_beyond_now(self):
        assert port_status(channel([], validity=30 * MS), 20 * MS) == ABSENT

    def test_undecided_when_a_write_may_still_arrive(self):
        assert port_status(channel([], validity=10 * MS), 20 * MS) == UNDECIDED

    def test_decidably_absent_when_oldest_is_in_the_future(self):
        st = port_status(channel([(VConst(5), 30 * MS)], validity=40 * MS), 20 * MS)
        assert st == ABSENT


class TestInitNetwork:
    def test_fibonacci_initial_configuration(self, fib_checked):
        ns = init_network(fib_checked)
        assert [n.activation for n in ns.nodes.values()] == [0, 0, 0]
        a, b, c, d = (ns.channels[x] for x in "abcd")
        assert list(a.queue) == [(VConst(1), 0)] and a.validity == 10 * MS
        assert list(b.queue) == [(VConst(0), 0)] and b.validity == 10 * MS
        assert list(c.queue) == [] and c.validity == 10 * MS
        assert list(d.queue) == [] and d.validity == 10 * MS
        assert a.writer == "split" and a.reader == "add"

    def test_validity_is_writer_period(self):
        src = """
step produce () --> (n : int)
step consume (_ : int) --> ()
channel x : int
node p implements produce () --> (x) every 5ms
node c implements consume (x) --> () every 1ms
"""
        cp = check_program(parse_program(src))
        ns = init_network(
            cp,
            {
                "produce": VExtern("produce", lambda v, ctx: VConst(0)),
                "consume": VExtern("consume", lambda v, ctx: UNIT_VALUE),
            },
        )
        assert ns.channels["x"].validity == 5 * MS

    def test_initial_list_order_is_oldest_first(self):
        src = """
step f (v : int) --> (w : int) { w = v }
channel x : int = { 1, 2 }
channel y : int
node n implements f (x) --> (y) every 10ms
node m implements g (y) --> (x) every 10ms
step g (v : int) --> (w : int) { w = v }
"""
        cp = check_program(parse_program(src))
        ns = init_network(cp)
        assert list(ns.channels["x"].queue) == [(VConst(1), 0), (VConst(2), 0)]

    def test_unbound_prototype_fails_when_fired(self, edge_network_checked):
        ns = init_network(edge_network_checked)  # no hosts bound
        with pytest.raises(SimError, match="no host binding"):
            fire_node(ns, "pin")


def two_node_state(fib_checked):
    return init_network(fib_checked)


class TestEnabling:
    def test_fib_initial_decisions(self, fib_checked):
        ns = init_network(fib_checked)
        assert node_enabled(ns, "add") == IDLE  # c is empty but valid until 10ms
        assert node_enabled(ns, "split") == FIRE  # b holds 0@0
        assert node_enabled(ns, "print") == IDLE

    def test_blocked_when_undecided(self, fib_checked):
        ns = init_network(fib_checked)
        ns.channels["c"].validity = 0  # producer no longer ahead: c undecidable
        assert node_enabled(ns, "add") == BLOCKED

    def test_optional_input_fires_with_none(self):
        src = """
step f (x : int?) --> (y : int) { y = either x otherwise 0 }
step produce () --> (n : int)
step consume (_ : int) --> ()
channel a : int
channel b : int
node p implements produce () --> (a) every 30ms
node n implements f (a?) --> (b) every 10ms
node c implements consume (b) --> () every 10ms
"""
        cp = check_program(parse_program(src))
        hosts = {
            "produce": VExtern("produce", lambda v, ctx: VConst(7)),
            "consume": VExtern("consume", lambda v, ctx: UNIT_VALUE),
        }
        ns = init_network(cp, hosts)
        # a is empty with validity 30ms > 0: decidably absent, fire with None.
        assert node_enabled(ns, "n") == FIRE
        fire_node(ns, "n")
        assert list(ns.channels["b"].queue) == [(VConst(0), 10 * MS)]

    def test_zero_input_nodes_always_fire(self, edge_network_checked):
        hosts = {
            "pin": VExtern("pin", lambda v, ctx: VConst(False)),
            "watch": VExtern("watch", lambda v, ctx: UNIT_VALUE),
        }
        ns = init_network(edge_network_checked, hosts)
        assert node_enabled(ns, "pin") == FIRE


class TestFireAndIdle:
    def test_fire_consumes_writes_and_advances(self, fib_checked):
        ns = init_network(fib_checked)
        fire_node(ns, "split")  # consumes b:0@0, writes a, d, c at 10ms
        assert list(ns.channels["b"].queue) == []
        assert list(ns.channels["d"].queue) == [(VConst(0), 10 * MS)]
        assert ns.channels["a"].queue[-1] == (VConst(0), 10 * MS)
        assert ns.channels["a"].validity == 20 * MS
        assert ns.nodes["split"].activation == 10 * MS
        assert [(e.channel, e.time_us) for e in ns.trace] == [
            ("a", 10 * MS),
            ("d", 10 * MS),
            ("c", 10 * MS),
        ]

    def test_idle_advances_time_and_validity_only(self, fib_checked):
        ns = init_network(fib_checked)
        before = list(ns.channels["a"].queue)
        idle_node(ns, "add")
        assert ns.nodes["add"].activation == 10 * MS
        assert ns.channels["b"].validity == 20 * MS
        assert list(ns.channels["a"].queue) == before  # idling touches no queues
        assert ns.trace == []

    def test_add_idles_at_start(self, fib_checked):
        # add at t=0 with c empty (validity 10ms > 0): t <- 10ms, b.validity <- 20ms.
        ns = init_network(fib_checked)
        assert node_enabled(ns, "add") == IDLE
        idle_node(ns, "add")
        assert ns.nodes["add"].activation == 10 * MS
        assert ns.channels["b"].validity == 20 * MS

    def test_optional_output_none_writes_nothing_but_advances_validity(
        self, edge_network_checked
    ):
        hosts = {
            "pin": VExtern("pin", lambda v, ctx: VConst(False)),
            "watch": VExtern("watch", lambda v, ctx: UNIT_VALUE),
        }
        ns = init_network(edge_network_checked, hosts)
        fire_node(ns, "pin")  # a gets false@100ms
        ns.nodes["edge"].activation = 100 * MS
        fire_node(ns, "edge")  # steady low level: None, nothing written
        assert list(ns.channels["b"].queue) == []
        assert ns.channels["b"].validity == 300 * MS
        assert ns.nodes["edge"].activation == 200 * MS

    def test_fire_records_step_and_idle_records_step(self, fib_checked):
        ns = init_network(fib_checked)
        fire_node(ns, "split")
        idle_node(ns, "add")
        assert [(s.kind, s.node) for s in ns.steps] == [("fire", "split"), ("idle", "add")]

    def test_evaluator_failure_reports_node_and_time(self):
        src = """
step f (v : int) --> (w : int) { w = v / 0 }
channel x : int = { 1 }
channel y : int
node n implements f (x) --> (y) every 10ms
node m implements g (y) --> (x) every 10ms
step g (v : int) --> (w : int) { w = v }
"""
        cp = check_program(parse_program(src))
        ns = init_network(cp)
        with pytest.raises(SimError, match=r"node 'n' failed at 0s: division by zero"):
            fire_node(ns, "n")


class TestInvariants:
    def test_rules_preserve_channel_invariants(self, fib_checked):
        ns = init_network(fib_checked, {"print_int": VExtern("print_int", lambda v, ctx: UNIT_VALUE)})
        order = ["split", "add", "print", "add", "split", "print"]
        for name in order:
            decision = node_enabled(ns, name)
            if decision == FIRE:
                fire_node(ns, name)
            elif decision == IDLE:
                idle_node(ns, name)
            ns.check_invariants()  # raises on violation

    def test_write_below_validity_is_rejected(self, fib_checked):
        ns = init_network(fib_checked)
        ns.channels["a"].validity = 50 * MS
        ns.nodes["split"].activation = 20 * MS
        with pytest.raises(InternalError, match="below the channel validity"):
            fire_node(ns, "split")

    def test_unsorted_queue_is_detected(self, fib_checked):
        ns = init_network(fib_checked)
        ns.channels["a"].queue.appendleft((VConst(9), 5 * MS))
        with pytest.raises(InternalError, match="not tag-sorted"):
            ns.check_invariants()
