import random
from collections import deque
from pathlib import Path

import pytest

from conftest import quiet_fib_hosts, silent
from mimosa import HostRegistry, SimConfig, Simulation, check_program, parse_program
from mimosa import coord
from mimosa.ast import UNIT_VALUE, VConst, VExtern, VNone, VSome, VTuple
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
from mimosa.errors import SYNTHETIC, InternalError, SimError
from mimosa.sim import from_file

MS = 1_000
PROGRAMS = Path(__file__).resolve().parent.parent / "programs"


def channel(queue=(), validity=0) -> Channel:
    return Channel("x", writer="w", reader="r", queue=deque(queue), validity=validity)


class TestPortStatus:
    def test_available_when_oldest_tag_reached(self):
        assert port_status(channel([(5, 0)], validity=10 * MS), 10 * MS) == AVAILABLE

    def test_decidably_absent_when_empty_but_valid_beyond_now(self):
        assert port_status(channel([], validity=30 * MS), 20 * MS) == ABSENT

    def test_undecided_when_a_write_may_still_arrive(self):
        assert port_status(channel([], validity=10 * MS), 20 * MS) == UNDECIDED

    def test_decidably_absent_when_oldest_is_in_the_future(self):
        st = port_status(channel([(5, 30 * MS)], validity=40 * MS), 20 * MS)
        assert st == ABSENT


class TestInitNetwork:
    def test_fibonacci_initial_configuration(self, fib_checked):
        ns = init_network(fib_checked)
        assert [n.activation for n in ns.nodes.values()] == [0, 0, 0]
        a, b, c, d = (ns.channels[x] for x in "abcd")
        assert list(a.queue) == [(1, 0)] and a.validity == 10 * MS
        assert list(b.queue) == [(0, 0)] and b.validity == 10 * MS
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
                "produce": VExtern("produce", lambda v, ctx: 0),
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
        assert list(ns.channels["x"].queue) == [(1, 0), (2, 0)]

    @pytest.mark.parametrize("path", sorted(PROGRAMS.glob("*.mim")), ids=lambda p: p.name)
    def test_the_globals_are_only_the_programs_steps(self, path):
        # An operator holds its builtin, so no builtin is a name of the run.
        program = parse_program(path.read_text())
        ns = init_network(check_program(program))
        assert set(ns.env) == {step.name for step in program.steps}

    def test_unbound_prototype_fails_when_fired(self, edge_network_checked):
        ns = init_network(edge_network_checked)  # no hosts bound
        with pytest.raises(SimError, match="no host binding"):
            fire_node(ns, "pin")

    def test_an_unwired_channel_is_located_at_its_declaration(self):
        src = (
            "step f (v : int) --> (w : int) { w = v }\n"
            "channel a : int\n"
            "channel b : int\n"
            "node n implements f (a) --> (b) every 10ms\n"
        )
        cp = check_program(parse_program(src, file="u.mim"), complete_network=False)
        with pytest.raises(SimError) as info:
            init_network(cp)
        assert [d.text() for d in info.value.diagnostics] == [
            "u.mim:2:1: error: channel 'a' is not fully wired; simulation needs a complete network"
        ]


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
            "produce": VExtern("produce", lambda v, ctx: 7),
            "consume": VExtern("consume", lambda v, ctx: UNIT_VALUE),
        }
        ns = init_network(cp, hosts)
        # a is empty with validity 30ms > 0: decidably absent, fire with None.
        assert node_enabled(ns, "n") == FIRE
        fire_node(ns, "n")
        assert list(ns.channels["b"].queue) == [(0, 10 * MS)]

    def test_zero_input_nodes_always_fire(self, edge_network_checked):
        hosts = {
            "pin": VExtern("pin", lambda v, ctx: False),
            "watch": VExtern("watch", lambda v, ctx: UNIT_VALUE),
        }
        ns = init_network(edge_network_checked, hosts)
        assert node_enabled(ns, "pin") == FIRE


class TestFireAndIdle:
    def test_fire_consumes_writes_and_advances(self, fib_checked):
        ns = init_network(fib_checked)
        fire_node(ns, "split")  # consumes b:0@0, writes a, d, c at 10ms
        assert list(ns.channels["b"].queue) == []
        assert list(ns.channels["d"].queue) == [(0, 10 * MS)]
        assert ns.channels["a"].queue[-1] == (0, 10 * MS)
        assert ns.channels["a"].validity == 20 * MS
        assert ns.nodes["split"].activation == 10 * MS
        assert [(channel, t) for t, channel, _, _ in ns.trace] == [
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
            "pin": VExtern("pin", lambda v, ctx: False),
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
        assert ns.steps == [("fire", "split", 0), ("idle", "add", 0)]

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

    # Output signature of `h`, the ports of node `n`, what its host returns, the message.
    # fire_node trusts its step's result: the host boundary checks a host's
    # result before the node writes it (tests/test_sim.py, TestHostBoundary).
    OUTPUT_FAULTS = {
        "no outputs": ("()", "()", VConst(1), "host step 'h' returned 1, not a value of its declared type unit"),
    }

    @pytest.mark.parametrize("fault", OUTPUT_FAULTS)
    def test_output_errors_are_located_at_the_node(self, fault):
        signature, ports, result, message = self.OUTPUT_FAULTS[fault]
        src = f"step h () --> {signature}\nnode n implements h () --> {ports} every 10ms\n"
        cp = check_program(parse_program(src))
        sim = Simulation(cp, SimConfig(horizon_us=10 * MS), HostRegistry().bind_fn("h", lambda _v, _ctx: result))
        with pytest.raises(SimError) as info:
            sim.run_until(10 * MS)
        (diag,) = info.value.diagnostics
        assert diag.message == f"node 'n' failed at 0s: {message}"
        assert diag.span == cp.program.node("n").span != SYNTHETIC


def reference_decision(ns, name):
    """The enabling rule from `port_status`, one port at a time."""
    node = ns.nodes[name]
    statuses = [(port_status(ns.channels[p.channel], node.activation), p.optional) for p in node.inputs]
    if any(status == UNDECIDED for status, _ in statuses):
        return BLOCKED
    if any(status == ABSENT and not optional for status, optional in statuses):
        return IDLE
    return FIRE


def reference_firing(ns, name):
    """The argument a firing of `name` passes to its step, and the queues it
    leaves, from `port_status`."""
    node = ns.nodes[name]
    args, queues = [], []
    for port in node.inputs:
        queue = list(ns.channels[port.channel].queue)
        if port_status(ns.channels[port.channel], node.activation) == AVAILABLE:
            value, queue = queue[0][0], queue[1:]
            args.append(VSome(value) if port.optional else value)
        else:
            args.append(VNone())
        queues.append(queue)
    argument = UNIT_VALUE if not args else args[0] if len(args) == 1 else VTuple(tuple(args))
    return argument, queues


class TestResolvedPorts:
    """`node_enabled` and `fire_node` decide ports inline, through the ports
    `init_network` resolved; `port_status` is their reference."""

    T = 20 * MS

    def random_network(self, rng):
        """A reader `n` at activation T with up to three ports, mandatory or
        optional, each fed by its own writer every 5ms. Each channel's validity
        is below, at or above T, and its queue holds tags below, at or above
        T up to that validity, so every channel invariant holds."""
        optional = [rng.random() < 0.5 for _ in range(rng.randrange(4))]
        params = ", ".join(f"p{i} : int{'?' if opt else ''}" for i, opt in enumerate(optional))
        ports = ", ".join(f"c{i}{'?' if opt else ''}" for i, opt in enumerate(optional))
        src = "\n".join(
            ["step w () --> (v : int)", f"step h ({params}) --> ()"]
            + [f"channel c{i} : int" for i in range(len(optional))]
            + [f"node w{i} implements w () --> (c{i}) every 5ms" for i in range(len(optional))]
            + [f"node n implements h ({ports}) --> () every 10ms"]
        )
        seen = []
        hosts = {
            "w": VExtern("w", lambda _v, _ctx: 0),
            "h": VExtern("h", lambda v, _ctx: seen.append(v) or UNIT_VALUE),
        }
        ns = init_network(check_program(parse_program(src)), hosts)
        ns.nodes["n"].activation = self.T
        for i in range(len(optional)):
            ch = ns.channels[f"c{i}"]
            ch.validity = self.T + rng.choice((-5, 0, 5)) * MS
            ns.nodes[f"w{i}"].activation = ch.validity - 5 * MS
            tags = sorted(self.T + rng.choice((-5, 0, 5)) * MS for _ in range(rng.randrange(3)))
            ch.queue = deque((k, tag) for k, tag in enumerate(tags) if tag <= ch.validity)
        return ns, seen

    @pytest.mark.parametrize("seed", range(300))
    def test_decisions_and_firings_match_port_status(self, seed):
        ns, seen = self.random_network(random.Random(seed))
        decision = reference_decision(ns, "n")
        assert node_enabled(ns, "n") == decision
        if decision != FIRE:
            with pytest.raises(InternalError, match=r"fire_node\('n'\) called while not enabled"):
                fire_node(ns, "n")
            return
        argument, queues = reference_firing(ns, "n")
        fire_node(ns, "n")
        assert seen == [argument]
        assert [list(ch.queue) for ch, _ in ns.nodes["n"].in_ports] == queues

    def test_the_random_states_cover_every_case(self):
        cases = set()
        for seed in range(300):
            ns, _ = self.random_network(random.Random(seed))
            node = ns.nodes["n"]
            cases.add(reference_decision(ns, "n"))
            for port in node.inputs:
                cases.add((port.optional, port_status(ns.channels[port.channel], self.T)))
        assert cases == {FIRE, IDLE, BLOCKED} | {
            (optional, status) for optional in (False, True) for status in (AVAILABLE, ABSENT, UNDECIDED)
        }

    def test_ports_and_writers_are_resolved_once(self, fib_checked):
        ns = init_network(fib_checked)
        for node in ns.nodes.values():
            assert [(ch.name, optional) for ch, optional in node.in_ports] == [
                (p.channel, p.optional) for p in node.inputs
            ]
            assert [ch for ch, _ in node.out_ports] == [ns.channels[p.channel] for p in node.outputs]
        for ch in ns.channels.values():
            # A channel names its writer, and the run state holds no cycle.
            assert ch in [c for c, _ in ns.nodes[ch.writer].out_ports]
            assert not hasattr(ch, "writer_node")
            assert ch.last_validity == ch.validity

    def test_channel_built_with_a_writer_name_only(self):
        ch = channel([(1, 0)], validity=10 * MS)
        assert (ch.writer, ch.last_validity) == ("w", 0)
        assert not hasattr(ch, "writer_node") and "writer_node" not in repr(ch)


def reference_fire_node(ns, name):
    """The firing rule as one general loop over the ports, whatever their
    number: collect the arguments, build the argument from their count, and
    split the value into one component per output port."""
    node = ns.nodes[name]
    t = node.activation
    args = []
    for ch, optional in node.in_ports:
        queue = ch.queue
        if queue and queue[0][1] <= t:
            value = queue.popleft()[0]
            args.append(VSome(value) if optional else value)
        elif optional and (queue or ch.validity > t):
            args.append(VNone())
        else:
            raise InternalError(f"fire_node('{name}') called while not enabled")
    argument = UNIT_VALUE if not args else args[0] if len(args) == 1 else VTuple(tuple(args))
    node.ctx.host.time_us = t
    result = coord.eval_expr(ns.env, node.expr, node.ctx, applied_to=argument)
    node.expr = result.next
    outs = node.out_ports
    components = (result.value,) if len(outs) == 1 else result.value.items if outs else ()
    for (ch, optional), component in zip(outs, components):
        if not optional:
            coord._write(ns, ch, component, t + node.period_us, name)
        elif type(component) is VSome:
            coord._write(ns, ch, component.value, t + node.period_us, name)
    coord._advance(ns, node, FIRE)


class TestPortShapes:
    """`fire_node` takes a path by the node's number of ports; each path
    matches the general loop, `reference_fire_node`."""

    # Input ports of node `n`: (optional, holds a value at 0ms). An empty one is
    # decided absent at 0ms, since its writer's first write is tagged 10ms.
    INPUTS = {
        "none": (),
        "mandatory": ((False, True),),
        "optional present": ((True, True),),
        "optional absent": ((True, False),),
        "two mixed": ((False, True), (True, False)),
    }
    # Output ports of node `n` (optional or not), and the value its step returns.
    OUTPUTS = {
        "none": ((), UNIT_VALUE),
        "mandatory": ((False,), 5),
        "optional Some": ((True,), VSome(5)),
        "optional None": ((True,), VNone()),
        "two with an optional None": ((False, True), VTuple((5, VNone()))),
    }
    # Inputs with a mandatory port absent at 0ms, so `n` idles; each arity.
    NOT_ENABLED = {
        "one": ((False, False),),
        "two": ((True, True), (False, False)),
    }

    def network(self, inputs, outputs, result):
        """Node `n` at 0ms with the given ports, each input fed by its own
        writer and each output drained by its own reader, and the arguments
        its step received."""
        params = ", ".join(f"p{i} : int{'?' * o}" for i, (o, _) in enumerate(inputs))
        results = ", ".join(f"q{i} : int{'?' * o}" for i, o in enumerate(outputs))
        src = ["step w () --> (v : int)", "step r (_ : int) --> ()", f"step h ({params}) --> ({results})"]
        for i, (_, present) in enumerate(inputs):
            initial = " = { 7 }" if present else ""
            src += [f"channel c{i} : int{initial}", f"node w{i} implements w () --> (c{i}) every 10ms"]
        for i in range(len(outputs)):
            src += [f"channel o{i} : int", f"node r{i} implements r (o{i}) --> () every 10ms"]
        ins = ", ".join(f"c{i}{'?' * o}" for i, (o, _) in enumerate(inputs))
        outs = ", ".join(f"o{i}{'?' * o}" for i, o in enumerate(outputs))
        src.append(f"node n implements h ({ins}) --> ({outs}) every 10ms")
        seen = []
        hosts = {"h": VExtern("h", lambda v, _ctx: seen.append(v) or result)}
        return init_network(check_program(parse_program("\n".join(src))), hosts), seen

    @staticmethod
    def outcome(ns, seen):
        queues = {name: list(ch.queue) for name, ch in ns.channels.items()}
        validities = {name: ch.validity for name, ch in ns.channels.items()}
        return seen, queues, validities, ns.trace, ns.steps, ns.nodes["n"].activation

    @pytest.mark.parametrize("outputs", OUTPUTS)
    @pytest.mark.parametrize("inputs", INPUTS)
    def test_each_shape_fires_as_the_general_loop_does(self, inputs, outputs):
        ports, result = self.OUTPUTS[outputs]
        fired, seen = self.network(self.INPUTS[inputs], ports, result)
        reference, reference_seen = self.network(self.INPUTS[inputs], ports, result)
        assert node_enabled(fired, "n") == FIRE
        fire_node(fired, "n")
        reference_fire_node(reference, "n")
        assert self.outcome(fired, seen) == self.outcome(reference, reference_seen)
        assert len(seen) == 1 and fired.steps == [(FIRE, "n", 0)]

    def test_the_shapes_pass_and_write_what_their_ports_declare(self):
        arguments = {}
        for inputs, ports in self.INPUTS.items():
            ns, seen = self.network(ports, (), UNIT_VALUE)
            fire_node(ns, "n")
            arguments[inputs] = seen[0]
        assert arguments == {
            "none": UNIT_VALUE,
            "mandatory": 7,
            "optional present": VSome(7),
            "optional absent": VNone(),
            "two mixed": VTuple((7, VNone())),
        }
        writes = {}
        for outputs, (ports, result) in self.OUTPUTS.items():
            ns, _ = self.network((), ports, result)
            fire_node(ns, "n")
            writes[outputs] = [(ch, value) for _, ch, value, _ in ns.trace]
        assert writes == {
            "none": [],
            "mandatory": [("o0", 5)],
            "optional Some": [("o0", 5)],
            "optional None": [],
            "two with an optional None": [("o0", 5)],
        }

    @pytest.mark.parametrize("arity", NOT_ENABLED)
    def test_a_node_not_enabled_fails_at_each_arity(self, arity):
        fired, seen = self.network(self.NOT_ENABLED[arity], (), UNIT_VALUE)
        reference, reference_seen = self.network(self.NOT_ENABLED[arity], (), UNIT_VALUE)
        assert node_enabled(fired, "n") == IDLE
        for ns, fire in ((fired, fire_node), (reference, reference_fire_node)):
            with pytest.raises(InternalError, match=r"^fire_node\('n'\) called while not enabled$"):
                fire(ns, "n")
        # The ports before the failing one were read, as in the general loop.
        assert self.outcome(fired, seen) == self.outcome(reference, reference_seen)
        assert seen == [] and fired.steps == []


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

    def test_every_rule_checks_its_nodes_channels(self, fib_checked, monkeypatch):
        # The full check of the initial configuration, then one check per rule of the acting node.
        checked = []
        original = coord.NetworkState.check_invariants

        def recording(ns, node=None):
            checked.append(node)
            original(ns, node)

        monkeypatch.setattr(coord.NetworkState, "check_invariants", recording)
        sim = Simulation(fib_checked, SimConfig(horizon_us=100 * MS), quiet_fib_hosts())
        sim.run_until(100 * MS)
        assert checked == [None] + [node for _, node, _ in sim.state.steps]

    # The shipped programs with their README hosts, printers writing nowhere:
    # edge has an optional output, fib a 2-input `add` and a 3-output `split`.
    SHIPPED = {
        "edge": (
            lambda: HostRegistry().bind("pin", from_file(str(PROGRAMS / "edge_input.txt"))).bind_fn("watch", silent),
            600 * MS,
        ),
        "fib": (quiet_fib_hosts, 200 * MS),
    }

    @pytest.mark.parametrize("seed", [None, 3])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_every_firing_evaluates_once(self, name, seed, monkeypatch):
        # The per-firing contract perfbench's tracer relies on: one
        # `coord.eval_expr` call per firing, by the firing node at its time.
        calls = []
        original = coord.eval_expr

        def counting(env, e, ctx, **kwargs):
            calls.append((FIRE, ctx.host.node, ctx.host.time_us))
            return original(env, e, ctx, **kwargs)

        monkeypatch.setattr(coord, "eval_expr", counting)
        hosts, horizon = self.SHIPPED[name]
        cp = check_program(parse_program((PROGRAMS / f"{name}.mim").read_text()))
        schedule = "deterministic" if seed is None else "randomized"
        sim = Simulation(cp, SimConfig(horizon_us=horizon, schedule=schedule, seed=seed), hosts())
        sim.run_until(horizon)
        fires = [step for step in sim.state.steps if step[0] == FIRE]
        assert calls == fires and len(fires) > 10

    def test_write_below_validity_is_rejected(self, fib_checked):
        ns = init_network(fib_checked)
        ns.channels["a"].validity = 50 * MS
        ns.nodes["split"].activation = 20 * MS
        with pytest.raises(InternalError, match="below the channel validity"):
            fire_node(ns, "split")

    def test_unsorted_queue_is_detected(self, fib_checked):
        ns = init_network(fib_checked)
        ns.channels["a"].queue.appendleft((9, 5 * MS))
        with pytest.raises(InternalError, match="not tag-sorted"):
            ns.check_invariants()

    # A producer every 1 ms and a reader every 10 ms: the reader's input queue
    # grows by 9 elements every 10 ms, and `check` accepts the network.
    BACKLOG = """\
step count () --> (n : int) { n = 0 -> pre (n + 1) }
step inc (x : int) --> (y : int) { y = x + 1 }
step drop (_ : int) --> ()
channel a : int
channel b : int
node src implements count () --> (a) every 1ms
node inc implements inc (a) --> (b) every 10ms
node sink implements drop (b) --> () every 10ms
"""

    @pytest.mark.parametrize("horizon_ms", [100, 400])
    def test_invariant_work_per_step_does_not_grow_with_the_backlog(self, horizon_ms):
        class CountingDeque(deque):
            iterated = 0

            def __iter__(self):
                for item in super().__iter__():
                    self.iterated += 1
                    yield item

        sim = Simulation(
            check_program(parse_program(self.BACKLOG)),
            SimConfig(horizon_us=horizon_ms * MS),
            HostRegistry().bind_fn("drop", silent),
        )
        backlog = sim.state.channels["a"]
        backlog.queue = CountingDeque(backlog.queue)
        sim.run_until(horizon_ms * MS)
        assert len(backlog.queue) > 0.8 * horizon_ms  # about 0.9 per millisecond
        # Checking after every rule iterates no queue: the elements iterated
        # stay below the number of steps, however long the queue gets.
        assert backlog.queue.iterated < len(sim.state.steps)

    # One fault per invariant that the check after each rule still catches,
    # each planted in the idle rule, which `add` applies at 0ms in fib.
    MUTANTS = {
        "beyond its validity": lambda ns, ch, t, period: ch.queue.append((0, t + 3 * period)),
        "validity moved backwards": lambda ns, ch, t, period: setattr(ch, "validity", t),
        "not its writer's next write time": lambda ns, ch, t, period: setattr(ch, "validity", t + 3 * period),
        "below the channel validity": lambda ns, ch, t, period: coord._write(ns, ch, 0, t, ch.writer),
    }

    @pytest.mark.parametrize("fault", list(MUTANTS))
    def test_mutant_rule_is_caught(self, fib_checked, monkeypatch, fault):
        def mutant_idle(ns, name):
            node = ns.nodes[name]
            t = node.activation
            for port in node.outputs:
                ch = ns.channels[port.channel]
                ch.validity = t + 2 * node.period_us
                self.MUTANTS[fault](ns, ch, t, node.period_us)
            node.activation = t + node.period_us
            ns.check_invariants(name)

        monkeypatch.setattr("mimosa.sim.idle_node", mutant_idle)
        sim = Simulation(fib_checked, SimConfig(horizon_us=50 * MS), quiet_fib_hosts())
        with pytest.raises(InternalError, match=fault):
            sim.run_until(50 * MS)
