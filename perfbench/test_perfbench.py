"""Self-test of the benchmark at tiny sizes: oracles, golden digests, schedule
independence and the tracer. No timing is asserted.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import channel_digest, make  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text())["tiny"]
VARIANTS = range(4)


def deterministic(name: str, variant: int):
    return dataclasses.replace(make(name, variant, "tiny"), schedule="deterministic")


@pytest.mark.parametrize("name", run.WORKLOADS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_oracle_and_golden_digests(name, variant):
    wl = deterministic(name, variant)
    sample, digests = run.run_once(wl, None)
    assert sample.problems == []
    assert run.golden_problems(wl, digests, GOLDEN[name][str(variant)]) == []
    assert wl.steps > 0


@pytest.mark.parametrize("variant", VARIANTS)
def test_randomized_confluence_matches_deterministic_digest(variant):
    wl = make("confluence", variant, "tiny")
    assert wl.schedule == "randomized"
    for schedule_seed in range(5):
        sample, digests = run.run_once(wl, schedule_seed)
        assert sample.problems == []
        assert digests["channels"] == GOLDEN["confluence"][str(variant)]["channels"]


@pytest.mark.parametrize("name", ["wide", "confluence"])
def test_oracle_detects_a_wrong_history(name):
    wl = deterministic(name, 0)
    assert wl.expected and all(wl.expected.values())
    from mimosa import analysis, parser, sim

    registry, log = wl.hosts()
    simulation = sim.Simulation(
        analysis.check_program(parser.parse_program(wl.source)), sim.SimConfig(horizon_us=wl.horizon_us), registry
    )
    simulation.run_until(wl.horizon_us)
    per_channel = simulation.trace().per_channel()
    assert wl.check(per_channel, log) == []
    channel = next(iter(wl.expected))
    per_channel[channel] = per_channel[channel][:-1]
    assert wl.check(per_channel, log) != []
    assert channel_digest(per_channel) != GOLDEN[name]["0"]["channels"]


def test_traced_run_keeps_outputs_and_reports_every_layer_metric():
    originals = [owner.__dict__[attr] for owner, attr, _ in tracer.TARGETS]
    for name in run.WORKLOADS:
        wl = deterministic(name, 1)
        from mimosa import analysis, parser

        eqs = run.equations_per_firing(analysis.check_program(parser.parse_program(wl.source)))
        t = tracer.Tracer()
        with tracer.installed(t):
            sample, digests = run.run_once(wl, None, t.host)
        assert sample.problems == []
        assert run.golden_problems(wl, digests, GOLDEN[name]["1"]) == []
        layers = run.layer_metrics(t, eqs, sample)
        assert set(layers) == set(run.units("per_layer")) - {"trace.overhead"}
        assert layers["sim.steps"] == wl.steps
        assert layers["host.calls"] == sample.host_calls > 0
        assert layers["eval.calls"] == layers["coord.fires"]
    assert [owner.__dict__[attr] for owner, attr, _ in tracer.TARGETS] == originals


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    inner = t.span("inner", lambda: sum(range(20000)))
    outer = t.span("outer", lambda: inner() + inner())
    outer()
    spans = t.summary()
    assert spans["outer"]["calls"] == 1 and spans["inner"]["calls"] == 2
    assert spans["outer"]["self"] == pytest.approx(spans["outer"]["total"] - spans["inner"]["total"])
