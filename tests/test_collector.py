"""The front end runs with the cyclic collector paused: `parse_program` and
`check_program` give the caller back its `gc.isenabled()` state on every
exit, and build nothing the collector would have freed."""

import gc
import json
from pathlib import Path

import pytest

from conftest import FIB_SOURCE
from mimosa import check_program, parse_program
from mimosa.errors import CausalityError, InitError, MimosaError, NetworkError, ParseError, TypeCheckError

ROOT = Path(__file__).parent.parent

# A program that fails each way, and the error it raises.
FAILURES = {
    "parse": ("channel a : (int, bool\n", ParseError),
    "overflow": ("step f x --> y { y = " + "(" * 1000 + "x" + ")" * 1000 + " }\n", ParseError),
    "network": ("channel a : int\n", NetworkError),
    "types": ("step f (x : int) --> (y : bool) { y = x }\n", TypeCheckError),
    "causality": ("step f x --> y { y = z; z = y }\n", CausalityError),
    "initialization": ("step f x --> y { y = pre x }\n", InitError),
}


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The collector in the parametrized state during the test, and in its
    own state again after it."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_success_restores_the_callers_state(collector):
    program = parse_program(FIB_SOURCE)
    assert gc.isenabled() is collector
    check_program(program)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("case", FAILURES)
def test_failure_restores_the_callers_state(case, collector):
    source, error = FAILURES[case]
    with pytest.raises(error) as info:
        check_program(parse_program(source))
    assert gc.isenabled() is collector
    if case == "overflow":
        assert info.value.diagnostics[0].message == "expression nested too deeply"


def test_the_front_end_leaves_no_cyclic_garbage(monkeypatch):
    # Every shipped program, the benchmark's three sources and every recorded
    # diagnostic case, parsed and checked with the collector off and dropped:
    # nothing is left that only the collector could free.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    sources = [(path.name, path.read_text()) for path in sorted((ROOT / "programs").glob("*.mim"))]
    sources += [(f"{name}.mim", workloads.make(name, 1).source) for name in ("wide", "deep", "confluence")]
    cases = json.loads((ROOT / "tests" / "oracles" / "diagnostics.json").read_text())
    sources += [(name, case["source"]) for name, case in cases.items()]
    failed = 0
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for name, source in sources:
            try:
                check_program(parse_program(source, file=name), file=name)
            except MimosaError:
                failed += 1
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()
    assert failed == len(cases)
