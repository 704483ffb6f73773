"""A stdlib-only pytest plugin that reports the lines of `src/mimosa/` no test runs.

    PYTHONPATH=src:tests python -m pytest -q -p linetrace

It traces with `sys.settrace` from the moment it is loaded, so the imports
during collection count, and arms the trace function again before each test's
setup, call and teardown: Hypothesis resets it. At the end it lists, per
file, the executable lines (those of any code object compiled from the file)
that never ran. It only reports; it never fails a run. Tracing adds stack
frames, so a test that recurses close to the interpreter's limit may
overflow under it alone. A `RecursionError` raised inside the trace function
switches tracing off until the next test, so the lines that handle a stack
overflow are listed as unrun even where a test reaches them.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mimosa"

# The lines run, per traced file name; code objects of other files map to None.
_ran: dict[str, set[int]] = {}
_traced: dict[object, set[int] | None] = {}


def _local(frame, event, arg):
    if event == "line":
        _traced[frame.f_code].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    code = frame.f_code
    lines = _traced.get(code, False)
    if lines is False:
        name = os.path.abspath(code.co_filename)
        lines = _traced[code] = _ran.setdefault(name, set()) if name.startswith(str(PACKAGE)) else None
    if lines is None:
        return None
    lines.add(frame.f_lineno)
    return _local


def _arm():
    if sys.gettrace() is not _global:
        sys.settrace(_global)


def executable_lines(path: Path) -> set[int]:
    """The line numbers of every instruction compiled from `path`."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """`1-3, 7` for [1, 2, 3, 7]."""
    out, start = [], None
    for k, line in enumerate(lines):
        if start is None:
            start = line
        if k + 1 == len(lines) or lines[k + 1] != line + 1:
            out.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return ", ".join(out)


def unrun_lines() -> dict[str, list[int]]:
    """Per file of the package, relative to its root, the executable lines that never ran."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        missing = sorted(executable_lines(path) - _ran.get(str(path), set()))
        if missing:
            report[f"src/mimosa/{path.name}"] = missing
    return report


_arm()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_setup(item):
    _arm()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_call(item):
    _arm()


@pytest.hookimpl(tryfirst=True)
def pytest_runtest_teardown(item):
    _arm()


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    report = unrun_lines()
    terminalreporter.section("lines of src/mimosa/ no test ran")
    for name, lines in report.items():
        terminalreporter.write_line(f"{name}: {ranges(lines)}")
    terminalreporter.write_line(f"{sum(map(len, report.values()))} lines unrun")
