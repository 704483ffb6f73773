"""Command-line interface: check, run, fmt, and explain-trace."""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, TextIO, TypeVar

from .analysis import boxed, check_host_value, check_program
from .ast import UNIT_VALUE, Program
from .errors import Diagnostic, MimosaError, SimError, Span, read_text, render_diagnostics
from .parser import parse_duration, parse_literal, parse_program
from .pretty import format_duration, pretty_program
from .sim import (
    HostRegistry,
    SimConfig,
    builtin_hosts,
    const_seq,
    from_file,
    print_host,
    run,
)

_T = TypeVar("_T")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mimosa", description="Check, format, and simulate Mimosa programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="parse and statically check a program")
    check.add_argument("file")
    check.add_argument("--diag-format", choices=("text", "json"), default="text")
    check.add_argument(
        "--allow-unwired",
        action="store_true",
        help="accept channels without a writer or reader (front-end checks only)",
    )

    runp = sub.add_parser("run", help="simulate a program and record its trace")
    runp.add_argument("file")
    runp.add_argument("--for", dest="horizon", required=True, metavar="DURATION", help="e.g. 200ms or 2s")
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--schedule", choices=("deterministic", "randomized"), default="deterministic")
    runp.add_argument("--trace", metavar="PATH", default=None, help="trace CSV path, or - for stdout")
    runp.add_argument(
        "--stub",
        action="append",
        default=[],
        metavar="STEP=SPEC",
        help="bind a prototype step: STEP=file.txt, STEP=builtin:print, or STEP=const:LITERAL",
    )
    runp.add_argument("--verbose-idle", action="store_true", help="include idle events in the trace")
    runp.add_argument("--diag-format", choices=("text", "json"), default="text")

    fmt = sub.add_parser("fmt", help="print the canonical form of a program")
    fmt.add_argument("file")

    explain = sub.add_parser("explain-trace", help="summarize a trace CSV")
    explain.add_argument("trace")

    return parser


def _emit_diagnostics(exc: MimosaError, fmt: str) -> None:
    text = render_diagnostics(exc.diagnostics, fmt)
    if fmt == "text" and _use_color():
        text = "\n".join(line.replace(" error: ", " \x1b[31merror\x1b[0m: ", 1) for line in text.splitlines())
    print(text, file=sys.stderr)


def _use_color() -> bool:
    return sys.stderr.isatty() and os.environ.get("MIMOSA_COLOR", "1") != "0"


def _option_value(option: str, text: str, parse: Callable[[], _T]) -> _T:
    """`parse()` of `text`, the value of `option`; its errors name the option,
    since the value has no place in any file."""
    try:
        return parse()
    except MimosaError as exc:
        raise MimosaError(
            [Diagnostic(f"in {text!r}, {d.message}", argument=option) for d in exc.diagnostics]
        ) from None


def _registry_from_stubs(stubs: list[str], program: Program) -> HostRegistry:
    """The builtin hosts, and a binding for each stub, which must name a
    prototype step of `program`. Each value a binding can return is checked
    against the step's declared result type."""
    prototype = {step.name: step.is_prototype for step in program.steps}
    registry = builtin_hosts()
    specs: dict[str, str] = {}
    for stub in stubs:
        name, sep, spec = stub.partition("=")
        if not sep or not name or not spec:
            raise MimosaError([Diagnostic(f"expected STEP=SPEC, got {stub!r}", argument="--stub")])
        if name in specs:
            message = f"step '{name}' has two stubs, {specs[name]!r} and {spec!r}; give it one"
            raise MimosaError([Diagnostic(message, argument="--stub")])
        specs[name] = spec
        step = program.step(name) if prototype.get(name) else None
        if step is None:
            why = "has a body" if name in prototype else "is not a step of the program"
            message = f"in {stub!r}, step '{name}' {why}; only a prototype step takes a stub"
            raise MimosaError([Diagnostic(message, argument="--stub")])
        if spec == "builtin:print":
            factory, value = print_host(), UNIT_VALUE
        elif spec.startswith("const:"):
            value = _option_value("--stub", stub, lambda: boxed(parse_literal(spec[len("const:") :])))
            factory = const_seq(value)
        else:
            factory, value = from_file(spec, step), None  # checks each of its values itself
        if value is not None:
            _option_value("--stub", stub, lambda: check_host_value(step, value))
        registry.bind(name, factory)
    # The default binding of print_int prints, and so returns ().
    if prototype.get("print_int") and "print_int" not in specs:
        step = program.step("print_int")
        _option_value("--stub", "print_int=builtin:print", lambda: check_host_value(step, UNIT_VALUE))
    return registry


def _cmd_check(args) -> int:
    program = parse_program(read_text(args.file), file=args.file)
    check_program(program, complete_network=not args.allow_unwired, file=args.file)
    return 0


def _cmd_run(args) -> int:
    horizon = _option_value("--for", args.horizon, lambda: parse_duration(args.horizon))
    if args.seed is not None and args.schedule != "randomized":
        raise MimosaError([Diagnostic("only --schedule randomized takes a seed", argument="--seed")])
    program = parse_program(read_text(args.file), file=args.file)
    checked = check_program(program, file=args.file)
    registry = _registry_from_stubs(args.stub, program)
    cfg = SimConfig(horizon_us=horizon, seed=args.seed, schedule=args.schedule)
    with _trace_output(args.trace) as out:
        try:
            trace = run(checked, cfg, registry)
        except SimError as exc:
            raise exc.in_file(args.file)  # a failure with no location is the program's too
        if out is not None:
            out.write(trace.render_csv(include_idle=args.verbose_idle))
    return 0


@contextmanager
def _trace_output(path: str | None) -> Iterator[TextIO | None]:
    """Where the trace CSV goes: nowhere, standard output for "-", or a file
    written once the run succeeds. Opening it to append first changes no byte
    but fails on a path that cannot be written, and a failed run leaves the
    path as it found it."""
    if not path:
        yield None
    elif path == "-":
        yield sys.stdout
    else:
        existed = os.path.lexists(path)
        try:
            open(path, "a", encoding="utf-8").close()
        except OSError as exc:
            raise SimError([Diagnostic(f"cannot write trace: {exc.strerror or exc}", file=path)]) from None
        out = io.StringIO()
        try:
            yield out
        except BaseException:
            if not existed:
                os.remove(path)
            raise
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(out.getvalue())


def _cmd_fmt(args) -> int:
    program = parse_program(read_text(args.file), file=args.file)
    sys.stdout.write(pretty_program(program))
    return 0


def _trace_events(path: str) -> dict[str, list[tuple[int, str]]]:
    """Channel -> (time, value) events of the trace CSV at `path`, in file order."""
    rows = csv.DictReader(io.StringIO(read_text(path)))
    channels: dict[str, list[tuple[int, str]]] = {}
    try:
        if not {"time_us", "channel", "value"}.issubset(rows.fieldnames or ()):
            message = "not a trace: the header must name the columns time_us, channel and value"
            raise MimosaError([Diagnostic(message, Span(1, 1, 1, 1), file=path)])
        for row in rows:
            if name := row.get("channel"):
                time_us, value = row.get("time_us") or "", row.get("value")
                if value is None:  # a short row
                    raise csv.Error
                channels.setdefault(name, []).append((int(time_us), value))
    except (csv.Error, ValueError):
        span = Span(rows.line_num, 1, rows.line_num, 1)
        message = "malformed trace row: expected an integer time_us, a channel and a value"
        raise MimosaError([Diagnostic(message, span, file=path)]) from None
    return channels


def _cmd_explain_trace(args) -> int:
    channels = _trace_events(args.trace)
    if not channels:
        print("no channel events")
        return 0
    for name in sorted(channels):
        events = channels[name]
        first_t, first_v = events[0]
        last_t, last_v = events[-1]
        print(
            f"{name}: {len(events)} events, first {first_v}@{format_duration(first_t)}, "
            f"last {last_v}@{format_duration(last_t)}"
        )
        print(f"  values: {', '.join(v for _, v in events)}")
    return 0


_COMMANDS = {"check": _cmd_check, "run": _cmd_run, "fmt": _cmd_fmt, "explain-trace": _cmd_explain_trace}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status. This is the one place a
    failed command is reported: its diagnostics go to standard error, in the
    command's `--diag-format` if it has one, and the status is 1."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        try:
            status = _COMMANDS[args.command](args)
        except MimosaError as exc:
            _emit_diagnostics(exc, getattr(args, "diag_format", "text"))
            status = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed standard output early (`mimosa run … | head`).
        # Send what is still buffered to the null device, so the flush at exit
        # cannot fail again, and stop without a traceback.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
