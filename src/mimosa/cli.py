"""Command-line interface: check, run, fmt, and explain-trace."""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .analysis import check_program
from .errors import MimosaError, render_diagnostics
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


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit_diagnostics(exc: MimosaError, fmt: str) -> None:
    text = render_diagnostics(exc.diagnostics, fmt)
    if fmt == "text" and _use_color():
        text = "\n".join(line.replace(" error: ", " \x1b[31merror\x1b[0m: ", 1) for line in text.splitlines())
    print(text, file=sys.stderr)


def _use_color() -> bool:
    return sys.stderr.isatty() and os.environ.get("MIMOSA_COLOR", "1") != "0"


def _registry_from_stubs(stubs: list[str]) -> HostRegistry:
    registry = builtin_hosts()
    for stub in stubs:
        name, sep, spec = stub.partition("=")
        if not sep or not name or not spec:
            raise MimosaError(f"bad --stub {stub!r}; expected STEP=SPEC")
        if spec == "builtin:print":
            registry.bind(name, print_host())
        elif spec.startswith("const:"):
            registry.bind(name, const_seq(parse_literal(spec[len("const:") :])))
        else:
            registry.bind(name, from_file(spec))
    return registry


def _cmd_check(args) -> int:
    try:
        source = _read(args.file)
    except OSError as exc:
        print(f"mimosa: {exc}", file=sys.stderr)
        return 1
    try:
        program = parse_program(source, file=args.file)
        check_program(program, complete_network=not args.allow_unwired, file=args.file)
    except MimosaError as exc:
        _emit_diagnostics(exc, args.diag_format)
        return 1
    return 0


def _cmd_run(args) -> int:
    try:
        source = _read(args.file)
    except OSError as exc:
        print(f"mimosa: {exc}", file=sys.stderr)
        return 1
    try:
        horizon = parse_duration(args.horizon)
        program = parse_program(source, file=args.file)
        checked = check_program(program, file=args.file)
        registry = _registry_from_stubs(args.stub)
        cfg = SimConfig(
            horizon_us=horizon,
            seed=args.seed,
            schedule=args.schedule,
            trace_path=args.trace,
            verbose_idle=args.verbose_idle,
        )
        run(checked, cfg, registry)
    except MimosaError as exc:
        _emit_diagnostics(exc, args.diag_format)
        return 1
    return 0


def _cmd_fmt(args) -> int:
    try:
        source = _read(args.file)
    except OSError as exc:
        print(f"mimosa: {exc}", file=sys.stderr)
        return 1
    try:
        program = parse_program(source, file=args.file)
    except MimosaError as exc:
        _emit_diagnostics(exc, "text")
        return 1
    sys.stdout.write(pretty_program(program))
    return 0


def _cmd_explain_trace(args) -> int:
    try:
        with open(args.trace, "r", encoding="utf-8", newline="") as handle:
            rows = list(csv.DictReader(handle))
    except OSError as exc:
        print(f"mimosa: {exc}", file=sys.stderr)
        return 1
    channels: dict[str, list[tuple[int, str]]] = {}
    for row in rows:
        name = row.get("channel") or ""
        if not name:
            continue
        channels.setdefault(name, []).append((int(row["time_us"]), row["value"]))
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    if args.command == "check":
        return _cmd_check(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "fmt":
        return _cmd_fmt(args)
    if args.command == "explain-trace":
        return _cmd_explain_trace(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
