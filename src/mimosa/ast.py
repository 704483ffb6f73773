"""Abstract syntax: expressions, patterns, equations, declarations, and runtime values.

Everything is immutable after construction and safe to share across threads.
Source spans never participate in equality, so structural comparison of two
trees ignores where they were parsed from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Literal

from .errors import SYNTHETIC, InternalError, Span
from .types import Type


class _Unit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "()"


class _Undef:
    """The bottom value introduced by `pre`, embeddable as an internal literal."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<undef>"


UNIT_LIT = _Unit()
UNDEF_LIT = _Undef()


# ---------------------------------------------------------------------------
# Patterns


class Pattern:
    span: Span

    def names(self) -> list[str]:
        return _pattern_names(self)


@dataclass(frozen=True)
class PVar(Pattern):
    name: str
    annot: Type | None = None
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class PWild(Pattern):
    annot: Type | None = None
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class PUnit(Pattern):
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class PTuple(Pattern):
    items: tuple[Pattern, ...]
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("tuple patterns have at least two components")
        names = _pattern_names(self)
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate names in pattern: {', '.join(sorted(dupes))}")


def _pattern_names(p: Pattern) -> list[str]:
    match p:
        case PVar(name):
            return [name]
        case PTuple(items):
            out: list[str] = []
            for item in items:
                out.extend(_pattern_names(item))
            return out
        case _:
            return []


# ---------------------------------------------------------------------------
# Expressions (one variant per abstract-syntax production)


class Expr:
    span: Span


@dataclass(frozen=True)
class Var(Expr):
    name: str
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class Const(Expr):
    value: "int | bool | float | _Unit | _Undef"
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class Tuple(Expr):
    items: tuple[Expr, ...]
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("tuple expressions have at least two components")


@dataclass(frozen=True)
class Pre(Expr):
    expr: Expr
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class Fby(Expr):
    first: Expr
    rest: Expr
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class Arrow(Expr):
    first: Expr
    rest: Expr
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class Apply(Expr):
    fn: Expr
    arg: Expr
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class If(Expr):
    cond: Expr
    then: Expr
    orelse: Expr
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class NoneLit(Expr):
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class Some(Expr):
    expr: Expr
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class Either(Expr):
    """Option match: value of `scrutinee` if it is Some, else value of `fallback`."""

    scrutinee: Expr
    fallback: Expr
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class Equation:
    lhs: Pattern
    rhs: Expr
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class Lambda(Expr):
    in_pattern: Pattern
    out_pattern: Pattern
    equations: tuple[Equation, ...]
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)

    def __post_init__(self):
        if not self.equations:
            raise ValueError("function bodies have at least one equation")


# ---------------------------------------------------------------------------
# Top-level declarations


@dataclass(frozen=True)
class StepDecl:
    name: str
    in_pattern: Pattern
    out_pattern: Pattern
    equations: tuple[Equation, ...] | None  # None marks a prototype
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)

    @property
    def is_prototype(self) -> bool:
        return self.equations is None


@dataclass(frozen=True)
class ChannelDecl:
    name: str
    elem_type: Type
    initial: "tuple[Value, ...]"
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class PortRef:
    channel: str
    optional: bool
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class NodeDecl:
    name: str
    step: str
    inputs: tuple[PortRef, ...]
    outputs: tuple[PortRef, ...]
    period_us: int
    span: Span = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(frozen=True)
class Program:
    steps: tuple[StepDecl, ...]
    channels: tuple[ChannelDecl, ...]
    nodes: tuple[NodeDecl, ...]

    def step(self, name: str) -> StepDecl:
        for s in self.steps:
            if s.name == name:
                return s
        raise KeyError(name)

    def channel(self, name: str) -> ChannelDecl:
        for c in self.channels:
            if c.name == name:
                return c
        raise KeyError(name)

    def node(self, name: str) -> NodeDecl:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Runtime values


class Value:
    pass


@dataclass(frozen=True)
class VConst(Value):
    value: "int | bool | float | _Unit"


@dataclass(frozen=True)
class VTuple(Value):
    items: tuple[Value, ...]


@dataclass(frozen=True)
class VNone(Value):
    pass


@dataclass(frozen=True)
class VSome(Value):
    value: Value


@dataclass(frozen=True)
class VClosure(Value):
    in_pattern: Pattern
    out_pattern: Pattern
    equations: tuple[Equation, ...]


@dataclass(frozen=True)
class VExtern(Value):
    """A builtin or externally provided (host) step, invoked once for every
    application the evaluator reaches in a cycle."""

    name: str
    fn: Callable = field(compare=False)


@dataclass(frozen=True)
class VUndef(Value):
    """Bottom: the not-yet-defined value produced by `pre` on its first cycle."""


UNIT_VALUE = VConst(UNIT_LIT)


def contains_undef(v: Value) -> bool:
    match v:
        case VUndef():
            return True
        case VConst(x):
            return x is UNDEF_LIT
        case VTuple(items):
            return any(contains_undef(i) for i in items)
        case VSome(inner):
            return contains_undef(inner)
        case _:
            return False


# ---------------------------------------------------------------------------
# Operations


DepKind = Literal["causal", "delayed"]


def free_variables(e: Expr) -> dict[str, DepKind]:
    """Free variable names of e with their strongest dependency kind.

    A name is "delayed" when every occurrence sits under a `pre`; any
    occurrence evaluated in the current cycle (including the right arms of
    `fby` and `->`, which become current-cycle references after rewriting)
    makes it "causal".
    """
    out: dict[str, DepKind] = {}

    def record(name: str, kind: DepKind):
        if out.get(name) != "causal":
            out[name] = kind

    def walk(e: Expr, delayed: bool, bound: frozenset[str]):
        match e:
            case Var(name):
                if name not in bound:
                    record(name, "delayed" if delayed else "causal")
            case Const() | NoneLit():
                pass
            case Tuple(items):
                for item in items:
                    walk(item, delayed, bound)
            case Pre(inner):
                walk(inner, True, bound)
            case Fby(first, rest) | Arrow(first, rest):
                walk(first, delayed, bound)
                walk(rest, delayed, bound)
            case Apply(fn, arg):
                walk(fn, delayed, bound)
                walk(arg, delayed, bound)
            case If(cond, then, orelse):
                walk(cond, delayed, bound)
                walk(then, delayed, bound)
                walk(orelse, delayed, bound)
            case Some(inner):
                walk(inner, delayed, bound)
            case Either(scrutinee, fallback):
                walk(scrutinee, delayed, bound)
                walk(fallback, delayed, bound)
            case Lambda(in_pattern, _, equations):
                inner = set(bound) | set(in_pattern.names())
                for eq in equations:
                    inner.update(eq.lhs.names())
                for eq in equations:
                    walk(eq.rhs, delayed, frozenset(inner))
            case _:
                raise InternalError(f"free_variables: unknown expression {e!r}")

    walk(e, False, frozenset())
    return out
