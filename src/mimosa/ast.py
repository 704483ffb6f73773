"""Abstract syntax: expressions, patterns, equations, declarations, and runtime values.

Patterns, declarations, expressions, equations and runtime values are never
mutated after construction, except `_fill_pre`'s fresh holes in the
evaluator. They are slotted and not frozen, for speed: the evaluator builds
expressions on every firing, the parser builds a pattern or declaration for
every one it reads, and a frozen dataclass costs several times as much to
construct.
Source locations (`loc`, resolved by the `span` property) never participate
in equality or hashing, so structural comparison of two trees ignores where
they were parsed from.

A literal is its value: `Const` holds the runtime value it evaluates to, so
when `pre e` rewrites to `v -> pre e'` the current value `v` goes back into
the program text as one `Const(v)`. A scalar is a plain `int`, `bool` or
`float`, tested with `type(v) is int` (a bool is an int to `isinstance`),
boxed in `VConst` only for a host step; the unit value is `UNIT_VALUE`, and
`VUndef` the only undefined value. A step value, too, has one form: a call
`f a` rewrites to `Apply(Const(c), a')`, where the closure `c` holds the
callee's next equations, so the closure carries the call's state. A settled
activation's closure is its own next state, so a stateless step allocates
nothing after its first cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Container, Iterable, NamedTuple

from .errors import SYNTHETIC, Loc, Located
from .types import Type


class _Unit:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "()"


UNIT_LIT = _Unit()


# ---------------------------------------------------------------------------
# Patterns


class Pattern(Located):
    __slots__ = ()

    def names(self) -> list[str]:
        return _pattern_names(self)


@dataclass(slots=True, unsafe_hash=True)
class PVar(Pattern):
    name: str
    annot: Type | None = None
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class PWild(Pattern):
    annot: Type | None = None
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class PUnit(Pattern):
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class PTuple(Pattern):
    items: tuple[Pattern, ...]
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("tuple patterns have at least two components")
        names = _pattern_names(self)
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise ValueError(f"duplicate names in pattern: {', '.join(sorted(dupes))}")


def _pattern_names(p: Pattern) -> list[str]:
    kind = type(p)
    if kind is PVar:
        return [p.name]
    if kind is PTuple:
        out: list[str] = []
        for item in p.items:
            out.extend(_pattern_names(item))
        return out
    return []


# ---------------------------------------------------------------------------
# Expressions (one variant per abstract-syntax production)


class Expr(Located):
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class Var(Expr):
    name: str
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Const(Expr):
    """A literal, holding the value it evaluates to: a plain scalar, the unit
    value or `VNone` as parsed, any value, `VUndef` included, that `pre`
    embeds, or the closure a called step rewrites to."""

    value: "Value"
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Tuple(Expr):
    items: tuple[Expr, ...]
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("tuple expressions have at least two components")


@dataclass(slots=True, unsafe_hash=True)
class Pre(Expr):
    expr: Expr
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Fby(Expr):
    first: Expr
    rest: Expr
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Arrow(Expr):
    first: Expr
    rest: Expr
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Apply(Expr):
    fn: Expr
    arg: Expr
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Binary(Expr):
    """An infix operator on two operands, holding its builtin step value as a
    literal holds its value; `fn.name` is its symbol."""

    fn: "VExtern"
    left: Expr
    right: Expr
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class If(Expr):
    cond: Expr
    then: Expr
    orelse: Expr
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Some(Expr):
    expr: Expr
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Either(Expr):
    """Option match: value of `scrutinee` if it is Some, else value of `fallback`."""

    scrutinee: Expr
    fallback: Expr
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class Equation(Located):
    lhs: Pattern
    rhs: Expr
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Top-level declarations


@dataclass(slots=True, unsafe_hash=True)
class StepDecl(Located):
    name: str
    in_pattern: Pattern
    out_pattern: Pattern
    equations: tuple[Equation, ...] | None  # None marks a prototype
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)

    @property
    def is_prototype(self) -> bool:
        return self.equations is None


@dataclass(slots=True, unsafe_hash=True)
class ChannelDecl(Located):
    name: str
    elem_type: Type
    initial: "tuple[Value, ...]"
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class PortRef(Located):
    channel: str
    optional: bool
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class NodeDecl(Located):
    name: str
    step: str
    inputs: tuple[PortRef, ...]
    outputs: tuple[PortRef, ...]
    period_us: int
    loc: Loc = field(default=SYNTHETIC, compare=False, repr=False)


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
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class VConst(Value):
    value: "int | bool | float | _Unit"


@dataclass(slots=True, unsafe_hash=True)
class VTuple(Value):
    items: tuple[Value, ...]


@dataclass(slots=True, unsafe_hash=True)
class VNone(Value):
    pass


@dataclass(slots=True, unsafe_hash=True)
class VSome(Value):
    value: Value


@dataclass(slots=True, unsafe_hash=True)
class VClosure(Value):
    in_pattern: Pattern
    out_pattern: Pattern
    equations: tuple[Equation, ...]


@dataclass(slots=True, unsafe_hash=True)
class VExtern(Value):
    """A builtin or externally provided (host) step, invoked once for every
    application the evaluator reaches in a cycle. An operator may also have a
    `kernel`: its plain operand type and the operation on two such operands."""

    name: str
    fn: Callable = field(compare=False)
    kernel: tuple[type, Callable] | None = field(default=None, compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class VUndef(Value):
    """Bottom: the not-yet-defined value produced by `pre` on its first cycle."""


UNIT_VALUE = VConst(UNIT_LIT)


def contains_undef(v: Value) -> bool:
    kind = type(v)
    if kind is VTuple:
        return any(map(contains_undef, v.items))
    if kind is VSome:
        return contains_undef(v.value)
    return kind is VUndef


# ---------------------------------------------------------------------------
# Operations


class Nesting(NamedTuple):
    depth: int  # of the deepest root; a name or a literal is one level
    mentioned: set[str]  # which of `names` the roots mention
    passed: set[str]  # which of `names` they mention other than as an applied function
    applies_value: bool  # whether they apply a function that is not one of `names`
    reads: tuple[set[str], ...]  # per root, each name read outside any `pre`, right arms of `fby` and `->` included


# The child expressions of each node with children, left to right, for the
# classes `nesting` does not take apart itself.
_CHILDREN: dict[type, Callable[[Expr], tuple[Expr, ...]]] = {
    Tuple: attrgetter("items"),
    Fby: attrgetter("first", "rest"),
    Arrow: attrgetter("first", "rest"),
    If: attrgetter("cond", "then", "orelse"),
    Either: attrgetter("scrutinee", "fallback"),
}


def nesting(roots: Iterable[Expr], names: Container[str] = ()) -> Nesting:
    """How deep `roots` nest and how they use `names`, in one walk: a step's
    right-hand sides take one call, and `reads` keeps each one's causal names.
    Walked with an explicit stack, so a deep tree cannot overflow the
    interpreter's. The right arms of `fby` and `->` are causal reads: after
    one cycle each is the whole expression. An operator is two levels, the
    application and operand pair it stands for, and its symbol is no name."""
    deepest = 0
    applied: set[str] = set()
    passed: set[str] = set()
    reads: list[set[str]] = []
    applies_value = False
    stack: list[tuple[Expr, int, bool]] = []
    pop, push = stack.pop, stack.append
    for root in roots:
        causal: set[str] = set()
        reads.append(causal)
        push((root, 1, False))
        while stack:
            e, depth, delayed = pop()
            if depth > deepest:
                deepest = depth
            kind = type(e)
            if kind is Var:
                if not delayed:
                    causal.add(e.name)
                if e.name in names:
                    passed.add(e.name)
                continue
            if kind is Const:
                continue
            if kind is Binary:  # two levels: the application and its operand pair
                push((e.left, depth + 2, delayed))
                push((e.right, depth + 2, delayed))
                continue
            depth += 1
            if kind is Apply:
                fn = e.fn
                if type(fn) is Var and fn.name in names:
                    applied.add(fn.name)
                    if not delayed:
                        causal.add(fn.name)
                else:
                    applies_value = True
                    push((fn, depth, delayed))
                push((e.arg, depth, delayed))
            elif kind is Pre or kind is Some:
                push((e.expr, depth, delayed or kind is Pre))
            else:
                for child in _CHILDREN[kind](e):
                    push((child, depth, delayed))
    return Nesting(deepest, applied | passed, passed, applies_value, tuple(reads))
