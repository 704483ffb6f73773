"""Types, type schemes, and unification.

Channels and step signatures use the concrete fragment (no variables, no
functions); inference introduces variables and function types internally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import Diagnostic, Span, TypeCheckError


class Type:
    pass


@dataclass(frozen=True)
class TBase(Type):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class TOption(Type):
    elem: Type

    def __str__(self) -> str:
        inner = str(self.elem)
        if isinstance(self.elem, (TFunc, TOption)):
            inner = f"({inner})"
        return f"{inner}?"


@dataclass(frozen=True)
class TTuple(Type):
    items: tuple[Type, ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("tuple types have at least two components")

    def __str__(self) -> str:
        return "(" + ", ".join(str(t) for t in self.items) + ")"


@dataclass(frozen=True)
class TFunc(Type):
    arg: Type
    result: Type

    def __str__(self) -> str:
        left = str(self.arg)
        if isinstance(self.arg, TFunc):
            left = f"({left})"
        return f"{left} -> {self.result}"


@dataclass(frozen=True)
class TVar(Type):
    id: int

    def __str__(self) -> str:
        return tyvar_name(self.id)


INT = TBase("int")
BOOL = TBase("bool")
REAL = TBase("real")
UNIT = TBase("unit")


def tyvar_name(i: int) -> str:
    name = ""
    i += 1
    while i > 0:
        i, rem = divmod(i - 1, 26)
        name = chr(ord("a") + rem) + name
    return "'" + name


@dataclass(frozen=True)
class Scheme:
    """A type quantified over the listed variable ids."""

    vars: tuple[int, ...]
    body: Type

    def __str__(self) -> str:
        return str(self.body)


def _parts(t: Type) -> tuple[Type, ...]:
    """The component types of t, left to right: none for a base type or a variable."""
    kind = type(t)
    if kind is TOption:
        return (t.elem,)
    if kind is TTuple:
        return t.items
    if kind is TFunc:
        return (t.arg, t.result)
    return ()


def _map(t: Type, leaf: Callable[[Type], Type]) -> Type:
    """t rebuilt with `leaf` applied to each base type and variable, left to right."""
    kind = type(t)
    if kind is TOption:
        return TOption(_map(t.elem, leaf))
    if kind is TTuple:
        return TTuple(tuple([_map(i, leaf) for i in t.items]))
    if kind is TFunc:
        return TFunc(_map(t.arg, leaf), _map(t.result, leaf))
    return leaf(t)


def is_first_order(t: Type) -> bool:
    """True if t contains no function type (channel element types must)."""
    return not isinstance(t, TFunc) and all(map(is_first_order, _parts(t)))


class Unifier:
    """Substitution store with unification and scheme instantiation."""

    def __init__(self):
        self._subst: dict[int, Type] = {}
        self._next = 0

    def fresh(self) -> TVar:
        self._next += 1
        return TVar(self._next - 1)

    def resolve(self, t: Type) -> Type:
        """Follow variable bindings one level (the root of t only)."""
        while isinstance(t, TVar) and t.id in self._subst:
            t = self._subst[t.id]
        return t

    def deep_resolve(self, t: Type) -> Type:
        return _map(t, lambda v: v if (r := self.resolve(v)) is v else self.deep_resolve(r))

    def _occurs(self, i: int, t: Type) -> bool:
        t = self.resolve(t)
        if isinstance(t, TVar):
            return t.id == i
        for part in _parts(t):
            if self._occurs(i, part):
                return True
        return False

    def unify(self, a: Type, b: Type, span: Span, file: str = "<string>") -> None:
        a = self.resolve(a)
        b = self.resolve(b)
        if a == b:
            return
        if isinstance(a, TVar):
            if self._occurs(a.id, b):
                self._fail(f"occurs check: {self.render(a)} in {self.render(b)}", span, file)
            self._subst[a.id] = b
            return
        if isinstance(b, TVar):
            self.unify(b, a, span, file)
            return
        match (a, b):
            case (TOption(x), TOption(y)):
                self.unify(x, y, span, file)
            case (TTuple(xs), TTuple(ys)) if len(xs) == len(ys):
                for x, y in zip(xs, ys):
                    self.unify(x, y, span, file)
            case (TFunc(a1, r1), TFunc(a2, r2)):
                self.unify(a1, a2, span, file)
                self.unify(r1, r2, span, file)
            case _:
                self._fail(
                    f"type mismatch: expected {self.render(a)}, found {self.render(b)}",
                    span,
                    file,
                )

    def _fail(self, message: str, span: Span, file: str):
        raise TypeCheckError([Diagnostic(message, span, file=file)])

    def instantiate(self, scheme: Scheme) -> Type:
        if not scheme.vars:  # monomorphic: types are immutable, so share the body
            return scheme.body
        fresh = {TVar(v): self.fresh() for v in scheme.vars}
        return _map(scheme.body, lambda v: fresh.get(v, v))

    def generalize(self, t: Type) -> Scheme:
        """Quantify over every free variable, numbered from 0 left to right for display."""
        numbers: dict[int, TVar] = {}

        def number(v: Type) -> Type:
            return numbers.setdefault(v.id, TVar(len(numbers))) if isinstance(v, TVar) else v

        body = _map(self.deep_resolve(t), number)
        return Scheme(tuple(range(len(numbers))), body)

    def render(self, t: Type) -> str:
        return str(self.deep_resolve(t))
