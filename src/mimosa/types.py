"""Types, type schemes, and unification.

Channels and step signatures use the concrete fragment (no variables, no
functions); inference introduces variables and function types internally.
Types are never mutated after construction; like expression nodes they are
slotted and not frozen, because inference builds them on every application
and a frozen dataclass costs several times as much to construct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import Diagnostic, Loc, TypeCheckError


class Type:
    __slots__ = ()


@dataclass(slots=True, unsafe_hash=True)
class TBase(Type):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(slots=True, unsafe_hash=True)
class TOption(Type):
    elem: Type

    def __str__(self) -> str:
        inner = str(self.elem)
        if isinstance(self.elem, (TFunc, TOption)):
            inner = f"({inner})"
        return f"{inner}?"


@dataclass(slots=True, unsafe_hash=True)
class TTuple(Type):
    items: tuple[Type, ...]

    def __post_init__(self):
        if len(self.items) < 2:
            raise ValueError("tuple types have at least two components")

    def __str__(self) -> str:
        return "(" + ", ".join(str(t) for t in self.items) + ")"


@dataclass(slots=True, unsafe_hash=True)
class TFunc(Type):
    arg: Type
    result: Type

    def __str__(self) -> str:
        left = str(self.arg)
        if isinstance(self.arg, TFunc):
            left = f"({left})"
        return f"{left} -> {self.result}"


@dataclass(slots=True, unsafe_hash=True)
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
    """A type quantified over the listed variable ids. Those in `first_order`
    stand only for first-order types (they type compared values)."""

    vars: tuple[int, ...]
    body: Type
    first_order: tuple[int, ...] = ()

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
    """Substitution store with unification and scheme instantiation.

    A variable in `_first_order` may be bound only to a first-order type, as
    an equality type variable of Standard ML: binding it to a type with a
    function in it is an error, and binding it to any other type passes the
    constraint on to that type's variables.
    """

    def __init__(self):
        self._subst: dict[int, Type] = {}
        self._next = 0
        self._first_order: set[int] = set()

    def fresh(self) -> TVar:
        self._next += 1
        return TVar(self._next - 1)

    def reserve(self, n: int) -> int:
        """Take the next n variable ids without making their variables; the first of them."""
        self._next += n
        return self._next - n

    def resolve(self, t: Type) -> Type:
        """Follow variable bindings one level (the root of t only)."""
        while type(t) is TVar and t.id in self._subst:
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

    def unify(self, a: Type, b: Type, loc: Loc) -> None:
        """Make a and b equal, or raise TypeCheckError at `loc`."""
        subst = self._subst
        while type(a) is TVar and a.id in subst:
            a = subst[a.id]
        while type(b) is TVar and b.id in subst:
            b = subst[b.id]
        if a is b:
            return
        kind = type(a)
        if kind is not TVar and type(b) is TVar:
            a, b, kind = b, a, TVar
        if kind is TVar:
            if type(b) is TVar and b.id == a.id:
                return
            if self._occurs(a.id, b):
                self._fail(f"occurs check: {self.render(a)} in {self.render(b)}", loc)
            if a.id in self._first_order:
                self._only_first_order(b, loc)
            subst[a.id] = b
            return
        if kind is type(b):
            if kind is TOption:
                self.unify(a.elem, b.elem, loc)
                return
            if kind is TFunc:
                self.unify(a.arg, b.arg, loc)
                self.unify(a.result, b.result, loc)
                return
            if kind is TTuple and len(a.items) == len(b.items):
                for x, y in zip(a.items, b.items):
                    self.unify(x, y, loc)
                return
            if kind is TBase and a.name == b.name:
                return
        self._fail(f"type mismatch: expected {self.render(a)}, found {self.render(b)}", loc)

    def _only_first_order(self, t: Type, loc: Loc) -> None:
        """Check that t, bound to a first-order variable, has no function in it,
        and make its variables first-order too."""
        t = self.deep_resolve(t)
        if not is_first_order(t):
            self._fail(f"only first-order values can be compared, found {t}", loc)
        parts = [t]
        while parts:
            part = parts.pop()
            if type(part) is TVar:
                self._first_order.add(part.id)
            parts.extend(_parts(part))

    def _fail(self, message: str, loc: Loc):
        raise TypeCheckError([Diagnostic.at(message, loc)])

    def instantiate(self, scheme: Scheme, first: int | None = None) -> Type:
        """`scheme`'s body with fresh variables, numbered from `first` if the
        caller reserved their ids."""
        if not scheme.vars:  # monomorphic: types are immutable, so share the body
            return scheme.body
        if first is None:
            first = self.reserve(len(scheme.vars))
        fresh = {TVar(v): TVar(first + k) for k, v in enumerate(scheme.vars)}
        self._first_order.update(fresh[TVar(v)].id for v in scheme.first_order)
        return _map(scheme.body, lambda v: fresh.get(v, v))

    def generalize(self, t: Type) -> Scheme:
        """Quantify over every free variable, numbered from 0 left to right for display."""
        numbers: dict[int, TVar] = {}

        def number(v: Type) -> Type:
            return numbers.setdefault(v.id, TVar(len(numbers))) if isinstance(v, TVar) else v

        body = _map(self.deep_resolve(t), number)
        first_order = tuple(new.id for old, new in numbers.items() if old in self._first_order)
        return Scheme(tuple(range(len(numbers))), body, first_order)

    def render(self, t: Type) -> str:
        return str(self.deep_resolve(t))
