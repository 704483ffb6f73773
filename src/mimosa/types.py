"""Types, type schemes, and unification.

Channels and step signatures use the concrete fragment (no variables, no
functions); inference introduces variables and function types internally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Diagnostic, Span, TypeCheckError


class Type:
    pass


@dataclass(frozen=True)
class TInt(Type):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class TBool(Type):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class TReal(Type):
    def __str__(self) -> str:
        return "real"


@dataclass(frozen=True)
class TUnit(Type):
    def __str__(self) -> str:
        return "unit"


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


INT = TInt()
BOOL = TBool()
REAL = TReal()
UNIT = TUnit()


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


def is_first_order(t: Type) -> bool:
    """True if t contains no function type (channel element types must)."""
    match t:
        case TFunc():
            return False
        case TOption(elem):
            return is_first_order(elem)
        case TTuple(items):
            return all(is_first_order(i) for i in items)
        case _:
            return True


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
        t = self.resolve(t)
        match t:
            case TOption(elem):
                return TOption(self.deep_resolve(elem))
            case TTuple(items):
                return TTuple(tuple(self.deep_resolve(i) for i in items))
            case TFunc(arg, result):
                return TFunc(self.deep_resolve(arg), self.deep_resolve(result))
            case _:
                return t

    def free_vars(self, t: Type) -> set[int]:
        t = self.resolve(t)
        match t:
            case TVar(i):
                return {i}
            case TOption(elem):
                return self.free_vars(elem)
            case TTuple(items):
                return set().union(*(self.free_vars(i) for i in items))
            case TFunc(arg, result):
                return self.free_vars(arg) | self.free_vars(result)
            case _:
                return set()

    def unify(self, a: Type, b: Type, span: Span, file: str = "<string>") -> None:
        a = self.resolve(a)
        b = self.resolve(b)
        if a == b:
            return
        if isinstance(a, TVar):
            if a.id in self.free_vars(b):
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
        mapping = {v: self.fresh() for v in scheme.vars}

        def walk(t: Type) -> Type:
            match t:
                case TVar(i) if i in mapping:
                    return mapping[i]
                case TOption(elem):
                    return TOption(walk(elem))
                case TTuple(items):
                    return TTuple(tuple(walk(i) for i in items))
                case TFunc(arg, result):
                    return TFunc(walk(arg), walk(result))
                case _:
                    return t

        return walk(scheme.body)

    def generalize(self, t: Type) -> Scheme:
        """Quantify over every free variable, renumbering from 0 for display."""
        t = self.deep_resolve(t)
        order: list[int] = []

        def collect(t: Type):
            match t:
                case TVar(i):
                    if i not in order:
                        order.append(i)
                case TOption(elem):
                    collect(elem)
                case TTuple(items):
                    for i in items:
                        collect(i)
                case TFunc(arg, result):
                    collect(arg)
                    collect(result)

        collect(t)
        mapping = {old: TVar(new) for new, old in enumerate(order)}

        def rename(t: Type) -> Type:
            match t:
                case TVar(i):
                    return mapping[i]
                case TOption(elem):
                    return TOption(rename(elem))
                case TTuple(items):
                    return TTuple(tuple(rename(i) for i in items))
                case TFunc(arg, result):
                    return TFunc(rename(arg), rename(result))
                case _:
                    return t

        return Scheme(tuple(range(len(order))), rename(t))

    def render(self, t: Type) -> str:
        return str(self.deep_resolve(t))
