"""Diagnostics and the exception hierarchy shared by all passes."""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Union


# Built only when a diagnostic or an evaluator message needs one: the lexer
# and the parser record locations (see `Loc`), not spans. Nothing assigns to
# a span's fields; the hash keeps it usable as a field default.
@dataclass(slots=True, unsafe_hash=True)
class Span:
    """1-based source region. Synthetic nodes use the zero span."""

    line: int = 0
    col: int = 0
    end_line: int = 0
    end_col: int = 0

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


SYNTHETIC = Span()

# Where a node came from: a `Span` (the zero span for a synthetic node), a
# token of the parser (a leaf's), or a pair of tokens (the first and last of
# a composite node). A token is a 5-tuple (kind, text, offset, value, source).
Loc = Union[Span, tuple]


def span_of(loc: Loc) -> Span:
    """The `Span` of a location; a token's is its characters, and the end of
    input's the column after the last."""
    if type(loc) is not tuple:
        return loc
    if len(loc) == 2:
        first, last = span_of(loc[0]), span_of(loc[1])
        return Span(first.line, first.col, last.end_line, last.end_col)
    _, text, offset, _, source = loc
    line, col = source.locate(offset)
    return Span(line, col, line, col + max(len(text), 1) - 1)


class Located:
    """A node whose source location is its field `loc`."""

    __slots__ = ()

    @property
    def span(self) -> Span:
        return span_of(self.loc)


class Source:
    """A source text whose first line is line `first_line` of `file`. It turns
    offsets into lines and columns through a table of line starts, made on
    first use: a source that raises no diagnostic never needs it."""

    __slots__ = ("text", "first_line", "file", "_starts")

    def __init__(self, text: str, first_line: int = 1, file: str = "<string>"):
        self.text = text
        self.first_line = first_line
        self.file = file
        self._starts: list[int] | None = None

    def locate(self, offset: int) -> tuple[int, int]:
        """The line and column of the character at `offset`."""
        starts = self._starts
        if starts is None:
            starts = self._starts = [0, *(m.end() for m in re.finditer("\n", self.text))]
        i = bisect_right(starts, offset) - 1
        return self.first_line + i, offset - starts[i] + 1


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Span = SYNTHETIC
    severity: str = "error"
    file: str = "<string>"
    argument: str | None = None  # a command-line option, reported instead of a file position

    @classmethod
    def at(cls, message: str, loc: Loc) -> Diagnostic:
        """An error at `loc`, in the file of its token (a pair's first); a `Span` names `<string>`."""
        token = loc[0] if type(loc) is tuple and len(loc) == 2 else loc
        return cls(message, span_of(loc), file=token[4].file if type(token) is tuple else "<string>")

    def text(self) -> str:
        if self.argument is not None:
            return f"argument {self.argument}: {self.severity}: {self.message}"
        where = self.file if self.span == SYNTHETIC else f"{self.file}:{self.span}"
        return f"{where}: {self.severity}: {self.message}"

    def as_dict(self) -> dict:
        """The JSON form; a diagnostic about a whole file has no line or column."""
        if self.argument is not None:
            return {"argument": self.argument, "severity": self.severity, "message": self.message}
        where = {} if self.span == SYNTHETIC else {"line": self.span.line, "col": self.span.col}
        return {"file": self.file, **where, "severity": self.severity, "message": self.message}


def render_diagnostics(diags: list[Diagnostic], fmt: str = "text") -> str:
    if fmt == "json":
        return json.dumps([d.as_dict() for d in diags], indent=2)
    return "\n".join(d.text() for d in diags)


class MimosaError(Exception):
    """Base for all user-facing failures; carries structured diagnostics."""

    def __init__(self, diagnostics: list[Diagnostic] | str):
        if isinstance(diagnostics, str):
            diagnostics = [Diagnostic(diagnostics)]
        self.diagnostics = diagnostics
        super().__init__("; ".join(d.message for d in diagnostics))

    def in_file(self, file: str) -> MimosaError:
        """This error, with `file` named on each diagnostic that points at no source text."""
        self.diagnostics = [replace(d, file=file) if d.file == "<string>" else d for d in self.diagnostics]
        return self


class ParseError(MimosaError):
    pass


class TypeCheckError(MimosaError):
    pass


class CausalityError(MimosaError):
    pass


class InitError(MimosaError):
    pass


class NetworkError(MimosaError):
    pass


class EvalError(MimosaError):
    """Runtime failure inside expression evaluation."""


class UndefEscape(EvalError):
    """An undefined value reached a position that must be defined.

    Signals an initialization-analysis escape: cannot happen for checked programs.
    """


class InternalError(MimosaError):
    """Broken internal invariant (a bug, not a user error)."""


class SimError(MimosaError):
    pass


def read_text(path: str, error: type[MimosaError] = MimosaError) -> str:
    """The text of the UTF-8 file at `path`, with newlines translated as open()
    does. A file that cannot be read raises `error` naming it; one that is not
    UTF-8, located at its first bad byte."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise error([Diagnostic(f"cannot read file: {exc.strerror or exc}", file=path)]) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, line_start) + 1
        col = len(data[line_start : exc.start].decode("utf-8")) + 1
        raise error(
            [Diagnostic(f"file is not UTF-8 text ({exc.reason})", Span(line, col, line, col), file=path)]
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
