"""Diagnostics and the exception hierarchy shared by all passes."""

from __future__ import annotations

import json
from dataclasses import dataclass


# Not frozen: the lexer and the parser make one span per token and per node,
# and a frozen dataclass costs five times as much to construct. Nothing
# assigns to a span's fields; the hash keeps it usable as a field default.
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


@dataclass(frozen=True)
class Diagnostic:
    message: str
    span: Span = SYNTHETIC
    severity: str = "error"
    file: str = "<string>"

    def text(self) -> str:
        return f"{self.file}:{self.span.line}:{self.span.col}: {self.severity}: {self.message}"

    def as_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.span.line,
            "col": self.span.col,
            "severity": self.severity,
            "message": self.message,
        }


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
