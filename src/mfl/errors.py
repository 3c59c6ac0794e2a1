"""Error hierarchy shared by the parser, typechecker and evaluators."""

from __future__ import annotations


class MflError(Exception):
    """Base class for every error raised on behalf of an MFL program."""


class ParseError(MflError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: syntax: {message}")
        self.line = line
        self.col = col
        self.message = message


class DuplicateDeclError(ParseError):
    def __init__(self, line: int, col: int, name: str):
        super().__init__(line, col, f"duplicate declaration of '{name}'")
        self.name = name


class MflTypeError(MflError):
    """Typechecking failure.

    `kind` is one of: UnboundVar, UnboundResource, ResourceInReturn,
    ResourceInBang, NotIndexable, Mismatch, ArityOrOp.
    """

    def __init__(self, kind, pos, message, expected=None, found=None, name=None):
        line, col = pos if pos else (0, 0)
        super().__init__(f"{line}:{col}: {kind}: {message}")
        self.kind = kind
        self.pos = pos
        self.message = message
        self.expected = expected
        self.found = found
        self.name = name


class MflRuntimeError(MflError):
    """An error raised while evaluating a program."""


class Stuck(MflRuntimeError):
    """No evaluation rule applies; unreachable for typechecked input."""


class DivisionByZero(MflRuntimeError):
    pass


class DepthExceeded(MflRuntimeError):
    """The function-application nesting guard tripped."""


class InternalInvariantError(MflError):
    """A run-time check on the machinery itself failed; always a bug."""


class DuplicateBranch(InternalInvariantError):
    """A memo table was asked to overwrite an existing branch binding."""


class PrefixViolation(InternalInvariantError):
    """A stored branch would be a strict prefix of another stored branch."""


class NonIndexableValue(InternalInvariantError):
    """index_of was applied to a value without an index function."""
