"""Exception types, and the parameter rules, shared across the package."""

from __future__ import annotations

import math


class CoupleFixError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CoupleFixError):
    """A point or argument lies outside the domain it is used with."""


class ParameterError(CoupleFixError):
    """A constructor received parameters outside its admissible range."""


class ExprSyntaxError(CoupleFixError):
    """Raised when expression text cannot be parsed.

    Carries 1-based ``line`` and ``column`` of the offending token and,
    when known, the set of token kinds that would have been accepted.
    """

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.column = column
        self.expected = expected
        where = f" at line {line}, column {column}"
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(message + where + hint)


class ExprEvalError(CoupleFixError):
    """Evaluation of a parsed expression failed (unbound variable,
    division by zero, or no piecewise arm matched)."""


class DocumentError(CoupleFixError):
    """A problem document is malformed.

    ``key`` holds the dotted path of the offending entry when known.
    """

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        prefix = f"{key}: " if key else ""
        super().__init__(prefix + message)


class BudgetError(CoupleFixError):
    """A sampled search grew past its configured budget."""


def positive_finite(name: str, value: float) -> float:
    """``value``; a :class:`ParameterError` naming ``name`` unless it is a
    positive finite number."""
    if not (value > 0 and math.isfinite(value)):
        raise ParameterError(f"{name} must be a positive finite float, got {value}")
    return value


def at_least_one(name: str, value: int) -> int:
    """``value``; a :class:`ParameterError` naming ``name`` when it is below 1."""
    if value < 1:
        raise ParameterError(f"{name} must be at least 1, got {value}")
    return value


def nonnegative(name: str, value: int) -> int:
    """``value``; a :class:`ParameterError` naming ``name`` when it is below 0."""
    if value < 0:
        raise ParameterError(f"{name} must be nonnegative, got {value}")
    return value
