"""Exception types shared across the toolkit.

Each carries the short error code used in diagnostics and by the CLI.
"""


class RwcError(Exception):
    """Base class for all toolkit errors."""

    code = "E_ERROR"

    def __str__(self):
        msg = super().__str__()
        return f"{self.code}: {msg}" if msg else self.code


class RuleSyntaxError(RwcError):
    """Rule-file or expression syntax error, with source location."""

    code = "E_SYNTAX"

    def __init__(self, message, line=None, col=None):
        super().__init__(message)
        self.line = line
        self.col = col

    def __str__(self):
        loc = ""
        if self.line is not None:
            loc = f" (line {self.line}, col {self.col})"
        return f"{self.code}: {Exception.__str__(self)}{loc}"


class UnknownSymbolError(RwcError):
    code = "E_UNKNOWN_SYMBOL"


class PhiNullableError(RwcError):
    code = "E_PHI_NULLABLE"


class PsiEmptyError(RwcError):
    code = "E_PSI_EMPTY"


class NegativeWeightError(RwcError):
    code = "E_NEGATIVE_WEIGHT"


class WeightOverflowError(RwcError, ValueError):
    """A sum of finite path weights overflowed the float range."""

    code = "E_WEIGHT_OVERFLOW"


class WeightedInputError(RwcError, ValueError):
    """An operation that reads an unweighted acceptor was given weights."""

    code = "E_WEIGHTED"


class EmptyLanguageError(RwcError):
    code = "E_EMPTY_LANGUAGE"


class NotDeterministicError(RwcError):
    code = "E_NOT_DETERMINISTIC"


class NotCompleteError(RwcError):
    code = "E_NOT_COMPLETE"


class BadMarkerSpecError(RwcError):
    code = "E_BAD_SPEC"


class BadOptionError(RwcError):
    code = "E_BAD_OPTION"


def at_least(option, value, low):
    """Raise BadOptionError unless `value` is None or at least `low`."""
    if value is not None and value < low:
        raise BadOptionError(f"{option} must be at least {low}, not {value}")


class DivergentError(RwcError):
    """Enumeration bound exceeded while rewriting with an infinite psi."""

    code = "E_DIVERGENT"


class FormatError(RwcError):
    """Malformed FST text file."""

    code = "E_FORMAT"


class InputBudgetError(RwcError):
    """An exhaustive sweep would visit more inputs than its budget."""

    code = "E_BUDGET"


class DeadlineExceeded(RwcError):
    """Cooperative timeout raised inside long-running constructions."""

    code = "E_TIMEOUT"
