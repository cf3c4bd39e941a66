"""Shared error types.

Every domain failure raised by this package derives from :class:`WeylvalError`
so the CLI can map them to a structured error report and exit code 1.
"""

from __future__ import annotations


class WeylvalError(Exception):
    """Base class for all domain errors raised by this package."""

    def payload(self) -> dict:
        """The CLI error report: the class name as its type tag."""
        return {"type": type(self).__name__, "detail": str(self)}


class NoRationalRoot(WeylvalError):
    """An exact n-th root was required but does not exist in Q."""


class EvenRootOfNegative(WeylvalError):
    """An even root of a negative rational was requested."""


class MissingSignChoice(WeylvalError):
    """A residue unit needs a stored sign that the descriptor does not carry."""


class DeclarationInconsistent(WeylvalError):
    """A declared property of a descriptor contradicts its own data."""


class NegativeXPower(WeylvalError):
    """An expanded normal form would need a negative power of x."""


class DepthExceeded(WeylvalError):
    """Value resolution needed descriptor data beyond the allowed depth.

    In the evaluator a step counts against the depth limit when a
    generator's value is read or a tower divisor is chosen; `consulted`
    names the step.  Reading past the data a descriptor or z-sequence
    holds raises it too.
    """

    def __init__(self, message: str, consulted: int | None = None):
        super().__init__(message)
        self.consulted = consulted


class BudgetExceeded(WeylvalError):
    """A computation would exceed one of the package's declared size budgets."""


class NonzeroValue(WeylvalError):
    """A residue was requested for an element of nonzero value."""


class NonzeroRequired(WeylvalError):
    """An operation required a nonzero element (e.g. a fraction denominator)."""


class TruncationLoss(WeylvalError):
    """A series computation cannot certify its leading term at the known precision."""


class SignChoiceRequired(WeylvalError):
    """A free residue-sign slot exists but no choice was supplied."""


class SignChoiceForbidden(WeylvalError):
    """A sign choice was supplied but the descriptor has no free sign slot."""


class NotExtendable(WeylvalError):
    """An ordering (or descriptor) does not extend to the bigger ring."""


class ConversionInternalError(WeylvalError):
    """The descriptor-to-difference-sequence conversion hit a case it cannot decide."""


class ParseError(WeylvalError):
    """Malformed textual input (expression, series, rational, JSON shape)."""


def clipped(text: str) -> str:
    """Input echoed in an error message (a repr, or an error text that quotes
    the input), cut to 80 characters ending in "...", so that a report stays
    small whatever input it rejects."""
    return text if len(text) <= 80 else text[:77] + "..."
