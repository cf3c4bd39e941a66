"""Shared error types.

Every domain failure raised by this package derives from :class:`WeylvalError`
so the CLI can map them to a structured error report and exit code 1.
"""

from __future__ import annotations


class WeylvalError(Exception):
    """Base class for all domain errors raised by this package."""

    #: short machine-readable tag used in CLI error reports
    kind = "error"

    def payload(self) -> dict:
        return {"type": self.kind, "detail": str(self)}


class NoRationalRoot(WeylvalError):
    """An exact n-th root was required but does not exist in Q."""

    kind = "NoRationalRoot"


class EvenRootOfNegative(WeylvalError):
    """An even root of a negative rational was requested."""

    kind = "EvenRootOfNegative"


class MissingSignChoice(WeylvalError):
    """A residue unit needs a stored sign that the descriptor does not carry."""

    kind = "MissingSignChoice"


class DeclarationInconsistent(WeylvalError):
    """A declared property of a descriptor contradicts its own data."""

    kind = "DeclarationInconsistent"


class NegativeXPower(WeylvalError):
    """An expanded normal form would need a negative power of x."""

    kind = "NegativeXPower"


class DepthExceeded(WeylvalError):
    """Value resolution needed descriptor data beyond the allowed depth."""

    kind = "DepthExceeded"

    def __init__(self, message: str, consulted: int | None = None):
        super().__init__(message)
        self.consulted = consulted


class BudgetExceeded(WeylvalError):
    """A computation would exceed one of the package's declared size budgets."""

    kind = "BudgetExceeded"


class NonzeroValue(WeylvalError):
    """A residue was requested for an element of nonzero value."""

    kind = "NonzeroValue"


class NonzeroRequired(WeylvalError):
    """An operation required a nonzero element (e.g. a fraction denominator)."""

    kind = "NonzeroRequired"


class TruncationLoss(WeylvalError):
    """A series computation cannot certify its leading term at the known precision."""

    kind = "TruncationLoss"


class SignChoiceRequired(WeylvalError):
    """A free residue-sign slot exists but no choice was supplied."""

    kind = "SignChoiceRequired"


class SignChoiceForbidden(WeylvalError):
    """A sign choice was supplied but the descriptor has no free sign slot."""

    kind = "SignChoiceForbidden"


class NotExtendable(WeylvalError):
    """An ordering (or descriptor) does not extend to the bigger ring."""

    kind = "NotExtendable"


class ConversionInternalError(WeylvalError):
    """The descriptor-to-difference-sequence conversion hit a case it cannot decide."""

    kind = "ConversionInternalError"


class ParseError(WeylvalError):
    """Malformed textual input (expression, series, rational, JSON shape)."""

    kind = "ParseError"
