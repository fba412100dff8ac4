"""Exception types shared across the toolkit.

Everything derives from ValueError so callers that do not care about the
fine-grained class can still catch bad input generically.
"""


class ToolkitError(ValueError):
    """Base class for all stratacheck errors."""


class NonSaturationError(ToolkitError):
    """A degree bound was too small to certify a generating set.

    Carries the first invariant monomial that does not factor into the
    candidate generators as ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InvolutionError(ToolkitError):
    """A coordinate involution is malformed or incompatible with an action."""


class QuasiReflectionError(ToolkitError):
    """A group element fixes a hyperplane, so the age test does not apply."""


class InconsistentInputError(ToolkitError):
    """An exact solve has no admissible (non-negative / integral) solution."""


class LedgerError(ToolkitError):
    """A stratification ledger is incomplete or internally inconsistent."""


class ConfigError(ToolkitError):
    """A configuration document failed schema validation."""
