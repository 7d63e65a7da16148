"""Exception hierarchy shared by all ruledkit modules.

Exit codes used by the CLI: 2 for input/validation problems, 3 for
numeric failures (degeneracy, singular points, pivoting), 4 for a
failed self-test run.
"""


class RuledKitError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ValidationError(RuledKitError):
    """Bad input: dimension mismatch, malformed scene, violated invariant."""

    exit_code = 2


class DomainError(ValidationError):
    """Evaluation requested outside a field's parameter domain."""


class ConfigError(ValidationError):
    """Unknown builtin family name or inconsistent configuration."""


class NumericError(RuledKitError):
    """A numeric precondition failed during computation."""

    exit_code = 3


class DegeneracyError(NumericError):
    """Vectors expected to be independent are (numerically) dependent."""


class RegularityError(NumericError):
    """An operation that requires a regular point hit a singular one."""


class FrameError(NumericError):
    """Frame fields are not orthonormal within tolerance."""


class PivotError(NumericError):
    """No frame permutation achieves the degree condition."""
