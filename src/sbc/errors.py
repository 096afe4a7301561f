"""Exception types shared across the package, and the config number checks that raise them."""

import math


class SbcError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(SbcError):
    """A model specification violates its invariants (e.g. non-positive scale)."""


class NonFiniteParameter(SbcError):
    """A parameter vector contains NaN or infinite entries."""


class NonFiniteInput(SbcError):
    """A numeric input that must be finite is not."""


class NonFiniteDensity(SbcError):
    """The log posterior density is non-finite at a chain's initial point."""


class UnknownParameter(SbcError):
    """A quantity or corruption references a parameter name that does not exist."""


class UnknownQuantity(SbcError):
    """A report references a quantity absent from the run artifact."""


class NotConjugate(SbcError):
    """The exact-conjugate sampler was asked to fit a non-conjugate model."""


class Diverged(SbcError):
    """The variational objective became non-finite during optimization."""


class AllConstant(SbcError):
    """No registered quantity has an effective-size estimate: each is constant or degenerate."""


class TooShort(SbcError):
    """A chain is shorter than the number of draws requested from it."""


class IndivisibleBinning(SbcError):
    """The requested bin count does not divide the number of rank values."""


class FailureRateExceeded(SbcError):
    """Too many replications failed; the run was aborted."""


class FormatVersionMismatch(SbcError):
    """A persisted artifact has an unsupported major format version."""


class ChecksumMismatch(SbcError):
    """A persisted artifact file does not match its recorded checksum."""


class ConfigError(SbcError):
    """A run configuration file is malformed or inconsistent."""


class InvalidArtifact(SbcError):
    """A persisted artifact's rank table is malformed or inconsistent with its config."""


def require_integers(error: type[SbcError], owner: str, **fields) -> None:
    """Raise ``error`` unless every field is an int; a bool is not one."""
    for name, value in fields.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise error(f"{owner}.{name} must be an integer, got {value!r}")


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or float, not a bool, that is finite as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def require_finite(error: type[SbcError], owner: str, **fields) -> None:
    """Raise ``error`` unless every field is a finite number (see :func:`is_finite_number`)."""
    for name, value in fields.items():
        if not is_finite_number(value):
            raise error(f"{owner}.{name} must be a finite number, got {value!r}")
