"""Exception types shared across the package, the rules that config fields state beside
them, and the one strict parser of a JSON config object."""

import math
from dataclasses import MISSING, field, fields
from typing import Any, Callable, NamedTuple


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


class ConfigError(SbcError):
    """A run configuration file is malformed or inconsistent."""


class InvalidArtifact(SbcError):
    """A persisted artifact is damaged: a file is missing, malformed, inconsistent with its
    config, or not what the writer writes."""


class ChecksumMismatch(InvalidArtifact):
    """A persisted artifact's sha256sums.txt is not the writer's checksums of its files."""


class Rule(NamedTuple):
    """What a config value must be: ``text`` ends the sentence "<field> must be ...", and
    ``test`` tells whether a value is that."""

    text: str
    test: Callable[[Any], bool]


def checked(rule: Rule, default=MISSING, **kwargs):
    """A dataclass field whose value :func:`check_fields` holds to ``rule``."""
    return field(default=default, metadata={"rule": rule}, **kwargs)


def check_fields(obj, error: type[Exception], prefix: str | None = None) -> None:
    """Raise ``error`` for the first field of dataclass ``obj`` whose value its rule refuses,
    naming the field after ``prefix``, by default the class name and a dot."""
    prefix = f"{type(obj).__name__}." if prefix is None else prefix
    for f in fields(obj):
        rule, value = f.metadata.get("rule"), getattr(obj, f.name)
        if rule is not None and not rule.test(value):
            raise error(f"{prefix}{f.name} must be {rule.text}, got {value!r}")


def is_integer(value) -> bool:
    """Whether ``value`` is an int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """Whether ``value`` is an int or float, not a bool, that is finite as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def integer(at_least: int, at_most: int | None = None) -> Rule:
    if at_most is None:
        return Rule(f"an integer >= {at_least}", lambda v: is_integer(v) and v >= at_least)
    return Rule(f"an integer in [{at_least}, {at_most}]",
                lambda v: is_integer(v) and at_least <= v <= at_most)


def one_of(*choices) -> Rule:
    return Rule("one of " + ", ".join(map(repr, choices)), lambda v: v in choices)


FINITE = Rule("a finite number", is_finite_number)
POSITIVE = Rule("a finite number > 0", lambda v: is_finite_number(v) and v > 0)
NON_NEGATIVE = Rule("a finite number >= 0", lambda v: is_finite_number(v) and v >= 0)
BOOLEAN = Rule("a boolean", lambda v: type(v) is bool)


def parse(cls, obj, error: type[SbcError], what: str, required=(), **nested):
    """``cls`` built from the JSON object ``obj``, whose keys must be among ``cls``'s fields
    and include ``required``; the value of each key named in ``nested`` is first passed
    through that function.  Any other error becomes ``error``, "invalid <what>: ..."; one
    that already is an ``error`` is raised as it is."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object")
    unknown = set(obj) - {f.name for f in fields(cls)}
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise error(f"missing {what} keys: {sorted(missing)}")
    try:
        return cls(**{k: nested[k](v) if k in nested else v for k, v in obj.items()})
    except error:
        raise
    except (TypeError, SbcError) as exc:
        raise error(f"invalid {what}: {exc}") from exc
