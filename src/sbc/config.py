"""The run configuration: what a run does, parsed strictly from its JSON shape.

A :class:`RunConfig` names a model spec, a :class:`SamplerConfig`, a
:class:`Corruption` and the run's sizes; each field states its rule beside
it.  A RunConfig builds its model once when it is made and checks itself
against it (see :func:`check_model`), so that a config that would fail every
replication is refused with ConfigError before anything runs, however it was
made.  :func:`config_from_dict` parses one from a JSON object.  This module
needs only the model layer, so a config can be checked without loading the
run, report or pool layers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial

from .errors import (
    FINITE,
    POSITIVE,
    ConfigError,
    InvalidSpec,
    Rule,
    SbcError,
    check_fields,
    checked,
    integer,
    one_of,
    parse,
)
from .model import GenerativeModel
from .models import model_from_dict

SAMPLER_KINDS = ("exact-conjugate", "rw-metropolis", "hmc", "meanfield-vi")
MCMC_KINDS = ("rw-metropolis", "hmc")
DEFAULT_MAX_CHAIN_LENGTH = 100_000
# A run aborts once more than floor(FAILURE_RATE_CAP * N) replications fail,
# so no failure is allowed when N < 100.
FAILURE_RATE_CAP = 0.01


@dataclass(frozen=True)
class SamplerConfig:
    kind: str = checked(one_of(*SAMPLER_KINDS), "exact-conjugate")
    step_size: float = checked(POSITIVE, 0.5)
    n_leapfrog: int = checked(integer(1), 10)
    # One eight-schools row's (vi_iterations, 10) noise then takes 320 MiB.
    vi_iterations: int = checked(integer(1, 2**22), 10_000)
    vi_learning_rate: float = checked(POSITIVE, 0.05)
    warmup: int = checked(integer(0, 2**22), 200)  # see RunConfig.max_chain_length

    def __post_init__(self):
        check_fields(self, InvalidSpec)


@dataclass(frozen=True)
class Corruption:
    """Deterministic defect injected into posterior draws.

    ``shift`` adds ``amount`` to one coordinate (posterior biased by +amount);
    ``scale`` multiplies that coordinate's deviations from the draw mean by
    ``amount`` (overdispersed posterior for amount > 1, underdispersed below).
    """

    kind: str = checked(one_of("none", "shift", "scale"), "none")
    amount: float = checked(FINITE, 0.0)
    target_quantity: str = ""

    def __post_init__(self):
        check_fields(self, InvalidSpec)
        if self.kind == "scale" and not self.amount > 0:
            raise InvalidSpec("scale corruption requires amount > 0")
        if self.kind != "none" and not self.target_quantity:
            raise InvalidSpec("corruption requires a target_quantity")


@dataclass(frozen=True)
class RunConfig:
    model: dict = checked(Rule("a JSON object", lambda v: isinstance(v, dict)),
                          default_factory=lambda: {"kind": "normal-normal"})
    sampler: SamplerConfig = checked(
        Rule("a SamplerConfig", lambda v: isinstance(v, SamplerConfig)),
        default_factory=SamplerConfig)
    corruption: Corruption = checked(
        Rule("a Corruption", lambda v: isinstance(v, Corruption)), default_factory=Corruption)
    N: int = checked(integer(1, 2**32), 2000)  # replication i < 2**32 owns Philox counter block i
    L: int = checked(integer(1, 2**20), 99)  # a block's (128, L) draws of a coordinate: 1 GiB
    thinning: str = checked(one_of("off", "algorithm-2"), "off")
    master_seed: int = checked(integer(0), 0)
    # With warmup <= 2**22 too, one eight-schools row's (warmup + length, 10) noise and
    # (length, 10) chain then fit in about 1 GiB.
    max_chain_length: int = checked(integer(1, 2**22), DEFAULT_MAX_CHAIN_LENGTH)
    worker_count_hint: int = checked(integer(1), 1)

    def __post_init__(self):
        # Canonicalize the model mapping through JSON so that save/load
        # round-trips compare equal (tuples become lists, keys become str).
        object.__setattr__(self, "model", json.loads(json.dumps(self.model)))
        check_fields(self, ConfigError)
        if self.thinning == "algorithm-2" and self.sampler.kind not in MCMC_KINDS:
            raise ConfigError("algorithm-2 thinning requires an MCMC sampler")
        if self.max_chain_length < self.L:
            raise ConfigError("max_chain_length must be >= L")
        try:
            model = model_from_dict(self.model)
        except SbcError as exc:
            raise ConfigError(f"invalid model spec: {exc}") from exc
        check_model(self, model)


def config_to_dict(config: RunConfig) -> dict:
    return asdict(config)


def config_from_dict(d: dict) -> RunConfig:
    """Strict parse of the JSON run-config shape; unknown keys are rejected.  The RunConfig
    it makes checks itself against its model."""
    return parse(RunConfig, d, ConfigError, "config", required=("model", "sampler"),
                 sampler=partial(parse, SamplerConfig, error=ConfigError, what="sampler"),
                 corruption=partial(parse, Corruption, error=ConfigError, what="corruption"))


def check_model(config: RunConfig, model: GenerativeModel) -> None:
    """Reject a config that would fail every replication of ``model``, the one it names;
    every RunConfig calls this when it is made."""
    if config.sampler.kind == "exact-conjugate" and model.exact_posterior is None:
        raise ConfigError(f"the exact-conjugate sampler needs a closed-form posterior; "
                          f"model {model.name!r} has none")
    target = config.corruption.target_quantity
    if config.corruption.kind != "none" and target not in model.parameter_names:
        raise ConfigError(f"corruption target {target!r} is not a parameter of model "
                          f"{model.name!r}; choose from {list(model.parameter_names)}")
