"""Generative-model and posterior-sampler contracts.

A generative model couples a prior simulator, a data simulator, and one
posterior density over named parameters.  Scalar quantities of interest map
parameter vectors to the real line; they are what the rank statistics are
computed on.

Samplers never see constrained parameters: every model carries an
unconstraining map (elementwise identity or log), and its density is written
on the unconstrained scale with the log-Jacobian folded in, as in ADVI and
Stan.  That density, bound to one dataset, is the only one a model defines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import NonFiniteParameter, UnknownParameter
from .streams import RandomStream


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ParamVector:
    """An ordered, named point in parameter space (constrained scale)."""

    names: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("ParamVector requires a non-empty 1-d value array")
        if len(self.names) != self.values.size:
            raise ValueError("names and values must have equal length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("parameter names must be unique")
        if not np.all(np.isfinite(self.values)):
            raise NonFiniteParameter(f"non-finite parameter values: {self.values}")

    def value_of(self, name: str) -> float:
        try:
            return float(self.values[self.names.index(name)])
        except ValueError:
            raise UnknownParameter(f"no parameter named {name!r}; have {self.names}") from None

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class Dataset:
    """One simulated (or observed) dataset plus its fixed covariates."""

    observations: np.ndarray
    fixed_covariates: Mapping[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "observations", _readonly(self.observations))
        if not np.all(np.isfinite(self.observations)):
            raise ValueError("observations must be finite")

    @property
    def n_obs(self) -> int:
        return self.observations.shape[0]


@dataclass(frozen=True)
class Quantity:
    """A scalar function of the parameters used as an SBC test statistic.

    ``batch_evaluator`` maps an (n, d) matrix of draws, whose columns are
    named by its second argument, to an n-vector.  A single parameter vector
    is evaluated as a 1-row matrix.
    """

    name: str
    batch_evaluator: Callable[[np.ndarray, tuple[str, ...]], np.ndarray]


def coordinate(name: str) -> Quantity:
    """Projection quantity returning the parameter called ``name``."""

    def _batch(values: np.ndarray, names: tuple[str, ...]) -> np.ndarray:
        try:
            return values[:, names.index(name)]
        except ValueError:
            raise UnknownParameter(f"no parameter named {name!r}; have {names}") from None

    return Quantity(name=name, batch_evaluator=_batch)


class UnconstrainingMap:
    """Elementwise bijection between constrained parameters and R^d.

    Each coordinate is either left alone ("identity") or log-transformed
    ("log", for strictly positive parameters).  A model's unconstrained
    density includes log|d theta / d z|, the sum of its log coordinates.
    """

    def __init__(self, transforms: tuple[str, ...]):
        for t in transforms:
            if t not in ("identity", "log"):
                raise ValueError(f"unknown transform {t!r}")
        self.transforms = transforms
        self._log_mask = np.array([t == "log" for t in transforms])

    def unconstrain(self, values: np.ndarray) -> np.ndarray:
        z = np.array(values, dtype=np.float64)
        z[self._log_mask] = np.log(z[self._log_mask])
        return z

    def constrain_matrix(self, Z: np.ndarray) -> np.ndarray:
        V = np.array(Z, dtype=np.float64)
        V[:, self._log_mask] = np.exp(V[:, self._log_mask])
        return V


class PosteriorTarget:
    """Log density (up to a constant) and gradient on the unconstrained scale."""

    def __init__(self, dimension: int, logpdf: Callable[[np.ndarray], float],
                 grad: Callable[[np.ndarray], np.ndarray]):
        self.dimension = dimension
        self.logpdf = logpdf
        self.grad = grad


@dataclass(frozen=True)
class GenerativeModel:
    """The contract every built-in model implements.

    ``posterior_factory`` binds the model to one dataset and returns its one
    posterior density: log prior + log likelihood at the constrained point
    that the unconstraining map sends z to, plus the map's log-Jacobian,
    defined up to an additive constant, with its gradient in z.
    """

    name: str
    parameter_names: tuple[str, ...]
    prior_simulator: Callable[[RandomStream], ParamVector]
    data_simulator: Callable[[ParamVector, RandomStream], Dataset]
    posterior_factory: Callable[[Dataset], PosteriorTarget]
    quantities: tuple[Quantity, ...]
    unconstraining_map: UnconstrainingMap
    exact_posterior: Callable[[Dataset], tuple[float, float]] | None = None

    def quantity(self, name: str) -> Quantity:
        for q in self.quantities:
            if q.name == name:
                return q
        raise UnknownParameter(f"model {self.name!r} has no quantity {name!r}")


@dataclass(frozen=True)
class PosteriorDraws:
    """An ordered collection of parameter draws from one posterior fit.

    Rows of ``values`` are draws on the constrained scale, columns follow
    ``names``.  ``diagnostics`` carries sampler metadata (acceptance rate,
    divergence count, energy errors) and is not part of equality-sensitive
    state for persistence.
    """

    names: tuple[str, ...]
    values: np.ndarray
    sampler_name: str
    chain_length_raw: int
    thinned: bool = False
    rng_stream_id: str = ""
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ValueError("draws must form a non-empty (n, d) matrix")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("posterior draws must be finite")

    def __len__(self) -> int:
        return self.values.shape[0]


def draw_prior(model: GenerativeModel, rng: RandomStream) -> ParamVector:
    """Sample one parameter vector from the model's prior."""
    return model.prior_simulator(rng)


def draw_data(model: GenerativeModel, theta: ParamVector, rng: RandomStream) -> Dataset:
    """Simulate one dataset from the model's data generating process at ``theta``."""
    if not np.all(np.isfinite(theta.values)):
        raise NonFiniteParameter("cannot simulate data from non-finite parameters")
    return model.data_simulator(theta, rng)


def evaluate_series(q: Quantity, draws: PosteriorDraws) -> np.ndarray:
    """Evaluate a quantity over every draw."""
    return np.asarray(q.batch_evaluator(draws.values, draws.names), dtype=np.float64)


def posterior_target(model: GenerativeModel, data: Dataset) -> PosteriorTarget:
    """Bind a model to one dataset as its unconstrained-scale target."""
    return model.posterior_factory(data)
