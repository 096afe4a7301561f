"""Generative-model and posterior-sampler contracts.

A generative model couples a prior simulator, a data simulator, and one
posterior density over named parameters.  Scalar quantities of interest map
parameter vectors to the real line; they are what the rank statistics are
computed on.

Samplers never see constrained parameters: every model carries an
unconstraining map (elementwise identity or log), and its density is written
on the unconstrained scale with the log-Jacobian folded in, as in ADVI and
Stan.  That density is the only one a model defines, and it is batched:
bound to R datasets, it evaluates an (R, d) matrix of points, row r against
dataset r, so that samplers can advance R replications in lockstep.  A row's
value depends on that row alone, never on how many rows share the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

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
        if not np.isfinite(self.values).all():
            raise NonFiniteParameter(f"non-finite parameter values: {self.values}")


@dataclass(frozen=True)
class Dataset:
    """One simulated (or observed) dataset."""

    observations: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "observations", _readonly(self.observations))
        if not np.isfinite(self.observations).all():
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


@dataclass(frozen=True)
class PosteriorTarget:
    """Log density (up to a constant) and gradient on the unconstrained scale.

    Bound to R datasets: ``logpdf`` maps an (R, d) matrix Z to the R-vector of
    log densities, row r at dataset r, and ``grad`` maps Z to the (R, d)
    matrix of gradients.  Points where the arithmetic overflows give
    non-finite values; samplers call both under ``np.errstate`` and mask
    those rows.
    """

    logpdf: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class GenerativeModel:
    """The contract every built-in model implements.

    ``posterior_factory`` binds the model to a sequence of datasets and
    returns its one posterior density, batched over them: log prior + log
    likelihood at the constrained point that the unconstraining map sends z
    to, plus the map's log-Jacobian, defined up to an additive constant, with
    its gradient in z (see :class:`PosteriorTarget`).
    """

    name: str
    parameter_names: tuple[str, ...]
    prior_simulator: Callable[[RandomStream], ParamVector]
    data_simulator: Callable[[ParamVector, RandomStream], Dataset]
    posterior_factory: Callable[[Sequence[Dataset]], PosteriorTarget]
    quantities: tuple[Quantity, ...]
    unconstraining_map: UnconstrainingMap
    exact_posterior: Callable[[Dataset], tuple[float, float]] | None = None


@dataclass(frozen=True)
class PosteriorDraws:
    """An ordered collection of parameter draws from one posterior fit.

    Rows of ``values`` are draws on the constrained scale, columns follow
    ``names``; ``chain_length_raw`` is the length of the chain before any
    thinning.  ``diagnostics`` holds the MCMC samplers' health for the run's
    ``meta.json``: acceptance rate and final step size, and for HMC the
    divergence count.
    """

    names: tuple[str, ...]
    values: np.ndarray
    chain_length_raw: int
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.values.ndim != 2 or self.values.shape[0] < 1:
            raise ValueError("draws must form a non-empty (n, d) matrix")
        if not np.isfinite(self.values).all():
            raise ValueError("posterior draws must be finite")

    def __len__(self) -> int:
        return self.values.shape[0]


def posterior_target(model: GenerativeModel, datasets: Sequence[Dataset]) -> PosteriorTarget:
    """Bind a model to datasets as its batched unconstrained-scale target (row r: dataset r)."""
    return model.posterior_factory(datasets)
