"""Generative-model and posterior-sampler contracts.

A generative model couples a prior simulator, a data simulator, and one
posterior density over named parameters.  Its simulators return plain
arrays: a (d,) parameter vector on the constrained scale and an (n,)
observation vector.  A runner stacks a block of R replications' draws as
(R, d) and (R, n) arrays and checks them once; densities and the exact
posterior take the (R, n) observations.  Scalar quantities of interest map
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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownParameter
from .streams import RandomStream


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

    ``prior_simulator`` draws a (d,) parameter vector, in the order of
    ``parameter_names``, from a stream; ``data_simulator`` draws an (n,)
    observation vector given one.  Neither checks its output: the runner
    checks a block's draws once.  ``posterior_factory`` binds the model to
    an (R, n) array of observations, one dataset per row, and returns its
    one posterior density, batched over them: log prior + log likelihood at
    the constrained point that the unconstraining map sends z to, plus the
    map's log-Jacobian, defined up to an additive constant, with its
    gradient in z (see :class:`PosteriorTarget`).  A model with one
    parameter and a closed-form posterior has ``exact_posterior``, which
    maps (R, n) observations to the R posterior means and the R standard
    deviations.
    """

    name: str
    parameter_names: tuple[str, ...]
    prior_simulator: Callable[[RandomStream], np.ndarray]
    data_simulator: Callable[[np.ndarray, RandomStream], np.ndarray]
    posterior_factory: Callable[[np.ndarray], PosteriorTarget]
    quantities: tuple[Quantity, ...]
    unconstraining_map: UnconstrainingMap
    exact_posterior: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]] | None = None


def posterior_target(model: GenerativeModel, observations: np.ndarray) -> PosteriorTarget:
    """Bind a model to (R, n) observations as its batched unconstrained-scale target (row r:
    dataset r)."""
    return model.posterior_factory(observations)
