"""Shared test fixtures: small hand-built models with known geometry."""

import numpy as np
import pytest

from sbc.model import (
    Dataset,
    GenerativeModel,
    ParamVector,
    PosteriorTarget,
    UnconstrainingMap,
    coordinate,
)


def _fixed_dataset(*_args):
    return Dataset(np.array([0.0]))


def make_gaussian_model(precision: np.ndarray, names=None) -> GenerativeModel:
    """Zero-mean Gaussian posterior with the given precision matrix.

    The data simulator is a stub (the density ignores the dataset), which is
    enough to exercise samplers against a target with known moments.
    """
    precision = np.asarray(precision, dtype=np.float64)
    d = precision.shape[0]
    names = tuple(names) if names else tuple(f"x{i}" for i in range(d))
    cov = np.linalg.inv(precision)
    chol = np.linalg.cholesky(cov)

    def prior_simulator(rng):
        return ParamVector(names, chol @ rng.standard_normal(d))

    def posterior_factory(data):
        return PosteriorTarget(d, lambda z: float(-0.5 * z @ precision @ z),
                               lambda z: -(precision @ z))

    return GenerativeModel(
        name=f"gaussian-{d}d",
        parameter_names=names,
        prior_simulator=prior_simulator,
        data_simulator=_fixed_dataset,
        posterior_factory=posterior_factory,
        quantities=tuple(coordinate(n) for n in names),
        unconstraining_map=UnconstrainingMap(("identity",) * d),
    )


@pytest.fixture
def std_normal_model():
    return make_gaussian_model(np.eye(1))


@pytest.fixture
def correlated_gaussian_model():
    rho = 0.9
    cov = np.array([[1.0, rho], [rho, 1.0]])
    return make_gaussian_model(np.linalg.inv(cov))
