"""Small hand-built models with known geometry, shared by the test modules.

The module has its own name, not ``conftest``, so that test modules can
import it by name when several test directories run in one session.
"""

import numpy as np

from sbc.model import GenerativeModel, PosteriorTarget, UnconstrainingMap, coordinate


def _fixed_dataset(*_args):
    return np.array([0.0])


def make_gaussian_model(precision: np.ndarray, names=None) -> GenerativeModel:
    """Zero-mean Gaussian posterior with the given precision matrix.

    The data simulator is a stub (the density ignores the observations it is
    bound to), which is enough to exercise samplers against a target with
    known moments.
    """
    precision = np.asarray(precision, dtype=np.float64)
    d = precision.shape[0]
    names = tuple(names) if names else tuple(f"x{i}" for i in range(d))
    cov = np.linalg.inv(precision)
    chol = np.linalg.cholesky(cov)

    def prior_simulator(rng):
        return chol @ rng.standard_normal(d)

    def grad(Z):
        # Row by row, elementwise: a matrix product could round a row differently
        # depending on the other rows of the batch.
        return -(Z[:, np.newaxis, :] * precision).sum(axis=2)

    def posterior_factory(observations):
        return PosteriorTarget(lambda Z: 0.5 * (grad(Z) * Z).sum(axis=1), grad)

    return GenerativeModel(
        name=f"gaussian-{d}d",
        parameter_names=names,
        prior_simulator=prior_simulator,
        data_simulator=_fixed_dataset,
        posterior_factory=posterior_factory,
        quantities=tuple(coordinate(n) for n in names),
        unconstraining_map=UnconstrainingMap(("identity",) * d),
    )


def make_flagged_model(cut: float) -> GenerativeModel:
    """Normal-normal model whose density is undefined for datasets with y > cut.

    x ~ N(0, 1) and y | x ~ N(x, 1).  For a dataset whose observation exceeds
    ``cut`` the log density is -inf and the gradient NaN, so that dataset's
    fit fails at its initial point (MCMC) or at its first gradient (VI) while
    every other dataset is fitted as usual; ``cut = inf`` flags none.
    """
    names = ("x",)

    def posterior_factory(observations):
        y = observations[:, 0]
        flagged = y > cut

        def logpdf(Z):
            x = Z[:, 0]
            return np.where(flagged, -np.inf, -0.5 * x * x - 0.5 * (y - x) ** 2)

        def grad(Z):
            x = Z[:, 0]
            return np.where(flagged, np.nan, y - 2.0 * x)[:, np.newaxis]

        return PosteriorTarget(logpdf, grad)

    return GenerativeModel(
        name="flagged-normal",
        parameter_names=names,
        prior_simulator=lambda rng: np.array([rng.normal()]),
        data_simulator=lambda theta, rng: theta + rng.normal(size=1),
        posterior_factory=posterior_factory,
        quantities=(coordinate("x"),),
        unconstraining_map=UnconstrainingMap(("identity",)),
    )
