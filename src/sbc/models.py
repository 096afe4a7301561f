"""Built-in generative models: normal-normal, linear regression, eight schools.

Each factory returns a :class:`~sbc.model.GenerativeModel` whose
simulators return plain arrays and whose one density, ``posterior_factory``,
is written on the unconstrained scale with the log-Jacobian of its
log-transformed coordinates folded in.  It reduces the (R, n) observations
to the sufficient statistics it needs, as (R,) row sums or the (R, J)
observations themselves, and evaluates (R, d) points elementwise; sums run
within a row only, so a row's value does not depend on its batch.

The linear regression model deliberately allows the simulator's prior on the
slope to differ from the prior used in the density (``gen_prior_sd_beta`` vs
``prior_sd_beta``): equal values give a self-consistent model, unequal values
inject a misspecified-prior defect on purpose.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    FINITE,
    InvalidSpec,
    Rule,
    check_fields,
    checked,
    integer,
    is_finite_number,
    is_integer,
    one_of,
    parse,
)
from .model import (
    GenerativeModel,
    PosteriorTarget,
    Quantity,
    UnconstrainingMap,
    coordinate,
)

if TYPE_CHECKING:
    from .streams import RandomStream

# Canonical eight-schools standard errors (Rubin 1981).
EIGHT_SCHOOLS_SIGMA = (15.0, 10.0, 16.0, 11.0, 9.0, 11.0, 10.0, 18.0)

# Hyperpriors for the eight-schools hierarchy; proper priors are required
# for calibration runs, and these are wide enough to be uninformative at the
# scale of the data.
EIGHT_SCHOOLS_MU_SD = 5.0
EIGHT_SCHOOLS_TAU_SD = 5.0


def _is_scale(value) -> bool:
    """Whether ``value`` is a positive finite number whose square is a finite normal float,
    so that its square and its inverse square neither overflow nor underflow."""
    return (is_finite_number(value) and value > 0
            and sys.float_info.min <= float(value) * float(value) < math.inf)


def _is_list_of(test, value) -> bool:
    """Whether ``value`` is a list or tuple each of whose items passes ``test``; a string
    is not one."""
    return isinstance(value, (list, tuple)) and all(map(test, value))


def _has_finite_sum_of_squares(values) -> bool:  # which bounds their sum too
    x = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        return math.isfinite(np.sum(x * x))


_SCALE = Rule("a finite number > 0 whose square neither overflows nor underflows", _is_scale)
_COVARIATES = Rule("a list of finite numbers with a finite sum of squares, or None",
                   lambda v: v is None or (_is_list_of(is_finite_number, v)
                                           and _has_finite_sum_of_squares(v)))
_SIGMA_J = Rule("a list of finite numbers > 0 whose squares neither overflow nor underflow",
                lambda v: _is_list_of(_is_scale, v))


# ---------------------------------------------------------------------------
# Normal-normal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalNormalSpec:
    prior_mean: float = checked(FINITE, 0.0)
    prior_sd: float = checked(_SCALE, 1.0)
    likelihood_sd: float = checked(_SCALE, 1.0)
    n_obs: int = checked(integer(1, 2**20), 1)  # a block's (128, n_obs) data fit in 1 GiB

    def __post_init__(self):
        check_fields(self, InvalidSpec)


def make_normal_normal(spec: NormalNormalSpec) -> GenerativeModel:
    """Conjugate model: mu ~ N(m0, s0^2), y_i | mu ~ N(mu, s^2)."""
    m0, s0, s, n = spec.prior_mean, spec.prior_sd, spec.likelihood_sd, spec.n_obs
    names = ("mu",)

    def prior_simulator(rng: RandomStream) -> np.ndarray:
        return np.array([rng.normal(m0, s0)])

    def data_simulator(theta: np.ndarray, rng: RandomStream) -> np.ndarray:
        return rng.normal(theta[0], s, size=n)

    def exact_posterior(observations: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        prec = 1.0 / s0**2 + observations.shape[1] / s**2
        mean = (m0 / s0**2 + observations.sum(axis=1) / s**2) / prec
        return mean, np.full(mean.shape, math.sqrt(1.0 / prec))

    def posterior_factory(observations: np.ndarray) -> PosteriorTarget:
        sum_y = observations.sum(axis=1)
        n_obs = float(observations.shape[1])
        inv_v0, inv_v = 1.0 / s0**2, 1.0 / s**2

        def logpdf(Z: np.ndarray) -> np.ndarray:
            mu = Z[:, 0]
            return (-((mu - m0) ** 2) * 0.5 * inv_v0
                    - (n_obs * mu * mu - 2.0 * mu * sum_y) * 0.5 * inv_v)

        def grad(Z: np.ndarray) -> np.ndarray:
            mu = Z[:, 0]
            return (-(mu - m0) * inv_v0 + (sum_y - n_obs * mu) * inv_v)[:, np.newaxis]

        return PosteriorTarget(logpdf, grad)

    return GenerativeModel(
        name="normal-normal",
        parameter_names=names,
        prior_simulator=prior_simulator,
        data_simulator=data_simulator,
        posterior_factory=posterior_factory,
        quantities=(coordinate("mu", names),),
        unconstraining_map=UnconstrainingMap(("identity",)),
        exact_posterior=exact_posterior,
    )


# ---------------------------------------------------------------------------
# Linear regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinRegSpec:
    n_obs: int = checked(integer(1, 2**20), 25)  # as NormalNormalSpec.n_obs
    covariates: tuple[float, ...] | None = checked(_COVARIATES, None)
    prior_sd_alpha: float = checked(_SCALE, 10.0)
    prior_sd_beta: float = checked(_SCALE, 10.0)
    noise_sd_prior_scale: float = checked(_SCALE, 5.0)
    gen_prior_sd_beta: float | None = checked(_SCALE, None)

    def __post_init__(self):
        if self.gen_prior_sd_beta is None:
            object.__setattr__(self, "gen_prior_sd_beta", self.prior_sd_beta)
        check_fields(self, InvalidSpec)
        if self.covariates is not None:
            object.__setattr__(self, "covariates", tuple(map(float, self.covariates)))
            if len(self.covariates) != self.n_obs:
                raise InvalidSpec("LinRegSpec.covariates length must equal n_obs")


def make_lin_reg(spec: LinRegSpec) -> GenerativeModel:
    """y_n = alpha + beta * x_n + eps_n with Gaussian priors and half-normal noise sd.

    The simulator draws beta from N(0, gen_prior_sd_beta^2) while the density
    uses N(0, prior_sd_beta^2).  Without given covariates, x_n = n / n_obs.
    """
    n = spec.n_obs
    x = np.arange(1, n + 1) / n if spec.covariates is None else np.asarray(spec.covariates)
    sa, sb, sc = spec.prior_sd_alpha, spec.prior_sd_beta, spec.noise_sd_prior_scale
    gen_sb = spec.gen_prior_sd_beta
    names = ("alpha", "beta", "sigma")

    def prior_simulator(rng: RandomStream) -> np.ndarray:
        alpha = rng.normal(0.0, sa)
        beta = rng.normal(0.0, gen_sb)
        sigma = abs(rng.normal(0.0, sc))
        return np.array([alpha, beta, sigma])

    def data_simulator(theta: np.ndarray, rng: RandomStream) -> np.ndarray:
        alpha, beta, sigma = theta
        return alpha + beta * x + rng.normal(0.0, sigma, size=n)

    def posterior_factory(observations: np.ndarray) -> PosteriorTarget:
        s_x, s_xx = float(np.sum(x)), float(np.sum(x * x))
        s_y = observations.sum(axis=1)
        s_yy = (observations ** 2).sum(axis=1)
        s_xy = (x * observations).sum(axis=1)
        inv_va, inv_vb, inv_vc = 1.0 / sa**2, 1.0 / sb**2, 1.0 / sc**2

        def _residual_sums(alpha, beta):
            """Sums of r_n = y_n - alpha - beta x_n, of r_n x_n, and of r_n^2."""
            sum_r = s_y - alpha * n - beta * s_x
            sum_rx = s_xy - alpha * s_x - beta * s_xx
            return sum_r, sum_rx, s_yy - alpha * (s_y + sum_r) - beta * (s_xy + sum_rx)

        def logpdf(Z: np.ndarray) -> np.ndarray:
            alpha, beta, u = Z.T
            sig2 = np.exp(2.0 * u)
            ssr = _residual_sums(alpha, beta)[2]
            return (-alpha * alpha * 0.5 * inv_va - beta * beta * 0.5 * inv_vb
                    - sig2 * 0.5 * inv_vc - (n - 1) * u - ssr / (2.0 * sig2))

        def grad(Z: np.ndarray) -> np.ndarray:
            alpha, beta, u = Z.T
            inv_sig2 = np.exp(-2.0 * u)
            sum_r, sum_rx, ssr = _residual_sums(alpha, beta)
            G = np.empty_like(Z)
            G[:, 0] = sum_r * inv_sig2 - alpha * inv_va
            G[:, 1] = sum_rx * inv_sig2 - beta * inv_vb
            G[:, 2] = ssr * inv_sig2 - inv_vc / inv_sig2 - (n - 1)
            return G

        return PosteriorTarget(logpdf, grad)

    return GenerativeModel(
        name="lin-reg",
        parameter_names=names,
        prior_simulator=prior_simulator,
        data_simulator=data_simulator,
        posterior_factory=posterior_factory,
        quantities=tuple(coordinate(p, names) for p in names),
        unconstraining_map=UnconstrainingMap(("identity", "identity", "log")),
    )


# ---------------------------------------------------------------------------
# Eight schools
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EightSchoolsSpec:
    J: int = checked(Rule("an integer equal to 8", lambda v: is_integer(v) and v == 8), 8)
    sigma_j: tuple[float, ...] = checked(_SIGMA_J, EIGHT_SCHOOLS_SIGMA)
    parameterization: str = checked(one_of("centered", "non-centered"), "centered")

    def __post_init__(self):
        check_fields(self, InvalidSpec)
        object.__setattr__(self, "sigma_j", tuple(map(float, self.sigma_j)))
        if len(self.sigma_j) != self.J:
            raise InvalidSpec(f"EightSchoolsSpec.sigma_j must have J={self.J} entries, got "
                              f"{len(self.sigma_j)}")


def make_eight_schools(spec: EightSchoolsSpec) -> GenerativeModel:
    """Hierarchical normal-means model over (mu, tau, school effects).

    Centered form exposes theta_j directly; non-centered form parameterizes by
    eta_j with theta_j = mu + tau * eta_j surfaced as derived quantities.
    Both simulators consume their random stream identically, so equal seeds
    produce identical datasets.
    """
    J = spec.J
    sigma = np.asarray(spec.sigma_j)
    mu_sd, tau_sd = EIGHT_SCHOOLS_MU_SD, EIGHT_SCHOOLS_TAU_SD
    centered = spec.parameterization == "centered"

    effect = "theta" if centered else "eta"
    names = ("mu", "tau") + tuple(f"{effect}[{j}]" for j in range(1, J + 1))
    transforms = ("identity", "log") + ("identity",) * J
    quantities = tuple(coordinate(p, names) for p in names)

    def prior_simulator(rng: RandomStream) -> np.ndarray:
        mu = rng.normal(0.0, mu_sd)
        tau = abs(rng.normal(0.0, tau_sd))
        eta = rng.standard_normal(J)
        effects = mu + tau * eta if centered else eta
        return np.concatenate(([mu, tau], effects))

    def data_simulator(theta: np.ndarray, rng: RandomStream) -> np.ndarray:
        mu, tau, eff = theta[0], theta[1], theta[2:]
        means = eff if centered else mu + tau * eff
        return means + sigma * rng.standard_normal(J)

    if centered:

        def posterior_factory(y: np.ndarray) -> PosteriorTarget:
            inv_s2 = 1.0 / sigma**2

            def logpdf(Z: np.ndarray) -> np.ndarray:
                mu, w, th = Z[:, 0], Z[:, 1], Z[:, 2:]
                tau2 = np.exp(2.0 * w)
                dev = th - mu[:, np.newaxis]
                return (-mu * mu / (2 * mu_sd**2) - tau2 / (2 * tau_sd**2)
                        - J * w - (dev * dev).sum(axis=1) / (2 * tau2)
                        - 0.5 * ((y - th) ** 2 * inv_s2).sum(axis=1) + w)

            def grad(Z: np.ndarray) -> np.ndarray:
                mu, w, th = Z[:, 0], Z[:, 1], Z[:, 2:]
                tau2 = np.exp(2.0 * w)
                dev = th - mu[:, np.newaxis]
                G = np.empty_like(Z)
                G[:, 0] = -mu / mu_sd**2 + dev.sum(axis=1) / tau2
                G[:, 1] = -tau2 / tau_sd**2 - J + (dev * dev).sum(axis=1) / tau2 + 1.0
                G[:, 2:] = -dev / tau2[:, np.newaxis] + (y - th) * inv_s2
                return G

            return PosteriorTarget(logpdf, grad)

    else:

        def posterior_factory(y: np.ndarray) -> PosteriorTarget:
            inv_s2 = 1.0 / sigma**2

            def _residuals(mu, tau, eta):
                return y - mu[:, np.newaxis] - tau[:, np.newaxis] * eta

            def logpdf(Z: np.ndarray) -> np.ndarray:
                mu, w, eta = Z[:, 0], Z[:, 1], Z[:, 2:]
                tau = np.exp(w)
                r = _residuals(mu, tau, eta)
                return (-mu * mu / (2 * mu_sd**2) - tau * tau / (2 * tau_sd**2)
                        - 0.5 * (eta * eta).sum(axis=1)
                        - 0.5 * (r * r * inv_s2).sum(axis=1) + w)

            def grad(Z: np.ndarray) -> np.ndarray:
                mu, w, eta = Z[:, 0], Z[:, 1], Z[:, 2:]
                tau = np.exp(w)
                rs = _residuals(mu, tau, eta) * inv_s2
                G = np.empty_like(Z)
                G[:, 0] = -mu / mu_sd**2 + rs.sum(axis=1)
                G[:, 1] = tau * (-tau / tau_sd**2 + (rs * eta).sum(axis=1)) + 1.0
                G[:, 2:] = -eta + rs * tau[:, np.newaxis]
                return G

            return PosteriorTarget(logpdf, grad)

        def _derived_theta(j: int) -> Quantity:
            mu, tau, eta = (coordinate(p, names).batch_evaluator
                            for p in ("mu", "tau", f"eta[{j}]"))
            return Quantity(name=f"theta[{j}]",
                            batch_evaluator=lambda values: mu(values) + tau(values) * eta(values))

        quantities += tuple(_derived_theta(j) for j in range(1, J + 1))

    return GenerativeModel(
        name=f"eight-schools-{spec.parameterization}",
        parameter_names=names,
        prior_simulator=prior_simulator,
        data_simulator=data_simulator,
        posterior_factory=posterior_factory,
        quantities=quantities,
        unconstraining_map=UnconstrainingMap(transforms),
    )


# ---------------------------------------------------------------------------
# Registry (consumed by run configs and the CLI)
# ---------------------------------------------------------------------------

MODEL_KINDS = {
    "normal-normal": (NormalNormalSpec, make_normal_normal),
    "lin-reg": (LinRegSpec, make_lin_reg),
    "eight-schools": (EightSchoolsSpec, make_eight_schools),
}


def model_from_dict(d: dict) -> GenerativeModel:
    """Build a model from a config mapping: {"kind": ..., <spec fields>}."""
    d = dict(d)
    kind = d.pop("kind", None)
    if not isinstance(kind, str) or kind not in MODEL_KINDS:
        raise InvalidSpec(f"unknown model kind {kind!r}; choose from {sorted(MODEL_KINDS)}")
    spec_cls, factory = MODEL_KINDS[kind]
    return factory(parse(spec_cls, d, InvalidSpec, f"{kind!r} model"))
