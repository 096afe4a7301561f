"""Built-in generative models: normal-normal, linear regression, eight schools.

Each factory returns a :class:`~sbc.model.GenerativeModel` whose one
density, ``posterior_factory``, is written on the unconstrained scale with
the log-Jacobian of its log-transformed coordinates folded in, and reduces
each dataset to the sufficient statistics it needs.

The linear regression model deliberately allows the simulator's prior on the
slope to differ from the prior used in the density (``gen_prior_sd_beta`` vs
``prior_sd_beta``): equal values give a self-consistent model, unequal values
inject a misspecified-prior defect on purpose.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidSpec
from .model import (
    Dataset,
    GenerativeModel,
    ParamVector,
    PosteriorTarget,
    Quantity,
    UnconstrainingMap,
    coordinate,
)
from .streams import RandomStream

# Canonical eight-schools standard errors (Rubin 1981).
EIGHT_SCHOOLS_SIGMA = (15.0, 10.0, 16.0, 11.0, 9.0, 11.0, 10.0, 18.0)

# Hyperpriors for the eight-schools hierarchy; proper priors are required
# for calibration runs, and these are wide enough to be uninformative at the
# scale of the data.
EIGHT_SCHOOLS_MU_SD = 5.0
EIGHT_SCHOOLS_TAU_SD = 5.0


def _require_positive(spec_name: str, **fields: float) -> None:
    for name, value in fields.items():
        if not (value > 0) or not math.isfinite(value):
            raise InvalidSpec(f"{spec_name}.{name} must be a positive finite number, got {value}")


# ---------------------------------------------------------------------------
# Normal-normal
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormalNormalSpec:
    prior_mean: float = 0.0
    prior_sd: float = 1.0
    likelihood_sd: float = 1.0
    n_obs: int = 1

    def __post_init__(self):
        _require_positive("NormalNormalSpec", prior_sd=self.prior_sd,
                          likelihood_sd=self.likelihood_sd)
        if self.n_obs < 1:
            raise InvalidSpec("NormalNormalSpec.n_obs must be >= 1")


def make_normal_normal(spec: NormalNormalSpec) -> GenerativeModel:
    """Conjugate model: mu ~ N(m0, s0^2), y_i | mu ~ N(mu, s^2)."""
    m0, s0, s, n = spec.prior_mean, spec.prior_sd, spec.likelihood_sd, spec.n_obs
    names = ("mu",)

    def prior_simulator(rng: RandomStream) -> ParamVector:
        return ParamVector(names, np.array([rng.normal(m0, s0)]))

    def data_simulator(theta: ParamVector, rng: RandomStream) -> Dataset:
        mu = theta.values[0]
        return Dataset(rng.normal(mu, s, size=n))

    def exact_posterior(data: Dataset) -> tuple[float, float]:
        prec = 1.0 / s0**2 + data.n_obs / s**2
        mean = (m0 / s0**2 + float(np.sum(data.observations)) / s**2) / prec
        return mean, math.sqrt(1.0 / prec)

    def posterior_factory(data: Dataset) -> PosteriorTarget:
        sum_y = float(np.sum(data.observations))
        n_obs = data.n_obs
        inv_v0, inv_v = 1.0 / s0**2, 1.0 / s**2

        def logpdf(z: np.ndarray) -> float:
            mu = z[0]
            return (-((mu - m0) ** 2) * 0.5 * inv_v0
                    - (n_obs * mu * mu - 2.0 * mu * sum_y) * 0.5 * inv_v)

        def grad(z: np.ndarray) -> np.ndarray:
            mu = z[0]
            return np.array([-(mu - m0) * inv_v0 + (sum_y - n_obs * mu) * inv_v])

        return PosteriorTarget(1, logpdf, grad)

    return GenerativeModel(
        name="normal-normal",
        parameter_names=names,
        prior_simulator=prior_simulator,
        data_simulator=data_simulator,
        posterior_factory=posterior_factory,
        quantities=(coordinate("mu"),),
        unconstraining_map=UnconstrainingMap(("identity",)),
        exact_posterior=exact_posterior,
    )


# ---------------------------------------------------------------------------
# Linear regression
# ---------------------------------------------------------------------------

def _default_covariates(n_obs: int) -> tuple[float, ...]:
    return tuple((i + 1) / n_obs for i in range(n_obs))


@dataclass(frozen=True)
class LinRegSpec:
    n_obs: int = 25
    covariates: tuple[float, ...] | None = None
    prior_sd_alpha: float = 10.0
    prior_sd_beta: float = 10.0
    noise_sd_prior_scale: float = 5.0
    gen_prior_sd_beta: float | None = None

    def __post_init__(self):
        if self.n_obs < 1:
            raise InvalidSpec("LinRegSpec.n_obs must be >= 1")
        _require_positive("LinRegSpec", prior_sd_alpha=self.prior_sd_alpha,
                          prior_sd_beta=self.prior_sd_beta,
                          noise_sd_prior_scale=self.noise_sd_prior_scale)
        if self.gen_prior_sd_beta is None:
            object.__setattr__(self, "gen_prior_sd_beta", self.prior_sd_beta)
        _require_positive("LinRegSpec", gen_prior_sd_beta=self.gen_prior_sd_beta)
        if self.covariates is None:
            object.__setattr__(self, "covariates", _default_covariates(self.n_obs))
        else:
            object.__setattr__(self, "covariates", tuple(float(v) for v in self.covariates))
        if len(self.covariates) != self.n_obs:
            raise InvalidSpec("LinRegSpec.covariates length must equal n_obs")
        if not all(math.isfinite(v) for v in self.covariates):
            raise InvalidSpec("LinRegSpec.covariates must be finite")


def make_lin_reg(spec: LinRegSpec) -> GenerativeModel:
    """y_n = alpha + beta * x_n + eps_n with Gaussian priors and half-normal noise sd.

    The simulator draws beta from N(0, gen_prior_sd_beta^2) while the density
    uses N(0, prior_sd_beta^2).
    """
    x = np.asarray(spec.covariates)
    n = spec.n_obs
    sa, sb, sc = spec.prior_sd_alpha, spec.prior_sd_beta, spec.noise_sd_prior_scale
    gen_sb = spec.gen_prior_sd_beta
    names = ("alpha", "beta", "sigma")

    def prior_simulator(rng: RandomStream) -> ParamVector:
        alpha = rng.normal(0.0, sa)
        beta = rng.normal(0.0, gen_sb)
        sigma = abs(rng.normal(0.0, sc))
        return ParamVector(names, np.array([alpha, beta, sigma]))

    def data_simulator(theta: ParamVector, rng: RandomStream) -> Dataset:
        alpha, beta, sigma = theta.values
        y = alpha + beta * x + rng.normal(0.0, sigma, size=n)
        return Dataset(y, {"x": x})

    def posterior_factory(data: Dataset) -> PosteriorTarget:
        y = data.observations
        s_x, s_xx = float(np.sum(x)), float(np.sum(x * x))
        s_y, s_yy, s_xy = float(np.sum(y)), float(np.sum(y * y)), float(np.sum(x * y))
        inv_va, inv_vb, inv_vc = 1.0 / sa**2, 1.0 / sb**2, 1.0 / sc**2

        def logpdf(z: np.ndarray) -> float:
            alpha, beta, u = z
            sig2 = math.exp(2.0 * u)
            ssr = (s_yy - 2 * alpha * s_y - 2 * beta * s_xy + 2 * alpha * beta * s_x
                   + alpha * alpha * n + beta * beta * s_xx)
            return (-alpha * alpha * 0.5 * inv_va - beta * beta * 0.5 * inv_vb
                    - sig2 * 0.5 * inv_vc - n * u - ssr / (2.0 * sig2) + u)

        def grad(z: np.ndarray) -> np.ndarray:
            alpha, beta, u = z
            inv_sig2 = math.exp(-2.0 * u)
            sum_r = s_y - beta * s_x - alpha * n
            sum_rx = s_xy - alpha * s_x - beta * s_xx
            ssr = (s_yy - 2 * alpha * s_y - 2 * beta * s_xy + 2 * alpha * beta * s_x
                   + alpha * alpha * n + beta * beta * s_xx)
            d_alpha = -alpha * inv_va + sum_r * inv_sig2
            d_beta = -beta * inv_vb + sum_rx * inv_sig2
            d_u = -math.exp(2.0 * u) * inv_vc - n + ssr * inv_sig2 + 1.0
            return np.array([d_alpha, d_beta, d_u])

        return PosteriorTarget(3, logpdf, grad)

    return GenerativeModel(
        name="lin-reg",
        parameter_names=names,
        prior_simulator=prior_simulator,
        data_simulator=data_simulator,
        posterior_factory=posterior_factory,
        quantities=tuple(coordinate(p) for p in names),
        unconstraining_map=UnconstrainingMap(("identity", "identity", "log")),
    )


# ---------------------------------------------------------------------------
# Eight schools
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EightSchoolsSpec:
    J: int = 8
    sigma_j: tuple[float, ...] = EIGHT_SCHOOLS_SIGMA
    parameterization: str = "centered"

    def __post_init__(self):
        if self.J != 8:
            raise InvalidSpec("EightSchoolsSpec.J must be 8")
        object.__setattr__(self, "sigma_j", tuple(float(v) for v in self.sigma_j))
        if len(self.sigma_j) != 8 or not all(v > 0 for v in self.sigma_j):
            raise InvalidSpec("EightSchoolsSpec.sigma_j must be 8 positive values")
        if self.parameterization not in ("centered", "non-centered"):
            raise InvalidSpec("parameterization must be 'centered' or 'non-centered'")


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

    def prior_simulator(rng: RandomStream) -> ParamVector:
        mu = rng.normal(0.0, mu_sd)
        tau = abs(rng.normal(0.0, tau_sd))
        eta = rng.standard_normal(J)
        effects = mu + tau * eta if centered else eta
        return ParamVector(names, np.concatenate(([mu, tau], effects)))

    def data_simulator(theta: ParamVector, rng: RandomStream) -> Dataset:
        mu, tau = theta.values[0], theta.values[1]
        eff = theta.values[2:]
        means = eff if centered else mu + tau * eff
        y = means + sigma * rng.standard_normal(J)
        return Dataset(y, {"sigma": sigma})

    if centered:

        def posterior_factory(data: Dataset) -> PosteriorTarget:
            y = data.observations
            inv_s2 = 1.0 / sigma**2

            def logpdf(z: np.ndarray) -> float:
                mu, w = z[0], z[1]
                th = z[2:]
                tau2 = math.exp(2.0 * w)
                dev = th - mu
                return (-mu * mu / (2 * mu_sd**2) - tau2 / (2 * tau_sd**2)
                        - J * w - float(dev @ dev) / (2 * tau2)
                        - 0.5 * float(((y - th) ** 2 * inv_s2).sum()) + w)

            def grad(z: np.ndarray) -> np.ndarray:
                mu, w = z[0], z[1]
                th = z[2:]
                tau2 = math.exp(2.0 * w)
                dev = th - mu
                d_mu = -mu / mu_sd**2 + float(dev.sum()) / tau2
                d_w = -tau2 / tau_sd**2 - J + float(dev @ dev) / tau2 + 1.0
                d_th = -dev / tau2 + (y - th) * inv_s2
                return np.concatenate(([d_mu, d_w], d_th))

            return PosteriorTarget(2 + J, logpdf, grad)

        quantities = tuple(coordinate(p) for p in names)

    else:

        def posterior_factory(data: Dataset) -> PosteriorTarget:
            y = data.observations
            inv_s2 = 1.0 / sigma**2

            def logpdf(z: np.ndarray) -> float:
                mu, w = z[0], z[1]
                eta = z[2:]
                tau = math.exp(w)
                r = y - mu - tau * eta
                return (-mu * mu / (2 * mu_sd**2) - tau * tau / (2 * tau_sd**2)
                        - 0.5 * float(eta @ eta) - 0.5 * float((r * r * inv_s2).sum()) + w)

            def grad(z: np.ndarray) -> np.ndarray:
                mu, w = z[0], z[1]
                eta = z[2:]
                tau = math.exp(w)
                r = y - mu - tau * eta
                rs = r * inv_s2
                d_mu = -mu / mu_sd**2 + float(rs.sum())
                d_tau = -tau / tau_sd**2 + float((rs * eta).sum())
                d_w = tau * d_tau + 1.0
                d_eta = -eta + rs * tau
                return np.concatenate(([d_mu, d_w], d_eta))

            return PosteriorTarget(2 + J, logpdf, grad)

        def _derived_theta(j: int) -> Quantity:
            def _batch(values: np.ndarray, nm: tuple[str, ...]) -> np.ndarray:
                mu = values[:, nm.index("mu")]
                tau = values[:, nm.index("tau")]
                eta = values[:, nm.index(f"eta[{j}]")]
                return mu + tau * eta

            return Quantity(name=f"theta[{j}]", batch_evaluator=_batch)

        quantities = tuple(coordinate(p) for p in names) + tuple(
            _derived_theta(j) for j in range(1, J + 1)
        )

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
    if kind not in MODEL_KINDS:
        raise InvalidSpec(f"unknown model kind {kind!r}; choose from {sorted(MODEL_KINDS)}")
    spec_cls, factory = MODEL_KINDS[kind]
    allowed = set(spec_cls.__dataclass_fields__)
    unknown = set(d) - allowed
    if unknown:
        raise InvalidSpec(f"unknown keys for model {kind!r}: {sorted(unknown)}")
    for key in ("covariates", "sigma_j"):
        if key in d and d[key] is not None:
            d[key] = tuple(d[key])
    try:
        spec = spec_cls(**d)
    except TypeError as exc:
        raise InvalidSpec(str(exc)) from exc
    return factory(spec)
