"""The config dataclasses accept and refuse the same values as the checks they replaced.

Each reference below is the ``__post_init__`` body that a class had before its fields
stated their rules, copied with its helpers: it raises for a value it refuses.  Two
references also refuse what the old checks let through and a run then failed on with a
bare ``TypeError``: a ``RunConfig.model`` that is not a mapping, and a
``ReportRequest.bins`` that is neither None nor an integer.  A ``RunConfig`` is also
checked against its model when it is made, so its reference refuses a model spec that
cannot be built, and one the exact-conjugate sampler cannot fit, which the old checks let
through and a run then refused.  Every grid value of every
field is tried alone, with the class's defaults elsewhere, and then the cross-field
cases; a refusal must raise the class's own error.
"""

import math
import sys

import numpy as np
import pytest

from sbc.config import SAMPLER_KINDS, Corruption, RunConfig, SamplerConfig
from sbc.errors import ConfigError, InvalidSpec
from sbc.models import (EIGHT_SCHOOLS_SIGMA, EightSchoolsSpec, LinRegSpec, NormalNormalSpec,
                        model_from_dict)
from sbc.report import REPORT_FORMATS, ReportRequest

# ---------------------------------------------------------------------------
# The reference checks
# ---------------------------------------------------------------------------


def require_integers(owner, **fields):
    for name, value in fields.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{owner}.{name} must be an integer, got {value!r}")


def is_finite_number(value):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def require_finite(owner, **fields):
    for name, value in fields.items():
        if not is_finite_number(value):
            raise ValueError(f"{owner}.{name} must be a finite number, got {value!r}")


def is_scale(value):
    return value > 0 and sys.float_info.min <= value * value < math.inf


def finite_floats(values):
    if not isinstance(values, (list, tuple)) or not all(map(is_finite_number, values)):
        raise ValueError("not a list of finite numbers")
    return tuple(float(v) for v in values)


def require_positive(**fields):
    for value in fields.values():
        if not (is_finite_number(value) and is_scale(float(value))):
            raise ValueError("not a scale")


def reference_run_config(model={"kind": "normal-normal"}, sampler=SamplerConfig(),
                         corruption=Corruption(), N=2000, L=99, thinning="off", master_seed=0,
                         max_chain_length=100_000, worker_count_hint=1):
    if not isinstance(model, dict):
        raise ValueError("closed gap: a model that is not a mapping")
    built = model_from_dict(model)  # closed gap: a model spec that cannot be built
    if sampler.kind == "exact-conjugate" and built.exact_posterior is None:
        raise ValueError("closed gap: a model with no closed-form posterior, sampled exactly")
    require_integers("RunConfig", N=N, L=L, master_seed=master_seed,
                     max_chain_length=max_chain_length, worker_count_hint=worker_count_hint)
    if N < 1 or L < 1:
        raise ValueError("N and L must be >= 1")
    if thinning not in ("off", "algorithm-2"):
        raise ValueError("thinning must be 'off' or 'algorithm-2'")
    if thinning == "algorithm-2" and sampler.kind not in ("rw-metropolis", "hmc"):
        raise ValueError("algorithm-2 thinning requires an MCMC sampler")
    if master_seed < 0:
        raise ValueError("master_seed must be a non-negative integer")
    if max_chain_length < L:
        raise ValueError("max_chain_length must be >= L")
    if worker_count_hint < 1:
        raise ValueError("worker_count_hint must be >= 1")


def reference_sampler_config(kind="exact-conjugate", step_size=0.5, n_leapfrog=10,
                             vi_iterations=10_000, vi_learning_rate=0.05, warmup=200):
    require_integers("SamplerConfig", n_leapfrog=n_leapfrog, vi_iterations=vi_iterations,
                     warmup=warmup)
    require_finite("SamplerConfig", step_size=step_size, vi_learning_rate=vi_learning_rate)
    if kind not in SAMPLER_KINDS:
        raise ValueError("unknown sampler kind")
    if not (step_size > 0 and vi_learning_rate > 0):
        raise ValueError("step_size and vi_learning_rate must be positive")
    if n_leapfrog < 1 or vi_iterations < 1 or warmup < 0:
        raise ValueError("n_leapfrog and vi_iterations must be >= 1, warmup >= 0")


def reference_corruption(kind="none", amount=0.0, target_quantity=""):
    require_finite("Corruption", amount=amount)
    if kind not in ("none", "shift", "scale"):
        raise ValueError("unknown corruption kind")
    if kind == "scale" and not amount > 0:
        raise ValueError("scale corruption requires amount > 0")
    if kind != "none" and not target_quantity:
        raise ValueError("corruption requires a target_quantity")


def reference_normal_normal(prior_mean=0.0, prior_sd=1.0, likelihood_sd=1.0, n_obs=1):
    require_integers("NormalNormalSpec", n_obs=n_obs)
    require_finite("NormalNormalSpec", prior_mean=prior_mean)
    require_positive(prior_sd=prior_sd, likelihood_sd=likelihood_sd)
    if n_obs < 1:
        raise ValueError("NormalNormalSpec.n_obs must be >= 1")


def reference_lin_reg(n_obs=25, covariates=None, prior_sd_alpha=10.0, prior_sd_beta=10.0,
                      noise_sd_prior_scale=5.0, gen_prior_sd_beta=None):
    require_integers("LinRegSpec", n_obs=n_obs)
    if n_obs < 1:
        raise ValueError("LinRegSpec.n_obs must be >= 1")
    require_positive(prior_sd_alpha=prior_sd_alpha, prior_sd_beta=prior_sd_beta,
                     noise_sd_prior_scale=noise_sd_prior_scale)
    if gen_prior_sd_beta is None:
        gen_prior_sd_beta = prior_sd_beta
    require_positive(gen_prior_sd_beta=gen_prior_sd_beta)
    if covariates is None:
        covariates = tuple((i + 1) / n_obs for i in range(n_obs))
    else:
        covariates = finite_floats(covariates)
    if len(covariates) != n_obs:
        raise ValueError("LinRegSpec.covariates length must equal n_obs")
    x = np.asarray(covariates)
    with np.errstate(over="ignore"):
        if not math.isfinite(np.sum(x * x)):
            raise ValueError("not a finite sum of squares")


def reference_eight_schools(J=8, sigma_j=EIGHT_SCHOOLS_SIGMA, parameterization="centered"):
    require_integers("EightSchoolsSpec", J=J)
    if J != 8:
        raise ValueError("EightSchoolsSpec.J must be 8")
    sigma_j = finite_floats(sigma_j)
    if len(sigma_j) != 8 or not all(is_scale(v) for v in sigma_j):
        raise ValueError("sigma_j")
    if parameterization not in ("centered", "non-centered"):
        raise ValueError("parameterization must be 'centered' or 'non-centered'")


def reference_report_request(artifact_path="x", quantities=(), bins=None,
                             formats=REPORT_FORMATS, coverage=0.99):
    if bins is not None and (not isinstance(bins, int) or isinstance(bins, bool)):
        raise ValueError("closed gap: bins that are neither None nor an integer")
    if not formats:
        raise ValueError("no report format given")
    bad = set(formats) - set(REPORT_FORMATS)
    if bad:
        raise ValueError(f"unknown report formats: {sorted(bad)}")
    if not (0.0 < coverage < 1.0):
        raise ValueError("coverage must be in (0, 1)")
    if bins is not None and bins < 1:
        raise ValueError(f"bins must be at least 1, got {bins}")


# ---------------------------------------------------------------------------
# The grid
# ---------------------------------------------------------------------------

# Values tried on every field: integers and their boundaries, floats where an int is
# expected, bools, strings, None, lists, infinities, NaN and very large or small floats.
# No integer here exceeds 10**5, so no size field allocates much.
COMMON = [0, 1, 2, -1, 8, 100, 10**5, 0.0, 0.5, 1.0, 1.5, 2.0, -0.5, 8.0, 0.99, 1e-320,
          1e-160, 1e154, 1e200, 1e308, -1e308, math.inf, -math.inf, math.nan, True, False,
          "1", "", "x", None, [], [1.0], (1.0, 2.0), {}]
# An integer too large for a float and one too large for any size, for non-size fields.
BIG_INTEGERS = [10**400, 10**18]

# Per class: its error, its reference, and per field the values in range beyond COMMON;
# a field marked as a size is not given BIG_INTEGERS.
CLASSES = {
    RunConfig: (ConfigError, reference_run_config, {
        "model": [{"kind": "normal-normal"}, {"kind": "lin-reg", "n_obs": 3}, {"x": [1, 2]}],
        "N": "size", "L": "size", "max_chain_length": "size",
        "thinning": ["off", "algorithm-2", "Off"],
        "master_seed": [2**63, 10**400],
        "worker_count_hint": [3, 64],
    }),
    SamplerConfig: (InvalidSpec, reference_sampler_config, {
        "kind": list(SAMPLER_KINDS) + ["HMC", "nuts"],
        "step_size": [1e-300, 5e-324],
        "n_leapfrog": [3],
        "vi_iterations": "size",
        "vi_learning_rate": [1e-300],
        "warmup": "size",
    }),
    Corruption: (InvalidSpec, reference_corruption, {
        "kind": ["none", "shift", "scale", "Shift"],
        "amount": [-2.0, 3.0],
        "target_quantity": ["mu"],
    }),
    NormalNormalSpec: (InvalidSpec, reference_normal_normal, {
        "prior_mean": [-3.0, 1e300],
        "prior_sd": [2.2250738585072014e-308 ** 0.5, 1.3407807929942596e154],
        "likelihood_sd": [3.0],
        "n_obs": "size",
    }),
    LinRegSpec: (InvalidSpec, reference_lin_reg, {
        "n_obs": "size",
        "covariates": [[0.5] * 25, tuple(range(25)), [1e153] * 25, [1e154] * 25,
                       [math.nan] * 25, [True] * 25, ["1"] * 25, "1" * 25],
        "prior_sd_alpha": [3.0],
        "prior_sd_beta": [3.0],
        "noise_sd_prior_scale": [3.0],
        "gen_prior_sd_beta": [3.0],
    }),
    EightSchoolsSpec: (InvalidSpec, reference_eight_schools, {
        "J": [7, 9],
        "sigma_j": [list(EIGHT_SCHOOLS_SIGMA), [1.0] * 7, [1.0] * 9, [1e200] + [1.0] * 7,
                    [1e-160] + [1.0] * 7, [0.0] + [1.0] * 7, [True] * 8, "12345678"],
        "parameterization": ["centered", "non-centered", "folded"],
    }),
    ReportRequest: (ValueError, reference_report_request, {
        "bins": [5, 7, 4096],
        "formats": [("svg",), ["csv", "json"], ("svg", "png"), ("svg", "svg"), "svg"],
        "coverage": [0.5, 1e-300, 0.999999],
    }),
}


def outcome(build, kwargs, error):
    """Whether ``build(**kwargs)`` accepts; a refusal must raise ``error``."""
    try:
        build(**kwargs)
    except error:
        return False
    return True


def reference_outcome(reference, kwargs):
    try:
        reference(**kwargs)
    except Exception:  # the old checks refused some values with a bare TypeError
        return False
    return True


def single_field_cases(cls):
    error, reference, fields = CLASSES[cls]
    for field, extra in fields.items():
        values = COMMON + ([] if extra == "size" else BIG_INTEGERS + extra)
        for value in values:
            yield {field: value}


def mismatches(cls, cases):
    error, reference = CLASSES[cls][:2]
    required = {"artifact_path": "x"} if cls is ReportRequest else {}
    return [kwargs for kwargs in cases
            if outcome(cls, {**required, **kwargs}, error) != reference_outcome(reference,
                                                                              kwargs)]


@pytest.mark.parametrize("cls", list(CLASSES), ids=lambda cls: cls.__name__)
def test_each_field_accepts_and_refuses_what_the_old_checks_did(cls):
    assert mismatches(cls, single_field_cases(cls)) == []


def test_the_grid_has_at_least_1000_single_field_cases():
    assert sum(len(list(single_field_cases(cls))) for cls in CLASSES) >= 1000


MCMC = SamplerConfig(kind="hmc")
CROSS_FIELD_CASES = {
    RunConfig: [
        *({"thinning": thinning, "sampler": SamplerConfig(kind=kind)}
          for thinning in ("off", "algorithm-2") for kind in SAMPLER_KINDS),
        *({"L": L, "max_chain_length": length}
          for L in (1, 99, 100) for length in (0, 1, 98, 99, 100, 10**5)),
        {"thinning": "algorithm-2", "sampler": MCMC, "L": 5, "max_chain_length": 4},
    ],
    Corruption: [
        {"kind": kind, "amount": amount, "target_quantity": target}
        for kind in ("none", "shift", "scale") for amount in (-1.0, 0.0, 1e-300, 2.0)
        for target in ("", "mu")
    ],
    LinRegSpec: [
        *({"n_obs": n, "covariates": [1.0] * length}
          for n in (1, 3) for length in (0, 1, 3)),
        {"n_obs": 3, "covariates": [1e200, 1.0, 2.0]},
        {"n_obs": 3, "covariates": [1e154, 1e154, 1e154]},
        {"n_obs": 3, "covariates": [1e153, -1e153, 2.0]},
        {"n_obs": 2, "covariates": [10**400, 1]},
        {"n_obs": 2.0, "covariates": [1.0, 2.0]},
        *({"prior_sd_beta": beta, "gen_prior_sd_beta": gen}
          for beta in (0.0, 1.0, 1e200) for gen in (None, 0.0, 1.0)),
    ],
    EightSchoolsSpec: [
        {"J": J, "sigma_j": sigma}
        for J in (7, 8, 8.0) for sigma in ([1.0] * 7, [1.0] * 8, [1.0] * 9, (2.0,) * 8)
    ],
    ReportRequest: [
        {"bins": bins, "formats": formats}
        for bins in (None, 0, 1, 2.5) for formats in ((), ("svg",), ("png",))
    ],
}


@pytest.mark.parametrize("cls", list(CROSS_FIELD_CASES), ids=lambda cls: cls.__name__)
def test_cross_field_cases_accept_and_refuse_what_the_old_checks_did(cls):
    assert mismatches(cls, CROSS_FIELD_CASES[cls]) == []


@pytest.mark.parametrize("cls", [NormalNormalSpec, LinRegSpec], ids=lambda cls: cls.__name__)
def test_n_obs_is_at_most_2_to_the_20(cls):
    """A block's (128, n_obs) observations then fit in 1 GiB; a larger n_obs is refused
    when the spec is made."""
    assert cls(n_obs=2**20).n_obs == 2**20
    with pytest.raises(InvalidSpec, match=rf"^{cls.__name__}\.n_obs must be an integer in "
                                          r"\[1, 1048576\], got 1048577$"):
        cls(n_obs=2**20 + 1)


def test_N_is_at_most_2_to_the_32():
    """Replication i owns Philox counter block i, and the streams refuse i >= 2**32, so a
    larger N is refused when the config is made, not when its replication 2**32 runs."""
    assert RunConfig(N=2**32).N == 2**32
    with pytest.raises(ConfigError, match=r"^RunConfig\.N must be an integer in "
                                          r"\[1, 4294967296\], got 4294967297$"):
        RunConfig(N=2**32 + 1)


@pytest.mark.parametrize("cls, field, low, high", [
    (RunConfig, "L", 1, 2**20),
    (RunConfig, "max_chain_length", 1, 2**22),
    (SamplerConfig, "warmup", 0, 2**22),
    (SamplerConfig, "vi_iterations", 1, 2**22),
], ids=lambda v: v.__name__ if isinstance(v, type) else str(v))
def test_sizes_that_allocate_are_bounded(cls, field, low, high):
    """Each size that sets an array's length is refused above its bound when the config is
    made, not when the run fails to allocate it."""
    error = ConfigError if cls is RunConfig else InvalidSpec
    others = {"max_chain_length": 2**22} if field == "L" else {}  # max_chain_length >= L
    assert getattr(cls(**others, **{field: high}), field) == high
    with pytest.raises(error, match=rf"^{cls.__name__}\.{field} must be an integer in "
                                    rf"\[{low}, {high}\], got {high + 1}$"):
        cls(**others, **{field: high + 1})
