"""Simulation-based calibration for Bayesian posterior samplers."""

from .errors import (
    AllConstant,
    ChecksumMismatch,
    ConfigError,
    Diverged,
    FailureRateExceeded,
    FormatVersionMismatch,
    IndivisibleBinning,
    InvalidArtifact,
    InvalidSpec,
    NonFiniteDensity,
    NonFiniteInput,
    NonFiniteParameter,
    NotConjugate,
    SbcError,
    TooShort,
    UnknownParameter,
    UnknownQuantity,
)
from .ess import (
    ChainPlan,
    ess_by_quantity,
    min_ess,
    required_chain_length,
    thin_to,
)
from .model import (
    GenerativeModel,
    PosteriorTarget,
    Quantity,
    UnconstrainingMap,
    coordinate,
    posterior_target,
)
from .models import (
    EightSchoolsSpec,
    LinRegSpec,
    NormalNormalSpec,
    make_eight_schools,
    make_lin_reg,
    make_normal_normal,
    model_from_dict,
)
from .rankstats import (
    EcdfBand,
    EcdfSummary,
    SbcHistogram,
    build_histogram,
    chi_square_uniformity,
    classify_shape,
    default_bins,
    ecdf_band,
    ecdf_summary,
    rank_statistic,
    rebin,
)
from .report import (
    ReportRequest,
    rank_histogram,
    render_ecdf_svg,
    render_histogram_svg,
    summarize,
    write_report,
)
from .runner import (
    RunArtifact,
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_artifact,
    run,
    save_artifact,
)
from .samplers import (
    Corruption,
    DrawBlock,
    GaussianApprox,
    SamplerConfig,
    corrupt,
    fit_meanfield_vi,
    sample_exact_conjugate,
    sample_hmc,
    sample_rw_metropolis,
)
from .streams import RandomStream

__version__ = "0.1.0"
