"""Simulation-based calibration for Bayesian posterior samplers.

Importing the package loads none of its modules.  Each export resolves on
first use (PEP 562): ``sbc.config_from_dict`` loads the config and model
layers only, and ``sbc.run`` or ``sbc.write_report`` load the run or report
layer when first asked for.  A resolved name is looked up in its module on
every access and never stored here, so a name replaced in its module is
replaced for the package too.
"""

from importlib import import_module

__version__ = "0.1.0"

# The module that defines each export.
_EXPORTS = {name: module for module, names in {
    "config": ("Corruption", "RunConfig", "SamplerConfig", "config_from_dict", "config_to_dict"),
    "errors": ("AllConstant", "ChecksumMismatch", "ConfigError", "Diverged",
               "FailureRateExceeded", "FormatVersionMismatch", "IndivisibleBinning",
               "InvalidArtifact", "InvalidSpec", "NonFiniteDensity", "NonFiniteInput",
               "NonFiniteParameter", "NotConjugate", "SbcError", "TooShort",
               "UnknownParameter", "UnknownQuantity"),
    "ess": ("ChainPlan", "ess_by_quantity", "required_chain_length", "thin_to"),
    "model": ("GenerativeModel", "PosteriorTarget", "Quantity", "UnconstrainingMap",
              "coordinate", "posterior_target"),
    "models": ("EightSchoolsSpec", "LinRegSpec", "NormalNormalSpec", "make_eight_schools",
               "make_lin_reg", "make_normal_normal", "model_from_dict"),
    "rankstats": ("EcdfBand", "HistogramBand", "build_histogram", "chi_square_uniformity",
                  "classify_shape", "default_bins", "ecdf_band", "ecdf_summary",
                  "histogram_band", "rank_statistic"),
    "report": ("EcdfFrame", "ReportRequest", "rank_histograms", "render_ecdf_svg",
               "render_histogram_svg", "summarize", "write_report"),
    "runner": ("RunArtifact", "load_artifact", "run", "save_artifact"),
    "samplers": ("DrawBlock", "corrupt", "fit_meanfield_vi", "sample_exact_conjugate",
                 "sample_hmc", "sample_rw_metropolis"),
    "streams": ("RandomStream",),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """An export, from its module, or one of the modules that define them."""
    if name in _EXPORTS:
        return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _EXPORTS.values():
        return import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
