"""Deterministic resampling inference.

Two complementary routes to "how sure are we?": shuffle (permutation) tests
against a no-difference baseline, and bootstrap confidence distributions
read as tentative probabilities -- plus calibration of published confidence
intervals/p-values into probability statements, exact-rational Bayes over
discrete hypotheses, and forward Monte Carlo with exact small-case checks.
Every random procedure is driven by a documented, cross-platform generator
and is bit-for-bit reproducible from its seed.
"""

import importlib

__version__ = "0.1.0"

# The public names, by the module that defines them.  A module is imported
# the first time one of its names is read, so only the names that draw
# (resampling, rng, simulate) import numpy.
_EXPORTS = {
    "calibrate": (
        "CalibratedDistribution", "TwoByTwo", "calibrate_from_interval", "calibrate_from_p",
        "odds_ratio", "probability_query", "risk_ratio",
    ),
    "data": (
        "Fixture", "GroupedSample", "PairedSample", "PopulationVector", "Sample",
        "fixtures", "get_fixture", "load_csv", "load_paired_csv", "write_csv",
    ),
    "dists": ("normal_cdf", "normal_quantile", "t_cdf", "t_quantile"),
    "resampling": (
        "BootstrapReport", "DiagnosticsReport", "Histogram", "ResampleDistribution", "TestReport",
        "bootstrap", "bootstrap_report", "diagnostics", "percentile_interval",
        "shuffle_test", "shuffle_test_paired", "tail_probability",
    ),
    "rng": ("SeededGenerator", "SubstreamBlock", "mix64", "substream"),
    "simulate": ("PollResult", "simulate_bernoulli", "simulate_poll"),
    "spec": ("BernoulliExperiment", "exact_binomial", "exact_shuffle_p"),
    "worlds": (
        "Hypothesis", "HypothesisSet", "TwoStageOutcomes", "WorldTableau", "parse_probability",
        "posterior", "render_worlds", "sequential_update", "two_stage_grid",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_MODULE_OF)]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
