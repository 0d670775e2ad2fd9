"""Serial-dependence- and persistence-robust significance tests for
predictive regressions, built on randomized split-sample Wald statistics,
plus the benchmark data-generating processes and a reproducible Monte Carlo
harness.

The package resolves its public names on first use (PEP 562): ``import
splitwald`` loads only ``splitwald._version``, and ``splitwald.run_plan``
or ``splitwald.experiments`` imports its submodule the first time it is
read. So a program that never touches the Monte Carlo harness, such as
``splitwald test``, never loads ``experiments``. ``_EXPORTS`` below is the
one table of public names, which ``__all__``, ``dir()`` and attribute
access read.
"""

import importlib

from ._version import __version__

# The public names of each submodule; every submodule is public by its own
# name too.
_EXPORTS = {
    "dgp": ("DgpSpec", "cholesky_lower", "preset", "simulate", "simulate_many"),
    "distributions": (
        "ChiSquareParams",
        "chisq_cdf",
        "chisq_quantile",
        "chisq_sf",
        "normal_cdf",
        "normal_sf",
    ),
    "errors": (
        "ColumnMissing",
        "DegenerateVariance",
        "EmptyReport",
        "InvalidDelta",
        "InvalidGrid",
        "InvalidKurtosis",
        "InvalidLength",
        "InvalidP0",
        "InvalidProbability",
        "NonConvergence",
        "NonFiniteInput",
        "NotPositiveDefinite",
        "NumericOverflow",
        "PlanParseError",
        "SingularDesign",
        "SingularRestriction",
        "SplitwaldError",
        "TooFewRows",
        "UnknownPreset",
    ),
    "experiments": (
        "CellResult",
        "ExperimentPlan",
        "ExperimentReport",
        "PresetRef",
        "export_report",
        "load_plan",
        "plan_from_dict",
        "power_curve_empirical",
        "run_plan",
    ),
    "randomization": ("SeedSpec", "check_p0"),
    "regression": ("RegressionData", "Restriction", "fit_in_place"),
    "teststats": ("StatisticConfig", "TestMode", "TestOutcome", "run_test"),
    "theory": (
        "LocalAlternative",
        "asymptotic_power",
        "elasticity",
        "f_p0",
        "g_p0",
        "mn_rule",
        "ncp_ar1",
        "ncp_general",
        "weight_variance",
    ),
}
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in (module, *names)
}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    """Import the submodule that holds ``name`` and keep the value here, so
    later reads skip this function."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
