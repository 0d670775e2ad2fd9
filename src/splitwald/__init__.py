"""Serial-dependence- and persistence-robust significance tests for
predictive regressions, built on randomized split-sample Wald statistics,
plus the benchmark data-generating processes and a reproducible Monte Carlo
harness."""

from ._version import __version__
from .dgp import (
    DgpSpec,
    cholesky_lower,
    preset,
    simulate,
    simulate_many,
)
from .distributions import (
    ChiSquareParams,
    chisq_cdf,
    chisq_quantile,
    chisq_sf,
    normal_cdf,
    normal_sf,
)
from .errors import (
    ColumnMissing,
    DegenerateVariance,
    EmptyReport,
    InvalidDelta,
    InvalidGrid,
    InvalidKurtosis,
    InvalidLength,
    InvalidP0,
    InvalidProbability,
    NonConvergence,
    NonFiniteInput,
    NotPositiveDefinite,
    NumericOverflow,
    PlanParseError,
    SingularDesign,
    SingularRestriction,
    SplitwaldError,
    TooFewRows,
    UnknownPreset,
)
from .experiments import (
    CellResult,
    ExperimentPlan,
    ExperimentReport,
    PresetRef,
    export_report,
    load_plan,
    plan_from_dict,
    power_curve_empirical,
    run_plan,
)
from .randomization import SeedSpec, check_p0, draw_bernoulli_rows
from .regression import (
    RegressionData,
    Restriction,
    fit_in_place,
)
from .teststats import (
    StatisticConfig,
    TestMode,
    TestOutcome,
    run_test,
)
from .theory import (
    LocalAlternative,
    asymptotic_power,
    elasticity,
    f_p0,
    g_p0,
    mn_rule,
    ncp_ar1,
    ncp_general,
    weight_variance,
)

__all__ = [name for name in dir() if not name.startswith("_")] + ["__version__"]
