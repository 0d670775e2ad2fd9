"""Closed-form tuning and local-power functions.

These are the analytic companions to the simulation harness: the
noncentrality scaling factor ``f``, the normal-approximation accuracy factor
``g``, the elasticity of the weight variance, noncentrality parameters under
local alternatives, the induced asymptotic power curve, and the growth rule
for the number of Bernoulli draws.
"""

import math
from dataclasses import dataclass

from .distributions import ChiSquareParams, chisq_cdf, chisq_quantile
from .errors import InvalidDelta, InvalidKurtosis, InvalidP0, check_integer, check_real
from .randomization import check_p0


def _open_unit(p0, name="p0"):
    p0 = check_real(name, p0)
    if not 0.0 < p0 < 1.0:
        raise InvalidP0(f"{name} must lie strictly inside (0, 1), got {p0!r}")
    return p0


def f_p0(p0):
    """Noncentrality scaling factor ``4 p0 (1 - p0) / (1 - 2 p0)^2``.

    Strictly increasing on (0, 1/2) with a pole at one-half, which is why
    power favours pushing ``p0`` toward the tolerated boundary below 1/2.
    """
    p0 = _open_unit(p0)
    if p0 == 0.5:
        raise InvalidP0("f has a pole at p0 = 1/2")
    return 4.0 * p0 * (1.0 - p0) / (1.0 - 2.0 * p0) ** 2


def g_p0(p0):
    """Normal-approximation accuracy factor ``(1 - 2 p0 (1-p0)) / sqrt(p0 (1-p0))``.

    Shape diagnostic only: flat near one-half (value 1 there) and diverging
    at the 0/1 boundaries, which motivates keeping ``p0`` well inside (0, 1).
    """
    p0 = _open_unit(p0)
    return (1.0 - 2.0 * p0 * (1.0 - p0)) / math.sqrt(p0 * (1.0 - p0))


def elasticity(p0):
    """Elasticity of the limit weight variance with respect to ``p0``.

    Equals ``-1 / ((1 - p0)(1 - 2 p0))``; its blow-up as ``p0`` approaches
    one-half quantifies how fast variance degeneracy sets in.
    """
    p0 = _open_unit(p0)
    if p0 == 0.5:
        raise InvalidP0("elasticity has a pole at p0 = 1/2")
    return -1.0 / ((1.0 - p0) * (1.0 - 2.0 * p0))


def weight_variance(p0):
    """Limit variance of the population weights, ``(1-2p0)^2 / (4 p0 (1-p0))``.

    Zero exactly at one-half (allowed here: this function documents the
    degeneracy rather than guarding against it).
    """
    p0 = _open_unit(p0)
    return (1.0 - 2.0 * p0) ** 2 / (4.0 * p0 * (1.0 - p0))


def _check_ar1(phi1, kurtosis_u):
    """A stationary AR(1) predictor, and errors whose kurtosis exceeds 1."""
    if abs(phi1) >= 1:
        raise ValueError(f"|phi1| must be < 1, got {phi1!r}")
    if kurtosis_u <= 1:
        raise InvalidKurtosis(f"kurtosis must exceed 1, got {kurtosis_u!r}")


@dataclass
class LocalAlternative:
    """Local departure from the global null, as the two scalars that
    :func:`ncp_general` reads.

    ``q_inf`` is the scalar quadratic form of the departure coefficients in
    the limiting second-moment matrix of the predictors. For the
    nearly-integrated class that limit is a random quantity; supplying a
    single deterministic scalar is a deliberate simplification and is the
    caller's responsibility. ``sigma_eta`` is the standard deviation of the
    centered squared errors.
    """

    q_inf: float
    sigma_eta: float

    def __post_init__(self):
        self.q_inf = check_real("q_inf", self.q_inf)
        self.sigma_eta = check_real("sigma_eta", self.sigma_eta)
        if self.sigma_eta <= 0:
            raise ValueError(f"sigma_eta must be positive, got {self.sigma_eta!r}")
        if self.q_inf < 0:
            raise ValueError(f"q_inf must be nonnegative, got {self.q_inf!r}")

    @classmethod
    def single_stationary(cls, delta1, phi1, sigma2_v, sigma2_u, kurtosis_u=3.0):
        """Convenience construction for one stationary AR(1) predictor.

        Uses ``q_inf = delta1^2 sigma2_v / (1 - phi1^2)`` and the
        Gaussian-style ``sigma_eta = sigma2_u sqrt(Ku - 1)``.
        """
        _check_ar1(phi1, kurtosis_u)
        q_inf = delta1**2 * sigma2_v / (1.0 - phi1**2)
        sigma_eta = sigma2_u * math.sqrt(kurtosis_u - 1.0)
        return cls(q_inf=q_inf, sigma_eta=sigma_eta)


def ncp_general(p0, m, la):
    """Noncentrality parameter ``M * f(p0) * (q_inf / sigma_eta)^2``."""
    p0 = check_p0(p0)
    m = check_integer("m", m, 1)
    return m * f_p0(p0) * (la.q_inf / la.sigma_eta) ** 2


def ncp_ar1(p0, m, delta1, sigma2_v, sigma2_u, phi1, kurtosis_u):
    """Noncentrality for a single stationary AR(1) predictor, in closed form.

    ``M f(p0) delta1^4 (sigma2_v / sigma2_u)^2 / ((1 - phi1^2)^2 (Ku - 1))``.
    This is ``ncp_general`` of ``LocalAlternative.single_stationary``, which
    takes the square root of ``Ku - 1`` and squares it again, so the two
    differ in the last bits.
    """
    p0 = check_p0(p0)
    m = check_integer("m", m, 1)
    _check_ar1(phi1, kurtosis_u)
    if sigma2_v <= 0 or sigma2_u <= 0:
        raise ValueError("variances must be positive")
    return (
        m
        * f_p0(p0)
        * delta1**4
        * (sigma2_v / sigma2_u) ** 2
        / (1.0 - phi1**2) ** 2
        / (kurtosis_u - 1.0)
    )


def asymptotic_power(ncp, m, alpha):
    """Upper-tail rejection probability of the noncentral chi-square test.

    ``P[chi2(ncp; M) > q]`` with ``q`` the level-``alpha`` critical value of
    the central chi-square with ``M`` degrees of freedom. Equals ``alpha``
    exactly at ``ncp = 0``.
    """
    alpha = check_alpha(alpha)
    crit = chisq_quantile(1.0 - alpha, m)
    return 1.0 - chisq_cdf(crit, ChiSquareParams(df=m, ncp=ncp))


def check_alpha(alpha):
    """``alpha`` as a float in (0, 1): the nominal level of a test."""
    alpha = check_real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return alpha


def check_mn_delta(delta):
    """``delta`` as a float in (0, 1): the growth exponent of the draw count."""
    delta = check_real("mn_delta", delta)
    if not 0.0 < delta < 1.0:
        raise InvalidDelta(
            f"growth exponent mn_delta must lie in (0, 1) so that M_n/n -> 0, "
            f"got {delta!r}"
        )
    return delta


def mn_rule(n, p0, delta):
    """Draw-count growth rule ``floor((n / p0)^delta)``, clamped at 1. A
    power within 1e-9 (relative) of an integer, such as ``1000 ** (1/3)``
    at 9.999999999999998, is that integer before the floor."""
    check_integer("n", n, 2)
    p0 = check_p0(p0)
    power = (n / p0) ** check_mn_delta(delta)
    if abs(power - round(power)) <= 1e-9 * power:
        power = round(power)
    return max(1, int(math.floor(power)))
