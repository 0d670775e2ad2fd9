"""Probability functions used by test decisions and the tuning analysis.

Self-contained implementations: the standard normal CDF via ``erfc``, the
central chi-square CDF through the regularized lower incomplete gamma
(series expansion for small arguments, Lentz continued fraction otherwise),
the noncentral chi-square CDF as a Poisson mixture of central ones, and the
central quantile by bracketed bisection. Random variate generation for the
noncentral family is deliberately absent; the Monte Carlo cross-check lives
in the test suite.
"""

import math
from dataclasses import dataclass

from .errors import InvalidProbability, NonConvergence, check_integer, check_real

_EPS = 1e-16
_MAX_SERIES_ITER = 10**6
# Remaining Poisson tail mass below this truncates the noncentral mixture.
_POISSON_TAIL = 1e-12


@dataclass(frozen=True)
class ChiSquareParams:
    """Degrees of freedom and noncentrality (0 means central)."""

    df: int
    ncp: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "df", check_integer("df", self.df, 1))
        object.__setattr__(self, "ncp", check_real("ncp", self.ncp))
        if self.ncp < 0:
            raise ValueError(f"ncp must be >= 0, got {self.ncp!r}")


def normal_cdf(x):
    """Standard normal CDF."""
    x = check_real("x", x)
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_sf(x):
    """Upper tail ``1 - Phi(x)``, computed without cancellation."""
    x = check_real("x", x)
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _lower_gamma_series(a, x):
    # P(a, x) = x^a e^-x / Gamma(a) * sum_k x^k / (a (a+1) ... (a+k))
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(_MAX_SERIES_ITER):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _EPS:
            return total * math.exp(a * math.log(x) - x - math.lgamma(a))
    raise NonConvergence(f"incomplete gamma series stalled at a={a}, x={x}")


def _upper_gamma_cf(a, x):
    # Q(a, x) via the Lentz continued fraction; valid for x >= a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_SERIES_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h * math.exp(a * math.log(x) - x - math.lgamma(a))
    raise NonConvergence(f"incomplete gamma continued fraction stalled at a={a}, x={x}")


def regularized_lower_gamma(a, x):
    """P(a, x), the regularized lower incomplete gamma function."""
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        return min(_lower_gamma_series(a, x), 1.0)
    return max(1.0 - _upper_gamma_cf(a, x), 0.0)


def _central_chisq_cdf(x, df):
    return regularized_lower_gamma(0.5 * df, 0.5 * x)


def _noncentral_chisq_cdf(x, df, ncp):
    # Poisson(ncp/2) mixture over central chi-square CDFs with df + 2k
    # degrees of freedom, expanded outward from the modal Poisson index so
    # large noncentralities neither underflow nor truncate prematurely.
    lam = 0.5 * ncp
    k0 = int(lam)
    log_w0 = -lam + k0 * math.log(lam) - math.lgamma(k0 + 1) if lam > 0 else 0.0
    w0 = math.exp(log_w0)

    total = w0 * _central_chisq_cdf(x, df + 2 * k0)
    weight_seen = w0

    w_up, w_down = w0, w0
    k_up, k_down = k0, k0
    for _ in range(_MAX_SERIES_ITER):
        if 1.0 - weight_seen < _POISSON_TAIL:
            return min(max(total, 0.0), 1.0)
        advanced = False
        if w_up > 0.0:
            k_up += 1
            w_up *= lam / k_up
            if w_up > 0.0:
                total += w_up * _central_chisq_cdf(x, df + 2 * k_up)
                weight_seen += w_up
                advanced = True
        if k_down > 0:
            w_down *= k_down / lam
            k_down -= 1
            total += w_down * _central_chisq_cdf(x, df + 2 * k_down)
            weight_seen += w_down
            advanced = True
        if not advanced:
            # Both directions exhausted; remaining mass is numerically zero.
            return min(max(total, 0.0), 1.0)
    raise NonConvergence(
        f"noncentral chi-square series failed to reach tail tolerance "
        f"{_POISSON_TAIL} within {_MAX_SERIES_ITER} terms (ncp={ncp})"
    )


def chisq_cdf(x, params):
    """Chi-square CDF, central or noncentral per ``params``.

    Negative ``x`` returns 0. Accuracy is driven by double-precision
    incomplete gamma evaluation; the noncentral mixture is truncated once
    the unexplored Poisson weight falls below 1e-12.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x <= 0.0:
        return 0.0
    if params.ncp == 0.0:
        return _central_chisq_cdf(x, params.df)
    return _noncentral_chisq_cdf(x, params.df, params.ncp)


def chisq_sf(x, params):
    """Upper tail of the chi-square CDF, accurate for large ``x``.

    For the central case the complemented incomplete gamma is evaluated
    directly, so tiny tail probabilities do not vanish to zero through
    ``1 - cdf`` cancellation.
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x <= 0.0:
        return 1.0
    if params.ncp == 0.0:
        a = 0.5 * params.df
        half = 0.5 * x
        if half < a + 1.0:
            return max(1.0 - _lower_gamma_series(a, half), 0.0)
        return min(_upper_gamma_cf(a, half), 1.0)
    return 1.0 - _noncentral_chisq_cdf(x, params.df, params.ncp)


def chisq_quantile(prob, df):
    """Inverse central chi-square CDF by bracketed bisection."""
    try:
        prob = check_real("prob", prob)
    except ValueError as exc:
        raise InvalidProbability(str(exc)) from None
    if not 0.0 < prob < 1.0:
        raise InvalidProbability(f"prob must lie in (0, 1), got {prob!r}")
    params = ChiSquareParams(df=df)
    lo, hi = 0.0, float(df) + 10.0 * math.sqrt(2.0 * df) + 10.0
    while chisq_cdf(hi, params) < prob:
        hi *= 2.0
        if hi > 1e300:
            raise NonConvergence("quantile bracket exceeded floating-point range")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chisq_cdf(mid, params) < prob:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * (1.0 + hi):
            break
    return 0.5 * (lo + hi)
