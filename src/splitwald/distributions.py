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
import reprlib
from dataclasses import dataclass

from .errors import InvalidProbability, NonConvergence, check_integer, check_real

_EPS = 1e-16
_MAX_SERIES_ITER = 10**6
# Each direction of the noncentral mixture stops at a Poisson weight below
# this times the modal weight. A stop on the unseen mass, 1 - sum(w) < 1e-12,
# could not fire at large ncp: the modal weight is the exponential of a
# difference of terms near ncp * log(ncp), whose rounding exceeds 1e-12.
_POISSON_TAIL = 1e-12
# Largest df + ncp: lgamma((df + ncp) / 2) leaves the float range near 5e305.
_MAX_DF_NCP = 1e305


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
        # df first: an int beyond the float range cannot be added to ncp
        if self.df > _MAX_DF_NCP or self.df + self.ncp > _MAX_DF_NCP:
            df = reprlib.repr(self.df)
            raise ValueError(f"df + ncp must be at most 1e+305, got {df} + {self.ncp!r}")


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
    if b == 0.0:  # x == a >= 2**53, where x + 1 rounds to x
        raise NonConvergence(
            f"incomplete gamma continued fraction cannot start at a={a}, x={x}"
        )
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


def _gamma_tails(a, x):
    """``(P(a, x), Q(a, x))``, the regularized incomplete gamma tails: the
    series gives ``P`` below ``x = a + 1``, the continued fraction gives
    ``Q`` from there, and the other tail is the complement."""
    if x <= 0.0:
        return 0.0, 1.0
    if x < a + 1.0:
        lower = min(_lower_gamma_series(a, x), 1.0)
        return lower, 1.0 - lower
    upper = min(_upper_gamma_cf(a, x), 1.0)
    return 1.0 - upper, upper


def _central_chisq_cdf(x, df):
    return _gamma_tails(0.5 * df, 0.5 * x)[0]


def _noncentral_chisq_cdf(x, df, ncp):
    # Poisson(ncp/2) mixture over central chi-square CDFs with df + 2k
    # degrees of freedom, summed from the modal Poisson index up, then down,
    # as AS 275 does (Ding 1992); the weights fall away from the mode.
    lam = 0.5 * ncp
    k0 = int(lam)
    log_w0 = -lam + k0 * math.log(lam) - math.lgamma(k0 + 1) if lam > 0 else 0.0
    w0 = math.exp(log_w0)
    total = w0 * _central_chisq_cdf(x, df + 2 * k0)
    # the modal term alone at tiny ncp, and from ncp ~ 1e16, where log_w0 is 0
    if 1.0 - w0 < _POISSON_TAIL:
        return min(max(total, 0.0), 1.0)
    for step in (1, -1):
        w, k = w0, k0
        for _ in range(_MAX_SERIES_ITER):
            # at k = 0 the downward factor k / lam is 0, which ends that walk
            w *= lam / (k + 1) if step > 0 else k / lam
            k += step
            if w < _POISSON_TAIL * w0:
                break
            total += w * _central_chisq_cdf(x, df + 2 * k)
        else:
            raise NonConvergence(
                f"noncentral chi-square series did not fall to {_POISSON_TAIL} "
                f"of its modal weight within {_MAX_SERIES_ITER} terms (ncp={ncp})"
            )
    return min(max(total, 0.0), 1.0)


def chisq_cdf(x, params):
    """Chi-square CDF, central or noncentral per ``params``.

    Negative ``x`` returns 0. Accuracy is driven by double-precision
    incomplete gamma evaluation. The noncentral mixture is summed up and
    down from its modal Poisson term, each direction until a weight falls
    below 1e-12 of the modal one; a stop on the unseen Poisson mass could
    not fire at large ``ncp``, where the weights' rounding exceeds 1e-12.
    """
    x = check_real("x", x)
    if params.ncp == 0.0:
        return _central_chisq_cdf(x, params.df)
    return _noncentral_chisq_cdf(x, params.df, params.ncp)


def chisq_sf(x, params):
    """Upper tail of the chi-square CDF, accurate for large ``x``.

    For the central case the complemented incomplete gamma is evaluated
    directly, so tiny tail probabilities do not vanish to zero through
    ``1 - cdf`` cancellation.
    """
    x = check_real("x", x)
    if params.ncp == 0.0:
        return _gamma_tails(0.5 * params.df, 0.5 * x)[1]
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
