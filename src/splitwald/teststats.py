"""The randomized split-sample significance statistics.

Given restricted and unrestricted squared residuals, each Bernoulli draw
defines the contrast sequence

    d_t = w_t (u0_t^2 - s2) - (u1_t^2 - s2),

whose studentized squared mean is the single-shot statistic. Summing over
``M`` independent draws gives the aggregate statistic with a chi-square(M)
null; its centered and scaled version ``(S_M - M) / sqrt(2 M)`` is standard
normal when ``M`` grows with the sample (but slower than it).

The ``M`` draws are the rows of one Bernoulli block (stream layout 3, two
draws per Philox word, see :mod:`splitwald.randomization`). The weights
take two values per row, so every row's mean and variance of ``d`` are
closed forms in three masked sums, and one ``(M, n) @ (n, 3)`` product
gives all ``M`` statistics without forming any ``d``.

Rejection regions: the fixed-M mode refers the aggregate to the upper tail
of its exact chi-square null. The growing-M mode refers the centered
statistic to a two-sided standard-normal region; an upper-tail-only normal
region would systematically over-reject at realistic draw counts because
the chi-square's right skew has not died out yet, and the benchmark size
tables are only reproduced by the two-sided convention.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import ChiSquareParams, chisq_sf, normal_sf
from .errors import (
    DegenerateVariance,
    InvalidDelta,
    LengthMismatch,
    check_integer,
    check_real,
)
from .randomization import STREAM_LAYOUT, check_p0, draw_bernoulli_rows
from .regression import DesignFactor
from .theory import mn_rule


class TestMode(Enum):
    """How the aggregate statistic is referred to its null distribution."""

    __test__ = False  # keep pytest from collecting this as a test class

    FIXED_M_CHI_SQUARE = "fixed-m"
    GROWING_M_NORMAL = "growing-m"


# Accepted spellings of each mode, matched case-insensitively.
_MODE_NAMES = {
    "fixed": TestMode.FIXED_M_CHI_SQUARE,
    "fixed-m": TestMode.FIXED_M_CHI_SQUARE,
    "fixed-m-chi-square": TestMode.FIXED_M_CHI_SQUARE,
    "growing": TestMode.GROWING_M_NORMAL,
    "growing-m": TestMode.GROWING_M_NORMAL,
    "growing-m-normal": TestMode.GROWING_M_NORMAL,
}


@dataclass(frozen=True)
class StatisticConfig:
    """Tuning of one test: probability, draw count rule, level, mode.

    The one place that validates and normalizes user input; the CLI and plan
    files pass their values through. ``mode`` is a :class:`TestMode` or one
    of the spellings in ``_MODE_NAMES``. At most one of ``m`` (an integer
    draw count) and ``mn_delta`` (growth rule ``floor((n / p0)^delta)``) may
    be set; when neither is given the fixed default ``m=5`` applies, a draw
    count that is typically enough for persistent predictors (stationary
    settings benefit from 10-20).
    """

    p0: float = 0.40
    mode: TestMode = TestMode.FIXED_M_CHI_SQUARE
    m: int = None
    mn_delta: float = None
    alpha: float = 0.10

    def __post_init__(self):
        p0 = check_p0(self.p0)
        mode = _MODE_NAMES.get(str(self.mode).lower(), self.mode)
        if not isinstance(mode, TestMode):
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {', '.join(_MODE_NAMES)}"
            )
        alpha = check_real("alpha", self.alpha)
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha!r}")
        m, mn_delta = self.m, self.mn_delta
        if m is not None and mn_delta is not None:
            raise ValueError("m and mn_delta are mutually exclusive; set one")
        if mn_delta is None:
            m = check_integer("m", 5 if m is None else m, 1)
        else:
            mn_delta = check_real("mn_delta", mn_delta)
            if not 0.0 < mn_delta < 1.0:
                raise InvalidDelta(
                    f"mn_delta must lie in (0, 1) so that M_n/n -> 0, got {mn_delta!r}"
                )
        fields = dict(p0=p0, mode=mode, m=m, mn_delta=mn_delta, alpha=alpha)
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    @classmethod
    def growing(cls, mn_delta=1.0 / 3.0, p0=0.40, alpha=0.10):
        return cls(p0=p0, mode=TestMode.GROWING_M_NORMAL, mn_delta=mn_delta, alpha=alpha)

    def resolve_m(self, n):
        """Number of Bernoulli draws for a sample of size ``n``."""
        if self.m is not None:
            return self.m
        return mn_rule(n, self.p0, self.mn_delta)


@dataclass
class TestOutcome:
    """Result of one randomized test, with seed provenance.

    ``s_n``, ``d_bar`` and ``s_d2`` are the ``(M,)`` arrays of the draws'
    single-shot statistics, means and variances.
    """

    s_m: float
    q: float
    s_n: np.ndarray
    d_bar: np.ndarray
    s_d2: np.ndarray
    p_value: float
    reject: bool
    df_or_mn: int
    seed: object
    mode: TestMode
    alpha: float

    def as_dict(self):
        rows = zip(self.s_n.tolist(), self.d_bar.tolist(), self.s_d2.tolist())
        return {
            "s_m": self.s_m,
            "q": self.q,
            "m": self.df_or_mn,
            "p_value": self.p_value,
            "reject": self.reject,
            "mode": self.mode.value,
            "alpha": self.alpha,
            "per_draw": [{"s_n": s, "d_bar": d, "s_d2": v} for s, d, v in rows],
            "seed": self.seed.describe(),
            "stream_layout": STREAM_LAYOUT,
        }


def draw_statistics(u0_sq, u1_sq, sigma2_1, b, counts):
    """Single-shot statistics of every Bernoulli row, in closed form.

    ``b`` is the ``(M, n)`` 0/1 matrix of the draws and ``counts`` its row
    sums. With ``a = u0^2 - s2`` and ``c = u1^2 - s2``, row ``j`` has
    ``d_t = k_t a_t - c_t`` where ``k_t`` is ``1/(2 b_bar)`` on its ones and
    ``1/(2 (1 - b_bar))`` on its zeros, so ``sum(d)`` and ``sum(d^2)`` follow
    from the masked sums ``b @ [a, a^2, a c]`` and fixed totals.

    The sums are taken of ``d - m0``, that is with ``c + m0`` in place of
    ``c``, where ``m0 = mean(a) - mean(c)`` is common to all rows. It is the
    mean of ``d`` up to a split term of order ``s_d / sqrt(n)``, so the
    one-pass variance does not cancel when ``d`` is far from zero or nearly
    constant.

    Returns the arrays ``(s_n, d_bar, s_d2)``, with the n-divisor variance.
    A row whose ``d`` is numerically constant cannot be studentized and
    raises :class:`DegenerateVariance` carrying the first such draw (1-based).
    """
    u0_sq = np.asarray(u0_sq, dtype=np.float64)
    u1_sq = np.asarray(u1_sq, dtype=np.float64)
    m, n = b.shape
    if not u0_sq.shape == u1_sq.shape == (n,) or counts.shape != (m,):
        raise LengthMismatch(
            f"length mismatch: u0 {u0_sq.shape}, u1 {u1_sq.shape}, "
            f"draws {b.shape}, counts {counts.shape}"
        )
    if n < 2:
        raise LengthMismatch(f"need at least 2 observations, got {n}")
    if sigma2_1 < 0:
        raise ValueError(f"sigma2_1 must be >= 0, got {sigma2_1!r}")
    a = u0_sq - sigma2_1
    c = u1_sq - sigma2_1
    m0 = a.mean() - c.mean()
    c += m0
    rows = np.vstack((a, a * a, a * c))
    s_a, s_aa, s_ac = (b @ rows.T).T
    t_a, t_aa, t_ac = rows.sum(axis=1)
    b_bar = counts / n
    k1 = 0.5 / b_bar
    k0 = 0.5 / (1.0 - b_bar)
    sum_d = k1 * s_a + k0 * (t_a - s_a) - c.sum()
    sum_d2 = (
        k1 * k1 * s_aa
        + k0 * k0 * (t_aa - s_aa)
        - 2.0 * (k1 * s_ac + k0 * (t_ac - s_ac))
        + c @ c
    )
    shift = sum_d / n
    d_bar = m0 + shift
    s_d2 = sum_d2 / n - shift * shift
    degenerate = np.flatnonzero(s_d2 < 1e-14 * (1.0 + d_bar * d_bar))
    if degenerate.size:
        j = int(degenerate[0])
        raise DegenerateVariance(
            f"Bernoulli draw {j + 1} of {m}: contrast sequence has numerically "
            f"zero variance (s_d2={s_d2[j]:.3e})",
            draw_index=j + 1,
        )
    return n * d_bar * d_bar / s_d2, d_bar, s_d2


def run_test(data, restriction, cfg, seed):
    """Run the full randomized test on one dataset.

    Fits the restricted and unrestricted regressions once, draws the ``M``
    Bernoulli rows from the one stream at ``seed`` (draw ``j`` is row
    ``j - 1``, stream layout 3), computes every single-shot statistic with
    :func:`draw_statistics`, aggregates them and returns the outcome:
    chi-square(M) upper-tail p-value in fixed-M mode, two-sided
    standard-normal p-value for the centered-scaled statistic in growing-M
    mode.
    """
    factor = DesignFactor(data)
    unrestricted = factor.unrestricted()
    restricted = factor.restricted(restriction)
    m = cfg.resolve_m(data.n)
    b, counts = draw_bernoulli_rows(data.n, cfg.p0, m, seed)
    s_n, d_bar, s_d2 = draw_statistics(
        restricted.residuals**2,
        unrestricted.residuals**2,
        unrestricted.sigma2_hat,
        b,
        counts,
    )
    s_m = float(s_n.sum())

    q = (s_m - m) / math.sqrt(2.0 * m)
    if cfg.mode is TestMode.FIXED_M_CHI_SQUARE:
        p_value = chisq_sf(s_m, ChiSquareParams(df=m))
    else:
        p_value = min(2.0 * normal_sf(abs(q)), 1.0)
    return TestOutcome(
        s_m=s_m,
        q=q,
        s_n=s_n,
        d_bar=d_bar,
        s_d2=s_d2,
        p_value=p_value,
        reject=bool(p_value < cfg.alpha),
        df_or_mn=m,
        seed=seed,
        mode=cfg.mode,
        alpha=cfg.alpha,
    )
