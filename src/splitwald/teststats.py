"""The randomized split-sample significance statistics.

Given restricted and unrestricted squared residuals, each Bernoulli draw
defines the contrast sequence

    d_t = w_t (u0_t^2 - s2) - (u1_t^2 - s2),

whose studentized squared mean is the single-shot statistic. Summing over
``M`` independent draws gives the aggregate statistic with a chi-square(M)
null; its centered and scaled version ``(S_M - M) / sqrt(2 M)`` is standard
normal when ``M`` grows with the sample (but slower than it).

The statistics run in two stages, so that the Monte Carlo harness can run
both on a batch of replications. :class:`StatisticSetup` fits both
regressions of a time-major batch in place and computes, as arrays,
everything that does not depend on the draws. Per replication, the ``M``
draws are the rows of one Bernoulli block (stream layout 5, four draws per
SFC64 word, see :mod:`splitwald.randomization`), and one ``(M, n) @ (n, 4)``
product (:meth:`StatisticSetup.sums`) gives each row's three masked sums and
its count of ones. The weights take two values per row, so every row's mean
and variance of ``d`` are closed forms in those sums.
:meth:`StatisticSetup.statistics` evaluates them once for the whole batch
on ``(R, M)`` arrays, without forming any ``d``, and marks the replications
with a degenerate draw. :func:`run_test` is the one-replication case.

Rejection regions: the fixed-M mode refers the aggregate to the upper tail
of its exact chi-square null. The growing-M mode refers the centered
statistic to a two-sided standard-normal region; an upper-tail-only normal
region would systematically over-reject at realistic draw counts because
the chi-square's right skew has not died out yet, and the benchmark size
tables are only reproduced by the two-sided convention. :func:`p_value`
gives the p-value of either mode, and :func:`reject_rule` the harness's
decision, which equals ``p < alpha`` but takes the p-value only near the
fixed-M critical value.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .distributions import ChiSquareParams, chisq_quantile, chisq_sf, normal_sf
from .errors import DegenerateVariance, check_integer
from .randomization import STREAM_LAYOUT, check_p0, draw_bernoulli_rows
from .regression import fit_in_place, time_dot, time_sum
from .theory import check_alpha, check_mn_delta, mn_rule


# Relative half-width of the band around the chi-square critical value in
# which a fixed-M decision computes the p-value.
GUARD_BAND = 1e-9


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
        alpha = check_alpha(self.alpha)
        m, mn_delta = self.m, self.mn_delta
        if m is not None and mn_delta is not None:
            raise ValueError("m and mn_delta are mutually exclusive; set one")
        if mn_delta is None:
            m = check_integer("m", 5 if m is None else m, 1)
        else:
            mn_delta = check_mn_delta(mn_delta)
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


class StatisticSetup:
    """The draw-free part of the statistics of a batch of R replications.

    ``u0_sq`` and ``u1_sq`` are the time-major ``(n, R)`` restricted and
    unrestricted squared residuals and ``sigma2_1`` the ``(R,)`` unrestricted
    variances. With ``a = u0^2 - s2`` and ``c = u1^2 - s2``, row ``j`` of the
    draws has ``d_t = k_t a_t - c_t`` where ``k_t`` is ``1/(2 b_bar)`` on its
    ones and ``1/(2 (1 - b_bar))`` on its zeros, so ``sum(d)`` and
    ``sum(d^2)`` follow from the masked sums ``b @ [a, a^2, a c]``, the
    row's count of ones ``b @ 1`` and fixed totals. The set-up writes ``a``
    and ``c`` over the squared residuals and computes their totals and the
    sum and square sum of ``c`` on the whole batch at once.

    The sums are taken of ``d - m0``, that is with ``c + m0`` in place of
    ``c``, where ``m0 = mean(a) - mean(c)`` is common to all rows. It is the
    mean of ``d`` up to a split term of order ``s_d / sqrt(n)``, so the
    one-pass variance does not cancel when ``d`` is far from zero or nearly
    constant.

    A caller draws each replication's rows with
    :func:`~splitwald.randomization.draw_bernoulli_rows`, takes their
    :meth:`sums` and scores the batch's sums with :meth:`statistics`; the
    decision on each replication's total is :func:`reject_rule` in the
    harness and :func:`p_value` in :func:`run_test`.
    """

    def __init__(self, u0_sq, u1_sq, sigma2_1):
        self.n = u0_sq.shape[0]
        self.sigma2_1 = sigma2_1
        self.a = a = np.subtract(u0_sq, sigma2_1, out=u0_sq)
        self.c = c = np.subtract(u1_sq, sigma2_1, out=u1_sq)
        self.m0 = time_sum(a) / self.n - time_sum(c) / self.n
        c += self.m0
        self.totals = np.stack([time_sum(a), time_dot(a, a), time_dot(a, c)])
        self.c_sum = time_sum(c)
        self.c_sq = time_dot(c, c)
        self.rows = np.ones((4, self.n))  # [a, a^2, a c, 1] of one replication

    @classmethod
    def fit(cls, data, restriction, beta=None, scratch=None):
        """Both fits of a time-major batch by :func:`fit_in_place`, then the
        set-up of their statistics, with both residuals squared in place."""
        u0, u1 = fit_in_place(data, restriction, beta, scratch)
        u1 *= u1
        sigma2_1 = time_sum(u1) / u1.shape[0]
        u0 *= u0
        return cls(u0, u1, sigma2_1)

    def sums(self, r, b, out=None):
        """The ``(M, 4)`` sums ``b @ [a, a^2, a c, 1]`` of replication ``r``
        for its ``(M, n)`` 0/1 draws ``b``: the three masked sums and the
        count of ones of every row, in one product, of rows filled from the
        batch's ``a`` and ``c`` for the call."""
        a, c, rows = self.a[:, r], self.c[:, r], self.rows
        rows[0] = a
        np.multiply(a, a, out=rows[1])
        np.multiply(a, c, out=rows[2])
        return np.matmul(b, rows.T, out=out)

    def statistics(self, sums):
        """``(s_n, d_bar, s_d2, degenerate)`` of the ``(R, M, 4)`` stack of
        every replication's :meth:`sums`: the closed form on ``(R, M)``
        arrays, with the n-divisor variance, and the ``(R,)`` mask of the
        replications with a degenerate draw.

        A draw whose ``d`` is numerically constant cannot be studentized;
        its ``s_n`` is meaningless, and its replication is marked.
        """
        n = self.n
        s_a, s_aa, s_ac, counts = np.moveaxis(sums, 2, 0)
        t_a, t_aa, t_ac = self.totals[:, :, None]
        b_bar = counts / n
        k1 = 0.5 / b_bar
        k0 = 0.5 / (1.0 - b_bar)
        sum_d = k1 * s_a + k0 * (t_a - s_a) - self.c_sum[:, None]
        sum_d2 = k1 * k1 * s_aa + k0 * k0 * (t_aa - s_aa)
        sum_d2 -= 2.0 * (k1 * s_ac + k0 * (t_ac - s_ac))
        sum_d2 += self.c_sq[:, None]
        del b_bar, k0, k1  # a whole batch's (R, M) arrays add up
        shift = np.divide(sum_d, n, out=sum_d)
        d_bar = self.m0[:, None] + shift
        s_d2 = np.divide(sum_d2, n, out=sum_d2)
        s_d2 -= shift * shift
        with np.errstate(divide="ignore", invalid="ignore"):
            s_n = n * d_bar * d_bar / s_d2
        degenerate = _degenerate(d_bar, s_d2, self.sigma2_1[:, None])
        return s_n, d_bar, s_d2, degenerate.any(axis=1)


def _degenerate(d_bar, s_d2, sigma2_1):
    """Where a draw's contrast ``d`` is numerically constant: its variance is
    at most 1e-14 of ``sigma2_1^2 + d_bar^2``, which scales as ``d^2`` does,
    so the rule does not depend on the units of ``y``. A noise-free fit,
    where all three are zero, is degenerate."""
    return s_d2 <= 1e-14 * (sigma2_1 * sigma2_1 + d_bar * d_bar)


def _one_replication(setup, b):
    """``(s_n, d_bar, s_d2)`` of the one replication of ``setup`` for its
    ``(M, n)`` draws ``b``: the one-replication case of
    :meth:`StatisticSetup.statistics`, which raises
    :class:`DegenerateVariance` carrying the first degenerate draw
    (1-based)."""
    s_n, d_bar, s_d2, degenerate = setup.statistics(setup.sums(0, b)[None])
    s_n, d_bar, s_d2 = s_n[0], d_bar[0], s_d2[0]
    if degenerate[0]:
        j = int(np.argmax(_degenerate(d_bar, s_d2, setup.sigma2_1[0])))
        raise DegenerateVariance(
            f"Bernoulli draw {j + 1} of {b.shape[0]}: contrast sequence has "
            f"numerically zero variance (s_d2={s_d2[j]:.3e})",
            draw_index=j + 1,
        )
    return s_n, d_bar, s_d2


def p_value(s_m, m, mode):
    """``(q, p)``: the centred-scaled statistic and the p-value of ``S_M``.

    The chi-square(M) upper tail in fixed-M mode; the two-sided
    standard-normal p-value of ``q`` in growing-M mode.
    """
    q = (s_m - m) / math.sqrt(2.0 * m)
    if mode is TestMode.FIXED_M_CHI_SQUARE:
        return q, chisq_sf(s_m, ChiSquareParams(df=m))
    return q, min(2.0 * normal_sf(abs(q)), 1.0)


def reject_rule(cfg, m):
    """``reject(s_m)``, equal to ``p_value(s_m, m, cfg.mode)[1] < cfg.alpha``.

    In fixed-M mode it compares ``S_M`` with the chi-square critical value,
    computed once, and computes the p-value only inside a relative band of
    ``GUARD_BAND`` around it. The band is checked to hold the point where
    the p-value crosses ``alpha``, and the p-value is monotone in ``S_M``, so
    every decision equals the p-value's; if the check fails, every decision
    takes the p-value. Growing-M mode always takes its normal p-value.
    """

    def by_p_value(s_m):
        return p_value(s_m, m, cfg.mode)[1] < cfg.alpha

    if cfg.mode is not TestMode.FIXED_M_CHI_SQUARE:
        return by_p_value
    crit = chisq_quantile(1.0 - cfg.alpha, m)
    lo, hi = crit * (1.0 - GUARD_BAND), crit * (1.0 + GUARD_BAND)
    if by_p_value(lo) or not by_p_value(hi):
        return by_p_value

    def reject(s_m):
        if s_m > hi:
            return True
        if s_m < lo:
            return False
        return by_p_value(s_m)

    return reject


def run_test(data, restriction, cfg, seed):
    """Run the full randomized test on one dataset.

    The one-replication case of the harness's path: fits the restricted and
    unrestricted regressions in a :class:`StatisticSetup` of one
    replication, draws the ``M`` Bernoulli rows from the start of the
    stream at ``seed``, computes every single-shot statistic, aggregates
    them and returns the outcome with its :func:`p_value`. A degenerate
    draw raises :class:`DegenerateVariance` carrying its 1-based index.
    """
    m = cfg.resolve_m(data.n)
    batch = np.column_stack([data.X, data.y])[:, :, None]  # time-major, of one
    setup = StatisticSetup.fit(batch, restriction)
    b = draw_bernoulli_rows(data.n, cfg.p0, m, seed.generator())
    s_n, d_bar, s_d2 = _one_replication(setup, b)
    s_m = float(s_n.sum())
    q, p = p_value(s_m, m, cfg.mode)
    return TestOutcome(
        s_m=s_m,
        q=q,
        s_n=s_n,
        d_bar=d_bar,
        s_d2=s_d2,
        p_value=p,
        reject=bool(p < cfg.alpha),
        df_or_mn=m,
        seed=seed,
        mode=cfg.mode,
        alpha=cfg.alpha,
    )
