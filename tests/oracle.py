"""Slow references that tests compare the library against.

``draw_bernoulli_weights`` takes one Bernoulli draw and its split-sample
weights, ``compute_d_sequence`` materializes the contrast sequence of that
draw and ``single_shot`` studentizes it with a centered second pass. The
library computes the same quantities for all draws at once in closed form
(:meth:`splitwald.teststats.StatisticSetup.statistics`);
``closed_form_statistics`` calls it on a set-up of one replication.
``draw_bernoulli_rows`` reads one block of stream layout 5 through
:class:`splitwald.randomization.BernoulliRows`, as the library does.

``DesignFactor`` fits one dataset, coefficients included, through the QR
of its uncentred augmented design, as the library did before it fitted the
residuals of a centred stack of replications. ``fit_residuals`` is that
centred stacked fit, one QR for the unrestricted and one for the
restricted model, as the library did before
:func:`splitwald.regression.fit_in_place` fitted a time-major batch with
one Gram-Schmidt pass. ``replication_oracle`` runs one replication
on one generator: ``simulate_oracle`` from the start of the stream,
``DesignFactor``, the Bernoulli rows from the continuation of the same
stream, ``closed_form_statistics``, then the p-value from ``chisq_sf`` or
``normal_sf`` and ``p < alpha``, as the harness did before it fitted, set up
and scored batches as arrays and decided by the critical value.
``run_plan_oracle`` runs a plan through it one replication at a time.

``bernoulli_rows_oracle`` defines stream layout 5 arithmetically: it splits
each stream word into its four 16-bit quarters with Python integers, lowest
first, and compares each quarter with ``ceil(p0 * 2**16)`` in exact rational
arithmetic, one draw at a time, as a
:class:`splitwald.randomization.BernoulliRows` block does through a 16-bit
view of the words.

``simulate_oracle`` runs the data-generating recursions one time step at a
time, all predictors together, as :func:`splitwald.simulate` did before it
ran one AR recursion per series. It draws the shocks from a generator and
leaves it after them, as :func:`splitwald.simulate_many` does, and keeps
the errors ``u`` of the sample, which the library does not return.

``read_csv_oracle`` reads a `splitwald test` CSV one record at a time with
``csv`` and ``float()``, as ``splitwald.cli._read_csv`` did before it parsed
the body with one ``np.loadtxt`` call.

``noncentral_chisq_cdf`` sums the Poisson mixture of the noncentral
chi-square CDF with two interleaved cursors out from the modal index,
stopping once the weights seen sum to within ``_POISSON_TAIL`` of 1, as
``splitwald.distributions._noncentral_chisq_cdf`` did before it walked one
direction at a time and stopped on a weight ratio.
"""

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from splitwald import (
    ChiSquareParams,
    ColumnMissing,
    DegenerateVariance,
    InvalidLength,
    NonConvergence,
    RegressionData,
    SeedSpec,
    SingularDesign,
    SingularRestriction,
    SplitwaldError,
    TestMode,
    TooFewRows,
    chisq_sf,
    normal_sf,
)
from splitwald.distributions import (
    _MAX_SERIES_ITER,
    _POISSON_TAIL,
    _central_chisq_cdf,
)
from splitwald.randomization import BernoulliRows
from splitwald.regression import RCOND_TOL
from splitwald.teststats import StatisticSetup


class LengthMismatch(SplitwaldError):
    """The oracle's inputs do not share a common length."""


def closed_form_statistics(u0_sq, u1_sq, sigma2_1, b):
    """``(s_n, d_bar, s_d2)`` of the ``(M, n)`` rows ``b`` by the library's
    closed form: a :class:`StatisticSetup` of one replication with copies of
    these squared residuals and this unrestricted variance, scored as
    ``run_test`` scores it, raising :class:`DegenerateVariance` at the first
    degenerate draw.
    """
    # laid out as the library lays out a batch of one: two columns of one
    # time-major array, so its sums over time take the same order
    batch = np.stack([u0_sq, u1_sq], axis=1).astype(np.float64)[:, :, None]
    setup = StatisticSetup(batch[:, 0], batch[:, 1], np.array([float(sigma2_1)]))
    stats = setup.statistics(setup.sums(0, b)[None])
    s_n, d_bar, s_d2, degenerate = (x[0] for x in stats)
    if degenerate.any():
        j = int(np.argmax(degenerate))
        raise DegenerateVariance(
            f"Bernoulli draw {j + 1} of {len(b)}: contrast sequence has "
            f"numerically zero variance (s_d2={s_d2[j]:.3e})",
            draw_index=j + 1,
        )
    return s_n, d_bar, s_d2


def draw_bernoulli_rows(n, p0, m, gen):
    """The ``(m, n)`` Bernoulli(p0) rows of one block read on from wherever
    ``gen`` stands: a :class:`BernoulliRows` block filled, then redrawn from
    its rows' counts of ones, so every row is mixed."""
    rows = BernoulliRows(n, p0, m)
    b = rows.fill(gen)
    return rows.redraw(gen, b.sum(axis=1))


@dataclass
class WeightSequence:
    """One Bernoulli draw and its derived split-sample weights.

    ``w[t]`` is ``1/(2*b_bar)`` when ``b[t] == 1`` and ``1/(2*(1-b_bar))``
    otherwise, so the weights sum to ``n`` exactly in exact arithmetic.
    Construction does not re-validate ``p0``; use
    :func:`draw_bernoulli_weights` for guarded draws.
    """

    b: np.ndarray
    p0: float
    b_bar: float
    w: np.ndarray

    @classmethod
    def from_draws(cls, b, p0):
        """Build the weight sequence for a given 0/1 draw (must be mixed)."""
        b = np.asarray(b, dtype=np.float64)
        b_bar = float(b.mean())
        if not 0.0 < b_bar < 1.0:
            raise InvalidLength(
                "degenerate Bernoulli draw (all zeros or all ones): weights undefined"
            )
        w = 0.5 * (b / b_bar + (1.0 - b) / (1.0 - b_bar))
        return cls(b=b, p0=float(p0), b_bar=b_bar, w=w)


def draw_bernoulli_weights(n, p0, seed):
    """Draw one i.i.d. Bernoulli(n, p0) sequence and its weights.

    This is row 0 of :func:`draw_bernoulli_rows` from the start
    of the stream at ``seed``: a degenerate draw is redrawn from the
    continuation of the same stream, so the weights are always defined.
    """
    b = draw_bernoulli_rows(n, p0, 1, seed.generator())
    return WeightSequence.from_draws(b[0], p0)


def bernoulli_rows_oracle(n, p0, m, gen):
    """Draw-by-draw reference for :func:`draw_bernoulli_rows`,
    reading on from wherever the generator ``gen`` stands.

    The ``m * n`` draws take consecutive 16-bit quarters of the stream
    words, lowest quarter first, in row-major order; a quarter ``q`` is a
    one exactly when ``q < ceil(p0 * 2**16)``. A degenerate row is redrawn,
    in row order, from ``ceil(n / 4)`` fresh words per attempt. The last
    word's quarters beyond the count are dropped.
    """
    threshold = math.ceil(Fraction(p0) * 2**16)
    bits = gen.bit_generator

    def draws(count):
        quarters = []
        for x in bits.random_raw(-(-count // 4)).tolist():
            quarters += [(x >> shift) & 0xFFFF for shift in (0, 16, 32, 48)]
        return [1.0 if q < threshold else 0.0 for q in quarters[:count]]

    flat = draws(m * n)
    rows = [flat[j * n : (j + 1) * n] for j in range(m)]
    for j in range(m):
        while sum(rows[j]) in (0, n):
            rows[j] = draws(n)
    return np.array(rows, dtype=np.float64)


@dataclass
class OracleFit:
    """Coefficients (intercept first), residuals and the n-divisor residual
    variance of one fit."""

    theta_hat: np.ndarray
    residuals: np.ndarray
    sigma2_hat: float


class DesignFactor:
    """Per-dataset reference for :func:`splitwald.regression.fit_in_place`.

    One QR factorization of the uncentred augmented design ``[1, X]``, shared
    by both fits; the restricted fit projects the unrestricted estimate onto
    ``R beta = 0``. This was the library's fit before it centred a stack of
    replications.
    """

    def __init__(self, data):
        self.data = data
        Xt = np.column_stack([np.ones(data.n), data.X])
        self.Xt = Xt
        self.q, self.rmat = np.linalg.qr(Xt, mode="reduced")
        # Singular values of the small triangular factor equal those of the
        # design itself; rcond of X'X is their squared ratio.
        s = np.linalg.svd(self.rmat, compute_uv=False)
        rcond = (s[-1] / s[0]) ** 2 if s[0] > 0 else 0.0
        if rcond < RCOND_TOL:
            raise SingularDesign(
                f"augmented design is rank-deficient (rcond(X'X)={rcond:.3e}); "
                "check for collinear predictors"
            )
        self.theta_hat = np.linalg.solve(self.rmat, self.q.T @ data.y)

    def _finish(self, theta):
        residuals = self.data.y - self.Xt @ theta
        sigma2 = float(residuals @ residuals) / self.data.n
        return OracleFit(theta_hat=theta, residuals=residuals, sigma2_hat=sigma2)

    def unrestricted(self):
        return self._finish(self.theta_hat)

    def restricted(self, restriction):
        """Project the unrestricted estimate onto the restricted subspace.

        theta_tilde = theta_hat - A^{-1} Rt' (Rt A^{-1} Rt')^{-1} Rt theta_hat

        with ``A = X'X`` and ``Rt`` the restriction padded with a zero
        intercept column. For selection restrictions this reproduces the
        drop-column refit with zeros reinstated.
        """
        if restriction.p != self.data.p:
            raise SingularRestriction(
                f"restriction acts on {restriction.p} slopes but data has {self.data.p}"
            )
        theta = self.theta_hat
        Rt = np.column_stack([np.zeros(restriction.R.shape[0]), restriction.R])
        # A^{-1} Rt' through the triangular factor: two small solves
        ainv_rt = np.linalg.solve(self.rmat, np.linalg.solve(self.rmat.T, Rt.T))
        small = Rt @ ainv_rt
        sv = np.linalg.svd(small, compute_uv=False)
        if sv[-1] <= 1e-12 * sv[0]:
            raise SingularRestriction(
                "restricted system R (X'X)^{-1} R' is numerically singular"
            )
        correction = ainv_rt @ np.linalg.solve(small, Rt @ theta)
        return self._finish(theta - correction)


def fit_residuals(y, X, restriction):
    """``(u1, u0)``: the ``(R, n)`` unrestricted and restricted residuals of
    a stack of replications, through a stacked QR: the reference for
    :func:`splitwald.regression.fit_in_place`, and the library's fit before
    it fitted each simulate batch in place.

    ``y`` is ``(R, n)`` and ``X`` is ``(R, n, p)``. Centring ``y`` and ``X``
    per replication takes the intercept out of both fits, so one stacked QR
    of the centred predictors fits every replication. The restricted slopes
    are ``beta = N gamma`` with ``N`` the restriction's null-space basis, so
    ``u0`` comes from a second QR, of ``xc @ N``; the all-slopes null leaves
    no regressor, and ``u0`` is the centred ``y``. The design check is the
    library's rule on the augmented R factor ``[[sqrt(n), sqrt(n) xbar'],
    [0, R_c]]``.
    """
    count, n, p = X.shape
    if n < p + 2:
        raise ValueError(f"need n >= p + 2, got n={n}, p={p}")
    xbar = X.mean(axis=1)
    yc = y - y.mean(axis=1)[:, None]
    xc = X - xbar[:, None, :]
    q, rc = np.linalg.qr(xc)
    aug = np.zeros((count, p + 1, p + 1))
    aug[:, 0, 0] = math.sqrt(n)
    aug[:, 0, 1:] = math.sqrt(n) * xbar
    aug[:, 1:, 1:] = rc
    s = np.linalg.svd(aug, compute_uv=False)
    if not ((s[:, -1] / s[:, 0]) ** 2 >= RCOND_TOL).all():
        raise SingularDesign("augmented design is rank-deficient")
    if restriction.p != p:
        raise SingularRestriction(
            f"restriction acts on {restriction.p} slopes but data has {p}"
        )

    def project_out(q):
        return yc - (q @ (q.transpose(0, 2, 1) @ yc[:, :, None]))[:, :, 0]

    basis = np.linalg.svd(restriction.R)[2][restriction.R.shape[0] :].T  # null space
    u0 = project_out(np.linalg.qr(xc @ basis)[0]) if basis.shape[1] else yc
    return project_out(q), u0


def replication_oracle(spec, cfg, restriction, gen):
    """The decision of one replication whose stream has the generator
    ``gen``, or None when it degenerates: its data from the start of the
    stream, its Bernoulli rows from the continuation."""
    sample = simulate_oracle(spec, gen)
    factor = DesignFactor(RegressionData(sample.y, sample.X_lagged))
    unrestricted = factor.unrestricted()
    restricted = factor.restricted(restriction)
    m = cfg.resolve_m(spec.n)
    b = draw_bernoulli_rows(spec.n, cfg.p0, m, gen)
    try:
        s_n, _, _ = closed_form_statistics(
            restricted.residuals**2,
            unrestricted.residuals**2,
            unrestricted.sigma2_hat,
            b,
        )
    except DegenerateVariance:
        return None
    s_m = float(s_n.sum())
    if cfg.mode is TestMode.FIXED_M_CHI_SQUARE:
        p_value = chisq_sf(s_m, ChiSquareParams(df=m))
    else:
        p_value = min(2.0 * normal_sf(abs((s_m - m) / math.sqrt(2.0 * m))), 1.0)
    return p_value < cfg.alpha


def run_plan_oracle(plan):
    """``(rejected, degenerate)`` of every cell of ``plan``, in cell order,
    one replication at a time on the stream at ``seed.child(cell, r)``: the
    reference for :func:`splitwald.run_plan`'s counts."""
    seed = SeedSpec(plan.master_seed, plan.seed_stream)
    out = []
    for cid, n, p0, beta in plan.cells():
        spec, cfg, restriction = plan.build_cell(n, p0, beta)
        rejected = degenerate = 0
        for r in range(plan.replications):
            gen = seed.child(cid, r).generator()
            decision = replication_oracle(spec, cfg, restriction, gen)
            if decision is None:
                degenerate += 1
            else:
                rejected += decision
        out.append((rejected, degenerate))
    return out


@dataclass
class OracleSample:
    """One simulated dataset, the errors that generated it, and the generator
    of its stream, positioned after its shocks."""

    y: np.ndarray
    X_lagged: np.ndarray
    u: np.ndarray
    stream: np.random.Generator


@dataclass
class DrawStat:
    """One draw's single-shot statistic and its ingredients."""

    s_n: float
    d_bar: float
    s_d2: float


def compute_d_sequence(u0_sq, u1_sq, sigma2_1, weights):
    """Weighted contrast of squared residuals around the variance anchor."""
    u0_sq = np.asarray(u0_sq, dtype=np.float64)
    u1_sq = np.asarray(u1_sq, dtype=np.float64)
    w = weights.w
    if not u0_sq.shape == u1_sq.shape == w.shape:
        raise LengthMismatch(
            f"length mismatch: u0 {u0_sq.shape}, u1 {u1_sq.shape}, weights {w.shape}"
        )
    if sigma2_1 < 0:
        raise ValueError(f"sigma2_1 must be >= 0, got {sigma2_1!r}")
    return w * (u0_sq - sigma2_1) - (u1_sq - sigma2_1)


def single_shot(d, sigma2_1):
    """Studentized squared mean of one contrast sequence whose variance
    anchor is ``sigma2_1``.

    Uses the n-divisor sample variance. A numerically constant ``d`` raises
    :class:`DegenerateVariance`, by the library's rule: a variance of at most
    1e-14 of ``sigma2_1^2 + d_bar^2``.
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    if n < 2:
        raise LengthMismatch(f"need at least 2 observations, got {n}")
    d_bar = float(d.mean())
    centered = d - d_bar
    s_d2 = float(centered @ centered) / n
    if s_d2 <= 1e-14 * (sigma2_1 * sigma2_1 + d_bar * d_bar):
        raise DegenerateVariance(
            f"contrast sequence has numerically zero variance (s_d2={s_d2:.3e})"
        )
    return DrawStat(s_n=n * d_bar * d_bar / s_d2, d_bar=d_bar, s_d2=s_d2)


def draw_statistics_oracle(u0_sq, u1_sq, sigma2_1, b, p0=0.40):
    """One two-pass single shot per row of ``b``, draw by draw.

    Raises :class:`DegenerateVariance` at the first degenerate row, with
    its 1-based ``draw_index``, as the library's per-row guard does.
    """
    shots = []
    for j, row in enumerate(b, start=1):
        d = compute_d_sequence(u0_sq, u1_sq, sigma2_1, WeightSequence.from_draws(row, p0))
        try:
            shots.append(single_shot(d, sigma2_1))
        except DegenerateVariance as exc:
            raise DegenerateVariance(str(exc), draw_index=j) from exc
    return shots


def simulate_oracle(spec, gen):
    """Row-wise reference for :func:`splitwald.simulate` (no overflow guard),
    drawing the shocks from the generator ``gen``. Returns the
    :class:`OracleSample` with ``gen`` as its stream."""
    p = spec.p
    total = spec.burn_in + spec.n
    shocks = gen.standard_normal((total, p + 1)) @ spec._lower.T

    eps = []
    e2 = spec.theta0 / (1.0 - spec.theta1)  # stationary ARCH variance start
    for z in shocks[:, 0].tolist():
        e = z * math.sqrt(spec.theta0 + spec.theta1 * e2)
        e2 = e * e
        eps.append(e)

    u = []
    prev = 0.0
    for e in eps:
        prev = spec.rho * prev + e
        u.append(prev)

    a_list = spec.ar_coefficients().tolist()
    f_list = spec.phi0.tolist()
    x_rows = [[0.0] * p]
    for row in shocks[:, 1:].tolist():
        prev_x = x_rows[-1]
        x_rows.append([f_list[i] + a_list[i] * prev_x[i] + row[i] for i in range(p)])

    b = spec.burn_in
    X_lagged = np.array(x_rows)[b : b + spec.n]
    u_keep = np.array(u)[b : b + spec.n]
    y = spec.mu + X_lagged @ spec.beta + u_keep
    return OracleSample(y=y, X_lagged=X_lagged, u=u_keep, stream=gen)


def replication_bytes(spec):
    """Bytes that one replication takes in a :func:`splitwald.simulate_many`
    buffer: ``burn_in + n + 1`` rows of ``p + 1`` float64 values."""
    return (spec.burn_in + spec.n + 1) * (spec.p + 1) * 8


def read_csv_oracle(path, y_col, x_cols):
    """Record-by-record reference for ``splitwald.cli._read_csv``.

    A header-only file raises ``IndexError`` here; the library returns empty
    arrays for it instead.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise SplitwaldError(f"input file not found: {path}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TooFewRows(f"{path}: empty file") from None
        for col in [y_col, *x_cols]:
            if col not in header:
                raise ColumnMissing(f"{path}: column {col!r} not in header {header}")
        idx = {col: header.index(col) for col in [y_col, *x_cols]}
        rows = []
        for lineno, row in enumerate(reader, start=2):
            values = []
            for col in [y_col, *x_cols]:
                cell = row[idx[col]].strip() if idx[col] < len(row) else ""
                if cell == "":
                    raise SplitwaldError(
                        f"{path}: line {lineno}: missing value in column {col!r} "
                        "(missing data is an error, not imputed)"
                    )
                try:
                    values.append(float(cell))
                except ValueError:
                    raise SplitwaldError(
                        f"{path}: line {lineno}: non-numeric value {cell!r} "
                        f"in column {col!r}"
                    ) from None
            rows.append(values)
    arr = np.asarray(rows, dtype=np.float64)
    return arr[:, 0], arr[:, 1:]


def noncentral_chisq_cdf(x, df, ncp):
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
