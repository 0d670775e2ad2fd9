"""Slow references that tests compare the library against.

``draw_bernoulli_weights`` takes one Bernoulli draw and its split-sample
weights, ``compute_d_sequence`` materializes the contrast sequence of that
draw and ``single_shot`` studentizes it with a centered second pass. The
library computes the same quantities for all draws at once in closed form
(:func:`splitwald.draw_statistics`).

``bernoulli_rows_oracle`` defines stream layout 3 arithmetically: it splits
each stream word into its low and high 32-bit halves with Python integers and
compares each half with ``ceil(p0 * 2**32)`` in exact rational arithmetic,
one draw at a time, as :func:`splitwald.draw_bernoulli_rows` does for a whole
block through a 32-bit view of the words.

``simulate_oracle`` runs the data-generating recursions one time step at a
time, all predictors together, as :func:`splitwald.simulate` did before it
ran one AR recursion per series.

``read_csv_oracle`` reads a `splitwald test` CSV one record at a time with
``csv`` and ``float()``, as ``splitwald.cli._read_csv`` did before it parsed
the body with one ``np.loadtxt`` call.
"""

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from splitwald import (
    ColumnMissing,
    DegenerateVariance,
    InvalidLength,
    LengthMismatch,
    SimulatedSample,
    SplitwaldError,
    TooFewRows,
    draw_bernoulli_rows,
)


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

    This is row 0 of :func:`splitwald.draw_bernoulli_rows` at ``seed``: a
    degenerate draw is redrawn from the continuation of the same stream, so
    the weights are always defined.
    """
    b, _ = draw_bernoulli_rows(n, p0, 1, seed)
    return WeightSequence.from_draws(b[0], p0)


def bernoulli_rows_oracle(n, p0, m, seed):
    """Draw-by-draw reference for :func:`splitwald.draw_bernoulli_rows`.

    The ``m * n`` draws take consecutive 32-bit halves of the stream words,
    low half first, in row-major order; a half ``h`` is a one exactly when
    ``h < ceil(p0 * 2**32)``. A degenerate row is redrawn, in row order,
    from ``ceil(n / 2)`` fresh words per attempt. An odd count of halves
    drops the last word's high half.
    """
    threshold = math.ceil(Fraction(p0) * 2**32)
    bits = seed.generator().bit_generator

    def draws(count):
        halves = []
        for x in bits.random_raw((count + 1) // 2).tolist():
            halves += [x & 0xFFFFFFFF, x >> 32]
        return [1.0 if h < threshold else 0.0 for h in halves[:count]]

    flat = draws(m * n)
    rows = [flat[j * n : (j + 1) * n] for j in range(m)]
    for j in range(m):
        while sum(rows[j]) in (0, n):
            rows[j] = draws(n)
    return np.array(rows, dtype=np.float64)


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


def single_shot(d):
    """Studentized squared mean of one contrast sequence.

    Uses the n-divisor sample variance. A numerically constant ``d`` raises
    :class:`DegenerateVariance`.
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.shape[0]
    if n < 2:
        raise LengthMismatch(f"need at least 2 observations, got {n}")
    d_bar = float(d.mean())
    centered = d - d_bar
    s_d2 = float(centered @ centered) / n
    if s_d2 < 1e-14 * (1.0 + d_bar * d_bar):
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
            shots.append(single_shot(d))
        except DegenerateVariance as exc:
            raise DegenerateVariance(str(exc), draw_index=j) from exc
    return shots


def simulate_oracle(spec, seed):
    """Row-wise reference for :func:`splitwald.simulate` (no overflow guard)."""
    p = spec.p
    total = spec.burn_in + spec.n
    shocks = seed.generator().standard_normal((total, p + 1)) @ spec._lower.T

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
    return SimulatedSample(y=y, X_lagged=X_lagged, u=u_keep)


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
        fh = open(path, "r", encoding="utf-8", newline="")
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
