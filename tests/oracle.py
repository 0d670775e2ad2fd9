"""Slow references that tests compare the library against.

``compute_d_sequence`` materializes the contrast sequence of one Bernoulli
draw and ``single_shot`` studentizes it with a centered second pass. The
library computes the same quantities for all draws at once in closed form
(:func:`splitwald.draw_statistics`).

``simulate_oracle`` runs the data-generating recursions one time step at a
time, all predictors together, as :func:`splitwald.simulate` did before it
ran one AR recursion per series.
"""

import math

import numpy as np

from splitwald import (
    DegenerateVariance,
    DrawStat,
    LengthMismatch,
    SimulatedSample,
    WeightSequence,
)


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
