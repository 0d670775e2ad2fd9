"""Two-pass reference for the split-sample statistics.

``compute_d_sequence`` materializes the contrast sequence of one Bernoulli
draw and ``single_shot`` studentizes it with a centered second pass. The
library computes the same quantities for all draws at once in closed form
(:func:`splitwald.draw_statistics`); tests compare it against this oracle.
"""

import numpy as np

from splitwald import DegenerateVariance, DrawStat, LengthMismatch, WeightSequence


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
