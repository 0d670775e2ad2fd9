"""Ordinary and linearly-restricted least squares for predictive regressions.

Fits ``y_t = mu + beta' x_{t-1} + u_t`` (the intercept is always estimated)
and the same model subject to ``R beta = 0`` with the intercept left free,
through modified Gram-Schmidt rather than the normal equations:
near-integrated predictors make ``X'X`` badly conditioned at the sample
sizes this package targets. The statistic needs only the residuals of both
fits, so :func:`fit_in_place` returns those, for a whole time-major batch
of replications in one pass: the Monte Carlo harness fits each simulate
batch in its buffer, and ``splitwald test`` a batch of one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, SingularDesign, SingularRestriction

# Reciprocal condition number of X'X below this means a rank-deficient design.
RCOND_TOL = 1e-12
# Bytes of the largest temporary of _subtract_multiple, at any n, width or
# burn-in. Chunk times were within noise from 16 to 256 KiB (p=3, slope and
# burn_in 0 cells; 2 cores, numpy 2.4.6), so the budget is kept small.
SLAB_BYTES = 64 * 2**10


@dataclass
class RegressionData:
    """Aligned predictand/lagged-predictor sample.

    ``X`` holds the already-lagged predictors: row ``t`` is ``x_{t-1}``.
    Fitted models always contain an intercept.
    """

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=np.float64).reshape(-1)
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1)
        self.X = X
        if self.y.shape[0] != self.X.shape[0]:
            raise ValueError(
                f"y has {self.y.shape[0]} rows but X has {self.X.shape[0]}"
            )
        _check_size(self.n, self.p)
        if not (np.isfinite(self.y).all() and np.isfinite(self.X).all()):
            raise NonFiniteInput("y and X must not contain NaN or infinite entries")

    @property
    def n(self):
        return self.y.shape[0]

    @property
    def p(self):
        return self.X.shape[1]


@dataclass
class Restriction:
    """Linear restriction ``R beta = 0`` on the slopes (never the intercept).

    ``R`` must have full row rank; rank deficiency is a construction error.
    """

    R: np.ndarray

    def __post_init__(self):
        R = np.asarray(self.R, dtype=np.float64)
        if R.ndim == 1:
            R = R.reshape(1, -1)
        self.R = R
        if not np.isfinite(R).all():
            raise NonFiniteInput("restriction matrix must be finite")
        r, p = R.shape
        if not 1 <= r <= p:
            raise SingularRestriction(f"need 1 <= r <= p, got shape {R.shape}")
        _, s, vt = np.linalg.svd(R)
        if s[-1] <= 1e-12 * s[0]:
            raise SingularRestriction("restriction matrix is rank-deficient")
        # The fit's column order, free slopes first. A coordinate subset, the
        # all-slopes null among them, only orders the columns of X; any other
        # R rotates X into the orthonormal basis [null space, row space of R].
        rows, cols = np.nonzero(R)
        self.rotation = np.concatenate([vt[r:], vt[:r]]).T
        restricted = range(p - r, p)
        if np.array_equal(rows, np.arange(r)):
            self.rotation, restricted = None, cols.tolist()
        self.order = [j for j in range(p) if j not in restricted] + list(restricted)

    @property
    def p(self):
        return self.R.shape[1]

    @classmethod
    def all_slopes(cls, p):
        """Global null: every slope restricted to zero."""
        return cls(np.eye(p))

    @classmethod
    def subset(cls, indices, p):
        """Zero restrictions on the selected 0-based slope coordinates."""
        indices = list(indices)
        for j in indices:
            integral = isinstance(j, (int, np.integer)) and not isinstance(j, bool)
            if not (integral and 0 <= j < p):
                raise SingularRestriction(
                    f"restricted slopes must be integer indices in 0..{p - 1}, "
                    f"got {indices!r}"
                )
        R = np.zeros((len(indices), p))
        for row, j in enumerate(indices):
            R[row, j] = 1.0
        return cls(R)


def fit_in_place(data, restriction, beta=None):
    """``(u0, u1)``: the ``(n, R)`` restricted and unrestricted residuals of
    a time-major batch, as views of ``data``, whose other values it
    overwrites.

    ``data[t, :p, i]`` holds replication ``i``'s predictors ``x_{t-1}`` and
    ``data[t, p, i]`` its ``e_t``, of ``y_t = mu + beta' x_{t-1} + e_t``
    (``beta`` defaults to zero). Slope updates run in slabs of at most
    ``SLAB_BYTES`` (:func:`_subtract_multiple`).

    Centring takes the intercept out: the centred ``y`` is ``e_c + X_c
    beta``. One modified Gram-Schmidt pass over the predictors in
    :attr:`Restriction.order`, with ``y`` as one more column (Bjorck 1967),
    leaves the residual of ``y`` after the free columns, ``u0``, and after
    all, ``u1``; each residual of ``y`` goes where its column was. Per
    replication, rcond of ``X'X`` is the squared ratio of the extreme
    singular values of the augmented R factor ``[[sqrt(n), sqrt(n) xbar'],
    [0, R_c]]``. Every sum runs in time order, whatever the batch width.
    """
    n, p, width = data.shape[0], data.shape[1] - 1, data.shape[2]
    _check_size(n, p)
    if restriction.p != p:
        raise SingularRestriction(
            f"restriction acts on {restriction.p} slopes but data has {p}"
        )
    X, y = data[:, :p], data[:, p]
    if restriction.rotation is not None:  # into a new array
        X = np.einsum("tjr,ji->tir", X, restriction.rotation)
        beta = None if beta is None else restriction.rotation.T @ beta
    xbar = time_sum(X) / n
    X -= xbar
    y -= time_sum(y) / n
    for j in [] if beta is None else np.flatnonzero(beta):
        _subtract_multiple(y, -beta[j], X[:, j])
    cols = [X[:, j] for j in restriction.order]
    rc = np.zeros((width, p + 1, p + 1))  # the augmented R factor
    rc[:, 0, 0] = math.sqrt(n)
    rc[:, 0, 1:] = math.sqrt(n) * xbar[restriction.order].T
    u0 = y
    with np.errstate(divide="ignore", invalid="ignore"):  # the check reports it
        for k, q in enumerate(cols):
            norm = rc[:, k + 1, k + 1] = np.sqrt(time_dot(q, q))
            q /= norm
            for j in range(k + 1, p):
                c = rc[:, k + 1, j + 1] = time_dot(q, cols[j])
                _subtract_multiple(cols[j], c, q)
            # q's last use: the residual of y is written over it
            np.multiply(q, time_dot(q, y), out=q)
            y = np.subtract(y, q, out=q)
            if k + 1 == p - restriction.R.shape[0]:  # the free columns done
                u0 = y
    # a column of zero norm leaves R_c not finite, and singular
    finite = np.isfinite(rc).all(axis=(1, 2))
    s = np.linalg.svd(np.where(finite[:, None, None], rc, 0.0), compute_uv=False)
    rcond = np.where(finite, (s[:, -1] / s[:, 0]) ** 2, 0.0)
    bad = np.flatnonzero(~(rcond >= RCOND_TOL))
    if bad.size:
        raise SingularDesign(
            f"augmented design is rank-deficient (rcond(X'X)={rcond[bad[0]]:.3e}); "
            "check for collinear predictors"
        )
    return u0, y


def _subtract_multiple(v, c, q):
    """``v -= c * q`` in place on ``(n, R)`` arrays, a slab of rows at a
    time, so that no temporary ``c * q`` takes more than ``SLAB_BYTES``
    (one row does when a row alone is larger). Each element gets the same
    multiply and subtract as in one whole-array step."""
    step = max(1, SLAB_BYTES // max(q[0].nbytes, 1))
    for lo in range(0, v.shape[0], step):
        v[lo : lo + step] -= q[lo : lo + step] * c


def _check_size(n, p):
    if n < p + 2:
        raise ValueError(f"need n >= p + 2, got n={n}, p={p}")


def time_sum(a):
    """Sums over the strided time axis 0, added in time order for each
    replication at any batch width (``sum`` adds a lone column pairwise).

    Time order holds only while the time axis is strided, as in every batch
    view that :func:`fit_in_place` gives, width 1 included. A contiguous
    ``(n, 1)`` array is added in another order, so its last bits can differ
    from the same replication's inside a batch."""
    return np.einsum("t...->...", a)


def time_dot(a, b):
    """``sum_t a_t b_t`` per replication, in time order as :func:`time_sum`."""
    return np.einsum("t...,t...->...", a, b)
