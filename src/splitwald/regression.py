"""Ordinary and linearly-restricted least squares for predictive regressions.

Fits ``y_t = mu + beta' x_{t-1} + u_t`` (the intercept is always estimated)
and the same model subject to ``R beta = 0`` with the intercept left free.
Solutions go through an orthogonal (QR) factorization rather than explicit
normal-equation inversion: near-integrated predictors make ``X'X`` badly
conditioned at the sample sizes this package targets.

The test statistic needs only the residuals of both fits, so
:func:`fit_residuals` returns those and no coefficients. It fits a whole
stack of replications: it centres each replication's ``y`` and ``X``, which
takes the intercept out, and factors the centred predictors with one
stacked QR. The restricted fit regresses on the predictors times a
null-space basis of ``R``, which the :class:`Restriction` computes once.
The Monte Carlo harness fits a sub-block of replications per call and
``splitwald test`` a stack of one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput, SingularDesign, SingularRestriction

# Reciprocal condition number of X'X below this means a rank-deficient design.
RCOND_TOL = 1e-12


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
        # (p, p - r) orthonormal basis of the slopes that satisfy R beta = 0
        self.null_basis = vt[r:].T

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


def fit_residuals(y, X, restriction):
    """``(u1, u0)``: the ``(R, n)`` unrestricted and restricted residuals of
    a stack of replications, without their coefficients.

    ``y`` is ``(R, n)`` and ``X`` is ``(R, n, p)``; replication ``i`` is the
    sample ``(y[i], X[i])``. Centring ``y`` and ``X`` per replication takes
    the intercept out of both fits, so one stacked QR of the centred
    predictors fits every replication, and ``u1`` is the centred ``y`` minus
    its stacked projection.

    The design check is the augmented design's, per replication: its R
    factor is ``[[sqrt(n), sqrt(n) xbar'], [0, R_c]]`` with ``R_c`` the
    centred one, and rcond of ``X'X`` is the squared ratio of that small
    matrix's extreme singular values.

    The restricted slopes are ``beta = N gamma`` with ``N`` the
    restriction's null-space basis, so ``u0`` comes from a second QR, of
    ``xc @ N``. The all-slopes null leaves no regressor: ``u0`` is the
    centred ``y`` itself.
    """
    count, n, p = X.shape
    _check_size(n, p)
    xbar = X.mean(axis=1)
    yc = y - y.mean(axis=1)[:, None]
    xc = X - xbar[:, None, :]
    q, rc = np.linalg.qr(xc)
    aug = np.zeros((count, p + 1, p + 1))
    aug[:, 0, 0] = math.sqrt(n)
    aug[:, 0, 1:] = math.sqrt(n) * xbar
    aug[:, 1:, 1:] = rc
    s = np.linalg.svd(aug, compute_uv=False)
    rcond = (s[:, -1] / s[:, 0]) ** 2
    bad = np.flatnonzero(~(rcond >= RCOND_TOL))
    if bad.size:
        raise SingularDesign(
            f"augmented design is rank-deficient (rcond(X'X)={rcond[bad[0]]:.3e}); "
            "check for collinear predictors"
        )
    if restriction.p != p:
        raise SingularRestriction(
            f"restriction acts on {restriction.p} slopes but data has {p}"
        )
    u1 = _project_out(yc, q)
    basis = restriction.null_basis
    if not basis.shape[1]:
        return u1, yc
    return u1, _project_out(yc, np.linalg.qr(xc @ basis)[0])


def _project_out(yc, q):
    """``yc`` minus its projection on the columns of the stacked ``q``."""
    qty = q.transpose(0, 2, 1) @ yc[:, :, None]
    return yc - (q @ qty)[:, :, 0]


def _check_size(n, p):
    if n < p + 2:
        raise ValueError(f"need n >= p + 2, got n={n}, p={p}")


def residual_variance(residuals):
    """n-divisor variance ``u'u / n`` of residuals around zero, per row of a
    stack (or of one residual vector)."""
    u = residuals
    return (u[..., None, :] @ u[..., :, None])[..., 0, 0] / u.shape[-1]

