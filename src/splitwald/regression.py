"""Ordinary and linearly-restricted least squares for predictive regressions.

Fits ``y_t = mu + beta' x_{t-1} + u_t`` (the intercept is always estimated)
and the same model subject to ``R beta = 0`` with the intercept left free.
Solutions go through an orthogonal (QR) factorization rather than explicit
normal-equation inversion: near-integrated predictors make ``X'X`` badly
conditioned at the sample sizes this package targets.

One path fits a whole stack of replications: :class:`DesignStack` centres
each replication's ``y`` and ``X``, which takes the intercept out, and
factors the centred predictors with one stacked QR that both fits share.
The restricted fit regresses on the predictors times a null-space basis of
``R``, which the :class:`Restriction` computes once. The Monte Carlo harness
fits a sub-block of replications per call; :func:`fit_unrestricted` and
:func:`fit_restricted` are its one-replication case.
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

    def design(self):
        """Intercept-augmented design matrix (intercept first)."""
        return np.column_stack([np.ones(self.n), self.X])


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
    def r(self):
        return self.R.shape[0]

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


@dataclass
class RegressionFit:
    """Coefficients, residuals and the n-divisor residual variance.

    ``theta_hat`` stacks the intercept first, then the slopes, matching the
    augmented design's column order.
    """

    theta_hat: np.ndarray
    residuals: np.ndarray
    sigma2_hat: float


class DesignStack:
    """Centred QR of a stack of designs, shared by both fits.

    ``y`` is ``(R, n)`` and ``X`` is ``(R, n, p)``; replication ``i`` is the
    sample ``(y[i], X[i])``. Centring ``y`` and ``X`` per replication takes
    the intercept out of the fit, so one stacked QR of the centred predictors
    fits every replication, and the intercept is ``ybar - xbar' beta``.
    Residuals are the centred ``y`` minus its stacked projection.

    The design check is the augmented design's, per replication: its R
    factor is ``[[sqrt(n), sqrt(n) xbar'], [0, R_c]]`` with ``R_c`` the
    centred one, and rcond of ``X'X`` is the squared ratio of that small
    matrix's extreme singular values.
    """

    def __init__(self, y, X):
        count, n, p = X.shape
        _check_size(n, p)
        self.ybar = y.mean(axis=1)
        self.xbar = X.mean(axis=1)
        self.yc = y - self.ybar[:, None]
        self.xc = X - self.xbar[:, None, :]
        self.q, self.rc = np.linalg.qr(self.xc)
        aug = np.zeros((count, p + 1, p + 1))
        aug[:, 0, 0] = math.sqrt(n)
        aug[:, 0, 1:] = math.sqrt(n) * self.xbar
        aug[:, 1:, 1:] = self.rc
        s = np.linalg.svd(aug, compute_uv=False)
        rcond = (s[:, -1] / s[:, 0]) ** 2
        bad = np.flatnonzero(~(rcond >= RCOND_TOL))
        if bad.size:
            raise SingularDesign(
                f"augmented design is rank-deficient (rcond(X'X)={rcond[bad[0]]:.3e}); "
                "check for collinear predictors"
            )

    def _fit(self, q, rc, basis):
        """Coefficients ``(R, p + 1)`` and residuals ``(R, n)`` of the
        regression of the centred ``y`` on ``xc @ basis``, whose QR is
        ``(q, rc)``."""
        qty = q.transpose(0, 2, 1) @ self.yc[:, :, None]
        residuals = self.yc - (q @ qty)[:, :, 0]
        beta = np.linalg.solve(rc, qty)[:, :, 0] @ basis.T
        mu = self.ybar - (self.xbar * beta).sum(axis=1)
        return np.column_stack((mu, beta)), residuals

    def unrestricted(self):
        """``(theta, residuals)`` of every replication's least-squares fit."""
        return self._fit(self.q, self.rc, np.eye(self.xc.shape[2]))

    def restricted(self, restriction):
        """``(theta, residuals)`` of every fit subject to ``R beta = 0``.

        The restricted slopes are ``beta = N gamma`` with ``N`` the
        restriction's null-space basis, so the fit regresses the centred
        ``y`` on ``xc @ N``. The all-slopes null leaves no regressor: its
        residuals are the centred ``y`` and its intercept is ``ybar``.
        """
        count, _, p = self.xc.shape
        if restriction.p != p:
            raise SingularRestriction(
                f"restriction acts on {restriction.p} slopes but data has {p}"
            )
        basis = restriction.null_basis
        if not basis.shape[1]:
            theta = np.zeros((count, p + 1))
            theta[:, 0] = self.ybar
            return theta, self.yc
        return self._fit(*np.linalg.qr(self.xc @ basis), basis)


def _check_size(n, p):
    if n < p + 2:
        raise ValueError(f"need n >= p + 2, got n={n}, p={p}")


def residual_variance(residuals):
    """n-divisor variance ``u'u / n`` of residuals around zero, per row of a
    stack (or of one residual vector)."""
    u = residuals
    return (u[..., None, :] @ u[..., :, None])[..., 0, 0] / u.shape[-1]


def _single(pair):
    theta, residuals = pair
    return RegressionFit(
        theta_hat=theta[0],
        residuals=residuals[0],
        sigma2_hat=float(residual_variance(residuals[0])),
    )


def fit_unrestricted(data):
    """Least-squares fit of the predictive regression with intercept: the
    one-replication case of :class:`DesignStack`."""
    return _single(DesignStack(data.y[None], data.X[None]).unrestricted())


def fit_restricted(data, restriction):
    """Least-squares fit subject to ``R beta = 0`` (intercept unrestricted):
    the one-replication case of :class:`DesignStack`."""
    stack = DesignStack(data.y[None], data.X[None])
    return _single(stack.restricted(restriction))
