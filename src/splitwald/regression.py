"""Ordinary and linearly-restricted least squares for predictive regressions.

Fits ``y_t = mu + beta' x_{t-1} + u_t`` (the intercept is always estimated)
and the same model subject to ``R beta = 0`` with the intercept left free.
Solutions go through an orthogonal (QR) factorization of the augmented
design rather than explicit normal-equation inversion: near-integrated
predictors make ``X'X`` badly conditioned at the sample sizes this package
targets. Both fits can share one factorization via :class:`DesignFactor`.
"""

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
        if self.n < self.p + 2:
            raise ValueError(f"need n >= p + 2, got n={self.n}, p={self.p}")
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
        s = np.linalg.svd(R, compute_uv=False)
        if s[-1] <= 1e-12 * s[0]:
            raise SingularRestriction("restriction matrix is rank-deficient")

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


class DesignFactor:
    """QR factorization of the augmented design, shared by both fits."""

    def __init__(self, data):
        self.data = data
        Xt = data.design()
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
        return RegressionFit(theta_hat=theta, residuals=residuals, sigma2_hat=sigma2)

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
        Rt = np.column_stack([np.zeros(restriction.r), restriction.R])
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


def fit_unrestricted(data):
    """Least-squares fit of the predictive regression with intercept."""
    return DesignFactor(data).unrestricted()


def fit_restricted(data, restriction):
    """Least-squares fit subject to ``R beta = 0`` (intercept unrestricted)."""
    return DesignFactor(data).restricted(restriction)
