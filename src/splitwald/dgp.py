"""Simulators for the benchmark data-generating processes.

The predictand is ``y_t = mu + beta' x_{t-1} + u_t`` with predictors that
follow (possibly near-integrated) AR dynamics

    x_it = phi0_i + (1 - c_i / n^{alpha_i}) x_{i,t-1} + v_it,

errors that chain an AR(1) over an ARCH(1),

    u_t = rho u_{t-1} + eps_t,   eps_t = zeta_t sqrt(theta0 + theta1 eps_{t-1}^2),

and jointly Gaussian shocks ``(zeta_t, v_t) ~ N(0, omega)``. The named
presets reproduce the benchmark scenarios used throughout the experiment
suite.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotPositiveDefinite, NumericOverflow, UnknownPreset, check_integer

OVERFLOW_GUARD = 1e12

# Shock covariance of (zeta, v1, v2, v3) for the three-predictor scenarios.
OMEGA_THREE_PREDICTOR = np.array(
    [
        [1.0350, -0.9726, -0.7408, -0.4943],
        [-0.9726, 1.0214, 0.5072, 0.2545],
        [-0.7408, 0.5072, 1.0024, 0.5015],
        [-0.4943, 0.2545, 0.5015, 1.0009],
    ]
)

PRESET_NAMES = ("DGP1a", "DGP1b", "DGP1c", "DGP2a", "DGP2b", "DGP2c_i", "DGP2c_ii")


def cholesky_lower(omega):
    """Lower-triangular Cholesky factor of a small covariance matrix.

    Plain pivoted-free factorization with an explicit positivity threshold:
    intended for shock covariances of dimension <= 16, not as a general
    linear-algebra routine.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise NotPositiveDefinite(f"expected a square matrix, got shape {omega.shape}")
    k = omega.shape[0]
    if k > 16:
        raise NotPositiveDefinite(f"dimension {k} exceeds the supported maximum of 16")
    if not np.isfinite(omega).all():
        raise NotPositiveDefinite("matrix must be finite")
    if np.max(np.abs(omega - omega.T)) > 1e-12 * max(1.0, np.max(np.abs(omega))):
        raise NotPositiveDefinite("matrix is not symmetric within 1e-12")

    lower = np.zeros_like(omega)
    for i in range(k):
        for j in range(i + 1):
            acc = omega[i, j] - lower[i, :j] @ lower[j, :j]
            if i == j:
                if acc <= 1e-14:
                    raise NotPositiveDefinite(
                        f"pivot {acc:.3e} at index {i} is not positive"
                    )
                lower[i, j] = math.sqrt(acc)
            else:
                lower[i, j] = acc / lower[j, j]
    return lower


@dataclass
class DgpSpec:
    """Full parameterization of one simulation scenario.

    ``omega`` is the covariance of the shock vector whose first coordinate
    feeds the error chain and whose remaining ``p`` coordinates drive the
    predictors. ``alpha`` and ``c`` set each predictor's persistence through
    the AR coefficient ``1 - c_i / n^{alpha_i}``.
    """

    n: int
    alpha: np.ndarray
    c: np.ndarray
    phi0: np.ndarray
    beta: np.ndarray
    omega: np.ndarray
    rho: float = 0.0
    theta0: float = 1.0
    theta1: float = 0.0
    mu: float = 0.0
    burn_in: int = 200
    label: str = "custom"
    _lower: np.ndarray = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.alpha = np.atleast_1d(np.asarray(self.alpha, dtype=np.float64))
        p = self.alpha.shape[0]
        for name in ("c", "phi0", "beta"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, np.broadcast_to(value, (p,)).copy())
        self.omega = np.asarray(self.omega, dtype=np.float64)
        for name in ("rho", "theta0", "theta1", "mu"):
            setattr(self, name, float(getattr(self, name)))

        self.n = check_integer("n", self.n, 4)
        self.burn_in = check_integer("burn_in", self.burn_in, 0)
        if self.omega.shape != (p + 1, p + 1):
            raise ValueError(
                f"omega must be {(p + 1, p + 1)} for {p} predictors, "
                f"got {self.omega.shape}"
            )
        if np.any(self.alpha < 0) or np.any(self.alpha > 1):
            raise ValueError("persistence exponents must lie in [0, 1]")
        if np.any(self.c <= 0):
            raise ValueError("c entries must be positive")
        if self.theta0 <= 0:
            raise ValueError(f"theta0 must be positive, got {self.theta0!r}")
        # finite fourth moment of the ARCH chain needs 3 theta1^2 < 1
        if not 0.0 <= self.theta1 < 1.0 / math.sqrt(3.0):
            raise ValueError(
                f"theta1 must lie in [0, 1/sqrt(3)), got {self.theta1!r}"
            )
        if not -1.0 < self.rho < 1.0:
            raise ValueError(f"rho must lie in (-1, 1), got {self.rho!r}")
        ar = self.ar_coefficients()
        if np.any(ar <= -1.0) or np.any(ar > 1.0):
            raise ValueError(
                f"implied AR coefficients {ar} must lie in (-1, 1] for n={self.n}"
            )
        self._lower = cholesky_lower(self.omega)

    @property
    def p(self):
        return self.alpha.shape[0]

    def ar_coefficients(self):
        """Per-predictor AR coefficient ``1 - c_i / n^{alpha_i}``."""
        return 1.0 - self.c / float(self.n) ** self.alpha


@dataclass
class SimulatedSample:
    """One simulated dataset: predictand, lagged predictors, and the errors
    that generated it (kept for diagnostics)."""

    y: np.ndarray
    X_lagged: np.ndarray
    u: np.ndarray


def _ar1(const, coef, shocks):
    """Path of ``x_t = const + coef * x_{t-1} + shock_t`` from ``x_0 = 0``,
    one entry per shock (``x_0`` itself is not included)."""
    prev = 0.0
    out = []
    for v in shocks.tolist():
        prev = const + coef * prev + v
        out.append(prev)
    return np.array(out)


def simulate(spec, seed):
    """Generate one sample from ``spec`` using the given stream.

    The recursion starts from zero predictor and error states with the ARCH
    variance at its stationary value, runs ``burn_in + n`` steps, and pairs
    ``y_t`` with ``x_{t-1}`` so exactly ``n`` usable observations remain.
    """
    p = spec.p
    total = spec.burn_in + spec.n
    gen = seed.generator()
    shocks = gen.standard_normal((total, p + 1)) @ spec._lower.T

    theta0, theta1, rho = spec.theta0, spec.theta1, spec.rho
    zeta = shocks[:, 0]

    if theta1 == 0.0:
        eps = zeta * math.sqrt(theta0)
    else:
        e2 = theta0 / (1.0 - theta1)  # stationary ARCH variance start
        out = []
        for z in zeta.tolist():
            e = z * math.sqrt(theta0 + theta1 * e2)
            e2 = e * e
            out.append(e)
        eps = np.array(out)

    u = eps if rho == 0.0 else _ar1(0.0, rho, eps)

    ar = spec.ar_coefficients()
    x_all = np.zeros((total + 1, p))
    for i in range(p):
        x_all[1:, i] = _ar1(float(spec.phi0[i]), float(ar[i]), shocks[:, i + 1])

    if not (np.isfinite(x_all).all() and np.isfinite(u).all()):
        raise NumericOverflow("simulated state is not finite; parameters explosive?")
    peak = max(np.max(np.abs(x_all)), np.max(np.abs(u)))
    if peak > OVERFLOW_GUARD:
        raise NumericOverflow(
            f"simulated state reached {peak:.3e} (> {OVERFLOW_GUARD:.0e}); "
            "parameters look explosive"
        )

    b = spec.burn_in
    X_lagged = x_all[b : b + spec.n]
    u_keep = u[b : b + spec.n]
    y = spec.mu + X_lagged @ spec.beta + u_keep
    return SimulatedSample(y=y, X_lagged=X_lagged, u=u_keep)


def _c_for(alpha):
    # unit c throughout, except the purely stationary case where c = 0.5
    # turns the recursion into an AR(1) with slope one-half
    return np.where(np.asarray(alpha, dtype=np.float64) == 0.0, 0.5, 1.0)


def preset(name, n, *, alpha1=None, sigma_uv=None, phi0=0.0, beta=0.0, burn_in=200):
    """Named benchmark scenario.

    Single-predictor scenarios (``DGP1a``, ``DGP1b``, ``DGP1c``) take the
    persistence exponent ``alpha1`` and the endogeneity parameter
    ``sigma_uv``: the covariance of the standardized shock pair
    ``(zeta_t, v_t)``, which has unit variances, so it doubles as their
    correlation. ``DGP1a`` is homoskedastic with error variance 2.5 (there
    ``u_t = zeta_t * sqrt(2.5)``, so ``sigma_uv`` is also the correlation
    between ``u_t`` and ``v_t``); ``DGP1b`` adds ARCH, ``DGP1c`` adds error
    autocorrelation 0.25 on top. The three-predictor scenarios carry a
    fixed shock covariance and ARCH parameters (1.5, 0.25); ``DGP2c_ii``
    adds error autocorrelation 0.25.
    """
    key = str(name).replace("-", "_").lower()
    canonical = {p.lower(): p for p in PRESET_NAMES}
    if key not in canonical:
        raise UnknownPreset(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}"
        )
    label = canonical[key]

    if label.startswith("DGP1"):
        if alpha1 is None:
            raise ValueError(f"{label} requires alpha1 (persistence exponent)")
        if sigma_uv is None:
            sigma_uv = -0.90
        alpha = np.array([float(alpha1)])
        common = dict(
            n=n,
            alpha=alpha,
            c=_c_for(alpha),
            phi0=float(phi0),
            beta=beta,
            burn_in=burn_in,
            label=label,
        )
        omega = np.array([[1.0, sigma_uv], [sigma_uv, 1.0]])
        if label == "DGP1a":
            return DgpSpec(omega=omega, rho=0.0, theta0=2.5, theta1=0.0, **common)
        rho = 0.25 if label == "DGP1c" else 0.0
        return DgpSpec(omega=omega, rho=rho, theta0=2.5, theta1=0.25, **common)

    if alpha1 is not None or sigma_uv is not None:
        raise ValueError(f"{label} has fixed persistence and shock covariance")
    alphas = {
        "DGP2a": np.array([0.0, 0.0, 0.0]),
        "DGP2b": np.array([0.75, 0.50, 0.25]),
        "DGP2c_i": np.array([1.0, 1.0, 1.0]),
        "DGP2c_ii": np.array([1.0, 1.0, 1.0]),
    }[label]
    rho = 0.25 if label == "DGP2c_ii" else 0.0
    return DgpSpec(
        n=n,
        alpha=alphas,
        c=_c_for(alphas),
        phi0=float(phi0),
        beta=beta,
        omega=OMEGA_THREE_PREDICTOR.copy(),
        rho=rho,
        theta0=1.5,
        theta1=0.25,
        burn_in=burn_in,
        label=label,
    )
