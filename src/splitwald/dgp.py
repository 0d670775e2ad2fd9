"""Simulators for the benchmark data-generating processes.

The predictand is ``y_t = mu + beta' x_{t-1} + u_t`` with predictors that
follow (possibly near-integrated) AR dynamics

    x_it = phi0_i + (1 - c_i / n^{alpha_i}) x_{i,t-1} + v_it,

errors that chain an AR(1) over an ARCH(1),

    u_t = rho u_{t-1} + eps_t,   eps_t = zeta_t sqrt(theta0 + theta1 eps_{t-1}^2),

and jointly Gaussian shocks ``(zeta_t, v_t) ~ N(0, omega)``. The named
presets reproduce the benchmark scenarios used throughout the experiment
suite.

:func:`simulate_many` simulates a batch: each seed builds the generator of
its stream and draws its shocks into one time-major buffer, and the
recursions step over time on every replication at once. A batch that
updates fewer than
``ARRAY_RECURSION_MIN_VALUES`` (40) state values per step, width times
``p + 1``, runs them series by series on Python floats instead, since each
numpy step costs about as much at width 1 as at width 20. Both give the same
bits. A call splits its seeds into the fewest near-equal batches whose
buffer fits in ``SIM_BATCH_BYTES`` (5 MiB: one 250-replication chunk at
p=1 and n <= 1000), the one memory rule of a Monte Carlo chunk, and yields
each batch as views of its buffer, which a fit takes in place
(:func:`~splitwald.regression.fit_in_place`). Only the caller holds a
batch, so once it lets go, the buffer is freed before the next batch
allocates its own. :func:`simulate` is the one-seed case.

Each batch comes with its replications' generators, positioned just after
their shocks, so that each replication's Bernoulli draws continue the same
stream (stream layout 5, see :mod:`splitwald.randomization`). A batch
builds the generators of its own seeds only.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NotPositiveDefinite,
    NumericOverflow,
    UnknownPreset,
    check_integer,
    check_real,
)

OVERFLOW_GUARD = 1e12

# Fewest state values per time step, batch width * (p + 1), for which the
# recursions step numpy over time. A numpy step costs a few ufunc calls
# whatever its width, while the Python-float loops cost per series and per
# predictor, so the break-even width falls as p grows. Simulate time per
# replication at n=2000, floats against arrays (2 cores, numpy 2.4.6): DGP1b
# 1126/1506 us at width 12, 1138/1177 at 16, 1122/997 at 20; DGP2c_ii
# 2470/2895 at width 6, 2433/2277 at 8, 2422/1923 at 10. Break-even lies near
# width 16 at p=1 and 8-10 at p=3; from 40 values (width 20 at p=1, 10 at
# p=3) the arrays were faster on every preset.
ARRAY_RECURSION_MIN_VALUES = 40

# Largest shock buffer of one simulate_many batch: 250 * 1201 * 2 * 8 bytes
# (4.58 MiB) holds a whole 250-replication chunk of DGP1b at n=1000. Each
# step of the time loop costs about the same at any width, so one batch of
# the chunk beats three: DGP1b batches of 84, 125 and 250 ran 3604, 3820
# and 4156 reps/s (in-process plans, 2 cores, numpy 2.4), and the bench's
# peak RSS rose 7.0%, from 46.0 to 49.2 MiB.
SIM_BATCH_BYTES = 5 * 2**20

# Shock covariance of (zeta, v1, v2, v3) for the three-predictor scenarios.
OMEGA_THREE_PREDICTOR = np.array(
    [
        [1.0350, -0.9726, -0.7408, -0.4943],
        [-0.9726, 1.0214, 0.5072, 0.2545],
        [-0.7408, 0.5072, 1.0024, 0.5015],
        [-0.4943, 0.2545, 0.5015, 1.0009],
    ]
)

# The benchmark scenarios: label -> (persistence exponents, or None for the
# caller's alpha1; rho; theta0; theta1). A DGP1 scenario has one predictor
# and shock covariance [[1, sigma_uv], [sigma_uv, 1]]; a DGP2 scenario has
# three and OMEGA_THREE_PREDICTOR.
PRESETS = {
    "DGP1a": (None, 0.0, 2.5, 0.0),
    "DGP1b": (None, 0.0, 2.5, 0.25),
    "DGP1c": (None, 0.25, 2.5, 0.25),
    "DGP2a": ((0.0, 0.0, 0.0), 0.0, 1.5, 0.25),
    "DGP2b": ((0.75, 0.5, 0.25), 0.0, 1.5, 0.25),
    "DGP2c_i": ((1.0, 1.0, 1.0), 0.0, 1.5, 0.25),
    "DGP2c_ii": ((1.0, 1.0, 1.0), 0.25, 1.5, 0.25),
}
PRESET_NAMES = tuple(PRESETS)


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


def _reals(name, value):
    """``value`` as a float64 array, every entry checked by ``check_real``."""
    entries = np.asarray(value, dtype=object)
    return np.array([check_real(name, v) for v in entries.flat]).reshape(entries.shape)


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
        self.alpha = np.atleast_1d(_reals("alpha", self.alpha))
        p = self.alpha.shape[0]
        for name in ("c", "phi0", "beta"):
            value = _reals(name, getattr(self, name))
            setattr(self, name, np.broadcast_to(value, (p,)).copy())
        self.omega = _reals("omega", self.omega)
        for name in ("rho", "theta0", "theta1", "mu"):
            setattr(self, name, check_real(name, getattr(self, name)))

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


def simulate_many(spec, seeds):
    """Generate one sample from ``spec`` per seed in the sequence ``seeds``,
    in batches that a fit takes in place.

    The recursion starts from zero predictor and error states with the ARCH
    variance at its stationary value, runs ``burn_in + n`` steps, and pairs
    ``y_t`` with ``x_{t-1}`` so exactly ``n`` usable observations remain.

    The seeds run, in order, in the fewest near-equal batches whose buffer
    fits in ``SIM_BATCH_BYTES``. A batch is ``(data, scratch, streams)``:
    the time-major ``(n, p + 1, w)`` sample that
    :func:`~splitwald.regression.fit_in_place` takes, whose ``data[t, :p, i]``
    holds replication ``i``'s lagged predictors ``x_{t-1}`` and
    ``data[t, p, i]`` its error ``u_t``; the buffer's burn-in rows, which the
    fit may overwrite; and each replication's generator, positioned after
    the shocks it drew. The first replication whose state is not finite or
    exceeds ``OVERFLOW_GUARD`` raises :class:`NumericOverflow` carrying its
    position in ``seeds`` as ``index``, before its batch is produced.
    """
    widest = max(1, SIM_BATCH_BYTES // ((spec.burn_in + spec.n + 1) * (spec.p + 1) * 8))
    count = -(-len(seeds) // widest)
    lo = 0
    for k in range(count):
        hi = lo + len(seeds) // count + (k < len(seeds) % count)
        yield _simulate_batch(spec, seeds[lo:hi], lo)  # held by the caller only
        lo = hi


def _simulate_batch(spec, seeds, start):
    """One batch of :func:`simulate_many`, whose first seed is at position
    ``start``.

    Seed ``r`` draws its shocks from its generator into slice ``r`` of one
    time-major buffer, whose row 0 is the zero start state, and the
    recursions run in place on it; both recursion paths apply the same
    operations in the same order. Each time step's ``p + 1`` rows follow the
    last, so the predictors of a step and the error of the next are ``p + 1``
    consecutive rows: the sample starts at the last burn-in predictors.
    """
    total = spec.burn_in + spec.n
    buf = np.empty((total + 1, spec.p + 1, len(seeds)))
    buf[0] = 0.0
    streams = [seed.generator() for seed in seeds]
    for r, stream in enumerate(streams):
        shocks = stream.standard_normal((total, spec.p + 1))
        buf[1:, :, r] = shocks @ spec._lower.T
    if len(seeds) * (spec.p + 1) < ARRAY_RECURSION_MIN_VALUES:
        for r in range(len(seeds)):
            _recurse_series(spec, buf[:, :, r])
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # the guard reports it
            _recurse_rows(spec, buf)
    _check_overflow(buf, start)
    rows = buf.reshape(-1, len(seeds))
    first = spec.burn_in * (spec.p + 1) + 1
    data = rows[first : first + spec.n * (spec.p + 1)].reshape(spec.n, spec.p + 1, -1)
    return data, rows[:first], streams


def simulate(spec, seed):
    """One sample from ``spec`` on the stream at ``seed``, the one-seed case
    of :func:`simulate_many`: ``(y, X_lagged, stream)``, with the generator
    positioned after the shocks it drew."""
    data, _, (stream,) = next(simulate_many(spec, [seed]))
    X_lagged = data[:, : spec.p, 0].copy()
    y = spec.mu + X_lagged @ spec.beta
    y += data[:, spec.p, 0]
    return y, X_lagged, stream


def _ar1(const, coef, shocks):
    """Path of ``x_t = const + coef * x_{t-1} + shock_t`` from ``x_0 = 0``,
    one entry per shock (``x_0`` itself is not included)."""
    prev = 0.0
    out = []
    for v in shocks:
        prev = const + coef * prev + v
        out.append(prev)
    return out


def _recurse_series(spec, state):
    """The recursions of one replication, one series at a time, in place on
    its ``(burn_in + n + 1, p + 1)`` slice of the buffer."""
    theta0, theta1 = spec.theta0, spec.theta1
    eps = state[1:, 0]
    if theta1 == 0.0:
        eps *= math.sqrt(theta0)
    else:
        e2 = theta0 / (1.0 - theta1)  # stationary ARCH variance start
        out = []
        for z in eps.tolist():
            e = z * math.sqrt(theta0 + theta1 * e2)
            e2 = e * e
            out.append(e)
        eps[:] = out
    if spec.rho != 0.0:
        eps[:] = _ar1(0.0, spec.rho, eps.tolist())
    ar = spec.ar_coefficients()
    for i in range(spec.p):
        x = state[1:, i + 1]
        x[:] = _ar1(float(spec.phi0[i]), float(ar[i]), x.tolist())


def _recurse_rows(spec, buf):
    """The recursions of every replication at once, stepping over time in
    place on the buffer's ``(R,)`` error rows and ``(p, R)`` predictor rows.

    Constants are full-width arrays and outputs positional: a ufunc call on
    such short rows costs mostly its dispatch, which a broadcast scalar and
    an ``out=`` keyword make slower."""
    mul, add = np.multiply, np.add
    width = buf.shape[2]
    theta0, theta1 = spec.theta0, spec.theta1
    if theta1 == 0.0:
        buf[1:, 0] *= math.sqrt(theta0)
    else:
        e2 = np.full(width, theta0 / (1.0 - theta1))  # stationary ARCH variance start
        t0, t1 = np.full(width, theta0), np.full(width, theta1)
        scale = np.empty(width)
        for eps in buf[1:, 0]:
            mul(e2, t1, scale)
            add(scale, t0, scale)
            np.sqrt(scale, scale)
            mul(eps, scale, eps)
            mul(eps, eps, e2)
    # the AR(1) error (column 0, unless rho = 0) and the predictors share
    # x_t = const + coef * x_{t-1} + shock_t
    first = 0 if spec.rho != 0.0 else 1
    coef = np.tile(np.r_[spec.rho, spec.ar_coefficients()][first:, None], width)
    const = np.tile(np.r_[0.0, spec.phi0][first:, None], width)
    step = np.empty_like(coef)
    rows = buf[:, first:]
    for prev, cur in zip(rows[:-1], rows[1:]):
        mul(coef, prev, step)
        add(step, const, step)
        add(cur, step, cur)


def _check_overflow(buf, start=0):
    """Raise for the first replication whose state leaves the guard; its
    ``index`` is ``start`` plus its slice of the buffer."""
    hi = buf.max(axis=(0, 1))
    lo = buf.min(axis=(0, 1))
    bad = np.flatnonzero(~((lo >= -OVERFLOW_GUARD) & (hi <= OVERFLOW_GUARD)))
    if not bad.size:
        return
    r = int(bad[0])
    if not (np.isfinite(hi[r]) and np.isfinite(lo[r])):
        raise NumericOverflow(
            "simulated state is not finite; parameters explosive?", index=start + r
        )
    peak = max(hi[r], -lo[r])
    raise NumericOverflow(
        f"simulated state reached {peak:.3e} (> {OVERFLOW_GUARD:.0e}); "
        "parameters look explosive",
        index=start + r,
    )


def preset(name, n, *, alpha1=None, sigma_uv=None, phi0=0.0, beta=0.0, burn_in=200):
    """Named benchmark scenario, with the parameters ``PRESETS`` gives it.

    Single-predictor scenarios (``DGP1a``, ``DGP1b``, ``DGP1c``) take the
    persistence exponent ``alpha1`` and the endogeneity parameter
    ``sigma_uv``: the covariance of the standardized shock pair
    ``(zeta_t, v_t)``, which has unit variances, so it doubles as their
    correlation. ``DGP1a`` has no ARCH (there ``u_t = zeta_t * sqrt(2.5)``,
    so ``sigma_uv`` is also the correlation between ``u_t`` and ``v_t``).
    """
    key = str(name).replace("-", "_").lower()
    canonical = {p.lower(): p for p in PRESET_NAMES}
    if key not in canonical:
        raise UnknownPreset(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}"
        )
    label = canonical[key]
    phi0 = check_real("phi0", phi0)
    alpha, rho, theta0, theta1 = PRESETS[label]
    if alpha is None:
        if alpha1 is None:
            raise ValueError(f"{label} requires alpha1 (persistence exponent)")
        sigma_uv = -0.90 if sigma_uv is None else check_real("sigma_uv", sigma_uv)
        alpha = [check_real("alpha1", alpha1)]
        omega = [[1.0, sigma_uv], [sigma_uv, 1.0]]
    elif alpha1 is not None or sigma_uv is not None:
        raise ValueError(f"{label} has fixed persistence and shock covariance")
    else:
        omega = OMEGA_THREE_PREDICTOR
    alpha = np.array(alpha)
    return DgpSpec(
        n=n,
        alpha=alpha,
        # unit c throughout, except the purely stationary case where c = 0.5
        # turns the recursion into an AR(1) with slope one-half
        c=np.where(alpha == 0.0, 0.5, 1.0),
        phi0=phi0,
        beta=beta,
        omega=omega,
        rho=rho,
        theta0=theta0,
        theta1=theta1,
        burn_in=burn_in,
        label=label,
    )
