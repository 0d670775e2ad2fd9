"""Deterministic random streams and batched Bernoulli draws.

The tests in this package are randomized: each one consumes external i.i.d.
Bernoulli sequences that are independent of the data. Reproducibility across
runs, hosts and worker counts therefore hinges on a seeding scheme in which
every consumer owns a private, addressable stream. :class:`SeedSpec` provides
that: a ``(master_seed, stream_id)`` pair maps to a counter-based Philox
stream via :class:`numpy.random.SeedSequence`, and ``child(...)`` derives
statistically independent sub-streams for nested consumers (replications,
data channels, a test's Bernoulli draws).

Stream layout 2: the ``M`` Bernoulli draws of one test are the rows of one
``(M, n)`` block of uniforms from the Philox stream at the test's seed, row
``j - 1`` holding draw ``j``. A row that comes out all zeros or all ones is
redrawn, in row order, from the continuation of that same stream. Philox is
counter-based, so the rows are independent and addressable without a
generator per draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLength, InvalidP0, check_real

# Admissible success probabilities: [0.30, 0.70] minus a guard band around
# one-half where the weight variance degenerates.
P0_LOW = 0.30
P0_HIGH = 0.70
P0_HALF_GAP = 0.02

# Version of the mapping from seeds to Bernoulli draws described above;
# recorded in test outcomes and report metadata.
STREAM_LAYOUT = 2

_U64 = 2**64


def check_p0(p0):
    """Validate the tuning probability against the admissible set.

    Raises
    ------
    ValueError
        If ``p0`` is not a finite real number.
    InvalidP0
        If ``p0`` falls outside ``[0.30, 0.70]`` or within ``0.02`` of the
        degenerate point one-half (where the split-sample weights collapse
        to a constant and the statistic's variance vanishes).
    """
    p0 = check_real("p0", p0)
    if not P0_LOW <= p0 <= P0_HIGH:
        raise InvalidP0(
            f"p0={p0!r} outside the admissible range [{P0_LOW}, {P0_HIGH}]"
        )
    if abs(p0 - 0.5) < P0_HALF_GAP:
        raise InvalidP0(
            f"p0={p0!r} too close to 1/2: the weight variance degenerates at "
            f"one-half, keep |p0 - 0.5| >= {P0_HALF_GAP}"
        )
    return p0


@dataclass(frozen=True)
class SeedSpec:
    """Address of a reproducible random stream.

    Distinct ``(master_seed, stream_id)`` pairs yield statistically
    independent streams; the same pair yields bit-identical output on every
    host and under any thread schedule. ``path`` extends the address for
    nested consumers (replication, Bernoulli draw index, data channel) and
    is normally populated through :meth:`child` rather than directly.
    """

    master_seed: int
    stream_id: int = 0
    path: tuple = ()

    def __post_init__(self):
        for name in ("master_seed", "stream_id"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, np.integer))
                or not 0 <= int(value) < _U64
            ):
                raise ValueError(
                    f"{name} must be an unsigned 64-bit integer, got {value!r}"
                )
            object.__setattr__(self, name, int(value))
        object.__setattr__(self, "path", tuple(int(k) for k in self.path))
        if any(k < 0 for k in self.path):
            raise ValueError(f"path elements must be nonnegative, got {self.path!r}")

    def seed_sequence(self):
        return np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *self.path)
        )

    def generator(self):
        """Instantiate a fresh counter-based generator for this stream."""
        return np.random.Generator(np.random.Philox(self.seed_sequence()))

    def child(self, *key):
        """Derive the independent sub-stream addressed by an integer path."""
        if not key:
            raise ValueError("child() requires at least one path element")
        return SeedSpec(self.master_seed, self.stream_id, self.path + key)

    def describe(self):
        """JSON-friendly provenance record."""
        return {
            "master_seed": self.master_seed,
            "stream_id": self.stream_id,
            "path": list(self.path),
        }


def draw_bernoulli_rows(n, p0, m, seed):
    """Draw ``m`` i.i.d. Bernoulli(n, p0) rows from the stream at ``seed``.

    Returns the ``(m, n)`` 0/1 float64 matrix and its row counts, for
    ``n >= 2`` and ``m >= 1``. The draws are compared in place, so no
    second ``(m, n)`` array is made. A degenerate row (all zeros or all
    ones) is redrawn, in row order, from the continuation of the stream, so
    every returned row is mixed.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise InvalidLength(f"n must be an integer >= 2, got {n!r}")
    if not isinstance(m, (int, np.integer)) or m < 1:
        raise InvalidLength(f"m must be an integer >= 1, got {m!r}")
    p0 = check_p0(p0)
    # The uniform of a raw 64-bit word x is (x >> 11) * 2**-53, so it is
    # below p0 exactly when x < ceil(p0 * 2**53) * 2**11. Comparing the raw
    # words therefore gives the same rows as comparing the uniforms.
    threshold = np.uint64(math.ceil(p0 * 2.0**53) << 11)
    bits = seed.generator().bit_generator
    raw = bits.random_raw((m, n))
    b = raw.view(np.float64)
    np.less(raw, threshold, out=b, casting="unsafe")
    counts = b.sum(axis=1)
    for j in np.flatnonzero((counts == 0.0) | (counts == n)):
        while not 0.0 < counts[j] < n:
            np.less(bits.random_raw(n), threshold, out=b[j], casting="unsafe")
            counts[j] = b[j].sum()
    return b, counts
