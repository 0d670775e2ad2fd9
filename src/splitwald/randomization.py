"""Deterministic random streams and batched Bernoulli draws.

The tests in this package are randomized: each one consumes external i.i.d.
Bernoulli sequences that are independent of the data. Reproducibility across
runs, hosts and worker counts therefore hinges on a seeding scheme in which
every consumer owns a private, addressable stream. :class:`SeedSpec` provides
that: a ``(master_seed, stream_id)`` pair maps to a counter-based Philox
stream via :class:`numpy.random.SeedSequence`, and ``child(...)`` derives
statistically independent sub-streams for nested consumers (replications,
data channels, a test's Bernoulli draws).

Stream layout 3: the ``M`` Bernoulli draws of one test are the rows of one
``(M, n)`` block, row ``j - 1`` holding draw ``j``. The block is filled in
row-major order from consecutive 32-bit halves of the 64-bit words of the
Philox stream at the test's seed: each word's low half gives one draw and
its high half the next. A half ``h`` draws a one exactly when
``h < ceil(p0 * 2**32)``, so P(one) exceeds ``p0`` by less than ``2**-32``.
When ``M * n`` is odd, the last word's high half is discarded. A row that
comes out all zeros or all ones is redrawn, in row order, from the
continuation of that same stream, each attempt taking ``ceil(n / 2)`` fresh
words. Philox is counter-based, so the rows are independent and addressable
without a generator per draw.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLength, InvalidP0, check_integer, check_real

# Admissible success probabilities: [0.30, 0.70] minus a guard band around
# one-half where the weight variance degenerates.
P0_LOW = 0.30
P0_HIGH = 0.70
P0_HALF_GAP = 0.02

# Version of the mapping from seeds to Bernoulli draws described above;
# recorded in test outcomes and report metadata.
STREAM_LAYOUT = 3

# Stream words fetched at a time while filling a block of draws (1 MiB). The
# words continue one stream, so the draws do not depend on it; it bounds the
# draws' memory to the block plus this buffer.
DRAW_BLOCK_WORDS = 2**17

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
            value = check_integer(name, getattr(self, name), 0)
            if value >= _U64:
                raise ValueError(
                    f"{name} must be an unsigned 64-bit integer, got {value!r}"
                )
            object.__setattr__(self, name, value)
        path = tuple(check_integer("path element", k, 0) for k in self.path)
        object.__setattr__(self, "path", path)

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


def _half_threshold(p0):
    """``ceil(p0 * 2**32)``: a 32-bit half ``h`` draws a one iff ``h`` is below it.

    Scaling by a power of two is exact, so ``h < ceil(p0 * 2**32)`` holds
    exactly when ``h * 2**-32 < p0``.
    """
    return math.ceil(p0 * 2.0**32)


def _fill_draws(out, bits, threshold):
    """Set the 1-D float64 ``out`` to the draws of the next stream halves.

    Takes ``ceil(out.size / 2)`` words, at most :data:`DRAW_BLOCK_WORDS` at
    a time, and discards the last high half when ``out.size`` is odd.
    """
    step = 2 * DRAW_BLOCK_WORDS
    for start in range(0, out.size, step):
        part = out[start : start + step]
        words = bits.random_raw((part.size + 1) // 2)
        # low half first on any host: the words as little-endian bytes
        halves = words.astype("<u8", copy=False).view("<u4")
        np.less(halves[: part.size], threshold, out=part)
        del words, halves  # free this block before the next one is drawn


def draw_bernoulli_rows(n, p0, m, seed):
    """Draw ``m`` i.i.d. Bernoulli(n, p0) rows from the stream at ``seed``.

    Returns the ``(m, n)`` 0/1 float64 matrix and its row counts, for
    ``n >= 2`` and ``m >= 1``, under stream layout 3 (see the module
    docstring). Besides the matrix, the draws hold at most one block of
    :data:`DRAW_BLOCK_WORDS` stream words. Every returned row is mixed.
    """
    try:
        n = check_integer("n", n, 2)
        m = check_integer("m", m, 1)
    except ValueError as exc:
        raise InvalidLength(str(exc)) from None
    threshold = np.uint32(_half_threshold(check_p0(p0)))
    bits = seed.generator().bit_generator
    b = np.empty((m, n))
    _fill_draws(b.reshape(-1), bits, threshold)
    counts = b.sum(axis=1)
    for j in np.flatnonzero((counts == 0.0) | (counts == n)):
        while not 0.0 < counts[j] < n:
            _fill_draws(b[j], bits, threshold)
            counts[j] = b[j].sum()
    return b, counts
