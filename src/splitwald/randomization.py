"""Deterministic random streams and batched Bernoulli draws.

The tests in this package are randomized: each one consumes external i.i.d.
Bernoulli sequences that are independent of the data. Reproducibility across
runs, hosts and worker counts therefore hinges on a seeding scheme in which
every consumer owns a private, addressable stream. :class:`SeedSpec` provides
that: a ``(master_seed, stream_id)`` pair and a derivation path map, through
the spawn key of a :class:`numpy.random.SeedSequence`, to the seed of an SFC64
generator, and ``child(...)`` derives statistically independent sub-streams
for nested consumers (cells, replications). Each consumer builds its own
generator from its address; the streams are independent through their spawn
keys.

Stream layout 5: the ``M`` Bernoulli draws of one test are the rows of one
``(M, n)`` block, row ``j - 1`` holding draw ``j``, read by
:func:`draw_bernoulli_rows` from a generator wherever it stands. A Monte
Carlo replication draws its data shocks first and its rows from the
continuation of the same stream; ``splitwald test`` draws them from the
start of the stream at its seed. The block is filled in row-major order from
consecutive 16-bit quarters of the 64-bit words of the stream, lowest
quarter first, so each word gives four draws. A quarter ``q`` draws a one
exactly when ``q < ceil(p0 * 2**16)``, so P(one) exceeds ``p0`` by less than
``2**-16`` (0.400009 at ``p0 = 0.40``); the statistics weigh each row by its
realised share of ones, not by ``p0``, so the test's validity does not rest
on that excess. When ``M * n`` is not a multiple of four, the last word's
unused quarters are discarded. A row that comes out all zeros or all ones is
redrawn, in row order, from the continuation of the stream, each attempt
taking ``ceil(n / 4)`` fresh words.
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
STREAM_LAYOUT = 5

# Stream words fetched at a time while filling a block of draws (1 MiB). The
# words continue one stream, so the draws do not depend on it; it bounds the
# draws' memory to the block plus this buffer.
DRAW_BLOCK_WORDS = 2**17

# Leading draws of a row checked before it is summed: a row mixed among them
# is mixed. Only a row whose leading draws are all alike, with probability
# below 1e-9 at 64 draws and p0 in [0.30, 0.70], is summed in full. It sets
# no draw, only the work of finding the rows to redraw.
MIX_CHECK = 64

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
    nested consumers (a plan's cell and replication) and is normally
    populated through :meth:`child` rather than directly.
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
        """Instantiate a fresh SFC64 generator at the start of this stream."""
        return np.random.Generator(np.random.SFC64(self.seed_sequence()))

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


def _quarter_threshold(p0):
    """``ceil(p0 * 2**16)``: a 16-bit quarter ``q`` draws a one iff ``q`` is below it.

    Scaling by a power of two is exact, so ``q < ceil(p0 * 2**16)`` holds
    exactly when ``q * 2**-16 < p0``.
    """
    return math.ceil(p0 * 2.0**16)


def _fill_draws(out, bits, threshold):
    """Set the 1-D float64 ``out`` to the draws of the next stream quarters.

    Takes ``ceil(out.size / 4)`` words, at most :data:`DRAW_BLOCK_WORDS` at
    a time, and discards the last word's unused quarters.
    """
    step = 4 * DRAW_BLOCK_WORDS
    for start in range(0, out.size, step):
        part = out[start : start + step]
        words = bits.random_raw(-(-part.size // 4))
        # lowest quarter first on any host: the words as little-endian bytes
        quarters = words.astype("<u8", copy=False).view("<u2")
        np.less(quarters[: part.size], threshold, out=part)
        del words, quarters  # free this block before the next one is drawn


def draw_bernoulli_rows(n, p0, m, gen):
    """Draw ``m`` i.i.d. Bernoulli(n, p0) rows from the generator ``gen``.

    Returns the ``(m, n)`` 0/1 float64 matrix, for ``n >= 2`` and
    ``m >= 1``, under stream layout 5 (see the module docstring): the draws
    read on from wherever ``gen`` stands and leave it after the last word
    they took. Besides the matrix, the draws hold at most one block of
    :data:`DRAW_BLOCK_WORDS` stream words. Every returned row is mixed.
    """
    try:
        n = check_integer("n", n, 2)
        m = check_integer("m", m, 1)
    except ValueError as exc:
        raise InvalidLength(str(exc)) from None
    threshold = np.uint16(_quarter_threshold(check_p0(p0)))
    bits = gen.bit_generator
    b = np.empty((m, n))
    _fill_draws(b.reshape(-1), bits, threshold)
    head = b[:, :MIX_CHECK].sum(axis=1)
    for j in np.flatnonzero((head == 0.0) | (head == min(n, MIX_CHECK))).tolist():
        while b[j].sum() in (0.0, n):
            _fill_draws(b[j], bits, threshold)
    return b
