"""Deterministic random streams and batched Bernoulli draws.

The tests in this package are randomized: each one consumes external i.i.d.
Bernoulli sequences that are independent of the data. Reproducibility across
runs, hosts and worker counts therefore hinges on a seeding scheme in which
every consumer owns a private, addressable stream. :class:`SeedSpec` provides
that: a ``(master_seed, stream_id)`` pair and a derivation path map, through
the spawn key of a :class:`numpy.random.SeedSequence`, to the seed of an SFC64
generator, and ``child(...)`` derives statistically independent sub-streams
for nested consumers (cells, replications). A lone consumer builds its
generator from its address; a Monte Carlo chunk instead derives the start
states of all its replications' streams in one array pass
(:meth:`SeedSpec.child_states`), equal to those that numpy's
``SeedSequence`` and ``SFC64`` give, and steps them on one generator
(:func:`state_generator`, :func:`set_state`). The streams are independent
through their spawn keys.

Stream layout 5: the ``M`` Bernoulli draws of one test are the rows of one
``(M, n)`` block, row ``j - 1`` holding draw ``j``, read by a
:class:`BernoulliRows` block from a generator wherever it stands. A Monte
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

import functools
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

_U64 = 2**64

# numpy's SeedSequence (numpy/random/bit_generator.pyx): pool size, hash and
# mix constants. SeedSpec.child_states repeats its arithmetic on arrays.
_POOL = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_MASK32 = 0xFFFFFFFF


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

    def child_states(self, start, stop):
        """The ``(stop - start, 4)`` uint64 SFC64 states at which the streams
        ``self.child(r)``, ``start <= r < stop``, start: row ``i`` is the
        state of ``self.child(start + i).generator()``, for any address.

        One array pass over ``r`` runs numpy's ``SeedSequence`` (entropy
        words, pool mixing, ``generate_state(3, uint64)``) and SFC64's twelve
        seeding rounds. Only the words of ``r`` differ between rows, so the
        pool of the other words is mixed once.
        """
        start = check_integer("start", start, 0)
        stop = check_integer("stop", stop, start)
        master = _words(self.master_seed)
        # with a spawn key, numpy pads the seed's words to the pool size
        entropy = master + [0] * (_POOL - len(master))
        for key in (self.stream_id, *self.path):
            entropy += _words(key)
        pool, calls = _mix_pool(entropy)
        pool = [np.full(1, word, np.uint32) for word in pool]
        out = np.empty((stop - start, 4), np.uint64)
        lo = start
        while lo < stop:  # one pass per run of r that shares its high words
            high = lo >> 32
            hi = min(stop, (high + 1) << 32)
            low = np.arange(lo - (high << 32), hi - (high << 32), dtype=np.int64)
            words = [low.astype(np.uint32)]
            words += [np.full(1, w, np.uint32) for w in (_words(high) if high else ())]
            out[lo - start : hi - start] = _sfc64_states(_mix_in(pool, words, calls)[0])
            lo = hi
        return out

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


def _words(value):
    """numpy's uint32 entropy words of a non-negative integer, lowest first."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_const(call):
    """The hash constant before ``hashmix`` call number ``call``."""
    return _INIT_A * pow(_MULT_A, call, 2**32) & _MASK32


def _hashmix(value, call):
    """``hashmix`` as hash call number ``call``, on an int or uint32 array."""
    value = (value ^ _hash_const(call)) * _hash_const(call + 1) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return value ^ value >> 16


def _mix_pool(entropy):
    """The pool of the entropy words (at least ``_POOL``) and the count of
    hash calls made: the pool's own words, every pair of them, then the rest."""
    pool = [_hashmix(word, call) for call, word in enumerate(entropy[:_POOL])]
    calls = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], calls))
                calls += 1
    return _mix_in(pool, entropy[_POOL:], calls)


def _mix_in(pool, words, calls):
    """Mix entropy words beyond the pool size into every pool word."""
    for word in words:
        pool = [_mix(x, _hashmix(word, calls + i)) for i, x in enumerate(pool)]
        calls += _POOL
    return pool, calls


def _sfc64_states(pool):
    """The ``(R, 4)`` SFC64 states seeded from the uint32 array pool words:
    ``generate_state(3, uint64)``, then ``sfc64_set_seed``."""
    words = []
    hash_const = _INIT_B
    for i in range(6):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append((value ^ value >> 16).astype(np.uint64))
    # little-endian pairs of 32-bit words make the three 64-bit seed words
    a, b, c = (words[i] | words[i + 1] << 32 for i in (0, 2, 4))
    for counter in range(1, 13):  # the fourth word starts at 1
        tmp = a + b + counter
        a = b ^ b >> 11
        b = c + (c << 3)
        c = (c << 24 | c >> 40) + tmp
    return np.stack([a, b, c, np.full_like(a, 13)], axis=1)


@functools.cache
def _unseeded():
    """A seed sequence of zero words, for a generator whose state is set
    before each use; built on first use, as ``numpy.random`` loads then."""

    class Unseeded(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)

    return Unseeded()


def state_generator():
    """One SFC64 generator that steps streams from their states
    (:func:`set_state`), built without a ``SeedSequence``."""
    return np.random.Generator(np.random.SFC64(_unseeded()))


def get_state(gen):
    """The 4-word state of the SFC64 generator ``gen``."""
    return gen.bit_generator.state["state"]["state"]


def set_state(gen, state):
    """Put the SFC64 generator ``gen`` at the 4-word ``state``. The streams
    draw whole 64-bit words only, so no half-used word is carried over."""
    gen.bit_generator.state = {
        "bit_generator": "SFC64",
        "state": {"state": state},
        "has_uint32": 0,
        "uinteger": 0,
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


class BernoulliRows:
    """A reusable ``(m, n)`` block of Bernoulli(p0) draws under stream
    layout 5, for ``n >= 2`` and ``m >= 1``, checked once at construction.

    :meth:`fill` reads the block from a generator wherever it stands and may
    leave rows unmixed; :meth:`redraw` then redraws them from the
    continuation, given the rows' counts of ones. Besides the block, the
    draws hold at most one block of :data:`DRAW_BLOCK_WORDS` stream words.
    """

    def __init__(self, n, p0, m):
        try:
            n = check_integer("n", n, 2)
            m = check_integer("m", m, 1)
        except ValueError as exc:
            raise InvalidLength(str(exc)) from None
        self.threshold = np.uint16(_quarter_threshold(check_p0(p0)))
        self.block = np.empty((m, n))

    def fill(self, gen):
        """Fill the block from ``gen``'s stream and return it."""
        _fill_draws(self.block.reshape(-1), gen.bit_generator, self.threshold)
        return self.block

    def redraw(self, gen, counts):
        """Redraw, in row order, every row of the block whose count of ones
        in ``counts`` makes it unmixed (see :func:`unmixed`), each until it is
        mixed, from the continuation of ``gen``'s stream after the
        :meth:`fill`; return the block."""
        b = self.block
        n = b.shape[1]
        for j in np.flatnonzero(unmixed(counts, n)).tolist():
            while b[j].sum() in (0.0, n):
                _fill_draws(b[j], gen.bit_generator, self.threshold)
        return b


def unmixed(counts, n):
    """Where a row of ``n`` draws with ``counts`` ones is all zeros or all ones."""
    return (counts == 0.0) | (counts == n)

