import tracemalloc
from fractions import Fraction
from hashlib import sha256

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitwald import (
    InvalidLength,
    InvalidP0,
    SeedSpec,
    check_p0,
    preset,
    simulate,
)
from splitwald import randomization
from splitwald.errors import check_integer
from splitwald.randomization import (
    P0_HIGH,
    P0_LOW,
    BernoulliRows,
    _quarter_threshold,
    set_state,
    state_generator,
    unmixed,
)

from oracle import (
    WeightSequence,
    bernoulli_rows_oracle,
    draw_bernoulli_rows,
    draw_bernoulli_weights,
)


class TestWeights:
    def test_hand_evaluated_weights(self):
        ws = WeightSequence.from_draws([1, 0, 1, 1], 0.4)
        assert ws.b_bar == pytest.approx(0.75)
        np.testing.assert_allclose(ws.w, [2 / 3, 2.0, 2 / 3, 2 / 3])
        assert ws.w.sum() == pytest.approx(4.0, abs=1e-12)

    def test_degenerate_draw_rejected(self):
        with pytest.raises(InvalidLength):
            WeightSequence.from_draws([1, 1, 1], 0.4)

    def test_sample_weight_variance_converges(self):
        ws = draw_bernoulli_weights(10**5, 0.4, SeedSpec(9))
        assert ws.w.var() == pytest.approx(1.0 / 24.0, rel=0.05)

    @pytest.mark.parametrize("p0", [0.5, 0.49, 0.51, 0.29, 0.71, 0.0, 1.0, -0.1])
    def test_inadmissible_p0(self, p0):
        with pytest.raises(InvalidP0):
            draw_bernoulli_weights(100, p0, SeedSpec(0))

    @pytest.mark.parametrize("p0", [0.30, 0.42, 0.48, 0.52, 0.70])
    def test_admissible_p0(self, p0):
        ws = draw_bernoulli_weights(100, p0, SeedSpec(0))
        assert ws.w.sum() == pytest.approx(100.0, abs=1e-9 * 100)

    @pytest.mark.parametrize("p0", ["0.4", True, np.bool_(True), float("nan"), float("inf")])
    def test_non_real_p0_rejected(self, p0):
        # text, flags and non-finite values are not read as numbers
        with pytest.raises(ValueError, match="p0 must be a finite real number"):
            check_p0(p0)

    def test_too_short(self):
        with pytest.raises(InvalidLength):
            draw_bernoulli_weights(1, 0.4, SeedSpec(0))

    def test_degenerate_draws_redrawn_not_crashed(self):
        # n=2 at p0=0.3: P(degenerate) = 0.49 + 0.09, so redraws are routinely
        # exercised; every returned sequence must still be mixed
        for k in range(200):
            ws = draw_bernoulli_weights(2, 0.3, SeedSpec(7, k))
            assert 0.0 < ws.b_bar < 1.0


def quarters_of(words):
    """The 16-bit quarters of 64-bit words, lowest quarter first."""
    return np.stack([(words >> k) & 0xFFFF for k in (0, 16, 32, 48)], axis=1).ravel()


class TestRows:
    def test_degenerate_rows_redrawn_in_row_order_from_the_continuation(self):
        # n=3 at p0=0.30: P(degenerate row) = 0.7^3 + 0.3^3, about 37%
        n, p0, m = 3, 0.30, 40
        seed = SeedSpec(8)
        b = draw_bernoulli_rows(n, p0, m, seed.generator())
        assert b.shape == (m, n) and b.dtype == np.float64
        counts = b.sum(axis=1)
        assert np.all((counts > 0) & (counts < n))
        np.testing.assert_array_equal(b, bernoulli_rows_oracle(n, p0, m, seed.generator()))

        # the first pass is the block of the first m*n/4 words' quarters;
        # only its degenerate rows are replaced
        words = seed.generator().bit_generator.random_raw(m * n // 4)
        first = quarters_of(words).reshape(m, n) < _quarter_threshold(p0)
        redrawn = np.isin(first.sum(axis=1), (0, n))
        assert redrawn.sum() >= 8
        np.testing.assert_array_equal(b[~redrawn], first[~redrawn])

        again = draw_bernoulli_rows(n, p0, m, seed.generator())
        assert again.tobytes() == b.tobytes()

    @pytest.mark.parametrize("p0", [0.30, 0.1 + 0.2, 0.42, 0.58, 0.70, 2.0 / 3.0])
    def test_rows_are_the_stream_uniforms_below_p0(self, p0):
        b = draw_bernoulli_rows(200, p0, 30, SeedSpec(3).generator())
        np.testing.assert_array_equal(
            b, bernoulli_rows_oracle(200, p0, 30, SeedSpec(3).generator())
        )
        # each quarter q is the 16-bit uniform q * 2**-16, lowest quarter first
        words = SeedSpec(3).generator().bit_generator.random_raw(30 * 50)
        np.testing.assert_array_equal(b.ravel(), quarters_of(words) * 2.0**-16 < p0)
        ws = draw_bernoulli_weights(200, p0, SeedSpec(3))
        np.testing.assert_array_equal(ws.b, b[0])

    @pytest.mark.parametrize("n, p0, m", [(40, 0.40, 5), (7, 0.30, 9), (1001, 0.58, 3)])
    def test_rows_continue_the_stream_after_the_shocks(self, n, p0, m):
        # the generator a replication's shocks were drawn from: the draws
        # read on from where standard_normal left it, and leave it where the
        # oracle leaves it
        for k in range(10):
            got_gen, ref_gen = SeedSpec(9, k).generator(), SeedSpec(9, k).generator()
            got_gen.standard_normal((137, 2))
            ref_gen.standard_normal((137, 2))
            b = draw_bernoulli_rows(n, p0, m, got_gen)
            np.testing.assert_array_equal(b, bernoulli_rows_oracle(n, p0, m, ref_gen))
            next_words = [g.bit_generator.random_raw(4) for g in (got_gen, ref_gen)]
            np.testing.assert_array_equal(*next_words)
        fresh = draw_bernoulli_rows(n, p0, m, SeedSpec(9, 9).generator())
        assert not np.array_equal(b, fresh)

    @pytest.mark.parametrize(
        "n, p0, m", [(7, 0.42, 3), (3, 0.30, 41), (5, 0.70, 9), (2, 0.30, 1), (6, 0.30, 2)]
    )
    def test_partial_words_discard_their_unused_quarters(self, n, p0, m):
        # m*n not a multiple of four, or an n whose redraws each take
        # ceil(n/4) words
        for k in range(25):
            b = draw_bernoulli_rows(n, p0, m, SeedSpec(4, k).generator())
            ref = bernoulli_rows_oracle(n, p0, m, SeedSpec(4, k).generator())
            np.testing.assert_array_equal(b, ref)

    def test_block_spanning_several_word_blocks(self):
        # 300 x 2001 draws take 150,075 words: two blocks
        n, m = 2001, 300
        assert m * n > 4 * randomization.DRAW_BLOCK_WORDS
        b = draw_bernoulli_rows(n, 0.40, m, SeedSpec(6).generator())
        ref = bernoulli_rows_oracle(n, 0.40, m, SeedSpec(6).generator())
        np.testing.assert_array_equal(b, ref)

    @pytest.mark.parametrize("n, p0, m", [(7, 0.42, 5), (3, 0.30, 41), (2, 0.30, 9)])
    def test_block_size_does_not_change_the_draws(self, monkeypatch, n, p0, m):
        monkeypatch.setattr(randomization, "DRAW_BLOCK_WORDS", 1)
        for k in range(10):
            b = draw_bernoulli_rows(n, p0, m, SeedSpec(5, k).generator())
            ref = bernoulli_rows_oracle(n, p0, m, SeedSpec(5, k).generator())
            np.testing.assert_array_equal(b, ref)

    @pytest.mark.parametrize("n, p0, m", [(3, 0.30, 41), (5, 0.30, 60), (2, 0.70, 9)])
    def test_rows_redrawn_from_counts_of_a_refilled_block(self, n, p0, m):
        # as a Monte Carlo chunk draws: fill one reused block per stream,
        # then for a stream whose counts show an unmixed row, put it back,
        # fill again and redraw from the counts
        rows = BernoulliRows(n, p0, m)
        gen = state_generator()
        states = SeedSpec(10).child_states(0, 5)
        counts = []
        for state in states:
            set_state(gen, state)
            counts.append(rows.fill(gen).sum(axis=1))
        for k, state in enumerate(states):
            set_state(gen, state)
            rows.fill(gen)
            b = rows.redraw(gen, counts[k])
            ref = bernoulli_rows_oracle(n, p0, m, SeedSpec(10).child(k).generator())
            np.testing.assert_array_equal(b, ref)
            assert unmixed(counts[k], n).any() and not unmixed(b.sum(axis=1), n).any()

    def test_quarter_threshold_is_within_two_to_the_minus_16_above_p0(self):
        for p0 in [*np.linspace(P0_LOW, P0_HIGH, 401).tolist(), 0.1 + 0.2, 2.0 / 3.0]:
            threshold = _quarter_threshold(p0)
            assert type(threshold) is int and threshold < 2**16, p0
            excess = Fraction(threshold, 2**16) - Fraction(p0)
            assert 0 <= excess < Fraction(1, 2**16), p0
        assert Fraction(_quarter_threshold(0.40), 2**16) == Fraction(26215, 65536)

    def test_a_quarter_equal_to_the_threshold_draws_a_zero(self):
        class Words:  # a stream of chosen words
            def __init__(self, words):
                self.words = np.array(words, dtype=np.uint64)

            def random_raw(self, size):
                out, self.words = self.words[:size], self.words[size:]
                return out

        t = _quarter_threshold(0.40)
        out = np.empty(6)
        # quarters t - 1, t, 0, t + 1, then 0, t - 1 and two discarded 2**16 - 1
        words = [((t + 1) << 48) | (t << 16) | (t - 1), (0xFFFFFFFF << 32) | ((t - 1) << 16)]
        randomization._fill_draws(out, Words(words), np.uint16(t))
        assert out.tolist() == [1.0, 0.0, 1.0, 0.0, 1.0, 1.0]

    def test_peak_memory_is_the_block_plus_one_word_block(self):
        draw_bernoulli_rows(2, 0.40, 1, SeedSpec(2).generator())  # first-call imports
        gen = SeedSpec(2).generator()
        tracemalloc.start()
        try:
            b = draw_bernoulli_rows(10001, 0.40, 300, gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= b.nbytes + 8 * randomization.DRAW_BLOCK_WORDS + 64 * 1024

    @pytest.mark.parametrize("m", [0, -1, 2.0, True])
    def test_invalid_row_count(self, m):
        with pytest.raises(InvalidLength):
            draw_bernoulli_rows(10, 0.4, m, SeedSpec(0).generator())


@given(
    n=st.integers(min_value=2, max_value=400),
    p0=st.sampled_from([0.30, 0.35, 0.40, 0.42, 0.58, 0.70]),
    seed=st.integers(min_value=0, max_value=2**63),
)
@settings(max_examples=60, deadline=None)
def test_weights_always_sum_to_n(n, p0, seed):
    ws = draw_bernoulli_weights(n, p0, SeedSpec(seed))
    assert abs(ws.w.sum() - n) <= 1e-9 * n
    # each weight takes one of exactly two values
    values = {1.0 / (2 * ws.b_bar), 1.0 / (2 * (1 - ws.b_bar))}
    assert all(min(abs(w - v) for v in values) < 1e-12 for w in ws.w)


class TestSeedSpec:
    def test_child_needs_a_key(self):
        with pytest.raises(ValueError, match=r"child\(\) requires at least one path element"):
            SeedSpec(1).child()

    def test_stream_determinism(self):
        a = draw_bernoulli_weights(1000, 0.4, SeedSpec(42, 3))
        b = draw_bernoulli_weights(1000, 0.4, SeedSpec(42, 3))
        np.testing.assert_array_equal(a.b, b.b)

    def test_distinct_streams_differ(self):
        a = draw_bernoulli_weights(1000, 0.4, SeedSpec(42, 3))
        b = draw_bernoulli_weights(1000, 0.4, SeedSpec(42, 4))
        c = draw_bernoulli_weights(1000, 0.4, SeedSpec(43, 3))
        assert not np.array_equal(a.b, b.b)
        assert not np.array_equal(a.b, c.b)

    def test_child_streams_are_stable_and_distinct(self):
        root = SeedSpec(7)
        assert root.child(1, 2) == root.child(1, 2)
        g1 = root.child(1).generator().random(64)
        g2 = root.child(2).generator().random(64)
        g12 = root.child(1, 2).generator().random(64)
        assert not np.array_equal(g1, g2)
        assert not np.array_equal(g1, g12)

    def test_child_stream_independence_statistically(self):
        # correlations across 200 sibling streams stay at noise level
        root = SeedSpec(99)
        draws = np.array(
            [root.child(k).generator().standard_normal(256) for k in range(200)]
        )
        corr = np.corrcoef(draws)
        off = corr[~np.eye(200, dtype=bool)]
        assert np.abs(off).max() < 0.30  # 256 samples: |r| ~ N(0, 1/16)

    def test_rejects_out_of_range(self):
        for args in [(-1,), (2**64,), (1.5,), (True,), ("3",), (0, 2**64), (0, True)]:
            with pytest.raises(ValueError):
                SeedSpec(*args)

    @pytest.mark.parametrize("key", [1.7, True, "3", np.bool_(True), -1])
    def test_non_integer_path_element_rejected(self, key):
        # 1.7 and True were read as the stream of child(1), "3" as child(3)
        with pytest.raises(ValueError, match="path element must be an integer"):
            SeedSpec(5).child(key)

    def test_check_integer_takes_numpy_integers_but_not_flags(self):
        value = check_integer("x", np.uint64(2**63), 0)
        assert value == 2**63 and type(value) is int
        for flag in (True, np.bool_(True)):
            with pytest.raises(ValueError, match="x must be an integer >= 0"):
                check_integer("x", flag, 0)

    def test_numpy_integer_path_element_is_the_same_stream(self):
        assert SeedSpec(5).child(np.int64(2)) == SeedSpec(5).child(2)

    @pytest.mark.parametrize("master_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_child_states_equal_numpy_seeding(self, master_seed):
        # the array pass against numpy's SeedSequence and SFC64, where the
        # words of the seed, the stream id, the cell and the replication
        # number change count; the last range crosses 2**32
        for stream_id in (0, 2**63):
            for cell in (0, 2**32):
                seed = SeedSpec(master_seed, stream_id).child(cell)
                for start, stop in ((0, 3), (2**32 - 2, 2**32 + 2)):
                    got = seed.child_states(start, stop)
                    assert got.shape == (stop - start, 4) and got.dtype == np.uint64
                    for i, r in enumerate(range(start, stop)):
                        state = seed.child(r).generator().bit_generator.state
                        assert state["has_uint32"] == 0
                        np.testing.assert_array_equal(got[i], state["state"]["state"])

    def test_child_states_of_any_path(self):
        # a path of several elements, one beyond 64 bits, and no path at all
        for seed in (SeedSpec(5, 2, (3, 2**70)), SeedSpec(9)):
            expected = [
                seed.child(r).generator().bit_generator.state["state"]["state"]
                for r in (2**64 - 1, 2**64, 2**64 + 1)
            ]
            got = seed.child_states(2**64 - 1, 2**64 + 2)
            np.testing.assert_array_equal(got, expected)
        assert SeedSpec(1).child_states(7, 7).shape == (0, 4)
        with pytest.raises(ValueError, match="stop must be an integer >= 7"):
            SeedSpec(1).child_states(7, 6)

    def test_state_generator_steps_a_stream_from_its_state(self):
        seed = SeedSpec(3).child(4)
        gen = state_generator()
        set_state(gen, seed.child_states(0, 1)[0])
        expected = seed.child(0).generator().bit_generator.random_raw(5)
        np.testing.assert_array_equal(gen.bit_generator.random_raw(5), expected)

    def test_describe_round_trip(self):
        spec = SeedSpec(5, 2).child(3, 4)
        desc = spec.describe()
        assert desc == {"master_seed": 5, "stream_id": 2, "path": [3, 4]}


class TestGoldenStream:
    """Stream layout 5 pinned by digest. A new bit generator, seeding rule
    or quarter-word split moves these, so a layout change is always a
    declared one. The simulated ``X_lagged`` comes from a BLAS product of
    the shocks, so its digest is pinned on OpenBLAS's FMA kernels, with
    SkylakeX and Haswell verified; kernels without FMA, such as Sandybridge
    and Prescott, round that product differently and move it."""

    def test_streams_are_sfc64(self):
        assert randomization.STREAM_LAYOUT == 5
        assert isinstance(SeedSpec(1).generator().bit_generator, np.random.SFC64)

    def test_bernoulli_rows(self):
        b = draw_bernoulli_rows(1000, 0.40, 50, SeedSpec(1).generator())
        assert sha256(b.tobytes()).hexdigest() == (
            "764ec52bb20e8855b749afb5490e7c5dbcec30899be25b16cbcd770df66075d2"
        )

    def test_simulated_data(self):
        # replication 0 of cell 0 under master seed 1
        y, X, stream = simulate(preset("DGP1b", 200, alpha1=1.0), SeedSpec(1).child(0, 0))
        b = draw_bernoulli_rows(200, 0.40, 5, stream)
        digests = {
            name: sha256(value.tobytes()).hexdigest()
            for name, value in (("y", y), ("X_lagged", X), ("rows", b))
        }
        # mu = 0 and beta = 0, so y equals the errors u
        assert digests == {
            "y": "8a45f14ff78b1117fd01e4a6c606921c2d756b6dea84a1f36a07114d5da738a2",
            "X_lagged": "70130ed7e2dc35e54a6fa50ca23f33ab416e95213d414a1c4fd778988fabf167",
            "rows": "02f0e4b4cb1719cf128d186289db9914207a7ac283553e35ecc0f7df3bcbb1d0",
        }
