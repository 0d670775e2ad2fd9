import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitwald import InvalidLength, InvalidP0, SeedSpec, check_p0, draw_bernoulli_rows

from oracle import WeightSequence, draw_bernoulli_weights


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


class TestRows:
    def test_degenerate_rows_redrawn_in_row_order_from_the_continuation(self):
        # n=3 at p0=0.30: P(degenerate row) = 0.7^3 + 0.3^3, about 37%
        n, p0, m = 3, 0.30, 40
        seed = SeedSpec(8)
        b, counts = draw_bernoulli_rows(n, p0, m, seed)
        assert b.shape == (m, n) and b.dtype == np.float64
        assert np.all((counts > 0) & (counts < n))
        np.testing.assert_array_equal(counts, b.sum(axis=1))

        # replay stream layout 2: the (m, n) block, then one continuation
        # row per attempt for each degenerate row, in row order
        gen = seed.generator()
        expected = (gen.random((m, n)) < p0).astype(np.float64)
        redrawn = [j for j in range(m) if expected[j].sum() in (0, n)]
        assert len(redrawn) >= 8
        for j in redrawn:
            row = gen.random(n) < p0
            while row.sum() in (0, n):
                row = gen.random(n) < p0
            expected[j] = row
        np.testing.assert_array_equal(b, expected)

        again, again_counts = draw_bernoulli_rows(n, p0, m, seed)
        assert again.tobytes() == b.tobytes()
        assert again_counts.tobytes() == counts.tobytes()

    @pytest.mark.parametrize("p0", [0.30, 0.1 + 0.2, 0.42, 0.58, 0.70, 2.0 / 3.0])
    def test_rows_are_the_stream_uniforms_below_p0(self, p0):
        b, _ = draw_bernoulli_rows(200, p0, 30, SeedSpec(3))
        uniforms = SeedSpec(3).generator().random((30, 200))
        np.testing.assert_array_equal(b, uniforms < p0)
        ws = draw_bernoulli_weights(200, p0, SeedSpec(3))
        np.testing.assert_array_equal(ws.b, b[0])

    @pytest.mark.parametrize("m", [0, -1, 2.0, True])
    def test_invalid_row_count(self, m):
        with pytest.raises(InvalidLength):
            draw_bernoulli_rows(10, 0.4, m, SeedSpec(0))


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

    def test_numpy_integer_path_element_is_the_same_stream(self):
        assert SeedSpec(5).child(np.int64(2)) == SeedSpec(5).child(2)

    def test_describe_round_trip(self):
        spec = SeedSpec(5, 2).child(3, 4)
        desc = spec.describe()
        assert desc == {"master_seed": 5, "stream_id": 2, "path": [3, 4]}
