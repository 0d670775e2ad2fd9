import hashlib
import json
import math

import numpy as np
import pytest

from splitwald import (
    DegenerateVariance,
    InvalidDelta,
    InvalidP0,
    PresetRef,
    RegressionData,
    Restriction,
    SeedSpec,
    StatisticConfig,
    TestMode,
    chisq_sf,
    ChiSquareParams,
    fit_in_place,
    power_curve_empirical,
    preset,
    run_test,
    simulate,
)
from splitwald.experiments import ExperimentPlan, run_plan
from splitwald.randomization import BernoulliRows, unmixed
from splitwald.regression import time_sum
from splitwald.teststats import StatisticSetup

from oracle import (
    LengthMismatch,
    WeightSequence,
    closed_form_statistics,
    compute_d_sequence,
    draw_bernoulli_rows,
    draw_bernoulli_weights,
    draw_statistics_oracle,
    single_shot,
)


def toy_data(n=200, seed=0, beta=0.0):
    gen = SeedSpec(seed).generator()
    x = gen.standard_normal(n)
    y = beta * x + gen.standard_normal(n)
    return RegressionData(y, x)


class TestConfig:
    def test_defaults(self):
        cfg = StatisticConfig()
        assert cfg.m == 5 and cfg.mn_delta is None
        assert cfg.mode is TestMode.FIXED_M_CHI_SQUARE
        assert cfg.resolve_m(1000) == 5

    def test_growing_rule(self):
        cfg = StatisticConfig.growing(mn_delta=0.5, p0=0.40)
        assert cfg.resolve_m(500) == 35
        assert cfg.resolve_m(1000) == 50

    def test_mutually_exclusive(self):
        with pytest.raises(ValueError):
            StatisticConfig(m=5, mn_delta=0.5)

    def test_invalid_delta(self):
        with pytest.raises(InvalidDelta):
            StatisticConfig(mn_delta=1.2)

    def test_inadmissible_p0(self):
        with pytest.raises(InvalidP0):
            StatisticConfig(p0=0.5)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            StatisticConfig(alpha=0.0)

    @pytest.mark.parametrize(
        "spelling, mode",
        [
            ("fixed", TestMode.FIXED_M_CHI_SQUARE),
            ("fixed-m", TestMode.FIXED_M_CHI_SQUARE),
            ("fixed-m-chi-square", TestMode.FIXED_M_CHI_SQUARE),
            ("growing", TestMode.GROWING_M_NORMAL),
            ("growing-m", TestMode.GROWING_M_NORMAL),
            ("growing-m-normal", TestMode.GROWING_M_NORMAL),
        ],
    )
    def test_mode_spellings(self, spelling, mode):
        for text in (spelling, spelling.upper()):
            assert StatisticConfig(mode=text).mode is mode
        assert StatisticConfig(mode=mode).mode is mode

    @pytest.mark.parametrize("mode", ["sideways", "", None, 1])
    def test_unknown_mode(self, mode):
        with pytest.raises(ValueError, match="unknown mode"):
            StatisticConfig(mode=mode)

    def test_string_mode_runs_like_enum(self):
        # A random walk with an unrelated predictor: under the fixed-M
        # chi-square null a mis-read mode would give the normal p-value.
        gen = SeedSpec(3).generator()
        y = gen.standard_normal(300).cumsum()
        data = RegressionData(y, gen.standard_normal(300))
        restriction = Restriction.all_slopes(1)
        cfg = StatisticConfig(mode=TestMode.FIXED_M_CHI_SQUARE)
        by_enum = run_test(data, restriction, cfg, SeedSpec(5))
        for spelling in ("fixed", "fixed-m"):
            cfg = StatisticConfig(mode=spelling)
            out = run_test(data, restriction, cfg, SeedSpec(5))
            assert out.p_value == by_enum.p_value
            assert out.as_dict() == by_enum.as_dict()

    @pytest.mark.parametrize("m", [3.7, 3.0, True, False, "5", 0])
    def test_non_integral_m_rejected(self, m):
        with pytest.raises(ValueError, match="m must be an integer"):
            StatisticConfig(m=m)

    def test_numpy_integer_m_normalized(self):
        cfg = StatisticConfig(m=np.int64(7))
        assert cfg.m == 7 and type(cfg.m) is int

    def test_alpha_and_mn_delta_coerced_to_float(self):
        cfg = StatisticConfig(mode="growing", mn_delta=np.float32(0.5), alpha=np.float64(0.05))
        assert cfg.mn_delta == 0.5 and cfg.alpha == 0.05
        assert type(cfg.mn_delta) is float and type(cfg.alpha) is float
        assert cfg.m is None

    @pytest.mark.parametrize(
        "field, value",
        [
            ("alpha", "0.05"),
            ("alpha", True),
            ("alpha", float("nan")),
            ("mn_delta", "0.5"),
            ("mn_delta", True),
            ("mn_delta", np.bool_(True)),
        ],
    )
    def test_non_real_alpha_and_mn_delta_rejected(self, field, value):
        # text and flags are not read as numbers
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            StatisticConfig(mode="growing", **{field: value})

    @pytest.mark.parametrize("p0", ["0.4", True, float("nan")])
    def test_non_real_p0_rejected(self, p0):
        # p0 follows the same rule as alpha; "0.4" was accepted before
        with pytest.raises(ValueError, match="p0 must be a finite real number"):
            StatisticConfig(p0=p0)


class TestDSequence:
    def test_vanishes_when_everything_matches(self):
        ws = WeightSequence.from_draws([1, 0, 1, 0], 0.4)
        d = compute_d_sequence([2.0] * 4, [2.0] * 4, 2.0, ws)
        np.testing.assert_array_equal(d, 0.0)

    def test_unit_weights_recover_classical_numerator(self):
        # b_bar = 1/2 makes every weight one; the mean of d is then the
        # plain difference of mean squared residuals
        ws = WeightSequence.from_draws([1, 0, 1, 0, 1, 0], 0.5)
        np.testing.assert_array_equal(ws.w, 1.0)
        u0 = np.array([3.0, 1.0, 2.0, 4.0, 0.5, 1.5])
        u1 = np.array([2.0, 1.0, 1.0, 3.0, 0.5, 1.0])
        d = compute_d_sequence(u0, u1, 1.3, ws)
        assert d.mean() == pytest.approx(u0.mean() - u1.mean(), abs=1e-15)

    def test_hand_arithmetic_fixture(self):
        # weights built directly (a draw with b_bar = 1/2 is inadmissible
        # upstream; this is purely an arithmetic fixture)
        ws = WeightSequence(
            b=np.array([1.0, 0.0]), p0=0.4, b_bar=0.75, w=np.array([2.0 / 3.0, 2.0])
        )
        d = compute_d_sequence([3.0, 1.0], [1.0, 1.0], 1.0, ws)
        np.testing.assert_allclose(d, [4.0 / 3.0, 0.0])

    def test_length_mismatch(self):
        ws = WeightSequence.from_draws([1, 0, 1], 0.4)
        with pytest.raises(LengthMismatch):
            compute_d_sequence([1.0, 2.0], [1.0, 2.0, 3.0], 1.0, ws)

    def test_mean_is_weighted_ssr_contrast_for_any_anchor(self):
        # because the weights sum to n exactly, the mean of d equals
        # mean(w * u0^2) - mean(u1^2) no matter the variance anchor
        gen = SeedSpec(40).generator()
        u0 = gen.standard_normal(200) ** 2
        u1 = gen.standard_normal(200) ** 2
        ws = draw_bernoulli_weights(200, 0.40, SeedSpec(41))
        target = np.mean(ws.w * u0) - np.mean(u1)
        for anchor in (0.0, 1.0, 17.3):
            d = compute_d_sequence(u0, u1, anchor, ws)
            assert d.mean() == pytest.approx(target, rel=1e-10)


class TestSingleShot:
    def test_constant_sequence_degenerate(self):
        with pytest.raises(DegenerateVariance):
            single_shot([1.0, 1.0, 1.0, 1.0], 1.0)

    def test_symmetric_cancellation(self):
        shot = single_shot([1.0, -1.0, 1.0, -1.0], 1.0)
        assert shot.s_n == 0.0
        assert shot.d_bar == 0.0

    def test_hand_arithmetic(self):
        shot = single_shot([2.0, 0.0, 1.0, 1.0], 1.0)
        assert shot.d_bar == pytest.approx(1.0)
        assert shot.s_d2 == pytest.approx(0.5)
        assert shot.s_n == pytest.approx(8.0)


class TestRunTest:
    def test_outcome_identities(self):
        out = run_test(toy_data(), Restriction.all_slopes(1), StatisticConfig(), SeedSpec(1))
        assert out.s_m == pytest.approx(sum(out.s_n.tolist()), rel=1e-15)
        assert out.q == (out.s_m - out.df_or_mn) / math.sqrt(2.0 * out.df_or_mn)
        assert np.all(out.s_n >= 0.0)
        assert 0.0 <= out.p_value <= 1.0
        assert out.reject == (out.p_value < out.alpha)
        assert out.p_value == pytest.approx(
            chisq_sf(out.s_m, ChiSquareParams(out.df_or_mn)), abs=1e-15
        )

    def test_m_equals_one_reduces_to_single_shot(self):
        data = toy_data(seed=5)
        cfg = StatisticConfig(m=1, p0=0.40)
        seed = SeedSpec(17)
        out = run_test(data, Restriction.all_slopes(1), cfg, seed)

        u0_sq, u1_sq, sigma2_1 = residual_inputs(data, Restriction.all_slopes(1))
        # stream layout 5: the only draw is row 0 of the block drawn at `seed`
        ws = draw_bernoulli_weights(data.n, 0.40, seed)
        d = compute_d_sequence(u0_sq, u1_sq, sigma2_1, ws)
        shot = single_shot(d, sigma2_1)
        # closed form against the two-pass oracle: rounding differs
        assert out.s_m == pytest.approx(shot.s_n, rel=1e-12)
        assert out.s_n.shape == (1,)

    def test_determinism(self):
        data = toy_data(seed=2)
        cfg = StatisticConfig.growing(mn_delta=1 / 3)
        a = run_test(data, Restriction.all_slopes(1), cfg, SeedSpec(5, 3))
        b = run_test(data, Restriction.all_slopes(1), cfg, SeedSpec(5, 3))
        assert a.s_m == b.s_m and a.p_value == b.p_value
        c = run_test(data, Restriction.all_slopes(1), cfg, SeedSpec(5, 4))
        assert c.s_m != a.s_m

    @pytest.mark.parametrize("k", [3.7, -2.0, 0.01, 2.0**-20, 2.0**20])
    def test_scale_equivariance(self, k):
        data = toy_data(seed=3)
        scaled = RegressionData(k * data.y, data.X)
        cfg = StatisticConfig(m=4)
        base = run_test(data, Restriction.all_slopes(1), cfg, SeedSpec(9))
        moved = run_test(scaled, Restriction.all_slopes(1), cfg, SeedSpec(9))
        assert moved.s_m == pytest.approx(base.s_m, rel=1e-9)
        assert moved.p_value == pytest.approx(base.p_value, rel=1e-9)
        np.testing.assert_allclose(moved.s_n, base.s_n, rtol=1e-9)
        if abs(math.frexp(k)[0]) == 0.5:
            # scaling by a power of two is exact in floating point, and the
            # degeneracy guard scales with the data
            assert moved.s_n.tolist() == base.s_n.tolist()
            assert (moved.s_m, moved.p_value) == (base.s_m, base.p_value)

    def test_shift_invariance(self):
        data = toy_data(seed=4)
        shifted = RegressionData(data.y + 11.5, data.X)
        cfg = StatisticConfig(m=4)
        base = run_test(data, Restriction.all_slopes(1), cfg, SeedSpec(10))
        moved = run_test(shifted, Restriction.all_slopes(1), cfg, SeedSpec(10))
        assert moved.s_m == pytest.approx(base.s_m, rel=1e-9)
        assert moved.p_value == pytest.approx(base.p_value, rel=1e-9)

    def test_noise_free_fit_is_degenerate_with_draw_index(self):
        x = np.arange(30.0)
        data = RegressionData(np.full(30, 2.0), x)
        with pytest.raises(DegenerateVariance) as err:
            run_test(data, Restriction.all_slopes(1), StatisticConfig(m=3), SeedSpec(0))
        assert err.value.draw_index == 1

    def test_partial_null_targets_the_restricted_slopes(self):
        # y loads on x1 only; restricting beta2 to zero is a true null and
        # restricting beta1 is badly false
        cfg = StatisticConfig(m=3)
        rejected_true_null = 0
        rejected_false_null = 0
        reps = 200
        for r in range(reps):
            g = SeedSpec(44, r + 1).generator()
            X = g.standard_normal((250, 2))
            y = 1.5 * X[:, 0] + g.standard_normal(250)
            data = RegressionData(y, X)
            seed = SeedSpec(45, r)
            out_true = run_test(data, Restriction.subset([1], 2), cfg, seed)
            out_false = run_test(data, Restriction.subset([0], 2), cfg, seed)
            rejected_true_null += out_true.reject
            rejected_false_null += out_false.reject
        assert rejected_true_null / reps < 0.25
        assert rejected_false_null / reps > 0.95

    def test_growing_mode_two_sided_p_value(self):
        data = toy_data(seed=6, n=300)
        cfg = StatisticConfig.growing(mn_delta=1 / 3)
        out = run_test(data, Restriction.all_slopes(1), cfg, SeedSpec(12))
        from splitwald import normal_sf

        assert out.p_value == pytest.approx(2.0 * normal_sf(abs(out.q)), abs=1e-15)

    def test_outcomes_with_redrawn_rows_are_pinned(self, monkeypatch):
        # six observations at p0 = 0.30 leave about one row in eight all
        # zeros or all ones; those are redrawn from the continuation of the
        # stream at the seed (layout 5)
        redrawn = []
        real = BernoulliRows.redraw

        def redraw(rows, gen, counts):
            redrawn.append(int(unmixed(counts, rows.block.shape[1]).sum()))
            return real(rows, gen, counts)

        monkeypatch.setattr(BernoulliRows, "redraw", redraw)
        series = SeedSpec(3).generator().standard_normal(7).cumsum()
        data = RegressionData(series[1:], series[:-1])
        cfg = StatisticConfig(p0=0.30, m=30)
        outcomes = [
            run_test(data, Restriction.all_slopes(1), cfg, SeedSpec(seed)).as_dict()
            for seed in range(1, 9)
        ]
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        assert sum(redrawn) == 32
        assert digest == "0a39ff57bbd427a0dca4bc6f095628deb8f87ad90ad0b40c98dfbefdbc6612ae"


def residual_inputs(data, restriction):
    """``(u0^2, u1^2, sigma2_1)`` of one dataset, as ``run_test`` computes
    them."""
    u0, u1 = fit_in_place(np.column_stack([data.X, data.y])[:, :, None], restriction)
    u0 *= u0
    u1 *= u1
    return u0[:, 0].copy(), u1[:, 0].copy(), float(time_sum(u1)[0] / data.n)


def assert_matches_oracle(u0_sq, u1_sq, sigma2_1, b):
    """Closed form against the two-pass oracle on the same rows.

    Returns the ``draw_index`` at which both raised, or None. Each quantity
    must agree at rtol 1e-10. Both computations round every ``d_t`` at
    about eps * |d_t|, so the agreement also has an absolute floor of
    ``u = 1e-12 (|d_bar| + s_d)`` on ``d_bar``, propagated to ``s_d2`` and
    ``s_n``; it matters only where ``d_bar`` is near 0 or ``d`` is near
    constant.
    """
    try:
        expected = draw_statistics_oracle(u0_sq, u1_sq, sigma2_1, b)
    except DegenerateVariance as exc:
        with pytest.raises(DegenerateVariance) as err:
            closed_form_statistics(u0_sq, u1_sq, sigma2_1, b)
        assert err.value.draw_index == exc.draw_index
        return exc.draw_index
    s_n, d_bar, s_d2 = closed_form_statistics(u0_sq, u1_sq, sigma2_1, b)
    n = b.shape[1]
    ref_s_n = np.array([shot.s_n for shot in expected])
    ref_d_bar = np.array([shot.d_bar for shot in expected])
    ref_s_d2 = np.array([shot.s_d2 for shot in expected])
    s_d = np.sqrt(ref_s_d2)
    u = 1e-12 * (np.abs(ref_d_bar) + s_d)
    floors = (
        2.0 * n * np.abs(ref_d_bar) * u / ref_s_d2 * (1.0 + np.abs(ref_d_bar) / s_d),
        u,
        2.0 * s_d * u,
    )
    for got, want, floor in zip((s_n, d_bar, s_d2), (ref_s_n, ref_d_bar, ref_s_d2), floors):
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want) + floor)
    return None


PRESET_CASES = [("DGP1a", 1.0), ("DGP1b", 1.0), ("DGP1c", 1.0), ("DGP2a", None), ("DGP2c_i", None)]


class TestClosedFormAgainstOracle:
    @pytest.mark.parametrize("scale", [1.0, 1e-4])
    @pytest.mark.parametrize("name,alpha1", PRESET_CASES)
    def test_presets(self, name, alpha1, scale):
        raised = []
        for r in range(6):
            beta = 0.0 if r % 2 == 0 else 0.3
            spec = preset(name, 400, alpha1=alpha1, beta=beta)
            seed = SeedSpec(31, r)
            y, X, stream = simulate(spec, seed)
            data = RegressionData(scale * y, X)
            b = draw_bernoulli_rows(data.n, 0.40, 12, stream)
            inputs = residual_inputs(data, Restriction.all_slopes(spec.p))
            raised.append(assert_matches_oracle(*inputs, b))
        # the guard scales with the data, so no scale makes a draw degenerate
        assert raised == [None] * 6

    def test_near_constant_contrast_crosses_the_guard(self):
        # d_t = k_t delta z_t - K with z nonzero on five observations only:
        # s_d2 ~ delta^2 k^2 sum(z_t^2) / n, where k is the weight of those
        # five in the row. Row 1 holds them in its 100 ones (k1 = 2.5), row 2
        # in its 400 ones (k1 = 0.625) and row 3 among its 250 zeros
        # (k0 = 1), so as delta crosses the guard at 1e-14 (s2^2 + K^2), row 1
        # leaves it first and the first degenerate draw moves to draw 2
        n, big = 500, 3.0
        z = np.zeros(n)
        z[:5] = [0.8, -1.3, 0.5, 2.1, -0.7]
        sigma2_1 = 1.7
        b = np.zeros((3, n))
        b[0, :100] = 1.0
        b[1, :400] = 1.0
        b[2, 250:] = 1.0
        outcomes = []
        for delta in np.logspace(-8, -4, 41):
            u0_sq = sigma2_1 + delta * z
            u1_sq = np.full(n, sigma2_1 + big)
            outcomes.append(assert_matches_oracle(u0_sq, u1_sq, sigma2_1, b))
        assert outcomes[0] == 1 and outcomes[-1] is None
        assert any(k not in (None, 1) for k in outcomes)

    @pytest.mark.parametrize("noise", [1e-12, 1e-8, 1e-4])
    def test_restricted_equals_unrestricted_plus_tiny_noise(self, noise):
        n = 300
        gen = SeedSpec(34).generator()
        u0_sq = gen.standard_normal(n) ** 2
        u1_sq = u0_sq + noise * gen.random(n)
        b = draw_bernoulli_rows(n, 0.40, 10, SeedSpec(35).generator())
        assert assert_matches_oracle(u0_sq, u1_sq, float(u1_sq.mean()), b) is None

    def test_noise_free_fit(self):
        data = RegressionData(np.full(30, 2.0), np.arange(30.0))
        b = draw_bernoulli_rows(30, 0.40, 3, SeedSpec(0).generator())
        inputs = residual_inputs(data, Restriction.all_slopes(1))
        assert assert_matches_oracle(*inputs, b) == 1

    def test_outcome_carries_the_closed_form_per_draw(self):
        data = toy_data(seed=8)
        cfg = StatisticConfig(m=7)
        out = run_test(data, Restriction.all_slopes(1), cfg, SeedSpec(36))
        b = draw_bernoulli_rows(data.n, cfg.p0, 7, SeedSpec(36).generator())
        s_n, d_bar, s_d2 = closed_form_statistics(
            *residual_inputs(data, Restriction.all_slopes(1)), b
        )
        assert out.s_n.tolist() == s_n.tolist()
        assert out.d_bar.tolist() == d_bar.tolist()
        assert out.s_d2.tolist() == s_d2.tolist()
        # the report's per-draw records are built from the arrays
        assert out.as_dict()["per_draw"] == [
            {"s_n": s, "d_bar": d, "s_d2": v}
            for s, d, v in zip(s_n.tolist(), d_bar.tolist(), s_d2.tolist())
        ]


class TestBatchedClosedForm:
    """StatisticSetup.statistics on a stack equals the one-replication path
    on each replication, and marks exactly the replications it raises on."""

    def test_stack_matches_one_replication_at_a_time(self):
        n, m, width, bad = 300, 9, 7, 4
        gen = SeedSpec(37).generator()
        X = gen.standard_normal((width, n, 1))
        y = 0.2 * X[:, :, 0] + gen.standard_normal((width, n))
        # a constant predictand: every contrast is numerically constant
        y[bad] = 2.0
        restriction = Restriction.all_slopes(1)
        batch = np.concatenate([X, y[:, :, None]], axis=2).transpose(1, 2, 0).copy()
        setup = StatisticSetup.fit(batch, restriction)
        draws = [draw_bernoulli_rows(n, 0.40, m, gen) for _ in range(width)]
        sums = np.stack([setup.sums(i, b) for i, b in enumerate(draws)])
        s_n, d_bar, s_d2, degenerate = setup.statistics(sums)
        assert s_n.shape == d_bar.shape == s_d2.shape == degenerate.shape == (width, m)
        np.testing.assert_array_equal(sums[:, :, 3], [b.sum(axis=1) for b in draws])

        raised = []
        for i, b in enumerate(draws):
            inputs = residual_inputs(RegressionData(y[i], X[i]), restriction)
            try:
                got = closed_form_statistics(*inputs, b)
            except DegenerateVariance as exc:
                raised.append(i)
                assert exc.draw_index == 1
                continue
            for batched, one in zip((s_n[i], d_bar[i], s_d2[i]), got):
                assert np.array_equal(batched, one)
        assert raised == [bad]
        assert np.flatnonzero(degenerate.any(axis=1)).tolist() == [bad]


class TestNullBehaviour:
    def test_size_robust_across_p0_on_shared_seeds(self):
        # one master seed across the p0 grid, but each cell runs on its own
        # streams, so the rates are independent Monte Carlo estimates. At
        # 8000 replications a rate's standard error is about 0.0033 (0.0046
        # for a difference of two), so the bound of 0.02 holds the measured
        # p0 trend of about 0.006 plus three standard errors.
        plan = ExperimentPlan(
            dgp=PresetRef("DGP1a", alpha1=0.0, sigma_uv=-0.90, phi0=0.0),
            n_grid=(500,),
            p0_grid=(0.30, 0.35, 0.40),
            cfg_template=StatisticConfig.growing(mn_delta=0.5),
            replications=8000,
            master_seed=4242,
            workers=2,
        )
        rates = [c.rejection_rate for c in run_plan(plan).cells]
        assert max(rates) - min(rates) < 0.02
        for r in rates:
            assert 0.05 < r < 0.15


class TestPowerCurve:
    def test_validation(self):
        spec = preset("DGP1a", 120, alpha1=0.0)
        cfg = StatisticConfig(m=2)
        with pytest.raises(ValueError):
            power_curve_empirical(spec, [], cfg, 200, SeedSpec(0))
        with pytest.raises(ValueError):
            power_curve_empirical(spec, [0.0], cfg, 50, SeedSpec(0))

    def test_beta_zero_entry_is_the_size_estimate(self):
        spec = preset("DGP1a", 150, alpha1=0.0, sigma_uv=0.0)
        cfg = StatisticConfig(m=3)
        points = power_curve_empirical(spec, [0.0], cfg, 150, SeedSpec(21))
        plan = ExperimentPlan(
            dgp=spec,
            n_grid=(150,),
            p0_grid=(cfg.p0,),
            cfg_template=cfg,
            replications=150,
            master_seed=21,
        )
        size_cell = run_plan(plan).cells[0]
        assert points[0]["beta"] == 0.0
        assert points[0]["rejection_rate"] == size_cell.rejection_rate

    def test_large_slope_rejects_almost_surely(self):
        # consistency: with beta = 1 the fit is near-perfect and the test
        # rejects essentially always
        spec = preset("DGP1a", 500, alpha1=1.0, sigma_uv=-0.90)
        cfg = StatisticConfig.growing(mn_delta=0.5)
        points = power_curve_empirical(spec, [1.0], cfg, 150, SeedSpec(22), workers=2)
        assert points[0]["rejection_rate"] > 0.99
