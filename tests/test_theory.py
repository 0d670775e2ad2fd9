import numpy as np
import pytest

from splitwald import (
    InvalidDelta,
    InvalidKurtosis,
    InvalidP0,
    LocalAlternative,
    StatisticConfig,
    asymptotic_power,
    elasticity,
    f_p0,
    g_p0,
    mn_rule,
    ncp_ar1,
    ncp_general,
    weight_variance,
)


class TestScalingFactor:
    def test_exact_values(self):
        assert f_p0(0.4) == pytest.approx(24.0, abs=1e-12)
        assert f_p0(0.3) == pytest.approx(5.25, abs=1e-12)

    @pytest.mark.parametrize("p0", [0.3, 0.42])
    def test_symmetry(self, p0):
        assert f_p0(p0) == pytest.approx(f_p0(1.0 - p0), rel=1e-12)

    def test_pole_at_half(self):
        with pytest.raises(InvalidP0):
            f_p0(0.5)

    @pytest.mark.parametrize("fn", [f_p0, g_p0, elasticity, weight_variance])
    @pytest.mark.parametrize("p0", ["0.4", True, float("nan")])
    def test_non_real_p0_rejected(self, fn, p0):
        # text and flags are not read as numbers; NaN was InvalidP0 before
        with pytest.raises(ValueError, match="p0 must be a finite real number"):
            fn(p0)

    def test_strictly_increasing_below_half(self):
        grid = np.arange(0.30, 0.4801, 0.005)
        vals = [f_p0(p) for p in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_reciprocal_of_weight_variance(self):
        for p0 in (0.3, 0.35, 0.4, 0.42, 0.45):
            assert f_p0(p0) * weight_variance(p0) == pytest.approx(1.0, abs=1e-12)


class TestWeightVariance:
    def test_values(self):
        assert weight_variance(0.5) == 0.0
        assert weight_variance(0.4) == pytest.approx(1.0 / 24.0, abs=1e-12)


class TestAccuracyFactor:
    def test_unity_at_half(self):
        assert g_p0(0.5) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("p0", [0.3, 0.7])
    def test_band_bounds(self, p0):
        assert 1.00 < g_p0(p0) <= 1.3

    def test_symmetry(self):
        for p0 in (0.2, 0.35, 0.44):
            assert g_p0(p0) == pytest.approx(g_p0(1.0 - p0), rel=1e-12)

    def test_boundaries_rejected(self):
        with pytest.raises(InvalidP0):
            g_p0(0.0)
        with pytest.raises(InvalidP0):
            g_p0(1.0)


class TestElasticity:
    def test_exact_value(self):
        assert elasticity(0.4) == pytest.approx(-25.0 / 3.0, abs=1e-12)

    def test_magnitude_grows_toward_half(self):
        assert abs(elasticity(0.45)) > abs(elasticity(0.40)) > abs(elasticity(0.30))

    def test_strictly_decreasing_below_half(self):
        grid = np.arange(0.30, 0.4801, 0.005)
        vals = [elasticity(p) for p in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_finite_difference_oracle(self):
        # E = (dV/dp) * (p/V) with V the weight variance, central differences
        h = 1e-6
        for p0 in (0.30, 0.38, 0.44):
            dv = (weight_variance(p0 + h) - weight_variance(p0 - h)) / (2 * h)
            oracle = dv * p0 / weight_variance(p0)
            assert elasticity(p0) == pytest.approx(oracle, rel=1e-4)

    def test_pole_at_half(self):
        with pytest.raises(InvalidP0):
            elasticity(0.5)


class TestNoncentrality:
    def test_zero_departure(self):
        la = LocalAlternative(q_inf=0.0, sigma_eta=1.0)
        assert ncp_general(0.4, 5, la) == 0.0
        assert ncp_ar1(0.4, 5, 0.0, 1.0, 1.0, 0.5, 3.0) == 0.0

    def test_linear_in_m(self):
        la = LocalAlternative(q_inf=0.8, sigma_eta=1.5)
        assert ncp_general(0.4, 10, la) == pytest.approx(
            2.0 * ncp_general(0.4, 5, la), rel=1e-12
        )

    def test_ar1_reproduces_coefficient_64_over_3(self):
        # at (p0, phi1, s2v, Ku) = (0.4, 0.5, 1, 3) the delta1^4/sigma_u^4
        # coefficient is 64/3
        for delta1, sigma2_u in ((1.0, 1.0), (0.7, 2.5)):
            got = ncp_ar1(0.4, 1, delta1, 1.0, sigma2_u, 0.5, 3.0)
            assert got == pytest.approx(
                64.0 / 3.0 * delta1**4 / sigma2_u**2, rel=1e-12
            )

    def test_ar1_agrees_with_general_path(self):
        p0, m, delta1, s2v, s2u, phi1, ku = 0.42, 7, 0.6, 1.3, 2.1, 0.45, 3.8
        la = LocalAlternative.single_stationary(delta1, phi1, s2v, s2u, ku)
        assert ncp_ar1(p0, m, delta1, s2v, s2u, phi1, ku) == pytest.approx(
            ncp_general(p0, m, la), rel=1e-12
        )

    def test_invalid_kurtosis(self):
        with pytest.raises(InvalidKurtosis):
            ncp_ar1(0.4, 1, 1.0, 1.0, 1.0, 0.5, 1.0)

    @pytest.mark.parametrize("phi1", [1.0, -1.0, 1.2])
    def test_non_stationary_predictor_rejected(self, phi1):
        with pytest.raises(ValueError, match=r"\|phi1\| must be < 1"):
            ncp_ar1(0.4, 1, 1.0, 1.0, 1.0, phi1, 3.0)
        with pytest.raises(ValueError, match=r"\|phi1\| must be < 1"):
            LocalAlternative.single_stationary(1.0, phi1, 1.0, 1.0)

    @pytest.mark.parametrize("variances", [(0.0, 1.0), (1.0, -2.0)])
    def test_non_positive_variance_rejected(self, variances):
        with pytest.raises(ValueError, match="variances must be positive"):
            ncp_ar1(0.4, 1, 1.0, *variances, 0.5, 3.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"q_inf": 0.8, "sigma_eta": 0.0}, "sigma_eta must be positive"),
            ({"q_inf": -0.1, "sigma_eta": 1.5}, "q_inf must be nonnegative"),
        ],
    )
    def test_local_alternative_ranges_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            LocalAlternative(**kwargs)

    @pytest.mark.parametrize("m", [0, -3, 2.5, True])
    def test_draw_count_must_be_a_positive_integer(self, m):
        # ncp_ar1 returned 0 at m=0 and -10.24 at m=-3, and took 2.5 and True
        la = LocalAlternative(q_inf=0.8, sigma_eta=1.5)
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            ncp_ar1(0.4, m, 0.6, 1.0, 1.0, 0.5, 3.0)
        with pytest.raises(ValueError, match="m must be an integer >= 1"):
            ncp_general(0.4, m, la)

    @pytest.mark.parametrize("field", ["q_inf", "sigma_eta"])
    @pytest.mark.parametrize("value", [float("nan"), "1", True])
    def test_local_alternative_reals_checked(self, field, value):
        # NaN was accepted and "1" raised TypeError
        kwargs = {"q_inf": 0.8, "sigma_eta": 1.5, field: value}
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            LocalAlternative(**kwargs)


class TestAsymptoticPower:
    def test_size_at_null(self):
        for m in (1, 5, 20):
            assert asymptotic_power(0.0, m, 0.10) == pytest.approx(0.10, abs=1e-9)

    def test_monotone_in_ncp(self):
        vals = [asymptotic_power(ncp, 5, 0.10) for ncp in (0.0, 1.0, 3.0, 8.0, 20.0)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_diminishing_returns_in_m(self):
        # fixed per-draw signal lam=2: the curve rises with shrinking
        # increments and flattens near one
        power = [asymptotic_power(2.0 * m, m, 0.10) for m in range(1, 31)]
        increments = np.diff(power)
        assert all(inc > -1e-9 for inc in increments)
        assert increments[0] > 0.05
        assert all(b <= a + 1e-9 for a, b in zip(increments, increments[1:]))
        assert power[-1] > 0.99
        assert increments[-1] < 1e-3

    @pytest.mark.parametrize("alpha", ["0.1", True, float("nan")])
    def test_non_real_alpha_rejected(self, alpha):
        # "0.1" raised TypeError before
        with pytest.raises(ValueError, match="alpha must be a finite real number"):
            asymptotic_power(2.0, 5, alpha)

    def test_numpy_alpha_accepted(self):
        expected = asymptotic_power(2.0, 5, 0.1)
        assert asymptotic_power(2.0, 5, np.float64(0.1)) == expected

    def test_never_below_size_on_grid(self):
        for q_inf in (0.0, 0.1, 0.5, 2.0):
            la = LocalAlternative(q_inf=q_inf, sigma_eta=1.7)
            for m in (1, 5, 13):
                ncp = ncp_general(0.40, m, la)
                assert asymptotic_power(ncp, m, 0.10) >= 0.10 - 1e-9


class TestGrowthRule:
    def test_cube_root_rule(self):
        assert mn_rule(1000, 0.40, 1.0 / 3.0) == 13

    def test_square_root_rule(self):
        assert mn_rule(500, 0.40, 0.5) == 35

    def test_clamped_at_one(self):
        assert mn_rule(2, 0.7, 0.01) == 1

    @pytest.mark.parametrize("n, p0, expected", [(400, 0.40, 10), (2400, 0.30, 20)])
    def test_power_just_below_an_integer(self, n, p0, expected):
        # (n / p0)^(1/3) is 10 and 20, which the float power misses by an ulp
        assert (n / p0) ** (1.0 / 3.0) < expected
        assert mn_rule(n, p0, 1.0 / 3.0) == expected

    def test_invalid_delta(self):
        for delta in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InvalidDelta):
                mn_rule(100, 0.4, delta)

    def test_inadmissible_p0(self):
        with pytest.raises(InvalidP0):
            mn_rule(100, 0.5, 0.5)

    @pytest.mark.parametrize("value", [0.0, 1.5, 2])
    def test_one_message_for_the_rule_and_the_config(self, value):
        with pytest.raises(InvalidDelta) as rule:
            mn_rule(100, 0.4, value)
        with pytest.raises(InvalidDelta) as config:
            StatisticConfig(mn_delta=value)
        assert str(rule.value) == str(config.value)
        assert str(rule.value).startswith("growth exponent mn_delta must lie in (0, 1)")
        # the level too: the power curve and the config share one rule
        with pytest.raises(ValueError) as power:
            asymptotic_power(1.0, 3, value)
        with pytest.raises(ValueError) as config:
            StatisticConfig(alpha=value)
        assert str(power.value) == str(config.value)
        assert str(power.value).startswith("alpha must lie in (0, 1)")

    @pytest.mark.parametrize("delta", ["0.5", True, float("nan")])
    def test_non_real_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be a finite real number"):
            mn_rule(100, 0.4, delta)
