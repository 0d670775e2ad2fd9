import functools
import math

import numpy as np
import pytest
from mcutil import (
    centered_chisq_normal_ks,
    chisq_cdf_oracle,
    ks_distance,
    normal_cdf_oracle,
)
from oracle import noncentral_chisq_cdf

from splitwald import (
    ChiSquareParams,
    asymptotic_power,
    InvalidP0,
    InvalidProbability,
    NonConvergence,
    SeedSpec,
    chisq_cdf,
    chisq_quantile,
    chisq_sf,
    mn_rule,
    normal_cdf,
    normal_sf,
)
import splitwald.distributions as distributions
from splitwald.randomization import P0_HIGH, P0_LOW

# The functions of one real x: the normal tails and the chi-square(3) tails.
X_FUNCTIONS = [
    normal_cdf,
    normal_sf,
    pytest.param(
        functools.partial(chisq_cdf, params=ChiSquareParams(df=3)), id="chisq_cdf"
    ),
    pytest.param(
        functools.partial(chisq_sf, params=ChiSquareParams(df=3)), id="chisq_sf"
    ),
]


class TestNormal:
    def test_symmetry_at_zero(self):
        assert normal_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_ninety_percent_point(self):
        assert normal_cdf(1.2816) == pytest.approx(0.90, abs=1e-4)

    @pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
    def test_reflection_identity(self, x):
        assert normal_cdf(-x) == pytest.approx(1.0 - normal_cdf(x), abs=1e-14)

    @pytest.mark.parametrize("x", [-3.0, -1.0, -0.2, 0.0, 0.7, 1.5, 3.3])
    def test_against_quadrature_oracle(self, x):
        assert normal_cdf(x) == pytest.approx(normal_cdf_oracle(x), abs=1e-10)

    def test_sf_complement(self):
        assert normal_sf(1.3) == pytest.approx(1.0 - normal_cdf(1.3), abs=1e-14)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            normal_cdf(float("nan"))

    @pytest.mark.parametrize("fn", X_FUNCTIONS)
    @pytest.mark.parametrize("x", ["1", True, np.bool_(True), float("inf")])
    def test_non_real_x_rejected(self, fn, x):
        # "1" raised TypeError and True was read as 1 before
        with pytest.raises(ValueError, match="x must be a finite real number"):
            fn(x)

    @pytest.mark.parametrize("fn", X_FUNCTIONS)
    def test_integer_and_numpy_x_accepted(self, fn):
        assert fn(1) == fn(np.int64(1)) == fn(np.float64(1.0)) == fn(1.0)


class TestCentralChiSquare:
    def test_df2_closed_form(self):
        # df=2 has CDF 1 - exp(-x/2)
        for x in (0.1, 1.0, 4.60517, 12.0):
            assert chisq_cdf(x, ChiSquareParams(2)) == pytest.approx(
                1.0 - math.exp(-x / 2.0), abs=1e-12
            )
        assert chisq_cdf(4.60517, ChiSquareParams(2)) == pytest.approx(0.90, abs=1e-5)

    @pytest.mark.parametrize("df", [1, 3, 5])
    def test_against_quadrature_oracle(self, df):
        for x in (0.2, 1.0, 2.5, 7.0):
            assert chisq_cdf(x, ChiSquareParams(df)) == pytest.approx(
                chisq_cdf_oracle(x, df), abs=1e-7
            )

    def test_negative_x_is_zero(self):
        assert chisq_cdf(-1.0, ChiSquareParams(3)) == 0.0

    def test_smallest_subnormal_x(self):
        # x / 2 rounds to 0; chisq_sf raised "math domain error" here before
        assert chisq_cdf(5e-324, ChiSquareParams(3)) == 0.0
        assert chisq_sf(5e-324, ChiSquareParams(3)) == 1.0

    @pytest.mark.parametrize("df", [1, 5, 20, 57])
    def test_nondecreasing_and_bounded(self, df):
        grid = np.linspace(0.01, 5.0 * df, 200)
        vals = [chisq_cdf(x, ChiSquareParams(df)) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))

    def test_sf_complement_and_tail_accuracy(self):
        params = ChiSquareParams(5)
        assert chisq_sf(3.0, params) == pytest.approx(
            1.0 - chisq_cdf(3.0, params), abs=1e-12
        )
        # deep tail stays positive instead of rounding to zero
        assert 0.0 < chisq_sf(200.0, params) < 1e-30

    @pytest.mark.parametrize("fn", [chisq_cdf, chisq_sf])
    @pytest.mark.parametrize("df", [10**17, 10**20])
    def test_huge_df_raises_nonconvergence(self, fn, df):
        # x + 1 - a rounds to 0 at x = a = df / 2; a ZeroDivisionError
        # escaped the continued fraction here before
        with pytest.raises(NonConvergence, match="cannot start"):
            fn(float(df), ChiSquareParams(df))

    @pytest.mark.parametrize("df", [1, 5])
    def test_matches_sum_of_squared_normals(self, df):
        gen = SeedSpec(2024, df).generator()
        draws = (gen.standard_normal((10**5, df)) ** 2).sum(axis=1)
        d = ks_distance(draws, lambda v: chisq_cdf(v, ChiSquareParams(df)))
        assert d < 0.01


class TestGrowingMNormalFloor:
    """The N(0,1) limit of the centered chi-square(M) law is not reached at
    the draw counts the acceptance suite uses (criterion 5b)."""

    @pytest.mark.parametrize("m, floor", [(17, 0.0457), (18, 0.0444)])
    def test_floor_at_acceptance_draw_counts(self, m, floor):
        assert centered_chisq_normal_ks(m) == pytest.approx(floor, abs=5e-4)

    def test_floor_decreases_in_m(self):
        floors = [centered_chisq_normal_ks(m) for m in (5, 10, 17, 18, 30, 60, 120)]
        assert all(b < a for a, b in zip(floors, floors[1:]))

    def test_admissible_p0_gives_at_most_18_draws_at_n2000(self):
        draws = []
        for p0 in np.linspace(P0_LOW, P0_HIGH, 401):
            try:
                draws.append(mn_rule(2000, float(p0), 1.0 / 3.0))
            except InvalidP0:
                continue
        assert len(draws) > 350
        assert max(draws) == mn_rule(2000, P0_LOW, 1.0 / 3.0) == 18

    @pytest.mark.parametrize("x", [6.0, 12.0, 17.0, 23.0, 35.0])
    def test_chisq_cdf_df17_against_quadrature_oracle(self, x):
        assert chisq_cdf(x, ChiSquareParams(17)) == pytest.approx(
            chisq_cdf_oracle(x, 17), abs=1e-7
        )


class TestNoncentral:
    def test_zero_ncp_reduces_to_central(self):
        for df in (1, 3, 5):
            for x in (0.5, 2.0, 6.0):
                near = chisq_cdf(x, ChiSquareParams(df, 1e-13))
                assert near == pytest.approx(
                    chisq_cdf(x, ChiSquareParams(df)), abs=1e-10
                )

    def test_monte_carlo_oracle_moderate(self):
        # sum of 5 squared shifted normals with total shift 10
        params = ChiSquareParams(5, 10.0)
        mu = math.sqrt(2.0)
        gen = SeedSpec(515).generator()
        hits = 0
        total = 10**6
        for _ in range(10):
            z = gen.standard_normal((total // 10, 5)) + mu
            hits += int(((z**2).sum(axis=1) <= 12.0).sum())
        p_hat = hits / total
        se = math.sqrt(p_hat * (1 - p_hat) / total)
        assert chisq_cdf(12.0, params) == pytest.approx(p_hat, abs=3 * se)

    def test_large_ncp_mass_conserved(self):
        params = ChiSquareParams(3, 600.0)
        lo = chisq_cdf(1.0, params)
        hi = chisq_cdf(5000.0, params)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-9)
        mid = chisq_cdf(603.0, params)
        assert 0.3 < mid < 0.7

    def test_monotone_in_x_and_ncp(self):
        grid = np.linspace(0.5, 40.0, 60)
        vals = [chisq_cdf(x, ChiSquareParams(5, 10.0)) for x in grid]
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))
        # larger noncentrality shifts mass right
        by_ncp = [chisq_cdf(12.0, ChiSquareParams(5, n)) for n in (0.0, 5.0, 10.0, 20.0)]
        assert all(b < a for a, b in zip(by_ncp, by_ncp[1:]))

    def test_sf_is_complement_of_cdf(self):
        params = ChiSquareParams(5, 10.0)
        tails = [chisq_sf(x, params) for x in (1.0, 12.0, 60.0)]
        assert tails == [1.0 - chisq_cdf(x, params) for x in (1.0, 12.0, 60.0)]
        assert 0.999 < tails[0] and 0.0 < tails[2] < 1e-4
        oracle = 1.0 - noncentral_chisq_cdf(12.0, 5, 10.0)
        assert tails[1] == pytest.approx(oracle, abs=2e-12)

    def test_against_interleaved_walk_oracle(self):
        worst = 0.0
        for df in (1, 2, 3, 7, 20, 100, 500, 2000, 5000):
            for ncp in np.geomspace(1e-3, 5000.0, 11).tolist():
                for ratio in np.geomspace(0.01, 5.0, 9).tolist():
                    x = ratio * (df + ncp)
                    got = chisq_cdf(x, ChiSquareParams(df, ncp))
                    worst = max(worst, abs(got - noncentral_chisq_cdf(x, df, ncp)))
        assert worst < 2e-12

    @pytest.mark.parametrize("m", [16_000, 80_200, 100_000])
    def test_central_terms_grow_as_root_m(self, m, monkeypatch):
        # the interleaved walk stopped on 1 - sum(w) < 1e-12, which rounding
        # kept from firing here, so it summed all 2M terms
        x = chisq_quantile(0.9, m)
        calls = []
        central = distributions._central_chisq_cdf

        def counted(x, df):
            calls.append(df)
            return central(x, df)

        monkeypatch.setattr(distributions, "_central_chisq_cdf", counted)
        assert chisq_cdf(x, ChiSquareParams(m, 2.0 * m)) == 0.0
        assert len(calls) < 20 * math.sqrt(m)

    @pytest.mark.parametrize("ncp", [5e-324, 1e-13, 1e20, 1e300])
    def test_extreme_ncp_keeps_interleaved_walk_values(self, ncp):
        # 5e-324 halves to 0 and gives the central value; at 1e20 and 1e300
        # the modal weight rounds to 1, so the modal term alone is returned
        got = chisq_cdf(5.0, ChiSquareParams(3, ncp))
        assert got == noncentral_chisq_cdf(5.0, 3, ncp)
        assert chisq_sf(5.0, ChiSquareParams(3, ncp)) == 1.0 - got
        if ncp == 5e-324:
            assert got == chisq_cdf(5.0, ChiSquareParams(3))
        if ncp >= 1e20:
            assert got == 0.0

    def test_unbounded_walk_raises_nonconvergence(self, monkeypatch):
        # at ncp = 1e12 each direction needs about 5e6 terms, past the
        # default bound of 1e6; a bound of 1000 gives the same error sooner
        monkeypatch.setattr(distributions, "_MAX_SERIES_ITER", 1000)
        with pytest.raises(NonConvergence, match="within 1000 terms"):
            chisq_cdf(5.0, ChiSquareParams(3, 1e12))

    def test_params_validation(self):
        with pytest.raises(ValueError):
            ChiSquareParams(0)
        with pytest.raises(ValueError):
            ChiSquareParams(2, -1.0)
        with pytest.raises(ValueError):
            ChiSquareParams(2, float("inf"))

    @pytest.mark.parametrize("ncp", ["1", True, np.bool_(True), float("nan")])
    def test_non_real_ncp_rejected(self, ncp):
        # "1" raised TypeError and True was read as 1 before
        with pytest.raises(ValueError, match="ncp must be a finite real number"):
            ChiSquareParams(2, ncp)
        with pytest.raises(ValueError, match="ncp must be a finite real number"):
            asymptotic_power(ncp, 2, 0.1)

    def test_integer_ncp_normalized(self):
        assert type(ChiSquareParams(2, 1).ncp) is float
        assert ChiSquareParams(2, 1) == ChiSquareParams(2, 1.0)

    def test_draw_count_types(self):
        # numpy integers are draw counts; a bool is not M=1
        assert asymptotic_power(2.0, np.int64(5), 0.1) == asymptotic_power(2.0, 5, 0.1)
        assert type(ChiSquareParams(np.int64(5)).df) is int
        with pytest.raises(ValueError, match="df"):
            asymptotic_power(2.0, True, 0.1)


class TestQuantile:
    def test_df2_closed_form(self):
        assert chisq_quantile(0.90, 2) == pytest.approx(-2.0 * math.log(0.1), abs=1e-6)

    def test_df1_against_integration_oracle(self):
        # bisection against the quadrature CDF, fully independent of the
        # implementation path under test
        target = 0.90
        lo, hi = 0.0, 40.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if chisq_cdf_oracle(mid, 1) < target:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert chisq_quantile(0.90, 1) == pytest.approx(oracle, abs=1e-4)
        assert chisq_quantile(0.90, 1) == pytest.approx(2.70554, abs=1e-4)

    @pytest.mark.parametrize("p", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("df", [1, 5, 20])
    def test_inverse_identity(self, p, df):
        x = chisq_quantile(p, df)
        assert chisq_cdf(x, ChiSquareParams(df)) == pytest.approx(p, abs=1e-8)

    def test_bracket_doubles_past_its_first_guess(self):
        # the first bracket for df=1 ends at 11 + 10 * sqrt(2), about 25.1
        x = chisq_quantile(1.0 - 1e-9, 1)
        assert x == pytest.approx(37.3249, abs=1e-4)
        assert x > 11.0 + 10.0 * math.sqrt(2.0)
        assert chisq_sf(x, ChiSquareParams(1)) == pytest.approx(1e-9, rel=1e-6)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.5, 2.0, "a"])
    def test_invalid_probability(self, p):
        with pytest.raises(InvalidProbability):
            chisq_quantile(p, 3)

    @pytest.mark.parametrize("p", ["0.9", True, np.bool_(True), float("nan")])
    def test_non_real_probability_rejected(self, p):
        # "0.9" was read as 0.9 before
        with pytest.raises(InvalidProbability, match="prob must be a finite real"):
            chisq_quantile(p, 5)

    def test_numpy_probability_accepted(self):
        assert chisq_quantile(np.float64(0.9), 5) == chisq_quantile(0.9, 5)
