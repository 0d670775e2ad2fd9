import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitwald import (
    NonFiniteInput,
    RegressionData,
    Restriction,
    SingularDesign,
    SingularRestriction,
    fit_residuals,
)
from splitwald.regression import residual_variance
from splitwald.teststats import StatisticSetup

from oracle import DesignFactor


def fit_one(y, X, restriction=None):
    """``(u1, u0)`` of one dataset, as a stack of one; the restriction
    defaults to the all-slopes null."""
    data = RegressionData(y, X)
    if restriction is None:
        restriction = Restriction.all_slopes(data.p)
    u1, u0 = fit_residuals(data.y[None], data.X[None], restriction)
    return u1[0], u0[0]


def with_intercept(X):
    return np.column_stack([np.ones(len(X)), X])


class TestUnrestricted:
    def test_perfect_fit(self):
        u1, _ = fit_one([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(u1, 0.0, atol=1e-12)
        assert residual_variance(u1) == pytest.approx(0.0, abs=1e-24)

    def test_constant_predictand(self):
        u1, u0 = fit_one([2.0, 2.0, 2.0], [1.0, 5.0, 9.0])
        np.testing.assert_allclose(u1, 0.0, atol=1e-12)
        np.testing.assert_allclose(u0, 0.0, atol=1e-12)

    def test_hand_solved_normal_equations(self):
        # 2x2 normal equations by hand: beta = 5.5/5 = 1.1, mu = 2.75 - 1.1*2.5
        u1, _ = fit_one([1.0, 3.0, 2.0, 5.0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(u1, [-0.1, 0.8, -1.3, 0.6], atol=1e-12)
        assert residual_variance(u1) == pytest.approx(np.mean([0.01, 0.64, 1.69, 0.36]))

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 3))
        u1, _ = fit_one(rng.standard_normal(60), X)
        np.testing.assert_allclose(with_intercept(X).T @ u1, 0.0, atol=1e-9)

    def test_singular_design(self):
        x = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
        with pytest.raises(SingularDesign):
            fit_one(np.arange(10.0), x)

    def test_non_finite_input(self):
        with pytest.raises(NonFiniteInput):
            RegressionData([1.0, np.nan, 2.0], [1.0, 2.0, 3.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            RegressionData([1.0, 2.0], [1.0, 2.0])


class TestRestricted:
    def test_global_null_equals_intercept_only(self):
        rng = np.random.default_rng(1)
        y = rng.standard_normal(40)
        _, u0 = fit_one(y, rng.standard_normal((40, 2)), Restriction.all_slopes(2))
        np.testing.assert_allclose(u0, y - y.mean(), atol=1e-10)

    def test_subset_restriction_equals_drop_column_refit(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 2))
        y = 0.5 + X @ np.array([1.0, -0.3]) + rng.standard_normal(50)
        _, u0 = fit_one(y, X, Restriction(np.array([[0.0, 1.0]])))
        refit, _ = fit_one(y, X[:, :1])
        np.testing.assert_allclose(u0, refit, atol=1e-10)

    def test_equality_restriction_against_grid_ssr_oracle(self):
        # R = (1, -1) forces beta1 = beta2, i.e. regression on the summed
        # predictor; the oracle minimizes the restricted SSR on a grid.
        y = np.array([1.0, 2.0, 1.5, 3.0, 2.5])
        X = np.array([[0.5, 1.0], [1.0, 0.5], [1.5, 2.0], [2.0, 1.0], [2.5, 3.0]])
        _, u0 = fit_one(y, X, Restriction(np.array([[1.0, -1.0]])))

        s = X.sum(axis=1)

        def ssr(mu, b):
            r = y - mu - b * s
            return r @ r

        mu_lo, mu_hi, b_lo, b_hi = -5.0, 5.0, -5.0, 5.0
        best = None
        for _ in range(4):
            mus = np.linspace(mu_lo, mu_hi, 81)
            bs = np.linspace(b_lo, b_hi, 81)
            vals = [(ssr(m, b), m, b) for m in mus for b in bs]
            best = min(vals)
            _, m0, b0 = best
            dm = (mu_hi - mu_lo) / 40
            db = (b_hi - b_lo) / 40
            mu_lo, mu_hi = m0 - dm, m0 + dm
            b_lo, b_hi = b0 - db, b0 + db

        ssr_fit = u0 @ u0
        assert ssr_fit <= best[0] + 1e-8
        assert ssr_fit == pytest.approx(best[0], rel=1e-6)
        # equivalently: refit on the summed predictor
        refit, _ = fit_one(y, s)
        np.testing.assert_allclose(u0, refit, atol=1e-10)

    def test_rank_deficient_restriction_rejected(self):
        with pytest.raises(SingularRestriction):
            Restriction(np.array([[1.0, 1.0], [2.0, 2.0]]))

    @pytest.mark.parametrize("indices", [[0, -1], [3], [True]])
    def test_subset_index_out_of_range_rejected(self, indices):
        # -1 would otherwise restrict the last slope
        with pytest.raises(SingularRestriction, match="0..2"):
            Restriction.subset(indices, 3)

    def test_wrong_width(self):
        X = np.random.default_rng(0).standard_normal((10, 2))
        with pytest.raises(SingularRestriction):
            fit_one(np.arange(10.0), X, Restriction(np.array([[1.0, 0.0, 0.0]])))


class TestStack:
    """The stacked centred fit against the per-dataset oracle."""

    @pytest.mark.parametrize(
        "R",
        [
            Restriction.all_slopes(3),
            Restriction.subset([1], 3),
            Restriction.subset([0, 2], 3),
            Restriction(np.array([[1.0, -1.0, 0.0]])),
        ],
    )
    def test_fits_match_the_oracle_per_replication(self, R):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((5, 60, 3)).cumsum(axis=1) + 3.0
        y = 0.5 + X @ np.array([0.2, 0.0, -0.1]) + rng.standard_normal((5, 60))
        u1, u0 = fit_residuals(y, X, R)
        for i in range(5):
            factor = DesignFactor(RegressionData(y[i], X[i]))
            np.testing.assert_allclose(u1[i], factor.unrestricted().residuals, atol=1e-10)
            np.testing.assert_allclose(u0[i], factor.restricted(R).residuals, atol=1e-10)

    @pytest.mark.parametrize(
        "p, indices",
        [(1, None), (3, None), (3, (1,)), (3, (0, 2))],
    )
    def test_stack_width_never_moves_a_number(self, p, indices):
        # The harness's sub-block width is a memory rule only: a replication
        # fitted alone and inside a 17-wide stack gives the same bits.
        rng = np.random.default_rng(21)
        X = rng.standard_normal((17, 150, p)).cumsum(axis=1) + 2.0
        y = 0.3 + 0.05 * X.sum(axis=2) + rng.standard_normal((17, 150))
        R = Restriction.all_slopes(p) if indices is None else Restriction.subset(indices, p)
        u1, u0 = fit_residuals(y, X, R)
        stacked = StatisticSetup.fit(y, X, R)
        for i in range(17):
            alone = fit_residuals(y[i : i + 1], X[i : i + 1], R)
            np.testing.assert_array_equal(alone[0][0], u1[i])
            np.testing.assert_array_equal(alone[1][0], u0[i])
            setup = StatisticSetup.fit(y[i : i + 1], X[i : i + 1], R)
            np.testing.assert_array_equal(setup.rows[0], stacked.rows[i])
            np.testing.assert_array_equal(setup.totals[0], stacked.totals[i])
            assert setup.c_sum[0] == stacked.c_sum[i]
            assert setup.c_sq[0] == stacked.c_sq[i]
            assert setup.m0[0] == stacked.m0[i]

    @pytest.mark.parametrize("bad", ["collinear", "constant"])
    def test_stack_raises_where_the_oracle_does(self, bad):
        rng = np.random.default_rng(5)
        good = rng.standard_normal((40, 2))
        x = rng.standard_normal(40)
        if bad == "collinear":
            singular = np.column_stack([x, 2.0 * x])
        else:
            singular = np.column_stack([x, np.full(40, 3.0)])
        y = rng.standard_normal((2, 40))
        R = Restriction.all_slopes(2)
        DesignFactor(RegressionData(y[0], good))
        with pytest.raises(SingularDesign):
            DesignFactor(RegressionData(y[1], singular))
        fit_residuals(y[:1], good[None], R)
        X = np.stack([good, singular])
        with pytest.raises(SingularDesign):
            fit_residuals(y, X, R)
        # the harness's set-up of a sub-block, through the same fit
        with pytest.raises(SingularDesign):
            StatisticSetup.fit(y, X, R)
        with pytest.raises(SingularDesign):
            fit_one(y[1], singular)

    def test_single_constant_predictor(self):
        data = RegressionData(np.arange(12.0), np.full(12, 2.0))
        with pytest.raises(SingularDesign):
            DesignFactor(data)
        with pytest.raises(SingularDesign):
            fit_one(data.y, data.X)


@st.composite
def regression_problems(draw):
    n = draw(st.integers(min_value=6, max_value=30))
    p = draw(st.integers(min_value=1, max_value=3))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    X = rng.standard_normal((n, p))
    y = rng.standard_normal(n)
    return y, X


@given(regression_problems(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_restricted_ssr_never_below_unrestricted(problem, rseed):
    y, X = problem
    p = X.shape[1]
    rng = np.random.default_rng(rseed)
    r = int(rng.integers(1, p + 1))
    restriction = Restriction(rng.standard_normal((r, p)))  # full row rank a.s.
    u1, u0 = fit_one(y, X, restriction)
    ssr_u = u1 @ u1
    ssr_r = u0 @ u0
    assert ssr_r >= ssr_u - 1e-10 * max(1.0, ssr_u)
    # the restricted residuals are orthogonal to the restricted design
    design = with_intercept(X @ restriction.null_basis)
    np.testing.assert_allclose(design.T @ u0, 0.0, atol=1e-8)


@given(regression_problems(), st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_intercept_absorbs_predictand_shifts(problem, shift):
    y, X = problem
    base = fit_one(y, X)
    moved = fit_one(y + shift, X)
    np.testing.assert_allclose(moved[0], base[0], atol=1e-9)
    np.testing.assert_allclose(moved[1], base[1], atol=1e-9)
