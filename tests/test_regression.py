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
    fit_restricted,
    fit_unrestricted,
)


class TestUnrestricted:
    def test_perfect_fit(self):
        data = RegressionData([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        fit = fit_unrestricted(data)
        np.testing.assert_allclose(fit.theta_hat, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)
        assert fit.sigma2_hat == pytest.approx(0.0, abs=1e-24)

    def test_constant_predictand(self):
        fit = fit_unrestricted(RegressionData([2.0, 2.0, 2.0], [1.0, 5.0, 9.0]))
        np.testing.assert_allclose(fit.theta_hat, [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(fit.residuals, 0.0, atol=1e-12)

    def test_hand_solved_normal_equations(self):
        # 2x2 normal equations by hand: beta = 5.5/5 = 1.1, mu = 2.75 - 1.1*2.5
        fit = fit_unrestricted(RegressionData([1.0, 3.0, 2.0, 5.0], [1.0, 2.0, 3.0, 4.0]))
        np.testing.assert_allclose(fit.theta_hat, [0.0, 1.1], atol=1e-12)
        np.testing.assert_allclose(fit.residuals, [-0.1, 0.8, -1.3, 0.6], atol=1e-12)
        assert fit.sigma2_hat == pytest.approx(np.mean([0.01, 0.64, 1.69, 0.36]))

    def test_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(3)
        data = RegressionData(rng.standard_normal(60), rng.standard_normal((60, 3)))
        fit = fit_unrestricted(data)
        np.testing.assert_allclose(data.design().T @ fit.residuals, 0.0, atol=1e-9)

    def test_singular_design(self):
        x = np.column_stack([np.arange(10.0), 2.0 * np.arange(10.0)])
        with pytest.raises(SingularDesign):
            fit_unrestricted(RegressionData(np.arange(10.0), x))

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
        data = RegressionData(y, rng.standard_normal((40, 2)))
        fit = fit_restricted(data, Restriction.all_slopes(2))
        np.testing.assert_allclose(fit.theta_hat[1:], 0.0, atol=1e-10)
        np.testing.assert_allclose(fit.residuals, y - y.mean(), atol=1e-10)

    def test_subset_restriction_equals_drop_column_refit(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 2))
        y = 0.5 + X @ np.array([1.0, -0.3]) + rng.standard_normal(50)
        data = RegressionData(y, X)
        fit = fit_restricted(data, Restriction(np.array([[0.0, 1.0]])))
        refit = fit_unrestricted(RegressionData(y, X[:, :1]))
        assert fit.theta_hat[2] == pytest.approx(0.0, abs=1e-10)
        np.testing.assert_allclose(fit.theta_hat[:2], refit.theta_hat, atol=1e-10)
        np.testing.assert_allclose(fit.residuals, refit.residuals, atol=1e-10)

    def test_equality_restriction_against_grid_ssr_oracle(self):
        # R = (1, -1) forces beta1 = beta2, i.e. regression on the summed
        # predictor; the oracle minimizes the restricted SSR on a grid.
        y = np.array([1.0, 2.0, 1.5, 3.0, 2.5])
        X = np.array([[0.5, 1.0], [1.0, 0.5], [1.5, 2.0], [2.0, 1.0], [2.5, 3.0]])
        data = RegressionData(y, X)
        fit = fit_restricted(data, Restriction(np.array([[1.0, -1.0]])))

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

        ssr_fit = fit.residuals @ fit.residuals
        assert ssr_fit <= best[0] + 1e-8
        assert fit.theta_hat[1] == pytest.approx(fit.theta_hat[2], abs=1e-10)
        assert fit.theta_hat[1] == pytest.approx(best[2], abs=1e-3)
        # equivalently: refit on the summed predictor
        refit = fit_unrestricted(RegressionData(y, s))
        np.testing.assert_allclose(fit.residuals, refit.residuals, atol=1e-10)

    def test_rank_deficient_restriction_rejected(self):
        with pytest.raises(SingularRestriction):
            Restriction(np.array([[1.0, 1.0], [2.0, 2.0]]))

    @pytest.mark.parametrize("indices", [[0, -1], [3], [True]])
    def test_subset_index_out_of_range_rejected(self, indices):
        # -1 would otherwise restrict the last slope
        with pytest.raises(SingularRestriction, match="0..2"):
            Restriction.subset(indices, 3)

    def test_wrong_width(self):
        data = RegressionData(np.arange(10.0), np.random.default_rng(0).standard_normal((10, 2)))
        with pytest.raises(SingularRestriction):
            fit_restricted(data, Restriction(np.array([[1.0, 0.0, 0.0]])))


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
    R = rng.standard_normal((r, p))  # full row rank almost surely
    data = RegressionData(y, X)
    unres = fit_unrestricted(data)
    res = fit_restricted(data, Restriction(R))
    ssr_u = unres.residuals @ unres.residuals
    ssr_r = res.residuals @ res.residuals
    assert ssr_r >= ssr_u - 1e-10 * max(1.0, ssr_u)
    # the restriction holds at the fitted coefficients
    np.testing.assert_allclose(R @ res.theta_hat[1:], 0.0, atol=1e-8)


@given(regression_problems(), st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_intercept_absorbs_predictand_shifts(problem, shift):
    y, X = problem
    base = fit_unrestricted(RegressionData(y, X))
    moved = fit_unrestricted(RegressionData(y + shift, X))
    np.testing.assert_allclose(moved.residuals, base.residuals, atol=1e-9)
    assert moved.theta_hat[0] == pytest.approx(base.theta_hat[0] + shift, abs=1e-8)
