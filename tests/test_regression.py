import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitwald import (
    NonFiniteInput,
    RegressionData,
    Restriction,
    SeedSpec,
    SingularDesign,
    SingularRestriction,
    fit_in_place,
    preset,
    simulate,
    simulate_many,
)
from splitwald.dgp import PRESET_NAMES
from splitwald.randomization import state_generator
from splitwald.regression import RCOND_TOL, SCRATCH_MIN_ROWS, _subtract_multiple
from splitwald.teststats import StatisticSetup

from oracle import DesignFactor, fit_residuals


def fit_one(y, X, restriction=None):
    """``(u1, u0)`` of one dataset, as a batch of one; the restriction
    defaults to the all-slopes null."""
    data = RegressionData(y, X)
    if restriction is None:
        restriction = Restriction.all_slopes(data.p)
    u0, u1 = fit_in_place(time_major(data.y[None], data.X[None]), restriction)
    return u1[:, 0], u0[:, 0]


def time_major(y, X):
    """The ``(n, p + 1, R)`` batch of an ``(R, n)`` / ``(R, n, p)`` stack."""
    return np.concatenate([X, y[:, :, None]], axis=2).transpose(1, 2, 0).copy()


def variance(u):
    return u @ u / u.shape[0]


def with_intercept(X):
    return np.column_stack([np.ones(len(X)), X])


class TestUnrestricted:
    def test_perfect_fit(self):
        u1, _ = fit_one([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(u1, 0.0, atol=1e-12)
        assert variance(u1) == pytest.approx(0.0, abs=1e-24)

    def test_constant_predictand(self):
        u1, u0 = fit_one([2.0, 2.0, 2.0], [1.0, 5.0, 9.0])
        np.testing.assert_allclose(u1, 0.0, atol=1e-12)
        np.testing.assert_allclose(u0, 0.0, atol=1e-12)

    def test_hand_solved_normal_equations(self):
        # 2x2 normal equations by hand: beta = 5.5/5 = 1.1, mu = 2.75 - 1.1*2.5
        u1, _ = fit_one([1.0, 3.0, 2.0, 5.0], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_allclose(u1, [-0.1, 0.8, -1.3, 0.6], atol=1e-12)
        assert variance(u1) == pytest.approx(np.mean([0.01, 0.64, 1.69, 0.36]))

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

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="y has 4 rows but X has 3"):
            RegressionData([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0])

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

    @pytest.mark.parametrize("row", [[1.0, -1.0], [0.0, 1.0]])
    def test_one_dimensional_row_fits_as_a_matrix_row(self, row):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((50, 2))
        y = 0.5 + X @ np.array([1.0, -0.3]) + rng.standard_normal(50)
        flat = Restriction(np.array(row))
        assert flat.R.shape == (1, 2)
        as_row = fit_one(y, X, Restriction(np.array([row])))
        for got, expected in zip(fit_one(y, X, flat), as_row):
            np.testing.assert_array_equal(got, expected)

    def test_rank_deficient_restriction_rejected(self):
        with pytest.raises(SingularRestriction):
            Restriction(np.array([[1.0, 1.0], [2.0, 2.0]]))

    def test_non_finite_restriction_rejected(self):
        with pytest.raises(NonFiniteInput, match="restriction matrix must be finite"):
            Restriction(np.array([[1.0, np.nan]]))

    def test_more_rows_than_slopes_rejected(self):
        with pytest.raises(SingularRestriction, match=r"need 1 <= r <= p, got shape \(3, 2\)"):
            Restriction(np.eye(3)[:, :2])

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
    """The in-place batch fit against the per-dataset oracle."""

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
        u0, u1 = fit_in_place(time_major(y, X), R)
        for i in range(5):
            factor = DesignFactor(RegressionData(y[i], X[i]))
            unrestricted, restricted = factor.unrestricted(), factor.restricted(R)
            np.testing.assert_allclose(u1[:, i], unrestricted.residuals, atol=1e-10)
            np.testing.assert_allclose(u0[:, i], restricted.residuals, atol=1e-10)

    @pytest.mark.parametrize(
        "p, indices",
        [(1, None), (3, None), (3, (1,)), (3, (0, 2))],
    )
    def test_stack_width_never_moves_a_number(self, p, indices):
        # A replication fitted alone, in a batch of 7 and in the whole batch
        # of 17 gives the same bits: every sum over time runs in time order
        # for each replication alike, whatever the width. The slope runs the
        # fit's slab updates too.
        rng = np.random.default_rng(21)
        e = rng.standard_normal((17, 150))
        X = rng.standard_normal((17, 150, p)).cumsum(axis=1) + 2.0
        beta = np.linspace(0.05, 0.15, p)
        R = Restriction.all_slopes(p) if indices is None else Restriction.subset(indices, p)
        batch = time_major(e, X)

        def setup(lo, hi):
            scratch = np.empty((9, hi - lo))
            return StatisticSetup.fit(batch[:, :, lo:hi].copy(), R, beta, scratch)

        whole = setup(0, 17)
        for width in (1, 7):
            for lo in range(0, 17 - width + 1, width):
                part = setup(lo, lo + width)
                for name in ("a", "c"):
                    np.testing.assert_array_equal(
                        getattr(part, name), getattr(whole, name)[:, lo : lo + width]
                    )
                for name in ("sigma2_1", "m0", "c_sum", "c_sq"):
                    np.testing.assert_array_equal(
                        getattr(part, name), getattr(whole, name)[lo : lo + width]
                    )
                np.testing.assert_array_equal(part.totals, whole.totals[:, lo : lo + width])

    @pytest.mark.parametrize("n", [100, 600])
    def test_a_short_scratch_is_not_used(self, n, monkeypatch):
        # a plan with burn_in 0 hands the fit one burn-in row as scratch;
        # slabs of one row would loop once per observation
        rows = []

        def spy(v, c, q, scratch):
            rows.append(scratch.shape[0])
            return _subtract_multiple(v, c, q, scratch)

        monkeypatch.setattr("splitwald.regression._subtract_multiple", spy)
        spec = preset("DGP2a", n, beta=0.3, burn_in=0)
        R = Restriction.subset([1], 3)
        data, scratch, _ = simulate_many(
            spec, SeedSpec(5).child_states(0, 4), state_generator()
        )
        assert scratch.shape[0] == 1
        whole = [u.copy() for u in fit_in_place(data.copy(), R, spec.beta)]
        u0, u1 = fit_in_place(data, R, spec.beta, scratch)
        assert rows and min(rows) >= min(n, SCRATCH_MIN_ROWS)
        np.testing.assert_array_equal(u0, whole[0])
        np.testing.assert_array_equal(u1, whole[1])

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
        fit_in_place(time_major(y[:1], good[None]), R)
        X = np.stack([good, singular])
        with pytest.raises(SingularDesign):
            fit_in_place(time_major(y, X), R)
        # the harness's set-up of a batch, through the same fit
        with pytest.raises(SingularDesign):
            StatisticSetup.fit(time_major(y, X), R)
        with pytest.raises(SingularDesign):
            fit_one(y[1], singular)

    def test_single_constant_predictor(self):
        data = RegressionData(np.arange(12.0), np.full(12, 2.0))
        with pytest.raises(SingularDesign):
            DesignFactor(data)
        with pytest.raises(SingularDesign):
            fit_one(data.y, data.X)


def relative_gap(got, want):
    """Largest norm-wise relative difference between the ``(n, R)`` residuals
    ``got`` and the oracle's ``(R, n)`` ones."""
    return np.max(np.linalg.norm(got.T - want, axis=1) / np.linalg.norm(want, axis=1))


NULLS = {
    "all": lambda p: Restriction.all_slopes(p),
    "first": lambda p: Restriction.subset([0], p),
    "(0, 2)": lambda p: Restriction.subset((0, 2), p),
    "general": lambda p: Restriction(np.array([[1.0, -1.0, 0.5]])),
}


class TestAgainstQrOracle:
    """The one Gram-Schmidt pass against the stacked QR that the library
    used before, on simulated batches. Two backward-stable fits differ by up
    to about eps * cond(X) relative: stated before the first run, the bound
    is 1e-12 on the presets and 1e-9 at an rcond of X'X near 5e-12, where
    cond(X) is about 4.5e5. Measured: at most 1.3e-14 and 1.2e-11."""

    @pytest.mark.parametrize(
        "name, null",
        [
            (name, null)
            for name in PRESET_NAMES
            for null in sorted(NULLS)
            if name.startswith("DGP2") or null in ("all", "first")
        ],
    )
    def test_every_preset(self, name, null):
        kwargs = {"alpha1": 1.0} if name.startswith("DGP1") else {}
        spec = preset(name, 500, beta=0.3, phi0=0.5, **kwargs)
        restriction = NULLS[null](spec.p)
        seeds = [SeedSpec(3, 1, (r,)) for r in range(40)]
        samples = [simulate(spec, seed)[:2] for seed in seeds]
        y, X = (np.array(stack) for stack in zip(*samples))
        u1_qr, u0_qr = fit_residuals(y, X, restriction)
        states = SeedSpec(3, 1).child_states(0, 40)  # the starts of seeds' streams
        data, scratch, _ = simulate_many(spec, states, state_generator())
        u0, u1 = fit_in_place(data, restriction, spec.beta, scratch)
        assert relative_gap(u1, u1_qr) <= 1e-12
        assert relative_gap(u0, u0_qr) <= 1e-12

    @pytest.mark.parametrize("null", sorted(NULLS))
    def test_near_collinear_design(self, null):
        # the second predictor is the first plus 1e-4 noise: rcond of the
        # augmented X'X is about 5e-12, just above RCOND_TOL
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 400)).cumsum(axis=1)
        noise = rng.standard_normal((2, 20, 400))
        X = np.stack([x, x + 1e-4 * noise[0], noise[1]], axis=2)
        y = 1.0 + X @ np.array([0.5, 0.2, -0.1]) + rng.standard_normal((20, 400))
        design = np.concatenate([np.ones((20, 400, 1)), X], axis=2)
        s = np.linalg.svd(design, compute_uv=False)
        assert RCOND_TOL < ((s[:, -1] / s[:, 0]) ** 2).min() < 10 * RCOND_TOL
        restriction = NULLS[null](3)
        u1_qr, u0_qr = fit_residuals(y, X, restriction)
        u0, u1 = fit_in_place(time_major(y, X), restriction)
        assert relative_gap(u1, u1_qr) <= 1e-9
        assert relative_gap(u0, u0_qr) <= 1e-9


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
    design = with_intercept(X @ np.linalg.svd(restriction.R)[2][r:].T)
    np.testing.assert_allclose(design.T @ u0, 0.0, atol=1e-8)


@given(regression_problems(), st.floats(min_value=-50.0, max_value=50.0))
@settings(max_examples=40, deadline=None)
def test_intercept_absorbs_predictand_shifts(problem, shift):
    y, X = problem
    base = fit_one(y, X)
    moved = fit_one(y + shift, X)
    np.testing.assert_allclose(moved[0], base[0], atol=1e-9)
    np.testing.assert_allclose(moved[1], base[1], atol=1e-9)
