from dataclasses import replace

import numpy as np
import pytest

from splitwald import (
    DgpSpec,
    NotPositiveDefinite,
    NumericOverflow,
    SeedSpec,
    UnknownPreset,
    cholesky_lower,
    preset,
    simulate,
)
from splitwald.dgp import OMEGA_THREE_PREDICTOR, PRESET_NAMES

from oracle import simulate_oracle


def innovations(sample, spec):
    """Back out the predictor shocks v_t from consecutive lagged values."""
    a = spec.ar_coefficients()
    X = sample.X_lagged
    v = X[1:] - spec.phi0 - a * X[:-1]
    return sample.u[: v.shape[0]], v


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky_lower(np.eye(4)), np.eye(4))

    def test_hand_two_by_two(self):
        L = cholesky_lower(np.array([[1.0, -0.9], [-0.9, 1.0]]))
        np.testing.assert_allclose(
            L, [[1.0, 0.0], [-0.9, 0.43588989435406744]], atol=1e-12
        )

    def test_benchmark_four_by_four_round_trip(self):
        L = cholesky_lower(OMEGA_THREE_PREDICTOR)
        err = np.max(np.abs(L @ L.T - OMEGA_THREE_PREDICTOR))
        assert err <= 1e-10 * np.max(np.abs(OMEGA_THREE_PREDICTOR))
        assert np.allclose(np.triu(L, 1), 0.0)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetric_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_dimension_cap(self):
        with pytest.raises(NotPositiveDefinite):
            cholesky_lower(np.eye(17))


class TestSpecValidation:
    def kwargs(self, **over):
        base = dict(
            n=250,
            alpha=[1.0],
            c=[1.0],
            phi0=[0.0],
            beta=[0.0],
            omega=np.eye(2),
        )
        base.update(over)
        return base

    def test_ar_coefficient_example(self):
        spec = DgpSpec(**self.kwargs())
        assert spec.ar_coefficients()[0] == pytest.approx(1.0 - 1.0 / 250.0)

    def test_arch_parameter_bound(self):
        with pytest.raises(ValueError):
            DgpSpec(**self.kwargs(theta1=0.6))  # 3*theta1^2 >= 1

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            DgpSpec(**self.kwargs(alpha=[1.5]))

    def test_negative_c(self):
        with pytest.raises(ValueError):
            DgpSpec(**self.kwargs(c=[-1.0]))

    def test_explosive_ar_coefficient(self):
        # c large enough to push the AR coefficient below -1
        with pytest.raises(ValueError):
            DgpSpec(**self.kwargs(alpha=[0.0], c=[2.5]))

    def test_omega_must_be_pd(self):
        with pytest.raises(NotPositiveDefinite):
            DgpSpec(**self.kwargs(omega=[[1.0, 2.0], [2.0, 1.0]]))


class TestSimulate:
    def test_iid_gaussian_variance_target(self):
        # theta1=0, rho=0, unit shock variance: u_t iid N(0, theta0)
        spec = DgpSpec(
            n=10**5,
            alpha=[0.0],
            c=[0.5],
            phi0=[0.0],
            beta=[0.0],
            omega=np.eye(2),
            theta0=2.5,
        )
        s = simulate(spec, SeedSpec(1))
        assert s.u.var() == pytest.approx(2.5, rel=0.03)

    def test_arch_long_run_variance(self):
        # DGP1b parameterization: sigma_u^2 = theta0/(1-theta1) = 10/3
        spec = preset("DGP1b", 10**5, alpha1=0.0, sigma_uv=-0.90)
        s = simulate(spec, SeedSpec(2))
        assert s.u.var() == pytest.approx(2.5 / 0.75, rel=0.05)

    def test_arch_plus_serial_variance(self):
        # DGP1c: sigma_u^2 = theta0/((1-theta1)(1-rho^2)) = 3.56
        spec = preset("DGP1c", 10**5, alpha1=0.0, sigma_uv=-0.90)
        s = simulate(spec, SeedSpec(3))
        assert s.u.var() == pytest.approx(2.5 / (0.75 * (1 - 0.25**2)), rel=0.05)

    def test_construction_identity(self):
        spec = replace(preset("DGP2b", 300), beta=[0.2, -0.1, 0.05])
        spec.mu = 0.7
        s = simulate(spec, SeedSpec(4))
        np.testing.assert_array_equal(
            s.y, spec.mu + s.X_lagged @ spec.beta + s.u
        )

    def test_uncorrelated_shocks_when_omega_identity(self):
        spec = DgpSpec(
            n=10**5,
            alpha=[0.0, 0.0],
            c=0.5,
            phi0=0.0,
            beta=0.0,
            omega=np.eye(3),
        )
        s = simulate(spec, SeedSpec(5))
        u, v = innovations(s, spec)
        for j in range(2):
            assert abs(np.corrcoef(u, v[:, j])[0, 1]) < 3.0 / np.sqrt(u.size)

    def test_endogeneity_correlation_target(self):
        spec = preset("DGP1b", 10**5, alpha1=1.0, sigma_uv=-0.90)
        s = simulate(spec, SeedSpec(6))
        u, v = innovations(s, spec)
        assert np.corrcoef(u, v[:, 0])[0, 1] == pytest.approx(-0.90, abs=0.03)

    def test_three_predictor_correlation_pattern(self):
        # derived property of the fixed shock covariance: roughly
        # (-0.9, -0.7, -0.5) against the three predictors
        spec = preset("DGP2a", 10**5)
        s = simulate(spec, SeedSpec(7))
        u, v = innovations(s, spec)
        corr = [np.corrcoef(u, v[:, j])[0, 1] for j in range(3)]
        for got, expected in zip(corr, (-0.9, -0.7, -0.5)):
            assert got == pytest.approx(expected, abs=0.05)

    def test_determinism(self):
        spec = preset("DGP2c_ii", 400)
        a = simulate(spec, SeedSpec(8, 1))
        b = simulate(spec, SeedSpec(8, 1))
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.X_lagged, b.X_lagged)
        c = simulate(spec, SeedSpec(8, 2))
        assert not np.array_equal(a.y, c.y)

    def test_overflow_guard(self):
        # unit-root predictor with a huge drift accumulates past the guard
        spec = DgpSpec(
            n=5000,
            alpha=[1.0],
            c=[1.0],
            phi0=[1e10],
            beta=[0.0],
            omega=np.eye(2),
            burn_in=0,
        )
        with pytest.raises(NumericOverflow):
            simulate(spec, SeedSpec(9))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_matches_row_wise_oracle(self, name):
        # phi0 != 0 exercises the drift; DGP1c and DGP2c_ii have rho != 0
        kwargs = {"alpha1": 0.95, "sigma_uv": -0.5} if name.startswith("DGP1") else {}
        spec = preset(name, 300, phi0=0.25, beta=0.1, burn_in=50, **kwargs)
        for r in range(20):
            got = simulate(spec, SeedSpec(11, r))
            ref = simulate_oracle(spec, SeedSpec(11, r))
            assert np.array_equal(got.y, ref.y)
            assert np.array_equal(got.X_lagged, ref.X_lagged)
            assert np.array_equal(got.u, ref.u)

    def test_sample_shapes(self):
        spec = preset("DGP1a", 123, alpha1=0.5)
        s = simulate(spec, SeedSpec(10))
        assert s.y.shape == (123,)
        assert s.X_lagged.shape == (123, 1)
        assert s.u.shape == (123,)


class TestPresets:
    def test_dgp1a_parameterization(self):
        # sigma_uv is the (zeta, v) covariance; with u = zeta*sqrt(theta0)
        # the implied error variance is 2.5 and corr(u, v) = sigma_uv
        spec = preset("DGP1a", 500, alpha1=1.0, sigma_uv=-0.90)
        assert spec.theta1 == 0.0 and spec.rho == 0.0
        assert spec.theta0 == 2.5
        np.testing.assert_allclose(spec.omega, [[1.0, -0.9], [-0.9, 1.0]])
        s = simulate(spec, SeedSpec(11))
        big = preset("DGP1a", 10**5, alpha1=1.0, sigma_uv=-0.90)
        sb = simulate(big, SeedSpec(11))
        assert sb.u.var() == pytest.approx(2.5, rel=0.03)
        u, v = innovations(sb, big)
        assert np.corrcoef(u, v[:, 0])[0, 1] == pytest.approx(-0.90, abs=0.02)
        assert s.y.shape == (500,)

    def test_dgp2_parameters(self):
        for name in ("DGP2a", "DGP2b", "DGP2c_i", "DGP2c_ii"):
            spec = preset(name, 250)
            assert (spec.theta0, spec.theta1) == (1.5, 0.25)
            np.testing.assert_array_equal(spec.omega, OMEGA_THREE_PREDICTOR)
        assert preset("DGP2c_ii", 250).rho == 0.25
        assert preset("DGP2c_i", 250).rho == 0.0
        np.testing.assert_array_equal(preset("DGP2b", 250).alpha, [0.75, 0.50, 0.25])

    def test_stationary_case_slope_half(self):
        spec = preset("DGP1a", 400, alpha1=0.0)
        assert spec.c[0] == 0.5
        assert spec.ar_coefficients()[0] == pytest.approx(0.5)
        spec3 = preset("DGP2a", 400)
        np.testing.assert_allclose(spec3.ar_coefficients(), 0.5)

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            preset("DGP9", 100)

    def test_dgp2_rejects_dgp1_arguments(self):
        with pytest.raises(ValueError):
            preset("DGP2a", 100, alpha1=0.5)

    def test_dgp1_requires_alpha1(self):
        with pytest.raises(ValueError):
            preset("DGP1a", 100)

    def test_name_normalization(self):
        assert preset("dgp2c-ii", 100).label == "DGP2c_ii"
