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
    simulate_many,
)
from splitwald import dgp
from splitwald.dgp import (
    ARRAY_RECURSION_MIN_VALUES,
    OMEGA_THREE_PREDICTOR,
    PRESET_NAMES,
    _check_overflow,
)
from splitwald.randomization import set_state, state_generator

from oracle import replication_bytes, simulate_oracle


def innovations(y, X, spec):
    """The errors and the predictor shocks v_t of a sample with beta = 0 and
    mu = 0, whose y is its errors u_t bit for bit; v_t is backed out from
    consecutive lagged values."""
    assert not spec.beta.any() and spec.mu == 0.0
    a = spec.ar_coefficients()
    v = X[1:] - spec.phi0 - a * X[:-1]
    return y[: v.shape[0]], v


def oracle_samples(spec, seeds):
    """The row-wise oracle's sample of each seed, with the next two words of
    its stream: where a stream stands just after its shocks."""
    out = []
    for seed in seeds:
        ref = simulate_oracle(spec, seed.generator())
        out.append((ref, ref.stream.bit_generator.random_raw(2)))
    return out


def batch_of(spec, seeds):
    """simulate_many on the start states that numpy's SeedSequence gives
    each seed, through one generator."""
    states = [seed.generator().bit_generator.state["state"]["state"] for seed in seeds]
    states = np.array(states, np.uint64).reshape(-1, 4)
    return simulate_many(spec, states, state_generator())


def assert_same_sample(y, X, stream, ref, next_words):
    """Equal data, and the stream left at the oracle's place."""
    assert np.array_equal(y, ref.y)
    assert np.array_equal(X, ref.X_lagged)
    assert np.array_equal(stream.bit_generator.random_raw(2), next_words)


def assert_batch_matches(batch, refs):
    """One batch: a time-major sample whose predictors and errors equal the
    oracle's row by row, and the states after each replication's shocks."""
    data, after = batch
    n, k, w = data.shape
    p = k - 1
    assert w == len(refs) and after.shape == (w, 4) and data.flags.c_contiguous
    gen = state_generator()
    for i, (ref, next_words) in enumerate(refs):
        assert np.array_equal(data[:, :p, i], ref.X_lagged)
        assert np.array_equal(data[:, p, i], ref.u)
        set_state(gen, after[i])
        assert np.array_equal(gen.bit_generator.random_raw(2), next_words)


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

    @pytest.mark.parametrize(
        "omega, message",
        [
            (np.ones((2, 3)), r"expected a square matrix, got shape \(2, 3\)"),
            (np.array([[1.0, np.inf], [np.inf, 1.0]]), "matrix must be finite"),
        ],
    )
    def test_malformed_matrix_rejected(self, omega, message):
        with pytest.raises(NotPositiveDefinite, match=message):
            cholesky_lower(omega)


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

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rho", "0.3"),
            ("theta0", True),
            ("theta1", float("nan")),
            ("mu", 10**400),
            ("alpha", [True]),
            ("c", ["1"]),
            ("phi0", [float("inf")]),
            ("beta", np.bool_(False)),
            ("omega", [[1.0, 0.0], [0.0, True]]),
            ("omega", np.array([[1.0, 0.0], [0.0, np.nan]])),
        ],
    )
    def test_real_fields_checked(self, field, value):
        # text, flags and non-finite values are not read as numbers
        with pytest.raises(ValueError, match=f"{field} must be a finite real number"):
            DgpSpec(**self.kwargs(**{field: value}))

    def test_integer_and_numpy_reals_accepted(self):
        spec = DgpSpec(
            **self.kwargs(alpha=[1], c=np.int64(1), phi0=np.float32(0.5), omega=np.eye(2, dtype=int))
        )
        assert spec.omega.dtype == spec.alpha.dtype == spec.c.dtype == np.float64
        assert (spec.alpha[0], spec.c[0], spec.phi0[0]) == (1.0, 1.0, 0.5)
        spec = DgpSpec(**self.kwargs(rho=0, theta0=np.int64(2), mu=np.float64(0.25)))
        assert (spec.rho, spec.theta0, spec.mu) == (0.0, 2.0, 0.25)
        assert {type(spec.rho), type(spec.theta0), type(spec.mu)} == {float}

    def test_omega_must_be_pd(self):
        with pytest.raises(NotPositiveDefinite):
            DgpSpec(**self.kwargs(omega=[[1.0, 2.0], [2.0, 1.0]]))

    @pytest.mark.parametrize(
        "over, message",
        [
            ({"omega": np.eye(3)}, r"omega must be \(2, 2\) for 1 predictors, got \(3, 3\)"),
            ({"theta0": 0.0}, "theta0 must be positive"),
            ({"theta0": -1.0}, "theta0 must be positive"),
            ({"rho": 1.0}, r"rho must lie in \(-1, 1\)"),
            ({"rho": -1.5}, r"rho must lie in \(-1, 1\)"),
        ],
    )
    def test_out_of_range_fields_rejected(self, over, message):
        with pytest.raises(ValueError, match=message):
            DgpSpec(**self.kwargs(**over))


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
        y, _, _ = simulate(spec, SeedSpec(1))
        assert y.var() == pytest.approx(2.5, rel=0.03)  # beta = mu = 0: y is u

    def test_arch_long_run_variance(self):
        # DGP1b parameterization: sigma_u^2 = theta0/(1-theta1) = 10/3
        spec = preset("DGP1b", 10**5, alpha1=0.0, sigma_uv=-0.90)
        y, _, _ = simulate(spec, SeedSpec(2))
        assert y.var() == pytest.approx(2.5 / 0.75, rel=0.05)

    def test_arch_plus_serial_variance(self):
        # DGP1c: sigma_u^2 = theta0/((1-theta1)(1-rho^2)) = 3.56
        spec = preset("DGP1c", 10**5, alpha1=0.0, sigma_uv=-0.90)
        y, _, _ = simulate(spec, SeedSpec(3))
        assert y.var() == pytest.approx(2.5 / (0.75 * (1 - 0.25**2)), rel=0.05)

    def test_construction_identity(self):
        spec = replace(preset("DGP2b", 300), beta=[0.2, -0.1, 0.05])
        spec.mu = 0.7
        y, X, _ = simulate(spec, SeedSpec(4))
        ref = simulate_oracle(spec, SeedSpec(4).generator())
        np.testing.assert_array_equal(X, ref.X_lagged)
        np.testing.assert_array_equal(y, spec.mu + X @ spec.beta + ref.u)
        # with beta = 0 and mu = 0, y is u bit for bit, so the tests here
        # read the errors from y
        null = preset("DGP2b", 300)
        y, _, _ = simulate(null, SeedSpec(4))
        np.testing.assert_array_equal(y, simulate_oracle(null, SeedSpec(4).generator()).u)

    def test_uncorrelated_shocks_when_omega_identity(self):
        spec = DgpSpec(
            n=10**5,
            alpha=[0.0, 0.0],
            c=0.5,
            phi0=0.0,
            beta=0.0,
            omega=np.eye(3),
        )
        u, v = innovations(*simulate(spec, SeedSpec(5))[:2], spec)
        for j in range(2):
            assert abs(np.corrcoef(u, v[:, j])[0, 1]) < 3.0 / np.sqrt(u.size)

    def test_endogeneity_correlation_target(self):
        spec = preset("DGP1b", 10**5, alpha1=1.0, sigma_uv=-0.90)
        u, v = innovations(*simulate(spec, SeedSpec(6))[:2], spec)
        assert np.corrcoef(u, v[:, 0])[0, 1] == pytest.approx(-0.90, abs=0.03)

    def test_three_predictor_correlation_pattern(self):
        # derived property of the fixed shock covariance: roughly
        # (-0.9, -0.7, -0.5) against the three predictors
        spec = preset("DGP2a", 10**5)
        u, v = innovations(*simulate(spec, SeedSpec(7))[:2], spec)
        corr = [np.corrcoef(u, v[:, j])[0, 1] for j in range(3)]
        for got, expected in zip(corr, (-0.9, -0.7, -0.5)):
            assert got == pytest.approx(expected, abs=0.05)

    def test_determinism(self):
        spec = preset("DGP2c_ii", 400)
        y_a, X_a, _ = simulate(spec, SeedSpec(8, 1))
        y_b, X_b, _ = simulate(spec, SeedSpec(8, 1))
        np.testing.assert_array_equal(y_a, y_b)
        np.testing.assert_array_equal(X_a, X_b)
        y_c, _, _ = simulate(spec, SeedSpec(8, 2))
        assert not np.array_equal(y_a, y_c)

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
            [(ref, next_words)] = oracle_samples(spec, [SeedSpec(11, r)])
            assert_same_sample(*simulate(spec, SeedSpec(11, r)), ref, next_words)

    @pytest.mark.parametrize("burn_in", [0, 1, 50])
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_batch_matches_row_wise_oracle(self, name, burn_in):
        # batch widths on both sides of the switch to the array recursion
        kwargs = {"alpha1": 0.95, "sigma_uv": -0.5} if name.startswith("DGP1") else {}
        spec = preset(name, 60, phi0=0.25, beta=0.1, burn_in=burn_in, **kwargs)
        narrowest = -(-ARRAY_RECURSION_MIN_VALUES // (spec.p + 1))
        for width in (1, narrowest - 1, narrowest, 83):
            seeds = [SeedSpec(12, width, (r,)) for r in range(width)]
            refs = oracle_samples(spec, seeds)
            assert_batch_matches(batch_of(spec, seeds), refs)

    @pytest.mark.parametrize(
        "name, width, arrays",
        [("DGP1b", 19, False), ("DGP1b", 20, True), ("DGP2a", 9, False), ("DGP2a", 10, True)],
    )
    def test_switch_counts_values_per_step(self, monkeypatch, name, width, arrays):
        # width * (p + 1) >= ARRAY_RECURSION_MIN_VALUES selects the arrays
        kwargs = {"alpha1": 1.0} if name.startswith("DGP1") else {}
        spec = preset(name, 40, burn_in=0, **kwargs)
        paths = []
        for path in ("_recurse_series", "_recurse_rows"):
            real = getattr(dgp, path)
            monkeypatch.setattr(
                dgp, path, lambda *a, path=path, real=real: paths.append(path) or real(*a)
            )
        batch_of(spec, [SeedSpec(14, r) for r in range(width)])
        assert set(paths) == {"_recurse_rows" if arrays else "_recurse_series"}

    def test_array_path_overflow_guard(self):
        # the drift pushes every replication past the guard, then to infinity
        width = ARRAY_RECURSION_MIN_VALUES // 2  # p = 1
        seeds = [SeedSpec(13, r) for r in range(width)]
        for phi0, message in ((1e10, "reached"), (1e306, "not finite")):
            spec = DgpSpec(
                n=500, alpha=[1.0], c=[1.0], phi0=[phi0], beta=[0.0],
                omega=np.eye(2), burn_in=0,
            )  # fmt: skip
            with pytest.raises(NumericOverflow, match=message) as info:
                batch_of(spec, seeds)
            assert info.value.index == 0

    def test_overflow_names_the_first_bad_replication(self):
        state = np.zeros((10, 2, 40))
        state[4, 0, 9] = -2e12
        state[3, 1, 5] = np.nan
        with pytest.raises(NumericOverflow, match="not finite") as info:
            _check_overflow(state)
        assert info.value.index == 5
        state[3, 1, 5] = np.inf
        with pytest.raises(NumericOverflow, match="not finite") as info:
            _check_overflow(state)
        assert info.value.index == 5
        state[3, 1, 5] = 1e12
        with pytest.raises(NumericOverflow, match="reached 2.000e") as info:
            _check_overflow(state)
        assert info.value.index == 9

    def test_sample_shapes(self):
        spec = preset("DGP1a", 123, alpha1=0.5)
        y, X, stream = simulate(spec, SeedSpec(10))
        assert y.shape == (123,)
        assert X.shape == (123, 1)
        assert isinstance(stream, np.random.Generator)


class TestBatches:
    """simulate_many returns one batch for exactly the states it gets; its
    caller keeps the batch within SIM_BATCH_BYTES by batch_width."""

    SPEC = preset("DGP1c", 120, alpha1=0.95, sigma_uv=-0.5, phi0=0.25, burn_in=50)

    @pytest.mark.parametrize("width", [1, 16, 32, 96])
    def test_batch_width_does_not_change_samples(self, width):
        # 96 seeds run as 96 or 6 scalar batches, 3 array batches of 32, or
        # one array batch; each sample must match the row-wise oracle
        seeds = [SeedSpec(21, 2, (r,)) for r in range(96)]
        refs = oracle_samples(self.SPEC, seeds)
        for lo in range(0, 96, width):
            batch = batch_of(self.SPEC, seeds[lo : lo + width])
            assert_batch_matches(batch, refs[lo : lo + width])

    def test_default_caps(self):
        # a Monte Carlo chunk of 250 replications: DGP1b at n=1000 fits in
        # one batch, and DGP2c_ii at n=2000 fits 74, on the array recursion
        assert dgp.SIM_BATCH_BYTES == 5 * 2**20
        dgp1b = preset("DGP1b", 1000, alpha1=1.0)
        dgp2c = preset("DGP2c_ii", 2000)
        for spec, width in ((dgp1b, 272), (dgp2c, 74)):
            assert dgp.batch_width(spec) == width
            size = replication_bytes(spec)
            assert width * size <= dgp.SIM_BATCH_BYTES < (width + 1) * size
        assert 3 * dgp.batch_width(dgp2c) < 250  # a chunk of 250 cannot fit
        assert dgp.batch_width(dgp2c) * (dgp2c.p + 1) >= ARRAY_RECURSION_MIN_VALUES

    def test_overflow_in_a_later_batch_names_its_seed(self, monkeypatch):
        # the second 40-seed batch goes non-finite at its third replication,
        # which it names by its position in the seeds it was given
        real = dgp._recurse_rows
        batches = []

        def second_batch_blows_up(spec, buf):
            real(spec, buf)
            batches.append(buf.shape[2])
            if len(batches) == 2:
                buf[7, 1, 2] = np.inf

        monkeypatch.setattr(dgp, "_recurse_rows", second_batch_blows_up)
        seeds = [SeedSpec(22, r) for r in range(80)]
        assert len(batch_of(self.SPEC, seeds[:40])[1]) == 40
        with pytest.raises(NumericOverflow, match="not finite") as info:
            batch_of(self.SPEC, seeds[40:])
        assert batches == [40, 40] and info.value.index == 2

    def test_no_seeds_no_samples(self):
        data, after = batch_of(self.SPEC, [])
        assert data.shape == (120, 2, 0) and after.shape == (0, 4)


class TestPresets:
    def test_dgp1a_parameterization(self):
        # sigma_uv is the (zeta, v) covariance; with u = zeta*sqrt(theta0)
        # the implied error variance is 2.5 and corr(u, v) = sigma_uv
        spec = preset("DGP1a", 500, alpha1=1.0, sigma_uv=-0.90)
        assert spec.theta1 == 0.0 and spec.rho == 0.0
        assert spec.theta0 == 2.5
        np.testing.assert_allclose(spec.omega, [[1.0, -0.9], [-0.9, 1.0]])
        y, _, _ = simulate(spec, SeedSpec(11))
        big = preset("DGP1a", 10**5, alpha1=1.0, sigma_uv=-0.90)
        u, v = innovations(*simulate(big, SeedSpec(11))[:2], big)
        assert u.var() == pytest.approx(2.5, rel=0.03)
        assert np.corrcoef(u, v[:, 0])[0, 1] == pytest.approx(-0.90, abs=0.02)
        assert y.shape == (500,)

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

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            ({"alpha1": True}, "alpha1"),
            ({"alpha1": 1.0, "sigma_uv": "-0.9"}, "sigma_uv"),
            ({"alpha1": 1.0, "phi0": np.bool_(False)}, "phi0"),
            ({"alpha1": 10**400}, "alpha1"),
        ],
    )
    def test_real_parameters_checked(self, kwargs, name):
        with pytest.raises(ValueError, match=name):
            preset("DGP1b", 100, **kwargs)

    def test_dgp2_rejects_dgp1_arguments(self):
        with pytest.raises(ValueError):
            preset("DGP2a", 100, alpha1=0.5)

    def test_dgp1_requires_alpha1(self):
        with pytest.raises(ValueError):
            preset("DGP1a", 100)

    def test_name_normalization(self):
        assert preset("dgp2c-ii", 100).label == "DGP2c_ii"
