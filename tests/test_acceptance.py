"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The Monte Carlo criteria use 2000 replications (5000 for the null
calibration) and take a few minutes in total.

Criterion 5b checks the growing-draw statistic ``Q = (S_M - M)/sqrt(2M)``
against its exact null law at the mandated draw count M_n=17: ``S_M`` is
chi-square(17) under the null, so ``Q`` has the standardized chi-square(17)
CDF ``G_17(q) = P(chi2(17) <= 17 + q sqrt(34))``, and the clause asserts
KS(Q, G_17) < 0.04. The standard normal is only the M -> infinity limit of
``G_M``: the exact KS distance between ``G_17`` and N(0,1) is 0.0457 (0.0444
at M=18, the largest M_n any admissible p0 gives at n=2000), so no correct
implementation could meet 0.04 against N(0,1). Under stream layout 5, at
seed 77, the fixture gives KS 0.0118 to ``G_17`` and 0.0538 to N(0,1), next
to that 0.0457 floor; the test prints both. See the README's acceptance
notes.
"""

import math

import numpy as np
import pytest
from mcutil import centered_chisq_cdf, centered_chisq_normal_ks, ks_distance
from oracle import draw_bernoulli_weights

import splitwald as sw
from splitwald.experiments import ExperimentPlan, PresetRef, run_plan

MASTER_SEED = 20260810
WORKERS = 2
SIZE_TOL = 0.025


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def size_cell(ref, n, p0, mn_delta, replications=2000, beta=0.0):
    plan = ExperimentPlan(
        dgp=ref,
        n_grid=(n,),
        p0_grid=(p0,),
        cfg_template=sw.StatisticConfig.growing(mn_delta=mn_delta, alpha=0.10),
        beta_grid=(beta,),
        replications=replications,
        master_seed=MASTER_SEED,
        workers=WORKERS,
    )
    return run_plan(plan).cells[0]


def test_criterion_1_table1_size_reproduction():
    cells = [
        ("alpha1=0.00, n=500, p0=0.40", PresetRef("DGP1a", alpha1=0.00, sigma_uv=-0.90, phi0=0.0), 500, 0.40, 0.090),
        ("alpha1=1.00, n=1000, p0=0.30", PresetRef("DGP1a", alpha1=1.00, sigma_uv=-0.90, phi0=0.0), 1000, 0.30, 0.102),
        ("alpha1=0.95, n=500, p0=0.42", PresetRef("DGP1a", alpha1=0.95, sigma_uv=-0.90, phi0=0.0), 500, 0.42, 0.134),
    ]
    details = []
    ok = True
    for label, ref, n, p0, target in cells:
        rate = size_cell(ref, n, p0, mn_delta=0.5).rejection_rate
        ok &= abs(rate - target) <= SIZE_TOL
        details.append(f"{label}: {rate:.4f} vs {target}")
    report("1 Table-1 size (DGP1a, +/-0.025)", ok, "; ".join(details))


def test_criterion_2_table2_heteroskedasticity():
    cell = size_cell(
        PresetRef("DGP1b", alpha1=1.00, sigma_uv=-0.90, phi0=0.25), 1000, 0.40, 0.5
    )
    ok = abs(cell.rejection_rate - 0.092) <= SIZE_TOL
    report(
        "2 Table-2 ARCH robustness (DGP1b, phi0=0.25)",
        ok,
        f"rate {cell.rejection_rate:.4f} vs 0.092",
    )


def test_criterion_3_table3_serial_correlation():
    cell = size_cell(
        PresetRef("DGP1c", alpha1=1.00, sigma_uv=0.0, phi0=0.0), 1000, 0.30, 0.5
    )
    ok = abs(cell.rejection_rate - 0.109) <= SIZE_TOL
    report(
        "3 Table-3 serial-correlation robustness (DGP1c)",
        ok,
        f"rate {cell.rejection_rate:.4f} vs 0.109",
    )


def test_criterion_4_table4_multi_predictor():
    a = size_cell(PresetRef("DGP2a"), 1000, 0.40, 1.0 / 3.0)
    b = size_cell(PresetRef("DGP2c_i"), 2000, 0.30, 1.0 / 3.0)
    ok = abs(a.rejection_rate - 0.088) <= SIZE_TOL and abs(b.rejection_rate - 0.088) <= SIZE_TOL
    report(
        "4 Table-4 multi-predictor size (DGP2a, DGP2c_i)",
        ok,
        f"DGP2a {a.rejection_rate:.4f} vs 0.088; DGP2c_i {b.rejection_rate:.4f} vs 0.088",
    )


def _null_calibration_sample():
    # stationary predictor, iid Gaussian errors, beta = 0, n = 2000;
    # draw 1 of each replication doubles as the M=1 single-shot statistic
    # (identical stream), the full M=17 set feeds the centered statistic
    spec = sw.DgpSpec(
        n=2000,
        alpha=[0.0],
        c=[0.5],
        phi0=[0.0],
        beta=[0.0],
        omega=np.eye(2),
        theta0=1.0,
        label="null-calibration",
    )
    cfg = sw.StatisticConfig.growing(mn_delta=1.0 / 3.0, p0=0.40)
    assert cfg.resolve_m(2000) == 17
    restriction = sw.Restriction.all_slopes(1)
    base = sw.SeedSpec(77)
    single = np.empty(5000)
    centered = np.empty(5000)
    for r in range(5000):
        rep = base.child(0, r)
        y, X, _ = sw.simulate(spec, rep.child(0))
        out = sw.run_test(sw.RegressionData(y, X), restriction, cfg, rep.child(1))
        single[r] = out.s_n[0]
        centered[r] = out.q
    return single, centered


@pytest.fixture(scope="module")
def null_calibration():
    return _null_calibration_sample()


def test_criterion_5a_single_shot_null_calibration(null_calibration):
    single, _ = null_calibration
    d = ks_distance(single, lambda v: sw.chisq_cdf(v, sw.ChiSquareParams(1)))
    report(
        "5a null calibration: S_n vs chi-square(1), KS < 0.03",
        d < 0.03,
        f"KS {d:.4f} over 5000 replications at n=2000",
    )


def test_criterion_5b_growing_m_null_calibration(null_calibration):
    _, centered = null_calibration
    d = ks_distance(centered, centered_chisq_cdf(17))
    d_normal = ks_distance(centered, sw.normal_cdf)
    floor = centered_chisq_normal_ks(17)
    report(
        "5b null calibration: Q vs standardized chi-square(17) at M_n=17, KS < 0.04",
        d < 0.04,
        f"KS {d:.4f} over 5000 replications at n=2000; "
        f"KS to N(0,1) {d_normal:.4f} against its exact floor {floor:.4f}",
    )


def test_criterion_6_power_monotone_shape():
    plan = ExperimentPlan(
        dgp=PresetRef("DGP1a", alpha1=1.0, sigma_uv=-0.90, phi0=0.0),
        n_grid=(500,),
        p0_grid=(0.40,),
        cfg_template=sw.StatisticConfig.growing(mn_delta=0.5, alpha=0.10),
        beta_grid=(0.0, 0.05, 0.10, 0.20),
        replications=2000,
        master_seed=MASTER_SEED,
        workers=WORKERS,
    )
    cells = run_plan(plan).cells
    rates = [c.rejection_rate for c in cells]
    ses = [c.mc_se for c in cells]
    # isotonic within Monte Carlo noise, a strict overall rise, and high
    # power by beta = 0.20 (power saturates at 1 long before the grid ends
    # for a near-integrated predictor, so consecutive strict increases are
    # only required up to noise)
    isotonic = all(
        rates[i + 1] >= rates[i] - 2.0 * (ses[i] + ses[i + 1])
        for i in range(len(rates) - 1)
    )
    strict_rise = rates[-1] - rates[0] > 2.0 * (ses[0] + ses[-1])
    high_end = rates[-1] > 0.9
    report(
        "6 power shape (DGP1a, alpha1=1, n=500)",
        isotonic and strict_rise and high_end,
        "rates " + ", ".join(f"{b}:{r:.3f}" for b, r in zip((0, 0.05, 0.10, 0.20), rates)),
    )


def test_criterion_7_closed_forms_exact():
    checks = {
        "f(0.4)=24": abs(sw.f_p0(0.4) - 24.0) <= 1e-12 * 24.0,
        "V(0.4)=1/24": abs(sw.weight_variance(0.4) - 1.0 / 24.0) <= 1e-12,
        "f*V=1": all(
            abs(sw.f_p0(p) * sw.weight_variance(p) - 1.0) <= 1e-12
            for p in (0.30, 0.35, 0.40, 0.42, 0.45, 0.47)
        ),
        "E(0.4)=-25/3": abs(sw.elasticity(0.4) + 25.0 / 3.0) <= 1e-12 * 25 / 3,
        "g(0.5)=1": abs(sw.g_p0(0.5) - 1.0) <= 1e-12,
        "g<=1.3 on [0.3,0.7]": all(
            1.0 <= sw.g_p0(p) <= 1.3 for p in np.linspace(0.30, 0.70, 81)
        ),
        "ncp coefficient 64/3": abs(
            sw.ncp_ar1(0.4, 1, 1.0, 1.0, 1.0, 0.5, 3.0) - 64.0 / 3.0
        ) <= 1e-12 * 64 / 3,
    }
    failed = [name for name, ok in checks.items() if not ok]
    report("7 closed-form checks at 1e-12", not failed, f"failed: {failed or 'none'}")


def test_criterion_8_distribution_oracles():
    # noncentral chi-square CDF vs a 10^7-draw Monte Carlo oracle
    params = sw.ChiSquareParams(df=5, ncp=10.0)
    mu = math.sqrt(10.0 / 5.0)
    gen = sw.SeedSpec(808).generator()
    hits = 0
    total = 10**7
    chunk = 10**6
    for _ in range(total // chunk):
        z = gen.standard_normal((chunk, 5)) + mu
        hits += int(((z**2).sum(axis=1) <= 12.0).sum())
    p_hat = hits / total
    se = math.sqrt(p_hat * (1.0 - p_hat) / total)
    cdf_val = sw.chisq_cdf(12.0, params)
    mc_ok = abs(cdf_val - p_hat) <= 3.0 * se

    inverse_ok = all(
        abs(sw.chisq_cdf(sw.chisq_quantile(p, df), sw.ChiSquareParams(df)) - p) <= 1e-8
        for p in (0.5, 0.9, 0.99)
        for df in (1, 5, 20)
    )
    report(
        "8 oracle equivalence (noncentral MC, quantile inverse)",
        mc_ok and inverse_ok,
        f"cdf {cdf_val:.6f} vs MC {p_hat:.6f} (3se={3 * se:.6f}); inverse ok={inverse_ok}",
    )


def test_criterion_9_engineering_determinism():
    plan_kwargs = dict(
        dgp=PresetRef("DGP1a", alpha1=0.5, sigma_uv=-0.90),
        n_grid=(120, 150),
        p0_grid=(0.40,),
        cfg_template=sw.StatisticConfig(m=3),
        replications=200,
        master_seed=MASTER_SEED,
    )
    bytes_by_workers = {
        w: sw.export_report(run_plan(ExperimentPlan(workers=w, **plan_kwargs)), "csv")
        for w in (1, 8)
    }
    plan_ok = bytes_by_workers[1] == bytes_by_workers[8]

    data_gen = sw.SeedSpec(3).generator()
    data = sw.RegressionData(data_gen.standard_normal(300), data_gen.standard_normal(300))
    outcomes = [
        sw.run_test(data, sw.Restriction.all_slopes(1), sw.StatisticConfig(m=7), sw.SeedSpec(55))
        for _ in range(2)
    ]
    test_ok = (
        outcomes[0].s_m == outcomes[1].s_m
        and outcomes[0].p_value == outcomes[1].p_value
        and np.array_equal(outcomes[0].s_n, outcomes[1].s_n)
    )
    report(
        "9 determinism (workers 1 vs 8 byte-identical; same-seed outcome)",
        plan_ok and test_ok,
        f"report bytes equal={plan_ok}, outcome equal={test_ok}",
    )


def test_criterion_10_invariance_suite():
    gen = sw.SeedSpec(4).generator()
    data = sw.RegressionData(gen.standard_normal(400), gen.standard_normal((400, 2)))
    cfg = sw.StatisticConfig(m=6)
    restriction = sw.Restriction.all_slopes(2)
    base = sw.run_test(data, restriction, cfg, sw.SeedSpec(66))
    scaled = sw.run_test(
        sw.RegressionData(2.5 * data.y, data.X), restriction, cfg, sw.SeedSpec(66)
    )
    shifted = sw.run_test(
        sw.RegressionData(data.y - 7.0, data.X), restriction, cfg, sw.SeedSpec(66)
    )
    inv_ok = (
        abs(scaled.s_m - base.s_m) <= 1e-9 * max(1.0, abs(base.s_m))
        and abs(shifted.s_m - base.s_m) <= 1e-9 * max(1.0, abs(base.s_m))
        and abs(scaled.p_value - base.p_value) <= 1e-9
        and abs(shifted.p_value - base.p_value) <= 1e-9
    )

    big = draw_bernoulli_weights(10**5, 0.40, sw.SeedSpec(67))
    sums_ok = abs(big.w.sum() - 10**5) <= 1e-9 * 10**5
    gen = sw.SeedSpec(68).generator()
    for k in range(300):
        n = int(gen.integers(2, 2000))
        p0 = float(gen.choice([0.30, 0.35, 0.40, 0.42, 0.58, 0.70]))
        ws = draw_bernoulli_weights(n, p0, sw.SeedSpec(68, k + 1))
        sums_ok &= abs(ws.w.sum() - n) <= 1e-9 * n
    report(
        "10 invariance suite (scale/shift <= 1e-9; weight sums within 1e-9*n)",
        inv_ok and sums_ok,
        f"outcome invariance={inv_ok}, weight sums={sums_ok}",
    )
