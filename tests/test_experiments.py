import csv
import io
import json
import os
import tracemalloc
import weakref

import numpy as np
import pytest

import splitwald.experiments as ex
import splitwald.teststats as ts
from splitwald import (
    ChiSquareParams,
    DgpSpec,
    EmptyReport,
    NumericOverflow,
    PlanParseError,
    PresetRef,
    Restriction,
    SeedSpec,
    StatisticConfig,
    TestMode,
    chisq_quantile,
    chisq_sf,
    export_report,
    load_plan,
    normal_sf,
    plan_from_dict,
    preset,
)
from splitwald import dgp
from splitwald.experiments import CellResult, ExperimentPlan, ExperimentReport, run_plan

from oracle import replication_bytes, replication_oracle, run_plan_oracle


def tiny_plan(**over):
    kwargs = dict(
        dgp=PresetRef("DGP1a", alpha1=0.0, sigma_uv=0.0),
        n_grid=(120,),
        p0_grid=(0.40,),
        cfg_template=StatisticConfig(m=3),
        replications=100,
        master_seed=99,
        workers=1,
    )
    kwargs.update(over)
    return ExperimentPlan(**kwargs)


class TestPlanValidation:
    def test_replication_floor(self):
        with pytest.raises(ValueError):
            tiny_plan(replications=50)

    def test_inadmissible_p0(self):
        from splitwald import InvalidP0

        with pytest.raises(InvalidP0):
            tiny_plan(p0_grid=(0.5,))

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            tiny_plan(n_grid=())

    def test_cell_enumeration_order(self):
        plan = tiny_plan(n_grid=(120, 240), p0_grid=(0.3, 0.4), beta_grid=(0.0, 0.1))
        cells = plan.cells()
        assert [c[0] for c in cells] == list(range(8))
        assert cells[0][1:] == (120, 0.3, 0.0)
        assert cells[-1][1:] == (240, 0.4, 0.1)


class TestRunPlan:
    def test_basic_size_cell(self):
        report = run_plan(tiny_plan())
        cell = report.cells[0]
        assert cell.replications == 100
        assert cell.degenerate == 0
        assert 0.0 <= cell.rejection_rate <= 1.0
        assert cell.mc_se == pytest.approx(
            np.sqrt(cell.rejection_rate * (1 - cell.rejection_rate) / 100)
        )
        assert report.metadata["master_seed"] == 99
        assert "software_version" in report.metadata
        assert report.metadata["stream_layout"] == 5

    def test_worker_count_does_not_change_bytes(self):
        r1 = run_plan(tiny_plan(workers=1, n_grid=(120, 150)))
        r2 = run_plan(tiny_plan(workers=2, n_grid=(120, 150)))
        assert export_report(r1, "csv") == export_report(r2, "csv")

    def test_worker_count_does_not_change_bytes_with_subset_and_stream(self):
        # each chunk carries a built Restriction and SeedSpec to the workers
        over = dict(
            dgp=PresetRef("DGP2a"), n_grid=(60, 80), seed_stream=3, restrict=(0, 2)
        )
        r1 = run_plan(tiny_plan(workers=1, **over))
        r2 = run_plan(tiny_plan(workers=2, **over))
        assert export_report(r1, "csv") == export_report(r2, "csv")

    def test_report_does_not_depend_on_the_scale_of_y(self):
        # theta0 = 2**-100 scales every error, and with beta = mu = 0 every y,
        # by exactly 2**-50, so no replication may turn degenerate
        def report(theta0):
            spec = DgpSpec(
                n=120, alpha=[1.0], c=[1.0], phi0=[0.0], beta=[0.0],
                omega=[[1.0, -0.9], [-0.9, 1.0]], rho=0.25, theta0=theta0, theta1=0.25,
            )  # fmt: skip
            return export_report(run_plan(tiny_plan(dgp=spec, replications=400)), "csv")

        assert report(2.0**-100) == report(1.0)

    @staticmethod
    def fake_pool(monkeypatch, cpus):
        """The ``max_workers`` of each pool run_plan opens, on a machine of
        ``cpus`` CPUs. A pool starts all max_workers processes at its first
        submit; the fake pool records them and runs the chunks here, so no
        process starts."""
        asked = []

        class FakePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(ex.concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return asked

    @pytest.mark.parametrize(
        "workers, chunk, replications, pools",
        [(8, 50, 100, [2]), (8, 250, 100, []), (2, 50, 150, [2])],
    )
    def test_pool_starts_no_idle_workers(
        self, monkeypatch, workers, chunk, replications, pools
    ):
        asked = self.fake_pool(monkeypatch, cpus=8)
        monkeypatch.setattr(ex, "CHUNK", chunk)
        report = run_plan(tiny_plan(workers=workers, replications=replications))
        assert asked == pools
        serial = run_plan(tiny_plan(replications=replications))
        assert export_report(report, "csv") == export_report(serial, "csv")

    @pytest.mark.parametrize("cpus, pools", [(4, [4]), (1, []), (None, [])])
    def test_pool_starts_no_more_workers_than_cpus(self, monkeypatch, cpus, pools):
        # 64 workers asked for a plan of 64 chunks; os.cpu_count() may be None
        asked = self.fake_pool(monkeypatch, cpus)
        monkeypatch.setattr(ex, "CHUNK", 2)
        report = run_plan(tiny_plan(workers=64, replications=128))
        assert asked == pools
        serial = run_plan(tiny_plan(replications=128))
        assert export_report(report, "csv") == export_report(serial, "csv")

    def test_progress_callback(self):
        seen = []
        run_plan(tiny_plan(), progress=lambda done, total: seen.append((done, total)))
        assert seen and seen[-1][0] == seen[-1][1]

    def test_nominal_size_calibration(self):
        # beta = 0 under satisfied assumptions: empirical size within
        # 3*mc_se + 0.01 of the nominal level at n >= 500
        plan = ExperimentPlan(
            dgp=PresetRef("DGP1a", alpha1=0.0, sigma_uv=-0.90),
            n_grid=(500,),
            p0_grid=(0.40,),
            cfg_template=StatisticConfig(m=5, alpha=0.10),
            replications=600,
            master_seed=7,
            workers=2,
        )
        cell = run_plan(plan).cells[0]
        assert abs(cell.rejection_rate - 0.10) <= 3 * cell.mc_se + 0.01

    def test_known_failure_scenario_still_runs(self):
        # stationary predictor + endogeneity + serial correlation breaks
        # least-squares consistency; the harness must still run and simply
        # record whatever distortion occurs
        plan = ExperimentPlan(
            dgp=PresetRef("DGP1c", alpha1=0.0, sigma_uv=-0.90),
            n_grid=(250,),
            p0_grid=(0.40,),
            cfg_template=StatisticConfig(m=4),
            replications=150,
            master_seed=31,
            workers=1,
        )
        cell = run_plan(plan).cells[0]
        assert 0.0 <= cell.rejection_rate <= 1.0
        assert cell.replications == 150

    def test_degenerate_replications_excluded_and_counted(self, monkeypatch):
        # the batch's statistics mark every fourth replication
        real = ts.StatisticSetup.statistics
        seen = {"n": 0}

        def flaky(setup, sums):
            s_n, d_bar, s_d2, degenerate = real(setup, sums)
            ordinal = seen["n"] + np.arange(1, len(degenerate) + 1)
            seen["n"] += len(degenerate)
            return s_n, d_bar, s_d2, degenerate | (ordinal % 4 == 0)

        monkeypatch.setattr(ts.StatisticSetup, "statistics", flaky)
        report = run_plan(tiny_plan())
        cell = report.cells[0]
        assert cell.degenerate == 25
        assert cell.replications == 75
        assert cell.flagged
        assert report.flagged


class TestBatches:
    """A chunk simulates its replications in one simulate_many call, whose
    batches are capped by dgp.SIM_BATCH_BYTES."""

    SPEC = preset("DGP1c", 120, alpha1=0.95, sigma_uv=-0.5, phi0=0.25, burn_in=50)
    CFG = StatisticConfig(m=4)
    RESTRICTION = Restriction.all_slopes(1)
    SEED = SeedSpec(21, 2)

    def chunk(self, start, stop):
        cell_id = 3
        return ex._run_chunk(
            (self.SPEC, self.CFG, self.RESTRICTION, self.SEED, cell_id, start, stop)
        )

    @pytest.mark.parametrize("width", [1, 16, 32, 96])
    def test_batch_width_does_not_change_counts(self, monkeypatch, width):
        # 96 replications run as 96 or 6 scalar batches, 3 array batches of
        # 32, or one array batch; each must match the one-at-a-time oracle,
        # which simulates from the replication's generator and then draws
        # from that same generator
        monkeypatch.setattr(dgp, "SIM_BATCH_BYTES", width * replication_bytes(self.SPEC))
        rejected = degenerate = 0
        for r in range(250, 346):
            gen = self.SEED.child(3, r).generator()
            decision = replication_oracle(self.SPEC, self.CFG, self.RESTRICTION, gen)
            if decision is None:
                degenerate += 1
            else:
                rejected += decision
        assert self.chunk(250, 346) == (3, rejected, degenerate)

    @staticmethod
    def batch_widths(monkeypatch):
        """Widths of the simulate batches, appended as each batch starts."""
        real = dgp._simulate_batch
        widths = []

        def batch(spec, seeds, start):
            widths.append(len(seeds))
            return real(spec, seeds, start)

        monkeypatch.setattr(dgp, "_simulate_batch", batch)
        return widths

    def test_one_generator_per_replication_alive_only_with_its_batch(self, monkeypatch):
        # every replication builds one generator, for its shocks and draws
        # alike; a simulate batch builds its own only, so a chunk never holds
        # much more than one batch's generators
        spec = preset("DGP1b", 1000, alpha1=1.0, sigma_uv=-0.9)
        cfg = StatisticConfig(p0=0.40, m=50)
        real = SeedSpec.generator
        built = []
        batches = self.batch_widths(monkeypatch)

        class Traced(np.random.Generator):  # a generator that takes weak references
            pass

        def spy(seed):
            alive = sum(ref() is not None for ref in built)
            assert alive <= batches[-1], alive
            gen = Traced(real(seed).bit_generator)
            built.append(weakref.ref(gen))
            return gen

        monkeypatch.setattr(SeedSpec, "generator", spy)
        payload = (spec, cfg, Restriction.all_slopes(1), SeedSpec(5), 0, 0, ex.CHUNK)
        ex._run_chunk(payload)
        assert len(built) == ex.CHUNK == 250 and sum(batches) == 250
        assert all(ref() is None for ref in built)

    def test_whole_chunk_batch_matches_the_former_cap(self, monkeypatch):
        # one 250-wide batch of DGP1b at n=1000 gives the bytes of the three
        # batches that the former 2 MiB cap made
        plan = ExperimentPlan(
            dgp=PresetRef("DGP1b", alpha1=1.0, sigma_uv=-0.9),
            n_grid=(1000,),
            p0_grid=(0.40,),
            cfg_template=StatisticConfig(m=50),
            replications=250,
            master_seed=2025,
        )
        batches = self.batch_widths(monkeypatch)
        wide = export_report(run_plan(plan), "csv")
        monkeypatch.setattr(dgp, "SIM_BATCH_BYTES", 2 * 2**20)
        assert export_report(run_plan(plan), "csv") == wide
        assert batches == [250, 84, 83, 83]

    def test_overflow_index_counts_earlier_batches(self, monkeypatch):
        # simulate_many names the failing seed by its position in the chunk's
        # seeds (test_dgp checks that across batches); the chunk adds its start
        real = ex.simulate_many

        def overflow_at_42(spec, seeds):
            yield from real(spec, seeds[:42])
            raise NumericOverflow("forced", index=42)

        monkeypatch.setattr(ex, "simulate_many", overflow_at_42)
        with pytest.raises(NumericOverflow, match=r"^cell 3, replication 292: forced$") as info:
            self.chunk(250, 330)
        assert info.value.index == 292

    def test_overflow_names_the_replication(self):
        # the explosive spec of test_dgp's overflow guard, through a plan
        spec = DgpSpec(
            n=5000, alpha=[1.0], c=[1.0], phi0=[1e10], beta=[0.0],
            omega=np.eye(2), burn_in=0,
        )  # fmt: skip
        plan = tiny_plan(dgp=spec, n_grid=(5000,), replications=100)
        with pytest.raises(NumericOverflow, match=r"cell 0, replication 0: simulated state"):
            run_plan(plan)


def oracle_plan(name, cfg, restrict="all", workers=1, n_grid=(80,)):
    kwargs = {"alpha1": 0.9, "sigma_uv": -0.5} if name.startswith("DGP1") else {}
    return ExperimentPlan(
        dgp=PresetRef(name, **kwargs),
        n_grid=n_grid,
        p0_grid=(0.40,),
        beta_grid=(0.0, 0.3),
        cfg_template=cfg,
        replications=100,
        master_seed=17,
        workers=workers,
        restrict=restrict,
    )


ORACLE_CONFIGS = {
    "fixed": StatisticConfig(m=4),
    "growing": StatisticConfig.growing(mn_delta=1.0 / 3.0),
}


class TestAgainstOracle:
    """run_plan's reject and degenerate counts equal those of the
    per-replication path: the per-dataset fit, the closed form of a
    one-replication set-up and the p-value against alpha."""

    @staticmethod
    def assert_counts_match(plan):
        expected = run_plan_oracle(plan)
        report = run_plan(plan)
        got = [
            (round(c.rejection_rate * c.replications), c.degenerate) for c in report.cells
        ]
        assert got == expected
        # the counts are informative: the slope of 0.3 is rejected at least once
        assert sum(rejected for rejected, _ in expected) > 0

    @pytest.mark.parametrize("mode", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("name", dgp.PRESET_NAMES)
    def test_every_preset(self, name, mode):
        self.assert_counts_match(oracle_plan(name, ORACLE_CONFIGS[mode]))

    @pytest.mark.parametrize("mode", sorted(ORACLE_CONFIGS))
    @pytest.mark.parametrize("restrict", [(1,), (0, 2)])
    @pytest.mark.parametrize("name", ["DGP2a", "DGP2c_ii"])
    def test_subset_restrictions_with_three_predictors(self, name, restrict, mode):
        self.assert_counts_match(oracle_plan(name, ORACLE_CONFIGS[mode], restrict))

    @pytest.mark.parametrize("mode", sorted(ORACLE_CONFIGS))
    def test_gated_cell_in_one_batch(self, mode):
        # the benchmark's cell, DGP1b with alpha1=1 at n=1000: a chunk of 250
        # replications is one 250-wide simulate batch and one fit
        cfg = {
            "fixed": StatisticConfig(m=50),
            "growing": StatisticConfig.growing(mn_delta=1.0 / 3.0),
        }[mode]
        plan = ExperimentPlan(
            dgp=PresetRef("DGP1b", alpha1=1.0, sigma_uv=-0.9),
            n_grid=(1000,),
            p0_grid=(0.40,),
            beta_grid=(0.0, 0.01),
            cfg_template=cfg,
            replications=ex.CHUNK,
            master_seed=17,
        )
        self.assert_counts_match(plan)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_counts(self, workers):
        cfg = ORACLE_CONFIGS["growing"]
        plan = oracle_plan("DGP2b", cfg, (0, 2), workers=workers, n_grid=(80, 120))
        self.assert_counts_match(plan)


class TestDecision:
    """The chunk decides a fixed-M replication by teststats.reject_rule: the
    critical value, with the p-value taken only near it; every decision
    equals p < alpha."""

    @staticmethod
    def edge_points(crit):
        lo, hi = crit * (1.0 - ts.GUARD_BAND), crit * (1.0 + ts.GUARD_BAND)
        points = [crit, np.nextafter(crit, -np.inf), np.nextafter(crit, np.inf)]
        for edge in (lo, hi):
            points += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf)]
        return [float(s) for s in points]

    @staticmethod
    def by_p_value(s_m, m, alpha):
        return chisq_sf(s_m, ChiSquareParams(df=m)) < alpha

    @pytest.mark.parametrize("m, alpha", [(1, 0.10), (4, 0.05), (18, 0.01), (50, 0.10)])
    def test_chunk_decisions_at_the_critical_value(self, monkeypatch, m, alpha):
        points = self.edge_points(chisq_quantile(1.0 - alpha, m))
        calls = iter(points)

        def at_points(setup, sums):
            s_n = np.array([[next(calls)] for _ in range(len(sums))])
            return s_n, None, None, np.zeros(len(sums), dtype=bool)

        monkeypatch.setattr(ts.StatisticSetup, "statistics", at_points)
        spec = preset("DGP1a", 40, alpha1=0.0, burn_in=10)
        cfg = StatisticConfig(m=m, alpha=alpha)
        payload = (spec, cfg, Restriction.all_slopes(1), SeedSpec(3), 0, 0, len(points))
        expected = sum(self.by_p_value(s, m, alpha) for s in points)
        assert 0 < expected < len(points)
        assert ex._run_chunk(payload) == (0, expected, 0)

    @pytest.mark.parametrize("shift", [1.01, 0.99])
    def test_rule_equals_p_value_when_the_band_misses(self, monkeypatch, shift):
        # a critical value off by 1% fails the band check, and every decision
        # then takes the p-value
        m, alpha = 5, 0.10
        crit = chisq_quantile(1.0 - alpha, m)
        monkeypatch.setattr(ts, "chisq_quantile", lambda prob, df: shift * crit)
        rule = ts.reject_rule(StatisticConfig(m=m, alpha=alpha), m)
        points = self.edge_points(crit) + self.edge_points(shift * crit)
        for s in points:
            assert rule(s) == self.by_p_value(s, m, alpha)

    def test_growing_mode_takes_the_normal_p_value(self):
        cfg = StatisticConfig.growing(mn_delta=1.0 / 3.0)
        rule = ts.reject_rule(cfg, 17)
        for s in np.linspace(0.0, 60.0, 601):
            q = (s - 17) / np.sqrt(34.0)
            assert rule(float(s)) == (min(2.0 * normal_sf(abs(q)), 1.0) < cfg.alpha)


def test_chunk_peak_memory_is_bounded():
    # one chunk of a cell: the simulate batch, one draw block of M * n, and
    # 1 MiB of slack for the batch's generators, its (R, M, 4) sums and the
    # few (R, M) arrays that score them; the fit runs in the batch's buffer
    # (measured at 0.71 MiB with numpy 2.4 on the DGP1b, n=1000, M=50 cell,
    # whose one 4.58 MiB batch holds 250 generators; -0.50 MiB on the
    # DGP2c_ii, n=2000, M=18 cell, whose 4.2 MiB batches leave room under
    # the cap)
    cases = [
        (preset("DGP1b", 1000, alpha1=1.0, sigma_uv=-0.9), StatisticConfig(p0=0.40, m=50)),
        (preset("DGP2c_ii", 2000), StatisticConfig.growing(mn_delta=1.0 / 3.0, p0=0.30)),
    ]
    for spec, cfg in cases:
        restriction = Restriction.all_slopes(spec.p)
        payload = (spec, cfg, restriction, SeedSpec(5), 0, 0, ex.CHUNK)
        ex._run_chunk(payload[:-2] + (0, 20))  # first-call allocations
        tracemalloc.start()
        try:
            ex._run_chunk(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        m = cfg.resolve_m(spec.n)
        assert peak <= dgp.SIM_BATCH_BYTES + m * spec.n * 8 + 2**20, (spec.label, m, peak)


class TestExport:
    def demo_report(self):
        cell = CellResult(
            dgp_label="DGP1a",
            n=500,
            p0=0.4,
            alpha_vec=(1.0,),
            beta=0.0,
            rejection_rate=0.0925,
            mc_se=0.0064758,
            replications=2000,
        )
        return ExperimentReport(cells=[cell], metadata={"master_seed": 1})

    def test_csv_layout(self):
        text = export_report(self.demo_report(), "csv").decode()
        lines = text.strip().split("\n")
        assert lines[0] == "dgp,n,p0,alpha,beta,rejection_rate,mc_se,reps"
        assert lines[1] == "DGP1a,500,0.4,1,0,0.0925,0.0064758,2000"

    @pytest.mark.parametrize(
        "label", ["my,dgp", 'say "x"', "cr\rx", "lf\nx", "my,dgp\nx", "a\r\nb"]
    )
    def test_csv_label_round_trips(self, label):
        # a comma, quote, CR or LF in a label is quoted, not a new field or row
        rep = self.demo_report()
        rep.cells[0].dgp_label = label
        rep.cells.append(self.demo_report().cells[0])
        text = export_report(rep, "csv").decode()
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [len(row) for row in rows] == [8, 8, 8]
        assert rows[1][0] == label
        assert rows[2] == "DGP1a,500,0.4,1,0,0.0925,0.0064758,2000".split(",")
        assert text.endswith("\n") and not text.endswith("\r\n")

    def test_multi_alpha_column(self):
        rep = self.demo_report()
        rep.cells[0].alpha_vec = (0.75, 0.5, 0.25)
        line = export_report(rep, "csv").decode().strip().split("\n")[1]
        assert ",0.75|0.5|0.25," in line

    def test_json_writes_null_for_a_cell_without_rate(self):
        # theta0 = 5e-324 underflows every error to zero, so every
        # replication is degenerate and the rate is not a number
        spec = DgpSpec(
            n=120, alpha=[1.0], c=[1.0], phi0=[0.0], beta=[0.0],
            omega=[[1.0, -0.9], [-0.9, 1.0]], theta0=5e-324,
        )  # fmt: skip
        report = run_plan(tiny_plan(dgp=spec))
        assert report.cells[0].degenerate == 100
        assert export_report(report, "csv").decode().endswith(",nan,nan,0\n")

        def no_constants(token):
            raise ValueError(f"not JSON: {token}")

        doc = json.loads(export_report(report, "json"), parse_constant=no_constants)
        cell = doc["cells"][0]
        assert cell["rejection_rate"] is None and cell["mc_se"] is None

    def test_json_round_trip_full_precision(self):
        rep = self.demo_report()
        rep.cells[0].rejection_rate = 0.123456789012345
        doc = json.loads(export_report(rep, "json").decode())
        assert doc["cells"][0]["rejection_rate"] == 0.123456789012345
        assert doc["metadata"]["master_seed"] == 1

    def test_empty_report(self):
        with pytest.raises(EmptyReport):
            export_report(ExperimentReport(cells=[]), "csv")


class TestPlanFiles:
    def valid_doc(self):
        return {
            "dgp": {"preset": "DGP1a", "alpha1": 0.0, "sigma_uv": -0.9},
            "n_grid": [120],
            "p0_grid": [0.40],
            "statistic": {"mode": "fixed", "m": 3},
            "replications": 100,
            "master_seed": 5,
        }

    def test_valid_plan_parses(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.valid_doc()))
        plan = load_plan(path)
        assert plan.n_grid == (120,)
        assert plan.cfg_template.m == 3
        report = run_plan(plan)
        assert report.cells[0].replications == 100

    def test_unknown_field(self):
        doc = self.valid_doc()
        doc["bogus"] = 1
        with pytest.raises(PlanParseError, match="bogus"):
            plan_from_dict(doc)

    def test_missing_field(self):
        doc = self.valid_doc()
        del doc["master_seed"]
        with pytest.raises(PlanParseError, match="master_seed"):
            plan_from_dict(doc)

    def test_degenerate_p0_rejected(self):
        doc = self.valid_doc()
        doc["p0_grid"] = [0.5]
        with pytest.raises(PlanParseError):
            plan_from_dict(doc)

    def test_unknown_mode(self):
        doc = self.valid_doc()
        doc["statistic"]["mode"] = "sideways"
        with pytest.raises(PlanParseError, match="mode"):
            plan_from_dict(doc)

    @pytest.mark.parametrize("m", [3.7, True, "5"])
    def test_non_integral_m_rejected(self, m):
        # no coercion: 3.7 would run with M=3 and true with M=1
        doc = self.valid_doc()
        doc["statistic"]["m"] = m
        with pytest.raises(PlanParseError, match="m must be an integer"):
            plan_from_dict(doc)

    @pytest.mark.parametrize(
        "override, field_name",
        [
            # accepted before through int() truncation or bool-as-int
            ({"n_grid": [120.7]}, "n_grid"),
            ({"n_grid": "500"}, "n_grid"),
            ({"replications": 150.9}, "replications"),
            ({"master_seed": 5.5}, "master_seed"),
            ({"master_seed": True}, "master_seed"),
            ({"workers": True}, "workers"),
            # accepted before, failing only once the plan ran
            ({"dgp": {"preset": "DGP2a", "burn_in": 50.9}}, "burn_in"),
            ({"dgp": {"preset": "DGP2a", "burn_in": -3}}, "burn_in"),
            ({"dgp": {"preset": "DGP2a"}, "restrict": [5]}, "restrict"),
            ({"dgp": {"preset": "DGP2a"}, "restrict": [-1]}, "restrict"),
            ({"dgp": {"preset": "DGP2a"}, "restrict": [True]}, "restrict"),
            ({"dgp": {"preset": "DGP9"}}, "preset"),
            ({"dgp": {"preset": "DGP1a"}}, "alpha1"),
            # the plan's seed_stream is the stream_id of its SeedSpec
            ({"seed_stream": -1}, "stream_id"),
            # raised TypeError, not PlanParseError, before
            ({"statistic": None}, "statistic"),
            ({"dgp": {"spec": 5}}, "dgp.spec"),
            # set per cell from p0_grid and beta_grid, so not plan-file keys
            ({"statistic": {"p0": 0.4}}, "p0"),
            ({"dgp": {"preset": "DGP2a", "beta": 0.1}}, "beta"),
            # text and flags were read as numbers through float() before
            ({"p0_grid": ["0.4"]}, "p0_grid"),
            ({"beta_grid": [True]}, "beta_grid"),
            ({"beta_grid": [0.0, "0.1"]}, "beta_grid"),
            ({"dgp": {"preset": "DGP1a", "alpha1": True}}, "alpha1"),
            ({"dgp": {"preset": "DGP1a", "alpha1": 0.5, "sigma_uv": "-0.9"}}, "sigma_uv"),
            ({"dgp": {"preset": "DGP2a", "phi0": False}}, "phi0"),
            ({"statistic": {"alpha": "0.05"}}, "alpha"),
            ({"statistic": {"mn_delta": True}}, "mn_delta"),
            # an integer beyond the float range is not finite
            ({"dgp": {"preset": "DGP1a", "alpha1": 10**400}}, "alpha1"),
            ({"p0_grid": [10**400]}, "p0_grid"),
            ({"statistic": {"alpha": -(10**400)}}, "alpha"),
        ],
    )
    def test_malformed_field_rejected_at_parse(self, override, field_name):
        with pytest.raises(PlanParseError, match=field_name):
            plan_from_dict({**self.valid_doc(), **override})

    def test_statistic_defaults_to_fixed_m5(self):
        doc = self.valid_doc()
        doc["statistic"] = {"alpha": 0.05}
        cfg = plan_from_dict(doc).cfg_template
        assert cfg.mode is TestMode.FIXED_M_CHI_SQUARE
        assert (cfg.m, cfg.mn_delta, cfg.alpha) == (5, None, 0.05)

    def test_integer_reals_accepted(self):
        doc = self.valid_doc()
        doc["dgp"] = {"preset": "DGP1a", "alpha1": 1, "sigma_uv": 0, "phi0": np.int64(0)}
        doc["beta_grid"] = [0, 1]
        plan = plan_from_dict(doc)
        assert plan.beta_grid == (0.0, 1.0)
        assert all(type(v) is float for v in plan.beta_grid)
        spec, _, _ = plan.build_cell(plan.n_grid[0], plan.p0_grid[0], 1.0)
        assert (spec.alpha[0], spec.omega[0, 1], spec.phi0[0]) == (1.0, 0.0, 0.0)

    def test_custom_spec_plan(self):
        doc = self.valid_doc()
        doc["dgp"] = {
            "spec": {
                "alpha": [0.0, 0.0],
                "c": 0.5,
                "omega": np.eye(3).tolist(),
                "theta0": 1.0,
                "label": "custom2",
            }
        }
        plan = plan_from_dict(doc)
        report = run_plan(plan)
        assert report.cells[0].dgp_label == "custom2"
        assert report.cells[0].alpha_vec == (0.0, 0.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            # read as 1.0, 0.3 and 1.0 through float() before
            ("alpha", [True]),
            ("rho", "0.3"),
            ("theta0", True),
            ("c", ["1", 1.0]),
            ("phi0", [float("nan"), 0.0]),
            ("rho", np.bool_(False)),
            ("omega", [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, "1"]]),
            ("theta1", float("inf")),
            ("mu", 10**400),
        ],
    )
    def test_custom_spec_reals_rejected_at_parse(self, field, value):
        spec = {"alpha": [0.0, 0.0], "c": 0.5, "omega": np.eye(3).tolist(), field: value}
        doc = {**self.valid_doc(), "dgp": {"spec": spec}}
        with pytest.raises(PlanParseError, match=f"dgp.spec: {field} must be a finite real"):
            plan_from_dict(doc)

    def test_custom_spec_integer_reals_accepted(self):
        spec = {"alpha": [0, 1], "c": [1, 1], "omega": np.eye(3, dtype=int).tolist(), "mu": 2}
        plan = plan_from_dict({**self.valid_doc(), "dgp": {"spec": spec}})
        built, _, _ = plan.build_cell(plan.n_grid[0], plan.p0_grid[0], 0.0)
        assert built.alpha.dtype == built.omega.dtype == np.float64
        assert built.alpha.tolist() == [0.0, 1.0] and built.omega.tolist() == np.eye(3).tolist()
        assert type(built.mu) is float and built.mu == 2.0

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PlanParseError, match="line"):
            load_plan(path)

    def test_workers_override(self):
        plan = plan_from_dict(self.valid_doc(), workers=4)
        assert plan.workers == 4
