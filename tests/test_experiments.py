import json

import numpy as np
import pytest

from splitwald import (
    DegenerateVariance,
    EmptyReport,
    PlanParseError,
    PresetRef,
    StatisticConfig,
    TestMode,
    export_report,
    load_plan,
    plan_from_dict,
)
from splitwald.experiments import CellResult, ExperimentPlan, ExperimentReport, run_plan


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
        assert report.metadata["stream_layout"] == 2

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
        import splitwald.experiments as ex

        real = ex.run_test
        calls = {"n": 0}

        def flaky(data, restriction, cfg, seed):
            calls["n"] += 1
            if calls["n"] % 4 == 0:
                raise DegenerateVariance("forced", draw_index=1)
            return real(data, restriction, cfg, seed)

        monkeypatch.setattr(ex, "run_test", flaky)
        report = run_plan(tiny_plan())
        cell = report.cells[0]
        assert cell.degenerate == 25
        assert cell.replications == 75
        assert cell.flagged
        assert report.flagged


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

    def test_multi_alpha_column(self):
        rep = self.demo_report()
        rep.cells[0].alpha_vec = (0.75, 0.5, 0.25)
        line = export_report(rep, "csv").decode().strip().split("\n")[1]
        assert ",0.75|0.5|0.25," in line

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
        ],
    )
    def test_malformed_field_rejected_at_parse(self, override, field_name):
        with pytest.raises(PlanParseError, match=field_name):
            plan_from_dict({**self.valid_doc(), **override})

    def test_statistic_defaults_to_fixed_m5(self):
        doc = self.valid_doc()
        doc["statistic"] = {"alpha": "0.05"}
        cfg = plan_from_dict(doc).cfg_template
        assert cfg.mode is TestMode.FIXED_M_CHI_SQUARE
        assert (cfg.m, cfg.mn_delta, cfg.alpha) == (5, None, 0.05)

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

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(PlanParseError, match="line"):
            load_plan(path)

    def test_workers_override(self):
        plan = plan_from_dict(self.valid_doc(), workers=4)
        assert plan.workers == 4
