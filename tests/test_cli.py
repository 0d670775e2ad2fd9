import json
import tracemalloc

import pytest

from splitwald import SeedSpec, cli, preset
from splitwald.cli import main


@pytest.fixture
def sample_csv(tmp_path):
    gen = SeedSpec(31).generator()
    n = 501
    x1 = gen.standard_normal(n).cumsum() * 0.05
    x2 = gen.standard_normal(n)
    y = 0.3 + gen.standard_normal(n)
    path = tmp_path / "series.csv"
    lines = ["date,y,x1,x2"]
    for t in range(n):
        lines.append(f"2000-{t},{y[t]:.10f},{x1[t]:.10f},{x2[t]:.10f}")
    path.write_text("\n".join(lines) + "\n")
    return path


def run_cli(args):
    return main([str(a) for a in args])


def grid_argv(command, grid):
    """A ``theory --grid`` or ``power --beta-grid`` call on ``grid``."""
    if command == "theory":
        return ["theory", "--curve", "g", "--grid", grid]
    return ["power", "--preset", "DGP1a", "--n", "150", "--alpha1", "0.0",
            "--sigma-uv", "0.0", "--beta-grid", grid, "--reps", "10"]  # fmt: skip


class TestTestCommand:
    def test_basic_run(self, sample_csv, capsys, tmp_path):
        out_path = tmp_path / "outcome.json"
        code = run_cli(
            ["test", sample_csv, "--y", "y", "--x", "x1,x2", "--restrict", "all",
             "--p0", "0.40", "--m", "5", "--alpha", "0.10", "--seed", "7",
             "--out", out_path]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "S_M" in captured.out and "p-value" in captured.out
        doc = json.loads(out_path.read_text())
        assert doc["m"] == 5
        assert doc["seed"]["master_seed"] == 7
        assert len(doc["per_draw"]) == 5
        assert doc["stream_layout"] == 5

    def test_failed_allocation_exits_2_with_one_error_line(self, tmp_path, capsys):
        # 10**12 draws of 29 observations would take 211 TiB; numpy refuses
        # the block at once, so nothing is allocated
        lines = ["y,x1"] + [f"{0.1 * t},{(-1) ** t * 0.3 * t}" for t in range(30)]
        path = tmp_path / "small.csv"
        path.write_text("\n".join(lines) + "\n")
        code = run_cli(["test", path, "--y", "y", "--x", "x1", "--m", 10**12])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR:MemoryError:")
        assert captured.err.count("\n") == 1

    def test_same_seed_same_p_value(self, sample_csv, capsys):
        run_cli(["test", sample_csv, "--y", "y", "--x", "x1", "--seed", "0x2A"])
        first = capsys.readouterr().out
        run_cli(["test", sample_csv, "--y", "y", "--x", "x1", "--seed", "42"])
        second = capsys.readouterr().out
        assert first == second  # hex and decimal seed forms agree too

    def test_p0_half_rejected(self, sample_csv, capsys):
        code = run_cli(["test", sample_csv, "--y", "y", "--x", "x1", "--p0", "0.5"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("ERROR:InvalidP0:")
        assert "one-half" in captured.err or "0.5" in captured.err

    def test_restrict_subset_by_name(self, sample_csv, capsys):
        code = run_cli(
            ["test", sample_csv, "--y", "y", "--x", "x1,x2", "--restrict", "x2"]
        )
        assert code == 0

    def test_restrict_unknown_name(self, sample_csv, capsys):
        code = run_cli(
            ["test", sample_csv, "--y", "y", "--x", "x1", "--restrict", "nope"]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR:ColumnMissing:")

    def test_missing_column(self, sample_csv, capsys):
        code = run_cli(["test", sample_csv, "--y", "zzz", "--x", "x1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR:ColumnMissing:")

    def test_missing_value_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "gappy.csv"
        path.write_text("y,x\n1.0,2.0\n,3.0\n2.0,4.0\n" + "1,1\n" * 20)
        code = run_cli(["test", path, "--y", "y", "--x", "x"])
        assert code == 2
        assert "missing value" in capsys.readouterr().err

    def test_too_few_rows(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("y,x\n1.0,2.0\n2.0,3.0\n3.0,4.0\n")
        code = run_cli(["test", path, "--y", "y", "--x", "x"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR:TooFewRows:")

    def test_mutually_exclusive_m_flags(self, sample_csv, capsys):
        code = run_cli(
            ["test", sample_csv, "--y", "y", "--x", "x1", "--m", "5",
             "--mn-delta", "0.5"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:ValueError:") and "mutually exclusive" in err

    def test_unknown_flag_is_an_error(self, sample_csv, capsys):
        code = run_cli(
            ["test", sample_csv, "--y", "y", "--x", "x1", "--frobnicate", "1"]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "ERROR:SplitwaldError: unrecognized arguments: --frobnicate 1\n"
        )

    def test_bad_flag_value_is_one_error_line(self, sample_csv, capsys):
        # argparse printed its usage text and raised SystemExit here before
        assert run_cli(["test", sample_csv, "--y", "y", "--x", "a", "--m", "3.5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "ERROR:SplitwaldError: argument --m: invalid int value: '3.5'\n"
        )

    def test_empty_predictor_list(self, sample_csv, capsys):
        assert run_cli(["test", sample_csv, "--y", "y", "--x", ","]) == 2
        assert capsys.readouterr().err == (
            "ERROR:SplitwaldError: --x needs at least one predictor column\n"
        )

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "absent.csv"
        assert run_cli(["test", path, "--y", "y", "--x", "x"]) == 2
        assert capsys.readouterr().err == (
            f"ERROR:SplitwaldError: input file not found: {path}\n"
        )

    def test_empty_file(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run_cli(["test", path, "--y", "y", "--x", "x"]) == 2
        assert capsys.readouterr().err == f"ERROR:TooFewRows: {path}: empty file\n"


class TestSimulateCommand:
    def plan_doc(self):
        return {
            "dgp": {"preset": "DGP1a", "alpha1": 0.0, "sigma_uv": 0.0},
            "n_grid": [120],
            "p0_grid": [0.40],
            "statistic": {"mode": "fixed", "m": 3},
            "replications": 120,
            "master_seed": 13,
        }

    def test_simulate_and_worker_determinism(self, tmp_path, capsys):
        plan = tmp_path / "tiny.plan"
        plan.write_text(json.dumps(self.plan_doc()))
        out1 = tmp_path / "r1.csv"
        out2 = tmp_path / "r2.csv"
        assert run_cli(["simulate", plan, "--out", out1, "--workers", "1"]) == 0
        assert run_cli(["simulate", plan, "--out", out2, "--workers", "2"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert capsys.readouterr().err.count("wrote") == 2

    def test_json_format(self, tmp_path):
        plan = tmp_path / "tiny.plan"
        plan.write_text(json.dumps(self.plan_doc()))
        out = tmp_path / "report.json"
        assert run_cli(["simulate", plan, "--out", out, "--format", "json"]) == 0
        doc = json.loads(out.read_text())
        assert doc["cells"][0]["reps"] == 120
        assert doc["metadata"]["master_seed"] == 13
        assert doc["metadata"]["stream_layout"] == 5

    def test_flagged_plan_exit_code(self, tmp_path, capsys):
        # theta0 = 5e-324 underflows every error to zero, so every
        # replication is degenerate and the cell exceeds the limit
        doc = self.plan_doc()
        doc["dgp"] = {
            "spec": {"alpha": [0], "c": [0.5], "omega": [[1, 0], [0, 1]], "theta0": 5e-324}
        }
        doc["replications"] = 100
        doc["master_seed"] = 1
        plan = tmp_path / "flagged.plan"
        plan.write_text(json.dumps(doc))
        out = tmp_path / "report.json"
        assert run_cli(["simulate", plan, "--out", out, "--format", "json"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("ERROR:ExcessDegeneracies:")
        assert json.loads(out.read_text())["cells"][0]["reps"] == 0

    def test_bad_plan_exit_code(self, tmp_path, capsys):
        plan = tmp_path / "bad.plan"
        doc = self.plan_doc()
        doc["p0_grid"] = [0.5]
        plan.write_text(json.dumps(doc))
        code = run_cli(["simulate", plan, "--out", tmp_path / "x.csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR:PlanParseError:")

    def test_out_of_range_restrict_exit_code(self, tmp_path, capsys):
        plan = tmp_path / "bad.plan"
        doc = self.plan_doc()
        doc["dgp"] = {"preset": "DGP2a"}
        doc["restrict"] = [5]
        plan.write_text(json.dumps(doc))
        code = run_cli(["simulate", plan, "--out", tmp_path / "x.csv"])
        assert code == 2
        # one machine-parsable line, no traceback
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:PlanParseError:")

    def test_deeply_nested_plan_exit_code(self, tmp_path, capsys):
        # json's decoder recurses once per level and gives up before 100,000
        plan = tmp_path / "deep.plan"
        plan.write_text('{"dgp": ' + "[" * 100_000 + "]" * 100_000 + "}")
        code = run_cli(["simulate", plan, "--out", tmp_path / "x.csv"])
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("ERROR:PlanParseError:")
        assert "nested too deeply" in lines[0]

    @pytest.mark.parametrize("deepest", [False, True])
    @pytest.mark.parametrize(
        "field, template",
        [
            ("n_grid entry", '"n_grid": [{}], "p0_grid": [0.4]'),
            ("mode", '"n_grid": [500], "p0_grid": [0.4], "statistic": {{"mode": {}}}'),
        ],
        ids=["n_grid", "mode"],
    )
    def test_nested_plan_value_names_its_field(
        self, tmp_path, capsys, field, template, deepest
    ):
        # a value nested 900 deep, or as deep as json still parses here
        # (about 950-990 levels, by the stack in use): the message shows the
        # value in brief and names the field, on one short line
        plan = tmp_path / "nested.plan"
        for depth in range(1000 if deepest else 900, 0, -1):
            value = template.format("[" * depth + "]" * depth)
            plan.write_text(
                '{"dgp": {"preset": "DGP2a"}, ' + value
                + ', "replications": 100, "master_seed": 1}'
            )
            code = run_cli(["simulate", plan, "--out", tmp_path / "x.csv"])
            lines = capsys.readouterr().err.splitlines()
            if "nested too deeply" not in lines[0]:
                break
        assert depth >= 900 and code == 2
        assert len(lines) == 1 and lines[0].startswith("ERROR:PlanParseError:")
        assert field in lines[0] and len(lines[0]) < 200

    def test_bundled_plan_parses(self, tmp_path):
        from importlib import resources

        plan_text = (
            resources.files("splitwald") / "plans" / "table1_desk.plan"
        ).read_text()
        plan = tmp_path / "table1.plan"
        plan.write_text(plan_text)
        out = tmp_path / "cell.csv"
        # desk-scale override keeps the smoke test quick
        assert run_cli(
            ["simulate", plan, "--out", out, "--replications", "100", "--workers", "2"]
        ) == 0
        header = out.read_text().splitlines()[0]
        assert header == "dgp,n,p0,alpha,beta,rejection_rate,mc_se,reps"


class TestTheoryCommand:
    def test_f_single_point(self, capsys):
        assert run_cli(["theory", "--curve", "f", "--grid", "0.4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0] == "p0,f"
        assert float(out[1].split(",")[1]) == pytest.approx(24.0)

    def test_g_grid_shape(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run_cli(
            ["theory", "--curve", "g", "--grid", "0.05:0.95:0.01", "--out", out]
        ) == 0
        rows = out.read_text().strip().splitlines()[1:]
        values = [float(r.split(",")[1]) for r in rows]
        # inverted-U (in accuracy terms: minimum at the middle, asymptote
        # growth toward the boundaries)
        mid = len(values) // 2
        assert values[0] > values[mid] and values[-1] > values[mid]
        assert min(values) >= 1.0

    @pytest.mark.parametrize("curve, rows", [("f", 90), ("g", 91), ("elasticity", 90)])
    def test_default_grid_skips_the_pole(self, curve, rows, capsys):
        # 0.05:0.95:0.01 lands on 0.5, the pole of f and of the elasticity
        assert run_cli(["theory", "--curve", curve]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == f"p0,{curve}"
        p0s = [line.split(",")[0] for line in out[1:]]
        assert len(p0s) == rows
        assert ("0.5" in p0s) == (curve == "g")

    @pytest.mark.parametrize("curve", ["f", "elasticity"])
    def test_explicit_grid_through_the_pole(self, curve, capsys):
        assert run_cli(["theory", "--curve", curve, "--grid", "0.05:0.95:0.01"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("ERROR:InvalidP0:")

    def test_power_vs_m_curve(self, capsys):
        assert run_cli(
            ["theory", "--curve", "power_vs_m", "--lam", "2", "--m-max", "8"]
        ) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert rows[0] == "m,power"
        power = [float(r.split(",")[1]) for r in rows[1:]]
        assert len(power) == 8
        assert all(b > a for a, b in zip(power, power[1:]))

    @pytest.mark.parametrize("lam", ["inf", "nan"])
    def test_non_finite_lam(self, lam, capsys):
        assert run_cli(["theory", "--curve", "power_vs_m", "--lam", lam]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR:InvalidGrid: --lam")
        assert captured.err.count("\n") == 1

    def test_invalid_grid(self, capsys):
        assert run_cli(["theory", "--curve", "f", "--grid", "0.9:0.1:0.01"]) == 2
        assert capsys.readouterr().err.startswith("ERROR:InvalidGrid:")

    def test_grid_of_two_parts(self, capsys):
        assert run_cli(["theory", "--curve", "f", "--grid", "1:2"]) == 2
        assert capsys.readouterr().err == (
            "ERROR:InvalidGrid: bad grid '1:2': expected VALUE or LO:HI:STEP\n"
        )

    # 0:1e308:1e-308 has finite bounds but an infinite point count
    @pytest.mark.parametrize(
        "grid", ["0:inf:0.1", "0:1:inf", "0:nan:0.1", "inf:inf:1", "nan", "0:1e308:1e-308"]
    )
    @pytest.mark.parametrize("command", ["theory", "power"])
    def test_non_finite_grid(self, command, grid, capsys):
        assert run_cli(grid_argv(command, grid)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR:InvalidGrid:")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["theory", "power"])
    def test_oversized_grid_is_rejected_before_it_is_listed(self, command, capsys):
        # listed, 10**9 points would take about 40 GB
        tracemalloc.start()
        try:
            code = run_cli(grid_argv(command, "0:1e9:1"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR:InvalidGrid:")
        assert captured.err.count("\n") == 1
        assert peak < 2**20

    def test_oversized_m_max_is_rejected_before_any_row(self, capsys, monkeypatch):
        # 10**9 rows would run for hours: no power is computed at all
        monkeypatch.setattr(cli, "asymptotic_power", None)
        code = run_cli(["theory", "--curve", "power_vs_m", "--m-max", 10**9])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ERROR:InvalidGrid:")
        assert captured.err.count("\n") == 1


class TestMisc:
    def test_power_command_smoke(self, tmp_path):
        out = tmp_path / "power.csv"
        code = run_cli(
            ["power", "--preset", "DGP1a", "--n", "150", "--alpha1", "0.0",
             "--sigma-uv", "0.0", "--beta-grid", "0:0.4:0.2", "--m", "3",
             "--reps", "100", "--seed", "3", "--out", out]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "beta,rejection_rate,mc_se"
        betas = [float(r.split(",")[0]) for r in rows[1:]]
        assert betas == sorted(betas) == [0.0, 0.2, 0.4]

    def test_power_preset_name_in_any_case(self, tmp_path):
        outputs = []
        for name in ("DGP1a", "dgp1a"):
            out = tmp_path / f"{name}.csv"
            code = run_cli(
                ["power", "--preset", name, "--n", "150", "--alpha1", "0.0",
                 "--beta-grid", "0:0.2:0.2", "--m", "3", "--reps", "100",
                 "--seed", "3", "--out", out]
            )  # fmt: skip
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_power_unknown_preset(self, capsys):
        code = run_cli(["power", "--preset", "nope", "--n", "150", "--alpha1", "0.0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:UnknownPreset: unknown preset 'nope'")
        assert err.count("\n") == 1

    def test_power_mutually_exclusive_m_flags(self, capsys):
        code = run_cli(
            ["power", "--preset", "DGP1a", "--n", "150", "--alpha1", "0.0",
             "--m", "3", "--mn-delta", "0.5", "--reps", "100"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR:ValueError:") and "mutually exclusive" in err

    def test_presets_listing(self, capsys):
        assert run_cli(["presets"]) == 0
        assert capsys.readouterr().out == (
            "DGP1a: rho=0.0, theta0=2.5, theta1=0.0; alpha1 and sigma_uv selectable; p=1\n"
            "DGP1b: rho=0.0, theta0=2.5, theta1=0.25; alpha1 and sigma_uv selectable; p=1\n"
            "DGP1c: rho=0.25, theta0=2.5, theta1=0.25; alpha1 and sigma_uv selectable; p=1\n"
            "DGP2a: rho=0.0, theta0=1.5, theta1=0.25; alphas=(0.0, 0.0, 0.0); p=3\n"
            "DGP2b: rho=0.0, theta0=1.5, theta1=0.25; alphas=(0.75, 0.5, 0.25); p=3\n"
            "DGP2c_i: rho=0.0, theta0=1.5, theta1=0.25; alphas=(1.0, 1.0, 1.0); p=3\n"
            "DGP2c_ii: rho=0.25, theta0=1.5, theta1=0.25; alphas=(1.0, 1.0, 1.0); p=3\n"
        )
        # what each listed scenario builds: (alpha, c, rho, theta0, theta1)
        dgp1 = [[1.0, -0.9], [-0.9, 1.0]]
        dgp2 = [
            [1.0350, -0.9726, -0.7408, -0.4943],
            [-0.9726, 1.0214, 0.5072, 0.2545],
            [-0.7408, 0.5072, 1.0024, 0.5015],
            [-0.4943, 0.2545, 0.5015, 1.0009],
        ]
        expected = {
            ("DGP1a", 0.0): ([0.0], [0.5], 0.0, 2.5, 0.0, dgp1),
            ("DGP1a", 1.0): ([1.0], [1.0], 0.0, 2.5, 0.0, dgp1),
            ("DGP1b", 0.5): ([0.5], [1.0], 0.0, 2.5, 0.25, dgp1),
            ("DGP1c", 1.0): ([1.0], [1.0], 0.25, 2.5, 0.25, dgp1),
            ("DGP2a", None): ([0.0] * 3, [0.5] * 3, 0.0, 1.5, 0.25, dgp2),
            ("DGP2b", None): ([0.75, 0.5, 0.25], [1.0] * 3, 0.0, 1.5, 0.25, dgp2),
            ("DGP2c_i", None): ([1.0] * 3, [1.0] * 3, 0.0, 1.5, 0.25, dgp2),
            ("DGP2c_ii", None): ([1.0] * 3, [1.0] * 3, 0.25, 1.5, 0.25, dgp2),
        }
        for (name, alpha1), (alpha, c, rho, theta0, theta1, omega) in expected.items():
            spec = preset(name, 250, alpha1=alpha1)
            assert (spec.alpha.tolist(), spec.c.tolist()) == (alpha, c)
            assert (spec.rho, spec.theta0, spec.theta1) == (rho, theta0, theta1)
            assert spec.omega.tolist() == omega

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["power", "--help"])
        assert exc.value.code == 0
        assert "DGP2c_ii" in capsys.readouterr().out

    def test_version_embeds_build_identifier(self, capsys):
        from splitwald import __version__

        with pytest.raises(SystemExit) as exc:
            run_cli(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out
