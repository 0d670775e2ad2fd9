"""splitwald declares numpy as its one dependency, so its modules import
only numpy, the package itself and the standard library. Other packages
may be installed where the tests run; an import of one would pass here and
fail on a clean install."""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import splitwald


def test_modules_import_only_numpy_the_package_and_the_standard_library():
    paths = sorted(Path(splitwald.__file__).parent.glob("*.py"))
    assert len(paths) > 1
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in ("numpy", "splitwald", *sys.stdlib_module_names):
                    foreign.append(f"{path.name}:{node.lineno}: {name}")
    assert foreign == []


# Today's public names, pinned: the package resolves them on first use, so
# none of them may go missing from the table it reads.
PUBLIC_NAMES = [
    "CellResult", "ChiSquareParams", "ColumnMissing", "DegenerateVariance",
    "DgpSpec", "EmptyReport", "ExperimentPlan", "ExperimentReport",
    "InvalidDelta", "InvalidGrid", "InvalidKurtosis", "InvalidLength",
    "InvalidP0", "InvalidProbability", "LocalAlternative", "NonConvergence",
    "NonFiniteInput", "NotPositiveDefinite", "NumericOverflow",
    "PlanParseError", "PresetRef", "RegressionData", "Restriction", "SeedSpec",
    "SingularDesign", "SingularRestriction", "SplitwaldError",
    "StatisticConfig", "TestMode", "TestOutcome", "TooFewRows",
    "UnknownPreset", "asymptotic_power", "check_p0", "chisq_cdf",
    "chisq_quantile", "chisq_sf", "cholesky_lower", "dgp", "distributions",
    "elasticity", "errors", "experiments", "export_report", "f_p0",
    "fit_in_place", "g_p0", "load_plan", "mn_rule", "ncp_ar1", "ncp_general",
    "normal_cdf", "normal_sf", "plan_from_dict", "power_curve_empirical",
    "preset", "randomization", "regression", "run_plan", "run_test",
    "simulate", "simulate_many", "teststats", "theory", "weight_variance",
    "__version__",
]  # fmt: skip

SUBMODULES = [
    "dgp", "distributions", "errors", "experiments", "randomization",
    "regression", "teststats", "theory",
]  # fmt: skip


def fresh_interpreter(script, *args):
    """The standard output of ``script`` run by a new Python process that
    imports splitwald from where these tests do: the test process has
    already imported every module."""
    env = dict(os.environ)
    root = str(Path(splitwald.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_only_the_version():
    out = fresh_interpreter(
        """
        import sys
        import splitwald
        print(sorted(m for m in sys.modules if m.split(".")[0] == "splitwald"))
        """
    )
    assert out.strip() == "['splitwald', 'splitwald._version']"


def test_all_is_the_pinned_list():
    assert splitwald.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(splitwald))


def test_each_name_is_its_submodules_object():
    # each object is compared with the attribute of the module that defines
    # it, read after the package resolved the name
    out = fresh_interpreter(
        """
        import sys
        import splitwald
        for name in splitwald.__all__:
            value = getattr(splitwald, name)
            if name in sys.argv[1:]:
                assert value is sys.modules["splitwald." + name], name
            elif name != "__version__":
                assert getattr(sys.modules[value.__module__], name) is value, name
                assert value.__module__.startswith("splitwald."), name
            assert name in vars(splitwald), name
        print("ok")
        """,
        *SUBMODULES,
    )
    assert out.strip() == "ok"


def test_run_plan_through_the_package_before_any_import_of_experiments():
    out = fresh_interpreter(
        """
        import sys
        import splitwald
        assert "splitwald.experiments" not in sys.modules
        plan = splitwald.experiments.plan_from_dict({
            "dgp": {"preset": "DGP1a", "alpha1": 0.0, "sigma_uv": 0.0},
            "n_grid": [120], "p0_grid": [0.40],
            "statistic": {"mode": "fixed", "m": 3},
            "replications": 100, "master_seed": 13,
        })
        report = splitwald.experiments.run_plan(plan)
        print(report.cells[0].replications)
        """
    )
    assert out.strip() == "100"


def test_cli_commands_that_run_no_plan_never_load_the_harness(tmp_path):
    # splitwald test, theory, presets and --version run without the Monte
    # Carlo harness; simulate loads it
    rows = ["y,x1"] + [f"{(t * 7919) % 13 / 13:.4f},{t % 5 - 2.0}" for t in range(60)]
    data = tmp_path / "series.csv"
    data.write_text("\n".join(rows) + "\n")
    plan = tmp_path / "tiny.plan"
    plan.write_text(
        '{"dgp": {"preset": "DGP1a", "alpha1": 0.0, "sigma_uv": 0.0}, '
        '"n_grid": [120], "p0_grid": [0.40], "statistic": {"mode": "fixed", "m": 3}, '
        '"replications": 100, "master_seed": 13}'
    )
    out = fresh_interpreter(
        """
        import contextlib, io, sys
        from splitwald.cli import main

        data, plan, report = sys.argv[1:]
        calls = [
            ["test", data, "--y", "y", "--x", "x1", "--m", "3"],
            ["theory", "--curve", "g"],
            ["presets"],
            ["--version"],
            ["simulate", plan, "--out", report],
        ]
        for argv in calls:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            print(argv[0], code, "splitwald.experiments" in sys.modules)
        """,
        data,
        plan,
        tmp_path / "report.csv",
    )
    assert out.splitlines() == [
        "test 0 False",
        "theory 0 False",
        "presets 0 False",
        "--version 0 False",
        "simulate 0 True",
    ]


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        splitwald.nope
    with pytest.raises(ImportError):
        from splitwald import nope  # noqa: F401
