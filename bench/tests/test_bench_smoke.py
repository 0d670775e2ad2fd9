"""Smoke test of the benchmark at a tiny replication and call count.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/bench.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_reports_every_metric(workload, trace):
    proc = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.3",
        "--trace", str(trace), "--plan-reps", "100",
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))
        if not trace:
            assert reported["value"] > 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(
        tmp_path, "--workload", "cli-test-csv", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_gate_rejects_a_wrong_rejection_rate():
    gate = checks.Gate()
    checks.check_rejections(gate, rejected=100, n=1000)
    assert gate.ok
    checks.check_rejections(gate, rejected=500, n=1000)
    checks.check_rejections(gate, rejected=0, n=1000)
    assert len(gate.failures) == 2


def test_gate_rejects_a_bad_outcome_file(tmp_path):
    gate = checks.Gate()
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"p_value": 0.25}))
    checks.check_outcome_file(gate, good, 0)
    assert gate.ok
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"p_value": 1.5}))
    checks.check_outcome_file(gate, bad, 1)
    checks.check_outcome_file(gate, tmp_path / "missing.json", 2)
    assert len(gate.failures) == 2


def test_tracer_tolerates_a_missing_trace_point():
    # a library without simulate or DesignFactor, as after a refactor
    teststats = types.SimpleNamespace(draw_bernoulli_weights=lambda n, p0, seed: n)
    experiments = types.SimpleNamespace(
        run_test=lambda n: teststats.draw_bernoulli_weights(n, 0.4, None)
    )
    original = experiments.run_test
    tracer = spans.Tracer()
    with tracer.installed({"experiments": experiments, "teststats": teststats}):
        assert experiments.run_test(7) == 7
    assert experiments.run_test is original
    assert "experiments.simulate" in tracer.missing
    assert "teststats.DesignFactor.restricted" in tracer.missing
    metrics = spans.layer_metrics(tracer.spans, busy_scale=1.0, workers=1, timed_wall=1.0)
    assert metrics["dgp.simulate.calls"] == (0, "count")
    assert metrics["regression.fit.calls"] == (0, "count")
    assert metrics["randomization.draw.calls"] == (1, "count")
    assert metrics["randomization.uniforms"] == (7, "count")
    assert metrics["teststats.run_test.us_p50"][0] > 0
