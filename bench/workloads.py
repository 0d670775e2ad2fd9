"""The benchmark's workloads: two Monte Carlo plans and the `splitwald test` CLI.

All three are closed loops driven from this process: the next plan or call
starts when the previous one has returned. The library is reached only
through its public entry points, ``experiments.run_plan`` and ``cli.main``.
"""

import contextlib
import gc
import hashlib
import importlib
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
import spans

# Replications per run_plan call: two CHUNKs of the harness, so that two
# workers each get one.
PLAN_REPS = 500
# Calls per window of the CLI workload. reps_per_s is the median window
# rate, so that a short stall moves one window, not the whole run, and the
# set-up timing repeats after every window (after every plan on the Monte
# Carlo workloads).
CLI_WINDOW = 25
# A traced run alternates each plan or call untraced and traced, so that
# drift in machine speed falls on both sides of the overhead ratio. It starts
# new plans or calls for this share of --seconds; a Monte Carlo iteration
# runs its plan two or three times and can overshoot.
TRACED_LOOP_SHARE = 0.5

MC_WORKLOADS = {
    # One near-integrated predictor with ARCH errors, fixed M=50 and the
    # chi-square p-value: the Bernoulli draws dominate. No process pool.
    "mc-persistent-m50": {
        "preset": ("DGP1b", {"alpha1": 1.0, "sigma_uv": -0.9}),
        "n": 1000,
        "p0": 0.40,
        "statistic": ("FIXED_M_CHI_SQUARE", {"m": 50}),
        "workers": 1,
    },
    # Three unit-root predictors, ARCH with AR(1) errors, M=floor((n/p0)^(1/3))
    # = 18 and the normal p-value: the scalar DGP recursions dominate, and
    # two workers go through the ProcessPoolExecutor dispatch.
    "mc-threepred-arch": {
        "preset": ("DGP2c_ii", {}),
        "n": 2000,
        "p0": 0.30,
        "statistic": ("GROWING_M_NORMAL", {"mn_delta": 1.0 / 3.0}),
        "workers": 2,
    },
}
CLI_WORKLOAD = "cli-test-csv"
WORKLOADS = (*MC_WORKLOADS, CLI_WORKLOAD)

CSV_ROWS = 5000


def derive_seed(seed, *key):
    """A 64-bit seed for the input addressed by ``key`` under the run's seed."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1, np.uint64)[0])


def peak_rss_mib():
    """Peak resident memory of this process plus its largest ended child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def _splitwald_modules():
    return [name for name in sys.modules if name.split(".")[0] == "splitwald"]


class SetupTimer:
    """Times ``import splitwald`` followed by ``build(package)``, through a run.

    Each trial drops the package's modules from ``sys.modules``, so that they
    execute again (numpy stays loaded), and then puts back the modules the
    run works with, which pool workers must find when they unpickle its
    functions. Trials run between plans or calls, so their median samples
    the machine's speed over the whole run, as the workload's own metrics do.
    """

    def __init__(self, build):
        self.build = build
        self.samples = []
        self.package = self._import()
        self._kept = {name: sys.modules[name] for name in _splitwald_modules()}

    def _import(self):
        for name in _splitwald_modules():
            del sys.modules[name]
        gc.collect()
        start = perf_counter()
        package = importlib.import_module("splitwald")
        self.build(package)
        self.samples.append(perf_counter() - start)
        return package

    def trial(self):
        self._import()
        for name in _splitwald_modules():
            del sys.modules[name]
        sys.modules.update(self._kept)

    def median(self):
        return statistics.median(self.samples)


def _ratio(num, den):
    return num / den if den else 0.0


@dataclass
class Result:
    """What one run reports: metrics by name as (value, unit), and more."""

    metrics: dict
    attempted: int
    failed: int
    gate: checks.Gate
    extras: dict
    tracer: spans.Tracer = None


class McWorkload:
    """Repeated ``run_plan`` calls on one cell, each plan at its own seed."""

    def __init__(self, name, seed, plan_reps=PLAN_REPS):
        self.spec = MC_WORKLOADS[name]
        self.seed = seed
        self.plan_reps = plan_reps
        self.gate = checks.Gate()
        self.csv = {}  # plan index -> CSV report of its first run
        self.tally = {}  # plan index -> (rejected, effective, degenerate)
        self.raised = set()  # plan indices whose run raised
        self.setup = SetupTimer(lambda sw: self.plan(sw, 0, self.spec["workers"]))
        self.sw = self.setup.package
        self.modules = {"experiments": self.sw.experiments, "teststats": self.sw.teststats}

    def plan(self, sw, index, workers):
        preset, preset_kwargs = self.spec["preset"]
        mode, stat_kwargs = self.spec["statistic"]
        cfg = sw.StatisticConfig(
            p0=self.spec["p0"], mode=sw.TestMode[mode], **stat_kwargs
        )
        return sw.ExperimentPlan(
            dgp=sw.PresetRef(preset, **preset_kwargs),
            n_grid=(self.spec["n"],),
            p0_grid=(self.spec["p0"],),
            cfg_template=cfg,
            replications=self.plan_reps,
            master_seed=derive_seed(self.seed, 0, index),
            workers=workers,
        )

    def run(self, index, workers, tracer=None):
        """Run plan ``index``, check it against its earlier runs, return the wall time.

        Returns None when the plan raised; the gate then has failed.
        """
        plan = self.plan(self.sw, index, workers)
        run_plan = self.sw.experiments.run_plan
        if tracer is not None:
            run_plan = tracer.wrap("experiments.run_plan", run_plan)
        start = perf_counter()
        try:
            report = run_plan(plan)
        except self.sw.SplitwaldError as exc:
            self.raised.add(index)
            self.gate.require(
                False, f"plan {index} at workers={workers} raised {type(exc).__name__}: {exc}"
            )
            return None
        wall = perf_counter() - start
        csv = self.sw.export_report(report, "csv")
        if index not in self.csv:
            self.csv[index] = csv
            cell = report.cells[0]
            rejected = round(cell.rejection_rate * cell.replications) if cell.replications else 0
            self.tally[index] = (rejected, cell.replications, cell.degenerate)
        else:
            self.gate.require(
                csv == self.csv[index],
                f"plan {index}: CSV report at workers={workers}"
                f"{' traced' if tracer else ''} differs from its first run",
            )
        return wall

    def _loop(self, seconds, workers):
        walls = []
        deadline = perf_counter() + seconds
        while not walls or perf_counter() < deadline:
            wall = self.run(len(walls), workers)
            if wall is None:
                break
            walls.append(wall)
            self.setup.trial()
        return walls

    def _finish(self, metrics):
        rejected = sum(t[0] for t in self.tally.values())
        effective = sum(t[1] for t in self.tally.values())
        checks.check_rejections(self.gate, rejected, effective)
        attempted = self.plan_reps * (len(self.tally) + len(self.raised))
        failed = sum(t[2] for t in self.tally.values()) + self.plan_reps * len(self.raised)
        extras = {
            "plans": len(self.tally),
            "plan_reps": self.plan_reps,
            "null_rejection_rate": _ratio(rejected, effective),
            "report_sha256": [
                hashlib.sha256(self.csv[i]).hexdigest() for i in sorted(self.csv)
            ],
        }
        return Result(metrics, attempted, failed, self.gate, extras)

    def timed(self, seconds):
        workers = self.spec["workers"]
        walls = self._loop(seconds, workers)
        rss = peak_rss_mib()
        # Worker-count invariance: the first plan again at the other count.
        self.run(0, 2 if workers == 1 else 1)
        metrics = {
            "reps_per_s": (
                statistics.median(self.plan_reps / w for w in walls) if walls else 0.0,
                "1/s",
            ),
            "setup_s": (self.setup.median(), "s"),
            "peak_rss_mb": (rss, "MiB"),
        }
        return self._finish(metrics)

    def traced(self, seconds):
        workers = self.spec["workers"]
        tracer = spans.Tracer()
        untraced, traced, timed = [], [], []
        deadline = perf_counter() + seconds * TRACED_LOOP_SHARE
        while not untraced or perf_counter() < deadline:
            index = len(untraced)
            wall = self.run(index, 1)
            if wall is None:
                break
            untraced.append(wall)
            with tracer.installed(self.modules):
                traced.append(self.run(index, 1, tracer) or 0.0)
            if workers > 1:
                timed.append(self.run(index, workers) or 0.0)
        if workers == 1:
            self.run(0, 2)  # worker-count invariance
            timed = untraced
        overhead = _ratio(sum(traced), sum(untraced))
        metrics = spans.layer_metrics(
            tracer.spans,
            busy_scale=_ratio(1.0, overhead),
            workers=workers,
            timed_wall=sum(timed),
        )
        metrics["trace.overhead"] = (overhead, "ratio")
        result = self._finish(metrics)
        result.tracer = tracer
        return result


def write_csv(path, seed):
    """Raw (y_t, x_t) rows: three near-integrated predictors, x1 irrelevant."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    shocks = rng.standard_normal((CSV_ROWS, 4))
    x = np.empty((CSV_ROWS, 3))
    x[0] = shocks[0, 1:]
    for t in range(1, CSV_ROWS):
        x[t] = 0.995 * x[t - 1] + shocks[t, 1:]
    y = np.empty(CSV_ROWS)
    y[0] = shocks[0, 0]
    y[1:] = 0.1 + 0.02 * x[:-1, 1] - 0.01 * x[:-1, 2] + shocks[1:, 0]
    np.savetxt(
        path,
        np.column_stack([y, x]),
        fmt="%.12g",
        delimiter=",",
        header="y,x1,x2,x3",
        comments="",
    )


def window_rate(latencies):
    """Median calls per second over consecutive windows of CLI_WINDOW calls."""
    windows = [
        latencies[i : i + CLI_WINDOW]
        for i in range(0, len(latencies) - CLI_WINDOW + 1, CLI_WINDOW)
    ] or [latencies]
    return statistics.median(len(w) / sum(w) for w in windows)


class CliWorkload:
    """One caller running `splitwald test` in-process, a new --seed per call."""

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.gate = checks.Gate()
        self.failed = set()  # indices of calls that exited nonzero
        self.data = out_dir / "cli-test.csv"
        self.out = out_dir / "cli-test-outcome.json"
        write_csv(self.data, seed)
        self.setup = SetupTimer(
            lambda sw: importlib.import_module("splitwald.cli")
            .build_parser()
            .parse_args(self.argv(0))
        )
        self.cli = sys.modules["splitwald.cli"]
        self.modules = {"teststats": self.setup.package.teststats, "cli": self.cli}

    def argv(self, call):
        return [
            "test", str(self.data), "--y", "y", "--x", "x1,x2,x3",
            "--restrict", "x1", "--m", "20",
            "--seed", str(derive_seed(self.seed, 1, call)),
            "--out", str(self.out),
        ]  # fmt: skip

    def call(self, index, tracer=None):
        """One `splitwald test` call; returns its latency in seconds."""
        main = self.cli.main if tracer is None else tracer.wrap("cli.main", self.cli.main)
        argv = self.argv(index)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.out)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            start = perf_counter()
            code = main(argv)
            latency = perf_counter() - start
        if self.gate.require(code == 0, f"call {index} exited with code {code}"):
            checks.check_outcome_file(self.gate, self.out, index)
        else:
            self.failed.add(index)
        return latency

    def _loop(self, seconds):
        latencies = []
        deadline = perf_counter() + seconds
        while not latencies or perf_counter() < deadline:
            latencies.append(self.call(len(latencies)))
            if len(latencies) % CLI_WINDOW == 0:
                self.setup.trial()
        return latencies

    def timed(self, seconds):
        latencies = self._loop(seconds)
        rss = peak_rss_mib()
        metrics = {
            "reps_per_s": (window_rate(latencies), "1/s"),
            "setup_s": (self.setup.median(), "s"),
            "peak_rss_mb": (rss, "MiB"),
        }
        extras = {
            "calls": len(latencies),
            "test_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        }
        if len(latencies) >= 2:
            p99 = statistics.quantiles(latencies, n=100)[98]
            extras["test_ms_p99"] = (p99 * 1e3, "ms")
            extras["samples_beyond_p99"] = sum(1 for v in latencies if v > p99)
        return Result(metrics, len(latencies), len(self.failed), self.gate, extras)

    def traced(self, seconds):
        tracer = spans.Tracer()
        untraced, traced = [], []
        deadline = perf_counter() + seconds * TRACED_LOOP_SHARE
        while not untraced or perf_counter() < deadline:
            untraced.append(self.call(len(untraced)))
            with tracer.installed(self.modules):
                traced.append(self.call(len(traced), tracer))
        overhead = _ratio(sum(traced), sum(untraced))
        metrics = spans.layer_metrics(
            tracer.spans, busy_scale=_ratio(1.0, overhead), workers=1, timed_wall=sum(untraced)
        )
        metrics["trace.overhead"] = (overhead, "ratio")
        extras = {"calls": len(untraced)}
        return Result(metrics, len(untraced), len(self.failed), self.gate, extras, tracer)
