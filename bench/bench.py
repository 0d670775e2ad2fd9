"""Benchmark of splitwald: Monte Carlo throughput, `splitwald test` latency
and per-layer time.

Run from the repository root, for example:

    python3 bench/bench.py --workload mc-persistent-m50 --seed 1 --seconds 20 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

* ``mc-persistent-m50``: ``run_plan`` on DGP1b, n=1000, fixed M=50, one worker;
* ``cli-test-csv``: ``cli.main(["test", ...])`` on a 5000-row CSV, M=20;
* ``mc-threepred-arch``: ``run_plan`` on DGP2c_ii, n=2000, M=18, two workers.
  It is the only workload through the process pool and the one the DGP
  dominates, but its run-to-run spread on a shared 2-core host exceeded the
  largest bound the benchmark may set, so it is run by hand only.

``--trace 0`` measures for ``--seconds`` with tracing off and reports the
end-to-end metrics, on every workload:

* ``reps_per_s``: tests completed per second, the median over windows of
  one run_plan call (Monte Carlo replications) or 25 CLI calls;
* ``setup_s``: median time of ``import splitwald`` plus plan or argument
  construction, repeated between plans or calls through the run;
* ``peak_rss_mb``: peak resident memory of this process plus its largest
  pool worker.

It also prints ``failed_frac`` and, for the CLI, ``test_ms_p50`` and
``test_ms_p99`` with the number of samples beyond it. ``--trace 1``
alternates the same plans or calls untraced and traced at one worker, and
reports the per-layer metrics (see ``spans.py``) and the tracing overhead.
Every run passes the correctness gate in ``checks.py`` or fails with exit
code 1. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``.bench_out/``
receives the full record with provenance and, for a traced run, the spans.
"""

import os

# One BLAS/OpenMP thread, set before numpy loads; pool workers inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    src = ROOT / "src"
    if not (src / "splitwald" / "__init__.py").is_file():
        print(f"bench: no splitwald sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import numpy as np

    import checks
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--plan-reps",
        type=int,
        default=workloads.PLAN_REPS,
        help="replications per run_plan call; only the smoke test changes it, to its minimum of 100",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == workloads.CLI_WORKLOAD:
        workload = workloads.CliWorkload(args.seed, OUT_DIR)
    else:
        workload = workloads.McWorkload(args.workload, args.seed, args.plan_reps)
    result = workload.traced(args.seconds) if args.trace else workload.timed(args.seconds)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    notes = []
    if result.tracer is not None:
        result.tracer.write_tsv(OUT_DIR / f"spans-{tag}.tsv")
        notes += [f"trace point not found, layer reports 0: {n}" for n in result.tracer.missing]
        disagreements = checks.share_disagreements(args.workload, result.metrics)
        notes += [f"layer share disagrees with the ROADMAP baseline: {d}" for d in disagreements]
        if args.workload in checks.EXPECTED_SHARES and not disagreements:
            notes.append("layer shares agree with the ROADMAP baseline")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": result.gate.ok,
        "gate_failures": result.gate.failures,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_frac": result.failed / result.attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "extras": result.extras,
        "notes": notes,
        "provenance": checks.provenance(ROOT, np.__version__),
    }
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name} = {_fmt(value)} {unit}")
    print(f"  failed_frac = {_fmt(record['failed_frac'])} ratio "
          f"({result.failed} of {result.attempted})")
    for name, value in result.extras.items():
        if isinstance(value, tuple):
            print(f"  {name} = {_fmt(value[0])} {value[1]}")
        else:
            print(f"  {name}: {_fmt(value)}")
    for line in notes:
        print(f"note: {line}")
    for line in result.gate.failures:
        print(f"GATE FAILED: {line}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": record["metrics"],
    }))
    return 0 if result.gate.ok else 1


if __name__ == "__main__":
    sys.exit(main())
