"""Monte Carlo harness: size and power studies over scenario grids.

A plan enumerates cells as the product of sample sizes, tuning
probabilities and true slopes for one scenario. Each replication ``r`` of
cell ``c`` runs on the private stream ``(master_seed, c, r)``: the data
channel is its 0-child and the test's Bernoulli draws are the stream at its
1-child. Rejections are aggregated by exact integer counting, so reports
are bit-identical for a fixed master seed regardless of the worker count.
"""

import concurrent.futures
import json
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._version import __version__
from .dgp import DgpSpec, preset, simulate
from .errors import DegenerateVariance, EmptyReport, PlanParseError
from .randomization import STREAM_LAYOUT, SeedSpec
from .regression import RegressionData, Restriction
from .teststats import StatisticConfig, run_test

# Replications are dispatched in fixed-size chunks so that scheduling (and
# hence the worker count) cannot influence any per-replication computation.
CHUNK = 250

# A cell is flagged when more than this fraction of replications degenerates.
DEGENERATE_CELL_LIMIT = 1e-3


@dataclass(frozen=True)
class PresetRef:
    """Reference to a named scenario, with its free sub-parameters."""

    name: str
    alpha1: float = None
    sigma_uv: float = None
    phi0: float = 0.0
    burn_in: int = 200

    def build(self, n, beta):
        kwargs = {"phi0": self.phi0, "beta": beta, "burn_in": self.burn_in}
        if self.alpha1 is not None:
            kwargs["alpha1"] = self.alpha1
        if self.sigma_uv is not None:
            kwargs["sigma_uv"] = self.sigma_uv
        return preset(self.name, n, **kwargs)


def _build_spec(dgp, n, beta):
    if isinstance(dgp, PresetRef):
        return dgp.build(n, beta)
    return dgp.with_sample_size(n).with_slopes(beta)


@dataclass
class ExperimentPlan:
    """Grid of simulation cells plus the statistic template and budget."""

    dgp: object  # PresetRef or DgpSpec template (its n/beta are overridden)
    n_grid: tuple
    p0_grid: tuple
    cfg_template: StatisticConfig
    replications: int
    master_seed: int
    beta_grid: tuple = (0.0,)
    workers: int = 1
    seed_stream: int = 0
    restrict: object = "all"  # "all" or a sequence of slope indices

    def __post_init__(self):
        self.n_grid = tuple(int(n) for n in self.n_grid)
        self.p0_grid = tuple(float(p) for p in self.p0_grid)
        self.beta_grid = tuple(float(b) for b in self.beta_grid)
        if not self.n_grid or not self.p0_grid or not self.beta_grid:
            raise ValueError("n_grid, p0_grid and beta_grid must be nonempty")
        if self.replications < 100:
            raise ValueError(
                f"replications must be >= 100, got {self.replications!r}"
            )
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers!r}")
        for n in self.n_grid:
            for p0 in self.p0_grid:
                # validates p0, and n under a growth rule (which never gives M < 1)
                replace(self.cfg_template, p0=p0).resolve_m(n)

    def cells(self):
        """Deterministic cell enumeration (defines cell ids)."""
        out = []
        cid = 0
        for n in self.n_grid:
            for p0 in self.p0_grid:
                for beta in self.beta_grid:
                    out.append((cid, n, p0, beta))
                    cid += 1
        return out


@dataclass
class CellResult:
    """Aggregated rejection behaviour of one grid cell."""

    dgp_label: str
    n: int
    p0: float
    alpha_vec: tuple
    beta: float
    rejection_rate: float
    mc_se: float
    replications: int
    degenerate: int = 0
    flagged: bool = False

    def as_dict(self):
        return {
            "dgp": self.dgp_label,
            "n": self.n,
            "p0": self.p0,
            "alpha": list(self.alpha_vec),
            "beta": self.beta,
            "rejection_rate": self.rejection_rate,
            "mc_se": self.mc_se,
            "reps": self.replications,
            "degenerate": self.degenerate,
            "flagged": self.flagged,
        }


@dataclass
class ExperimentReport:
    cells: list
    metadata: dict = field(default_factory=dict)

    @property
    def flagged(self):
        return any(cell.flagged for cell in self.cells)


def _restriction_for(restrict, p):
    if restrict == "all" or restrict is None:
        return Restriction.all_slopes(p)
    return Restriction.subset(restrict, p)


def _run_chunk(payload):
    """Count rejections over one fixed chunk of replications of one cell."""
    spec, cfg, restrict, master_seed, seed_stream, cell_id, start, stop = payload
    restriction = _restriction_for(restrict, spec.p)
    base = SeedSpec(master_seed, seed_stream)
    rejected = 0
    degenerate = 0
    for r in range(start, stop):
        rep_seed = base.child(cell_id, r)
        sample = simulate(spec, rep_seed.child(0))
        data = RegressionData(sample.y, sample.X_lagged)
        try:
            outcome = run_test(data, restriction, cfg, rep_seed.child(1))
        except DegenerateVariance:
            degenerate += 1
            continue
        if outcome.reject:
            rejected += 1
    return cell_id, rejected, degenerate, stop - start


def run_plan(plan, progress=None):
    """Execute every cell of the plan and aggregate rejection rates.

    ``progress`` is an optional callable receiving ``(done, total)`` chunk
    counts. Output is independent of the worker count: replications are
    dispatched in fixed chunks and merged by exact integer counting.
    """
    started = time.perf_counter()
    cells = plan.cells()
    tasks = []
    cell_info = {}
    for cid, n, p0, beta in cells:
        spec = _build_spec(plan.dgp, n, beta)
        cfg = replace(plan.cfg_template, p0=p0)
        cell_info[cid] = (spec, cfg, n, p0, beta)
        for start in range(0, plan.replications, CHUNK):
            stop = min(start + CHUNK, plan.replications)
            tasks.append(
                (
                    spec,
                    cfg,
                    plan.restrict,
                    plan.master_seed,
                    plan.seed_stream,
                    cid,
                    start,
                    stop,
                )
            )

    counts = {cid: [0, 0, 0] for cid, *_ in cells}  # rejected, degenerate, done

    def _absorb(result, done_so_far):
        cid, rejected, degenerate, done = result
        counts[cid][0] += rejected
        counts[cid][1] += degenerate
        counts[cid][2] += done
        if progress is not None:
            progress(done_so_far, len(tasks))

    if plan.workers == 1:
        for i, task in enumerate(tasks, start=1):
            _absorb(_run_chunk(task), i)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=plan.workers) as pool:
            for i, result in enumerate(pool.map(_run_chunk, tasks), start=1):
                _absorb(result, i)

    out = []
    for cid, n, p0, beta in cells:
        spec, cfg, *_ = cell_info[cid]
        rejected, degenerate, done = counts[cid]
        effective = done - degenerate
        rate = rejected / effective if effective else float("nan")
        mc_se = (
            float(np.sqrt(rate * (1.0 - rate) / effective)) if effective else float("nan")
        )
        out.append(
            CellResult(
                dgp_label=spec.label,
                n=n,
                p0=p0,
                alpha_vec=tuple(float(a) for a in spec.alpha),
                beta=beta,
                rejection_rate=rate,
                mc_se=mc_se,
                replications=effective,
                degenerate=degenerate,
                flagged=degenerate > DEGENERATE_CELL_LIMIT * done,
            )
        )

    metadata = {
        "master_seed": plan.master_seed,
        "wall_time": time.perf_counter() - started,
        "software_version": __version__,
        "stream_layout": STREAM_LAYOUT,
    }
    return ExperimentReport(cells=out, metadata=metadata)


def power_curve_empirical(dgp, beta_grid, cfg, reps, seed, workers=1):
    """Rejection frequency along a grid of true slopes.

    Simulates ``reps`` datasets per slope value through :func:`run_plan`
    (so the parallelism and seeding rules are identical to size studies)
    and reports one rejection rate per slope, ordered by the input grid.
    """
    beta_grid = [float(b) for b in beta_grid]
    if len(beta_grid) == 0:
        raise ValueError("beta_grid must be nonempty")
    if reps < 100:
        raise ValueError(f"need at least 100 replications, got {reps!r}")
    plan = ExperimentPlan(
        dgp=dgp,
        n_grid=(dgp.n,),
        p0_grid=(cfg.p0,),
        cfg_template=cfg,
        beta_grid=tuple(beta_grid),
        replications=int(reps),
        master_seed=seed.master_seed,
        seed_stream=seed.stream_id,
        workers=workers,
    )
    report = run_plan(plan)
    return [
        {"beta": cell.beta, "rejection_rate": cell.rejection_rate, "mc_se": cell.mc_se}
        for cell in report.cells
    ]


def _fmt(x):
    return format(float(x), ".6g")


def export_report(report, fmt="csv"):
    """Serialize a report to CSV or JSON bytes.

    The CSV carries one row per cell with 6-significant-digit decimals and
    no metadata (so exports are byte-comparable across runs); multiple
    persistence exponents are joined with ``|`` in the ``alpha`` column.
    JSON keeps full float precision and includes the metadata block.
    """
    if not report.cells:
        raise EmptyReport("report has no cells")
    fmt = str(fmt).lower()
    if fmt == "csv":
        lines = ["dgp,n,p0,alpha,beta,rejection_rate,mc_se,reps"]
        for c in report.cells:
            alpha = "|".join(_fmt(a) for a in c.alpha_vec)
            lines.append(
                f"{c.dgp_label},{c.n},{_fmt(c.p0)},{alpha},{_fmt(c.beta)},"
                f"{_fmt(c.rejection_rate)},{_fmt(c.mc_se)},{c.replications}"
            )
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "json":
        doc = {
            "cells": [c.as_dict() for c in report.cells],
            "metadata": report.metadata,
        }
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    raise ValueError(f"unknown export format {fmt!r} (expected csv or json)")


# ---------------------------------------------------------------------------
# Plan files


_PLAN_KEYS = {
    "dgp",
    "n_grid",
    "p0_grid",
    "beta_grid",
    "statistic",
    "replications",
    "master_seed",
    "workers",
    "restrict",
    "seed_stream",
}
_STAT_KEYS = {"mode", "m", "mn_delta", "alpha"}
_PRESET_KEYS = {"preset", "alpha1", "sigma_uv", "phi0", "burn_in"}
_SPEC_KEYS = {
    "alpha",
    "c",
    "phi0",
    "omega",
    "rho",
    "theta0",
    "theta1",
    "mu",
    "burn_in",
    "label",
}


def _require(mapping, key, kind, where):
    if key not in mapping:
        raise PlanParseError(f"{where}: missing required field '{key}'")
    value = mapping[key]
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise PlanParseError(f"{where}: field '{key}': {exc}") from None


def _statistic_from_dict(d):
    unknown = set(d) - _STAT_KEYS
    if unknown:
        raise PlanParseError(f"statistic: unknown fields {sorted(unknown)}")
    try:
        return StatisticConfig(**d)  # its p0 is replaced cell by cell from p0_grid
    except Exception as exc:
        raise PlanParseError(f"statistic: {exc}") from None


def _dgp_from_dict(d):
    if not isinstance(d, dict):
        raise PlanParseError("dgp: expected an object")
    if "preset" in d:
        unknown = set(d) - _PRESET_KEYS
        if unknown:
            raise PlanParseError(f"dgp: unknown fields {sorted(unknown)}")
        return PresetRef(
            name=str(d["preset"]),
            alpha1=float(d["alpha1"]) if d.get("alpha1") is not None else None,
            sigma_uv=float(d["sigma_uv"]) if d.get("sigma_uv") is not None else None,
            phi0=float(d.get("phi0", 0.0)),
            burn_in=int(d.get("burn_in", 200)),
        )
    if "spec" in d:
        spec_dict = d["spec"]
        if set(d) - {"spec"}:
            raise PlanParseError("dgp: 'spec' cannot be combined with other fields")
        unknown = set(spec_dict) - _SPEC_KEYS
        if unknown:
            raise PlanParseError(f"dgp.spec: unknown fields {sorted(unknown)}")
        try:
            return DgpSpec(
                n=8,  # placeholder; overridden per cell from n_grid
                alpha=spec_dict["alpha"],
                c=spec_dict.get("c", 1.0),
                phi0=spec_dict.get("phi0", 0.0),
                beta=0.0,
                omega=spec_dict["omega"],
                rho=float(spec_dict.get("rho", 0.0)),
                theta0=float(spec_dict.get("theta0", 1.0)),
                theta1=float(spec_dict.get("theta1", 0.0)),
                mu=float(spec_dict.get("mu", 0.0)),
                burn_in=int(spec_dict.get("burn_in", 200)),
                label=str(spec_dict.get("label", "custom")),
            )
        except KeyError as exc:
            raise PlanParseError(f"dgp.spec: missing required field {exc}") from None
        except Exception as exc:
            raise PlanParseError(f"dgp.spec: {exc}") from None
    raise PlanParseError("dgp: expected either 'preset' or 'spec'")


def plan_from_dict(d, workers=None):
    """Build a validated plan from a parsed key-value document."""
    if not isinstance(d, dict):
        raise PlanParseError("plan: expected a top-level object")
    unknown = set(d) - _PLAN_KEYS
    if unknown:
        raise PlanParseError(f"plan: unknown fields {sorted(unknown)}")
    dgp = _dgp_from_dict(_require(d, "dgp", dict, "plan"))
    cfg = _statistic_from_dict(d.get("statistic", {}))
    restrict = d.get("restrict", "all")
    if restrict != "all" and restrict is not None:
        if not isinstance(restrict, list) or not all(
            isinstance(i, int) for i in restrict
        ):
            raise PlanParseError(
                "plan: 'restrict' must be \"all\" or a list of slope indices"
            )
        restrict = tuple(restrict)
    try:
        return ExperimentPlan(
            dgp=dgp,
            n_grid=tuple(_require(d, "n_grid", list, "plan")),
            p0_grid=tuple(_require(d, "p0_grid", list, "plan")),
            cfg_template=cfg,
            beta_grid=tuple(d.get("beta_grid", [0.0])),
            replications=_require(d, "replications", int, "plan"),
            master_seed=_require(d, "master_seed", int, "plan"),
            workers=int(workers if workers is not None else d.get("workers", 1)),
            seed_stream=int(d.get("seed_stream", 0)),
            restrict=restrict,
        )
    except PlanParseError:
        raise
    except Exception as exc:
        raise PlanParseError(f"plan: {exc}") from None


def load_plan(path, workers=None):
    """Parse a JSON plan file; see README for the documented schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PlanParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    return plan_from_dict(doc, workers=workers)
