"""Monte Carlo harness: size and power studies over scenario grids.

A plan enumerates cells as the product of sample sizes, tuning
probabilities and true slopes for one scenario. Each replication ``r`` of
cell ``c`` owns the one private stream at ``seed.child(c, r)`` (stream
layout 5): it draws its data shocks from the start of the stream and its
Bernoulli rows from the continuation. Rejections are aggregated by exact
integer counting, so reports are bit-identical for a fixed master seed
regardless of the worker count.

A chunk runs as arrays from the simulation to the decision. ``run_plan``
splits each cell into the fewest near-equal chunks no wider than ``CHUNK``
and than ``dgp.batch_width``, so that one ``simulate_many`` call gives a
chunk's replications as one batch within ``dgp.SIM_BATCH_BYTES``. A chunk
derives its replications' stream start states in one array pass
(:meth:`~splitwald.randomization.SeedSpec.child_states`) and steps every
stream on one generator: ``simulate_many`` draws the shocks and returns
each stream's state after them. The batch is fitted in its buffer and set
up as one (:class:`~splitwald.teststats.StatisticSetup`), whose
``draw_sums`` draws and sums every replication's Bernoulli rows from its
stream after the shocks, as ``splitwald test`` does from the start of its
stream; one ``statistics`` call scores the batch. The decision is
:func:`splitwald.teststats.reject_rule`, which equals ``p < alpha``. This
module only chunks, seeds and counts.
"""

import concurrent.futures
import csv
import io
import json
import math
import os
import reprlib
import time
from collections.abc import Iterable
from dataclasses import dataclass, field, fields, replace

import numpy as np

from ._version import __version__
from .dgp import DgpSpec, batch_width, preset, simulate_many
from .errors import (
    EmptyReport,
    NumericOverflow,
    PlanParseError,
    check_integer,
    check_real,
)
from .randomization import STREAM_LAYOUT, SeedSpec, state_generator
from .regression import Restriction
from .teststats import StatisticConfig, StatisticSetup, reject_rule

# Widest chunk of replications, the unit of dispatch to the workers. A
# cell's chunks depend on the cell only, so scheduling (and hence the worker
# count) cannot influence any per-replication computation.
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
        return preset(
            self.name,
            n,
            alpha1=self.alpha1,
            sigma_uv=self.sigma_uv,
            phi0=self.phi0,
            beta=beta,
            burn_in=self.burn_in,
        )


def _grid(name, values, entry):
    """Nonempty tuple of ``entry(v)`` over a list-like grid."""
    if isinstance(values, str) or not isinstance(values, Iterable):
        raise ValueError(f"{name} must be a list, got {reprlib.repr(values)}")
    grid = tuple(entry(v) for v in values)
    if not grid:
        raise ValueError(f"{name} must be nonempty")
    return grid


@dataclass
class ExperimentPlan:
    """Grid of simulation cells plus the statistic template and budget.

    Construction is the one place that validates a plan: it checks the
    integer and real-number fields and builds every cell once
    (:meth:`build_cell`).
    ``seed_stream`` is the ``stream_id`` of the plan's :class:`SeedSpec`;
    ``restrict`` is ``"all"`` or a sequence of 0-based slope indices.
    """

    dgp: object  # PresetRef or DgpSpec template (its n/beta are overridden)
    n_grid: tuple
    p0_grid: tuple
    cfg_template: StatisticConfig
    replications: int
    master_seed: int
    beta_grid: tuple = (0.0,)
    workers: int = 1
    seed_stream: int = 0
    restrict: object = "all"

    def __post_init__(self):
        self.n_grid = _grid(
            "n_grid", self.n_grid, lambda n: check_integer("n_grid entry", n, 4)
        )
        self.p0_grid = _grid(
            "p0_grid", self.p0_grid, lambda v: check_real("p0_grid entry", v)
        )
        self.beta_grid = _grid(
            "beta_grid", self.beta_grid, lambda v: check_real("beta_grid entry", v)
        )
        self.replications = check_integer("replications", self.replications, 100)
        self.workers = check_integer("workers", self.workers, 1)
        SeedSpec(self.master_seed, self.seed_stream)
        if self.restrict in ("all", None):
            self.restrict = "all"
        else:
            self.restrict = tuple(self.restrict)
        for _, n, p0, beta in self.cells():
            self.build_cell(n, p0, beta)

    def build_cell(self, n, p0, beta):
        """Scenario, statistic config and restriction of one cell."""
        if isinstance(self.dgp, PresetRef):
            spec = self.dgp.build(n, beta)
        else:
            spec = replace(self.dgp, n=n, beta=beta)
        cfg = replace(self.cfg_template, p0=p0)
        if self.restrict == "all":
            restriction = Restriction.all_slopes(spec.p)
        else:
            restriction = Restriction.subset(self.restrict, spec.p)
        return spec, cfg, restriction

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
        """The cell as JSON values; a rate or standard error that is not
        finite (every replication degenerate) is ``None``."""
        return {
            "dgp": self.dgp_label,
            "n": self.n,
            "p0": self.p0,
            "alpha": list(self.alpha_vec),
            "beta": self.beta,
            "rejection_rate": _finite_or_none(self.rejection_rate),
            "mc_se": _finite_or_none(self.mc_se),
            "reps": self.replications,
            "degenerate": self.degenerate,
            "flagged": self.flagged,
        }


def _finite_or_none(x):
    return x if math.isfinite(x) else None


@dataclass
class ExperimentReport:
    cells: list
    metadata: dict = field(default_factory=dict)

    @property
    def flagged(self):
        return any(cell.flagged for cell in self.cells)


def _run_chunk(payload):
    """Count rejections over one chunk of replications of one cell, as one
    simulate batch on one generator: fitted in its buffer and set up as
    one, each replication's draws taken from its stream, and scored
    together."""
    spec, cfg, restriction, seed, cell_id, start, stop = payload
    m = cfg.resolve_m(spec.n)
    gen = state_generator()
    try:
        data, scratch, after = simulate_many(
            spec, seed.child(cell_id).child_states(start, stop), gen
        )
    except NumericOverflow as exc:
        r = start + exc.index
        raise NumericOverflow(
            f"cell {cell_id}, replication {r}: {exc}", index=r
        ) from None
    setup = StatisticSetup.fit(data, restriction, spec.beta, scratch)
    s_n, _, _, degenerate = setup.statistics(setup.draw_sums(after, gen, cfg.p0, m))
    degenerate = degenerate.any(axis=1)
    reject = reject_rule(cfg, m)
    rejected = sum(reject(float(s_m)) for s_m in s_n[~degenerate].sum(axis=1))
    return cell_id, rejected, int(degenerate.sum())


def run_plan(plan, progress=None):
    """Execute every cell of the plan and aggregate rejection rates.

    ``progress`` is an optional callable receiving ``(done, total)`` chunk
    counts. Output is independent of the worker count: a cell's chunks
    depend on the cell only, and are merged by exact integer counting.
    """
    started = time.perf_counter()
    seed = SeedSpec(plan.master_seed, plan.seed_stream)
    cells = plan.cells()
    specs = []
    tasks = []
    for cid, n, p0, beta in cells:
        spec, cfg, restriction = plan.build_cell(n, p0, beta)
        specs.append(spec)
        count = -(-plan.replications // min(CHUNK, batch_width(spec)))
        bounds = [plan.replications * k // count for k in range(count + 1)]
        for start, stop in zip(bounds, bounds[1:]):
            tasks.append((spec, cfg, restriction, seed, cid, start, stop))
    counts = [[0, 0] for _ in cells]  # rejected, degenerate; indexed by cell id

    def _absorb(result, done_so_far):
        cid, rejected, degenerate = result
        counts[cid][0] += rejected
        counts[cid][1] += degenerate
        if progress is not None:
            progress(done_so_far, len(tasks))

    # A pool starts all its workers at the first submit: start no idle ones,
    # and no more than the CPUs can run at once.
    workers = min(plan.workers, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        for i, task in enumerate(tasks, start=1):
            _absorb(_run_chunk(task), i)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for i, result in enumerate(pool.map(_run_chunk, tasks), start=1):
                _absorb(result, i)

    out = []
    for (_, n, p0, beta), spec, (rejected, degenerate) in zip(cells, specs, counts):
        effective = plan.replications - degenerate
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
                flagged=degenerate > DEGENERATE_CELL_LIMIT * plan.replications,
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
    plan = ExperimentPlan(
        dgp=dgp,
        n_grid=(dgp.n,),
        p0_grid=(cfg.p0,),
        cfg_template=cfg,
        beta_grid=beta_grid,
        replications=reps,
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


def _csv_record(fields):
    r"""One CSV record ending in ``\n``. ``csv`` quotes a field that holds a
    character of its line terminator, so terminating the record with
    ``\r\n`` quotes a field holding a CR or an LF; the ``\r\n`` is then cut
    to ``\n``.
    """
    out = io.StringIO()
    csv.writer(out, lineterminator="\r\n").writerow(fields)
    return out.getvalue()[:-2] + "\n"


def export_report(report, fmt="csv"):
    """Serialize a report to CSV or JSON bytes.

    The CSV carries one row per cell with 6-significant-digit decimals and
    no metadata (so exports are byte-comparable across runs); multiple
    persistence exponents are joined with ``|`` in the ``alpha`` column.
    Fields are quoted as ``csv`` quotes them, so a label holding a comma,
    quote or line break reads back as one field; other rows are plain.
    JSON keeps full float precision and includes the metadata block; a
    rate and standard error that are not finite are written as ``null``.
    """
    if not report.cells:
        raise EmptyReport("report has no cells")
    fmt = str(fmt).lower()
    if fmt == "csv":
        lines = ["dgp,n,p0,alpha,beta,rejection_rate,mc_se,reps\n"]
        for c in report.cells:
            alpha = "|".join(_fmt(a) for a in c.alpha_vec)
            fields = [c.dgp_label, c.n, _fmt(c.p0), alpha, _fmt(c.beta),
                      _fmt(c.rejection_rate), _fmt(c.mc_se), c.replications]  # fmt: skip
            lines.append(_csv_record(fields))
        return "".join(lines).encode("utf-8")
    if fmt == "json":
        doc = {
            "cells": [c.as_dict() for c in report.cells],
            "metadata": report.metadata,
        }
        return (json.dumps(doc, indent=2, allow_nan=False) + "\n").encode("utf-8")
    raise ValueError(f"unknown export format {fmt!r} (expected csv or json)")


# ---------------------------------------------------------------------------
# Plan files


def _init_fields(cls, *drop):
    return {f.name for f in fields(cls) if f.init} - set(drop)


# Plan-file keys are the constructors' fields, except that "statistic" is the
# plan's cfg_template and "preset" is PresetRef.name; each cell sets n, beta
# and p0 itself.
_PLAN_KEYS = _init_fields(ExperimentPlan, "cfg_template") | {"statistic"}
_STAT_KEYS = _init_fields(StatisticConfig, "p0")
_PRESET_KEYS = _init_fields(PresetRef, "name") | {"preset"}
_SPEC_KEYS = _init_fields(DgpSpec, "n", "beta")


def _check_keys(where, d, allowed):
    if not isinstance(d, dict):
        raise PlanParseError(f"{where}: expected an object")
    unknown = set(d) - allowed
    if unknown:
        raise PlanParseError(f"{where}: unknown fields {sorted(unknown)}")


def _statistic_from_dict(d):
    _check_keys("statistic", d, _STAT_KEYS)
    try:
        return StatisticConfig(**d)
    except Exception as exc:
        raise PlanParseError(f"statistic: {exc}") from None


def _dgp_from_dict(d):
    if isinstance(d, dict) and "spec" in d:
        if set(d) - {"spec"}:
            raise PlanParseError("dgp: 'spec' cannot be combined with other fields")
        _check_keys("dgp.spec", d["spec"], _SPEC_KEYS)
        try:
            # every cell replaces the placeholder n and beta
            return DgpSpec(**{"n": 8, "beta": 0.0, "c": 1.0, "phi0": 0.0, **d["spec"]})
        except Exception as exc:
            raise PlanParseError(f"dgp.spec: {exc}") from None
    _check_keys("dgp", d, _PRESET_KEYS)
    if "preset" not in d:
        raise PlanParseError("dgp: expected either 'preset' or 'spec'")
    return PresetRef(d["preset"], **{k: v for k, v in d.items() if k != "preset"})


def plan_from_dict(d, workers=None):
    """Build a plan from a parsed key-value document.

    Fields pass through to the constructors unchanged, and
    :class:`ExperimentPlan` validates them; every error is raised as a
    :class:`PlanParseError`.
    """
    _check_keys("plan", d, _PLAN_KEYS)
    for key in ("dgp", "n_grid", "p0_grid", "replications", "master_seed"):
        if key not in d:
            raise PlanParseError(f"plan: missing required field '{key}'")
    kwargs = {key: value for key, value in d.items() if key != "statistic"}
    kwargs["dgp"] = _dgp_from_dict(d["dgp"])
    kwargs["cfg_template"] = _statistic_from_dict(d.get("statistic", {}))
    if workers is not None:
        kwargs["workers"] = workers
    try:
        return ExperimentPlan(**kwargs)
    except Exception as exc:
        raise PlanParseError(f"plan: {exc}") from None


def load_plan(path, workers=None):
    """Parse a JSON plan file; see README for the documented schema."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise PlanParseError(f"{path}: line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise PlanParseError(f"{path}: values nested too deeply") from None
    return plan_from_dict(doc, workers=workers)
