"""Command-line front end.

Subcommands: ``test`` (run the randomized significance test on a CSV),
``simulate`` (execute an experiment plan), ``power`` (empirical power
curve for a named scenario), ``theory`` (closed-form tuning/power curves)
and ``presets`` (list the bundled scenarios). Every failure path exits
nonzero with a single machine-parsable ``ERROR:<Code>:`` line on stderr.
"""

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import replace

import numpy as np

from ._version import __version__
from .dgp import PRESET_NAMES, PRESETS, preset
from .errors import (
    ColumnMissing,
    InvalidGrid,
    SplitwaldError,
    TooFewRows,
)
from .experiments import export_report, load_plan, power_curve_empirical, run_plan
from .randomization import SeedSpec
from .regression import RegressionData, Restriction
from .teststats import StatisticConfig, run_test
from .theory import asymptotic_power, elasticity, f_p0, g_p0

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_FLAGGED = 3

# Most points a --grid or --beta-grid may hold, and most rows --m-max may ask
# for, checked before the points are listed (about 40 bytes each).
MAX_GRID_POINTS = 100_000


def _parse_seed(text):
    # decimal or hex (0x...) 64-bit
    return int(text, 0)


def _parse_grid(text):
    """Parse ``lo:hi:step`` (inclusive within rounding) or a single value.
    Every number must be finite, and the point count at most
    :data:`MAX_GRID_POINTS`."""
    parts = text.split(":")
    if len(parts) == 1:
        parts = [text, text, "1"]  # a single value is the grid v:v:1
    try:
        if len(parts) != 3:
            raise ValueError("expected VALUE or LO:HI:STEP")
        lo, hi, step = (float(p) for p in parts)
    except ValueError as exc:
        raise InvalidGrid(f"bad grid {text!r}: {exc}") from None
    if not (0 < step < math.inf and lo <= hi and math.isfinite((hi - lo) / step)):
        raise InvalidGrid(f"bad grid {text!r}: need finite lo <= hi and step > 0")
    count = int(round((hi - lo) / step)) + 1
    if count > MAX_GRID_POINTS:
        raise InvalidGrid(
            f"bad grid {text!r}: {count} points, at most {MAX_GRID_POINTS} allowed"
        )
    values = [lo + i * step for i in range(count)]
    return [v for v in values if v <= hi + 1e-12]


def _count_lines(text):
    """Lines in ``text`` as ``csv`` splits them: at ``\\r\\n``, ``\\r`` or ``\\n``."""
    ends = text.count("\n")
    if "\r" in text:
        ends += text.count("\r") - text.count("\r\n")
    return ends + (text[-1:] not in ("", "\r", "\n"))


def _read_csv(path, y_col, x_cols):
    """The ``y_col`` and ``x_cols`` columns of the CSV at ``path``, as floats.

    The first row is the header. A cell is read as Python ``float()`` reads
    it, quoted or padded with whitespace; other columns may hold anything.
    A UTF-8 byte-order mark is dropped. A blank line or an empty or
    non-numeric cell is an error. A file with
    only its header gives empty arrays, which ``splitwald test`` rejects as
    ``TooFewRows``. Non-finite values parse here and are rejected later as
    ``NonFiniteInput``.

    One ``np.loadtxt`` call parses the body. Its result is kept only when it
    has one row per line, since numpy skips blank lines; otherwise
    :func:`_scan_rows` parses the same text again, and either names the bad
    line or accepts cells such as ``1_000`` that ``float()`` reads and numpy
    does not.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except FileNotFoundError:
        raise SplitwaldError(f"input file not found: {path}") from None
    cols = [y_col, *x_cols]
    with fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise TooFewRows(f"{path}: empty file") from None
        except csv.Error as exc:
            raise SplitwaldError(f"{path}: line 1: {exc}") from None
        for col in cols:
            if col not in header:
                raise ColumnMissing(f"{path}: column {col!r} not in header {header}")
        body = fh.read()
    usecols = [header.index(col) for col in cols]
    try:
        with warnings.catch_warnings():
            # A header-only or all-blank body parses to no rows and warns;
            # the row count below decides what that means.
            warnings.simplefilter("ignore", UserWarning)
            arr = np.loadtxt(
                io.StringIO(body),
                delimiter=",",
                usecols=usecols,
                dtype=np.float64,
                comments=None,
                quotechar='"',
                ndmin=2,
            )
    except ValueError:
        arr = None
    if arr is None or arr.shape[0] != _count_lines(body):
        arr = _scan_rows(path, body, cols, usecols)
    return arr[:, 0], arr[:, 1:]


def _scan_rows(path, body, cols, usecols):
    """Parse ``body`` record by record with ``csv`` and ``float()``.

    Raises a ``SplitwaldError`` naming the first line with a missing or
    non-numeric cell, or with a record ``csv`` cannot read (such as a field
    over its size limit), counting the header as line 1.
    """
    rows = []
    reader = csv.reader(io.StringIO(body, newline=""))
    try:
        for lineno, row in enumerate(reader, start=2):
            values = []
            for col, i in zip(cols, usecols):
                cell = row[i].strip() if i < len(row) else ""
                if cell == "":
                    raise SplitwaldError(
                        f"{path}: line {lineno}: missing value in column {col!r} "
                        "(missing data is an error, not imputed)"
                    )
                try:
                    values.append(float(cell))
                except ValueError:
                    raise SplitwaldError(
                        f"{path}: line {lineno}: non-numeric value {cell!r} "
                        f"in column {col!r}"
                    ) from None
            rows.append(values)
    except csv.Error as exc:
        raise SplitwaldError(f"{path}: line {reader.line_num + 1}: {exc}") from None
    return np.asarray(rows, dtype=np.float64)


def _statistic_config(args):
    return StatisticConfig(
        p0=args.p0,
        mode="fixed" if args.mn_delta is None else "growing",
        m=args.m,
        mn_delta=args.mn_delta,
        alpha=args.alpha,
    )


def _cmd_test(args):
    x_cols = [c.strip() for c in args.x.split(",") if c.strip()]
    if not x_cols:
        raise SplitwaldError("--x needs at least one predictor column")
    y_raw, x_raw = _read_csv(args.data, args.y, x_cols)

    # The file holds raw (y_t, x_t) rows in time order; the one-period lag
    # happens here so users never pre-lag (and never double-lag).
    y = y_raw[1:]
    X_lagged = x_raw[:-1]
    p = len(x_cols)
    if y.shape[0] < p + 3:
        raise TooFewRows(
            f"need at least {p + 3} usable rows after lagging, got {y.shape[0]}"
        )

    if args.restrict == "all":
        restriction = Restriction.all_slopes(p)
    else:
        names = [c.strip() for c in args.restrict.split(",") if c.strip()]
        indices = []
        for name in names:
            if name not in x_cols:
                raise ColumnMissing(
                    f"--restrict names {name!r}, which is not a predictor column"
                )
            indices.append(x_cols.index(name))
        restriction = Restriction.subset(indices, p)

    cfg = _statistic_config(args)
    data = RegressionData(y, X_lagged)
    outcome = run_test(data, restriction, cfg, SeedSpec(args.seed))

    decision = "reject H0" if outcome.reject else "fail to reject H0"
    print(f"S_M      = {outcome.s_m:.6f}")
    print(f"Q        = {outcome.q:.6f}")
    print(f"M        = {outcome.df_or_mn}")
    print(f"p0       = {cfg.p0}")
    print(f"mode     = {outcome.mode.value}")
    print(f"p-value  = {outcome.p_value:.6g}")
    print(f"decision = {decision} at level {cfg.alpha}")
    print(f"seed     = {outcome.seed.describe()}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(outcome.as_dict(), fh, indent=2)
            fh.write("\n")
    return EXIT_OK


def _cmd_simulate(args):
    plan = load_plan(args.plan, workers=args.workers)
    if args.replications is not None:
        plan = replace(plan, replications=args.replications)

    def progress(done, total):
        print(f"simulate: chunk {done}/{total}", file=sys.stderr)

    report = run_plan(plan, progress=progress)
    payload = export_report(report, args.format)
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"simulate: wrote {args.out}", file=sys.stderr)
    if report.flagged:
        print(
            "ERROR:ExcessDegeneracies: one or more cells exceeded the "
            "degenerate-replication limit",
            file=sys.stderr,
        )
        return EXIT_FLAGGED
    return EXIT_OK


def _cmd_power(args):
    spec = preset(
        args.preset,
        args.n,
        alpha1=args.alpha1,
        sigma_uv=args.sigma_uv,
        phi0=args.phi0,
    )
    cfg = _statistic_config(args)
    betas = sorted(_parse_grid(args.beta_grid))
    points = power_curve_empirical(
        spec,
        betas,
        cfg,
        reps=args.reps,
        seed=SeedSpec(args.seed),
        workers=args.workers,
    )
    lines = ["beta,rejection_rate,mc_se"]
    for pt in points:
        lines.append(
            f"{pt['beta']:.6g},{pt['rejection_rate']:.6g},{pt['mc_se']:.6g}"
        )
    _write_lines(args.out, lines)
    return EXIT_OK


def _cmd_theory(args):
    if args.curve in ("f", "g", "elasticity"):
        grid = _parse_grid(args.grid if args.grid else "0.05:0.95:0.01")
        fn = {"f": f_p0, "g": g_p0, "elasticity": elasticity}[args.curve]
        lines = [f"p0,{args.curve}"]
        for p0 in grid:
            lines.append(f"{p0:.6g},{fn(p0):.6g}")
    elif args.curve == "power_vs_m":
        if not 0 <= args.lam < math.inf:
            raise InvalidGrid(f"--lam must be finite and >= 0, got {args.lam}")
        if not 1 <= args.m_max <= MAX_GRID_POINTS:
            raise InvalidGrid(
                f"--m-max must be in [1, {MAX_GRID_POINTS}], got {args.m_max}"
            )
        lines = ["m,power"]
        for m in range(1, args.m_max + 1):
            lines.append(f"{m},{asymptotic_power(m * args.lam, m, args.alpha):.6g}")
    else:  # pragma: no cover - argparse enforces choices
        raise InvalidGrid(f"unknown curve {args.curve!r}")
    _write_lines(args.out, lines)
    return EXIT_OK


def _cmd_presets(args):
    del args
    for name, (alpha, rho, theta0, theta1) in PRESETS.items():
        if alpha is None:
            extras = "alpha1 and sigma_uv selectable; p=1"
        else:
            extras = f"alphas={alpha}; p={len(alpha)}"
        print(f"{name}: rho={rho}, theta0={theta0}, theta1={theta1}; {extras}")
    return EXIT_OK


def _write_lines(out, lines):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`SplitwaldError`,
    so that :func:`main` reports them as one ``ERROR:`` line like any other
    failure. Subcommand parsers inherit the class."""

    def error(self, message):
        raise SplitwaldError(message)


def build_parser():
    parser = _Parser(
        prog="splitwald",
        description="Randomized split-sample significance tests for predictive regressions.",
    )
    parser.add_argument(
        "--version", action="version", version=f"splitwald {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_statistic_flags(p):
        p.add_argument("--p0", type=float, default=0.40, help="tuning probability")
        p.add_argument("--m", type=int, default=None, help="explicit draw count")
        p.add_argument(
            "--mn-delta",
            type=float,
            default=None,
            dest="mn_delta",
            help="growth exponent for M_n = floor((n/p0)^delta)",
        )
        p.add_argument("--alpha", type=float, default=0.10, help="nominal level")

    t = sub.add_parser("test", help="run the test on a CSV of raw (y_t, x_t) columns")
    t.add_argument("data", help="CSV file with a header, comma separator, '.' decimal")
    t.add_argument("--y", required=True, help="predictand column name")
    t.add_argument("--x", required=True, help="comma list of predictor column names")
    t.add_argument(
        "--restrict",
        default="all",
        help="'all' (global null) or comma list of predictor names to restrict to zero",
    )
    add_statistic_flags(t)
    t.add_argument("--seed", type=_parse_seed, default=0, help="decimal or hex seed")
    t.add_argument("--out", default=None, help="write the outcome as JSON here")
    t.set_defaults(func=_cmd_test)

    s = sub.add_parser("simulate", help="run an experiment plan file")
    s.add_argument("plan", help="JSON plan file (see README for the schema)")
    s.add_argument("--out", required=True, help="report output path")
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    s.add_argument("--workers", type=int, default=None, help="override plan workers")
    s.add_argument(
        "--replications", type=int, default=None, help="override plan replications"
    )
    s.set_defaults(func=_cmd_simulate)

    w = sub.add_parser("power", help="empirical power curve for a preset scenario")
    w.add_argument(
        "--preset",
        required=True,
        help=f"scenario name, in any case: {', '.join(PRESET_NAMES)}",
    )
    w.add_argument("--n", type=int, required=True, help="sample size")
    w.add_argument("--alpha1", type=float, default=None, help="persistence exponent")
    w.add_argument("--sigma-uv", type=float, default=None, dest="sigma_uv")
    w.add_argument("--phi0", type=float, default=0.0)
    w.add_argument("--beta-grid", default="0:0.25:0.01", dest="beta_grid")
    add_statistic_flags(w)
    w.add_argument("--reps", type=int, default=2000)
    w.add_argument("--seed", type=_parse_seed, default=0)
    w.add_argument("--workers", type=int, default=1)
    w.add_argument("--out", default=None, help="CSV output path (stdout if omitted)")
    w.set_defaults(func=_cmd_power)

    th = sub.add_parser("theory", help="emit closed-form tuning/power curves as CSV")
    th.add_argument(
        "--curve", required=True, choices=("f", "g", "elasticity", "power_vs_m")
    )
    th.add_argument("--grid", default=None, help="p0 grid as LO:HI:STEP or VALUE")
    th.add_argument("--lam", type=float, default=2.0, help="per-draw noncentrality")
    th.add_argument("--m-max", type=int, default=30, dest="m_max")
    th.add_argument("--alpha", type=float, default=0.10)
    th.add_argument("--out", default=None, help="CSV output path (stdout if omitted)")
    th.set_defaults(func=_cmd_theory)

    pr = sub.add_parser("presets", help="list the bundled scenario presets")
    pr.set_defaults(func=_cmd_presets)

    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (SplitwaldError, ValueError, OSError, MemoryError) as exc:
        print(f"ERROR:{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
