"""Spans around each layer's entry points, recorded from outside the library.

The tracer swaps the names that a layer's caller looks up at call time (for
example ``teststats.draw_bernoulli_weights``) for timing wrappers, and puts
the originals back afterwards. Nothing inside ``src/`` changes. A name that
no longer exists is skipped and listed in ``Tracer.missing``; its layer then
reports zero calls instead of failing the run.
"""

import contextlib
import itertools
import statistics
from time import perf_counter

# (module, attribute path, layer). The span is named "<module>.<path>"; the
# layer is the module under src/splitwald that does the work. Methods are
# listed before the class name they hang off, because that name is replaced
# by a wrapper function once it is patched.
TRACE_POINTS = (
    ("experiments", "_run_chunk", "experiments"),
    ("experiments", "simulate", "dgp"),
    ("experiments", "run_test", "teststats"),
    ("teststats", "DesignFactor.unrestricted", "regression"),
    ("teststats", "DesignFactor.restricted", "regression"),
    ("teststats", "DesignFactor", "regression"),
    ("teststats", "draw_bernoulli_weights", "randomization"),
    ("teststats", "compute_d_sequence", "teststats"),
    ("teststats", "single_shot", "teststats"),
    ("teststats", "chisq_sf", "distributions"),
    ("teststats", "normal_sf", "distributions"),
    ("cli", "_read_csv", "cli"),
    ("cli", "run_test", "teststats"),
)

# Root spans that the benchmark opens around its own calls into the library.
ROOT_LAYERS = {"experiments.run_plan": "experiments", "cli.main": "cli"}

LAYER_OF = {f"{module}.{path}": layer for module, path, layer in TRACE_POINTS}
LAYER_OF.update(ROOT_LAYERS)

# Work done per call, as a count, from the call's arguments and result.
WORK = {
    # shocks drawn: (burn_in + n) time steps of p + 1 shocks each
    "experiments.simulate": lambda args, result: (args[0].burn_in + args[0].n)
    * (args[0].p + 1),
    # uniforms drawn: one per observation
    "teststats.draw_bernoulli_weights": lambda args, result: int(args[0]),
    # data rows parsed
    "cli._read_csv": lambda args, result: len(result[0]),
}


def _count_work(name, args, result):
    work = WORK.get(name)
    if work is None or result is None:
        return 0
    try:
        return work(args, result)
    except (AttributeError, IndexError, TypeError):
        # the call's signature changed; the count is unknown, not an error
        return 0


class Tracer:
    """In-memory span recorder.

    Each span is ``(span_id, parent_id, name, start, end, work)``; the
    parent is the span open when the call began (-1 for a root span).
    """

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = [-1]
        self._ids = itertools.count()
        self._patched = []

    def wrap(self, name, fn):
        spans, stack, ids = self.spans, self._stack, self._ids

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    (span_id, parent, name, start, end, _count_work(name, args, result))
                )

        return traced

    @contextlib.contextmanager
    def installed(self, modules):
        """Patch the trace points of ``modules`` (name -> module) for the block."""
        self.missing = []
        try:
            self._install(modules)
            yield self
        finally:
            self._uninstall()

    def _install(self, modules):
        for module, path, _layer in TRACE_POINTS:
            if module not in modules:
                continue  # the workload does not reach this module
            name = f"{module}.{path}"
            owner = modules[module]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original))

    def _uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write_tsv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id\tparent_id\tname\tstart\tend\twork\n")
            for span in self.spans:
                fh.write("\t".join(str(v) for v in span) + "\n")


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(spans, busy_scale, workers, timed_wall):
    """Per-layer metrics from recorded spans.

    Self time is a span's duration minus the durations of its child spans;
    a layer's share is its self time over the traced wall time (the summed
    root spans). ``parallel_eff`` divides the chunk busy seconds, scaled by
    ``busy_scale`` to remove tracing overhead, by ``workers * timed_wall``.
    """
    child_time = {}
    for _sid, parent, _name, start, end, _work in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    durations = {}
    work = {}
    layer_self = {}
    fit_per_test = {}
    for sid, parent, name, start, end, count in spans:
        dur = end - start
        durations.setdefault(name, []).append(dur)
        work[name] = work.get(name, 0) + count
        layer = LAYER_OF[name]
        layer_self[layer] = layer_self.get(layer, 0.0) + dur - child_time.get(sid, 0.0)
        if layer == "regression":
            # one fit = the factorization plus both solves of one test
            fit_per_test[parent] = fit_per_test.get(parent, 0.0) + dur

    wall = child_time.get(-1, 0.0)

    def calls(*names):
        return sum(len(durations.get(n, ())) for n in names)

    def p50(*names):
        return _median([d for n in names for d in durations.get(n, ())])

    def share(layer):
        return layer_self.get(layer, 0.0) / wall if wall else 0.0

    def rate(name):
        total = sum(durations.get(name, ()))
        return work.get(name, 0) / total if total else 0.0

    chunk_busy = sum(durations.get("experiments._run_chunk", ()))
    denominator = workers * timed_wall
    run_test = ("experiments.run_test", "cli.run_test")
    pvalue = ("teststats.chisq_sf", "teststats.normal_sf")
    return {
        "dgp.simulate.calls": (calls("experiments.simulate"), "count"),
        "dgp.simulate.us_p50": (p50("experiments.simulate") * 1e6, "us"),
        "dgp.share": (share("dgp"), "ratio"),
        "dgp.shocks_per_s": (rate("experiments.simulate"), "1/s"),
        "randomization.draw.calls": (calls("teststats.draw_bernoulli_weights"), "count"),
        "randomization.draw.us_p50": (p50("teststats.draw_bernoulli_weights") * 1e6, "us"),
        "randomization.uniforms": (work.get("teststats.draw_bernoulli_weights", 0), "count"),
        "randomization.share": (share("randomization"), "ratio"),
        "teststats.run_test.us_p50": (p50(*run_test) * 1e6, "us"),
        "teststats.passes": (calls("teststats.compute_d_sequence", "teststats.single_shot"), "count"),
        "teststats.share": (share("teststats"), "ratio"),
        "regression.fit.calls": (len(fit_per_test), "count"),
        "regression.fit.us_p50": (_median(list(fit_per_test.values())) * 1e6, "us"),
        "regression.share": (share("regression"), "ratio"),
        "distributions.pvalue.calls": (calls(*pvalue), "count"),
        "distributions.pvalue.us_p50": (p50(*pvalue) * 1e6, "us"),
        "distributions.share": (share("distributions"), "ratio"),
        "experiments.chunks": (calls("experiments._run_chunk"), "count"),
        "experiments.chunk.ms_p50": (p50("experiments._run_chunk") * 1e3, "ms"),
        "experiments.share": (share("experiments"), "ratio"),
        "experiments.parallel_eff": (
            chunk_busy * busy_scale / denominator if denominator else 0.0,
            "ratio",
        ),
        "cli.read_csv.ms_p50": (p50("cli._read_csv") * 1e3, "ms"),
        "cli.read_csv.rows_per_s": (rate("cli._read_csv"), "1/s"),
        "cli.share": (share("cli"), "ratio"),
    }
