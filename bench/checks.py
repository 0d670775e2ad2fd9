"""Correctness gate, layer-share sanity check and provenance for a run.

The gate never retries: one failed check makes the whole run incorrect.
"""

import json
import math
import os
import platform
from pathlib import Path

NOMINAL_LEVEL = 0.10
# Allowance for the test's finite-sample size distortion, the tolerance the
# acceptance suite uses around the paper's size tables (SIZE_TOL there).
# DGP2c_ii at n=2000 rejects about 8.7% of the time under the null.
SIZE_ALLOWANCE = 0.025
# Two-sided normal quantile for a 1e-4 chance of a false alarm.
Z_BAND = 3.89

# Layer shares of one replication measured for ROADMAP item 1, as (low,
# high); a traced share further than SHARE_MARGIN outside is reported.
EXPECTED_SHARES = {
    "mc-persistent-m50": {"dgp.share": (0.10, 0.10), "randomization.share": (0.60, 0.65)},
    "mc-threepred-arch": {"dgp.share": (0.60, 0.60), "randomization.share": (0.20, 0.25)},
}
SHARE_MARGIN = 0.10


class Gate:
    """Collects failed checks; the run is correct when none failed."""

    def __init__(self):
        self.failures = []

    def require(self, ok, message):
        if not ok:
            self.failures.append(message)
        return ok

    @property
    def ok(self):
        return not self.failures


def rejection_band(n):
    """Band for the null rejection rate of ``n`` replications at level 0.10."""
    half = SIZE_ALLOWANCE + Z_BAND * math.sqrt(
        NOMINAL_LEVEL * (1.0 - NOMINAL_LEVEL) / n
    )
    return NOMINAL_LEVEL - half, NOMINAL_LEVEL + half


def check_rejections(gate, rejected, n):
    if not gate.require(n > 0, "no replication produced a test outcome"):
        return
    lo, hi = rejection_band(n)
    rate = rejected / n
    gate.require(
        lo <= rate <= hi,
        f"null rejection rate {rate:.4f} over {n} replications is outside "
        f"[{lo:.4f}, {hi:.4f}] around the nominal {NOMINAL_LEVEL}",
    )


def check_outcome_file(gate, path, call):
    """A `splitwald test --out` file must exist and hold a p-value in [0, 1]."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            p_value = json.load(fh)["p_value"]
    except (OSError, ValueError, KeyError) as exc:
        gate.require(False, f"call {call}: no readable outcome JSON ({exc})")
        return
    gate.require(
        type(p_value) in (int, float) and 0.0 <= p_value <= 1.0,
        f"call {call}: p_value {p_value!r} is not in [0, 1]",
    )


def share_disagreements(workload, metrics):
    """Traced layer shares that disagree with the ROADMAP baseline."""
    out = []
    for name, (low, high) in EXPECTED_SHARES.get(workload, {}).items():
        value = metrics[name][0]
        if not low - SHARE_MARGIN <= value <= high + SHARE_MARGIN:
            out.append(
                f"{name} = {value:.3f}, baseline {low:.2f}-{high:.2f} "
                f"(margin {SHARE_MARGIN})"
            )
    return out


def _git_commit(root):
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_lines(root):
    return sum(
        len(path.read_bytes().splitlines())
        for path in sorted((Path(root) / "src").rglob("*.py"))
    )


def provenance(root, numpy_version):
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "src_lines": _src_lines(root),
    }
