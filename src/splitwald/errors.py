"""Exception types shared across the package, and its number checks.

Every error raised by the library derives from :class:`SplitwaldError` so
callers (and the CLI) can catch one base class and map the concrete type to
a machine-readable code via ``type(exc).__name__``.
"""

import math
import numbers
import reprlib


def check_integer(name, value, low):
    """``value`` as an ``int`` of at least ``low``.

    Python and numpy integers pass; ``bool``, floats and strings raise
    ``ValueError`` naming ``name``, so no count is silently rounded. The
    message shows the value in brief (``reprlib``), so a long or deeply
    nested value gives a short line.
    """
    # a plain int skips the slow ABC check; bool is not type int
    integral = type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )
    if not integral or value < low:
        raise ValueError(
            f"{name} must be an integer >= {low}, got {reprlib.repr(value)}"
        )
    return int(value)


def check_real(name, value):
    """``value`` as a finite ``float``.

    Python and numpy integers and floats pass; ``bool``, strings and
    non-finite values raise ``ValueError`` naming ``name``, so no flag or
    text is silently read as a number. The message shows the value in
    brief, as :func:`check_integer`'s does.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        finite = real and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        finite = False
    if not finite:
        raise ValueError(
            f"{name} must be a finite real number, got {reprlib.repr(value)}"
        )
    return float(value)


class SplitwaldError(Exception):
    """Base class for all library errors."""


class NonFiniteInput(SplitwaldError):
    """Input arrays contain NaN or infinite entries."""


class SingularDesign(SplitwaldError):
    """The intercept-augmented design matrix is numerically rank-deficient."""


class SingularRestriction(SplitwaldError):
    """Restriction matrix is rank-deficient or does not fit the slopes."""


class InvalidP0(SplitwaldError):
    """Tuning probability outside the admissible set."""


class InvalidLength(SplitwaldError):
    """Requested sequence length is too short."""


class DegenerateVariance(SplitwaldError):
    """Contrast sequence has (numerically) zero sample variance."""

    def __init__(self, message, draw_index=None):
        super().__init__(message)
        self.draw_index = draw_index


class NonConvergence(SplitwaldError):
    """An iterative evaluation failed to reach tolerance within its cap."""


class InvalidProbability(SplitwaldError):
    """Probability argument outside (0, 1)."""


class InvalidDelta(SplitwaldError):
    """Growth exponent outside (0, 1)."""


class InvalidKurtosis(SplitwaldError):
    """Kurtosis must exceed 1."""


class NotPositiveDefinite(SplitwaldError):
    """Matrix is not symmetric positive definite."""


class NumericOverflow(SplitwaldError):
    """Simulated state exceeded the overflow guard (explosive parameters).

    ``index`` is the 0-based replication: its position in the seeds of
    :func:`splitwald.simulate_many`, and its index within its plan cell
    when raised by :func:`splitwald.run_plan`.
    """

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class UnknownPreset(SplitwaldError):
    """Requested scenario preset name does not exist."""


class PlanParseError(SplitwaldError):
    """Experiment plan file is malformed; message names the offending field."""


class EmptyReport(SplitwaldError):
    """Report contains no cells."""


class InvalidGrid(SplitwaldError):
    """Requested evaluation grid is empty or out of bounds."""


class ColumnMissing(SplitwaldError):
    """Named CSV column not present in the header."""


class TooFewRows(SplitwaldError):
    """CSV has too few usable rows after lagging."""
