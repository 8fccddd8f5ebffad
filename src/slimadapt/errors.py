"""Exception taxonomy shared by the whole package, and the integer check
the library constructors share.

The CLI maps these onto process exit codes, so library code should raise
the most specific class that applies instead of bare ValueError/RuntimeError.
"""

import numbers


class SlimAdaptError(Exception):
    """Base class for all package errors."""


class ConfigError(SlimAdaptError):
    """A configuration is structurally invalid (bad shapes, illegal widths,
    missing config fields, checkpoint/architecture mismatch)."""


class UsageError(SlimAdaptError):
    """An API was called in a way its contract forbids (out-of-range
    argument, missing recalibration, label access from a training path)."""


class NumericError(SlimAdaptError):
    """A numeric invariant broke: NaN/Inf appeared in a tensor or loss."""


class SearchError(SlimAdaptError):
    """Architecture search could not produce a legal candidate."""


class LabelLeakageError(UsageError):
    """Hidden target labels were requested outside an evaluation path."""


def is_int_at_least(value, minimum: int) -> bool:
    """Whether `value` is an integer (a Python or numpy int, never a bool)
    of at least `minimum`; a float fails it, NaN and 2.0 included."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= minimum
