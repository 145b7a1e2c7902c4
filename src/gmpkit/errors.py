"""Exception types shared across the toolkit.

Callers that need to distinguish failure modes (the CLI maps them to exit
codes) catch these; everything derives from GmpkitError so `except
GmpkitError` catches any toolkit-level failure without swallowing plain
bugs.
"""


class GmpkitError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(GmpkitError, ValueError):
    """Invalid or inconsistent configuration / scenario definition."""


class WindowRangeError(GmpkitError, ValueError):
    """A time window is degenerate or lies outside the signal span."""


class AlignmentError(GmpkitError, ValueError):
    """Two signals do not share rate, length, start time or channel count."""


class IntegrationError(GmpkitError, RuntimeError):
    """Fixed-step integration cannot proceed (step too large / blow-up)."""


class DataError(GmpkitError):
    """A stored input is unreadable, damaged, or of an unsupported schema."""


class DegenerateTrialError(GmpkitError, ValueError):
    """A trial carries too little motion energy to identify anything."""


class MapConflictError(GmpkitError, ValueError):
    """Two estimates claim the same (direction, activation, frequency) cell."""


class IncompleteMapError(GmpkitError, ValueError):
    """An operation requires a complete map but cells are missing."""


class MapRangeError(GmpkitError, ValueError):
    """A map query lies outside the supported grid (e.g. frequency)."""


class DegenerateSampleError(GmpkitError, ValueError):
    """A statistical sample is degenerate (all zero differences, zero variance)."""


class SingularFitError(GmpkitError, ValueError):
    """A least-squares fit has no unique solution."""


class InvalidComparisonError(GmpkitError, ValueError):
    """Two runs cannot be compared (unbounded, or mismatched scenario)."""
