"""Exception types shared across the toolkit.

Callers that need to distinguish failure modes (the CLI maps them to exit
codes) catch these; everything derives from GmpkitError so `except
GmpkitError` catches any toolkit-level failure without swallowing plain
bugs. :func:`write_json` and :func:`read_json` store and parse the JSON
documents (a map or a manifest), and :func:`json_field` reads one typed
value from a parsed one, so that a document that does not parse or is of
the wrong shape is a DataError. Its type check, :func:`typed_json`, also
reads the manifest's copy of the config (``config.json_setting``).
"""

import json
import math


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


def write_json(path, doc) -> None:
    """``doc`` as JSON: indented by 2, keys sorted, with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, kind: str):
    """The parsed JSON document at ``path``; one that does not parse is a DataError naming the ``kind``."""
    with open(path, "r") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise DataError(f"cannot read {kind} {path}: {exc}") from None


def json_field(source: str, obj, key: str, kind: type):
    """``obj[key]`` of the given JSON type (float: a finite number), else a DataError.

    ``source`` names the document in the message, e.g. ``"map <path>"``.
    """
    if not isinstance(obj, dict) or key not in obj:
        raise DataError(f"{source}: missing key {key!r}")
    return json_value(source, key, obj[key], kind)


def json_value(source: str, what: str, value, kind: type):
    try:
        return typed_json(value, kind)
    except TypeError as exc:
        raise DataError(f"{source}: {what} {exc}") from None


def typed_json(value, kind: type):
    """``value`` if it is a JSON ``kind``, else TypeError.

    A float is any finite number, returned as a float.
    """
    if kind is float:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)
    else:
        ok = isinstance(value, kind) and not (kind is int and isinstance(value, bool))
    if not ok:
        expected = "a finite number" if kind is float else f"of type {kind.__name__}"
        raise TypeError(f"must be {expected}, got {value!r}")
    return float(value) if kind is float else value
