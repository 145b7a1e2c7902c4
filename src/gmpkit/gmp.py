"""Geometric MyoPassivity (GMP) maps.

A GMP map indexes the measured excess of passivity of one subject by
interaction direction (8 cardinal spokes), muscle co-activation (the
measured mean %MVC of each cell, not the nominal target), and perturbation
frequency. Lookup interpolates bilinearly over the (%MVC, frequency) grid
of a spoke: %MVC extrapolation is clamped to the nearest edge, frequency
extrapolation is refused (no data outside the measured grid). Directions
are categorical; no interpolation across spokes.

The grid (directions, activation and frequency labels) is
:mod:`gmpkit.biomech`'s. A map cell keeps only what the map JSON
stores and :func:`lookup` reads: xi and the measured mean %MVC
(:class:`MapCell`); the estimate behind it stays with the estimates.

Maps are immutable after build; lookup is read-only and safe for
concurrent use by a controller loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .biomech import ACTIVATION_LABELS, FREQUENCY_LABELS, N_DIRECTIONS
from .errors import DataError, IncompleteMapError, MapConflictError, MapRangeError, SingularFitError
from .errors import json_field, json_value, read_json, write_json
from .passivity import EopEstimate

CellKey = tuple[int, str, str]  # (direction_index, activation_label, frequency_label)

# two frequencies within this relative distance are one point of a map's grid
_HZ_REL_TOL = 1e-9


@dataclass(frozen=True)
class TrendLine:
    """First-order least-squares fit of EoP against %MVC."""

    slope: float          # EoP per unit %MVC fraction, N*s/m
    intercept: float      # N*s/m
    frequency_label: str
    rss: float            # residual sum of squares
    n_points: int


@dataclass(frozen=True)
class MapCell:
    """One cell of a map: all that its JSON stores and :func:`lookup` reads."""

    xi: float             # N*s/m
    mean_pct_mvc: float   # fraction of MVC


@dataclass(frozen=True)
class GmpMap:
    """A subject's cells, and its frequency grid in grid order: by Hz, with the leading ``FREQUENCY_LABELS``."""

    subject_id: str
    cells: dict[CellKey, MapCell]
    frequencies: dict[str, float]   # frequency label -> Hz, lowest Hz first

    def __post_init__(self) -> None:
        frequencies = dict(sorted(self.frequencies.items(), key=lambda item: item[1]))
        if tuple(frequencies) != FREQUENCY_LABELS[:len(frequencies)]:
            raise MapConflictError(f"map {self.subject_id!r}: labels by Hz {frequencies} are not in grid order")
        object.__setattr__(self, "frequencies", frequencies)

    def grid_keys(self) -> list[CellKey]:
        return [
            (d, act, freq)
            for d in range(N_DIRECTIONS)
            for act in ACTIVATION_LABELS
            for freq in self.frequencies
        ]

    def missing_cells(self) -> list[CellKey]:
        return [key for key in self.grid_keys() if key not in self.cells]

    @property
    def complete(self) -> bool:
        return not self.missing_cells()


def build_map(
    estimates: Sequence[EopEstimate],
    subject_id: str,
    frequencies: dict[str, float] | None = None,
) -> GmpMap:
    """Assemble a map from estimates; duplicate cells are a hard conflict.

    The frequency grid (label -> Hz), ``frequencies`` plus the Hz the
    estimates carry, must give one Hz per label, and labels in Hz order
    (:class:`GmpMap`); with neither there is no grid, an ``IncompleteMapError``.
    """
    cells: dict[CellKey, MapCell] = {}
    freqs: dict[str, float] = dict(frequencies) if frequencies else {}
    for est in estimates:
        key = (est.direction_index, est.activation_label, est.frequency_label)
        if key in cells:
            raise MapConflictError(f"duplicate estimate for cell {key}")
        cells[key] = MapCell(est.xi, est.mean_pct_mvc)
        if est.frequency_hz is not None:
            known = freqs.get(est.frequency_label)
            if known is None:
                freqs[est.frequency_label] = float(est.frequency_hz)
            elif not math.isclose(known, est.frequency_hz, rel_tol=_HZ_REL_TOL):
                raise MapConflictError(
                    f"label {est.frequency_label!r} maps to both {known} and {est.frequency_hz} Hz"
                )
    if not freqs:
        raise IncompleteMapError(f"map {subject_id!r} has no frequency grid: no Hz given or estimated")
    return GmpMap(subject_id=subject_id, cells=cells, frequencies=freqs)


def median_map(maps: Sequence[GmpMap]) -> GmpMap:
    """Per-cell median of xi and of mean %MVC across complete maps: the map ``"median"``."""
    if len(maps) == 0:
        raise ValueError("need at least one map")
    grid = maps[0].frequencies
    for m in maps:
        if not m.complete:
            raise IncompleteMapError(f"map {m.subject_id!r} is missing cells: {m.missing_cells()}")
        if set(m.frequencies) != set(grid) or any(
            not math.isclose(m.frequencies[k], grid[k], rel_tol=_HZ_REL_TOL) for k in grid
        ):
            raise IncompleteMapError("maps do not share a frequency grid")
    cells = {
        key: MapCell(float(np.median([m.cells[key].xi for m in maps])),
                     float(np.median([m.cells[key].mean_pct_mvc for m in maps])))
        for key in maps[0].grid_keys()
    }
    return GmpMap(subject_id="median", cells=cells, frequencies=dict(grid))


def _interp_clamped(x: float, x0: float, y0: float, x1: float, y1: float) -> float:
    """Linear interpolation with nearest-edge clamping outside [x0, x1]."""
    if x1 < x0:
        x0, y0, x1, y1 = x1, y1, x0, y0
    if math.isclose(x0, x1, rel_tol=1e-12, abs_tol=1e-12):
        return 0.5 * (y0 + y1)
    if x <= x0:
        return y0
    if x >= x1:
        return y1
    frac = (x - x0) / (x1 - x0)
    return y0 + frac * (y1 - y0)


def lookup(gmp_map: GmpMap, direction_index: int, pct_mvc: float, frequency: float) -> float:
    """Predicted EoP at (direction, %MVC, frequency).

    Interpolates in %MVC along each measured frequency row (clamped at the
    row's node range), then linearly in frequency between the two rows.
    Frequencies outside the measured grid are refused.
    """
    if not 0 <= direction_index < N_DIRECTIONS:
        raise ValueError(f"direction_index out of range: {direction_index}")
    if not 0.0 <= pct_mvc <= 1.0:
        raise ValueError(f"pct_mvc must be within [0, 1], got {pct_mvc}")
    rows = list(gmp_map.frequencies.items())  # (label, Hz), in grid order
    (low, f0), (high, f1) = rows[0], rows[-1]
    tol = _HZ_REL_TOL * max(1.0, abs(f1))
    if frequency < f0 - tol or frequency > f1 + tol:
        raise MapRangeError(
            f"frequency {frequency} Hz outside map grid [{f0}, {f1}] Hz"
        )

    def xi_at(label: str) -> float:
        nodes = []
        for act in ACTIVATION_LABELS:
            key = (direction_index, act, label)
            if key not in gmp_map.cells:
                raise IncompleteMapError(f"map {gmp_map.subject_id!r} missing cell {key}")
            cell = gmp_map.cells[key]
            nodes.append((cell.mean_pct_mvc, cell.xi))
        (p0, v0), (p1, v1) = nodes
        return _interp_clamped(pct_mvc, p0, v0, p1, v1)

    y0 = xi_at(low)
    if len(rows) == 1:
        return y0
    return _interp_clamped(min(max(frequency, f0), f1), f0, y0, f1, xi_at(high))


def fit_trend(estimates: Sequence[EopEstimate], frequency_label: str) -> TrendLine:
    """Ordinary least squares of xi on measured %MVC for one frequency."""
    pts = [e for e in estimates if e.frequency_label == frequency_label]
    if len(pts) < 2:
        raise SingularFitError(
            f"need >= 2 estimates with frequency label {frequency_label!r}, got {len(pts)}"
        )
    x = np.array([e.mean_pct_mvc for e in pts])
    y = np.array([e.xi for e in pts])
    x_span = x.max() - x.min()
    if x_span <= 1e-12 * max(1.0, abs(x).max()):
        raise SingularFitError("all %MVC values identical; slope is undefined")
    x_mean, y_mean = x.mean(), y.mean()
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / np.sum((x - x_mean) ** 2))
    intercept = float(y_mean - slope * x_mean)
    rss = float(np.sum((y - (intercept + slope * x)) ** 2))
    return TrendLine(
        slope=slope,
        intercept=intercept,
        frequency_label=frequency_label,
        rss=rss,
        n_points=len(pts),
    )


# -- persistence -------------------------------------------------------------


def save_map_json(gmp_map: GmpMap, path) -> None:
    """Persist as ``{subject, grid:{frequencies, directions}, cells:[...]}``."""
    doc = {
        "subject": gmp_map.subject_id,
        "grid": {
            "frequencies": list(gmp_map.frequencies.values()),
            "directions": N_DIRECTIONS,
        },
        "cells": [
            {
                "dir": key[0],
                "activation": key[1],
                "frequency": gmp_map.frequencies[key[2]],
                "xi": gmp_map.cells[key].xi,
                "pct_mvc": gmp_map.cells[key].mean_pct_mvc,
            }
            for key in sorted(gmp_map.cells)
        ],
    }
    write_json(path, doc)


def load_map_json(path) -> GmpMap:
    """Rebuild a lookup-ready map from its JSON document.

    A document that does not parse, or lacks a key, or holds a value of the
    wrong type or a non-finite number, or no grid frequency, or grid
    frequencies that repeat or are not > 0, or a cell outside the grid or
    twice, or a cell whose %MVC is negative (an RMS ratio cannot be), is a
    ``DataError`` that names the file.
    """
    doc = read_json(path, "map")
    source = f"map {path}"
    subject = json_field(source, doc, "subject", str)
    grid = json_field(source, doc, "grid", dict)
    directions = json_field(source, grid, "directions", int)
    if directions != N_DIRECTIONS:
        raise DataError(f"{source}: unsupported direction count {directions}")
    grid_freqs = sorted(json_value(source, "a grid frequency", f, float)
                        for f in json_field(source, grid, "frequencies", list))
    if not 1 <= len(grid_freqs) <= len(FREQUENCY_LABELS):
        raise DataError(f"{source}: need 1 to {len(FREQUENCY_LABELS)} grid frequencies, "
                        f"got {len(grid_freqs)}")
    if any(not hz > 0 for hz in grid_freqs) or any(
        math.isclose(lower, higher, rel_tol=_HZ_REL_TOL) for lower, higher in zip(grid_freqs, grid_freqs[1:])
    ):
        raise DataError(f"{source}: grid frequencies must be distinct and > 0, got {grid_freqs}")
    frequencies = dict(zip(FREQUENCY_LABELS, grid_freqs))
    cells: dict[CellKey, MapCell] = {}
    for cell in json_field(source, doc, "cells", list):
        direction = json_field(source, cell, "dir", int)
        activation = json_field(source, cell, "activation", str)
        if not 0 <= direction < N_DIRECTIONS or activation not in ACTIVATION_LABELS:
            raise DataError(f"{source}: no grid cell for dir {direction}, activation {activation!r}")
        hz = json_field(source, cell, "frequency", float)
        matches = [label for label, known_hz in frequencies.items() if math.isclose(known_hz, hz, rel_tol=_HZ_REL_TOL)]
        if not matches:
            raise DataError(f"{source}: cell frequency {hz} Hz not in grid {grid_freqs}")
        key = (direction, activation, matches[0])
        if key in cells:
            raise DataError(f"{source}: duplicate cell {key}")
        pct = json_field(source, cell, "pct_mvc", float)
        if pct < 0:
            raise DataError(f"{source}: cell {key} has a negative %MVC {pct}")
        cells[key] = MapCell(json_field(source, cell, "xi", float), pct)
    return GmpMap(subject, cells, frequencies)

