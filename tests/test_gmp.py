import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gmpkit.errors import DataError, IncompleteMapError, MapConflictError, MapRangeError, SingularFitError
from gmpkit.gmp import (
    build_map,
    fit_trend,
    load_map_json,
    lookup,
    median_map,
    save_map_json,
)
from gmpkit.passivity import EopEstimate

FREQS = {"low": 1.0, "high": 3.0}
PCTS = {"relaxed": 0.05, "stiff": 0.40}


def make_estimate(direction, activation, frequency, xi, pct=None, subject="S1"):
    return EopEstimate(
        subject_id=subject,
        direction_index=direction,
        activation_label=activation,
        frequency_label=frequency,
        xi=xi,
        mean_pct_mvc=PCTS[activation] if pct is None else pct,
        numerator=xi,
        denominator=1.0,
        frequency_hz=FREQS[frequency],
    )


def full_grid(xi_fn, subject="S1"):
    return [
        make_estimate(d, act, freq, xi_fn(d, act, freq), subject=subject)
        for d in range(8)
        for act in ("relaxed", "stiff")
        for freq in ("low", "high")
    ]


def simple_xi(d, act, freq):
    base = 10.0 + d
    base += 8.0 if act == "stiff" else 0.0
    base += 5.0 if freq == "low" else 0.0
    return base


def test_build_complete_map():
    gmp_map = build_map(full_grid(simple_xi), "S1")
    assert gmp_map.complete
    assert len(gmp_map.cells) == 32
    assert gmp_map.frequencies == FREQS
    assert gmp_map.missing_cells() == []


def test_build_empty_map_reports_missing():
    gmp_map = build_map([], "S1", frequencies=FREQS)
    assert not gmp_map.complete
    assert len(gmp_map.missing_cells()) == 32


def test_build_duplicate_cell_conflicts():
    estimates = full_grid(simple_xi)
    estimates.append(make_estimate(0, "relaxed", "low", 99.0))
    with pytest.raises(MapConflictError):
        build_map(estimates, "S1")


def test_build_refuses_labels_against_hz_order():
    # low at 3 Hz and high at 1 Hz: saved by Hz, such a map would swap its columns on load
    swapped = [replace(e, frequency_hz=4.0 - e.frequency_hz) for e in full_grid(simple_xi)]
    with pytest.raises(MapConflictError, match="not in grid order"):
        build_map(swapped, "S1")
    with pytest.raises(MapConflictError):
        build_map([], "S1", frequencies={"high": 1.0})


@pytest.mark.parametrize("frequencies, got", [
    ({"low": -1.0}, "[-1.0]"),
    ({"low": 0.0, "high": 3.0}, "[0.0, 3.0]"),
    ({"low": math.nan}, "[nan]"),
    ({"low": 1.0, "high": math.inf}, "[1.0, inf]"),
    ({"low": 1.0, "high": 1.0 + 1e-12}, "[1.0, 1.000000000001]"),
], ids=["negative", "zero", "nan", "inf", "repeat"])
def test_map_refuses_the_grid_frequencies_its_json_refuses(frequencies, got):
    # the rule load_map_json applies, so a map that builds also loads back
    with pytest.raises(DataError, match=rf"map 'S1': grid frequencies must be distinct and > 0, got {re.escape(got)}"):
        build_map([], "S1", frequencies=frequencies)


def test_map_holds_frequencies_in_grid_order():
    gmp_map = build_map([], "S1", frequencies={"high": 3.0, "low": 1.0})
    assert list(gmp_map.frequencies.items()) == [("low", 1.0), ("high", 3.0)]
    assert [key[2] for key in gmp_map.grid_keys()[:2]] == ["low", "high"]


def test_median_of_single_map_is_identity():
    gmp_map = build_map(full_grid(simple_xi), "S1")
    med = median_map([gmp_map])
    for key, cell in gmp_map.cells.items():
        assert med.cells[key].xi == cell.xi
        assert med.cells[key].mean_pct_mvc == cell.mean_pct_mvc


def test_median_robust_to_outlier():
    maps = [
        build_map(full_grid(lambda d, a, f: xi), f"S{i + 1}")
        for i, xi in enumerate((1.0, 2.0, 100.0))
    ]
    med = median_map(maps)
    assert med.cells[(0, "relaxed", "low")].xi == 2.0


def test_median_permutation_invariant_and_idempotent():
    rng = np.random.default_rng(0)
    maps = [
        build_map(full_grid(lambda d, a, f, o=offset: simple_xi(d, a, f) + o), f"S{i + 1}")
        for i, offset in enumerate(rng.normal(size=5))
    ]
    forward = median_map(maps)
    shuffled = median_map(maps[::-1])
    for key in forward.cells:
        assert forward.cells[key].xi == shuffled.cells[key].xi
    self_median = median_map([forward, forward, forward])
    for key in forward.cells:
        assert self_median.cells[key].xi == forward.cells[key].xi


def test_median_requires_complete_maps():
    incomplete = build_map(full_grid(simple_xi)[:-1], "S1")
    with pytest.raises(IncompleteMapError):
        median_map([incomplete])


def test_lookup_reproduces_nodes_exactly():
    gmp_map = build_map(full_grid(simple_xi), "S1")
    for (d, act, freq), cell in gmp_map.cells.items():
        value = lookup(gmp_map, d, cell.mean_pct_mvc, FREQS[freq])
        assert value == pytest.approx(cell.xi, abs=1e-12)


def test_lookup_midpoint_between_activation_nodes():
    gmp_map = build_map(full_grid(simple_xi), "S1")
    lo = gmp_map.cells[(0, "relaxed", "low")].xi
    hi = gmp_map.cells[(0, "stiff", "low")].xi
    mid_pct = 0.5 * (PCTS["relaxed"] + PCTS["stiff"])
    assert lookup(gmp_map, 0, mid_pct, 1.0) == pytest.approx(0.5 * (lo + hi), abs=1e-12)


def test_lookup_interpolates_in_frequency():
    gmp_map = build_map(full_grid(simple_xi), "S1")
    value = lookup(gmp_map, 3, 0.2, 2.0)
    cells = [gmp_map.cells[(3, act, freq)].xi for act in ("relaxed", "stiff") for freq in ("low", "high")]
    assert min(cells) <= value <= max(cells)


def test_lookup_clamps_pct_extrapolation():
    gmp_map = build_map(full_grid(simple_xi), "S1")
    at_zero = lookup(gmp_map, 0, 0.0, 1.0)
    assert at_zero == pytest.approx(gmp_map.cells[(0, "relaxed", "low")].xi)
    at_one = lookup(gmp_map, 0, 1.0, 1.0)
    assert at_one == pytest.approx(gmp_map.cells[(0, "stiff", "low")].xi)


def test_lookup_refuses_frequency_outside_grid():
    gmp_map = build_map(full_grid(simple_xi), "S1")
    with pytest.raises(MapRangeError):
        lookup(gmp_map, 0, 0.2, 5.0)
    with pytest.raises(MapRangeError):
        lookup(gmp_map, 0, 0.2, 0.5)
    with pytest.raises(MapRangeError, match="frequency nan Hz outside map grid"):
        lookup(gmp_map, 0, 0.2, math.nan)


def test_lookup_validates_arguments():
    gmp_map = build_map(full_grid(simple_xi), "S1")
    with pytest.raises(ValueError):
        lookup(gmp_map, 9, 0.2, 1.0)
    with pytest.raises(ValueError):
        lookup(gmp_map, 0, 1.5, 1.0)


@given(
    st.integers(min_value=0, max_value=7),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=1.0, max_value=3.0),
)
def test_lookup_stays_in_node_hull(direction, pct, frequency):
    gmp_map = build_map(full_grid(simple_xi), "S1")
    value = lookup(gmp_map, direction, pct, frequency)
    nodes = [
        gmp_map.cells[(direction, act, freq)].xi
        for act in ("relaxed", "stiff")
        for freq in ("low", "high")
    ]
    assert min(nodes) - 1e-12 <= value <= max(nodes) + 1e-12


def test_fit_trend_two_points_exact():
    estimates = [
        make_estimate(0, "relaxed", "low", 10.0, pct=0.05),
        make_estimate(0, "stiff", "low", 24.0, pct=0.40),
    ]
    trend = fit_trend(estimates, "low")
    assert trend.slope == pytest.approx(40.0, abs=1e-12)
    assert trend.intercept == pytest.approx(8.0, abs=1e-12)
    assert trend.rss == pytest.approx(0.0, abs=1e-18)


def test_fit_trend_collinear_points():
    estimates = [
        make_estimate(d, act, "low", 30.0 * pct + 5.0, pct=pct)
        for d, (act, pct) in enumerate(
            (("relaxed", 0.05), ("stiff", 0.2), ("relaxed", 0.35), ("stiff", 0.5))
        )
    ]
    trend = fit_trend(estimates, "low")
    assert trend.slope == pytest.approx(30.0, abs=1e-9)
    assert trend.intercept == pytest.approx(5.0, abs=1e-9)


def test_fit_trend_singular():
    estimates = [
        make_estimate(0, "relaxed", "low", 10.0, pct=0.2),
        make_estimate(1, "relaxed", "low", 12.0, pct=0.2),
    ]
    with pytest.raises(SingularFitError):
        fit_trend(estimates, "low")
    with pytest.raises(SingularFitError):
        fit_trend(estimates, "high")


@given(st.floats(min_value=-50.0, max_value=50.0))
def test_fit_trend_shift_invariance(shift):
    base = [
        make_estimate(d, act, "low", simple_xi(d, act, "low"), pct=0.05 + 0.04 * d)
        for d in range(8)
        for act in ("relaxed",)
    ]
    shifted = [
        make_estimate(e.direction_index, e.activation_label, "low", e.xi + shift, pct=e.mean_pct_mvc)
        for e in base
    ]
    t0 = fit_trend(base, "low")
    t1 = fit_trend(shifted, "low")
    assert t1.slope == pytest.approx(t0.slope, abs=1e-9)
    assert t1.intercept == pytest.approx(t0.intercept + shift, abs=1e-9)


def test_map_json_round_trip(tmp_path):
    gmp_map = build_map(full_grid(simple_xi), "S1", frequencies={"high": 3.0, "low": 1.0})
    path = tmp_path / "map.json"
    save_map_json(gmp_map, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"subject", "grid", "cells"}
    assert doc["grid"] == {"frequencies": [1.0, 3.0], "directions": 8}
    assert len(doc["cells"]) == 32
    assert set(doc["cells"][0]) == {"dir", "activation", "frequency", "xi", "pct_mvc"}
    back = load_map_json(path)
    assert back.subject_id == "S1"
    assert back.complete
    assert list(back.frequencies.items()) == list(gmp_map.frequencies.items())
    assert back.cells == gmp_map.cells  # every cell under its own label
    assert lookup(back, 2, 0.3, 2.0) == pytest.approx(lookup(gmp_map, 2, 0.3, 2.0))
