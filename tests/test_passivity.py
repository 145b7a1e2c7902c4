import math
from dataclasses import replace

import numpy as np
import pytest

from gmpkit.biomech import DEFAULT_MVC_RMS_MV, ActivationProfile, LimbParams, PerturbationSpec, simulate_trial
from gmpkit.emg import EMG_RATE, FEEDBACK_CHANNELS, RMS_STRIDE_S, RMS_WINDOW_S, MvcCalibration
from gmpkit.errors import AlignmentError, DegenerateTrialError
from gmpkit.passivity import (
    EopEstimate,
    energy_ledger,
    estimate_eop,
    estimates_from_csv,
    estimates_to_csv,
    is_passive,
    snap_window_to_periods,
)
from gmpkit.signals import SampledSignal, Window

RATE = 1000.0
CAL = MvcCalibration(DEFAULT_MVC_RMS_MV)
# the [emg] settings, at their config defaults: feedback channels, RMS window and stride
EMG_SETTINGS = (FEEDBACK_CHANNELS, RMS_WINDOW_S, RMS_STRIDE_S)


def signal(fn, duration=1.0, channels=("x",)):
    t = np.arange(round(duration * RATE) + 1) / RATE
    return SampledSignal(RATE, 0.0, channels, np.column_stack([fn(t) for _ in channels]))


def kv_trial(b0=15.0, seed=0, amplitude=0.03):
    params = LimbParams(
        base_damping=b0, maxwell_damping_base=0.0, maxwell_damping_gain=0.0,
        direction_gains=(1.0,) * 8,
    )
    spec = PerturbationSpec(frequency=1.0, amplitude=amplitude, direction_index=0, duration=10.0)
    return simulate_trial(params, spec, ActivationProfile(0.0), seed=seed, rate=RATE,
                          mvc_rms=DEFAULT_MVC_RMS_MV, emg_rate=EMG_RATE, subject_id="S1",
                          activation_label="relaxed", frequency_label="low")


def test_ledger_zero_input():
    u = signal(lambda t: np.zeros_like(t))
    y = signal(np.sin)
    ledger = energy_ledger(u, y)
    np.testing.assert_array_equal(ledger.energy, 0.0)
    assert ledger.energy[0] == 0.0


def test_ledger_sine_reaches_half_joule():
    s = signal(lambda t: np.sin(2 * np.pi * t))
    ledger = energy_ledger(s, s)
    assert ledger.energy[-1] == pytest.approx(0.5, abs=1e-6)


def test_ledger_pure_spring_returns_to_zero():
    x = signal(lambda t: np.sin(2 * np.pi * t))
    force = SampledSignal(RATE, 0.0, ("f",), 80.0 * x.data)
    v = signal(lambda t: 2 * np.pi * np.cos(2 * np.pi * t))
    ledger = energy_ledger(force, v)
    assert ledger.energy[-1] == pytest.approx(0.0, abs=1e-6)


def test_ledger_alignment_error():
    u = signal(np.sin)
    y = signal(np.sin, duration=2.0)
    with pytest.raises(AlignmentError):
        energy_ledger(u, y)


def test_is_passive_dissipative_trial():
    trial = kv_trial()
    verdict = is_passive(energy_ledger(trial.force, trial.velocity))
    assert verdict.passive
    assert verdict.first_violation_time is None


def test_negative_damper_nonpassive_at_first_step():
    y = signal(lambda t: np.cos(2 * np.pi * t))
    u = SampledSignal(RATE, 0.0, ("u",), -y.data)
    verdict = is_passive(energy_ledger(u, y))
    assert not verdict.passive
    assert verdict.first_violation_time == pytest.approx(1.0 / RATE)
    assert verdict.min_margin < 0


def test_estimate_eop_kelvin_voigt():
    est = estimate_eop(kv_trial(b0=15.0), Window(5.0, 10.0), CAL, *EMG_SETTINGS)
    assert est.xi == pytest.approx(15.0, abs=0.015)
    assert est.denominator > 0
    assert est.xi == pytest.approx(est.numerator / est.denominator, rel=1e-12)


def test_estimate_eop_homogeneous_in_velocity():
    # the ratio is unchanged by doubling force and velocity, which is exact on their code grid
    trial = kv_trial(seed=5, amplitude=0.03)
    a = estimate_eop(trial, Window(5.0, 10.0), CAL, *EMG_SETTINGS)
    doubled = replace(trial, force=replace(trial.force, data=2.0 * trial.force.data),
                      velocity=replace(trial.velocity, data=2.0 * trial.velocity.data))
    assert estimate_eop(doubled, Window(5.0, 10.0), CAL, *EMG_SETTINGS).xi == pytest.approx(a.xi, rel=1e-12)
    # linear limb, same seed: doubling the drive leaves it unchanged up to the 16-bit recording's rounding
    b = estimate_eop(kv_trial(seed=5, amplitude=0.06), Window(5.0, 10.0), CAL, *EMG_SETTINGS)
    assert b.xi == pytest.approx(a.xi, rel=2e-4)


@pytest.mark.parametrize("misalign, message", [
    (lambda v: replace(v, start_time=v.start_time + 1.0 / v.sample_rate), "start times differ"),  # one sample late
    (lambda v: replace(v, sample_rate=v.sample_rate * (1.0 + 1e-10)), "sample rates differ"),
    (lambda v: replace(v, data=v.data[:-1]), "lengths differ"),
    (lambda v: replace(v, channels=v.channels[:1], data=v.data[:, :1]), "channel counts differ"),
], ids=["start", "rate", "length", "channels"])
def test_trial_with_misaligned_velocity_is_refused_when_built(misalign, message):
    """A trial's force and velocity share one time base: a record without it cannot be built, let alone estimated."""
    trial = kv_trial()
    with pytest.raises(AlignmentError, match=message):
        replace(trial, velocity=misalign(trial.velocity))


def test_estimate_eop_degenerate_trial():
    with pytest.raises(DegenerateTrialError):
        estimate_eop(kv_trial(amplitude=0.0), Window(5.0, 10.0), CAL, *EMG_SETTINGS)


def test_snap_window_to_integer_periods():
    w = snap_window_to_periods(Window(5.0, 10.0), frequency=0.73, sample_rate=RATE)
    n_periods = (w.t_end - w.t_start) * 0.73
    assert n_periods == pytest.approx(round(n_periods), abs=1e-3)
    assert round(n_periods) == 3
    assert w.t_end == pytest.approx(10.0)
    # protocol frequencies: 5 s is already an integer period count
    assert snap_window_to_periods(Window(5.0, 10.0), 1.0, RATE) == Window(5.0, 10.0)
    assert snap_window_to_periods(Window(5.0, 10.0), 3.0, RATE) == Window(5.0, 10.0)


def test_estimate_eop_tracks_snapped_window():
    trial = kv_trial(seed=7)
    est = estimate_eop(trial, Window(5.2, 9.9), CAL, *EMG_SETTINGS)
    assert est.window.t_end == pytest.approx(9.9)
    assert (est.window.t_end - est.window.t_start) == pytest.approx(4.0)
    assert est.xi == pytest.approx(15.0, abs=0.015)


def test_estimates_csv_round_trip(tmp_path):
    est = estimate_eop(kv_trial(seed=8), Window(5.0, 10.0), CAL, *EMG_SETTINGS)
    path = tmp_path / "estimates.csv"
    estimates_to_csv([est], path)
    with open(path) as fh:
        assert fh.readline().strip() == "subject,direction,activation,frequency,xi,pct_mvc,numerator,denominator"
    (back,) = estimates_from_csv(path)
    assert back.xi == est.xi
    assert back.mean_pct_mvc == est.mean_pct_mvc
    assert back.numerator == est.numerator
    assert back.denominator == est.denominator
    assert back.subject_id == est.subject_id
    assert back.activation_label == est.activation_label


def test_eop_estimate_validation():
    with pytest.raises(ValueError):
        EopEstimate("S1", 0, "relaxed", "low", 2.0, 0.1, 1.0, 1.0)  # xi != num/den
    with pytest.raises(ValueError):
        EopEstimate("S1", 0, "relaxed", "low", 1.0, 0.1, 1.0, 0.0)  # zero denominator
    for cell, reason in (((8, "relaxed", "low"), "direction_index out of range"),
                         ((0, "medium", "low"), "unknown activation label"),
                         ((0, "relaxed", "mid"), "unknown frequency label")):
        with pytest.raises(ValueError, match=reason):
            EopEstimate("S1", *cell, 1.0, 0.1, 1.0, 1.0)
    for value in (math.nan, math.inf, -math.inf):
        for field in ("xi", "mean_pct_mvc", "numerator", "denominator"):
            fields = {**dict(xi=1.0, mean_pct_mvc=0.1, numerator=1.0, denominator=1.0), field: value}
            with pytest.raises(ValueError, match=f"{field} must be finite"):
                EopEstimate("S1", 0, "relaxed", "low", **fields)
    for hz in (math.nan, math.inf, -1.0, 0.0):  # a map grid point must be finite and > 0; None is no Hz
        with pytest.raises(ValueError, match="frequency_hz must be finite and > 0"):
            EopEstimate("S1", 0, "relaxed", "low", 1.0, 0.1, 1.0, 1.0, frequency_hz=hz)
    assert EopEstimate("S1", 0, "relaxed", "low", 1.0, 0.1, 1.0, 1.0, frequency_hz=None).frequency_hz is None
