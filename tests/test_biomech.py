import math

import numpy as np
import pytest

from gmpkit.biomech import (
    DEFAULT_MVC_RMS_MV,
    ActivationProfile,
    LimbParams,
    PerturbationSpec,
    _axis_kinematics,
    _ramp_envelope,
    analytic_eop,
    load_trial_csv,
    make_cohort,
    perturbation_direction,
    save_trial_csv,
    simulate_trial,
    trial_streams,
)
from gmpkit.emg import EMG_RATE, MvcCalibration
from gmpkit.errors import DegenerateTrialError, IntegrationError
from gmpkit.passivity import energy_ledger, estimate_eop, is_passive
from gmpkit.signals import Window

UNIT_GAINS = (1.0,) * 8
ANALYSIS_WINDOW = Window(5.0, 10.0)
CAL = MvcCalibration(DEFAULT_MVC_RMS_MV)


def kv_params(b0=15.0, gains=UNIT_GAINS):
    """Pure Kelvin-Voigt limb: Maxwell branch disabled."""
    return LimbParams(
        base_damping=b0, maxwell_damping_base=0.0, maxwell_damping_gain=0.0,
        direction_gains=gains,
    )


def run(params, direction=0, activation=0.4, frequency=1.0, seed=0, rate=1000.0, amplitude=0.03):
    spec = PerturbationSpec(frequency=frequency, amplitude=amplitude, direction_index=direction,
                            duration=10.0)
    act = ActivationProfile(target_pct_mvc=activation)
    return simulate_trial(params, spec, act, seed=seed, rate=rate, mvc_rms=DEFAULT_MVC_RMS_MV,
                          emg_rate=EMG_RATE, subject_id="S1",
                          activation_label="stiff", frequency_label="low")


def test_perturbation_direction_cardinals():
    np.testing.assert_allclose(perturbation_direction(0), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(perturbation_direction(2), [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(
        perturbation_direction(1), [math.sqrt(2) / 2] * 2, atol=1e-12
    )
    for i in range(8):
        assert np.linalg.norm(perturbation_direction(i)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        perturbation_direction(8)
    with pytest.raises(ValueError):
        perturbation_direction(-1)


def test_analytic_eop_kelvin_voigt_is_scaled_base_damping():
    params = kv_params(b0=11.0, gains=(0.9,) * 8)
    for direction in range(8):
        assert analytic_eop(params, direction, 0.3, 2.0) == 0.9 * 11.0


def test_analytic_eop_high_frequency_limit():
    params = LimbParams(direction_gains=UNIT_GAINS)
    assert analytic_eop(params, 0, 0.4, 1e9) == pytest.approx(params.base_damping, rel=1e-6)


def test_analytic_eop_frozen_example():
    params = LimbParams(
        base_damping=10.0, maxwell_damping_base=5.0, maxwell_damping_gain=20.0,
        maxwell_stiffness=2000.0, direction_gains=UNIT_GAINS,
    )
    assert analytic_eop(params, 0, 0.4, 1.0) == pytest.approx(22.978, abs=1e-3)


def test_kelvin_voigt_trial_recovers_damping():
    for gains, direction in ((UNIT_GAINS, 0), ((0.8,) * 8, 3)):
        params = kv_params(b0=15.0, gains=gains)
        trial = run(params, direction=direction)
        est = estimate_eop(trial, ANALYSIS_WINDOW, cal=CAL)
        expected = gains[direction] * 15.0
        assert est.xi == pytest.approx(expected, rel=1e-3)


def test_zero_amplitude_trial_flagged_downstream():
    trial = run(LimbParams(), amplitude=0.0)
    assert np.all(trial.velocity.data == 0.0)
    with pytest.raises(DegenerateTrialError):
        estimate_eop(trial, ANALYSIS_WINDOW, cal=CAL)


def test_eop_increases_with_activation():
    params = LimbParams()
    relaxed = estimate_eop(run(params, activation=0.0, seed=2), ANALYSIS_WINDOW, cal=CAL)
    stiff = estimate_eop(run(params, activation=0.4, seed=2), ANALYSIS_WINDOW, cal=CAL)
    assert stiff.xi > relaxed.xi
    assert analytic_eop(params, 0, 0.4, 1.0) > analytic_eop(params, 0, 0.0, 1.0)


def test_analytic_eop_monotone_in_activation_default_params():
    params = LimbParams()
    for frequency in (1.0, 3.0):
        for direction in range(8):
            values = [analytic_eop(params, direction, a, frequency) for a in np.linspace(0, 1, 21)]
            assert all(np.diff(values) > 0)


def test_low_frequency_exceeds_high_frequency_everywhere():
    params = LimbParams()
    for direction in range(8):
        for activation in (0.05, 0.4):
            assert analytic_eop(params, direction, activation, 1.0) > analytic_eop(
                params, direction, activation, 3.0
            )


def test_activation_slope_larger_at_low_frequency():
    params = LimbParams()
    for direction in range(8):
        slope = {
            f: analytic_eop(params, direction, 0.4, f) - analytic_eop(params, direction, 0.05, f)
            for f in (1.0, 3.0)
        }
        assert slope[1.0] > slope[3.0]


def test_estimate_matches_analytic_at_2khz():
    params = LimbParams()
    for direction, activation, frequency in ((0, 0.4, 1.0), (2, 0.05, 3.0), (5, 0.4, 3.0)):
        trial = run(params, direction, activation, frequency, seed=11, rate=2000.0)
        est = estimate_eop(trial, ANALYSIS_WINDOW, cal=CAL)
        ana = analytic_eop(params, direction, activation, frequency)
        assert est.xi == pytest.approx(ana, rel=0.01)


def test_simulated_trial_is_passive():
    for seed, frequency, activation in ((0, 1.0, 0.05), (1, 3.0, 0.4), (2, 3.0, 0.0)):
        trial = run(LimbParams(), frequency=frequency, activation=activation, seed=seed, direction=2)
        verdict = is_passive(energy_ledger(trial.force, trial.velocity))
        assert verdict.passive, verdict


def test_simulation_deterministic_per_seed():
    a = run(LimbParams(), seed=123)
    b = run(LimbParams(), seed=123)
    np.testing.assert_array_equal(a.force.data, b.force.data)
    np.testing.assert_array_equal(a.emg.data, b.emg.data)
    c = run(LimbParams(), seed=124)
    assert not np.array_equal(a.emg.data, c.emg.data)


def _reference_ramp_envelope(t, frequency):
    """The ramp evaluated over the whole record, as before it became a prefix."""
    u = math.pi * frequency * t
    ramp = t < 1.0 / frequency
    e = np.where(ramp, np.sin(u / 2.0) ** 2, 1.0)
    de = np.where(ramp, 0.5 * math.pi * frequency * np.sin(u), 0.0)
    dde = np.where(ramp, 0.5 * (math.pi * frequency) ** 2 * np.cos(u), 0.0)
    return e, de, dde


@pytest.mark.parametrize(
    "frequency, duration, rate",
    [
        (0.5, 10.0, 1000.0),   # the ramp ends on sample 2000
        (4.0, 3.0, 1000.0),    # ... on sample 250
        (1.3, 5.0, 1000.0),    # ... between samples
        (0.05, 10.0, 1000.0),  # the ramp outlasts the trial
        (3.0, 2.0, 2148.0),
    ],
)
def test_kinematics_match_reference_bytes(frequency, duration, rate):
    n = round(duration * rate) + 1
    t = np.arange(n) * (1.0 / rate)
    expected = _reference_ramp_envelope(t, frequency)
    for got, want in zip(_ramp_envelope(t, frequency), expected):
        assert got.tobytes() == want.tobytes()
    e, de, dde = expected
    omega = 2.0 * math.pi * frequency
    s, c = np.sin(omega * t), np.cos(omega * t)
    amp = 0.03
    reference = (amp * e * s, amp * (de * s + e * omega * c),
                 amp * (dde * s + 2.0 * de * omega * c - e * omega * omega * s))
    for got, want in zip(_axis_kinematics(frequency, amp, n, rate), reference):
        assert got.tobytes() == want.tobytes()


def test_ramp_boundary_cases_are_what_they_claim():
    t = np.arange(10001) * (1.0 / 1000.0)
    assert t[2000] == 1.0 / 0.5 and t[250] == 1.0 / 4.0
    assert np.all(_ramp_envelope(t, 0.05)[0] < 1.0)


def test_axis_kinematics_are_shared_and_read_only():
    _axis_kinematics.cache_clear()
    first = run(LimbParams(), direction=0, activation=0.1)
    second = run(LimbParams(), direction=2, activation=0.4, seed=1)
    info = _axis_kinematics.cache_info()
    assert (info.misses, info.hits) == (1, 1)   # the second trial reused the kinematics
    shared = _axis_kinematics(1.0, 0.03, 10001, 1000.0)
    assert all(a is b for a, b in zip(shared, _axis_kinematics(1.0, 0.03, 10001, 1000.0)))
    assert len(shared) == 3 and not any(array.flags.writeable for array in shared)
    # the trials project the shared velocity onto their directions, at float32 resolution
    recorded = shared[1].astype(np.float32).astype(np.float64)
    np.testing.assert_array_equal(first.velocity.data[:, 0], recorded)
    np.testing.assert_array_equal(second.velocity.data[:, 1], recorded)
    for trial in (first, second):
        assert not trial.force.data.flags.writeable and not trial.velocity.data.flags.writeable


def test_rate_too_low_raises_integration_error():
    with pytest.raises(IntegrationError):
        run(LimbParams(), frequency=3.0, rate=50.0)


def test_simulated_force_and_velocity_have_float32_resolution():
    trial = run(LimbParams(), direction=1, seed=4)
    for signal in (trial.force, trial.velocity):
        assert signal.data.dtype == np.float64
        assert signal.data.tobytes() == signal.data.astype(np.float32).astype(np.float64).tobytes()
    # each sample is the float64 projection onto the direction, rounded once
    _, v_ax, _ = _axis_kinematics(1.0, 0.03, 10001, 1000.0)
    projected = np.outer(v_ax, perturbation_direction(1)).astype(np.float32).astype(np.float64)
    assert trial.velocity.data.tobytes() == projected.tobytes()


def test_emg_rate_and_channels():
    trial = run(LimbParams())
    assert trial.emg.sample_rate == pytest.approx(2148.0)
    assert trial.emg.n_channels == 4
    assert trial.emg.n_samples == round(10.0 * 2148.0) + 1


def test_cohort_jitter_within_bounds():
    base = LimbParams()
    cohort = make_cohort(5, jitter=0.2, seed=42, base=base)
    assert [s.subject_id for s in cohort] == ["S1", "S2", "S3", "S4", "S5"]
    for subject in cohort:
        for name in ("mass", "base_damping", "stiffness", "maxwell_stiffness",
                     "maxwell_damping_base", "maxwell_damping_gain"):
            ratio = getattr(subject.params, name) / getattr(base, name)
            assert 0.8 <= ratio <= 1.2
        assert subject.params.direction_gains == base.direction_gains
    again = make_cohort(5, jitter=0.2, seed=42, base=base)
    assert cohort == again


def save_and_load(trial, tmp_path):
    """Round-trip a trial through the .npy trial store at its simulated rates."""
    path, emg_path = tmp_path / "trial.npy", tmp_path / "trial_emg.npy"
    save_trial_csv(trial, path, emg_path)
    streams = trial_streams(1000.0, EMG_RATE)
    return load_trial_csv(path, emg_path, streams, trial.condition, trial.spec, trial.subject_id)


def test_trial_csv_round_trip(tmp_path):
    trial = run(LimbParams(), seed=9)
    back = save_and_load(trial, tmp_path)
    assert np.load(tmp_path / "trial.npy").dtype.str == "<f4"
    assert np.load(tmp_path / "trial_emg.npy").dtype.str == "<f4"
    for loaded, simulated in ((back.force, trial.force), (back.velocity, trial.velocity),
                              (back.emg, trial.emg)):
        assert loaded.data.dtype == np.float64
        assert loaded.data.tobytes() == simulated.data.tobytes()  # bit-exact
        assert not loaded.data.flags.writeable
    assert back.force.sample_rate == back.velocity.sample_rate == 1000.0
    assert back.emg.sample_rate == EMG_RATE
    for loaded, simulated in ((back.force, trial.force), (back.velocity, trial.velocity),
                              (back.emg, trial.emg)):
        assert loaded.sample_rate == simulated.sample_rate
        assert loaded.start_time == simulated.start_time
        assert loaded.channels == simulated.channels
    assert np.load(tmp_path / "trial.npy").shape == (trial.force.n_samples, 4)


def test_trial_csv_estimates_agree(tmp_path):
    trial = run(LimbParams(), seed=9)
    back = save_and_load(trial, tmp_path)
    direct = estimate_eop(trial, ANALYSIS_WINDOW, cal=CAL)
    loaded = estimate_eop(back, ANALYSIS_WINDOW, cal=CAL)
    assert loaded.xi == pytest.approx(direct.xi, rel=1e-12)
