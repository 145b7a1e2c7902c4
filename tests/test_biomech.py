import math
import zlib
from dataclasses import replace

import numpy as np
import pytest

from gmpkit.biomech import (
    DEFAULT_MVC_RMS_MV,
    N_DIRECTIONS,
    ROBOT_LSB,
    ActivationProfile,
    LimbParams,
    PerturbationSpec,
    _axis_kinematics,
    _ramp_envelope,
    analytic_eop,
    check_step_rate,
    load_trial_csv,
    make_cohort,
    perturbation_direction,
    save_samples,
    save_trial_csv,
    simulate_trial,
    trial_streams,
)
from gmpkit.emg import EMG_LSB_MV, EMG_RATE, FEEDBACK_CHANNELS, RMS_STRIDE_S, RMS_WINDOW_S, MvcCalibration
from gmpkit.errors import DegenerateTrialError, IntegrationError
from gmpkit.passivity import energy_ledger, estimate_eop, is_passive
from gmpkit.signals import Window

UNIT_GAINS = (1.0,) * 8
ANALYSIS_WINDOW = Window(5.0, 10.0)
CAL = MvcCalibration(DEFAULT_MVC_RMS_MV)
# the [emg] settings, at their config defaults: feedback channels, RMS window and stride
EMG_SETTINGS = (FEEDBACK_CHANNELS, RMS_WINDOW_S, RMS_STRIDE_S)


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
    for i in range(N_DIRECTIONS):
        angle = 2.0 * math.pi * i / N_DIRECTIONS
        assert perturbation_direction(i).tolist() == [math.cos(angle), math.sin(angle)]
        assert np.linalg.norm(perturbation_direction(i)) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        perturbation_direction(8)
    with pytest.raises(ValueError):
        perturbation_direction(-1)


def test_trial_record_refuses_an_off_grid_cell():
    trial = run(LimbParams(), seed=1)
    for labels in ({"activation_label": "medium"}, {"frequency_label": "mid"}):
        with pytest.raises(ValueError, match="unknown"):
            replace(trial, **labels)
    with pytest.raises(ValueError, match="unknown activation label 'medium'"):
        simulate_trial(LimbParams(), trial.spec, ActivationProfile(0.4), seed=0, rate=1000.0,
                       mvc_rms=DEFAULT_MVC_RMS_MV, emg_rate=EMG_RATE, subject_id="S1",
                       activation_label="medium", frequency_label="low")


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
        est = estimate_eop(trial, ANALYSIS_WINDOW, CAL, *EMG_SETTINGS)
        expected = gains[direction] * 15.0
        assert est.xi == pytest.approx(expected, rel=1e-3)


def test_zero_amplitude_trial_flagged_downstream():
    trial = run(LimbParams(), amplitude=0.0)
    assert np.all(trial.velocity.data == 0.0)
    with pytest.raises(DegenerateTrialError):
        estimate_eop(trial, ANALYSIS_WINDOW, CAL, *EMG_SETTINGS)


def test_eop_increases_with_activation():
    params = LimbParams()
    relaxed = estimate_eop(run(params, activation=0.0, seed=2), ANALYSIS_WINDOW, CAL, *EMG_SETTINGS)
    stiff = estimate_eop(run(params, activation=0.4, seed=2), ANALYSIS_WINDOW, CAL, *EMG_SETTINGS)
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
        est = estimate_eop(trial, ANALYSIS_WINDOW, CAL, *EMG_SETTINGS)
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
    # the trials project the shared velocity onto their directions, in whole codes of its step
    step = ROBOT_LSB[2]
    recorded = np.rint(shared[1] / step) * step
    np.testing.assert_array_equal(first.velocity.data[:, 0], recorded)
    np.testing.assert_array_equal(second.velocity.data[:, 1], recorded)
    for trial in (first, second):
        assert not trial.force.data.flags.writeable and not trial.velocity.data.flags.writeable


def test_rate_too_low_raises_integration_error():
    with pytest.raises(IntegrationError) as refused:
        run(LimbParams(), frequency=3.0, rate=50.0)
    with pytest.raises(IntegrationError) as rule:
        check_step_rate(50.0, 3.0)
    assert str(refused.value) == str(rule.value)
    check_step_rate(60.0, 3.0)  # 20 samples per period is enough


def test_simulated_force_and_velocity_are_whole_codes():
    """2^-6 N and 2^-12 m/s codes within the int16 rails, with no -0.0 (a zero code reads back as +0.0)."""
    assert ROBOT_LSB == (2.0 ** -6, 2.0 ** -6, 2.0 ** -12, 2.0 ** -12)
    trial = run(LimbParams(), direction=1, seed=4)
    for signal, steps in ((trial.force, ROBOT_LSB[:2]), (trial.velocity, ROBOT_LSB[2:])):
        assert signal.data.dtype == np.float64
        codes = signal.data / np.array(steps)
        assert np.array_equal(codes, np.rint(codes))
        assert codes.min() >= -2 ** 15 and codes.max() <= 2 ** 15 - 1
        assert not np.any(np.signbit(signal.data[signal.data == 0.0]))
    # each sample is the float64 projection onto the direction, rounded once to the nearest code
    _, v_ax, _ = _axis_kinematics(1.0, 0.03, 10001, 1000.0)
    projected = np.rint(np.outer(v_ax, perturbation_direction(1)) / ROBOT_LSB[2]) * ROBOT_LSB[2] + 0.0
    assert trial.velocity.data.tobytes() == projected.tobytes()
    # a spoke along y projects a zero x force, of either sign before rounding
    along_y = run(LimbParams(), direction=2, seed=4)
    assert np.all(along_y.force.data[:, 0] == 0.0) and not np.any(np.signbit(along_y.force.data[:, 0]))


@pytest.mark.parametrize(
    "params, frequency, amplitude, reason",
    [
        # 2 kg at 10 Hz and 10 cm: about 790 N of inertia at 6.3 m/s
        (LimbParams(), 10.0, 0.10, r"recorded fx reaches -?\d+(\.\d+)? N, beyond the rails of its 16-bit codes, "
                                   r"-512 to 511\.984 N"),
        # a near-massless, near-free limb at 1 Hz and 1.5 m: 9.4 m/s under 1 N
        (LimbParams(mass=0.01, base_damping=0.01, stiffness=0.01, maxwell_damping_base=0.0,
                    maxwell_damping_gain=0.0), 1.0, 1.5,
         r"recorded vx reaches -?\d+(\.\d+)? m/s, beyond the rails of its 16-bit codes, -8 to 7\.99976 m/s"),
    ],
    ids=["force", "velocity"],
)
def test_a_sample_beyond_a_rail_is_an_integration_error(params, frequency, amplitude, reason):
    """A force or velocity beyond its 16-bit rails is refused, not clipped: a clipped force biases xi."""
    spec = PerturbationSpec(frequency=frequency, amplitude=amplitude, direction_index=0, duration=2.0)
    with pytest.raises(IntegrationError, match=reason):
        simulate_trial(params, spec, ActivationProfile(0.4), seed=0, rate=1000.0, mvc_rms=DEFAULT_MVC_RMS_MV,
                       emg_rate=EMG_RATE, subject_id="S1", activation_label="stiff", frequency_label="low")


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
    """Round-trip a trial through the trial store at its simulated rates."""
    path = tmp_path / "trial.trial"
    crc32 = save_trial_csv(trial, path)
    assert crc32 == zlib.crc32(path.read_bytes())
    streams = trial_streams(1000.0, EMG_RATE)
    return load_trial_csv(path, streams, trial.spec, trial.subject_id, crc32=crc32,
                          activation_label=trial.activation_label, frequency_label=trial.frequency_label)


def trial_codes(path):
    """The (4, n) int16 robot and EMG codes of a trial file, decoded as the README's recipe does; a file of
    the robot stream alone has no EMG codes."""
    d = zlib.decompressobj()
    deltas = np.frombuffer(d.decompress(path.read_bytes()), "<i2").reshape(4, -1)
    return np.cumsum(deltas, axis=1, dtype="<i2"), np.frombuffer(d.unused_data, "<i2").reshape(4, -1)


def test_trial_csv_round_trip(tmp_path):
    trial = run(LimbParams(), seed=9)
    back = save_and_load(trial, tmp_path)
    codes, emg_codes = trial_codes(tmp_path / "trial.trial")
    assert emg_codes.shape == (4, trial.emg.n_samples)
    # channel-major: one row per channel, right after the robot stream, with no header
    assert emg_codes.tobytes() == np.rint(trial.emg.data.T / EMG_LSB_MV).astype("<i2").tobytes()
    assert (tmp_path / "trial.trial").read_bytes().endswith(emg_codes.tobytes())
    assert codes.shape == (4, trial.force.n_samples)
    assert codes.tobytes() == np.rint(np.vstack([trial.force.data.T, trial.velocity.data.T])
                                      / np.array(ROBOT_LSB)[:, None]).astype("<i2").tobytes()
    for loaded, simulated in ((back.force, trial.force), (back.velocity, trial.velocity),
                              (back.emg, trial.emg)):
        assert loaded.data.dtype == np.float64
        assert loaded.data.tobytes() == simulated.data.tobytes()  # bit-exact
        assert not loaded.data.flags.writeable
        assert loaded.data.T.base is not None and loaded.data.T.base.flags.c_contiguous  # views of the rows
    assert back.force.sample_rate == back.velocity.sample_rate == 1000.0
    assert back.emg.sample_rate == EMG_RATE
    for loaded, simulated in ((back.force, trial.force), (back.velocity, trial.velocity),
                              (back.emg, trial.emg)):
        assert loaded.sample_rate == simulated.sample_rate
        assert loaded.start_time == simulated.start_time
        assert loaded.channels == simulated.channels


def test_a_force_step_beyond_int16_round_trips(tmp_path):
    """A jump from -500 N to +500 N is a difference of 64000 codes, beyond int16: it wraps, and reads back exactly."""
    trial = run(LimbParams(), seed=9)
    force = np.array(trial.force.data)
    force[:2000] = -500.0
    force[2000:] = 500.0
    stepped = replace(trial, force=replace(trial.force, data=force))
    back = save_and_load(stepped, tmp_path)
    assert back.force.data.tobytes() == force.tobytes()
    assert back.velocity.data.tobytes() == trial.velocity.data.tobytes()
    inflated = zlib.decompressobj().decompress((tmp_path / "trial.trial").read_bytes())
    deltas = np.frombuffer(inflated, "<i2").reshape(4, -1)
    assert deltas[0, 2000] == 64000 - 2 ** 16  # the step, modulo 2^16


def test_off_grid_emg_is_stored_rounded_and_saturated(tmp_path):
    """EMG built by hand, off the code grid and past +/-16 mV, reads back rounded and clipped, never wrapped."""
    trial = run(LimbParams(), seed=9)
    data = trial.emg.data + 0.3 * EMG_LSB_MV * np.sin(np.arange(trial.emg.data.size)).reshape(trial.emg.data.shape)
    data[100:110] = 20.0
    data[200:210] = -20.0
    data[300, 0] = -0.4 * EMG_LSB_MV  # rounds to a zero code
    hand_built = replace(trial, emg=replace(trial.emg, data=data))
    back = save_and_load(hand_built, tmp_path)
    _, codes = trial_codes(tmp_path / "trial.trial")
    expected = np.clip(np.rint(data / EMG_LSB_MV), -2 ** 15, 2 ** 15 - 1)
    assert np.array_equal(codes, expected.T)
    assert np.all(codes[:, 100:110] == 2 ** 15 - 1) and np.all(codes[:, 200:210] == -2 ** 15)
    assert back.emg.data.tobytes() == (expected.astype(np.int16) * EMG_LSB_MV).tobytes()
    assert back.force.data.tobytes() == trial.force.data.tobytes()
    data[400, 1] = np.nan
    with pytest.raises(ValueError, match="NaN samples have no code"):
        save_trial_csv(replace(trial, emg=replace(trial.emg, data=data)), tmp_path / "nan.trial")
    assert not list(tmp_path.glob("nan*"))


def test_off_grid_robot_samples_are_stored_rounded_and_saturated(tmp_path):
    """Force and velocity built by hand, off the code grid and past the rails, read back rounded and clipped."""
    trial = run(LimbParams(), seed=9)
    data = np.column_stack([trial.force.data, trial.velocity.data])
    data += 0.3 * np.array(ROBOT_LSB) * np.sin(np.arange(data.size)).reshape(data.shape)
    data[100:110] = (600.0, 600.0, 9.0, 9.0)
    data[200:210] = (-600.0, -600.0, -9.0, -9.0)
    data[300, 2] = -0.4 * ROBOT_LSB[2]  # rounds to a zero code
    stream = trial_streams(1000.0, EMG_RATE)["robot"]
    save_samples(tmp_path / "robot.zlib", data, stream)
    codes, _ = trial_codes(tmp_path / "robot.zlib")
    expected = np.clip(np.rint(data / np.array(ROBOT_LSB)), -2 ** 15, 2 ** 15 - 1)
    assert np.array_equal(codes, expected.T)
    assert np.all(codes[:, 100:110] == 2 ** 15 - 1) and np.all(codes[:, 200:210] == -2 ** 15)  # never wrapped
    hand_built = replace(trial, force=replace(trial.force, data=data[:, :2]),
                         velocity=replace(trial.velocity, data=data[:, 2:]))
    back = save_and_load(hand_built, tmp_path)
    decoded = expected.astype(np.int16) * np.array(ROBOT_LSB)
    assert back.force.data.tobytes() == decoded[:, :2].tobytes()
    assert back.velocity.data.tobytes() == decoded[:, 2:].tobytes()
    assert back.emg.data.tobytes() == trial.emg.data.tobytes()


def test_robot_nan_sample_is_refused_when_saved(tmp_path):
    """A NaN force has no code: saving the trial raises, naming the file, and writes no file."""
    trial = run(LimbParams(), seed=9)
    force = trial.force.data.copy()
    force[1500, 0] = np.nan
    path = tmp_path / "nan.trial"
    with pytest.raises(ValueError, match=f"{path}: NaN samples have no code"):
        save_trial_csv(replace(trial, force=replace(trial.force, data=force)), path)
    assert not list(tmp_path.iterdir())


def test_trial_csv_estimates_agree(tmp_path):
    trial = run(LimbParams(), seed=9)
    back = save_and_load(trial, tmp_path)
    direct = estimate_eop(trial, ANALYSIS_WINDOW, CAL, *EMG_SETTINGS)
    loaded = estimate_eop(back, ANALYSIS_WINDOW, CAL, *EMG_SETTINGS)
    assert loaded.xi == pytest.approx(direct.xi, rel=1e-12)
