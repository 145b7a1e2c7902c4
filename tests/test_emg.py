import numpy as np
import pytest

from gmpkit.emg import (
    BAND_HZ,
    EMG_RATE,
    MvcCalibration,
    estimate_mvc,
    pct_mvc,
    pct_mvc_envelope,
    synthesize_emg,
)
from gmpkit.errors import DegenerateSampleError, WindowRangeError
from gmpkit.signals import SampledSignal, Window, _bandpass_response, bandpass_fft_length, rms


def activation_signal(level, duration=5.0, rate=1000.0):
    n = round(duration * rate) + 1
    return SampledSignal(rate, 0.0, ("a",), np.full(n, float(level)))


def test_zero_activation_gives_silent_channels():
    emg = synthesize_emg(activation_signal(0.0), (1.0, 1.0), seed=0)
    env = rms(emg, 0.25, 0.05)
    assert np.all(env.data < 0.01)  # below 1% MVC


def test_envelope_tracks_activation_level():
    # oracle: modulated unit-variance noise has windowed RMS = level * mvc
    emg = synthesize_emg(activation_signal(0.4), (1.0,), seed=1)
    env = rms(emg, 0.25, 0.05)
    assert env.data.mean() == pytest.approx(0.4, abs=0.05)


def test_seeds_change_waveform_not_envelope():
    a = synthesize_emg(activation_signal(0.4), (1.0,), seed=1)
    b = synthesize_emg(activation_signal(0.4), (1.0,), seed=2)
    assert not np.array_equal(a.data, b.data)
    assert rms(a, 0.25, 0.05).data.mean() == pytest.approx(rms(b, 0.25, 0.05).data.mean(), abs=0.05)
    again = synthesize_emg(activation_signal(0.4), (1.0,), seed=1)
    np.testing.assert_array_equal(a.data, again.data)


def test_output_rate_and_channel_count():
    emg = synthesize_emg(activation_signal(0.2, duration=2.0), (1.6, 1.1, 1.8, 1.3), seed=3)
    assert emg.sample_rate == pytest.approx(EMG_RATE)
    assert emg.channels == ("emg1", "emg2", "emg3", "emg4")
    assert emg.n_samples == round(2.0 * EMG_RATE) + 1


def _reference_synthesize_emg(activation, mvc_rms, seed, rate=EMG_RATE, band=BAND_HZ, order=4):
    """synthesize_emg as it was before it filtered in place: one draw, copies.

    Since the trial store keeps EMG as float32, the output is rounded to
    float32 at the end; every earlier step is unchanged.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_out = round(activation.duration * rate) + 1
    t_out = activation.start_time + np.arange(n_out) / rate
    nfft = bandpass_fft_length(order, band, rate, n_out)
    response = _bandpass_response(order, band, rate, nfft)
    x = rng.standard_normal((len(mvc_rms), n_out))
    noise = np.fft.irfft(np.fft.rfft(x, nfft) * response, nfft)[..., :n_out]
    std = noise.std(axis=1)
    drives = [np.interp(t_out, activation.times(), col) for col in activation.data.T]
    out = np.empty((n_out, len(mvc_rms)))
    for ch in range(len(mvc_rms)):
        drive = drives[min(ch, len(drives) - 1)]
        scaled = noise[ch] / std[ch] if std[ch] > 0 else noise[ch]
        out[:, ch] = drive * mvc_rms[ch] * scaled
    return out.astype(np.float32).astype(np.float64)


def noisy_activation(duration, n_channels=1, rate=1000.0):
    n = round(duration * rate) + 1
    data = np.random.default_rng(n).uniform(0.1, 0.6, (n, n_channels))
    return SampledSignal(rate, 0.0, tuple(f"a{i}" for i in range(n_channels)), data)


@pytest.mark.parametrize("rate", [1000.0, EMG_RATE])
@pytest.mark.parametrize("duration", [1.0, 2.0, 3.0, 5.0, 10.0, 2.357])
def test_synthesis_matches_reference_bytes(duration, rate):
    mvc = (1.6, 1.1, 1.8, 1.3)
    emg = synthesize_emg(noisy_activation(duration), mvc, seed=11, rate=rate)
    expected = _reference_synthesize_emg(noisy_activation(duration), mvc, 11, rate=rate)
    assert emg.data.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n_activations, mvc", [(1, (1.7,)), (2, (1.6, 1.1, 1.8, 1.3)), (2, (1.6,))])
def test_synthesis_channel_layouts_match_reference_bytes(n_activations, mvc):
    activation = noisy_activation(3.0, n_activations)
    emg = synthesize_emg(activation, mvc, seed=12)
    assert emg.data.tobytes() == _reference_synthesize_emg(activation, mvc, 12).tobytes()
    assert not emg.data.flags.writeable


def test_synthesized_emg_has_float32_resolution():
    emg = synthesize_emg(noisy_activation(2.0, 2), (1.6, 1.1, 1.8, 1.3), seed=13)
    assert emg.data.dtype == np.float64
    assert emg.data.tobytes() == emg.data.astype(np.float32).astype(np.float64).tobytes()


def test_synthesized_emg_is_zero_mean():
    emg = synthesize_emg(activation_signal(0.5, duration=10.0), (1.0, 2.0), seed=4)
    n = emg.n_samples
    for ch in range(emg.n_channels):
        x = emg.data[:, ch]
        assert abs(x.mean()) < 3.0 * x.std() / np.sqrt(n)


def test_estimate_mvc_constant_recording():
    rec = SampledSignal(EMG_RATE, 0.0, ("emg1",), np.full(round(3 * EMG_RATE) + 1, 2.0))
    cal = estimate_mvc([rec])
    assert cal.mvc_rms[0] == pytest.approx(2.0, abs=1e-9)


def test_estimate_mvc_takes_max_across_repetitions():
    n = round(3 * EMG_RATE) + 1
    rep1 = SampledSignal(EMG_RATE, 0.0, ("emg1",), np.full(n, 1.8))
    rep2 = SampledSignal(EMG_RATE, 0.0, ("emg1",), np.full(n, 2.2))
    cal = estimate_mvc([rep1, rep2])
    assert cal.mvc_rms[0] == pytest.approx(2.2, abs=1e-9)
    assert estimate_mvc([rep2, rep1]).mvc_rms == cal.mvc_rms


def test_estimate_mvc_sine_burst():
    # oracle: full-period RMS of a 1 mV sine is 1/sqrt(2)
    t = np.arange(round(3 * EMG_RATE) + 1) / EMG_RATE
    rec = SampledSignal(EMG_RATE, 0.0, ("emg1",), np.sin(2 * np.pi * 40 * t))
    cal = estimate_mvc([rec], window_len=0.25)
    assert cal.mvc_rms[0] == pytest.approx(1 / np.sqrt(2), abs=2e-3)


def test_estimate_mvc_empty_input():
    with pytest.raises(DegenerateSampleError):
        estimate_mvc([])


def test_estimate_mvc_monotone_under_more_recordings():
    rng_levels = (0.9, 1.4, 0.7)
    n = round(3 * EMG_RATE) + 1
    recs = [SampledSignal(EMG_RATE, 0.0, ("emg1",), np.full(n, lvl)) for lvl in rng_levels]
    previous = 0.0
    for count in range(1, len(recs) + 1):
        value = estimate_mvc(recs[:count]).mvc_rms[0]
        assert value >= previous
        previous = value


def test_pct_mvc_identity_at_mvc_level():
    emg = synthesize_emg(activation_signal(1.0), (1.6, 1.8), seed=5)
    cal = MvcCalibration(mvc_rms=(1.6, 1.8))
    result = pct_mvc(emg, cal, Window(1.0, 4.0), feedback_channels=(0, 1))
    assert result == pytest.approx(1.0, abs=0.05)


def test_pct_mvc_zero_signal():
    emg = synthesize_emg(activation_signal(0.0), (1.0, 1.0, 1.0, 1.0), seed=6)
    cal = MvcCalibration(mvc_rms=(1.0, 1.0, 1.0, 1.0))
    result = pct_mvc(emg, cal, Window(1.0, 4.0))
    assert result == pytest.approx(0.0, abs=1e-12)


def test_pct_mvc_scale_invariance():
    emg = synthesize_emg(activation_signal(0.4), (1.0, 1.0), seed=7)
    cal = MvcCalibration(mvc_rms=(1.0, 1.0))
    base = pct_mvc(emg, cal, Window(1.0, 4.0), feedback_channels=(0, 1))
    scaled = SampledSignal(emg.sample_rate, emg.start_time, emg.channels, emg.data * 3.5)
    cal_scaled = MvcCalibration(mvc_rms=(3.5, 3.5))
    result = pct_mvc(scaled, cal_scaled, Window(1.0, 4.0), feedback_channels=(0, 1))
    assert result == pytest.approx(base, rel=1e-9)


def test_pct_mvc_stiff_trial_reads_forty_percent():
    from gmpkit.biomech import ActivationProfile, LimbParams, PerturbationSpec, simulate_trial

    trial = simulate_trial(
        LimbParams(),
        PerturbationSpec(frequency=1.0, amplitude=0.03, direction_index=0, duration=10.0),
        ActivationProfile(target_pct_mvc=0.4),
        seed=8,
        rate=1000.0,
        mvc_rms=(1.6, 1.1, 1.8, 1.3),
        emg_rate=EMG_RATE,
        subject_id="S1",
        activation_label="stiff",
        frequency_label="low",
    )
    cal = MvcCalibration(mvc_rms=(1.6, 1.1, 1.8, 1.3))
    result = pct_mvc(trial.emg, cal, Window(5.0, 10.0))
    assert isinstance(result, float)
    assert result == pytest.approx(0.40, abs=0.05)


def test_pct_mvc_window_outside_span():
    emg = synthesize_emg(activation_signal(0.4, duration=2.0), (1.0,), seed=9)
    cal = MvcCalibration(mvc_rms=(1.0,))
    with pytest.raises(WindowRangeError):
        pct_mvc(emg, cal, Window(5.0, 6.0), feedback_channels=(0,))


def test_pct_mvc_envelope_units():
    emg = synthesize_emg(activation_signal(0.4), (2.0,), seed=10)
    series = pct_mvc_envelope(emg, MvcCalibration(mvc_rms=(2.0,)))
    assert series.data.mean() == pytest.approx(0.4, abs=0.05)
    assert np.all(series.data >= 0.0)


def _reference_pct_mvc(emg, cal, w, feedback_channels, window_len, stride):
    """pct_mvc as it was before it enveloped the feedback channels alone:
    the mean of every channel's envelope, then the feedback pair's pool."""
    series = pct_mvc_envelope(emg, cal, window_len, stride)
    span = series.span()
    clipped = Window(max(w.t_start, span.t_start), min(w.t_end, span.t_end))
    means = series.slice(clipped).data.mean(axis=0)
    return float(np.mean([means[ch] for ch in feedback_channels]))


@pytest.mark.parametrize("feedback_channels", [(0, 2), (1,), (3, 0)])
@pytest.mark.parametrize("window, window_len, stride", [
    (Window(5.0, 10.0), 0.25, 0.05),
    (Window(7.0, 10.0), 0.25, 0.05),
    (Window(0.0, 10.0), 0.25, 0.05),   # clipped to the envelope at both ends
    (Window(2.3, 6.1), 0.5, 0.1),
    (Window(9.0, 10.0), 0.1, 0.013),
    (Window(8.0, 10.0), 2.0, 0.05),
])
def test_pct_mvc_matches_all_channel_reference_bits(feedback_channels, window, window_len, stride):
    from gmpkit.biomech import ActivationProfile, LimbParams, PerturbationSpec, simulate_trial

    mvc = (1.6, 1.1, 1.8, 1.3)
    trial = simulate_trial(
        LimbParams(),
        PerturbationSpec(frequency=1.0, amplitude=0.03, direction_index=1, duration=10.0),
        ActivationProfile(target_pct_mvc=0.4),
        seed=13,
        rate=1000.0,
        mvc_rms=mvc,
        emg_rate=EMG_RATE,
        subject_id="S1",
        activation_label="stiff",
        frequency_label="low",
    )
    cal = MvcCalibration(mvc_rms=(1.55, 1.2, 1.75, 1.35))
    got = pct_mvc(trial.emg, cal, window, feedback_channels, window_len, stride)
    want = _reference_pct_mvc(trial.emg, cal, window, feedback_channels, window_len, stride)
    assert got.hex() == want.hex()


def test_pct_mvc_refuses_calibration_of_another_channel_count():
    emg = synthesize_emg(activation_signal(0.4, duration=2.0), (1.0, 1.0), seed=9)
    with pytest.raises(ValueError, match="calibration covers 1 channels, EMG has 2"):
        pct_mvc(emg, MvcCalibration(mvc_rms=(1.0,)), Window(0.5, 1.5), feedback_channels=(0,))
