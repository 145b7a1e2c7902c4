import math
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gmpkit.emg import (
    BAND_HZ,
    EMG_LSB_MV,
    EMG_RATE,
    FEEDBACK_CHANNELS,
    RMS_STRIDE_S,
    RMS_WINDOW_S,
    MvcCalibration,
    _time_grids,
    estimate_mvc,
    pct_mvc,
    synthesize_emg,
)
from gmpkit.biomech import save_samples, trial_streams
from gmpkit.errors import DegenerateSampleError, WindowRangeError
from gmpkit.signals import SampledSignal, Window, _bandpass_magnitude, _fast_fft_length, bandpass_noise, rms


def activation_signal(level, duration=5.0, rate=1000.0):
    n = round(duration * rate) + 1
    return SampledSignal(rate, 0.0, ("a",), np.full(n, float(level)))


def test_zero_activation_gives_silent_channels():
    emg = synthesize_emg(activation_signal(0.0), (1.0, 1.0), seed=0, rate=EMG_RATE)
    env = rms(emg, 0.25, 0.05)
    assert np.all(env.data < 0.01)  # below 1% MVC


def test_envelope_tracks_activation_level():
    # oracle: modulated unit-variance noise has windowed RMS = level * mvc
    emg = synthesize_emg(activation_signal(0.4), (1.0,), seed=1, rate=EMG_RATE)
    env = rms(emg, 0.25, 0.05)
    assert env.data.mean() == pytest.approx(0.4, abs=0.05)


def test_seeds_change_waveform_not_envelope():
    a = synthesize_emg(activation_signal(0.4), (1.0,), seed=1, rate=EMG_RATE)
    b = synthesize_emg(activation_signal(0.4), (1.0,), seed=2, rate=EMG_RATE)
    assert not np.array_equal(a.data, b.data)
    assert rms(a, 0.25, 0.05).data.mean() == pytest.approx(rms(b, 0.25, 0.05).data.mean(), abs=0.05)
    again = synthesize_emg(activation_signal(0.4), (1.0,), seed=1, rate=EMG_RATE)
    np.testing.assert_array_equal(a.data, again.data)


def test_output_rate_and_channel_count():
    emg = synthesize_emg(activation_signal(0.2, duration=2.0), (1.6, 1.1, 1.8, 1.3), seed=3, rate=EMG_RATE)
    assert emg.sample_rate == pytest.approx(EMG_RATE)
    assert emg.channels == ("emg1", "emg2", "emg3", "emg4")
    assert emg.n_samples == round(2.0 * EMG_RATE) + 1


def _reference_synthesize_emg(activation, mvc_rms, seed, rate=EMG_RATE, band=BAND_HZ, order=4):
    """synthesize_emg in plain, copying steps: a float32 Box-Muller spectrum, one float32 inverse FFT, codes.

    On the rfft grid of the smallest fast FFT length that holds the samples,
    the band-pass magnitude is scaled for unit variance (Parseval over the
    bins strictly between DC and Nyquist) and cast to float32. One stream
    gives float32 uniforms: u1 for every bin of every channel, then u2. Each
    bin is the magnitude times the radius sqrt(-2 log1p(-u1)) at the phase
    2 pi u2, and the spectrum is transformed back in float32. The modulated
    noise is scaled to codes in float32, rounded to the nearest code,
    saturated at the int16 rails and decoded, as a stored array reads back.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n_out = round(activation.duration * rate) + 1
    t_out = activation.start_time + np.arange(n_out) / rate
    nfft = _fast_fft_length(n_out)
    magnitude, _ = _bandpass_magnitude(order, band, rate, nfft)
    inner = magnitude[1:(nfft + 1) // 2]
    shape = (magnitude * (nfft / (2 * math.sqrt(math.fsum(inner ** 2))))).astype(np.float32)
    u1, u2 = rng.random((2, len(mvc_rms), len(magnitude)), dtype=np.float32)
    radius = np.sqrt(np.float32(-2.0) * np.log1p(-u1)) * shape
    phase = np.float32(2 * math.pi) * u2
    spectrum = np.empty(radius.shape, dtype=np.complex64)
    spectrum.real = radius * np.cos(phase)
    spectrum.imag = radius * np.sin(phase)
    noise = np.fft.irfft(spectrum, nfft)[:, :n_out]
    assert noise.dtype == np.float32
    drives = [np.interp(t_out, activation.times(), col) for col in activation.data.T]
    out = np.empty((n_out, len(mvc_rms)))
    for ch in range(len(mvc_rms)):
        to_codes = (drives[min(ch, len(drives) - 1)] * (mvc_rms[ch] / EMG_LSB_MV)).astype(np.float32)
        codes = np.clip(np.rint(noise[ch] * to_codes), -2 ** 15, 2 ** 15 - 1)
        out[:, ch] = codes.astype(np.int16) * EMG_LSB_MV
    return out


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
    # one read-only float64 row per channel, exactly as long as the samples
    assert not emg.data.flags.writeable
    assert emg.data.strides == (8, 8 * emg.n_samples)


def test_synthesis_in_threads_matches_serial_bits():
    # each thread draws into its own spectrum scratch, which the lengths grow and then reuse in part;
    # four threads switching often would expose a scratch shared between them
    mvc = (1.6, 1.1, 1.8, 1.3)
    jobs = [(seed, (1.0, 3.0, 10.0)[seed % 3]) for seed in range(48)]

    def synthesize(job):
        seed, duration = job
        return synthesize_emg(noisy_activation(duration), mvc, seed=seed, rate=EMG_RATE).data.tobytes()

    serial = [synthesize(job) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            assert list(pool.map(synthesize, jobs, timeout=60)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_time_grids_are_shared_and_read_only():
    activation = noisy_activation(3.0)
    synthesize_emg(activation, (1.6,), seed=0, rate=EMG_RATE)
    n_out = round(activation.duration * EMG_RATE) + 1
    key = (activation.start_time, activation.n_samples, activation.sample_rate, n_out, EMG_RATE)
    hits = _time_grids.cache_info().hits
    t_out, t_act = _time_grids(*key)
    assert _time_grids.cache_info().hits == hits + 1
    assert not t_out.flags.writeable and not t_act.flags.writeable
    assert t_out.tobytes() == (np.arange(n_out) / EMG_RATE).tobytes()
    assert t_act.tobytes() == activation.times().tobytes()


@pytest.mark.parametrize("n_activations, mvc", [(1, (1.7,)), (2, (1.6, 1.1, 1.8, 1.3)), (2, (1.6,))])
def test_synthesis_channel_layouts_match_reference_bytes(n_activations, mvc):
    activation = noisy_activation(3.0, n_activations)
    emg = synthesize_emg(activation, mvc, seed=12, rate=EMG_RATE)
    assert emg.data.tobytes() == _reference_synthesize_emg(activation, mvc, 12).tobytes()
    assert not emg.data.flags.writeable
    assert all(emg.data[:, ch].flags.c_contiguous for ch in range(len(mvc)))


def test_synthesized_emg_has_int16_resolution():
    emg = synthesize_emg(noisy_activation(2.0, 2), (1.6, 1.1, 1.8, 1.3), seed=13, rate=EMG_RATE)
    assert emg.data.dtype == np.float64
    codes = emg.data / EMG_LSB_MV
    assert np.array_equal(codes, np.rint(codes))
    assert -2 ** 15 <= codes.min() and codes.max() <= 2 ** 15 - 1
    # no -0.0, which no stored code reads back as
    assert emg.data.tobytes() == (codes.astype(np.int16) * EMG_LSB_MV).tobytes()
    # the (n, 4) view of one read-only row per channel, as the trial store lays the channels out
    assert not emg.data.flags.writeable
    assert all(emg.data[:, ch].flags.c_contiguous for ch in range(4))


def test_emg_saturates_at_the_rails(tmp_path):
    """A 10 mV MVC level at full effort passes +/-16 mV: in memory and on disk it stops at the rails, unwrapped."""
    activation = activation_signal(1.0, duration=2.0)
    emg = synthesize_emg(activation, (10.0,) * 4, seed=14, rate=EMG_RATE)
    # the same noise and drive at a tenth of the level, which stays far inside the rails
    tenth = synthesize_emg(activation, (1.0,) * 4, seed=14, rate=EMG_RATE).data / EMG_LSB_MV
    stream = trial_streams(1000.0, EMG_RATE)["emg"]
    save_samples(tmp_path / "mvc.emg", emg.data, stream)
    stored = np.fromfile(tmp_path / "mvc.emg", "<i2").reshape(4, -1)  # channel-major
    assert stored.shape == (4, emg.n_samples)
    stored = stored.T
    for codes in (emg.data / EMG_LSB_MV, stored):
        for column in codes.T:
            assert column.min() == -2 ** 15 and column.max() == 2 ** 15 - 1
        beyond = np.abs(10 * tenth) > 2 ** 15
        assert np.array_equal(codes[beyond], np.where(tenth[beyond] > 0, 2 ** 15 - 1, -2 ** 15))
        inside = np.abs(10 * tenth) < 2 ** 15 - 6
        # both round to the code: 10 * 0.5 codes at the tenth and 0.5 here
        assert np.all(np.abs(codes[inside] - 10 * tenth[inside]) <= 5.5)


def test_synthesized_emg_has_unit_variance_in_expectation():
    """At full activation and a 1 mV MVC level, each sample's variance is 1 mV^2.

    Over 200 records of 1 s (2149 samples) the mean sample variance of a
    channel has a standard error of about 0.3%, so 1% is about three of them.
    """
    variances = np.array([
        synthesize_emg(activation_signal(1.0, duration=1.0), (1.0,) * 4, seed=seed, rate=EMG_RATE).data.var(axis=0)
        for seed in range(200)])
    np.testing.assert_allclose(variances.mean(axis=0), 1.0, rtol=0.01)


def test_box_muller_noise_is_unit_normal_float32_and_whole_codes():
    """Over several fixed seeds: the bins of a 10 s, 4-row ``bandpass_noise`` (2148 Hz, 21,481
    samples), divided by the float32 spectral shape, have standard normal real and imaginary
    parts; the rows are float32 of unit variance; and the EMG is whole codes.

    The bins are read back with a float64 ``rfft`` of the rows, over the 6,271 bins where the
    shape is above a tenth of its peak, so the float32 rounding of the rows stays far below a
    bin's spread. A single 10 s row's variance has a spread of about 1.4% (measured over 800
    rows), so 2% bounds the mean over the 20 rows, whose spread is about 0.3%, and 7% (five
    spreads) bounds each row.
    """
    from scipy import stats

    n = round(10.0 * EMG_RATE) + 1
    nfft = _fast_fft_length(n)
    _, shape = _bandpass_magnitude(4, BAND_HZ, EMG_RATE, nfft)
    passband = shape > 0.1 * shape.max()
    variances = []
    for seed in range(5):
        noise = bandpass_noise(np.random.default_rng(seed), 4, n, 4, BAND_HZ, EMG_RATE)
        assert noise.dtype == np.float32 and noise.shape == (4, nfft)
        bins = np.fft.rfft(noise.astype(np.float64), axis=1)[:, passband] / shape[passband]
        for part in (bins.real, bins.imag):
            assert stats.kstest(part.ravel(), "norm").pvalue > 1e-3
        variances.extend(noise[:, :n].astype(np.float64).var(axis=1))
        emg = synthesize_emg(noisy_activation(2.0), (1.6, 1.1, 1.8, 1.3), seed=seed, rate=EMG_RATE)
        codes = emg.data / EMG_LSB_MV
        assert np.array_equal(codes, np.rint(codes))
    assert np.mean(variances) == pytest.approx(1.0, abs=0.02)
    np.testing.assert_allclose(variances, 1.0, atol=0.07)


def test_long_emg_does_not_depend_on_the_blas_thread_count():
    """A 30 s EMG (64,441 samples, 32,401 rfft bins) has the same bytes under one and two
    OpenBLAS threads: the band power is a fixed-order sum, not a BLAS dot product."""
    code = ("import hashlib, numpy as np; from gmpkit.emg import synthesize_emg; "
            "from gmpkit.signals import SampledSignal; "
            "a = SampledSignal(1000.0, 0.0, ('a',), np.full(30001, 0.4)); "
            "print(hashlib.sha256(synthesize_emg(a, (1.6, 1.1, 1.8, 1.3), 3, 2148.0).data.tobytes()).hexdigest())")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
        digests.add(proc.stdout.strip())
    assert len(digests) == 1


def test_synthesized_emg_is_zero_mean():
    emg = synthesize_emg(activation_signal(0.5, duration=10.0), (1.0, 2.0), seed=4, rate=EMG_RATE)
    n = emg.n_samples
    for ch in range(emg.n_channels):
        x = emg.data[:, ch]
        assert abs(x.mean()) < 3.0 * x.std() / np.sqrt(n)


def test_estimate_mvc_constant_recording():
    rec = SampledSignal(EMG_RATE, 0.0, ("emg1",), np.full(round(3 * EMG_RATE) + 1, 2.0))
    cal = estimate_mvc([rec], RMS_WINDOW_S, RMS_STRIDE_S)
    assert cal.mvc_rms[0] == pytest.approx(2.0, abs=1e-9)


def test_estimate_mvc_takes_max_across_repetitions():
    n = round(3 * EMG_RATE) + 1
    rep1 = SampledSignal(EMG_RATE, 0.0, ("emg1",), np.full(n, 1.8))
    rep2 = SampledSignal(EMG_RATE, 0.0, ("emg1",), np.full(n, 2.2))
    cal = estimate_mvc([rep1, rep2], RMS_WINDOW_S, RMS_STRIDE_S)
    assert cal.mvc_rms[0] == pytest.approx(2.2, abs=1e-9)
    assert estimate_mvc([rep2, rep1], RMS_WINDOW_S, RMS_STRIDE_S).mvc_rms == cal.mvc_rms


def test_estimate_mvc_sine_burst():
    # oracle: full-period RMS of a 1 mV sine is 1/sqrt(2)
    t = np.arange(round(3 * EMG_RATE) + 1) / EMG_RATE
    rec = SampledSignal(EMG_RATE, 0.0, ("emg1",), np.sin(2 * np.pi * 40 * t))
    cal = estimate_mvc([rec], window_len=0.25, stride=RMS_STRIDE_S)
    assert cal.mvc_rms[0] == pytest.approx(1 / np.sqrt(2), abs=2e-3)


def test_estimate_mvc_empty_input():
    with pytest.raises(DegenerateSampleError):
        estimate_mvc([], RMS_WINDOW_S, RMS_STRIDE_S)


def test_estimate_mvc_monotone_under_more_recordings():
    rng_levels = (0.9, 1.4, 0.7)
    n = round(3 * EMG_RATE) + 1
    recs = [SampledSignal(EMG_RATE, 0.0, ("emg1",), np.full(n, lvl)) for lvl in rng_levels]
    previous = 0.0
    for count in range(1, len(recs) + 1):
        value = estimate_mvc(recs[:count], RMS_WINDOW_S, RMS_STRIDE_S).mvc_rms[0]
        assert value >= previous
        previous = value


def test_pct_mvc_identity_at_mvc_level():
    emg = synthesize_emg(activation_signal(1.0), (1.6, 1.8), seed=5, rate=EMG_RATE)
    cal = MvcCalibration(mvc_rms=(1.6, 1.8))
    result = pct_mvc(emg, cal, Window(1.0, 4.0), (0, 1), RMS_WINDOW_S, RMS_STRIDE_S)
    assert result == pytest.approx(1.0, abs=0.05)


def test_pct_mvc_zero_signal():
    emg = synthesize_emg(activation_signal(0.0), (1.0, 1.0, 1.0, 1.0), seed=6, rate=EMG_RATE)
    cal = MvcCalibration(mvc_rms=(1.0, 1.0, 1.0, 1.0))
    result = pct_mvc(emg, cal, Window(1.0, 4.0), FEEDBACK_CHANNELS, RMS_WINDOW_S, RMS_STRIDE_S)
    assert result == pytest.approx(0.0, abs=1e-12)


def test_pct_mvc_scale_invariance():
    emg = synthesize_emg(activation_signal(0.4), (1.0, 1.0), seed=7, rate=EMG_RATE)
    cal = MvcCalibration(mvc_rms=(1.0, 1.0))
    base = pct_mvc(emg, cal, Window(1.0, 4.0), (0, 1), RMS_WINDOW_S, RMS_STRIDE_S)
    scaled = SampledSignal(emg.sample_rate, emg.start_time, emg.channels, emg.data * 3.5)
    cal_scaled = MvcCalibration(mvc_rms=(3.5, 3.5))
    result = pct_mvc(scaled, cal_scaled, Window(1.0, 4.0), (0, 1), RMS_WINDOW_S, RMS_STRIDE_S)
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
    result = pct_mvc(trial.emg, cal, Window(5.0, 10.0), FEEDBACK_CHANNELS, RMS_WINDOW_S, RMS_STRIDE_S)
    assert isinstance(result, float)
    assert result == pytest.approx(0.40, abs=0.05)


def test_pct_mvc_window_outside_span():
    emg = synthesize_emg(activation_signal(0.4, duration=2.0), (1.0,), seed=9, rate=EMG_RATE)
    cal = MvcCalibration(mvc_rms=(1.0,))
    with pytest.raises(WindowRangeError):
        pct_mvc(emg, cal, Window(5.0, 6.0), (0,), RMS_WINDOW_S, RMS_STRIDE_S)


def _pct_mvc_envelope(emg, cal, window_len, stride):
    """The all-channel %MVC envelope: each channel's RMS envelope over its MVC level."""
    env = rms(emg, window_len, stride)
    return SampledSignal(env.sample_rate, env.start_time, env.channels,
                         env.data / np.asarray(cal.mvc_rms))


def test_pct_mvc_envelope_units():
    emg = synthesize_emg(activation_signal(0.4), (2.0,), seed=10, rate=EMG_RATE)
    series = _pct_mvc_envelope(emg, MvcCalibration(mvc_rms=(2.0,)), 0.25, 0.05)
    assert series.data.mean() == pytest.approx(0.4, abs=0.05)
    assert np.all(series.data >= 0.0)


def _reference_pct_mvc(emg, cal, w, feedback_channels, window_len, stride):
    """pct_mvc as it was before it enveloped the feedback channels alone:
    the mean of every channel's envelope, then the feedback pair's pool."""
    series = _pct_mvc_envelope(emg, cal, window_len, stride)
    end = series.start_time + series.duration
    clipped = Window(max(w.t_start, series.start_time), min(w.t_end, end))
    means = series.slice(clipped).data.mean(axis=0)
    return float(np.mean([means[ch] for ch in feedback_channels]))


@pytest.mark.parametrize("feedback_channels", [(0, 2), (1,), (3, 0), (1, 3)])
@pytest.mark.parametrize("window, window_len, stride", [
    (Window(5.0, 10.0), 0.25, 0.05),
    (Window(7.0, 10.0), 0.25, 0.05),
    (Window(0.0, 10.0), 0.25, 0.05),   # clipped to the envelope at both ends
    (Window(2.3, 6.1), 0.5, 0.1),
    (Window(9.0, 10.0), 0.1, 0.013),
    (Window(8.0, 10.0), 2.0, 0.05),
    (Window(0.0, 2.0), 0.5, 0.1),      # clipped at the start of the envelope's support
    (Window(8.0, 10.0), 0.5, 0.1),     # clipped at its end
    (Window(5.0, 5.02), 0.25, 0.05),   # one envelope sample, at 5.0065 s
    (Window(9.83, 10.0), 0.25, 0.05),  # one envelope sample, the last, after clipping
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
    emg = synthesize_emg(activation_signal(0.4, duration=2.0), (1.0, 1.0), seed=9, rate=EMG_RATE)
    with pytest.raises(ValueError, match="calibration covers 1 channels, EMG has 2"):
        pct_mvc(emg, MvcCalibration(mvc_rms=(1.0,)), Window(0.5, 1.5), (0,), RMS_WINDOW_S, RMS_STRIDE_S)
