import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import signal as sps  # independent oracle for the filter kernels

from gmpkit.errors import AlignmentError, WindowRangeError
from gmpkit.signals import (
    SampledSignal,
    Window,
    _bandpass_magnitude,
    _fast_fft_length,
    bandpass_noise,
    check_aligned,
    first_order_recurrence,
    read_csv,
    rms,
    rms_range,
    trapz_inner,
    write_csv,
)


def make_signal(fn, duration=1.0, rate=1000.0, channels=("x",)):
    t = np.arange(round(duration * rate) + 1) / rate
    data = np.column_stack([fn(t) for _ in channels])
    return SampledSignal(rate, 0.0, channels, data)


def test_window_rejects_degenerate():
    with pytest.raises(WindowRangeError):
        Window(2.0, 1.0)
    with pytest.raises(WindowRangeError):
        Window(1.0, 1.0)


def test_signal_invariants():
    sig = make_signal(np.sin, duration=2.0)
    assert sig.n_samples == 2001
    assert sig.duration == pytest.approx(2.0)
    assert sig.times()[1] == pytest.approx(sig.start_time + 1.0 / sig.sample_rate)
    with pytest.raises(ValueError):
        SampledSignal(-1.0, 0.0, ("x",), np.zeros(10))
    with pytest.raises(ValueError):
        SampledSignal(1.0, 0.0, ("x", "y"), np.zeros((10, 1)))


def test_signal_data_is_readonly():
    sig = make_signal(np.sin)
    with pytest.raises(ValueError):
        sig.data[0, 0] = 1.0


def test_signal_shares_only_frozen_arrays():
    frozen = np.arange(6.0).reshape(3, 2).copy()
    frozen.flags.writeable = False
    assert SampledSignal(1.0, 0.0, ("a", "b"), frozen).data is frozen
    view = frozen[:, :1]
    assert SampledSignal(1.0, 0.0, ("a",), view).data is view
    # a read-only view of a writeable array could still change under the signal
    live = np.arange(6.0).reshape(3, 2).copy()
    window = live[:, :1]
    window.flags.writeable = False
    sig = SampledSignal(1.0, 0.0, ("a",), window)
    live[0, 0] = 99.0
    assert sig.data[0, 0] == 0.0
    sig = SampledSignal(1.0, 0.0, ("a", "b"), live)
    live[1, 1] = -1.0
    assert sig.data[1, 1] == 3.0


def test_slice_last_five_seconds():
    sig = make_signal(np.sin, duration=10.0, rate=1000.0)
    out = sig.slice(Window(5.0, 10.0))
    assert out.n_samples == 5001
    assert out.start_time == pytest.approx(5.0)
    assert out.sample_rate == sig.sample_rate


def test_slice_full_span_is_identity():
    sig = make_signal(np.cos, duration=3.0)
    out = sig.slice(Window(sig.start_time, sig.start_time + sig.duration))
    assert out.n_samples == sig.n_samples
    np.testing.assert_array_equal(out.data, sig.data)


def test_slice_outside_span_raises():
    sig = make_signal(np.sin, duration=1.0)
    with pytest.raises(WindowRangeError):
        sig.slice(Window(0.5, 1.5))
    with pytest.raises(WindowRangeError):
        sig.slice(Window(-0.5, 0.5))


def test_nested_slices_equal_single_slice():
    sig = make_signal(np.sin, duration=10.0)
    inner = Window(3.0, 5.0)
    once = sig.slice(inner)
    twice = sig.slice(Window(2.0, 8.0)).slice(inner)
    assert once.start_time == pytest.approx(twice.start_time)
    np.testing.assert_array_equal(once.data, twice.data)


def test_inner_product_zero_input():
    a = make_signal(lambda t: np.zeros_like(t))
    b = make_signal(np.sin)
    w = Window(0.0, 1.0)
    assert trapz_inner(a.slice(w), b.slice(w)) == 0.0


def test_inner_product_sine_analytic():
    # oracle: integral of sin^2(2 pi t) over one period is exactly 1/2
    s = make_signal(lambda t: np.sin(2 * np.pi * t))
    w = Window(0.0, 1.0)
    assert trapz_inner(s.slice(w), s.slice(w)) == pytest.approx(0.5, abs=1e-6)


def test_spring_force_does_no_net_work():
    # oracle: elastic force k*x against v over a full period integrates to 0
    k = 120.0
    x = make_signal(lambda t: np.sin(2 * np.pi * t))
    force = SampledSignal(x.sample_rate, 0.0, ("f",), k * x.data)
    v = make_signal(lambda t: 2 * np.pi * np.cos(2 * np.pi * t))
    w = Window(0.0, 1.0)
    assert trapz_inner(force.slice(w), v.slice(w)) == pytest.approx(0.0, abs=1e-6)


def test_inner_product_symmetry():
    a = make_signal(lambda t: np.sin(3 * t) + 0.2 * t)
    b = make_signal(lambda t: np.cos(5 * t))
    w = Window(0.1, 0.9)
    assert trapz_inner(a.slice(w), b.slice(w)) == trapz_inner(b.slice(w), a.slice(w))


def test_inner_product_alignment_errors():
    a = make_signal(np.sin, rate=1000.0)
    b = make_signal(np.sin, rate=500.0)
    with pytest.raises(AlignmentError):
        check_aligned(a, b)
    c = make_signal(np.sin, duration=2.0)
    with pytest.raises(AlignmentError):
        check_aligned(a, c)


def test_l2_norm_constant_two_channels():
    # oracle: constant 2 on two channels over 3 s -> (4 + 4) * 3 = 24
    sig = make_signal(lambda t: np.full_like(t, 2.0), duration=3.0, channels=("u", "v"))
    w = Window(0.0, 3.0)
    assert trapz_inner(sig.slice(w), sig.slice(w)) == pytest.approx(24.0, abs=1e-9)


def test_l2_norm_sine():
    sig = make_signal(lambda t: np.sin(2 * np.pi * t))
    w = Window(0.0, 1.0)
    assert trapz_inner(sig.slice(w), sig.slice(w)) == pytest.approx(0.5, abs=1e-6)


def test_l2_norm_zero_iff_zero_signal():
    zero = make_signal(lambda t: np.zeros_like(t))
    w = Window(0.0, 1.0)
    assert trapz_inner(zero.slice(w), zero.slice(w)) == 0.0
    tiny = make_signal(lambda t: np.where(t == 0.5, 1e-3, 0.0))
    assert trapz_inner(tiny.slice(w), tiny.slice(w)) > 0.0


def test_trapezoid_exact_for_piecewise_linear():
    # oracle: sum of exact segment areas of a piecewise-linear integrand
    rng = np.random.default_rng(7)
    values = rng.uniform(-2.0, 2.0, size=101)
    rate = 100.0
    sig = SampledSignal(rate, 0.0, ("x",), values)
    ones = SampledSignal(rate, 0.0, ("one",), np.ones_like(values))
    exact = np.sum((values[1:] + values[:-1]) / 2.0) / rate
    w = Window(0.0, 1.0)
    assert trapz_inner(sig.slice(w), ones.slice(w)) == pytest.approx(exact, abs=1e-12)


@given(st.floats(min_value=-5.0, max_value=5.0), st.floats(min_value=0.1, max_value=4.0))
def test_l2_norm_nonnegative(offset, scale):
    t = np.arange(201) / 100.0
    sig = SampledSignal(100.0, 0.0, ("x",), offset + scale * np.sin(7 * t))
    w = Window(0.0, 2.0)
    assert trapz_inner(sig.slice(w), sig.slice(w)) >= 0.0


def test_rms_constant():
    sig = make_signal(lambda t: np.full_like(t, -3.0), duration=2.0)
    out = rms(sig, window_len=0.25, stride=0.05)
    np.testing.assert_allclose(out.data, 3.0)


def test_rms_full_period_sine():
    # oracle: RMS of a full sine period is 1/sqrt(2)
    sig = make_signal(lambda t: np.sin(2 * np.pi * t), duration=2.0)
    out = rms(sig, window_len=1.0, stride=0.1)
    np.testing.assert_allclose(out.data, 1.0 / math.sqrt(2.0), atol=1e-3)


def test_rms_zero():
    sig = make_signal(lambda t: np.zeros_like(t))
    out = rms(sig, 0.25, 0.05)
    np.testing.assert_array_equal(out.data, 0.0)


def test_rms_window_longer_than_signal():
    sig = make_signal(np.sin, duration=0.1)
    with pytest.raises(WindowRangeError):
        rms(sig, window_len=1.0, stride=0.05)


def test_rms_matches_stacked_cumsum():
    # the preallocated buffer gives the same bits as stacking a zero row
    data = np.random.default_rng(3).standard_normal((4001, 3))
    sig = SampledSignal(2000.0, 0.5, ("a", "b", "c"), data)
    csum = np.vstack([np.zeros((1, 3)), np.cumsum(data**2, axis=0)])
    starts = np.arange(0, 4001 - 500 + 1, 100)
    expected = np.sqrt((csum[starts + 500] - csum[starts]) / 500)
    np.testing.assert_array_equal(rms(sig, 0.25, 0.05).data, expected)


@pytest.mark.parametrize("n, rate, start, window_len, stride", [
    (6445, 2148.0, 0.0, 2.5, 0.05),     # 3 s trial EMG, 2.5 s RMS window
    (21481, 2148.0, 0.0, 0.25, 0.05),   # 10 s trial EMG, default envelope
    (4001, 2000.0, 0.5, 0.25, 0.0503),  # stride off the sample grid
    (500, 1000.0, 0.0, 0.5, 0.3),       # a single envelope sample
])
def test_rms_range_reads_the_rms_envelope(n, rate, start, window_len, stride):
    sig = SampledSignal(rate, start, ("a",), np.ones(n))
    env = rms(sig, window_len, stride)
    whole = Window(start, start + (n - 1) / rate)
    before = Window(start, env.start_time)  # touches the envelope's support at its first sample only
    after = Window(start + (n - 1) / rate + 1.0, start + (n - 1) / rate + 2.0)
    if env.n_samples == 1:  # a one-sample envelope's support is a point, which no window overlaps
        windows = (whole, before, after)
    else:
        n_win, n_stride, k_start, k_end = rms_range(n, rate, start, window_len, stride, whole)
        assert (n_win, n_stride) == (round(window_len * rate), max(1, round(stride * rate)))
        assert (k_start, k_end) == (0, env.n_samples - 1)
        windows = (before, after)
    for w in windows:
        with pytest.raises(WindowRangeError, match="misses the RMS envelope"):
            rms_range(n, rate, start, window_len, stride, w)


def test_rms_output_rate():
    sig = make_signal(np.sin, duration=10.0, rate=1000.0)
    out = rms(sig, window_len=0.25, stride=0.05)
    assert out.sample_rate == pytest.approx(20.0)


def test_csv_round_trip(tmp_path):
    sig = make_signal(lambda t: np.sin(2 * np.pi * 3 * t) + t, duration=0.5, channels=("a", "b"))
    path = tmp_path / "sig.csv"
    write_csv(sig, path)
    back = read_csv(path)
    assert back.channels == sig.channels
    assert back.sample_rate == pytest.approx(sig.sample_rate)
    np.testing.assert_array_equal(back.data, sig.data)


def test_csv_write_is_deterministic(tmp_path):
    sig = make_signal(np.sin, duration=0.2)
    write_csv(sig, tmp_path / "a.csv")
    write_csv(sig, tmp_path / "b.csv")
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def _reference_write_csv(signal, path):
    """The per-element formatting loop write_csv replaced."""
    times = signal.times()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(("t", *signal.channels)) + "\n")
        for k in range(signal.n_samples):
            row = [repr(float(times[k]))]
            row.extend(repr(float(v)) for v in signal.data[k])
            fh.write(",".join(row) + "\n")


def test_csv_write_matches_reference_bytes(tmp_path):
    sig = make_signal(lambda t: np.sin(2 * np.pi * 3 * t) + t, duration=0.5, rate=2148.0,
                      channels=("a", "b", "c"))
    special = np.array([[-0.0, np.inf, 5e-324], [1e16, -np.inf, -2.5e-310], [0.1, -1e-300, 2.0**60]])
    data = np.vstack([special, sig.data])
    sig = SampledSignal(sig.sample_rate, 0.25, sig.channels, data)
    write_csv(sig, tmp_path / "new.csv")
    _reference_write_csv(sig, tmp_path / "old.csv")
    blob = (tmp_path / "new.csv").read_bytes()
    assert blob == (tmp_path / "old.csv").read_bytes()
    assert blob.startswith(b"t,a,b,c\n")
    assert b"-0.0,inf,5e-324\n" in blob and b",1e+16,-inf," in blob


# -- filter kernels -----------------------------------------------------------


def _relative_error(actual, expected):
    return np.max(np.abs(actual - expected)) / np.max(np.abs(expected))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 10001])
def test_first_order_recurrence_matches_loop(n):
    rng = np.random.default_rng(n)
    a = rng.uniform(0.0, 1.0, n)
    b = rng.standard_normal(n)
    expected = np.empty(n)
    y = 0.0
    for k in range(n):
        y = a[k] * y + b[k]
        expected[k] = y
    assert _relative_error(first_order_recurrence(a, b), expected) <= 1e-12


def test_first_order_recurrence_matches_lfilter():
    # constant coefficient: the AR(1) filter y[n] = rho*y[n-1] + c*x[n]
    rho = math.exp(-1e-3 / 0.2)
    x = np.random.default_rng(5).standard_normal(20001)
    c = math.sqrt(1.0 - rho * rho)
    expected = sps.lfilter([c], [1.0, -rho], x)
    actual = first_order_recurrence(np.full(len(x), rho), c * x)
    assert _relative_error(actual, expected) <= 1e-12


def test_first_order_recurrence_leaves_inputs_alone():
    a, b = np.full(8, 0.5), np.ones(8)
    first_order_recurrence(a, b)
    np.testing.assert_array_equal(a, 0.5)
    np.testing.assert_array_equal(b, 1.0)
    first_order_recurrence(0.5, b)
    np.testing.assert_array_equal(b, 1.0)
    with pytest.raises(ValueError):
        first_order_recurrence(np.ones(3), np.ones(4))
    with pytest.raises(ValueError):
        first_order_recurrence(0.5, np.ones((2, 2)))


_SCAN_LENGTHS = [1, 2, 3] + [2 ** k + d for k in (4, 10, 13) for d in (-1, 0, 1)] + [10001, 21481]


@pytest.mark.parametrize("rho", [1e-3, 0.5, 0.995, 1.0])
@pytest.mark.parametrize("n", _SCAN_LENGTHS)
def test_first_order_recurrence_scalar_coefficient_matches_array_bits(n, rho):
    # a constant coefficient carried as one scalar, squared after each pass, is every
    # coefficient that the array scan reads, so the two give the same bits
    b = np.random.default_rng(n).standard_normal(n)
    expected = first_order_recurrence(np.full(n, rho), b)
    assert first_order_recurrence(rho, b).tobytes() == expected.tobytes()


def test_bandpass_magnitude_rejects_bad_band():
    for order, band in ((0, (20.0, 450.0)), (4, (450.0, 20.0)), (4, (20.0, 1100.0))):
        with pytest.raises(ValueError):
            _bandpass_magnitude(order, band, 2148.0, 6480)


@pytest.mark.parametrize("band, rate", [((20.0, 450.0), 2148.0), ((5.0, 40.0), 200.0)], ids=["emg", "narrow"])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("n", [50, 241, 6445, 21481])  # nfft 243 is odd: no Nyquist bin
def test_bandpass_magnitude_matches_scipy(order, band, rate, n):
    nfft = _fast_fft_length(n)
    grid = np.arange(nfft // 2 + 1) * rate / nfft
    _, expected = sps.freqz_zpk(*sps.butter(order, band, btype="bandpass", fs=rate, output="zpk"),
                                worN=grid, fs=rate)
    actual, _ = _bandpass_magnitude(order, band, rate, nfft)
    np.testing.assert_allclose(actual, np.abs(expected), rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    # the filter's zeros sit at DC and Nyquist, where the magnitude is exactly zero
    assert actual[0] == 0.0 and (nfft % 2 or actual[-1] == 0.0)
    assert not actual.flags.writeable


def test_bandpass_noise_computes_the_band_power_once_per_shape():
    """The band power and the float32 spectral shape are cached with the magnitude, once per grid;
    the power is a fixed-order ``math.fsum``, with no BLAS call."""
    _bandpass_magnitude.cache_clear()
    for seed in (0, 1):
        bandpass_noise(np.random.default_rng(seed), 2, 21481, 4, (20.0, 450.0), 2148.0)
    info = _bandpass_magnitude.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    nfft = _fast_fft_length(21481)
    magnitude, shape = _bandpass_magnitude(4, (20.0, 450.0), 2148.0, nfft)
    scale = nfft / (2.0 * math.sqrt(math.fsum(magnitude * magnitude)))
    assert shape.dtype == np.float32 and not shape.flags.writeable
    assert shape.tobytes() == (magnitude * scale).astype(np.float32).tobytes()


def test_bandpass_noise_returns_a_new_array_each_call():
    # the spectrum scratch is reused, but never handed out
    first = bandpass_noise(np.random.default_rng(0), 4, 2148, 4, (20.0, 450.0), 2148.0)
    kept = first.copy()
    second = bandpass_noise(np.random.default_rng(1), 4, 2148, 4, (20.0, 450.0), 2148.0)
    assert first is not second and not np.shares_memory(first, second)
    assert first.tobytes() == kept.tobytes()
    assert second.tobytes() != kept.tobytes()


@pytest.mark.parametrize("n", [1, 2])
def test_bandpass_noise_refuses_a_record_with_no_bin_in_the_band(n):
    # DC and Nyquist are the only bins, and the filter's zeros sit on both
    with pytest.raises(ValueError, match="no frequency bin inside the band"):
        bandpass_noise(np.random.default_rng(0), 1, n, 4, (20.0, 450.0), 2148.0)


def test_import_loads_no_scipy():
    # nor the process pool, which only a parallel simulation needs
    code = ("import sys, gmpkit, gmpkit.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'multiprocessing'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
