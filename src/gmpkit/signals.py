"""Uniformly sampled multichannel signals.

The numerical substrate for the whole toolkit: slicing by time window,
trapezoidal quadrature of inner products, sliding-window RMS, the CSV
interchange format, and two filter kernels in plain numpy: a first-order
linear recurrence (the Maxwell branch and the AR(1) activation noise) and
a causal Butterworth band-pass (the EMG noise). The band-pass works in
place on a zero-padded buffer of :func:`bandpass_fft_length` samples per
row, so a caller that draws its samples into such a buffer filters them
without a full-length copy.

Conventions
-----------
* ``data`` is laid out ``(n_samples, n_channels)``; sample ``k`` sits at
  ``start_time + k / sample_rate``.
* Quadrature is trapezoidal on the uniform grid: second-order accurate,
  exact for piecewise-linear integrands sampled at the grid, and free of
  phase bias for periodic integrands.
* Signals at different rates are never aligned implicitly; the caller must
  resample explicitly. This keeps mixed-rate streams (robot vs. EMG)
  honest.

All values are immutable after construction (the sample array is marked
read-only), so they are safe to share between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AlignmentError, WindowRangeError

# slack used in window/timestamp comparisons, as a fraction of one sample
_TIME_TOL = 1e-6


@dataclass(frozen=True)
class Window:
    """Closed time interval [t_start, t_end], in seconds."""

    t_start: float
    t_end: float

    def __post_init__(self) -> None:
        if not (self.t_end > self.t_start):
            raise WindowRangeError(
                f"degenerate window [{self.t_start}, {self.t_end}]"
            )

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass(frozen=True)
class SampledSignal:
    """Uniformly sampled multichannel time series with labelled channels.

    Attributes:
        sample_rate: samples per second, > 0.
        start_time: time of sample 0, in seconds.
        channels: one label per data column.
        data: float array of shape (n_samples, n_channels), read-only.
    """

    sample_rate: float
    start_time: float
    channels: tuple[str, ...]
    data: np.ndarray

    def __post_init__(self) -> None:
        if not self.sample_rate > 0:
            raise ValueError(f"sample_rate must be > 0, got {self.sample_rate}")
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 1:
            data = data[:, None]
        if data.ndim != 2:
            raise ValueError(f"data must be 1-D or 2-D, got shape {data.shape}")
        channels = tuple(self.channels)
        if data.shape[1] != len(channels):
            raise ValueError(
                f"{len(channels)} channel labels for {data.shape[1]} data columns"
            )
        if _mutable(data):
            data = data.copy()
            data.flags.writeable = False
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "channels", channels)

    # -- geometry ---------------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def duration(self) -> float:
        return (self.n_samples - 1) / self.sample_rate

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration

    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.n_samples) / self.sample_rate

    def span(self) -> Window:
        return Window(self.start_time, self.end_time)

    # -- operations -------------------------------------------------------

    def slice(self, w: Window) -> "SampledSignal":
        """Samples with timestamps inside [w.t_start, w.t_end].

        The window must lie within the signal span (up to a microsample of
        slack); the sample rate is preserved.
        """
        tol = _TIME_TOL / self.sample_rate
        if w.t_start < self.start_time - tol or w.t_end > self.end_time + tol:
            raise WindowRangeError(
                f"window [{w.t_start}, {w.t_end}] outside signal span "
                f"[{self.start_time}, {self.end_time}]"
            )
        k_start = math.ceil((w.t_start - self.start_time) * self.sample_rate - _TIME_TOL)
        k_end = math.floor((w.t_end - self.start_time) * self.sample_rate + _TIME_TOL)
        k_start = max(k_start, 0)
        k_end = min(k_end, self.n_samples - 1)
        if k_end < k_start:
            raise WindowRangeError(f"window [{w.t_start}, {w.t_end}] contains no samples")
        return SampledSignal(
            sample_rate=self.sample_rate,
            start_time=self.start_time + k_start / self.sample_rate,
            channels=self.channels,
            data=self.data[k_start : k_end + 1],
        )


def _mutable(data: np.ndarray) -> bool:
    """Whether ``data``, or an array it views, may still be written to.

    A read-only array that owns its memory, or that views only read-only
    arrays, can be shared as it is; anything else is copied.
    """
    base = data
    while isinstance(base, np.ndarray):
        if base.flags.writeable:
            return True
        base = base.base
    return base is not None


def _check_aligned(a: SampledSignal, b: SampledSignal) -> None:
    if not math.isclose(a.sample_rate, b.sample_rate, rel_tol=1e-12):
        raise AlignmentError(f"sample rates differ: {a.sample_rate} vs {b.sample_rate}")
    if abs(a.start_time - b.start_time) > _TIME_TOL / a.sample_rate:
        raise AlignmentError(f"start times differ: {a.start_time} vs {b.start_time}")
    if a.n_samples != b.n_samples:
        raise AlignmentError(f"lengths differ: {a.n_samples} vs {b.n_samples}")
    if a.n_channels != b.n_channels:
        raise AlignmentError(f"channel counts differ: {a.n_channels} vs {b.n_channels}")


def _trapz(values: np.ndarray, dt: float) -> float:
    if len(values) < 2:
        return 0.0
    return float(dt * (values.sum() - 0.5 * (values[0] + values[-1])))


def inner_product_integral(a: SampledSignal, b: SampledSignal, w: Window) -> float:
    """Trapezoidal approximation of the port energy integral over ``w``.

    Channels are paired positionally and the channelwise products summed,
    i.e. the integrand is the full vector inner product a(t)^T b(t). With a
    force signal and a velocity signal this is the energy flowing through
    the port, in joules.
    """
    _check_aligned(a, b)
    aw = a.slice(w)
    bw = b.slice(w)
    integrand = np.einsum("ij,ij->i", aw.data, bw.data)
    return _trapz(integrand, 1.0 / aw.sample_rate)


def l2_norm_integral(y: SampledSignal, w: Window) -> float:
    """Trapezoidal integral of ||y(t)||^2 over ``w``; always >= 0."""
    return inner_product_integral(y, y, w)


def _rms_geometry(n_samples: int, sample_rate: float, window_len: float,
                  stride: float) -> tuple[int, int]:
    """RMS window and stride in whole samples, checked against the signal length."""
    if window_len <= 0 or stride <= 0:
        raise ValueError("window_len and stride must be > 0")
    n_win = max(1, round(window_len * sample_rate))
    n_stride = max(1, round(stride * sample_rate))
    if n_win > n_samples:
        raise WindowRangeError(
            f"RMS window of {n_win} samples longer than signal ({n_samples})"
        )
    return n_win, n_stride


def rms(signal: SampledSignal, window_len: float, stride: float) -> SampledSignal:
    """Sliding-window root-mean-square per channel.

    Windows of ``window_len`` seconds advance by ``stride`` seconds; both
    are snapped to whole samples. Output samples are stamped at window
    centres, so the output rate is ``sample_rate / round(stride * sample_rate)``
    (equal to 1/stride whenever the stride is a whole number of samples).
    """
    n_win, n_stride = _rms_geometry(signal.n_samples, signal.sample_rate, window_len, stride)
    # squares and their running sums share one buffer: no full-length temporaries
    csum = np.empty((signal.n_samples + 1, signal.n_channels))
    csum[0] = 0.0
    np.square(signal.data, out=csum[1:])
    np.cumsum(csum[1:], axis=0, out=csum[1:])
    starts = np.arange(0, signal.n_samples - n_win + 1, n_stride)
    means = (csum[starts + n_win] - csum[starts]) / n_win
    out = np.sqrt(means)
    center_offset = (n_win - 1) / 2.0 / signal.sample_rate
    return SampledSignal(
        sample_rate=signal.sample_rate / n_stride,
        start_time=signal.start_time + center_offset,
        channels=signal.channels,
        data=out,
    )


def rms_support(n_samples: int, sample_rate: float, start_time: float,
                window_len: float, stride: float) -> tuple[float, float]:
    """First and last timestamps of :func:`rms` of an ``n_samples``-sample signal.

    Computed with the arithmetic ``rms`` and ``SampledSignal.end_time`` use,
    so the values equal ``rms(signal, ...).span()`` bit for bit, without the
    signal. First and last are equal when the envelope has a single sample.
    """
    n_win, n_stride = _rms_geometry(n_samples, sample_rate, window_len, stride)
    first = start_time + (n_win - 1) / 2.0 / sample_rate
    n_out = (n_samples - n_win) // n_stride + 1
    return first, first + (n_out - 1) / (sample_rate / n_stride)


# -- filter kernels --------------------------------------------------------


def first_order_recurrence(a, b) -> np.ndarray:
    """``y[n] = a[n] * y[n-1] + b[n]`` for all n, with ``y[-1] = 0``.

    A doubling scan: after the pass with stride s, ``(a[n], y[n])`` is the
    affine map of the 2s steps ending at n, applied to zero. log2(n)
    vectorized passes replace the n-step Python loop. Every partial product
    of ``a`` stays within [0, 1] when 0 <= a <= 1, so the scan is as
    stable as the loop; it only sums the terms in another order.
    """
    a = np.array(a, dtype=float)
    y = np.array(b, dtype=float)
    if a.ndim != 1 or a.shape != y.shape:
        raise ValueError(f"a and b must be 1-D of one length, got {a.shape} and {y.shape}")
    n = len(y)
    stride = 1
    while stride < n:
        y[stride:] += a[stride:] * y[:-stride]
        a[stride:] = a[stride:] * a[:-stride]
        stride *= 2
    return y


# the band-pass FFT covers the impulse response until it has decayed by this
_TAIL_DECAY = 1e-20


def butter_bandpass_zpk(
    order: int, band: tuple[float, float], rate: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Zeros, poles and gain of a digital Butterworth band-pass.

    The classic bilinear design, step for step: the analog prototype's
    poles on the left unit half-circle, band edges (as fractions of
    Nyquist) prewarped for the bilinear transform, the low-pass to
    band-pass transform, then the bilinear transform. Any order >= 1.
    """
    low, high = band
    if order < 1 or not 0 < low < high < rate / 2.0:
        raise ValueError(f"need order >= 1 and 0 < band < rate/2, got {order}, {band}, {rate}")
    # analog prototype: unit-circle poles, no zeros, unit gain
    proto = -np.exp(1j * np.pi * np.arange(-order + 1, order, 2) / (2 * order))
    # edges as fractions of Nyquist, prewarped at a normalized rate of 2
    fs2 = 4.0
    warped = fs2 * np.tan(np.pi * np.array([low, high]) / (rate / 2.0) / 2.0)
    bw = warped[1] - warped[0]
    wo = math.sqrt(warped[0] * warped[1])
    # low-pass to band-pass: each pole splits in two, order zeros at s = 0
    p_lp = proto * bw / 2.0
    shift = np.sqrt(p_lp**2 - wo**2)
    poles_s = np.concatenate((p_lp + shift, p_lp - shift))
    # bilinear transform: s = 0 maps to z = 1, s = infinity to z = -1
    poles = (fs2 + poles_s) / (fs2 - poles_s)
    zeros = np.concatenate((np.ones(order), -np.ones(order)))
    gain = float(bw**order * np.real(fs2**order / np.prod(fs2 - poles_s)))
    return zeros, poles, gain


def _fast_fft_length(n: int) -> int:
    """Smallest 2^i * 3^j * 5^k >= n."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@lru_cache(maxsize=16)
def bandpass_fft_length(order: int, band: tuple[float, float], rate: float, n: int) -> int:
    """FFT length that band-passes ``n`` samples without wrap-around.

    The FFT covers the n samples plus the impulse response's tail: the
    samples until the slowest pole has decayed by _TAIL_DECAY.
    """
    _, poles, _ = butter_bandpass_zpk(order, band, rate)
    tail = math.ceil(math.log(_TAIL_DECAY) / math.log(float(np.max(np.abs(poles)))))
    return _fast_fft_length(n + tail)


@lru_cache(maxsize=16)
def _bandpass_response(order: int, band: tuple[float, float], rate: float, nfft: int) -> np.ndarray:
    """The band-pass's frequency response on the rfft grid of length ``nfft``."""
    zeros, poles, gain = butter_bandpass_zpk(order, band, rate)
    z = np.exp(2j * np.pi * np.arange(nfft // 2 + 1) / nfft)
    response = np.full(len(z), gain, dtype=complex)
    for zero in zeros:
        response *= z - zero
    for pole in poles:
        response /= z - pole
    response.flags.writeable = False
    return response


def bandpass_padded(buffer: np.ndarray, order: int, band: tuple[float, float], rate: float) -> None:
    """Causal Butterworth band-pass of each row of ``buffer``, in place.

    ``buffer`` is a float64 array of shape ``(..., nfft)`` whose rows hold
    n samples followed by zeros, with ``nfft = bandpass_fft_length(order,
    band, rate, n)``. Its ``rfft`` is multiplied by the filter's frequency
    response and transformed back into ``buffer``; the first n samples of
    each row are then the filtered signal. The FFT holds the signal plus
    the impulse response's tail, so the circular convolution equals the
    causal time-domain filter (second-order sections started from zero
    state) to rounding.
    """
    nfft = buffer.shape[-1]
    spectrum = np.fft.rfft(buffer)
    spectrum *= _bandpass_response(order, (float(band[0]), float(band[1])), float(rate), nfft)
    np.fft.irfft(spectrum, nfft, out=buffer)


# -- CSV interchange -------------------------------------------------------


def write_csv(signal: SampledSignal, path) -> None:
    """Write one row per sample: a time column ``t`` followed by the channels.

    Floats are written with shortest round-trip formatting so a read-back
    reproduces the exact binary values (and output bytes are deterministic).
    """
    # tolist() yields Python floats, whose repr is the shortest round trip
    rows = np.column_stack([signal.times(), signal.data]).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(("t", *signal.channels)) + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def read_csv(path) -> SampledSignal:
    """Read a signal written by :func:`write_csv` (uniform time grid)."""
    with open(path, "r", newline="") as fh:
        header = fh.readline().strip()
        columns = header.split(",")
        if len(columns) < 2:
            raise ValueError(f"{path}: expected a time column plus channels")
        raw = np.loadtxt(fh, delimiter=",", ndmin=2)
    t = raw[:, 0]
    if len(t) < 2:
        raise ValueError(f"{path}: need at least two samples")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > _TIME_TOL * abs(dt[0]):
        raise ValueError(f"{path}: non-uniform time grid")
    rate = (len(t) - 1) / (t[-1] - t[0])
    return SampledSignal(
        sample_rate=float(rate),
        start_time=float(t[0]),
        channels=tuple(columns[1:]),
        data=raw[:, 1:],
    )
