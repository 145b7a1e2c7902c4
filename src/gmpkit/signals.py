"""Uniformly sampled multichannel signals.

The numerical substrate for the whole toolkit: slicing by time window,
trapezoidal quadrature of inner products, sliding-window RMS, the CSV
interchange format, and two filter kernels in plain numpy: a first-order
linear recurrence (the Maxwell branch and the AR(1) activation noise) and
Gaussian noise with a Butterworth band-pass's spectrum (the EMG noise),
drawn in single precision on an rfft grid by Box-Muller and taken back to
time in one float32 inverse FFT.

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
import threading
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

    def times(self) -> np.ndarray:
        return self.start_time + np.arange(self.n_samples) / self.sample_rate

    # -- operations -------------------------------------------------------

    def slice(self, w: Window) -> "SampledSignal":
        """Samples with timestamps inside [w.t_start, w.t_end].

        The window must lie within the signal span (up to a microsample of
        slack); the sample rate is preserved.
        """
        k_start, k_end = sample_range(self.n_samples, self.sample_rate, self.start_time, w)
        return SampledSignal(
            sample_rate=self.sample_rate,
            start_time=self.start_time + k_start / self.sample_rate,
            channels=self.channels,
            data=self.data[k_start : k_end + 1],
        )


def sample_range(n_samples: int, sample_rate: float, start_time: float, w: Window) -> tuple[int, int]:
    """First and last index of the samples inside ``w`` on a uniform grid.

    The grid is ``n_samples`` samples from ``start_time`` at
    ``sample_rate``; this is the arithmetic of :meth:`SampledSignal.slice`,
    which needs no signal. The window must lie within the grid's span (up
    to a microsample of slack) and hold at least one sample, or
    WindowRangeError.
    """
    end_time = start_time + (n_samples - 1) / sample_rate
    tol = _TIME_TOL / sample_rate
    if w.t_start < start_time - tol or w.t_end > end_time + tol:
        raise WindowRangeError(
            f"window [{w.t_start}, {w.t_end}] outside signal span "
            f"[{start_time}, {end_time}]"
        )
    k_start = math.ceil((w.t_start - start_time) * sample_rate - _TIME_TOL)
    k_end = math.floor((w.t_end - start_time) * sample_rate + _TIME_TOL)
    k_start = max(k_start, 0)
    k_end = min(k_end, n_samples - 1)
    if k_end < k_start:
        raise WindowRangeError(f"window [{w.t_start}, {w.t_end}] contains no samples")
    return k_start, k_end


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


def check_aligned(a: SampledSignal, b: SampledSignal) -> None:
    """AlignmentError unless ``a`` and ``b`` share rate, start time, length and channel count."""
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


def trapz_inner(a: SampledSignal, b: SampledSignal) -> float:
    """Trapezoidal integral of a(t)^T b(t) over the whole of two aligned signals.

    Channels are paired positionally and the channelwise products summed,
    so the integrand is the full vector inner product. With a force signal
    and a velocity signal this is the energy flowing through the port, in
    joules. Neither the alignment (:func:`check_aligned`) nor a window is
    checked: the caller slices both signals to one window itself.
    """
    integrand = np.einsum("ij,ij->i", a.data, b.data)
    return _trapz(integrand, 1.0 / a.sample_rate)


def rms_grid(n_samples: int, sample_rate: float, start_time: float,
             window_len: float, stride: float) -> tuple[int, int, float, float, int]:
    """The sample grid of :func:`rms` of an ``n_samples``-sample signal, without the signal.

    Returns the window and stride in whole samples, then the envelope's
    start time, rate and sample count: windows start every stride from
    sample 0, and each envelope sample is stamped at its window's centre.
    """
    if window_len <= 0 or stride <= 0:
        raise ValueError("window_len and stride must be > 0")
    n_win = max(1, round(window_len * sample_rate))
    n_stride = max(1, round(stride * sample_rate))
    if n_win > n_samples:
        raise WindowRangeError(
            f"RMS window of {n_win} samples longer than signal ({n_samples})"
        )
    first = start_time + (n_win - 1) / 2.0 / sample_rate
    return n_win, n_stride, first, sample_rate / n_stride, (n_samples - n_win) // n_stride + 1


def rms_range(n_samples: int, sample_rate: float, start_time: float,
              window_len: float, stride: float, w: Window) -> tuple[int, int, int, int]:
    """RMS window and stride in samples, and the first and last envelope sample that ``w`` reads.

    ``w`` is clipped to the support of the envelope (:func:`rms_grid`); one
    that overlaps it by no more than a point is a WindowRangeError.
    """
    n_win, n_stride, first, rate, n_env = rms_grid(n_samples, sample_rate, start_time, window_len, stride)
    last = first + (n_env - 1) / rate
    t_start, t_end = max(w.t_start, first), min(w.t_end, last)
    if not t_start < t_end:
        raise WindowRangeError(f"window [{w.t_start:g}, {w.t_end:g}] s misses the RMS envelope's "
                               f"support [{first:.4g}, {last:.4g}] s")
    k_start, k_end = sample_range(n_env, rate, first, Window(t_start, t_end))
    return n_win, n_stride, k_start, k_end


def window_rms(columns, n_win: int, starts: np.ndarray) -> np.ndarray:
    """RMS of each of ``columns`` over the ``n_win`` samples from each of ``starts``.

    ``columns`` are 1-D sample arrays of one length, strided views
    included; ``starts`` increase. Returns shape ``(len(starts),
    len(columns))``. The squares go straight into one ``(m + 1, k)``
    buffer, m the last sample a window covers, which then holds their
    running sums from sample 0: no other full-length temporaries, and a
    window's mean square is the same difference of running sums whichever
    windows are asked for.
    """
    n_used = int(starts[-1]) + n_win
    csum = np.empty((n_used + 1, len(columns)))
    csum[0] = 0.0
    for column, column_sums in zip(columns, csum[1:].T):
        np.square(column[:n_used], out=column_sums)
    np.cumsum(csum[1:], axis=0, out=csum[1:])
    return np.sqrt((csum[starts + n_win] - csum[starts]) / n_win)


def rms(signal: SampledSignal, window_len: float, stride: float) -> SampledSignal:
    """Sliding-window root-mean-square per channel.

    Windows of ``window_len`` seconds advance by ``stride`` seconds; both
    are snapped to whole samples. Output samples are stamped at window
    centres, so the output rate is ``sample_rate / round(stride * sample_rate)``
    (equal to 1/stride whenever the stride is a whole number of samples).
    See :func:`rms_grid` and :func:`window_rms`.
    """
    n_win, n_stride, first, rate, n_out = rms_grid(
        signal.n_samples, signal.sample_rate, signal.start_time, window_len, stride)
    starts = np.arange(n_out) * n_stride
    return SampledSignal(
        sample_rate=rate,
        start_time=first,
        channels=signal.channels,
        data=window_rms(signal.data.T, n_win, starts),
    )


# -- filter kernels --------------------------------------------------------


def first_order_recurrence(a, b) -> np.ndarray:
    """``y[n] = a[n] * y[n-1] + b[n]`` for all n, with ``y[-1] = 0``.

    A doubling scan: after the pass with stride s, ``(a[n], y[n])`` is the
    affine map of the 2s steps ending at n, applied to zero. log2(n)
    vectorized passes replace the n-step Python loop. Every partial product
    of ``a`` stays within [0, 1] when 0 <= a <= 1, so the scan is as
    stable as the loop; it only sums the terms in another order.

    A scalar ``a`` is a constant coefficient, as in an AR(1) filter. Every
    coefficient that a pass reads is then the same product, so the scan
    carries that one scalar, squared after each pass, in place of an
    array; the result has the bits of ``np.full(len(b), a)``. Neither
    input is written to.
    """
    y = np.array(b, dtype=float)
    constant = np.ndim(a) == 0
    a = float(a) if constant else np.array(a, dtype=float)
    if y.ndim != 1 or not (constant or a.shape == y.shape):
        raise ValueError(f"a and b must be 1-D of one length, got {np.shape(a)} and {y.shape}")
    n = len(y)
    stride = 1
    while stride < n:
        y[stride:] += (a if constant else a[stride:]) * y[:-stride]
        if 2 * stride < n:  # only a later pass reads the coefficients
            if constant:
                a = a * a
            else:
                a[stride:] = a[stride:] * a[:-stride]
        stride *= 2
    return y


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
def _bandpass_magnitude(order: int, band: tuple[float, float], rate: float, nfft: int) -> tuple[np.ndarray, np.ndarray]:
    """The magnitude response |H| of a digital Butterworth band-pass on the rfft grid of length ``nfft``, and
    the noise's spectral shape: |H| scaled for unit-variance samples, in float32. Both are read-only.

    The closed form of the bilinear design, any order >= 1: with ``W = tan(pi f / rate)`` at a
    frequency f, and ``W_lo``, ``W_hi`` at the band edges, ``|H| = 1 / sqrt(1 + x^(2 order))``
    where ``x = (W^2 - W_lo W_hi) / ((W_hi - W_lo) W)``. The DC and Nyquist bins are exactly
    zero, where the filter's zeros sit. The band power, the sum of |H|^2 over the bins, is a
    correctly rounded ``math.fsum``: no BLAS call, so no thread count can change its last bit.
    Raises ValueError when no bin between DC and Nyquist is left to carry the noise, as on a grid
    of one or two points.
    """
    low, high = band
    if order < 1 or not 0 < low < high < rate / 2.0:
        raise ValueError(f"need order >= 1 and 0 < band < rate/2, got {order}, {band}, {rate}")
    w_lo, w_hi = math.tan(math.pi * low / rate), math.tan(math.pi * high / rate)
    # only the bins strictly between DC and Nyquist: W = 0 at DC
    w = np.tan(np.pi * np.arange(1, (nfft + 1) // 2) / nfft)
    magnitude = np.zeros(nfft // 2 + 1)
    magnitude[1:len(w) + 1] = 1.0 / np.sqrt(1.0 + ((w * w - w_lo * w_hi) / ((w_hi - w_lo) * w)) ** (2 * order))
    magnitude.flags.writeable = False
    power = math.fsum(magnitude * magnitude)
    if not power > 0:
        raise ValueError(f"an rfft grid of {nfft} points at {rate} Hz has no frequency bin inside the band {band}")
    # E|X_k|^2 = 2 |H_k|^2 s^2 for a complex normal X_k of scale s, and a sample's variance
    # is 4 s^2 sum_k |H_k|^2 / nfft^2
    shape = (magnitude * (nfft / (2.0 * math.sqrt(power)))).astype(np.float32)
    shape.flags.writeable = False
    return magnitude, shape


_scratch = threading.local()


def _spectrum_scratch(rows: int, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """The calling thread's float32 ``(2, rows, bins)`` uniforms and complex64 ``(rows, bins)`` spectrum.

    Each thread keeps one flat buffer of each, grown to the largest shape
    it has drawn; a smaller shape is a view of the buffer's front. Drawing
    a trial's noise into the same memory every time, in place of about
    1 MB of fresh temporaries per call, keeps glibc from trimming the heap
    and faulting the pages back in on the next trial. A buffer that moved
    whenever the record length changed (an MVC recording between trials)
    put the trims back on about a third of start-up layouts. Neither array
    is ever handed to a caller.
    """
    size = rows * bins
    held = getattr(_scratch, "buffers", None)
    if held is None or held[1].size < size:
        held = _scratch.buffers = (np.empty(2 * size, dtype=np.float32), np.empty(size, dtype=np.complex64))
    return held[0][:2 * size].reshape(2, rows, bins), held[1][:size].reshape(rows, bins)


def bandpass_noise(rng: np.random.Generator, rows: int, n: int, order: int, band: tuple[float, float],
                   rate: float) -> np.ndarray:
    """``rows`` channels of unit-variance Gaussian noise through a Butterworth band-pass, drawn as a spectrum.

    Returns a float32 ``(rows, nfft)`` array, ``nfft = _fast_fft_length(n)``, whose first ``n``
    samples per row are the noise; the array is new, and the caller owns it. Each bin of one
    complex64 rfft grid is a complex normal drawn by Box-Muller from two float32 uniforms, ``u1``
    for every bin of every row and then ``u2``: radius ``sqrt(-2 log1p(-u1))`` times the filter's
    magnitude, scaled in closed form (Parseval) so that each sample has unit variance, at phase
    ``2 pi u2``. The uniforms and the spectrum live in the calling thread's scratch
    (:func:`_spectrum_scratch`). One float32 ``irfft`` takes the rows back to time; float32's
    24-bit significand leaves 8 bits below a 16-bit code. The noise is circular and stationary: it
    has no start-up transient. Raises ValueError when no bin between DC and Nyquist is left to
    carry the noise, as for one or two samples.
    """
    nfft = _fast_fft_length(n)
    _, shape = _bandpass_magnitude(order, (float(band[0]), float(band[1])), float(rate), nfft)
    uniforms, spectrum = _spectrum_scratch(rows, len(shape))
    rng.random(dtype=np.float32, out=uniforms)
    radius, phase = uniforms
    np.negative(radius, out=radius)
    np.log1p(radius, out=radius)  # finite, since u1 < 1
    radius *= -2.0
    np.sqrt(radius, out=radius)
    radius *= shape
    phase *= 2.0 * math.pi  # a Python float: the product stays float32
    np.cos(phase, out=spectrum.real)
    spectrum.real *= radius
    np.sin(phase, out=spectrum.imag)
    spectrum.imag *= radius
    return np.fft.irfft(spectrum, nfft)


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
