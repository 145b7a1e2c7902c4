"""Surface-EMG synthesis, MVC calibration, and the %MVC readout.

Four channels model four forearm muscles; two of them (palmaris longus and
extensor digitorum, the channels most sensitive to grip co-activation)
drive the pooled %MVC readout used as the activation axis of the maps.

%MVC is the sliding-window RMS of the raw EMG normalized by the RMS
recorded at maximum voluntary contraction. Envelope window and stride
are the ``[emg]`` settings, taken from the caller; their config defaults,
0.25 s / 0.05 s, are standard surface-EMG practice.

The raw EMG is Gaussian noise with the spectrum of white noise through a
4th-order Butterworth band-pass (20-450 Hz), computed with numpy alone:
the filter's magnitude response, in closed form, shapes complex normals
drawn by Box-Muller on an rfft grid in single precision, which one float32
inverse FFT turns into unit-variance noise (:func:`signals.bandpass_noise`).

The EMG is digitized as a 16-bit surface-EMG system does it: each sample
is a whole number of codes of ``EMG_LSB_MV`` (2^-11 mV, 0.49 uV), rounded
to the nearest code and saturated at the int16 rails, -16 mV and just
under +16 mV (:func:`round_to_codes`). float32 is enough for that: its
24-bit significand keeps 8 bits below a code at full scale, and every
int16 code is exact in it. The codes are computed in float32; the
synthesized array is float64 mV on that grid, written once from them, and
the trial store keeps the codes as int16. The step is a power of two, so
a code times it and a value divided by it are exact in float64: a stored
and reloaded trial is bit-identical to the simulated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DegenerateSampleError
from .signals import SampledSignal, Window, bandpass_noise, rms, rms_range, window_rms

EMG_RATE = 2148.0  # Hz

# channels shown on the myo-feedback bars and pooled into one %MVC scalar:
# extensor digitorum (emg1) and palmaris longus (emg3)
FEEDBACK_CHANNELS = (0, 2)

BAND_HZ = (20.0, 450.0)
BAND_ORDER = 4
RMS_WINDOW_S = 0.25
RMS_STRIDE_S = 0.05

# mV per digitizer code
EMG_LSB_MV = 2.0 ** -11
# the rails of every stored int16 code, in codes
CODE_RAILS = (-2.0 ** 15, 2.0 ** 15 - 1.0)

MVC_DURATION_S = 3.0  # s, each maximum-effort calibration recording
MVC_RISE_S = 0.2      # s, time constant of its first-order rise to full effort


def channel_labels(n_channels: int) -> tuple[str, ...]:
    """Labels of the first ``n_channels`` EMG channels: emg1, emg2, ..."""
    return tuple(f"emg{i + 1}" for i in range(n_channels))


@dataclass(frozen=True)
class MvcCalibration:
    """Per-channel maximum-voluntary-contraction RMS levels, in mV."""

    mvc_rms: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(not v > 0 for v in self.mvc_rms):
            raise ValueError(f"mvc_rms must be > 0 per channel, got {self.mvc_rms}")


def round_to_codes(codes: np.ndarray) -> np.ndarray:
    """Round ``codes``, samples in units of their code step, in place to whole int16 codes; returns it.

    Each value goes to the nearest code (half to even) and saturates at the
    int16 rails, so it never wraps. A negative value that rounds to zero
    stays -0.0.
    """
    np.rint(codes, out=codes)
    return np.clip(codes, *CODE_RAILS, out=codes)


@lru_cache(maxsize=4)
def _time_grids(start_time: float, n_act: int, act_rate: float, n_out: int,
                rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Sample times of the EMG grid and of its activation signal, as :func:`synthesize_emg` reads them.

    They depend on the grids alone, so all trials of one protocol share
    them. The arrays are read-only, since every cached caller sees them.
    """
    t_out = start_time + np.arange(n_out) / rate
    t_act = start_time + np.arange(n_act) / act_rate
    for array in (t_out, t_act):
        array.flags.writeable = False
    return t_out, t_act


def synthesize_emg(
    activation: SampledSignal,
    mvc_rms: Sequence[float],
    seed,
    rate: float,
) -> SampledSignal:
    """Raw EMG whose RMS envelope tracks activation * mvc_rms.

    Each channel is unit-variance band-limited noise (the spectrum of a
    4th-order Butterworth band-pass, 20-450 Hz) amplitude-modulated by the
    activation trajectory, so the windowed RMS equals
    ``activation * mvc_rms`` in expectation. The activation signal may be
    at any rate; it is interpolated onto the output grid, whose times and
    the activation's are cached per grid (:func:`_time_grids`). A single
    activation channel drives all EMG channels (co-activation).

    The noise is drawn as one float32 spectrum for all channels and
    transformed back in one batched float32 inverse FFT
    (:func:`signals.bandpass_noise`). Each channel's
    ``drive * mvc_rms * noise``, in codes, is scaled in float32 (the drive
    product through one float64 and one float32 scratch row), rounded
    once to a whole code and saturated at the rails (:func:`round_to_codes`),
    as the trial store keeps it. The codes times ``EMG_LSB_MV`` are then
    written once into a float64 ``(channels, n)`` buffer: the signal's
    ``(n, channels)`` samples are float64 mV on the digitizer's grid, the
    transposed view of that buffer, channel-major as the trial store lays
    them out.
    """
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(seed_seq)
    n_channels = len(mvc_rms)
    n_out = round(activation.duration * rate) + 1
    t_out, t_act = _time_grids(activation.start_time, activation.n_samples, activation.sample_rate, n_out, rate)

    codes = bandpass_noise(rng, n_channels, n_out, BAND_ORDER, BAND_HZ, rate)[:, :n_out]
    drives = [np.interp(t_out, t_act, col) for col in activation.data.T]
    scaled, scaled32 = np.empty(n_out), np.empty(n_out, dtype=np.float32)
    for ch, row in enumerate(codes):
        # drive * mvc_rms * noise in codes; dividing by the power-of-two step is exact
        np.multiply(drives[min(ch, len(drives) - 1)], mvc_rms[ch] / EMG_LSB_MV, out=scaled)
        np.copyto(scaled32, scaled, casting="same_kind")
        row *= scaled32
    round_to_codes(codes)
    codes += 0.0  # a zero code reads back as +0.0, so -0.0 goes
    data = np.multiply(codes, EMG_LSB_MV, dtype=np.float64)  # exact: a whole code times a power of two
    data.flags.writeable = False  # the signal takes the rows over without a copy
    return SampledSignal(
        sample_rate=rate,
        start_time=activation.start_time,
        channels=channel_labels(n_channels),
        data=data.T,  # a view made after the freeze, so it is read-only too
    )


def estimate_mvc(
    recordings: Sequence[SampledSignal],
    window_len: float,
    stride: float,
) -> MvcCalibration:
    """Per-channel maximum sliding-RMS across all repetitions."""
    if len(recordings) == 0:
        raise DegenerateSampleError("estimate_mvc needs at least one recording")
    n_channels = recordings[0].n_channels
    peak = np.zeros(n_channels)
    for rec in recordings:
        if rec.n_channels != n_channels:
            raise ValueError("recordings have inconsistent channel counts")
        env = rms(rec, window_len, stride)
        peak = np.maximum(peak, env.data.max(axis=0))
    if np.any(peak <= 0):
        raise DegenerateSampleError("a channel recorded no activity during MVC")
    return MvcCalibration(mvc_rms=tuple(float(p) for p in peak))


def pct_mvc(
    emg: SampledSignal,
    cal: MvcCalibration,
    w: Window,
    feedback_channels: tuple[int, ...],
    window_len: float,
    stride: float,
) -> float:
    """Mean %MVC over ``w``, pooled over the feedback channels.

    ``w`` reads the envelope samples that :func:`signals.rms_range` gives:
    those inside ``w`` clipped to the envelope's support, a range error
    when ``w`` misses it. Only those samples are computed, and only from
    the feedback channels. They equal, bit for bit, the samples there of
    each channel's :func:`signals.rms` envelope divided by its MVC level,
    since both come from :func:`signals.window_rms` on the grid of
    :func:`signals.rms_grid`.
    """
    if emg.n_channels != len(cal.mvc_rms):
        raise ValueError(
            f"calibration covers {len(cal.mvc_rms)} channels, EMG has {emg.n_channels}"
        )
    n_win, n_stride, k_start, k_end = rms_range(emg.n_samples, emg.sample_rate, emg.start_time,
                                                window_len, stride, w)
    # only the envelope samples inside the window, each from the feedback columns as they lie
    envelope = window_rms([emg.data[:, ch] for ch in feedback_channels], n_win,
                          np.arange(k_start, k_end + 1) * n_stride)
    fractions = envelope / np.array([cal.mvc_rms[ch] for ch in feedback_channels])
    # Each channel summed in sample order: numpy sums the columns of a
    # four-channel array that way but may sum a narrower one's pairwise, so
    # this keeps the bits of the mean over the all-channel envelope.
    means = np.cumsum(fractions, axis=0)[-1] / len(fractions)
    return float(np.mean(means))
