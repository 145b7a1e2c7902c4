"""Surface-EMG synthesis, MVC calibration, and %MVC envelopes.

Four channels model four forearm muscles; two of them (palmaris longus and
extensor digitorum, the channels most sensitive to grip co-activation)
drive the pooled %MVC readout used as the activation axis of the maps.

%MVC is the sliding-window RMS of the raw EMG normalized by the RMS
recorded at maximum voluntary contraction. Envelope window and stride
are the ``[emg]`` settings; their defaults, 0.25 s / 0.05 s, are standard
surface-EMG practice.

The raw EMG is white noise through a causal 4th-order Butterworth
band-pass (20-450 Hz), computed with numpy alone: the filter is designed
as zeros, poles and gain and applied as a frequency response to an FFT
that also covers the filter's impulse-response tail. The noise is drawn
into a zero-padded buffer and filtered there in place
(:func:`signals.bandpass_padded`); the filtered rows are rescaled in place
and then written once into the output, whose samples are rounded to
float32, column by column. The array stays float64, but its values have
the resolution of the trial store's float32 EMG (and still far more than
a 16-bit EMG digitizer), so a stored and reloaded trial is bit-identical
to the simulated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateSampleError
from .signals import SampledSignal, Window, bandpass_fft_length, bandpass_padded, rms

EMG_RATE = 2148.0  # Hz

# channels shown on the myo-feedback bars and pooled into one %MVC scalar:
# extensor digitorum (emg1) and palmaris longus (emg3)
FEEDBACK_CHANNELS = (0, 2)

BAND_HZ = (20.0, 450.0)
BAND_ORDER = 4
RMS_WINDOW_S = 0.25
RMS_STRIDE_S = 0.05

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


def synthesize_emg(
    activation: SampledSignal,
    mvc_rms: Sequence[float],
    seed,
    rate: float = EMG_RATE,
) -> SampledSignal:
    """Raw EMG whose RMS envelope tracks activation * mvc_rms.

    Each channel is band-passed white noise (4th-order Butterworth,
    20-450 Hz) rescaled to unit variance and amplitude-modulated by the
    activation trajectory, so the windowed RMS equals
    ``activation * mvc_rms`` in expectation. The activation signal may be
    at any rate; it is interpolated onto the output grid. A single
    activation channel drives all EMG channels (co-activation).

    The noise is drawn channel after channel from one stream, straight into
    the rows of one zero-padded buffer, and filtered causally from rest in
    place, in one batched FFT (:func:`signals.bandpass_padded`). The
    samples are float64 values of float32 resolution: each output column is
    rounded to float32 once, at the end, as the trial store keeps it.
    """
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    rng = np.random.default_rng(seed_seq)
    n_channels = len(mvc_rms)
    n_out = round(activation.duration * rate) + 1
    t_out = activation.start_time + np.arange(n_out) / rate
    t_act = activation.times()

    buffer = np.empty((n_channels, bandpass_fft_length(BAND_ORDER, BAND_HZ, float(rate), n_out)))
    for row in buffer:
        rng.standard_normal(out=row[:n_out])
    buffer[:, n_out:] = 0.0
    bandpass_padded(buffer, BAND_ORDER, BAND_HZ, rate)
    noise = buffer[:, :n_out]
    std = noise.std(axis=1)
    drives = [np.interp(t_out, t_act, col) for col in activation.data.T]
    out = np.empty((n_out, n_channels))
    rounded = np.empty(n_out, np.float32)
    for ch in range(n_channels):
        if std[ch] > 0:
            noise[ch] /= std[ch]
        column = out[:, ch]
        np.multiply(drives[min(ch, len(drives) - 1)], mvc_rms[ch], out=column)
        np.multiply(column, noise[ch], out=rounded)  # the float64 product, rounded once
        column[...] = rounded
    out.flags.writeable = False  # the signal takes it over without a copy
    return SampledSignal(
        sample_rate=rate,
        start_time=activation.start_time,
        channels=channel_labels(n_channels),
        data=out,
    )


def estimate_mvc(
    recordings: Sequence[SampledSignal],
    window_len: float = RMS_WINDOW_S,
    stride: float = RMS_STRIDE_S,
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


def _check_calibration(emg: SampledSignal, cal: MvcCalibration) -> None:
    if emg.n_channels != len(cal.mvc_rms):
        raise ValueError(
            f"calibration covers {len(cal.mvc_rms)} channels, EMG has {emg.n_channels}"
        )


def pct_mvc_envelope(
    emg: SampledSignal,
    cal: MvcCalibration,
    window_len: float = RMS_WINDOW_S,
    stride: float = RMS_STRIDE_S,
) -> SampledSignal:
    """Normalized RMS envelope: fraction of MVC per channel over time (may exceed 1)."""
    _check_calibration(emg, cal)
    env = rms(emg, window_len, stride)
    return SampledSignal(
        sample_rate=env.sample_rate,
        start_time=env.start_time,
        channels=env.channels,
        data=env.data / np.asarray(cal.mvc_rms),
    )


def pct_mvc(
    emg: SampledSignal,
    cal: MvcCalibration,
    w: Window,
    feedback_channels: tuple[int, ...] = FEEDBACK_CHANNELS,
    window_len: float = RMS_WINDOW_S,
    stride: float = RMS_STRIDE_S,
) -> float:
    """Mean %MVC over ``w``, pooled over the feedback channels.

    Only the feedback channels' envelopes are computed. The envelope is
    stamped at window centres, so its support is half an RMS window short
    of the raw EMG span at both ends; ``w`` is clipped to that support (a
    window fully outside it is a range error).
    """
    _check_calibration(emg, cal)
    columns = list(feedback_channels)
    data = emg.data[:, columns]
    data.flags.writeable = False  # the signal takes it over without a copy
    feedback = SampledSignal(emg.sample_rate, emg.start_time,
                             tuple(emg.channels[ch] for ch in columns), data)
    series = pct_mvc_envelope(feedback, MvcCalibration(tuple(cal.mvc_rms[ch] for ch in columns)),
                              window_len, stride)
    span = series.span()
    clipped = Window(max(w.t_start, span.t_start), min(w.t_end, span.t_end))
    fractions = series.slice(clipped).data
    # Each channel summed in sample order: numpy sums the columns of a
    # four-channel array that way but may sum a narrower one's pairwise, so
    # this keeps the bits of the mean over the all-channel envelope.
    means = np.cumsum(fractions, axis=0)[-1] / len(fractions)
    return float(np.mean(means))
