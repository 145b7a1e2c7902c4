"""Synthetic subject generator.

A direction-, activation-, and frequency-dependent nonlinear limb model
driven by a sinusoidal motion-source perturbation, standing in for human
subjects holding a planar robot handle.

Limb model
----------
The handle position is prescribed along a unit direction d_i:

    x(t) = A * e(t) * sin(2*pi*f*t) * d_i

where ``e(t)`` is a one-period sin^2 ramp-up envelope so the record starts
from rest (a hard cosine velocity start would hide an impulsive energy
injection from the measured port and break pathwise energy accounting).
The reaction force along the axis is

    f = m*dv/dt + g_i*b0*v + k*x + f_m

with a Maxwell branch (spring k_m in series with an activation-dependent
damper) carrying force f_m:

    df_m/dt = k_m * (v - f_m / (g_i * (c0 + c1*a(t))))

``g_i`` is a per-direction damping gain and ``a(t)`` the muscle activation
(fraction of maximum voluntary contraction), which follows a first-order
lag to its target with multiplicative band-limited tracking noise.

At steady state under a sinusoid of angular frequency w = 2*pi*f the net
work per unit velocity energy (the excess of passivity of the model) is

    xi = g_i*b0 + g_i*b_m / (1 + (g_i*b_m*w/k_m)^2),   b_m = c0 + c1*a,

which rises with activation (while g_i*b_m*w < k_m) and falls with
frequency. :func:`analytic_eop` exposes this closed form as the test
oracle for the full simulation pipeline.

The module also defines the protocol grid, once: ``N_DIRECTIONS`` spokes,
``ACTIVATION_LABELS``, ``FREQUENCY_LABELS`` and the ordered ``TESTS``
table (LR, LS, HR, HS). Config, study and GMP maps derive their labels,
codes and orders from it; :func:`check_cell` refuses a cell outside it.
A trial's direction is its spec's, and its labels are assigned by the
caller's protocol, never guessed from its activation target or frequency.

The prescribed kinematics depend on the perturbation alone, so the trials
at one frequency share one read-only copy of them (:func:`_axis_kinematics`).
Everything is deterministic given (params, spec, activation, seed);
independent trials can run in parallel and share no mutable state.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import emg as emg_module
from .errors import ConfigError, DataError, IntegrationError
from .signals import SampledSignal, check_aligned, first_order_recurrence

N_DIRECTIONS = 8

# smooth ellipse-like anisotropy profile, 1 + 0.3*cos(2*theta_i)
DEFAULT_DIRECTION_GAINS = (1.3, 1.0, 0.7, 1.0, 1.3, 1.0, 0.7, 1.0)

# per-muscle "true" maximum-contraction RMS levels, mV
DEFAULT_MVC_RMS_MV = (1.6, 1.1, 1.8, 1.3)

# the protocol grid (see the module docstring); frequency labels go lower Hz first
ACTIVATION_LABELS = ("relaxed", "stiff")
FREQUENCY_LABELS = ("low", "high")
# the study's tests, in report order: (code, activation label, frequency label)
TESTS = (("LR", "relaxed", "low"), ("LS", "stiff", "low"), ("HR", "relaxed", "high"), ("HS", "stiff", "high"))

_RISE_TIME_S = 0.5        # s, the activation's first-order lag to its target
_TRACKING_NOISE = 0.02    # std-dev fraction of its multiplicative tracking noise
_NOISE_CORR_TIME = 0.2    # s, that noise's correlation time

ROBOT_RATE = 1000.0  # Hz
# the fixed integration step needs at least this many samples per perturbation period
MIN_SAMPLES_PER_PERIOD = 20.0
ROBOT_CHANNELS = ("fx", "fy", "vx", "vy")  # force, then velocity
# their code steps, as a 16-bit force/encoder DAQ stores them: 2^-6 N and
# 2^-12 m/s, so the rails (emg.CODE_RAILS codes) are -512 N to just under
# +512 N and -8 m/s to just under +8 m/s
ROBOT_LSB = (2.0 ** -6, 2.0 ** -6, 2.0 ** -12, 2.0 ** -12)


@dataclass(frozen=True)
class LimbParams:
    """Parameters of the synthetic limb.

    Units: mass kg; damping N*s/m; stiffness N/m. ``direction_gains`` holds
    one positive multiplier per cardinal direction, applied to both damping
    terms (base and Maxwell).
    """

    mass: float = 2.0
    base_damping: float = 8.0          # b0
    stiffness: float = 200.0           # k
    maxwell_stiffness: float = 850.0   # k_m
    maxwell_damping_base: float = 13.0  # c0
    maxwell_damping_gain: float = 20.0  # c1, per unit activation
    direction_gains: tuple[float, ...] = DEFAULT_DIRECTION_GAINS

    def __post_init__(self) -> None:
        for name in ("mass", "base_damping", "stiffness", "maxwell_stiffness"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        # zero disables the Maxwell branch (pure Kelvin-Voigt limb)
        for name in ("maxwell_damping_base", "maxwell_damping_gain"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        gains = tuple(float(g) for g in self.direction_gains)
        if len(gains) != N_DIRECTIONS:
            raise ConfigError(f"direction_gains needs {N_DIRECTIONS} entries, got {len(gains)}")
        if not all(0 < g < math.inf for g in gains):
            raise ConfigError(f"direction_gains must be finite and > 0, got {gains}")
        object.__setattr__(self, "direction_gains", gains)


@dataclass(frozen=True)
class PerturbationSpec:
    """One sinusoidal perturbation run along a cardinal direction."""

    frequency: float            # Hz
    amplitude: float            # m
    direction_index: int        # the spoke, 0 .. N_DIRECTIONS - 1
    duration: float             # s

    def __post_init__(self) -> None:
        if not 0 < self.frequency < math.inf:
            raise ValueError(f"frequency must be finite and > 0, got {self.frequency}")
        if not 0 <= self.amplitude < math.inf:
            raise ValueError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0 < self.duration < math.inf:
            raise ValueError(f"duration must be finite and > 0, got {self.duration}")
        if not 0 <= self.direction_index < N_DIRECTIONS:
            raise ValueError(f"direction_index out of range: {self.direction_index}")


@dataclass(frozen=True)
class ActivationProfile:
    """Target muscle co-activation as a fraction of MVC."""

    target_pct_mvc: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.target_pct_mvc <= 1.0:
            raise ValueError(f"target_pct_mvc must be in [0, 1], got {self.target_pct_mvc}")


@dataclass(frozen=True)
class TrialRecord:
    """One perturbation run: its cell's labels (the direction is the spec's) and the recorded signals.

    Force and velocity share rate, start time, length and channel count (:func:`signals.check_aligned`).
    """

    activation_label: str
    frequency_label: str
    force: SampledSignal      # 2 channels fx, fy (N)
    velocity: SampledSignal   # 2 channels vx, vy (m/s)
    emg: SampledSignal        # 4 channels (mV), at its own rate
    spec: PerturbationSpec
    subject_id: str

    def __post_init__(self) -> None:
        check_aligned(self.force, self.velocity)
        check_cell(self.spec.direction_index, self.activation_label, self.frequency_label)


@dataclass(frozen=True)
class Subject:
    subject_id: str
    params: LimbParams
    mvc_rms: tuple[float, ...]


def check_cell(direction_index: int, activation_label: str, frequency_label: str) -> None:
    """Raise ValueError unless the three name a cell of the protocol grid."""
    if not 0 <= direction_index < N_DIRECTIONS:
        raise ValueError(f"direction_index out of range: {direction_index}")
    if activation_label not in ACTIVATION_LABELS:
        raise ValueError(f"unknown activation label {activation_label!r}")
    if frequency_label not in FREQUENCY_LABELS:
        raise ValueError(f"unknown frequency label {frequency_label!r}")


def check_step_rate(rate: float, frequency: float) -> None:
    """IntegrationError unless a step of ``1/rate`` s leaves MIN_SAMPLES_PER_PERIOD in a ``frequency`` Hz period."""
    if rate < MIN_SAMPLES_PER_PERIOD * frequency:
        raise IntegrationError(f"rate {rate} Hz too low for {frequency} Hz perturbation: "
                               f"need >= {MIN_SAMPLES_PER_PERIOD * frequency} Hz (integration step too large)")


def perturbation_direction(direction_index: int) -> np.ndarray:
    """Unit 2-vector of spoke ``i``: (cos, sin) of i/N_DIRECTIONS of a turn."""
    if not 0 <= direction_index < N_DIRECTIONS:
        raise ValueError(f"direction_index out of range: {direction_index}")
    angle = 2.0 * math.pi * direction_index / N_DIRECTIONS
    return np.array([math.cos(angle), math.sin(angle)])


def analytic_eop(
    params: LimbParams, direction_index: int, activation: float, frequency: float
) -> float:
    """Closed-form steady-state excess of passivity of the limb model.

    Serves as the independent oracle for the time-domain pipeline: over
    integer periods the inertia and spring terms do no net work, so the
    force/velocity energy ratio reduces to the dissipative part of the
    admittance.
    """
    g = params.direction_gains[direction_index]
    b_m = params.maxwell_damping_base + params.maxwell_damping_gain * activation
    if b_m <= 0:
        return g * params.base_damping
    omega = 2.0 * math.pi * frequency
    maxwell = g * b_m / (1.0 + (g * b_m * omega / params.maxwell_stiffness) ** 2)
    return g * params.base_damping + maxwell


def activation_series(
    act: ActivationProfile, n_samples: int, dt: float, rng: np.random.Generator
) -> np.ndarray:
    """Activation trajectory: exact exponential lag plus AR(1) noise.

    The lag solution is evaluated in closed form (not stepped), and the
    multiplicative noise is an AR(1) process with ~0.2 s correlation time
    (unit stationary variance, started at zero, evaluated by
    :func:`signals.first_order_recurrence`), so the series is
    step-size-consistent and replayable. A zero target draws no noise.
    """
    t = np.arange(n_samples) * dt
    mean = act.target_pct_mvc * (1.0 - np.exp(-t / _RISE_TIME_S))
    if act.target_pct_mvc > 0:
        rho = math.exp(-dt / _NOISE_CORR_TIME)
        eps = rng.standard_normal(n_samples)
        w = first_order_recurrence(np.full(n_samples, rho), math.sqrt(1.0 - rho * rho) * eps)
        mean = mean * (1.0 + _TRACKING_NOISE * w)
    return np.clip(mean, 0.0, 1.0)


def _ramp_envelope(t: np.ndarray, frequency: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """sin^2 amplitude ramp over the first period; returns (e, e', e'').

    ``t`` is increasing, so the ramp is a prefix: sin and cos are evaluated
    there only, and the rest holds the settled values 1, 0, 0.
    """
    n_ramp = int(np.searchsorted(t, 1.0 / frequency))  # samples with t < 1/f
    u = math.pi * frequency * t[:n_ramp]
    e, de, dde = np.ones(len(t)), np.zeros(len(t)), np.zeros(len(t))
    e[:n_ramp] = np.sin(u / 2.0) ** 2
    de[:n_ramp] = 0.5 * math.pi * frequency * np.sin(u)
    dde[:n_ramp] = 0.5 * (math.pi * frequency) ** 2 * np.cos(u)
    return e, de, dde


@lru_cache(maxsize=2)
def _axis_kinematics(
    frequency: float, amplitude: float, n_samples: int, rate: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Prescribed position, velocity and acceleration along the perturbation axis.

    They depend on the perturbation alone, so all trials at one frequency
    share them (the last two stay cached, one per protocol frequency). The
    arrays are read-only, since every cached caller sees them.
    """
    t = np.arange(n_samples) * (1.0 / rate)
    omega = 2.0 * math.pi * frequency
    e, de, dde = _ramp_envelope(t, frequency)
    s, c = np.sin(omega * t), np.cos(omega * t)
    x_ax = amplitude * e * s
    v_ax = amplitude * (de * s + e * omega * c)
    acc_ax = amplitude * (dde * s + 2.0 * de * omega * c - e * omega * omega * s)
    for array in (x_ax, v_ax, acc_ax):
        array.flags.writeable = False
    return x_ax, v_ax, acc_ax


def simulate_trial(
    params: LimbParams,
    spec: PerturbationSpec,
    act: ActivationProfile,
    seed,
    rate: float,
    mvc_rms: tuple[float, ...],
    emg_rate: float,
    subject_id: str,
    *,
    activation_label: str,
    frequency_label: str,
) -> TrialRecord:
    """Integrate one perturbation trial and synthesize its EMG.

    The prescribed kinematics are evaluated analytically, once per
    perturbation (:func:`_axis_kinematics`); only the Maxwell branch force
    is stepped, with a fixed-step implicit (unconditionally stable) update,
    and the activation lag uses its exact exponential solution. The
    implicit update is linear in the branch force, so the whole trajectory
    is one first-order recurrence, evaluated by the doubling scan of
    :func:`signals.first_order_recurrence` rather than a per-sample loop.
    The integration runs in float64; only the recorded force and velocity
    are rounded, to whole int16 codes of ``ROBOT_LSB``, as the trial store
    keeps them (and as :func:`emg.synthesize_emg` rounds the EMG), so a
    stored trial reads back bit for bit. A recorded sample beyond a rail of
    its codes (+/-512 N, +/-8 m/s) raises IntegrationError naming the
    channel, its peak and the rails: clipping it would bias the estimate.
    ``seed`` may be an int or a numpy SeedSequence. The
    trial's grid cell is named by ``activation_label`` and
    ``frequency_label``, which the caller's protocol assigns; nothing here
    infers them from the target or the frequency.
    """
    check_step_rate(rate, spec.frequency)
    seed_seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    act_seq, emg_seq = seed_seq.spawn(2)

    h = 1.0 / rate
    n_samples = round(spec.duration * rate) + 1
    x_ax, v_ax, acc_ax = _axis_kinematics(spec.frequency, spec.amplitude, n_samples, rate)

    a = activation_series(act, n_samples, h, np.random.default_rng(act_seq))
    a.flags.writeable = False  # the activation signal below shares it
    g = params.direction_gains[spec.direction_index]
    b_m = g * (params.maxwell_damping_base + params.maxwell_damping_gain * a)
    f_m = np.zeros(n_samples)
    if np.max(b_m) > 1e-12:
        k_m = params.maxwell_stiffness
        # implicit step f[n] = (f[n-1] + h*k_m*v[n]) / (1 + h*k_m/b_m[n]),
        # from f[0] = 0, as one linear recurrence
        decay = 1.0 / (1.0 + h * k_m / np.maximum(b_m, 1e-12))
        drive = h * k_m * v_ax * decay
        decay[0] = drive[0] = 0.0
        f_m = first_order_recurrence(decay, drive)
    f_ax = params.mass * acc_ax + g * params.base_damping * v_ax + params.stiffness * x_ax + f_m
    if not np.all(np.isfinite(f_ax)):
        raise IntegrationError("non-finite force trajectory; unstable parameterization")

    # The recorded fx, fy, vx, vy: each the float64 projection onto the
    # direction in codes of its step (a power of two, so folding it into the
    # weight is exact), rounded to whole codes in place, as the trial store
    # keeps them. Read-only, so the signals share the array.
    dx, dy = perturbation_direction(spec.direction_index)
    recorded = np.empty((n_samples, len(ROBOT_CHANNELS)))
    for column, axis, weight, step in zip(recorded.T, (f_ax, f_ax, v_ax, v_ax), (dx, dy, dx, dy), ROBOT_LSB):
        np.multiply(axis, weight / step, out=column)
    np.rint(recorded, out=recorded)
    low, high = emg_module.CODE_RAILS
    # one reduction over the whole array; the per-channel ones (numpy reduces
    # a column of an (n, 4) array slowly) only to word the refusal
    if recorded.min() < low or recorded.max() > high:
        for name, unit, step, column in zip(ROBOT_CHANNELS, ("N", "N", "m/s", "m/s"), ROBOT_LSB, recorded.T):
            least, most = column.min(), column.max()
            if least < low or most > high:
                raise IntegrationError(
                    f"recorded {name} reaches {(least if least < low else most) * step:g} {unit}, beyond the "
                    f"rails of its 16-bit codes, {low * step:g} to {high * step:g} {unit}")
    for column, step in zip(recorded.T, ROBOT_LSB):
        column *= step
    recorded += 0.0  # a zero code reads back as +0.0, so -0.0 goes
    recorded.flags.writeable = False
    force = SampledSignal(rate, 0.0, ROBOT_CHANNELS[:2], recorded[:, :2])
    velocity = SampledSignal(rate, 0.0, ROBOT_CHANNELS[2:], recorded[:, 2:])

    activation_signal = SampledSignal(rate, 0.0, ("a",), a)
    emg = emg_module.synthesize_emg(activation_signal, mvc_rms, emg_seq, rate=emg_rate)

    return TrialRecord(
        activation_label=activation_label, frequency_label=frequency_label,
        force=force,
        velocity=velocity,
        emg=emg,
        spec=spec,
        subject_id=subject_id,
    )


# the limb scalars that make_cohort jitters, in the order it draws their factors
JITTERED_PARAMS = ("mass", "base_damping", "stiffness", "maxwell_stiffness",
                   "maxwell_damping_base", "maxwell_damping_gain")


def make_cohort(n_subjects: int, jitter: float, seed: int, base: LimbParams) -> list[Subject]:
    """Synthetic cohort: jitter the scalar limb parameters by +/- ``jitter``.

    The direction-gain profile is shared by all subjects so the anisotropy
    stays a smooth ellipse; per-subject variation enters through the six
    scalars and the per-muscle MVC levels.
    """
    subjects = []
    for idx in range(n_subjects):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1000 + idx)))
        factors = 1.0 + jitter * rng.uniform(-1.0, 1.0, size=len(JITTERED_PARAMS))
        params = replace(base, **{name: getattr(base, name) * f for name, f in zip(JITTERED_PARAMS, factors)})
        mvc_factors = 1.0 + jitter * rng.uniform(-1.0, 1.0, size=len(DEFAULT_MVC_RMS_MV))
        mvc = tuple(m * f for m, f in zip(DEFAULT_MVC_RMS_MV, mvc_factors))
        subjects.append(Subject(subject_id=cohort_subject_id(idx), params=params, mvc_rms=mvc))
    return subjects


def cohort_subject_id(idx: int) -> str:
    """The id of subject ``idx`` (from 0) of a cohort: S1, S2, ..."""
    return f"S{idx + 1}"


# -- trial store -------------------------------------------------------------
#
# A trial is stored as one file, its robot stream and then its EMG, both
# little-endian int16 codes, both channel-major, that is a (channels, n)
# array: the robot-rate force and velocity, rows fx, fy, vx, vy in codes of
# ROBOT_LSB (2^-6 N, 2^-12 m/s), and the EMG at its native rate in codes of
# emg.EMG_LSB_MV. A code times its channel's step is the sample. The robot
# stream is smooth, so the file holds each channel's first differences
# instead, channel after channel (the first code, then each code minus the
# one before it, modulo 2^16), deflated into one zlib stream; a cumulative
# sum that wraps as int16 does gives back the codes exactly. The EMG codes
# follow that stream, raw. An MVC file is raw EMG codes alone.
# simulate_trial rounds its recorded samples to whole codes, refusing one
# beyond a rail, and emg.synthesize_emg its EMG, saturated at the rails, so
# both arrays read back bit for bit. The files carry samples only; their
# layout, encoding, dtype, code steps, rates, start times and channel
# labels are stored once per run, in the "streams" doc of the manifest (see
# trial_streams), with each file's CRC-32, and their lengths follow from
# the record's duration (stored_samples). load_samples is the one decoder.

# the encoding of trial_streams for one zlib stream of first differences; the other is "raw"
_ZLIB_DELTA = "zlib-delta"
_ZLIB_LEVEL = 1  # the robot differences deflate about tenfold at the fastest level


def trial_streams(robot_rate: float, emg_rate: float) -> dict:
    """Layout, encoding, dtype, per-channel code step, rate, start time and channel labels of the two stored
    trial arrays, in the order a trial file holds them."""
    emg_channels = emg_module.channel_labels(len(DEFAULT_MVC_RMS_MV))
    return {
        "robot": {"layout": "channel-major", "encoding": _ZLIB_DELTA, "dtype": "<i2", "lsb": list(ROBOT_LSB),
                  "rate_hz": robot_rate, "start_time_s": 0.0, "channels": list(ROBOT_CHANNELS)},
        "emg": {"layout": "channel-major", "encoding": "raw", "dtype": "<i2",
                "lsb": [emg_module.EMG_LSB_MV] * len(emg_channels), "rate_hz": emg_rate, "start_time_s": 0.0,
                "channels": list(emg_channels)},
    }


def stored_samples(duration: float, robot_rate: float, emg_rate: float) -> tuple[int, int]:
    """The robot and EMG sample counts of a record of ``duration`` s.

    The robot grid spans the duration; the EMG is synthesized over the span
    of that grid (``emg.synthesize_emg``), so it may end one sample early.
    """
    n_robot = round(duration * robot_rate) + 1
    return n_robot, round((n_robot - 1) / robot_rate * emg_rate) + 1


def _codes(path, channels, stream: dict) -> np.ndarray:
    """The codes of ``stream`` of ``channels``, 1-D sample arrays of one length, one row each; see
    :func:`save_samples`."""
    codes = np.empty((len(channels), len(channels[0])))
    for row, values, step in zip(codes, channels, stream["lsb"]):
        np.divide(values, step, out=row)
    emg_module.round_to_codes(codes)
    try:
        # a saturated code is in range, so only a NaN casts to an integer invalidly
        with np.errstate(invalid="raise"):
            return codes.astype(stream["dtype"])
    except FloatingPointError:
        raise ValueError(f"{path}: NaN samples have no code") from None


def _encode(path, channels, stream: dict) -> bytes:
    """The bytes that hold ``channels`` in ``stream``'s encoding; see :func:`save_samples`."""
    codes = _codes(path, channels, stream)
    if stream["encoding"] == _ZLIB_DELTA:
        deltas = codes.copy()
        np.subtract(codes[:, 1:], codes[:, :-1], out=deltas[:, 1:])  # in int16, so modulo 2^16
        return zlib.compress(deltas.tobytes(), _ZLIB_LEVEL)
    return codes.tobytes()


def _write(path, blob: bytes) -> int:
    """Write ``blob`` as the file ``path``; returns its CRC-32."""
    with open(path, "wb") as fh:
        fh.write(blob)
    return zlib.crc32(blob)


def save_samples(path, data: np.ndarray, stream: dict) -> int:
    """Write ``data``, shape (n, channels), as one file of ``stream`` (a ``trial_streams`` doc); returns the
    file's CRC-32.

    Each value is divided by its channel's code step (``lsb``), rounded to
    the nearest code and saturated at the rails, never wrapped
    (:func:`emg.round_to_codes`), so an array on the code grid is stored
    exactly. The codes are stored channel-major, in the stream's encoding
    (see the trial store above). Raises ValueError, naming ``path``, for a
    NaN, which has no code.
    """
    return _write(path, _encode(path, data.T, stream))


def save_trial_csv(trial: TrialRecord, path) -> int:
    """Write a trial as one file at ``path``: its force/velocity stream, then its EMG; returns the file's CRC-32.

    Each array is encoded as :func:`save_samples` does, with its stream of
    :func:`trial_streams`, which leaves a simulated trial unchanged: the
    robot rows fx, fy, vx, vy as one zlib stream of their first
    differences, the EMG rows as raw int16 codes. Both are encoded before
    the file is written, so a trial with a NaN sample leaves no file. The
    name is historical: trials were once stored as CSV text.
    """
    streams = trial_streams(trial.force.sample_rate, trial.emg.sample_rate)
    robot = _encode(path, (*trial.force.data.T, *trial.velocity.data.T), streams["robot"])
    return _write(path, robot + _encode(path, trial.emg.data.T, streams["emg"]))


def _decode(path, blob, stream: dict, n_samples: int) -> tuple[np.ndarray, bytes]:
    """The (channels, n_samples) codes of ``stream`` at the start of ``blob``, bytes of the file ``path``, and
    the bytes after them.

    A ``zlib-delta`` stream is inflated to one byte more than its
    differences at most, so a crafted file cannot inflate without bound.
    """
    dtype, n_channels = np.dtype(stream["dtype"]), len(stream["channels"])
    size = n_channels * n_samples * dtype.itemsize
    delta = stream["encoding"] == _ZLIB_DELTA
    if delta:
        inflater = zlib.decompressobj()
        try:
            raw = inflater.decompress(blob, size + 1)
        except zlib.error as exc:
            raise DataError(f"cannot read {path}: {exc}") from None
        if len(raw) > size:  # stopped at the bound, with input left over
            raise DataError(f"{path}: more than {n_samples} samples")
        if not inflater.eof:
            raise DataError(f"cannot read {path}: the file ends inside its zlib stream")
        rest = inflater.unused_data
    else:
        raw, rest = blob[:size], blob[size:]
    sample_bytes = n_channels * dtype.itemsize
    if len(raw) % sample_bytes:
        raise DataError(f"{path}: {len(raw)} bytes of {dtype.name} {'differences' if delta else 'codes'}, "
                        f"not whole samples of {n_channels} channels")
    if len(raw) != size:
        raise DataError(f"{path}: {len(raw) // sample_bytes} samples, expected {n_samples}")
    codes = np.frombuffer(raw, dtype).reshape(n_channels, n_samples)
    if delta:
        # summed back in int16, which wraps as the differences did: the codes exactly
        codes = np.cumsum(codes, axis=1, dtype=dtype)
    return codes, rest


def load_samples(path, layout, *, crc32: int) -> list[np.ndarray]:
    """The ``(n_samples, channels)`` samples of each ``(stream, n_samples)`` of ``layout`` (``stream`` a
    ``trial_streams`` doc), in the order the file ``path`` holds them, as the ``save_*`` functions write it.

    The file is read in one ``read`` of at most the bytes its samples can
    take (for a ``zlib-delta`` stream, zlib's ``compressBound``) plus one,
    and must match ``crc32`` before anything is decoded. The streams follow
    each other with nothing after the last (:func:`_decode`). The codes are
    decoded as ``codes * lsb``, row by row, into a read-only float64
    (channels, n_samples) array, and its transpose is returned: the samples
    as a signal lays them out, without a copy. A code cannot be non-finite,
    so the samples need no scan. Raises DataError naming ``path`` for a
    missing file, a longer one, bytes that do not match ``crc32``, and a
    stream that does not decode to exactly its samples.
    """
    limit = 0
    for stream, n_samples in layout:
        size = len(stream["channels"]) * n_samples * np.dtype(stream["dtype"]).itemsize
        limit += size + (size >> 12) + (size >> 14) + (size >> 25) + 13 if stream["encoding"] == _ZLIB_DELTA else size
    try:
        with open(path, "rb", buffering=0) as fh:
            blob = fh.read(limit + 1)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    if len(blob) > limit:
        raise DataError(f"{path}: longer than the {limit} bytes its samples can take")
    if zlib.crc32(blob) != crc32:
        raise DataError(f"{path}: the file's bytes do not match the manifest's CRC-32")
    arrays = []
    for stream, n_samples in layout:
        codes, blob = _decode(path, blob, stream, n_samples)
        data = np.empty(codes.shape)
        for row, coded, step in zip(data, codes, stream["lsb"]):
            np.multiply(coded, step, out=row)
        # frozen, so the signals built on the samples share them instead of copying them
        data.flags.writeable = False
        arrays.append(data.T)
    if blob:
        raise DataError(f"{path}: bytes after its samples")
    return arrays


def load_trial_csv(
    path,
    streams: dict,
    spec: PerturbationSpec,
    subject_id: str,
    *,
    crc32: int,
    activation_label: str,
    frequency_label: str,
) -> TrialRecord:
    """Read a trial written by :func:`save_trial_csv`.

    ``streams`` is the manifest doc of :func:`trial_streams` and ``crc32``
    the file's CRC-32. The file must hold, robot stream first, exactly the
    samples that :func:`stored_samples` gives for the perturbation's
    duration, and is refused as :func:`load_samples` says. The signals take
    their rates, start times and labels from ``streams``; the labels name
    the grid cell, as for :func:`simulate_trial`. Each signal's samples are
    a view of the channel-major rows of its stream. The name is historical:
    trials were once stored as CSV text.
    """
    robot, emg = streams["robot"], streams["emg"]
    rate, start, labels = robot["rate_hz"], robot["start_time_s"], robot["channels"]
    n_robot, n_emg = stored_samples(spec.duration, rate, emg["rate_hz"])
    main, emg_data = load_samples(path, [(robot, n_robot), (emg, n_emg)], crc32=crc32)
    return TrialRecord(
        activation_label=activation_label, frequency_label=frequency_label,
        force=SampledSignal(rate, start, labels[0:2], main[:, 0:2]),
        velocity=SampledSignal(rate, start, labels[2:4], main[:, 2:4]),
        emg=SampledSignal(emg["rate_hz"], emg["start_time_s"], emg["channels"], emg_data),
        spec=spec,
        subject_id=subject_id,
    )
