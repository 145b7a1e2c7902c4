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
codes and orders from it. A trial's labels are assigned by the caller's
protocol (``simulate_trial`` requires them), never guessed from its
activation target or frequency.

The prescribed kinematics depend on the perturbation alone, so the trials
at one frequency share one read-only copy of them (:func:`_axis_kinematics`).
Everything is deterministic given (params, spec, activation, seed);
independent trials can run in parallel and share no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from . import emg as emg_module
from .errors import ConfigError, DataError, IntegrationError
from .signals import SampledSignal, first_order_recurrence

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
ROBOT_CHANNELS = ("fx", "fy", "vx", "vy")  # force, then velocity


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
    direction_index: int        # 0..7, 45 degree increments
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
class TrialCondition:
    """A cell of the protocol grid; labels are from ACTIVATION_LABELS and FREQUENCY_LABELS."""

    direction_index: int
    activation_label: str
    frequency_label: str

    def __post_init__(self) -> None:
        if not 0 <= self.direction_index < N_DIRECTIONS:
            raise ValueError(f"direction_index out of range: {self.direction_index}")
        if self.activation_label not in ACTIVATION_LABELS:
            raise ValueError(f"unknown activation label {self.activation_label!r}")
        if self.frequency_label not in FREQUENCY_LABELS:
            raise ValueError(f"unknown frequency label {self.frequency_label!r}")


@dataclass(frozen=True)
class TrialRecord:
    """One perturbation run: condition tag plus the recorded signals."""

    condition: TrialCondition
    force: SampledSignal      # 2 channels fx, fy (N)
    velocity: SampledSignal   # 2 channels vx, vy (m/s)
    emg: SampledSignal        # 4 channels (mV), at its own rate
    spec: PerturbationSpec
    subject_id: str

    def __post_init__(self) -> None:
        if self.force.n_samples != self.velocity.n_samples:
            raise ValueError("force and velocity lengths differ")
        if not math.isclose(self.force.sample_rate, self.velocity.sample_rate):
            raise ValueError("force and velocity rates differ")
        if self.condition.direction_index != self.spec.direction_index:
            raise ValueError("condition direction inconsistent with perturbation spec")


@dataclass(frozen=True)
class Subject:
    subject_id: str
    params: LimbParams
    mvc_rms: tuple[float, ...]


def perturbation_direction(direction_index: int) -> np.ndarray:
    """Unit 2-vector of cardinal direction ``i``: (cos, sin) of i*45 deg."""
    if not 0 <= direction_index < N_DIRECTIONS:
        raise ValueError(f"direction_index out of range: {direction_index}")
    angle = math.pi * direction_index / 4.0
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
    are rounded to float32 resolution, as the trial store keeps them (and
    as :func:`emg.synthesize_emg` rounds the EMG), so a stored trial reads
    back bit for bit. ``seed`` may be an int or a numpy SeedSequence. The
    trial's grid cell is named by ``activation_label`` and
    ``frequency_label``, which the caller's protocol assigns; nothing here
    infers them from the target or the frequency.
    """
    if rate < 20.0 * spec.frequency:
        raise IntegrationError(
            f"rate {rate} Hz too low for {spec.frequency} Hz perturbation: "
            f"need >= {20.0 * spec.frequency} Hz (integration step too large)"
        )
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
    # direction, rounded to float32 once through one reused scratch row, as
    # the trial store keeps them. Read-only, so the signals share the array.
    dx, dy = perturbation_direction(spec.direction_index)
    recorded = np.empty((n_samples, len(ROBOT_CHANNELS)))
    rounded = np.empty(n_samples, np.float32)
    for column, axis, weight in zip(recorded.T, (f_ax, f_ax, v_ax, v_ax), (dx, dy, dx, dy)):
        np.multiply(axis, weight, out=rounded)
        column[...] = rounded
    recorded.flags.writeable = False
    force = SampledSignal(rate, 0.0, ROBOT_CHANNELS[:2], recorded[:, :2])
    velocity = SampledSignal(rate, 0.0, ROBOT_CHANNELS[2:], recorded[:, 2:])

    activation_signal = SampledSignal(rate, 0.0, ("a",), a)
    emg = emg_module.synthesize_emg(activation_signal, mvc_rms, emg_seq, rate=emg_rate)

    return TrialRecord(
        condition=TrialCondition(spec.direction_index, activation_label, frequency_label),
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


def jitter_range(value: float, jitter: float) -> tuple[float, float]:
    """Least and greatest ``value * (1 + jitter * u)`` over the ``u`` in [-1, 1) that ``make_cohort`` draws."""
    return value * (1.0 - jitter), value * (1.0 + jitter)


def cohort_subject_id(idx: int) -> str:
    """The id of subject ``idx`` (from 0) of a cohort: S1, S2, ..."""
    return f"S{idx + 1}"


# -- trial store -------------------------------------------------------------
#
# A trial is stored as two raw float32 arrays written with np.save: the
# robot-rate force and velocity, shape (n, 4) with columns fx, fy, vx, vy,
# and the EMG at its native rate, shape (n, 4). simulate_trial and
# emg.synthesize_emg round their recorded samples to float32, so both arrays
# read back bit for bit. The arrays carry samples only; their dtype, rates,
# start times and channel labels are stored once per run, in the "streams"
# doc of the manifest (see trial_streams), and their lengths follow from the
# record's duration (stored_samples).

SAMPLE_DTYPE = "<f4"


def trial_streams(robot_rate: float, emg_rate: float) -> dict:
    """Dtype, rate, start time and channel labels of the two stored trial arrays."""
    return {
        "robot": {"dtype": SAMPLE_DTYPE, "rate_hz": robot_rate, "start_time_s": 0.0,
                  "channels": list(ROBOT_CHANNELS)},
        "emg": {"dtype": SAMPLE_DTYPE, "rate_hz": emg_rate, "start_time_s": 0.0,
                "channels": list(emg_module.channel_labels(len(DEFAULT_MVC_RMS_MV)))},
    }


def stored_samples(duration: float, robot_rate: float, emg_rate: float) -> tuple[int, int]:
    """The robot and EMG sample counts of a record of ``duration`` s.

    The robot grid spans the duration; the EMG is synthesized over the span
    of that grid (``emg.synthesize_emg``), so it may end one sample early.
    """
    n_robot = round(duration * robot_rate) + 1
    return n_robot, round((n_robot - 1) / robot_rate * emg_rate) + 1


def save_trial_csv(trial: TrialRecord, path, emg_path) -> None:
    """Write a trial as two float32 .npy arrays: force/velocity, and EMG.

    The samples are rounded to float32, which leaves a simulated trial
    unchanged. The name is historical: trials were once stored as CSV text.
    """
    np.save(path, np.column_stack([trial.force.data, trial.velocity.data]).astype(SAMPLE_DTYPE))
    np.save(emg_path, trial.emg.data.astype(SAMPLE_DTYPE))


def load_samples(path, stream: dict, n_samples: int) -> np.ndarray:
    """The ``n_samples`` rows of one stored array of ``stream`` (a ``trial_streams`` doc).

    Returns them as float64, converted once, here, and read-only. Raises
    DataError naming ``path`` for a missing or torn file, a wrong dtype,
    shape or sample count, and non-finite samples.
    """
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, EOFError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    dtype, n_channels = np.dtype(stream["dtype"]), len(stream["channels"])
    if data.dtype != dtype or data.ndim != 2 or data.shape[1] != n_channels:
        raise DataError(
            f"{path}: expected {dtype.name} samples of shape (n, {n_channels}), "
            f"got {data.dtype} {data.shape}"
        )
    if data.shape[0] != n_samples:
        raise DataError(f"{path}: {data.shape[0]} samples, expected {n_samples}")
    n_bad = np.count_nonzero(~np.isfinite(data))
    if n_bad:
        raise DataError(f"{path}: {n_bad} non-finite samples")
    data = data.astype(np.float64)
    # frozen, so the signals built on the samples share them instead of copying them
    data.flags.writeable = False
    return data


def load_trial_csv(
    path,
    emg_path,
    streams: dict,
    condition: TrialCondition,
    spec: PerturbationSpec,
    subject_id: str,
) -> TrialRecord:
    """Read a trial written by :func:`save_trial_csv`.

    ``streams`` is the manifest doc of :func:`trial_streams`; each array
    must have its stream's dtype and exactly the samples that
    :func:`stored_samples` gives for the perturbation's duration, and the
    signals take their rates, start times and labels from it. The name is
    historical: trials were once stored as CSV text.

    Raises DataError, naming the file, for a missing, torn, short or long
    file, a wrong shape or dtype, and non-finite samples.
    """
    robot, emg = streams["robot"], streams["emg"]
    rate, start, labels = robot["rate_hz"], robot["start_time_s"], robot["channels"]
    n_robot, n_emg = stored_samples(spec.duration, rate, emg["rate_hz"])
    main = load_samples(path, robot, n_robot)
    emg_data = load_samples(emg_path, emg, n_emg)
    return TrialRecord(
        condition=condition,
        force=SampledSignal(rate, start, labels[0:2], main[:, 0:2]),
        velocity=SampledSignal(rate, start, labels[2:4], main[:, 2:4]),
        emg=SampledSignal(emg["rate_hz"], emg["start_time_s"], emg["channels"], emg_data),
        spec=spec,
        subject_id=subject_id,
    )
