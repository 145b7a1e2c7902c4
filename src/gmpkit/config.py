"""Study configuration: flat key=value text with sections.

The format is plain INI (configparser): diff-friendly, line-oriented, and
trivially parseable elsewhere. Unknown sections or keys are rejected so
typos fail loudly. Every value has a default; an empty config is a valid
full study.

One reader, :func:`config_from_sections`, builds and validates a config
from a config file's text (:func:`load_config`) and from the JSON copy
that a study's manifest keeps; only the conversion of a raw value to its
field's type differs. The CLI's overrides go through the same
:meth:`StudyConfig.validate`.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, fields

from .biomech import (DEFAULT_MVC_RMS_MV, FREQUENCY_LABELS, JITTERED_PARAMS, N_DIRECTIONS, ROBOT_RATE, LimbParams,
                      jitter_range, stored_samples)
from .emg import BAND_HZ, EMG_RATE, FEEDBACK_CHANNELS, MVC_DURATION_S, RMS_STRIDE_S, RMS_WINDOW_S
from .errors import ConfigError, DegenerateTrialError, WindowRangeError, typed_json
from .passivity import snap_window_to_periods
from .signals import Window, rms_support
from .stabilizer import DEFAULT_SAFETY_FACTOR, FIELD_KINDS


@dataclass(frozen=True)
class CohortConfig:
    subjects: int = 5
    jitter: float = 0.2
    seed: int = 1234


@dataclass(frozen=True)
class ProtocolConfig:
    frequencies: tuple[float, ...] = (1.0, 3.0)   # Hz, low then high
    duration_s: float = 10.0
    amplitude_m: float = 0.03
    relaxed_target: float = 0.05
    stiff_target: float = 0.40
    analysis_window_s: float = 5.0

    @property
    def directions(self) -> int:
        """The protocol runs every cardinal direction: ``biomech.N_DIRECTIONS``."""
        return N_DIRECTIONS


@dataclass(frozen=True)
class RatesConfig:
    robot_hz: float = ROBOT_RATE
    emg_hz: float = EMG_RATE


@dataclass(frozen=True)
class EmgConfig:
    rms_window_s: float = RMS_WINDOW_S
    rms_stride_s: float = RMS_STRIDE_S
    feedback_channels: tuple[int, ...] = FEEDBACK_CHANNELS


@dataclass(frozen=True)
class OutputConfig:
    dir: str = "out"
    jobs: int = 1


@dataclass(frozen=True)
class ScenarioConfig:
    field_kind: str = "negative-damping"
    field_damping: float = -5.0     # b_f; negative pumps energy
    spring_gain: float = 300.0      # used by delayed-spring fields
    spring_delay_s: float = 0.02
    duration_s: float = 10.0
    direction: int = 0
    activation: float = 0.40
    frequency_hz: float = 1.0
    amplitude_m: float = 0.03
    safety_factor: float = DEFAULT_SAFETY_FACTOR
    seed: int = 7


def _check_envelope_window(config: StudyConfig) -> None:
    """Refuse an analysis window that misses the %MVC envelope of the trials.

    The envelope is stamped at RMS window centres, so it starts and ends
    about half an RMS window inside the trial. At every frequency, the
    analysis window [duration_s - analysis_window_s, duration_s], snapped to
    whole periods as ``passivity.estimate_eop`` does, must overlap it by more
    than a point. The envelope's timestamps are computed the way
    ``signals.rms`` stamps the EMG that ``simulate_trial`` synthesizes over
    the span of the robot grid.
    """
    p, emg, robot_hz, emg_hz = config.protocol, config.emg, config.rates.robot_hz, config.rates.emg_hz
    _, n_emg = stored_samples(p.duration_s, robot_hz, emg_hz)
    try:
        first, last = rms_support(n_emg, emg_hz, 0.0, emg.rms_window_s, emg.rms_stride_s)
        starts = [snap_window_to_periods(Window(p.duration_s - p.analysis_window_s, p.duration_s),
                                         f, robot_hz).t_start for f in p.frequencies]
    except (WindowRangeError, DegenerateTrialError) as exc:
        raise ConfigError(f"analysis window or emg.rms_window_s out of range: {exc}") from None
    start = max(starts)
    if not (first < last and start < last):
        raise ConfigError(
            f"protocol.analysis_window_s = {p.analysis_window_s} s starts at {start:g} s once snapped "
            f"to whole periods, but the %MVC envelope of emg.rms_window_s = {emg.rms_window_s} s "
            f"covers [{first:.4g}, {last:.4g}] s of the {p.duration_s:g} s trials; lengthen the "
            f"analysis window or shorten the RMS window"
        )


@dataclass(frozen=True)
class StudyConfig:
    cohort: CohortConfig = field(default_factory=CohortConfig)
    protocol: ProtocolConfig = field(default_factory=ProtocolConfig)
    rates: RatesConfig = field(default_factory=RatesConfig)
    emg: EmgConfig = field(default_factory=EmgConfig)
    output: OutputConfig = field(default_factory=OutputConfig)
    limb: LimbParams = field(default_factory=LimbParams)
    stabilizer: ScenarioConfig = field(default_factory=ScenarioConfig)

    def validate(self) -> None:
        p = self.protocol
        if self.cohort.subjects < 1:
            raise ConfigError("cohort.subjects must be >= 1")
        if not 0 <= self.cohort.jitter < 1:
            raise ConfigError("cohort.jitter must be in [0, 1)")
        # checked before make_cohort multiplies, where numpy would overflow to inf
        for name in JITTERED_PARAMS:
            value = getattr(self.limb, name)
            if not math.isfinite(jitter_range(value, self.cohort.jitter)[1]):
                raise ConfigError(f"limb.{name} must be finite once cohort.jitter = {self.cohort.jitter} "
                                  f"scales it, got {value}")
        for name, seed in (("cohort.seed", self.cohort.seed), ("stabilizer.seed", self.stabilizer.seed)):
            if seed < 0:
                raise ConfigError(f"{name} must be >= 0, got {seed}")
        n_freqs = len(FREQUENCY_LABELS)
        if not 1 <= len(p.frequencies) <= n_freqs or any(not 0 < f < math.inf for f in p.frequencies):
            raise ConfigError(f"protocol.frequencies needs 1 to {n_freqs} finite positive values")
        if any(lower >= higher for lower, higher in zip(p.frequencies, p.frequencies[1:])):
            raise ConfigError("protocol.frequencies must be increasing")
        for name, value in (("duration_s", p.duration_s), ("amplitude_m", p.amplitude_m),
                            ("analysis_window_s", p.analysis_window_s)):
            if not 0 < value < math.inf:
                raise ConfigError(f"protocol.{name} must be finite and > 0, got {value}")
        if p.analysis_window_s > p.duration_s:
            raise ConfigError(f"protocol.analysis_window_s = {p.analysis_window_s} exceeds "
                              f"protocol.duration_s = {p.duration_s}")
        for name, value in (("relaxed_target", p.relaxed_target), ("stiff_target", p.stiff_target)):
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"protocol.{name} must be within [0, 1]")
        if not 20.0 * max(p.frequencies) <= self.rates.robot_hz < math.inf:
            raise ConfigError("rates.robot_hz must be finite and at least 20x the protocol frequencies")
        if not 2 * BAND_HZ[1] < self.rates.emg_hz < math.inf:
            raise ConfigError("rates.emg_hz must be finite and exceed twice the EMG band edge")
        if not (self.emg.rms_window_s > 0 and self.emg.rms_stride_s > 0):
            raise ConfigError("emg.rms_window_s and emg.rms_stride_s must be > 0")
        if self.emg.rms_window_s > p.duration_s:
            raise ConfigError(f"emg.rms_window_s = {self.emg.rms_window_s} exceeds "
                              f"protocol.duration_s = {p.duration_s}")
        # the %MVC envelopes are calibrated on the MVC recordings with the same window
        if self.emg.rms_window_s > MVC_DURATION_S:
            raise ConfigError(f"emg.rms_window_s = {self.emg.rms_window_s} exceeds the "
                              f"{MVC_DURATION_S} s MVC recordings")
        _check_envelope_window(self)
        n_emg = len(DEFAULT_MVC_RMS_MV)
        if not self.emg.feedback_channels or any(
            not 0 <= ch < n_emg for ch in self.emg.feedback_channels
        ):
            raise ConfigError(f"emg.feedback_channels must be channel indices in 0..{n_emg - 1}")
        if self.output.jobs < 1:
            raise ConfigError("output.jobs must be >= 1")
        s = self.stabilizer
        if s.field_kind not in FIELD_KINDS:
            raise ConfigError(f"unknown stabilizer.field_kind {s.field_kind!r}")
        if not 0 <= s.direction < N_DIRECTIONS:
            raise ConfigError(f"stabilizer.direction must be in 0..{N_DIRECTIONS - 1}")
        for name, value in (("duration_s", s.duration_s), ("amplitude_m", s.amplitude_m),
                            ("frequency_hz", s.frequency_hz)):
            if not 0 < value < math.inf:
                raise ConfigError(f"stabilizer.{name} must be finite and > 0, got {value}")
        for name, value in (("activation", s.activation), ("safety_factor", s.safety_factor)):
            if not 0 <= value <= 1:
                raise ConfigError(f"stabilizer.{name} must be within [0, 1], got {value}")
        if not math.isfinite(s.field_damping):
            raise ConfigError(f"stabilizer.field_damping must be finite, got {s.field_damping}")
        for name, value in (("spring_gain", s.spring_gain), ("spring_delay_s", s.spring_delay_s)):
            if not 0 <= value < math.inf:
                raise ConfigError(f"stabilizer.{name} must be finite and >= 0, got {value}")


_SECTION_TYPES = {f.name: f.default_factory for f in fields(StudyConfig)}


def _ini_value(raw: str, default):
    """A config file's text ``raw`` as the type of the field's ``default``.

    A tuple field is written comma-separated.
    """
    if isinstance(default, tuple):
        return tuple(type(default[0])(part.strip()) for part in raw.split(",") if part.strip())
    return type(default)(raw)


def json_setting(value, default):
    """A JSON ``value`` checked against the type of the field's ``default``.

    A float field takes any finite number, and a tuple field a list of
    values of its first element's type.
    """
    if isinstance(default, tuple):
        return tuple(json_setting(item, default[0]) for item in typed_json(value, list))
    return typed_json(value, type(default))


def config_from_sections(sections, source: str, convert) -> StudyConfig:
    """The validated config of ``sections``: ``{section: {key: raw value}}``.

    ``convert(raw, default)`` turns a raw value into the type of the field's
    default, raising ValueError or TypeError when it cannot:
    :func:`_ini_value` for a config file, :func:`json_setting` for the copy
    of the config in a study's manifest. A section or key left out keeps
    its default. Every fault, an unknown section or key, a value of the
    wrong type or a failed :meth:`StudyConfig.validate`, is a ConfigError
    whose message starts with ``source``.
    """
    kwargs: dict[str, object] = {}
    try:
        for section, items in sections.items():
            if section not in _SECTION_TYPES:
                raise ConfigError(f"unknown section [{section}]")
            if not isinstance(items, dict):
                raise ConfigError(f"[{section}] must hold keys and values, got {items!r}")
            cls = _SECTION_TYPES[section]
            defaults = cls()
            values = {}
            for key, raw in items.items():
                if key not in {f.name for f in fields(cls)}:
                    raise ConfigError(f"unknown key {key!r} in [{section}]")
                try:
                    values[key] = convert(raw, getattr(defaults, key))
                except (TypeError, ValueError) as exc:
                    raise ConfigError(f"[{section}] {key}: {exc}") from None
            try:
                kwargs[section] = cls(**values)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{section}]: {exc}") from None
        config = StudyConfig(**kwargs)
        config.validate()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    return config


def load_config(path) -> StudyConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    with open(path, "r") as fh:
        try:
            parser.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from None
    sections = {section: dict(parser.items(section)) for section in parser.sections()}
    return config_from_sections(sections, str(path), _ini_value)


def default_config() -> StudyConfig:
    config = StudyConfig()
    config.validate()
    return config


def frequency_labels(protocol: ProtocolConfig) -> list[tuple[str, float]]:
    """(label, Hz) pairs of the protocol's frequencies, in ``FREQUENCY_LABELS`` order."""
    return list(zip(FREQUENCY_LABELS, protocol.frequencies))
