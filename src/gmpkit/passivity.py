"""Energy accounting and passivity analysis.

A port with input U(t) and output Y(t) and initial energy E(0) is passive
when its observed energy E_S(t) = integral of U^T Y stays above -E(0) for
all t. If the stronger output-strict inequality

    integral U^T Y dt + E(0) >= xi * integral Y^T Y dt

holds with xi >= 0 the port is output strictly passive (OSP) with excess
of passivity xi and finite L2 gain 1/xi; with xi < 0 it is output
non-passive (ONP) with shortage of passivity |xi|.

For a recorded force/velocity pair over a window W the tight xi is the
ratio of the two integrals; :func:`estimate_eop` computes it with both
integrals on the same trapezoidal grid. Estimation windows are snapped to
whole samples and to an integer number of perturbation periods (anchored
at the window end) so the lossless inertia/spring terms integrate out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .biomech import TrialRecord, check_cell
from .emg import MvcCalibration, pct_mvc
from .errors import DataError, DegenerateTrialError
from .signals import SampledSignal, Window, check_aligned, trapz_inner

LEDGER_TOL_J = 1e-9  # slack of an energy ledger's sign test, also the stabilizer's
VELOCITY_ENERGY_THRESHOLD = 1e-9


@dataclass(frozen=True)
class EnergyLedger:
    """Cumulative observed energy of a port on a uniform time grid.

    The port starts from rest: E(0) = 0, so the ledger is E_S(t) alone.
    """

    times: np.ndarray
    energy: np.ndarray          # E_S(t), joules; energy[0] == 0

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        energy = np.asarray(self.energy, dtype=float)
        if times.shape != energy.shape:
            raise ValueError("times and energy must have the same shape")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "energy", energy)


@dataclass(frozen=True)
class PassivityVerdict:
    passive: bool
    min_margin: float                      # min over grid of E_S
    first_violation_time: float | None = None


@dataclass(frozen=True)
class EopEstimate:
    """Excess of passivity for one (direction, activation, frequency) cell of the grid."""

    subject_id: str
    direction_index: int
    activation_label: str
    frequency_label: str
    xi: float                        # N*s/m, may be negative
    mean_pct_mvc: float              # fraction of MVC over the same window
    numerator: float                 # force/velocity energy integral, J
    denominator: float               # velocity L2 integral, (m/s)^2*s
    window: Window | None = None
    frequency_hz: float | None = None

    def __post_init__(self) -> None:
        check_cell(self.direction_index, self.activation_label, self.frequency_label)
        for name in ("xi", "mean_pct_mvc", "numerator", "denominator"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not self.denominator > 0:
            raise ValueError(f"denominator must be > 0, got {self.denominator}")
        if not math.isclose(self.xi, self.numerator / self.denominator, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError("xi inconsistent with numerator/denominator")


def energy_ledger(u: SampledSignal, y: SampledSignal) -> EnergyLedger:
    """Running trapezoidal cumulative of u(t)^T y(t); single forward pass."""
    check_aligned(u, y)
    power = np.einsum("ij,ij->i", u.data, y.data)
    dt = 1.0 / u.sample_rate
    increments = 0.5 * dt * (power[1:] + power[:-1])
    energy = np.concatenate([[0.0], np.cumsum(increments)])
    return EnergyLedger(times=u.times(), energy=energy)


def is_passive(ledger: EnergyLedger) -> PassivityVerdict:
    """Passive iff E_S(t) >= -LEDGER_TOL_J on the whole grid.

    That is the passivity inequality of a port that starts from rest,
    E(0) = 0, as every simulated trial does.
    """
    energy = ledger.energy
    min_margin = float(energy.min())
    if min_margin >= -LEDGER_TOL_J:
        return PassivityVerdict(passive=True, min_margin=min_margin)
    violating = np.nonzero(energy < -LEDGER_TOL_J)[0]
    first = int(violating[0])
    return PassivityVerdict(
        passive=False,
        min_margin=min_margin,
        first_violation_time=float(ledger.times[first]),
    )


def snap_window_to_periods(w: Window, frequency: float, sample_rate: float) -> Window:
    """Largest whole-period window ending at w.t_end, snapped to samples.

    Falls back to plain sample snapping when the window is shorter than one
    period. At the protocol frequencies (1 and 3 Hz) a 5 s window is
    already both, so this only matters for nonstandard frequencies.
    """
    n_periods = math.floor(w.duration * frequency + 1e-9)
    if n_periods >= 1:
        t_start = w.t_end - n_periods / frequency
    else:
        t_start = w.t_start
    k_start = round(t_start * sample_rate)
    k_end = round(w.t_end * sample_rate)
    if k_end <= k_start:
        raise DegenerateTrialError("snapped window is empty")
    return Window(k_start / sample_rate, k_end / sample_rate)


def estimate_eop(
    trial: TrialRecord,
    w: Window,
    cal: MvcCalibration,
    feedback_channels: tuple[int, ...],
    rms_window: float,
    rms_stride: float,
) -> EopEstimate:
    """Windowed EoP of a trial: energy ratio of force against velocity.

    ``w`` is first snapped to whole perturbation periods
    (:func:`snap_window_to_periods`). Both integrals use the full 2-D inner
    products, off-axis components included, over one slice of each signal.
    The estimate carries the mean %MVC of the feedback channels over the
    same window, normalized by ``cal``.
    """
    w = snap_window_to_periods(w, trial.spec.frequency, trial.force.sample_rate)
    force, velocity = trial.force.slice(w), trial.velocity.slice(w)
    denominator = trapz_inner(velocity, velocity)
    if denominator <= VELOCITY_ENERGY_THRESHOLD:
        raise DegenerateTrialError(
            f"velocity energy {denominator:.3e} below threshold {VELOCITY_ENERGY_THRESHOLD:.0e}; "
            "trial carries no usable motion"
        )
    numerator = trapz_inner(force, velocity)
    return EopEstimate(
        subject_id=trial.subject_id,
        direction_index=trial.spec.direction_index,
        activation_label=trial.activation_label,
        frequency_label=trial.frequency_label,
        xi=numerator / denominator,
        mean_pct_mvc=pct_mvc(trial.emg, cal, w, feedback_channels, rms_window, rms_stride),
        numerator=numerator,
        denominator=denominator,
        window=w,
        frequency_hz=trial.spec.frequency,
    )


# -- estimate CSV interchange ------------------------------------------------

ESTIMATE_CSV_HEADER = "subject,direction,activation,frequency,xi,pct_mvc,numerator,denominator"


def estimates_to_csv(estimates: Sequence[EopEstimate], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(ESTIMATE_CSV_HEADER + "\n")
        for est in estimates:
            fh.write(
                ",".join(
                    (
                        est.subject_id,
                        str(est.direction_index),
                        est.activation_label,
                        est.frequency_label,
                        repr(float(est.xi)),
                        repr(float(est.mean_pct_mvc)),
                        repr(float(est.numerator)),
                        repr(float(est.denominator)),
                    )
                )
                + "\n"
            )


def estimates_from_csv(path) -> list[EopEstimate]:
    """Read the estimates written by :func:`estimates_to_csv`.

    Text that is not UTF-8, a wrong header, a short or malformed row, or a
    row that is not a consistent estimate of a grid cell, or repeats one, is
    a ``DataError`` that names the file (and the line).
    """
    with open(path, "r", newline="") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read {path}: {exc}") from None
    if lines[0].strip() != ESTIMATE_CSV_HEADER:
        raise DataError(f"{path}: unexpected header {lines[0].strip()!r}")
    out = []
    first_line: dict[tuple, int] = {}  # (subject, direction, activation, frequency) -> its line
    for line_no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        try:
            subject, direction, activation, frequency, xi, pct, num, den = line.split(",")
            out.append(
                EopEstimate(
                    subject_id=subject,
                    direction_index=int(direction),
                    activation_label=activation,
                    frequency_label=frequency,
                    xi=float(xi),
                    mean_pct_mvc=float(pct),
                    numerator=float(num),
                    denominator=float(den),
                )
            )
        except ValueError as exc:
            raise DataError(f"{path}, line {line_no}: {exc}") from None
        cell = (subject, int(direction), activation, frequency)
        if cell in first_line:
            raise DataError(f"{path}, line {line_no}: duplicate estimate for {cell}, first on line {first_line[cell]}")
        first_line[cell] = line_no
    return out
