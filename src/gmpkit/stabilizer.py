"""Minimal-dissipation passivity stabilizer demo.

Co-simulates the synthetic limb coupled to a virtual force field that may
generate energy (a negative damper, or a delayed spring), with a
time-domain passivity observer/controller watching the field port. The
controller injects the smallest damping that keeps the observed ledger

    W(t) = E_field(t) + integral( (alpha(t) + xi_hat) * ||v||^2 ) dt

nonnegative, where E_field is the energy absorbed by the field port
(negative while the field pumps energy in) and xi_hat is the limb's
predicted excess of passivity from a GMP map lookup (zero without a map).
Crediting the biomechanical budget at rate xi_hat*||v||^2 matches the
output-strict passivity inequality, which is rate-proportional to the
velocity energy, and is what lets the controller leave the field
untouched as long as the human side can absorb the deficit.

The one-step law alpha = max(0, -W/(||v||^2 * dt)) with a small velocity
deadband is the standard discretization of this family of stabilizers;
the specific control law here is an implementation choice for the demo,
not an identified property of the limb. Note the cross-run comparison
"budget never hurts" is a property of scenarios whose field shortage of
passivity does not greatly exceed the granted budget; a much stronger
field combined with a small partial budget can grow the closed-loop
motion enough to cost more total injected energy than plain stabilization.

Runs are deterministic given (limb, field, perturbation, seed); separate
scenarios can run in parallel, and map lookups are read-only.

The step loop runs on Python floats and computes only what the next step
depends on: the state x, v, the Maxwell force and the observer ledger W,
stored as position, velocity, limb force and alpha in ``array('d')``
buffers. The field force, the per-step energy terms and the three ledgers
(W, field energy, injected energy) are derived from those after the loop
with numpy, in the loop's operand order; ``np.add.accumulate`` from a
leading 0.0 adds strictly left to right as the loop did, so the ledgers are
bit-identical to running sums. The excitation and the Maxwell denominators
depend only on the scenario and are computed with numpy before the loop.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .biomech import (
    ActivationProfile,
    LimbParams,
    PerturbationSpec,
    activation_series,
    analytic_eop,
    check_step_rate,
)
from .errors import ConfigError, IntegrationError, InvalidComparisonError
from .gmp import GmpMap, lookup
from .passivity import LEDGER_TOL_J

FIELD_KINDS = ("negative-damping", "delayed-spring")

VELOCITY_DEADBAND = 1e-6     # m/s
DEFAULT_SAFETY_FACTOR = 0.8
MIN_COSIM_RATE_HZ = 1000.0   # the co-simulation's slowest rate


@dataclass(frozen=True)
class ForceFieldSpec:
    """Virtual force field rendered by the robot.

    negative-damping: force = -b_f * v with b_f < 0 pumping energy in; the
    nominal shortage of passivity is |b_f| exactly (0 when b_f >= 0, i.e. a
    passive damper).

    delayed-spring: force = -gain * x(t - delay); the delay makes the
    element active, with nominal SoP approximated by gain * delay (the
    small-delay equivalent negative damping).
    """

    kind: str
    b_f: float | None = None       # N*s/m, damping coefficient (may be negative)
    gain: float | None = None      # N/m, delayed spring stiffness
    delay: float | None = None     # s

    def __post_init__(self) -> None:
        if self.kind not in FIELD_KINDS:
            raise ConfigError(f"unknown field kind {self.kind!r}")
        if self.kind == "negative-damping":
            if self.b_f is None:
                raise ConfigError("negative-damping field needs b_f")
            if not math.isfinite(self.b_f):
                raise ConfigError(f"negative-damping b_f must be finite, got {self.b_f}")
        else:
            if self.gain is None or self.delay is None:
                raise ConfigError("delayed-spring field needs gain and delay")
            if not (0 <= self.gain < math.inf and 0 <= self.delay < math.inf):
                raise ConfigError("delayed-spring gain and delay must be finite and >= 0")

    @property
    def nominal_sop(self) -> float:
        if self.kind == "negative-damping":
            return max(0.0, -self.b_f)
        return self.gain * self.delay


@dataclass(frozen=True)
class InterconnectionResult:
    verdict: str                         # "bounded" | "unbounded"
    injected_dissipation: float          # J
    field_energy: float                  # final absorbed energy of the field port, J
    budget_rate: float                   # xi_hat used by the controller, N*s/m
    min_observer_w: float                # J
    times: np.ndarray
    position: np.ndarray                 # m, along the perturbation axis
    velocity: np.ndarray                 # m/s
    force_field: np.ndarray              # N
    force_limb: np.ndarray               # N (viscoelastic reaction)
    alpha: np.ndarray                    # N*s/m
    observer_w: np.ndarray               # J
    field_energy_series: np.ndarray      # J
    injected_series: np.ndarray          # J
    seed: int
    field: ForceFieldSpec

    @property
    def bounded(self) -> bool:
        return self.verdict == "bounded"


@dataclass(frozen=True)
class SavingsReport:
    ratio: float          # with-map injected / without-map injected
    joules_saved: float   # without-map minus with-map


def _scenario_drive(
    limb: LimbParams,
    perturbation: PerturbationSpec,
    act: ActivationProfile,
    n_samples: int,
    h: float,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample times, excitation force and shifted Maxwell denominators.

    These depend on the scenario but not on the field or the map.
    ``denom_next[n]`` is the denominator of step n + 1, with a spare ``1.0``
    for the step after the last sample.
    """
    omega = 2.0 * math.pi * perturbation.frequency
    g = limb.direction_gains[perturbation.direction_index]

    # excitation force amplitude producing ~the requested displacement amplitude
    b_nominal = analytic_eop(limb, perturbation.direction_index, act.target_pct_mvc, perturbation.frequency)
    reactance = limb.stiffness - limb.mass * omega * omega
    f0 = perturbation.amplitude * math.hypot(reactance, b_nominal * omega)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
    a_series = activation_series(act, n_samples, h, rng)
    b_m_series = np.maximum(g * (limb.maxwell_damping_base + limb.maxwell_damping_gain * a_series), 1e-12)

    # in the step formulas' operand order
    times = np.arange(n_samples) * h
    f_exc = float(f0) * np.sin(float(omega) * times)
    denom_next = np.ones(n_samples)
    denom_next[:-1] = 1.0 + float(h * limb.maxwell_stiffness) / b_m_series[1:]
    return times, f_exc, denom_next


def run_interconnection(
    limb: LimbParams,
    field: ForceFieldSpec,
    perturbation: PerturbationSpec,
    act: ActivationProfile,
    gmp_map: GmpMap | None,
    duration: float,
    rate: float,
    seed: int,
    safety_factor: float,
) -> InterconnectionResult:
    """Fixed-step co-simulation of limb + force field + stabilizer.

    The handle moves freely: a sinusoidal excitation force (scaled so the
    steady response has roughly the perturbation amplitude) plays the role
    of the task, while the field and the controller forces act on the same
    axis. The run is declared unbounded as soon as |v| exceeds 1e3 times
    the perturbation amplitude, and stops there: its last sample,
    ``times[-1]``, is the first beyond that limit. ``duration`` must be the
    perturbation's; a bounded run has ``round(duration * rate) + 1`` samples.

    With a map, the controller credits xi_hat = safety_factor * lookup(...)
    at the perturbation frequency and the scenario's activation level.
    A ``safety_factor`` outside [0, 1], NaN included, is a ConfigError, as
    in ``config.validate``: a NaN budget would disable the controller and
    still report a bounded run.
    """
    if not 0 <= safety_factor <= 1:
        raise ConfigError(f"safety_factor must be within [0, 1], got {safety_factor}")
    if not MIN_COSIM_RATE_HZ <= rate < math.inf:
        raise IntegrationError(f"co-simulation rate must be finite and >= {MIN_COSIM_RATE_HZ:g} Hz, got {rate}")
    check_step_rate(rate, perturbation.frequency)
    if duration != perturbation.duration:
        raise IntegrationError(
            f"co-simulation duration {duration} s differs from the perturbation's {perturbation.duration} s"
        )

    xi_hat = 0.0
    if gmp_map is not None:
        xi_hat = safety_factor * lookup(
            gmp_map, perturbation.direction_index, act.target_pct_mvc, perturbation.frequency
        )

    h = 1.0 / rate
    n_samples = round(duration * rate) + 1
    times, f_exc_series, denom_next = _scenario_drive(limb, perturbation, act, n_samples, h, seed)
    maxwell_on = (limb.maxwell_damping_base + limb.maxwell_damping_gain) > 1e-12

    spring = field.kind == "delayed-spring"
    n_delay = round(field.delay / h) if spring else 0

    # Loop invariants as Python floats: limbs of a cohort carry numpy
    # scalars, whose arithmetic gives the same bits more slowly.
    g = limb.direction_gains[perturbation.direction_index]
    hk_m = float(h * limb.maxwell_stiffness)
    coef = float(-field.gain if spring else -field.b_f)  # f_field = coef * (x(t - delay) or v)
    g_base = float(g * limb.base_damping)
    k = float(limb.stiffness)
    h_over_m = float(h / limb.mass)
    budget = float(xi_hat)
    deadband_sq = VELOCITY_DEADBAND ** 2
    v_limit = float(1e3 * perturbation.amplitude)

    # one spare slot: the step after the last sample lands there
    pos, vel, f_limb_hist, alpha_hist = (array("d", [0.0]) * (n_samples + 1) for _ in range(4))

    x = 0.0
    v = 0.0
    f_m = 0.0
    w_obs = 0.0
    verdict = "bounded"
    end = n_samples

    for n, f_exc, denom in zip(range(n_samples), f_exc_series.tolist(), denom_next.tolist()):
        if spring:
            f_field = coef * (pos[n - n_delay] if n >= n_delay else 0.0)
        else:
            f_field = coef * v

        f_limb = g_base * v + k * x + f_m

        v_sq = v * v
        w_candidate = w_obs + -f_field * v * h + budget * v_sq * h
        if w_candidate < 0.0 and v_sq >= deadband_sq:
            alpha = -w_candidate / (v_sq * h)
        else:
            alpha = 0.0
        w_obs = w_candidate + alpha * v_sq * h

        f_limb_hist[n] = f_limb
        alpha_hist[n] = alpha

        if not -v_limit <= v <= v_limit:
            verdict = "unbounded"
            end = n + 1
            break

        # semi-implicit step: velocity from forces at n, then position
        v_new = v + h_over_m * (f_exc + f_field - f_limb - alpha * v)
        x = x + h * v_new
        if maxwell_on:
            f_m = (f_m + hk_m * v_new) / denom
        v = v_new
        pos[n + 1] = x
        vel[n + 1] = v

    def series(buf: array) -> np.ndarray:
        return np.frombuffer(buf, float)[:end]

    position, velocity, alpha = series(pos), series(vel), series(alpha_hist)
    if spring:
        # before the delay has passed the loop pushed coef * 0.0, sign of zero included
        lagged = np.zeros(end)
        lagged[n_delay:] = position[:max(end - n_delay, 0)]
        force_field = coef * lagged
    else:
        force_field = coef * velocity

    # The ledgers, summed as the loop summed them: np.add.accumulate adds
    # strictly left to right, and the leading 0.0 is the loop's starting sum.
    v_sq = velocity * velocity
    d_field = -force_field * velocity * h      # energy absorbed by the field port
    dissipated = alpha * v_sq * h

    def running_sum(*steps: np.ndarray) -> np.ndarray:
        terms = np.zeros(len(steps) * end + 1)
        for i, step in enumerate(steps, 1):
            terms[i::len(steps)] = step
        return np.add.accumulate(terms)[len(steps)::len(steps)]

    observer_w = running_sum(d_field, budget * v_sq * h, dissipated)
    field_energy = running_sum(d_field)
    injected = running_sum(dissipated)
    return InterconnectionResult(
        verdict=verdict,
        injected_dissipation=float(injected[-1]),
        field_energy=float(field_energy[-1]),
        budget_rate=xi_hat,
        min_observer_w=float(observer_w.min()),
        times=times[:end],
        position=position,
        velocity=velocity,
        force_field=force_field,
        force_limb=series(f_limb_hist),
        alpha=alpha,
        observer_w=observer_w,
        field_energy_series=field_energy,
        injected_series=injected,
        seed=seed,
        field=field,
    )


def dissipation_savings(
    with_map: InterconnectionResult, without_map: InterconnectionResult
) -> SavingsReport:
    """Compare cumulative injected dissipation of two runs of one scenario."""
    for name, run in (("with_map", with_map), ("without_map", without_map)):
        if not run.bounded:
            raise InvalidComparisonError(f"{name} run is unbounded; nothing to compare")
    if with_map.seed != without_map.seed or with_map.field != without_map.field:
        raise InvalidComparisonError("runs come from different scenarios (seed/field mismatch)")
    saved = without_map.injected_dissipation - with_map.injected_dissipation
    if without_map.injected_dissipation <= LEDGER_TOL_J:
        ratio = 1.0 if with_map.injected_dissipation <= LEDGER_TOL_J else math.inf
    else:
        ratio = with_map.injected_dissipation / without_map.injected_dissipation
    return SavingsReport(ratio=ratio, joules_saved=saved)
