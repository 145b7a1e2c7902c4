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

The step loop runs on Python floats: the excitation and the Maxwell
denominators are precomputed per step (the excitation with ``math.sin``,
since ``np.sin`` may differ from the C library in the last bit), and the
histories go to ``array('d')`` buffers.
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
)
from .errors import ConfigError, IntegrationError, InvalidComparisonError
from .gmp import GmpMap, lookup

FIELD_KINDS = ("negative-damping", "delayed-spring")

VELOCITY_DEADBAND = 1e-6     # m/s
LEDGER_TOL_J = 1e-9
DEFAULT_SAFETY_FACTOR = 0.8


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
        else:
            if self.gain is None or self.delay is None:
                raise ConfigError("delayed-spring field needs gain and delay")
            if self.gain < 0 or self.delay < 0:
                raise ConfigError("delayed-spring gain and delay must be >= 0")

    @property
    def nominal_sop(self) -> float:
        if self.kind == "negative-damping":
            return max(0.0, -self.b_f)
        return self.gain * self.delay


@dataclass(frozen=True)
class InterconnectionResult:
    verdict: str                         # "bounded" | "unbounded"
    unbounded_time: float | None
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
    seed: int = 0
    field: ForceFieldSpec | None = None

    @property
    def bounded(self) -> bool:
        return self.verdict == "bounded"


@dataclass(frozen=True)
class SavingsReport:
    ratio: float          # with-map injected / without-map injected
    joules_saved: float   # without-map minus with-map


def run_interconnection(
    limb: LimbParams,
    field: ForceFieldSpec,
    perturbation: PerturbationSpec,
    act: ActivationProfile | None = None,
    gmp_map: GmpMap | None = None,
    duration: float = 10.0,
    rate: float = 1000.0,
    seed: int = 0,
    safety_factor: float = DEFAULT_SAFETY_FACTOR,
    pct_for_lookup: float | None = None,
) -> InterconnectionResult:
    """Fixed-step co-simulation of limb + force field + stabilizer.

    The handle moves freely: a sinusoidal excitation force (scaled so the
    steady response has roughly the perturbation amplitude) plays the role
    of the task, while the field and the controller forces act on the same
    axis. The run is declared unbounded as soon as |v| exceeds 1e3 times
    the perturbation amplitude.

    With a map, the controller credits xi_hat = safety_factor * lookup(...)
    at the perturbation frequency and the scenario's activation level
    (``pct_for_lookup`` overrides the activation target as the %MVC query).
    """
    if rate < 1000.0:
        raise IntegrationError(f"co-simulation rate must be >= 1 kHz, got {rate}")
    act = act or ActivationProfile(target_pct_mvc=0.4)

    xi_hat = 0.0
    if gmp_map is not None:
        pct = act.target_pct_mvc if pct_for_lookup is None else pct_for_lookup
        xi_hat = safety_factor * lookup(
            gmp_map, perturbation.direction_index, pct, perturbation.frequency
        )

    h = 1.0 / rate
    n_steps = round(duration * rate)
    n_samples = n_steps + 1
    omega = 2.0 * math.pi * perturbation.frequency
    g = limb.direction_gains[perturbation.direction_index]

    # excitation force amplitude producing ~the requested displacement amplitude
    b_nominal = analytic_eop(
        limb, perturbation.direction_index, act.target_pct_mvc, perturbation.frequency
    )
    reactance = limb.stiffness - limb.mass * omega * omega
    f0 = perturbation.amplitude * math.hypot(reactance, b_nominal * omega)

    rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
    a_series = activation_series(act, n_samples, h, rng)
    b_m_series = np.maximum(
        g * (limb.maxwell_damping_base + limb.maxwell_damping_gain * a_series), 1e-12
    )
    maxwell_on = (limb.maxwell_damping_base + limb.maxwell_damping_gain) > 1e-12

    spring = field.kind == "delayed-spring"
    n_delay = round(field.delay / h) if spring else 0

    # Per-step inputs and loop invariants, computed with the loop's own
    # operand order so every sample is bit-identical to evaluating it in
    # place. The invariants are Python floats: limbs of a cohort carry numpy
    # scalars, whose arithmetic gives the same bits more slowly.
    times = np.arange(n_samples) * h
    sin = math.sin
    isfinite = math.isfinite
    f0, omega = float(f0), float(omega)
    f_exc_series = [f0 * sin(omega * t) for t in times.tolist()]
    hk_m = float(h * limb.maxwell_stiffness)
    maxwell_denom = (1.0 + hk_m / b_m_series).tolist()
    coef = float(-field.gain if spring else -field.b_f)  # f_field = coef * (x(t - delay) or v)
    g_base = float(g * limb.base_damping)
    k = float(limb.stiffness)
    h_over_m = float(h / limb.mass)
    budget = float(xi_hat)
    deadband_sq = VELOCITY_DEADBAND ** 2

    pos, vel, f_field_hist, f_limb_hist, alpha_hist, w_hist, e_field_hist, injected_hist = (
        array("d", [0.0]) * n_samples for _ in range(8)
    )

    x = 0.0
    v = 0.0
    f_m = 0.0
    w_obs = 0.0
    e_field = 0.0
    injected = 0.0
    v_limit = 1e3 * perturbation.amplitude
    verdict = "bounded"
    unbounded_time = None
    last = n_samples - 1

    for n in range(n_samples):
        if spring:
            f_field = coef * (pos[n - n_delay] if n >= n_delay else 0.0)
        else:
            f_field = coef * v

        f_limb = g_base * v + k * x + f_m

        v_sq = v * v
        delta_field = -f_field * v * h          # energy absorbed by the field port
        delta_budget = budget * v_sq * h
        w_candidate = w_obs + delta_field + delta_budget
        if w_candidate < 0.0 and v_sq >= deadband_sq:
            alpha = -w_candidate / (v_sq * h)
        else:
            alpha = 0.0
        dissipated = alpha * v_sq * h
        w_obs = w_candidate + dissipated
        e_field += delta_field
        injected += dissipated

        f_field_hist[n] = f_field
        f_limb_hist[n] = f_limb
        alpha_hist[n] = alpha
        w_hist[n] = w_obs
        e_field_hist[n] = e_field
        injected_hist[n] = injected

        if abs(v) > v_limit or not isfinite(v):
            verdict = "unbounded"
            unbounded_time = float(times[n])
            last = n
            break
        if n == last:
            break

        # semi-implicit step: velocity from forces at n, then position
        v_new = v + h_over_m * (f_exc_series[n] + f_field - f_limb - alpha * v)
        x = x + h * v_new
        if maxwell_on:
            f_m = (f_m + hk_m * v_new) / maxwell_denom[n + 1]
        v = v_new
        pos[n + 1] = x
        vel[n + 1] = v

    end = last + 1

    def series(buf: array) -> np.ndarray:
        return np.frombuffer(buf, float)[:end]

    observer_w = series(w_hist)
    return InterconnectionResult(
        verdict=verdict,
        unbounded_time=unbounded_time,
        injected_dissipation=injected,
        field_energy=e_field,
        budget_rate=xi_hat,
        min_observer_w=float(observer_w.min()),
        times=times[:end],
        position=series(pos),
        velocity=series(vel),
        force_field=series(f_field_hist),
        force_limb=series(f_limb_hist),
        alpha=series(alpha_hist),
        observer_w=observer_w,
        field_energy_series=series(e_field_hist),
        injected_series=series(injected_hist),
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
