import dataclasses
import math

import numpy as np
import pytest

from gmpkit.biomech import (
    ActivationProfile,
    LimbParams,
    PerturbationSpec,
    activation_series,
    analytic_eop,
    check_step_rate,
    make_cohort,
)
from gmpkit.errors import ConfigError, IntegrationError, InvalidComparisonError, MapRangeError
from gmpkit.gmp import GmpMap, build_map, lookup
from gmpkit.passivity import EopEstimate
from gmpkit.stabilizer import (
    DEFAULT_SAFETY_FACTOR,
    LEDGER_TOL_J,
    VELOCITY_DEADBAND,
    ForceFieldSpec,
    InterconnectionResult,
    _scenario_drive,
    dissipation_savings,
    run_interconnection,
)

LIMB = LimbParams()
PERT = PerturbationSpec(frequency=1.0, amplitude=0.03, direction_index=0, duration=10.0)
SHORT_PERT = dataclasses.replace(PERT, duration=5.0)
ACT = ActivationProfile(target_pct_mvc=0.4)


def constant_map(xi, subject="MAP"):
    cells = [
        EopEstimate(subject, d, act, freq, float(xi), pct, float(xi), 1.0, None, hz)
        for d in range(8)
        for act, pct in (("relaxed", 0.05), ("stiff", 0.40))
        for freq, hz in (("low", 1.0), ("high", 3.0))
    ]
    return build_map(cells, subject)


def run(field, gmp_map=None, seed=3, safety_factor=0.8, perturbation=PERT):
    return run_interconnection(
        LIMB, field, perturbation, ACT, gmp_map=gmp_map,
        duration=perturbation.duration, rate=1000.0, seed=seed, safety_factor=safety_factor,
    )


def test_field_spec_validation():
    assert ForceFieldSpec(kind="negative-damping", b_f=-5.0).nominal_sop == 5.0
    assert ForceFieldSpec(kind="negative-damping", b_f=3.0).nominal_sop == 0.0
    spring = ForceFieldSpec(kind="delayed-spring", gain=200.0, delay=0.02)
    assert spring.nominal_sop == pytest.approx(4.0)
    with pytest.raises(ConfigError):
        ForceFieldSpec(kind="negative-damping")
    with pytest.raises(ConfigError):
        ForceFieldSpec(kind="delayed-spring", gain=200.0)
    with pytest.raises(ConfigError):
        ForceFieldSpec(kind="anti-gravity")
    for bad in (dict(kind="negative-damping", b_f=math.nan),
                dict(kind="negative-damping", b_f=-math.inf),
                dict(kind="delayed-spring", gain=math.inf, delay=0.02),
                dict(kind="delayed-spring", gain=200.0, delay=math.nan)):
        with pytest.raises(ConfigError):
            ForceFieldSpec(**bad)


@pytest.mark.parametrize("name, value", [
    ("frequency", math.inf), ("amplitude", math.nan), ("amplitude", math.inf),
    ("duration", math.nan), ("duration", math.inf),
])
def test_perturbation_spec_refuses_non_finite_values(name, value):
    with pytest.raises(ValueError):
        dataclasses.replace(PERT, **{name: value})


def test_passive_field_never_triggers_damping():
    result = run(ForceFieldSpec(kind="negative-damping", b_f=4.0), constant_map(15.0))
    assert result.bounded
    assert np.all(result.alpha == 0.0)
    assert result.injected_dissipation == 0.0


def test_budget_covering_field_sop_injects_nothing():
    # field SoP 5 < 0.8 * 15 = 12: the biomechanical budget covers the deficit
    result = run(ForceFieldSpec(kind="negative-damping", b_f=-5.0), constant_map(15.0))
    assert result.bounded
    assert result.budget_rate == pytest.approx(12.0)
    assert result.injected_dissipation == 0.0
    assert np.all(result.alpha == 0.0)


def test_plain_tdpa_covers_extraction():
    result = run(ForceFieldSpec(kind="negative-damping", b_f=-5.0), gmp_map=None)
    assert result.bounded
    assert result.injected_dissipation > 0.0
    extracted = -result.field_energy
    assert result.injected_dissipation >= extracted - 1e-9
    assert result.min_observer_w >= -1e-9


def test_savings_identical_runs():
    a = run(ForceFieldSpec(kind="negative-damping", b_f=-5.0), constant_map(15.0))
    b = run(ForceFieldSpec(kind="negative-damping", b_f=-5.0), constant_map(15.0))
    report = dissipation_savings(a, b)
    assert report.ratio == 1.0
    assert report.joules_saved == 0.0


def test_full_budget_saves_everything():
    field = ForceFieldSpec(kind="negative-damping", b_f=-5.0)
    baseline = run(field, gmp_map=None)
    with_map = run(field, constant_map(15.0))
    report = dissipation_savings(with_map, baseline)
    assert with_map.injected_dissipation == 0.0
    assert report.joules_saved == pytest.approx(baseline.injected_dissipation)
    assert report.ratio == 0.0


def test_half_budget_saves_partially():
    field = ForceFieldSpec(kind="negative-damping", b_f=-5.0)
    baseline = run(field, gmp_map=None, safety_factor=1.0)
    with_half = run(field, constant_map(2.5), safety_factor=1.0)
    report = dissipation_savings(with_half, baseline)
    assert 0.0 < report.ratio < 1.0
    assert 0.0 < report.joules_saved < baseline.injected_dissipation


def test_zero_budget_reproduces_plain_tdpa():
    field = ForceFieldSpec(kind="negative-damping", b_f=-5.0)
    plain = run(field, gmp_map=None)
    zero_map = run(field, constant_map(0.0))
    assert abs(plain.injected_dissipation - zero_map.injected_dissipation) <= 1e-9
    np.testing.assert_allclose(plain.alpha, zero_map.alpha, atol=1e-12)


def test_budget_never_hurts_across_seeded_scenarios():
    for seed in range(5):
        for b_f in (-3.0, -8.0, -15.0):
            field = ForceFieldSpec(kind="negative-damping", b_f=b_f)
            baseline = run(field, gmp_map=None, seed=seed, perturbation=SHORT_PERT)
            with_map = run(field, constant_map(15.0), seed=seed, perturbation=SHORT_PERT)
            assert baseline.bounded and with_map.bounded
            assert with_map.injected_dissipation <= baseline.injected_dissipation + 1e-9


def test_safe_underestimation_stays_bounded():
    true_eop = analytic_eop(LIMB, 0, 0.4, 1.0)
    field = ForceFieldSpec(kind="negative-damping", b_f=-0.9 * true_eop)
    result = run(field, constant_map(0.5 * true_eop), safety_factor=1.0)
    assert result.bounded
    assert result.min_observer_w >= -1e-9


def test_overestimated_budget_detected_as_unbounded():
    # a lying map grants more budget than the limb can dissipate; the field
    # out-pumps the real limb and the run must be flagged, not trusted
    true_eop = analytic_eop(LIMB, 0, 0.4, 1.0)
    field = ForceFieldSpec(kind="negative-damping", b_f=-(4.0 * true_eop))
    result = run(field, constant_map(3.0 * true_eop), safety_factor=1.0)
    assert not result.bounded
    assert result.times[-1] < PERT.duration  # stopped early
    baseline = run(field, gmp_map=None)
    with pytest.raises(InvalidComparisonError):
        dissipation_savings(result, baseline)


def test_savings_requires_matching_scenarios():
    field = ForceFieldSpec(kind="negative-damping", b_f=-5.0)
    a = run(field, constant_map(15.0), seed=1)
    b = run(field, gmp_map=None, seed=2)
    with pytest.raises(InvalidComparisonError):
        dissipation_savings(a, b)


def test_delayed_spring_field_extracts_energy():
    field = ForceFieldSpec(kind="delayed-spring", gain=400.0, delay=0.05)
    result = run(field, gmp_map=None)
    assert result.bounded
    assert result.field_energy < 0.0          # the delay makes it generate
    assert result.injected_dissipation > 0.0
    assert result.min_observer_w >= -1e-9


def test_budgeted_ledger_invariant_holds_everywhere():
    for field in (
        ForceFieldSpec(kind="negative-damping", b_f=-5.0),
        ForceFieldSpec(kind="delayed-spring", gain=300.0, delay=0.02),
    ):
        for gmp_map in (None, constant_map(10.0)):
            result = run(field, gmp_map, perturbation=SHORT_PERT)
            assert np.min(result.observer_w) >= -1e-9


def test_lookup_frequency_must_be_on_map():
    field = ForceFieldSpec(kind="negative-damping", b_f=-5.0)
    pert = dataclasses.replace(PERT, frequency=5.0)
    with pytest.raises(MapRangeError):
        run(field, constant_map(15.0), perturbation=pert)


def test_rate_precondition():
    field = ForceFieldSpec(kind="negative-damping", b_f=-5.0)
    for rate in (500.0, math.nan, math.inf):
        with pytest.raises(IntegrationError):
            run_interconnection(LIMB, field, PERT, ACT, None, PERT.duration, rate, 3, DEFAULT_SAFETY_FACTOR)
    # the run's duration is the perturbation's, 10 s
    for duration in (math.nan, math.inf, -1.0, 5.0):
        with pytest.raises(IntegrationError, match="differs from the perturbation's 10.0 s"):
            run_interconnection(LIMB, field, PERT, ACT, None, duration, 1000.0, 3, DEFAULT_SAFETY_FACTOR)


def test_step_rule_is_the_trials():
    # a trial needs MIN_SAMPLES_PER_PERIOD samples per period; so does the co-simulation
    field = ForceFieldSpec(kind="negative-damping", b_f=-5.0)
    for hz in (51.0, 400.0):
        with pytest.raises(IntegrationError, match="integration step too large") as refused:
            run(field, perturbation=dataclasses.replace(SHORT_PERT, frequency=hz, duration=0.5))
        with pytest.raises(IntegrationError) as rule:
            check_step_rate(1000.0, hz)
        assert str(refused.value) == str(rule.value)
    assert run(field, perturbation=dataclasses.replace(SHORT_PERT, frequency=50.0, duration=0.5)).times.size == 501


def test_runs_are_seed_deterministic():
    field = ForceFieldSpec(kind="negative-damping", b_f=-5.0)
    a = run(field, gmp_map=None, seed=9)
    b = run(field, gmp_map=None, seed=9)
    np.testing.assert_array_equal(a.velocity, b.velocity)
    assert a.injected_dissipation == b.injected_dissipation


def _reference_interconnection(
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
    """``run_interconnection`` as a per-step loop over numpy histories.

    The loop as it stood before the co-simulation was tightened, kept
    verbatim as the reference: the tightened loop must reproduce every
    array and scalar of its result bit for bit.
    """
    if rate < 1000.0:
        raise IntegrationError(f"co-simulation rate must be >= 1 kHz, got {rate}")

    xi_hat = 0.0
    if gmp_map is not None:
        xi_hat = safety_factor * lookup(
            gmp_map, perturbation.direction_index, act.target_pct_mvc, perturbation.frequency
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

    n_delay = 0
    if field.kind == "delayed-spring":
        n_delay = round(field.delay / h)

    times = np.arange(n_samples) * h
    pos = np.zeros(n_samples)
    vel = np.zeros(n_samples)
    f_field_hist = np.zeros(n_samples)
    f_limb_hist = np.zeros(n_samples)
    alpha_hist = np.zeros(n_samples)
    w_hist = np.zeros(n_samples)
    e_field_hist = np.zeros(n_samples)
    injected_hist = np.zeros(n_samples)

    x = 0.0
    v = 0.0
    f_m = 0.0
    w_obs = 0.0
    e_field = 0.0
    injected = 0.0
    v_limit = 1e3 * perturbation.amplitude
    verdict = "bounded"
    k_m = limb.maxwell_stiffness
    last = n_samples - 1

    for n in range(n_samples):
        if field.kind == "negative-damping":
            f_field = -field.b_f * v
        else:
            x_delayed = pos[n - n_delay] if n >= n_delay else 0.0
            f_field = -field.gain * x_delayed

        f_limb = g * limb.base_damping * v + limb.stiffness * x + f_m
        f_exc = f0 * math.sin(omega * times[n])

        v_sq = v * v
        delta_field = -f_field * v * h          # energy absorbed by the field port
        delta_budget = xi_hat * v_sq * h
        w_candidate = w_obs + delta_field + delta_budget
        if w_candidate < 0.0 and v_sq >= VELOCITY_DEADBAND ** 2:
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

        if abs(v) > v_limit or not math.isfinite(v):
            verdict = "unbounded"
            last = n
            break
        if n == n_samples - 1:
            break

        # semi-implicit step: velocity from forces at n, then position
        v_new = v + (h / limb.mass) * (f_exc + f_field - f_limb - alpha * v)
        x = x + h * v_new
        if maxwell_on:
            f_m = (f_m + h * k_m * v_new) / (1.0 + h * k_m / b_m_series[n + 1])
        v = v_new
        pos[n + 1] = x
        vel[n + 1] = v

    end = last + 1
    return InterconnectionResult(
        verdict=verdict,
        injected_dissipation=float(injected_hist[last]),
        field_energy=float(e_field_hist[last]),
        budget_rate=xi_hat,
        min_observer_w=float(w_hist[:end].min()),
        times=times[:end],
        position=pos[:end],
        velocity=vel[:end],
        force_field=f_field_hist[:end],
        force_limb=f_limb_hist[:end],
        alpha=alpha_hist[:end],
        observer_w=w_hist[:end],
        field_energy_series=e_field_hist[:end],
        injected_series=injected_hist[:end],
        seed=seed,
        field=field,
    )



NEGATIVE_DAMPER = ForceFieldSpec(kind="negative-damping", b_f=-5.0)
REFERENCE_PERT = dataclasses.replace(PERT, duration=3.0)
DELAYED_SPRING = ForceFieldSpec(kind="delayed-spring", gain=300.0, delay=0.02)
TRUE_EOP = analytic_eop(LIMB, 0, 0.4, 1.0)

REFERENCE_CASES = {
    "damper-no-map": dict(field=NEGATIVE_DAMPER),
    "damper-map": dict(field=NEGATIVE_DAMPER, gmp_map=constant_map(2.7)),
    "spring-no-map": dict(field=DELAYED_SPRING),
    "spring-map": dict(field=DELAYED_SPRING, gmp_map=constant_map(10.3)),
    "unbounded": dict(field=ForceFieldSpec(kind="negative-damping", b_f=-4.0 * TRUE_EOP),
                      gmp_map=constant_map(3.0 * TRUE_EOP), safety_factor=1.0),
    "maxwell-off": dict(field=DELAYED_SPRING, gmp_map=constant_map(2.7),
                        limb=LimbParams(maxwell_damping_base=0.0, maxwell_damping_gain=0.0)),
    "delay-beyond-run": dict(field=ForceFieldSpec(kind="delayed-spring", gain=300.0, delay=0.5),
                             perturbation=dataclasses.replace(PERT, duration=0.2), duration=0.2),
    "rate-2000": dict(field=NEGATIVE_DAMPER, gmp_map=constant_map(2.7), rate=2000.0),
    "cohort-limb": dict(field=DELAYED_SPRING, gmp_map=constant_map(2.7),
                        limb=make_cohort(1, 0.2, 2, LIMB)[0].params),
    # a zero velocity limit, and a spring that reads the current position
    "zero-amplitude": dict(field=NEGATIVE_DAMPER, gmp_map=constant_map(2.7),
                           perturbation=dataclasses.replace(REFERENCE_PERT, amplitude=0.0)),
    "spring-no-delay": dict(field=ForceFieldSpec(kind="delayed-spring", gain=300.0, delay=0.0),
                            gmp_map=constant_map(2.7)),
}


def assert_bit_identical(expected, result):
    for spec in dataclasses.fields(InterconnectionResult):
        want, got = getattr(expected, spec.name), getattr(result, spec.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, spec.name
            assert got.tobytes() == want.tobytes(), spec.name
        else:
            assert type(got) is type(want) and repr(got) == repr(want), spec.name


def reference_kwargs(case):
    """All arguments of a reference case: a 3 s run, unless the case says otherwise."""
    kwargs = dict(limb=LIMB, perturbation=REFERENCE_PERT, act=ACT, gmp_map=None, duration=3.0,
                  rate=1000.0, seed=3, safety_factor=DEFAULT_SAFETY_FACTOR)
    kwargs.update(case)
    return kwargs


@pytest.mark.parametrize("case", REFERENCE_CASES.values(), ids=REFERENCE_CASES.keys())
def test_loop_bit_identical_to_reference(case):
    kwargs = reference_kwargs(case)
    assert_bit_identical(_reference_interconnection(**kwargs), run_interconnection(**kwargs))


def test_scenario_drive_is_shared_and_read_only():
    kwargs = reference_kwargs(dict(field=DELAYED_SPRING))
    with_map = dict(kwargs, gmp_map=constant_map(2.7))
    _scenario_drive.cache_clear()
    run_interconnection(**kwargs)
    first = run_interconnection(**with_map)
    assert _scenario_drive.cache_info().hits == 1   # the with-map run reused the drive
    _scenario_drive.cache_clear()
    again = run_interconnection(**with_map)
    assert _scenario_drive.cache_info().misses == 1
    assert_bit_identical(first, again)
    drive = _scenario_drive(LIMB, REFERENCE_PERT, ACT, 3001, 1e-3, 3)
    assert len(drive) == 3 and not any(array.flags.writeable for array in drive)
    assert not first.times.flags.writeable


def test_reference_cases_reach_early_stop_and_long_delay():
    unbounded = run_interconnection(**reference_kwargs(REFERENCE_CASES["unbounded"]))
    assert not unbounded.bounded
    assert unbounded.times[-1] < 3.0
    # it stops at the first sample beyond the velocity limit
    v_limit = 1e3 * REFERENCE_PERT.amplitude
    assert abs(unbounded.velocity[-1]) > v_limit >= np.abs(unbounded.velocity[:-1]).max()
    assert all(len(getattr(unbounded, name)) == len(unbounded.times) < 3001
               for name in ("position", "velocity", "force_field", "alpha", "injected_series"))
    # the spring's delay outlasts the run, so it never pushes
    delayed = run_interconnection(**reference_kwargs(REFERENCE_CASES["delay-beyond-run"]))
    assert len(delayed.times) == 201
    assert np.all(delayed.force_field == 0.0)


@pytest.mark.xfail(
    strict=True,
    reason="the observer ledger dips below LEDGER_TOL_J (to -1.85e-9 J) while the velocity "
           "is inside the deadband, where the controller injects nothing",
)
def test_observer_ledger_holds_inside_velocity_deadband():
    limb = make_cohort(1, 0.2, 2, LIMB)[0].params
    result = run_interconnection(
        limb, ForceFieldSpec(kind="delayed-spring", gain=300.0, delay=0.02),
        PerturbationSpec(frequency=1.0, amplitude=0.03, direction_index=2, duration=10.0),
        ActivationProfile(target_pct_mvc=0.4), None, 10.0, 1000.0, 2, DEFAULT_SAFETY_FACTOR,
    )
    assert result.min_observer_w >= -LEDGER_TOL_J
