"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion (a failed assertion shows up as the test's FAILED line).
"""

import itertools
import time

import numpy as np
import pytest

from gmpkit import cli
from gmpkit.biomech import (
    DEFAULT_MVC_RMS_MV,
    ActivationProfile,
    LimbParams,
    PerturbationSpec,
    analytic_eop,
    load_trial_csv,
    simulate_trial,
)
from gmpkit.config import default_config
from gmpkit.emg import EMG_RATE, FEEDBACK_CHANNELS, RMS_STRIDE_S, RMS_WINDOW_S, MvcCalibration
from gmpkit.gmp import lookup
from gmpkit.passivity import energy_ledger, estimate_eop, is_passive
from gmpkit.signals import SampledSignal, Window
from gmpkit.stabilizer import ForceFieldSpec, dissipation_savings, run_interconnection
from gmpkit.stats import PairedSample, ks_statistic, wilcoxon_signed_rank
from gmpkit.study import analyze_study, simulate_study, stats_study, trial_file, trial_plan

ANALYSIS_WINDOW = Window(5.0, 10.0)
CAL = MvcCalibration(DEFAULT_MVC_RMS_MV)
# the [emg] settings, at their config defaults: feedback channels, RMS window and stride
EMG_SETTINGS = (FEEDBACK_CHANNELS, RMS_WINDOW_S, RMS_STRIDE_S)


def ok(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS — {detail}")


@pytest.fixture(scope="module")
def full_study(tmp_path_factory):
    """Default 5-subject study: simulate + analyze + stats, timed."""
    out = tmp_path_factory.mktemp("study")
    config = default_config()
    started = time.perf_counter()
    manifest = simulate_study(config, out)
    analysis = analyze_study(out, config)
    report = stats_study(analysis.estimates, out)
    elapsed = time.perf_counter() - started
    return {
        "out": out,
        "config": config,
        "manifest": manifest,
        "analysis": analysis,
        "report": report,
        "elapsed": elapsed,
    }


def test_criterion_1_analytic_eop_recovery():
    params = LimbParams(
        base_damping=17.0, maxwell_damping_base=0.0, maxwell_damping_gain=0.0,
        direction_gains=(1.0,) * 8,
    )
    spec = PerturbationSpec(frequency=1.0, amplitude=0.03, direction_index=0, duration=10.0)
    started = time.perf_counter()
    trial = simulate_trial(params, spec, ActivationProfile(0.0), seed=0, rate=1000.0,
                           mvc_rms=DEFAULT_MVC_RMS_MV, emg_rate=EMG_RATE, subject_id="S1",
                           activation_label="relaxed", frequency_label="low")
    est = estimate_eop(trial, ANALYSIS_WINDOW, CAL, *EMG_SETTINGS)
    elapsed = time.perf_counter() - started
    rel_err = abs(est.xi - 17.0) / 17.0
    assert rel_err < 1e-3
    assert elapsed < 1.0
    ok(1, f"Kelvin-Voigt EoP {est.xi:.6f} vs 17 (rel err {rel_err:.2e}), {elapsed:.3f}s/trial")


def test_criterion_2_model_vs_simulation_consistency():
    params = LimbParams()
    started = time.perf_counter()
    worst = 0.0
    for direction, (act_label, activation), (freq_label, frequency) in itertools.product(
        range(8), (("relaxed", 0.05), ("stiff", 0.40)), (("low", 1.0), ("high", 3.0))
    ):
        spec = PerturbationSpec(frequency=frequency, amplitude=0.03, direction_index=direction,
                                duration=10.0)
        trial = simulate_trial(
            params, spec, ActivationProfile(activation), seed=direction, rate=1000.0,
            mvc_rms=DEFAULT_MVC_RMS_MV, emg_rate=EMG_RATE, subject_id="S1",
            activation_label=act_label, frequency_label=freq_label,
        )
        est = estimate_eop(trial, ANALYSIS_WINDOW, CAL, *EMG_SETTINGS)
        reference = analytic_eop(params, direction, activation, frequency)
        worst = max(worst, abs(est.xi - reference) / reference)
    elapsed = time.perf_counter() - started
    assert worst < 0.01
    assert elapsed < 30.0
    ok(2, f"32 cells, worst analytic-vs-pipeline deviation {worst:.2%}, {elapsed:.1f}s")


def test_criterion_3_qualitative_reproduction(full_study):
    analysis = full_study["analysis"]
    report = full_study["report"]
    maps = analysis.maps
    subjects = sorted(maps)
    assert len(subjects) == 5 and all(maps[s].complete for s in subjects)

    # (a) low-frequency EoP exceeds high-frequency EoP in every cell,
    # and the cohort median map preserves the ordering
    for gmp_map in (*(maps[s] for s in subjects), analysis.median):
        for direction in range(8):
            for activation in ("relaxed", "stiff"):
                low = gmp_map.cells[(direction, activation, "low")].xi
                high = gmp_map.cells[(direction, activation, "high")].xi
                assert low > high, (gmp_map.subject_id, direction, activation)

    # (b) stiff exceeds relaxed in >= 7 of 8 directions per subject at 1 Hz
    for subject in subjects:
        wins = sum(
            maps[subject].cells[(d, "stiff", "low")].xi > maps[subject].cells[(d, "relaxed", "low")].xi
            for d in range(8)
        )
        assert wins >= 7, (subject, wins)

    # (c) Wilcoxon on the 40-value groups: both contrasts significant
    contrasts = report["contrasts"]
    for name in (
        "frequency_effect_relaxed", "frequency_effect_stiff",
        "activation_effect_low", "activation_effect_high",
    ):
        assert contrasts[name]["n"] == 40
        assert contrasts[name]["p_value"] < 0.05, (name, contrasts[name])

    # (d) per-subject slope ordering and significant slope contrast
    slopes = report["slopes"]["per_subject"]
    for subject in subjects:
        assert slopes[subject]["low"]["slope"] > slopes[subject]["high"]["slope"], subject
    assert report["slopes"]["contrast"]["p_value"] < 0.05

    assert full_study["elapsed"] < 300.0
    ok(3, f"5-subject study reproduces all four findings, {full_study['elapsed']:.0f}s")


def test_criterion_4_statistics_oracles():
    # exact Wilcoxon p equals brute-force enumeration over sign patterns
    rng = np.random.default_rng(20240914)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(5, 13))
        d = rng.normal(size=n)
        while np.any(d == 0) or len(np.unique(np.abs(d))) < n:
            d = rng.normal(size=n)
        sample = PairedSample(tuple(d), (0.0,) * n)
        mine = wilcoxon_signed_rank(sample, "two-sided")
        assert mine.method == "exact"
        ranks = {v: r + 1 for r, v in enumerate(sorted(np.abs(d)))}
        w_obs = sum(ranks[abs(v)] for v in d if v > 0)
        mu = n * (n + 1) / 4.0
        count = 0
        for signs in itertools.product((0, 1), repeat=n):
            w = sum(r for r, s in zip(sorted(ranks.values()), signs) if s)
            count += abs(w - mu) >= abs(w_obs - mu) - 1e-9
        assert abs(mine.p_value - count / 2.0 ** n) <= 1e-12
        checked += 1
    assert checked == 20

    all_positive = wilcoxon_signed_rank(PairedSample((1.0, 2.0, 3.0, 4.0, 5.0), (0.0,) * 5))
    assert all_positive.p_value == 0.0625

    d_stat = ks_statistic([0.1, 0.5, 0.9], lambda v: min(1.0, max(0.0, v)))
    assert d_stat == pytest.approx(7.0 / 30.0, abs=1e-15)
    ok(4, "Wilcoxon exact == enumeration (20 samples), p(n=5 all+) = 0.0625, KS D = 7/30")


def test_criterion_5_passivity_ledger(full_study):
    out = full_study["out"]
    manifest = full_study["manifest"]
    worst = np.inf
    n_trials = 0
    for subject in manifest["subjects"]:
        for _, trial_id, test, spec in trial_plan(full_study["config"], subject["subject_id"]):
            rel = trial_file(trial_id)
            trial = load_trial_csv(out / rel, manifest["streams"], spec, subject["subject_id"],
                                   crc32=subject["crc32"][rel], activation_label=test["activation_label"],
                                   frequency_label=test["frequency_label"])
            verdict = is_passive(energy_ledger(trial.force, trial.velocity))
            worst = min(worst, verdict.min_margin)
            assert verdict.passive, (trial_id, verdict)
            n_trials += 1
    assert n_trials == 160
    assert worst >= -1e-9

    # a negative damper port must be flagged at the first step
    rate = 1000.0
    t = np.arange(1001) / rate
    y = SampledSignal(rate, 0.0, ("v",), np.cos(2 * np.pi * t))
    u = SampledSignal(rate, 0.0, ("f",), -y.data)
    verdict = is_passive(energy_ledger(u, y))
    assert not verdict.passive
    assert verdict.first_violation_time == pytest.approx(1.0 / rate)
    ok(5, f"all 160 trials passive (worst margin {worst:.2e} J); negative damper flagged at t=1ms")


def test_criterion_6_stabilizer(full_study):
    median = full_study["analysis"].median
    assert median is not None
    limb = full_study["config"].limb
    act = ActivationProfile(target_pct_mvc=0.4)

    def scenario(field, gmp_map, seed, frequency=1.0, direction=0, safety=0.8):
        pert = PerturbationSpec(frequency=frequency, amplitude=0.03, direction_index=direction,
                                duration=5.0)
        return run_interconnection(
            limb, field, pert, act, gmp_map=gmp_map, duration=5.0, rate=1000.0,
            seed=seed, safety_factor=safety,
        )

    # (a) field SoP below 0.8 * map prediction: bounded, zero injected
    budget = 0.8 * lookup(median, 0, 0.4, 1.0)
    weak_field = ForceFieldSpec(kind="negative-damping", b_f=-0.8 * budget)
    run_a = scenario(weak_field, median, seed=1)
    assert run_a.bounded and run_a.injected_dissipation == 0.0

    # (b) same field without a map: bounded, positive injected, ledger >= -1e-9
    run_b = scenario(weak_field, None, seed=1)
    assert run_b.bounded
    assert run_b.injected_dissipation > 0.0
    assert run_b.min_observer_w >= -1e-9

    # (c) with-map dissipation <= without-map in all 20 seeded scenarios
    wins = 0
    for seed in range(5):
        for frequency, direction, fraction in (
            (1.0, 0, 0.5), (1.0, 0, 1.1), (3.0, 4, 0.5), (3.0, 4, 1.1),
        ):
            budget = 0.8 * lookup(median, direction, 0.4, frequency)
            field = ForceFieldSpec(kind="negative-damping", b_f=-fraction * budget)
            with_map = scenario(field, median, seed=seed, frequency=frequency, direction=direction)
            without = scenario(field, None, seed=seed, frequency=frequency, direction=direction)
            assert with_map.bounded and without.bounded
            assert with_map.injected_dissipation <= without.injected_dissipation + 1e-12
            wins += 1
    assert wins == 20

    # (d) zero budget reproduces the plain stabilizer's injected energy
    field = ForceFieldSpec(kind="negative-damping", b_f=-6.0)
    plain = scenario(field, None, seed=9)
    from gmpkit.gmp import build_map
    from gmpkit.passivity import EopEstimate

    zero_map = build_map(
        [
            EopEstimate("Z", d, a, f, 0.0, p, 0.0, 1.0, None, hz)
            for d in range(8)
            for a, p in (("relaxed", 0.05), ("stiff", 0.4))
            for f, hz in (("low", 1.0), ("high", 3.0))
        ],
        "Z",
    )
    zero = scenario(field, zero_map, seed=9, safety=1.0)
    assert abs(plain.injected_dissipation - zero.injected_dissipation) <= 1e-9
    savings = dissipation_savings(run_a, run_b)
    ok(6, f"budgeted runs: 0 J with map vs {run_b.injected_dissipation:.3f} J without "
          f"(ratio {savings.ratio:.2f}); 20/20 scenarios never worse; zero-budget == plain TDPA")


def test_criterion_7_determinism(tmp_path):
    config_path = tmp_path / "study.ini"
    out = tmp_path / "out"
    config_path.write_text(
        "[cohort]\nsubjects = 2\nseed = 4242\n\n"
        "[protocol]\nduration_s = 5.0\nanalysis_window_s = 4.0\n\n"
        "[stabilizer]\nduration_s = 5.0\n\n"
        f"[output]\ndir = {out}\n"
    )
    assert cli.main(["all", "--config", str(config_path)]) == cli.EXIT_OK
    snapshot = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert cli.main(["all", "--config", str(config_path)]) == cli.EXIT_OK
    files = {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
    assert files == set(snapshot)
    for rel, blob in snapshot.items():
        assert (out / rel).read_bytes() == blob, f"{rel} changed between identical runs"
    ok(7, f"two `all` runs produced byte-identical outputs ({len(snapshot)} files)")


def test_criterion_8_gmp_lookup(full_study):
    analysis = full_study["analysis"]
    checked_nodes = 0
    for gmp_map in (*analysis.maps.values(), analysis.median):
        for (direction, activation, frequency), cell in gmp_map.cells.items():
            value = lookup(
                gmp_map, direction, cell.mean_pct_mvc, gmp_map.frequencies[frequency]
            )
            assert value == cell.xi, (gmp_map.subject_id, direction, activation, frequency)
            checked_nodes += 1

    gmp_map = analysis.median
    rng = np.random.default_rng(808)
    for _ in range(1000):
        direction = int(rng.integers(0, 8))
        pct = float(rng.uniform(0.0, 1.0))
        frequency = float(rng.uniform(1.0, 3.0))
        value = lookup(gmp_map, direction, pct, frequency)
        nodes = [
            gmp_map.cells[(direction, activation, freq)].xi
            for activation in ("relaxed", "stiff")
            for freq in ("low", "high")
        ]
        assert min(nodes) - 1e-12 <= value <= max(nodes) + 1e-12
    ok(8, f"{checked_nodes} node queries exact; 1000 interior queries inside node hulls")
