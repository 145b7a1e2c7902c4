"""gmpkit: simulation and analysis toolkit for Geometric MyoPassivity maps.

Perturbs a synthetic nonlinear limb model, estimates the excess of
passivity (EoP) from force/velocity windows, builds frequency-, direction-
and activation-indexed GMP maps, statistically characterizes them, and
uses a map to budget a minimal-dissipation passivity stabilizer.
"""

__version__ = "0.1.0"

from .signals import SampledSignal, Window, rms
from .biomech import (
    ActivationProfile,
    LimbParams,
    PerturbationSpec,
    Subject,
    TrialRecord,
    analytic_eop,
    make_cohort,
    perturbation_direction,
    simulate_trial,
)
from .emg import MvcCalibration, estimate_mvc, pct_mvc, synthesize_emg
from .passivity import EnergyLedger, EopEstimate, energy_ledger, estimate_eop, is_passive
from .gmp import GmpMap, TrendLine, build_map, fit_trend, lookup, median_map
from .stats import PairedSample, TestResult, box_summary, ks_normality, wilcoxon_signed_rank
from .stabilizer import ForceFieldSpec, dissipation_savings, run_interconnection
from .config import StudyConfig, default_config, load_config

__all__ = [
    "__version__",
    "SampledSignal", "Window", "rms",
    "ActivationProfile", "LimbParams", "PerturbationSpec", "Subject", "TrialRecord", "analytic_eop", "make_cohort", "perturbation_direction", "simulate_trial",
    "MvcCalibration", "estimate_mvc", "pct_mvc", "synthesize_emg",
    "EnergyLedger", "EopEstimate", "energy_ledger", "estimate_eop", "is_passive",
    "GmpMap", "TrendLine", "build_map", "fit_trend", "lookup", "median_map",
    "PairedSample", "TestResult", "box_summary", "ks_normality", "wilcoxon_signed_rank",
    "ForceFieldSpec", "dissipation_savings", "run_interconnection",
    "StudyConfig", "default_config", "load_config",
]
