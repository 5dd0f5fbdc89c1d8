"""sarbias: testing-strategy bias in VE-against-SAR estimates.

The package pairs exact closed-form estimands with a ground-truth
transmission-unit simulator, an observation layer that degrades the truth
into retrospective test records, and naive estimators replicating
published study designs, so the gap between what a study targets and what
it actually estimates can be computed and simulated side by side.
"""

from .estimands import (DegenerateModelError, InfeasibleTargetError,
                        infrequent_observed_component, infrequent_observed_mu,
                        infrequent_target_mu, invert_target_to_nu,
                        sampling_fraction, symptom_prompted_actual_mu,
                        symptom_prompted_target_mu)
from .harness import (ResultRow, ScenarioConfig, load_config, parse_config,
                      run_scenario, sweep_figure, write_csv)
from .infer import (EstimationError, StudyDesignFilter, UnitAnalysis,
                    VeRatio, WindowAnchor, analyze_unit,
                    estimate_ve_sar, identify_index, true_ve_sar)
from .mc import run_cohort
from .observe import ObservedUnit, PolicyKind, TestingPolicy, TestRecord, apply_policy
from .params import DurationModelParams, ParameterError, SymptomModelParams
from .simcore import (Infection, SourceKind, TransmissionMode, UnitConfig,
                      UnitTruth, simulate_unit)
from .validation import CheckResult, run_validation_suite

__version__ = "0.1.0"

__all__ = [
    "CheckResult", "DegenerateModelError", "DurationModelParams",
    "EstimationError", "InfeasibleTargetError", "Infection",
    "ObservedUnit", "ParameterError", "PolicyKind", "ResultRow",
    "ScenarioConfig", "SourceKind", "StudyDesignFilter", "SymptomModelParams",
    "TestRecord", "TestingPolicy", "TransmissionMode", "UnitAnalysis",
    "UnitConfig", "UnitTruth", "VeRatio", "WindowAnchor",
    "analyze_unit", "apply_policy", "estimate_ve_sar", "identify_index",
    "infrequent_observed_component", "infrequent_observed_mu",
    "infrequent_target_mu", "invert_target_to_nu", "load_config",
    "parse_config", "run_cohort", "run_scenario",
    "run_validation_suite", "sampling_fraction",
    "simulate_unit", "sweep_figure", "symptom_prompted_actual_mu",
    "symptom_prompted_target_mu", "true_ve_sar", "write_csv",
]
