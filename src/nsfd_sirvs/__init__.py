"""Seasonal SIRVS epidemic models with a positivity-preserving discrete scheme.

The package covers the full pipeline: coefficient schedules and their
Mickens-style discretization, incidence functions, the NSFD / Euler / RK4
steppers, extinction-permanence threshold quantities for both the discrete
and continuous formulations, step-size bounds under which the two verdicts
agree, and ready-made benchmark scenarios with a CLI front end.
"""

from .errors import ConfigError, SirvsError, StepError
from .schedules import (SCHEDULE_NAMES, DenominatorFn, DiscreteParams, HypothesisReport,
                        ParamSchedule, ScheduleSet, eval_denominator, mickens_discretize,
                        validate_hypotheses)
from .incidence import IncidenceFn, IncidenceReport, validate_incidence
from .dynamics import (AuxState, State, Trajectory, aux_equilibrium, integrate_continuous,
                       nsfd_step, periodic_aux_solution, simulate_aux, simulate_discrete,
                       validate_state)
from .thresholds import (IndependenceResult, ThresholdReport, Verdict, classify,
                         continuous_thresholds, discrete_thresholds, independence_check,
                         periodic_discrete_threshold)
from .consistency import (ConsistencyReport, SweepRow, consistency_report,
                          consistency_sweep, h_max, lambda_steps, net_growth_function,
                          sup_abs_fprime)
from .scenarios import (BUILTIN_NAMES, InconsistencyExample, ObservedSeries, ResidualReport,
                        ScenarioReport, ScenarioSpec, builtin, inconsistency_example,
                        load_config, load_observed, run_scenario, spec_to_config)

__version__ = "0.1.0"

__all__ = [
    "AuxState", "BUILTIN_NAMES", "ConfigError", "ConsistencyReport", "DenominatorFn",
    "DiscreteParams", "HypothesisReport", "IncidenceFn", "IncidenceReport",
    "IndependenceResult", "InconsistencyExample", "ObservedSeries", "ParamSchedule",
    "ResidualReport", "SCHEDULE_NAMES", "ScenarioReport", "ScenarioSpec", "ScheduleSet",
    "SirvsError", "State", "StepError", "SweepRow", "ThresholdReport", "Trajectory",
    "Verdict", "aux_equilibrium", "builtin", "classify",
    "consistency_report", "consistency_sweep", "continuous_thresholds",
    "discrete_thresholds", "eval_denominator", "h_max", "inconsistency_example",
    "independence_check", "integrate_continuous", "lambda_steps", "load_config",
    "load_observed", "mickens_discretize", "net_growth_function", "nsfd_step",
    "periodic_aux_solution", "periodic_discrete_threshold", "run_scenario",
    "simulate_aux", "simulate_discrete", "spec_to_config", "sup_abs_fprime",
    "validate_hypotheses", "validate_incidence", "validate_state",
]
