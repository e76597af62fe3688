"""Built-in benchmark scenarios, configuration files, and end-to-end runs.

A scenario bundles the eight coefficient schedules, the incidence pair, the
step denominator, the step sizes to examine, the threshold window, the run
horizon and the initial state.  `run_scenario` turns one scenario into a
full report: NSFD and Euler trajectories per step size, discrete and
continuous threshold reports, the step-bound analysis when it applies, a
Dormand-Prince reference run that stops at every time the runs are scored at,
and a verdict matrix.  `inconsistency_example` builds the deliberate period-1
counterexample in which sampling at h = 1/L hits the minima of a spiky
seasonal transmission rate and flips the verdict.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .consistency import (ConsistencyReport, consistency_report, consistency_skip_reason,
                          window_thresholds)
from .dynamics import (State, Trajectory, h_label, integrate_continuous, simulate_discrete,
                       steps_for, validate_state)
from .errors import ConfigError
# a separable g is checked once, when its IncidenceFn is built; validate_incidence
# stays importable here because perfbench/tracing.py looks it up in this module
from .incidence import IncidenceFn, validate_incidence  # noqa: F401
from .reference import Reference, dp5_reference
from .schedules import (SCHEDULE_NAMES, DenominatorFn, DiscreteParams, ParamSchedule,
                        ScheduleSet, mickens_discretize, validate_hypotheses)
# discrete_thresholds is called through consistency.window_thresholds; it stays
# importable here because perfbench/tracing.py looks it up in this module
from .thresholds import (ThresholdReport, Verdict, continuous_thresholds,  # noqa: F401
                         discrete_thresholds)

BUILTIN_NAMES = ("extinction_5_1", "persistence_5_1", "saturated_5_1_ext",
                 "saturated_5_1_per", "inconsistency_4", "measles_france_5_2")


@dataclass(frozen=True, eq=False)
class ObservedSeries:
    """Reported case counts at increasing observation times."""

    times: np.ndarray
    cases: np.ndarray
    label: str = "observed"

    def __post_init__(self):
        object.__setattr__(self, "times", np.asarray(self.times, dtype=float))
        object.__setattr__(self, "cases", np.asarray(self.cases, dtype=float))
        if self.times.ndim != 1 or self.times.size == 0:
            raise ConfigError("observed series needs a nonempty 1-d time array")
        if self.times.size != self.cases.size:
            raise ConfigError("observed times and cases differ in length")
        if not np.all(np.isfinite(self.times)):
            raise ConfigError("observed times must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("observed times must be strictly increasing")
        if np.any(self.cases < 0) or not np.all(np.isfinite(self.cases)):
            raise ConfigError("observed cases must be finite and nonnegative")

    def __eq__(self, other):
        return (isinstance(other, ObservedSeries)
                and self.label == other.label
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.cases, other.cases))


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, immutable description of one experiment."""

    name: str
    schedules: ScheduleSet
    incidence_phi: IncidenceFn
    incidence_psi: IncidenceFn
    denominator: DenominatorFn
    h_values: tuple[float, ...]
    lam: float
    t_end: float
    initial_state: State
    observed: ObservedSeries | None = None
    observed_path: str | None = None  # as written in the config, for round-trips
    notes: str = ""
    reference_values: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "h_values", tuple(float(h) for h in self.h_values))
        if not self.h_values:
            raise ConfigError("h_values must be nonempty")
        if any(not 0 < h < math.inf for h in self.h_values):
            raise ConfigError("h_values must be positive and finite")
        if len(set(self.h_values)) != len(self.h_values):
            raise ConfigError("h_values must be distinct")
        spelled = {}  # h is written h_label(h) in file names, warnings and manifest keys
        for h in self.h_values:
            other = spelled.setdefault(h_label(h), h)
            if other != h:
                raise ConfigError(f"h_values {other!r} and {h!r} are both written h{h_label(h)}")
        if not 0 < self.lam < math.inf:
            raise ConfigError("lambda must be positive and finite")
        if not math.isfinite(self.t_end):
            raise ConfigError(f"t_end {self.t_end} is not finite")
        if self.t_end < self.lam:
            raise ConfigError(f"t_end {self.t_end} shorter than window {self.lam}")
        validate_state(self.initial_state)

    def with_observed(self, observed: ObservedSeries) -> "ScenarioSpec":
        return ScenarioSpec(**{**self.__dict__, "observed": observed})


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def _seasonal_schedules(b: float) -> ScheduleSet:
    # beta(t) = sigma(t) = b (1 + 0.3 cos(t pi/2)), everything else constant
    return ScheduleSet(
        Lambda=ParamSchedule.constant("Lambda", 0.5),
        mu=ParamSchedule.constant("mu", 0.3),
        p=ParamSchedule.constant("p", 2.0 / 3.0),
        eta=ParamSchedule.constant("eta", 0.05),
        alpha=ParamSchedule.constant("alpha", 0.05),
        beta=ParamSchedule.harmonic("beta", b, 0.3 * b, math.pi / 2.0),
        sigma=ParamSchedule.harmonic("sigma", b, 0.3 * b, math.pi / 2.0),
        gamma=ParamSchedule.constant("gamma", 0.3),
    )


def _seasonal_spec(name: str, b: float, phi: IncidenceFn, notes: str,
                   reference_values: dict | None = None) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        schedules=_seasonal_schedules(b),
        incidence_phi=phi,
        incidence_psi=IncidenceFn.mass_action(),
        denominator=DenominatorFn.quadratic(0.2),
        h_values=(4.0, 2.0, 1.0, 0.5),
        lam=4.0,
        t_end=200.0,
        initial_state=State(1.0, 0.2, 0.1, 1.0),
        notes=notes,
        reference_values=dict(reference_values or {}),
    )


def _measles_beta_values(clamp: bool) -> list[float]:
    # seasonal forcing for the first 72 months, constant 2.7 afterwards;
    # the raw seasonal expression dips negative, clamped at 0 by default
    vals = []
    for n in range(72):
        raw = 3.8 + 10.0 * math.sin((n + 1) * math.pi / 6.0)
        vals.append(max(raw, 0.0) if clamp else raw)
    vals.append(2.7)
    return vals


@dataclass(frozen=True)
class InconsistencyExample:
    """Period-1 counterexample scenario plus its closed-form diagnostics.

    The transmission rate beta(t) = d [1 + c sin^2(2 pi L t)(1 + cos 2 pi t)]
    vanishes down to d exactly at the sampling instants t = k/L, so the
    discrete model at h = 1/L never sees the seasonal spikes:

      * continuous window integral (closed form): R_C_l(1) = d(1 + c/2)
        - mu - alpha - gamma, positive (permanence) once c > 2(mu+gamma+
        alpha-d)/d;
      * one-period product evaluated literally from its definition (the
        value reported by `discrete_thresholds`);
      * the simplified reported ratio (1 + d/L)/(1 + mu + alpha + gamma),
        kept alongside because it differs from the literal evaluation (the
        literal per-factor ratio is (1 + d/L)/(1 + (mu+alpha+gamma)/L)).
    """

    spec: ScenarioSpec
    r_c_lower_closed_form: float
    discrete_reported_closed_form: float
    continuous_permanent_regime: bool
    discrete_subthreshold_regime: bool

    @property
    def inconsistency_expected(self) -> bool:
        return self.continuous_permanent_regime and self.discrete_subthreshold_regime


def inconsistency_example(L: int, d: float, c: float, mu: float, gamma: float,
                          alpha: float, eta: float, p: float,
                          t_end: float = 400.0) -> InconsistencyExample:
    """Build the period-1 system that is inconsistent at step h = 1/L."""
    L = int(L)
    if L < 1:
        raise ValueError("L must be a positive integer")
    if c < 0:
        raise ValueError("seasonal amplitude c must be >= 0")
    for name, v in (("d", d), ("mu", mu), ("gamma", gamma),
                    ("alpha", alpha), ("eta", eta), ("p", p)):
        if v <= 0:
            raise ValueError(f"parameter {name} must be positive")

    def seasonal(t):
        return d * (1.0 + c * np.sin(2.0 * np.pi * L * t) ** 2
                    * (1.0 + np.cos(2.0 * np.pi * t)))

    def seasonal_deriv(t):
        return d * c * (2.0 * np.pi * L * np.sin(4.0 * np.pi * L * t)
                        * (1.0 + np.cos(2.0 * np.pi * t))
                        - 2.0 * np.pi * np.sin(2.0 * np.pi * L * t) ** 2
                        * np.sin(2.0 * np.pi * t))

    def make(name):
        return ParamSchedule.custom(name, seasonal, derivative=seasonal_deriv, period=1.0)

    schedules = ScheduleSet(
        Lambda=ParamSchedule.constant("Lambda", mu),  # inflow matched to mortality
        mu=ParamSchedule.constant("mu", mu),
        p=ParamSchedule.constant("p", p),
        eta=ParamSchedule.constant("eta", eta),
        alpha=ParamSchedule.constant("alpha", alpha),
        beta=make("beta"),
        sigma=make("sigma"),
        gamma=ParamSchedule.constant("gamma", gamma),
    )

    r_c_closed = d * (1.0 + c / 2.0) - mu - alpha - gamma
    reported = (1.0 + d / L) / (1.0 + mu + alpha + gamma)
    spec = ScenarioSpec(
        name=f"inconsistency_L{L}",
        schedules=schedules,
        incidence_phi=IncidenceFn.mass_action(),
        incidence_psi=IncidenceFn.mass_action(),
        denominator=DenominatorFn.identity(),
        h_values=(1.0 / L,),
        lam=1.0,
        t_end=t_end,
        initial_state=State(0.3, 0.2, 0.1, 0.4),
        notes=("Period-1 seasonal forcing whose spikes fall between the sampling "
               f"instants t = k/{L}; the continuous model is permanent while the "
               f"discrete model at h = 1/{L} is not."),
        reference_values={
            "r_c_lower_closed_form": r_c_closed,
            "discrete_threshold_reported_closed_form": reported,
        },
    )
    return InconsistencyExample(
        spec=spec,
        r_c_lower_closed_form=r_c_closed,
        discrete_reported_closed_form=reported,
        continuous_permanent_regime=r_c_closed > 0,
        discrete_subthreshold_regime=reported < 1,
    )


def builtin(name: str, clamp_beta: bool = True) -> ScenarioSpec:
    """Return one of the named built-in scenarios.

    `clamp_beta` only affects measles_france_5_2: by default the seasonal
    transmission table is clamped at 0 where the raw expression
    3.8 + 10 sin((n+1) pi / 6) is negative; pass False to keep the raw
    (hypothesis-violating) values.
    """
    if name == "extinction_5_1":
        return _seasonal_spec(
            name, 0.3, IncidenceFn.mass_action(),
            notes=("Seasonal mass-action benchmark with b = 0.3: the continuous "
                   "window integral is -0.6 (extinction). Reference step bound "
                   "quoted as 0.05 elsewhere; the bound formula evaluates to "
                   "about 0.509 - both are reported."),
            reference_values={
                "r_c_upper": -0.6,
                "r_d_upper": {"3,1": 0.644, "7,0.5": 0.601, "0,4": 1.0},
                "h_max_upper_reported": 0.05,
            })
    if name == "persistence_5_1":
        return _seasonal_spec(
            name, 0.9, IncidenceFn.mass_action(),
            notes=("Seasonal mass-action benchmark with b = 0.9: the continuous "
                   "window integral is 3.4 (permanence)."),
            reference_values={
                "r_c_lower": 3.4,
                "r_d_lower": {"1,2": 3.201, "3,1": 5.9, "7,0.5": 10.2},
            })
    if name == "saturated_5_1_ext":
        return _seasonal_spec(
            name, 0.3, IncidenceFn.saturated(0.7),
            notes=("b = 0.3 benchmark with saturating incidence S I/(1 + 0.7 I) "
                   "from susceptibles; thresholds match the mass-action case "
                   "because the slope at I = 0 is unchanged."))
    if name == "saturated_5_1_per":
        return _seasonal_spec(
            name, 0.9, IncidenceFn.saturated(0.7),
            notes=("b = 0.9 benchmark with saturating incidence S I/(1 + 0.7 I) "
                   "from susceptibles."))
    if name == "inconsistency_4":
        spec = inconsistency_example(L=6, d=0.6, c=1.5, mu=0.25, gamma=0.3,
                                     alpha=0.05, eta=0.05, p=2.0 / 3.0).spec
        return replace(spec, name=name)
    if name == "measles_france_5_2":
        beta_vals = _measles_beta_values(clamp_beta)
        notes = ("Monthly measles model, France 2012-2016, standard incidence "
                 "S I/P and V I/P. ")
        if clamp_beta:
            notes += ("NOTE: the raw seasonal transmission expression "
                      "3.8 + 10 sin((n+1) pi/6) is negative in part of each year; "
                      "values are clamped at 0 here (raw variant available with "
                      "clamp_beta=False).")
        else:
            notes += ("WARNING: raw (unclamped) seasonal transmission values; "
                      "negative entries violate the nonnegativity hypotheses.")
        return ScenarioSpec(
            name=name,
            schedules=ScheduleSet(
                Lambda=ParamSchedule.constant("Lambda", 50000.0),
                mu=ParamSchedule.constant("mu", 0.0007),
                p=ParamSchedule.constant("p", 0.001),
                eta=ParamSchedule.constant("eta", 0.001),
                alpha=ParamSchedule.constant("alpha", 0.000375),
                beta=ParamSchedule.piecewise("beta", list(range(73)), beta_vals,
                                             allow_negative=not clamp_beta),
                sigma=ParamSchedule.constant("sigma", 0.03),
                gamma=ParamSchedule.constant("gamma", 0.957),
            ),
            incidence_phi=IncidenceFn.standard(),
            incidence_psi=IncidenceFn.standard(),
            denominator=DenominatorFn.identity(),
            h_values=(1.0,),
            lam=12.0,
            t_end=60.0,
            initial_state=State(7.20428e6, 106.0, 1.81918e4, 5.84372e7),
            notes=notes,
            reference_values={"I_0": 106.0, "beta_month_72": 2.7},
        )
    raise ConfigError(f"unknown built-in scenario {name!r}; "
                      f"valid names: {', '.join(BUILTIN_NAMES)}")


def builtin_description(name: str) -> str:
    note = builtin(name).notes
    return note.split(". ")[0].strip().rstrip(".") + "."


# ---------------------------------------------------------------------------
# configuration files
# ---------------------------------------------------------------------------

_TOP_REQUIRED = ("name", "schedules", "incidence", "denominator", "h_values",
                 "lambda", "t_end", "initial_state")
_TOP_OPTIONAL = ("observed_path", "notes", "reference_values")


def _check_keys(obj: dict, required, optional, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}: missing required key {key!r}")
    allowed = set(required) | set(optional)
    unknown = [k for k in obj if k not in allowed]
    if unknown:
        raise ConfigError(f"{path}: unknown key {unknown[0]!r}")


def _build(cls, obj: dict, path: str, *args):
    """The component {"kind", "params"} declares: the classmethod of cls named by
    its kind, called with args and the params that `cls.CONFIG_KINDS` allows."""
    _check_keys(obj, ("kind",), ("params",), path)
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in cls.CONFIG_KINDS:
        raise ConfigError(f"{path}.kind: unknown kind {kind!r}; "
                          f"valid kinds: {', '.join(cls.CONFIG_KINDS)}")
    params = obj.get("params", {})
    _check_keys(params, *cls.CONFIG_KINDS[kind], f"{path}.params")
    try:
        return getattr(cls, kind)(*args, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _encode(component, path: str) -> dict:
    """The {"kind", "params"} object `_build` reads back; "params" only when
    the kind has any."""
    kinds = type(component).CONFIG_KINDS
    if component.kind not in kinds:
        raise ConfigError(f"{path}: {component.kind} {type(component).__name__} wraps a "
                          "callable and cannot be serialized to a configuration document")
    values = component.params if isinstance(component, ParamSchedule) else vars(component)
    params = {key: values[key] for keys in kinds[component.kind] for key in keys}
    return {"kind": component.kind, "params": params} if params else {"kind": component.kind}


def config_to_spec(cfg: dict, base_dir: Path | None = None) -> ScenarioSpec:
    """Validate a parsed configuration document and build the scenario."""
    _check_keys(cfg, _TOP_REQUIRED, _TOP_OPTIONAL, "config")

    sched_obj = cfg["schedules"]
    _check_keys(sched_obj, SCHEDULE_NAMES, (), "schedules")
    schedules = ScheduleSet.from_mapping({
        name: _build(ParamSchedule, sched_obj[name], f"schedules.{name}", name)
        for name in SCHEDULE_NAMES})

    inc_obj = cfg["incidence"]
    _check_keys(inc_obj, ("phi", "psi"), (), "incidence")
    phi = _build(IncidenceFn, inc_obj["phi"], "incidence.phi")
    psi = _build(IncidenceFn, inc_obj["psi"], "incidence.psi")

    denominator = _build(DenominatorFn, cfg["denominator"], "denominator")

    state_obj = cfg["initial_state"]
    _check_keys(state_obj, ("S", "I", "R", "V"), (), "initial_state")

    observed = None
    observed_path = None
    if cfg.get("observed_path"):
        observed_path = str(cfg["observed_path"])
        obs_path = Path(observed_path)
        if base_dir is not None and not obs_path.is_absolute():
            obs_path = base_dir / obs_path
        observed = load_observed(obs_path)

    refs = cfg.get("reference_values", {})
    if not isinstance(refs, dict):
        raise ConfigError("reference_values: expected an object")

    try:
        return ScenarioSpec(
            name=str(cfg["name"]),
            schedules=schedules,
            incidence_phi=phi,
            incidence_psi=psi,
            denominator=denominator,
            h_values=tuple(cfg["h_values"]),
            lam=float(cfg["lambda"]),
            t_end=float(cfg["t_end"]),
            initial_state=State(float(state_obj["S"]), float(state_obj["I"]),
                                float(state_obj["R"]), float(state_obj["V"])),
            observed=observed,
            observed_path=observed_path,
            notes=str(cfg.get("notes", "")),
            reference_values=dict(refs),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"config: {exc}") from exc


def load_config(path) -> ScenarioSpec:
    """Load and validate a scenario configuration (JSON document)."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    return config_to_spec(cfg, base_dir=path.parent)


def spec_to_config(spec: ScenarioSpec) -> dict:
    """Serialize a scenario back to its configuration document.

    Only declarative pieces round-trip: a component whose kind wraps a
    callable (a `custom` schedule, a `separable` incidence) raises ConfigError
    naming its field path.
    """
    cfg = {
        "name": spec.name,
        "schedules": {name: _encode(getattr(spec.schedules, name), f"schedules.{name}")
                      for name in SCHEDULE_NAMES},
        "incidence": {"phi": _encode(spec.incidence_phi, "incidence.phi"),
                      "psi": _encode(spec.incidence_psi, "incidence.psi")},
        "denominator": _encode(spec.denominator, "denominator"),
        "h_values": list(spec.h_values),
        "lambda": spec.lam,
        "t_end": spec.t_end,
        "initial_state": {"S": spec.initial_state.S, "I": spec.initial_state.I,
                          "R": spec.initial_state.R, "V": spec.initial_state.V},
    }
    if spec.observed_path:
        cfg["observed_path"] = spec.observed_path
    if spec.notes:
        cfg["notes"] = spec.notes
    if spec.reference_values:
        cfg["reference_values"] = dict(spec.reference_values)
    return cfg


def load_observed(path) -> ObservedSeries:
    """Read a `t,cases` delimited text file (UTF-8, LF or CRLF)."""
    path = Path(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != "t,cases":
        raise ConfigError(f"{path}: expected header 't,cases'")
    times, cases = [], []
    for i, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise ConfigError(f"{path}: row {i}: expected 2 fields, got {len(parts)}")
        try:
            times.append(float(parts[0]))
            cases.append(float(parts[1]))
        except ValueError as exc:
            raise ConfigError(f"{path}: row {i}: {exc}") from exc
    if not times:
        raise ConfigError(f"{path}: no data rows")
    try:
        return ObservedSeries(np.asarray(times), np.asarray(cases), label=path.stem)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ResidualReport:
    """Pointwise model-vs-observed comparison over the overlap window."""

    times: np.ndarray
    observed: np.ndarray
    model: np.ndarray
    residual: np.ndarray
    rms: float | None  # None when no observation falls inside the run


@dataclass(eq=False)
class PerStepResult:
    nsfd: Trajectory
    euler: Trajectory
    euler_empirical: Verdict
    residuals: ResidualReport | None = None


@dataclass(eq=False)
class ThresholdComparison:
    """Continuous and discrete threshold reports for one window, compared.

    `discrete` holds (h, report) pairs; `consistency` is None where the
    step-bound analysis does not apply, and `consistency_skip_reason` says why.
    """

    continuous: ThresholdReport
    discrete: tuple
    consistency: ConsistencyReport | None
    consistency_skip_reason: str

    @property
    def inconsistent_h(self) -> tuple:
        """(h, verdict) wherever it contradicts a decisive continuous verdict."""
        cont = self.continuous.verdict
        return tuple((h, rep.verdict) for h, rep in self.discrete
                     if cont is not Verdict.INCONCLUSIVE and rep.verdict is not cont)

    @property
    def inconsistency_flag(self) -> bool:
        return len(self.inconsistent_h) > 0


@dataclass(eq=False)
class ScenarioReport(ThresholdComparison):
    name: str
    per_h: dict
    reference: Reference
    warnings: tuple

    @property
    def verdict_matrix(self) -> dict:
        """Verdict per (method, h); the continuous one is keyed (continuous, None)."""
        matrix = {("continuous", None): self.continuous.verdict}
        for h, rep in self.discrete:
            matrix[("nsfd", h)] = rep.verdict
            matrix[("euler", h)] = self.per_h[h].euler_empirical
        return matrix


def _empirical_verdict(traj: Trajectory) -> Verdict:
    """Trajectory-based classification (for methods without a threshold theory).

    Tail = last quarter of the run; extinct if I stays below 1e-6 there,
    permanent if it stays above 1e-3.
    """
    tail = traj.I[3 * traj.n_steps // 4:]
    if np.max(tail) < 1e-6:
        return Verdict.EXTINCTION
    if np.min(tail) > 1e-3:
        return Verdict.PERMANENCE
    return Verdict.INCONCLUSIVE


def _residuals(traj: Trajectory, observed: ObservedSeries) -> ResidualReport:
    t_max = traj.times[-1]
    keep = (observed.times >= traj.t0) & (observed.times <= t_max + 1e-9)
    ts = observed.times[keep]
    obs = observed.cases[keep]
    model = np.interp(ts, traj.times, traj.I)
    residual = model - obs
    rms = float(np.sqrt(np.mean(residual ** 2))) if residual.size else None
    return ResidualReport(times=ts, observed=obs, model=model, residual=residual, rms=rms)


def discretize(spec: ScenarioSpec, hs) -> list[DiscreteParams]:
    return [mickens_discretize(spec.schedules, h, spec.denominator) for h in hs]


def threshold_reports(spec: ScenarioSpec, lam: float, dps: list[DiscreteParams]) -> tuple:
    """The continuous report for window lam, None for a zero-length window,
    and the (h, discrete report) pairs for the discrete models dps."""
    continuous = continuous_thresholds(spec.schedules, spec.incidence_phi,
                                       spec.incidence_psi, lam) if lam > 0 else None
    return continuous, tuple(
        (dp.h, window_thresholds(dp, spec.incidence_phi, spec.incidence_psi, lam))
        for dp in dps)


def threshold_notes(continuous: ThresholdReport | None, discrete) -> list[str]:
    """Every note of the continuous report and of the (h, discrete report)
    pairs, labelled `continuous: ` or `h=<h>: `: what a run adds to its warnings."""
    notes = [f"continuous: {note}" for note in (continuous.notes if continuous is not None else ())]
    return notes + [f"h={h_label(h)}: {note}" for h, rep in discrete for note in rep.notes]


def compare_thresholds(spec: ScenarioSpec, lam: float,
                       dps: list[DiscreteParams]) -> ThresholdComparison:
    """Threshold reports for window lam > 0 at the step sizes of dps, with the
    step-bound report where that analysis applies and the reason where not."""
    if not lam > 0:
        raise ValueError("lam must be positive")
    continuous, discrete = threshold_reports(spec, lam, dps)
    reason = consistency_skip_reason(spec.schedules)
    consistency = None if reason else consistency_report(
        spec.schedules, spec.incidence_phi, spec.incidence_psi, continuous,
        notes=dict(spec.reference_values))
    return ThresholdComparison(continuous, discrete, consistency, reason)


def method_runs(spec: ScenarioSpec, dps: list[DiscreteParams],
                t_end: float) -> tuple[list, Reference]:
    """The runs a scenario compares: (h, NSFD run, Euler run) at each discrete
    model's step, each `steps_for(t_end, h)` steps long, and one reference
    (`reference.dp5_reference`) that stops exactly at every one of their times
    and at every breakpoint of the schedules, its steps chosen by its embedded
    estimate."""
    model = (spec.incidence_phi, spec.incidence_psi, spec.initial_state)
    runs = [(dp.h, simulate_discrete(dp, *model, steps_for(t_end, dp.h)),
             integrate_continuous(spec.schedules, *model, t_end, dp.h, method="euler"))
            for dp in dps]
    return runs, dp5_reference(spec.schedules, *model, _scored_times(runs))


def _scored_times(runs) -> np.ndarray:
    """The sorted union of the times of the (h, NSFD run, Euler run) triples."""
    return np.unique(np.concatenate([run.times for _, *pair in runs for run in pair]))


def compare_methods(runs, reference: Reference) -> tuple[list, list, tuple]:
    """Rows (h, method, sup |I - I_ref|, left the nonnegative cone) for each
    (h, NSFD run, Euler run) of `method_runs` against its reference, the step
    sizes where NSFD deviates more, and the table (times, states) they were
    scored on: the sorted union of the runs' times and the reference's own
    states there, each time being one of its stops, `reference.times` (a
    ValueError if not)."""
    times = _scored_times(runs)
    at = np.searchsorted(reference.times, times)
    if at[-1] >= reference.times.size or not np.array_equal(reference.times[at], times):
        raise ValueError("the reference has no state at some compared time")
    states = reference.states[at]
    rows, nsfd_worse = [], []
    for h, *pair in runs:
        devs = [float(np.max(np.abs(t.I - states[np.searchsorted(times, t.times), 1])))
                for t in pair]
        rows += [(h, t.method, d, t.negative_at is not None) for t, d in zip(pair, devs)]
        if devs[0] > devs[1]:
            nsfd_worse.append(h)
    return rows, nsfd_worse, (times, states)


def run_scenario(spec: ScenarioSpec) -> ScenarioReport:
    """Execute a scenario across its declared step sizes."""
    dps = discretize(spec, spec.h_values)
    comparison = compare_thresholds(spec, spec.lam, dps)
    warnings = threshold_notes(comparison.continuous, comparison.discrete)
    runs, reference = method_runs(spec, dps, spec.t_end)

    per_h = {}
    for dp, (h, nsfd, euler) in zip(dps, runs):
        omega = dp.step_period or 1
        hyp = validate_hypotheses(dp, window=omega, stop=max(100, 2 * omega))
        if not (hyp.h3_holds and hyp.h4_holds):
            warnings.append(f"h={h_label(h)}: attractivity hypotheses fail (H3/H4)")
        warnings.extend(f"h={h_label(h)}: {w}" for w in hyp.warnings)

        if euler.negative_at is not None:
            warnings.append(f"h={h_label(h)}: euler trajectory leaves the nonnegative "
                            f"cone at step {euler.negative_at}")
        res = _residuals(nsfd, spec.observed) if spec.observed is not None else None
        if res is not None and res.times.size < spec.observed.times.size:
            warnings.append(f"h={h_label(h)}: {spec.observed.times.size - res.times.size} of "
                            f"{spec.observed.times.size} observations lie outside the "
                            f"run's span [{nsfd.t0:g}, {nsfd.times[-1]:g}] and are left "
                            f"out of the residuals")
        per_h[h] = PerStepResult(nsfd=nsfd, euler=euler,
                                 euler_empirical=_empirical_verdict(euler),
                                 residuals=res)

    return ScenarioReport(
        **vars(comparison),
        name=spec.name,
        per_h=per_h,
        reference=reference,
        warnings=tuple(warnings),
    )
