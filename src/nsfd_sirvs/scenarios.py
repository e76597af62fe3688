"""Built-in benchmark scenarios, configuration files, and end-to-end runs.

A scenario bundles the eight coefficient schedules, the incidence pair, the
step denominator, the step sizes to examine, the threshold window, the run
horizon and the initial state.  `run_scenario` turns one scenario into a
full report: NSFD and Euler trajectories per step size, discrete and
continuous threshold reports, the step-bound analysis when it applies, an
RK4 reference run, and a verdict matrix.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .consistency import (ConsistencyReport, consistency_report, consistency_skip_reason,
                          inconsistency_example, lambda_steps)
from .dynamics import (State, Trajectory, integrate_continuous, simulate_discrete,
                       validate_state)
from .errors import ConfigError
from .incidence import IncidenceFn, validate_incidence
from .schedules import (SCHEDULE_NAMES, DenominatorFn, ParamSchedule, ScheduleSet,
                        mickens_discretize, validate_hypotheses)
from .thresholds import ThresholdReport, Verdict, continuous_thresholds, discrete_thresholds

RK4_REFERENCE_STEP = 0.01

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
        if any(not h > 0 for h in self.h_values):
            raise ConfigError("h_values must be positive")
        if not self.lam > 0:
            raise ConfigError("lambda must be positive")
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

_SCHEDULE_PARAMS = {
    "constant": {"value"},
    "harmonic": {"base", "amplitude", "omega", "phase"},
    "piecewise": {"breakpoints", "values"},
}
_INCIDENCE_PARAMS = {"mass_action": set(), "saturated": {"a"}, "standard": set()}
_DENOMINATOR_PARAMS = {"identity": set(), "quadratic": {"a"}, "exp_decay": {"c"}}


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


def _build_schedule(name: str, obj: dict, path: str) -> ParamSchedule:
    _check_keys(obj, ("kind",), ("params",), path)
    kind = obj["kind"]
    if kind not in _SCHEDULE_PARAMS:
        raise ConfigError(f"{path}.kind: unknown schedule kind {kind!r}")
    params = obj.get("params", {})
    allowed = _SCHEDULE_PARAMS[kind]
    required = allowed - ({"phase"} if kind == "harmonic" else set())
    _check_keys(params, tuple(sorted(required)), tuple(allowed - required), f"{path}.params")
    try:
        if kind == "constant":
            return ParamSchedule.constant(name, params["value"])
        if kind == "harmonic":
            return ParamSchedule.harmonic(name, params["base"], params["amplitude"],
                                          params["omega"], params.get("phase", 0.0))
        return ParamSchedule.piecewise(name, params["breakpoints"], params["values"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_incidence(obj: dict, path: str) -> IncidenceFn:
    _check_keys(obj, ("kind",), ("params",), path)
    kind = obj["kind"]
    if kind not in _INCIDENCE_PARAMS:
        raise ConfigError(f"{path}.kind: unknown incidence kind {kind!r}")
    params = obj.get("params", {})
    _check_keys(params, tuple(sorted(_INCIDENCE_PARAMS[kind])), (), f"{path}.params")
    try:
        if kind == "mass_action":
            return IncidenceFn.mass_action()
        if kind == "saturated":
            return IncidenceFn.saturated(params["a"])
        return IncidenceFn.standard()
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _build_denominator(obj: dict, path: str) -> DenominatorFn:
    _check_keys(obj, ("kind",), ("params",), path)
    kind = obj["kind"]
    if kind not in _DENOMINATOR_PARAMS:
        raise ConfigError(f"{path}.kind: unknown denominator kind {kind!r}")
    params = obj.get("params", {})
    _check_keys(params, tuple(sorted(_DENOMINATOR_PARAMS[kind])), (), f"{path}.params")
    try:
        if kind == "identity":
            return DenominatorFn.identity()
        if kind == "quadratic":
            return DenominatorFn.quadratic(params["a"])
        return DenominatorFn.exp_decay(params["c"])
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_to_spec(cfg: dict, base_dir: Path | None = None) -> ScenarioSpec:
    """Validate a parsed configuration document and build the scenario."""
    _check_keys(cfg, _TOP_REQUIRED, _TOP_OPTIONAL, "config")

    sched_obj = cfg["schedules"]
    _check_keys(sched_obj, SCHEDULE_NAMES, (), "schedules")
    schedules = ScheduleSet.from_mapping({
        name: _build_schedule(name, sched_obj[name], f"schedules.{name}")
        for name in SCHEDULE_NAMES})

    inc_obj = cfg["incidence"]
    _check_keys(inc_obj, ("phi", "psi"), (), "incidence")
    phi = _build_incidence(inc_obj["phi"], "incidence.phi")
    psi = _build_incidence(inc_obj["psi"], "incidence.psi")

    denominator = _build_denominator(cfg["denominator"], "denominator")

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

    Only declarative pieces round-trip; schedules built from raw callables
    cannot be serialized.
    """
    sched_out = {}
    for name in SCHEDULE_NAMES:
        s = getattr(spec.schedules, name)
        if s.kind == "custom":
            raise ConfigError(f"schedule {name!r} wraps a callable and cannot be "
                              "serialized to a configuration document")
        sched_out[name] = {"kind": s.kind, "params": dict(s.params)}

    def inc_out(inc: IncidenceFn) -> dict:
        if inc.kind == "separable":
            raise ConfigError("separable incidence wraps a callable and cannot be "
                              "serialized to a configuration document")
        out = {"kind": inc.kind}
        if inc.kind == "saturated":
            out["params"] = {"a": inc.a}
        return out

    den_out = {"kind": spec.denominator.kind}
    if spec.denominator.kind == "quadratic":
        den_out["params"] = {"a": spec.denominator.a}
    elif spec.denominator.kind == "exp_decay":
        den_out["params"] = {"c": spec.denominator.c}

    cfg = {
        "name": spec.name,
        "schedules": sched_out,
        "incidence": {"phi": inc_out(spec.incidence_phi), "psi": inc_out(spec.incidence_psi)},
        "denominator": den_out,
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
    rms: float


@dataclass(eq=False)
class PerStepResult:
    h: float
    lam_steps: int
    nsfd: Trajectory
    euler: Trajectory
    thresholds: ThresholdReport
    euler_empirical: Verdict
    residuals: ResidualReport | None = None


@dataclass(eq=False)
class ScenarioReport:
    name: str
    per_h: dict
    continuous: ThresholdReport
    consistency: ConsistencyReport | None
    consistency_skip_reason: str
    rk4_reference: Trajectory | None
    verdict_matrix: dict
    inconsistent_h: tuple
    warnings: tuple

    @property
    def inconsistency_flag(self) -> bool:
        return len(self.inconsistent_h) > 0


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
    rms = float(np.sqrt(np.mean(residual ** 2))) if residual.size else float("nan")
    return ResidualReport(times=ts, observed=obs, model=model, residual=residual, rms=rms)


def run_scenario(spec: ScenarioSpec, burn_in: int = 2000, scan: int = 4000,
                 reference: bool = True) -> ScenarioReport:
    """Execute a scenario across its declared step sizes."""
    warnings = []

    # hygiene checks on the inputs; failures are warnings on the report
    pop0 = float(sum(spec.initial_state)) or 1.0
    for label, inc in (("phi", spec.incidence_phi), ("psi", spec.incidence_psi)):
        rep = validate_incidence(inc, x_max=2.0 * pop0, y_max=2.0 * pop0,
                                 resolution=64,
                                 pop=pop0 if inc.needs_population else None)
        if not rep.passed:
            warnings.append(f"incidence {label} failed grid validation")
        warnings.extend(f"incidence {label}: {n}" for n in rep.notes)

    continuous = continuous_thresholds(spec.schedules, spec.incidence_phi,
                                       spec.incidence_psi, spec.lam)

    skip_reason = consistency_skip_reason(spec.schedules)
    consistency = None
    if not skip_reason:
        consistency = consistency_report(spec.schedules, spec.incidence_phi,
                                         spec.incidence_psi, spec.lam,
                                         notes=dict(spec.reference_values))

    per_h = {}
    verdicts = {("continuous", None): continuous.verdict}
    inconsistent = []
    for h in spec.h_values:
        dp = mickens_discretize(spec.schedules, h, spec.denominator)
        omega = dp.step_period or 1
        hyp = validate_hypotheses(dp, horizons=(omega, omega, omega),
                                  scan=(0, max(100, 2 * omega)))
        if not (hyp.h3_holds and hyp.h4_holds):
            warnings.append(f"h={h:g}: attractivity hypotheses fail (H3/H4)")
        warnings.extend(f"h={h:g}: {w}" for w in hyp.warnings)

        n_steps = max(1, int(round(spec.t_end / h)))
        nsfd = simulate_discrete(dp, spec.incidence_phi, spec.incidence_psi,
                                 spec.initial_state, n_steps)
        euler = integrate_continuous(spec.schedules, spec.incidence_phi,
                                     spec.incidence_psi, spec.initial_state,
                                     spec.t_end, h, method="euler")
        if euler.negative_at is not None:
            warnings.append(f"h={h:g}: euler trajectory leaves the nonnegative "
                            f"cone at step {euler.negative_at}")

        lam_d = lambda_steps(spec.lam, h)
        thr = discrete_thresholds(dp, spec.incidence_phi, spec.incidence_psi,
                                  lam_d, burn_in=burn_in, scan=max(scan, lam_d + 1))
        eul_verdict = _empirical_verdict(euler)
        res = _residuals(nsfd, spec.observed) if spec.observed is not None else None
        per_h[h] = PerStepResult(h=h, lam_steps=lam_d, nsfd=nsfd, euler=euler,
                                 thresholds=thr, euler_empirical=eul_verdict,
                                 residuals=res)
        verdicts[("nsfd", h)] = thr.verdict
        verdicts[("euler", h)] = eul_verdict
        if continuous.verdict is not Verdict.INCONCLUSIVE and thr.verdict is not continuous.verdict:
            inconsistent.append((h, thr.verdict))

    rk4 = None
    if reference:
        rk4 = integrate_continuous(spec.schedules, spec.incidence_phi,
                                   spec.incidence_psi, spec.initial_state,
                                   spec.t_end, RK4_REFERENCE_STEP, method="rk4")

    return ScenarioReport(
        name=spec.name,
        per_h=per_h,
        continuous=continuous,
        consistency=consistency,
        consistency_skip_reason=skip_reason,
        rk4_reference=rk4,
        verdict_matrix=verdicts,
        inconsistent_h=tuple(inconsistent),
        warnings=tuple(warnings),
    )
