import hashlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsfd_sirvs.reference as reference_module
from nsfd_sirvs.dynamics import State, integrate_continuous, steps_for
from nsfd_sirvs.errors import ConfigError
from nsfd_sirvs.incidence import IncidenceFn, validate_incidence
from nsfd_sirvs.reference import REFERENCE_CAP_STEP
from nsfd_sirvs.consistency import consistency_skip_reason
from nsfd_sirvs.scenarios import (BUILTIN_NAMES, ObservedSeries, builtin,
                                  compare_methods, config_to_spec, discretize, load_config,
                                  load_observed, method_runs, run_scenario, spec_to_config)
from nsfd_sirvs.schedules import (SCHEDULE_NAMES, DenominatorFn, ParamSchedule, ScheduleSet,
                                  mickens_discretize, validate_hypotheses)
from nsfd_sirvs.thresholds import Verdict

from conftest import _dop853_at, _gap_steps, _recorded_reference


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

def test_builtin_names_complete():
    assert len(BUILTIN_NAMES) == 6
    for name in BUILTIN_NAMES:
        assert builtin(name).name == name


def test_unknown_builtin_lists_valid_names():
    with pytest.raises(ConfigError, match="extinction_5_1"):
        builtin("nope")


@pytest.mark.parametrize("field, value", [
    ("h_values", (1.0, math.inf)), ("lam", math.nan), ("t_end", math.inf), ("t_end", math.nan),
])
def test_spec_rejects_non_finite_values(field, value):
    with pytest.raises(ConfigError, match="finite"):
        replace(builtin("extinction_5_1"), **{field: value})


def test_seasonal_transmission_at_origin():
    spec = builtin("extinction_5_1")
    assert spec.schedules.beta.eval(0.0) == pytest.approx(0.39, abs=1e-15)
    assert spec.h_values == (4.0, 2.0, 1.0, 0.5)
    assert spec.lam == 4.0


def test_inconsistency_builtin_constant_inflow():
    spec = builtin("inconsistency_4")
    ts = np.linspace(0.0, 3.0, 17)
    assert np.all(spec.schedules.Lambda.eval(ts) == 0.25)
    assert spec.h_values == (pytest.approx(1.0 / 6.0),)


def test_measles_builtin_values():
    spec = builtin("measles_france_5_2")
    assert spec.schedules.beta.eval(72.0) == 2.7
    assert spec.schedules.beta.eval(200.0) == 2.7
    # first seasonal month: 3.8 + 10 sin(pi/6) = 8.8
    assert spec.schedules.beta.eval(0.0) == pytest.approx(8.8, rel=1e-12)
    assert spec.initial_state == State(7.20428e6, 106.0, 1.81918e4, 5.84372e7)
    assert spec.schedules.mu.eval(3.0) == 0.0007
    assert "clamped" in spec.notes


def test_measles_clamping_and_raw_variant():
    clamped = builtin("measles_france_5_2")
    raw = builtin("measles_france_5_2", clamp_beta=False)
    # month 8: 3.8 + 10 sin(9 pi/6) = -6.2
    assert clamped.schedules.beta.eval(8.0) == 0.0
    assert raw.schedules.beta.eval(8.0) == pytest.approx(-6.2, rel=1e-12)


def test_builtins_satisfy_hypotheses_and_incidence_checks():
    for name in BUILTIN_NAMES:
        spec = builtin(name)
        h = spec.h_values[-1]
        dp = mickens_discretize(spec.schedules, h, spec.denominator)
        omega = dp.step_period or 12
        hyp = validate_hypotheses(dp, window=omega, stop=200)
        assert hyp.h3_holds and hyp.h4_holds, name
        assert hyp.warnings == (), name
        for inc in (spec.incidence_phi, spec.incidence_psi):
            validate_incidence(inc.factor_form().g, inc.lipschitz_k)


# ---------------------------------------------------------------------------
# configuration round-trip and validation
# ---------------------------------------------------------------------------

def test_config_roundtrip_equals_builtin(tmp_path):
    spec = builtin("extinction_5_1")
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(spec_to_config(spec), indent=2))
    loaded = load_config(path)
    assert loaded == spec
    # serialize(load(x)) parses back identically as well
    path2 = tmp_path / "ext2.json"
    path2.write_text(json.dumps(spec_to_config(loaded), indent=2))
    assert load_config(path2) == loaded


def test_config_roundtrip_measles(tmp_path):
    spec = builtin("measles_france_5_2")
    path = tmp_path / "m.json"
    path.write_text(json.dumps(spec_to_config(spec)))
    assert load_config(path) == spec


def test_config_roundtrip_preserves_observed(tmp_path):
    (tmp_path / "obs.csv").write_text("t,cases\n0,106\n1,98\n")
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["observed_path"] = "obs.csv"
    path = tmp_path / "with_obs.json"
    path.write_text(json.dumps(cfg))
    loaded = load_config(path)
    assert loaded.observed is not None
    assert loaded.observed_path == "obs.csv"
    path2 = tmp_path / "with_obs2.json"
    path2.write_text(json.dumps(spec_to_config(loaded)))
    assert load_config(path2) == loaded


def _valid_config():
    return spec_to_config(builtin("extinction_5_1"))


def test_config_negative_mu_names_field(tmp_path):
    cfg = _valid_config()
    cfg["schedules"]["mu"]["params"]["value"] = -0.3
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="schedules.mu"):
        load_config(path)


def test_config_missing_incidence_rejected(tmp_path):
    cfg = _valid_config()
    del cfg["incidence"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="incidence"):
        load_config(path)


def test_config_unknown_key_rejected(tmp_path):
    cfg = _valid_config()
    cfg["extra_knob"] = 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="extra_knob"):
        load_config(path)


def test_config_nan_saturation_names_field(tmp_path):
    # json.loads accepts the NaN literal, so the incidence check must catch it
    cfg = spec_to_config(builtin("saturated_5_1_ext"))
    cfg["incidence"]["phi"]["params"]["a"] = float("nan")
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    assert '"a": NaN' in path.read_text()
    with pytest.raises(ConfigError, match="incidence.phi"):
        load_config(path)


# every config kind: the drawn component, and whether its config omits `phase`
_POS = st.floats(0.01, 10.0)


def _schedule(name):
    constant = st.builds(ParamSchedule.constant, st.just(name), st.floats(0.0, 10.0))
    harmonic = st.tuples(_POS, st.floats(-1.0, 1.0), _POS,
                         st.none() | st.floats(-3.0, 3.0)).map(
        lambda d: ParamSchedule.harmonic(name, d[0], d[1] * d[0], d[2],
                                         *(() if d[3] is None else (d[3],))))
    piecewise = st.lists(st.tuples(st.floats(0.1, 5.0), st.floats(0.0, 10.0)),
                         min_size=1, max_size=4).map(
        lambda rows: ParamSchedule.piecewise(
            name, np.cumsum([0.0] + [dt for dt, _ in rows[1:]]), [v for _, v in rows]))
    return constant | harmonic | piecewise


_INCIDENCES = st.sampled_from([IncidenceFn.mass_action(), IncidenceFn.standard()]) | st.builds(
    IncidenceFn.saturated, st.floats(0.0, 5.0))
_DENOMINATORS = (st.just(DenominatorFn.identity())
                 | st.builds(DenominatorFn.quadratic, st.floats(0.0, 5.0))
                 | st.builds(DenominatorFn.exp_decay, _POS))


@settings(max_examples=60, deadline=None)
@given(schedules=st.fixed_dictionaries({n: _schedule(n) for n in SCHEDULE_NAMES}),
       phi=_INCIDENCES, psi=_INCIDENCES, denominator=_DENOMINATORS,
       drop_zero_phase=st.booleans())
def test_config_roundtrip_every_kind(tmp_path_factory, schedules, phi, psi, denominator,
                                     drop_zero_phase):
    spec = replace(builtin("extinction_5_1"), schedules=ScheduleSet.from_mapping(schedules),
                   incidence_phi=phi, incidence_psi=psi, denominator=denominator)
    cfg = spec_to_config(spec)
    doc = json.loads(json.dumps(cfg))
    if drop_zero_phase:  # `phase` is optional and 0 by default
        for obj in doc["schedules"].values():
            if obj["params"].get("phase") == 0.0:
                del obj["params"]["phase"]
    path = tmp_path_factory.mktemp("roundtrip") / "cfg.json"
    path.write_text(json.dumps(doc))
    loaded = load_config(path)
    assert loaded == spec
    assert json.dumps(spec_to_config(loaded)) == json.dumps(cfg)


def test_config_encoding_a_callable_names_its_field():
    spec = builtin("extinction_5_1")
    custom = ParamSchedule.custom("sigma", lambda t: 0.3 + 0.0 * t)
    with pytest.raises(ConfigError, match="schedules.sigma"):
        spec_to_config(replace(spec, schedules=replace(spec.schedules, sigma=custom)))
    separable = IncidenceFn.separable(lambda x: x, lipschitz_k=1.0)
    with pytest.raises(ConfigError, match="incidence.psi"):
        spec_to_config(replace(spec, incidence_psi=separable))


@pytest.mark.parametrize("edit, path", [
    (lambda c: c["schedules"]["mu"].update(kind="custom"), "schedules.mu.kind"),
    (lambda c: c["incidence"]["phi"].update(kind="separable"), "incidence.phi.kind"),
    (lambda c: c["denominator"].update(kind="cubic"), "denominator.kind"),
    (lambda c: c["denominator"]["params"].update(c=1.0), "denominator.params"),
    (lambda c: c["schedules"]["beta"]["params"].update(period=4.0), "schedules.beta.params"),
    (lambda c: c["incidence"]["psi"].update(params={"a": 0.5}), "incidence.psi.params"),
])
def test_config_unknown_kind_or_param_names_its_field(edit, path):
    cfg = _valid_config()
    edit(cfg)
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        config_to_spec(cfg)


def test_config_parse_error_carries_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x",\n  "schedules": }')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


# ---------------------------------------------------------------------------
# observed series
# ---------------------------------------------------------------------------

def test_load_observed_minimal(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t,cases\n0,106\n1,98\n")
    series = load_observed(path)
    assert series.times.size == 2
    assert series.cases[0] == 106.0


def test_load_observed_crlf(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_bytes(b"t,cases\r\n0,106\r\n1,98\r\n")
    assert load_observed(path).times.size == 2


def test_load_observed_repeated_time_rejected(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t,cases\n0,106\n0,98\n")
    with pytest.raises(ConfigError, match="increasing"):
        load_observed(path)


@pytest.mark.parametrize("row", ["nan,6", "inf,3", "-inf,3"])
def test_load_observed_non_finite_time_rejected(tmp_path, row):
    # such rows were dropped from the residuals without a word, and the
    # manifest echoed the times as the non-JSON tokens NaN and Infinity
    path = tmp_path / "obs.csv"
    path.write_text(f"t,cases\n0,106\n{row}\n")
    with pytest.raises(ConfigError, match="observed times must be finite"):
        load_observed(path)


def test_load_observed_malformed_row_names_row(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t,cases\n0,106\n1,ninety\n")
    with pytest.raises(ConfigError, match="row 3"):
        load_observed(path)


def test_load_observed_requires_header(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("time,count\n0,106\n")
    with pytest.raises(ConfigError, match="t,cases"):
        load_observed(path)


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_run_extinction_scenario_verdicts():
    rep = run_scenario(builtin("extinction_5_1"))
    vm = rep.verdict_matrix
    assert vm[("continuous", None)] is Verdict.EXTINCTION
    assert vm[("nsfd", 1.0)] is Verdict.EXTINCTION
    assert vm[("nsfd", 0.5)] is Verdict.EXTINCTION
    assert vm[("nsfd", 2.0)] is Verdict.EXTINCTION
    assert vm[("nsfd", 4.0)] is Verdict.INCONCLUSIVE
    # every (method, h) cell is populated
    for h in (4.0, 2.0, 1.0, 0.5):
        assert ("nsfd", h) in vm and ("euler", h) in vm
    assert rep.consistency is not None
    assert rep.consistency.h_max_upper == pytest.approx(0.5093, abs=1e-3)


def test_run_persistence_scenario_verdicts():
    rep = run_scenario(builtin("persistence_5_1"))
    vm = rep.verdict_matrix
    assert vm[("continuous", None)] is Verdict.PERMANENCE
    for h in (2.0, 1.0, 0.5):
        assert vm[("nsfd", h)] is Verdict.PERMANENCE


def test_saturation_leaves_thresholds_unchanged():
    # the saturating incidence has the same slope at I = 0 as mass action,
    # and thresholds consume only that slope
    from nsfd_sirvs.thresholds import discrete_thresholds
    mass = builtin("extinction_5_1")
    sat = builtin("saturated_5_1_ext")
    for h in (1.0, 0.5):
        dm = mickens_discretize(mass.schedules, h, mass.denominator)
        ds = mickens_discretize(sat.schedules, h, sat.denominator)
        rm = discrete_thresholds(dm, mass.incidence_phi, mass.incidence_psi, 3)
        rs = discrete_thresholds(ds, sat.incidence_phi, sat.incidence_psi, 3)
        assert rs.r_upper == pytest.approx(rm.r_upper, abs=1e-12)


def test_run_saturated_scenario_verdicts():
    rep = run_scenario(builtin("saturated_5_1_ext"))
    vm = rep.verdict_matrix
    assert vm[("continuous", None)] is Verdict.EXTINCTION
    assert vm[("nsfd", 1.0)] is Verdict.EXTINCTION
    assert vm[("nsfd", 0.5)] is Verdict.EXTINCTION
    # the saturated trajectory itself goes extinct as well
    assert rep.per_h[1.0].nsfd.I[-1] < 1e-8


def test_run_inconsistency_scenario_flags():
    rep = run_scenario(builtin("inconsistency_4"))
    assert rep.verdict_matrix[("continuous", None)] is Verdict.PERMANENCE
    h = builtin("inconsistency_4").h_values[0]
    assert rep.verdict_matrix[("nsfd", h)] is not Verdict.PERMANENCE
    assert rep.inconsistency_flag
    # both derived from the one discrete report per step size
    (h_d, disc), = rep.discrete
    assert h_d == h
    assert rep.inconsistent_h == ((h, disc.verdict),)
    assert rep.verdict_matrix == {("continuous", None): Verdict.PERMANENCE,
                                  ("nsfd", h): disc.verdict,
                                  ("euler", h): rep.per_h[h].euler_empirical}


def test_measles_consistency_not_applicable():
    spec = builtin("measles_france_5_2")
    assert "beta" in consistency_skip_reason(spec.schedules)
    rep = run_scenario(spec)
    assert rep.consistency is None
    assert rep.consistency_skip_reason


def test_residuals_against_self_are_zero():
    spec = builtin("measles_france_5_2")
    base = run_scenario(spec)
    traj = base.per_h[1.0].nsfd
    series = ObservedSeries(times=traj.times[1::6], cases=traj.I[1::6])
    rep = run_scenario(spec.with_observed(series))
    res = rep.per_h[1.0].residuals
    assert res is not None
    assert res.rms == pytest.approx(0.0, abs=1e-9)
    assert np.all(res.observed == series.cases)


def test_reference_is_always_attached():
    # the reference stops at every run time (extinction_5_1 has no
    # breakpoint), and only there, and reaches the last run time
    spec = builtin("extinction_5_1")
    rep = run_scenario(spec)
    ref = rep.reference
    assert ref.method == "dp5"
    assert ref.max_step == 0.5 / 3  # three steps across a gap of 0.5, where the estimate allows
    runs = [run for res in rep.per_h.values() for run in (res.nsfd, res.euler)]
    assert np.array_equal(ref.times, np.unique(np.concatenate([run.times for run in runs])))
    assert ref.times[-1] == max(res.nsfd.times[-1] for res in rep.per_h.values())
    assert ref.times[-1] == pytest.approx(spec.t_end, abs=1e-9)
    # 37 of 50 periods; 1 440 steps to t_end, and 10 000 steps of 0.02 took RK4
    assert (ref.steps, ref.tail["from_period"]) == (1128, 37)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_no_reference_gap_exceeds_its_cap(name):
    # between two stops (scored times and breakpoints) the reference takes equal
    # steps, at least one and at most steps_for(gap, REFERENCE_CAP_STEP); the
    # capped gaps are those where the estimate asked for more (every gap past
    # the first block on inconsistency_4, whose spikes an rtol of 1e-8 would
    # resolve with 19 steps per gap), and elsewhere it takes fewer.  The steps
    # are read off the rows its stepper is handed, the same run again
    spec = builtin(name)
    runs, ref = method_runs(spec, discretize(spec, spec.h_values), spec.t_end)
    times = np.unique(np.concatenate([run.times for _, *pair in runs for run in pair]))
    stops = np.union1d(times, spec.schedules.breakpoints(0.0, float(times[-1])))
    assert np.array_equal(ref.times, stops)
    again, rows, _ = _recorded_reference(spec.schedules, spec.incidence_phi, spec.incidence_psi,
                                         spec.initial_state, times)
    assert np.array_equal(again.states, ref.states)
    gaps = np.diff(stops)
    steps = _gap_steps(rows, gaps)  # of each integrated gap: up to the tail's cut
    cut = len(steps)
    caps = [steps_for(gap, REFERENCE_CAP_STEP) for gap in gaps[:cut]]
    assert min(steps) >= 1 and np.all(np.array(steps) <= caps)
    assert sum(steps) == ref.steps and ref.max_step == max(gaps[:cut] / steps)
    if name == "inconsistency_4":
        assert ref.capped_gaps == cut - 8 and steps == caps
    else:
        assert ref.capped_gaps == 0 and ref.steps < 0.6 * sum(caps)


@settings(max_examples=40, deadline=None)
@given(t_end=st.floats(0.05, 12.0), h=st.floats(0.05, 3.0))
def test_every_method_runs_over_the_same_times(t_end, h):
    # ceil(t_end / h) steps for NSFD, Euler and RK4 alike, also where h does not
    # divide t_end
    spec = builtin("extinction_5_1")
    dp = mickens_discretize(spec.schedules, h, spec.denominator)
    [(_, nsfd, euler)], reference = method_runs(spec, [dp], t_end)
    rk4 = integrate_continuous(spec.schedules, spec.incidence_phi, spec.incidence_psi,
                               spec.initial_state, t_end, h, method="rk4")
    assert np.array_equal(nsfd.times, euler.times)
    assert np.array_equal(nsfd.times, rk4.times)
    assert nsfd.n_steps == max(1, math.ceil(t_end / h - 1e-9))
    assert nsfd.times[-1] >= t_end * (1.0 - 1e-9)
    assert nsfd.n_steps == 1 or nsfd.times[-2] < t_end
    assert reference.times[-1] >= nsfd.times[-1] * (1.0 - 1e-9)  # it reaches every run's end


def test_compare_reads_the_reference_at_every_compared_time():
    # at h = 0.4 both runs end at t = 1.2, past t_end = 1; the reference must
    # reach 1.2 instead of being held at its value at t = 1.  It stops at 0,
    # 0.4, 0.8 and 1.2, each gap at its cap of 10 equal steps (one block), so
    # it is DP5 at 0.04 but for the rounding of its node times: DOP853's
    # solution to 1e-10, and compare reads its own states at those times
    spec = builtin("extinction_5_1")
    runs, reference = method_runs(spec, discretize(spec, [0.4]), 1.0)
    rows, _, (times, states) = compare_methods(runs, reference)
    assert reference.steps == 30
    assert np.array_equal(reference.times, times)
    assert np.array_equal(states, reference.states)
    np.testing.assert_allclose(states, _dop853_at(spec, times), rtol=1e-10, atol=0.0)
    assert times[-1] == 1.2000000000000002
    assert states[-1, 1] == pytest.approx(0.19958, abs=1e-5)
    assert [(row[1], row[0]) for row in rows] == [("nsfd", 0.4), ("euler", 0.4)]
    [(_, *pair)] = runs
    for run, row in zip(pair, rows):
        assert np.array_equal(run.times, times)
        assert row[2] == float(np.max(np.abs(run.I - states[:, 1])))


def test_compare_refuses_a_reference_without_a_node_at_a_compared_time():
    # no interpolation: a reference that does not stop at every scored time is
    # an error, not a table read between its stops
    spec = builtin("extinction_5_1")
    runs, _ = method_runs(spec, discretize(spec, [0.3]), 1.0)
    off_grid = integrate_continuous(spec.schedules, spec.incidence_phi, spec.incidence_psi,
                                    spec.initial_state, 1.2, 0.25)
    with pytest.raises(ValueError, match="no state at some compared time"):
        compare_methods(runs, off_grid)


# inconsistency_4 over 6 of its 400 time units: its off-grid times k/6 start at once
_ORACLE_T_END = {"inconsistency_4": 6.0}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_reference_is_the_model_at_every_scored_time(name):
    # at every time compare.csv scores, the reference is DOP853's solution to
    # 1e-8 of max I, and to 1e-5 on inconsistency_4, whose spikes an RK4 step
    # of 1/54 resolves to 5.5e-6.  A reference interpolated linearly between
    # 0.01 steps reads 2.9e-5 there, and one whose steps end on a month
    # boundary reading the next month's beta reads 1.1e-3 on measles
    spec = builtin(name)
    t_end = _ORACLE_T_END.get(name, spec.t_end)
    runs, reference = method_runs(spec, discretize(spec, spec.h_values), t_end)
    _, _, (times, states) = compare_methods(runs, reference)
    exact = _dop853_at(spec, times)
    bound = 1e-5 if name == "inconsistency_4" else 1e-8
    assert np.max(np.abs(states[:, 1] - exact[:, 1])) <= bound * np.max(exact[:, 1])


# a coefficient of a generated model, at the built-ins' scale: constant, or
# harmonic of period 1, with its values in [lo, hi].  Faster models can need
# more steps than the cap allows (see `reference.dp5_reference`)
_GENERATED_RANGES = {"Lambda": (0.0, 1.0), "mu": (0.1, 0.5), "p": (0.0, 0.7), "eta": (0.0, 0.3),
                     "alpha": (0.0, 0.2), "beta": (0.0, 1.5), "sigma": (0.0, 1.0),
                     "gamma": (0.0, 0.5)}


def _generated_schedule(name):
    lo, hi = _GENERATED_RANGES[name]
    value = st.floats(lo, hi)
    constant = value.map(lambda v: ParamSchedule.constant(name, v))
    harmonic = st.tuples(value, st.floats(0.0, 1.0), st.floats(0.0, 2.0 * math.pi)).map(
        lambda d: ParamSchedule.harmonic(name, d[0], d[1] * d[0], 2.0 * math.pi, d[2]))
    return constant | harmonic


@settings(max_examples=40, deadline=None)
@given(schedules=st.fixed_dictionaries({n: _generated_schedule(n) for n in SCHEDULE_NAMES}),
       phi=_INCIDENCES, psi=_INCIDENCES, state=st.tuples(*[st.floats(0.05, 1.5)] * 4),
       h=st.sampled_from([0.1, 0.25]), t_end=st.floats(3.0, 6.0))
def test_reference_is_the_model_on_generated_models(schedules, phi, psi, state, h, t_end):
    # the gate above, on drawn constant and harmonic models: at every scored
    # time the reference is DOP853's solution to 1e-8 of max I
    spec = replace(builtin("extinction_5_1"), schedules=ScheduleSet.from_mapping(schedules),
                   incidence_phi=phi, incidence_psi=psi, initial_state=State(*state),
                   h_values=(h,), lam=1.0, t_end=t_end)
    runs, reference = method_runs(spec, discretize(spec, spec.h_values), t_end)
    _, _, (times, states) = compare_methods(runs, reference)
    exact = _dop853_at(spec, times)
    assert np.max(np.abs(states[:, 1] - exact[:, 1])) <= 1e-8 * np.max(exact[:, 1])


# `reference.dp5_reference` on each built-in: (the period it integrates to,
# whose states every later scored time repeats, or None for no tail; its
# steps), and the sha256 of the states at the stops and the stop times of the
# same reference integrated to t_end, as it was before it had a tail.  They
# were re-pinned when the reference stopped keeping every node: each is the
# node-level reference's states at its stops, the same numbers
_TAILS = {"extinction_5_1": (37, 1128), "persistence_5_1": (19, 840),
          "saturated_5_1_ext": (37, 1128), "saturated_5_1_per": (19, 808),
          "inconsistency_4": (93, 2790), "measles_france_5_2": (None, 896)}
_FULL_REFERENCE_DIGESTS = {
    "extinction_5_1": "a61fa8aed56d5c947170d5d10ce7d465a94e424b970594de70fb8f99442c0967",
    "persistence_5_1": "8aae15239afa7d2623181bf1e92db9a3e7162c7720da7153eb8ddc4ec0ce23bb",
    "saturated_5_1_ext": "17164539171ea2eff7bcb4cc4663098f635e73fae5b0063387a2b15af8eccc84",
    "saturated_5_1_per": "993189900d30cbee636924e3d757aba3446cae8834ad49fc6fd03b159e211673",
    "inconsistency_4": "a9e7a2e2c2b50df08c8593e60aa14b835dde7fc52a41ab671190098ca92359ba",
    "measles_france_5_2": "651ebad4c8dd87062794f8621ba9b9402d4df7ee4cd6c043b15fbed6ffb06a06",
}


def _reference_digest(ref):
    return hashlib.sha256(ref.states.tobytes() + ref.times.tobytes()).hexdigest()


def _full_reference(spec, hs, t_end):
    """`method_runs`' runs and their reference integrated to t_end, with no tail."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reference_module, "_stops_per_period", lambda regime, stops: None)
        return method_runs(spec, discretize(spec, hs), t_end)


def _tail_deviation(spec, hs, t_end):
    """The reference, the full run's, and the reference's largest deviation
    from it at the scored times, per component relative to the full run's
    largest value there."""
    runs, ref = method_runs(spec, discretize(spec, hs), t_end)
    _, _, (_, states) = compare_methods(runs, ref)
    full_runs, full = _full_reference(spec, hs, t_end)
    _, _, (_, at_full) = compare_methods(full_runs, full)
    scale = np.max(np.abs(at_full), axis=0)
    deviation = float(np.max(np.abs(states - at_full) / np.where(scale > 0.0, scale, 1.0)))
    return ref, full, deviation


def _cut_stop(spec, ref):
    """The index of the stop where a reference with a tail was cut: the first
    at or after the end of its tail's period, to 1e-9."""
    return int(np.searchsorted(ref.times, ref.tail["from_period"] * spec.schedules.regime().period
                               - 1e-9))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_the_reference_repeats_its_last_period_once_settled(name):
    # every periodic built-in settles: from the cut on, each scored time takes
    # the state at its offset in the last integrated period, within 1e-9 of
    # each component's largest value from the full run.  Up to the cut every
    # state at a stop is the full run's, bit for bit, and that run is the
    # reference as it was before it had a tail.  measles_france_5_2 is not
    # periodic (its table ends at 72 > t_end), so it has no tail
    spec = builtin(name)
    period, steps = _TAILS[name]
    ref, full, deviation = _tail_deviation(spec, spec.h_values, spec.t_end)
    assert full.tail["kind"] == "none" and _reference_digest(full) == _FULL_REFERENCE_DIGESTS[name]
    assert (ref.tail["from_period"], ref.steps) == (period, steps)
    assert np.array_equal(ref.times, full.times)
    if period is None:
        assert ref.tail == {"kind": "none", "from_period": None, "bound": None}
        assert _reference_digest(ref) == _reference_digest(full)
        return
    assert ref.tail["kind"] == "repeated" and 0.0 < ref.tail["bound"] < 1e-9
    assert deviation <= 1e-9
    # the cut ends a period: the stop there is a scored time k T
    cut = _cut_stop(spec, ref)
    assert ref.times[cut] == pytest.approx(period * spec.schedules.regime().period, abs=1e-9)
    assert np.array_equal(ref.states[:cut + 1], full.states[:cut + 1])


@pytest.mark.parametrize("name", [n for n in BUILTIN_NAMES if _TAILS[n][0] is not None])
def test_the_repeated_tail_is_the_model_over_the_next_two_periods(name):
    # an oracle for what the tail replaces: DOP853 (rtol 1e-12) from the
    # reference's state at the cut over the next two periods (the schedules
    # repeat, so it starts at t = 0) agrees with the repeated states within
    # the built-in's gate, 1e-8 of max I, 1e-5 on inconsistency_4
    spec = builtin(name)
    runs, ref = method_runs(spec, discretize(spec, spec.h_values), spec.t_end)
    _, _, (times, states) = compare_methods(runs, ref)
    T, k = spec.schedules.regime().period, _cut_stop(spec, ref)
    cut = ref.times[k]
    after = (times > cut) & (times <= cut + 2.0 * T * (1.0 + 1e-9))
    assert np.count_nonzero(after) == 2 * np.count_nonzero((times > 0.0) & (times <= T))
    exact = _dop853_at(replace(spec, initial_state=State(*ref.states[k])),
                       np.append(0.0, times[after] - cut), rtol=1e-12)[1:]
    bound = 1e-5 if name == "inconsistency_4" else 1e-8
    assert np.max(np.abs(states[after, 1] - exact[:, 1])) <= bound * np.max(states[:, 1])


def test_the_tail_needs_stops_that_repeat_with_the_period():
    # m stops in each period, each a whole number of periods after its twin in
    # the first, to 1e-9 T, over at least three periods; else no tail
    seasonal = builtin("persistence_5_1").schedules.regime()  # T = 4
    stops_per_period = reference_module._stops_per_period
    assert stops_per_period(seasonal, np.arange(81) * 0.5) == 8
    assert stops_per_period(seasonal, np.arange(25) * 0.5) == 8  # three periods
    assert stops_per_period(seasonal, np.arange(24) * 0.5) is None
    assert stops_per_period(seasonal, np.union1d(np.arange(81) * 0.5, np.arange(134) * 0.3)) is None
    shifted = np.arange(81) * 0.5
    shifted[-1] += 1e-8  # 2.5e-9 T off its twin
    assert stops_per_period(seasonal, shifted) is None
    assert stops_per_period(builtin("inconsistency_4").schedules.regime(),
                            np.arange(2401) * (1.0 / 6.0)) == 6  # k/6, each rounded
    measles = builtin("measles_france_5_2").schedules.regime()  # aperiodic
    assert stops_per_period(measles, np.arange(81) * 0.5) is None
    constant = ScheduleSet.from_mapping({n: ParamSchedule.constant(n, 0.5) for n in SCHEDULE_NAMES})
    assert stops_per_period(constant.regime(), np.arange(81) * 0.5) is None

def _piecewise_gamma():
    spec = builtin("persistence_5_1")
    sched = spec.schedules.as_dict()
    sched["gamma"] = ParamSchedule.piecewise("gamma", [0.0, 50.0], [0.3, 0.4])
    return replace(spec, schedules=ScheduleSet.from_mapping(sched))


@pytest.mark.parametrize("make, hs, t_end, digest", [
    pytest.param(lambda: builtin("persistence_5_1"), [0.3], 200.0,
                 "02c1045cbb60b3e15af6d05ca142059bc61638b72c7837a4df86b62d5e1c477b",
                 id="h-does-not-divide-T"),
    pytest.param(lambda: builtin("persistence_5_1"), [4.0, 2.0, 1.0, 0.5], 10.0,
                 "045a45ddc993d3829932a24bb0e528070dfc434b590f1fd46d6f18ca1c71bf0d",
                 id="under-three-periods"),
    pytest.param(_piecewise_gamma, [4.0, 2.0, 1.0, 0.5], 200.0,
                 "d6e3435f3138262afecd4a3b6a829a5bbb67636785eee47a611b3cec70a33412",
                 id="piecewise"),
])
def test_a_reference_without_a_periodic_grid_is_integrated_to_the_end(make, hs, t_end, digest):
    # no tail where the scored times do not repeat with the period (`compare
    # persistence_5_1 --h 0.3`), where the run spans under three periods, and
    # where a piecewise schedule makes the coefficients aperiodic: the same
    # states at the stops as the reference before it had a tail (re-pinned as
    # `_FULL_REFERENCE_DIGESTS` were; measles_france_5_2 is pinned with the
    # built-ins above)
    spec = make()
    _, ref = method_runs(spec, discretize(spec, hs), t_end)
    assert ref.tail == {"kind": "none", "from_period": None, "bound": None}
    assert _reference_digest(ref) == digest


# a slow model: `_GENERATED_RANGES` but mu in [0.005, 0.05], so the population
# relaxes by about exp(-mu) a period and the tail must wait for it
_SLOW_RANGES = {**_GENERATED_RANGES, "mu": (0.005, 0.05)}


def _slow_schedules(draw_value, harmonic):
    """A schedule set of `_SLOW_RANGES`: each coefficient `draw_value(name,
    lo, hi)`, harmonic of period 1 where `harmonic(name)` gives (relative
    amplitude, phase), else constant."""
    schedules = {}
    for name, (lo, hi) in _SLOW_RANGES.items():
        value, wave = draw_value(name, lo, hi), harmonic(name)
        schedules[name] = (ParamSchedule.constant(name, value) if wave is None else
                           ParamSchedule.harmonic(name, value, wave[0] * value, 2.0 * math.pi,
                                                  wave[1]))
    return ScheduleSet.from_mapping(schedules)


def _assert_slow_model_is_not_cut_early(schedules, state, h, t_end):
    spec = replace(builtin("extinction_5_1"), schedules=schedules, initial_state=State(*state),
                   h_values=(h,), lam=1.0, t_end=t_end)
    ref, _, deviation = _tail_deviation(spec, spec.h_values, t_end)
    assert deviation <= 2e-9, (ref.tail, deviation)


@settings(max_examples=20, deadline=None)
@given(values=st.fixed_dictionaries({n: st.floats(*r) for n, r in _SLOW_RANGES.items()}),
       waves=st.fixed_dictionaries({n: st.none() | st.tuples(st.floats(0.0, 1.0),
                                                             st.floats(0.0, 2.0 * math.pi))
                                    for n in _SLOW_RANGES}),
       state=st.tuples(*[st.floats(0.05, 1.5)] * 4), h=st.sampled_from([0.25, 0.5]),
       periods=st.integers(20, 80))
def test_a_slow_model_is_never_cut_early(values, waves, state, h, periods):
    # the cut waits for the slowest mode: wherever it repeats the last period,
    # the tail is within 2e-9 of the full run's largest value of each component
    _assert_slow_model_is_not_cut_early(
        _slow_schedules(lambda n, lo, hi: values[n], waves.get), state, h, float(periods))


@pytest.mark.parametrize("seed", [3, 17, 29, 41])
def test_slow_models_of_fixed_seeds_are_not_cut_early(seed):
    # the property above on four fixed draws, a regression set that does not
    # depend on how hypothesis draws
    rng = np.random.default_rng(seed)
    schedules = _slow_schedules(
        lambda n, lo, hi: rng.uniform(lo, hi),
        lambda n: (rng.uniform(), rng.uniform(0.0, 2.0 * math.pi)) if rng.random() < 0.5 else None)
    _assert_slow_model_is_not_cut_early(schedules, rng.uniform(0.05, 1.5, 4), 0.25, 60.0)


def test_compare_methods_scores_the_runs_it_is_given(monkeypatch):
    # runs are made in one place, method_runs; compare_methods calls no stepper
    import nsfd_sirvs.scenarios as scenarios_module

    spec = builtin("persistence_5_1")
    runs, reference = method_runs(spec, discretize(spec, [2.0, 1.0]), 20.0)

    def no_stepper(*args, **kwargs):
        raise AssertionError("compare_methods ran a stepper")

    for name in ("simulate_discrete", "integrate_continuous"):
        monkeypatch.setattr(scenarios_module, name, no_stepper)
    rows, nsfd_worse, _ = compare_methods(runs, reference)
    assert [(row[0], row[1]) for row in rows] == [
        (2.0, "nsfd"), (2.0, "euler"), (1.0, "nsfd"), (1.0, "euler")]
    assert nsfd_worse == [h for h, n, e in zip((2.0, 1.0), rows[::2], rows[1::2]) if n[2] > e[2]]


def test_run_scenario_computes_the_continuous_report_once(monkeypatch):
    # the step-bound report reuses run_scenario's continuous report
    import nsfd_sirvs.consistency as consistency_module
    import nsfd_sirvs.scenarios as scenarios_module
    import nsfd_sirvs.thresholds as thresholds_module

    calls = []
    original = thresholds_module.continuous_thresholds

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (thresholds_module, consistency_module, scenarios_module):
        monkeypatch.setattr(module, "continuous_thresholds", counting)
    rep = run_scenario(builtin("extinction_5_1"))
    assert rep.consistency is not None
    assert len(calls) == 1


def test_duplicate_step_sizes_rejected():
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["h_values"] = [1.0, 0.5, 1.0]
    with pytest.raises(ConfigError, match="distinct"):
        config_to_spec(cfg)


def test_a_separable_incidence_adds_no_warning_and_a_wrong_k_fails_before_a_run():
    # g is checked once, when the incidence is built: run_scenario adds no
    # incidence warning of its own, and a k below g's slope is refused there,
    # also when a checked incidence is copied with a new k
    spec = replace(builtin("extinction_5_1"), h_values=(1.0,), t_end=8.0)
    sep = IncidenceFn.separable(lambda x: x / (1.0 + x), 1.0)
    assert run_scenario(spec).warnings == ()
    assert run_scenario(replace(spec, incidence_phi=sep, incidence_psi=sep)).warnings == ()
    with pytest.raises(ConfigError, match="Lipschitz"):
        IncidenceFn.separable(lambda x: 2.0 * x, 1.0)
    with pytest.raises(ConfigError, match="Lipschitz"):
        replace(sep, lipschitz_k=0.5)
