import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd_sirvs.dynamics import State, integrate_continuous
from nsfd_sirvs.errors import ConfigError
from nsfd_sirvs.incidence import IncidenceFn, validate_incidence
from nsfd_sirvs.consistency import consistency_skip_reason
from nsfd_sirvs.scenarios import (BUILTIN_NAMES, RK4_REFERENCE_STEP, ObservedSeries,
                                  _nsfd_and_euler, builtin, compare_methods, config_to_spec,
                                  load_config, load_observed, run_scenario, spec_to_config)
from nsfd_sirvs.schedules import (SCHEDULE_NAMES, DenominatorFn, ParamSchedule, ScheduleSet,
                                  mickens_discretize, validate_hypotheses)
from nsfd_sirvs.thresholds import Verdict


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
        pop0 = float(sum(spec.initial_state))
        for inc in (spec.incidence_phi, spec.incidence_psi):
            rep = validate_incidence(inc, 2 * pop0, 2 * pop0, resolution=32,
                                     pop=pop0 if inc.needs_population else None)
            assert rep.passed, name
            if inc.needs_population:
                assert rep.notes  # the population-scaled caveat must be visible


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


def test_rk4_reference_is_always_attached():
    spec = builtin("extinction_5_1")
    rep = run_scenario(spec)
    assert rep.rk4_reference.method == "rk4"
    assert rep.rk4_reference.dt == 0.01
    assert rep.rk4_reference.times[-1] == pytest.approx(spec.t_end, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(t_end=st.floats(0.05, 12.0), h=st.floats(0.05, 3.0))
def test_every_method_runs_over_the_same_times(t_end, h):
    # ceil(t_end / h) steps for NSFD, Euler and RK4 alike, also where h does not
    # divide t_end
    spec = builtin("extinction_5_1")
    dp = mickens_discretize(spec.schedules, h, spec.denominator)
    nsfd, euler = _nsfd_and_euler(spec, dp, t_end)
    rk4 = integrate_continuous(spec.schedules, spec.incidence_phi, spec.incidence_psi,
                               spec.initial_state, t_end, h, method="rk4")
    assert np.array_equal(nsfd.times, euler.times)
    assert np.array_equal(nsfd.times, rk4.times)
    assert nsfd.n_steps == max(1, math.ceil(t_end / h - 1e-9))
    assert nsfd.times[-1] >= t_end * (1.0 - 1e-9)
    assert nsfd.n_steps == 1 or nsfd.times[-2] < t_end


def test_compare_reads_the_reference_at_every_compared_time():
    # at h = 0.4 both runs end at t = 1.2, past t_end = 1; the RK4 reference
    # must reach 1.2 instead of being held at its value at t = 1
    spec = builtin("extinction_5_1")
    rows, _ = compare_methods(spec, [0.4], 1.0)
    ref = integrate_continuous(spec.schedules, spec.incidence_phi, spec.incidence_psi,
                               spec.initial_state, 1.2, RK4_REFERENCE_STEP)
    assert ref.times[-1] == pytest.approx(1.2)
    assert ref.I[-1] == pytest.approx(0.19958, abs=1e-5)
    dp = mickens_discretize(spec.schedules, 0.4, spec.denominator)
    runs = _nsfd_and_euler(spec, dp, 1.0)
    assert [(row[1], row[0]) for row in rows] == [("nsfd", 0.4), ("euler", 0.4)]
    for run, row in zip(runs, rows):
        assert run.times[-1] == pytest.approx(1.2)
        assert row[2] == float(np.max(np.abs(run.I - np.interp(run.times, ref.times, ref.I))))


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
