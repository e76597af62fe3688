import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsfd_sirvs import consistency
from nsfd_sirvs.errors import ConfigError
from nsfd_sirvs.scenarios import BUILTIN_NAMES, builtin, compare_thresholds, discretize
from nsfd_sirvs.schedules import (APERIODIC_HORIZON, DISEASE_FREE_NAMES, SCHEDULE_NAMES,
                                  DenominatorFn, DiscreteParams, ParamSchedule,
                                  ScheduleSet, eval_denominator, mickens_discretize,
                                  validate_hypotheses)


def seasonal_beta(b=0.3):
    # b (1 + 0.3 cos(t pi/2)) written as base + amplitude*cos
    return ParamSchedule.harmonic("beta", b, 0.3 * b, math.pi / 2.0)


def full_set(b=0.3):
    return ScheduleSet(
        Lambda=ParamSchedule.constant("Lambda", 0.5),
        mu=ParamSchedule.constant("mu", 0.3),
        p=ParamSchedule.constant("p", 2.0 / 3.0),
        eta=ParamSchedule.constant("eta", 0.05),
        alpha=ParamSchedule.constant("alpha", 0.05),
        beta=seasonal_beta(b),
        sigma=ParamSchedule.harmonic("sigma", b, 0.3 * b, math.pi / 2.0),
        gamma=ParamSchedule.constant("gamma", 0.3),
    )


# ---------------------------------------------------------------------------
# denominator functions
# ---------------------------------------------------------------------------

def test_eval_denominator_quadratic_reference_value():
    assert eval_denominator(DenominatorFn.quadratic(0.2), 1.0) == pytest.approx(1.2, abs=1e-15)


def test_eval_denominator_identity():
    assert eval_denominator(DenominatorFn.identity(), 0.25) == 0.25


def test_eval_denominator_quadratic_half_step():
    # 0.5 + 0.2 * 0.25 by hand
    assert eval_denominator(DenominatorFn.quadratic(0.2), 0.5) == pytest.approx(0.55, abs=1e-15)


def test_eval_denominator_exp_decay():
    d = DenominatorFn.exp_decay(0.002)
    h = 3.0
    assert eval_denominator(d, h) == pytest.approx((1 - math.exp(-0.002 * h)) / 0.002, rel=1e-12)


@pytest.mark.parametrize("h", [0.0, -1.0])
def test_eval_denominator_rejects_nonpositive_h(h):
    with pytest.raises(ValueError):
        eval_denominator(DenominatorFn.identity(), h)


def test_denominator_rejects_negative_quadratic_coefficient():
    with pytest.raises(ValueError):
        DenominatorFn.quadratic(-0.1)


@pytest.mark.parametrize("d", [DenominatorFn.identity(), DenominatorFn.quadratic(0.2),
                               DenominatorFn.exp_decay(0.002), DenominatorFn.exp_decay(2.0)])
def test_denominator_asymptotics(d):
    # |phi(h)/h - 1| <= c*h with nonincreasing error down the grid
    hs = np.array([10.0 ** -k for k in range(1, 7)])
    errs = np.array([abs(eval_denominator(d, h) / h - 1.0) for h in hs])
    assert np.all(np.diff(errs) <= 1e-15)
    c = max(errs / hs)
    assert np.all(errs <= c * hs + 1e-18)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_harmonic_reference_value_at_zero():
    assert seasonal_beta(0.3).eval(0.0) == pytest.approx(0.39, abs=1e-15)


def test_constant_schedule():
    s = ParamSchedule.constant("mu", 0.0007)
    for t in (0.0, 1.0, 17.5, 1e6):
        assert s.eval(t) == 0.0007


def test_degenerate_harmonic_is_constant():
    s = ParamSchedule.harmonic("beta", 0.4, 0.0, 1.0)
    assert s.constant == 0.4
    ts = np.linspace(0, 50, 101)
    assert np.all(s.eval(ts) == 0.4)


def test_harmonic_declared_period():
    s = seasonal_beta()
    assert s.period == pytest.approx(4.0, abs=1e-15)
    ts = np.linspace(0.0, 4.0, 257)
    f0 = s.eval(ts)
    f1 = s.eval(ts + s.period)
    assert np.all(np.abs(f1 - f0) <= 1e-12 * (1 + np.abs(f0)))


def test_schedule_rejects_negative_time():
    with pytest.raises(ValueError):
        seasonal_beta().eval(-0.1)


@pytest.mark.parametrize("t", [math.inf, math.nan, np.array([0.0, 1.0, math.inf])])
def test_schedule_rejects_non_finite_time(t):
    # cos(inf) is NaN: a value at an infinite time is no value at all
    s = seasonal_beta()
    with pytest.raises(ValueError, match="evaluated at non-finite time"):
        s.eval(t)
    with pytest.raises(ValueError, match="derivative at non-finite time"):
        s.derivative_at(t)


def test_negative_constant_rejected():
    with pytest.raises(ValueError, match="mu"):
        ParamSchedule.constant("mu", -0.3)


def test_harmonic_dipping_negative_rejected():
    with pytest.raises(ValueError):
        ParamSchedule.harmonic("beta", 0.2, 0.3, 1.0)


def test_piecewise_left_closed_and_tail():
    s = ParamSchedule.piecewise("beta", [0.0, 1.0, 2.0], [5.0, 7.0, 2.0])
    assert s.eval(0.0) == 5.0
    assert s.eval(0.999) == 5.0
    assert s.eval(1.0) == 7.0
    assert s.eval(2.0) == 2.0
    assert s.eval(1e9) == 2.0


def test_left_column_is_the_limit_from_the_left():
    # at a breakpoint, the value of the interval that ends there; elsewhere,
    # and for every other kind, the column itself
    s = ParamSchedule.piecewise("beta", [0.0, 1.0, 2.0], [5.0, 7.0, 2.0])
    t = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
    assert s.left_column(t).tolist() == [5.0, 5.0, 7.0, 7.0, 2.0]
    assert s.column(t).tolist() == [5.0, 7.0, 7.0, 2.0, 2.0]
    h = ParamSchedule.harmonic("beta", 1.0, 0.5, 2.0)
    assert np.array_equal(h.left_column(t), h.column(t))
    flat = ParamSchedule.piecewise("beta", [0.0, 1.0], [3.0, 3.0])
    assert flat.left_column(t) == flat.column(t) == 3.0


def test_breakpoints_are_the_jumps_of_the_piecewise_schedules():
    s = full_set(0.9).as_dict()
    s["beta"] = ParamSchedule.piecewise("beta", [0.0, 1.0, 2.5], [1.0, 2.0, 1.0])
    s["gamma"] = ParamSchedule.piecewise("gamma", [0.0, 2.5, 4.0], [0.3, 0.2, 0.1])
    s["mu"] = ParamSchedule.piecewise("mu", [0.0, 3.0], [0.3, 0.3])  # declared constant
    sched = ScheduleSet.from_mapping(s)
    assert sched.breakpoints(0.0, 10.0).tolist() == [1.0, 2.5, 4.0]
    assert sched.breakpoints(1.0, 2.5).tolist() == [1.0, 2.5]
    assert sched.breakpoints(1.5, 2.0).size == 0
    assert full_set(0.9).breakpoints(0.0, 100.0).size == 0


def test_piecewise_empty_table_rejected():
    with pytest.raises(ConfigError):
        ParamSchedule.piecewise("beta", [], [])


def test_piecewise_negative_needs_opt_in():
    with pytest.raises(ValueError):
        ParamSchedule.piecewise("beta", [0.0, 1.0], [1.0, -1.0])
    s = ParamSchedule.piecewise("beta", [0.0, 1.0], [1.0, -1.0], allow_negative=True)
    assert s.eval(1.5) == -1.0


@pytest.mark.parametrize("key", ["base", "amplitude", "omega", "phase"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_harmonic_rejects_non_finite_parameters(key, bad):
    # a NaN base passed `base - |amplitude| < 0`, and a NaN phase every check
    params = {"base": 0.5, "amplitude": 0.1, "omega": 1.0, "phase": 0.0, key: bad}
    with pytest.raises(ValueError, match=f"'beta': harmonic {key} must be finite"):
        ParamSchedule.harmonic("beta", **params)


def test_harmonic_rejects_a_peak_that_overflows():
    # base 1e308 and amplitude 1e308 evaluated to inf at t = 0, and thresholds wrote nan
    with pytest.raises(ValueError, match="'beta': harmonic base \\+ \\|amplitude\\| overflows"):
        ParamSchedule.harmonic("beta", 1e308, 1e308, 1.0)


@pytest.mark.parametrize("breakpoints", [[0.0, math.nan, 2.0], [0.0, 1.0, math.inf],
                                         [math.nan, 1.0, 2.0]])
def test_piecewise_rejects_non_finite_breakpoints(breakpoints):
    # [0, nan, 2] passed `diff <= 0` and read 0.1 at t = 1.5
    with pytest.raises(ConfigError, match="'beta': (breakpoints must be finite"
                                          "|first breakpoint must be 0)"):
        ParamSchedule.piecewise("beta", breakpoints, [0.1, 0.2, 0.3])


@pytest.mark.parametrize("period", [math.nan, math.inf])
def test_custom_rejects_non_finite_period(period):
    with pytest.raises(ValueError, match="'beta': period must be positive and finite"):
        ParamSchedule.custom("beta", lambda t: 1.0 + 0.0 * t, period=period)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_denominators_reject_non_finite_parameters(bad):
    # quadratic(nan) and exp_decay(nan) passed the phi(h)/h check, a NaN comparison
    with pytest.raises(ValueError, match="quadratic denominator needs a finite a"):
        DenominatorFn.quadratic(bad)
    with pytest.raises(ValueError, match="exp_decay denominator needs a finite c"):
        DenominatorFn.exp_decay(bad)


@pytest.mark.parametrize("step_period", [0, -2, 2.0, math.nan])
def test_from_sequences_rejects_a_step_period_below_one(step_period):
    with pytest.raises(ValueError, match="step_period must be an integer >= 1"):
        DiscreteParams.from_sequences(0.5, step_period=step_period, Lambda=0.5, mu=0.3,
                                      p=0.6, eta=0.05, alpha=0.05, beta=0.3, sigma=0.3,
                                      gamma=0.3)


def test_custom_schedule_validates_period_and_derivative():
    fn = lambda t: 1.0 + np.sin(t) ** 2
    dfn = lambda t: np.sin(2 * t)
    s = ParamSchedule.custom("beta", fn, derivative=dfn, period=math.pi)
    assert s.eval(0.3) == pytest.approx(1.0 + math.sin(0.3) ** 2, rel=1e-14)
    with pytest.raises(ValueError, match="period"):
        ParamSchedule.custom("beta", fn, period=1.0)
    with pytest.raises(ValueError, match="derivative"):
        ParamSchedule.custom("beta", fn, derivative=lambda t: 0.0 * t + 1.0, period=math.pi)


def test_custom_schedule_negative_rejected_by_sampling():
    with pytest.raises(ValueError):
        ParamSchedule.custom("beta", lambda t: np.cos(t))


# ---------------------------------------------------------------------------
# Mickens discretization
# ---------------------------------------------------------------------------

def test_mickens_constant_schedule():
    dp = mickens_discretize(full_set(), 1.0, DenominatorFn.quadratic(0.2))
    for n in (0, 1, 7, 100):
        assert dp.Lambda(n) == pytest.approx(0.6, abs=1e-15)


def test_mickens_harmonic_at_zero():
    dp = mickens_discretize(full_set(), 1.0, DenominatorFn.quadratic(0.2))
    assert dp.beta(0) == pytest.approx(0.468, abs=1e-15)


def test_mickens_identity_denominator_scales_by_h():
    s = full_set()
    for h in (0.125, 0.5, 2.0):
        dp = mickens_discretize(s, h, DenominatorFn.identity())
        assert dp.gamma(0) == pytest.approx(0.3 * h, rel=1e-15)


def test_mickens_values_are_bitwise_products():
    rng = np.random.default_rng(7)
    s = full_set()
    d = DenominatorFn.quadratic(0.2)
    for _ in range(50):
        h = float(rng.uniform(0.05, 4.0))
        n = int(rng.integers(0, 1000))
        dp = mickens_discretize(s, h, d)
        for name in ("Lambda", "beta", "sigma", "mu"):
            expected = eval_denominator(d, h) * getattr(s, name).eval(n * h)
            assert getattr(dp, name)(n) == expected


def test_mickens_array_access_matches_scalar():
    dp = mickens_discretize(full_set(), 0.5, DenominatorFn.quadratic(0.2))
    arr = dp.array("beta", 3, 11)
    assert arr.shape == (8,)
    assert arr == pytest.approx([dp.beta(n) for n in range(3, 11)], rel=1e-15)


_STEP_PERIOD_SETS = {
    "seasonal": full_set,  # beta and sigma of period 4, the rest constant
    "constant": lambda: ScheduleSet(**{n: ParamSchedule.constant(n, 0.5)
                                       for n in SCHEDULE_NAMES}),
    "aperiodic": lambda: ScheduleSet.from_mapping({
        **full_set().as_dict(), "gamma": ParamSchedule.piecewise("gamma", [0.0, 50.0],
                                                                 [0.3, 0.31])}),
}


@pytest.mark.parametrize("schedules,h,expected", [
    ("seasonal", 1.0, 4), ("seasonal", 0.5, 8), ("seasonal", 4.0, 1), ("seasonal", 2.0, 2),
    ("seasonal", 0.7, None),
    ("constant", 0.7, 1), ("constant", 1e6, 1),
    ("aperiodic", 1.0, None), ("aperiodic", 0.5, None),
    ("seasonal", 5e-324, None),  # subnormal: T / h overflows to inf
    ("seasonal", 6.5, None), ("seasonal", 100.0, None),  # h > 1.5 T: less than one step
    ("seasonal", 4.0 / (3.0 * (1.0 + 9e-10)), 3),  # T / h within 1e-9 of 3, relative
    ("seasonal", 4.0 / (3.0 * (1.0 + 1e-8)), None),  # 1e-8 off 3
])
def test_step_period_detection(schedules, h, expected):
    dp = mickens_discretize(_STEP_PERIOD_SETS[schedules](), h, DenominatorFn.quadratic(0.2))
    assert dp.step_period == expected


# (step_period, aux_step_period) of each built-in at its h_values, then at the
# 16 steps of its `consistency --sweep` (None: it has no sweep)
_BUILTIN_STEP_PERIODS = {
    "extinction_5_1": ([(1, 1), (2, 1), (4, 1), (8, 1)], [(None, 1)] * 16),
    "persistence_5_1": ([(1, 1), (2, 1), (4, 1), (8, 1)], [(None, 1)] * 16),
    "saturated_5_1_ext": ([(1, 1), (2, 1), (4, 1), (8, 1)], [(None, 1)] * 16),
    "saturated_5_1_per": ([(1, 1), (2, 1), (4, 1), (8, 1)], [(None, 1)] * 16),
    "inconsistency_4": ([(6, 1)], [(None, 1)] * 16),
    "measles_france_5_2": ([(None, 1)], None),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_step_periods(name, monkeypatch):
    spec = builtin(name)
    at_h_values = [(dp.step_period, dp.aux_step_period)
                   for dp in discretize(spec, spec.h_values)]
    report = compare_thresholds(spec, spec.lam, []).consistency
    sweep = None
    if report is not None and not consistency.sweep_skip_reason(report):
        # the sweep's own steps, each discretized model read instead of reported
        monkeypatch.setattr(consistency, "window_thresholds",
                            lambda dp, *_: (dp.step_period, dp.aux_step_period))
        sweep = [pair for _, pair in consistency.consistency_sweep(
            spec.schedules, spec.incidence_phi, spec.incidence_psi, spec.denominator, report)]
    assert (at_h_values, sweep) == _BUILTIN_STEP_PERIODS[name]


def test_disease_free_step_period_reads_lambda_mu_p_eta_only():
    s = full_set().as_dict()
    s["Lambda"] = ParamSchedule.harmonic("Lambda", 0.5, 0.3, math.pi)  # period 2
    s["gamma"] = ParamSchedule.piecewise("gamma", [0.0, 50.0], [0.3, 0.31])
    dp = mickens_discretize(ScheduleSet.from_mapping(s), 0.5, DenominatorFn.identity())
    assert (dp.step_period, dp.aux_step_period) == (None, 4)
    dp = mickens_discretize(full_set(), 0.5, DenominatorFn.identity())  # Lambda .. eta constant
    assert (dp.step_period, dp.aux_step_period) == (8, 1)


_OMEGAS = (math.pi / 2.0, math.pi, 1.0)  # periods 4, 2 and 2 pi: draws often share one


def _regime_schedule(name, spec):
    """The schedule `name` of a drawn spec: ("constant", value), ("harmonic",
    base, amplitude, omega), ("piecewise", values) on fixed breakpoints, or
    ("custom", base, amplitude, omega), a sine that declares its period."""
    kind, *args = spec
    if kind == "piecewise":
        return ParamSchedule.piecewise(name, [0.0, 3.0, 7.5], args[0])
    if kind == "custom":
        base, amplitude, omega = args
        return ParamSchedule.custom(name, lambda t: base + amplitude * np.sin(omega * t),
                                    period=2.0 * math.pi / omega)
    return getattr(ParamSchedule, kind)(name, *args)


_REGIME_SPECS = st.one_of(
    st.tuples(st.just("constant"), st.floats(0.0, 2.0)),
    st.tuples(st.just("harmonic"), st.floats(1.0, 2.0), st.sampled_from([0.0, 0.5, 0.9]),
              st.sampled_from(_OMEGAS)),
    st.tuples(st.just("piecewise"), st.sampled_from([(0.3, 0.3, 0.3), (0.3, 0.4, 0.2)])),
    st.tuples(st.just("custom"), st.floats(1.0, 2.0), st.floats(0.0, 0.9),
              st.sampled_from(_OMEGAS)),
)
_REGIME_NAMES = (SCHEDULE_NAMES, DISEASE_FREE_NAMES, ("beta", "sigma", "alpha", "gamma"))
_c, _seasonal = ("constant", 0.5), ("harmonic", 1.0, 0.5, math.pi / 2.0)


# a fixed regression set: every kind of regime, and each way to be aperiodic
@example(specs=(_c,) * 8, names=SCHEDULE_NAMES)
@example(specs=(_c,) * 5 + (_seasonal, ("custom", 1.0, 0.5, math.pi / 2.0),
                            ("piecewise", (0.3, 0.3, 0.3))), names=SCHEDULE_NAMES)
@example(specs=(_c,) * 5 + (_seasonal, ("harmonic", 1.0, 0.5, math.pi), _c),
         names=SCHEDULE_NAMES)  # periods 4 and 2: commensurate, still no common one
@example(specs=(_seasonal,) + (_c,) * 6 + (("piecewise", (0.3, 0.4, 0.2)),),
         names=SCHEDULE_NAMES)
@example(specs=(_seasonal,) + (_c,) * 6 + (("piecewise", (0.3, 0.4, 0.2)),),
         names=DISEASE_FREE_NAMES)
@settings(max_examples=150, deadline=None)
@given(specs=st.tuples(*[_REGIME_SPECS] * 8), names=st.sampled_from(_REGIME_NAMES))
def test_regime_agrees_with_the_declared_periods_and_the_values(specs, names):
    sched = ScheduleSet(**{n: _regime_schedule(n, spec) for n, spec in zip(SCHEDULE_NAMES, specs)})
    regime = sched.regime(names)
    varying = [getattr(sched, n) for n in names if getattr(sched, n).constant is None]
    if regime.kind == "constant":
        assert all(getattr(sched, n).constant is not None for n in names)
    elif regime.kind == "periodic":
        T = regime.period
        assert varying and regime.span == T and regime.step_period(T / 3.0) == 3
        ts = np.linspace(0.0, 3.0 * T, 301)
        for s in varying:
            assert s.period is not None and abs(s.period - T) <= 1e-12 * max(1.0, T)
            np.testing.assert_allclose(s.eval(ts + T), s.eval(ts), rtol=1e-12, atol=0.0)
        return
    else:
        assert regime.kind == "aperiodic"
        periods = [s.period for s in varying]
        assert None in periods or any(abs(T - periods[0]) > 1e-12 * max(1.0, periods[0])
                                      for T in periods)
    assert (regime.period, regime.span) == (None, APERIODIC_HORIZON)
    assert regime.step_period(0.37) == (1 if regime.kind == "constant" else None)


_T = np.linspace(0.0, 200.0, 4001)


@pytest.mark.parametrize("sched", [
    ParamSchedule.constant("mu", 0.3),
    ParamSchedule.constant("mu", 0.0),
    ParamSchedule.constant("mu", -0.0),
    ParamSchedule.harmonic("mu", 0.3, 0.0, 1.3, 0.4),
    ParamSchedule.harmonic("mu", 0.3, -0.0, 1.3, 0.4),
    ParamSchedule.harmonic("mu", 0.0, 0.0, 1.3, 0.4),
    ParamSchedule.harmonic("mu", -0.0, 0.0, 1.3, 0.4),
    ParamSchedule.harmonic("mu", -0.0, -0.0, 1.3, 0.4),
    ParamSchedule.piecewise("mu", [0.0, 1.0, 7.0], [0.3, 0.3, 0.3]),
    ParamSchedule.piecewise("mu", [0.0, 1.0, 7.0], [0.0, -0.0, 0.0]),
    ParamSchedule.piecewise("mu", [0.0, 1.0], [-0.0, -0.0]),
], ids=lambda s: f"{s.kind}{s.params}")
def test_constant_value_is_every_evaluation_bit_for_bit(sched):
    # the stepping loops repeat `constant` instead of evaluating the schedule
    assert type(sched.constant) is float
    assert sched.eval(_T).tobytes() == np.full(_T.shape, sched.constant).tobytes()
    dp = mickens_discretize(ScheduleSet.from_mapping({**full_set().as_dict(), "mu": sched}),
                            0.01, DenominatorFn.quadratic(0.2))
    value = dp.constant("mu")
    assert type(value) is float
    assert value == eval_denominator(DenominatorFn.quadratic(0.2), 0.01) * sched.constant
    assert dp.array("mu", 0, 4001).tobytes() == np.full(4001, value).tobytes()


_values = st.sampled_from([0.0, -0.0, 0.3, 2.0 / 3.0, 5e-324, 7.25])
_zero_or_not = st.sampled_from([0.0, -0.0]) | st.floats(-0.2, 0.2, allow_nan=False)


@st.composite
def _schedule_and_constancy(draw):
    """A drawn schedule of each constructor and whether it declares itself
    constant: a `constant`, a harmonic with amplitude +-0, a table of equal values."""
    kind = draw(st.sampled_from(["constant", "harmonic", "piecewise", "custom"]))
    if kind == "constant":
        return ParamSchedule.constant("mu", draw(_values)), True
    if kind == "harmonic":
        amplitude, value = draw(_zero_or_not), draw(_values)
        base = value if amplitude == 0.0 else value + abs(amplitude)  # never dips below 0
        return ParamSchedule.harmonic("mu", base, amplitude, draw(st.floats(0.1, 10.0)),
                                      draw(st.floats(-4.0, 4.0))), amplitude == 0.0
    if kind == "piecewise":
        n = draw(st.integers(1, 4))
        values = draw(st.lists(_values, min_size=n, max_size=n))
        breakpoints = [0.0] + sorted(draw(st.sets(st.floats(0.5, 50.0), min_size=n - 1,
                                                  max_size=n - 1)))
        return (ParamSchedule.piecewise("mu", breakpoints, values),
                all(v == values[0] for v in values))
    value = draw(_values)
    return ParamSchedule.custom("mu", lambda t: value + 0.0 * t, period=1.0), False


@given(_schedule_and_constancy(), st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8))
def test_constant_is_declared_and_is_every_evaluation(drawn, times):
    sched, declared = drawn
    # set exactly where the constructor declares it: never read off the values,
    # so a custom callable that is constant in fact is not constant
    assert (sched.constant is not None) == declared
    constants = ScheduleSet.from_mapping({**full_set().as_dict(), "mu": sched}).constants(
        ("Lambda", "mu"))
    if sched.constant is None:
        assert constants is None
        return
    assert constants[0] == 0.5 and constants[1] is sched.constant
    assert type(sched.constant) is float
    ts = np.array(times)
    assert sched.eval(ts).tobytes() == np.full(ts.shape, sched.constant).tobytes()
    for t in times:
        assert np.float64(sched.eval(t)).tobytes() == np.float64(sched.constant).tobytes()


def test_sequence_constants_are_recorded_where_built():
    dp = DiscreteParams.from_sequences(0.5, Lambda=1, mu=0.3, p=-0.0, eta=np.float64(0.05),
                                       alpha=0.0, beta=lambda n: 0.3 + 0.0 * n, sigma=0.2,
                                       gamma=0.1)
    assert [dp.constant(n) for n in ("Lambda", "mu", "p", "eta", "beta")] == \
        [1.0, 0.3, 0.0, 0.05, None]
    assert all(type(dp.constant(n)) is float for n in ("Lambda", "eta", "alpha"))
    assert math.copysign(1.0, dp.constant("p")) == -1.0  # the value as given
    assert dp.array("p", 0, 3).tobytes() == np.full(3, -0.0).tobytes()
    dp = mickens_discretize(full_set(), 0.5, DenominatorFn.identity())
    assert dp.constant("beta") is None and dp.constant("gamma") == 0.5 * 0.3


def test_missing_schedule_is_config_error():
    with pytest.raises(ConfigError, match="missing"):
        ScheduleSet.from_mapping({"mu": ParamSchedule.constant("mu", 0.3)})


def test_mickens_rejects_nonpositive_h():
    with pytest.raises(ValueError):
        mickens_discretize(full_set(), 0.0, DenominatorFn.identity())


@pytest.mark.parametrize("h", [math.inf, math.nan])
def test_non_finite_step_is_a_config_error(h):
    # an infinite step gave NaN coefficient tables, and nan is no step size
    with pytest.raises(ConfigError, match="not finite"):
        mickens_discretize(full_set(), h, DenominatorFn.quadratic(0.2))
    with pytest.raises(ConfigError, match="not finite"):
        DiscreteParams.from_sequences(h, Lambda=0.5, mu=0.3, p=0.6, eta=0.05,
                                      alpha=0.05, beta=0.3, sigma=0.3, gamma=0.3)


# ---------------------------------------------------------------------------
# hypothesis validation
# ---------------------------------------------------------------------------

def test_hypotheses_constant_mu_closed_form():
    dp = DiscreteParams.from_sequences(1.0, Lambda=1.0, mu=0.3, p=0.5, eta=0.05,
                                       alpha=0.0, beta=0.1, sigma=0.1, gamma=0.1)
    rep = validate_hypotheses(dp, window=1, stop=100)
    assert rep.h3_max_product == pytest.approx((1 / 1.3) ** 2, rel=1e-12)
    assert rep.h3_holds and rep.h4_holds


def test_hypotheses_zero_inflow_fails_h4():
    dp = DiscreteParams.from_sequences(1.0, Lambda=0.0, mu=0.3, p=0.5, eta=0.05,
                                       alpha=0.0, beta=0.1, sigma=0.1, gamma=0.1)
    rep = validate_hypotheses(dp, window=1, stop=100)
    assert rep.h4_min_Lambda_sum == 0.0
    assert not rep.h4_holds


def test_hypotheses_hold_for_seasonal_benchmark():
    dp = mickens_discretize(full_set(), 1.0, DenominatorFn.quadratic(0.2))
    rep = validate_hypotheses(dp, window=4, stop=500)
    assert rep.h3_holds and rep.h4_holds
    assert rep.warnings == ()


def test_hypotheses_warn_on_negative_sequences():
    dp = DiscreteParams.from_sequences(1.0, Lambda=1.0, mu=0.3, p=0.5, eta=0.05,
                                       alpha=0.0, beta=-0.2, sigma=0.1, gamma=0.1)
    rep = validate_hypotheses(dp, window=1, stop=50)
    assert any("beta" in w for w in rep.warnings)


def step_table(values):
    """The sequence n -> values[n % len(values)]."""
    table = np.array(values)
    return lambda n: table[np.asarray(n) % table.size]


_INFLOW_TABLE = st.lists(st.one_of(st.just(0.0), st.floats(0.1, 2.0)), min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(mu=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=12), Lambda=_INFLOW_TABLE,
       p=_INFLOW_TABLE, w=st.integers(1, 12), stop=st.integers(1, 60))
def test_hypothesis_windows_are_the_direct_sums(mu, Lambda, p, w, stop):
    # the window of start n: H3 over k = n .. n + w, H4 over k = n + 1 .. n + w,
    # for n = 0 .. stop - 1, each against a direct loop to 1e-12 relative
    dp = DiscreteParams.from_sequences(1.0, Lambda=step_table(Lambda), mu=step_table(mu),
                                       p=step_table(p), eta=0.05, alpha=0.0, beta=0.1,
                                       sigma=0.1, gamma=0.1)
    rep = validate_hypotheses(dp, window=w, stop=stop)
    h3 = max(math.prod(1.0 / (1.0 + mu[k % len(mu)]) for k in range(n, n + w + 1))
             for n in range(stop))
    h4_Lambda, h4_p = (min(math.fsum(v[k % len(v)] for k in range(n + 1, n + w + 1))
                           for n in range(stop)) for v in (Lambda, p))
    for got, want in ((rep.h3_max_product, h3), (rep.h4_min_Lambda_sum, h4_Lambda),
                      (rep.h4_min_p_sum, h4_p)):
        assert abs(got - want) <= 1e-12 * abs(want)
