import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsfd_sirvs.errors import ConfigError
from nsfd_sirvs.schedules import (DenominatorFn, DiscreteParams, ParamSchedule,
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


@pytest.mark.parametrize("h,expected", [(1.0, 4), (0.5, 8), (4.0, 1), (2.0, 2), (0.7, None)])
def test_step_period_detection(h, expected):
    dp = mickens_discretize(full_set(), h, DenominatorFn.quadratic(0.2))
    assert dp.step_period == expected


def test_disease_free_step_period_reads_lambda_mu_p_eta_only():
    s = full_set().as_dict()
    s["Lambda"] = ParamSchedule.harmonic("Lambda", 0.5, 0.3, math.pi)  # period 2
    s["gamma"] = ParamSchedule.piecewise("gamma", [0.0, 50.0], [0.3, 0.31])
    dp = mickens_discretize(ScheduleSet.from_mapping(s), 0.5, DenominatorFn.identity())
    assert (dp.step_period, dp.aux_step_period) == (None, 4)
    dp = mickens_discretize(full_set(), 0.5, DenominatorFn.identity())  # Lambda .. eta constant
    assert (dp.step_period, dp.aux_step_period) == (8, 1)


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
