"""Coefficients that are the same function are evaluated once per grid.

`schedules.function_key` is the one sameness rule.  These tests count the
evaluations of twin schedules (beta and sigma of every built-in), check that
schedules which are not twins are kept apart, and check that sharing changes
no result bit: every output equals the one computed with the rule replaced by
"never the same".
"""

import dataclasses
import io
import math
from contextlib import redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd_sirvs import cli, consistency, schedules
from nsfd_sirvs.consistency import consistency_report
from nsfd_sirvs.dynamics import State, integrate_continuous, simulate_discrete
from nsfd_sirvs.incidence import IncidenceFn
from nsfd_sirvs.scenarios import builtin
from nsfd_sirvs.schedules import (DenominatorFn, DiscreteParams, ParamSchedule, ScheduleSet,
                                  function_key, mickens_discretize)
from nsfd_sirvs.thresholds import continuous_thresholds, discrete_thresholds

MASS = IncidenceFn.mass_action()


def _per_call(monkeypatch, module, name, counts):
    """Record the change of `counts` (a dict of counters) over each call of
    module.name, one copy of the counters per call."""
    per_call = []
    original = getattr(module, name)

    def wrapped(*args, **kwargs):
        before = dict(counts)
        result = original(*args, **kwargs)
        per_call.append({k: counts[k] - before[k] for k in counts})
        return result

    monkeypatch.setattr(module, name, wrapped)
    return per_call


def _run_sweep(name, tmp_path):
    with redirect_stdout(io.StringIO()):
        assert cli.main(["consistency", name, "--sweep", "--out", str(tmp_path)]) == 0


def test_inconsistency_sweep_evaluates_seasonal_once_per_report(monkeypatch, tmp_path):
    # beta and sigma of inconsistency_4 wrap the one `seasonal` callable (and its
    # derivative); each is wrapped once here, so the two stay twins
    counts = {"seasonal": 0, "seasonal_deriv": 0}
    counted = {}
    custom = ParamSchedule.custom.__func__

    def counting(fn, key):
        if fn not in counted:
            def fn_counted(t):
                counts[key] += 1
                return fn(t)
            counted[fn] = fn_counted
        return counted[fn]

    def custom_counted(cls, name, fn, derivative=None, **kwargs):
        return custom(cls, name, counting(fn, "seasonal"),
                      derivative and counting(derivative, "seasonal_deriv"), **kwargs)

    monkeypatch.setattr(ParamSchedule, "custom", classmethod(custom_counted))
    reports = _per_call(monkeypatch, consistency, "discrete_thresholds", counts)
    scans = _per_call(monkeypatch, consistency, "sup_abs_fprime", counts)
    _run_sweep("inconsistency_4", tmp_path)
    # the literal report at h = 1/4 also checks the step period, which reads two
    # more periods of the sequences; then the sweep's 16 reports
    assert reports == ([{"seasonal": 3, "seasonal_deriv": 0}]
                       + [{"seasonal": 1, "seasonal_deriv": 0}] * 16)
    # the sup |f'| grid is scanned one chunk at a time: one call per chunk for the pair
    chunks = math.ceil((consistency._SUP_GRID + 1) / consistency._SUP_CHUNK)
    assert scans == [{"seasonal": 0, "seasonal_deriv": chunks}]


def test_extinction_sweep_evaluates_the_harmonic_once_per_report(monkeypatch, tmp_path):
    # beta and sigma of extinction_5_1 are one harmonic, declared twice
    counts = {"harmonic": 0}
    evaluate = ParamSchedule.eval

    def eval_counted(self, t):
        if self.kind == "harmonic":
            counts["harmonic"] += 1
        return evaluate(self, t)

    monkeypatch.setattr(ParamSchedule, "eval", eval_counted)
    reports = _per_call(monkeypatch, consistency, "discrete_thresholds", counts)
    _run_sweep("extinction_5_1", tmp_path)
    # four literal reports, each exact-periodic and so period-checked, then the sweep's 16
    assert reports == [{"harmonic": 3}] * 4 + [{"harmonic": 1}] * 16


def _two_customs(f_beta, f_sigma):
    sched = builtin("inconsistency_4").schedules
    return dataclasses.replace(sched, beta=ParamSchedule.custom("beta", f_beta, period=1.0),
                               sigma=ParamSchedule.custom("sigma", f_sigma, period=1.0))


def test_custom_schedules_with_different_callables_are_not_twins(monkeypatch):
    def f_beta(t):
        return 0.5 + 0.25 * np.cos(2.0 * np.pi * t)

    def f_sigma(t):  # the same values, but another callable
        return 0.5 + 0.25 * np.cos(2.0 * np.pi * t)

    def f_other(t):
        return 0.5 + 0.25 * np.sin(2.0 * np.pi * t)

    sched = _two_customs(f_beta, f_sigma)
    # dataclass == ignores the callables; the sameness rule does not
    assert dataclasses.replace(sched.sigma, name="beta") == sched.beta
    assert function_key(sched.sigma) != function_key(sched.beta)
    assert function_key(ParamSchedule.custom("sigma", f_beta, period=1.0)) \
        == function_key(sched.beta)

    seen = []
    evaluate = ParamSchedule.eval
    monkeypatch.setattr(ParamSchedule, "eval",
                        lambda self, t: seen.append(self.name) or evaluate(self, t))
    dp = mickens_discretize(sched, 0.1, DenominatorFn.identity())
    assert dp.beta is not dp.sigma
    beta, sigma = dp.columns(("beta", "sigma"), 0, 10)
    assert seen == ["beta", "sigma"]

    seen.clear()
    other = mickens_discretize(_two_customs(f_beta, f_other), 0.1, DenominatorFn.identity())
    beta, sigma = other.columns(("beta", "sigma"), 0, 10)
    assert seen == ["beta", "sigma"]
    ns = np.arange(10) * 0.1
    assert np.array_equal(beta, 0.1 * f_beta(ns))
    assert np.array_equal(sigma, 0.1 * f_other(ns))
    assert not np.array_equal(beta, sigma)


def test_one_scalar_only_callable_given_twice_is_one_function():
    # `custom` wraps a callable that takes no ndarray for each schedule; the two
    # wrappers of one callable (and of one derivative) are still twins, so a
    # grid calls it once per point
    calls = [0]

    def f(t):
        calls[0] += 1
        return 0.5 + 0.25 * math.cos(t)

    def df(t):
        return -0.25 * math.sin(t)

    sched = dataclasses.replace(builtin("inconsistency_4").schedules,
                                beta=ParamSchedule.custom("beta", f, derivative=df),
                                sigma=ParamSchedule.custom("sigma", f, derivative=df))
    assert function_key(sched.beta) == function_key(sched.sigma)
    assert function_key(ParamSchedule.custom("sigma", f)) != function_key(sched.beta)
    t = np.linspace(0.0, 3.0, 7)
    calls[0] = 0
    beta, sigma = sched.evaluate(("beta", "sigma"), t, ParamSchedule.eval)
    assert calls[0] == t.size
    assert beta is sigma
    dp = mickens_discretize(sched, 0.1, DenominatorFn.identity())
    assert dp.beta is dp.sigma
    calls[0] = 0
    beta, sigma = dp.columns(("beta", "sigma"), 0, 10)
    assert calls[0] == 10
    assert beta is sigma
    assert np.array_equal(beta, [0.1 * f(0.1 * n) for n in range(10)])


@pytest.mark.parametrize("field, value", [("phase", -0.0), ("amplitude", -0.0)])
def test_signed_zero_parameters_are_not_twins(field, value):
    params = dict(base=0.4, amplitude=0.0, omega=1.0, phase=0.0)
    beta = ParamSchedule.harmonic("beta", **params)
    sigma = ParamSchedule.harmonic("sigma", **{**params, field: value})
    assert beta == dataclasses.replace(sigma, name="beta")  # == cannot tell them apart
    assert function_key(beta) != function_key(sigma)
    assert function_key(beta) == function_key(ParamSchedule.harmonic("sigma", **params))


def test_one_callable_given_twice_is_one_sequence():
    def seasonal(n):
        return 0.3 + 0.1 * np.cos(np.asarray(n) * 0.5)

    dp = DiscreteParams.from_sequences(0.5, Lambda=0.5, mu=0.3, p=0.6, eta=0.05, alpha=0.05,
                                       beta=seasonal, sigma=seasonal, gamma=0.3)
    beta, sigma = dp.columns(("beta", "sigma"), 0, 8)
    assert beta is sigma


# ---------------------------------------------------------------------------
# sharing changes no bit
# ---------------------------------------------------------------------------

_HORIZON = 6.0
_STATE = State(1.0, 0.2, 0.1, 1.0)


def _harmonic_twins(b, a, omega, phase, flip):
    beta = ParamSchedule.harmonic("beta", b, a, omega, phase)
    # flip: the same parameters but one zero of the other sign, which is not a twin
    a_s, phase_s = ((-a if a == 0.0 else a, phase) if flip == "amplitude" else
                    (a, -phase if phase == 0.0 else phase) if flip == "phase" else (a, phase))
    return beta, ParamSchedule.harmonic("sigma", b, a_s, omega, phase_s)


def _schedule_set(form, b, a, omega, phase, flip, table):
    if form == "harmonic":
        beta, sigma = _harmonic_twins(b, a, omega, phase, flip)
    elif form == "piecewise":
        breakpoints = [0.5 * i for i in range(len(table))]
        beta, sigma = (ParamSchedule.piecewise(name, breakpoints, table)
                       for name in ("beta", "sigma"))
    else:  # one custom callable and derivative, declared twice
        def fn(t):
            return b + a * np.cos(omega * t + phase)

        def dfn(t):
            return -a * omega * np.sin(omega * t + phase)

        beta, sigma = (ParamSchedule.custom(name, fn, derivative=dfn, period=2 * math.pi / omega)
                       for name in ("beta", "sigma"))
    return ScheduleSet(
        Lambda=ParamSchedule.constant("Lambda", 0.5), mu=ParamSchedule.constant("mu", 0.3),
        p=ParamSchedule.constant("p", 0.6), eta=ParamSchedule.constant("eta", 0.05),
        alpha=ParamSchedule.constant("alpha", 0.05), beta=beta, sigma=sigma,
        gamma=ParamSchedule.constant("gamma", 0.3))


def _outputs(form, b, a, omega, phase, flip, table, h, phi):
    """Every result the twins feed, as arrays."""
    if form == "sequences":
        def seasonal(n):
            return h * (b + a * np.cos(omega * h * np.asarray(n, dtype=float) + phase))

        dp = DiscreteParams.from_sequences(h, Lambda=0.5 * h, mu=0.3 * h, p=0.6 * h,
                                           eta=0.05 * h, alpha=0.05 * h, beta=seasonal,
                                           sigma=seasonal, gamma=0.3 * h)
        sched = None
    else:
        sched = _schedule_set(form, b, a, omega, phase, flip, table)
        dp = mickens_discretize(sched, h, DenominatorFn.quadratic(0.2))
    n_steps = int(math.ceil(_HORIZON / h))
    disc = discrete_thresholds(dp, phi, MASS, 3, burn_in=5, scan=40)
    out = [simulate_discrete(dp, phi, MASS, _STATE, n_steps).states, disc.window_products,
           np.array([disc.r_lower, disc.r_upper, disc.exact_periodic])]
    if sched is None:
        return out, dp
    for method in ("rk4", "euler"):
        out.append(integrate_continuous(sched, phi, MASS, _STATE, _HORIZON, h,
                                        method=method).states)
    cont = continuous_thresholds(sched, phi, MASS, 2.0)
    out.append(cont.window_products)
    if form != "piecewise":  # a step table has no step bound
        rep = consistency_report(sched, phi, MASS, cont)
        out += [rep.f_samples, np.array([rep.sup_abs_fprime, rep.fprime_argmax])]
    return out, dp


@settings(max_examples=40, deadline=None)
@given(form=st.sampled_from(["harmonic", "piecewise", "custom", "sequences"]),
       b=st.floats(0.1, 1.0),
       a_frac=st.sampled_from([0.0, 0.3, 0.7, -0.5]),
       omega=st.sampled_from([math.pi / 2.0, 1.0, 2.0 * math.pi]),
       phase=st.sampled_from([0.0, -0.0, 0.4, math.pi / 2.0]),
       flip=st.sampled_from(["none", "phase", "amplitude"]),
       table=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=5),
       h=st.sampled_from([0.05, 0.25, 1.0]),
       phi=st.sampled_from([MASS, IncidenceFn.saturated(0.7)]))
def test_sharing_twins_changes_no_bit(form, b, a_frac, omega, phase, flip, table, h, phi):
    args = (form, b, a_frac * b, omega, phase, flip, table, h, phi)
    shared, dp = _outputs(*args)
    twins = form in ("piecewise", "custom", "sequences") or flip == "none" \
        or (flip == "amplitude" and a_frac != 0.0) or (flip == "phase" and phase != 0.0)
    assert (dp.beta is dp.sigma) == twins
    beta, sigma = dp.columns(("beta", "sigma"), 0, 3)
    assert (beta is sigma) == twins
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(schedules, "function_key", lambda f: object())  # never the same
        apart, dp_apart = _outputs(*args)
        beta, sigma = dp_apart.columns(("beta", "sigma"), 0, 3)
    assert beta is not sigma
    assert len(shared) == len(apart)
    for x, y in zip(shared, apart):
        assert np.array_equal(x, y)
