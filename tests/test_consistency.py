import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from nsfd_sirvs.consistency import (_SUP_CHUNK, _SUP_GRID, consistency_report,
                                    consistency_sweep, h_max, lambda_steps, net_growth_function,
                                    sup_abs_fprime, sweep_skip_reason, window_thresholds)
from nsfd_sirvs.dynamics import aux_equilibrium
from nsfd_sirvs.errors import StepError
from nsfd_sirvs.incidence import IncidenceFn
from nsfd_sirvs.scenarios import inconsistency_example
from nsfd_sirvs.schedules import DenominatorFn, ParamSchedule, ScheduleSet, mickens_discretize
from nsfd_sirvs.thresholds import Verdict, continuous_thresholds, discrete_thresholds

from test_schedules import full_set
from test_dynamics import _decay_only_set

MASS = IncidenceFn.mass_action()


def constant_set(**overrides):
    vals = dict(Lambda=0.5, mu=0.3, p=2.0 / 3.0, eta=0.05, alpha=0.05,
                beta=0.3, sigma=0.3, gamma=0.3)
    vals.update(overrides)
    return ScheduleSet(**{k: ParamSchedule.constant(k, v) for k, v in vals.items()})


def report_for(sched, lam, **kwargs):
    """The step-bound report for mass action at window lam."""
    return consistency_report(sched, MASS, MASS, continuous_thresholds(sched, MASS, MASS, lam),
                              **kwargs)


# ---------------------------------------------------------------------------
# net growth rate along the disease-free equilibrium
# ---------------------------------------------------------------------------

def test_constant_coefficients_give_constant_f():
    f, fprime, analytic = net_growth_function(constant_set(), MASS, MASS)
    assert analytic
    ts = np.linspace(0.0, 20.0, 41)
    assert np.ptp(f(ts)) <= 1e-14
    assert np.all(fprime(ts) == 0.0)


def test_seasonal_f_vanishes_at_origin():
    # f(t) = 0.3 (1 + 0.3 cos(t pi/2)) (a + b) - 0.65 and a + b = 5/3,
    # so f(0) = 0.39 * 5/3 - 0.65 = 0
    f, _, _ = net_growth_function(full_set(0.3), MASS, MASS)
    assert abs(f(0.0)) <= 1e-12
    ts = np.linspace(0.0, 8.0, 65)
    oracle = 0.5 * (1.0 + 0.3 * np.cos(ts * math.pi / 2.0)) - 0.65
    assert f(ts) == pytest.approx(oracle, abs=1e-12)


def test_nonconstant_inflow_rejected():
    s = full_set(0.3)
    bad = ScheduleSet(Lambda=ParamSchedule.harmonic("Lambda", 0.5, 0.1, 1.0),
                      mu=s.mu, p=s.p, eta=s.eta, alpha=s.alpha, beta=s.beta,
                      sigma=s.sigma, gamma=s.gamma)
    with pytest.raises(ValueError, match="Lambda"):
        net_growth_function(bad, MASS, MASS)


def test_step_function_transmission_rejected():
    s = full_set(0.3)
    bad = ScheduleSet(Lambda=s.Lambda, mu=s.mu, p=s.p, eta=s.eta, alpha=s.alpha,
                      beta=ParamSchedule.piecewise("beta", [0.0, 1.0], [0.5, 0.2]),
                      sigma=s.sigma, gamma=s.gamma)
    with pytest.raises(ValueError, match="beta"):
        net_growth_function(bad, MASS, MASS)


def test_central_difference_fallback_matches_analytic():
    s = full_set(0.3)
    # same seasonal shape, but declared without a derivative
    beta = ParamSchedule.custom("beta", lambda t: 0.3 * (1 + 0.3 * np.cos(t * math.pi / 2)),
                                period=4.0)
    nod = ScheduleSet(Lambda=s.Lambda, mu=s.mu, p=s.p, eta=s.eta, alpha=s.alpha,
                      beta=beta, sigma=s.sigma, gamma=s.gamma)
    _, fp_analytic, analytic1 = net_growth_function(s, MASS, MASS)
    _, fp_numeric, analytic2 = net_growth_function(nod, MASS, MASS)
    assert analytic1 and not analytic2
    ts = np.linspace(0.1, 7.9, 64)
    assert fp_numeric(ts) == pytest.approx(fp_analytic(ts), abs=1e-8)


# ---------------------------------------------------------------------------
# sup |f'| and the step bounds
# ---------------------------------------------------------------------------

def test_sup_fprime_constant_is_zero():
    _, fprime, _ = net_growth_function(constant_set(), MASS, MASS)
    sup = sup_abs_fprime(fprime, (0.0, 10.0))
    assert sup.value == 0.0


def test_sup_fprime_seasonal_benchmark():
    # |f'| = 0.15 (pi/2) |sin(t pi/2)| peaks at t = 1 and t = 3
    _, fprime, _ = net_growth_function(full_set(0.3), MASS, MASS)
    sup = sup_abs_fprime(fprime, (0.0, 4.0))
    assert sup.value == pytest.approx(0.15 * math.pi / 2.0, rel=1e-8)
    assert min(abs(sup.argmax - 1.0), abs(sup.argmax - 3.0)) < 1e-3


def _grid_sup(fprime, t1, n):
    """The maximum of |f'| over n steps across [0, t1], with its argmax."""
    ts = np.linspace(0.0, t1, n + 1)
    vals = np.abs(np.asarray(fprime(ts), dtype=float))
    i = int(np.argmax(vals))
    return float(vals[i]), float(ts[i])


def _refined_periodic_sup(fprime, period):
    """sup |f'| of a period-periodic f' that has one peak per hump: the
    maximum over 1024 steps of a period, refined by a bounded Brent search
    (scipy's, independent of `sup_abs_fprime`) over the two steps around the
    grid's argmax, a period on so that no time is negative; never below the
    grid maximum.  Near a smooth peak the value's defect is quadratic in the
    search's abscissa error, about sqrt(eps) of the period: below 1e-13
    relative, where a 1e6-step grid's reaches 5e-12."""
    step = period / 1024
    grid_value, t = _grid_sup(fprime, period, 1024)
    res = minimize_scalar(lambda u: -abs(float(fprime(u))),
                          bounds=(t + period - step, t + period + step),
                          method="bounded", options={"xatol": 1e-12 * period})
    return max(grid_value, -float(res.fun))


def _harmonic_or_constant(name, base):
    """A schedule of base `base`: constant, or harmonic with a drawn amplitude
    (0.001 to 0.9 base, either sign) and phase; the frequency is given later."""
    return st.one_of(
        st.just(lambda omega: ParamSchedule.constant(name, base)),
        st.tuples(st.floats(0.001, 0.9), st.sampled_from([-1.0, 1.0]),
                  st.floats(-math.pi, math.pi)).map(
            lambda asp: lambda omega: ParamSchedule.harmonic(
                name, base, asp[0] * asp[1] * base, omega, asp[2])))


@settings(max_examples=60, deadline=None)
@given(omega=st.floats(0.2, 10.0), Lambda=st.floats(0.1, 2.0), mu=st.floats(0.05, 1.0),
       p=st.one_of(st.just(0.0), st.floats(0.01, 1.0)), eta=st.floats(0.0, 1.0),
       phi=st.sampled_from([MASS, IncidenceFn.saturated(0.7), IncidenceFn.standard()]),
       beta=_harmonic_or_constant("beta", 0.4), sigma=_harmonic_or_constant("sigma", 0.2),
       alpha=_harmonic_or_constant("alpha", 0.1), gamma=_harmonic_or_constant("gamma", 0.3))
def test_one_frequency_sup_is_the_closed_form(omega, Lambda, mu, p, eta, phi,
                                             beta, sigma, alpha, gamma):
    sched = ScheduleSet(
        Lambda=ParamSchedule.constant("Lambda", Lambda), mu=ParamSchedule.constant("mu", mu),
        p=ParamSchedule.constant("p", p), eta=ParamSchedule.constant("eta", eta),
        alpha=alpha(omega), beta=beta(omega), sigma=sigma(omega), gamma=gamma(omega))
    _, fprime, analytic = net_growth_function(sched, phi, MASS)
    assert analytic
    varying = [s for s in (sched.beta, sched.sigma, sched.alpha, sched.gamma)
               if s.constant is None]
    assert (fprime.harmonic is None) == (not varying)
    assume(varying)
    a, b = aux_equilibrium(Lambda, mu, eta, p)
    pop = a + b if phi.needs_population else None
    weights = {"beta": phi.d2_at_zero(a, pop), "sigma": b, "alpha": 1.0, "gamma": 1.0}
    # an evaluation of f' rounds relative to its terms, not to their (cancelling)
    # sum: a grid point next to a peak can evaluate a few ulp of `scale` above
    # the true sup |Z| omega, so "at least the grid maximum" holds to that rounding
    scale = omega * sum(abs(weights[s.name] * s.params["amplitude"]) for s in varying)
    rounding = 1e-15 * scale
    z, _ = fprime.harmonic
    assume(abs(z) * omega >= 1e-6 * scale)  # a sinusoid, not the rounding of a zero sum

    T = 2.0 * math.pi / omega
    sup = sup_abs_fprime(fprime, (0.0, T))
    oracle = _refined_periodic_sup(fprime, T)
    assert sup.value >= oracle - rounding
    assert sup.value <= oracle * (1.0 + 1e-9)
    assert 0.0 <= sup.argmax < T
    assert abs(abs(fprime(sup.argmax)) - sup.value) <= rounding


def test_sup_takes_the_grid_without_one_shared_frequency():
    # two frequencies, a scan shorter than half a period, and the custom
    # schedules of inconsistency_4: the 1e5-step grid, value and argmax unchanged
    s = full_set(0.3)
    mixed = ScheduleSet(Lambda=s.Lambda, mu=s.mu, p=s.p, eta=s.eta, alpha=s.alpha,
                        beta=s.beta, sigma=ParamSchedule.harmonic("sigma", 0.3, 0.1, 1.0),
                        gamma=s.gamma)
    _, fprime, _ = net_growth_function(mixed, MASS, MASS)
    assert fprime.harmonic is None
    assert tuple(sup_abs_fprime(fprime, (0.0, 40.0))) == _grid_sup(fprime, 40.0, 100_000)

    _, fprime, _ = net_growth_function(s, MASS, MASS)
    assert fprime.harmonic is not None
    assert tuple(sup_abs_fprime(fprime, (0.0, 1.5))) == _grid_sup(fprime, 1.5, 100_000)

    spec = inconsistency_example(L=6, d=0.6, c=1.5, mu=0.25, gamma=0.3, alpha=0.05,
                                 eta=0.05, p=2.0 / 3.0).spec
    _, fprime, _ = net_growth_function(spec.schedules, spec.incidence_phi,
                                       spec.incidence_psi)
    assert fprime.harmonic is None
    sup = sup_abs_fprime(fprime, (0.0, 1.0))
    assert tuple(sup) == _grid_sup(fprime, 1.0, 100_000)
    assert sup.value == 67.20598927168291


def test_closed_form_sup_of_the_seasonal_benchmarks_is_the_grid_sup():
    # beta and sigma share omega = pi/2 and phase 0: the peak is at t = 1 exactly,
    # a grid point, and the value is the grid's bit for bit
    for b in (0.3, 0.9):
        _, fprime, _ = net_growth_function(full_set(b), MASS, MASS)
        sup = sup_abs_fprime(fprime, (0.0, 4.0))
        assert tuple(sup) == _grid_sup(fprime, 4.0, 100_000)
        assert sup.argmax == 1.0


def _near_chunk_edges():
    """Grid indices at the grid's ends and on either side of a chunk boundary."""
    edges = list(range(_SUP_CHUNK, _SUP_GRID + 1, _SUP_CHUNK))
    return st.one_of(
        st.sampled_from([0, 1, _SUP_GRID - 1, _SUP_GRID]),
        st.tuples(st.sampled_from(edges), st.integers(-2, 1)).map(sum))


@settings(max_examples=60, deadline=None)
@given(t1=st.floats(0.5, 100.0), peaks=st.lists(_near_chunk_edges(), min_size=1, max_size=2,
                                                 unique=True),
       tie=st.booleans(), signs=st.tuples(st.sampled_from([-1.0, 1.0]),
                                          st.sampled_from([-1.0, 1.0])))
def test_chunked_sup_is_the_whole_grid_sup(t1, peaks, tie, signs):
    # |f'| < 1 off the drawn peaks; the peaks are 2 and 2 (a tie) or 2 and 3
    grid = np.linspace(0.0, t1, _SUP_GRID + 1)
    values = 0.9 * np.sin(np.arange(_SUP_GRID + 1.0))
    for k, (index, sign) in enumerate(zip(peaks, signs)):
        values[index] = sign * (2.0 if tie else 2.0 + k)

    def fprime(t):
        return values[np.searchsorted(grid, t)]

    sup = sup_abs_fprime(fprime, (0.0, t1))
    assert tuple(sup) == _grid_sup(fprime, t1, _SUP_GRID)
    first = min(peaks) if tie else peaks[-1]
    assert sup == (abs(values[first]), grid[first])


def _nan_near(t_nan, width, fn):
    def with_nan(t):
        out = np.asarray(fn(t), dtype=float)
        return np.where(np.abs(t - t_nan) < width, np.nan, out)
    return with_nan


def _seasonal(t):
    return 0.5 + 0.25 * np.cos(2.0 * np.pi * t)


def _seasonal_deriv(t):
    return -0.5 * np.pi * np.sin(2.0 * np.pi * t)


def _with_beta_and_sigma(schedule_of):
    sched = inconsistency_example(L=6, d=0.6, c=1.5, mu=0.25, gamma=0.3, alpha=0.05,
                                  eta=0.05, p=2.0 / 3.0).spec.schedules
    return dataclasses.replace(sched, beta=schedule_of("beta"), sigma=schedule_of("sigma"))


def test_non_finite_analytic_fprime_is_a_step_error():
    # f' NaN on a 2e-4 window that the schedule's checks miss gave
    # sup |f'| = nan and h_max = nan, and the sweep was skipped as unbounded
    dfn = _nan_near(0.123456, 1e-4, _seasonal_deriv)
    sched = _with_beta_and_sigma(
        lambda name: ParamSchedule.custom(name, _seasonal, derivative=dfn, period=1.0))
    continuous = continuous_thresholds(sched, MASS, MASS, 1.0)
    with pytest.raises(StepError, match=r"consistency report: non-finite f' at t=0\.12336$"):
        consistency_report(sched, MASS, MASS, continuous)


def test_non_finite_central_difference_fprime_is_a_step_error():
    # f NaN within 2e-6 of 0.123456: between the schedule's samples, but the
    # stencil of the grid point 0.12345 reaches 0.123455
    fn = _nan_near(0.123456, 2e-6, _seasonal)
    sched = _with_beta_and_sigma(lambda name: ParamSchedule.custom(name, fn, period=1.0))
    _, fprime, analytic = net_growth_function(sched, MASS, MASS)
    assert not analytic
    with pytest.raises(StepError, match=r"consistency report: non-finite f' at t=0\.12345$"):
        sup_abs_fprime(fprime, (0.0, 1.0))


def test_h_max_formula():
    sup = 0.15 * math.pi / 2.0
    got = h_max(-0.6, sup, 4.0, side="upper")
    assert got == pytest.approx(0.6 / (sup * 5.0), rel=1e-12)
    assert got == pytest.approx(0.509, abs=1e-3)


def test_h_max_sign_gates():
    assert h_max(0.5, 1.0, 4.0, side="upper") is None
    assert h_max(-0.5, 1.0, 4.0, side="lower") is None
    assert h_max(-0.5, 0.0, 4.0, side="upper") == math.inf
    with pytest.raises(ValueError):
        h_max(-0.5, 1.0, 4.0, side="both")


def test_consistency_report_extinction_benchmark():
    rep = report_for(full_set(0.3), 4.0, notes={"h_max_upper_reported": 0.05})
    assert rep.continuous.r_upper == pytest.approx(-0.6, abs=1e-3)
    assert rep.h_max_upper == pytest.approx(0.5093, abs=1e-3)
    assert rep.h_max_lower is None
    assert rep.notes["h_max_upper_reported"] == 0.05
    assert rep.continuous.verdict is Verdict.EXTINCTION
    a, b = rep.equilibrium
    assert a + b == pytest.approx(5.0 / 3.0, rel=1e-12)


@pytest.mark.parametrize("h, lam_d, starts", [(0.5, 7, (0, 7)), (0.7, 5, (2000, 4000))])
def test_window_thresholds_is_the_discrete_report_for_the_time_window(h, lam_d, starts):
    # window_thresholds reads the starts discrete_thresholds chooses: the
    # step-periodic report (h = 0.5) its 8 phases, the other one the default
    # scan, `thresholds.SCAN` starts after `thresholds.BURN_IN`
    dp = mickens_discretize(full_set(0.3), h, DenominatorFn.quadratic(0.2))
    rep = window_thresholds(dp, MASS, MASS, 4.0)
    assert rep.lam == lambda_steps(4.0, h) == lam_d
    assert (rep.burn_in, rep.scan) == starts
    direct = discrete_thresholds(dp, MASS, MASS, lam_d)
    assert rep.window_products.tobytes() == direct.window_products.tobytes()


@settings(max_examples=400, deadline=None)
@given(Lambda=st.floats(0.01, 10.0), mu=st.floats(0.01, 2.0), p=st.floats(0.0, 2.0),
       eta=st.floats(0.0, 2.0), alpha=st.floats(0.0, 2.0), beta=st.floats(0.0, 5.0),
       sigma=st.floats(0.0, 5.0), gamma=st.floats(0.0, 2.0),
       phi=st.one_of(st.just(MASS), st.floats(0.0, 5.0).map(IncidenceFn.saturated),
                     st.just(IncidenceFn.standard())),
       psi=st.one_of(st.just(MASS), st.floats(0.0, 5.0).map(IncidenceFn.saturated),
                     st.just(IncidenceFn.standard())),
       denominator=st.one_of(st.just(DenominatorFn.identity()),
                             st.floats(0.0, 2.0).map(DenominatorFn.quadratic),
                             st.floats(0.05, 5.0).map(DenominatorFn.exp_decay)),
       h=st.floats(1e-3, 10.0), lam=st.floats(0.5, 10.0))
def test_constant_coefficients_keep_the_continuous_verdict_at_every_step(
        Lambda, mu, p, eta, alpha, beta, sigma, gamma, phi, psi, denominator, h, lam):
    # elementary stability (Anguelov & Lubuma 2001): with every coefficient
    # constant the discrete equilibrium is the continuous one, so each window
    # product lies on the side of 1 that R_C lies on of 0, whatever h and phi(h);
    # and sup |f'| = 0 makes the step bound unbounded
    sched = constant_set(Lambda=Lambda, mu=mu, p=p, eta=eta, alpha=alpha, beta=beta,
                         sigma=sigma, gamma=gamma)
    continuous = continuous_thresholds(sched, phi, psi, lam)
    assume(continuous.verdict is not Verdict.INCONCLUSIVE)
    # R_C within 1e-6 of its removal terms is left out: there the sign of the
    # window product is decided by rounding, not by the model
    assume(abs(continuous.r_upper) >= 1e-6 * lam * (mu + alpha + gamma))
    dp = mickens_discretize(sched, h, denominator)
    assert window_thresholds(dp, phi, psi, lam).verdict is continuous.verdict
    assert consistency_report(sched, phi, psi, continuous).verdict_bound == math.inf


_MASS_OR_SATURATED = st.one_of(st.just(MASS), st.floats(0.0, 2.0).map(IncidenceFn.saturated))


@settings(max_examples=250, deadline=None)
@given(T=st.floats(0.5, 12.0), periods=st.integers(1, 2), finer=st.integers(1, 4),
       Lambda=st.floats(0.05, 2.0), mu=st.floats(0.05, 1.0), p=st.floats(0.0, 1.0),
       eta=st.floats(0.0, 1.0), alpha=st.floats(0.0, 1.0), gamma=st.floats(0.0, 1.0),
       beta=st.floats(0.05, 2.0), sigma=st.floats(0.05, 2.0),
       beta_amp=st.floats(0.05, 0.9), sigma_amp=st.floats(0.05, 0.9),
       phi=_MASS_OR_SATURATED, psi=_MASS_OR_SATURATED,
       denominator=st.one_of(st.just(DenominatorFn.identity()),
                             st.floats(0.0, 1.0).map(DenominatorFn.quadratic),
                             st.floats(0.01, 2.0).map(DenominatorFn.exp_decay)))
def test_steps_below_the_bound_keep_the_continuous_verdict(
        T, periods, finer, Lambda, mu, p, eta, alpha, gamma, beta, sigma, beta_amp,
        sigma_amp, phi, psi, denominator):
    # the paper's consistency theorem: at every h <= the printed verdict bound,
    # the discrete verdict is the continuous one.  Seasonal beta and sigma of one
    # period T, a window of whole periods and h = T / m make the report exact.
    w = 2.0 * math.pi / T
    sched = ScheduleSet(
        Lambda=ParamSchedule.constant("Lambda", Lambda), mu=ParamSchedule.constant("mu", mu),
        p=ParamSchedule.constant("p", p), eta=ParamSchedule.constant("eta", eta),
        alpha=ParamSchedule.constant("alpha", alpha),
        beta=ParamSchedule.harmonic("beta", beta, beta_amp * beta, w),
        sigma=ParamSchedule.harmonic("sigma", sigma, sigma_amp * sigma, w, 1.0),
        gamma=ParamSchedule.constant("gamma", gamma))
    lam = periods * T
    continuous = continuous_thresholds(sched, phi, psi, lam)
    report = consistency_report(sched, phi, psi, continuous)
    assume(not sweep_skip_reason(report))  # the theorem needs a finite bound
    bound = report.verdict_bound
    m = math.ceil(T / bound)
    while T / m > bound:
        m += 1
    dp = mickens_discretize(sched, T / (finer * m), denominator)
    rep = window_thresholds(dp, phi, psi, lam)
    assert rep.exact_periodic
    assert rep.verdict is continuous.verdict


def test_equilibrium_satisfies_stationarity():
    rng = np.random.default_rng(17)
    for _ in range(200):
        lam, mu, eta, p = rng.uniform(0.01, 3.0, 4)
        a, b = aux_equilibrium(lam, mu, eta, p)
        assert abs(lam - (mu + p) * a + eta * b) <= 1e-12 * (1.0 + lam)
        assert abs(p * a - (mu + eta) * b) <= 1e-12 * (1.0 + lam)


def test_sweep_matches_continuous_verdict():
    rep = report_for(full_set(0.3), 4.0)
    pairs = consistency_sweep(full_set(0.3), MASS, MASS, DenominatorFn.quadratic(0.2),
                              rep, n=4)
    assert len(pairs) == 4
    assert all(d.verdict is rep.continuous.verdict for _, d in pairs)
    assert all(d.verdict is Verdict.EXTINCTION for _, d in pairs)


def test_sweep_needs_a_decisive_verdict():
    rep = report_for(_decay_only_set(), 1.0)
    with pytest.raises(ValueError):
        consistency_sweep(_decay_only_set(), MASS, MASS, DenominatorFn.identity(), rep)


def test_sweep_needs_a_finite_bound():
    # constant coefficients: sup |f'| = 0, so the guarantee holds for every h
    sched = constant_set(beta=0.1, sigma=0.1)
    rep = report_for(sched, 4.0)
    assert rep.continuous.verdict is Verdict.EXTINCTION
    assert rep.verdict_bound == math.inf
    reason = sweep_skip_reason(rep)
    assert reason == "step bound is unbounded or undefined; nothing to sweep"
    with pytest.raises(ValueError, match="nothing to sweep"):
        consistency_sweep(sched, MASS, MASS, DenominatorFn.identity(), rep)


def test_sweep_skip_reason_follows_the_verdict_side():
    ext = report_for(full_set(0.3), 4.0)
    assert ext.verdict_bound == ext.h_max_upper and math.isfinite(ext.verdict_bound)
    assert sweep_skip_reason(ext) == ""
    per = report_for(full_set(0.9), 4.0)
    assert per.verdict_bound == per.h_max_lower and math.isfinite(per.verdict_bound)
    assert sweep_skip_reason(per) == ""


# ---------------------------------------------------------------------------
# window index mapping
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam,h,expected", [
    (4.0, 4.0, 0), (4.0, 2.0, 1), (4.0, 1.0, 3), (4.0, 0.5, 7),
    (4.0, 0.1, 39), (4.0, 0.3, 13), (1.0, 1.0 / 6.0, 5), (0.0, 4.0, 0),
])
def test_lambda_steps(lam, h, expected):
    assert lambda_steps(lam, h) == expected


# ---------------------------------------------------------------------------
# the deliberate counterexample
# ---------------------------------------------------------------------------

def test_inconsistency_example_closed_forms():
    ex = inconsistency_example(L=6, d=0.6, c=1.5, mu=0.25, gamma=0.3, alpha=0.05,
                               eta=0.05, p=2.0 / 3.0)
    assert ex.r_c_lower_closed_form == pytest.approx(0.45, abs=1e-12)
    assert ex.discrete_reported_closed_form == pytest.approx(0.6875, abs=1e-12)
    assert ex.continuous_permanent_regime
    assert ex.discrete_subthreshold_regime
    assert ex.inconsistency_expected
    assert ex.spec.h_values == (1.0 / 6.0,)


def test_inconsistency_example_net_growth_is_shifted_transmission():
    # with matched inflow (Lambda = mu) the equilibrium satisfies a + b = 1,
    # so f(t) collapses to beta(t) - (mu + alpha + gamma) = beta(t) - 0.6
    ex = inconsistency_example(L=6, d=0.6, c=1.5, mu=0.25, gamma=0.3, alpha=0.05,
                               eta=0.05, p=2.0 / 3.0)
    f, _, _ = net_growth_function(ex.spec.schedules, ex.spec.incidence_phi,
                                  ex.spec.incidence_psi)
    ts = np.linspace(0.0, 1.0, 97)
    beta = ex.spec.schedules.beta.eval(ts)
    assert f(ts) == pytest.approx(beta - 0.6, abs=1e-12)


def test_inconsistency_example_one_period_product_is_neutral():
    from nsfd_sirvs.schedules import mickens_discretize
    from nsfd_sirvs.thresholds import periodic_discrete_threshold
    ex = inconsistency_example(L=6, d=0.6, c=1.5, mu=0.25, gamma=0.3, alpha=0.05,
                               eta=0.05, p=2.0 / 3.0)
    dp = mickens_discretize(ex.spec.schedules, 1.0 / 6.0, ex.spec.denominator)
    per = periodic_discrete_threshold(dp, ex.spec.incidence_phi,
                                      ex.spec.incidence_psi, 6)
    # sampling hits the transmission minima: every factor is (1+0.1)/(1+0.1)
    assert per == pytest.approx(1.0, abs=1e-12)
    assert per != pytest.approx(ex.discrete_reported_closed_form, abs=0.1)


def test_h_max_lower_single_period_window():
    # permanence-side bound with a one-unit window: r_c / (2 sup|f'|)
    assert h_max(0.45, 2.0, 1.0, side="lower") == pytest.approx(0.45 / 4.0, rel=1e-14)


def test_inconsistency_example_quadrature_matches_closed_form():
    from nsfd_sirvs.thresholds import continuous_thresholds
    ex = inconsistency_example(L=6, d=0.6, c=1.5, mu=0.25, gamma=0.3, alpha=0.05,
                               eta=0.05, p=2.0 / 3.0)
    rep = continuous_thresholds(ex.spec.schedules, ex.spec.incidence_phi,
                                ex.spec.incidence_psi, 1.0)
    assert rep.r_lower == pytest.approx(0.45, abs=1e-3)
    assert rep.verdict is Verdict.PERMANENCE


def test_inconsistency_example_sup_fprime_against_direct_formula():
    # beta'(t) = d c [2 pi L sin(4 pi L t)(1 + cos 2 pi t)
    #                 - 2 pi sin^2(2 pi L t) sin 2 pi t], and f' = (a+b) beta'
    L, d, c = 6, 0.6, 1.5
    ex = inconsistency_example(L=L, d=d, c=c, mu=0.25, gamma=0.3, alpha=0.05,
                               eta=0.05, p=2.0 / 3.0)
    _, fprime, _ = net_growth_function(ex.spec.schedules, ex.spec.incidence_phi,
                                       ex.spec.incidence_psi)
    sup = sup_abs_fprime(fprime, (0.0, 1.0))
    ts = np.linspace(0.0, 1.0, 100_001)
    direct = d * c * (2 * np.pi * L * np.sin(4 * np.pi * L * ts) * (1 + np.cos(2 * np.pi * ts))
                      - 2 * np.pi * np.sin(2 * np.pi * L * ts) ** 2 * np.sin(2 * np.pi * ts))
    assert sup.value == pytest.approx(np.max(np.abs(direct)), rel=1e-9)


def test_inconsistency_example_degenerate_forcing():
    # c = 0 removes the seasonal spikes entirely: no inconsistency window
    ex = inconsistency_example(L=6, d=0.6, c=0.0, mu=0.25, gamma=0.3, alpha=0.05,
                               eta=0.05, p=2.0 / 3.0)
    assert not ex.inconsistency_expected
    ts = np.linspace(0.0, 2.0, 33)
    assert np.all(ex.spec.schedules.beta.eval(ts) == 0.6)


def test_inconsistency_example_rejects_bad_parameters():
    with pytest.raises(ValueError):
        inconsistency_example(L=0, d=0.6, c=1.5, mu=0.25, gamma=0.3, alpha=0.05,
                              eta=0.05, p=2.0 / 3.0)
    with pytest.raises(ValueError):
        inconsistency_example(L=6, d=-0.1, c=1.5, mu=0.25, gamma=0.3, alpha=0.05,
                              eta=0.05, p=2.0 / 3.0)
