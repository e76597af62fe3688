import itertools
import math
import re
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd_sirvs import thresholds
from nsfd_sirvs.consistency import (consistency_report, consistency_sweep, net_growth_function,
                                    window_thresholds)
from nsfd_sirvs.dynamics import (AuxState, aux_equilibrium, periodic_aux_solution, simulate_aux,
                                 simulate_discrete, verify_step_periodic)
from nsfd_sirvs.errors import ConfigError, StepError
from nsfd_sirvs.incidence import IncidenceFn
from nsfd_sirvs.scenarios import BUILTIN_NAMES, _seasonal_schedules, builtin, run_scenario
from nsfd_sirvs.schedules import (DenominatorFn, DiscreteParams, ParamSchedule,
                                  ScheduleSet, mickens_discretize)
from nsfd_sirvs.thresholds import (ThresholdReport, Verdict, classify,
                                   continuous_thresholds, discrete_thresholds,
                                   independence_check, periodic_discrete_threshold)

from test_consistency import _MASS_OR_SATURATED
from test_reference_equivalence import KINDS
from test_schedules import full_set, step_table

MASS = IncidenceFn.mass_action()
STANDARD = IncidenceFn.standard()


def seasonal_dp(b, h):
    return mickens_discretize(full_set(b), h, DenominatorFn.quadratic(0.2))


# ---------------------------------------------------------------------------
# discrete windows
# ---------------------------------------------------------------------------

def test_extinction_window_product_h1():
    rep = discrete_thresholds(seasonal_dp(0.3, 1.0), MASS, MASS, 3)
    assert rep.r_upper == pytest.approx(0.644, rel=5e-3)
    assert rep.exact_periodic
    assert abs(rep.r_upper - rep.r_lower) < 1e-10
    assert rep.verdict is Verdict.EXTINCTION


def test_single_factor_window_is_neutral_at_h4():
    rep = discrete_thresholds(seasonal_dp(0.3, 4.0), MASS, MASS, 0)
    assert abs(rep.r_lower - 1.0) <= 1e-10
    assert abs(rep.r_upper - 1.0) <= 1e-10
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_persistence_window_product_h2():
    rep = discrete_thresholds(seasonal_dp(0.9, 2.0), MASS, MASS, 1)
    assert rep.r_lower == pytest.approx(3.201, rel=5e-3)
    assert rep.verdict is Verdict.PERMANENCE


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_step_whose_times_overflow_is_rejected():
    # n h = inf from n = 2 on: the products were NaN and the verdict Inconclusive
    with pytest.raises(ValueError, match="non-finite time"):
        discrete_thresholds(seasonal_dp(0.3, 1e308), MASS, MASS, 0, burn_in=2, scan=2)


def _huge_transmission():
    # finite coefficients whose growth ratios and window integrals overflow
    return replace(full_set(0.3), beta=ParamSchedule.constant("beta", 1e308),
                   sigma=ParamSchedule.constant("sigma", 1e308))


@pytest.mark.parametrize("h", [4.0, 2.0])
def test_non_finite_growth_ratio_is_a_step_error(h):
    # the ratios overflowed to inf and the log-space products became nan, marked
    # exact_periodic: now one StepError names the report by its step size
    dp = mickens_discretize(_huge_transmission(), h, DenominatorFn.quadratic(0.2))
    with pytest.raises(StepError, match=f"discrete threshold report at h={h:g}: "
                                        "non-finite growth ratio"):
        window_thresholds(dp, MASS, MASS, 4.0)
    with pytest.raises(StepError, match="non-finite growth ratio"):
        periodic_discrete_threshold(dp, MASS, MASS, dp.step_period)


def test_non_positive_growth_ratio_is_a_step_error():
    # a negative beta, which only `piecewise(..., allow_negative=True)` accepts,
    # gave ratios <= 0 whose logs were nan: r = (nan, nan), a RuntimeWarning and
    # an Inconclusive report marked exact_periodic
    spec = builtin("extinction_5_1")
    beta = ParamSchedule.piecewise("beta", [0], [-20], allow_negative=True)
    dp = mickens_discretize(replace(spec.schedules, beta=beta), 1.0, spec.denominator)
    with pytest.raises(StepError, match="discrete threshold report at h=1: "
                                        "non-positive growth ratio"):
        window_thresholds(dp, spec.incidence_phi, spec.incidence_psi, 4.0)


def test_non_finite_window_integral_is_a_step_error():
    with pytest.raises(StepError, match="continuous threshold report: non-finite window integral"):
        continuous_thresholds(_huge_transmission(), MASS, MASS, 4.0)


def test_mu_zero_is_a_config_error():
    # the disease-free equilibrium divides by mu: a bare ValueError before
    spec = builtin("extinction_5_1")
    spec = replace(spec, schedules=replace(spec.schedules, mu=ParamSchedule.constant("mu", 0.0)))
    with pytest.raises(ConfigError, match="disease-free equilibrium needs mu > 0"):
        continuous_thresholds(spec.schedules, MASS, MASS, 4.0)
    with pytest.raises(ConfigError, match="disease-free equilibrium needs mu > 0"):
        run_scenario(spec)


@pytest.mark.parametrize("phi, psi", [(STANDARD, STANDARD), (MASS, STANDARD)],
                         ids=["both", "psi"])
def test_standard_incidence_at_zero_population_is_a_config_error(phi, psi):
    # with Lambda = 0 the disease-free population x* + y* is 0, and the slope
    # x / (x* + y*) was 0 / 0: a non-finite window integral (a StepError) in the
    # continuous report, a non-finite growth ratio in the discrete one and a
    # bare ValueError in the step-bound analysis
    spec = builtin("extinction_5_1")
    spec = replace(spec, schedules=replace(spec.schedules,
                                           Lambda=ParamSchedule.constant("Lambda", 0.0)))
    dp = mickens_discretize(spec.schedules, 1.0, spec.denominator)
    message = re.escape("standard incidence divides by the disease-free population x* + y*, "
                        "which is 0 here")
    with pytest.raises(ConfigError, match=message):
        continuous_thresholds(spec.schedules, phi, psi, 4.0)
    with pytest.raises(ConfigError, match=message):
        discrete_thresholds(dp, phi, psi, 3)
    with pytest.raises(ConfigError, match=message):  # the step-bound analysis reads it too
        net_growth_function(spec.schedules, phi, psi)
    # without a population-scaled incidence the same schedules have a report
    assert continuous_thresholds(spec.schedules, MASS, MASS, 4.0).verdict is Verdict.EXTINCTION


def test_product_past_the_largest_double_is_inf_without_a_warning():
    # finite ratios whose window product overflows: inf is a decisive value,
    # and numpy's overflow warning stays off stderr (RuntimeWarning is an error here)
    rep = discrete_thresholds(seasonal_dp(0.9, 1.0), MASS, MASS, 4999, scan=5000)
    assert rep.r_lower == rep.r_upper == math.inf
    assert rep.verdict is Verdict.PERMANENCE


def test_window_products_series_exposed():
    # the series holds the products of the starts the report read: every phase
    # of a step-periodic report, the scan of any other
    for lam in (3, 2):  # a window of one whole period, and of 3 of its 4 steps
        rep = discrete_thresholds(seasonal_dp(0.3, 1.0), MASS, MASS, lam,
                                  burn_in=100, scan=200)
        assert rep.exact_periodic
        assert (rep.burn_in, rep.scan, rep.window_products.shape) == (0, 3, (4,))
        assert np.all(rep.window_products > 0)
    rep = discrete_thresholds(seasonal_dp(0.3, 0.7), MASS, MASS, 3, burn_in=100, scan=200)
    assert not rep.exact_periodic  # 4 / 0.7 is not a whole number of steps
    assert (rep.burn_in, rep.scan, rep.window_products.shape) == (100, 200, (201,))


def test_scan_shorter_than_a_window_reads_one_window_of_starts():
    # a scan shorter than the window was a ValueError: without a step period the
    # report now reads at least the lam + 1 starts burn_in .. burn_in + lam
    dp = seasonal_dp(0.3, 0.7)
    short = discrete_thresholds(dp, MASS, MASS, 10, burn_in=50, scan=5)
    assert (short.burn_in, short.scan, short.window_products.size) == (50, 10, 11)
    one = discrete_thresholds(dp, MASS, MASS, 10, burn_in=50, scan=10)
    assert short.window_products.tobytes() == one.window_products.tobytes()
    # a step-periodic report reads its phases, whatever the scan
    dp = seasonal_dp(0.3, 1.0)
    reports = [discrete_thresholds(dp, MASS, MASS, 10, burn_in=b, scan=s)
               for b, s in ((0, 0), (50, 5), (2000, 4000))]
    assert all(r.window_products.tobytes() == reports[0].window_products.tobytes()
               and (r.burn_in, r.scan) == (0, 3) for r in reports)


@pytest.mark.parametrize("h", [1.0, 0.7])
def test_discrete_window_beyond_memory_is_a_config_error(h):
    # probed before the orbit is built, for the step-periodic report (h = 1)
    # and the scan (h = 0.7)
    with pytest.raises(ConfigError,
                       match=r"threshold window of 1e\+12 steps does not fit in memory"):
        discrete_thresholds(seasonal_dp(0.3, h), MASS, MASS, 10**12 - 1)


@pytest.mark.parametrize("burn_in, scan", [(-1, 10), (0, -5)])
def test_negative_burn_in_or_scan_is_rejected(burn_in, scan):
    # whichever starts the report reads
    for h in (1.0, 0.7):
        with pytest.raises(ValueError, match="need burn_in >= 0 and scan >= 0"):
            discrete_thresholds(seasonal_dp(0.3, h), MASS, MASS, 3, burn_in=burn_in, scan=scan)


def test_widening_scan_only_widens_the_bracket():
    # at h = 0.7 there is no step period, so the report scans
    rng = np.random.default_rng(13)
    for _ in range(5):
        b = float(rng.uniform(0.2, 1.0))
        dp = seasonal_dp(b, 0.7)
        lam = int(rng.integers(0, 6))
        narrow = discrete_thresholds(dp, MASS, MASS, lam, burn_in=50, scan=100)
        wide = discrete_thresholds(dp, MASS, MASS, lam, burn_in=50, scan=200)
        assert wide.r_lower <= narrow.r_lower + 1e-15
        assert wide.r_upper >= narrow.r_upper - 1e-15


# ---------------------------------------------------------------------------
# periodic product
# ---------------------------------------------------------------------------

def test_periodic_threshold_constant_single_factor():
    dp = DiscreteParams.from_sequences(
        1.0, Lambda=0.6, mu=0.36, p=0.8, eta=0.06, alpha=0.06, beta=0.4,
        sigma=0.2, gamma=0.36, step_period=1)
    got = periodic_discrete_threshold(dp, MASS, MASS, 1)
    a, b = aux_equilibrium(0.6, 0.36, 0.06, 0.8)
    expected = (1.0 + 0.4 * a + 0.2 * b) / (1.0 + 0.36 + 0.06 + 0.36)
    assert got == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("b", [0.3, 0.9])
def test_periodic_threshold_matches_window_product(b):
    dp = seasonal_dp(b, 1.0)
    per = periodic_discrete_threshold(dp, MASS, MASS, 4)
    rep = discrete_thresholds(dp, MASS, MASS, 3)
    assert abs(per - rep.r_upper) <= 1e-10
    assert abs(per - rep.r_lower) <= 1e-10


def test_periodic_threshold_rejects_aperiodic_input():
    with pytest.raises(ConfigError):
        periodic_discrete_threshold(seasonal_dp(0.3, 0.7), MASS, MASS, 4)


# ---------------------------------------------------------------------------
# the disease-free orbit: exact where it is known
# ---------------------------------------------------------------------------

def _builtin_dp(name, h):
    spec = builtin(name)
    return spec, mickens_discretize(spec.schedules, h, spec.denominator)


# every built-in row at its h_values but measles_france_5_2's (its beta has no
# period), and one period of persistence_5_1 of 400 steps (h = 0.01, far past
# the default 2000-step burn-in's reach)
_EXACT_ROWS = ([(name, h) for name in BUILTIN_NAMES if name != "measles_france_5_2"
                for h in builtin(name).h_values]
               + [("persistence_5_1", 0.1), ("persistence_5_1", 0.01)])


@pytest.mark.parametrize("name, h", _EXACT_ROWS)
def test_exact_periodic_report_is_the_periodic_threshold(name, h):
    # an exact_periodic report prints one value, the period product raised by a
    # left fold.  Read off a scan of log-space prefix sums, its r_lower and
    # r_upper were up to 8e-13 apart.
    spec, dp = _builtin_dp(name, h)
    phi, psi = spec.incidence_phi, spec.incidence_psi
    rep = window_thresholds(dp, phi, psi, spec.lam)
    assert rep.exact_periodic
    per = periodic_discrete_threshold(dp, phi, psi, dp.step_period)
    k = (rep.lam + 1) // dp.step_period
    assert rep.r_lower == rep.r_upper == math.prod(itertools.repeat(per, k))
    assert np.all(rep.window_products == rep.r_lower)


# The infectives of an extinct run decay at the periodic threshold: once S and
# V sit on the disease-free orbit and I is small, I_{n+omega} / I_n is the
# one-period product.  Measured: at most 1.3e-13 relative in ln over the last 20
# periods of 400; the tolerance stays 1e-12 whatever a run gives.
_DECAY_RTOL = 1e-12


@pytest.mark.parametrize("h", [1.0, 0.5, 0.1])
@pytest.mark.parametrize("name", ["extinction_5_1", "saturated_5_1_ext"])
def test_extinction_decay_rate_is_the_periodic_threshold(name, h):
    spec, dp = _builtin_dp(name, h)
    omega = dp.step_period
    log_r = math.log(periodic_discrete_threshold(dp, spec.incidence_phi, spec.incidence_psi,
                                                 omega))
    traj = simulate_discrete(dp, spec.incidence_phi, spec.incidence_psi, spec.initial_state,
                             400 * omega)
    log_i = np.log(traj.states[-20 * omega - 1:, 1])
    per_period = log_i[omega:] - log_i[:-omega]  # ln(I_{n+omega} / I_n), every n of the tail
    assert log_r < 0.0
    assert np.max(np.abs(per_period - log_r)) <= _DECAY_RTOL * abs(log_r)


def test_aperiodic_beta_with_constant_inflow_uses_the_equilibrium():
    # measles_france_5_2: beta is a table then constant, so the report is not
    # exact_periodic, but Lambda, mu, p, eta are constant and the orbit is exact
    spec, dp = _builtin_dp("measles_france_5_2", 1.0)
    phi, psi = spec.incidence_phi, spec.incidence_psi
    rep = window_thresholds(dp, phi, psi, spec.lam)
    assert dp.step_period is None and not rep.exact_periodic
    assert rep.r_upper == pytest.approx(rep.r_lower, rel=1e-10)
    long = discrete_thresholds(dp, phi, psi, rep.lam, burn_in=60000, scan=rep.scan)
    assert rep.r_lower == pytest.approx(long.r_lower, rel=1e-9)
    assert rep.r_upper == pytest.approx(long.r_upper, rel=1e-9)
    # the orbit iterated for 60000 steps has reached the exact one
    iterated = simulate_aux(dp, AuxState(1.0, 1.0), 60000)[-1]
    assert iterated == pytest.approx(periodic_aux_solution(dp, 1)[0], rel=1e-9)


def test_inconsistency_sweep_rows_follow_the_closed_form():
    # down to h ~ 3e-5 a 2000-step burn-in covers 0.07 time units; along the
    # exact orbit every row's log window product is R_C = 0.45 to first order in h
    spec = builtin("inconsistency_4")
    r_c = spec.reference_values["r_c_lower_closed_form"]
    assert r_c == pytest.approx(0.45)
    phi, psi = spec.incidence_phi, spec.incidence_psi
    report = consistency_report(spec.schedules, phi, psi,
                                continuous_thresholds(spec.schedules, phi, psi, spec.lam))
    pairs = consistency_sweep(spec.schedules, phi, psi, spec.denominator, report)
    assert len(pairs) == 16
    for _, d in pairs:
        assert abs(math.log(d.r_lower) - r_c) <= 2e-3
        assert abs(math.log(d.r_upper) - r_c) <= 2e-3


def test_vanishing_mortality_falls_back_to_the_iterated_orbit():
    # mu = 0: the period map is singular, so the orbit is iterated and the
    # report is not claimed exact
    dp = DiscreteParams.from_sequences(1.0, Lambda=1.0, mu=0.0, p=0.5, eta=0.05,
                                       alpha=0.1, beta=0.3, sigma=0.2, gamma=0.2,
                                       step_period=1)
    with pytest.raises(StepError, match="singular"):
        periodic_aux_solution(dp, 1)
    with pytest.raises(StepError, match="singular"):
        periodic_discrete_threshold(dp, MASS, MASS, 1)
    rep = discrete_thresholds(dp, MASS, MASS, 2, burn_in=10, scan=20)
    assert not rep.exact_periodic
    assert np.all(np.isfinite(rep.window_products))


def _seasonal_inflow_dp():
    # harmonic Lambda with period 4 at h = 0.7: no whole number of steps per
    # period, so the disease-free orbit is iterated from its start
    s = full_set(0.3)
    seasonal_inflow = ScheduleSet(
        Lambda=ParamSchedule.harmonic("Lambda", 0.5, 0.25, math.pi / 2.0),
        mu=s.mu, p=s.p, eta=s.eta, alpha=s.alpha, beta=s.beta, sigma=s.sigma,
        gamma=s.gamma)
    dp = mickens_discretize(seasonal_inflow, 0.7, DenominatorFn.quadratic(0.2))
    assert dp.step_period is None
    return dp


def test_independence_check_iterates_without_a_whole_period(monkeypatch):
    # the orbit is iterated from each start and must converge
    dp = _seasonal_inflow_dp()
    calls = []

    def counting_simulate_aux(*args):
        calls.append(args[1])
        return simulate_aux(*args)

    monkeypatch.setattr(thresholds, "simulate_aux", counting_simulate_aux)
    starts = [AuxState(1, 1), AuxState(100, 5)]
    res = independence_check(dp, MASS, MASS, 5, starts)
    assert calls == starts
    assert not res.skipped
    assert res.spread <= 1e-9


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_aux_start_is_rejected(bad):
    # a NaN start gave NaN r values and an Inconclusive verdict; the
    # independence check let it through, since nan <= 0 is false
    dp = _seasonal_inflow_dp()
    with pytest.raises(ValueError, match="non-finite state"):
        discrete_thresholds(dp, MASS, MASS, 5, aux_start=AuxState(bad, 1.0))
    with pytest.raises(ValueError, match="strictly positive|non-finite state"):
        independence_check(dp, MASS, MASS, 5, [AuxState(1, 1), AuxState(bad, 1.0)])


@pytest.mark.parametrize("bad, message", [(math.nan, "non-finite state"),
                                          (math.inf, "non-finite state"),
                                          (-5.0, "negative state component")])
def test_bad_aux_start_is_rejected_on_a_periodic_orbit(bad, message):
    # the periodic orbit never reads the start; a NaN or negative one gave
    # r_lower 0.6446 and Extinction, where the iterated orbit raised
    spec = builtin("extinction_5_1")
    dp = mickens_discretize(spec.schedules, 1.0, spec.denominator)
    assert dp.aux_step_period is not None
    with pytest.raises(ValueError, match=message):
        discrete_thresholds(dp, MASS, MASS, 3, aux_start=AuxState(bad, 1.0))


_POSITIVE = st.floats(0.05, 2.0)
_NONNEGATIVE = st.floats(0.0, 1.0)
_DENOMINATORS = st.one_of(st.just(DenominatorFn.identity()),
                          st.floats(0.0, 1.0).map(DenominatorFn.quadratic),
                          st.floats(0.01, 2.0).map(DenominatorFn.exp_decay))
_INCIDENCES = st.one_of(st.just(IncidenceFn.mass_action()),
                        st.floats(0.0, 2.0).map(IncidenceFn.saturated))


@settings(max_examples=60, deadline=None)
@given(T=st.floats(0.5, 12.0), k=st.integers(1, 64), periods=st.integers(1, 2),
       Lambda=_POSITIVE, mu=st.floats(0.05, 1.0), p=_NONNEGATIVE, eta=_NONNEGATIVE,
       alpha=_NONNEGATIVE, gamma=_NONNEGATIVE, beta=_POSITIVE, sigma=_POSITIVE,
       beta_amp=st.floats(0.0, 0.9), sigma_amp=st.floats(0.0, 0.9),
       phi=_INCIDENCES, psi=_INCIDENCES, denominator=_DENOMINATORS,
       start=st.tuples(st.floats(0.0, 100.0), st.floats(0.0, 100.0)))
def test_exact_periodic_reports_are_exact(T, k, periods, Lambda, mu, p, eta, alpha,
                                          gamma, beta, sigma, beta_amp, sigma_amp,
                                          phi, psi, denominator, start):
    w = 2.0 * math.pi / T
    schedules = ScheduleSet(
        Lambda=ParamSchedule.constant("Lambda", Lambda), mu=ParamSchedule.constant("mu", mu),
        p=ParamSchedule.constant("p", p), eta=ParamSchedule.constant("eta", eta),
        alpha=ParamSchedule.constant("alpha", alpha),
        beta=ParamSchedule.harmonic("beta", beta, beta_amp * beta, w),
        sigma=ParamSchedule.harmonic("sigma", sigma, sigma_amp * sigma, w, 1.0),
        gamma=ParamSchedule.constant("gamma", gamma))
    dp = mickens_discretize(schedules, T / k, denominator)
    lam = periods * k - 1
    rep = discrete_thresholds(dp, phi, psi, lam, burn_in=100, scan=3 * k)
    assert rep.exact_periodic  # mu > 0 and k steps per period
    per = periodic_discrete_threshold(dp, phi, psi, dp.step_period)
    assert rep.r_lower == rep.r_upper == math.prod(itertools.repeat(per, periods))
    other = discrete_thresholds(dp, phi, psi, lam, burn_in=100, scan=3 * k,
                                aux_start=AuxState(*start))
    assert (other.r_lower, other.r_upper) == (rep.r_lower, rep.r_upper)
    assert other.window_products.tobytes() == rep.window_products.tobytes()


def test_exp_decay_denominator_keeps_the_verdict():
    # a different step denominator rescales the window products but leaves
    # the extinction/permanence conclusion intact
    for b, verdict in ((0.3, Verdict.EXTINCTION), (0.9, Verdict.PERMANENCE)):
        dp = mickens_discretize(full_set(b), 1.0, DenominatorFn.exp_decay(0.002))
        rep = discrete_thresholds(dp, MASS, MASS, 3)
        assert rep.verdict is verdict


# ---------------------------------------------------------------------------
# continuous windows
# ---------------------------------------------------------------------------

def test_full_period_window_is_constant_extinction():
    rep = continuous_thresholds(full_set(0.3), MASS, MASS, 4.0)
    assert rep.r_upper == pytest.approx(-0.6, abs=1e-3)
    assert rep.r_lower == pytest.approx(-0.6, abs=1e-3)
    assert rep.verdict is Verdict.EXTINCTION


def test_full_period_window_is_constant_persistence():
    rep = continuous_thresholds(full_set(0.9), MASS, MASS, 4.0)
    assert rep.r_lower == pytest.approx(3.4, abs=1e-3)
    assert rep.verdict is Verdict.PERMANENCE



# F of the all-constant set below (beta = 0.9, sigma = 0.3), as the scan over
# max(lam, 100) time units of starts read it, bit for bit
_ALL_CONSTANT_F = {("mass_action", 4.0): "0x1.8dd963e1c89a4p-1",
                   ("standard", 4.0): "-0x1.25c53ef368eb1p-1",
                   ("mass_action", 150.0): "0x1.d23ac10c97138p+4"}


@pytest.mark.parametrize("phi", [MASS, STANDARD, IncidenceFn.saturated(0.7)],
                         ids=lambda phi: phi.kind)
@pytest.mark.parametrize("lam", [0.5, 4.0, 150.0])
def test_all_constant_coefficients_scan_one_window_start(phi, lam):
    # with all eight coefficients constant F(t) is one value, so the default
    # scan reads the one start t = 0: the same extremes, bit for bit, as a
    # scan over max(lam, 100) time units of starts, every one of them equal
    sched = ScheduleSet.from_mapping({**full_set().as_dict(),
                                      "beta": ParamSchedule.constant("beta", 0.9),
                                      "sigma": ParamSchedule.constant("sigma", 0.3)})
    assert sched.regime().kind == "constant"
    rep = continuous_thresholds(sched, phi, phi, lam)
    wide = continuous_thresholds(sched, phi, phi, lam, scan=(0.0, max(lam, 100.0)))
    assert np.ptp(wide.window_products) == 0.0
    assert (rep.burn_in, rep.scan, rep.window_products.size) == (0.0, 0.0, 1)
    assert (rep.r_lower, rep.r_upper, rep.verdict, rep.notes) == (
        wide.r_lower, wide.r_upper, wide.verdict, wide.notes)
    if (phi.kind, lam) in _ALL_CONSTANT_F:
        assert rep.r_lower == rep.r_upper == float.fromhex(_ALL_CONSTANT_F[phi.kind, lam])

def test_partial_window_against_analytic_oracle():
    # For lam = 3 the sliding integral is
    #   F(t) = -0.45 + (0.3/pi) [sin((t+3) pi/2) - sin(t pi/2)]
    #        = -0.45 + (0.3 sqrt(2)/pi) cos((t + 1.5) pi/2)
    # so the extremes are -0.45 -+ 0.3*sqrt(2)/pi.
    amp = 0.3 * math.sqrt(2.0) / math.pi
    rep = continuous_thresholds(full_set(0.3), MASS, MASS, 3.0)
    assert rep.r_lower == pytest.approx(-0.45 - amp, abs=2e-5)
    assert rep.r_upper == pytest.approx(-0.45 + amp, abs=2e-5)


def test_simpson_fourth_order_on_fixed_window():
    # F(0) = int_0^3 (0.5 + 0.15 cos(s pi/2) - 0.65) ds has a closed form
    exact = -0.45 + 0.15 * (2.0 / math.pi) * math.sin(1.5 * math.pi)
    errs = []
    for q in (0.05, 0.025):
        rep = continuous_thresholds(full_set(0.3), MASS, MASS, 3.0, quad_step=q)
        errs.append(abs(rep.window_products[0] - exact))
    assert errs[1] <= errs[0] / 8.0  # at least cubic decay from halving


def test_full_period_window_insensitive_to_quad_step():
    # the full-period window integral is constant in t, so halving the
    # quadrature step must leave the extremes essentially unchanged
    a = continuous_thresholds(full_set(0.3), MASS, MASS, 4.0, quad_step=0.05)
    b = continuous_thresholds(full_set(0.3), MASS, MASS, 4.0, quad_step=0.025)
    assert abs(a.r_lower - b.r_lower) <= 1e-12
    assert abs(a.r_upper - b.r_upper) <= 1e-12


def test_quad_step_too_coarse_rejected():
    with pytest.raises(ConfigError):
        continuous_thresholds(full_set(0.3), MASS, MASS, 4.0, quad_step=1.0)


def test_scan_shorter_than_window_is_a_range_of_starts():
    # the scan lists window starts; the grid runs one window past its end
    half = continuous_thresholds(full_set(0.3), MASS, MASS, 4.0, scan=(0.0, 2.0))
    full = continuous_thresholds(full_set(0.3), MASS, MASS, 4.0, scan=(0.0, 4.0))
    n = half.window_products.size
    assert n < full.window_products.size
    assert np.array_equal(half.window_products, full.window_products[:n])


def test_window_longer_than_the_period_uses_one_period_of_starts():
    # F is T-periodic in its start, so the default one-period scan covers every
    # start for any window; a whole number of periods gives a constant F
    one = continuous_thresholds(full_set(0.3), MASS, MASS, 4.0)
    two = continuous_thresholds(full_set(0.3), MASS, MASS, 8.0)
    assert two.scan == one.scan == 4.0
    assert two.r_lower == pytest.approx(2.0 * one.r_lower, rel=1e-12)
    assert two.r_upper - two.r_lower <= 1e-12


def test_nonconstant_aux_integration_converges_to_equilibrium_values():
    # a vanishingly small periodic wobble on Lambda forces the integrated
    # disease-free path; far past the transient it must reproduce the
    # constant-coefficient result
    s = full_set(0.3)
    wobble = ScheduleSet(
        Lambda=ParamSchedule.harmonic("Lambda", 0.5, 1e-9, math.pi / 2.0),
        mu=s.mu, p=s.p, eta=s.eta, alpha=s.alpha, beta=s.beta, sigma=s.sigma,
        gamma=s.gamma)
    rep0 = continuous_thresholds(s, MASS, MASS, 4.0)
    rep1 = continuous_thresholds(wobble, MASS, MASS, 4.0)
    assert rep1.r_upper == pytest.approx(rep0.r_upper, abs=1e-6)


@pytest.mark.parametrize("extra, r_c", [
    ({}, 3.4190),
    ({"mu": 0.02, "p": 0.05}, 88.52),
])
def test_seasonal_inflow_reads_the_periodic_disease_free_solution(extra, r_c):
    # a seasonal Lambda: the default scan over one period must read the
    # periodic solution, not the transient from an arbitrary start
    spec = builtin("persistence_5_1")
    s = spec.schedules.as_dict()
    s["Lambda"] = ParamSchedule.harmonic("Lambda", 0.5, 0.3, math.pi / 2.0)
    s.update({name: ParamSchedule.constant(name, v) for name, v in extra.items()})
    sched = ScheduleSet.from_mapping(s)
    rep = continuous_thresholds(sched, MASS, MASS, 4.0)
    far = continuous_thresholds(sched, MASS, MASS, 4.0, scan=(400.0, 404.0))
    assert rep.r_lower == pytest.approx(r_c, rel=1e-4)
    assert rep.r_lower == pytest.approx(far.r_lower, rel=1e-12)
    assert rep.r_upper == pytest.approx(far.r_upper, rel=1e-12)
    assert rep.notes == ()


def test_seasonal_inflow_with_an_aperiodic_gamma_reads_the_periodic_solution():
    # the disease-free pair reads Lambda, mu, p, eta only: an aperiodic gamma must
    # not send it back to the (1, 1) start and its attraction transient
    spec = builtin("persistence_5_1")
    s = spec.schedules.as_dict()
    s["Lambda"] = ParamSchedule.harmonic("Lambda", 0.5, 0.3, math.pi / 2.0)
    s["gamma"] = ParamSchedule.piecewise("gamma", [0.0, 50.0], [0.3, 0.3000001])
    rep = continuous_thresholds(ScheduleSet.from_mapping(s), MASS, MASS, 4.0)
    assert rep.r_upper - rep.r_lower <= 1e-6
    assert rep.r_lower == pytest.approx(3.4190033, rel=1e-7)
    assert rep.notes == ()


def test_discrete_orbit_with_an_aperiodic_gamma_is_the_periodic_one():
    # the discrete analog: the period of the disease-free orbit is that of Lambda,
    # mu, p, eta (8 steps at h = 0.5), not the missing period of all eight, so no
    # burn-in is needed to read the periodic orbit instead of the (1, 1) transient
    spec = builtin("persistence_5_1")
    s = spec.schedules.as_dict()
    s["Lambda"] = ParamSchedule.harmonic("Lambda", 0.5, 0.3, math.pi / 2.0)
    s["gamma"] = ParamSchedule.piecewise("gamma", [0.0, 50.0], [0.3, 0.3000001])
    dp = mickens_discretize(ScheduleSet.from_mapping(s), 0.5, spec.denominator)
    assert dp.step_period is None and dp.aux_step_period == 8
    rep = discrete_thresholds(dp, MASS, MASS, 8, burn_in=0, scan=400)
    assert rep.r_upper == pytest.approx(16.440606582569895, rel=1e-9)
    assert not rep.exact_periodic  # gamma is aperiodic


def test_numbers_given_to_from_sequences_declare_period_one():
    # eight numbers and no step_period: every sequence is declared constant, so
    # both periods are 1 and the report is exact
    dp = DiscreteParams.from_sequences(1.0, Lambda=0.6, mu=0.36, p=0.8, eta=0.06,
                                       alpha=0.06, beta=0.4, sigma=0.2, gamma=0.36)
    assert dp.aux_step_period == dp.step_period == 1
    rep = discrete_thresholds(dp, MASS, MASS, 2, burn_in=0, scan=10)
    assert rep.exact_periodic
    assert rep.r_upper == pytest.approx(periodic_discrete_threshold(dp, MASS, MASS, 1) ** 3,
                                        rel=1e-12)
    # a callable beta leaves the disease-free four declared constant; a callable
    # Lambda does not, even when it returns one value everywhere
    dp = DiscreteParams.from_sequences(1.0, Lambda=0.6, mu=0.36, p=0.8, eta=0.06,
                                       alpha=0.06, beta=lambda n: 0.4 + 0.0 * n,
                                       sigma=0.2, gamma=0.36)
    assert (dp.step_period, dp.aux_step_period) == (None, 1)
    dp = DiscreteParams.from_sequences(1.0, Lambda=lambda n: 0.6 + 0.0 * n, mu=0.36,
                                       p=0.8, eta=0.06, alpha=0.06, beta=0.4, sigma=0.2,
                                       gamma=0.36)
    assert (dp.step_period, dp.aux_step_period) == (None, None)


def test_inflow_constant_only_over_the_window_is_not_exact():
    # Lambda steps up at t = 50, far past a window that ends at step 13: constancy
    # is declared, not read off the window, so the orbit is iterated from (1, 1)
    # and the window products follow its transient
    s = full_set(0.3).as_dict()
    s["Lambda"] = ParamSchedule.piecewise("Lambda", [0.0, 50.0], [0.5, 0.6])
    s["beta"] = ParamSchedule.constant("beta", 0.3)
    s["sigma"] = ParamSchedule.constant("sigma", 0.3)
    dp = mickens_discretize(ScheduleSet.from_mapping(s), 1.0, DenominatorFn.identity())
    assert dp.aux_step_period is None and dp.step_period is None
    rep = discrete_thresholds(dp, MASS, MASS, 2, burn_in=0, scan=10)
    assert not rep.exact_periodic
    # the same window products from the orbit iterated by hand
    orbit = simulate_aux(dp, AuxState(1.0, 1.0), 13)
    mu, alpha, gamma = (dp.constant(n) for n in ("mu", "alpha", "gamma"))
    ratios = ((1.0 + 0.3 * orbit[1:, 0] + 0.3 * orbit[1:, 1])
              / (1.0 + mu + alpha + gamma))
    expected = [np.prod(ratios[n:n + 3]) for n in range(11)]
    np.testing.assert_allclose(rep.window_products, expected, rtol=1e-12)
    assert rep.r_upper - rep.r_lower > 0.05


def test_aperiodic_inflow_notes_the_transient_start():
    s = full_set(0.9).as_dict()
    s["Lambda"] = ParamSchedule.piecewise("Lambda", [0.0, 3.0], [0.5, 0.6])
    rep = continuous_thresholds(ScheduleSet.from_mapping(s), MASS, MASS, 4.0)
    assert any("(1, 1)" in note for note in rep.notes)


# window products over a period-sized disease-free orbit against the tiled one

def _tiled_ratios(dp, phi, psi, k_lo, k_hi):
    """r_k for k in [k_lo, k_hi), with the periodic orbit tiled to one row per
    step and every coefficient evaluated as an array of that length."""
    omega = dp.aux_step_period
    orbit = periodic_aux_solution(dp, omega)[np.arange(k_lo + 1, k_hi + 1) % omega]
    x, y = orbit[:, 0], orbit[:, 1]
    pop = x + y if (phi.needs_population or psi.needs_population) else None
    beta, sigma, mu, alpha, gamma = (dp.array(name, k_lo, k_hi) for name in
                                     ("beta", "sigma", "mu", "alpha", "gamma"))
    return ((1.0 + beta * phi.slope(x, pop) + sigma * psi.slope(y, pop))
            / (1.0 + mu + alpha + gamma))


def _tiled_window_products(dp, phi, psi, lam, burn_in, scan, exact):
    """The window products from `_tiled_ratios` at the starts a report reads.
    When it is exact, these are the omega phases 0 .. omega - 1: with a window of
    whole periods each is the step-order product of one period, multiplied
    (lam + 1) / omega times from the left.  Otherwise they are the starts
    burn_in .. burn_in + max(scan, lam).  Every other window is exp of
    differences of cumulative sums of log."""
    omega = dp.step_period
    if exact and (lam + 1) % omega == 0:
        period = 1.0
        for r in _tiled_ratios(dp, phi, psi, 0, omega).tolist():
            period *= r
        window = 1.0
        for _ in range((lam + 1) // omega):
            window *= period
        return np.full(omega, window)
    first, n_starts = (0, omega) if exact else (burn_in, max(scan, lam) + 1)
    ratios = _tiled_ratios(dp, phi, psi, first, first + n_starts + lam)
    c = np.concatenate([[0.0], np.cumsum(np.log(ratios))])
    return np.exp(c[lam + 1:] - c[:-(lam + 1)])


_TABLE = st.lists(st.floats(0.05, 2.0), min_size=8, max_size=8)
# a coefficient of the growth ratio: a number (built constant), an omega-periodic
# table, or a drifting sequence with no period
_RATIO_COEFF = st.one_of(st.floats(0.0, 1.0), _TABLE.map(lambda v: ("table", v)),
                         st.floats(0.05, 1.0).map(lambda v: ("drift", v)))


def _ratio_sequence(draw, omega):
    if isinstance(draw, float):
        return draw
    kind, v = draw
    if kind == "table":
        return step_table(v[:omega])
    return lambda n: v * (1.0 + 0.5 * np.sin(0.37 * np.asarray(n, dtype=float)))


@settings(max_examples=80, deadline=None)
@given(omega=st.integers(1, 8), lam=st.integers(0, 20), periods=st.integers(2, 4),
       whole=st.booleans(), burn_in=st.integers(0, 60),
       extra=st.integers(0, 150), phi=st.sampled_from(sorted(KINDS)),
       psi=st.sampled_from(sorted(KINDS)), constant_inflow=st.booleans(),
       Lambda=_TABLE, mu=_TABLE, p=_TABLE, eta=_TABLE,
       coeffs=st.tuples(_RATIO_COEFF, _RATIO_COEFF, _RATIO_COEFF, _RATIO_COEFF))
def test_window_products_equal_the_tiled_orbit_bit_for_bit(omega, lam, periods, whole,
                                                           burn_in, extra, phi, psi,
                                                           constant_inflow, Lambda, mu,
                                                           p, eta, coeffs):
    phi, psi = KINDS[phi], KINDS[psi]
    if whole:  # a window of 2 to 4 whole periods
        lam = periods * omega - 1
    inflow = {name: (v[0] if constant_inflow and omega == 1 else step_table(v[:omega]))
              for name, v in (("Lambda", Lambda), ("mu", mu), ("p", p), ("eta", eta))}
    ratio = {name: _ratio_sequence(c, omega)
             for name, c in zip(("alpha", "beta", "sigma", "gamma"), coeffs)}
    dp = DiscreteParams.from_sequences(0.5, step_period=omega, **inflow, **ratio)
    scan = extra  # shorter than a window too: the report then reads one window of starts
    rep = discrete_thresholds(dp, phi, psi, lam, burn_in=burn_in, scan=scan)
    # a drifting coefficient is evaluated by the period check, and fails it; the
    # orbit is exact (mu > 0), so every other draw reads all omega phases
    drifting = [name for name, c in zip(("alpha", "beta", "sigma", "gamma"), coeffs)
                if isinstance(c, tuple) and c[0] == "drift"]
    assert rep.exact_periodic == (not drifting)
    first, n_starts = (0, omega) if rep.exact_periodic else (burn_in, max(scan, lam) + 1)
    assert (rep.burn_in, rep.scan) == (first, n_starts - 1)
    assert np.array_equal(rep.window_products,
                          _tiled_window_products(dp, phi, psi, lam, burn_in, scan,
                                                 rep.exact_periodic))
    if drifting:
        with pytest.raises(ValueError, match=drifting[0]):
            verify_step_periodic(dp, omega)
        assert not rep.exact_periodic
    else:
        verify_step_periodic(dp, omega)


def test_exact_periodic_needs_every_coefficient_periodic():
    # step_period is declared, Lambda, mu, p, eta are constant, but beta drifts
    dp = DiscreteParams.from_sequences(1.0, step_period=2, Lambda=0.5, mu=0.3, p=0.6,
                                       eta=0.05, alpha=0.05, beta=lambda n: 0.3 + 0.001 * n,
                                       sigma=0.3, gamma=0.3)
    rep = discrete_thresholds(dp, MASS, MASS, 1)
    assert not rep.exact_periodic
    assert rep.r_upper - rep.r_lower > 1.0
    # the same declaration with a 2-periodic beta is exact
    dp2 = DiscreteParams.from_sequences(1.0, step_period=2, Lambda=0.5, mu=0.3, p=0.6,
                                        eta=0.05, alpha=0.05,
                                        beta=lambda n: 0.3 + 0.1 * (np.asarray(n) % 2),
                                        sigma=0.3, gamma=0.3)
    assert discrete_thresholds(dp2, MASS, MASS, 1).exact_periodic


def test_seasonal_window_shorter_than_the_period_reads_every_phase():
    # b = 0.5 at lam = 0.5, h = 1e-4: omega = 40 000 steps and a 5 000-step
    # window.  A scan of the 5 001 starts 2000 .. 7000 gave 1.10653 / 1.20236 and
    # Permanence; all 40 000 phases give 0.970306 / 1.237959 and Inconclusive,
    # which is also the continuous verdict.
    sched = _seasonal_schedules(0.5)
    rep = window_thresholds(mickens_discretize(sched, 1e-4, DenominatorFn.quadratic(0.2)),
                            MASS, MASS, 0.5)
    assert rep.exact_periodic
    assert (rep.lam, rep.burn_in, rep.scan, rep.window_products.size) == (4999, 0, 39999, 40000)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.r_lower == pytest.approx(0.9703058110274914, rel=1e-9)
    assert rep.r_upper == pytest.approx(1.2379594539157202, rel=1e-9)
    assert continuous_thresholds(sched, MASS, MASS, 0.5).verdict is Verdict.INCONCLUSIVE


@settings(max_examples=100, deadline=None)
@given(T=st.floats(0.5, 12.0), k=st.integers(2, 24), periods=st.integers(0, 2),
       rest=st.integers(1, 23),
       Lambda=st.floats(0.05, 2.0), mu=st.floats(0.05, 1.0), p=st.floats(0.0, 1.0),
       eta=st.floats(0.0, 1.0), alpha=st.floats(0.0, 1.0), gamma=st.floats(0.0, 1.0),
       beta=st.floats(0.05, 2.0), sigma=st.floats(0.05, 2.0),
       beta_amp=st.floats(0.05, 0.9), sigma_amp=st.floats(0.05, 0.9),
       phi=_MASS_OR_SATURATED, psi=_MASS_OR_SATURATED, denominator=_DENOMINATORS)
def test_step_periodic_extremes_are_the_min_and_max_over_every_phase(
        T, k, periods, rest, Lambda, mu, p, eta, alpha, gamma, beta, sigma, beta_amp,
        sigma_amp, phi, psi, denominator):
    # the Bound property's seasonal models at h = T / k, with a window of lam + 1 =
    # periods * k + rest steps, never whole periods: r_lower and r_upper are the
    # min and max over all k starts of the window products, each taken at 50
    # digits from growth ratios tiled here, one per step, along the equilibrium
    # orbit (the slope of mass action and of saturated incidence at I = 0 is x)
    rest = 1 + (rest - 1) % (k - 1)
    lam = periods * k + rest - 1
    w = 2.0 * math.pi / T
    sched = ScheduleSet(
        Lambda=ParamSchedule.constant("Lambda", Lambda), mu=ParamSchedule.constant("mu", mu),
        p=ParamSchedule.constant("p", p), eta=ParamSchedule.constant("eta", eta),
        alpha=ParamSchedule.constant("alpha", alpha),
        beta=ParamSchedule.harmonic("beta", beta, beta_amp * beta, w),
        sigma=ParamSchedule.harmonic("sigma", sigma, sigma_amp * sigma, w, 1.0),
        gamma=ParamSchedule.constant("gamma", gamma))
    dp = mickens_discretize(sched, T / k, denominator)
    assert dp.step_period == k
    rep = discrete_thresholds(dp, phi, psi, lam)
    assert rep.exact_periodic and rep.window_products.size == k
    (x, y), = periodic_aux_solution(dp, dp.aux_step_period).tolist()
    n = k + lam
    beta_n, sigma_n, mu_n, alpha_n, gamma_n = (
        [mpmath.mpf(v) for v in dp.array(name, 0, n).tolist()]
        for name in ("beta", "sigma", "mu", "alpha", "gamma"))
    with mpmath.workdps(50):
        prefix = [mpmath.mpf(1)]
        for i in range(n):
            prefix.append(prefix[-1] * (1 + beta_n[i] * x + sigma_n[i] * y)
                          / (1 + mu_n[i] + alpha_n[i] + gamma_n[i]))
        windows = [prefix[i + lam + 1] / prefix[i] for i in range(k)]
        lo, hi = min(windows), max(windows)
        assert abs(rep.r_lower - lo) <= 1e-12 * lo
        assert abs(rep.r_upper - hi) <= 1e-12 * hi


def test_iterated_orbit_notes_its_transient_start():
    # as the continuous side does: an orbit iterated from a start may put its
    # attraction transient into the scan; an exact orbit needs no note
    dp = _seasonal_inflow_dp()
    rep = discrete_thresholds(dp, MASS, MASS, 5, aux_start=AuxState(2.0, 0.5))
    assert rep.notes == ("no periodic disease-free orbit (no step period of Lambda, mu, p, "
                         "eta, or a singular period map): iterated from (2, 0.5) at step 0, "
                         "so the scan may read the attraction transient",)
    assert discrete_thresholds(seasonal_dp(0.3, 0.7), MASS, MASS, 5).notes == ()


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _report(mode, r_lower, r_upper):
    return ThresholdReport(mode=mode, lam=1, r_lower=r_lower, r_upper=r_upper,
                           window_products=np.array([r_lower, r_upper]),
                           burn_in=0, scan=1, verdict=Verdict.INCONCLUSIVE)


def test_classify_discrete_extinction():
    assert classify(_report("discrete", 0.5, 0.644)) is Verdict.EXTINCTION


def test_classify_boundary_is_inconclusive():
    assert classify(_report("discrete", 1.0, 1.0)) is Verdict.INCONCLUSIVE


def test_classify_continuous_permanence():
    assert classify(_report("continuous", 3.4, 3.4)) is Verdict.PERMANENCE


def test_classify_continuous_straddle():
    assert classify(_report("continuous", -0.2, 0.4)) is Verdict.INCONCLUSIVE


# ---------------------------------------------------------------------------
# independence from the auxiliary start
# ---------------------------------------------------------------------------

def test_threshold_independent_of_aux_start():
    dp = seasonal_dp(0.3, 1.0)
    res = independence_check(dp, MASS, MASS, 3, [AuxState(1, 1), AuxState(100, 5)])
    assert not res.skipped
    assert res.spread <= 1e-6


def test_identical_starts_zero_spread():
    dp = seasonal_dp(0.3, 1.0)
    res = independence_check(dp, MASS, MASS, 3, [AuxState(2, 2), AuxState(2, 2)])
    assert res.spread == 0.0


def test_independence_check_skipped_without_mortality():
    dp = DiscreteParams.from_sequences(1.0, Lambda=1.0, mu=0.0, p=0.5, eta=0.05,
                                       alpha=0.1, beta=0.3, sigma=0.2, gamma=0.2)
    res = independence_check(dp, MASS, MASS, 2, [AuxState(1, 1), AuxState(5, 5)])
    assert res.skipped
    assert "H3" in res.reason
