import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd_sirvs import thresholds
from nsfd_sirvs.consistency import consistency_report, consistency_sweep, window_thresholds
from nsfd_sirvs.dynamics import (AuxState, aux_equilibrium, periodic_aux_solution, simulate_aux,
                                 verify_step_periodic)
from nsfd_sirvs.errors import ConfigError, StepError
from nsfd_sirvs.incidence import IncidenceFn
from nsfd_sirvs.scenarios import builtin
from nsfd_sirvs.schedules import (DenominatorFn, DiscreteParams, ParamSchedule,
                                  ScheduleSet, mickens_discretize)
from nsfd_sirvs.thresholds import (ThresholdReport, Verdict, classify,
                                   continuous_thresholds, discrete_thresholds,
                                   independence_check, periodic_discrete_threshold)

from test_reference_equivalence import KINDS
from test_schedules import full_set

MASS = IncidenceFn.mass_action()


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


def test_window_products_series_exposed():
    rep = discrete_thresholds(seasonal_dp(0.3, 1.0), MASS, MASS, 3, burn_in=100, scan=200)
    assert rep.window_products.shape == (201,)
    assert np.all(rep.window_products > 0)


def test_scan_must_cover_a_window():
    with pytest.raises(ValueError):
        discrete_thresholds(seasonal_dp(0.3, 1.0), MASS, MASS, 10, scan=5)


def test_widening_scan_only_widens_the_bracket():
    rng = np.random.default_rng(13)
    for _ in range(5):
        b = float(rng.uniform(0.2, 1.0))
        dp = seasonal_dp(b, 1.0)
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


@pytest.mark.parametrize("h", [1.0, 0.5, 0.1, 0.01])
def test_exact_periodic_report_is_the_periodic_threshold(h):
    # one period of persistence_5_1 (400 steps at h = 0.01, far past the
    # default 2000-step burn-in's reach): the window product cannot depend on
    # where the scan sits
    spec, dp = _builtin_dp("persistence_5_1", h)
    rep = window_thresholds(dp, spec.incidence_phi, spec.incidence_psi, spec.lam)
    assert rep.exact_periodic
    assert (rep.r_upper - rep.r_lower) / rep.r_lower <= 1e-10
    per = periodic_discrete_threshold(dp, spec.incidence_phi, spec.incidence_psi,
                                      dp.step_period)
    assert rep.r_lower == pytest.approx(per, rel=1e-10)
    assert rep.r_upper == pytest.approx(per, rel=1e-10)


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
    rows = consistency_sweep(spec.schedules, phi, psi, spec.denominator, report)
    assert len(rows) == 16
    for row in rows:
        assert abs(math.log(row.r_lower) - r_c) <= 2e-3
        assert abs(math.log(row.r_upper) - r_c) <= 2e-3


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


def test_independence_check_iterates_without_a_whole_period(monkeypatch):
    # harmonic Lambda with period 4 at h = 0.7: no whole number of steps per
    # period, so the orbit is iterated from each start and must converge
    s = full_set(0.3)
    seasonal_inflow = ScheduleSet(
        Lambda=ParamSchedule.harmonic("Lambda", 0.5, 0.25, math.pi / 2.0),
        mu=s.mu, p=s.p, eta=s.eta, alpha=s.alpha, beta=s.beta, sigma=s.sigma,
        gamma=s.gamma)
    dp = mickens_discretize(seasonal_inflow, 0.7, DenominatorFn.quadratic(0.2))
    assert dp.step_period is None
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
    assert (rep.r_upper - rep.r_lower) / rep.r_lower <= 1e-10
    per = periodic_discrete_threshold(dp, phi, psi, dp.step_period)
    assert rep.r_lower == pytest.approx(per ** periods, rel=1e-10)
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

def _tiled_window_products(dp, phi, psi, lam, burn_in, scan):
    """The window products with the periodic orbit tiled to one row per step and
    every coefficient evaluated as a scan-length array."""
    omega = dp.aux_step_period
    k_lo, k_hi = burn_in, burn_in + scan + lam + 1
    orbit = periodic_aux_solution(dp, omega)[np.arange(k_lo + 1, k_hi + 1) % omega]
    x, y = orbit[:, 0], orbit[:, 1]
    pop = x + y if (phi.needs_population or psi.needs_population) else None
    beta, sigma, mu, alpha, gamma = (dp.array(name, k_lo, k_hi) for name in
                                     ("beta", "sigma", "mu", "alpha", "gamma"))
    ratios = ((1.0 + beta * phi.slope(x, pop) + sigma * psi.slope(y, pop))
              / (1.0 + mu + alpha + gamma))
    c = np.concatenate([[0.0], np.cumsum(np.log(ratios))])
    return np.exp(c[lam + 1:] - c[:-(lam + 1)])


def _step_table(values):
    """The sequence n -> values[n % len(values)]."""
    table = np.array(values)
    return lambda n: table[np.asarray(n) % table.size]


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
        return _step_table(v[:omega])
    return lambda n: v * (1.0 + 0.5 * np.sin(0.37 * np.asarray(n, dtype=float)))


@settings(max_examples=80, deadline=None)
@given(omega=st.integers(1, 8), lam=st.integers(0, 20), burn_in=st.integers(0, 60),
       extra=st.integers(0, 150), phi=st.sampled_from(sorted(KINDS)),
       psi=st.sampled_from(sorted(KINDS)), constant_inflow=st.booleans(),
       Lambda=_TABLE, mu=_TABLE, p=_TABLE, eta=_TABLE,
       coeffs=st.tuples(_RATIO_COEFF, _RATIO_COEFF, _RATIO_COEFF, _RATIO_COEFF))
def test_window_products_equal_the_tiled_orbit_bit_for_bit(omega, lam, burn_in, extra, phi,
                                                           psi, constant_inflow, Lambda, mu,
                                                           p, eta, coeffs):
    phi, psi = KINDS[phi], KINDS[psi]
    inflow = {name: (v[0] if constant_inflow and omega == 1 else _step_table(v[:omega]))
              for name, v in (("Lambda", Lambda), ("mu", mu), ("p", p), ("eta", eta))}
    ratio = {name: _ratio_sequence(c, omega)
             for name, c in zip(("alpha", "beta", "sigma", "gamma"), coeffs)}
    dp = DiscreteParams.from_sequences(0.5, step_period=omega, **inflow, **ratio)
    scan = lam + 1 + extra
    rep = discrete_thresholds(dp, phi, psi, lam, burn_in=burn_in, scan=scan)
    assert np.array_equal(rep.window_products,
                          _tiled_window_products(dp, phi, psi, lam, burn_in, scan))
    # a drifting coefficient is evaluated by the period check, and fails it
    drifting = [name for name, c in zip(("alpha", "beta", "sigma", "gamma"), coeffs)
                if isinstance(c, tuple) and c[0] == "drift"]
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
