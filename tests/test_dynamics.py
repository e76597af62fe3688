import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd_sirvs import dynamics, reference
from nsfd_sirvs.dynamics import (AuxState, State, _aux_advance, aux_equilibrium,
                                 integrate_continuous, nsfd_step, periodic_aux_solution,
                                 simulate_aux, simulate_discrete)
from nsfd_sirvs.errors import StepError
from nsfd_sirvs.incidence import IncidenceFn
from nsfd_sirvs.scenarios import builtin
from nsfd_sirvs.schedules import (SCHEDULE_NAMES, DenominatorFn, DiscreteParams, ParamSchedule,
                                  ScheduleSet, mickens_discretize)

from test_reference_equivalence import (_STEP_DRAWS, _balance_residual, _one_step,
                                        _separable_root_oracle)
from test_schedules import full_set

MASS = IncidenceFn.mass_action()
SAT = IncidenceFn.saturated(0.7)


def seasonal_dp(b=0.3, h=1.0):
    return mickens_discretize(full_set(b), h, DenominatorFn.quadratic(0.2))


def constant_dp(h=1.0, **overrides):
    vals = dict(Lambda=0.5, mu=0.3, p=2.0 / 3.0, eta=0.05,
                alpha=0.05, beta=0.3, sigma=0.3, gamma=0.3)
    vals.update(overrides)
    return DiscreteParams.from_sequences(h, **vals)


# ---------------------------------------------------------------------------
# auxiliary system
# ---------------------------------------------------------------------------

def test_aux_equilibrium_is_fixed_point_for_any_denominator_scale():
    # the scale phi(h) multiplying every coefficient cancels from the
    # stationarity equations
    eq = aux_equilibrium(0.5, 0.3, 0.05, 2.0 / 3.0)
    for scale in (1.0, 1.2, 7.2, 0.55):
        dp = constant_dp(Lambda=0.5 * scale, mu=0.3 * scale, p=2.0 / 3.0 * scale,
                         eta=0.05 * scale)
        nxt = simulate_aux(dp, eq, 1)[1]
        assert nxt[0] == pytest.approx(eq.x, rel=1e-14)
        assert nxt[1] == pytest.approx(eq.y, rel=1e-14)


def test_aux_converges_to_benchmark_equilibrium():
    eq = aux_equilibrium(0.5, 0.3, 0.05, 2.0 / 3.0)
    assert eq.x == pytest.approx(0.5737704918032787, rel=1e-12)
    assert eq.y == pytest.approx(1.0928961748633879, rel=1e-12)
    orbit = simulate_aux(seasonal_dp(), AuxState(1.0, 1.0), 500)
    assert orbit[-1, 0] == pytest.approx(eq.x, rel=1e-12)
    assert orbit[-1, 1] == pytest.approx(eq.y, rel=1e-12)


def test_aux_zero_orbit_stays_zero():
    dp = constant_dp(Lambda=0.0)
    orbit = simulate_aux(dp, AuxState(0.0, 0.0), 50)
    assert np.all(orbit == 0.0)


def test_aux_orbits_attract_each_other():
    dp = seasonal_dp()
    o1 = simulate_aux(dp, AuxState(1.0, 1.0), 200)
    o2 = simulate_aux(dp, AuxState(100.0, 5.0), 200)
    gap = np.abs(o1 - o2).sum(axis=1)
    assert gap[-1] < 1e-9
    # geometric contraction: fitted per-step ratio below 1
    ratio = (gap[100] / gap[50]) ** (1.0 / 50.0)
    assert ratio < 1.0


def test_identical_starts_identical_orbits():
    dp = seasonal_dp()
    o1 = simulate_aux(dp, AuxState(2.0, 3.0), 100)
    o2 = simulate_aux(dp, AuxState(2.0, 3.0), 100)
    assert np.array_equal(o1, o2)


def test_periodic_aux_solution_constant_case():
    dp = constant_dp()
    orbit = periodic_aux_solution(dp, 1)
    eq = aux_equilibrium(0.5, 0.3, 0.05, 2.0 / 3.0)
    assert orbit[0, 0] == pytest.approx(eq.x, rel=1e-12)
    assert orbit[0, 1] == pytest.approx(eq.y, rel=1e-12)


def _periodic_inflow_set():
    s = full_set()
    return ScheduleSet(
        Lambda=ParamSchedule.harmonic("Lambda", 0.5, 0.25, math.pi / 2.0),
        mu=s.mu, p=s.p, eta=s.eta, alpha=s.alpha, beta=s.beta, sigma=s.sigma,
        gamma=s.gamma)


def test_periodic_aux_solution_matches_long_run():
    dp = mickens_discretize(_periodic_inflow_set(), 1.0, DenominatorFn.quadratic(0.2))
    orbit = periodic_aux_solution(dp, 4)
    # the orbit is the recurrence from its start, and the period map returns there
    z = simulate_aux(dp, AuxState(*orbit[0]), 4)
    for n in range(5):
        assert z[n] == pytest.approx(orbit[n % 4], rel=1e-12)
    # and attracts a generic orbit, phase by phase
    long = simulate_aux(dp, AuxState(5.0, 3.0), 400)
    for n in range(4):
        assert abs(long[396 + n, 0] - orbit[n][0]) < 1e-9
        assert abs(long[396 + n, 1] - orbit[n][1]) < 1e-9


def test_periodic_orbit_invariant_under_common_scale():
    eq1 = periodic_aux_solution(constant_dp(), 1)
    eq2 = periodic_aux_solution(constant_dp(Lambda=0.5 * 7.2, mu=0.3 * 7.2,
                                            p=2.0 / 3.0 * 7.2, eta=0.05 * 7.2), 1)
    assert eq1[0] == pytest.approx(eq2[0], rel=1e-12)


# ---------------------------------------------------------------------------
# NSFD step: oracles
# ---------------------------------------------------------------------------

def test_disease_free_step_equals_aux_step():
    dp = seasonal_dp()
    s = State(0.8, 0.0, 0.4, 1.1)
    out = simulate_discrete(dp, MASS, MASS, s, 4).states
    aux = simulate_aux(dp, AuxState(s.S, s.V), 4)
    assert np.all(out[:, 1] == 0.0)
    assert np.array_equal(out[:, [0, 3]], aux)
    step = nsfd_step(dp, 3, MASS, MASS, State(*out[3]))
    assert step.R == pytest.approx(out[3, 2] / (1.0 + dp.mu(3)), rel=1e-15)


_SEASONAL_09, _SEASONAL_03 = seasonal_dp(b=0.9), seasonal_dp(b=0.3)


def _assert_mass_action_step_is_linear_solve(s, n):
    # independent oracle: assemble and solve the 2x2 linear system directly
    dp = _SEASONAL_09
    lam, mu, p, eta = (float(dp.Lambda(n)), float(dp.mu(n)),
                       float(dp.p(n)), float(dp.eta(n)))
    alpha, gamma, beta, sigma = (float(dp.alpha(n)), float(dp.gamma(n)),
                                 float(dp.beta(n)), float(dp.sigma(n)))
    A = np.array([[1.0 + mu + p + beta * s.I, -eta],
                  [-p, 1.0 + mu + eta + sigma * s.I]])
    b = np.array([lam + s.S, s.V])
    S1, V1 = np.linalg.solve(A, b)
    I1 = (beta * S1 * s.I + sigma * V1 * s.I + s.I) / (1.0 + mu + alpha + gamma)
    R1 = (gamma * I1 + s.R) / (1.0 + mu)
    got = nsfd_step(dp, n, MASS, MASS, s)
    assert got.S == pytest.approx(S1, rel=1e-10)
    assert got.V == pytest.approx(V1, rel=1e-10)
    assert got.I == pytest.approx(I1, rel=1e-10)
    assert got.R == pytest.approx(R1, rel=1e-10)


def test_mass_action_step_matches_linear_solve_oracle():
    # the seeded draws, kept as a fixed regression set for the property below
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = State(*rng.uniform(0.0, 3.0, 4))
        _assert_mass_action_step_is_linear_solve(s, int(rng.integers(0, 50)))


def _states(lo):
    return st.tuples(*[st.floats(lo, 3.0)] * 4).map(lambda s: State(*s))


@settings(max_examples=200, deadline=None)
@given(s=_states(0.0), n=st.integers(0, 49))
def test_mass_action_step_matches_linear_solve_oracle_property(s, n):
    _assert_mass_action_step_is_linear_solve(s, n)


def _bisection_oracle(lam, mu, p, eta, beta, sigma, a_sat, S, I, V):
    """Independent brute-force solve for the saturated-incidence step."""
    q = I / (1.0 + a_sat * I)  # f(x, I) = q x for the saturated kind

    def v_of(s):
        lo, hi = 0.0, (p * s + V) / (1.0 + mu + eta) + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if mid * (1.0 + mu + eta) + sigma * mid * I - (p * s + V) > 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    lo, hi = 0.0, lam + S + eta * (V + p * (lam + S) + 1.0) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if mid * (1.0 + mu + p) - (lam + S - beta * q * mid + eta * v_of(mid)) > 0:
            hi = mid
        else:
            lo = mid
    s1 = 0.5 * (lo + hi)
    return s1, v_of(s1)


def _assert_saturated_step_is_bisection_root(s, n):
    dp = _SEASONAL_03
    got = nsfd_step(dp, n, SAT, MASS, s)
    S1, V1 = _bisection_oracle(float(dp.Lambda(n)), float(dp.mu(n)), float(dp.p(n)),
                               float(dp.eta(n)), float(dp.beta(n)), float(dp.sigma(n)),
                               0.7, s.S, s.I, s.V)
    assert abs(got.S - S1) <= 1e-12
    assert abs(got.V - V1) <= 1e-12


def test_saturated_step_matches_bisection_oracle():
    # the seeded draws, kept as a fixed regression set for the property below
    rng = np.random.default_rng(5)
    for _ in range(100):
        s = State(*rng.uniform(0.01, 3.0, 4))
        _assert_saturated_step_is_bisection_root(s, int(rng.integers(0, 40)))


@settings(max_examples=100, deadline=None)
@given(s=_states(0.01), n=st.integers(0, 39))
def test_saturated_step_matches_bisection_oracle_property(s, n):
    _assert_saturated_step_is_bisection_root(s, n)


def test_linear_incidences_take_the_closed_form(monkeypatch):
    # every kind linear in x (saturated included) avoids the iterative solve,
    # whose loop is the only reader of `_SOLVE_MAX_ITER`
    class NoIteration:
        def __index__(self):
            raise AssertionError("fixed-point solve used for an incidence linear in x")

    monkeypatch.setattr(dynamics, "_SOLVE_MAX_ITER", NoIteration())
    dp = seasonal_dp(b=0.9)
    for phi, psi in ((SAT, MASS), (MASS, SAT), (SAT, IncidenceFn.standard())):
        traj = simulate_discrete(dp, phi, psi, State(1.0, 0.2, 0.1, 1.0), 40)
        assert traj.I[-1] > 0.0
    sep = IncidenceFn.separable(lambda x: x / (1.0 + x), 1.0)
    with pytest.raises(AssertionError, match="fixed-point"):
        simulate_discrete(dp, sep, MASS, State(1.0, 0.2, 0.1, 1.0), 1)


def _calls_per_step(phi, psi, method):
    """Python and C calls a run makes per step: the growth of the count seen by
    a profile hook from a 1024-step to a 2048-step run."""
    counts = []
    for n_steps in (1024, 2048):
        calls = [0]

        def count(frame, event, arg):
            calls[0] += event in ("call", "c_call")

        sys.setprofile(count)
        try:
            integrate_continuous(full_set(0.9), phi, psi, State(1.0, 0.2, 0.1, 1.0),
                                 n_steps * 0.01, 0.01, method=method)
        finally:
            sys.setprofile(None)
        counts.append(calls[0])
    return (counts[1] - counts[0]) / 1024


@pytest.mark.parametrize("method", ["rk4", "euler"])
def test_explicit_steps_read_the_factor_form_inline(method):
    # the kinds linear in x, with d = 1, 1 + a y or N, make no call per stage:
    # a step's one call is `out.fromlist`, plus each chunk's share of its own;
    # a separable g is called at each stage
    std = IncidenceFn.standard()
    for phi, psi in ((MASS, MASS), (SAT, SAT), (std, std), (MASS, std), (SAT, MASS)):
        assert _calls_per_step(phi, psi, method) < 1.2, (phi.kind, psi.kind)
    sep = IncidenceFn.separable(lambda x: x / (1.0 + x), 1.0)
    assert _calls_per_step(sep, MASS, method) > (4 if method == "rk4" else 1)


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_zero_d_carries_no_infection(method):
    # mu = 1 takes I = 1 to exactly -2 in Euler's first step (h = 3) or RK4's
    # second stage (h = 6), where saturated d = 1 + 0.5 I is 0; a zero
    # population is standard's d = 0.  Either ratio g / d is taken as 0: the
    # run returns, Euler's below the axis and flagged, not with a StepError
    c = ParamSchedule.constant
    sched = ScheduleSet(Lambda=c("Lambda", 0.0), mu=c("mu", 1.0), p=c("p", 0.0),
                        eta=c("eta", 0.0), alpha=c("alpha", 0.0), beta=c("beta", 0.0),
                        sigma=c("sigma", 0.0), gamma=c("gamma", 0.0))
    h = 3.0 if method == "euler" else 6.0
    sat = IncidenceFn.saturated(0.5)
    traj = integrate_continuous(sched, sat, sat, State(1.0, 1.0, 0.0, 0.0), 2 * h, h, method)
    assert np.all(np.isfinite(traj.states))
    assert traj.negative_at == (1 if method == "euler" else None)
    std = IncidenceFn.standard()
    traj = integrate_continuous(sched, std, std, State(0.0, 0.0, 0.0, 0.0), 2 * h, h, method)
    assert np.all(traj.states == 0.0)


def _persistence_rhs(inc):
    """The continuous model of persistence_5_1's schedules with phi = psi = inc,
    its incidence f(x, I, N) written out per kind, for scipy's solve_ivp."""
    f = {"mass_action": lambda x, i, n: x * i,
         "saturated": lambda x, i, n: x * i / (1.0 + 0.7 * i),
         "standard": lambda x, i, n: x * i / n,
         "separable": lambda x, i, n: x / (1.0 + x) * i}[inc.kind]
    sched = builtin("persistence_5_1").schedules

    def rhs(t, y):
        S, I, R, V = y
        lam, mu, p, eta, alpha, beta, sigma, gamma = (
            float(getattr(sched, name).eval(t)) for name in SCHEDULE_NAMES)
        N = S + I + R + V
        inc_s, inc_v = beta * f(S, I, N), sigma * f(V, I, N)
        return [lam - inc_s - (mu + p) * S + eta * V,
                inc_s + inc_v - (mu + alpha + gamma) * I,
                gamma * I - mu * R,
                p * S - (mu + eta) * V - inc_v]

    return rhs


@pytest.mark.parametrize("inc", [MASS, SAT, IncidenceFn.standard(),
                                 IncidenceFn.separable(lambda x: x / (1.0 + x), 1.0)],
                         ids=lambda i: i.kind)
def test_rk4_integrates_the_model_nsfd_discretises(inc):
    # the continuous reference is the ODE with the incidence the NSFD scheme
    # discretises: RK4 at h = 0.01 is DOP853's solution to 1e-8 of max I, and
    # NSFD converges to it at first order over [0, 60]
    from scipy.integrate import solve_ivp
    spec = builtin("persistence_5_1")
    ref = integrate_continuous(spec.schedules, inc, inc, spec.initial_state, 60.0, 0.01)
    dop = solve_ivp(_persistence_rhs(inc), (0.0, 60.0), list(spec.initial_state),
                    method="DOP853", rtol=1e-11, atol=1e-13, t_eval=ref.times)
    assert dop.success
    assert np.max(np.abs(ref.I - dop.y[1])) <= 1e-8 * np.max(ref.I)
    errs = []
    for h in (0.1, 0.01):
        dp = mickens_discretize(spec.schedules, h, spec.denominator)
        traj = simulate_discrete(dp, inc, inc, spec.initial_state, int(round(60.0 / h)))
        errs.append(np.max(np.abs(traj.states - ref.states[::int(round(h / 0.01))])))
    assert 0.8 <= math.log10(errs[0] / errs[1]) <= 1.2, errs


def test_zero_denominator_is_a_step_error():
    # mu = -1 zeroes 1 + mu: a named failure at its own step, not inf/nan states;
    # step 1500 lies past the first chunk of coefficient rows.  A separable phi
    # takes the solve, the others the closed form.
    s = State(1.0, 0.2, 0.1, 1.0)
    sep = IncidenceFn.separable(lambda x: x / (1.0 + x), 1.0)
    for first in (0, 1500):
        dp = DiscreteParams.from_sequences(
            1.0, Lambda=0.5, mu=lambda n, k=first: np.where(np.asarray(n) >= k, -1.0, 0.3),
            p=0.0, eta=0.0, alpha=0.0, beta=0.3, sigma=0.3, gamma=0.0)
        for run in (lambda: simulate_discrete(dp, MASS, MASS, s, first + 3),
                    lambda: simulate_discrete(dp, sep, MASS, s, first + 3),
                    lambda: nsfd_step(dp, first, MASS, MASS, s),
                    lambda: simulate_aux(dp, AuxState(1.0, 1.0), first + 3)):
            with pytest.raises(StepError, match=f"zero denominator at step {first}$") as exc:
                run()
            assert exc.value.step == first


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_every_run_rejects_a_bad_start(bad):
    # one start rule for every run, whatever its width: a NaN or inf
    # disease-free start ran on to NaN or inf rows
    dp = seasonal_dp()
    s = State(1.0, 0.2, bad, 1.0)
    for run in (lambda: simulate_aux(dp, AuxState(bad, 1.0), 3),
                lambda: simulate_aux(dp, AuxState(1.0, bad), 3),
                lambda: simulate_discrete(dp, MASS, MASS, s, 3),
                lambda: nsfd_step(dp, 0, MASS, MASS, s),
                lambda: integrate_continuous(full_set(), MASS, MASS, s, 3.0, 1.0)):
        with pytest.raises(ValueError, match="^(non-finite state|negative state component)"):
            run()


def test_nan_coefficient_is_a_step_error():
    # a NaN residual must fail the balance check, not pass it
    dp = DiscreteParams.from_sequences(0.5, Lambda=0.5, mu=0.3, p=0.2, eta=0.05,
                                       alpha=0.05, beta=float("nan"), sigma=0.3, gamma=0.3)
    s = State(1.0, 0.2, 0.1, 1.0)
    for run in (lambda: simulate_discrete(dp, MASS, MASS, s, 5),
                lambda: nsfd_step(dp, 0, MASS, MASS, s)):
        with pytest.raises(StepError, match="balance identity violated at step 0"):
            run()


def test_balance_identity_random_draws():
    rng = np.random.default_rng(3)
    for i in range(2000):
        h = (1e-3, 0.5, 1.0, 10.0)[i % 4]
        raw = rng.uniform(0.0, 1.0, 8)
        dp = DiscreteParams.from_sequences(
            h, Lambda=raw[0] * h, mu=raw[1] * h, p=raw[2] * h, eta=raw[3] * h,
            alpha=raw[4] * h, beta=raw[5] * h, sigma=raw[6] * h, gamma=raw[7] * h)
        s = State(*rng.uniform(0.0, 100.0, 4))
        phi = (MASS, SAT)[i % 2]
        out = nsfd_step(dp, 0, phi, MASS, s)
        lhs = (1.0 + dp.mu(0)) * sum(out) + dp.alpha(0) * out.I
        rhs = sum(s) + dp.Lambda(0)
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + sum(s))


def test_positivity_random_draws():
    rng = np.random.default_rng(9)
    for i in range(2000):
        h = (1e-3, 1.0, 10.0)[i % 3]
        raw = rng.uniform(0.0, 1.0, 8)
        dp = DiscreteParams.from_sequences(
            h, Lambda=raw[0] * h, mu=raw[1] * h, p=raw[2] * h, eta=raw[3] * h,
            alpha=raw[4] * h, beta=raw[5] * h, sigma=raw[6] * h, gamma=raw[7] * h)
        state = rng.uniform(0.0, 50.0, 4)
        state[rng.integers(0, 4)] *= rng.integers(0, 2)  # exercise zero components
        out = nsfd_step(dp, 0, (MASS, SAT)[i % 2], (MASS, SAT)[(i + 1) % 2],
                        State(*state))
        assert min(out) >= 0.0


# the seeded loops above stay as a fixed regression set; these draw every
# incidence kind, the step sizes at the edges, zero state components and
# populations shrinking to 0 (`scale`), where `standard` divides by N
_KINDS = (MASS, SAT, IncidenceFn.standard(),
          IncidenceFn.separable(lambda x: x / (1.0 + x), 1.0))
_RANDOM_STEP = dict(
    h=st.sampled_from([1e-6, 1e-3, 0.5, 1.0, 10.0, 1e3]),
    raw=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    state=st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4),
    zeros=st.lists(st.booleans(), min_size=4, max_size=4),
    scale=st.sampled_from([1.0, 1e-150, 1e-300]),
    phi=st.sampled_from(_KINDS), psi=st.sampled_from(_KINDS))


def _random_step(h, raw, state, zeros, scale, phi, psi):
    dp = DiscreteParams.from_sequences(
        h, **{name: r * h for name, r in zip(("Lambda", "mu", "p", "eta", "alpha", "beta",
                                               "sigma", "gamma"), raw)})
    s = State(*(0.0 if z else x * scale for x, z in zip(state, zeros)))
    return dp, s, nsfd_step(dp, 0, phi, psi, s)


@settings(max_examples=300, deadline=None)
@given(**_RANDOM_STEP)
def test_balance_identity_property(h, raw, state, zeros, scale, phi, psi):
    dp, s, out = _random_step(h, raw, state, zeros, scale, phi, psi)
    lhs = (1.0 + dp.mu(0)) * sum(out) + dp.alpha(0) * out.I
    rhs = sum(s) + dp.Lambda(0)
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + sum(s))


@settings(max_examples=300, deadline=None)
@given(**_RANDOM_STEP)
def test_positivity_property(h, raw, state, zeros, scale, phi, psi):
    _, _, out = _random_step(h, raw, state, zeros, scale, phi, psi)
    assert min(out) >= 0.0


def _barely_monotone(shape, a, flat):
    """A nondecreasing g with g(0) = 0 whose slope vanishes, or all but does,
    somewhere: on [a, a + 1] (slope `flat`), at x = a, or at x = 2 pi n.  Its
    Lipschitz constant on [0, 100] is `_BARELY_MONOTONE_K[shape]`."""
    if shape == "plateau":
        return lambda x: min(x, a) + flat * min(max(x - a, 0.0), 1.0) + max(x - a - 1.0, 0.0)
    if shape == "cubic":
        return lambda x: (x - a) ** 3 + a ** 3
    return lambda x: x - math.sin(x)


# sup g' on [0, 100] for a <= 4: 1, 3 (100 - a)^2 <= 3e4, and 1 - cos x <= 2
_BARELY_MONOTONE_K = {"plateau": 1.0, "cubic": 3e4, "x - sin x": 2.0}


@settings(max_examples=300, deadline=None)
@given(shape=st.sampled_from(["plateau", "cubic", "x - sin x"]), a=st.floats(0.0, 4.0),
       flat=st.sampled_from([0.0, 1e-300, 1e-12, 1e-6]), psi_kind=st.sampled_from(["g", "mass"]),
       **_STEP_DRAWS)
def test_barely_monotone_separable_step(shape, a, flat, psi_kind, S, I, R, V,
                                        lam, mu, p, eta, alpha, gamma, beta, sigma):
    # the solve keeps (S+, V+) between (0, 0) and the disease-free update, meets
    # the balance identity and finds the root, or fails with a named StepError
    g = _barely_monotone(shape, a, flat)
    phi = IncidenceFn.separable(g, _BARELY_MONOTONE_K[shape])
    psi = phi if psi_kind == "g" else MASS
    g_psi = g if psi_kind == "g" else (lambda x: x)
    try:
        S1, I1, R1, V1 = _one_step(phi, psi, (lam, mu, p, eta, alpha, gamma, beta, sigma),
                                   S, I, R, V)
    except StepError:
        return
    s_free, v_free = _aux_advance(lam, mu, p, eta, S, V)
    assert 0.0 <= S1 <= s_free and 0.0 <= V1 <= v_free
    assert I1 >= 0.0 and R1 >= 0.0
    N = S + I + R + V
    assert _balance_residual((S1, I1, R1, V1), N, lam, mu, alpha) <= 1e-10 * (1.0 + N)
    s_ref, v_ref = _separable_root_oracle(lam, mu, p, eta, beta, sigma, g, g_psi, S, I, V)
    assert abs(S1 - s_ref) <= 1e-12 * (1.0 + N)
    assert abs(V1 - v_ref) <= 1e-12 * (1.0 + N)


def test_positive_states_stay_positive():
    dp = seasonal_dp(b=0.9)
    s = State(1e-8, 1e-8, 1e-8, 1e-8)
    for n in range(10):
        s = nsfd_step(dp, n, MASS, MASS, s)
        assert min(s) > 0.0


# ---------------------------------------------------------------------------
# discrete trajectories
# ---------------------------------------------------------------------------

def test_zero_system_stays_zero():
    dp = constant_dp(Lambda=0.0)
    traj = simulate_discrete(dp, MASS, MASS, State(0, 0, 0, 0), 20)
    assert np.all(traj.states == 0.0)


def test_seasonal_extinction_run():
    traj = simulate_discrete(seasonal_dp(b=0.3), MASS, MASS, State(1.0, 0.2, 0.1, 1.0), 200)
    assert traj.I[-1] < 1e-8
    assert np.all(traj.states >= 0.0)


def test_seasonal_persistence_run():
    traj = simulate_discrete(seasonal_dp(b=0.9), MASS, MASS, State(1.0, 0.2, 0.1, 1.0), 1000)
    assert np.min(traj.I[200:]) > 1e-3


def test_population_bounded_independent_of_initial_scale():
    base = np.array([1.0, 0.2, 0.1, 1.0])
    maxima = []
    for scale in (0.5, 1.0, 2.0):
        traj = simulate_discrete(seasonal_dp(b=0.3), MASS, MASS, State(*(scale * base)), 10_000)
        n_tot = traj.states.sum(axis=1)
        maxima.append(np.max(n_tot[1000:]))
    # Lambda/mu = 5/3 bounds the asymptotic population
    assert max(maxima) < 2.0 * (0.5 / 0.3)
    assert max(maxima) - min(maxima) < 1e-9 * max(maxima)


# ---------------------------------------------------------------------------
# continuous integrators
# ---------------------------------------------------------------------------

def _decay_only_set(mu=0.3):
    c = ParamSchedule.constant
    return ScheduleSet(Lambda=c("Lambda", 0.0), mu=c("mu", mu), p=c("p", 0.0),
                       eta=c("eta", 0.0), alpha=c("alpha", 0.0), beta=c("beta", 0.0),
                       sigma=c("sigma", 0.0), gamma=c("gamma", 0.0))


def test_rk4_matches_exponential_decay():
    traj = integrate_continuous(_decay_only_set(), MASS, MASS, State(1, 1, 1, 1),
                                t_end=1.0, h=0.01, method="rk4")
    expected = math.exp(-0.3)
    for col in range(4):
        assert traj.states[-1, col] == pytest.approx(expected, abs=1e-9)


def _one_jump_set():
    """persistence_5_1's model with beta = sigma = 2 on [0, 1) and 0.4 after."""
    s = full_set(0.9).as_dict()
    for name in ("beta", "sigma"):
        s[name] = ParamSchedule.piecewise(name, [0.0, 1.0], [2.0, 0.4])
    return ScheduleSet.from_mapping(s)


def _mass_action_rhs(sched, end=None):
    """y' = F(t, y) of the mass-action model, the coefficients read at t, or
    up to `end` from the left: those of the interval that ends there."""
    def rhs(t, y):
        S, I, R, V = y
        tt = t if end is None else min(t, np.nextafter(end, 0.0))
        lam, mu, p, eta, alpha, beta, sigma, gamma = (
            float(getattr(sched, name).eval(tt)) for name in SCHEDULE_NAMES)
        inc_s, inc_v = beta * S * I, sigma * V * I
        return [lam - inc_s - (mu + p) * S + eta * V,
                inc_s + inc_v - (mu + alpha + gamma) * I,
                gamma * I - mu * R,
                p * S - (mu + eta) * V - inc_v]
    return rhs


def _one_jump_exact_at_2(sched, s0):
    """The model's state at t = 2 by DOP853, restarted at the jump at t = 1."""
    from scipy.integrate import solve_ivp
    y1 = solve_ivp(_mass_action_rhs(sched, 1.0), (0.0, 1.0), list(s0), method="DOP853",
                   rtol=1e-13, atol=1e-14).y[:, -1]
    return solve_ivp(_mass_action_rhs(sched, 2.0), (1.0, 2.0), y1, method="DOP853",
                     rtol=1e-13, atol=1e-14).y[:, -1]


def test_rk4_is_fourth_order_across_a_breakpoint():
    # steps that end on the breakpoint read their end stage at the left limit,
    # so each halving of h shrinks the error at t = 2 about 16-fold; a fourth
    # stage that reads the next interval's beta halves it only (order 1)
    sched = _one_jump_set()
    s0 = State(1.0, 0.2, 0.1, 1.0)
    exact = _one_jump_exact_at_2(sched, s0)
    errs = [np.max(np.abs(integrate_continuous(sched, MASS, MASS, s0, 2.0, h).states[-1]
                          - exact))
            for h in (1 / 8, 1 / 16, 1 / 32, 1 / 64)]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(12.0 <= r <= 20.0 for r in ratios), (errs, ratios)


# Dormand & Prince (1980) in vector form: (c_i, row a_i) per stage, the last row
# being the fifth-order weights b, and the fourth-order weights b*
_DP5_TABLEAU = (
    (0.0, ()),
    (1 / 5, (1 / 5,)),
    (3 / 10, (3 / 40, 9 / 40)),
    (4 / 5, (44 / 45, -56 / 15, 32 / 9)),
    (8 / 9, (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729)),
    (1.0, (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656)),
    (1.0, (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)),
)
_DP5_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _textbook_dp5(rhs, t, y, h):
    """One Dormand-Prince step of y' = rhs(t, y), written from the tableau:
    its fifth- and fourth-order solutions."""
    y, k = np.asarray(y, dtype=float), []
    for c, row in _DP5_TABLEAU:
        k.append(np.asarray(rhs(t + c * h, y + h * sum(a * kj for a, kj in zip(row, k)))))
    return (y + h * sum(b * kj for b, kj in zip(_DP5_TABLEAU[-1][1], k)),
            y + h * sum(b * kj for b, kj in zip(_DP5_B4, k)))


def test_dp5_is_fifth_order_across_a_breakpoint():
    # one step per gap of 2/m <= REFERENCE_CAP_STEP, so doubling m halves every
    # step; those that end on the jump read their last stages at the left
    # limit, so the error at t = 2 shrinks about 32-fold each time
    sched = _one_jump_set()
    s0 = State(1.0, 0.2, 0.1, 1.0)
    exact = _one_jump_exact_at_2(sched, s0)
    refs = [reference.dp5_reference(sched, MASS, MASS, s0, np.arange(1, m + 1) * (2.0 / m))
            for m in (64, 128, 256)]
    assert [ref.n_steps for ref in refs] == [64, 128, 256]
    errs = [np.max(np.abs(ref.states[-1] - exact)) for ref in refs]
    ratios = [a / b for a, b in zip(errs, errs[1:])]
    assert all(24.0 <= r <= 40.0 for r in ratios), (errs, ratios)


def test_dp5_reference_stops_at_every_time_and_breakpoint():
    # stops at 0.3, 0.5 (beta's breakpoint), 0.7 and 1; one block, so each gap
    # takes its cap, equal steps of at most REFERENCE_CAP_STEP = 0.04, the last
    # ending on the stop itself
    sched = _one_jump_set().as_dict()
    for name in ("beta", "sigma"):
        sched[name] = ParamSchedule.piecewise(name, [0.0, 0.5, 3.0], [2.0, 0.4, 1.0])
    sched = ScheduleSet.from_mapping(sched)
    s0 = State(1.0, 0.2, 0.1, 1.0)
    ref = reference.dp5_reference(sched, MASS, MASS, s0, [1.0, 0.3, 0.7, 0.3])
    assert (ref.method, ref.n_steps, ref.capped_gaps) == ("dp5", 26, 0)  # 8 + 5 + 5 + 8 steps
    assert ref.dt == 0.2 / 5 and reference.REFERENCE_RTOL == 1e-8
    assert [ref.times[k] for k in (0, 8, 13, 18, 26)] == [0.0, 0.3, 0.5, 0.7, 1.0]
    assert np.all(np.diff(ref.times) <= 0.04 + 2.0 * np.spacing(ref.times[1:]))
    # up to 0.3 it is the textbook DP5 at 0.3 / 8, up to the rounding of its node times
    y, rhs = np.array(s0), _mass_action_rhs(sched)
    for k in range(8):
        y = _textbook_dp5(rhs, ref.times[k], y, 0.3 / 8)[0]
        np.testing.assert_allclose(ref.states[k + 1], y, rtol=1e-13, atol=0.0)
    for times in ([], [0.0], [-1.0, 1.0], [1.0, np.inf]):
        with pytest.raises(ValueError):
            reference.dp5_reference(sched, MASS, MASS, s0, times)


@pytest.mark.parametrize("h", [0.04, 0.02])
def test_dp5_estimate_is_the_local_error_of_the_fourth_order_solution(h):
    # y' = -mu(t) y in every component (no inflow, infection or transfer), whose
    # exact solution is y0 exp(-int mu): one step's estimate is |y5 - y4|
    # relative to max(|y0|, |y5|), the textbook pair's, and it is the fourth-
    # order solution's true local error to within a few per cent
    c = ParamSchedule.constant
    sched = ScheduleSet(Lambda=c("Lambda", 0.0), mu=ParamSchedule.harmonic("mu", 0.5, 0.4, 3.0),
                        p=c("p", 0.0), eta=c("eta", 0.0), alpha=c("alpha", 0.0),
                        beta=c("beta", 0.0), sigma=c("sigma", 0.0), gamma=c("gamma", 0.0))
    s0 = State(1.0, 0.2, 0.1, 1.0)
    ref = reference.dp5_reference(sched, MASS, MASS, s0, [h])
    assert ref.n_steps == 1
    y5, y4 = _textbook_dp5(_mass_action_rhs(sched), 0.0, np.array(s0), h)
    np.testing.assert_allclose(ref.states[1], y5, rtol=1e-14, atol=0.0)
    exact = np.array(s0) * math.exp(-(0.5 * h + 0.4 / 3.0 * math.sin(3.0 * h)))
    scale = np.maximum(np.abs(s0), np.abs(y5))
    assert ref.largest_estimate == pytest.approx(np.max(np.abs(y5 - y4) / scale), rel=1e-4)
    assert ref.largest_estimate == pytest.approx(np.max(np.abs(y4 - exact) / scale), rel=0.05)


def test_a_component_at_zero_throughout_does_not_cap_the_reference():
    # a disease-free run keeps I = R = 0: their estimates are 0 / 0, read as 0,
    # so the steps still follow S and V and no gap is capped
    spec = builtin("extinction_5_1")
    ref = reference.dp5_reference(spec.schedules, MASS, MASS, State(1.0, 0.0, 0.0, 1.0),
                                  np.arange(0.0, 40.25, 0.5))
    assert np.all(ref.I == 0.0) and np.all(ref.R == 0.0)
    assert ref.capped_gaps == 0 and 0.0 < ref.largest_estimate < 1e-7
    assert ref.n_steps < 0.5 * 80 * dynamics.steps_for(0.5, reference.REFERENCE_CAP_STEP)


def test_dp5_reference_runs_are_bit_identical(monkeypatch):
    # the same run twice gives the same bytes, also when each chunk of rows is
    # 7 steps long, so that most steps recompute the first stage their
    # predecessor's last one gave (first same as last)
    spec = builtin("persistence_5_1")
    args = (spec.schedules, spec.incidence_phi, spec.incidence_psi, spec.initial_state,
            np.arange(0.0, 40.25, 0.5))

    def run():
        ref = reference.dp5_reference(*args)
        return (ref.states.tobytes(), ref.nodes.tobytes(), ref.largest_estimate,
                ref.capped_gaps, ref.dt)

    first = run()
    assert run() == first
    monkeypatch.setattr(dynamics, "_ROWS_PER_CHUNK", 7)
    assert run() == first


def test_euler_is_first_order_on_decay():
    errs = []
    for h in (0.02, 0.01):
        traj = integrate_continuous(_decay_only_set(), MASS, MASS, State(1, 1, 1, 1),
                                    t_end=1.0, h=h, method="euler")
        errs.append(abs(traj.states[-1, 0] - math.exp(-0.3)))
    assert errs[1] == pytest.approx(errs[0] / 2.0, rel=0.1)


def test_zero_infectives_invariant_subspace():
    s0 = State(1.0, 0.0, 0.2, 1.0)
    for method in ("euler", "rk4"):
        traj = integrate_continuous(full_set(0.9), MASS, MASS, s0, 10.0, 0.05, method)
        assert np.all(traj.I == 0.0)


def test_rk4_persistent_oscillation():
    traj = integrate_continuous(full_set(0.9), MASS, MASS, State(1.0, 0.2, 0.1, 1.0),
                                t_end=100.0, h=0.01, method="rk4")
    window = traj.I[traj.times >= 50.0]
    assert np.min(window) > 1e-3


def test_euler_negativity_flagged_not_clamped():
    traj = integrate_continuous(full_set(0.3), MASS, MASS, State(1.0, 0.2, 0.1, 1.0),
                                t_end=40.0, h=4.0, method="euler")
    assert traj.negative_at is not None
    assert traj.states.min() < 0.0  # kept, not clamped


def test_nsfd_first_order_convergence_to_rk4():
    spec_sched = full_set(0.9)
    ref = integrate_continuous(spec_sched, MASS, MASS, State(1.0, 0.2, 0.1, 1.0),
                               t_end=10.0, h=0.0025, method="rk4")
    errs = []
    hs = (0.2, 0.05)
    for h in hs:
        dp = mickens_discretize(spec_sched, h, DenominatorFn.quadratic(0.2))
        traj = simulate_discrete(dp, MASS, MASS, State(1.0, 0.2, 0.1, 1.0),
                                 int(round(10.0 / h)))
        stride = int(round(h / 0.0025))
        errs.append(np.max(np.abs(traj.states - ref.states[::stride])))
    slope = math.log(errs[0] / errs[1]) / math.log(hs[0] / hs[1])
    assert 0.7 < slope < 1.3


# ---------------------------------------------------------------------------
# cost of coefficient rows
# ---------------------------------------------------------------------------

def test_only_varying_coefficients_are_evaluated_per_chunk(monkeypatch):
    # persistence_5_1 varies beta and sigma only, one harmonic declared twice: each
    # 1024-row chunk evaluates it once, as beta, and the six constants are
    # repeated into the rows as they are
    spec = builtin("persistence_5_1")
    dp = mickens_discretize(spec.schedules, 0.01, spec.denominator)
    seen = []
    array, evaluate = DiscreteParams.array, ParamSchedule.eval
    monkeypatch.setattr(DiscreteParams, "array",
                        lambda self, name, a, b: seen.append(name) or array(self, name, a, b))
    simulate_discrete(dp, MASS, MASS, spec.initial_state, 2049)  # 3 chunks
    assert seen == ["beta"] * 3
    seen.clear()
    simulate_aux(dp, AuxState(1.0, 1.0), 2049)
    assert seen == []
    monkeypatch.setattr(ParamSchedule, "eval",
                        lambda self, t: seen.append(self.name) or evaluate(self, t))
    # 1024 steps: RK4 reads the row at t = 0, 1024 midpoint rows and 1024 end
    # rows (a chunk each), Euler only the 1024 rows at the start of its steps
    for method, n_chunks in (("rk4", 3), ("euler", 1)):
        seen.clear()
        integrate_continuous(spec.schedules, MASS, MASS, spec.initial_state, 10.24, 0.01,
                             method=method)
        assert seen == ["beta"] * n_chunks


def test_scalar_valued_sequence_is_a_sequence_of_its_value():
    # a callable that ignores the shape of its index array gives one value per step
    s = State(1.0, 0.2, 0.1, 1.0)
    dp = constant_dp(mu=lambda n: 0.3)
    assert dp.array("mu", 0, 5).tolist() == [0.3] * 5
    assert dp.constant("mu") is None
    assert np.array_equal(simulate_discrete(dp, MASS, MASS, s, 1500).states,
                          simulate_discrete(constant_dp(), MASS, MASS, s, 1500).states)

