"""Fast paths against straightforward reference copies of the code they replaced.

The scalar Euler, RK4 and DP5 loops, the Python-float NSFD and disease-free
loops and the streaming trajectory writer must give exactly the numbers (and
bytes) of the array-based, np.float64 and per-value implementations kept
below.  The loops and the writer read and
write one fixed-size chunk of rows at a time, so they must also give the bytes
of the whole-table versions kept below, across chunk boundaries, also where a
constant coefficient is repeated into the rows instead of evaluated.  The
closed-form saturated NSFD step and the bracketed separable solve change the
arithmetic, so they must agree with the damped fixed-point step they replaced
to a tolerance fixed beforehand; the separable solve also meets a root
oracle and a budget of calls to g.
"""

import hashlib
import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from nsfd_sirvs.cli import _write_trajectory
from nsfd_sirvs.dynamics import (State, Trajectory, _aux_advance, _nsfd_stepper,
                                 integrate_continuous, period_map_fixed_point,
                                 periodic_aux_solution, simulate_aux, simulate_discrete,
                                 state_rows, steps_for, validate_state)
from nsfd_sirvs.incidence import IncidenceFn
from nsfd_sirvs.reference import _DP5_WEIGHTS, _dp5_stepper, dp5_reference
from nsfd_sirvs.scenarios import builtin
from nsfd_sirvs.schedules import (SCHEDULE_NAMES, DenominatorFn, DiscreteParams, ParamSchedule,
                                  ScheduleSet, mickens_discretize)

from test_schedules import full_set

KINDS = {
    "mass_action": IncidenceFn.mass_action(),
    "saturated": IncidenceFn.saturated(0.7),
    "standard": IncidenceFn.standard(),
    "separable": IncidenceFn.separable(lambda x: x / (1.0 + x), 1.0),
}


# ---------------------------------------------------------------------------
# integrate_continuous: array-based reference
# ---------------------------------------------------------------------------

def _reference_rate(inc):
    """(x, y, pop) -> g(x) / d(y, pop) of inc's factor form, a separable g
    taken as 0 for x <= 0 and the ratio as 0 where d is 0."""
    g, a, by_pop = inc.factor_form()

    def rate(x, y, pop):
        gx = x if g is float else float(g(x)) if x > 0.0 else 0.0
        if not (a or by_pop):  # d = 1
            return gx
        d = pop if by_pop else 1.0 + a * y
        return gx / d if d else 0.0

    return rate


def _reference_rhs(phi, psi):
    """F(c, y), the continuous model's right-hand side in vector form, c one
    row of coefficients in `SCHEDULE_NAMES` order."""
    q_phi, q_psi = _reference_rate(phi), _reference_rate(psi)

    def rhs(c, y):
        lam, mu, p, eta, alpha, beta, sigma, gamma = c
        S, I, R, V = y
        pop = S + I + R + V
        inc_s = beta * q_phi(S, I, pop) * I
        inc_v = sigma * q_psi(V, I, pop) * I
        return np.array([lam - inc_s - (mu + p) * S + eta * V,
                         inc_s + inc_v - (mu + alpha + gamma) * I,
                         gamma * I - mu * R,
                         p * S - (mu + eta) * V - inc_v])

    return rhs


def _reference_integrate(schedules, phi, psi, s0, t_end, h, method):
    s0 = validate_state(s0)
    n_steps = max(1, int(math.ceil(t_end / h - 1e-9)))
    ts_half = np.arange(2 * n_steps + 1) * (h / 2.0)
    P = {name: np.asarray(getattr(schedules, name).eval(ts_half), dtype=float)
         for name in SCHEDULE_NAMES}
    F = _reference_rhs(phi, psi)

    def rhs(j, y):
        return F([P[name][j] for name in SCHEDULE_NAMES], y)

    out = np.empty((n_steps + 1, 4))
    out[0] = s0
    y = np.array(s0, dtype=float)
    negative_at = None
    with np.errstate(all="ignore"):
        for n in range(n_steps):
            if method == "euler":
                y = y + h * rhs(2 * n, y)
            else:
                k1 = rhs(2 * n, y)
                k2 = rhs(2 * n + 1, y + (h / 2.0) * k1)
                k3 = rhs(2 * n + 1, y + (h / 2.0) * k2)
                k4 = rhs(2 * n + 2, y + h * k3)
                y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            out[n + 1] = y
            if negative_at is None and np.any(y < 0):
                negative_at = n + 1
    return out, negative_at


def _assert_same_run(schedules, inc, s0, t_end, h, method):
    traj = integrate_continuous(schedules, inc, inc, s0, t_end, h, method=method)
    states, negative_at = _reference_integrate(schedules, inc, inc, s0, t_end, h, method)
    # byte comparison: also tells -0.0 from 0.0, and covers runs that blow up to nan
    assert traj.states.tobytes() == states.tobytes()
    assert traj.negative_at == negative_at
    return traj


_STATES = st.tuples(*[st.floats(0.0, 5.0, allow_subnormal=False)] * 4).filter(
    lambda s: sum(s) > 0.0).map(lambda s: State(*s))


@pytest.mark.parametrize("method", ["euler", "rk4"])
@pytest.mark.parametrize("kind", sorted(KINDS))
@settings(max_examples=25, deadline=None)
@given(s0=_STATES, h=st.floats(0.05, 1.5))
def test_integrator_bit_identical_to_array_reference(kind, method, s0, h):
    _assert_same_run(full_set(0.9), KINDS[kind], s0, 6.0, h, method)


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_euler_overshoot_flag_matches_array_reference(kind):
    traj = _assert_same_run(full_set(0.3), KINDS[kind], State(1.0, 0.2, 0.1, 1.0),
                            40.0, 2.0, "euler")
    assert traj.negative_at is not None


def _continuous_run(schedules, inc, s0, t_end, h, method):
    """An Euler or RK4 run at h, or the DP5 reference stopping at h, 2 h, .., t_end."""
    if method == "dp5":
        return dp5_reference(schedules, inc, inc, s0, np.arange(1, steps_for(t_end, h) + 1) * h)
    return integrate_continuous(schedules, inc, inc, s0, t_end, h, method=method)


@pytest.mark.parametrize("method", ["euler", "rk4", "dp5"])
def test_standard_incidence_from_zero_population_is_disease_free(method):
    zero = State(0.0, 0.0, 0.0, 0.0)
    std = IncidenceFn.standard()
    traj = _continuous_run(full_set(0.9), std, zero, 20.0, 0.5, method)
    free = _continuous_run(full_set(0.9), KINDS["mass_action"], zero, 20.0, 0.5, method)
    assert np.all(np.isfinite(traj.states))
    assert np.all(traj.states >= 0.0)
    assert method == "dp5" or traj.negative_at is None
    assert np.all(traj.states[:, 1] == 0.0)
    assert np.array_equal(traj.states, free.states)


def _reference_dp5(phi, psi, c0, steps, s0):
    """`reference._dp5_stepper` in vector form, in np.float64: each step
    (h, c2, c3, c4, c5, c7, left) takes its tableau from `_DP5_WEIGHTS` times
    h, its first stage at the row it starts from (c0, then the last step's c7)
    and its last two at `left or c7`, and sums each stage input, the solution
    and the error estimate term by term in the tableau's order.  Returns the
    states and each step's y_n, y_n+1 and estimate, flat."""
    rhs = _reference_rhs(phi, psi)
    y, start = np.array(s0, dtype=float), np.array(c0)
    states, seen = [y], []
    for h, c2, c3, c4, c5, c7, left in steps:
        w = [np.float64(h) * c for c in _DP5_WEIGHTS]
        a, b, e = [w[0:1], w[1:3], w[3:6], w[6:10], w[10:15]], w[15:20], w[20:]
        end = np.array(left or c7)
        k = [rhs(start, y)]
        for row, a_i in zip((c2, c3, c4, c5, end), a):
            z = y
            for a_ij, k_j in zip(a_i, k):
                z = z + a_ij * k_j
            k.append(rhs(np.array(row), z))
        y1 = y
        for b_j, k_j in zip(b, k[:1] + k[2:]):  # b2 = 0
            y1 = y1 + b_j * k_j
        k.append(rhs(end, y1))
        err = e[0] * k[0]
        for e_j, k_j in zip(e[1:], k[2:]):  # e2 = 0
            err = err + e_j * k_j
        seen.append(np.concatenate([y, y1, err]))
        y, start = y1, np.array(c7)
        states.append(y)
    return np.array(states), np.concatenate(seen)


def _random_row(rng):
    """Coefficients in `SCHEDULE_NAMES` order at the built-ins' scale."""
    return tuple(rng.uniform([0.2, 0.1, 0.0, 0.0, 0.0, 0.2, 0.2, 0.1],
                             [1.0, 0.5, 0.5, 0.5, 0.5, 2.0, 2.0, 0.5]).tolist())


@pytest.mark.parametrize("phi, psi",
                         [(k, k) for k in sorted(KINDS)] + [("saturated", "standard")])
def test_dp5_loop_bit_identical_to_vector_form(phi, psi):
    # 20 steps of unequal h; step 9 ends on a breakpoint, its last two stages
    # reading a left row.  The stepper's record holds y_n and y_n+1 of every
    # step, so it holds every state of the run
    phi, psi = KINDS[phi], KINDS[psi]
    rng = np.random.default_rng(46)
    c0, s0 = _random_row(rng), State(1.3, 0.4, 0.2, 0.9)
    steps = [(float(rng.uniform(0.05, 0.3)), *(_random_row(rng) for _ in range(5)),
              _random_row(rng) if n == 9 else None) for n in range(20)]
    rows = [(tuple((h * np.array(_DP5_WEIGHTS)).tolist()), *rest) for h, *rest in steps]
    advance, seen = _dp5_stepper(phi, psi, c0)
    last = advance(iter(rows), tuple(s0))
    states, estimates = _reference_dp5(phi, psi, c0, steps, s0)
    assert np.array(last).tobytes() == states[-1].tobytes()
    assert bytes(seen) == estimates.tobytes()


# ---------------------------------------------------------------------------
# NSFD step: damped fixed-point reference
# ---------------------------------------------------------------------------

def _reference_fixed_point_step(lam, mu, p, eta, alpha, gamma, beta, sigma,
                                f_phi, f_psi, q_psi, S, I, R, V):
    """The step that incidences without a closed form took before, for I > 0:
    damped iteration on (S+, V+), bisection fallback on S+ (V+ exact when psi
    has a linear rate q_psi(y), else a damped iteration with a bisection
    backstop), one bisection retry when the balance identity fails.  Saturated
    incidence took it too, before its closed form.  f(x, y); q_psi or None."""

    def v_of(s):
        target = p * s + V
        denom = 1.0 + mu + eta
        if q_psi is not None:
            return max(target, 0.0) / (denom + sigma * q_psi(I))
        v = max(target, 0.0) / denom
        prev = math.inf
        omega_damp = 1.0
        for _ in range(200):
            v_t = max((target - sigma * f_psi(max(v, 0.0), I)) / denom, 0.0)
            res = abs(v_t - v)
            if res < 1e-14:
                return v_t
            if res >= prev:
                omega_damp = max(0.5 * omega_damp, 1.0 / 64.0)
            prev = res
            v += omega_damp * (v_t - v)
        lo, hi = 0.0, max(target, 0.0) / denom + 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if mid * denom + sigma * f_psi(mid, I) - target > 0.0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    def bisect():
        def g(s):
            return s * (1.0 + mu + p) - (lam + S - beta * f_phi(s, I) + eta * v_of(s))

        hi = (((1.0 + mu + eta) * (lam + S) + eta * V)
              / ((1.0 + mu + p) * (1.0 + mu + eta) - eta * p)) + 1.0
        for _ in range(60):
            if g(hi) >= 0.0:
                break
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if g(mid) > 0.0:
                hi = mid
            else:
                lo = mid
        s = 0.5 * (lo + hi)
        return s, v_of(s)

    def fixed_point():
        s, v = S, V
        prev = math.inf
        omega_damp = 1.0
        for _ in range(200):
            s_t = max((lam + S - beta * f_phi(max(s, 0.0), I) + eta * max(v, 0.0))
                      / (1.0 + mu + p), 0.0)
            v_t = max((p * s_t + V - sigma * f_psi(max(v, 0.0), I)) / (1.0 + mu + eta), 0.0)
            res = max(abs(s_t - s), abs(v_t - v))
            if res < 1e-12:
                return s_t, v_t
            if res >= prev:
                omega_damp = max(0.5 * omega_damp, 1.0 / 64.0)
            prev = res
            s += omega_damp * (s_t - s)
            v += omega_damp * (v_t - v)
        return bisect()

    N = S + I + R + V

    def finish(S1, V1):
        I1 = (beta * f_phi(S1, I) + sigma * f_psi(V1, I) + I) / (1.0 + mu + alpha + gamma)
        R1 = (gamma * I1 + R) / (1.0 + mu)
        return S1, I1, R1, V1

    out = finish(*fixed_point())
    if _balance_residual(out, N, lam, mu, alpha) > 1e-10 * (1.0 + N):
        out = finish(*bisect())
    return out


# the coefficient order of `_one_step` and `_reference_fixed_point_step`
_REFERENCE_ORDER = ("Lambda", "mu", "p", "eta", "alpha", "gamma", "beta", "sigma")


def _one_step(phi, psi, coeffs, S, I, R, V, n=0):
    """One NSFD step through the chunk stepper: a single row of coefficients,
    given in `_REFERENCE_ORDER` and passed on in `SCHEDULE_NAMES` order."""
    named = dict(zip(_REFERENCE_ORDER, coeffs))
    row = tuple(named[name] for name in SCHEDULE_NAMES)
    return _nsfd_stepper(phi, psi)((row,), (S, I, R, V), n, array("d"))


def _balance_residual(state, N, lam, mu, alpha):
    S1, I1, R1, V1 = state
    return abs((1.0 + mu) * (S1 + I1 + R1 + V1) + alpha * I1 - (N + lam))


def _saturated(a):
    return lambda x, y: x * y / (1.0 + a * y)


_UNIT = st.floats(0.0, 1.0)
_STEP_DRAWS = dict(
    S=st.floats(0.0, 5.0), I=st.floats(1e-3, 5.0), R=st.floats(0.0, 5.0),
    V=st.floats(0.0, 5.0), lam=st.floats(0.0, 2.0), mu=st.floats(1e-3, 1.0),
    p=_UNIT, eta=_UNIT, alpha=_UNIT, gamma=_UNIT, beta=st.floats(0.0, 3.0),
    sigma=st.floats(0.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(a_phi=st.floats(0.0, 5.0), a_psi=st.floats(0.0, 5.0), **_STEP_DRAWS)
def test_saturated_closed_form_step_matches_fixed_point_reference(
        S, I, R, V, lam, mu, p, eta, alpha, gamma, beta, sigma, a_phi, a_psi):
    coeffs = (lam, mu, p, eta, alpha, gamma, beta, sigma)
    got = _one_step(IncidenceFn.saturated(a_phi), IncidenceFn.saturated(a_psi), coeffs,
                    S, I, R, V)
    ref = _reference_fixed_point_step(*coeffs, _saturated(a_phi), _saturated(a_psi),
                                      lambda y: y / (1.0 + a_psi * y), S, I, R, V)
    N = S + I + R + V
    for new, old in zip(got, ref):
        assert abs(new - old) <= 1e-12 * (1.0 + N)
    assert _balance_residual(got, N, lam, mu, alpha) <= 1e-10 * (1.0 + N)
    assert _balance_residual(ref, N, lam, mu, alpha) <= 1e-10 * (1.0 + N)


# separable g: smooth and saturating, and steep with a flat start
_SEPARABLE_G = {
    "x/(1+x)": (lambda x: x / (1.0 + x), 1.0),
    "2 tanh(x)^2": (lambda x: 2.0 * math.tanh(x) ** 2, 4.0),
}


@pytest.mark.parametrize("pair", ["sep-sep", "sep-mass"])
@settings(max_examples=150, deadline=None)
@given(g_name=st.sampled_from(sorted(_SEPARABLE_G)), **_STEP_DRAWS)
def test_separable_step_matches_fixed_point_reference(
        pair, g_name, S, I, R, V, lam, mu, p, eta, alpha, gamma, beta, sigma):
    g, k = _SEPARABLE_G[g_name]
    phi = IncidenceFn.separable(g, k)
    psi = phi if pair == "sep-sep" else IncidenceFn.mass_action()
    coeffs = (lam, mu, p, eta, alpha, gamma, beta, sigma)
    got = _one_step(phi, psi, coeffs, S, I, R, V)

    def f_sep(x, y):
        return g(x) * y

    if pair == "sep-sep":
        ref = _reference_fixed_point_step(*coeffs, f_sep, f_sep, None, S, I, R, V)
    else:
        ref = _reference_fixed_point_step(*coeffs, f_sep, lambda x, y: x * y,
                                          lambda y: y, S, I, R, V)
    N = S + I + R + V
    tol = 1e-12 * (1.0 + N)
    assert _balance_residual(got, N, lam, mu, alpha) <= 1e-10 * (1.0 + N)
    if all(abs(new - old) <= tol for new, old in zip(got, ref)):
        return
    # the frozen step stops on the length of a damped step, so where its
    # iteration is not contractive it misses the root by more than tol; the
    # new step must then be at least as close to the root oracle
    g_psi = g if pair == "sep-sep" else (lambda x: x)
    exact = _separable_root_oracle(lam, mu, p, eta, beta, sigma, g, g_psi, S, I, V)
    for new, old, x in zip((got[0], got[3]), (ref[0], ref[3]), exact):
        assert abs(new - x) <= abs(old - x) + tol


def _separable_root_oracle(lam, mu, p, eta, beta, sigma, g_phi, g_psi, S, I, V,
                           y_phi=None, y_psi=None):
    """Nested Brent root finding (scipy's brentq, independent of the solve
    under test): V+ for each trial S+, then S+.  Each incidence is g(x) times
    its y-factor, I unless given (a linear partner: g(x) = x and y-factor
    q(I, N)).  Both equations are strictly increasing in their unknown from a
    nonpositive value at 0, and brentq stops within 1e-16 + 4 eps relative of
    the root: over 20 000 draws of the tests' inputs it stayed within
    3.4e-16 (1 + N) of nested bisections to a collapsed bracket, 3 000 times
    below the gate of 1e-12 (1 + N).  An xtol of 1e-300 let one inner solve,
    on a cubic g that cancels to 1e-15, run past 100 iterations."""
    y_phi = I if y_phi is None else y_phi
    y_psi = I if y_psi is None else y_psi

    def root(fn, hi):
        while fn(hi) < 0.0:
            hi *= 2.0
        return brentq(fn, 0.0, hi, xtol=1e-16, rtol=4.0 * np.finfo(float).eps, maxiter=500)

    def v_of(s):
        return root(lambda v: v * (1.0 + mu + eta) + sigma * g_psi(v) * y_psi - (p * s + V),
                    p * s + V + 1.0)

    s = root(lambda s: s * (1.0 + mu + p) + beta * g_phi(s) * y_phi
             - (lam + S + eta * v_of(s)), lam + S + 1.0)
    return s, v_of(s)


@settings(max_examples=100, deadline=None)
@given(g_name=st.sampled_from(sorted(_SEPARABLE_G)), **_STEP_DRAWS)
def test_separable_step_matches_bisection_oracle(
        g_name, S, I, R, V, lam, mu, p, eta, alpha, gamma, beta, sigma):
    g, k = _SEPARABLE_G[g_name]
    sep = IncidenceFn.separable(g, k)
    S1, _, _, V1 = _one_step(sep, sep, (lam, mu, p, eta, alpha, gamma, beta, sigma),
                             S, I, R, V)
    s_ref, v_ref = _separable_root_oracle(lam, mu, p, eta, beta, sigma, g, g, S, I, V)
    N = S + I + R + V
    assert abs(S1 - s_ref) <= 1e-12 * (1.0 + N)
    assert abs(V1 - v_ref) <= 1e-12 * (1.0 + N)


@pytest.mark.parametrize("sep_slot", ["phi", "psi"])
@pytest.mark.parametrize("partner", ["saturated", "standard"])
@settings(max_examples=100, deadline=None)
@given(g_name=st.sampled_from(sorted(_SEPARABLE_G)), **_STEP_DRAWS)
def test_separable_with_linear_partner_matches_bisection_oracle(
        sep_slot, partner, g_name, S, I, R, V, lam, mu, p, eta, alpha, gamma, beta, sigma):
    # the solve evaluates a linear partner in its factor form; `standard` also
    # carries the population into it
    g, k = _SEPARABLE_G[g_name]
    sep = IncidenceFn.separable(g, k)
    N = S + I + R + V
    y_lin = I / (1.0 + 0.7 * I) if partner == "saturated" else I / N
    forms = [(sep, g, I), (KINDS[partner], lambda x: x, y_lin)]
    if sep_slot == "psi":
        forms.reverse()
    (phi, g_phi, y_phi), (psi, g_psi, y_psi) = forms
    got = _one_step(phi, psi, (lam, mu, p, eta, alpha, gamma, beta, sigma), S, I, R, V)
    s_ref, v_ref = _separable_root_oracle(lam, mu, p, eta, beta, sigma, g_phi, g_psi,
                                               S, I, V, y_phi, y_psi)
    assert abs(got[0] - s_ref) <= 1e-12 * (1.0 + N)
    assert abs(got[3] - v_ref) <= 1e-12 * (1.0 + N)
    assert _balance_residual(got, N, lam, mu, alpha) <= 1e-10 * (1.0 + N)


def _counted(g):
    calls = [0]

    def counted(x):
        calls[0] += 1
        return g(x)

    return counted, calls


def test_separable_long_run_calls_g_at_most_six_times_per_step():
    # the long NSFD run of the benchmark: persistence_5_1 at h = 0.01, g in both
    # slots; the damped fixed point it replaced made about 10 calls per step
    spec = builtin("persistence_5_1")
    dp = mickens_discretize(spec.schedules, 0.01, spec.denominator)
    g, calls = _counted(lambda x: x / (1.0 + x))
    sep = IncidenceFn.separable(g, 1.0)
    calls[0] = 0
    simulate_discrete(dp, sep, sep, spec.initial_state, 20_000)
    assert calls[0] / 20_000 <= 6.0
    # the same iterates make the same calls: this count is the solve's, not a budget
    assert calls[0] == 85_310


def test_separable_long_run_bytes_are_pinned():
    # no CLI digest reaches `separable`; this run is the benchmark's long one
    spec = builtin("persistence_5_1")
    dp = mickens_discretize(spec.schedules, 0.01, spec.denominator)
    sep = IncidenceFn.separable(lambda x: x / (1.0 + x), 1.0)
    states = simulate_discrete(dp, sep, sep, spec.initial_state, 20_000).states
    assert hashlib.sha256(states.tobytes()).hexdigest() == \
        "063a5bd876e8dbf66cea1dad6a8877aa66ef83c40c5d926845034a329e024826"


@pytest.mark.parametrize("h", [0.5, 2.0])
def test_separable_stiff_step_calls_g_at_most_300_times_per_step(h):
    # beta f' up to a few hundred: the damped fixed point needed about 15 400
    # calls per step here
    spec = builtin("measles_france_5_2")
    dp = mickens_discretize(spec.schedules, h, spec.denominator)
    g, calls = _counted(lambda x: 5.0 * math.tanh(x))
    sep = IncidenceFn.separable(g, 5.0)
    calls[0] = 0
    traj = simulate_discrete(dp, sep, sep, State(16.0, 3.0, 1.0, 20.0), 20)
    assert calls[0] / 20 <= 300.0
    assert np.all(traj.states >= 0.0)


# ---------------------------------------------------------------------------
# NSFD and disease-free loops: np.float64 reference
# ---------------------------------------------------------------------------

def _reference_simulate_aux(dp, a0, n_steps):
    """simulate_aux as it was, on np.float64 scalars from the sequence arrays."""
    lam = dp.array("Lambda", 0, n_steps)
    mu = dp.array("mu", 0, n_steps)
    p = dp.array("p", 0, n_steps)
    eta = dp.array("eta", 0, n_steps)
    out = np.empty((n_steps + 1, 2))
    x, y = float(a0[0]), float(a0[1])
    out[0] = (x, y)
    for n in range(n_steps):
        A = 1.0 + mu[n] + p[n]
        B = 1.0 + mu[n] + eta[n]
        D = A * B - eta[n] * p[n]
        x = (B * (lam[n] + x) + eta[n] * y) / D
        y = (p[n] * x + y) / B
        out[n + 1] = (x, y)
    return out


def _linear_rate(inc):
    """q(y, pop) with f(x, y) = q(y, pop) x, written out per kind."""
    rates = {"mass_action": lambda y, pop: y,
             "saturated": lambda y, pop: y / (1.0 + inc.a * y),
             "standard": lambda y, pop: y / pop}
    return rates[inc.kind]


def _reference_simulate_linear(dp, phi, psi, s0, n_steps):
    """simulate_discrete as it was for incidences with a linear rate, on
    np.float64 scalars from the sequence arrays."""
    q_phi, q_psi = _linear_rate(phi), _linear_rate(psi)
    needs_pop = phi.needs_population or psi.needs_population
    P = {name: dp.array(name, 0, n_steps) for name in SCHEDULE_NAMES}
    out = np.empty((n_steps + 1, 4))
    out[0] = s0
    S, I, R, V = s0
    for n in range(n_steps):
        lam, mu, p, eta, alpha, beta, sigma, gamma = (P[name][n] for name in SCHEDULE_NAMES)
        N = S + I + R + V
        pop = N if needs_pop else None
        if I == 0.0:
            A = 1.0 + mu + p
            B = 1.0 + mu + eta
            D = A * B - eta * p
            S1 = (B * (lam + S) + eta * V) / D
            V1 = (p * S1 + V) / B
            phi_term = psi_term = 0.0
        else:
            qs = q_phi(I, pop)
            qv = q_psi(I, pop)
            A_s = 1.0 + mu + p + beta * qs
            A_v = 1.0 + mu + eta + sigma * qv
            D = A_s * A_v - eta * p
            S1 = (A_v * (lam + S) + eta * V) / D
            V1 = (p * S1 + V) / A_v
            phi_term = beta * qs * S1
            psi_term = sigma * qv * V1
        I = (phi_term + psi_term + I) / (1.0 + mu + alpha + gamma)
        R = (gamma * I + R) / (1.0 + mu)
        S, V = S1, V1
        out[n + 1] = (S, I, R, V)
    return out


def _seasonal_dp(h, base, amp):
    """Sequences c_n = h base_c (1 + amp_c sin(n + k)), k the coefficient's index."""
    return DiscreteParams.from_sequences(h, **{
        name: (lambda n, c=h * b, a=a, k=k: c * (1.0 + a * np.sin(n + k)))
        for k, (name, b, a) in enumerate(zip(SCHEDULE_NAMES, base, amp))})


_LINEAR = sorted(k for k in KINDS if k != "separable")
_STATES_WITH_ZEROS = st.one_of(
    st.just(State(0.0, 0.0, 0.0, 0.0)),
    st.tuples(*[st.floats(0.0, 5.0, allow_subnormal=False)] * 4).map(lambda s: State(*s)),
    st.tuples(*[st.floats(0.0, 5.0, allow_subnormal=False)] * 3).map(
        lambda s: State(s[0], 0.0, s[1], s[2])))
_SEQUENCE_DRAWS = dict(
    h=st.floats(1e-3, 10.0),
    base=st.tuples(*[st.floats(0.0, 1.0)] * len(SCHEDULE_NAMES)),
    amp=st.tuples(*[st.floats(0.0, 0.9)] * len(SCHEDULE_NAMES)))


@settings(max_examples=150, deadline=None)
@given(phi=st.sampled_from(_LINEAR), psi=st.sampled_from(_LINEAR), s0=_STATES_WITH_ZEROS,
       **_SEQUENCE_DRAWS)
def test_nsfd_loop_bit_identical_to_float64_reference(phi, psi, s0, h, base, amp):
    dp = _seasonal_dp(h, base, amp)
    traj = simulate_discrete(dp, KINDS[phi], KINDS[psi], s0, 60)
    ref = _reference_simulate_linear(dp, KINDS[phi], KINDS[psi], s0, 60)
    assert traj.states.tobytes() == ref.tobytes()


@settings(max_examples=150, deadline=None)
@given(a0=st.tuples(st.floats(0.0, 5.0), st.floats(0.0, 5.0)), **_SEQUENCE_DRAWS)
def test_aux_loop_bit_identical_to_float64_reference(a0, h, base, amp):
    dp = _seasonal_dp(h, base, amp)
    out = simulate_aux(dp, a0, 60)
    assert out.tobytes() == _reference_simulate_aux(dp, a0, 60).tobytes()


@pytest.mark.parametrize("kind", _LINEAR)
def test_builtin_nsfd_runs_bit_identical_to_float64_reference(kind):
    # the benchmark's long run, shortened, plus its disease-free orbit
    spec = builtin("persistence_5_1")
    dp = mickens_discretize(spec.schedules, 0.01, spec.denominator)
    traj = simulate_discrete(dp, KINDS[kind], KINDS[kind], spec.initial_state, 2000)
    ref = _reference_simulate_linear(dp, KINDS[kind], KINDS[kind], spec.initial_state, 2000)
    assert traj.states.tobytes() == ref.tobytes()
    out = simulate_aux(dp, (1.0, 1.0), 2000)
    assert out.tobytes() == _reference_simulate_aux(dp, (1.0, 1.0), 2000).tobytes()


# ---------------------------------------------------------------------------
# trajectory writer: per-value "{:.17g}" reference
# ---------------------------------------------------------------------------

def _reference_fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return "{:.17g}".format(float(value))
    return str(value)


def _reference_write_rows(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_reference_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


_SPECIALS = np.array([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0.1, 200.0,
                      -2.5e-7, 1.0 / 3.0, 123456789.125, 0.0]).reshape(3, 4)


def _assert_writer_matches_per_value_format(tmp_path, states, times=None):
    if times is None:
        traj = Trajectory(t0=0.1, dt=0.1, states=states, method="rk4")
        times, rows = traj.times, traj.rows()
    else:
        rows = state_rows(states, lambda a, b: times[a:b])
    path = _write_trajectory(tmp_path, rows, "rk4", 0.01)
    expected = tmp_path / "expected.csv"
    _reference_write_rows(expected, ["t", "S", "I", "R", "V"],
                          [[t, s, i, r, v] for t, (s, i, r, v) in zip(times, states)])
    assert path.name == "trajectory_rk4_h0.01.csv"
    assert path.read_bytes() == expected.read_bytes()


def test_trajectory_writer_bytes_match_per_value_format(tmp_path):
    _assert_writer_matches_per_value_format(
        tmp_path, np.vstack([_SPECIALS, _SPECIALS[::-1, ::-1]]))


def test_trajectory_writer_specials_across_a_chunk_boundary(tmp_path):
    # rows 1023 .. 1025 hold the specials: the last row of the first chunk of
    # 1024 rows and the first two of the second, each chunk one `%` format
    states = np.random.default_rng(11).standard_normal((2049, 4))
    states[1023:1026] = _SPECIALS
    _assert_writer_matches_per_value_format(tmp_path, states)


def test_trajectory_writer_non_uniform_times(tmp_path):
    # the union of the times of runs at h = 0.3 and h = 0.7, as a bundle writes
    # its reference: no uniform grid, and past a chunk boundary
    times = np.unique(np.concatenate([0.3 * np.arange(1500), 0.7 * np.arange(650)]))
    assert len(times) > 1024 and np.ptp(np.diff(times)) > 0.1
    states = np.random.default_rng(13).standard_normal((len(times), 4))
    _assert_writer_matches_per_value_format(tmp_path, states, times)


# ---------------------------------------------------------------------------
# chunked loops and writer: whole-table references
# ---------------------------------------------------------------------------

def _whole_table_integrate(schedules, phi, psi, s0, t_end, h, method):
    """integrate_continuous with its (2n+1, 8) table of half-step coefficients,
    and the (n, 8) table of each step's end from the left, which RK4's fourth
    stage reads: a piecewise table is constant on [b_i, b_i+1), so its limit
    from the left at t is its value one ulp below t."""
    s0 = validate_state(s0)
    n_steps = max(1, int(math.ceil(t_end / h - 1e-9)))
    ts_half = np.arange(2 * n_steps + 1) * (h / 2.0)
    table = np.empty((ts_half.size, len(SCHEDULE_NAMES)))
    left = np.empty((n_steps, len(SCHEDULE_NAMES)))
    ends = ts_half[2::2]
    for k, name in enumerate(SCHEDULE_NAMES):
        sched = getattr(schedules, name)
        table[:, k] = sched.eval(ts_half)
        left[:, k] = sched.eval(np.nextafter(ends, -np.inf) if sched.kind == "piecewise"
                                else ends)
    q_phi, q_psi = _reference_rate(phi), _reference_rate(psi)

    def rhs(c, S, I, R, V):
        lam, mu, p, eta, alpha, beta, sigma, gamma = c
        pop = S + I + R + V
        inc_s = beta * q_phi(S, I, pop) * I
        inc_v = sigma * q_psi(V, I, pop) * I
        return (lam - inc_s - (mu + p) * S + eta * V,
                inc_s + inc_v - (mu + alpha + gamma) * I,
                gamma * I - mu * R,
                p * S - (mu + eta) * V - inc_v)

    out = np.empty((n_steps + 1, 4))
    out[0] = s0
    S, I, R, V = s0
    hh, h6 = h / 2.0, h / 6.0
    negative_at = None
    c0 = table[0].tolist()
    with np.errstate(all="ignore"):
        for n in range(n_steps):
            c2 = table[2 * n + 2].tolist()
            a1, b1, r1, v1 = rhs(c0, S, I, R, V)
            if method == "euler":
                S, I, R, V = S + h * a1, I + h * b1, R + h * r1, V + h * v1
            else:
                c1 = table[2 * n + 1].tolist()
                a2, b2, r2, v2 = rhs(c1, S + hh * a1, I + hh * b1, R + hh * r1, V + hh * v1)
                a3, b3, r3, v3 = rhs(c1, S + hh * a2, I + hh * b2, R + hh * r2, V + hh * v2)
                a4, b4, r4, v4 = rhs(left[n].tolist(), S + h * a3, I + h * b3, R + h * r3,
                                     V + h * v3)
                S = S + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                I = I + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                R = R + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
                V = V + h6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
            out[n + 1] = (S, I, R, V)
            if negative_at is None and (S < 0 or I < 0 or R < 0 or V < 0):
                negative_at = n + 1
            c0 = c2
    return out, negative_at


def _whole_table(dp, names, n_steps):
    table = np.empty((n_steps, len(names)))
    for k, name in enumerate(names):
        table[:, k] = dp.array(name, 0, n_steps)
    return table.tolist()


def _whole_table_simulate_discrete(dp, phi, psi, s0, n_steps):
    """simulate_discrete with its (n, 8) coefficient table."""
    out = [list(s0)]
    S, I, R, V = s0
    for n, c in enumerate(_whole_table(dp, _REFERENCE_ORDER, n_steps)):
        S, I, R, V = _one_step(phi, psi, c, S, I, R, V, n)
        out.append([S, I, R, V])
    return np.array(out)


def _whole_table_simulate_aux(dp, a0, n_steps):
    """simulate_aux with its (n, 4) coefficient table."""
    x, y = float(a0[0]), float(a0[1])
    out = [[x, y]]
    for lam, mu, p, eta in _whole_table(dp, ("Lambda", "mu", "p", "eta"), n_steps):
        x, y = _aux_advance(lam, mu, p, eta, x, y)
        out.append([x, y])
    return np.array(out)


def _whole_trajectory_write(path, traj):
    """_write_trajectory with the whole trajectory converted at once."""
    rows = np.column_stack((traj.times, traj.states)).tolist()
    with path.open("w", encoding="utf-8") as fh:
        fh.write("t,S,I,R,V\n")
        fh.writelines(",".join(["%.17g"] * 5) % tuple(row) + "\n" for row in rows)


def _mixed_set():
    """Harmonic, custom and piecewise schedules side by side."""
    s = full_set(0.9).as_dict()
    s["Lambda"] = ParamSchedule.custom("Lambda", lambda t: 0.5 + 0.2 * np.sin(0.7 * t))
    s["gamma"] = ParamSchedule.piecewise("gamma", [0.0, 3.3, 170.0], [0.3, 0.45, 0.2])
    return ScheduleSet.from_mapping(s)


def _assert_chunked_loops_match(schedules, s0, h, n_steps, tmp_path):
    sep = KINDS["separable"]
    # a called separable g with d = 1, and d = 1 beside d = 1 + a y and d = N:
    # each stage reads each incidence's form on its own
    for phi, psi in ((sep, KINDS["mass_action"]), (KINDS["mass_action"], KINDS["saturated"]),
                     (KINDS["mass_action"], KINDS["standard"])):
        for method in ("rk4", "euler"):
            traj = integrate_continuous(schedules, phi, psi, s0, n_steps * h, h, method=method)
            states, negative_at = _whole_table_integrate(schedules, phi, psi, s0,
                                                         n_steps * h, h, method)
            assert traj.states.tobytes() == states.tobytes()
            assert traj.negative_at == negative_at
            path = _write_trajectory(tmp_path, traj.rows(), method, h)
            _whole_trajectory_write(tmp_path / "whole.csv", traj)
            assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()
    dp = mickens_discretize(schedules, h, DenominatorFn.quadratic(0.2))
    for phi, psi in ((KINDS["mass_action"], KINDS["standard"]), (sep, sep)):
        traj = simulate_discrete(dp, phi, psi, s0, n_steps)
        ref = _whole_table_simulate_discrete(dp, phi, psi, s0, n_steps)
        assert traj.states.tobytes() == ref.tobytes()
    a0 = (s0.S, s0.V)
    assert simulate_aux(dp, a0, n_steps).tobytes() == \
        _whole_table_simulate_aux(dp, a0, n_steps).tobytes()


@pytest.mark.parametrize("n_steps", [1, 1023, 1024, 1025, 2049])
def test_chunked_loops_bit_identical_to_whole_table_at_chunk_edges(n_steps, tmp_path):
    _assert_chunked_loops_match(_mixed_set(), State(3.0, 0.4, 0.2, 1.5), 0.1, n_steps,
                                tmp_path)


_SCHEDULE_KINDS = ("harmonic", "custom", "piecewise")


@st.composite
def _schedule_sets(draw):
    scheds = {}
    for name in SCHEDULE_NAMES:
        kind = draw(st.sampled_from(_SCHEDULE_KINDS))
        base = draw(st.floats(0.01, 1.0))
        amp = base * draw(st.floats(0.0, 0.9))
        omega = draw(st.floats(0.05, 5.0))
        if kind == "harmonic":
            scheds[name] = ParamSchedule.harmonic(name, base, amp, omega,
                                                  draw(st.floats(0.0, 6.3)))
        elif kind == "custom":
            scheds[name] = ParamSchedule.custom(
                name, lambda t, b=base, a=amp, w=omega: b + a * np.sin(w * t))
        else:
            cuts = draw(st.lists(st.floats(0.01, 200.0), min_size=1, max_size=5, unique=True))
            values = draw(st.lists(st.floats(0.0, 1.0), min_size=len(cuts) + 1,
                                   max_size=len(cuts) + 1))
            scheds[name] = ParamSchedule.piecewise(name, [0.0] + sorted(cuts), values)
    return ScheduleSet.from_mapping(scheds)


@settings(max_examples=20, deadline=None)
@given(schedules=_schedule_sets(), s0=_STATES, h=st.floats(0.01, 0.5),
       n_steps=st.sampled_from([1, 1023, 1024, 1025, 2049]) | st.integers(1, 2100))
def test_chunked_loops_bit_identical_to_whole_table(schedules, s0, h, n_steps, tmp_path_factory):
    _assert_chunked_loops_match(schedules, s0, h, n_steps, tmp_path_factory.mktemp("chunks"))


def test_chunked_writer_bytes_match_whole_trajectory(tmp_path):
    # a trajectory that starts after t = 0 and crosses two chunk boundaries
    states = np.random.default_rng(5).standard_normal((2049, 4)) * 1e3
    traj = Trajectory(t0=7.25, dt=0.1, states=states, method="euler")
    path = _write_trajectory(tmp_path, traj.rows(), "euler", 0.1)
    _whole_trajectory_write(tmp_path / "whole.csv", traj)
    assert path.read_bytes() == (tmp_path / "whole.csv").read_bytes()


# ---------------------------------------------------------------------------
# constant coefficients, repeated instead of evaluated: whole-table references
# ---------------------------------------------------------------------------

def _whole_table_periodic_aux(dp, omega):
    """periodic_aux_solution with its (omega, 4) coefficient table."""
    q, e1, e2 = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0)
    for lam, mu, p, eta in _whole_table(dp, ("Lambda", "mu", "p", "eta"), omega):
        q = _aux_advance(lam, mu, p, eta, *q)
        e1 = _aux_advance(0.0, mu, p, eta, *e1)
        e2 = _aux_advance(0.0, mu, p, eta, *e2)
    return _whole_table_simulate_aux(dp, period_map_fixed_point(q, e1, e2), omega)[:omega]


def _constant_form(name, form, value):
    """A schedule that is constant at `value` in the given form."""
    if form == "constant":
        return ParamSchedule.constant(name, value)
    if form == "harmonic":  # amplitude 0
        return ParamSchedule.harmonic(name, value, 0.0, 1.3, 0.4)
    return ParamSchedule.piecewise(name, [0.0, 0.35, 60.0], [value] * 3)


def _constant_forms_set(zero):
    """Every constant form, and the zero `zero` (0.0 or -0.0) in each, beside
    harmonic, custom and piecewise schedules that vary."""
    s = _mixed_set().as_dict()
    s["mu"] = _constant_form("mu", "harmonic", 0.3)
    s["p"] = _constant_form("p", "piecewise", 0.6)
    s["eta"] = _constant_form("eta", "constant", zero)
    s["alpha"] = _constant_form("alpha", "harmonic", zero)
    s["sigma"] = _constant_form("sigma", "piecewise", zero)
    return ScheduleSet.from_mapping(s)


def _periodic_dp(h, omega, consts):
    """Sequences of step period omega; the coefficients named in `consts` are
    the numbers given there (constants of `from_sequences`)."""
    seqs = {name: (lambda n, c=0.1 * (k + 1), w=2.0 * math.pi / omega:
                   c * (1.0 + 0.5 * np.sin(w * n + 1.0)))
            for k, name in enumerate(SCHEDULE_NAMES)}
    return DiscreteParams.from_sequences(h, step_period=omega, **{**seqs, **consts})


def _assert_sequence_loops_match(dp, s0, n_steps):
    for phi, psi in ((KINDS["mass_action"], KINDS["saturated"]),
                     (KINDS["separable"], KINDS["separable"])):
        traj = simulate_discrete(dp, phi, psi, s0, n_steps)
        assert traj.states.tobytes() == \
            _whole_table_simulate_discrete(dp, phi, psi, s0, n_steps).tobytes()
    a0 = (s0.S, s0.V)
    assert simulate_aux(dp, a0, n_steps).tobytes() == \
        _whole_table_simulate_aux(dp, a0, n_steps).tobytes()
    omega = dp.aux_step_period
    assert periodic_aux_solution(dp, omega).tobytes() == \
        _whole_table_periodic_aux(dp, omega).tobytes()


@pytest.mark.parametrize("zero", [0.0, -0.0])
@pytest.mark.parametrize("n_steps", [1, 1023, 1024, 1025, 2049])
def test_constant_forms_bit_identical_to_whole_table_at_chunk_edges(n_steps, zero, tmp_path):
    _assert_chunked_loops_match(_constant_forms_set(zero), State(3.0, 0.4, 0.2, 1.5), 0.1,
                                n_steps, tmp_path)
    consts = dict(mu=0.03, p=zero, eta=0.005, alpha=zero, gamma=0.03, sigma=zero)
    _assert_sequence_loops_match(_periodic_dp(0.1, n_steps, consts),
                                 State(3.0, 0.4, 0.2, 1.5), n_steps)


_ZERO_OR_POSITIVE = st.sampled_from([0.0, -0.0]) | st.floats(0.01, 1.0)


@st.composite
def _constant_or_varying_sets(draw):
    scheds = draw(_schedule_sets()).as_dict()
    for name in SCHEDULE_NAMES:
        form = draw(st.sampled_from(("varying", "constant", "harmonic", "piecewise")))
        if form != "varying":
            scheds[name] = _constant_form(name, form, draw(_ZERO_OR_POSITIVE))
    return ScheduleSet.from_mapping(scheds)


_N_STEPS = st.sampled_from([1, 1023, 1024, 1025, 2049]) | st.integers(1, 2100)


@settings(max_examples=20, deadline=None)
@given(schedules=_constant_or_varying_sets(), s0=_STATES, h=st.floats(0.01, 0.5),
       n_steps=_N_STEPS)
def test_constant_schedules_bit_identical_to_whole_table(schedules, s0, h, n_steps,
                                                         tmp_path_factory):
    _assert_chunked_loops_match(schedules, s0, h, n_steps, tmp_path_factory.mktemp("consts"))


@settings(max_examples=20, deadline=None)
@given(consts=st.dictionaries(st.sampled_from(SCHEDULE_NAMES), _ZERO_OR_POSITIVE).filter(
           lambda c: c.get("mu", 1.0) > 0.0),
       s0=_STATES, h=st.floats(0.01, 0.5), n_steps=_N_STEPS)
def test_constant_sequences_bit_identical_to_whole_table(consts, s0, h, n_steps):
    # numbers given to from_sequences, beside sequences of step period n_steps
    _assert_sequence_loops_match(_periodic_dp(h, n_steps, consts), s0, n_steps)

