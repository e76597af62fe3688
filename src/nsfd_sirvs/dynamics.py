"""State types and time steppers.

Three ways to advance a SIRVS model live here:

  * `nsfd_step` / `simulate_discrete` — the nonstandard finite-difference
    (Mickens) scheme.  Loss and interaction terms are evaluated at the new
    index, which makes every update a ratio of nonnegative quantities:

        S+ = (Lam_n + S_n - beta_n f(S+, I_n) + eta_n V+) / (1 + mu_n + p_n)
        V+ = (p_n S+ + V_n - sigma_n g(V+, I_n)) / (1 + mu_n + eta_n)
        I+ = (beta_n f(S+, I_n) + sigma_n g(V+, I_n) + I_n) / (1 + mu_n + alpha_n + gamma_n)
        R+ = (gamma_n I+ + R_n) / (1 + mu_n)

    The (S+, V+) pair is implicit.  When both incidences are linear in
    their first argument (f(x, y) = q(y) x: mass action, saturated,
    standard) it is a closed-form 2x2 solve; otherwise (separable) a damped
    fixed-point iteration with a guaranteed bisection fallback.  Which one
    applies, and every other per-kind form, comes from `IncidenceFn`, once
    per run.  Summing the four updates gives the exact balance identity
    (1 + mu_n) N+ + alpha_n I+ = N_n + Lam_n, which every step is checked
    against: it is the correctness oracle for the implicit solve and holds
    whatever the incidence functions are.

  * `aux_step` / `simulate_aux` / `periodic_aux_solution` — the disease-free
    auxiliary pair (x_n, y_n), an affine 2x2 recurrence solved exactly per
    step.  Its attracting orbit feeds the threshold quantities.

  * `integrate_continuous` — fixed-step Euler and classical RK4 for the
    continuous model, using the separable incidence bridge g(x) * I
    (`IncidenceFn.bridge`).
    Explicit methods may leave the nonnegative cone; that is flagged on the
    returned trajectory, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import StepError
from .incidence import IncidenceFn
from .schedules import SCHEDULE_NAMES, DiscreteParams, ScheduleSet

_BALANCE_RTOL = 1e-10
_FP_TOL = 1e-12
_FP_MAX_ITER = 200


class State(NamedTuple):
    """Population state (susceptible, infective, recovered, vaccinated)."""

    S: float
    I: float
    R: float
    V: float


class AuxState(NamedTuple):
    """Disease-free susceptible/vaccinated proxies (x, y)."""

    x: float
    y: float


def validate_state(s: State) -> State:
    vals = [float(v) for v in s]
    if not all(math.isfinite(v) for v in vals):
        raise ValueError(f"non-finite state {s}")
    if any(v < 0 for v in vals):
        raise ValueError(f"negative state component in {s}")
    return State(*vals)


@dataclass(eq=False)
class Trajectory:
    """A time-indexed sequence of states produced by one stepper.

    `negative_at` is the index of the first state with a negative component
    (explicit methods only; the NSFD scheme cannot produce one).
    """

    t0: float
    dt: float
    states: np.ndarray  # shape (n_steps + 1, 4), columns S, I, R, V
    method: str
    negative_at: int | None = None

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[1] != 4 or self.states.shape[0] < 1:
            raise ValueError("trajectory needs an (n, 4) state array with n >= 1")
        if not self.dt > 0:
            raise ValueError("trajectory dt must be positive")

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.states.shape[0])

    @property
    def S(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def I(self) -> np.ndarray:
        return self.states[:, 1]

    @property
    def R(self) -> np.ndarray:
        return self.states[:, 2]

    @property
    def V(self) -> np.ndarray:
        return self.states[:, 3]

    def state(self, n: int) -> State:
        return State(*self.states[n])


# ---------------------------------------------------------------------------
# disease-free auxiliary system
# ---------------------------------------------------------------------------

def _aux_advance(lam, mu, p, eta, x, y):
    # x1 (1+mu+p) = lam + eta*y1 + x  and  y1 (1+mu+eta) = p*x1 + y,
    # solved exactly by elimination; the determinant A*B - eta*p is >= (1+mu)^2 > 0.
    A = 1.0 + mu + p
    B = 1.0 + mu + eta
    D = A * B - eta * p
    x1 = (B * (lam + x) + eta * y) / D
    y1 = (p * x1 + y) / B
    return x1, y1


def aux_equilibrium(lam: float, mu: float, eta: float, p: float) -> AuxState:
    """Fixed point of the disease-free system with constant coefficients.

    (a, b) = (lam (mu+eta) / [mu (mu+eta+p)], p lam / [mu (mu+eta+p)]); the
    same point is the equilibrium of the continuous pair and, because a
    common positive factor cancels from the stationarity equations, of the
    discrete recurrence for any step denominator.
    """
    if mu <= 0:
        raise ValueError("disease-free equilibrium needs mu > 0")
    denom = mu * (mu + eta + p)
    return AuxState(lam * (mu + eta) / denom, p * lam / denom)


def aux_step(dp: DiscreteParams, n: int, a: AuxState) -> AuxState:
    """One exact step of the disease-free (x, y) recurrence."""
    x1, y1 = _aux_advance(float(dp.Lambda(n)), float(dp.mu(n)), float(dp.p(n)),
                          float(dp.eta(n)), a.x, a.y)
    return AuxState(x1, y1)


def simulate_aux(dp: DiscreteParams, a0: AuxState, n_steps: int) -> np.ndarray:
    """Iterate the auxiliary system; returns an (n_steps + 1, 2) array."""
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if a0[0] < 0 or a0[1] < 0:
        raise ValueError(f"auxiliary state must be nonnegative, got {a0}")
    lam = dp.array("Lambda", 0, n_steps)
    mu = dp.array("mu", 0, n_steps)
    p = dp.array("p", 0, n_steps)
    eta = dp.array("eta", 0, n_steps)
    out = np.empty((n_steps + 1, 2))
    x, y = float(a0[0]), float(a0[1])
    out[0] = (x, y)
    for n in range(n_steps):
        x, y = _aux_advance(lam[n], mu[n], p[n], eta[n], x, y)
        out[n + 1] = (x, y)
    return out


def verify_step_periodic(dp: DiscreteParams, omega: int,
                         names=SCHEDULE_NAMES, n_periods: int = 2) -> None:
    """Raise unless every named sequence satisfies c_{n+omega} = c_n."""
    omega = int(omega)
    if omega < 1:
        raise ValueError("period must be a positive integer")
    for name in names:
        base = dp.array(name, 0, omega * n_periods)
        shifted = dp.array(name, omega, omega * (n_periods + 1))
        bad = np.abs(shifted - base) > 1e-12 * (1.0 + np.abs(base))
        if np.any(bad):
            raise ValueError(f"sequence {name!r} is not {omega}-periodic "
                             f"(max defect {np.max(np.abs(shifted - base)):.3g})")


def periodic_aux_solution(dp: DiscreteParams, omega: int) -> np.ndarray:
    """The unique periodic orbit of an omega-periodic auxiliary system.

    Each step is affine, so the period map is z -> M z + q; the orbit is the
    fixed point of that map, obtained by one 2x2 linear solve and rolled
    forward.  Returns an (omega, 2) array (z*_0 .. z*_{omega-1}).
    """
    omega = int(omega)
    verify_step_periodic(dp, omega, names=("Lambda", "mu", "p", "eta"))
    M = np.eye(2)
    q = np.zeros(2)
    for n in range(omega):
        lam, mu, p, eta = (float(dp.Lambda(n)), float(dp.mu(n)),
                           float(dp.p(n)), float(dp.eta(n)))
        A = 1.0 + mu + p
        B = 1.0 + mu + eta
        D = A * B - eta * p
        Mn = np.array([[B / D, eta / D], [p / D, A / D]])
        qn = np.array([B * lam / D, p * lam / D])
        M = Mn @ M
        q = Mn @ q + qn
    try:
        z0 = np.linalg.solve(np.eye(2) - M, q)
    except np.linalg.LinAlgError as exc:
        raise StepError(f"singular period map for omega={omega}: {exc}") from exc
    orbit = np.empty((omega, 2))
    z = AuxState(float(z0[0]), float(z0[1]))
    for n in range(omega):
        orbit[n] = z
        z = aux_step(dp, n, z)
    defect = max(abs(z.x - z0[0]), abs(z.y - z0[1]))
    if defect > 1e-12 * (1.0 + float(np.max(np.abs(z0)))):
        raise StepError(f"periodic orbit defect {defect:.3g} exceeds tolerance")
    return orbit


# ---------------------------------------------------------------------------
# NSFD discrete model
# ---------------------------------------------------------------------------

def _inner_v(target, mu, eta, sigma, q_psi, f_psi, I, pop):
    """Solve v (1+mu+eta) = target - sigma*f_psi(v, I, pop) for v >= 0.

    Exact when psi has a linear rate `q_psi` (f linear in its first
    argument); otherwise a damped fixed-point loop to 1e-14 with a monotone
    bisection backstop.
    """
    denom = 1.0 + mu + eta
    if q_psi is not None:
        return max(target, 0.0) / (denom + sigma * q_psi(I, pop))
    v = max(target, 0.0) / denom
    prev = math.inf
    omega_damp = 1.0
    for _ in range(_FP_MAX_ITER):
        v_t = max((target - sigma * f_psi(max(v, 0.0), I, pop)) / denom, 0.0)
        res = abs(v_t - v)
        if res < 1e-14:
            return v_t
        if res >= prev:
            omega_damp = max(0.5 * omega_damp, 1.0 / 64.0)
        prev = res
        v += omega_damp * (v_t - v)
    # monotone backstop: F(v) = v*denom + sigma*f_psi(v, I) - target increases
    lo, hi = 0.0, max(target, 0.0) / denom + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if mid * denom + sigma * f_psi(mid, I, pop) - target > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _bisect_sv(lam, mu, p, eta, beta, sigma, q_psi, f_phi, f_psi, S, I, V, pop):
    """Guaranteed fallback: bisection on the reduced scalar equation in S+.

    g(s) = s (1+mu+p) - (lam + S - beta f(s, I) + eta v(s)) is strictly
    increasing (f nondecreasing in its first argument, dv/ds bounded by
    p/(1+mu+eta)), negative at 0 and positive beyond the no-incidence bound.
    """

    def v_of(s):
        return _inner_v(p * s + V, mu, eta, sigma, q_psi, f_psi, I, pop)

    def g(s):
        return s * (1.0 + mu + p) - (lam + S - beta * f_phi(s, I, pop) + eta * v_of(s))

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


def _implicit_sv(lam, mu, p, eta, beta, sigma, q_psi, f_phi, f_psi, S, I, V, pop):
    """Damped fixed-point iteration on the rewritten update, from (S_n, V_n)."""
    denom_s = 1.0 + mu + p
    denom_v = 1.0 + mu + eta
    s, v = S, V
    prev = math.inf
    omega_damp = 1.0
    for _ in range(_FP_MAX_ITER):
        s_cl = max(s, 0.0)
        v_cl = max(v, 0.0)
        s_t = max((lam + S - beta * f_phi(s_cl, I, pop) + eta * v_cl) / denom_s, 0.0)
        v_t = max((p * s_t + V - sigma * f_psi(v_cl, I, pop)) / denom_v, 0.0)
        res = max(abs(s_t - s), abs(v_t - v))
        if res < _FP_TOL:
            return s_t, v_t
        if res >= prev:
            omega_damp = max(0.5 * omega_damp, 1.0 / 64.0)
        prev = res
        s += omega_damp * (s_t - s)
        v += omega_damp * (v_t - v)
    return _bisect_sv(lam, mu, p, eta, beta, sigma, q_psi, f_phi, f_psi, S, I, V, pop)


def _nsfd_stepper(phi: IncidenceFn, psi: IncidenceFn):
    """The NSFD update for one incidence pair, as a function of the step's
    coefficients and state.  The per-kind forms are taken from the incidences
    once, here; the closed-form (S+, V+) solve is used exactly when both have
    a linear rate.
    """
    q_phi = phi.linear_rate()
    q_psi = psi.linear_rate()
    f_phi = phi.unchecked_f()
    f_psi = psi.unchecked_f()
    closed_form = q_phi is not None and q_psi is not None
    needs_pop = phi.needs_population or psi.needs_population

    def advance(lam, mu, p, eta, alpha, gamma, beta, sigma, S, I, R, V, n):
        N = S + I + R + V
        pop = N if needs_pop else None
        if I == 0.0:
            # disease-free step: incidence vanishes (f(x, 0) = 0) and the (S, V)
            # update coincides with the auxiliary recurrence
            S1, V1 = _aux_advance(lam, mu, p, eta, S, V)
            phi_term = psi_term = 0.0
        elif closed_form:
            qs = q_phi(I, pop)
            qv = q_psi(I, pop)
            A_s = 1.0 + mu + p + beta * qs
            A_v = 1.0 + mu + eta + sigma * qv
            D = A_s * A_v - eta * p
            S1 = (A_v * (lam + S) + eta * V) / D
            V1 = (p * S1 + V) / A_v
            phi_term = beta * qs * S1
            psi_term = sigma * qv * V1
        else:
            S1, V1 = _implicit_sv(lam, mu, p, eta, beta, sigma, q_psi, f_phi, f_psi,
                                  S, I, V, pop)
            phi_term = beta * f_phi(S1, I, pop)
            psi_term = sigma * f_psi(V1, I, pop)
        I1 = (phi_term + psi_term + I) / (1.0 + mu + alpha + gamma)
        R1 = (gamma * I1 + R) / (1.0 + mu)

        resid = abs((1.0 + mu) * (S1 + I1 + R1 + V1) + alpha * I1 - (N + lam))
        if resid > _BALANCE_RTOL * (1.0 + N):
            if I > 0.0 and not closed_form:
                # retry once with the machine-accurate bisection path
                S1, V1 = _bisect_sv(lam, mu, p, eta, beta, sigma, q_psi, f_phi, f_psi,
                                    S, I, V, pop)
                phi_term = beta * f_phi(S1, I, pop)
                psi_term = sigma * f_psi(V1, I, pop)
                I1 = (phi_term + psi_term + I) / (1.0 + mu + alpha + gamma)
                R1 = (gamma * I1 + R) / (1.0 + mu)
                resid = abs((1.0 + mu) * (S1 + I1 + R1 + V1) + alpha * I1 - (N + lam))
            if resid > _BALANCE_RTOL * (1.0 + N):
                raise StepError(f"balance identity violated at step {n} "
                                f"(residual {resid:.3g})", step=n, residual=resid)
        return S1, I1, R1, V1

    return advance


def nsfd_step(dp: DiscreteParams, n: int, phi: IncidenceFn, psi: IncidenceFn,
              s: State) -> State:
    """One step of the nonstandard scheme; preserves nonnegativity exactly."""
    s = validate_state(s)
    out = _nsfd_stepper(phi, psi)(
        float(dp.Lambda(n)), float(dp.mu(n)), float(dp.p(n)), float(dp.eta(n)),
        float(dp.alpha(n)), float(dp.gamma(n)), float(dp.beta(n)), float(dp.sigma(n)),
        s.S, s.I, s.R, s.V, n)
    return State(*out)


def simulate_discrete(dp: DiscreteParams, phi: IncidenceFn, psi: IncidenceFn,
                      s0: State, n_steps: int) -> Trajectory:
    """Iterate the NSFD scheme; the balance identity is checked every step."""
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    s0 = validate_state(s0)
    params = {name: dp.array(name, 0, n_steps) for name in SCHEDULE_NAMES}
    out = np.empty((n_steps + 1, 4))
    out[0] = s0
    S, I, R, V = s0
    advance = _nsfd_stepper(phi, psi)
    for n in range(n_steps):
        S, I, R, V = advance(
            params["Lambda"][n], params["mu"][n], params["p"][n], params["eta"][n],
            params["alpha"][n], params["gamma"][n], params["beta"][n], params["sigma"][n],
            S, I, R, V, n)
        out[n + 1] = (S, I, R, V)
    return Trajectory(t0=0.0, dt=dp.h, states=out, method="nsfd")


# ---------------------------------------------------------------------------
# continuous model (explicit reference integrators)
# ---------------------------------------------------------------------------

def integrate_continuous(schedules: ScheduleSet, phi: IncidenceFn, psi: IncidenceFn,
                         s0: State, t_end: float, h: float,
                         method: str = "rk4") -> Trajectory:
    """Fixed-step integration of the continuous model.

    S' = Lam(t) - beta(t) g_phi(S) I - (mu(t) + p(t)) S + eta(t) V
    I' = [beta(t) g_phi(S) + sigma(t) g_psi(V) - mu(t) - alpha(t) - gamma(t)] I
    R' = gamma(t) I - mu(t) R
    V' = p(t) S - (mu(t) + eta(t)) V - sigma(t) g_psi(V) I

    with g_phi, g_psi the separable bridge of the supplied incidence pair.
    For `standard` incidence the bridge g(x) = x/N is taken as 0 when the
    population N = S + I + R + V is 0, its limit there (S, V <= N forces
    g I <= I = 0); a zero initial population thus gives the disease-free run.
    Explicit methods may produce negative components at large h; the
    trajectory is still returned, carrying the first offending index in
    `negative_at`.
    """
    method = method.lower()
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r} (expected 'euler' or 'rk4')")
    if not (h > 0 and t_end > 0):
        raise ValueError("h and t_end must be positive")
    s0 = validate_state(s0)

    n_steps = max(1, int(math.ceil(t_end / h - 1e-9)))
    # coefficients at every half step, one row per time, SCHEDULE_NAMES order
    ts_half = np.arange(2 * n_steps + 1) * (h / 2.0)
    table = np.empty((ts_half.size, len(SCHEDULE_NAMES)))
    for k, name in enumerate(SCHEDULE_NAMES):
        table[:, k] = getattr(schedules, name).eval(ts_half)
    g_phi = phi.bridge()
    g_psi = psi.bridge()
    needs_pop = phi.needs_population or psi.needs_population

    def rhs(c, S, I, R, V):
        # same operation order as the vector form y' = F(t, y)
        lam, mu, p, eta, alpha, beta, sigma, gamma = c
        pop = (S + I + R + V) if needs_pop else None
        inc_s = beta * g_phi(S, pop) * I
        inc_v = sigma * g_psi(V, pop) * I
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
                a4, b4, r4, v4 = rhs(c2, S + h * a3, I + h * b3, R + h * r3, V + h * v3)
                S = S + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                I = I + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                R = R + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
                V = V + h6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
            out[n + 1] = (S, I, R, V)
            if negative_at is None and (S < 0 or I < 0 or R < 0 or V < 0):
                negative_at = n + 1
            c0 = c2
    return Trajectory(t0=0.0, dt=h, states=out, method=method, negative_at=negative_at)
