"""State types and time steppers.

Three ways to advance a SIRVS model live here:

  * `nsfd_step` / `simulate_discrete` — the nonstandard finite-difference
    (Mickens) scheme.  Loss and interaction terms are evaluated at the new
    index, which makes every update a ratio of nonnegative quantities:

        S+ = (Lam_n + S_n - beta_n f(S+, I_n) + eta_n V+) / (1 + mu_n + p_n)
        V+ = (p_n S+ + V_n - sigma_n g(V+, I_n)) / (1 + mu_n + eta_n)
        I+ = (beta_n f(S+, I_n) + sigma_n g(V+, I_n) + I_n) / (1 + mu_n + alpha_n + gamma_n)
        R+ = (gamma_n I+ + R_n) / (1 + mu_n)

    The (S+, V+) pair is implicit.  Each incidence is read as its factor
    form, incidence(x, y) = G(x) y / D(y, N) (`IncidenceFn.factor_form`, the
    one per-kind declaration, which every stepper here reads inline).  When
    both are linear in their first argument (G the identity: mass action,
    saturated, standard) the pair is a closed-form 2x2 solve; otherwise
    (separable) one Newton-secant solve of the pair from (S, V), calling g
    directly, with brackets and bisection only from the first step that
    leaves [0, the disease-free update] or fails to halve (`_nsfd_stepper`'s
    `advance_solved`).  Which loop runs is read from the two factor forms,
    once per run.
    Summing the four updates gives the exact balance identity
    (1 + mu_n) N+ + alpha_n I+ = N_n + Lam_n, which every step is checked
    against: it is the correctness oracle for the implicit solve and holds
    whatever the incidence functions are.

  * `simulate_aux` / `periodic_aux_solution` — the disease-free pair (x_n, y_n),
    an affine 2x2 recurrence solved exactly per step, iterated from a start or
    as the exact periodic orbit of its period map.  It feeds the thresholds.

  * `integrate_continuous` — fixed-step Euler and classical RK4 for the
    continuous model with the same incidences, beta (G(x) / D(I, N)) I.
    Euler reads the coefficients at the start of each step, RK4 also at its
    midpoint and, from the left, at its end (`_rk4_rows`), so a step that ends
    on a breakpoint of a piecewise schedule stays fourth order.

  Explicit methods may leave the nonnegative cone; that is flagged on the
  returned trajectory, never clamped.

Runs: every run, `nsfd_step` included, goes through `_drive`, the one owner
of the run policies: n_steps >= 1, a finite start >= 0, the states allocated
up front, one chunk of rows per stepper call, and a zero denominator raised as
a StepError naming its step.  A stepper holds only its steps' arithmetic.

Memory: a run holds its returned states (32 B per step; 16 B per disease-free
step), which `_drive` allocates before the first step, so a run too long to
hold fails at once with a ConfigError (`reference.dp5_reference` allocates
for its caps and returns fewer).  Everything else is bounded by one chunk of
`_ROWS_PER_CHUNK` rows: `_coefficient_rows` evaluates the coefficients one
chunk at a time, and `_drive` stores each chunk of new states.

Cost per step: every loop reads its coefficients as rows of Python floats
from `_coefficient_rows`, the one producer of rows, where a declared constant
costs nothing per step and twins (`schedules.function_key`, e.g. beta and
sigma of every built-in) are evaluated once per chunk, so schedule and
sequence callables are taken to be pure.  The loop over steps runs inside the
stepper, one `_drive` call per chunk, and reads the factor forms' fields
inline, so what is left per step is its own arithmetic, a call only for a
separable G, and, for NSFD, its balance check.  RK4 writes its four stages
out in the loop body, once, each in the operation order of the vector form
y' = F(t, y), so the states are bit-identical to calling F.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat, tee
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, StepError
from .incidence import IncidenceFn
from .schedules import (DISEASE_FREE_NAMES, SCHEDULE_NAMES, DiscreteParams, ParamSchedule,
                        ScheduleSet)

_BALANCE_RTOL = 1e-10
_SOLVE_RTOL = 1e-13  # residual of each (S+, V+) equation, relative to its inflow
_SOLVE_MAX_ITER = 200
_COLLAPSED = 4.0 * sys.float_info.epsilon  # relative width of a spent bracket
_ROWS_PER_CHUNK = 1024


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


def _checked_state(s) -> tuple[float, ...]:
    """s as Python floats; ValueError unless each is finite and >= 0."""
    vals = tuple(map(float, s))
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"non-finite state {s}")
    if min(vals) < 0:
        raise ValueError(f"negative state component in {s}")
    return vals


def validate_state(s: State) -> State:
    return State(*_checked_state(s))


@dataclass(eq=False)
class Trajectory:
    """A time-indexed sequence of states produced by one stepper.

    The states are at t0 + dt k, or, for a run of unequal steps
    (`reference.dp5_reference`), at the times `nodes`, and dt is then its
    largest step.  `negative_at` is the index of the first state with a
    negative component (explicit methods only; the NSFD scheme cannot produce
    one).
    """

    t0: float
    dt: float
    states: np.ndarray  # shape (n_steps + 1, 4), columns S, I, R, V
    method: str
    negative_at: int | None = None
    nodes: np.ndarray | None = None

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.ndim != 2 or self.states.shape[1] != 4 or self.states.shape[0] < 1:
            raise ValueError("trajectory needs an (n, 4) state array with n >= 1")
        if not self.dt > 0:
            raise ValueError("trajectory dt must be positive")
        if self.nodes is not None and self.nodes.shape != self.states.shape[:1]:
            raise ValueError("trajectory nodes need one time per state")

    @property
    def n_steps(self) -> int:
        return self.states.shape[0] - 1

    @property
    def times(self) -> np.ndarray:
        if self.nodes is not None:
            return self.nodes
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

    def rows(self):
        """`state_rows` of the states, each chunk's times t0 + dt k built for
        that chunk alone; t equals `times`."""
        if self.nodes is not None:
            return state_rows(self.states, lambda a, b: self.nodes[a:b])
        return state_rows(self.states, lambda a, b: self.t0 + self.dt * np.arange(a, b))


def state_rows(states: np.ndarray, times):
    """(t, S, I, R, V) of each row of the (n, 4) `states` as Python floats, one
    flat list t_a, S_a, I_a, R_a, V_a, t_{a+1}, .. per chunk of up to
    `_ROWS_PER_CHUNK` rows, where times(a, b) gives t_a .. t_{b-1}."""
    n_rows = states.shape[0]
    for a in range(0, n_rows, _ROWS_PER_CHUNK):
        b = min(a + _ROWS_PER_CHUNK, n_rows)
        yield np.column_stack((times(a, b), states[a:b])).ravel().tolist()


def steps_for(span: float, h: float) -> int:
    """Number of steps of size h that cover span: ceil(span / h), at least one.
    The one rule for every stepper, so runs of each method at one h share
    their times; a ConfigError when h or span / h is not finite."""
    if not math.isfinite(h):
        raise ConfigError(f"step size h = {h} is not finite")
    if not math.isfinite(span / h):
        raise ConfigError(f"a run of t_end / h = {span / h} steps does not fit in memory")
    return max(1, int(math.ceil(span / h - 1e-9)))


h_label = "{:g}".format  # how file names, messages and manifest keys spell a step size h


def _unbalanced(n: int, resid: float) -> StepError:
    return StepError(f"balance identity violated at step {n} (residual {resid:.3g})",
                     step=n, residual=resid)


def _coefficient_rows(columns, n_rows: int):
    """Rows 0 .. n_rows-1 of a coefficient table, one tuple of Python floats per
    row; columns(a, b) gives the table's columns over rows [a, b), in the order
    a row is unpacked: an array, or a Python float for a constant column.
    Python floats are the same IEEE results as np.float64 scalars at a
    fraction of the cost per operation.  A constant is repeated as it is, so
    it costs nothing per row; an array column is converted one
    `_ROWS_PER_CHUNK` chunk at a time, whatever n_rows is.  Schedules and
    sequences are elementwise, so the values equal a whole-table evaluation."""
    def chunk(a):
        b = min(a + _ROWS_PER_CHUNK, n_rows)
        return zip(*[repeat(col, b - a) if isinstance(col, float) else col.tolist()
                     for col in columns(a, b)])

    return chain.from_iterable(map(chunk, range(0, n_rows, _ROWS_PER_CHUNK)))


def _drive(advance, rows, start, n_steps, first: int = 0) -> np.ndarray:
    """The (n_steps + 1, width) states of a run of `advance` from `start`, its
    first step being step `first`, under the policies in the module docstring.
    A stepper advance(rows, state, n0, out) steps `state` once per row, the
    first being step n0, appends each new state to `out`, an empty array("d"),
    and returns the last one.  n_steps bounds the run: rows that end sooner
    end it there, and only its states are returned (`reference.dp5_reference`,
    which chooses its steps as it runs).  Only coefficients summing to -1 (e.g.
    mu = -1) can zero a denominator."""
    n_steps = int(n_steps)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    state = _checked_state(start)
    width = len(state)
    try:
        out = np.empty((n_steps + 1, width))
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise ConfigError(f"a run of {n_steps:.3g} steps does not fit in memory "
                          f"({8 * width * (n_steps + 1):.3g} bytes of states)") from exc
    out[0] = state
    flat = out.reshape(-1)
    rows = iter(rows)
    for k in range(0, n_steps, _ROWS_PER_CHUNK):
        chunk = array("d")
        try:
            state = advance(islice(rows, _ROWS_PER_CHUNK), state, first + k, chunk)
        except ZeroDivisionError as exc:
            n = first + k + len(chunk) // width
            raise StepError(f"zero denominator at step {n}", step=n) from exc
        flat[width * (k + 1):width * (k + 1) + len(chunk)] = chunk  # rows k+1 ..
        if len(chunk) < width * min(_ROWS_PER_CHUNK, n_steps - k):  # the rows ran out
            return out[:k + 1 + len(chunk) // width].copy()
    return out


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
        raise ConfigError("disease-free equilibrium needs mu > 0")
    denom = mu * (mu + eta + p)
    return AuxState(lam * (mu + eta) / denom, p * lam / denom)


def _aux_stepper(rows, state, n0, out):  # rows in `DISEASE_FREE_NAMES` order
    x, y = state
    for lam, mu, p, eta in rows:
        x, y = _aux_advance(lam, mu, p, eta, x, y)
        out.append(x)
        out.append(y)
    return x, y


def simulate_aux(dp: DiscreteParams, a0: AuxState, n_steps: int) -> np.ndarray:
    """Iterate the auxiliary system; returns an (n_steps + 1, 2) array."""
    rows = _coefficient_rows(partial(dp.columns, DISEASE_FREE_NAMES), int(n_steps))
    return _drive(_aux_stepper, rows, a0, n_steps)


def verify_step_periodic(dp: DiscreteParams, omega: int, names=SCHEDULE_NAMES) -> None:
    """Raise unless every named sequence satisfies c_{n+omega} = c_n over the
    first two periods; a sequence built constant (`DiscreteParams.constant`)
    satisfies it by construction and is not evaluated.  Each distinct sequence
    (`DiscreteParams.distinct`) is compared one `_ROWS_PER_CHUNK` chunk of
    indices at a time, so the check holds no array that grows with omega."""
    omega = int(omega)
    if omega < 1:
        raise ValueError("period must be a positive integer")
    for name in dp.distinct(names):
        if dp.constant(name) is not None:  # built constant: periodic for every omega
            continue
        for a in range(0, 2 * omega, _ROWS_PER_CHUNK):
            b = min(a + _ROWS_PER_CHUNK, 2 * omega)
            base = dp.array(name, a, b)
            defect = np.abs(dp.array(name, a + omega, b + omega) - base)
            if np.any(defect > 1e-12 * (1.0 + np.abs(base))):
                raise ValueError(f"sequence {name!r} is not {omega}-periodic "
                                 f"(defect {defect.max():.3g} at index {a + np.argmax(defect)})")


def period_map_fixed_point(q, e1, e2) -> tuple[float, float] | None:
    """Fixed point of the affine period map z -> M z + q, M with columns e1, e2,
    by Cramer's rule; None unless det(I - M) > 0."""
    det = (1.0 - e1[0]) * (1.0 - e2[1]) - e2[0] * e1[1]  # of I - M
    if not det > 0.0:
        return None
    return (((1.0 - e2[1]) * q[0] + e2[0] * q[1]) / det,
            ((1.0 - e1[0]) * q[1] + e1[1] * q[0]) / det)


def periodic_aux_solution(dp: DiscreteParams, omega: int) -> np.ndarray:
    """The periodic orbit z*_0 .. z*_{omega-1} of an omega-periodic aux system.

    The period map z -> M z + q is composed from the step (q: image of (0, 0);
    columns of M: images of the unit vectors with Lambda = 0); its fixed point
    is rolled forward with `simulate_aux`.  StepError unless some mu_n > 0.
    """
    omega = int(omega)
    verify_step_periodic(dp, omega, names=DISEASE_FREE_NAMES)
    q, e1, e2, shrink = (0.0, 0.0), (1.0, 0.0), (0.0, 1.0), 1.0
    try:
        rows = _coefficient_rows(partial(dp.columns, DISEASE_FREE_NAMES), omega)
        for lam, mu, p, eta in rows:
            q = _aux_advance(lam, mu, p, eta, *q)
            e1 = _aux_advance(0.0, mu, p, eta, *e1)
            e2 = _aux_advance(0.0, mu, p, eta, *e2)
            shrink *= 1.0 + mu
    except ZeroDivisionError as exc:
        raise StepError(f"zero denominator in the period map for omega={omega}") from exc
    z0 = period_map_fixed_point(q, e1, e2)
    if not shrink > 1.0 or z0 is None:
        raise StepError(f"singular period map for omega={omega}")
    orbit = simulate_aux(dp, z0, omega)
    defect = float(np.max(np.abs(orbit[omega] - z0)))
    if defect > 1e-12 * (1.0 + max(abs(z0[0]), abs(z0[1]))):
        raise StepError(f"periodic orbit defect {defect:.3g} exceeds tolerance")
    return orbit[:omega]


# ---------------------------------------------------------------------------
# NSFD discrete model
# ---------------------------------------------------------------------------

def _nsfd_stepper(phi: IncidenceFn, psi: IncidenceFn):
    """The NSFD scheme for one incidence pair, as a `_drive` stepper over
    (S, I, R, V) with rows in `SCHEDULE_NAMES` order; `_drive` owns the run
    policies.  The per-kind forms are taken from the incidences once, here,
    and so is the loop: the closed-form (S+, V+) update when both are linear
    in x (g is `float` in both factor forms), else the solve.  A failed
    balance check raises a StepError naming its step.
    """
    g_phi, a_phi, pop_phi = phi.factor_form()
    g_psi, a_psi, pop_psi = psi.factor_form()

    def advance_closed_form(rows, state, n0, out):
        S, I, R, V = state
        for lam, mu, p, eta, alpha, beta, sigma, gamma in rows:
            N = S + I + R + V
            if I == 0.0:
                # disease-free step: incidence vanishes (f(x, 0) = 0) and the
                # (S, V) update coincides with the auxiliary recurrence
                S1, V1 = _aux_advance(lam, mu, p, eta, S, V)
                phi_term = psi_term = 0.0
            else:
                # f(x, I) = q x with q = I / d(I, N)
                qs = I / (1.0 + a_phi * I) if a_phi else I / N if pop_phi else I
                qv = I / (1.0 + a_psi * I) if a_psi else I / N if pop_psi else I
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

            resid = abs((1.0 + mu) * (S + I + R + V) + alpha * I - (N + lam))
            if not resid <= _BALANCE_RTOL * (1.0 + N):  # a NaN residual fails too
                raise _unbalanced(n0 + len(out) // 4, resid)
            out.fromlist([S, I, R, V])
        return S, I, R, V

    if g_phi is float and g_psi is float:
        return advance_closed_form
    g_kept = math.nan, 0.0, math.nan, 0.0  # x, g_phi(x), y, g_psi(y) of the latest calls

    def advance_solved(rows, state, n0, out):
        """(S+, V+) is the root of

            F1(s, v) = (1+mu+p) s - eta v + beta f_phi(s, I) - (Lam + S)
            F2(s, v) = (1+mu+eta) v - p s + sigma f_psi(v, I) - V,

        an M-function (f nondecreasing in x) with its root between (0, 0) and
        the disease-free update (hi_s, hi_v).  Steps from (S, V) are Newton steps
        with secant slopes of the incidence terms u, w.  While each step stays
        in [0, hi] and is at most half its step before last, nothing else is
        kept.  The first one that is not turns on the guard for the rest of the
        solve, at the point it started from: brackets from [0, hi], which each
        residual (r1, r2) shrinks (it fixes the side of s* when r2 has r1's
        sign or |r1| > eta |r2| / (1+mu+eta), and of v* when r1 has r2's sign or
        |r2| > p |r1| / (1+mu+p); one always holds), and a coordinate whose
        step leaves its bracket or exceeds half its step before last bisects
        the bracket instead.  Stops when each equation holds to `_SOLVE_RTOL`
        of its inflow (Lam + S + eta v, V + p s) or, guarded, its variable's
        bracket has collapsed.  Brackets only shrink inside [0, hi], so until
        the guard engages the steps are those of a loop guarded from the start
        that has neither bisected nor seen a bracket collapse.  g of the last
        point of each solve is kept for the next step, which starts there
        (`g_kept`, also across chunks); g is taken to be pure.
        """
        nonlocal g_kept
        S, I, R, V = state
        xs, gs, xv, gv = g_kept
        for lam, mu, p, eta, alpha, beta, sigma, gamma in rows:
            N = S + I + R + V
            a_s = 1.0 + mu + p
            a_v = 1.0 + mu + eta
            b_s = lam + S
            hi_s = (a_v * b_s + eta * V) / (a_s * a_v - eta * p)  # `_aux_advance`, inlined
            hi_v = (p * hi_s + V) / a_v
            if I == 0.0:  # disease-free step, as in the closed form
                s, v = hi_s, hi_v
                u = w = 0.0
            else:
                ds = 1.0 + a_phi * I if a_phi else N if pop_phi else 1.0
                dv = 1.0 + a_psi * I if a_psi else N if pop_psi else 1.0
                s = S if S < hi_s else hi_s
                v = V if V < hi_v else hi_v
                if s != xs:
                    xs, gs = s, float(g_phi(s))
                if v != xv:
                    xv, gv = v, float(g_psi(v))
                u = beta * (gs * I / ds)
                w = sigma * (gv * I / dv)
                du = dw = 0.0  # secant slopes of u in s and of w in v
                step_s = step_v = last_s = last_v = math.inf
                guarded = False
                for _ in range(_SOLVE_MAX_ITER):
                    r1 = a_s * s - eta * v + u - b_s
                    r2 = a_v * v - p * s + w - V
                    if not guarded:
                        tol = _SOLVE_RTOL * (b_s + eta * v)  # |r| <= tol, without a call
                        if -tol <= r1 <= tol:
                            tol = _SOLVE_RTOL * (V + p * s)
                            if -tol <= r2 <= tol:
                                break
                    else:
                        a1 = r1 if r1 >= 0.0 else -r1  # abs() is a call; this loop is hot
                        a2 = r2 if r2 >= 0.0 else -r2
                        s_done = s_hi - s_lo <= _COLLAPSED * s_hi
                        v_done = v_hi - v_lo <= _COLLAPSED * v_hi
                        if ((s_done or a1 <= _SOLVE_RTOL * (b_s + eta * v))
                                and (v_done or a2 <= _SOLVE_RTOL * (V + p * s))):
                            break
                        # |F1(s, v(s)) - r1| <= eta / a_v |r2| and |F2(s(v), v) - r2|
                        # <= p / a_s |r1|; a collapsed bracket pins its
                        # variable, and the other one's side is then r's
                        m1 = 0.0 if v_done else eta / a_v * a2
                        m2 = 0.0 if s_done else p / a_s * a1
                        if r1 > m1 or (r1 > 0.0 and r2 >= 0.0):
                            s_hi = s
                        elif r1 < -m1 or (r1 < 0.0 and r2 <= 0.0):
                            s_lo = s
                        if r2 > m2 or (r2 > 0.0 and r1 >= 0.0):
                            v_hi = v
                        elif r2 < -m2 or (r2 < 0.0 and r1 <= 0.0):
                            v_lo = v
                    j_s = a_s + du
                    j_v = a_v + dw
                    det = j_s * j_v - eta * p
                    s1 = s - (j_v * r1 + eta * r2) / det
                    v1 = v - (p * r1 + j_s * r2) / det
                    e_s = (s1 - s) * (s1 - s)  # squared step lengths
                    e_v = (v1 - v) * (v1 - v)
                    if guarded:
                        if not (s_lo <= s1 <= s_hi and e_s <= 0.25 * last_s):
                            s1 = 0.5 * (s_lo + s_hi)
                            e_s = (s1 - s) * (s1 - s)
                        if not (v_lo <= v1 <= v_hi and e_v <= 0.25 * last_v):
                            v1 = 0.5 * (v_lo + v_hi)
                            e_v = (v1 - v) * (v1 - v)
                    elif not (0.0 <= s1 <= hi_s and e_s <= 0.25 * last_s
                              and 0.0 <= v1 <= hi_v and e_v <= 0.25 * last_v):
                        guarded = True
                        s_lo = v_lo = 0.0
                        s_hi, v_hi = hi_s, hi_v
                        continue  # this point again, with brackets and bisection
                    if s1 == s and v1 == v:
                        break
                    last_s, step_s = step_s, e_s
                    last_v, step_v = step_v, e_v
                    if s1 != s:
                        g1 = float(g_phi(s1))
                        u1 = beta * (g1 * I / ds)
                        du = (u1 - u) / (s1 - s)
                        du = du if du > 0.0 else 0.0
                        s, u, gs = s1, u1, g1
                    if v1 != v:
                        g1 = float(g_psi(v1))
                        w1 = sigma * (g1 * I / dv)
                        dw = (w1 - w) / (v1 - v)
                        dw = dw if dw > 0.0 else 0.0
                        v, w, gv = v1, w1, g1
                xs, xv = s, v
            I = (u + w + I) / (1.0 + mu + alpha + gamma)
            R = (gamma * I + R) / (1.0 + mu)
            S, V = s, v
            resid = abs((1.0 + mu) * (S + I + R + V) + alpha * I - (N + lam))
            if not resid <= _BALANCE_RTOL * (1.0 + N):
                raise _unbalanced(n0 + len(out) // 4, resid)
            out.fromlist([S, I, R, V])
        g_kept = xs, gs, xv, gv
        return S, I, R, V

    return advance_solved


def nsfd_step(dp: DiscreteParams, n: int, phi: IncidenceFn, psi: IncidenceFn,
              s: State) -> State:
    """One step of the nonstandard scheme; preserves nonnegativity exactly.
    It is a one-row run at step n, so a run is iterated `nsfd_step`."""
    row = tuple(float(getattr(dp, name)(n)) for name in SCHEDULE_NAMES)
    return State(*_drive(_nsfd_stepper(phi, psi), (row,), s, 1, first=n)[1].tolist())


def simulate_discrete(dp: DiscreteParams, phi: IncidenceFn, psi: IncidenceFn,
                      s0: State, n_steps: int) -> Trajectory:
    """Iterate the NSFD scheme; the balance identity is checked every step."""
    rows = _coefficient_rows(partial(dp.columns, SCHEDULE_NAMES), int(n_steps))
    out = _drive(_nsfd_stepper(phi, psi), rows, s0, n_steps)
    return Trajectory(t0=0.0, dt=dp.h, states=out, method="nsfd")


# ---------------------------------------------------------------------------
# continuous model (explicit reference integrators)
# ---------------------------------------------------------------------------

def integrate_continuous(schedules: ScheduleSet, phi: IncidenceFn, psi: IncidenceFn,
                         s0: State, t_end: float, h: float,
                         method: str = "rk4") -> Trajectory:
    """Fixed-step integration of the continuous model.

    S' = Lam(t) - beta(t) f_phi(S, I) - (mu(t) + p(t)) S + eta(t) V
    I' = beta(t) f_phi(S, I) + sigma(t) f_psi(V, I) - (mu(t) + alpha(t) + gamma(t)) I
    R' = gamma(t) I - mu(t) R
    V' = p(t) S - (mu(t) + eta(t)) V - sigma(t) f_psi(V, I)

    with f(x, I) = (g(x) / d(I, N)) I, N = S + I + R + V, the factor form of
    each incidence (`IncidenceFn.factor_form`) that the NSFD scheme
    discretises.  A run that leaves the nonnegative cone is returned as it
    is, never clamped, with its first negative state in `negative_at`.  There
    a separable g is 0 for x <= 0, and g(x) / d is 0 where d is 0: standard
    at N = 0, its limit (S, V <= N), so a zero population gives the
    disease-free run, and saturated at I = -1/a; a negative d is used as is.

    RK4 reads each step's end stage at the left limit of the coefficients
    (`ParamSchedule.left_column`), and the next step's first stage at their
    value: the two differ only where a step ends exactly on a breakpoint of a
    piecewise schedule, and there the step integrates the one interval it
    lies in, so RK4 keeps its fourth order (Hairer, Norsett & Wanner,
    Solving ODEs I, II.4-II.6).
    """
    method = method.lower()
    if method not in ("euler", "rk4"):
        raise ValueError(f"unknown method {method!r} (expected 'euler' or 'rk4')")
    if not (h > 0 and t_end > 0):
        raise ValueError("h and t_end must be positive")
    n_steps = steps_for(t_end, h)

    def columns(dt, a, b):  # rows are times 0, dt, 2 dt, ..
        return schedules.evaluate(SCHEDULE_NAMES, np.arange(a, b) * dt, ParamSchedule.column)

    if method == "euler":  # rows at 0, h, .., (n_steps - 1) h: the only ones it reads
        advance = _euler_stepper(phi, psi, h)
        rows = _coefficient_rows(partial(columns, h), n_steps)
    else:
        advance, rows = _rk4_rows(schedules, phi, psi, n_steps, h)
    with np.errstate(all="ignore"):
        out = _drive(advance, rows, s0, n_steps)
    return Trajectory(t0=0.0, dt=h, states=out, method=method, negative_at=_first_negative(out))


def _first_negative(out: np.ndarray) -> int | None:
    """The index of the first state with a negative component, if any."""
    negative = np.flatnonzero((out < 0.0).any(axis=1))
    return int(negative[0]) if negative.size else None


def _rk4_rows(schedules: ScheduleSet, phi: IncidenceFn, psi: IncidenceFn, n_steps: int, h: float):
    """The `_drive` stepper and rows of an RK4 run of n_steps steps of h from
    t = 0, its nodes at 0, h, .., n_steps h and the midpoints between, on one
    half-step grid.  A row is (h, h/2, h/6), then the coefficients at the
    step's midpoint, at its end read from the left, and at its end: one tuple
    twice unless some schedule has a breakpoint in the run
    (`ScheduleSet.breakpoints`), where the two differ only at a step that ends
    exactly on one."""
    half = h / 2.0

    def columns(times, read):
        return lambda a, b: schedules.evaluate(SCHEDULE_NAMES, times(a, b), read)

    def ends(a, b):
        return np.arange(2 * a + 2, 2 * b + 2, 2) * half

    right = _coefficient_rows(columns(ends, ParamSchedule.column), n_steps)
    if schedules.breakpoints(0.0, float(ends(n_steps - 1, n_steps)[0])).size:
        left = _coefficient_rows(columns(ends, ParamSchedule.left_column), n_steps)
    else:  # the left limit is the value everywhere: one tuple serves as both
        left, right = tee(right)
    c0 = next(_coefficient_rows(columns(lambda a, b: np.zeros(1), ParamSchedule.column), 1))
    mids = _coefficient_rows(
        columns(lambda a, b: np.arange(2 * a + 1, 2 * b + 1, 2) * half, ParamSchedule.column),
        n_steps)
    return _rk4_stepper(phi, psi, c0), zip(repeat((h, half, h / 6.0)), mids, left, right)


def _explicit_form(inc: IncidenceFn):
    """inc's factor form (g, a, by_pop) as Euler and RK4 read it: g None for
    the kinds linear in x, else g extended by 0 for x <= 0 and called on a
    NumPy scalar, so an overflow inside a user g gives inf, not an exception."""
    g, a, by_pop = inc.factor_form()
    g_x = None if g is float else lambda x: float(g(np.float64(x))) if x > 0.0 else 0.0
    return g_x, a, by_pop


def _euler_stepper(phi: IncidenceFn, psi: IncidenceFn, h: float):
    """Euler steps of `integrate_continuous`'s model, as a `_drive` stepper
    over (S, I, R, V) with rows in `SCHEDULE_NAMES` order; the incidences
    are read as in `_rk4_stepper`."""
    g_phi, a_phi, pop_phi = _explicit_form(phi)
    g_psi, a_psi, pop_psi = _explicit_form(psi)
    divides = bool(a_phi or pop_phi or a_psi or pop_psi)  # some d is not 1
    same_n = bool(pop_phi and not a_phi)  # phi's d is N, so psi's d = N is ds

    def advance(rows, state, n0, out):
        S, I, R, V = state
        for lam, mu, p, eta, alpha, beta, sigma, gamma in rows:
            qs, qv = S if g_phi is None else g_phi(S), V if g_psi is None else g_psi(V)
            if divides:
                ds = 1.0 + a_phi * I if a_phi else S + I + R + V if pop_phi else 1.0
                dv = (1.0 + a_psi * I if a_psi else
                      (ds if same_n else S + I + R + V) if pop_psi else 1.0)
                qs, qv = qs / ds if ds else 0.0, qv / dv if dv else 0.0
            inc_s, inc_v = beta * qs * I, sigma * qv * I
            S, I, R, V = (S + h * (lam - inc_s - (mu + p) * S + eta * V),
                          I + h * (inc_s + inc_v - (mu + alpha + gamma) * I),
                          R + h * (gamma * I - mu * R),
                          V + h * (p * S - (mu + eta) * V - inc_v))
            out.fromlist([S, I, R, V])
        return S, I, R, V

    return advance


def _rk4_stepper(phi: IncidenceFn, psi: IncidenceFn, c0):
    """Classical RK4 steps of `integrate_continuous`'s model, as a `_drive`
    stepper over (S, I, R, V); a row is one step's (h, h/2, h/6) and its
    midpoint, end (read from the left) and next-start coefficient rows
    (`_rk4_rows`), c0 the row at the start of the first.

    The four stages are written out in the loop, each the right-hand side in
    the operation order of its vector form, with each coefficient row unpacked
    once and its sums mu + p, mu + alpha + gamma, mu + eta taken once (the end
    row's serve the next step's first stage when the next-start row is the
    same tuple).  Each incidence is
    beta (g(x) / d(y, N)) y, read inline (`_explicit_form`); a stage divides
    only when some d is not 1, and sums N once when both d are N.
    """
    g_phi, a_phi, pop_phi = _explicit_form(phi)
    g_psi, a_psi, pop_psi = _explicit_form(psi)
    divides = bool(a_phi or pop_phi or a_psi or pop_psi)  # some d is not 1
    same_n = bool(pop_phi and not a_phi)  # phi's d is N, so psi's d = N is ds

    def advance(rows, state, n0, out):
        nonlocal c0
        S, I, R, V = state
        lam, mu, p, eta, alpha, beta, sigma, gamma = c0
        m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
        for (h, hh, h6), c1, c2, c3 in rows:
            qs, qv = S if g_phi is None else g_phi(S), V if g_psi is None else g_psi(V)
            if divides:
                ds = 1.0 + a_phi * I if a_phi else S + I + R + V if pop_phi else 1.0
                dv = (1.0 + a_psi * I if a_psi else
                      (ds if same_n else S + I + R + V) if pop_psi else 1.0)
                qs, qv = qs / ds if ds else 0.0, qv / dv if dv else 0.0
            inc_s, inc_v = beta * qs * I, sigma * qv * I
            a1 = lam - inc_s - m_s * S + eta * V
            b1 = inc_s + inc_v - m_i * I
            r1 = gamma * I - mu * R
            v1 = p * S - m_v * V - inc_v
            lam, mu, p, eta, alpha, beta, sigma, gamma = c1
            m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
            x, y, z, w = S + hh * a1, I + hh * b1, R + hh * r1, V + hh * v1
            qs, qv = x if g_phi is None else g_phi(x), w if g_psi is None else g_psi(w)
            if divides:
                ds = 1.0 + a_phi * y if a_phi else x + y + z + w if pop_phi else 1.0
                dv = (1.0 + a_psi * y if a_psi else
                      (ds if same_n else x + y + z + w) if pop_psi else 1.0)
                qs, qv = qs / ds if ds else 0.0, qv / dv if dv else 0.0
            inc_s, inc_v = beta * qs * y, sigma * qv * y
            a2 = lam - inc_s - m_s * x + eta * w
            b2 = inc_s + inc_v - m_i * y
            r2 = gamma * y - mu * z
            v2 = p * x - m_v * w - inc_v
            x, y, z, w = S + hh * a2, I + hh * b2, R + hh * r2, V + hh * v2
            qs, qv = x if g_phi is None else g_phi(x), w if g_psi is None else g_psi(w)
            if divides:
                ds = 1.0 + a_phi * y if a_phi else x + y + z + w if pop_phi else 1.0
                dv = (1.0 + a_psi * y if a_psi else
                      (ds if same_n else x + y + z + w) if pop_psi else 1.0)
                qs, qv = qs / ds if ds else 0.0, qv / dv if dv else 0.0
            inc_s, inc_v = beta * qs * y, sigma * qv * y
            a3 = lam - inc_s - m_s * x + eta * w
            b3 = inc_s + inc_v - m_i * y
            r3 = gamma * y - mu * z
            v3 = p * x - m_v * w - inc_v
            lam, mu, p, eta, alpha, beta, sigma, gamma = c2
            m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
            x, y, z, w = S + h * a3, I + h * b3, R + h * r3, V + h * v3
            qs, qv = x if g_phi is None else g_phi(x), w if g_psi is None else g_psi(w)
            if divides:
                ds = 1.0 + a_phi * y if a_phi else x + y + z + w if pop_phi else 1.0
                dv = (1.0 + a_psi * y if a_psi else
                      (ds if same_n else x + y + z + w) if pop_psi else 1.0)
                qs, qv = qs / ds if ds else 0.0, qv / dv if dv else 0.0
            inc_s, inc_v = beta * qs * y, sigma * qv * y
            a4 = lam - inc_s - m_s * x + eta * w
            b4 = inc_s + inc_v - m_i * y
            r4 = gamma * y - mu * z
            v4 = p * x - m_v * w - inc_v
            S = S + h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
            I = I + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            R = R + h6 * (r1 + 2.0 * r2 + 2.0 * r3 + r4)
            V = V + h6 * (v1 + 2.0 * v2 + 2.0 * v3 + v4)
            out.fromlist([S, I, R, V])
            if c3 is not c2:
                lam, mu, p, eta, alpha, beta, sigma, gamma = c3
                m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
        c0 = c3
        return S, I, R, V

    return advance
