"""The continuous model's reference: a Dormand-Prince 5(4) pair whose embedded
estimate picks the steps.

`dp5_reference` integrates the model of `dynamics.integrate_continuous` with
the pair of Dormand & Prince (1980) (Hairer, Norsett & Wanner, Solving ODEs I,
II.4-II.5).  It stops exactly at given times and at every breakpoint of a
piecewise schedule, and takes equal steps between two stops, as many as its
embedded estimate asks for against `REFERENCE_RTOL` (one choice per block of
gaps, from the block before) but never more than
steps_for(gap, `REFERENCE_CAP_STEP`).  The last two stages of a step read the
coefficients from the left, so a step that ends on a breakpoint integrates the
one interval it lies in and the pair keeps its fifth order there.  The last
stage is the next step's first (FSAL), so the estimate costs no right-hand
side.

The run goes through `dynamics._drive`, with the states allocated for the caps;
its stepper, `_dp5_stepper`, writes its seven stages out in the loop body as
`dynamics._rk4_stepper` writes its four, each in the operation order of the
vector form, and reads the incidences' factor forms inline.  A step costs
about 2.4 RK4 steps (six right-hand sides and denser stage sums against four),
so the reference is cheaper than RK4 at 0.02 where its estimate lets a gap
take under 0.4 of RK4's steps; a capped gap costs about 1.3 times RK4's.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .dynamics import (State, Trajectory, _coefficient_rows, _drive, _explicit_form,
                       _first_negative)
from .incidence import IncidenceFn
from .schedules import SCHEDULE_NAMES, ParamSchedule, ScheduleSet

REFERENCE_RTOL = 1e-8  # the bound on `dp5_reference`'s embedded estimate
REFERENCE_CAP_STEP = 0.04  # a reference gap takes at most steps_for(gap, 0.04) steps
# `dp5_reference` chooses its steps per block of gaps: the first block has
# _FIRST_BLOCK gaps, each later one at least _REFERENCE_BLOCK gaps and at least
# _BLOCK_STEPS steps at the cap, so that short gaps do not multiply the blocks
_FIRST_BLOCK, _REFERENCE_BLOCK, _BLOCK_STEPS = 8, 32, 256
_SAFETY, _GROWTH = 0.9, 2.0  # the step rule of `dp5_reference`

# Dormand & Prince (1980), as in Hairer, Norsett & Wanner, Solving ODEs I, Table
# II.5.2: the nodes c2 .. c5 (c6 = c7 = 1); the rows a21, a31 a32, .., a61 .. a65;
# the fifth-order weights b1, b3 .. b6 (b2 = b7 = 0, and b = a7, so the last
# stage is the next step's first); and e1, e3 .. e7 = b - b*, the weights of the
# embedded estimate.  A reference row scales the weights by its step.
_DP5_NODES = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9])
_DP5_WEIGHTS = (
    1 / 5,
    3 / 40, 9 / 40,
    44 / 45, -56 / 15, 32 / 9,
    19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729,
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656,
    35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
    71 / 57600, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40,
)


@dataclass(eq=False, kw_only=True)
class Reference(Trajectory):
    """A `dp5_reference` run: its trajectory, its largest embedded estimate
    and the number of gaps where the estimate asked for more steps than the
    cap."""

    largest_estimate: float
    capped_gaps: int


def dp5_reference(schedules: ScheduleSet, phi: IncidenceFn, psi: IncidenceFn,
                  s0: State, times) -> Reference:
    """The Dormand-Prince 5(4) pair for `dynamics.integrate_continuous`'s model
    from t = 0, stopping exactly at each of `times` (>= 0) and at every
    breakpoint up to the last of them (`ScheduleSet.breakpoints`), so each of
    `times` is a node and no step crosses a breakpoint.  Each gap between two stops takes
    equal steps, the last of which ends on the stop itself, and its end stages
    read the coefficients from the left (`_dp5_stepper`).

    The embedded estimate chooses the steps, one block of gaps at a time
    (`_block_edges`).  The first block takes each gap's cap,
    `steps_for(gap, REFERENCE_CAP_STEP)`.  Each later block bounds its steps
    by the previous block's largest step times
    min(2, 0.9 (REFERENCE_RTOL / E)^(1/5)), E being the previous block's
    largest estimate (componentwise, relative to max(|y_n|, |y_n+1|)); a gap
    that would then take more steps than its cap takes its cap, and is
    counted as capped.  The cap bounds the cost of a gap and so the accuracy
    the estimate can buy: where the dynamics are fast (a rate of about 4 per
    unit time) the reference can miss the tolerance by a factor.
    A block's coefficient rows come from one `ScheduleSet.evaluate` call, and
    one more where some of its gaps end on a breakpoint.

    The returned `Reference` holds every node, at the times `nodes`, with dt
    its largest step.  Beyond its states (32 B per step, allocated for the
    caps) the run holds its node times (8 B per step) and one block's rows."""
    times = np.asarray(times, dtype=float)
    if not (times.size and np.isfinite(times).all() and times.min() >= 0):
        raise ValueError("dp5_reference needs finite times >= 0")
    jumps = schedules.breakpoints(0.0, float(times.max()))
    stops = np.union1d(np.append(times, 0.0), jumps)
    gaps = np.diff(stops)
    if not gaps.size:
        raise ValueError("dp5_reference needs a time after t = 0")
    caps = _step_counts(gaps, REFERENCE_CAP_STEP)
    on_jump = np.isin(stops[1:], jumps)  # the gap ends on a breakpoint
    counts = caps.astype(int)  # a block's own counts replace its caps when it is planned

    def rows_at(t, read=ParamSchedule.column):
        cols = schedules.evaluate(SCHEDULE_NAMES, t, read)
        return _coefficient_rows(
            lambda a, b: [c if isinstance(c, float) else c[a:b] for c in cols], t.size)

    advance, seen = _dp5_stepper(phi, psi, next(rows_at(np.zeros(1))))
    starts, estimates, capped = [], [], 0  # node times and largest estimate of each block
    edges = _block_edges(caps)

    def blocks():
        nonlocal capped
        for a, b in zip(edges, edges[1:]):
            if a:  # the previous block's largest estimate bounds this block's steps
                estimates.append(_largest_estimate(seen))
                e = estimates[-1]
                grow = (min(_GROWTH, _SAFETY * (REFERENCE_RTOL / e) ** 0.2) if e > 0.0
                        else _GROWTH)
                want = _step_counts(gaps[a:b], max_step * grow)  # inf where grow is 0
                over = want > caps[a:b]
                capped += int(over.sum())
                counts[a:b] = np.where(over, caps[a:b], want)
            n = counts[a:b]
            hs = gaps[a:b] / n
            max_step = float(hs.max())
            ends = np.cumsum(n)  # of each gap, in steps from the block's start
            h = np.repeat(hs, n)
            t = np.repeat(stops[a:b], n) + (np.arange(ends[-1]) - np.repeat(ends - n, n)) * h
            starts.append(t)
            # the rows of each step, one after another: its coefficients at
            # t + c2 h .. t + c5 h and at its end; and apart, its end from the
            # left where that is a breakpoint, else None
            stage_times = np.empty((t.size, 5))
            stage_times[:, :4] = t[:, None] + np.multiply.outer(h, _DP5_NODES)
            stage_times[:-1, 4] = t[1:]
            stage_times[-1, 4] = stops[b]
            stages = rows_at(stage_times.ravel())
            lefts = [None] * t.size
            last = ends[on_jump[a:b]] - 1
            if last.size:
                for k, row in zip(last.tolist(),
                                  rows_at(stage_times[last, 4], ParamSchedule.left_column)):
                    lefts[k] = row
            weights = map(tuple, np.multiply.outer(hs, _DP5_WEIGHTS).tolist())
            yield zip(chain.from_iterable(map(repeat, weights, n.tolist())),
                      stages, stages, stages, stages, stages, lefts)

    with np.errstate(all="ignore"):  # also over `blocks`, which runs as `_drive` reads it
        out = _drive(advance, chain.from_iterable(blocks()), s0, int(caps.sum()))
    estimates.append(_largest_estimate(seen))
    nodes = np.append(np.concatenate(starts), stops[-1])
    return Reference(t0=0.0, dt=float(np.max(gaps / counts)), states=out, method="dp5",
                     negative_at=_first_negative(out), nodes=nodes,
                     largest_estimate=max(estimates), capped_gaps=capped)


def _block_edges(caps: np.ndarray) -> list[int]:
    """The first gap of each of `dp5_reference`'s blocks, then the number of
    gaps, given each gap's cap."""
    cum = np.cumsum(caps)  # steps at the cap up to and with each gap
    edges = [0, min(_FIRST_BLOCK, caps.size)]
    while edges[-1] < caps.size:
        a = edges[-1]
        b = max(a + _REFERENCE_BLOCK, int(np.searchsorted(cum, cum[a - 1] + _BLOCK_STEPS)) + 1)
        edges.append(min(b, caps.size))
    return edges


def _step_counts(gaps: np.ndarray, h: float) -> np.ndarray:
    """`steps_for(gap, h)` of each of `gaps`, as floats (inf where h = 0)."""
    return np.maximum(1.0, np.ceil(gaps / h - 1e-9))


def _dp5_stepper(phi: IncidenceFn, psi: IncidenceFn, c0):
    """Dormand-Prince 5(4) steps of `dynamics.integrate_continuous`'s model,
    as a `_drive` stepper over (S, I, R, V), and the array("d") to which each
    step appends y_n, y_n+1 and its estimated error h sum_j e_j k_j
    (`_largest_estimate` reads and empties it).  A row is one step's
    `_DP5_WEIGHTS` times its step h, then the coefficient rows at
    t + c2 h .. t + c5 h and at its end, and its end read from the left where
    that differs (a step that ends on a breakpoint), else None: stages 6 and
    7 read the left limit, the next step's first stage the value.  c0 is the
    row at the start of the first step.

    The seven stages are written out in the loop as `dynamics._rk4_stepper`
    writes its four, the incidences read inline (`_explicit_form`).  The
    seventh stage is the next step's first (FSAL) wherever the end has no
    left row, so a step costs six right-hand sides; a chunk recomputes the
    first stage of its first step, from the same numbers.  The estimate's
    norm is taken per block, in NumPy, off the loop.
    """
    g_phi, a_phi, pop_phi = _explicit_form(phi)
    g_psi, a_psi, pop_psi = _explicit_form(psi)
    divides = bool(a_phi or pop_phi or a_psi or pop_psi)  # some d is not 1
    same_n = bool(pop_phi and not a_phi)  # phi's d is N, so psi's d = N is ds
    seen = array("d")  # each step's y_n, y_n+1 and estimated error, for the planner

    def advance(rows, state, n0, out):
        nonlocal c0
        S, I, R, V = state
        lam, mu, p, eta, alpha, beta, sigma, gamma = c0
        m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
        fresh = True
        for ((h21, h31, h32, h41, h42, h43, h51, h52, h53, h54, h61, h62, h63, h64, h65,
              hb1, hb3, hb4, hb5, hb6, he1, he3, he4, he5, he6, he7),
             c2, c3, c4, c5, c7, left) in rows:
            if fresh:  # the first stage, unless the last step's seventh is it
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
            x, y, z, w = S + h21 * a1, I + h21 * b1, R + h21 * r1, V + h21 * v1
            lam, mu, p, eta, alpha, beta, sigma, gamma = c2
            m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
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
            x, y, z, w = (S + h31 * a1 + h32 * a2,
                          I + h31 * b1 + h32 * b2,
                          R + h31 * r1 + h32 * r2,
                          V + h31 * v1 + h32 * v2)
            lam, mu, p, eta, alpha, beta, sigma, gamma = c3
            m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
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
            x, y, z, w = (S + h41 * a1 + h42 * a2 + h43 * a3,
                          I + h41 * b1 + h42 * b2 + h43 * b3,
                          R + h41 * r1 + h42 * r2 + h43 * r3,
                          V + h41 * v1 + h42 * v2 + h43 * v3)
            lam, mu, p, eta, alpha, beta, sigma, gamma = c4
            m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
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
            x, y, z, w = (S + h51 * a1 + h52 * a2 + h53 * a3 + h54 * a4,
                          I + h51 * b1 + h52 * b2 + h53 * b3 + h54 * b4,
                          R + h51 * r1 + h52 * r2 + h53 * r3 + h54 * r4,
                          V + h51 * v1 + h52 * v2 + h53 * v3 + h54 * v4)
            lam, mu, p, eta, alpha, beta, sigma, gamma = c5
            m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
            qs, qv = x if g_phi is None else g_phi(x), w if g_psi is None else g_psi(w)
            if divides:
                ds = 1.0 + a_phi * y if a_phi else x + y + z + w if pop_phi else 1.0
                dv = (1.0 + a_psi * y if a_psi else
                      (ds if same_n else x + y + z + w) if pop_psi else 1.0)
                qs, qv = qs / ds if ds else 0.0, qv / dv if dv else 0.0
            inc_s, inc_v = beta * qs * y, sigma * qv * y
            a5 = lam - inc_s - m_s * x + eta * w
            b5 = inc_s + inc_v - m_i * y
            r5 = gamma * y - mu * z
            v5 = p * x - m_v * w - inc_v
            x, y, z, w = (S + h61 * a1 + h62 * a2 + h63 * a3 + h64 * a4 + h65 * a5,
                          I + h61 * b1 + h62 * b2 + h63 * b3 + h64 * b4 + h65 * b5,
                          R + h61 * r1 + h62 * r2 + h63 * r3 + h64 * r4 + h65 * r5,
                          V + h61 * v1 + h62 * v2 + h63 * v3 + h64 * v4 + h65 * v5)
            lam, mu, p, eta, alpha, beta, sigma, gamma = left or c7
            m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
            qs, qv = x if g_phi is None else g_phi(x), w if g_psi is None else g_psi(w)
            if divides:
                ds = 1.0 + a_phi * y if a_phi else x + y + z + w if pop_phi else 1.0
                dv = (1.0 + a_psi * y if a_psi else
                      (ds if same_n else x + y + z + w) if pop_psi else 1.0)
                qs, qv = qs / ds if ds else 0.0, qv / dv if dv else 0.0
            inc_s, inc_v = beta * qs * y, sigma * qv * y
            a6 = lam - inc_s - m_s * x + eta * w
            b6 = inc_s + inc_v - m_i * y
            r6 = gamma * y - mu * z
            v6 = p * x - m_v * w - inc_v
            x, y, z, w = (S + hb1 * a1 + hb3 * a3 + hb4 * a4 + hb5 * a5 + hb6 * a6,
                          I + hb1 * b1 + hb3 * b3 + hb4 * b4 + hb5 * b5 + hb6 * b6,
                          R + hb1 * r1 + hb3 * r3 + hb4 * r4 + hb5 * r5 + hb6 * r6,
                          V + hb1 * v1 + hb3 * v3 + hb4 * v4 + hb5 * v5 + hb6 * v6)
            qs, qv = x if g_phi is None else g_phi(x), w if g_psi is None else g_psi(w)
            if divides:
                ds = 1.0 + a_phi * y if a_phi else x + y + z + w if pop_phi else 1.0
                dv = (1.0 + a_psi * y if a_psi else
                      (ds if same_n else x + y + z + w) if pop_psi else 1.0)
                qs, qv = qs / ds if ds else 0.0, qv / dv if dv else 0.0
            inc_s, inc_v = beta * qs * y, sigma * qv * y
            a7 = lam - inc_s - m_s * x + eta * w
            b7 = inc_s + inc_v - m_i * y
            r7 = gamma * y - mu * z
            v7 = p * x - m_v * w - inc_v
            seen.fromlist([S, I, R, V, x, y, z, w,
                           he1 * a1 + he3 * a3 + he4 * a4 + he5 * a5 + he6 * a6 + he7 * a7,
                           he1 * b1 + he3 * b3 + he4 * b4 + he5 * b5 + he6 * b6 + he7 * b7,
                           he1 * r1 + he3 * r3 + he4 * r4 + he5 * r5 + he6 * r6 + he7 * r7,
                           he1 * v1 + he3 * v3 + he4 * v4 + he5 * v5 + he6 * v6 + he7 * v7])
            S, I, R, V = x, y, z, w
            out.fromlist([S, I, R, V])
            if left is None:  # first same as last
                a1, b1, r1, v1 = a7, b7, r7, v7
                fresh = False
            else:  # the step ended on a breakpoint: the next one starts from its right
                lam, mu, p, eta, alpha, beta, sigma, gamma = c7
                m_s, m_i, m_v = mu + p, mu + alpha + gamma, mu + eta
                fresh = True
        c0 = lam, mu, p, eta, alpha, beta, sigma, gamma
        return S, I, R, V

    return advance, seen


def _largest_estimate(seen: array) -> float:
    """The largest estimate in `seen` (rows y_n, y_n+1 and the estimated error,
    four numbers each, as `_dp5_stepper` appends them), each component
    relative to max(|y_n|, |y_n+1|), an error of 0 reading 0 and a NaN reading
    inf; `seen` is emptied."""
    rows = np.frombuffer(seen).reshape(-1, 12)
    err = np.abs(rows[:, 8:])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = err / np.maximum(np.abs(rows[:, :4]), np.abs(rows[:, 4:8]))
    del rows  # the view, before `seen` is emptied
    del seen[:]
    largest = float(ratio.max(initial=0.0))
    if largest != largest:  # 0 / 0, or a NaN
        ratio[err == 0.0] = 0.0
        largest = float(ratio.max())
    return largest if largest == largest else math.inf
