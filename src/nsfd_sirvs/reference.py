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

The run keeps only its state at each stop, read as it passes the stop; its
stepper, `_dp5_stepper`, writes out the model's one stage template
(`dynamics.explicit_stepper`) seven times in its loop.  A step costs
about 2.4 RK4 steps (six right-hand sides and denser stage sums against four),
so the reference is cheaper than RK4 at 0.02 where its estimate lets a gap
take under 0.4 of RK4's steps; a capped gap costs about 1.3 times RK4's.

Where the coefficients are T-periodic and the given times repeat with period
T, the run settles onto a periodic solution (permanence) or the disease-free
orbit (extinction; Wang & Zhao 2008).  The reference then stops integrating
once the change from one period to the next, summed as a geometric series of
its recent ratios, is below `_TAIL_BOUND`, and every later time takes the
state at its offset in the last integrated period.  On the periodic built-ins
it integrates 19 of 50 periods (persistence), 37 of 50 (extinction) and 93 of
400 (inconsistency_4).
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain, islice, repeat

import numpy as np

from .dynamics import State, _checked_state, _coefficient_rows, explicit_stepper
from .incidence import IncidenceFn
from .schedules import SCHEDULE_NAMES, ParamSchedule, Regime, ScheduleSet

REFERENCE_RTOL = 1e-8  # the bound on `dp5_reference`'s embedded estimate
REFERENCE_CAP_STEP = 0.04  # a reference gap takes at most steps_for(gap, 0.04) steps
# `dp5_reference` chooses its steps per block of gaps: the first block has
# _FIRST_BLOCK gaps, each later one at least _REFERENCE_BLOCK gaps and at least
# _BLOCK_STEPS steps at the cap, so that short gaps do not multiply the blocks
_FIRST_BLOCK, _REFERENCE_BLOCK, _BLOCK_STEPS = 8, 32, 256
_SAFETY, _GROWTH = 0.9, 2.0  # the step rule of `dp5_reference`
_TAIL_BOUND = 1e-9  # `dp5_reference` repeats its last period once the change left is below it

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


@dataclass(frozen=True, eq=False)
class Reference:
    """A `dp5_reference` run: its stops `times` (t = 0, the given times and
    the breakpoints, sorted) and its state at each, one row per stop, columns
    S, I, R, V; the steps it integrated, its largest step, its largest
    embedded estimate and the number of gaps where the estimate asked for
    more steps than the cap, all four up to its tail.  `tail` is
    {"kind": "repeated", "from_period": k, "bound": b} where every stop past
    period k repeats period k's state, b bounding the change that
    integrating on would add; else kind "none", with from_period and bound
    None."""

    times: np.ndarray
    states: np.ndarray
    method: str
    steps: int
    max_step: float
    largest_estimate: float
    capped_gaps: int
    tail: dict


def dp5_reference(schedules: ScheduleSet, phi: IncidenceFn, psi: IncidenceFn,
                  s0: State, times) -> Reference:
    """The Dormand-Prince 5(4) pair for `dynamics.integrate_continuous`'s model
    from t = 0, stopping exactly at each of `times` (>= 0) and at every
    breakpoint up to the last of them (`ScheduleSet.breakpoints`), so each of
    `times` ends a step and no step crosses a breakpoint.  Each gap between
    two stops takes equal steps, the last of which ends on the stop itself,
    and its end stages read the coefficients from the left (`_dp5_stepper`).

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

    The settled tail.  Where `regime()` is periodic with period T and the
    stops repeat with it over at least three periods (`_stops_per_period`:
    every run's h divides T), after each period k >= 2, d_k is the largest
    change of a state at a stop from period k - 1, each component relative
    to its largest value so far; rho is the largest of the last three ratios
    d_k / d_k-1.  Once rho < 1 and d_k rho / (1 - rho) < `_TAIL_BOUND`
    (1e-9), the run ends, and each later stop takes the state of the stop at
    its offset in period k, matched by index.  Every state up to the cut is
    the one a run to the end would have, bit for bit (the rows are the same;
    the run only stops reading them).  Elsewhere (aperiodic or constant
    coefficients, an h that does not divide T, fewer than three periods) it
    integrates to the end.

    The returned `Reference` holds the state at every stop, read off the
    stepper's record as the run passes the stop (32 B a stop).  Beyond them
    the run holds one block's rows and the stepper's record of one block's
    steps (96 B a step)."""
    times = np.asarray(times, dtype=float)
    if not (times.size and np.isfinite(times).all() and times.min() >= 0):
        raise ValueError("dp5_reference needs finite times >= 0")
    jumps = schedules.breakpoints(0.0, float(times.max()))
    stops = np.union1d(np.append(times, 0.0), jumps)
    gaps = np.diff(stops)
    if not gaps.size:
        raise ValueError("dp5_reference needs a time after t = 0")
    start = _checked_state(s0)
    at_stops = np.empty((stops.size, 4))  # the state at every stop
    at_stops[0] = start
    caps = _step_counts(gaps, REFERENCE_CAP_STEP)
    on_jump = np.isin(stops[1:], jumps)  # the gap ends on a breakpoint
    counts = caps.astype(int)  # a block's own counts replace its caps when it is planned
    capped = np.zeros(gaps.size, dtype=bool)
    m = _stops_per_period(schedules.regime(), stops)
    tail = {"kind": "none", "from_period": None, "bound": None}

    def rows_at(t, read=ParamSchedule.column):
        cols = schedules.evaluate(SCHEDULE_NAMES, t, read)
        return _coefficient_rows(
            lambda a, b: [c if isinstance(c, float) else c[a:b] for c in cols], t.size)

    advance, seen = _dp5_stepper(phi, psi, next(rows_at(np.zeros(1))))
    estimates, edges = [], _block_edges(caps)  # the largest estimate of each block
    top, changes = np.abs(at_stops[0]), []  # each component's largest value, each period's change

    def settled(i):
        """Read the state at stop i off `seen`; where stop i ends a period,
        whether the run has settled, and if so set the tail."""
        nonlocal top
        at_stops[i] = seen[-8:-4]  # y_n+1 of the last step, which ends on stop i
        if not m or i % m:
            return False
        now = at_stops[i - m + 1:i + 1]
        top = np.maximum(top, np.abs(now).max(axis=0))
        if i > m:  # d_k; a component that has been 0 throughout has not changed
            change = np.abs(now - at_stops[i - 2 * m + 1:i - m + 1]).max(axis=0)
            changes.append(float(np.max(change / np.where(top > 0.0, top, 1.0))))
        if len(changes) < 4:
            return False
        # the largest of the last three ratios: NaN, and so never settled,
        # where the run blew up or repeated a period exactly
        rho = float(np.max(np.divide(changes[-3:], changes[-4:-1])))
        if not rho < 1.0:
            return False
        bound = changes[-1] * rho / (1.0 - rho)
        if not bound < _TAIL_BOUND:
            return False
        tail.update(kind="repeated", from_period=i // m, bound=bound)
        return True

    def blocks():
        for a, b in zip(edges, edges[1:]):
            if a and settled(a):
                return
            if a:  # the previous block's largest estimate bounds this block's steps
                estimates.append(_largest_estimate(seen))
                e = estimates[-1]
                grow = (min(_GROWTH, _SAFETY * (REFERENCE_RTOL / e) ** 0.2) if e > 0.0
                        else _GROWTH)
                want = _step_counts(gaps[a:b], max_step * grow)  # inf where grow is 0
                capped[a:b] = want > caps[a:b]
                counts[a:b] = np.where(capped[a:b], caps[a:b], want)
            n = counts[a:b]
            hs = gaps[a:b] / n
            max_step = float(hs.max())
            ends = np.cumsum(n)  # of each gap, in steps from the block's start
            h = np.repeat(hs, n)
            t = np.repeat(stops[a:b], n) + (np.arange(ends[-1]) - np.repeat(ends - n, n)) * h
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
            block = zip(chain.from_iterable(map(repeat, weights, n.tolist())),
                        stages, stages, stages, stages, stages, lefts)
            for i, count in enumerate(n.tolist(), a):  # gap by gap, to read each stop
                if i > a and settled(i):
                    return
                yield islice(block, count)

    with np.errstate(all="ignore"):  # also over `blocks`, which runs as `advance` reads it
        at_end = advance(chain.from_iterable(blocks()), start)
    estimates.append(_largest_estimate(seen))
    end = stops.size - 1  # the last integrated stop
    if tail["kind"] == "repeated":  # each later stop takes the last period's at its offset
        end = tail["from_period"] * m
        at_stops[end + 1:] = at_stops[end - m + 1 + np.arange(stops.size - end - 1) % m]
    else:
        at_stops[end] = at_end
    return Reference(times=stops, states=at_stops, method="dp5", steps=int(counts[:end].sum()),
                     max_step=float(np.max(gaps[:end] / counts[:end])),
                     largest_estimate=max(estimates), capped_gaps=int(capped[:end].sum()),
                     tail=tail)


def _stops_per_period(regime: Regime, stops: np.ndarray) -> int | None:
    """m where the schedules are T-periodic and the sorted `stops`, from 0,
    repeat with period T: m of them in each [kT, (k + 1)T), stop j at stop
    j mod m plus (j // m) T to 1e-9 T, over at least three periods; else None."""
    if regime.kind != "periodic":
        return None
    T = regime.period
    m = int(np.searchsorted(stops, T * (1.0 - 1e-9)))
    j = np.arange(stops.size)
    if stops.size <= 3 * m or np.any(np.abs(stops - stops[j % m] - j // m * T) > 1e-9 * T):
        return None
    return m


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


_dp5_stepper = explicit_stepper('''
def _dp5_stepper(phi, psi, c0):
    """Dormand-Prince 5(4) steps of `dynamics.integrate_continuous`'s model
    over (S, I, R, V), and the array("d") to which each step appends y_n,
    y_n+1 and its estimated error h sum_j e_j k_j (`_largest_estimate` reads
    and empties it).  advance(rows, state) takes one step per row from
    `state`, a tuple of floats, and returns the last state.  A row is one
    step's `_DP5_WEIGHTS` times its step h, then the coefficient rows at
    t + c2 h .. t + c5 h and at its end, and its end read from the left where
    that differs (a step that ends on a breakpoint), else None: stages 6 and
    7 read the left limit, the next step's first stage the value.  c0 is the
    row at the start of the first step.

    The seventh stage is the next step's first (FSAL) wherever the end has no
    left row, so a step costs six right-hand sides.  The estimate's norm is
    taken per block, in NumPy, off the loop.
    """
    FORMS()
    seen = array("d")  # each step's y_n, y_n+1 and estimated error, for the planner

    def advance(rows, state):
        S, I, R, V = state
        LOAD(c0)
        RHS(1, S, I, R, V)
        for ((h21, h31, h32, h41, h42, h43, h51, h52, h53, h54, h61, h62, h63, h64, h65,
              hb1, hb3, hb4, hb5, hb6, he1, he3, he4, he5, he6, he7),
             c2, c3, c4, c5, c7, left) in rows:
            x, y, z, w = S + h21 * a1, I + h21 * b1, R + h21 * r1, V + h21 * v1
            LOAD(c2)
            RHS(2, x, y, z, w)
            x, y, z, w = (S + h31 * a1 + h32 * a2,
                          I + h31 * b1 + h32 * b2,
                          R + h31 * r1 + h32 * r2,
                          V + h31 * v1 + h32 * v2)
            LOAD(c3)
            RHS(3, x, y, z, w)
            x, y, z, w = (S + h41 * a1 + h42 * a2 + h43 * a3,
                          I + h41 * b1 + h42 * b2 + h43 * b3,
                          R + h41 * r1 + h42 * r2 + h43 * r3,
                          V + h41 * v1 + h42 * v2 + h43 * v3)
            LOAD(c4)
            RHS(4, x, y, z, w)
            x, y, z, w = (S + h51 * a1 + h52 * a2 + h53 * a3 + h54 * a4,
                          I + h51 * b1 + h52 * b2 + h53 * b3 + h54 * b4,
                          R + h51 * r1 + h52 * r2 + h53 * r3 + h54 * r4,
                          V + h51 * v1 + h52 * v2 + h53 * v3 + h54 * v4)
            LOAD(c5)
            RHS(5, x, y, z, w)
            x, y, z, w = (S + h61 * a1 + h62 * a2 + h63 * a3 + h64 * a4 + h65 * a5,
                          I + h61 * b1 + h62 * b2 + h63 * b3 + h64 * b4 + h65 * b5,
                          R + h61 * r1 + h62 * r2 + h63 * r3 + h64 * r4 + h65 * r5,
                          V + h61 * v1 + h62 * v2 + h63 * v3 + h64 * v4 + h65 * v5)
            LOAD(left or c7)
            RHS(6, x, y, z, w)
            x, y, z, w = (S + hb1 * a1 + hb3 * a3 + hb4 * a4 + hb5 * a5 + hb6 * a6,
                          I + hb1 * b1 + hb3 * b3 + hb4 * b4 + hb5 * b5 + hb6 * b6,
                          R + hb1 * r1 + hb3 * r3 + hb4 * r4 + hb5 * r5 + hb6 * r6,
                          V + hb1 * v1 + hb3 * v3 + hb4 * v4 + hb5 * v5 + hb6 * v6)
            RHS(7, x, y, z, w)
            seen.fromlist([S, I, R, V, x, y, z, w,
                           he1 * a1 + he3 * a3 + he4 * a4 + he5 * a5 + he6 * a6 + he7 * a7,
                           he1 * b1 + he3 * b3 + he4 * b4 + he5 * b5 + he6 * b6 + he7 * b7,
                           he1 * r1 + he3 * r3 + he4 * r4 + he5 * r5 + he6 * r6 + he7 * r7,
                           he1 * v1 + he3 * v3 + he4 * v4 + he5 * v5 + he6 * v6 + he7 * v7])
            S, I, R, V = x, y, z, w
            if left is None:  # first same as last
                a1, b1, r1, v1 = a7, b7, r7, v7
            else:  # the step ended on a breakpoint: the next one starts from its right
                LOAD(c7)
                RHS(1, S, I, R, V)
        return S, I, R, V

    return advance, seen
''', globals())


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
