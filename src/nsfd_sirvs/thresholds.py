"""Extinction/permanence threshold quantities.

Discrete side: along the attracting disease-free orbit (x*_n, y*_n), the
per-step growth ratio of the infectives is

    r_k = (1 + beta_k d2f(x*_{k+1}, 0) + sigma_k d2g(y*_{k+1}, 0))
          / (1 + mu_k + alpha_k + gamma_k)

and the window quantities are products of lam + 1 consecutive ratios.  Their
liminf/limsup over the window start decide the verdict.  `discrete_thresholds`
alone decides which starts a report reads.  With an exact disease-free orbit and
step-periodic coefficients (period omega) the window products are omega-periodic
in the start, so the liminf and limsup are the min and max over the omega phases
(Wang & Zhao 2008): the report reads exactly those.  A window of k whole periods
is the one-period product to the k; any other window is read off log-space
sliding sums.  Only without a step period or an exact orbit does a report scan
the starts after a burn-in, and there the min/max only approximate them.
A window product above 1 forces permanence; below 1, extinction.

Continuous side: the analogous quantity is the sliding integral

    F(t) = int_t^{t+lam} beta g_phi(x*) + sigma g_psi(y*) - mu - alpha - gamma ds

compared against 0, evaluated by composite Simpson quadrature.
"""

from __future__ import annotations

import itertools
import math
import mmap
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError, StepError
from .dynamics import (AuxState, State, _checked_state, aux_equilibrium, h_label,
                       integrate_continuous, period_map_fixed_point, periodic_aux_solution,
                       simulate_aux, steps_for, verify_step_periodic)
from .incidence import IncidenceFn
from .schedules import (DISEASE_FREE_NAMES, DiscreteParams, ParamSchedule,
                        ScheduleSet, validate_hypotheses, window_sums)

BOUNDARY_TOL = 1e-12
BURN_IN, SCAN = 2000, 4000  # default window starts skipped, then scanned, by a discrete report
# a report's traced peak per growth ratio or quadrature point: at most 112 B
# measured (every coefficient seasonal, standard incidence), rounded up
_BYTES_PER_POINT = 128
_RATIO_NAMES = ("beta", "sigma", "mu", "alpha", "gamma")  # the coefficients of r_k and F


class Verdict(str, Enum):
    EXTINCTION = "Extinction"
    PERMANENCE = "Permanence"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class ThresholdReport:
    """Computed window quantities plus the classification they imply.

    `window_products` holds the product of every window start the report read,
    from `burn_in` to `burn_in + scan`, so non-stabilizing scans can be
    diagnosed.  `exact_periodic` marks reports that read every phase of a step
    period omega along the exact disease-free orbit (starts 0 .. omega - 1), so
    their min and max are the liminf and limsup themselves; with a window of k
    whole periods, r_lower == r_upper == (period product)^k.
    """

    mode: str  # "discrete" | "continuous"
    lam: float
    r_lower: float
    r_upper: float
    window_products: np.ndarray = field(compare=False, repr=False)
    burn_in: float
    scan: float
    verdict: Verdict
    exact_periodic: bool = False
    notes: tuple[str, ...] = ()


def classify(report: ThresholdReport) -> Verdict:
    """Map threshold values to a verdict.

    The theorems are strict inequalities, so values within `BOUNDARY_TOL`
    of the neutral level (1 for discrete windows, 0 for continuous
    integrals) are reported as Inconclusive rather than rounded either way.
    """
    if report.mode not in ("discrete", "continuous"):
        raise ValueError(f"unknown mode {report.mode!r}")
    neutral = 1.0 if report.mode == "discrete" else 0.0
    return _classify(report.r_lower, report.r_upper, neutral, BOUNDARY_TOL)


def _classify(r_lower: float, r_upper: float, neutral: float, tol: float) -> Verdict:
    if r_upper < neutral - tol:
        return Verdict.EXTINCTION
    if r_lower > neutral + tol:
        return Verdict.PERMANENCE
    return Verdict.INCONCLUSIVE


def _disease_free_population(phi: IncidenceFn, psi: IncidenceFn, x, y):
    """x + y, the population that a `standard` incidence divides by along the
    disease-free solution (x, y), or None when neither incidence reads it; a
    ConfigError where it is 0, at which the slope x / (x + y) is 0 / 0."""
    if not (phi.needs_population or psi.needs_population):
        return None
    pop = x + y
    if not np.all(pop > 0):
        raise ConfigError("standard incidence divides by the disease-free population "
                          "x* + y*, which is 0 here")
    return pop


def _growth_ratios(dp: DiscreteParams, phi: IncidenceFn, psi: IncidenceFn,
                   orbit: np.ndarray, period: int | None, k_lo: int, k_hi: int) -> np.ndarray:
    """r_k for k in [k_lo, k_hi), along the exact orbit's rows and its period,
    or an iterated orbit's rows for steps k_lo + 1 .. k_hi and period None.

    The incidence slopes are taken once per orbit row: on the period's rows,
    then repeated by index (broadcast for period 1), so a scan costs one period
    of slopes.  A sequence built constant is its value, not an array, and twin
    sequences are evaluated once (`DiscreteParams.columns`).  Every element is
    the same IEEE result as on a scan-length orbit and columns."""
    x, y = orbit[:, 0], orbit[:, 1]
    pop = _disease_free_population(phi, psi, x, y)
    slope_x, slope_y = phi.slope(x, pop), psi.slope(y, pop)
    if period is not None and period > 1:
        at = np.arange(k_lo + 1, k_hi + 1) % period
        slope_x, slope_y = slope_x[at], slope_y[at]
    beta, sigma, mu, alpha, gamma = dp.columns(_RATIO_NAMES, k_lo, k_hi)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = (1.0 + beta * slope_x + sigma * slope_y) / (1.0 + mu + alpha + gamma)
    if not np.isfinite(ratios).all():  # a NaN must never reach a verdict or `exact_periodic`
        raise StepError(f"discrete threshold report at h={h_label(dp.h)}: non-finite growth ratio")
    if not (ratios > 0).all():  # whose log in the window scan would be NaN
        raise StepError(f"discrete threshold report at h={h_label(dp.h)}: "
                        "non-positive growth ratio")
    return np.broadcast_to(ratios, (k_hi - k_lo,)).copy()  # one element per step, always


def _disease_free_orbit(dp: DiscreteParams, omega: int | None,
                        aux_start: AuxState | None) -> np.ndarray | None:
    """The omega rows of the exact disease-free orbit (row j at the steps j mod
    omega), for `omega` a declared step period of Lambda, mu, p, eta (constancy
    is declared, never observed); None without one or when the period map is
    singular (raised instead if there is no `aux_start`), and a report then
    iterates the orbit from `aux_start`.  A given start is checked first,
    whichever orbit is taken."""
    if aux_start is not None:
        _checked_state(aux_start)
    if omega is not None:
        try:
            return periodic_aux_solution(dp, omega)
        except (ValueError, StepError):
            if aux_start is None:
                raise
    return None


def _check_fits(window: str, n_points: int) -> None:
    """ConfigError unless a report over n_points growth ratios or quadrature
    points fits in memory: its peak, `_BYTES_PER_POINT` per point, is mapped
    before the report builds any array of that length.  No page of the mapping
    is touched, so the probe adds nothing to the resident memory."""
    try:
        with mmap.mmap(-1, n_points * _BYTES_PER_POINT):
            pass
    except (OSError, OverflowError) as exc:  # OverflowError: beyond the address space
        raise ConfigError(f"a {window} does not fit in memory ({float(n_points):.3g} points "
                          f"at {_BYTES_PER_POINT} bytes each)") from exc


def discrete_thresholds(dp: DiscreteParams, phi: IncidenceFn, psi: IncidenceFn,
                        lam: int, burn_in: int = BURN_IN, scan: int = SCAN,
                        aux_start: AuxState = AuxState(1.0, 1.0)) -> ThresholdReport:
    """Window products of the per-step growth ratios along the disease-free orbit.

    The product for window start n runs over k = n .. n + lam (lam + 1
    factors).  This is the one place that decides which starts a report reads.
    With an exact orbit and a step period omega of every coefficient
    (`verify_step_periodic`) the products are omega-periodic in n, so the report
    reads exactly n = 0 .. omega - 1 and is `exact_periodic`: a window of whole
    periods is the one-period product, multiplied by a left fold; any other
    takes its omega products over the omega + lam ratios from step 0.  Only
    otherwise does it scan n = burn_in .. burn_in + max(scan, lam), at least one
    window of starts, along an orbit iterated from `aux_start` when it is not
    exact; `burn_in` and `scan` are read there alone.
    """
    lam = int(lam)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    burn_in = int(burn_in)
    scan = int(scan)
    if burn_in < 0 or scan < 0:
        raise ValueError("need burn_in >= 0 and scan >= 0")

    omega = dp.step_period
    scan_starts = (burn_in, max(scan, lam) + 1)  # (first start, number of starts)
    first, n_starts = (0, omega) if omega is not None else scan_starts
    label = f"threshold window of {lam + 1:.3g} steps"
    _check_fits(label, n_starts + lam)
    orbit = _disease_free_orbit(dp, dp.aux_step_period, aux_start)
    exact = omega is not None and orbit is not None
    if exact:
        try:  # the growth ratios read every coefficient, not only the orbit's four
            verify_step_periodic(dp, omega)
        except ValueError:
            exact = False
    if omega is not None and not exact:  # the scan after all
        first, n_starts = scan_starts
        _check_fits(label, n_starts + lam)
    notes = []
    period = dp.aux_step_period
    if orbit is None:  # iterated: one row per step of the scan, and no period
        orbit, period = simulate_aux(dp, aux_start, first + n_starts + lam)[first + 1:], None
        notes.append("no periodic disease-free orbit (no step period of Lambda, mu, p, "
                     f"eta, or a singular period map): iterated from ({aux_start.x:g}, "
                     f"{aux_start.y:g}) at step 0, so the scan may read the attraction "
                     "transient")
    if exact and (lam + 1) % omega == 0:  # every window is the period product, k times over
        r = math.prod(itertools.repeat(_period_product(dp, phi, psi, orbit, period, omega),
                                       (lam + 1) // omega))
        window = np.full(omega, r)
    else:  # a product past the largest double is inf, which still classifies
        ratios = _growth_ratios(dp, phi, psi, orbit, period, first, first + n_starts + lam)
        with np.errstate(over="ignore"):
            window = np.exp(window_sums(np.log(ratios), lam + 1))
    if phi.needs_population or psi.needs_population:
        notes.append("population-scaled incidence: population along the "
                     "disease-free orbit taken as x* + y*")
    r_lower = float(window.min())
    r_upper = float(window.max())
    return ThresholdReport(
        mode="discrete", lam=lam, r_lower=r_lower, r_upper=r_upper,
        window_products=window, burn_in=first, scan=n_starts - 1,
        verdict=_classify(r_lower, r_upper, 1.0, BOUNDARY_TOL),
        exact_periodic=exact, notes=tuple(notes),
    )


def periodic_discrete_threshold(dp: DiscreteParams, phi: IncidenceFn,
                                psi: IncidenceFn, omega: int) -> float:
    """Exact one-period product for omega-periodic coefficients: an exact report's factor."""
    omega = int(omega)
    try:
        verify_step_periodic(dp, omega)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    period = dp.aux_step_period or omega
    return _period_product(dp, phi, psi, _disease_free_orbit(dp, period, None), period, omega)


def _period_product(dp: DiscreteParams, phi: IncidenceFn, psi: IncidenceFn,
                    orbit: np.ndarray, period: int, omega: int) -> float:
    """r_0 * .. * r_{omega-1} in step order, the product of every whole-period window."""
    return math.prod(_growth_ratios(dp, phi, psi, orbit, period, 0, omega).tolist())


def disease_free_equilibrium(schedules: ScheduleSet) -> AuxState:
    """The equilibrium (a, b) of the disease-free pair; needs constant
    Lambda, mu, eta and p."""
    values = schedules.constants(("Lambda", "mu", "eta", "p"))
    if values is None:
        raise ValueError("the disease-free equilibrium needs constant Lambda, mu, eta and p")
    return aux_equilibrium(*values)


def continuous_thresholds(schedules: ScheduleSet, phi: IncidenceFn, psi: IncidenceFn,
                          lam: float, scan: tuple[float, float] | None = None,
                          quad_step: float | None = None) -> ThresholdReport:
    """Sliding-window integrals F(t) over the scan range, by composite Simpson.

    The scan is the range of window starts t, of any length: the quadrature
    grid runs on to its end plus one window.  The default is the `regime`
    span, one common period, which covers every start whatever lam is, as F
    is T-periodic in t for T-periodic coefficients; else at least lam.  With
    Lambda, mu, eta, p constant (their `regime`) the disease-free solution is
    the exact equilibrium (a, b); otherwise it is the periodic solution,
    integrated with RK4 on the quadrature grid (same order as the quadrature)
    from its value at t = 0.  Only where their regime is aperiodic does the
    scan start need to sit past an attraction transient.
    """
    lam = float(lam)
    if not (lam > 0 and math.isfinite(lam)):
        raise ValueError("lam must be positive and finite")
    if quad_step is None:
        quad_step = min(0.05, lam / 64.0) / 4.0
    if quad_step > lam / 16.0:
        raise ConfigError(f"quad_step {quad_step} too coarse for window {lam} "
                          "(need quad_step <= lam/16)")
    if scan is None:
        regime = schedules.regime()
        scan = (0.0, regime.period or max(lam, regime.span))
    t0, t1 = (float(s) for s in scan)

    # quadrature grid from t = 0: the window is exactly 2m subintervals of
    # width q, and window starts are the grid points inside [t0, t1]
    m = max(8, steps_for(lam, 2.0 * quad_step))
    q = lam / (2.0 * m)
    n_grid = steps_for(t1, q) + 2 * m
    _check_fits(f"continuous threshold window of {lam:.3g} time units over the starts "
                f"[{t0:g}, {t1:g}]", n_grid + 1)
    ts = q * np.arange(n_grid + 1)

    notes = []
    free = schedules.regime(DISEASE_FREE_NAMES)
    if free.kind == "constant":
        a, b = disease_free_equilibrium(schedules)
        x_star = np.full(ts.shape, a)
        y_star = np.full(ts.shape, b)
    else:
        x_star, y_star, note = _disease_free_solution(schedules, free.period, n_grid, q)
        if note:
            notes.append(note)

    pop = _disease_free_population(phi, psi, x_star, y_star)
    if pop is not None:
        notes.append("population-scaled incidence: population along the "
                     "disease-free solution taken as x* + y*")

    beta, sigma, mu, alpha, gamma = schedules.evaluate(_RATIO_NAMES, ts, ParamSchedule.column)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite F is raised below
        integrand = (beta * phi.slope(x_star, pop)
                     + sigma * psi.slope(y_star, pop) - mu - alpha - gamma)

    weights = np.ones(2 * m + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= q / 3.0
    F = np.correlate(integrand, weights, mode="valid")

    starts = ts[: F.size]
    keep = (starts >= t0 - 1e-12) & (starts <= t1 + 1e-12)
    F = F[keep]
    if F.size == 0:
        raise ValueError("scan range contains no quadrature grid points")
    if not np.isfinite(F).all():
        raise StepError("continuous threshold report: non-finite window integral")

    r_lower = float(F.min())
    r_upper = float(F.max())
    return ThresholdReport(
        mode="continuous", lam=lam, r_lower=r_lower, r_upper=r_upper,
        window_products=F, burn_in=t0, scan=t1 - t0,
        verdict=_classify(r_lower, r_upper, 0.0, BOUNDARY_TOL),
        exact_periodic=False, notes=tuple(notes),
    )


def _disease_free_solution(schedules: ScheduleSet, T: float | None, n_steps: int, q: float):
    """(x*, y*) at t = 0, q, .., n_steps q and a note: RK4 on the disease-free pair,
    which is the continuous model with I = R = 0.  The start is the fixed point
    of the period map z -> M z + c (Bacaer & Guernaoui 2006), composed from runs
    over T, the `regime` period of Lambda, mu, p and eta (the pair reads no other
    coefficient), from (0, 0) and, with Lambda = 0, from the unit vectors, so the
    solution is the periodic one.  With T None (no common period), or with
    mu = 0 (the map is singular), it starts at (1, 1) and the note says so."""
    def run(sched, x, y, t_end, h):  # rows (x, y)
        inc = IncidenceFn.mass_action()  # I = 0 switches any incidence off
        return integrate_continuous(sched, inc, inc, State(x, 0.0, 0.0, y),
                                    t_end, h).states[:, [0, 3]]

    start, note = None, ""
    if T is not None and schedules.mu.constant != 0:
        h = T / steps_for(T, q)
        free = replace(schedules, Lambda=ParamSchedule.constant("Lambda", 0.0))
        start = period_map_fixed_point(run(schedules, 0.0, 0.0, T, h)[-1],
                                       run(free, 1.0, 0.0, T, h)[-1],
                                       run(free, 0.0, 1.0, T, h)[-1])
    if start is None:
        start = (1.0, 1.0)
        note = ("no periodic disease-free solution (no common period, or mu = 0): "
                "integrated from (1, 1) at t = 0, so the scan may read the "
                "attraction transient")
    orbit = run(schedules, *start, n_steps * q, q)
    return orbit[:, 0], orbit[:, 1], note


@dataclass(frozen=True)
class IndependenceResult:
    """Spread of threshold values across distinct aux starting points."""

    spread: float | None
    skipped: bool
    reason: str = ""
    per_start: tuple = ()


def independence_check(dp: DiscreteParams, phi: IncidenceFn, psi: IncidenceFn,
                       lam: int, starts: Sequence[AuxState]) -> IndependenceResult:
    """Max pairwise threshold difference across aux starts.

    The window quantities do not depend on the particular positive
    disease-free solution, but that hinges on the orbit being attracting
    (hypotheses H3/H4); when those fail the check is skipped with a
    diagnostic instead of reporting a meaningless spread.
    """
    starts = [AuxState(*s) for s in starts]
    if len(starts) < 2:
        raise ValueError("need at least two starting points")
    if any(not s.x > 0 or not s.y > 0 for s in starts):  # NaN fails too
        raise ValueError("starting points must be strictly positive")

    omega = dp.step_period or 1
    hyp = validate_hypotheses(dp, window=omega, stop=BURN_IN)
    if not (hyp.h3_holds and hyp.h4_holds):
        failing = []
        if not hyp.h3_holds:
            failing.append(f"H3 (max window product {hyp.h3_max_product:.6g} >= 1)")
        if not hyp.h4_holds:
            failing.append("H4 (a window sum of Lambda or p vanishes)")
        return IndependenceResult(
            spread=None, skipped=True,
            reason="attractivity hypotheses fail: " + "; ".join(failing))

    reports = [discrete_thresholds(dp, phi, psi, lam, aux_start=s) for s in starts]
    spread = 0.0
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            spread = max(spread,
                         abs(reports[i].r_lower - reports[j].r_lower),
                         abs(reports[i].r_upper - reports[j].r_upper))
    return IndependenceResult(
        spread=spread, skipped=False,
        per_start=tuple((s, r.r_lower, r.r_upper) for s, r in zip(starts, reports)))
