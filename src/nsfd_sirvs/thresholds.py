"""Extinction/permanence threshold quantities.

Discrete side: along the attracting disease-free orbit (x*_n, y*_n), the
per-step growth ratio of the infectives is

    r_k = (1 + beta_k d2f(x*_{k+1}, 0) + sigma_k d2g(y*_{k+1}, 0))
          / (1 + mu_k + alpha_k + gamma_k)

and the window quantities are products of lam + 1 consecutive ratios.  The
liminf/limsup over the window start are approximated by the min/max over a
finite scan after a burn-in; for step-periodic coefficients with the window
an exact multiple of the period, the surrogate is exact.  A window product
above 1 forces permanence; below 1, extinction.

Continuous side: the analogous quantity is the sliding integral

    F(t) = int_t^{t+lam} beta g_phi(x*) + sigma g_psi(y*) - mu - alpha - gamma ds

compared against 0, evaluated by composite Simpson quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .dynamics import (AuxState, aux_equilibrium, periodic_aux_solution,
                       simulate_aux, verify_step_periodic)
from .incidence import IncidenceFn
from .schedules import DiscreteParams, ScheduleSet, validate_hypotheses

BOUNDARY_TOL = 1e-12


class Verdict(str, Enum):
    EXTINCTION = "Extinction"
    PERMANENCE = "Permanence"
    INCONCLUSIVE = "Inconclusive"


@dataclass
class ThresholdReport:
    """Computed window quantities plus the classification they imply.

    `window_products` holds the per-window series so non-stabilizing scans
    can be diagnosed.  `exact_periodic` marks reports where the finite
    surrogate is exact (step-periodic coefficients, window a whole number of
    periods); then r_lower == r_upper up to rounding.
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


def classify(report: ThresholdReport, mode: str | None = None,
             boundary_tol: float = BOUNDARY_TOL) -> Verdict:
    """Map threshold values to a verdict.

    The theorems are strict inequalities, so values within `boundary_tol`
    of the neutral level (1 for discrete windows, 0 for continuous
    integrals) are reported as Inconclusive rather than rounded either way.
    """
    mode = mode or report.mode
    if mode not in ("discrete", "continuous"):
        raise ValueError(f"unknown mode {mode!r}")
    neutral = 1.0 if mode == "discrete" else 0.0
    return _classify(report.r_lower, report.r_upper, neutral, boundary_tol)


def _classify(r_lower: float, r_upper: float, neutral: float, tol: float) -> Verdict:
    if r_upper < neutral - tol:
        return Verdict.EXTINCTION
    if r_lower > neutral + tol:
        return Verdict.PERMANENCE
    return Verdict.INCONCLUSIVE


def _window_products(ratios: np.ndarray, width: int) -> np.ndarray:
    # log-space sliding sums: safe against over/underflow for wide windows
    logs = np.log(ratios)
    c = np.concatenate([[0.0], np.cumsum(logs)])
    return np.exp(c[width:] - c[:-width])


def _growth_ratios(dp: DiscreteParams, phi: IncidenceFn, psi: IncidenceFn,
                   orbit_next: np.ndarray, k_lo: int, k_hi: int) -> np.ndarray:
    """r_k for k in [k_lo, k_hi); row i of `orbit_next` is (x*, y*) at k_lo + i + 1."""
    x_next, y_next = orbit_next[:, 0], orbit_next[:, 1]
    pop = x_next + y_next if (phi.needs_population or psi.needs_population) else None
    beta, sigma, mu, alpha, gamma = (dp.array(name, k_lo, k_hi) for name in
                                     ("beta", "sigma", "mu", "alpha", "gamma"))
    num = 1.0 + beta * phi.slope(x_next, pop) + sigma * psi.slope(y_next, pop)
    return num / (1.0 + mu + alpha + gamma)


def discrete_thresholds(dp: DiscreteParams, phi: IncidenceFn, psi: IncidenceFn,
                        lam: int, burn_in: int = 2000, scan: int = 4000,
                        aux_start: AuxState = AuxState(1.0, 1.0)) -> ThresholdReport:
    """Window products of the per-step growth ratios along the aux orbit.

    The product for window start n runs over k = n .. n + lam (lam + 1
    factors); n scans [burn_in, burn_in + scan].
    """
    lam = int(lam)
    if lam < 0:
        raise ValueError("lam must be >= 0")
    burn_in = int(burn_in)
    scan = int(scan)
    if burn_in < 0 or scan < lam + 1:
        raise ValueError("need burn_in >= 0 and scan >= lam + 1")

    ks_lo, ks_hi = burn_in, burn_in + scan + lam + 1
    orbit = simulate_aux(dp, AuxState(*aux_start), ks_hi)
    ratios = _growth_ratios(dp, phi, psi, orbit[ks_lo + 1: ks_hi + 1], ks_lo, ks_hi)
    window = _window_products(ratios, lam + 1)
    notes = ()
    if phi.needs_population or psi.needs_population:
        notes = ("population-scaled incidence: population along the "
                 "disease-free orbit taken as x* + y*",)

    r_lower = float(window.min())
    r_upper = float(window.max())
    omega = dp.step_period
    exact = omega is not None and (lam + 1) % omega == 0
    return ThresholdReport(
        mode="discrete", lam=lam, r_lower=r_lower, r_upper=r_upper,
        window_products=window, burn_in=burn_in, scan=scan,
        verdict=_classify(r_lower, r_upper, 1.0, BOUNDARY_TOL),
        exact_periodic=exact, notes=notes,
    )


def periodic_discrete_threshold(dp: DiscreteParams, phi: IncidenceFn,
                                psi: IncidenceFn, omega: int) -> float:
    """Exact one-period product for omega-periodic coefficients."""
    omega = int(omega)
    try:
        verify_step_periodic(dp, omega)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    orbit = periodic_aux_solution(dp, omega)
    ratios = _growth_ratios(dp, phi, psi, orbit[(np.arange(omega) + 1) % omega], 0, omega)
    prod = 1.0
    for r in ratios:
        prod *= float(r)
    return prod


def disease_free_equilibrium(schedules: ScheduleSet) -> AuxState:
    """The equilibrium (a, b) of the disease-free pair; needs constant
    Lambda, mu, eta and p."""
    return aux_equilibrium(schedules.Lambda.constant_value(),
                           schedules.mu.constant_value(),
                           schedules.eta.constant_value(),
                           schedules.p.constant_value())


def continuous_thresholds(schedules: ScheduleSet, phi: IncidenceFn, psi: IncidenceFn,
                          lam: float, scan: tuple[float, float] | None = None,
                          quad_step: float | None = None) -> ThresholdReport:
    """Sliding-window integrals F(t) over the scan range, by composite Simpson.

    With Lambda, mu, eta, p constant the disease-free solution is the exact
    equilibrium (a, b); otherwise the auxiliary pair is integrated with RK4
    on the quadrature grid (same order as the quadrature), so the scan start
    should sit past the attraction transient.
    """
    lam = float(lam)
    if not lam > 0:
        raise ValueError("lam must be positive")
    if quad_step is None:
        quad_step = min(0.05, lam / 64.0) / 4.0
    if quad_step > lam / 16.0:
        raise ConfigError(f"quad_step {quad_step} too coarse for window {lam} "
                          "(need quad_step <= lam/16)")
    if scan is None:
        T = schedules.common_period()
        scan = (0.0, T if T is not None else max(lam, 100.0))
    t0, t1 = (float(s) for s in scan)
    if t1 - t0 < lam - 1e-12:
        raise ValueError(f"scan length {t1 - t0} shorter than window {lam}")

    # quadrature grid from t = 0: the window is exactly 2m subintervals of
    # width q, and window starts are the grid points inside [t0, t1]
    m = max(8, int(math.ceil(lam / (2.0 * quad_step))))
    q = lam / (2.0 * m)
    n_grid = int(math.ceil(t1 / q - 1e-9)) + 2 * m
    ts = q * np.arange(n_grid + 1)

    aux_constant = all(getattr(schedules, n).is_constant for n in ("Lambda", "mu", "eta", "p"))
    if aux_constant:
        a, b = disease_free_equilibrium(schedules)
        x_star = np.full(ts.shape, a)
        y_star = np.full(ts.shape, b)
    else:
        # integrate the disease-free pair from (1, 1) at t = 0; callers must
        # place the scan start past the attraction transient
        x_star, y_star = _integrate_aux_ode(schedules, ts, q)

    notes = []
    pop = None
    if phi.needs_population or psi.needs_population:
        pop = x_star + y_star
        notes.append("population-scaled incidence: population along the "
                     "disease-free solution taken as x* + y*")

    beta = np.asarray(schedules.beta.eval(ts), dtype=float)
    sigma = np.asarray(schedules.sigma.eval(ts), dtype=float)
    mu = np.asarray(schedules.mu.eval(ts), dtype=float)
    alpha = np.asarray(schedules.alpha.eval(ts), dtype=float)
    gamma = np.asarray(schedules.gamma.eval(ts), dtype=float)
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

    r_lower = float(F.min())
    r_upper = float(F.max())
    return ThresholdReport(
        mode="continuous", lam=lam, r_lower=r_lower, r_upper=r_upper,
        window_products=F, burn_in=t0, scan=t1 - t0,
        verdict=_classify(r_lower, r_upper, 0.0, BOUNDARY_TOL),
        exact_periodic=False, notes=tuple(notes),
    )


def _integrate_aux_ode(schedules: ScheduleSet, ts: np.ndarray, q: float):
    """RK4 for x' = Lam - (mu+p) x + eta y, y' = p x - (mu+eta) y on the grid."""
    half = np.empty(2 * (ts.size - 1) + 1)
    half[0::2] = ts
    half[1::2] = ts[:-1] + q / 2.0
    lam = np.asarray(schedules.Lambda.eval(half), dtype=float)
    mu = np.asarray(schedules.mu.eval(half), dtype=float)
    p = np.asarray(schedules.p.eval(half), dtype=float)
    eta = np.asarray(schedules.eta.eval(half), dtype=float)

    def rhs(j, x, y):
        return (lam[j] - (mu[j] + p[j]) * x + eta[j] * y,
                p[j] * x - (mu[j] + eta[j]) * y)

    xs = np.empty(ts.size)
    ys = np.empty(ts.size)
    x, y = 1.0, 1.0
    xs[0], ys[0] = x, y
    for n in range(ts.size - 1):
        k1 = rhs(2 * n, x, y)
        k2 = rhs(2 * n + 1, x + q / 2 * k1[0], y + q / 2 * k1[1])
        k3 = rhs(2 * n + 1, x + q / 2 * k2[0], y + q / 2 * k2[1])
        k4 = rhs(2 * n + 2, x + q * k3[0], y + q * k3[1])
        x += q / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        y += q / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        xs[n + 1], ys[n + 1] = x, y
    return xs, ys


@dataclass(frozen=True)
class IndependenceResult:
    """Spread of threshold values across distinct aux starting points."""

    spread: float | None
    skipped: bool
    reason: str = ""
    per_start: tuple = ()


def independence_check(dp: DiscreteParams, phi: IncidenceFn, psi: IncidenceFn,
                       lam: int, starts: Sequence[AuxState],
                       burn_in: int = 2000, scan: int = 4000) -> IndependenceResult:
    """Max pairwise threshold difference across aux starts.

    The window quantities do not depend on the particular positive
    disease-free solution, but that hinges on the orbit being attracting
    (hypotheses H3/H4); when those fail the check is skipped with a
    diagnostic instead of reporting a meaningless spread.
    """
    starts = [AuxState(*s) for s in starts]
    if len(starts) < 2:
        raise ValueError("need at least two starting points")
    if any(s.x <= 0 or s.y <= 0 for s in starts):
        raise ValueError("starting points must be strictly positive")

    omega = dp.step_period or 1
    hyp = validate_hypotheses(dp, horizons=(omega, omega, omega), scan=(0, max(burn_in, 100)))
    if not (hyp.h3_holds and hyp.h4_holds):
        failing = []
        if not hyp.h3_holds:
            failing.append(f"H3 (max window product {hyp.h3_max_product:.6g} >= 1)")
        if not hyp.h4_holds:
            failing.append("H4 (a window sum of Lambda or p vanishes)")
        return IndependenceResult(
            spread=None, skipped=True,
            reason="attractivity hypotheses fail: " + "; ".join(failing))

    reports = [discrete_thresholds(dp, phi, psi, lam, burn_in, scan, aux_start=s)
               for s in starts]
    spread = 0.0
    for i in range(len(reports)):
        for j in range(i + 1, len(reports)):
            spread = max(spread,
                         abs(reports[i].r_lower - reports[j].r_lower),
                         abs(reports[i].r_upper - reports[j].r_upper))
    return IndependenceResult(
        spread=spread, skipped=False,
        per_start=tuple((s, r.r_lower, r.r_upper) for s, r in zip(starts, reports)))
