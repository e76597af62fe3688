"""Step-size bounds under which discrete and continuous verdicts agree.

With Lambda, mu, eta and p constant, the disease-free solution is the
equilibrium (a, b) and the continuous threshold integrand reduces to

    f(t) = beta(t) g_phi(a) + sigma(t) g_psi(b) - mu - alpha(t) - gamma(t).

When the continuous window integral is decisively negative (positive), the
discrete window product at step h keeps the same verdict for every

    h < h_max = |R_C(lam)| / (sup_t |f'(t)| * (lam + 1)),

the upper bound using R_C^u < 0, the lower one R_C^l > 0.  A constant f
(sup |f'| = 0) yields an unbounded guarantee.  This module builds f, takes
the sup and evaluates the bounds into a `ConsistencyReport`, which holds the
continuous `ThresholdReport` they come from.  The empirical h-sweep returns
(h, discrete ThresholdReport) pairs, the one shape of a per-step-size result,
so a sweep is read like a scenario's discrete reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .dynamics import AuxState, steps_for
from .errors import ConfigError, StepError
from .incidence import IncidenceFn
from .schedules import (DISEASE_FREE_NAMES, DenominatorFn, DiscreteParams,
                        ParamSchedule, ScheduleSet, mickens_discretize)
# consistency_report takes the continuous report from its caller; continuous_thresholds
# stays importable here because perfbench/tracing.py looks it up in this module
from .thresholds import (ThresholdReport, Verdict, continuous_thresholds,  # noqa: F401
                         _disease_free_population, discrete_thresholds,
                         disease_free_equilibrium)

_CD_STEP = 1e-5
_SUP_GRID = 100_000
_SUP_CHUNK = 4096  # grid points per evaluation of f'
_SWEEP_FRACS = (0.01, 0.99)  # the sweep's step sizes, as fractions of the bound
_F_NAMES = ("beta", "sigma", "alpha", "gamma")  # the varying coefficients of f


@dataclass
class ConsistencyReport:
    """The continuous report, sup |f'|, and the step bounds they imply.

    `h_max_upper` is populated only when the continuous r_upper < 0 (extinction
    side), `h_max_lower` only when its r_lower > 0 (permanence side); math.inf
    means the guarantee holds for every step size in the small-step regime.
    `notes` carries labeled reference values so documented discrepancies
    stay visible next to the computed numbers.
    """

    continuous: ThresholdReport  # its lam is the window of the bounds
    sup_abs_fprime: float
    fprime_argmax: float
    h_max_upper: float | None
    h_max_lower: float | None
    equilibrium: tuple[float, float]
    f_samples: np.ndarray = field(compare=False, repr=False)  # shape (2, K): times and f values
    notes: dict = field(default_factory=dict)

    @property
    def verdict_bound(self) -> float | None:
        """The step bound on the side of the continuous verdict; None when
        the verdict is inconclusive."""
        if self.continuous.verdict is Verdict.EXTINCTION:
            return self.h_max_upper
        if self.continuous.verdict is Verdict.PERMANENCE:
            return self.h_max_lower
        return None


class FprimeSup(NamedTuple):
    value: float
    argmax: float


def consistency_skip_reason(schedules: ScheduleSet) -> str:
    """Empty string when the step-bound analysis applies, else the reason.

    The analysis needs constant Lambda, mu, eta, p (so the disease-free
    solution is the equilibrium) and a differentiable f, which a
    non-constant step-function beta, sigma, alpha or gamma rules out.
    """
    for name in DISEASE_FREE_NAMES:
        if getattr(schedules, name).constant is None:
            return f"schedule {name!r} is not constant"
    for name in _F_NAMES:
        s = getattr(schedules, name)
        if not s.smooth and s.constant is None:
            return f"schedule {name!r} is a step function (not differentiable)"
    return ""


def _applicable_equilibrium(schedules: ScheduleSet) -> AuxState:
    reason = consistency_skip_reason(schedules)
    if reason:
        raise ValueError(f"step-bound analysis does not apply: {reason}")
    return disease_free_equilibrium(schedules)


def net_growth_function(schedules: ScheduleSet, phi: IncidenceFn,
                        psi: IncidenceFn) -> tuple[Callable, Callable, bool]:
    """Build f(t) and f'(t) along the disease-free equilibrium.

    Requires constant Lambda, mu, eta, p and no step-function beta, sigma,
    alpha, gamma; otherwise raises ValueError with `consistency_skip_reason`.
    f' is assembled from the schedules' analytic derivatives when beta,
    sigma, alpha, gamma all carry one; otherwise it falls back to
    Richardson-extrapolated central differences with step 1e-5.  Returns
    (f, fprime, analytic); an analytic fprime carries `harmonic`, the (Z, omega)
    of `sup_abs_fprime`'s closed form, or None.
    """
    return _net_growth(schedules, phi, psi, _applicable_equilibrium(schedules))


def _net_growth(schedules: ScheduleSet, phi: IncidenceFn, psi: IncidenceFn,
                equilibrium: AuxState) -> tuple[Callable, Callable, bool]:
    a, b = equilibrium
    pop = _disease_free_population(phi, psi, a, b)
    ga = float(phi.d2_at_zero(a, pop))
    gb = float(psi.d2_at_zero(b, pop))
    mu = schedules.mu.constant

    def f(t):
        beta, sigma, alpha, gamma = schedules.evaluate(_F_NAMES, t, ParamSchedule.eval)
        return beta * ga + sigma * gb - mu - alpha - gamma

    analytic = all(getattr(schedules, n).has_derivative for n in _F_NAMES)
    if analytic:
        def fprime(t):
            beta, sigma, alpha, gamma = schedules.evaluate(_F_NAMES, t,
                                                           ParamSchedule.derivative_at)
            return beta * ga + sigma * gb - alpha - gamma

        fprime.harmonic = schedules.one_sinusoid(_F_NAMES, (ga, gb, -1.0, -1.0))
    else:
        def fprime(t):
            # Richardson-extrapolated central differences; points closer to 0
            # than the stencil are evaluated at the clamped abscissa instead.
            tt = np.maximum(np.asarray(t, dtype=float), _CD_STEP)
            d1 = (f(tt + _CD_STEP) - f(tt - _CD_STEP)) / (2.0 * _CD_STEP)
            d2 = (f(tt + _CD_STEP / 2) - f(tt - _CD_STEP / 2)) / _CD_STEP
            out = (4.0 * d2 - d1) / 3.0
            return out if isinstance(t, np.ndarray) else float(out)

    return f, fprime, analytic


def sup_abs_fprime(fprime: Callable, scan: tuple[float, float]) -> FprimeSup:
    """Maximum of |f'| over the scan range, with its argmax.

    In closed form when f' is one sinusoid, -omega Im(Z e^{i omega t}) (the
    `harmonic` attribute (Z, omega) that `net_growth_function` sets when each
    non-constant beta, sigma, alpha, gamma is harmonic with one omega), over a
    scan of at least half its period: the argmax is the first t* >= t0 with
    omega t* + arg Z = pi/2 mod pi, and the value max(|Z| omega, |f'(t*)|), never
    below f' at its own argmax.  Otherwise the maximum over a grid of 1e5 steps, exact up to grid
    resolution; one period suffices for periodic f.  The grid maximum can only
    underestimate the sup (on inconsistency_4 by 6e-8 relative).

    The grid is built once and f' is evaluated on `_SUP_CHUNK` points of it at a
    time, so the scan holds the grid (0.8 MB) plus the values of f' on one chunk:
    a traced peak of 1.03 MB on inconsistency_4's f', 1.16 MB with central
    differences, against 4.8 and 8.0 MB for the whole grid at once.  A later
    chunk replaces the maximum only when strictly greater, so the argmax is the
    first one, as np.argmax gives on the whole grid.  A non-finite f' on the grid
    is a StepError naming its abscissa.
    """
    t0, t1 = (float(s) for s in scan)
    if not t1 > t0:
        raise ValueError("empty scan range")
    harmonic = getattr(fprime, "harmonic", None)
    if harmonic is not None and t1 - t0 >= math.pi / harmonic[1]:
        z, omega = harmonic
        arg_z = math.atan2(z.imag, z.real)
        t = t0 + ((math.pi / 2.0 - arg_z - omega * t0) % math.pi) / omega
        return FprimeSup(value=max(abs(z) * omega, abs(float(fprime(t)))), argmax=t)
    ts = np.linspace(t0, t1, _SUP_GRID + 1)
    best = FprimeSup(value=-1.0, argmax=t0)
    for start in range(0, ts.size, _SUP_CHUNK):
        chunk = ts[start:start + _SUP_CHUNK]
        vals = np.abs(np.asarray(fprime(chunk), dtype=float))
        i = int(np.argmax(vals))  # the first NaN, if there is one
        if not math.isfinite(vals[i]):
            raise StepError(f"consistency report: non-finite f' at t={chunk[i]:g}")
        if vals[i] > best.value:  # strictly: a tie keeps the first argmax
            best = FprimeSup(value=float(vals[i]), argmax=float(chunk[i]))
    return best


def h_max(r_c: float, sup_fprime: float, lam: float, side: str) -> float | None:
    """Theoretical step bound; None when the sign condition fails.

    side="upper": needs r_c < 0, returns -r_c / (sup |f'| (lam+1)).
    side="lower": needs r_c > 0, returns  r_c / (sup |f'| (lam+1)).
    A zero sup |f'| (constant coefficients) gives an unbounded guarantee.
    """
    if side not in ("upper", "lower"):
        raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")
    if sup_fprime < 0:
        raise ValueError("sup |f'| must be >= 0")
    if side == "upper":
        if not r_c < 0:
            return None
        magnitude = -r_c
    else:
        if not r_c > 0:
            return None
        magnitude = r_c
    if sup_fprime == 0.0:
        return math.inf
    return magnitude / (sup_fprime * (lam + 1.0))


def consistency_report(schedules: ScheduleSet, phi: IncidenceFn, psi: IncidenceFn,
                       continuous: ThresholdReport,
                       notes: dict | None = None) -> ConsistencyReport:
    """Assemble the full step-bound report for one model.

    `continuous` is `continuous_thresholds(schedules, phi, psi, lam)`; the
    bounds are for its window lam.  f' is scanned over the `regime` span, and
    is 0 where beta, sigma, alpha and gamma are constant.
    """
    lam = continuous.lam
    equilibrium = _applicable_equilibrium(schedules)
    f, fprime, analytic = _net_growth(schedules, phi, psi, equilibrium)
    regime = schedules.regime()
    constant = schedules.regime(_F_NAMES).kind == "constant"
    # f' = 0 for constant coefficients: the scan's start, as the grid gives it
    sup = FprimeSup(0.0, 0.0) if constant else sup_abs_fprime(fprime, (0.0, regime.span))
    ts = np.linspace(0.0, regime.span, 65)
    report_notes = dict(notes or {})
    if regime.period is None and not constant:
        report_notes.setdefault(
            "sup_fprime_scan",
            f"aperiodic coefficients: sup |f'| taken over [0, {regime.span:g}] only")
    if not analytic:
        report_notes.setdefault("fprime", "central differences (no analytic derivative)")
    return ConsistencyReport(
        continuous=continuous,
        sup_abs_fprime=sup.value,
        fprime_argmax=sup.argmax,
        h_max_upper=h_max(continuous.r_upper, sup.value, lam, "upper"),
        h_max_lower=h_max(continuous.r_lower, sup.value, lam, "lower"),
        equilibrium=tuple(equilibrium),
        f_samples=np.vstack([ts, np.asarray(f(ts), dtype=float)]),
        notes=report_notes,
    )


def lambda_steps(lam: float, h: float) -> int:
    """Discrete window index for continuous window lam at step h.

    The product then has `steps_for(lam, h)` factors, the smallest step window
    spanning at least lam time units; for h not dividing lam this equals
    floor(lam/h).
    """
    if not (lam >= 0 and h > 0):
        raise ValueError("need lam >= 0 and h > 0")
    if not math.isfinite(lam / h):
        raise ConfigError(f"a threshold window of lam / h = {lam / h} steps "
                          "does not fit in memory")
    return steps_for(lam, h) - 1


def window_thresholds(dp: DiscreteParams, phi: IncidenceFn, psi: IncidenceFn,
                      lam: float) -> ThresholdReport:
    """Discrete thresholds at dp's step for the continuous window lam: window
    index `lambda_steps(lam, dp.h)` (the report's `lam`); `discrete_thresholds`
    decides which window starts it reads."""
    return discrete_thresholds(dp, phi, psi, lambda_steps(lam, dp.h))


def sweep_skip_reason(report: ConsistencyReport) -> str:
    """Empty string when the report has a finite step bound to sweep below,
    else the reason there is nothing to sweep."""
    if report.continuous.verdict is Verdict.INCONCLUSIVE:
        return "continuous verdict is inconclusive; no bound to sweep"
    bound = report.verdict_bound
    if bound is None or not math.isfinite(bound):
        return "step bound is unbounded or undefined; nothing to sweep"
    return ""


def consistency_sweep(schedules: ScheduleSet, phi: IncidenceFn, psi: IncidenceFn,
                      denominator: DenominatorFn, report: ConsistencyReport,
                      n: int = 16) -> list[tuple]:
    """Empirical check of the guarantee: the (h, discrete report) pairs at n
    log-spaced h from 1% to 99% of the report's h_max, for its window lam.

    Raises ValueError with `sweep_skip_reason` when there is no finite bound
    to sweep against.
    """
    reason = sweep_skip_reason(report)
    if reason:
        raise ValueError(reason)
    bound = report.verdict_bound
    lam = report.continuous.lam
    pairs = []
    for h in np.geomspace(bound * _SWEEP_FRACS[0], bound * _SWEEP_FRACS[1], int(n)):
        dp = mickens_discretize(schedules, float(h), denominator)
        pairs.append((dp.h, window_thresholds(dp, phi, psi, lam)))
    return pairs
