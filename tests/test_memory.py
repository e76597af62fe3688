"""Working memory of the steppers, the trajectory writer, the sup |f'| scan and
the threshold reports, and of the reference.

A run keeps its returned states (32 B per step, 16 B per disease-free step);
everything else it holds is at most one fixed-size chunk of rows, so the peak
traced allocation stays within a small factor of the state bytes plus a fixed
slack, and the writer's peak does not depend on the number of rows.  The
sup |f'| scan holds its grid and the values of f' on one chunk of it.  A
threshold report stays within the bytes its memory probe asks for.  The
reference keeps its state at each stop (32 B a stop), not at each step.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from nsfd_sirvs import thresholds
from nsfd_sirvs.cli import _write_trajectory
from nsfd_sirvs.consistency import (_SUP_CHUNK, _SUP_GRID, lambda_steps, net_growth_function,
                                    sup_abs_fprime)
from nsfd_sirvs.dynamics import Trajectory, integrate_continuous, simulate_aux, simulate_discrete
from nsfd_sirvs.incidence import IncidenceFn
from nsfd_sirvs.reference import dp5_reference
from nsfd_sirvs.scenarios import builtin
from nsfd_sirvs.schedules import DenominatorFn, ParamSchedule, ScheduleSet, mickens_discretize

# Tracing costs microseconds per Python float allocated, so the RK4 and NSFD runs,
# which box a float per coefficient and per state value, are kept shorter.
_STEPS = 100_000
_SLACK = 1 << 19  # bytes: one chunk of coefficient rows as Python floats is ~0.3 MiB


def _traced_peak(run):
    tracemalloc.start()
    try:
        result = run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _within_state_bytes(peak, states):
    assert peak <= 1.25 * states.nbytes + _SLACK, (peak, states.nbytes)


@pytest.fixture(scope="module")
def spec():
    return builtin("persistence_5_1")


def test_rk4_peak_is_the_trajectory(spec):
    # tracing makes each RK4 step about 75x slower, so the run is as short as
    # the whole half-step coefficient table still fails: 0.88 MB, 1.2x the bound
    h, n_steps = 0.001, _STEPS // 20
    mass = IncidenceFn.mass_action()
    traj, peak = _traced_peak(lambda: integrate_continuous(
        spec.schedules, mass, mass, spec.initial_state, n_steps * h, h, method="rk4"))
    assert traj.n_steps == n_steps
    _within_state_bytes(peak, traj.states)


def test_nsfd_peak_is_the_trajectory(spec):
    # as short as a run that holds its whole coefficient table and states at
    # once (_ROWS_PER_CHUNK = 1e9) still fails: 1.29 MB, 1.4x the bound; this
    # run peaks at 0.42 MB
    dp = mickens_discretize(spec.schedules, 0.01, spec.denominator)
    mass = IncidenceFn.mass_action()
    traj, peak = _traced_peak(lambda: simulate_discrete(dp, mass, mass, spec.initial_state,
                                                        _STEPS // 10))
    _within_state_bytes(peak, traj.states)


def test_aux_peak_is_the_orbit(spec):
    dp = mickens_discretize(spec.schedules, 0.01, spec.denominator)
    orbit, peak = _traced_peak(lambda: simulate_aux(dp, (1.0, 1.0), _STEPS))
    assert orbit.shape == (_STEPS + 1, 2)
    _within_state_bytes(peak, orbit)


def test_writer_peak_does_not_grow_with_rows(tmp_path):
    # three chunks of rows, as few as a writer of the whole trajectory converted
    # at once still fails: 2.0x the bound, where the chunked writer stays at 0.71x
    n_rows = 3_000
    states = np.random.default_rng(3).random((n_rows + 1, 4))
    traj = Trajectory(t0=0.0, dt=0.01, states=states, method="nsfd")
    path, peak = _traced_peak(lambda: _write_trajectory(tmp_path, traj.rows(), "nsfd", 0.01))
    assert path.stat().st_size > 80 * n_rows
    assert peak <= _SLACK, peak


# f' of one chunk: measured 7 (analytic) and 11 (central differences) float
# temporaries of the chunk's length
_CHUNK_SLACK = 16 * 8 * _SUP_CHUNK


def _inconsistency_fprimes():
    spec = builtin("inconsistency_4")
    sched, phi, psi = spec.schedules, spec.incidence_phi, spec.incidence_psi
    _, analytic, _ = net_growth_function(sched, phi, psi)
    # the same seasonal values, declared without a derivative
    seasonal = sched.beta.eval
    no_derivative = dataclasses.replace(
        sched, beta=ParamSchedule.custom("beta", seasonal, period=1.0),
        sigma=ParamSchedule.custom("sigma", seasonal, period=1.0))
    _, central, is_analytic = net_growth_function(no_derivative, phi, psi)
    assert not is_analytic
    return {"analytic": analytic, "central differences": central}


@pytest.mark.parametrize("kind", ["analytic", "central differences"])
def test_sup_scan_peak_is_the_grid_and_one_chunk(kind):
    fprime = _inconsistency_fprimes()[kind]
    assert getattr(fprime, "harmonic", None) is None  # the grid scan, not the closed form
    sup, peak = _traced_peak(lambda: sup_abs_fprime(fprime, (0.0, 1.0)))
    assert sup.value > 0.0
    assert peak <= 8 * (_SUP_GRID + 1) + _CHUNK_SLACK, peak


def _all_seasonal(mu_frequency):
    """Every coefficient harmonic, each with its own phase, so none are twins;
    mu at `mu_frequency`, the others at 2 pi (period 1)."""
    names = ("Lambda", "mu", "p", "eta", "alpha", "beta", "sigma", "gamma")
    bases = (0.5, 0.3, 0.6, 0.05, 0.05, 0.9, 0.5, 0.3)
    return ScheduleSet(**{
        name: ParamSchedule.harmonic(name, base, 0.4 * base,
                                     mu_frequency if name == "mu" else 2.0 * math.pi, 0.1 * k)
        for k, (name, base) in enumerate(zip(names, bases))})


_STANDARD = IncidenceFn.standard()
_REPORTS = {
    # omega = 10 000 phases of a 100-step window, along the exact periodic orbit
    "step-periodic": lambda: thresholds.discrete_thresholds(
        mickens_discretize(_all_seasonal(2.0 * math.pi), 1e-4, DenominatorFn.quadratic(0.2)),
        _STANDARD, _STANDARD, lambda_steps(0.01, 1e-4)),
    # no step period: 20 000 starts along an iterated orbit
    "scan": lambda: thresholds.discrete_thresholds(
        mickens_discretize(_all_seasonal(2.0 * math.sqrt(2.0) * math.pi), 1e-4,
                           DenominatorFn.quadratic(0.2)),
        _STANDARD, _STANDARD, lambda_steps(0.01, 1e-4), scan=20_000),
    # 6 657 grid points, along an RK4 periodic solution
    "continuous": lambda: thresholds.continuous_thresholds(
        _all_seasonal(2.0 * math.pi), _STANDARD, _STANDARD, 1.0, scan=(0.0, 25.0)),
}


@pytest.mark.parametrize("kind", list(_REPORTS))
def test_threshold_report_peak_is_within_its_probe(monkeypatch, kind):
    # each report maps `_BYTES_PER_POINT` per growth ratio or quadrature point
    # before it builds any array of that length; the probe is recorded, not
    # mapped, here, so the trace is the report's own.  Every coefficient
    # seasonal with standard incidence is the largest peak measured
    asked = []
    monkeypatch.setattr(thresholds, "_check_fits", lambda window, n: asked.append(n))
    _, peak = _traced_peak(_REPORTS[kind])
    assert asked and min(asked) > 5_000
    assert peak <= thresholds._BYTES_PER_POINT * max(asked) + _SLACK, (peak, asked)


def _reference_peak(spec, t_end):
    """The traced peak of `dp5_reference` on `spec` scored every period (4.0)
    up to t_end."""
    times = np.arange(0.0, t_end + 2.0, 4.0)
    ref, peak = _traced_peak(lambda: dp5_reference(
        spec.schedules, spec.incidence_phi, spec.incidence_psi, spec.initial_state, times))
    assert ref.times[-1] == t_end and ref.tail["from_period"] == 18
    return peak


def test_reference_peak_is_its_stops(spec):
    # 1 001 stops, the run cut at period 18: the stops' 32 KB of states, one
    # block's rows and the stepper's record of one block's steps.  A reference
    # that allocates its states for every gap's cap (1 000 gaps of 100 steps)
    # peaks at 3.7 MB, and grows by 2.9 MB from t_end = 400; this one holds
    # 0.49 MB and grows by 70 KB
    dp5_reference(spec.schedules, spec.incidence_phi, spec.incidence_psi,
                  spec.initial_state, [4.0])  # compiles the stepper's text, ~2 MB traced
    small, large = _reference_peak(spec, 400.0), _reference_peak(spec, 4000.0)
    assert large < 1 << 20, large
    assert large - small < 128 << 10, (small, large)
