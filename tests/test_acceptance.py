"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
reference threshold value 10.2 for the b = 0.9, h = 0.5 window is checked at
the stated +-0.5% like its siblings even though the exact evaluation of the
defining product gives 10.2825 (a 0.81% gap); see the assertion message.
"""

import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd_sirvs.cli import main
from nsfd_sirvs.consistency import consistency_report, consistency_sweep, lambda_steps
from nsfd_sirvs.dynamics import (AuxState, State, integrate_continuous, nsfd_step,
                                 simulate_discrete)
from nsfd_sirvs.incidence import IncidenceFn
from nsfd_sirvs.scenarios import builtin, run_scenario
from nsfd_sirvs.schedules import DiscreteParams, ParamSchedule, ScheduleSet, mickens_discretize
from nsfd_sirvs.thresholds import (Verdict, continuous_thresholds, discrete_thresholds,
                                   independence_check, periodic_discrete_threshold)

MASS = IncidenceFn.mass_action()
SAT = IncidenceFn.saturated(0.7)
STD = IncidenceFn.standard()
SEP = IncidenceFn.separable(lambda x: x / (1.0 + x), lipschitz_k=1.0)


def _report(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {number:>2} {status}: {description}")
    assert not failures, f"criterion {number} ({description}): " + "; ".join(failures)


def _spec_dp(name, h):
    spec = builtin(name)
    return spec, mickens_discretize(spec.schedules, h, spec.denominator)


def test_criterion_01_continuous_thresholds():
    failures = []
    t0 = time.perf_counter()
    ext = continuous_thresholds(builtin("extinction_5_1").schedules, MASS, MASS, 4.0)
    dt_ext = time.perf_counter() - t0
    t0 = time.perf_counter()
    per = continuous_thresholds(builtin("persistence_5_1").schedules, MASS, MASS, 4.0)
    dt_per = time.perf_counter() - t0
    if abs(ext.r_upper - (-0.600)) > 0.002:
        failures.append(f"r_upper {ext.r_upper} not within 0.002 of -0.600")
    if abs(per.r_lower - 3.400) > 0.002:
        failures.append(f"r_lower {per.r_lower} not within 0.002 of 3.400")
    if dt_ext >= 1.0 or dt_per >= 1.0:
        failures.append(f"runtime {dt_ext:.2f}s / {dt_per:.2f}s exceeds 1 s")
    _report(1, "continuous window integrals -0.6 and 3.4", failures)


def test_criterion_02_discrete_thresholds():
    cases = [  # (scenario, h, window, quoted, use_upper)
        ("extinction_5_1", 1.0, 3, 0.644, True),
        ("extinction_5_1", 0.5, 7, 0.601, True),
        ("persistence_5_1", 2.0, 1, 3.201, False),
        ("persistence_5_1", 1.0, 3, 5.9, False),
        ("persistence_5_1", 0.5, 7, 10.2, False),
    ]
    failures = []
    for name, h, lam, quoted, upper in cases:
        _, dp = _spec_dp(name, h)
        t0 = time.perf_counter()
        rep = discrete_thresholds(dp, MASS, MASS, lam)
        elapsed = time.perf_counter() - t0
        got = rep.r_upper if upper else rep.r_lower
        line = f"R({lam},{h:g})={got:.6g} vs quoted {quoted}"
        print("   ", line)
        if abs(got - quoted) > 0.005 * quoted:
            failures.append(line + " (outside 0.5% relative)")
        if elapsed >= 1.0:
            failures.append(f"R({lam},{h:g}) runtime {elapsed:.2f}s exceeds 1 s")
    _, dp4 = _spec_dp("extinction_5_1", 4.0)
    rep4 = discrete_thresholds(dp4, MASS, MASS, 0)
    if abs(rep4.r_lower - 1.0) > 1e-10 or abs(rep4.r_upper - 1.0) > 1e-10:
        failures.append(f"R(0,4)=({rep4.r_lower},{rep4.r_upper}) not 1 to 1e-10")
    _report(2, "discrete window products match quoted values to 0.5%", failures)


def test_criterion_03_inconsistency_example():
    failures = []
    t0 = time.perf_counter()
    spec = builtin("inconsistency_4")
    h = spec.h_values[0]

    cont = continuous_thresholds(spec.schedules, spec.incidence_phi,
                                 spec.incidence_psi, 1.0)
    if abs(cont.r_lower - 0.45) > 1e-3:
        failures.append(f"quadrature {cont.r_lower} not within 1e-3 of closed form 0.45")
    if cont.verdict is not Verdict.PERMANENCE:
        failures.append(f"continuous verdict {cont.verdict}")

    dp = mickens_discretize(spec.schedules, h, spec.denominator)
    traj = simulate_discrete(dp, spec.incidence_phi, spec.incidence_psi,
                             spec.initial_state, 10_000)
    thr = discrete_thresholds(dp, spec.incidence_phi, spec.incidence_psi,
                              lambda_steps(1.0, h))
    trajectory_arm = traj.I[-1] < 1e-6
    verdict_arm = thr.verdict is not Verdict.PERMANENCE
    if not (trajectory_arm or verdict_arm):
        failures.append(f"discrete side shows permanence (I_end={traj.I[-1]:.3g}, "
                        f"verdict {thr.verdict})")

    report = run_scenario(spec)
    if not report.inconsistency_flag:
        failures.append("scenario report does not flag the inconsistency")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds 5 s")
    _report(3, "period-1 example: continuous permanence, discrete non-permanence",
            failures)


_KINDS = (MASS, SAT, STD, SEP)
_HS = (1e-3, 0.1, 1.0, 10.0)


def _case(h, raw, state, phi, psi):
    dp = DiscreteParams.from_sequences(
        h, Lambda=raw[0] * h, mu=raw[1] * h, p=raw[2] * h, eta=raw[3] * h,
        alpha=raw[4] * h, beta=raw[5] * h, sigma=raw[6] * h, gamma=raw[7] * h)
    return dp, phi, psi, State(*state)


def _random_cases(n, seed):
    """The seeded draws, a fixed regression set for the properties below."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        raw = rng.uniform(0.0, 1.0, 8)
        state = rng.uniform(0.0, 100.0, 4)
        if i % 7 == 0:
            state[rng.integers(0, 4)] = 0.0
        yield _case(_HS[i % 4], raw, state, _KINDS[i % 4], _KINDS[(i + 1) % 4])


# the same ranges drawn by hypothesis, a zero component included or not
_CASES = st.builds(
    _case, st.sampled_from(_HS), st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    st.tuples(st.lists(st.floats(0.0, 100.0), min_size=4, max_size=4),
              st.sampled_from([None, 0, 1, 2, 3])).map(
        lambda sz: [0.0 if k == sz[1] else x for k, x in enumerate(sz[0])]),
    st.sampled_from(_KINDS), st.sampled_from(_KINDS))


def _residual(dp, phi, psi, s):
    """The balance residual of one step and its scale, 1 + N."""
    out = nsfd_step(dp, 0, phi, psi, s)
    n_before = sum(s)
    return (abs((1.0 + dp.mu(0)) * sum(out) + dp.alpha(0) * out.I - n_before - dp.Lambda(0)),
            1.0 + n_before)


def test_criterion_04_exact_step_balance():
    failures = []
    worst = 0.0
    for dp, phi, psi, s in _random_cases(10_000, seed=20260810):
        resid, scale = _residual(dp, phi, psi, s)
        worst = max(worst, resid / scale)
        if resid > 1e-10 * scale:
            failures.append(f"residual {resid:.3g} at state {s}")
            break
    print(f"    worst scaled residual {worst:.3g}")
    _report(4, "balance identity holds to 1e-10 over 1e4 random draws", failures)


@settings(max_examples=200, deadline=None)
@given(case=_CASES)
def test_criterion_04_exact_step_balance_property(case):
    resid, scale = _residual(*case)
    assert resid <= 1e-10 * scale


def test_criterion_05_positivity():
    failures = []
    for dp, phi, psi, s in _random_cases(10_000, seed=42):
        if min(nsfd_step(dp, 0, phi, psi, s)) < 0.0:
            failures.append(f"negative component from state {s}")
            break
    # forward Euler may fail, but the failure must be flagged and not clamped
    spec = builtin("extinction_5_1")
    eul = integrate_continuous(spec.schedules, MASS, MASS, spec.initial_state,
                               40.0, 4.0, method="euler")
    if eul.negative_at is None:
        failures.append("euler overshoot not flagged")
    elif eul.states.min() >= 0.0:
        failures.append("euler negativity clamped away instead of reported")
    _report(5, "scheme preserves nonnegativity over 1e4 draws incl. h in {1e-3, 10}",
            failures)


@settings(max_examples=200, deadline=None)
@given(case=_CASES)
def test_criterion_05_positivity_property(case):
    dp, phi, psi, s = case
    assert min(nsfd_step(dp, 0, phi, psi, s)) >= 0.0


def test_criterion_06_aux_start_independence():
    # extinction_5_1 with an inflow that steps from 0.5 to 0.6 at t = 50: no
    # step period, so each report reads the orbit iterated from its own start
    # (an exact periodic one would never read the start at all)
    spec = builtin("extinction_5_1")
    sched = spec.schedules.as_dict()
    sched["Lambda"] = ParamSchedule.piecewise("Lambda", [0.0, 50.0], [0.5, 0.6])
    dp = mickens_discretize(ScheduleSet.from_mapping(sched), 1.0, spec.denominator)
    starts = [AuxState(1, 1), AuxState(100, 5), AuxState(0.01, 0.01)]
    res = independence_check(dp, MASS, MASS, 3, starts)
    failures = [f"start {s}: exact periodic report" for s in starts
                if discrete_thresholds(dp, MASS, MASS, 3, aux_start=s).exact_periodic]
    if res.skipped:
        failures.append(f"check skipped: {res.reason}")
    elif res.spread > 1e-6:
        failures.append(f"spread {res.spread:.3g} exceeds 1e-6")
    _report(6, "threshold independent of the disease-free starting point", failures)


def test_criterion_07_periodic_exactness():
    failures = []
    for name in ("extinction_5_1", "persistence_5_1"):
        _, dp = _spec_dp(name, 1.0)
        per = periodic_discrete_threshold(dp, MASS, MASS, 4)
        rep = discrete_thresholds(dp, MASS, MASS, 3)
        if abs(per - rep.r_lower) > 1e-10 or abs(per - rep.r_upper) > 1e-10:
            failures.append(f"{name}: period product {per} vs window "
                            f"({rep.r_lower}, {rep.r_upper})")
    _report(7, "one-period product equals the stabilized window product to 1e-10",
            failures)


def test_criterion_08_step_bound_sweep():
    failures = []
    t0 = time.perf_counter()
    for name in ("extinction_5_1", "persistence_5_1"):
        spec = builtin(name)
        report = consistency_report(spec.schedules, MASS, MASS,
                                    continuous_thresholds(spec.schedules, MASS, MASS, 4.0))
        pairs = consistency_sweep(spec.schedules, MASS, MASS, spec.denominator,
                                  report, n=16)
        bad = [h for h, d in pairs if d.verdict is not report.continuous.verdict]
        if bad:
            failures.append(f"{name}: {len(bad)}/16 verdicts disagree "
                            f"(first at h={bad[0]:.4g})")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30 s")
    _report(8, "verdicts agree for 16 log-spaced steps below the bound", failures)


def test_criterion_09_convergence_order():
    spec = builtin("persistence_5_1")
    ref = integrate_continuous(spec.schedules, MASS, MASS, spec.initial_state,
                               10.0, 0.0025, method="rk4")
    hs = (0.2, 0.1, 0.05, 0.025)
    errs = []
    for h in hs:
        dp = mickens_discretize(spec.schedules, h, spec.denominator)
        traj = simulate_discrete(dp, MASS, MASS, spec.initial_state,
                                 int(round(10.0 / h)))
        stride = int(round(h / 0.0025))
        errs.append(float(np.max(np.abs(traj.states - ref.states[::stride]))))
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    print(f"    errors {['%.3g' % e for e in errs]}, slope {slope:.3f}")
    failures = [] if 0.8 <= slope <= 1.2 else [f"slope {slope:.3f} outside [0.8, 1.2]"]
    _report(9, "NSFD error vs RK4 reference scales like h (slope 1.0 +- 0.2)", failures)


def test_criterion_10_measles_smoke():
    failures = []
    spec = builtin("measles_france_5_2")
    dp = mickens_discretize(spec.schedules, 1.0, spec.denominator)
    try:
        traj = simulate_discrete(dp, spec.incidence_phi, spec.incidence_psi,
                                 spec.initial_state, 60)
    except Exception as exc:  # numeric failure would be a criterion failure
        failures.append(f"simulation raised {exc!r}")
    else:
        if traj.states.shape != (61, 4):
            failures.append(f"trajectory shape {traj.states.shape}")
        if np.any(traj.I < 0) or not np.all(np.isfinite(traj.states)):
            failures.append("infectives negative or non-finite")
    if "clamped" not in spec.notes:
        failures.append("clamping note missing from scenario notes")
    if spec.schedules.beta.eval(8.0) != 0.0:
        failures.append("negative seasonal month not clamped to 0")
    raw = builtin("measles_france_5_2", clamp_beta=False)
    if raw.schedules.beta.eval(8.0) >= 0.0:
        failures.append("raw variant does not expose the negative value")
    _report(10, "measles scenario runs 60 monthly steps, stays nonnegative", failures)


def test_criterion_11_discrepancies_reported(tmp_path):
    failures = []
    spec = builtin("extinction_5_1")
    rep = consistency_report(spec.schedules, MASS, MASS,
                             continuous_thresholds(spec.schedules, MASS, MASS, 4.0),
                             notes=dict(spec.reference_values))
    if not (rep.h_max_upper and abs(rep.h_max_upper - 0.509) < 1e-3):
        failures.append(f"formula bound {rep.h_max_upper} not ~0.509")
    if rep.notes.get("h_max_upper_reported") != 0.05:
        failures.append("reported bound 0.05 not present/labeled")

    out = tmp_path / "sec4"
    if main(["consistency", "inconsistency_4", "--out", str(out)]) != 0:
        failures.append("consistency command failed for the counterexample")
    else:
        import json
        payload = json.loads((out / "consistency.json").read_text())
        literal = payload["discrete_literal"][0]["r_upper"]
        if abs(literal - 1.0) > 1e-9:
            failures.append(f"literal one-period evaluation {literal} missing/wrong")
        if payload["notes"].get("discrete_threshold_reported_closed_form") != 0.6875:
            failures.append("reported closed form 0.6875 not present/labeled")
    _report(11, "formula values and quoted reference values are both reported",
            failures)
