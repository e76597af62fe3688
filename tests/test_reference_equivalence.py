"""Fast paths against straightforward reference copies of the code they replaced.

The scalar Euler/RK4 loop, the whole-grid incidence validator and the
streaming trajectory writer must give exactly the numbers (and bytes) of the
array-based, point-by-point and per-value implementations kept below.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd_sirvs.cli import _write_trajectory
from nsfd_sirvs.dynamics import State, Trajectory, integrate_continuous, validate_state
from nsfd_sirvs.incidence import IncidenceFn, IncidenceReport, validate_incidence
from nsfd_sirvs.schedules import SCHEDULE_NAMES

from test_incidence import _BrokenIncidence
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

def _reference_bridge(inc):
    if inc.kind in ("mass_action", "saturated"):
        return lambda x, pop: x
    if inc.kind == "standard":
        return lambda x, pop: x / pop
    g = inc._g
    return lambda x, pop: float(g(x)) if x > 0.0 else 0.0


def _reference_integrate(schedules, phi, psi, s0, t_end, h, method):
    s0 = validate_state(s0)
    n_steps = max(1, int(math.ceil(t_end / h - 1e-9)))
    ts_half = np.arange(2 * n_steps + 1) * (h / 2.0)
    P = {name: np.asarray(getattr(schedules, name).eval(ts_half), dtype=float)
         for name in SCHEDULE_NAMES}
    g_phi = _reference_bridge(phi)
    g_psi = _reference_bridge(psi)
    needs_pop = phi.needs_population or psi.needs_population

    def rhs(j, y):
        S, I, R, V = y
        pop = (S + I + R + V) if needs_pop else None
        inc_s = P["beta"][j] * g_phi(S, pop) * I
        inc_v = P["sigma"][j] * g_psi(V, pop) * I
        mu = P["mu"][j]
        dS = P["Lambda"][j] - inc_s - (mu + P["p"][j]) * S + P["eta"][j] * V
        dI = inc_s + inc_v - (mu + P["alpha"][j] + P["gamma"][j]) * I
        dR = P["gamma"][j] * I - mu * R
        dV = P["p"][j] * S - (mu + P["eta"][j]) * V - inc_v
        return np.array([dS, dI, dR, dV])

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


@pytest.mark.parametrize("method", ["euler", "rk4"])
def test_standard_incidence_from_zero_population_is_disease_free(method):
    zero = State(0.0, 0.0, 0.0, 0.0)
    std = IncidenceFn.standard()
    traj = integrate_continuous(full_set(0.9), std, std, zero, 20.0, 0.5, method=method)
    free = integrate_continuous(full_set(0.9), KINDS["mass_action"], KINDS["mass_action"],
                                zero, 20.0, 0.5, method=method)
    assert np.all(np.isfinite(traj.states))
    assert traj.negative_at is None
    assert np.all(traj.I == 0.0)
    assert np.array_equal(traj.states, free.states)


# ---------------------------------------------------------------------------
# validate_incidence: point-by-point reference
# ---------------------------------------------------------------------------

def _reference_validate(f, x_max, y_max, resolution, pop=None):
    xs = np.linspace(0.0, x_max, resolution)
    ys = np.linspace(0.0, y_max, resolution)
    needs_pop = getattr(f, "needs_population", False)
    kw = {"pop": pop} if needs_pop else {}

    h2 = 0.0
    h2 = max(h2, float(np.max(np.abs([f.eval(x, 0.0, **kw) for x in xs]))))
    h2 = max(h2, float(np.max(np.abs([f.eval(0.0, y, **kw) for y in ys]))))

    ypos = ys[1:]
    ratio_scale = 0.0
    h5_violation = -np.inf
    for x in xs[1:]:
        fx = np.asarray([float(f.eval(x, y, **kw)) for y in ypos])
        ratios = fx / ypos
        ratio_scale = max(ratio_scale, float(np.max(np.abs(ratios))))
        h5_violation = max(h5_violation, float(np.max(np.diff(ratios))))
    tol = 1e-9 * (1.0 + ratio_scale)
    h5_excess = max(0.0, h5_violation) if h5_violation > tol else 0.0

    d2 = np.asarray([float(f.d2_at_zero(x, **kw)) for x in xs])
    slopes = np.abs(np.diff(d2) / np.diff(xs))
    lip_est = float(np.max(slopes))
    k_eff = f.d2_lipschitz(**kw) if hasattr(f, "d2_lipschitz") else f.lipschitz_k
    lip_ok = lip_est <= k_eff * (1.0 + 1e-9)

    X, Y = np.meshgrid(xs, ys, indexing="ij")
    F = np.asarray(f.eval(X, Y, **kw), dtype=float)
    kxy = k_eff * X * Y
    bound_violation = float(np.max((F - kxy) / (1.0 + kxy)))

    notes = []
    if needs_pop:
        notes.append(
            "population-scaled incidence: the d2 slope varies with the supplied "
            "population, so the fixed-family hypotheses are checked at pop="
            f"{pop:g} only")
    return IncidenceReport(
        grid=(float(x_max), float(y_max), resolution),
        h2_max_abs=h2,
        h5_max_increase=h5_excess,
        lipschitz_estimate=lip_est,
        lipschitz_ok=lip_ok,
        bound_max_violation=max(0.0, bound_violation),
        notes=tuple(notes),
    )


_VALIDATED = {**KINDS, "broken": _BrokenIncidence()}


@pytest.mark.parametrize("resolution", [16, 64])
@pytest.mark.parametrize("kind", sorted(_VALIDATED))
def test_grid_validator_equals_point_by_point_reference(kind, resolution):
    f = _VALIDATED[kind]
    pop = 100.0 if kind == "standard" else None
    for x_max, y_max in ((10.0, 10.0), (7.5, 3.0), (200.0, 200.0)):
        rep = validate_incidence(f, x_max, y_max, resolution=resolution, pop=pop)
        assert rep == _reference_validate(f, x_max, y_max, resolution, pop=pop)


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


def test_trajectory_writer_bytes_match_per_value_format(tmp_path):
    specials = [-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf, 0.1, 200.0,
                -2.5e-7, 1.0 / 3.0, 123456789.125, 0.0]
    states = np.array(specials).reshape(3, 4)
    states = np.vstack([states, states[::-1, ::-1]])
    traj = Trajectory(t0=0.1, dt=0.1, states=states, method="rk4")

    path = _write_trajectory(tmp_path, traj, "rk4", 0.01)
    expected = tmp_path / "expected.csv"
    _reference_write_rows(expected, ["t", "S", "I", "R", "V"],
                          [[t, s, i, r, v] for t, (s, i, r, v)
                           in zip(traj.times, traj.states)])
    assert path.name == "trajectory_rk4_h0.01.csv"
    assert path.read_bytes() == expected.read_bytes()
