"""Test configuration and oracles shared by every test module.

Hypothesis draws are derandomized: each property test sees the same examples
on every run, so a failure reproduces on rerun.  Example counts and deadlines
are the library's defaults or each test's own settings.

`_dop853_at` is the one continuous-model oracle of the reference's tests: the
built-ins' gate and the property on generated models read it.
"""

import numpy as np
from hypothesis import settings

from nsfd_sirvs.schedules import SCHEDULE_NAMES

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def _factor_rate(inc):
    """f(x, I, N) of a kind linear in x, written from its factor form."""
    g, a, by_pop = inc.factor_form()
    assert g is float
    return lambda x, i, n: x * i / (1.0 + a * i if a else n if by_pop else 1.0)


def _dop853_at(spec, times, rtol=1e-11):
    """The model's states at `times` (sorted, from 0) by scipy's DOP853 at
    `rtol`, restarted at each breakpoint of a piecewise schedule, where
    the coefficients of the interval that ends there are read up to its end."""
    from scipy.integrate import solve_ivp
    f_s, f_v = _factor_rate(spec.incidence_phi), _factor_rate(spec.incidence_psi)
    sched = [getattr(spec.schedules, name) for name in SCHEDULE_NAMES]
    cuts = sorted({b for s in sched if s.kind == "piecewise" for b in s.params["breakpoints"][1:]
                   if b < times[-1]})
    out = np.empty((times.size, 4))
    out[0] = y = list(spec.initial_state)
    for a, b in zip([0.0] + cuts, cuts + [float(times[-1])]):
        inside = np.nextafter(b, -np.inf)

        def rhs(t, state, inside=inside):
            S, I, R, V = state
            tt = min(t, inside)
            lam, mu, p, eta, alpha, beta, sigma, gamma = (
                s.constant if s.constant is not None else float(s.eval(tt)) for s in sched)
            N = S + I + R + V
            inc_s, inc_v = beta * f_s(S, I, N), sigma * f_v(V, I, N)
            return [lam - inc_s - (mu + p) * S + eta * V,
                    inc_s + inc_v - (mu + alpha + gamma) * I,
                    gamma * I - mu * R,
                    p * S - (mu + eta) * V - inc_v]

        sel = np.flatnonzero((times > a) & (times <= b))
        sol = solve_ivp(rhs, (a, b), y, method="DOP853", rtol=rtol,
                        atol=1e-13 * max(1.0, max(y)), t_eval=times[sel])
        assert sol.success and sol.t[-1] == b
        out[sel] = sol.y.T
        y = list(sol.y[:, -1])
    return out
