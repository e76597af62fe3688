import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsfd_sirvs.dynamics import _explicit_form
from nsfd_sirvs.errors import ConfigError
from nsfd_sirvs.incidence import _G_SAMPLES, FactorForm, IncidenceFn, validate_incidence


def g_soft(x):
    # nonnegative, nondecreasing, Lipschitz-1, g(0) = 0
    return x / (1.0 + x)


ALL_KINDS = [
    IncidenceFn.mass_action(),
    IncidenceFn.saturated(0.7),
    IncidenceFn.standard(),
    IncidenceFn.separable(g_soft, lipschitz_k=1.0),
]


def _kw(inc, pop=50.0):
    return {"pop": pop} if inc.needs_population else {}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_mass_action_product():
    assert IncidenceFn.mass_action().eval(2.0, 3.0) == 6.0


def test_saturated_vanishes_at_zero_infectives():
    assert IncidenceFn.saturated(0.7).eval(1.0, 0.0) == 0.0


def test_standard_incidence_reference_value():
    v, i, pop = 5.84372e7, 106.0, 6.56e7
    got = IncidenceFn.standard().eval(v, i, pop=pop)
    assert got == pytest.approx(v * i / pop, rel=1e-15)
    assert got == pytest.approx(94.43, abs=0.01)


def test_standard_requires_positive_population():
    std = IncidenceFn.standard()
    with pytest.raises(ValueError):
        std.eval(1.0, 1.0)
    with pytest.raises(ValueError):
        std.eval(1.0, 1.0, pop=0.0)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        IncidenceFn.mass_action().eval(-1.0, 2.0)


def test_separable_needs_vanishing_g_at_zero():
    with pytest.raises(ValueError):
        IncidenceFn.separable(lambda x: x + 1.0, lipschitz_k=1.0)


def test_separable_without_g_rejected():
    with pytest.raises(ValueError, match="callable g"):
        IncidenceFn("separable")


@pytest.mark.parametrize("a", [-1.0, math.nan, math.inf])
def test_saturated_needs_finite_nonnegative_coefficient(a):
    with pytest.raises(ValueError, match="saturation coefficient"):
        IncidenceFn("saturated", a=a)
    with pytest.raises(ValueError, match="saturation coefficient"):
        IncidenceFn.saturated(a)


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_needs_population_follows_kind(inc):
    assert inc.needs_population == (inc.kind == "standard")
    with pytest.raises(TypeError):
        IncidenceFn(inc.kind, needs_population=True)


# ---------------------------------------------------------------------------
# slope at zero infectives
# ---------------------------------------------------------------------------

def test_d2_mass_action_is_identity():
    assert IncidenceFn.mass_action().d2_at_zero(0.5738) == 0.5738


def test_d2_saturated_is_identity():
    # d/dy [y / (1 + 0.7 y)] at y = 0 equals 1
    sat = IncidenceFn.saturated(0.7)
    assert sat.d2_at_zero(1.0) == 1.0
    eps = 1e-8
    fd = (sat.eval(1.0, eps) - sat.eval(1.0, 0.0)) / eps
    assert fd == pytest.approx(1.0, abs=1e-6)


def test_d2_standard():
    assert IncidenceFn.standard().d2_at_zero(3.0, pop=6.0) == 0.5


def test_d2_separable_is_g():
    inc = IncidenceFn.separable(g_soft, lipschitz_k=1.0)
    assert inc.d2_at_zero(4.0) == pytest.approx(0.8, rel=1e-15)


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
@pytest.mark.parametrize("eps", [1e-4, 1e-6])
def test_forward_difference_matches_d2(inc, eps):
    # |(f(x, eps) - f(x, 0))/eps - d2(x)| <= C * eps, with C from the
    # second-derivative bound of the kind (a*x for saturation, ~0 otherwise)
    for x in (0.5, 1.0, 10.0):
        fd = (inc.eval(x, eps, **_kw(inc)) - inc.eval(x, 0.0, **_kw(inc))) / eps
        d2 = inc.d2_at_zero(x, **_kw(inc))
        C = 0.7 * x if inc.kind == "saturated" else 1e-9
        assert abs(fd - d2) <= C * eps + 1e-15


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_growth_bound(inc):
    # f(x, y) <= k x y over 1e4 random points in [0, 100]^2
    rng = np.random.default_rng(42)
    xy = rng.uniform(0.0, 100.0, size=(10_000, 2))
    k = inc.lipschitz_k / 50.0 if inc.needs_population else inc.lipschitz_k
    f = inc.eval(xy[:, 0], xy[:, 1], **_kw(inc))
    assert np.all(f <= k * xy[:, 0] * xy[:, 1] + 1e-12)


# ---------------------------------------------------------------------------
# derived forms: the factor form's formulas, bit for bit
# ---------------------------------------------------------------------------

_XS = np.linspace(0.0, 40.0, 33)
_YS = np.linspace(0.0, 40.0, 29)


def _d(form, y, pop):
    """d(y, pop) of a factor form as `FactorForm` declares it."""
    return pop if form.by_pop else 1.0 + form.a * y


def test_each_kind_declares_its_factor_form():
    mass, sat, std, sep = (inc.factor_form() for inc in ALL_KINDS)
    assert mass == FactorForm(float, 0.0, False)
    assert sat == FactorForm(float, 0.7, False)
    assert std == FactorForm(float, 0.0, True)
    assert sep == FactorForm(g_soft, 0.0, False)


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_eval_is_the_factor_form(inc):
    # the factor form is the one declaration of each kind: f = g(x) y / d(y, pop)
    pop = 50.0 if inc.needs_population else None
    form = inc.factor_form()
    X, Y = np.meshgrid(_XS, _YS, indexing="ij")
    checked = inc.eval(X, Y, **_kw(inc))
    for i, x in enumerate(_XS):
        for j, y in enumerate(_YS):
            x, y = float(x), float(y)
            factored = float(form.g(x)) * y / _d(form, y, pop)
            assert factored.hex() == float(checked[i, j]).hex()  # bit for bit
            assert factored.hex() == float(inc.eval(x, y, **_kw(inc))).hex()


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_slope_equals_d2_at_zero(inc):
    pop = 50.0 if inc.needs_population else None
    assert inc.slope(_XS, pop).tobytes() == inc.d2_at_zero(_XS, **_kw(inc)).tobytes()
    for x in (0.0, 0.3, 7.0):
        assert inc.slope(x, pop) == inc.d2_at_zero(x, **_kw(inc))
    form = inc.factor_form()  # d2f(x, 0) = g(x) / d(0, pop)
    for x in _XS:
        assert inc.slope(float(x), pop) == float(form.g(x)) / _d(form, 0.0, pop)


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_explicit_form_is_d2_on_the_quadrant_with_its_edge_conventions(inc):
    # Euler and RK4 read g of the factor form inline (None: x itself), a
    # separable g extended by 0 below the axis, and a and by_pop as declared
    pop = 50.0 if inc.needs_population else None
    g, a, by_pop = _explicit_form(inc)
    for x in _XS[1:]:
        gx = float(x) if g is None else g(float(x))
        assert (gx / pop if by_pop else gx) == inc.d2_at_zero(float(x), **_kw(inc))
    assert (g is None) == (inc.kind != "separable")
    if g is not None:
        assert g(0.0) == 0.0 and g(-2.0) == 0.0
    assert (a, by_pop) == inc.factor_form()[1:]


# ---------------------------------------------------------------------------
# the standing hypotheses: H2 and H5 by the factor form, g by its one check
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_factor_form_meets_h2_and_h5(inc):
    # f(x, 0) = f(0, y) = 0 and y -> f(x, y)/y non-increasing, on a grid
    X, Y = np.meshgrid(_XS, _YS, indexing="ij")
    F = inc.eval(X, Y, **_kw(inc))
    assert np.all(F[:, 0] == 0.0) and np.all(F[0, :] == 0.0)
    ratios = F[1:, 1:] / _YS[1:]
    assert np.all(np.diff(ratios, axis=1) <= 1e-12 * (1.0 + np.max(ratios)))


@pytest.mark.parametrize("inc", [i for i in ALL_KINDS if i.kind != "separable"],
                         ids=lambda i: i.kind)
def test_linear_kinds_pass_the_check_at_their_unit_slope(inc):
    # g = x itself has difference quotient 1: k = 1 passes, anything below fails
    g = inc.factor_form().g
    validate_incidence(g, inc.lipschitz_k)
    with pytest.raises(ConfigError, match="Lipschitz"):
        validate_incidence(g, 1.0 - 1e-6)


def _largest_quotient(g):
    gv = np.asarray([g(float(x)) for x in _G_SAMPLES])
    return float(np.max(np.diff(gv) / np.diff(_G_SAMPLES)))


def _ramp(knots, slopes):
    """The piecewise-linear g with g(0) = 0 and slope slopes[i] from knots[i]."""
    changes = np.diff(slopes, prepend=0.0)
    return lambda x: sum(c * max(x - k, 0.0) for k, c in zip(knots, changes))


# (g, sup g') on [0, 100]: saturating, steep at a (tanh), and piecewise linear
_G_WITH_SUP_SLOPE = st.one_of(
    st.builds(lambda c, a: (lambda x: c * x / (1.0 + a * x), c),
              st.floats(0.01, 50.0), st.floats(0.0, 20.0)),
    st.builds(lambda c, a: (lambda x: c * math.tanh(a * x), c * a),
              st.floats(0.01, 50.0), st.floats(0.0, 20.0)),
    st.builds(lambda knots, slopes: (_ramp(knots, slopes), max(slopes)),
              st.lists(st.floats(0.0, 99.0), min_size=3, max_size=3).map(sorted),
              st.lists(st.floats(0.0, 10.0), min_size=3, max_size=3)),
)


@settings(max_examples=150, deadline=None)
@given(g_sup=_G_WITH_SUP_SLOPE)
def test_check_accepts_the_largest_quotient_and_refuses_below(g_sup):
    # the check reads the samples' largest difference quotient, at most sup g',
    # and compares it with k (1 + 1e-9)
    g, sup = g_sup
    q = _largest_quotient(g)
    assert q <= sup * (1.0 + 1e-12) + 1e-12
    assert IncidenceFn.separable(g, q).lipschitz_k == q
    IncidenceFn.separable(g, sup)
    if q > 1e-6:
        with pytest.raises(ConfigError, match="Lipschitz"):
            IncidenceFn.separable(g, q * (1.0 - 1e-6))


@pytest.mark.parametrize("g, hypothesis, where", [
    (lambda x: x + 1.0, "g\\(0\\) = 0", "got 1.0"),
    (lambda x: -1e-6 * x, "g >= 0", "got g\\(0.0977517\\) = -9.77517e-08"),
    (lambda x: x - 2.0 * max(x - 50.0, 0.0), "nondecreasing g", "on \\[50.0489, 50.1466\\]"),
], ids=["g(0) != 0", "g < 0", "decreasing g"])
def test_check_names_the_hypothesis_a_g_breaks(g, hypothesis, where):
    with pytest.raises(ConfigError, match=hypothesis) as info:
        IncidenceFn.separable(g, 1.0)
    assert info.match(where)


def test_check_names_where_g_is_steeper_than_its_constant():
    g = _ramp([0.0, 40.0, 60.0], [0.5, 3.0, 0.5])
    with pytest.raises(ConfigError, match="lipschitz_k = 1, but its difference "
                                          "quotient on \\[39.9804, 40.0782\\] is 2.5"):
        IncidenceFn.separable(g, 1.0)
    IncidenceFn.separable(g, 3.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_check_refuses_a_non_finite_g(value):
    with pytest.raises(ConfigError, match="Lipschitz"):
        IncidenceFn.separable(lambda x: value if x > 10.0 else x, 1.0)


def test_a_separable_incidence_built_directly_is_checked():
    # the constructor runs the check, so no path to a separable incidence skips it
    with pytest.raises(ConfigError, match="nondecreasing g"):
        IncidenceFn("separable", _g=lambda x: math.sin(x) ** 2)
    with pytest.raises(ConfigError, match="Lipschitz"):
        IncidenceFn("separable", lipschitz_k=0.5, _g=g_soft)
    assert IncidenceFn("separable", _g=g_soft) == IncidenceFn.separable(g_soft, 1.0)


def test_check_calls_g_once_at_zero_and_once_per_sample():
    calls = []

    def g(x):
        calls.append(float(x))
        return g_soft(x)

    IncidenceFn.separable(g, lipschitz_k=1.0)
    assert calls == [0.0] + _G_SAMPLES.tolist()
