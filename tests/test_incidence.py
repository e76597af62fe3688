import math

import numpy as np
import pytest

from nsfd_sirvs.dynamics import _explicit_form
from nsfd_sirvs.incidence import FactorForm, IncidenceFn, validate_incidence


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
    k = inc.d2_lipschitz(**_kw(inc))
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
# grid validation
# ---------------------------------------------------------------------------

def test_validate_mass_action_passes_with_unit_slope():
    rep = validate_incidence(IncidenceFn.mass_action(), 10.0, 10.0)
    assert rep.passed
    assert rep.lipschitz_estimate == pytest.approx(1.0, rel=1e-9)


def test_validate_saturated_ratio_monotone():
    rep = validate_incidence(IncidenceFn.saturated(0.7), 10.0, 10.0)
    assert rep.passed
    assert rep.h5_max_increase == 0.0


def test_validate_standard_is_flagged():
    rep = validate_incidence(IncidenceFn.standard(), 10.0, 10.0, pop=100.0)
    assert rep.passed
    assert any("population" in n for n in rep.notes)


class _BrokenIncidence:
    """f(x, y) = x y^2: violates the non-increasing-ratio hypothesis."""

    kind = "broken"
    needs_population = False
    lipschitz_k = 1.0

    def eval(self, x, y, pop=None):
        return x * y ** 2

    def d2_at_zero(self, x, pop=None):
        return 0.0 * x

    def d2_lipschitz(self, pop=None):
        return self.lipschitz_k


def test_validator_flags_increasing_ratio():
    rep = validate_incidence(_BrokenIncidence(), 10.0, 10.0)
    assert rep.h5_max_increase > 0
    assert not rep.passed


def test_validator_rejects_tiny_grids():
    with pytest.raises(ValueError):
        validate_incidence(IncidenceFn.mass_action(), 10.0, 10.0, resolution=8)


class _OnMeshgrid:
    """An incidence whose `eval` always runs on the full grid, X and Y of
    np.meshgrid(xs, ys, indexing="ij"), whatever shapes it is handed."""

    def __init__(self, inc):
        self.inc = inc

    def eval(self, x, y, **kw):
        return self.inc.eval(*np.broadcast_arrays(x, y), **kw)

    def __getattr__(self, name):
        return getattr(self.inc, name)


@pytest.mark.parametrize("resolution", [64, 256])
def test_validator_calls_separable_g_once_per_axis_point(resolution):
    # once per x for eval and once per x for d2_at_zero, not once per grid
    # point; the report equals the one made on the full meshgrid, bit for bit
    calls = []

    def g(x):
        calls.append(x)
        return g_soft(x)

    inc = IncidenceFn.separable(g, lipschitz_k=1.0)
    calls.clear()  # the constructor samples g itself
    rep = validate_incidence(inc, 10.0, 10.0, resolution=resolution)
    assert len(calls) == 2 * resolution
    ref = validate_incidence(_OnMeshgrid(inc), 10.0, 10.0, resolution=resolution)
    for name, value in vars(rep).items():
        want = getattr(ref, name)
        assert (value.hex() == want.hex() if isinstance(value, float)
                else value == want), name
