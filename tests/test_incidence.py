import math

import numpy as np
import pytest

from nsfd_sirvs.incidence import IncidenceFn, validate_incidence


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
# unchecked forms: the same formulas as the checked surface, bit for bit
# ---------------------------------------------------------------------------

_XS = np.linspace(0.0, 40.0, 33)
_YS = np.linspace(0.0, 40.0, 29)


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_unchecked_f_equals_eval(inc):
    pop = 50.0 if inc.needs_population else None
    f = inc.unchecked_f()
    X, Y = np.meshgrid(_XS, _YS, indexing="ij")
    checked = inc.eval(X, Y, **_kw(inc))
    unchecked = np.array([[f(float(x), float(y), pop) for y in _YS] for x in _XS])
    assert checked.tobytes() == unchecked.tobytes()


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_factor_form_equals_unchecked_f(inc):
    pop = 50.0 if inc.needs_population else None
    f = inc.unchecked_f()
    g, d = inc.factor_form()
    for x in _XS:
        for y in _YS:
            x, y = float(x), float(y)
            factored = float(g(x)) * y / (1.0 if d is None else d(y, pop))
            assert factored.hex() == f(x, y, pop).hex()  # bit for bit


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_slope_equals_d2_at_zero(inc):
    pop = 50.0 if inc.needs_population else None
    assert inc.slope(_XS, pop).tobytes() == inc.d2_at_zero(_XS, **_kw(inc)).tobytes()
    for x in (0.0, 0.3, 7.0):
        assert inc.slope(x, pop) == inc.d2_at_zero(x, **_kw(inc))


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_linear_rate_is_eval_per_unit_x(inc):
    q = inc.linear_rate()
    if inc.kind == "separable":
        assert q is None
        return
    pop = 50.0 if inc.needs_population else None
    for y in _YS:
        assert q(float(y), pop) == inc.eval(1.0, float(y), **_kw(inc))


@pytest.mark.parametrize("inc", ALL_KINDS, ids=lambda i: i.kind)
def test_bridge_is_d2_on_the_quadrant_with_its_edge_conventions(inc):
    pop = 50.0 if inc.needs_population else None
    g = inc.bridge()
    for x in _XS[1:]:
        assert g(float(x), pop) == inc.d2_at_zero(float(x), **_kw(inc))
    if inc.kind == "standard":
        assert g(3.0, 0.0) == 0.0
    elif inc.kind == "separable":
        assert g(0.0, None) == 0.0 and g(-2.0, None) == 0.0
    else:
        assert g(-2.0, None) == -2.0


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
