"""Incidence (transmission) functions f(x, y).

Every incidence has the form f(x, y, P) = g(x) * y / d(y, P), and each kind is
declared once as that form (`IncidenceFn.factor_form`), which the NSFD scheme,
the Euler and RK4 integrators of the continuous model and the evaluations here
all read, so the discrete and the continuous model share their incidence.  The
threshold machinery needs only its slope d2f(x, 0) = d/dy f(x, y) at y = 0 =
g(x) / d(0, P) (`d2_at_zero`, unchecked `slope`).

Standing hypotheses on an incidence:
  * f(x, 0) = f(0, y) = 0 (H2),
  * f >= 0 on the nonnegative quadrant,
  * y -> f(x, y)/y non-increasing for fixed x (H5),
  * x -> d2f(x, 0) nondecreasing and Lipschitz (constant `lipschitz_k`),
which together imply f(x, y) <= k * x * y.  H2 and H5 hold by the factor form
(with g(0) = 0, and d(y, P) nondecreasing in y), and so does the rest for the
kinds linear in x.  What is left is a property of a separable g alone, which
`validate_incidence` checks once, when the incidence is built, on [0, 100].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple

import numpy as np

from .errors import ConfigError


def _check_xy(x, y):
    if np.any(np.asarray(x) < 0) or np.any(np.asarray(y) < 0):
        raise ValueError("incidence evaluated outside the nonnegative quadrant")


def _g_at(g, x):
    """float(g(x)) at every point of x, a scalar or an array; g = `float` (the
    identity of the kinds linear in x) keeps x as it is, times 1.0."""
    if g is float:
        return x * 1.0
    if isinstance(x, np.ndarray):  # g takes scalars
        return np.array([float(g(v)) for v in x.ravel()]).reshape(x.shape)
    return float(g(x))


class FactorForm(NamedTuple):
    """f(x, y, pop) = float(g(x)) * y / d(y, pop), one kind's declaration:
    g is the separable g, or `float` (x itself) for the kinds linear in x;
    d(y, pop) is 1 + a*y (saturated), pop when `by_pop` (standard; a is 0),
    or exactly 1, with no division, when neither is set (mass action,
    separable)."""

    g: Callable
    a: float = 0.0
    by_pop: bool = False


@dataclass(frozen=True)
class IncidenceFn:
    """One incidence function, immutable and shareable.

    kinds:
      mass_action   f(x, y) = x*y
      saturated(a)  f(x, y) = x*y / (1 + a*y)  (a finite, >= 0)
      standard      f(x, y) = x*y / P   (P supplied per call, `needs_population`)
      separable(g)  f(x, y) = g(x)*y    (g nonnegative, nondecreasing, Lipschitz)

    Each kind is declared once, by `factor_form()`, and everything else is
    derived from it: `eval` is g(x) * y / d(y, pop), `slope(x, pop)`
    (unchecked, scalars or arrays) and `d2_at_zero` through it are
    g(x) / d(0, pop).  The checked surface is `eval` and `d2_at_zero`.

    Every kind meets f(x, 0) = f(0, y) = 0 (H2) and y -> f(x, y)/y
    non-increasing (H5) by its factor form.  The declared kinds
    (`CONFIG_KINDS`) also meet the Lipschitz bound of d2f(x, 0) = x / d(0, P)
    with the k = 1 their constructors set (per unit population for
    `standard`), so f <= k x y.  Only a separable g, a user callable, can miss
    the hypotheses, so building a separable incidence checks g once, on
    [0, 100] (`validate_incidence`), and refuses a bad g with a ConfigError.
    """

    # configuration schema: kind -> (required, optional) keyword params of the
    # classmethod of that name; `separable` wraps a callable, so it has no entry
    CONFIG_KINDS: ClassVar[dict] = {
        "mass_action": ((), ()),
        "saturated": (("a",), ()),
        "standard": ((), ()),
    }

    kind: str
    a: float = 0.0
    lipschitz_k: float = 1.0
    _g: Callable | None = field(default=None, compare=False, repr=False)

    @classmethod
    def mass_action(cls) -> "IncidenceFn":
        return cls("mass_action")

    @classmethod
    def saturated(cls, a: float) -> "IncidenceFn":
        return cls("saturated", a=float(a))

    @classmethod
    def standard(cls) -> "IncidenceFn":
        # lipschitz_k is per unit population; effective constant is 1/P.
        return cls("standard")

    @classmethod
    def separable(cls, g: Callable, lipschitz_k: float) -> "IncidenceFn":
        return cls("separable", lipschitz_k=float(lipschitz_k), _g=g)

    def __post_init__(self):
        if self.kind not in (*self.CONFIG_KINDS, "separable"):
            raise ConfigError(f"unknown incidence kind {self.kind!r}")
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"saturation coefficient must be finite and >= 0, got {self.a}")
        if not self.lipschitz_k >= 0.0:  # also rejects NaN
            raise ValueError("lipschitz_k must be >= 0")
        if self.kind == "separable":
            if not callable(self._g):
                raise ValueError("separable incidence needs a callable g")
            validate_incidence(self._g, self.lipschitz_k)

    @property
    def needs_population(self) -> bool:
        """True when f is scaled by the total population (`standard`)."""
        return self.factor_form().by_pop

    def _pop(self, pop):
        if self.needs_population:
            if pop is None or not np.all(np.asarray(pop) > 0):
                raise ValueError("standard incidence needs a positive population scale")
            return pop
        return None

    # -- the per-kind declaration and the forms derived from it ------------

    def factor_form(self) -> FactorForm:
        """The one place each kind's formula is written (`FactorForm`)."""
        if self.kind == "separable":
            return FactorForm(self._g)
        if self.kind == "saturated":
            return FactorForm(float, a=self.a)
        return FactorForm(float, by_pop=self.kind == "standard")

    def slope(self, x, pop=None):
        """d2f(x, 0) = g(x) / d(0, pop) without domain checks; scalars or arrays."""
        g, _, by_pop = self.factor_form()
        gx = _g_at(g, x)
        return gx / pop if by_pop else gx  # d(0, pop) = 1 + a*0 = 1

    # -- checked surface ----------------------------------------------------

    def eval(self, x, y, pop=None):
        """f(x, y) = g(x) * y / d(y, pop); x, y >= 0 (scalars or arrays)."""
        _check_xy(x, y)
        pop = self._pop(pop)
        g, a, by_pop = self.factor_form()
        f = _g_at(g, x) * y
        if by_pop:
            return f / pop
        return f / (1.0 + a * y) if a else f

    def d2_at_zero(self, x, pop=None):
        """d/dy f(x, y) evaluated at y = 0."""
        _check_xy(x, 0.0)
        return self.slope(x, self._pop(pop))


# the samples of a separable g that `validate_incidence` reads
_G_SAMPLES = np.linspace(0.0, 100.0, 1024)


def validate_incidence(g: Callable, lipschitz_k: float) -> None:
    """Check a separable g on [0, 100]; a ConfigError names the first hypothesis
    it breaks and where: g(0) = 0 (to 1e-12), g >= 0 (to -1e-12), g
    nondecreasing (to 1e-9 of 1 + max |g|) and Lipschitz, every difference
    quotient of the samples at most lipschitz_k * (1 + 1e-9).  Calls g at 0 and
    at each of the 1024 samples, once."""
    g0 = float(g(0.0))
    if abs(g0) > 1e-12:
        raise ConfigError(f"separable incidence needs g(0) = 0, got {g0}")
    xs = _G_SAMPLES
    gv = np.asarray([float(g(x)) for x in xs])
    negative = gv < -1e-12
    if np.any(negative):
        i = int(np.argmax(negative))
        raise ConfigError(f"separable incidence needs g >= 0, got g({xs[i]:g}) = {gv[i]:g}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite g is refused below
        rises = np.diff(gv)
        quotients = np.abs(rises / np.diff(xs))
    falls = rises < -1e-9 * (1.0 + np.max(np.abs(gv)))
    if np.any(falls):
        i = int(np.argmax(falls))
        raise ConfigError(f"separable incidence needs nondecreasing g, but g falls from "
                          f"{gv[i]:g} to {gv[i + 1]:g} on [{xs[i]:g}, {xs[i + 1]:g}]")
    steep = ~(quotients <= lipschitz_k * (1.0 + 1e-9))  # NaN included
    if np.any(steep):
        i = int(np.argmax(steep))
        raise ConfigError(f"separable incidence needs g Lipschitz with constant "
                          f"lipschitz_k = {lipschitz_k:g}, but its difference quotient "
                          f"on [{xs[i]:g}, {xs[i + 1]:g}] is {quotients[i]:g}")
