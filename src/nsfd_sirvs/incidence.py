"""Incidence (transmission) functions f(x, y).

Every incidence has the form f(x, y, P) = g(x) * y / d(y, P), and each kind is
declared once as that form (`IncidenceFn.factor_form`), which the NSFD scheme,
the Euler and RK4 integrators of the continuous model and the evaluations here
all read, so the discrete and the continuous model share their incidence.  The
threshold machinery needs only its slope d2f(x, 0) = d/dy f(x, y) at y = 0 =
g(x) / d(0, P) (`d2_at_zero`, unchecked `slope`).

Standing hypotheses on an incidence:
  * f(x, 0) = f(0, y) = 0,
  * f >= 0 on the nonnegative quadrant,
  * y -> f(x, y)/y non-increasing for fixed x,
  * x -> d2f(x, 0) nondecreasing and Lipschitz (constant `lipschitz_k`),
which together imply f(x, y) <= k * x * y.  `validate_incidence` checks all
of these numerically on a grid.
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
    g(x) / d(0, pop).  The checked surface is `eval`, `d2_at_zero` and
    `d2_lipschitz`.

    The declared kinds (`CONFIG_KINDS`) meet the standing hypotheses by
    construction: f(x, 0) = f(0, y) = 0 (H2), y -> f(x, y)/y non-increasing
    (H5), and the Lipschitz bound of d2f(x, 0) = x / d(0, P) with the k = 1
    their constructors set (per unit population for `standard`), so
    f <= k x y.  Only a separable g, a user callable, can miss them, so only
    such an incidence `needs_validation`.
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
        if abs(float(g(0.0))) > 1e-12:
            raise ValueError(f"separable incidence needs g(0) = 0, got {g(0.0)}")
        xs = np.linspace(0.0, 100.0, 1024)
        gv = np.asarray([float(g(x)) for x in xs])
        if np.any(gv < -1e-12):
            raise ValueError("separable incidence needs g >= 0")
        if np.any(np.diff(gv) < -1e-9 * (1.0 + np.max(np.abs(gv)))):
            raise ValueError("separable incidence needs nondecreasing g")
        return cls("separable", lipschitz_k=float(lipschitz_k), _g=g)

    def __post_init__(self):
        if self.kind not in (*self.CONFIG_KINDS, "separable"):
            raise ConfigError(f"unknown incidence kind {self.kind!r}")
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError(f"saturation coefficient must be finite and >= 0, got {self.a}")
        if not self.lipschitz_k >= 0.0:  # also rejects NaN
            raise ValueError("lipschitz_k must be >= 0")
        if self.kind == "separable" and not callable(self._g):
            raise ValueError("separable incidence needs a callable g")

    @property
    def needs_validation(self) -> bool:
        """True when g is a user callable (`separable`), the only kind that
        `validate_incidence` can find at fault."""
        return self._g is not None

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

    def d2_lipschitz(self, pop=None) -> float:
        """Effective Lipschitz constant of x -> d2_at_zero(x)."""
        if self.needs_population:
            return self.lipschitz_k / float(self._pop(pop))
        return self.lipschitz_k


@dataclass(frozen=True)
class IncidenceReport:
    """Grid validation results for one incidence function."""

    grid: tuple[float, float, int]
    h2_max_abs: float
    h5_max_increase: float
    lipschitz_estimate: float
    lipschitz_ok: bool
    bound_max_violation: float  # relative to 1 + k*x*y
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return (self.h2_max_abs <= 1e-12 and self.h5_max_increase <= 0.0
                and self.lipschitz_ok and self.bound_max_violation <= 1e-12)


def validate_incidence(f, x_max: float, y_max: float, resolution: int = 256,
                       pop: float | None = None) -> IncidenceReport:
    """Check the standing hypotheses on [0, x_max] x [0, y_max].

    Accepts any object with the IncidenceFn evaluation surface, so broken
    candidates can be screened before being promoted to model inputs.
    """
    if not (x_max > 0 and y_max > 0):
        raise ValueError("grid extents must be positive")
    resolution = int(resolution)
    if resolution < 16:
        raise ValueError("resolution must be >= 16 points per axis")

    xs = np.linspace(0.0, x_max, resolution)
    ys = np.linspace(0.0, y_max, resolution)

    needs_pop = getattr(f, "needs_population", False)
    kw = {"pop": pop} if needs_pop else {}
    if needs_pop and pop is None:
        raise ValueError("validate_incidence needs pop for population-scaled incidence")

    # One evaluation on the whole grid, F[i, j] = f(xs[i], ys[j]), from the two
    # axes broadcast against each other (a separable g runs once per x); every
    # check below reads it.  The Python max() folds keep the per-row semantics
    # of a point-by-point scan, NaN rows included.
    X, Y = xs[:, None], ys[None, :]
    F = np.broadcast_to(np.asarray(f.eval(X, Y, **kw), dtype=float),
                        (resolution, resolution))

    # H2 exactness along both axes.
    h2 = 0.0
    h2 = max(h2, float(np.max(np.abs(F[:, 0]))))
    h2 = max(h2, float(np.max(np.abs(F[0, :]))))

    # H5: y -> f(x, y)/y non-increasing on y > 0 (sampled), one row per x > 0.
    ratios = F[1:, 1:] / ys[1:]
    ratio_scale = max([0.0] + np.max(np.abs(ratios), axis=1).tolist())
    h5_violation = max([-np.inf] + np.max(np.diff(ratios, axis=1), axis=1).tolist())
    tol = 1e-9 * (1.0 + ratio_scale)
    h5_excess = max(0.0, h5_violation) if h5_violation > tol else 0.0

    # Lipschitz estimate for x -> d2 f(x, 0).
    d2 = np.asarray(f.d2_at_zero(xs, **kw), dtype=float)
    slopes = np.abs(np.diff(d2) / np.diff(xs))
    lip_est = float(np.max(slopes))
    k_eff = f.d2_lipschitz(**kw) if hasattr(f, "d2_lipschitz") else f.lipschitz_k
    lip_ok = lip_est <= k_eff * (1.0 + 1e-9)

    # Derived bound f(x, y) <= k * x * y, measured relative to the product's
    # own magnitude so the check is meaningful at population scales.
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
