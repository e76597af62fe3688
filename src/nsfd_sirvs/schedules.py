"""Time-varying model coefficients and their discrete counterparts.

A SIRVS model instance is parameterized by eight nonnegative coefficient
schedules: Lambda (inflow of newborns), mu (natural mortality), p
(vaccination rate), eta (immunity loss), alpha (disease-induced mortality),
beta (transmission from susceptibles), sigma (transmission from vaccinated)
and gamma (recovery).  This module represents those schedules, the step
denominator function phi(h) used by the nonstandard difference scheme, and
the map producing per-step parameter sequences

    c_n = phi(h) * c(n*h)

from the continuous schedules.

Two schedules are the same function (`function_key`) by declaration, never
by sampled values: the same kind and period, bit-equal parameters (0.0 and
-0.0 differ), and for `custom` the same callable and derivative objects.  Two
sequences of `DiscreteParams` are the same when they are one object, which
`mickens_discretize` makes of twin schedules.  Schedule and sequence
callables are taken to be pure, so every reader of several coefficients on one
grid (`ScheduleSet.evaluate`, `DiscreteParams.columns`) evaluates each
distinct one once and hands its twins the same result.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from .errors import ConfigError

SCHEDULE_NAMES = ("Lambda", "mu", "p", "eta", "alpha", "beta", "sigma", "gamma")
DISEASE_FREE_NAMES = ("Lambda", "mu", "p", "eta")  # the coefficients of the disease-free pair
APERIODIC_HORIZON = 100.0  # the time span read where schedules have no common period

# Construction-time validation knobs.
_NONNEG_SAMPLES = 10_000
_PERIOD_RTOL = 1e-12
_DERIV_STEP = 1e-5
_DERIV_RTOL = 1e-6


def _scalar_or_array(t, out):
    if isinstance(t, np.ndarray):
        return np.asarray(out, dtype=float)
    return float(out)


class _Elementwise:
    """A scalar-only callable `fn`, applied element by element to an ndarray.
    `function_key` reads `fn` through it, so one callable wrapped for several
    schedules is still one function."""

    def __init__(self, fn: Callable):
        self.fn = fn

    def __call__(self, t):
        if isinstance(t, np.ndarray):
            return np.array([float(self.fn(float(x))) for x in t.ravel()]).reshape(t.shape)
        return self.fn(t)


def _ensure_vectorized(fn: Callable) -> Callable:
    """Wrap a scalar-only callable so it also accepts ndarrays."""
    probe = np.array([0.0, 0.5])
    try:
        out = np.asarray(fn(probe), dtype=float)
        if out.shape == probe.shape:
            return fn
    except Exception:
        pass
    return _Elementwise(fn)


@dataclass(frozen=True)
class ParamSchedule:
    """One named, nonnegative coefficient schedule t -> c(t), t >= 0.

    Instances are immutable and safe to share across threads.  Use the
    classmethod constructors (`constant`, `harmonic`, `piecewise`, `custom`);
    they validate finite parameters, nonnegativity, declared periods and
    supplied derivatives, and declare `constant`: the value of a `constant`
    schedule, a harmonic with amplitude 0 or a piecewise table of equal values.
    Outside this module only the configuration codec reads `kind` and `params`.
    """

    # configuration schema: kind -> (required, optional) keyword params of the
    # classmethod of that name; `custom` wraps a callable, so it has no entry
    CONFIG_KINDS: ClassVar[dict] = {
        "constant": (("value",), ()),
        "harmonic": (("base", "amplitude", "omega"), ("phase",)),
        "piecewise": (("breakpoints", "values"), ()),
    }

    name: str
    kind: str  # "constant" | "harmonic" | "piecewise" | "custom"
    params: dict
    period: float | None
    smooth: bool
    _fn: Callable = field(compare=False, repr=False)
    _dfn: Callable | None = field(compare=False, repr=False, default=None)
    # the value `eval` gives at every t, bit for bit, when declared constant,
    # else None; on the class the name is the `constant` constructor, which
    # dataclass takes as the default, so every constructor passes the field
    constant: float | None

    # -- constructors -------------------------------------------------------

    @classmethod
    def constant(cls, name: str, value: float) -> "ParamSchedule":
        value = float(value)
        if not math.isfinite(value) or value < 0:
            raise ValueError(f"schedule {name!r}: constant value must be finite and >= 0, got {value}")

        def fn(t, v=value):
            return np.full(t.shape, v) if isinstance(t, np.ndarray) else v

        def dfn(t):
            return np.zeros(t.shape) if isinstance(t, np.ndarray) else 0.0

        return cls(name, "constant", {"value": value}, None, True, fn, dfn, constant=value)

    @classmethod
    def harmonic(cls, name: str, base: float, amplitude: float,
                 omega: float, phase: float = 0.0) -> "ParamSchedule":
        """Schedule c(t) = base + amplitude*cos(omega*t + phase)."""
        base, amplitude, omega, phase = map(float, (base, amplitude, omega, phase))
        base += 0.0  # -0.0 -> 0.0: with amplitude 0, c(t) is then `base` bit for bit
        params = {"base": base, "amplitude": amplitude, "omega": omega, "phase": phase}
        for key, value in params.items():
            if not math.isfinite(value):
                raise ValueError(f"schedule {name!r}: harmonic {key} must be finite, got {value}")
        if not math.isfinite(base + abs(amplitude)):  # the peak value would be inf
            raise ValueError(f"schedule {name!r}: harmonic base + |amplitude| overflows")
        if omega <= 0:
            raise ValueError(f"schedule {name!r}: harmonic omega must be > 0 (use constant otherwise)")
        if base - abs(amplitude) < 0:
            raise ValueError(
                f"schedule {name!r}: harmonic dips negative (base {base} < |amplitude| {abs(amplitude)})")

        def fn(t):
            return base + amplitude * np.cos(omega * t + phase)

        def dfn(t):
            return -amplitude * omega * np.sin(omega * t + phase)

        return cls(name, "harmonic", params, 2.0 * math.pi / omega, True, fn, dfn,
                   constant=base if amplitude == 0.0 else None)

    @classmethod
    def piecewise(cls, name: str, breakpoints: Sequence[float], values: Sequence[float],
                  allow_negative: bool = False) -> "ParamSchedule":
        """Left-closed step function: c(t) = values[i] on [breakpoints[i], breakpoints[i+1]).

        The last value extends to +infinity.  The first breakpoint must be 0
        so the whole domain t >= 0 is covered.
        """
        bp = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float) + 0.0  # -0.0 -> 0.0: equal values, equal bits
        if bp.size == 0 or vals.size == 0:
            raise ConfigError(f"schedule {name!r}: empty piecewise table")
        if bp.size != vals.size:
            raise ConfigError(
                f"schedule {name!r}: {bp.size} breakpoints but {vals.size} values")
        if bp[0] != 0.0:
            raise ConfigError(f"schedule {name!r}: first breakpoint must be 0, got {bp[0]}")
        if not (np.all(np.diff(bp) > 0) and np.isfinite(bp[-1])):  # NaN compares False
            raise ConfigError(f"schedule {name!r}: breakpoints must be finite and "
                              "strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"schedule {name!r}: non-finite table value")
        if not allow_negative and np.any(vals < 0):
            raise ValueError(f"schedule {name!r}: negative table value (min {vals.min()})")

        def fn(t, bp=bp, vals=vals):
            idx = np.searchsorted(bp, t, side="right") - 1
            return vals[idx]

        params = {"breakpoints": bp.tolist(), "values": vals.tolist()}
        return cls(name, "piecewise", params, None, False, fn, None,
                   constant=float(vals[0]) if np.all(vals == vals[0]) else None)

    @classmethod
    def custom(cls, name: str, fn: Callable, derivative: Callable | None = None,
               period: float | None = None, allow_negative: bool = False) -> "ParamSchedule":
        """Arbitrary callable schedule.

        Nonnegativity is checked by dense sampling (10^4 points over one
        declared period, or over [0, 100] when aperiodic); a declared period
        and a supplied derivative are cross-checked numerically.
        """
        if period is not None and not 0 < period < math.inf:
            raise ValueError(f"schedule {name!r}: period must be positive and finite, got {period}")
        fn = _ensure_vectorized(fn)
        if derivative is not None:
            derivative = _ensure_vectorized(derivative)
        horizon = period if period is not None else APERIODIC_HORIZON
        ts = np.linspace(0.0, horizon, _NONNEG_SAMPLES)
        vals = np.asarray(fn(ts), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"schedule {name!r}: non-finite value on sample grid")
        scale = 1.0 + float(np.max(np.abs(vals)))
        if not allow_negative and np.any(vals < -1e-12 * scale):
            raise ValueError(f"schedule {name!r}: negative value on sample grid "
                             f"(min {vals.min():.6g})")
        if period is not None:
            tp = np.linspace(0.0, period, 64)
            f0 = np.asarray(fn(tp), dtype=float)
            f1 = np.asarray(fn(tp + period), dtype=float)
            bad = np.abs(f1 - f0) > _PERIOD_RTOL * (1.0 + np.abs(f0))
            if np.any(bad):
                raise ValueError(f"schedule {name!r}: declared period {period} not satisfied "
                                 f"(max defect {np.max(np.abs(f1 - f0)):.3g})")
        if derivative is not None:
            tc = np.linspace(_DERIV_STEP, horizon, 64)
            d = np.asarray(derivative(tc), dtype=float)
            fd = (np.asarray(fn(tc + _DERIV_STEP), dtype=float)
                  - np.asarray(fn(tc - _DERIV_STEP), dtype=float)) / (2.0 * _DERIV_STEP)
            bad = np.abs(fd - d) > _DERIV_RTOL * (1.0 + np.abs(d))
            if np.any(bad):
                raise ValueError(f"schedule {name!r}: derivative disagrees with central "
                                 f"differences (max defect {np.max(np.abs(fd - d)):.3g})")
        return cls(name, "custom", {}, period, True, fn, derivative, constant=None)

    # -- evaluation ---------------------------------------------------------

    def _times(self, t, what: str) -> np.ndarray:
        """t as a float array; a ValueError unless every time is finite and >= 0
        (n h overflowing to inf would give NaN values, cos(inf) = NaN)."""
        arr = np.asarray(t, dtype=float)
        if (arr < 0).any():
            raise ValueError(f"schedule {self.name!r} {what} at negative time")
        if not np.isfinite(arr).all():
            raise ValueError(f"schedule {self.name!r} {what} at non-finite time")
        return arr

    def eval(self, t):
        """Evaluate at time t (scalar or ndarray); t must be finite and >= 0."""
        arr = self._times(t, "evaluated")
        return _scalar_or_array(t, self._fn(arr if isinstance(t, np.ndarray) else float(arr)))

    @property
    def has_derivative(self) -> bool:
        return self._dfn is not None

    def derivative_at(self, t):
        if self._dfn is None:
            raise ValueError(f"schedule {self.name!r} has no derivative")
        arr = self._times(t, "derivative")
        return _scalar_or_array(t, self._dfn(arr if isinstance(t, np.ndarray) else float(arr)))

    def column(self, t):
        """The schedule on the grid t: its value, one float, when it is constant,
        else `eval(t)`; arithmetic with either gives the same elements."""
        return self.eval(t) if self.constant is None else self.constant

    def left_column(self, t):
        """`column` read as the limit from the left at each t > 0: the same
        except at a breakpoint of a piecewise table, where it is the value of
        the interval that ends there."""
        if self.kind != "piecewise" or self.constant is not None:
            return self.column(t)
        arr = self._times(t, "evaluated")
        idx = np.searchsorted(self.params["breakpoints"], arr, side="left") - 1
        return np.asarray(self.params["values"])[np.maximum(idx, 0)]


def function_key(f):
    """The one rule for when two coefficients are the same function: exactly
    when their keys are equal.  It is declared, never inferred from values.
    Schedules: the same kind, period and parameters, bit for bit (`repr` of a
    float is exact, so 0.0 and -0.0 differ), and for `custom` the same
    callable and derivative objects, as given (`_Elementwise` is seen
    through); dataclass `==` is not the rule, it ignores those.
    Sequences of `DiscreteParams`: the same object."""
    if not isinstance(f, ParamSchedule):
        return id(f)
    declared = repr((f.kind, f.period, f.params))
    if f.kind != "custom":
        return declared
    given = [fn.fn if isinstance(fn, _Elementwise) else fn for fn in (f._fn, f._dfn)]
    return (declared, *map(id, given))


def _first_twins(functions: Mapping[str, Callable]) -> dict:
    """name -> the first name, in order, of the same function (`function_key`):
    itself when none before it is.  Taken from the declarations, once, when the
    set or the sequences are built."""
    first = {}
    return {name: first.setdefault(function_key(f), name) for name, f in functions.items()}


def _once_each(first: dict, names, evaluate: Callable) -> list:
    """[evaluate(name) for name in names], with evaluate called once per distinct
    function (`first`, from `_first_twins`): a twin gets that result, the same
    object.  Nothing is kept after the call."""
    done = {}
    out = []
    for name in names:
        twin = first[name]
        if twin not in done:
            done[twin] = evaluate(name)
        out.append(done[twin])
    return out


@dataclass(frozen=True)
class ScheduleSet:
    """The full set of eight coefficient schedules of one model."""

    Lambda: ParamSchedule
    mu: ParamSchedule
    p: ParamSchedule
    eta: ParamSchedule
    alpha: ParamSchedule
    beta: ParamSchedule
    sigma: ParamSchedule
    gamma: ParamSchedule

    _first: dict = field(init=False, repr=False, compare=False)  # `_first_twins`

    def __post_init__(self):
        for name in SCHEDULE_NAMES:
            sched = getattr(self, name)
            if sched is None:
                raise ConfigError(f"missing schedule {name!r}")
            if sched.name != name:
                raise ConfigError(f"schedule named {sched.name!r} assigned to slot {name!r}")
        object.__setattr__(self, "_first", _first_twins(self.as_dict()))

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, ParamSchedule]) -> "ScheduleSet":
        missing = [n for n in SCHEDULE_NAMES if n not in mapping]
        if missing:
            raise ConfigError(f"missing schedules: {', '.join(missing)}")
        extra = [n for n in mapping if n not in SCHEDULE_NAMES]
        if extra:
            raise ConfigError(f"unknown schedules: {', '.join(sorted(extra))}")
        return cls(**{n: mapping[n] for n in SCHEDULE_NAMES})

    def as_dict(self) -> dict:
        return {n: getattr(self, n) for n in SCHEDULE_NAMES}

    def evaluate(self, names, t, evaluate: Callable) -> list:
        """[evaluate(schedule, t) for each named schedule], e.g. with
        `ParamSchedule.eval`, evaluating each distinct schedule (`function_key`)
        once: a twin gets the first one's result."""
        return _once_each(self._first, names, lambda name: evaluate(getattr(self, name), t))

    def constants(self, names) -> tuple[float, ...] | None:
        """The named schedules' `ParamSchedule.constant`s, in order; None unless all are set."""
        values = tuple(getattr(self, name).constant for name in names)
        return None if None in values else values

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        """The times in [t0, t1] where a piecewise schedule starts a new table
        entry, sorted and distinct: its declared breakpoints after 0 (a table
        declared constant has none).  No other kind declares a jump."""
        cuts = [bp for name in SCHEDULE_NAMES
                if (s := getattr(self, name)).kind == "piecewise" and s.constant is None
                for bp in s.params["breakpoints"][1:] if t0 <= bp <= t1]
        return np.unique(np.asarray(cuts, dtype=float))

    def common_period(self, names=SCHEDULE_NAMES) -> float | None:
        """Common declared period of the non-constant named schedules, if any.

        Returns None when any of them is aperiodic or periods disagree;
        returns None as well when every one is constant.
        """
        periods = [getattr(self, n).period for n in names if getattr(self, n).constant is None]
        if not periods or None in periods:
            return None
        ref = periods[0]
        return None if any(abs(T - ref) > 1e-12 * max(1.0, ref) for T in periods) else ref

    def one_sinusoid(self, names, weights) -> tuple[complex, float] | None:
        """(Z, omega) with sum_i c_i s_i'(t) = -omega Im(Z e^{i omega t}) and
        Z = sum_i c_i A_i e^{i phase_i}, for the named schedules s_i and weights
        c_i, when every non-constant s_i is harmonic with one omega; else None."""
        z, omega = 0j, None
        for name, c in zip(names, weights):
            s = getattr(self, name)
            if s.constant is None:
                if s.kind != "harmonic" or omega not in (None, s.params["omega"]):
                    return None
                omega, amplitude, phase = (s.params[k] for k in ("omega", "amplitude", "phase"))
                z += c * complex(amplitude * math.cos(phase), amplitude * math.sin(phase))
        return None if omega is None else (z, omega)


@dataclass(frozen=True)
class DenominatorFn:
    """Step denominator phi(h) of the nonstandard scheme.

    All registered kinds satisfy phi(h) > 0 for h > 0, phi(h) -> 0 and
    phi(h)/h -> 1 as h -> 0; the normalization is what makes the discrete
    and continuous threshold quantities comparable, so it is enforced
    numerically at construction.
    """

    # configuration schema: kind -> (required, optional) keyword params of the
    # classmethod of that name
    CONFIG_KINDS: ClassVar[dict] = {
        "identity": ((), ()),
        "quadratic": (("a",), ()),
        "exp_decay": (("c",), ()),
    }

    kind: str  # "identity" | "quadratic" | "exp_decay"
    a: float = 0.0
    c: float = 0.0

    @classmethod
    def identity(cls) -> "DenominatorFn":
        return cls("identity")

    @classmethod
    def quadratic(cls, a: float) -> "DenominatorFn":
        a = float(a)
        if not 0 <= a < math.inf:
            raise ValueError(f"quadratic denominator needs a finite a >= 0, got {a}")
        return cls("quadratic", a=a)

    @classmethod
    def exp_decay(cls, c: float) -> "DenominatorFn":
        c = float(c)
        if not 0 < c < math.inf:
            raise ValueError(f"exp_decay denominator needs a finite c > 0, got {c}")
        return cls("exp_decay", c=c)

    def __post_init__(self):
        if self.kind not in self.CONFIG_KINDS:
            raise ConfigError(f"unknown denominator kind {self.kind!r}")
        ratio = eval_denominator(self, 1e-8) / 1e-8
        if abs(ratio - 1.0) > 1e-6:
            raise ValueError(f"denominator violates phi(h)/h -> 1 (ratio {ratio} at h=1e-8)")


def eval_denominator(d: DenominatorFn, h: float) -> float:
    """Evaluate phi(h); h must be positive."""
    h = float(h)
    if not h > 0:
        raise ValueError(f"denominator needs h > 0, got {h}")
    if d.kind == "identity":
        return h
    if d.kind == "quadratic":
        return h + d.a * h * h
    # exp_decay: (1 - exp(-c h)) / c, expm1 keeps small-h accuracy
    return -math.expm1(-d.c * h) / d.c


def _check_step(h: float) -> None:
    """A step size must be finite and positive: an infinite one gives NaN tables."""
    if not math.isfinite(h):
        raise ConfigError(f"step size h = {h} is not finite")
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")


def _wrap_sequence(name, value):
    """A callable sequence as given; a number as the constant sequence of its
    value, which is recorded on it for `DiscreteParams.constant`."""
    if callable(value):
        return value

    v = float(value)

    def fn(n, v=v):
        return np.full(np.shape(n), v) if isinstance(n, np.ndarray) else v

    fn.constant = v
    return fn


@dataclass(frozen=True)
class DiscreteParams:
    """Per-step parameter sequences of the discrete model.

    Each coefficient is a callable of the step index n (scalar or integer
    ndarray).  When produced by `mickens_discretize`, the value at n is
    exactly phi(h) * c(n*h).  `step_period` is a common period in steps of
    all eight sequences, `aux_step_period` one of the disease-free four
    (`DISEASE_FREE_NAMES`); None where there is none.  Both are declared, never
    observed from values: 1 where every sequence involved is built `constant`.
    """

    h: float
    step_period: int | None
    aux_step_period: int | None
    Lambda: Callable = field(compare=False)
    mu: Callable = field(compare=False)
    p: Callable = field(compare=False)
    eta: Callable = field(compare=False)
    alpha: Callable = field(compare=False)
    beta: Callable = field(compare=False)
    sigma: Callable = field(compare=False)
    gamma: Callable = field(compare=False)
    _first: dict = field(init=False, repr=False, compare=False)  # `_first_twins`

    def __post_init__(self):
        object.__setattr__(self, "_first", _first_twins(
            {name: getattr(self, name) for name in SCHEDULE_NAMES}))

    @classmethod
    def from_sequences(cls, h: float, step_period: int | None = None,
                       **seqs) -> "DiscreteParams":
        """Build directly from index sequences (callables or numbers); a declared
        period of all eight is one of the disease-free four, else names all
        given as numbers have period 1.  One callable given for two names is
        one sequence, evaluated once per grid (`columns`)."""
        missing = [n for n in SCHEDULE_NAMES if n not in seqs]
        if missing:
            raise ConfigError(f"missing sequences: {', '.join(missing)}")
        extra = [n for n in seqs if n not in SCHEDULE_NAMES]
        if extra:
            raise ConfigError(f"unknown sequences: {', '.join(sorted(extra))}")
        _check_step(h)
        if step_period is not None and not (isinstance(step_period, numbers.Integral)
                                            and step_period >= 1):
            raise ValueError(f"step_period must be an integer >= 1, got {step_period!r}")
        wrapped = {n: _wrap_sequence(n, seqs[n]) for n in SCHEDULE_NAMES}
        full, aux = (step_period if step_period is not None else
                     1 if all(hasattr(wrapped[n], "constant") for n in names) else None
                     for names in (SCHEDULE_NAMES, DISEASE_FREE_NAMES))
        return cls(h=float(h), step_period=full, aux_step_period=aux, **wrapped)

    def array(self, name: str, start: int, stop: int) -> np.ndarray:
        """Vectorized sequence values over the index range [start, stop), one per
        index, also for a callable that returns a scalar."""
        ns = np.arange(start, stop)
        vals = np.asarray(getattr(self, name)(ns), dtype=float)
        return vals if vals.shape == ns.shape else np.broadcast_to(vals, ns.shape)

    def constant(self, name: str) -> float | None:
        """The value of a sequence built constant (a number given to
        `from_sequences`, a constant schedule in `mickens_discretize`), else
        None; it equals every value of the sequence bit for bit."""
        return getattr(getattr(self, name), "constant", None)

    def distinct(self, names) -> list:
        """One name of each distinct sequence (`function_key`) among `names`: the
        first of its twins."""
        return list(dict.fromkeys(self._first[name] for name in names))

    def columns(self, names, start: int, stop: int) -> list:
        """The named sequences over the index range [start, stop): for each, its
        value, one float, when it is built constant, else `array(name, start,
        stop)`.  Each distinct sequence (`function_key`) is evaluated once: a
        twin gets the first one's column."""
        def column(name):
            value = self.constant(name)
            return self.array(name, start, stop) if value is None else value

        return _once_each(self._first, names, column)


def mickens_discretize(schedules: ScheduleSet, h: float, d: DenominatorFn) -> DiscreteParams:
    """Produce the discrete parameter sequences c_n = phi(h) * c(n*h).

    The multiplication is performed exactly as written, so values agree
    bit-for-bit with eval_denominator(d, h) * schedule.eval(n*h).  Schedules
    that are the same function (`function_key`) get one sequence object.
    """
    if not isinstance(schedules, ScheduleSet):
        schedules = ScheduleSet.from_mapping(schedules)
    _check_step(h)
    h = float(h)
    ph = eval_denominator(d, h)

    def make(sched):
        if sched.constant is not None:  # the same product, taken once instead of per index
            return _wrap_sequence(sched.name, ph * sched.constant)

        def seq(n, sched=sched, ph=ph, h=h):
            if isinstance(n, np.ndarray):
                with np.errstate(over="ignore"):  # eval rejects an n h that is inf
                    t = np.asarray(n, dtype=float) * h
            else:
                t = n * h
            return ph * sched.eval(t)

        return seq

    seqs = _once_each(schedules._first, SCHEDULE_NAMES, lambda n: make(getattr(schedules, n)))
    return DiscreteParams(h=h, step_period=_step_period(schedules, SCHEDULE_NAMES, h),
                          aux_step_period=_step_period(schedules, DISEASE_FREE_NAMES, h),
                          **dict(zip(SCHEDULE_NAMES, seqs)))


def _step_period(schedules: ScheduleSet, names, h: float) -> int | None:
    """Steps of size h in one common period of the named schedules: 1 when all
    are constant, None without a common period or a whole number of steps in it."""
    T = schedules.common_period(names)
    if T is None:
        return 1 if schedules.constants(names) is not None else None
    ratio = T / h  # inf for a subnormal h: no whole number of steps then
    if not math.isfinite(ratio) or round(ratio) < 1:
        return None
    return int(round(ratio)) if abs(ratio - round(ratio)) <= 1e-9 * max(1.0, ratio) else None


@dataclass(frozen=True)
class HypothesisReport:
    """Numeric check of the standing hypotheses on the parameter sequences,
    over the window starts n = 0 .. stop - 1 and one window w:

    H3: limsup_n prod_{k=n}^{n+w} 1/(1+mu_k) < 1  (mortality does not vanish)
    H4: liminf_n sum_{k=n+1}^{n+w} of Lambda_k and of p_k are positive
    """

    window: int
    stop: int
    h3_max_product: float
    h4_min_Lambda_sum: float
    h4_min_p_sum: float
    h3_holds: bool
    h4_holds: bool
    warnings: tuple[str, ...] = ()


def window_sums(values: np.ndarray, width: int) -> np.ndarray:
    """The sums of `width` consecutive values, one per start 0 .. len - width,
    as differences of one prefix sum; the package's only sliding-window rule."""
    c = np.concatenate([[0.0], np.cumsum(values)])
    return c[width:] - c[:-width]


def validate_hypotheses(dp: DiscreteParams, window: int = 1,
                        stop: int = 1000) -> HypothesisReport:
    """Scan the window starts 0 .. stop - 1 for the H3/H4 hypothesis surrogates."""
    w, stop = int(window), int(stop)
    if stop <= 0:
        raise ValueError("empty scan range")
    if w < 1:
        raise ValueError("window must be >= 1")

    mu, lam, p = (dp.array(name, 0, stop + w + 1) for name in ("mu", "Lambda", "p"))

    warnings = []
    values = dp.columns(SCHEDULE_NAMES, 0, min(stop, 1000) + w)
    for name, vals in zip(SCHEDULE_NAMES, values):
        if np.any(vals < 0):
            warnings.append(f"sequence {name!r} takes negative values on the scan range; "
                            "nonnegativity hypotheses are violated")

    # H3: sliding products of 1/(1+mu_k), k = n .. n+w
    h3_max = float(np.exp(window_sums(-np.log1p(mu), w + 1))[:stop].max())
    # H4: sliding sums over k = n+1 .. n+w
    h4_lam, h4_p = (float(window_sums(vals, w)[1:stop + 1].min()) for vals in (lam, p))

    return HypothesisReport(
        window=w, stop=stop,
        h3_max_product=h3_max,
        h4_min_Lambda_sum=h4_lam,
        h4_min_p_sum=h4_p,
        h3_holds=h3_max < 1.0,
        h4_holds=(h4_lam > 0.0) and (h4_p > 0.0),
        warnings=tuple(warnings),
    )
