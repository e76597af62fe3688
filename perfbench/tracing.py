"""In-memory spans around the calls into each nsfd_sirvs module.

While a `Tracer` is installed, every binding in `BINDINGS` is replaced by a
wrapper that records one span per call: name, key, start, end and the span
that was open when it started.  A function is wrapped where its callers look
it up: in each module that imports it, and in its defining module, which
covers same-module calls and the imports that `cli` makes inside functions.
Self time is a span's duration minus that of its direct children.

`PER_LAYER` lists the metrics derived from the spans of one pass; the names
and units are the `per_layer` entries of BENCHMARK.json.
"""

from __future__ import annotations

import inspect
import statistics
import time

from workloads import EXPECTED_VERDICTS

# function -> (defining module, other modules that import and call it)
BINDINGS = {
    "schedules.mickens_discretize": ("schedules", ("scenarios", "consistency", "cli")),
    "schedules.validate_hypotheses": ("schedules", ("scenarios", "thresholds")),
    "incidence.validate_incidence": ("incidence", ("scenarios",)),
    "dynamics.simulate_discrete": ("dynamics", ("scenarios", "cli")),
    "dynamics.integrate_continuous": ("dynamics", ("scenarios", "cli")),
    "dynamics.simulate_aux": ("dynamics", ("thresholds",)),
    "dynamics.periodic_aux_solution": ("dynamics", ("thresholds",)),
    "thresholds.discrete_thresholds": ("thresholds", ("scenarios", "consistency", "cli")),
    "thresholds.continuous_thresholds": ("thresholds", ("scenarios", "consistency", "cli")),
    "consistency.consistency_report": ("consistency", ("scenarios",)),
    "consistency.sup_abs_fprime": ("consistency", ()),
    "consistency.consistency_sweep": ("consistency", ("cli",)),
    "scenarios.run_scenario": ("scenarios", ("cli",)),
    "cli.main": ("cli", ()),
}

INCIDENCE_KINDS = ("mass_action", "saturated", "standard", "separable")


def _cli_key(args):
    argv = list(args["argv"] or ())
    return ":".join(argv[:3] if argv[:1] == ["scenario"] else argv[:2])


# function -> callable(bound arguments, result) -> (key, steps)
_KEYS = {
    "dynamics.simulate_discrete": lambda a, r: (a["phi"].kind, r.n_steps),
    "dynamics.integrate_continuous": lambda a, r: (a["method"].lower(), r.n_steps),
    "dynamics.simulate_aux": lambda a, r: (None, r.shape[0] - 1),
    "cli.main": lambda a, r: (_cli_key(a), 0),
}


class Tracer:
    """Records spans while installed on a package; one pass at a time."""

    def __init__(self, pkg):
        self.pkg = pkg
        self.spans = []  # [name, key, parent, start, end, steps]
        self.counters = {}
        self._stack = []
        self._saved = []
        self.missing = self._find_missing()

    def _find_missing(self) -> list[str]:
        missing = []
        for func, (home, callers) in BINDINGS.items():
            attr = func.split(".")[1]
            for mod in (home,) + callers:
                if not hasattr(getattr(self.pkg, mod, None), attr):
                    missing.append(f"{mod}.{attr}")
        return missing

    def install(self):
        for func, (home, callers) in BINDINGS.items():
            attr = func.split(".")[1]
            for mod_name in (home,) + callers:
                mod = getattr(self.pkg, mod_name, None)
                if not hasattr(mod, attr):
                    continue
                orig = getattr(mod, attr)
                self._saved.append((mod, attr, orig))
                setattr(mod, attr, self._wrap(func, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, func, orig):
        spans, stack = self.spans, self._stack
        keyed = _KEYS.get(func)
        sig = inspect.signature(orig) if keyed else None

        def wrapper(*args, **kwargs):
            span = [func, None, stack[-1] if stack else None, 0.0, 0.0, 0]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if keyed:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span[1], span[5] = keyed(bound.arguments, result)
            return result

        return wrapper

    def count(self, name: str, amount: int):
        self.counters[name] = self.counters.get(name, 0) + amount

    def take_pass(self) -> "PassStats":
        stats = PassStats(self.spans, self.counters)
        self.spans.clear()
        self.counters = {}
        return stats


class PassStats:
    """Totals per function (and per key) over the spans of one pass."""

    def __init__(self, spans, counters):
        child_s = [0.0] * len(spans)
        for name, key, parent, start, end, steps in spans:
            if parent is not None:
                child_s[parent] += end - start
        self.calls, self.s, self.self_s = {}, {}, {}
        self.key_s, self.key_steps = {}, {}
        for i, (name, key, parent, start, end, steps) in enumerate(spans):
            dur = end - start
            self.calls[name] = self.calls.get(name, 0) + 1
            self.s[name] = self.s.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s[i]
            k = (name, key)
            self.key_s[k] = self.key_s.get(k, 0.0) + dur
            self.key_steps[k] = self.key_steps.get(k, 0) + steps
        self.counters = dict(counters)

    def ns_per_step(self, func, key=None) -> float:
        steps = self.key_steps.get((func, key), 0)
        return 1e9 * self.key_s[(func, key)] / steps if steps else 0.0


def _calls(f):
    return lambda p: p.calls.get(f, 0)


def _s(f):
    return lambda p: p.s.get(f, 0.0)


def _self_s(f):
    return lambda p: p.self_s.get(f, 0.0)


def _steps(f, key=None):
    return lambda p: p.key_steps.get((f, key), 0)


def _ns_per_step(f, key=None):
    return lambda p: p.ns_per_step(f, key)


def _aux_steps_per_report(p):
    reports = p.calls.get("thresholds.discrete_thresholds", 0)
    return _steps("dynamics.simulate_aux")(p) / reports if reports else 0.0


def _per_layer_table():
    """(metric, unit, functions it depends on, value of one pass)."""
    rows = []
    f = "dynamics.integrate_continuous"
    for method in ("rk4", "euler"):
        rows += [(f"{f}.{method}.ns_per_step", "ns", (f,), _ns_per_step(f, method)),
                 (f"{f}.{method}.steps", "count", (f,), _steps(f, method))]
    f = "dynamics.simulate_discrete"
    for kind in INCIDENCE_KINDS:
        rows += [(f"{f}.{kind}.ns_per_step", "ns", (f,), _ns_per_step(f, kind)),
                 (f"{f}.{kind}.steps", "count", (f,), _steps(f, kind))]
    aux, dt = "dynamics.simulate_aux", "thresholds.discrete_thresholds"
    rows += [(f"{aux}.ns_per_step", "ns", (aux,), _ns_per_step(aux)),
             (f"{aux}.steps", "count", (aux,), _steps(aux))]
    f = "dynamics.periodic_aux_solution"
    rows += [(f"{f}.calls", "count", (f,), _calls(f)), (f"{f}.s", "s", (f,), _s(f))]
    rows += [(f"{dt}.calls", "count", (dt,), _calls(dt)),
             (f"{dt}.self_s", "s", (dt, aux), _self_s(dt)),
             ("thresholds.aux_steps_per_report", "steps/report", (dt, aux),
              _aux_steps_per_report)]
    f = "thresholds.continuous_thresholds"
    rows += [(f"{f}.calls", "count", (f,), _calls(f)), (f"{f}.s", "s", (f,), _s(f))]
    f = "consistency.consistency_report"
    rows += [(f"{f}.calls", "count", (f,), _calls(f)),
             (f"{f}.self_s", "s", (f, "thresholds.continuous_thresholds",
                                   "consistency.sup_abs_fprime"), _self_s(f))]
    for f in ("consistency.sup_abs_fprime", "consistency.consistency_sweep"):
        rows.append((f"{f}.s", "s", (f,), _s(f)))
    for f in ("incidence.validate_incidence", "schedules.mickens_discretize"):
        rows += [(f"{f}.calls", "count", (f,), _calls(f)), (f"{f}.s", "s", (f,), _s(f))]
    f = "schedules.validate_hypotheses"
    rows.append((f"{f}.s", "s", (f,), _s(f)))
    everything = tuple(BINDINGS)  # self time is only right when every child is traced
    rows += [
        ("scenarios.run_scenario.self_s", "s", everything, _self_s("scenarios.run_scenario")),
        ("cli.self_s", "s", everything, _self_s("cli.main")),
        ("cli.bytes_written", "bytes", ("cli.main",),
         lambda p: p.counters.get("cli.bytes_written", 0)),
        ("cli.files_written", "count", ("cli.main",),
         lambda p: p.counters.get("cli.files_written", 0)),
    ]
    rows += [(f"cli.main.{scen}.s", "s", ("cli.main",),
              lambda p, k=f"scenario:run:{scen}": p.key_s.get(("cli.main", k), 0.0))
             for scen in EXPECTED_VERDICTS]
    return rows


PER_LAYER = _per_layer_table()


def per_layer_metrics(passes: list[PassStats], missing: list[str],
                      overhead_s: float) -> dict:
    """Median over traced passes of each per-layer metric, as result entries.

    A metric that depends on a binding the package no longer has is reported
    with a null value and `"missing": true`, never as zero.
    """
    gone = {m.split(".")[1] for m in missing}
    out = {}
    for name, unit, deps, value_of in PER_LAYER:
        if any(d.split(".")[1] in gone for d in deps):
            out[name] = {"value": None, "unit": unit, "missing": True}
            continue
        values = [value_of(p) for p in passes]
        value = statistics.median(values)
        if all(isinstance(v, int) for v in values) and value == int(value):
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    out["tracing_overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out
