"""The benchmark's tracer must find every package function it times.

`perfbench/tracing.py` wraps the functions named in its `BINDINGS` where their
callers look them up; a name it cannot find is reported in `missing` and its
per-layer metrics silently read 0.  Loading the tracer as the benchmark does
(with `perfbench/` on sys.path) makes a refactor that drops or moves a traced
name, or changes what the tracer reads from its calls, fail here instead.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import nsfd_sirvs
import nsfd_sirvs.cli  # noqa: F401  (the tracer looks up `cli.main`)
from nsfd_sirvs.scenarios import builtin

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = {"tracing", "workloads"} - set(sys.modules)
    try:
        module = importlib.import_module("tracing")
        assert Path(module.__file__).resolve().parent == PERFBENCH
        yield module
    finally:
        for name in loaded:  # the benchmark's modules, not the package's
            sys.modules.pop(name, None)


def test_tracer_finds_every_binding(tracing):
    assert tracing.Tracer(nsfd_sirvs).missing == []


def test_tracer_counts_the_continuous_steps(tracing):
    # the tracer binds `method` and reads `.n_steps` of each integrate_continuous
    # call; a change to either would zero these metrics without a failure
    spec = builtin("persistence_5_1")
    tracer = tracing.Tracer(nsfd_sirvs)
    tracer.install()
    try:
        runs = {method: nsfd_sirvs.dynamics.integrate_continuous(
                    spec.schedules, spec.incidence_phi, spec.incidence_psi,
                    spec.initial_state, 3.0, h, method=method)
                for method, h in (("rk4", 0.01), ("euler", 0.1))}
    finally:
        tracer.uninstall()
    metrics = tracing.per_layer_metrics([tracer.take_pass()], tracer.missing, 0.0)
    assert (runs["rk4"].n_steps, runs["euler"].n_steps) == (300, 30)
    for method, traj in runs.items():
        name = f"dynamics.integrate_continuous.{method}"
        assert metrics[f"{name}.steps"]["value"] == traj.n_steps
        assert metrics[f"{name}.ns_per_step"]["value"] > 0


def _unused_imports(source: str) -> set:
    """Names a module imports (`from __future__` aside) and never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_unused_import_finder_sees_an_unused_name():
    source = "import json\nfrom math import inf, pi\nfrom .a import b as c\nx = pi + json.X\n"
    assert _unused_imports(source) == {"inf", "c"}


def test_every_unused_import_is_a_tracer_binding(tracing):
    # an import a module does not use may stay only where perfbench/tracing.py
    # wraps that name in that module; any other is left over from a refactor
    package = Path(nsfd_sirvs.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        bound = {func.split(".")[1] for func, (_, callers) in tracing.BINDINGS.items()
                 if path.stem in callers}
        assert _unused_imports(path.read_text(encoding="utf-8")) <= bound, path.name
