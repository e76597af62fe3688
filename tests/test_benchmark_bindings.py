"""The benchmark's tracer must find every package function it times.

`perfbench/tracing.py` wraps the functions named in its `BINDINGS` where their
callers look them up; a name it cannot find is reported in `missing` and its
per-layer metrics silently read 0.  Loading the tracer as the benchmark does
(with `perfbench/` on sys.path) makes a refactor that drops or moves a traced
name fail here instead.
"""

import importlib
import sys
from pathlib import Path

import nsfd_sirvs
import nsfd_sirvs.cli  # noqa: F401  (the tracer looks up `cli.main`)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_binding(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    loaded = {"tracing", "workloads"} - set(sys.modules)
    try:
        tracing = importlib.import_module("tracing")
        assert Path(tracing.__file__).resolve().parent == PERFBENCH
        assert tracing.Tracer(nsfd_sirvs).missing == []
    finally:
        for name in loaded:  # the benchmark's modules, not the package's
            sys.modules.pop(name, None)
