"""Closed-loop benchmark of the nsfd_sirvs package: one process, one client.

Run from the repository root:

    python3 perfbench/run.py --workload bundles --seed 1 --seconds 25 --trace 0

The package is imported from the checkout's src/ directory, never from an
installed copy; without it the benchmark exits with code 2.  Operations run
back to back, each one's output is checked after its pass (outside the timed
region), and the last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 untraced
and traced passes alternate, and the metrics are the per-layer ones of
perfbench/tracing.py plus the tracing overhead.  The line before it is a JSON
report with the environment, the operation-tail details, the bundle digests
and every problem found.
"""

import os

# pinned before numpy is imported, so that BLAS never starts worker threads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("schedules", "incidence", "dynamics", "thresholds", "consistency",
           "scenarios", "cli")

# Median wall time of one pass at the seed commit (2-core Intel Xeon, Python
# 3.11, numpy 2.4).  --seconds / NOMINAL_PASS_S, rounded up, fixes the number of
# passes, so every commit compared does the same work and each percentile is
# taken at the same rank.
NOMINAL_PASS_S = {"bundles": 9.6, "sweep": 1.5, "long_run": 1.27}
MIN_PASSES = 3
SETUP_REPS = 3


def import_package():
    """Fresh import of nsfd_sirvs and its modules from the checkout's src/."""
    for name in [m for m in sys.modules if m.split(".")[0] == "nsfd_sirvs"]:
        del sys.modules[name]
    pkg = importlib.import_module("nsfd_sirvs")
    for mod in MODULES:
        importlib.import_module(f"nsfd_sirvs.{mod}")
    return pkg


def environment() -> dict:
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS",
                                                   "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


class Run:
    """Attempted and failed operations, and the problems found, over one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_op(wl, key):
    try:
        return wl.run(key), None
    except Exception as exc:  # an operation that raises is a failed operation
        return None, f"{key}: {type(exc).__name__}: {exc}"


def check_op(wl, key, result, error, tracer=None) -> list[str]:
    if error is not None:
        return [error]
    try:
        return wl.check(key, result, tracer)
    except Exception as exc:  # unreadable or malformed output
        return [f"{key}: output check raised {type(exc).__name__}: {exc}"]


def set_up(workload_cls, seed: int, work_dir: Path, run: Run):
    """Import, build the inputs and run one warm-up operation; returns the time."""
    t0 = time.perf_counter()
    pkg = import_package()
    wl = workload_cls(pkg, work_dir, seed)
    key = wl.warm_up
    with contextlib.redirect_stdout(io.StringIO()):
        result, error = run_op(wl, key)
    elapsed = time.perf_counter() - t0
    run.record(check_op(wl, key, result, error))
    return elapsed, pkg, wl


def one_pass(wl, run: Run, tracer=None):
    """Run every operation once, back to back; returns pass time and op times."""
    gc.collect()
    results, op_s = [], []
    if tracer is not None:
        tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            t_pass = time.perf_counter()
            for key in wl.keys:
                t0 = time.perf_counter()
                result, error = run_op(wl, key)
                op_s.append(time.perf_counter() - t0)
                results.append((key, result, error))
            pass_s = time.perf_counter() - t_pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    for key, result, error in results:
        run.record(check_op(wl, key, result, error, tracer))
    return pass_s, op_s


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it (else the maximum)."""
    xs = sorted(samples)
    k = len(xs) - 11 if len(xs) >= 11 else len(xs) - 1
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nsfd_sirvs" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'nsfd_sirvs'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pkg = import_package()  # untimed: compiles the bytecode once
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: nsfd_sirvs imported from {pkg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload_cls = WORKLOADS[args.workload]
    passes = max(MIN_PASSES, math.ceil(args.seconds / NOMINAL_PASS_S[args.workload]))
    work_dir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    run = Run()
    try:
        setup_runs = []
        for _ in range(SETUP_REPS):
            elapsed, pkg, wl = set_up(workload_cls, args.seed, work_dir, run)
            setup_runs.append(elapsed)
        wl.work = 0
        report = {"workload": args.workload, "seed": args.seed,
                  "seed_used": workload_cls.uses_seed, "trace": args.trace,
                  "env": environment(), "setup_runs_s": setup_runs}
        if args.trace:
            metrics = traced_passes(pkg, wl, run, max(2, math.ceil(passes / 2)), report)
        else:
            metrics = untraced_passes(wl, run, passes, report)
            metrics["setup_s"] = metric(statistics.median(setup_runs), "s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    report["digests"] = wl.digests
    report["problems"] = run.problems
    report["error_rate"] = run.failed / run.attempted
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"error_rate = {report['error_rate']} ({run.failed} of {run.attempted} ops)")
    if "op_tail" in report:
        print("op_tail_s is p{percentile:.1f}: {samples_beyond} of {samples} samples "
              "beyond it".format(**report["op_tail"]))
    if wl.throughput in report:
        print(f"{wl.throughput} = {report[wl.throughput]} 1/s")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def untraced_passes(wl, run: Run, passes: int, report: dict) -> dict:
    pass_s, op_s = [], []
    by_key = {key: [] for key in wl.keys}
    for _ in range(passes):
        p, ops = one_pass(wl, run)
        pass_s.append(p)
        op_s.extend(ops)
        for key, t in zip(wl.keys, ops):
            by_key[key].append(t)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_s = statistics.median(pass_s)
    tail_s, pct, beyond = tail(op_s)
    report.update(passes=passes, ops_per_pass=len(wl.keys), pass_s=pass_s,
                  op_p50_s_by_key={k: statistics.median(v) for k, v in by_key.items()},
                  op_s_by_key=by_key,
                  op_tail={"percentile": pct, "samples_beyond": beyond,
                           "samples": len(op_s)})
    if wl.throughput:
        report[wl.throughput] = wl.work / passes / run_s
    return {
        "run_s": metric(run_s, "s"),
        "op_p50_s": metric(statistics.median(op_s), "s"),
        "op_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def traced_passes(pkg, wl, run: Run, passes: int, report: dict) -> dict:
    tracer = tracing.Tracer(pkg)
    plain_s, traced_s, stats = [], [], []
    for _ in range(passes):
        plain_s.append(one_pass(wl, run)[0])
        traced_s.append(one_pass(wl, run, tracer)[0])
        stats.append(tracer.take_pass())
    overhead = statistics.median(traced_s) - statistics.median(plain_s)
    report.update(passes=passes, untraced_pass_s=plain_s, traced_pass_s=traced_s,
                  missing_bindings=tracer.missing)
    return tracing.per_layer_metrics(stats, tracer.missing, overhead)


if __name__ == "__main__":
    sys.exit(main())
