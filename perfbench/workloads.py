"""The benchmark's workloads: what one operation is, and how its output is checked.

Each workload is built from the imported package (its input construction is
part of set-up), lists its operations in a fixed order (one pass) and the one
it warms up with, runs one operation with `run`, and checks that operation's
output with `check`, which returns a list of problems and is always called
outside the timed region.

bundles   `cli.main(["scenario", "run", name, "--out", dir])` for each of the
          six built-ins.  The user's headline path; dominated by the RK4
          reference, the CSV/JSON writers and `validate_incidence`.
sweep     `cli.main(["consistency", name, "--sweep", "--out", dir])` for the
          three built-ins whose thresholds differ from mass action's.
          Dominated by the disease-free orbit under `discrete_thresholds`; runs
          no RK4 and no NSFD stepping, so it bypasses the `bundles` hotspots.
long_run  `mickens_discretize` + `simulate_discrete` on the persistence_5_1
          schedules at h = 0.01 for 20 000 steps, once per incidence kind (used
          as both phi and psi), from seeded initial states.  The only workload
          where the NSFD stepper, with its fixed-point and bisection paths,
          dominates; `separable` cannot be reached from the CLI at all.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
from pathlib import Path

import numpy as np

BALANCE_RTOL = 1e-10

_E, _P, _X = "Extinction", "Permanence", "Inconclusive"
_SEASONAL_H = ("4", "2", "1", "0.5")

# verdicts.csv of each built-in: continuous verdict, then (h, nsfd, euler) rows
EXPECTED_VERDICTS = {
    "extinction_5_1": (_E, list(zip(_SEASONAL_H, (_X, _E, _E, _E), (_X, _E, _E, _E)))),
    "persistence_5_1": (_P, list(zip(_SEASONAL_H, (_P,) * 4, (_X, _X, _P, _P)))),
    "saturated_5_1_ext": (_E, list(zip(_SEASONAL_H, (_X, _E, _E, _E), (_X, _E, _E, _E)))),
    "saturated_5_1_per": (_P, list(zip(_SEASONAL_H, (_P,) * 4, (_X, _X, _P, _P)))),
    "inconsistency_4": (_P, [("0.16666666666666666", _X, _P)]),
    "measles_france_5_2": (_P, [("1", _P, _E)]),
}

# continuous verdict that each swept built-in must report
SWEEP_VERDICTS = {"extinction_5_1": _E, "persistence_5_1": _P, "inconsistency_4": _P}


def _verdicts_csv(name: str) -> str:
    cont, rows = EXPECTED_VERDICTS[name]
    lines = ["method,h,verdict", f"continuous,,{cont}"]
    for h, nsfd, euler in rows:
        lines += [f"nsfd,{h},{nsfd}", f"euler,{h},{euler}"]
    return "\n".join(lines) + "\n"


def balance_problems(states: np.ndarray, lam, mu, alpha, label: str) -> list[str]:
    """Check (1+mu_n) N_{n+1} + alpha_n I_{n+1} = N_n + Lambda_n and positivity."""
    problems = []
    if not np.all(np.isfinite(states)):
        problems.append(f"{label}: non-finite state")
    if np.any(states < 0):
        problems.append(f"{label}: negative state component")
    N = states[:, 0] + states[:, 1] + states[:, 2] + states[:, 3]
    resid = np.abs((1.0 + mu) * N[1:] + alpha * states[1:, 1] - (N[:-1] + lam))
    worst = float(np.max(resid / (BALANCE_RTOL * (1.0 + N[:-1]))))
    if worst > 1.0:
        problems.append(f"{label}: balance residual {worst:.3g} x tolerance")
    return problems


def _dir_digest(path: Path) -> tuple[str, int, int]:
    """sha256 over the sorted file names and contents; also bytes and files."""
    h = hashlib.sha256()
    n_bytes = n_files = 0
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
        n_bytes += len(data)
        n_files += 1
    return h.hexdigest(), n_bytes, n_files


class _CliWorkload:
    """Operations that call `cli.main` in-process and write to a fresh directory.

    Their inputs are fixed by definition, so the seed is recorded but unused.
    """

    uses_seed = False

    def __init__(self, pkg, work_dir: Path):
        self.pkg = pkg
        self.work_dir = work_dir
        self.digests = {}  # first digest of each operation's output directory
        self.work = 0

    def argv(self, key: str) -> list[str]:
        raise NotImplementedError

    def run(self, key: str):
        out = Path(tempfile.mkdtemp(dir=self.work_dir))
        return self.pkg.cli.main(self.argv(key) + ["--out", str(out)]), out

    def check(self, key: str, result, tracer=None) -> list[str]:
        rc, out = result
        try:
            if rc != 0:
                return [f"{key}: exit code {rc}"]
            digest, n_bytes, n_files = _dir_digest(out)
            if tracer is not None:
                tracer.count("cli.bytes_written", n_bytes)
                tracer.count("cli.files_written", n_files)
            problems = self.check_dir(key, out)
            first = self.digests.setdefault(key, digest)
            if digest != first:
                problems.append(f"{key}: bytes differ from the first repetition")
            return problems
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check_dir(self, key: str, out: Path) -> list[str]:
        raise NotImplementedError


class Bundles(_CliWorkload):
    name = "bundles"
    throughput = None

    def __init__(self, pkg, work_dir: Path, seed: int):
        super().__init__(pkg, work_dir)
        self.keys = [n for n in pkg.scenarios.BUILTIN_NAMES if n in EXPECTED_VERDICTS]
        self.warm_up = "measles_france_5_2"  # the cheapest bundle
        self._balance_inputs = {}

    def argv(self, key):
        return ["scenario", "run", key]

    def check_dir(self, key, out):
        problems = []
        manifest = json.loads((out / "manifest.json").read_text())
        missing = [f for f in manifest["outputs"] if not (out / f).is_file()]
        if missing:
            problems.append(f"{key}: manifest lists missing files {missing}")
        if (out / "verdicts.csv").read_text() != _verdicts_csv(key):
            problems.append(f"{key}: verdicts.csv differs from the expected matrix")
        spec = self.pkg.scenarios.builtin(key)
        for h in spec.h_values:
            path = out / f"trajectory_nsfd_h{h:g}.csv"
            rows = path.read_text().splitlines()[1:]
            states = np.array([[float(v) for v in r.split(",")[1:]] for r in rows])
            lam, mu, alpha = self._arrays(spec, h, len(rows) - 1)
            problems += balance_problems(states, lam, mu, alpha, f"{key} {path.name}")
        return problems

    def _arrays(self, spec, h, n):
        k = (spec.name, h, n)
        if k not in self._balance_inputs:
            dp = self.pkg.schedules.mickens_discretize(spec.schedules, h, spec.denominator)
            self._balance_inputs[k] = tuple(dp.array(c, 0, n)
                                            for c in ("Lambda", "mu", "alpha"))
        return self._balance_inputs[k]


class Sweep(_CliWorkload):
    name = "sweep"
    throughput = "thresholds_per_s"  # `work` counts discrete threshold reports

    def __init__(self, pkg, work_dir: Path, seed: int):
        super().__init__(pkg, work_dir)
        self.keys = list(SWEEP_VERDICTS)
        self.warm_up = self.keys[0]

    def argv(self, key):
        return ["consistency", key, "--sweep"]

    def check_dir(self, key, out):
        payload = json.loads((out / "consistency.json").read_text())
        problems = []
        if payload.get("sweep_all_match") is not True:
            problems.append(f"{key}: sweep_all_match is not true")
        if payload.get("continuous_verdict") != SWEEP_VERDICTS[key]:
            problems.append(f"{key}: continuous verdict {payload.get('continuous_verdict')}")
        self.work += len(payload.get("discrete_literal", ())) + len(payload.get("sweep", ()))
        return problems


class LongRun:
    name = "long_run"
    throughput = "steps_per_s"
    uses_seed = True
    H = 0.01
    N_STEPS = 20_000

    def __init__(self, pkg, work_dir: Path, seed: int):
        self.pkg = pkg
        inc = pkg.incidence.IncidenceFn
        self.kinds = {
            "mass_action": inc.mass_action(),
            "saturated": inc.saturated(0.7),
            "standard": inc.standard(),
            "separable": inc.separable(lambda x: x / (1.0 + x), 1.0),
        }
        self.keys = list(self.kinds)
        self.warm_up = "mass_action"
        self.spec = pkg.scenarios.builtin("persistence_5_1")
        rng = random.Random(seed)
        self.states = {k: pkg.dynamics.State(rng.uniform(0.2, 2.0), rng.uniform(0.01, 0.5),
                                             rng.uniform(0.0, 0.5), rng.uniform(0.2, 2.0))
                       for k in self.keys}
        self.digests = {}
        self.work = 0  # NSFD steps completed, summed by `check`

    def run(self, key: str):
        dp = self.pkg.schedules.mickens_discretize(self.spec.schedules, self.H,
                                                   self.spec.denominator)
        f = self.kinds[key]
        traj = self.pkg.dynamics.simulate_discrete(dp, f, f, self.states[key], self.N_STEPS)
        return dp, traj

    def check(self, key: str, result, tracer=None) -> list[str]:
        dp, traj = result
        n = traj.n_steps
        if n != self.N_STEPS:
            return [f"{key}: {n} steps instead of {self.N_STEPS}"]
        self.work += n
        lam, mu, alpha = (dp.array(c, 0, n) for c in ("Lambda", "mu", "alpha"))
        problems = balance_problems(traj.states, lam, mu, alpha, key)
        digest = hashlib.sha256(traj.states.tobytes()).hexdigest()
        if digest != self.digests.setdefault(key, digest):
            problems.append(f"{key}: trajectory differs from the first repetition")
        return problems


WORKLOADS = {w.name: w for w in (Bundles, Sweep, LongRun)}
