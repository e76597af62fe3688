"""Command-line front end.

Subcommands: simulate, thresholds, consistency, compare, scenario.  One
runner, `_run`, frames them all.  It loads the scenario, and any --observed
series, before it creates --out; a run that fails after that removes the
directories it made while they are empty.  Each `_cmd_*` writes its files
there and returns their paths with its own manifest entries; the runner writes
manifest.json (the resolved inputs, and `outputs`: the names of those files)
and prints `wrote <path>`, or `wrote scenario bundle to <dir>`.  Runs are
deterministic, so identical inputs give byte-identical output files.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 I/O error.
A run too long to hold in memory is a configuration error, raised before its
first step.  Trajectory CSVs are written one chunk of rows at a time, so
writing adds no memory that grows with the run length.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .consistency import consistency_sweep, sweep_skip_reason
from .dynamics import (h_label, integrate_continuous, simulate_discrete, state_rows,
                       steps_for)
from .errors import ConfigError, StepError
from .reference import REFERENCE_RTOL
from .scenarios import (BUILTIN_NAMES, builtin, builtin_description, compare_methods,
                        compare_thresholds, discretize, load_config, load_observed,
                        method_runs, run_scenario, spec_to_config, threshold_notes,
                        threshold_reports)
from .schedules import mickens_discretize
# the scenarios module computes every threshold report; the two *_thresholds names
# stay importable here because perfbench/tracing.py looks them up in this module
from .thresholds import continuous_thresholds, discrete_thresholds  # noqa: F401

_F = "{:.17g}".format  # round-trip exact for doubles


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _F(float(value))
    return str(value)


def _write_rows(path: Path, header: list[str], rows) -> Path:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _write_json(path: Path, obj) -> Path:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)  # strict JSON only
    path.write_text(text + "\n", encoding="utf-8")
    return path


def _load_spec(ref: str):
    if ref in BUILTIN_NAMES:
        return builtin(ref), {"builtin": ref}
    path = Path(ref)
    if not path.exists():
        raise ConfigError(f"unknown scenario {ref!r}: not a built-in name "
                          f"({', '.join(BUILTIN_NAMES)}) and no such file")
    spec = load_config(path)
    return spec, {"config": spec_to_config(spec)}


_TRAJECTORY_ROW = ",".join(["%.17g"] * 5) + "\n"  # same digits as _F


def _t_end(args, spec) -> float:
    """--t-end, else the spec's: the one t_end > 0 rule of every method."""
    t_end = args.t_end if args.t_end is not None else spec.t_end
    if not t_end > 0:  # also rejects NaN
        raise ConfigError(f"t_end must be positive, got {t_end}")
    return t_end


def _write_trajectory(out: Path, rows, method: str, h: float | None = None) -> Path:
    """Stream `rows`, the chunks of `dynamics.state_rows` (`Trajectory.rows()`),
    to a CSV, one `%` format and one write per chunk: the writer holds one chunk
    of rows, never the whole trajectory as Python floats.  The file is
    trajectory_<method>_h<h>.csv for a run at step h, trajectory_<method>.csv
    without one (the reference, whose steps vary)."""
    path = out / (f"trajectory_{method}.csv" if h is None
                  else f"trajectory_{method}_h{h_label(h)}.csv")
    with path.open("w", encoding="utf-8") as fh:
        fh.write("t,S,I,R,V\n")
        for flat in rows:
            fh.write(_TRAJECTORY_ROW * (len(flat) // 5) % tuple(flat))
    return path


def _write_thresholds(out: Path, continuous, discrete) -> Path:
    """thresholds.csv: the continuous report, if any, then each (h, discrete report)."""
    pairs = ([("", continuous)] if continuous is not None else []) + list(discrete)
    return _write_rows(out / "thresholds.csv",
                       ["kind", "h", "lambda", "r_lower", "r_upper", "verdict",
                        "exact_periodic"],
                       [[r.mode, h, r.lam, r.r_lower, r.r_upper, r.verdict.value,
                         r.exact_periodic] for h, r in pairs])


def _write_compare(out: Path, runs, reference) -> tuple[Path, dict, tuple]:
    """compare.csv from `method_runs`' runs and reference, its manifest entries
    (with `reference`: how the reference was integrated, deterministic, no
    wall time), and the (times, states) table of the reference that
    `compare_methods` scored."""
    rows, nsfd_worse, table = compare_methods(runs, reference)
    estimate = reference.largest_estimate  # inf only where the run blew up: strict JSON says null
    return (_write_rows(out / "compare.csv",
                        ["h", "method", "sup_dev_I", "negativity_flag"], rows),
            {"nsfd_worse_than_euler_at": nsfd_worse,
             "reference": {"method": reference.method, "steps": reference.steps,
                           "max_step": reference.max_step, "rtol": REFERENCE_RTOL,
                           "largest_estimate": estimate if math.isfinite(estimate) else None,
                           "capped_gaps": reference.capped_gaps, "tail": reference.tail}},
            table)


def _discrete_json(pairs, continuous_verdict=None) -> list[dict]:
    """One entry per (h, discrete report) pair; given the continuous verdict,
    each entry also says whether its verdict `matches` it."""
    entries = []
    for h, d in pairs:
        entry = {"h": h, "lambda_steps": d.lam, "r_lower": d.r_lower, "r_upper": d.r_upper,
                 "verdict": d.verdict.value}
        if continuous_verdict is not None:
            entry["matches"] = d.verdict is continuous_verdict
        entries.append(entry)
    return entries


def _with_warnings(entries: dict, notes: list) -> dict:
    """Manifest entries with the reports' notes as `warnings`, a key written
    only when there is a note."""
    return {**entries, "warnings": notes} if notes else entries


def _h_bound_json(value):
    return "unbounded" if value == float("inf") else value


def _consistency_payload(comparison) -> dict:
    """Serialise a ThresholdComparison (a ScenarioReport is one); the literal
    discrete evaluations sit next to any quoted closed forms in the notes."""
    rep = comparison.consistency
    if rep is None:
        return {"applicable": False, "reason": comparison.consistency_skip_reason}
    return {
        "applicable": True,
        "lambda": rep.continuous.lam,
        "r_c_lower": rep.continuous.r_lower,
        "r_c_upper": rep.continuous.r_upper,
        "continuous_verdict": rep.continuous.verdict.value,
        "sup_abs_fprime": rep.sup_abs_fprime,
        "fprime_argmax": rep.fprime_argmax,
        "h_max_upper": _h_bound_json(rep.h_max_upper),
        "h_max_lower": _h_bound_json(rep.h_max_lower),
        "equilibrium": list(rep.equilibrium),
        "notes": rep.notes,  # key order is fixed by sort_keys
        "f_samples": {"t": rep.f_samples[0].tolist(), "f": rep.f_samples[1].tolist()},
        "discrete_literal": _discrete_json(comparison.discrete),
        "inconsistent_h": [h for h, _ in comparison.inconsistent_h],
        "inconsistency_flag": comparison.inconsistency_flag,
    }


# ---------------------------------------------------------------------------
# subcommands: each takes (args, spec, out), writes its files into out and
# returns (the paths it wrote, its own manifest entries); `_run` does the rest
# ---------------------------------------------------------------------------

def _cmd_simulate(args, spec, out: Path) -> tuple[list, dict]:
    h = args.h if args.h is not None else spec.h_values[0]
    t_end = _t_end(args, spec)
    method = args.method
    if method == "nsfd":
        dp = mickens_discretize(spec.schedules, h, spec.denominator)
        traj = simulate_discrete(dp, spec.incidence_phi, spec.incidence_psi,
                                 spec.initial_state, steps_for(t_end, h))
    else:
        traj = integrate_continuous(spec.schedules, spec.incidence_phi,
                                    spec.incidence_psi, spec.initial_state,
                                    t_end, h, method=method)
        if traj.negative_at is not None:
            print(f"warning: {method} trajectory has a negative component "
                  f"from step {traj.negative_at}", file=sys.stderr)
    return ([_write_trajectory(out, traj.rows(), method, h)],
            {"h": h, "t_end": t_end, "method": method})


def _cmd_thresholds(args, spec, out: Path) -> tuple[list, dict]:
    hs = args.h if args.h else list(spec.h_values)
    lam = args.lam if args.lam is not None else spec.lam
    continuous, discrete = threshold_reports(spec, lam, discretize(spec, hs))
    return [_write_thresholds(out, continuous, discrete)], _with_warnings(
        {"lambda": lam, "h_values": hs}, threshold_notes(continuous, discrete))


def _cmd_consistency(args, spec, out: Path) -> tuple[list, dict]:
    lam = args.lam if args.lam is not None else spec.lam
    comparison = compare_thresholds(spec, lam, discretize(spec, spec.h_values))
    payload = _consistency_payload(comparison)
    rep = comparison.consistency
    notes = threshold_notes(comparison.continuous, comparison.discrete)
    if args.sweep and rep is not None:
        skip = sweep_skip_reason(rep)
        if skip:
            print(f"no sweep: {skip}")
        else:
            pairs = consistency_sweep(spec.schedules, spec.incidence_phi,
                                      spec.incidence_psi, spec.denominator, rep)
            payload["sweep"] = _discrete_json(pairs, rep.continuous.verdict)
            payload["sweep_all_match"] = all(e["matches"] for e in payload["sweep"])
            notes += threshold_notes(None, pairs)
    return [_write_json(out / "consistency.json", payload)], _with_warnings(
        {"lambda": lam}, notes)


def _cmd_compare(args, spec, out: Path) -> tuple[list, dict]:
    hs = args.h if args.h else list(spec.h_values)
    t_end = _t_end(args, spec)
    path, entries, _ = _write_compare(out, *method_runs(spec, discretize(spec, hs), t_end))
    return [path], {"t_end": t_end, "h_values": hs, **entries}


def _cmd_scenario(args, spec, out: Path) -> tuple[list, dict]:
    report = run_scenario(spec)
    paths = []
    for h, res in report.per_h.items():
        paths += [_write_trajectory(out, res.nsfd.rows(), "nsfd", h),
                  _write_trajectory(out, res.euler.rows(), "euler", h)]
        if res.residuals is not None:
            paths.append(_write_rows(
                out / f"residuals_h{h_label(h)}.csv", ["t", "observed", "model_I", "residual"],
                zip(res.residuals.times, res.residuals.observed,
                    res.residuals.model, res.residuals.residual)))
    compare, entries, (times, states) = _write_compare(
        out, [(h, res.nsfd, res.euler) for h, res in report.per_h.items()], report.reference)
    # the reference at the times compare.csv scored, the very values it read
    ref_rows = state_rows(states, lambda a, b: times[a:b])
    paths += [_write_trajectory(out, ref_rows, "reference"), compare,
              _write_thresholds(out, report.continuous, report.discrete),
              _write_rows(out / "verdicts.csv", ["method", "h", "verdict"],
                          [[method, "" if h is None else h, v.value]
                           for (method, h), v in report.verdict_matrix.items()]),
              _write_json(out / "consistency.json", _consistency_payload(report))]
    entries.update({
        "notes": spec.notes,
        "warnings": list(report.warnings),
        "inconsistency_flag": report.inconsistency_flag,
        "inconsistent_h": [[h, v.value] for h, v in report.inconsistent_h],
        "rms_residuals": {h_label(h): res.residuals.rms for h, res in report.per_h.items()
                          if res.residuals is not None},
    })
    if spec.observed is not None:
        entries["observed"] = {"label": spec.observed.label,
                               "t": spec.observed.times.tolist(),
                               "cases": spec.observed.cases.tolist()}
    return paths, entries


def _run(args, argv: list[str]) -> int:
    """Run one subcommand with the framing in the module docstring;
    `scenario list` only prints."""
    if args.command == "scenario" and args.action == "list":
        for name in BUILTIN_NAMES:
            print(f"{name}: {builtin_description(name)}")
        return 0
    spec, echo = _load_spec(args.spec)
    if getattr(args, "observed", None):
        spec = spec.with_observed(load_observed(Path(args.observed)))
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # innermost first
    out.mkdir(parents=True, exist_ok=True)
    try:
        paths, entries = args.func(args, spec, out)
        _write_json(out / "manifest.json", {
            "tool": "nsfd-sirvs", "version": __version__, "command": args.command,
            "argv": _argv_without_out(argv), "spec": echo,
            "outputs": sorted(p.name for p in paths), **entries})
    except BaseException:
        for d in made:  # a failed run leaves no empty directory it made
            try:
                d.rmdir()
            except OSError:  # not empty
                break
        raise
    print(f"wrote scenario bundle to {out}" if args.command == "scenario"
          else f"wrote {paths[0]}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

_OPTIONS = {
    "--lambda": {"dest": "lam", "type": float, "help": "threshold window (time units)"},
    "--t-end": {"dest": "t_end", "type": float},
    "--h": {"action": "append", "type": float, "help": "step size (repeatable)"},
}


def _add_common(sub, *options):
    """The scenario argument, --out, and the named options of `_OPTIONS`."""
    sub.add_argument("spec", help="built-in scenario name or path to a JSON config")
    sub.add_argument("--out", default="sirvs-out", help="output directory")
    for name in options:
        sub.add_argument(name, **_OPTIONS[name])


@functools.cache  # one parser per process, shared by every main() call and never changed
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsfd-sirvs",
        description="Seasonal SIRVS models: positivity-preserving simulation, "
                    "extinction/permanence thresholds, step-size consistency bounds")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="write one trajectory CSV")
    _add_common(sim, "--t-end")
    sim.add_argument("--h", type=float, default=None, help="step size")
    sim.add_argument("--method", choices=("nsfd", "euler", "rk4"), default="nsfd")
    sim.set_defaults(func=_cmd_simulate)

    thr = subs.add_parser("thresholds", help="discrete and continuous threshold table")
    _add_common(thr, "--h", "--lambda")
    thr.set_defaults(func=_cmd_thresholds)

    cons = subs.add_parser("consistency", help="step-size bound report")
    _add_common(cons, "--lambda")
    cons.add_argument("--sweep", action="store_true",
                      help="empirically verify verdicts below the computed bound")
    cons.set_defaults(func=_cmd_consistency)

    cmp_ = subs.add_parser("compare", help="NSFD vs Euler deviation from the continuous reference")
    _add_common(cmp_, "--h", "--t-end")
    cmp_.set_defaults(func=_cmd_compare)

    scen = subs.add_parser("scenario", help="list built-ins or run a full scenario")
    scen_subs = scen.add_subparsers(dest="action", required=True)
    scen_subs.add_parser("list", help="print built-in scenario names")
    scen_run = scen_subs.add_parser("run", help="full scenario bundle")
    _add_common(scen_run)
    scen_run.add_argument("--observed", default=None,
                          help="path to a t,cases series to compare against")
    scen_run.set_defaults(func=_cmd_scenario)

    return parser


def _argv_without_out(argv: list[str]) -> list[str]:
    """argv less --out and its value, in every spelling the parser reads as
    --out: `--out D`, `--out=D` and the abbreviations `--o`, `--ou`."""
    cleaned = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
            continue
        name, eq, _ = tok.partition("=")
        if len(name) > 2 and "--out".startswith(name):
            skip = not eq
            continue
        cleaned.append(tok)
    return cleaned


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    try:
        return _run(args, argv)
    except StepError as exc:
        where = f" at step {exc.step}" if exc.step is not None else ""
        print(f"numeric failure{where}: {exc}", file=sys.stderr)
        return 3
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # FileNotFoundError included
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
