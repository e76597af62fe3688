"""Command-line front end.

Subcommands: simulate, thresholds, consistency, compare, scenario.  Every
run writes a manifest echoing the resolved inputs; runs are deterministic,
so identical inputs give byte-identical output files.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 I/O error.
A run too long to hold in memory is a configuration error, raised before its
first step.  Trajectory CSVs are written one chunk of rows at a time, so
writing adds no memory that grows with the run length.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .consistency import consistency_sweep, sweep_skip_reason
from .dynamics import Trajectory, integrate_continuous, simulate_discrete, steps_for
from .errors import ConfigError, StepError
from .scenarios import (BUILTIN_NAMES, builtin, builtin_description, compare_methods,
                        compare_thresholds, discretize, load_config, load_observed,
                        run_scenario, spec_to_config, threshold_reports)
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
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")
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


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _manifest(out: Path, args, spec_echo: dict, extra: dict | None = None) -> None:
    entry = {
        "tool": "nsfd-sirvs",
        "version": __version__,
        "command": args.command,
        "argv": args._argv_no_out,
        "spec": spec_echo,
        **(extra or {}),
    }
    _write_json(out / "manifest.json", entry)


_TRAJECTORY_ROW = ",".join(["%.17g"] * 5) + "\n"  # same digits as _F


def _write_trajectory(out: Path, traj: Trajectory, method: str, h: float) -> Path:
    """Stream `traj.rows()` to a CSV: the writer holds one chunk of rows, never
    the whole trajectory as Python floats."""
    path = out / f"trajectory_{method}_h{h:g}.csv"
    with path.open("w", encoding="utf-8") as fh:
        fh.write("t,S,I,R,V\n")
        fh.writelines(_TRAJECTORY_ROW % tuple(row) for row in traj.rows())
    return path


def _write_thresholds(out: Path, continuous, discrete) -> Path:
    """thresholds.csv: the continuous report, if any, then each (h, discrete report)."""
    pairs = ([("", continuous)] if continuous is not None else []) + list(discrete)
    return _write_rows(out / "thresholds.csv",
                       ["kind", "h", "lambda", "r_lower", "r_upper", "verdict",
                        "exact_periodic"],
                       [[r.mode, h, r.lam, r.r_lower, r.r_upper, r.verdict.value,
                         r.exact_periodic] for h, r in pairs])


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
        "lambda": rep.lam,
        "r_c_lower": rep.r_c_lower,
        "r_c_upper": rep.r_c_upper,
        "continuous_verdict": rep.continuous_verdict.value,
        "sup_abs_fprime": rep.sup_abs_fprime,
        "fprime_argmax": rep.fprime_argmax,
        "h_max_upper": _h_bound_json(rep.h_max_upper),
        "h_max_lower": _h_bound_json(rep.h_max_lower),
        "equilibrium": list(rep.equilibrium),
        "notes": rep.notes,  # key order is fixed by sort_keys
        "f_samples": {"t": rep.f_samples[0, ::4].tolist(),
                      "f": rep.f_samples[1, ::4].tolist()},
        "discrete_literal": [
            {"h": h, "lambda_steps": d.lam, "r_lower": d.r_lower, "r_upper": d.r_upper,
             "verdict": d.verdict.value} for h, d in comparison.discrete],
        "inconsistent_h": [h for h, _ in comparison.inconsistent_h],
        "inconsistency_flag": comparison.inconsistency_flag,
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    spec, echo = _load_spec(args.spec)
    out = _out_dir(args)
    h = args.h if args.h is not None else spec.h_values[0]
    t_end = args.t_end if args.t_end is not None else spec.t_end
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
    path = _write_trajectory(out, traj, method, h)
    _manifest(out, args, echo, {"h": h, "t_end": t_end, "method": method,
                                "outputs": [path.name]})
    print(f"wrote {path}")
    return 0


def _cmd_thresholds(args) -> int:
    spec, echo = _load_spec(args.spec)
    out = _out_dir(args)
    hs = args.h if args.h else list(spec.h_values)
    lam = args.lam if args.lam is not None else spec.lam
    continuous, discrete = threshold_reports(spec, lam, discretize(spec, hs),
                                             burn_in=args.burn_in, scan=args.scan)
    path = _write_thresholds(out, continuous, discrete)
    _manifest(out, args, echo, {"lambda": lam, "h_values": hs,
                                "burn_in": args.burn_in, "scan": args.scan,
                                "outputs": [path.name]})
    print(f"wrote {path}")
    return 0


def _cmd_consistency(args) -> int:
    spec, echo = _load_spec(args.spec)
    out = _out_dir(args)
    lam = args.lam if args.lam is not None else spec.lam
    comparison = compare_thresholds(spec, lam, discretize(spec, spec.h_values),
                                    burn_in=args.burn_in, scan=args.scan)
    payload = _consistency_payload(comparison)
    rep = comparison.consistency
    if args.sweep and rep is not None:
        skip = sweep_skip_reason(rep)
        if skip:
            print(f"no sweep: {skip}")
        else:
            rows = consistency_sweep(spec.schedules, spec.incidence_phi,
                                     spec.incidence_psi, spec.denominator, rep,
                                     burn_in=args.burn_in, scan=args.scan)
            payload["sweep"] = [
                {"h": r.h, "lambda_steps": r.lam_steps, "r_lower": r.r_lower,
                 "r_upper": r.r_upper, "verdict": r.verdict.value, "matches": r.matches}
                for r in rows]
            payload["sweep_all_match"] = all(r.matches for r in rows)
    path = _write_json(out / "consistency.json", payload)
    _manifest(out, args, echo, {"lambda": lam, "outputs": [path.name]})
    print(f"wrote {path}")
    return 0


def _cmd_compare(args) -> int:
    spec, echo = _load_spec(args.spec)
    out = _out_dir(args)
    hs = args.h if args.h else list(spec.h_values)
    t_end = args.t_end if args.t_end is not None else spec.t_end
    rows, nsfd_worse = compare_methods(spec, hs, t_end)
    path = _write_rows(out / "compare.csv", ["h", "method", "sup_dev_I", "negativity_flag"],
                       rows)
    _manifest(out, args, echo, {"t_end": t_end, "h_values": hs,
                                "nsfd_worse_than_euler_at": nsfd_worse,
                                "outputs": [path.name]})
    print(f"wrote {path}")
    return 0


def _cmd_scenario(args) -> int:
    if args.action == "list":
        for name in BUILTIN_NAMES:
            print(f"{name}: {builtin_description(name)}")
        return 0

    spec, echo = _load_spec(args.spec)
    if args.observed:
        spec = spec.with_observed(load_observed(Path(args.observed)))
    out = _out_dir(args)
    report = run_scenario(spec, burn_in=args.burn_in, scan=args.scan)

    outputs = []
    for h, res in report.per_h.items():
        outputs.append(_write_trajectory(out, res.nsfd, "nsfd", h).name)
        outputs.append(_write_trajectory(out, res.euler, "euler", h).name)
        if res.residuals is not None:
            outputs.append(_write_rows(
                out / f"residuals_h{h:g}.csv", ["t", "observed", "model_I", "residual"],
                zip(res.residuals.times, res.residuals.observed,
                    res.residuals.model, res.residuals.residual)).name)
    rk4 = report.rk4_reference
    if rk4 is not None:
        outputs.append(_write_trajectory(out, rk4, "rk4", rk4.dt).name)

    outputs.append(_write_thresholds(out, report.continuous, report.discrete).name)

    outputs.append(_write_rows(out / "verdicts.csv", ["method", "h", "verdict"],
                               [[method, "" if h is None else h, v.value]
                                for (method, h), v in report.verdict_matrix.items()]).name)
    outputs.append(_write_json(out / "consistency.json", _consistency_payload(report)).name)

    extra = {
        "outputs": sorted(outputs),
        "notes": spec.notes,
        "warnings": list(report.warnings),
        "inconsistency_flag": report.inconsistency_flag,
        "inconsistent_h": [[h, v.value] for h, v in report.inconsistent_h],
        "rms_residuals": {f"{h:g}": res.residuals.rms for h, res in report.per_h.items()
                          if res.residuals is not None},
    }
    if spec.observed is not None:
        extra["observed"] = {"label": spec.observed.label,
                             "t": spec.observed.times.tolist(),
                             "cases": spec.observed.cases.tolist()}
    _manifest(out, args, echo, extra)
    print(f"wrote scenario bundle to {out}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing and entry point
# ---------------------------------------------------------------------------

_OPTIONS = {
    "--burn-in": {"dest": "burn_in", "type": int, "default": 2000},
    "--scan": {"type": int, "default": 4000},
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
    _add_common(thr, "--h", "--lambda", "--burn-in", "--scan")
    thr.set_defaults(func=_cmd_thresholds)

    cons = subs.add_parser("consistency", help="step-size bound report")
    _add_common(cons, "--lambda", "--burn-in", "--scan")
    cons.add_argument("--sweep", action="store_true",
                      help="empirically verify verdicts below the computed bound")
    cons.set_defaults(func=_cmd_consistency)

    cmp_ = subs.add_parser("compare", help="NSFD vs Euler deviation from an RK4 reference")
    _add_common(cmp_, "--h", "--t-end")
    cmp_.set_defaults(func=_cmd_compare)

    scen = subs.add_parser("scenario", help="list built-ins or run a full scenario")
    scen_subs = scen.add_subparsers(dest="action", required=True)
    scen_list = scen_subs.add_parser("list", help="print built-in scenario names")
    scen_list.set_defaults(func=_cmd_scenario)
    scen_run = scen_subs.add_parser("run", help="full scenario bundle")
    _add_common(scen_run, "--burn-in", "--scan")
    scen_run.add_argument("--observed", default=None,
                          help="path to a t,cases series to compare against")
    scen_run.set_defaults(func=_cmd_scenario)

    return parser


def _argv_without_out(argv: list[str]) -> list[str]:
    cleaned = []
    skip = False
    for tok in argv:
        if skip:
            skip = False
            continue
        if tok == "--out":
            skip = True
            continue
        if tok.startswith("--out="):
            continue
        cleaned.append(tok)
    return cleaned


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    args._argv_no_out = _argv_without_out(argv)
    try:
        return args.func(args)
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
