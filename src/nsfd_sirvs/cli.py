"""Command-line front end.

Subcommands: simulate, thresholds, consistency, compare, scenario.  Every
run writes a manifest echoing the resolved inputs; runs are deterministic,
so identical inputs give byte-identical output files.

Exit codes: 0 success, 2 configuration error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .consistency import consistency_skip_reason, consistency_sweep, lambda_steps
from .dynamics import Trajectory, integrate_continuous, simulate_discrete
from .errors import ConfigError, StepError
from .scenarios import (BUILTIN_NAMES, builtin, builtin_description, load_config,
                        load_observed, run_scenario, spec_to_config)
from .schedules import mickens_discretize
from .thresholds import continuous_thresholds, discrete_thresholds

_F = "{:.17g}".format  # round-trip exact for doubles


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return _F(float(value))
    return str(value)


def _write_rows(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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
    }
    if extra:
        entry.update(extra)
    _write_json(out / "manifest.json", entry)


_TRAJECTORY_ROW = ",".join(["%.17g"] * 5) + "\n"  # same digits as _F


def _write_trajectory(out: Path, traj: Trajectory, method: str, h: float) -> Path:
    path = out / f"trajectory_{method}_h{h:g}.csv"
    rows = np.column_stack((traj.times, traj.states)).tolist()
    with path.open("w", encoding="utf-8") as fh:
        fh.write("t,S,I,R,V\n")
        fh.writelines(_TRAJECTORY_ROW % tuple(row) for row in rows)
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    spec, echo = _load_spec(args.spec)
    out = _out_dir(args)
    h = args.h if args.h is not None else spec.h_values[0]
    t_end = args.t_end if args.t_end is not None else spec.t_end
    n_steps = max(1, int(round(t_end / h)))
    method = args.method
    if method == "nsfd":
        dp = mickens_discretize(spec.schedules, h, spec.denominator)
        traj = simulate_discrete(dp, spec.incidence_phi, spec.incidence_psi,
                                 spec.initial_state, n_steps)
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
    rows = []
    if lam > 0:  # a zero-length window has no continuous counterpart
        cont = continuous_thresholds(spec.schedules, spec.incidence_phi,
                                     spec.incidence_psi, lam)
        rows.append(["continuous", "", lam, cont.r_lower, cont.r_upper,
                     cont.verdict.value, cont.exact_periodic])
    for h in hs:
        dp = mickens_discretize(spec.schedules, h, spec.denominator)
        lam_d = lambda_steps(lam, h)
        rep = discrete_thresholds(dp, spec.incidence_phi, spec.incidence_psi, lam_d,
                                  burn_in=args.burn_in,
                                  scan=max(args.scan, lam_d + 1))
        rows.append(["discrete", h, lam_d, rep.r_lower, rep.r_upper,
                     rep.verdict.value, rep.exact_periodic])
    path = out / "thresholds.csv"
    _write_rows(path, ["kind", "h", "lambda", "r_lower", "r_upper", "verdict",
                       "exact_periodic"], rows)
    _manifest(out, args, echo, {"lambda": lam, "h_values": hs,
                                "burn_in": args.burn_in, "scan": args.scan,
                                "outputs": [path.name]})
    print(f"wrote {path}")
    return 0


def _h_bound_json(value):
    if value is None:
        return None
    if value == float("inf"):
        return "unbounded"
    return value


def _consistency_payload(rep, discrete, reason: str = "") -> dict:
    """Serialise a step-bound report and the discrete reports beside it.

    `rep` is the ConsistencyReport (None when `reason` says why the analysis
    does not apply); `discrete` holds one (h, lambda_steps, ThresholdReport)
    per declared step size, the literal window evaluation kept next to any
    quoted closed forms in the notes.
    """
    if reason:
        return {"applicable": False, "reason": reason}
    payload = {
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
        "notes": {k: v for k, v in sorted(rep.notes.items(), key=lambda kv: kv[0])},
        "f_samples": {"t": rep.f_samples[0, ::4].tolist(),
                      "f": rep.f_samples[1, ::4].tolist()},
    }
    rows = []
    inconsistent = []
    for h, lam_d, drep in discrete:
        rows.append({"h": h, "lambda_steps": lam_d, "r_lower": drep.r_lower,
                     "r_upper": drep.r_upper, "verdict": drep.verdict.value})
        if (rep.continuous_verdict.value != "Inconclusive"
                and drep.verdict is not rep.continuous_verdict):
            inconsistent.append(h)
    payload["discrete_literal"] = rows
    payload["inconsistent_h"] = inconsistent
    payload["inconsistency_flag"] = bool(inconsistent)
    return payload


def _cmd_consistency(args) -> int:
    spec, echo = _load_spec(args.spec)
    out = _out_dir(args)
    lam = args.lam if args.lam is not None else spec.lam
    # imported here, so the call resolves through the consistency module, where
    # perfbench/tracing.py wraps it
    from .consistency import consistency_report

    reason = consistency_skip_reason(spec.schedules)
    if reason:
        payload = _consistency_payload(None, (), reason)
    else:
        rep = consistency_report(spec.schedules, spec.incidence_phi, spec.incidence_psi,
                                 lam, notes=dict(spec.reference_values))
        discrete = []
        for h in spec.h_values:
            dp = mickens_discretize(spec.schedules, h, spec.denominator)
            lam_d = lambda_steps(lam, h)
            discrete.append((h, lam_d, discrete_thresholds(
                dp, spec.incidence_phi, spec.incidence_psi, lam_d,
                burn_in=args.burn_in, scan=max(args.scan, lam_d + 1))))
        payload = _consistency_payload(rep, discrete)
        if args.sweep and rep.continuous_verdict.value != "Inconclusive":
            rows = consistency_sweep(spec.schedules, spec.incidence_phi,
                                     spec.incidence_psi, spec.denominator, lam,
                                     report=rep, burn_in=args.burn_in, scan=args.scan)
            payload["sweep"] = [
                {"h": r.h, "lambda_steps": r.lam_steps, "r_lower": r.r_lower,
                 "r_upper": r.r_upper, "verdict": r.verdict.value, "matches": r.matches}
                for r in rows]
            payload["sweep_all_match"] = all(r.matches for r in rows)
    path = out / "consistency.json"
    _write_json(path, payload)
    _manifest(out, args, echo, {"lambda": lam, "outputs": [path.name]})
    print(f"wrote {path}")
    return 0


def _sup_dev_I(traj: Trajectory, ref: Trajectory) -> float:
    ref_I = np.interp(traj.times, ref.times, ref.I)
    return float(np.max(np.abs(traj.I - ref_I)))


def _cmd_compare(args) -> int:
    spec, echo = _load_spec(args.spec)
    out = _out_dir(args)
    hs = args.h if args.h else list(spec.h_values)
    t_end = args.t_end if args.t_end is not None else spec.t_end
    ref = integrate_continuous(spec.schedules, spec.incidence_phi, spec.incidence_psi,
                               spec.initial_state, t_end, 0.01, method="rk4")
    rows = []
    exceptions = []
    for h in hs:
        dp = mickens_discretize(spec.schedules, h, spec.denominator)
        n_steps = max(1, int(round(t_end / h)))
        nsfd = simulate_discrete(dp, spec.incidence_phi, spec.incidence_psi,
                                 spec.initial_state, n_steps)
        euler = integrate_continuous(spec.schedules, spec.incidence_phi,
                                     spec.incidence_psi, spec.initial_state,
                                     t_end, h, method="euler")
        dev_n = _sup_dev_I(nsfd, ref)
        dev_e = _sup_dev_I(euler, ref)
        rows.append([h, "nsfd", dev_n, nsfd.negative_at is not None])
        rows.append([h, "euler", dev_e, euler.negative_at is not None])
        if dev_n > dev_e:
            exceptions.append(h)
    path = out / "compare.csv"
    _write_rows(path, ["h", "method", "sup_dev_I", "negativity_flag"], rows)
    _manifest(out, args, echo, {"t_end": t_end, "h_values": hs,
                                "nsfd_worse_than_euler_at": exceptions,
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
    thr_rows = [["continuous", "", spec.lam, report.continuous.r_lower,
                 report.continuous.r_upper, report.continuous.verdict.value,
                 report.continuous.exact_periodic]]
    verdict_rows = [["continuous", "", report.continuous.verdict.value]]
    for h, res in report.per_h.items():
        outputs.append(_write_trajectory(out, res.nsfd, "nsfd", h).name)
        outputs.append(_write_trajectory(out, res.euler, "euler", h).name)
        thr_rows.append(["discrete", h, res.lam_steps, res.thresholds.r_lower,
                         res.thresholds.r_upper, res.thresholds.verdict.value,
                         res.thresholds.exact_periodic])
        verdict_rows.append(["nsfd", h, res.thresholds.verdict.value])
        verdict_rows.append(["euler", h, res.euler_empirical.value])
        if res.residuals is not None:
            rpath = out / f"residuals_h{h:g}.csv"
            _write_rows(rpath, ["t", "observed", "model_I", "residual"],
                        [[t, o, m, r] for t, o, m, r in
                         zip(res.residuals.times, res.residuals.observed,
                             res.residuals.model, res.residuals.residual)])
            outputs.append(rpath.name)
    if report.rk4_reference is not None:
        outputs.append(_write_trajectory(out, report.rk4_reference, "rk4", 0.01).name)

    thr_path = out / "thresholds.csv"
    _write_rows(thr_path, ["kind", "h", "lambda", "r_lower", "r_upper", "verdict",
                           "exact_periodic"], thr_rows)
    outputs.append(thr_path.name)

    ver_path = out / "verdicts.csv"
    _write_rows(ver_path, ["method", "h", "verdict"], verdict_rows)
    outputs.append(ver_path.name)

    cons_payload = _consistency_payload(
        report.consistency,
        [(h, report.per_h[h].lam_steps, report.per_h[h].thresholds) for h in spec.h_values],
        report.consistency_skip_reason)
    cons_path = out / "consistency.json"
    _write_json(cons_path, cons_payload)
    outputs.append(cons_path.name)

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

def _add_common(sub, with_h_list=False, with_single_h=False):
    sub.add_argument("spec", help="built-in scenario name or path to a JSON config")
    sub.add_argument("--out", default="sirvs-out", help="output directory")
    sub.add_argument("--burn-in", dest="burn_in", type=int, default=2000)
    sub.add_argument("--scan", type=int, default=4000)
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="threshold window length (time units)")
    sub.add_argument("--t-end", dest="t_end", type=float, default=None)
    if with_h_list:
        sub.add_argument("--h", action="append", type=float, default=None,
                         help="step size (repeatable)")
    if with_single_h:
        sub.add_argument("--h", type=float, default=None, help="step size")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nsfd-sirvs",
        description="Seasonal SIRVS models: positivity-preserving simulation, "
                    "extinction/permanence thresholds, step-size consistency bounds")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="write one trajectory CSV")
    _add_common(sim, with_single_h=True)
    sim.add_argument("--method", choices=("nsfd", "euler", "rk4"), default="nsfd")
    sim.set_defaults(func=_cmd_simulate)

    thr = subs.add_parser("thresholds", help="discrete and continuous threshold table")
    _add_common(thr, with_h_list=True)
    thr.set_defaults(func=_cmd_thresholds)

    cons = subs.add_parser("consistency", help="step-size bound report")
    _add_common(cons)
    cons.add_argument("--sweep", action="store_true",
                      help="empirically verify verdicts below the computed bound")
    cons.set_defaults(func=_cmd_consistency)

    cmp_ = subs.add_parser("compare", help="NSFD vs Euler deviation from an RK4 reference")
    _add_common(cmp_, with_h_list=True)
    cmp_.set_defaults(func=_cmd_compare)

    scen = subs.add_parser("scenario", help="list built-ins or run a full scenario")
    scen_subs = scen.add_subparsers(dest="action", required=True)
    scen_list = scen_subs.add_parser("list", help="print built-in scenario names")
    scen_list.set_defaults(func=_cmd_scenario)
    scen_run = scen_subs.add_parser("run", help="full scenario bundle")
    _add_common(scen_run)
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
    except FileNotFoundError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
