import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nsfd_sirvs
from nsfd_sirvs.cli import main
from nsfd_sirvs.dynamics import h_label
from nsfd_sirvs.scenarios import (BUILTIN_NAMES, builtin, config_to_spec, run_scenario,
                                  spec_to_config)


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_extinction_trajectory(tmp_path, capsys):
    rc = main(["simulate", "extinction_5_1", "--h", "1", "--t-end", "200",
               "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "trajectory_nsfd_h1.csv")
    assert header == ["t", "S", "I", "R", "V"]
    assert len(rows) == 201
    assert float(rows[-1][2]) < 1e-8


def test_simulate_unknown_name_exits_2(tmp_path, capsys):
    rc = main(["simulate", "not_a_scenario", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    for name in BUILTIN_NAMES:
        assert name in err
    assert not (tmp_path / "out").exists()  # the scenario loads before --out is made


@pytest.mark.parametrize("argv", [["simulate", "extinction_5_1", "--t-end", "-5"],
                                  ["consistency", "extinction_5_1", "--lambda", "-1"],
                                  ["thresholds", "extinction_5_1", "--h", "1", "--lambda", "1e9"],
                                  ["consistency", "extinction_5_1", "--lambda", "1e9"],
                                  ["scenario", "run", "huge_window.json"]],
                         ids=" ".join)
def test_failed_run_removes_the_empty_out_it_made(tmp_path, monkeypatch, argv):
    # these options are read after --out is made; the run that fails on them
    # removes each directory it made while it is empty, and only those.  A
    # window of 1e9 time units fails its memory probe, before any array is built
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["lambda"] = cfg["t_end"] = 1e9
    (tmp_path / "huge_window.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "new" / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(argv + ["--out", str(kept)]) == 2
    assert kept.is_dir()


@pytest.mark.parametrize("argv", [["thresholds", "extinction_5_1", "--h", "1", "--lambda", "1e9"],
                                  ["consistency", "persistence_5_1", "--lambda", "1e-9"],
                                  ["consistency", "extinction_5_1", "--lambda", "1e-300"]],
                         ids=" ".join)
def test_continuous_window_beyond_memory_is_a_config_error(tmp_path, capsys, argv):
    # the quadrature grid is probed before it is built: these exited 1 with
    # numpy's traceback for a 596 GiB or 7.45 TiB array, or 2 with its bare
    # "Maximum allowed size exceeded"
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: a continuous threshold window of ")
    assert "does not fit in memory" in err
    assert not out.exists()


def test_simulate_measles_monthly(tmp_path):
    rc = main(["simulate", "measles_france_5_2", "--h", "1", "--t-end", "60",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "trajectory_nsfd_h1.csv")
    assert len(rows) == 61
    assert float(rows[0][2]) == 106.0


def test_simulate_rk4_method(tmp_path):
    rc = main(["simulate", "extinction_5_1", "--h", "0.05", "--t-end", "5",
               "--method", "rk4", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "trajectory_rk4_h0.05.csv").exists()


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------

def test_thresholds_extinction_rows(tmp_path):
    rc = main(["thresholds", "extinction_5_1", "--h", "1", "--h", "0.5",
               "--lambda", "4", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "thresholds.csv")
    assert header == ["kind", "h", "lambda", "r_lower", "r_upper", "verdict",
                      "exact_periodic"]
    by_h = {row[1]: row for row in rows if row[0] == "discrete"}
    assert abs(float(by_h["1"][4]) - 0.644) <= 1e-3
    assert abs(float(by_h["0.5"][4]) - 0.601) <= 1e-3
    assert by_h["1"][5] == "Extinction"
    cont = [row for row in rows if row[0] == "continuous"][0]
    assert abs(float(cont[4]) - (-0.6)) <= 1e-3


def test_thresholds_persistence_rows(tmp_path):
    rc = main(["thresholds", "persistence_5_1", "--h", "2", "--h", "1", "--h", "0.5",
               "--lambda", "4", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "thresholds.csv")
    by_h = {row[1]: row for row in rows if row[0] == "discrete"}
    assert float(by_h["2"][3]) == pytest.approx(3.201, rel=1e-2)
    assert float(by_h["1"][3]) == pytest.approx(5.9, rel=1e-2)
    assert float(by_h["0.5"][3]) == pytest.approx(10.2, rel=1e-2)
    cont = [row for row in rows if row[0] == "continuous"][0]
    assert float(cont[3]) == pytest.approx(3.4, abs=1e-3)
    assert cont[5] == "Permanence"


def test_thresholds_neutral_single_factor(tmp_path):
    rc = main(["thresholds", "extinction_5_1", "--h", "4", "--lambda", "0.0",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "thresholds.csv")
    disc = [row for row in rows if row[0] == "discrete"][0]
    assert abs(float(disc[3]) - 1.0) <= 1e-10
    assert abs(float(disc[4]) - 1.0) <= 1e-10
    assert disc[5] == "Inconclusive"


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------

def test_consistency_report_values(tmp_path):
    rc = main(["consistency", "extinction_5_1", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "consistency.json").read_text())
    assert payload["applicable"]
    assert payload["h_max_upper"] == pytest.approx(0.5093, abs=1e-3)
    assert payload["notes"]["h_max_upper_reported"] == 0.05
    assert payload["continuous_verdict"] == "Extinction"


def test_consistency_inconsistency_example(tmp_path):
    rc = main(["consistency", "inconsistency_4", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "consistency.json").read_text())
    assert payload["continuous_verdict"] == "Permanence"
    row = payload["discrete_literal"][0]
    assert abs(row["r_upper"] - 1.0) <= 1e-9  # literal one-period evaluation
    assert row["verdict"] != "Permanence"
    assert payload["inconsistency_flag"]
    assert payload["notes"]["discrete_threshold_reported_closed_form"] == 0.6875


def _constant_rates_config(tmp_path):
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["schedules"]["beta"] = {"kind": "constant", "params": {"value": 0.1}}
    cfg["schedules"]["sigma"] = {"kind": "constant", "params": {"value": 0.1}}
    cfg_path = tmp_path / "const.json"
    cfg_path.write_text(json.dumps(cfg))
    return cfg_path


def test_consistency_unbounded_for_constant_coefficients(tmp_path):
    cfg_path = _constant_rates_config(tmp_path)
    rc = main(["consistency", str(cfg_path), "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "consistency.json").read_text())
    assert payload["sup_abs_fprime"] == 0.0
    assert payload["h_max_upper"] == "unbounded"


def test_constant_coefficients_take_no_sup_scan(tmp_path, monkeypatch):
    # beta, sigma, alpha and gamma all constant: f' = 0, so sup |f'| is 0 at the
    # scan's start without a scan, and no note calls the coefficients aperiodic
    from nsfd_sirvs import consistency

    def no_scan(fprime, scan):
        raise AssertionError("sup |f'| scanned for constant coefficients")

    monkeypatch.setattr(consistency, "sup_abs_fprime", no_scan)
    cfg_path = _constant_rates_config(tmp_path)
    assert main(["consistency", str(cfg_path), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "consistency.json").read_text())
    assert (payload["sup_abs_fprime"], payload["fprime_argmax"]) == (0.0, 0.0)
    assert "sup_fprime_scan" not in payload["notes"]


def test_consistency_sweep_with_unbounded_bound_writes_the_report(tmp_path, capsys):
    cfg_path = _constant_rates_config(tmp_path)
    rc = main(["consistency", str(cfg_path), "--sweep", "--out", str(tmp_path / "sweep")])
    assert rc == 0
    assert "nothing to sweep" in capsys.readouterr().out
    assert main(["consistency", str(cfg_path), "--out", str(tmp_path / "plain")]) == 0
    swept = (tmp_path / "sweep" / "consistency.json").read_bytes()
    assert swept == (tmp_path / "plain" / "consistency.json").read_bytes()
    assert json.loads(swept)["h_max_upper"] == "unbounded"


@pytest.mark.parametrize("command", ["thresholds", "consistency"])
def test_window_longer_than_the_period(tmp_path, command):
    # inconsistency_4 has period 1; the window integral over two periods is
    # twice the closed-form one-period value d (1 + c/2) - mu - alpha - gamma
    rc = main([command, "inconsistency_4", "--lambda", "2", "--out", str(tmp_path)])
    assert rc == 0
    two_periods = 2.0 * (0.6 * (1.0 + 1.5 / 2.0) - 0.25 - 0.05 - 0.3)
    if command == "thresholds":
        header, rows = _read_csv(tmp_path / "thresholds.csv")
        cont = dict(zip(header, rows[0]))
        assert cont["kind"] == "continuous" and cont["lambda"] == "2"
        bounds = (float(cont["r_lower"]), float(cont["r_upper"]))
    else:
        payload = json.loads((tmp_path / "consistency.json").read_text())
        assert payload["lambda"] == 2.0
        bounds = (payload["r_c_lower"], payload["r_c_upper"])
    for r in bounds:
        assert r == pytest.approx(two_periods, abs=1e-9)


def test_consistency_sweep_flag(tmp_path):
    rc = main(["consistency", "extinction_5_1", "--sweep", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "consistency.json").read_text())
    assert len(payload["sweep"]) == 16
    assert payload["sweep_all_match"]


def test_simulate_methods_share_their_times(tmp_path):
    # h = 0.4 does not divide t_end = 1: each method takes ceil(1 / 0.4) = 3 steps
    times = {}
    for method in ("nsfd", "euler", "rk4"):
        rc = main(["simulate", "extinction_5_1", "--h", "0.4", "--t-end", "1",
                   "--method", method, "--out", str(tmp_path / method)])
        assert rc == 0
        _, rows = _read_csv(tmp_path / method / f"trajectory_{method}_h0.4.csv")
        times[method] = [row[0] for row in rows]
    assert len(times["nsfd"]) == 4
    assert times["nsfd"] == times["euler"] == times["rk4"]


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_table(tmp_path):
    rc = main(["compare", "extinction_5_1", "--h", "2", "--h", "1", "--h", "0.5",
               "--t-end", "50", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = _read_csv(tmp_path / "compare.csv")
    assert header == ["h", "method", "sup_dev_I", "negativity_flag"]
    assert len(rows) == 6
    nsfd = {row[0]: row for row in rows if row[1] == "nsfd"}
    euler = {row[0]: row for row in rows if row[1] == "euler"}
    assert all(row[3] == "false" for row in nsfd.values())
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    exceptions = manifest["nsfd_worse_than_euler_at"]
    for h in ("2", "1", "0.5"):
        dev_n, dev_e = float(nsfd[h][2]), float(euler[h][2])
        assert dev_n <= dev_e or float(h) in exceptions


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------

def test_scenario_list(capsys):
    rc = main(["scenario", "list"])
    assert rc == 0
    out = capsys.readouterr().out
    for name in BUILTIN_NAMES:
        assert name in out


def test_scenario_run_inconsistency_bundle(tmp_path):
    rc = main(["scenario", "run", "inconsistency_4", "--out", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["inconsistency_flag"] is True
    assert (tmp_path / "thresholds.csv").exists()
    assert (tmp_path / "verdicts.csv").exists()
    _, rows = _read_csv(tmp_path / "verdicts.csv")
    assert ["continuous", "", "Permanence"] in rows


def test_scenario_run_with_observed_writes_residuals(tmp_path):
    obs = tmp_path / "obs.csv"
    obs.write_text("t,cases\n0,106\n1,110\n2,140\n")
    out = tmp_path / "bundle"
    rc = main(["scenario", "run", "measles_france_5_2", "--observed", str(obs),
               "--out", str(out)])
    assert rc == 0
    assert (out / "residuals_h1.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "1" in manifest["rms_residuals"]
    assert not any("observations" in w for w in manifest["warnings"])


def test_observations_outside_the_run_are_named_in_the_warnings(tmp_path):
    # t = -5 lies before the 60-month run: it is left out of the residuals, and
    # the manifest says how many were left out and the run's span
    obs = tmp_path / "obs.csv"
    obs.write_text("t,cases\n-5,3\n0,106\n1,98\n")
    out = tmp_path / "bundle"
    assert main(["scenario", "run", "measles_france_5_2", "--observed", str(obs),
                 "--out", str(out)]) == 0
    _, rows = _read_csv(out / "residuals_h1.csv")
    assert [row[:2] for row in rows] == [["0", "106"], ["1", "98"]]
    manifest = json.loads((out / "manifest.json").read_text())
    assert [w for w in manifest["warnings"] if "observations" in w] == [
        "h=1: 1 of 3 observations lie outside the run's span [0, 60] and are left out "
        "of the residuals"]


_POPULATION_NOTES = [
    "continuous: population-scaled incidence: population along the disease-free "
    "solution taken as x* + y*",
    "h=1: population-scaled incidence: population along the disease-free orbit taken "
    "as x* + y*"]


@pytest.mark.parametrize("argv", [["thresholds", "measles_france_5_2"],
                                  ["consistency", "measles_france_5_2"],
                                  ["scenario", "run", "measles_france_5_2"]], ids=" ".join)
def test_threshold_notes_reach_the_manifest_warnings(tmp_path, argv):
    # standard incidence: each threshold report notes how it scales the
    # population.  The notes were computed, then written nowhere.
    assert main(argv + ["--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["warnings"] == _POPULATION_NOTES


def test_iterated_orbit_note_reaches_the_manifest(tmp_path):
    # a seasonal Lambda has no whole number of steps per period at h = 0.7, so that
    # orbit is iterated from (1, 1) and its report says so; at h = 1 it is exact.
    # Without a note the manifest has no warnings key.
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["schedules"]["Lambda"] = {"kind": "harmonic", "params": {
        "base": 0.5, "amplitude": 0.25, "omega": math.pi / 2.0, "phase": 0.0}}
    path = tmp_path / "inflow.json"
    path.write_text(json.dumps(cfg))
    assert main(["thresholds", str(path), "--h", "0.7", "--h", "1",
                 "--out", str(tmp_path / "a")]) == 0
    manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
    assert manifest["warnings"] == [
        "h=0.7: no periodic disease-free orbit (no step period of Lambda, mu, p, eta, or "
        "a singular period map): iterated from (1, 1) at step 0, so the scan may read "
        "the attraction transient"]
    for argv in (["thresholds", str(path)], ["consistency", str(path)],
                 ["thresholds", "extinction_5_1"]):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        assert main(argv + ["--out", str(out)]) == 0
        assert "warnings" not in json.loads((out / "manifest.json").read_text()), argv


def test_observed_outside_the_run_writes_strict_json(tmp_path):
    # no observation falls inside the 60-month run: the rms was written as a
    # bare NaN, which strict JSON parsers reject; it is null now
    obs = tmp_path / "obs.csv"
    obs.write_text("t,cases\n100,5\n200,6\n")
    out = tmp_path / "bundle"
    assert main(["scenario", "run", "measles_france_5_2", "--observed", str(obs),
                 "--out", str(out)]) == 0

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    manifest = json.loads((out / "manifest.json").read_text(), parse_constant=reject)
    assert manifest["rms_residuals"] == {"1": None}


def test_scenario_missing_observed_is_io_error(tmp_path):
    rc = main(["scenario", "run", "measles_france_5_2",
               "--observed", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "out")])
    assert rc == 4
    assert not (tmp_path / "out").exists()  # so does the observed series


def test_scenario_run_from_config_with_relative_observed(tmp_path):
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["t_end"] = 20.0
    cfg["observed_path"] = "obs.csv"
    (tmp_path / "obs.csv").write_text("t,cases\n0,0.2\n4,0.05\n8,0.01\n")
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "bundle"
    rc = main(["scenario", "run", str(cfg_path), "--out", str(out)])
    assert rc == 0
    assert (out / "residuals_h1.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["spec"]["config"]["name"] == "extinction_5_1"


# ---------------------------------------------------------------------------
# the framing every subcommand shares: the manifest and the stdout line
# ---------------------------------------------------------------------------

# each subcommand with the stdout line it prints, {out} standing for --out
STDOUT_LINES = {
    ("simulate", "extinction_5_1", "--h", "1", "--t-end", "20"):
        "wrote {out}/trajectory_nsfd_h1.csv",
    ("thresholds", "extinction_5_1", "--h", "1", "--lambda", "4"):
        "wrote {out}/thresholds.csv",
    ("consistency", "extinction_5_1", "--sweep"): "wrote {out}/consistency.json",
    ("compare", "extinction_5_1", "--h", "1", "--t-end", "20"): "wrote {out}/compare.csv",
    ("scenario", "run", "measles_france_5_2"): "wrote scenario bundle to {out}",
}


@pytest.mark.parametrize("argv", list(STDOUT_LINES), ids=" ".join)
def test_manifest_lists_every_file_written(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main(list(argv) + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == STDOUT_LINES[argv].format(out=out) + "\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(p.name for p in out.iterdir()
                                         if p.name != "manifest.json")


# ---------------------------------------------------------------------------
# determinism and manifest replay
# ---------------------------------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    # every spelling the parser reads as --out stays out of the manifest
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out_args in (["--out", str(a)], ["--ou", str(b)], [f"--o={c}"]):
        assert main(["thresholds", "extinction_5_1", "--h", "1", "--lambda", "4",
                     *out_args]) == 0
    for other in (b, c):
        assert (a / "thresholds.csv").read_bytes() == (other / "thresholds.csv").read_bytes()
        assert (a / "manifest.json").read_bytes() == (other / "manifest.json").read_bytes()


def test_manifest_replay_reproduces_outputs(tmp_path):
    first = tmp_path / "first"
    assert main(["thresholds", "persistence_5_1", "--h", "2", "--lambda", "4",
                 "--out", str(first)]) == 0
    manifest = json.loads((first / "manifest.json").read_text())
    replay = tmp_path / "replay"
    assert main(manifest["argv"] + ["--out", str(replay)]) == 0
    assert (first / "thresholds.csv").read_bytes() == (replay / "thresholds.csv").read_bytes()


# sha256 over each bundle's files, in name order: name, NUL, 8-byte little-endian
# length, contents.  Pinned from the array-based integrator and per-value writer
# that the current fast paths replaced; any byte change in a bundle shows here.
# The two saturated bundles were re-pinned when saturated incidence moved from
# the fixed-point loop to the closed-form NSFD step: their NSFD trajectories
# moved by at most 6.3e-13 of each column's largest value, nothing else changed.
# inconsistency_4 and measles_france_5_2 were re-pinned when the discrete
# thresholds moved onto the exact disease-free orbit: only their discrete
# threshold values changed, to 1 (the closed form, was 1 - 1.3e-15) and to
# 49.638... on both sides (the long burn-in's value, was 50.80 and 80.21).
# All six were re-pinned when the bundle gained compare.csv (byte-identical to
# `compare <name>`) and manifest.json its entry in `outputs` and the key
# nsfd_worse_than_euler_at; every other file kept its bytes.
# All six were re-pinned when trajectory_rk4_h0.01.csv became the reference at
# the times compare.csv scores (the sorted union of the NSFD and Euler times),
# in place of every 0.01 step: it is the only file whose bytes changed, so the
# written reference and compare.csv are one table and a pass writes 1.4 MB,
# not 13.1 MB.
# The four seasonal bundles were re-pinned when an exact_periodic report became
# its one-period product, multiplied in step order (no log, exp or prefix sum):
# only the r_lower/r_upper of those rows in thresholds.csv and discrete_literal
# in consistency.json changed, each within 6.0e-13 relative, now one value per
# row; no verdict or flag moved, and extinction_5_1's h = 4 row kept its bytes.
# measles_france_5_2 was re-pinned when a run stopped grid-validating the
# declared incidence kinds and wrote its threshold reports' notes: only the two
# `warnings` of manifest.json changed, from the two `incidence phi/psi:
# population-scaled ... checked at pop=6.56598e+07 only` to the `continuous:`
# and `h=1:` population-scaled notes of its threshold reports.
# saturated_5_1_ext and saturated_5_1_per were re-pinned when Euler and RK4
# moved onto the factor form, so they integrate S I/(1 + 0.7 I), the model the
# NSFD scheme discretises, in place of the mass-action S I: only the six files
# Euler and RK4 feed changed, compare.csv, trajectory_euler_h{4,2,1,0.5}.csv and
# trajectory_rk4_h0.01.csv.  NSFD's sup|dI| at h = 0.5 went 0.235 -> 0.137 (per)
# and 0.00638 -> 0.0127 (ext); verdicts, thresholds and NSFD runs kept their bytes.
# All six were re-pinned when the RK4 reference began to stop exactly at every
# scored time and breakpoint, with equal steps of at most 0.02 between stops and
# a left-limit end stage, in place of fixed steps of 0.01 read by np.interp:
# only compare.csv, the RK4 file (trajectory_rk4_h0.01.csv became
# trajectory_rk4_h0.02.csv) and manifest.json (its `outputs` and the new
# `reference` entry) changed.  The largest relative move of a sup_dev_I was
# 1.9e-10 (extinction_5_1), 1.4e-8 (persistence_5_1), 1.7e-10
# (saturated_5_1_ext), 5.8e-9 (saturated_5_1_per), 2.1e-5 (inconsistency_4,
# whose k/6 times were interpolated) and 3.4e-3 (measles_france_5_2, whose
# reference was first order); verdicts, thresholds, consistency.json and the
# NSFD and Euler runs kept their bytes.
# All six were re-pinned when the reference became a Dormand-Prince 5(4) pair
# whose embedded estimate picks each gap's steps: only compare.csv, the
# reference file (trajectory_rk4_h0.02.csv became trajectory_reference.csv)
# and manifest.json (its `outputs`, and the `reference` entry, which gained
# rtol, largest_estimate and capped_gaps) changed.  The largest relative move
# of a sup_dev_I was 2.3e-10 (extinction_5_1), 1.5e-8 (persistence_5_1),
# 1.8e-10 (saturated_5_1_ext), 6.3e-9 (saturated_5_1_per), 2.1e-6
# (inconsistency_4) and 6.9e-10 (measles_france_5_2); verdicts, thresholds,
# consistency.json and the NSFD and Euler runs kept their bytes.
# All six were re-pinned when the reference began to stop once its periodic
# run had settled and to repeat its last period at every later scored time:
# only manifest.json (the `reference` entry's steps, capped_gaps and max_step
# count the integrated part, and it gained `tail`), the reference file of the
# five periodic built-ins and inconsistency_4's compare.csv changed.  The
# largest relative move of a sup_dev_I was 9.6e-10 (inconsistency_4) and 0
# elsewhere; measles_france_5_2 has no tail, so only its manifest changed.
GOLDEN_BUNDLE_DIGESTS = {
    "extinction_5_1": "fd74a509627896f764849ff3fbd66b6f53c0fb0557a2f7129ac915cfafa909fc",
    "persistence_5_1": "553916e04a8c7beee63efdb244a4ce6d66f8b05a788e2c4e3f172d6e3f38100e",
    "saturated_5_1_ext": "42fa78ca366b685e8c34466dff2bbd8d155372ab4ed8f0b72e71d92f6a121671",
    "saturated_5_1_per": "314243ff470b05fea8457d64aaec202a691ccc3aaf14fa3b8f67bf789cc477ae",
    "inconsistency_4": "99d28be71f44c00dbc8fe0b3507061c6dca29789f7b5cbeaa3f46074d32a7b7c",
    "measles_france_5_2": "70394b410611a7c0392ace9b246e408498c90761b4cff82f9eb955f320c48014",
}


def _dir_digest(path):
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_scenario_bundle_matches_golden_digest(tmp_path, name):
    assert main(["scenario", "run", name, "--out", str(tmp_path)]) == 0
    assert _dir_digest(tmp_path) == GOLDEN_BUNDLE_DIGESTS[name]


# the same digest over the other subcommands' output directories, manifest
# included.  The three sweeps were re-pinned with the exact disease-free orbit:
# only their r_lower/r_upper changed, onto the values along the closed-form
# equilibrium orbit (within 7.4e-12 relative); every verdict is unchanged.
# The extinction_5_1 and persistence_5_1 sweeps and `thresholds persistence_5_1`
# were re-pinned when an exact_periodic report became its one-period product:
# only the discrete_literal rows (all exact) and the exact thresholds.csv rows
# moved, within 6.0e-13 relative; the swept rows kept their bytes.
# `thresholds persistence_5_1` was re-pinned when --burn-in and --scan were
# retired: only its manifest.json changed, losing the keys burn_in and scan.
GOLDEN_COMMAND_DIGESTS = {
    ("consistency", "extinction_5_1", "--sweep"):
        "ce071038b5c26da40043836ec209ba65f29241262727d5900f4eb3a12c9ed098",
    ("consistency", "persistence_5_1", "--sweep"):
        "323bc9664247d5529c31faeafd54b1c40874bd83689f7b4b0e322e1615a6e520",
    ("consistency", "inconsistency_4", "--sweep"):
        "a7c75338fafea93ca720e2388d884ba9a0aa0713ff65f7128efe5c64b188238b",
    ("thresholds", "persistence_5_1"):
        "39fd3d1a30b9bbe5da0484d3becf0189d8cb6785c49cd1e32be63a8015b1ebd9",
    # re-pinned with the reference that stops at every scored time: compare.csv
    # (largest relative move of a sup_dev_I 1.9e-10) and manifest.json (the new
    # `reference` entry) changed; and again with the Dormand-Prince reference:
    # compare.csv (2.3e-10) and the `reference` entry changed; and again with
    # the repeated tail: only the `reference` entry changed
    ("compare", "extinction_5_1"):
        "edf9dd5e0216f23e5545d98e54f5cbaa087c8c5fd72f804c3be669aeb08401df",
    # two references without a tail, pinned before the reference stopped
    # keeping its nodes: h = 0.3 does not divide the period, and two periods
    # are fewer than the three a tail needs
    ("compare", "persistence_5_1", "--h", "0.3"):
        "43c274e81b8d4d443eba90fbc713c97cac0fe6cdcd3a2f7bf6442cb9a8f8ddac",
    ("compare", "inconsistency_4", "--t-end", "2"):
        "7611a28ae39765516b33f5ff6fbb936aad3f494031d4d2c7622e9a68b2de8149",
    # the continuous integrators, pinned before RK4's stages were written out:
    # mass action (d = 1) with RK4 and Euler, and standard incidence (d = N)
    ("simulate", "persistence_5_1", "--h", "0.05", "--method", "rk4"):
        "f3cbdd804c0d2c86446e4655464212e08d7f22bbcd64500758c074b560604d51",
    ("simulate", "persistence_5_1", "--h", "0.05", "--method", "euler"):
        "34d99e457ab9cb901da4b7835bd06465ba025d2bb9159cd7f06214745d1826f9",
    # re-pinned when RK4's end stage began to read the left limit: at h = 1 every
    # step ends on a month boundary, where it read the next month's beta.  Only
    # trajectory_rk4_h1.csv changed; I moved by up to 0.12 of its largest value
    ("simulate", "measles_france_5_2", "--method", "rk4"):
        "7f6db0e18d76d4e86c0125aafba96b2ca5033483e85655ea92fe1b92d000a65a",
}


@pytest.mark.parametrize("argv", list(GOLDEN_COMMAND_DIGESTS), ids=" ".join)
def test_command_output_matches_golden_digest(tmp_path, argv):
    assert main(list(argv) + ["--out", str(tmp_path)]) == 0
    assert _dir_digest(tmp_path) == GOLDEN_COMMAND_DIGESTS[argv]


def _golden_runs():
    """(argv, pinned digest) of every golden bundle and command."""
    return ([(["scenario", "run", name], d) for name, d in GOLDEN_BUNDLE_DIGESTS.items()]
            + [(list(argv), d) for argv, d in GOLDEN_COMMAND_DIGESTS.items()])


# numpy's AVX-512 code paths, switched off for the dispatch test below
_DISPATCH_OFF = ("AVX512_SPR", "AVX512_ICL", "X86_V4")
# FOUND, open: the swept rows are not exact_periodic, so their window products
# are exp of differences of cumulative sums of log, and numpy's exp and log give
# other last bits on the AVX2 paths.  A mend of the sweeps empties this set.
_DISPATCH_DEPENDENT = {("consistency", "extinction_5_1", "--sweep"),
                       ("consistency", "persistence_5_1", "--sweep"),
                       ("consistency", "inconsistency_4", "--sweep")}
_DIGESTS_UNDER_DISPATCH = """
import json, sys
from pathlib import Path
from numpy._core._multiarray_umath import __cpu_features__
from nsfd_sirvs.cli import main
from test_cli import _DISPATCH_OFF, _dir_digest, _golden_runs
assert not any(__cpu_features__[f] for f in _DISPATCH_OFF), "dispatch not switched off"
out, digests = Path(sys.argv[1]), []
for i, (argv, _) in enumerate(_golden_runs()):
    assert main(argv + ["--out", str(out / str(i))]) == 0, argv
    digests.append(_dir_digest(out / str(i)))
(out / "digests.json").write_text(json.dumps(digests))
"""


def test_golden_digests_on_another_simd_dispatch(tmp_path):
    # every golden output rerun on numpy's AVX2 paths: exactly the outputs named
    # in _DISPATCH_DEPENDENT change their bytes
    from numpy._core._multiarray_umath import __cpu_features__
    missing = [f for f in _DISPATCH_OFF if not __cpu_features__.get(f)]
    if missing:
        pytest.skip(f"this CPU has no {', '.join(missing)}: only one dispatch path to run")
    src = str(Path(nsfd_sirvs.__file__).resolve().parent.parent)
    path = [src, str(Path(__file__).parent)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(_DISPATCH_OFF),
               PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _DIGESTS_UNDER_DISPATCH, str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    digests = json.loads((tmp_path / "digests.json").read_text())
    changed = {tuple(argv) for (argv, pinned), got in zip(_golden_runs(), digests)
               if got != pinned}
    assert changed == _DISPATCH_DEPENDENT


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_bundle_compare_is_the_compare_command(tmp_path, name):
    # one producer makes the runs and one writer scores them: the bundle's
    # compare.csv and nsfd_worse_than_euler_at are those of `compare <name>`
    bundle, alone = tmp_path / "bundle", tmp_path / "alone"
    assert main(["scenario", "run", name, "--out", str(bundle)]) == 0
    assert main(["compare", name, "--out", str(alone)]) == 0
    assert (alone / "compare.csv").read_bytes() == (bundle / "compare.csv").read_bytes()
    manifests = [json.loads((d / "manifest.json").read_text()) for d in (bundle, alone)]
    assert manifests[0]["nsfd_worse_than_euler_at"] == manifests[1]["nsfd_worse_than_euler_at"]


def test_bundle_reference_reaches_the_last_run_time(tmp_path):
    # at h = 0.4 the runs end at t = 1.2, past t_end = 1: the bundle's
    # reference runs on to 1.2, as `compare`'s always did
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["h_values"], cfg["t_end"], cfg["lambda"] = [0.4], 1.0, 1.0
    (tmp_path / "short.json").write_text(json.dumps(cfg))
    bundle, alone = tmp_path / "bundle", tmp_path / "alone"
    assert main(["scenario", "run", str(tmp_path / "short.json"), "--out", str(bundle)]) == 0
    assert main(["compare", "extinction_5_1", "--h", "0.4", "--t-end", "1",
                 "--out", str(alone)]) == 0
    _, rows = _read_csv(bundle / "trajectory_reference.csv")
    assert float(rows[-1][0]) == pytest.approx(1.2)
    _, rows = _read_csv(bundle / "trajectory_nsfd_h0.4.csv")
    assert float(rows[-1][0]) == pytest.approx(1.2)
    assert (alone / "compare.csv").read_bytes() == (bundle / "compare.csv").read_bytes()


def _table(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _assert_reference_file_is_what_compare_scores(bundle):
    """The bundle's reference file holds the reference at the sorted union of its
    runs' times, and every sup_dev_I of compare.csv is recomputed from the CSVs
    alone, bit for bit; returns the reference file's rows."""
    ref = _table(bundle / "trajectory_reference.csv")
    _, rows = _read_csv(bundle / "compare.csv")
    runs = [_table(bundle / f"trajectory_{method}_h{h_label(float(h))}.csv")
            for h, method, _, _ in rows]
    assert np.array_equal(ref[:, 0], np.unique(np.concatenate([run[:, 0] for run in runs])))
    for (_, _, dev, _), run in zip(rows, runs):
        at = np.searchsorted(ref[:, 0], run[:, 0])
        assert "%.17g" % np.max(np.abs(run[:, 2] - ref[at, 2])) == dev
    return ref


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_bundle_reference_is_written_at_the_compared_times(tmp_path, name):
    assert main(["scenario", "run", name, "--out", str(tmp_path)]) == 0
    _assert_reference_file_is_what_compare_scores(tmp_path)


@settings(max_examples=15, deadline=None)
@given(hs=st.lists(st.floats(0.05, 2.0), min_size=1, max_size=3, unique_by=h_label),
       t_end=st.floats(1.0, 6.0))
def test_bundle_reference_at_non_nested_step_sizes(tmp_path_factory, hs, t_end):
    # step sizes such as {0.3, 0.7}, whose times do not nest: the reference rows
    # are exactly their union, not a uniform grid; every one of those times is
    # a stop of the reference, whose own state is written there, no step is
    # longer than the gap it splits, and nothing is interpolated on the way
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["h_values"], cfg["t_end"], cfg["lambda"] = hs, t_end, 1.0
    tmp = tmp_path_factory.mktemp("nested")
    (tmp / "cfg.json").write_text(json.dumps(cfg))

    def no_interp(*args, **kwargs):
        raise AssertionError("the reference was interpolated")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "interp", no_interp)
        assert main(["scenario", "run", str(tmp / "cfg.json"), "--out", str(tmp / "b")]) == 0
    ref = _assert_reference_file_is_what_compare_scores(tmp / "b")
    reference = run_scenario(config_to_spec(cfg)).reference
    at = np.searchsorted(reference.times, ref[:, 0])
    assert np.array_equal(reference.times[at], ref[:, 0])
    assert np.array_equal(reference.states[at], ref[:, 1:])
    assert 0.0 < reference.max_step <= np.max(np.diff(reference.times))


def test_a_reference_that_blows_up_reports_no_estimate(tmp_path):
    # beta = 1e4 overflows the reference at its cap step: the manifest stays
    # strict JSON, its largest_estimate null, and compare.csv says nan
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["schedules"]["beta"] = {"kind": "constant", "params": {"value": 1e4}}
    cfg["h_values"], cfg["t_end"], cfg["lambda"] = [1.0], 4.0, 1.0
    (tmp_path / "fast.json").write_text(json.dumps(cfg))
    assert main(["compare", str(tmp_path / "fast.json"), "--out", str(tmp_path / "o")]) == 0
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["reference"]["largest_estimate"] is None
    _, rows = _read_csv(tmp_path / "o" / "compare.csv")
    assert [row[2] for row in rows] == ["nan", "nan"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_manifest_says_how_the_reference_was_integrated(tmp_path, name):
    # the same deterministic entry from `scenario run` and `compare`: the
    # method, its step count, its largest step, the tolerance, its largest
    # estimate, the number of capped gaps and its tail, and no wall time.
    # Steps and capped gaps count what was integrated, up to the tail's period
    # (to t_end there were 1440, 1832, 1440, 1800 and 12 000 steps, and 2392
    # capped gaps on inconsistency_4)
    steps, capped, period = {
        "extinction_5_1": (1128, 0, 37), "persistence_5_1": (840, 0, 19),
        "saturated_5_1_ext": (1128, 0, 37), "saturated_5_1_per": (808, 0, 19),
        "inconsistency_4": (2790, 550, 93), "measles_france_5_2": (896, 0, None)}[name]
    entries = []
    for argv in (["scenario", "run", name], ["compare", name]):
        out = tmp_path / argv[0]
        assert main(argv + ["--out", str(out)]) == 0
        entries.append(json.loads((out / "manifest.json").read_text())["reference"])
    assert entries[0] == entries[1]
    entry = entries[0]
    assert sorted(entry) == ["capped_gaps", "largest_estimate", "max_step", "method", "rtol",
                             "steps", "tail"]
    assert (entry["method"], entry["steps"], entry["rtol"], entry["capped_gaps"]) == (
        "dp5", steps, 1e-8, capped)
    tail = entry["tail"]
    assert sorted(tail) == ["bound", "from_period", "kind"]
    if period is None:
        assert tail == {"kind": "none", "from_period": None, "bound": None}
    else:
        assert (tail["kind"], tail["from_period"]) == ("repeated", period)
        assert 0.0 < tail["bound"] < 1e-9
    # where no gap is capped, the largest estimate is of the order of the
    # tolerance (each block's steps are predicted from the block before)
    assert 0.0 < entry["largest_estimate"] <= (1e-3 if capped else 3e-8)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_consistency_command_matches_bundle_payload(tmp_path, name):
    # compare_thresholds makes both comparisons and one function serialises
    # them: the subcommand's report equals the one in the bundle
    bundle, alone = tmp_path / "bundle", tmp_path / "alone"
    assert main(["scenario", "run", name, "--out", str(bundle)]) == 0
    assert main(["consistency", name, "--out", str(alone)]) == 0
    assert ((alone / "consistency.json").read_bytes()
            == (bundle / "consistency.json").read_bytes())


@pytest.mark.parametrize("name", ["extinction_5_1", "measles_france_5_2"])
def test_consistency_needs_a_positive_window(tmp_path, capsys, name):
    # the comparison always holds the continuous report, whether or not the
    # step-bound analysis applies (it does not for measles_france_5_2)
    rc = main(["consistency", name, "--lambda", "0", "--out", str(tmp_path)])
    assert rc == 2
    assert "lam must be positive" in capsys.readouterr().err
    assert not (tmp_path / "consistency.json").exists()


@pytest.mark.parametrize("command", ["thresholds", "consistency"])
def test_infinite_window_is_a_config_error(tmp_path, capsys, command):
    # an infinite window was reported as a run of t_end / h = inf steps
    rc = main([command, "extinction_5_1", "--lambda", "inf", "--out", str(tmp_path)])
    assert rc == 2
    assert "lam must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


NON_FINITE_STEP = [
    ["simulate", "extinction_5_1", "--h", "inf", "--method", "nsfd"],
    ["simulate", "extinction_5_1", "--h", "inf", "--method", "euler"],
    ["simulate", "extinction_5_1", "--h", "inf", "--method", "rk4"],
    ["thresholds", "extinction_5_1", "--h", "inf"],
    ["compare", "extinction_5_1", "--h", "inf"],
    ["consistency", "infinite_step.json"],
    ["scenario", "run", "infinite_step.json"],
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("argv", NON_FINITE_STEP, ids=" ".join)
def test_non_finite_step_is_a_config_error(tmp_path, capsys, argv):
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["h_values"] = [math.inf]  # written as the JSON token Infinity
    (tmp_path / "infinite_step.json").write_text(json.dumps(cfg))
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "finite" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_non_finite_schedule_parameter_is_a_config_error(tmp_path, capsys):
    # a NaN phase passed the harmonic's checks: thresholds.csv was written with
    # nan rows marked exact_periodic, then the strict manifest failed on the nan
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["schedules"]["beta"]["params"]["phase"] = math.nan  # the JSON token NaN
    (tmp_path / "nan_phase.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["thresholds", str(tmp_path / "nan_phase.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: schedules.beta: ") and "phase" in err
    assert not out.exists()


def test_h_values_with_one_spelling_are_a_config_error(tmp_path, capsys):
    # both were written to trajectory_nsfd_h1.csv, the second over the first
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["h_values"] = [1.0, 1.0000001]
    (tmp_path / "same_name.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["scenario", "run", str(tmp_path / "same_name.json"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "1.0 and 1.0000001" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["thresholds"], ["consistency"], ["scenario", "run"]],
                         ids=" ".join)
def test_non_finite_threshold_is_a_numeric_failure(tmp_path, capsys, argv):
    # finite coefficients of 1e308 overflow the window integral and the growth
    # ratios: thresholds wrote inf and nan rows (the nan one marked
    # exact_periodic) and exited 0, consistency failed on its strict JSON, and
    # numpy's warnings reached stderr (a RuntimeWarning is an error here)
    cfg = spec_to_config(builtin("extinction_5_1"))
    for name in ("beta", "sigma"):
        cfg["schedules"][name] = {"kind": "constant", "params": {"value": 1e308}}
    (tmp_path / "huge.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(argv + [str(tmp_path / "huge.json"), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("numeric failure: continuous threshold report: "
                                       "non-finite window integral\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [["thresholds"], ["consistency"], ["scenario", "run"]],
                         ids=" ".join)
@pytest.mark.parametrize("zero, kind, message", [
    ("mu", "mass_action", "disease-free equilibrium needs mu > 0"),
    ("Lambda", "standard",
     "standard incidence divides by the disease-free population x* + y*, which is 0 here"),
], ids=["mu = 0", "standard at Lambda = 0"])
def test_a_disease_free_state_without_population_is_a_config_error(tmp_path, capsys, argv,
                                                                    zero, kind, message):
    # mu = 0 has no disease-free equilibrium, and Lambda = 0 makes the population
    # x* + y* that a standard incidence divides by 0: 0 / 0 was a numeric failure
    cfg = spec_to_config(builtin("extinction_5_1"))
    cfg["schedules"][zero] = {"kind": "constant", "params": {"value": 0.0}}
    cfg["incidence"] = {"phi": {"kind": kind}, "psi": {"kind": kind}}
    (tmp_path / "edge.json").write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(argv + [str(tmp_path / "edge.json"), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_window_product_past_the_largest_double_is_inf(tmp_path, capsys):
    # finite growth ratios whose product overflows keep their inf row, quietly
    rc = main(["thresholds", "persistence_5_1", "--lambda", "5000", "--h", "1",
               "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv(tmp_path / "thresholds.csv")
    assert rows[1] == ["discrete", "1", "4999", "inf", "inf", "Permanence", "true"]
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_step_whose_times_overflow_is_a_config_error(tmp_path, capsys):
    # n h overflows to inf from n = 2 on, and cos(inf) is NaN: the scan wrote
    # r_lower = r_upper = nan, verdict Inconclusive, and exited 0.  The overflow
    # itself raises no RuntimeWarning; the rejected time is the one message.
    rc = main(["thresholds", "extinction_5_1", "--h", "1e308", "--out", str(tmp_path)])
    assert rc == 2
    assert "non-finite time" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


@pytest.mark.parametrize("t_end", ["-5", "0", "nan"])
@pytest.mark.parametrize("method", ["nsfd", "euler", "rk4"])
def test_simulate_needs_a_positive_t_end(tmp_path, capsys, method, t_end):
    # NSFD ran one step to t = h and echoed t_end: -5 in its manifest
    rc = main(["simulate", "extinction_5_1", "--method", method, "--t-end", t_end,
               "--out", str(tmp_path)])
    assert rc == 2
    assert "t_end must be positive" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()
    assert not list(tmp_path.glob("trajectory_*.csv"))


# each subcommand registers only the flags it reads; these were accepted and
# ignored before, and echoed in the manifest as if they had taken effect
UNREAD_FLAGS = [
    ["simulate", "extinction_5_1", "--burn-in", "10"],
    ["simulate", "extinction_5_1", "--scan", "10"],
    ["simulate", "extinction_5_1", "--lambda", "2"],
    ["compare", "extinction_5_1", "--burn-in", "10"],
    ["compare", "extinction_5_1", "--scan", "10"],
    ["compare", "extinction_5_1", "--lambda", "2"],
    ["scenario", "run", "extinction_5_1", "--lambda", "2"],
    ["scenario", "run", "extinction_5_1", "--t-end", "10"],
    ["thresholds", "extinction_5_1", "--t-end", "10"],
    ["consistency", "extinction_5_1", "--t-end", "10"],
    # the window starts an aperiodic report scans are `thresholds.BURN_IN` and
    # `thresholds.SCAN`, options of no subcommand
    ["thresholds", "extinction_5_1", "--burn-in", "10"],
    ["thresholds", "extinction_5_1", "--scan", "10"],
    ["consistency", "extinction_5_1", "--burn-in", "10"],
    ["consistency", "extinction_5_1", "--scan", "10"],
    ["scenario", "run", "extinction_5_1", "--burn-in", "10"],
    ["scenario", "run", "extinction_5_1", "--scan", "10"],
]


@pytest.mark.parametrize("argv", UNREAD_FLAGS, ids=" ".join)
def test_unread_flag_is_a_usage_error(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "manifest.json").exists()


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["thresholds", str(bad), "--out", str(tmp_path)]) == 2


def test_numeric_failure_exit_code(tmp_path, capsys, monkeypatch):
    import nsfd_sirvs.cli as cli_module
    from nsfd_sirvs.errors import StepError

    def boom(*args, **kwargs):
        raise StepError("balance identity violated", step=17, residual=1.0)

    monkeypatch.setattr(cli_module, "simulate_discrete", boom)
    rc = main(["simulate", "extinction_5_1", "--h", "1", "--out", str(tmp_path)])
    assert rc == 3
    assert "step 17" in capsys.readouterr().err


def _python_m(*args, timeout):
    src = str(Path(nsfd_sirvs.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    return subprocess.run([sys.executable, "-m", "nsfd_sirvs", *args],
                          capture_output=True, text=True, env=env, timeout=timeout)


def test_python_m_runs_the_cli():
    proc = _python_m("--help", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: nsfd-sirvs")


@pytest.mark.parametrize("h, steps", [("1e-15", "2e+17"), ("1e-320", "t_end / h = inf")])
@pytest.mark.parametrize("method", ["nsfd", "euler", "rk4"])
def test_simulate_too_long_to_hold_fails_at_once(tmp_path, method, h, steps):
    # 2e17 steps need exabytes of states, and h = 1e-320 makes t_end / h infinite:
    # either is refused before the first step, on any host
    proc = _python_m("simulate", "extinction_5_1", "--method", method, "--h", h,
                     "--out", str(tmp_path), timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"configuration error: a run of {steps} steps")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("h", ["1e-15", "1e-320"])
def test_thresholds_window_too_long_to_hold_fails_at_once(tmp_path, h):
    # a window of 4e15 steps cannot be held, and one of lam / h = inf steps
    # cannot be counted: both are refused before any orbit is computed
    proc = _python_m("thresholds", "extinction_5_1", "--h", h, "--out", str(tmp_path),
                     timeout=20)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("configuration error: a threshold window of ")
    assert "Traceback" not in proc.stderr
