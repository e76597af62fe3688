import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nsfd_sirvs
from nsfd_sirvs.cli import main
from nsfd_sirvs.scenarios import BUILTIN_NAMES, builtin, spec_to_config


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
                                  ["thresholds", "extinction_5_1", "--h", "1", "--scan", "-5"],
                                  ["consistency", "extinction_5_1", "--scan", "-5"],
                                  ["scenario", "run", "extinction_5_1", "--scan", "-5"]],
                         ids=" ".join)
def test_failed_run_removes_the_empty_out_it_made(tmp_path, argv):
    # these options are read after --out is made; the run that fails on them
    # removes each directory it made while it is empty, and only those
    out = tmp_path / "new" / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert not (tmp_path / "new").exists()
    kept = tmp_path / "kept"
    kept.mkdir()
    assert main(argv + ["--out", str(kept)]) == 2
    assert kept.is_dir()


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
    rc = main(["consistency", "extinction_5_1", "--sweep", "--scan", "500",
               "--burn-in", "200", "--out", str(tmp_path)])
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
GOLDEN_BUNDLE_DIGESTS = {
    "extinction_5_1": "8bf6ffe578acb072201aa28463a1a0ce671f4c50c8569cc005daccc861c32a93",
    "persistence_5_1": "a8c2bda1512546324adb868184e8101a9a63cdb589c07bd49ba31a9eeb69731c",
    "saturated_5_1_ext": "fdbbfd78cbd05b8adda13e63b76db07f723673d971dfa572a4e1c628ab2d38fc",
    "saturated_5_1_per": "e1c74a56aab6d981ad4e320688fb124fb703b28f902f489c3301ee52d52d1c93",
    "inconsistency_4": "704f129baf097a41f8d40c6ce081cb45c94b9fb1cb097a5d9b5eebd4cd87081f",
    "measles_france_5_2": "5e2a36461cd915364663a8ffdc3b5c3809c7f04147025a379b677c629f01eeed",
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
GOLDEN_COMMAND_DIGESTS = {
    ("consistency", "extinction_5_1", "--sweep"):
        "0ffdcfd6ef6be37e8041b078d6176d7a4537a1192d145498c9d15714ffc2de61",
    ("consistency", "persistence_5_1", "--sweep"):
        "ebad9c4eb13e890a102d7481af55fc7e3959aeb6762a5597f248a760bf73f77f",
    ("consistency", "inconsistency_4", "--sweep"):
        "a7c75338fafea93ca720e2388d884ba9a0aa0713ff65f7128efe5c64b188238b",
    ("thresholds", "persistence_5_1"):
        "59e2358896da5ab8cc96295e5e1585429e2879e3d2404162ac9e145ca64c03a0",
    ("compare", "extinction_5_1"):
        "11f4c0a8aecd3cfd90bc4251863659ff9ba19de0f6548184122f8399e2ca1682",
    # the continuous integrators, pinned before RK4's stages were written out:
    # mass action (RK4's inline-incidence loop) with RK4 and Euler, and
    # standard incidence (RK4's called-bridge loop)
    ("simulate", "persistence_5_1", "--h", "0.05", "--method", "rk4"):
        "f3cbdd804c0d2c86446e4655464212e08d7f22bbcd64500758c074b560604d51",
    ("simulate", "persistence_5_1", "--h", "0.05", "--method", "euler"):
        "34d99e457ab9cb901da4b7835bd06465ba025d2bb9159cd7f06214745d1826f9",
    ("simulate", "measles_france_5_2", "--method", "rk4"):
        "50280cd508c514ba6f9da0c6b5e1cd0c0cb22916124efa7013b9ec25e83df32d",
}


@pytest.mark.parametrize("argv", list(GOLDEN_COMMAND_DIGESTS), ids=" ".join)
def test_command_output_matches_golden_digest(tmp_path, argv):
    assert main(list(argv) + ["--out", str(tmp_path)]) == 0
    assert _dir_digest(tmp_path) == GOLDEN_COMMAND_DIGESTS[argv]


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
