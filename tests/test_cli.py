import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from pendamp import acceptance, limits, linosc
from pendamp.cli import main
from pendamp.dynamics import Params, PhaseState
from pendamp.integrator import EVENT_TOL
from pendamp.limits import tau
from pendamp.quasiopt import simulate_damping


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def read_csv(path, header, n_rows, float_cols):
    """Rows of a CSV file, after checking its header, its row count and that
    every field of ``float_cols`` is a float written as its repr."""
    lines = path.read_text().splitlines()
    assert lines[0] == header
    assert len(lines) == n_rows + 1
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        for i in float_cols:
            assert row[i] == repr(float(row[i]))
    return rows


def test_constants_reports_D(capsys):
    code, out = run_cli(capsys, "constants")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["D"] - 0.925968526) <= 1e-8
    assert payload["tau_minus_2"] == pytest.approx(3.3366986395, abs=1e-6)
    assert payload["Phi0"] == pytest.approx(0.2105, abs=5e-5)


def test_constants_deterministic(capsys):
    _, out1 = run_cli(capsys, "constants")
    _, out2 = run_cli(capsys, "constants")
    assert out1 == out2


def test_tau_branches_agree_at_separatrix(capsys):
    code, out = run_cli(capsys, "tau", "--E", "2.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["tau_plus"] == 0.0
    assert payload["tau"] == pytest.approx(payload["tau_minus_2"], abs=1e-12)


def test_tau_rejects_nonpositive_energy(capsys):
    code, _ = run_cli(capsys, "tau", "--E", "-1.0")
    assert code == 1


SIMULATE = ("simulate", "--x0", "-2.5", "--y0", "0", "--epsilon", "0.1")
K_CAP_BOUND = "k_cap must be finite and >= 1/(1 + sqrt(1 - eps^2)) = 0.501256 at eps=0.1"
BUDGET_OVERFLOW = ("budget budget_factor / eps = inf at eps=0.1 is too large: "
                   "the arc limit 8 budget / pi overflows")


@pytest.mark.parametrize("argv,message", [
    (("tau", "--E", "1.0", "--tol", "1e-16"), "above tolerance 1.000e-16"),
    (("simulate", "--x0", "-2.5", "--y0", "0", "--epsilon", "0.5"),
     "quasioptimal regime needs eps < 0.5, got 0.5: "
     "the standstill zones |sin x|, |y| < 2.0 eps are not disjoint"),
    (("tau", "--E", "nan"), "energy must be positive and finite, got nan"),
    (("tau", "--E", "inf"), "energy must be positive and finite, got inf"),
    (SIMULATE + ("--budget", "nan"), "budget_factor must be positive and finite, got nan"),
    (SIMULATE + ("--budget", "inf"), "budget_factor must be positive and finite, got inf"),
    (SIMULATE + ("--budget", "-1"), "budget_factor must be positive and finite, got -1.0"),
    (SIMULATE + ("--capture-k", "-1"), f"{K_CAP_BOUND}, got -1.0"),
    (SIMULATE + ("--capture-k", "nan"), f"{K_CAP_BOUND}, got nan"),
    (("sweep", "--x0", "-2.5", "--y0", "0", "--eps-list", "0.1,0.05", "--budget", "nan"),
     "budget_factor must be positive and finite, got nan"),
    (("tau", "--E", "1.0", "--tol", "nan"), "tol must be positive and finite, got nan"),
    (("tau", "--E", "3.0", "--tol", "inf"), "tol must be positive and finite, got inf"),
    (("constants", "--tol", "nan"), "tol must be positive and finite, got nan"),
    (("constants", "--tol", "inf"), "tol must be positive and finite, got inf"),
    (("simulate", "--x0", "0", "--y0", "1e200", "--epsilon", "0.1"),
     "step failure: Taylor series overflowed at t=0.0 at eps=0.1"),
    (SIMULATE + ("--budget", "1e308"), BUDGET_OVERFLOW),
    (("sweep", "--x0", "-2.5", "--y0", "0", "--eps-list", "0.1,0.05", "--budget", "1e308"),
     BUDGET_OVERFLOW),
    (("linear", "--support", "1", "1", "inf"), "horizon T must be nonnegative and finite, got inf"),
    (("linear", "--support", "0", "0", "inf"), "horizon T must be nonnegative and finite, got inf"),
    (("linear", "--support", "nan", "1", "3"), "xi must be finite, got (nan, 1.0)"),
    (("linear", "--x0", "1e300", "--y0", "0"),
     "start (1e+300, 0.0) is 1e+300 from the origin, farther than 2 * max_arcs = 20000: "
     "an arc comes at most 2 closer"),
], ids=["quadrature", "merged-zones", "E-nan", "E-inf", "budget-nan", "budget-inf", "budget-1",
        "capture-k-1", "capture-k-nan", "sweep-budget-nan", "tau-tol-nan", "tau-tol-inf",
        "constants-tol-nan", "constants-tol-inf", "step-failure", "budget-overflow",
        "sweep-budget-overflow", "support-T-inf", "support-zero-xi-T-inf", "support-xi-nan",
        "linear-far-start"])
def test_computation_failure_exits_1(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: ") and captured.err.endswith(f"{message}\n")
    assert captured.out == ""


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tau"])  # missing required --E
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_simulate_report(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    code, out = run_cli(capsys, "simulate", "--x0", "-2.0", "--y0", "0.0",
                        "--epsilon", "0.1", "--trajectory-out", str(traj))
    assert code == 0
    payload = json.loads(out)
    assert payload["damping_time"] > payload["lower_time_bound"] - 1.0
    assert payload["switch_count"] >= 1
    modes = {e["mode"] for e in payload["phase_log"]}
    assert "terminal capture" in modes
    assert traj.read_text().splitlines()[0] == "t,x,y,phi,psi,u,E"
    stats = payload["stats"]
    assert set(stats) == {"arcs", "steps", "events", "event_residual_max"}
    assert stats["arcs"] == len(payload["phase_log"]) - 1  # the capture entry is no arc
    assert stats["steps"] > 0 and stats["events"] >= payload["switch_count"]
    assert 0.0 <= stats["event_residual_max"] <= 1e-11


def test_sweep_csv(capsys, tmp_path):
    out_path = tmp_path / "scaling.csv"
    code, _ = run_cli(capsys, "sweep", "--x0", "-2.0", "--y0", "0.0",
                      "--eps-list", "0.2,0.1", "--format", "csv", "--out", str(out_path))
    assert code == 0
    rows = read_csv(out_path, "epsilon,T,N,epsT,epsN", 2, (0, 1, 3, 4))
    assert [float(r[0]) for r in rows] == [0.2, 0.1]
    assert all(int(r[2]) >= 1 for r in rows)


def test_simulate_trajectory_csv(capsys, tmp_path):
    traj = tmp_path / "traj.csv"
    code, _ = run_cli(capsys, "simulate", "--x0", "-2.0", "--y0", "0.0",
                      "--epsilon", "0.2", "--trajectory-out", str(traj))
    assert code == 0
    res = simulate_damping(PhaseState(-2.0, 0.0), Params(0.2))
    rows = read_csv(traj, "t,x,y,phi,psi,u,E", len(res.trajectory.times), (0, 1, 2, 6))
    assert all(r[3] == r[4] == "" for r in rows)  # 2-d states: no covector
    assert {float(r[5]) for r in rows} <= {-1.0, 0.0, 1.0}


def test_bifurcations_csv(capsys, tmp_path):
    out_path = tmp_path / "bif.csv"
    code, _ = run_cli(capsys, "bifurcations", "--n-max", "1", "--tol", "0.5",
                      "--grid", "64", "--format", "csv", "--out", str(out_path))
    assert code == 0
    rows = read_csv(out_path, "n,epsilon_n,n_times_epsilon_n,bracket_width", 1, (1, 2, 3))
    assert rows[0][0] == "1"
    assert float(rows[0][1]) == pytest.approx(9.2, abs=0.6)


def test_euler_csv(capsys, tmp_path):
    out_path = tmp_path / "euler.csv"
    code, _ = run_cli(capsys, "euler", "--x0", "2.0", "--eps-list", "0.02,0.01",
                      "--format", "csv", "--out", str(out_path))
    assert code == 0
    rows = read_csv(out_path, "epsilon,n_iterates,sup_error,ratio", 2, (0, 2))
    assert rows[0][3] == ""  # no ratio for the first eps
    assert rows[1][3] == repr(float(rows[1][3]))


def test_csv_needs_out_before_any_work(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bifurcations", "--n-max", "8", "--format", "csv"])
    assert exc.value.code == 2
    assert "csv output needs --out" in capsys.readouterr().err


def test_eps_list_must_not_be_empty(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["euler", "--x0", "2", "--eps-list", ","])
    assert exc.value.code == 2
    assert "empty epsilon list" in capsys.readouterr().err


def test_config_sets_eps_list(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("eps_list=0.02,0.01\n")
    code, out = run_cli(capsys, "euler", "--x0", "2.0", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["eps_list"] == [0.02, 0.01]
    assert len(payload["rows"]) == 2
    # an explicit flag still wins over the config file
    code, out = run_cli(capsys, "euler", "--x0", "2.0", "--eps-list", "0.01",
                        "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["eps_list"] == [0.01]
    cfg.write_text("eps_list=,\n")
    with pytest.raises(SystemExit) as exc:
        main(["euler", "--x0", "2.0", "--config", str(cfg)])
    assert exc.value.code == 2


def test_sweep_json(capsys):
    code, out = run_cli(capsys, "sweep", "--x0", "-2.0", "--y0", "0.0",
                        "--eps-list", "0.2,0.1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2
    assert payload["extrapolated_epsT"] > 0


def test_extremals_report(capsys):
    code, out = run_cli(capsys, "extremals", "--epsilon", "0.5", "--grid", "24")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_switchings"] >= 1
    assert len(payload["runs"]) >= 48
    assert payload["sturm"]["spacing_ok"] is True
    assert "argmax_phiT" in payload
    stats = payload["stats"]
    assert 0 < stats["batch_steps"] < stats["lane_steps"]
    assert 0.0 < stats["event_residual_max"] <= EVENT_TOL
    assert sum(stats["stops"].values()) >= payload["n_runs"] // 2  # one traced lane per mirror pair


@pytest.mark.parametrize("argv,message", [
    (("extremals", "--epsilon", "0.5", "--grid", "1"), "grid_points must be >= 2, got 1"),
    (("extremals", "--epsilon", "0.5", "--grid", "0"), "grid_points must be >= 2, got 0"),
    (("extremals", "--epsilon", "0.5", "--grid", "-3"), "grid_points must be >= 2, got -3"),
    (("bifurcations", "--n-max", "0"), "n_max must be >= 1, got 0"),
    (("bifurcations", "--n-max", "1", "--tol", "0", "--grid", "16"),
     "tol must be positive and finite, got 0.0"),
    (("bifurcations", "--n-max", "1", "--tol", "-1", "--grid", "16"),
     "tol must be positive and finite, got -1.0"),
    (("bifurcations", "--n-max", "1", "--tol", "nan", "--grid", "16"),
     "tol must be positive and finite, got nan"),
    (("extremals", "--epsilon", "0.5", "--grid", "16", "--phi-max", "nan"),
     "phi_max_scaled must be positive and finite, got nan"),
    (("extremals", "--epsilon", "0.5", "--grid", "16", "--phi-max", "0"),
     "phi_max_scaled must be positive and finite, got 0.0"),
], ids=["grid1", "grid0", "grid-3", "n-max0", "tol0", "tol-1", "tol-nan", "phi-max-nan",
        "phi-max0"])
def test_degenerate_sweep_sizes_fail_cleanly(capsys, argv, message):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_bifurcation_tol_below_float_spacing_exits_1(capsys):
    # The bisection ends with an error once its bracket ends are adjacent floats.
    code = main(["bifurcations", "--n-max", "1", "--tol", "1e-20", "--grid", "16"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith(
        "error: tol = 1e-20 is below the float spacing at eps_1: the bracket [")
    assert captured.out == ""


def test_threads_option_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["extremals", "--epsilon", "0.5", "--grid", "16", "--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_euler_table(capsys):
    code, out = run_cli(capsys, "euler", "--x0", "2.0", "--eps-list", "0.02,0.01")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 2
    assert payload["rows"][1]["sup_error"] < payload["rows"][0]["sup_error"]


def test_linear_subcommand(capsys):
    code, out = run_cli(capsys, "linear", "--x0", "2.0", "--y0", "0.0")
    assert code == 0
    payload = json.loads(out)
    assert payload["T"] == pytest.approx(math.pi, abs=1e-9)
    assert payload["switches"] == 0

    code, out = run_cli(capsys, "linear", "--support", "0", "1", str(math.pi))
    assert code == 0
    payload = json.loads(out)
    assert payload["support"] == pytest.approx(2.0, abs=1e-12)


def test_config_file_overrides_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=1e-6\n")
    code, out = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["tol"] == 1e-6


def test_explicit_flag_beats_config_even_at_its_default(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=1e-6\n")
    code, out = run_cli(capsys, "constants", "--tol", "1e-10", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["tol"] == 1e-10
    # the same with the flag abbreviated and after --config
    code, out = run_cli(capsys, "constants", "--config", str(cfg), "--to=1e-10")
    assert code == 0
    assert json.loads(out)["config"]["tol"] == 1e-10


def test_config_bad_value_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol=abc\n")
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "argument --tol: invalid float value: 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("text,fast", [("fast=true", True), ("fast=no", False), ("fast=YES", True),
                                       ("fast=False", False), ("fast=on", None)])
def test_config_sets_a_flag(capsys, monkeypatch, tmp_path, text, fast):
    # 1/true/yes set the flag and 0/false/no leave it unset, in any case; any
    # other value is a usage error that names the key and the value.
    seen = []
    monkeypatch.setattr(acceptance, "run_all", lambda fast, report: seen.append(fast) or [])
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text + "\n")
    if fast is None:
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--fast", "--config", str(cfg)])
        assert exc.value.code == 2
        assert "config key 'fast' takes 1/true/yes or 0/false/no, got 'on'" in capsys.readouterr().err
        assert seen == []
        return
    assert main(["verify", "--config", str(cfg)]) == 0
    assert main(["verify", "--fast", "--config", str(cfg)]) == 0
    assert seen == [fast, True]


def test_config_skips_comment_and_blank_lines(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# constants at a looser tol\n\n   \n  # indented comment\ntol=1e-6\n")
    code, out = run_cli(capsys, "constants", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["config"]["tol"] == 1e-6


def test_config_line_without_equals_is_a_usage_error(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("tol 1e-6\n")
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "malformed config line 'tol 1e-6' (expected key=value)" in capsys.readouterr().err


def test_unreadable_config_file_is_a_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--config", str(tmp_path / "missing.cfg")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "cannot read config file:" in err and "missing.cfg" in err


def test_config_supplies_a_required_option(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n_max=1\ngrid=16\ntol=0.5\n")
    code, out = run_cli(capsys, "bifurcations", "--config", str(cfg))
    assert code == 0
    assert out == run_cli(capsys, "bifurcations", "--n-max", "1", "--grid", "16", "--tol", "0.5")[1]


def test_config_supplies_a_multi_value_option(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("support=0 1 3.14159\n")
    code, out = run_cli(capsys, "linear", "--config", str(cfg))
    assert code == 0
    assert out == run_cli(capsys, "linear", "--support", "0", "1", "3.14159")[1]
    assert json.loads(out)["T"] == 3.14159


@pytest.mark.parametrize("argv", [
    ("linear", "--x0", "2", "--y0", "0", "--support", "0", "1", "3"),
    ("linear", "--support", "0", "1", "3", "--y0", "0"),
])
def test_linear_support_takes_no_start(capsys, monkeypatch, argv):
    def no_work(*a):
        raise AssertionError("ran before the usage check")
    monkeypatch.setattr(linosc, "lin_simulate", no_work)
    monkeypatch.setattr(linosc, "lin_support", no_work)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "--support takes no --x0 or --y0" in capsys.readouterr().err


def test_constants_tol_reaches_tau_minus_2(capsys):
    code, out = run_cli(capsys, "constants", "--tol", "1e-12")
    assert code == 0
    payload = json.loads(out)
    assert payload["config"]["tol"] == 1e-12
    assert payload["tau_minus_2"] == limits.tau_minus(2.0, 1e-12).value


def test_euler_orbit_cut_by_the_cap_exits_1(capsys, monkeypatch):
    # The orbit's estimate, 46.2 iterates, is within 5% of the cap: it runs and is cut.
    monkeypatch.setattr(limits, "EULER_MAX_ITERATES", 46)
    code = main(["euler", "--x0", "3", "--eps-list", "0.02"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: the broken-line orbit from 3.0 at eps=0.02 reached the cap "
                            "of 46 iterates before capture\n")


def test_euler_orbit_longer_than_the_cap_exits_1_before_any_step(capsys, monkeypatch):
    def no_step(x, p):
        raise AssertionError("the map ran")

    monkeypatch.setattr(limits, "poincare_low", no_step)
    code = main(["euler", "--x0", "3", "--eps-list", "1e-3,5e-7"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("error: the broken-line orbit from 3.0 at eps=5e-07 lives about "
                            "1.84865e+06 iterates, more than 5% over the cap of 1000000 iterates\n")


def test_verify_out_streams_the_lines_to_the_file(capsys, monkeypatch, tmp_path):
    out_path = tmp_path / "verify.txt"
    seen = []

    def run_all(fast, report):
        report("PASS  criterion  1 (one): ok [0.0s]")
        seen.append(out_path.read_text())  # written as the criterion ends
        return [SimpleNamespace(passed=True)]

    monkeypatch.setattr(acceptance, "run_all", run_all)
    code, out = run_cli(capsys, "verify", "--fast", "--out", str(out_path))
    assert code == 0 and out == ""
    assert seen == ["PASS  criterion  1 (one): ok [0.0s]\n"]
    assert out_path.read_text() == seen[0] + "1/1 criteria passed (fast subset)\n"


def test_config_rejects_unknown_key(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("frobnicate=1\n")
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--config", str(cfg)])
    assert exc.value.code == 2


def test_out_writes_file(capsys, tmp_path):
    out_path = tmp_path / "constants.json"
    code, out = run_cli(capsys, "constants", "--out", str(out_path))
    assert code == 0
    assert out == ""
    assert abs(json.loads(out_path.read_text())["D"] - 0.925968526) <= 1e-8


def test_bifurcations_small(capsys):
    code, out = run_cli(capsys, "bifurcations", "--n-max", "1", "--tol", "0.5",
                        "--grid", "64")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["epsilon_n"] == pytest.approx(9.2, abs=0.6)
    (stats,) = payload["stats"]  # the row's scans and their work, added up
    assert stats["n"] == 1 and stats["scans"] >= 2
    assert stats["batches"] >= stats["scans"] and 0 < stats["batch_steps"] < stats["lane_steps"]
    assert 0.0 < stats["event_residual_max"] <= EVENT_TOL
    assert sum(stats["stops"].values()) > 0


def test_verify_fast_passes(capsys):
    code, out = run_cli(capsys, "verify", "--fast")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") >= 10
    assert "SKIP" in out


def test_extremals_deterministic(capsys):
    _, out1 = run_cli(capsys, "extremals", "--epsilon", "0.6", "--grid", "16")
    _, out2 = run_cli(capsys, "extremals", "--epsilon", "0.6", "--grid", "16")
    assert out1 == out2


# No path of the package loads scipy: not the traces, sweeps, damping runs
# and linear baseline, and not the quadratures, K and Si of pendamp.limits.
# Importing scipy's quad and special functions took 0.3-0.4 s and 52 MB.
NO_SCIPY_PROBE = """
import json, sys
import pendamp, pendamp.cli
from pendamp import Params, PhaseState, max_switchings, simulate_damping, trace_extremal
from pendamp.extremal import SweepPolicy
from pendamp.limits import (full_turn_time, period_integral, poincare_iterates, swing_progress,
                            tau)
from pendamp.linosc import LinState, lin_simulate
trace_extremal(1.0, 1, Params(0.25))
max_switchings(Params(0.5), SweepPolicy(grid_points=16))
simulate_damping(PhaseState(-2.5, 0.0), Params(0.1))
lin_simulate(LinState(2.0, 0.0))
values = [tau(1.0).value, tau(3.0).value, pendamp.constant_D().value, period_integral(1e-4).value,
          period_integral(-0.5).value, poincare_iterates("low", 2.8, Params(0.1)).times[0],
          poincare_iterates("high", 3.0, Params(0.1)).times[0], full_turn_time(3.0),
          swing_progress(2.0)]
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
print(json.dumps(values))
"""


def test_trace_sweep_damping_linear_and_quadrature_paths_load_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    assert out[0] == "[]"
    # the probe computed what this process computes
    assert json.loads(out[1]) == [
        tau(1.0).value, tau(3.0).value, limits.constant_D().value,
        limits.period_integral(1e-4).value, limits.period_integral(-0.5).value,
        limits.poincare_iterates("low", 2.8, Params(0.1)).times[0],
        limits.poincare_iterates("high", 3.0, Params(0.1)).times[0],
        limits.full_turn_time(3.0), limits.swing_progress(2.0)]
