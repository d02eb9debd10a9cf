"""Command-line surface: configs, artifacts, exit codes, reproducibility."""
import copy
import csv
import hashlib
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from test_artifacts import (ORACLE_RUNS, ORACLE_SHA256, README_COMMANDS, TRAJECTORY_RUN,
                            SHA256 as ARTIFACT_SHA256, _digests)

from d2dnet import cli, geometry
from d2dnet.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def src_env():
    """The environment for a child interpreter that imports this tree's d2dnet."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_import_leaves_out_scipy_stats_and_optimize(tmp_path):
    # Start-up cost: nothing uses scipy.stats, the Theta solves load no
    # scipy.optimize and multiprocessing loads on simulate's first worker.
    trajectory = {"params": README_COMMANDS["simulate"][0]["params"], "mode": "trajectory",
                  "alpha": [0.3], "dual": True}
    runs = [["equilibrium", "--config", write_config(tmp_path, config, f"{name}.json"),
             "--out", str(tmp_path / name)]
            for name, config in (("table", README_COMMANDS["equilibrium"][0]),
                                 ("trajectory", trajectory))]
    script = ("import json, sys\n"
              "from d2dnet.cli import main\n"
              "def loaded():\n"
              "    print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'multiprocessing')"
              " if m in sys.modules))\n"
              "loaded()\n"
              "for args in json.loads(sys.argv[1]):\n"
              "    main(args, standalone_mode=False)\n"
              "loaded()\n")
    done = subprocess.run([sys.executable, "-c", script, json.dumps(runs)], env=src_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == ["[]", "[]"]
    assert (tmp_path / "table" / "equilibrium.csv").exists()
    assert (tmp_path / "trajectory" / "dual_equilibrium.json").exists()


class TestConfigHandling:
    def test_missing_config_file(self, runner, tmp_path):
        result = runner.invoke(main, ["degree", "--config",
                                      str(tmp_path / "nope.json"),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "not found" in result.output

    def test_malformed_json_reports_location(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"params": {,}}')
        result = runner.invoke(main, ["degree", "--config", str(path),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "line 1" in result.output and "column" in result.output

    def test_missing_required_key(self, runner, tmp_path):
        config = write_config(tmp_path, {"params": {"p": 0.4}})
        result = runner.invoke(main, ["degree", "--config", config,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2

    def test_non_finite_parameter_is_config_error(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "params": {"p": 0.4, "lambda": float("nan"), "r1_m": 1000, "r2_m": 500}})
        result = runner.invoke(main, ["degree", "--config", config,
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "finite" in result.output


class TestDegreeCommand:
    def test_no_dual_radio_devices(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "params": {"p": 0.0, "lambda": 10.0, "r1_m": 500, "r2_m": 300},
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["degree", "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "degree_pmf.csv")
        assert float(rows[0]["pmf_k1"]) == 1.0
        assert all(float(r["pmf_k1"]) == 0.0 for r in rows[1:])
        moments = json.loads((out / "degree_moments.json").read_text())
        assert moments["mean_k1"] == 0.0
        assert (out / "manifest.json").exists()

    def test_combined_mean_matches_closed_form(self, runner, tmp_path):
        import math
        config = write_config(tmp_path, {
            "params": {"p": 0.4, "lambda": 15.0, "r1_m": 1000, "r2_m": 500},
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["degree", "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        moments = json.loads((out / "degree_moments.json").read_text())
        expected = 0.16 * 15 * math.pi + 15 * math.pi * 0.25
        assert abs(moments["mean_kc"] - expected) < 1e-8

    def test_empirical_validation_columns(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "params": {"p": 0.4, "lambda": 20.0, "r1_m": 800, "r2_m": 400},
            "validate": {"seeds": 2, "region": {"width": 4, "height": 4}},
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["degree", "--config", config,
                                      "--seed", "3", "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "degree_pmf.csv")
        emp_total = sum(float(r["emp_kc"]) for r in rows)
        assert emp_total == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("k_max", [2.5, -1, True, "40"])
    def test_k_max_must_be_nonnegative_integer(self, runner, tmp_path, k_max):
        config = write_config(tmp_path, {
            "params": {"p": 0.4, "lambda": 20.0, "r1_m": 800, "r2_m": 400}, "k_max": k_max})
        result = runner.invoke(main, ["degree", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "k_max" in result.output


class TestDegreeValidation:
    """The README ``degree`` example, validated on 20 graphs at --seed 1."""

    CONFIG = README_COMMANDS["degree"][0]
    SHA256 = ARTIFACT_SHA256["degree"]

    @pytest.mark.parametrize("cpus", [None, 1, 3], ids=["usable", "1-worker", "3-workers"])
    def test_bytes_are_pinned_for_any_worker_count(self, runner, tmp_path, monkeypatch, cpus):
        if cpus is not None:
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        # The pool's workers query the two layers in turn, with no helper.
        helpers = []
        monkeypatch.setattr(geometry, "_pairs_beside", lambda *layers: helpers.append(layers))
        config = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        result = runner.invoke(main, ["degree", "--config", config,
                                      "--seed", "1", "--out", str(out)])
        assert helpers == []
        assert result.exit_code == 0, result.output
        got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in self.SHA256}
        assert got == self.SHA256

    def test_worker_failure_is_runtime_error(self, runner, tmp_path):
        config = write_config(tmp_path, {
            **self.CONFIG, "validate": {"seeds": 4, "region": {"width": 0, "height": 10}}})
        result = runner.invoke(main, ["degree", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "cannot measure degrees of an empty graph" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("validate", [True, 1, "yes", [20]])
    def test_validate_must_be_an_object(self, runner, tmp_path, validate):
        config = write_config(tmp_path, {**self.CONFIG, "validate": validate})
        result = runner.invoke(main, ["degree", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "validate" in result.output

    @pytest.mark.parametrize("seeds", [0, -3, 2.5, True, "20"])
    def test_validate_seeds_must_be_positive_integer(self, runner, tmp_path, seeds):
        config = write_config(tmp_path, {
            **self.CONFIG, "validate": {"seeds": seeds, "region": {"width": 4, "height": 4}}})
        result = runner.invoke(main, ["degree", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "validate.seeds" in result.output


class TestMasterSeed:
    PARAMS = {"p": 0.4, "lambda": 15.0, "r1_m": 1000, "r2_m": 500}

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1"])
    def test_config_seed_must_be_nonnegative_integer(self, runner, tmp_path, seed):
        config = write_config(tmp_path, {"params": self.PARAMS, "seed": seed})
        result = runner.invoke(main, ["degree", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "seed" in result.output

    def test_negative_seed_flag_is_config_error(self, runner, tmp_path):
        config = write_config(tmp_path, {"params": self.PARAMS,
                                         "region": {"width": 2, "height": 2}})
        result = runner.invoke(main, ["simulate", "--config", config, "--seed", "-1",
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "seed" in result.output


class TestEquilibriumCommand:
    def test_fixed_point_table(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "mean_degrees": [3.14, 6.28, 12.57],
            "alpha": [0.3],
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["equilibrium", "--config", config,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "equilibrium.csv")
        assert len(rows) == 3
        for row in rows:
            assert float(row["theta_exact"]) >= float(row["theta_bound"]) - 1e-9

    def test_subcritical_rates_give_zero_table(self, runner, tmp_path):
        config = write_config(tmp_path, {"mean_degrees": [4.0], "alpha": [0.05]})
        out = tmp_path / "out"
        result = runner.invoke(main, ["equilibrium", "--config", config,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "equilibrium.csv")
        assert float(rows[0]["theta_exact"]) == 0.0

    def test_trajectory_plateaus_ordered_by_mean_degree(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "mode": "trajectory",
            "mean_degrees": [2.0, 4.0, 8.0],
            "alpha": 0.3,
            "horizon": 120.0,
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["equilibrium", "--config", config,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "trajectory.csv")
        last = rows[-1]
        plateaus = [float(v) for k, v in last.items() if k != "time"]
        assert plateaus == sorted(plateaus)


    def test_step_too_large_for_euler_is_runtime_error(self, runner, tmp_path):
        # The bench trajectory op at step 0.5: the first state outside
        # [0, 1] is at t = 1.5, and unchecked steps would overflow later.
        config = write_config(tmp_path, {**TRAJECTORY_RUN[0], "step": 0.5})
        result = runner.invoke(main, ["equilibrium", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 1
        assert "state left [0, 1] at t=1.500" in result.output
        assert not (tmp_path / "out").exists()


class TestSimulateCommand:
    CONFIG = {
        "params": {"p": 0.3, "lambda": 30.0, "r1_m": 600, "r2_m": 400},
        "region": {"width": 4, "height": 4},
        "sim": {"burn_in": 200, "measure_steps": 100, "replications": 3},
    }

    def test_identical_seeds_identical_bytes(self, runner, tmp_path):
        config = write_config(tmp_path, self.CONFIG)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            result = runner.invoke(main, ["simulate", "--config", config,
                                          "--seed", "7", "--out", str(out)])
            assert result.exit_code == 0, result.output
        assert (out_a / "simulate.csv").read_bytes() == (out_b / "simulate.csv").read_bytes()

    def test_jammed_network_reports_zero(self, runner, tmp_path):
        config = write_config(tmp_path, {
            **self.CONFIG,
            "threat": {"delta": 1.0},
            "sim": {**self.CONFIG["sim"], "quasi_stationary": False},
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", config,
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "simulate.csv")
        assert float(rows[0]["informed_fraction"]) == 0.0
        assert int(rows[0]["extinctions"]) == 3


class TestSimulateWorker:
    """Mode both runs the single-message oracle in a forked worker when two
    CPUs are usable; the bytes and the failures match the in-process path."""

    CONFIG = {**TestSimulateCommand.CONFIG, "mode": "both"}
    PINNED = {"simulate": (README_COMMANDS["simulate"], ARTIFACT_SHA256["simulate"]),
              **{run: (ORACLE_RUNS[run], ORACLE_SHA256[run]) for run in ORACLE_RUNS}}

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bytes_are_pinned_for_any_cpu_count(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        for name, ((config, seed), sha256) in self.PINNED.items():
            (tmp_path / name).mkdir()
            assert _digests(tmp_path / name, "simulate", config, seed) == sha256, name

    def invoke(self, runner, tmp_path, monkeypatch, **patches):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        for name, fn in patches.items():
            monkeypatch.setattr(cli, name, fn)
        out = tmp_path / "out"
        result = runner.invoke(main, ["simulate", "--config", write_config(tmp_path, self.CONFIG),
                                      "--out", str(out)])
        assert multiprocessing.active_children() == []
        assert not out.exists()
        return result

    def test_worker_exception_is_reraised(self, runner, tmp_path, monkeypatch):
        def boom(*args):
            raise ValueError("boom")

        result = self.invoke(runner, tmp_path, monkeypatch, simulate_single=boom)
        assert result.exit_code == 1
        assert "error: boom" in result.output

    def test_worker_that_dies_is_runtime_error(self, tmp_path):
        # A subprocess, so that a hang fails on the timeout.
        script = (
            "import multiprocessing, os, sys\n"
            "from d2dnet import cli\n"
            "cli._usable_cpus = lambda: 2\n"
            "cli.simulate_single = lambda *args: os._exit(3)\n"
            "try:\n"
            "    cli.main.main(args=sys.argv[1:], standalone_mode=False)\n"
            "except SystemExit as exc:\n"
            "    print(multiprocessing.active_children())\n"
            "    sys.exit(exc.code)\n")
        out = tmp_path / "out"
        done = subprocess.run([sys.executable, "-c", script, "simulate", "--config",
                               write_config(tmp_path, self.CONFIG), "--out", str(out)],
                              env=src_env(), capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert "worker exited with code 3 before returning a result" in done.stderr
        assert done.stdout.strip() == "[]"
        assert not out.exists()

    @pytest.mark.parametrize("error", [ValueError("boom"), KeyboardInterrupt()],
                             ids=["ValueError", "KeyboardInterrupt"])
    def test_parent_failure_kills_the_worker(self, runner, tmp_path, monkeypatch, error):
        def fail(*args):
            raise error

        start = time.perf_counter()
        result = self.invoke(runner, tmp_path, monkeypatch,
                             simulate_single=lambda *args: time.sleep(60),
                             simulate_dual=fail)
        assert time.perf_counter() - start < 30   # killed, not waited for
        assert result.exit_code == 1


class TestDesignCommand:
    def test_intelligence_mission_solution(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "mission": {"t1": 0.6, "t2": 0.6, "tc": 0.8},
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["design", "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        solution = json.loads((out / "design_solution.json").read_text())
        assert solution["status"] == "optimal"
        assert solution["r1_m"] >= solution["r2_m"]
        assert solution["cost"] > 0
        assert solution["active_set"]

    def test_sweep_keeps_going_past_infeasible_points(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "mission": {"t1": 0.8, "t2": 0.8, "tc": 0.6},
            "sweep": {"variable": "delta", "grid": [0.0, 0.5, 0.9]},
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["design", "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "sweep.csv")
        assert [r["status"] for r in rows] == ["optimal", "optimal", "infeasible"]
        assert rows[2]["cost"] == ""

    def test_non_finite_eta_is_config_error(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "mission": {"t1": 0.6, "t2": 0.6, "tc": 0.8, "eta": float("nan")},
        })
        result = runner.invoke(main, ["design", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "eta" in result.output

    def test_non_finite_bounds_are_config_error(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "mission": {"t1": 0.6, "t2": 0.6, "tc": 0.8,
                        "bounds": {"p_min": float("nan"), "lambda_max": float("inf")}},
        })
        result = runner.invoke(main, ["design", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "bounds" in result.output

    def test_unknown_sweep_variable(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "mission": {"t1": 0.5, "t2": 0.5, "tc": 0.5},
            "sweep": {"variable": "r1", "grid": [0.1]},
        })
        result = runner.invoke(main, ["design", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2


class TestOutputWrites:
    """A command writes only once its computation has finished, and the
    manifest last: a failed run leaves --out as it was."""

    DESIGN = {"mission": {"t1": 0.5, "t2": 0.5, "tc": 0.7}}
    SWEEP = {"mission": {"t1": 0.6, "t2": 0.6, "tc": 0.8},
             "sweep": {"variable": "delta", "grid": [0.0]}}

    @staticmethod
    def design(runner, tmp_path, config, out):
        return runner.invoke(main, ["design", "--config", write_config(tmp_path, config),
                                    "--out", str(out)])

    @staticmethod
    def fail_sweep(monkeypatch):
        def boom(*args):
            raise RuntimeError("sweep failed")

        monkeypatch.setattr(cli, "sweep", boom)

    @staticmethod
    def contents(out):
        return {path.name: path.read_bytes() for path in out.iterdir()}

    def test_failed_run_creates_no_out(self, runner, tmp_path, monkeypatch):
        self.fail_sweep(monkeypatch)
        out = tmp_path / "out"
        result = self.design(runner, tmp_path, self.SWEEP, out)
        assert result.exit_code == 1
        assert "error: sweep failed" in result.output
        assert not out.exists()

    def test_failed_run_leaves_a_previous_run_as_it_was(self, runner, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert self.design(runner, tmp_path, self.DESIGN, out).exit_code == 0
        before = self.contents(out)
        assert "manifest.json" in before
        self.fail_sweep(monkeypatch)
        assert self.design(runner, tmp_path, self.SWEEP, out).exit_code == 1
        assert self.contents(out) == before

    def test_failed_write_leaves_no_manifest(self, runner, tmp_path):
        out = tmp_path / "out"
        assert self.design(runner, tmp_path, self.DESIGN, out).exit_code == 0
        (out / "sweep.csv").mkdir()
        result = self.design(runner, tmp_path, self.SWEEP, out)
        assert result.exit_code == 1
        assert "sweep.csv" in result.output
        assert not (out / "manifest.json").exists()


class TestReconfigCommand:
    def test_loss_scenario_trace(self, runner, tmp_path):
        config = write_config(tmp_path, {
            "mission": {"t1": 0.6, "t2": 0.6, "tc": 0.8},
            "region": {"width": 40, "height": 40},
            "scenario": [{"time": 50, "kind": "device_loss",
                          "loss_fraction_type1": 0.5, "loss_fraction_type2": 0.5}],
        })
        out = tmp_path / "out"
        result = runner.invoke(main, ["reconfig", "--config", config,
                                      "--seed", "1", "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = read_csv(out / "reconfig_trace.csv")
        assert len(rows) == 4
        recomputed = [r for r in rows if r["recomputed"] == "true"]
        assert len(recomputed) == 1
        assert recomputed[0]["time"] == "50"
        costs = [float(r["cumulative_cost"]) for r in rows]
        assert costs == sorted(costs)

    @pytest.mark.parametrize("time", [1.5, float("inf"), "x"])
    def test_non_integer_event_time_is_config_error(self, runner, tmp_path, time):
        config = write_config(tmp_path, {
            "mission": {"t1": 0.6, "t2": 0.6, "tc": 0.8},
            "scenario": [{"time": time, "kind": "device_loss"}],
        })
        result = runner.invoke(main, ["reconfig", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert "event time" in result.output

    @pytest.mark.parametrize("key, value, others", [
        ("t_r", 1.5, {}), ("horizon", math.inf, {}), ("epsilon", math.nan, {}),
        ("horizon", -5, {}), ("scenario", [{"time": 500, "kind": "device_loss"}], {}),
        # Checks at 60, 120 and 180: the event at 190 would never be applied.
        ("scenario", [{"time": 190, "kind": "device_loss", "loss_fraction_type1": 0.9}],
         {"t_r": 60, "horizon": 200}),
    ], ids=["t_r-1.5", "horizon-inf", "epsilon-nan", "horizon--5", "scenario-value4",
            "scenario-after-last-check"])
    def test_invalid_loop_setting_is_config_error(self, runner, tmp_path, key, value, others):
        config = write_config(tmp_path, {
            "mission": {"t1": 0.6, "t2": 0.6, "tc": 0.8}, key: value, **others,
        })
        result = runner.invoke(main, ["reconfig", "--config", config,
                                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2
        assert key in result.output


PARAMS = {"p": 0.4, "lambda": 15.0, "r1_m": 1000, "r2_m": 500}
MISSION = {"t1": 0.6, "t2": 0.6, "tc": 0.8}
SIM = {"params": PARAMS, "region": {"width": 2, "height": 2},
       "sim": {"burn_in": 10, "measure_steps": 10, "replications": 2}}
RECONFIG = {"mission": MISSION, "region": {"width": 10, "height": 10}}


class TestStrictConfig:
    """Config mistakes exit 2, before any work, naming the key path."""

    @pytest.mark.parametrize("command, config, path", [
        ("design", {"mission": {**MISSION, "bounds": {"pmax": 0.9}}}, "mission.bounds.pmax"),
        ("design", {"mission": {**MISSION, "weight1": 200}}, "mission.weight1"),
        ("simulate", {**SIM, "sim": {**SIM["sim"], "replicatons": 3}}, "sim.replicatons"),
        ("simulate", {**SIM, "sim": {**SIM["sim"], "burn_in": 20.7}}, "sim.burn_in"),
        ("simulate", {**SIM, "region": {"width": 2, "height": 2, "wrap": "false"}}, "region.wrap"),
        ("degree", {"params": {**PARAMS, "p": "0.4"}}, "params.p"),
        ("reconfig", {**RECONFIG, "scenario": [{"time": 50, "kind": "device_loss",
                                                "loss_fraction_type1": "0.5"}]},
         "scenario[0].loss_fraction_type1"),
        ("reconfig", {**RECONFIG, "sim": {"replications": 3}}, "sim"),
        ("degree", {"params": PARAMS, "validate": {"seeds": 2, "region": True}}, "validate.region"),
        ("simulate", {**SIM, "region": [1, 2]}, "region"),
        ("simulate", {**SIM, "threat": "high"}, "threat"),
        ("equilibrium", {"mean_degrees": 4.0}, "mean_degrees"),
        ("design", {"mission": MISSION, "sweep": {"variable": "delta", "grid": 0.3}}, "sweep.grid"),
        ("reconfig", {**RECONFIG, "scenario": {"time": 50, "kind": "device_loss"}}, "scenario"),
        ("reconfig", {**RECONFIG, "scenario": [{"time": 50, "kind": "threat_change",
                                                "new_delta": "0.5"}]},
         "scenario[0].new_delta"),
        ("simulate", {**SIM, "sim": {**SIM["sim"], "time_step": None}}, "sim.time_step"),
        ("equilibrium", {"params": PARAMS, "mean_degrees": [4.0]}, "mean_degrees"),
        ("equilibrium", {"mean_degrees": [4.0], "dual": True}, "dual"),
        ("equilibrium", {"mean_degrees": [4.0], "mode": "trajectory", "alpha": [0.3, 0.4]},
         "alpha"),
        # Range rules of the functions a command calls, checked before any work.
        ("equilibrium", {"mean_degrees": []}, "mean_degrees"),
        ("equilibrium", {"mean_degrees": [], "mode": "trajectory"}, "mean_degrees"),
        ("equilibrium", {"mean_degrees": [4.0], "alpha": []}, "alpha"),
        ("design", {"mission": MISSION, "sweep": {"variable": "delta", "grid": []}}, "sweep.grid"),
        ("equilibrium", {"mean_degrees": [4.0], "alpha": [0.3, 1.5]}, "alpha[1]"),
        ("equilibrium", {"mean_degrees": [4.0, -4.0]}, "mean_degrees[1]"),
        ("equilibrium", {"mean_degrees": [4.0], "mode": "trajectory", "step": 0}, "step"),
        ("equilibrium", {"mean_degrees": [4.0], "mode": "trajectory", "horizon": -3}, "horizon"),
        ("equilibrium", {"mean_degrees": [4.0], "mode": "trajectory", "initial_fraction": 1.5},
         "initial_fraction"),
        ("equilibrium", {"mean_degrees": [4.0], "mode": "trajectory", "initial_fraction": -0.1},
         "initial_fraction"),
        ("design", {"mission": MISSION, "sweep": {"variable": "delta", "grid": [0.2, 1.5]}},
         "sweep.grid[1]"),
        ("design", {"mission": MISSION, "sweep": {"variable": "tc", "grid": [1.0]}},
         "sweep.grid[0]"),
    ], ids=["unknown-bounds-key", "unknown-mission-key", "unknown-sim-key", "fractional-burn_in",
            "string-wrap", "string-p", "string-loss-fraction", "sim-in-reconfig",
            "validate-region-not-object", "region-list", "threat-string", "mean_degrees-number",
            "grid-number", "scenario-object", "string-new_delta", "null-time_step",
            "params-and-mean_degrees", "dual-without-params", "trajectory-two-alphas",
            "empty-mean_degrees", "empty-mean_degrees-trajectory", "empty-alpha", "empty-grid",
            "alpha-above-1", "negative-mean-degree", "zero-step", "negative-horizon",
            "initial_fraction-above-1", "negative-initial_fraction",
            "delta-grid-out-of-range", "tc-grid-out-of-range"])
    def test_rejected_with_key_path(self, runner, tmp_path, command, config, path):
        out = tmp_path / "out"
        result = runner.invoke(main, [command, "--config", write_config(tmp_path, config),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert path in result.output
        assert not out.exists()

    def test_single_alpha_trajectory_with_dual_runs(self, runner, tmp_path):
        # The benchmark's trajectory op: params, one alpha in a list, dual.
        config = write_config(tmp_path, {
            "params": PARAMS, "mode": "trajectory", "alpha": [0.3], "horizon": 5.0,
            "step": 0.01, "initial_fraction": 0.01, "dual": True})
        out = tmp_path / "out"
        result = runner.invoke(main, ["equilibrium", "--config", config, "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "trajectory.csv").exists() and (out / "dual_equilibrium.json").exists()


# Keys some command requires (equilibrium's mean_degrees stands in for params).
REQUIRED_KEYS = {"params", "p", "lambda", "r1_m", "r2_m", "mean_degrees", "mission",
                 "t1", "t2", "tc", "variable", "grid", "time", "kind"}


def locations(value, loc=()):
    """(location, value) of value and of everything nested in it."""
    yield loc, value
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for part, child in items:
        yield from locations(child, loc + (part,))


def key_path(loc):
    path = ""
    for part in loc:
        path += f"[{part}]" if isinstance(part, int) else (f".{part}" if path else part)
    return path


def wrong_types(value):
    """JSON values of another type than value (number or string)."""
    other = "0.5" if isinstance(value, (int, float)) else 0
    return [other, True, None, [value], {"v": value}]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_readme_config_is_rejected_before_any_work(data):
    command = data.draw(st.sampled_from(list(README_COMMANDS)))
    base, seed = README_COMMANDS[command]
    config = copy.deepcopy(base)
    places = list(locations(config))
    mutation = data.draw(st.sampled_from(["unknown key", "wrong type", "dropped key"]))
    if mutation == "unknown key":
        loc, obj = data.draw(st.sampled_from([p for p in places if isinstance(p[1], dict)]))
        key = "unknown_" + data.draw(st.from_regex(r"[a-z0-9_]{1,8}", fullmatch=True))
        obj[key] = data.draw(st.sampled_from([0, "x", None, [], {}]))
        loc += (key,)
    else:
        if mutation == "wrong type":
            targets = [p for p in places if not isinstance(p[1], (dict, list))]
        else:
            targets = [p for p in places if p[0] and p[0][-1] in REQUIRED_KEYS]
        loc, value = data.draw(st.sampled_from(targets))
        parent = config
        for part in loc[:-1]:
            parent = parent[part]
        if mutation == "wrong type":
            parent[loc[-1]] = data.draw(st.sampled_from(wrong_types(value)))
        else:
            del parent[loc[-1]]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "out"
        path.write_text(json.dumps(config))
        args = [command, "--config", str(path), "--out", str(out)]
        if seed is not None:
            args += ["--seed", str(seed)]
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2, (mutation, config, result.output)
        assert key_path(loc) in result.output, (mutation, result.output)
        assert not out.exists() or not any(out.iterdir())
