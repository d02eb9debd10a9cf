"""Command-line surface: configs, artifacts, exit codes, reproducibility."""
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from d2dnet import cli
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


def test_import_leaves_out_scipy_stats_and_optimize():
    # Start-up cost: nothing uses scipy.stats, and scipy.optimize loads
    # on the first Theta solve.
    script = ("import sys, d2dnet.cli\n"
              "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.strip() == "[]"


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


class TestDegreeValidation:
    """The README ``degree`` example, validated on 20 graphs at --seed 1."""

    CONFIG = {
        "params": {"p": 0.4, "lambda": 50.0, "r1_m": 1000, "r2_m": 500},
        "validate": {"seeds": 20, "region": {"width": 10, "height": 10}},
    }
    # sha256 of the artifacts as first recorded; any change to sampling,
    # the pair query or the histogram sums moves them.  Update on purpose only.
    SHA256 = {
        "degree_moments.json": "e84d7cc55718f45e9680c53aecd27968dd0d0dd2d41fdb9af005b24643cdd5da",
        "degree_pmf.csv": "53f9c9b3b98aca63c53b0a81f494a4707bb723a381a98144f12bddf8bbf9a97d",
        "manifest.json": "4e58b57f6e6a88e9715c0a3fc006d8e7613fee9bdc182847de88d297d7772a41",
    }

    @pytest.mark.parametrize("cpus", [None, 1, 3], ids=["usable", "1-worker", "3-workers"])
    def test_bytes_are_pinned_for_any_worker_count(self, runner, tmp_path, monkeypatch, cpus):
        if cpus is not None:
            monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
        config = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "out"
        result = runner.invoke(main, ["degree", "--config", config,
                                      "--seed", "1", "--out", str(out)])
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
