"""Tests of the benchmark's output checks and of CLI determinism.

Run with ``PYTHONPATH=src python -m pytest bench``. Each check passes on
the README examples and rejects a known-bad output; every workload's
seeded command writes byte-identical artifacts when re-run.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import shutil
from pathlib import Path

import pytest

import checks
import workloads
from harness import GraphObserver, run_op

README = {
    "degree": workloads.Op("readme_degree", "degree", {
        "params": {"p": 0.4, "lambda": 50.0, "r1_m": 1000, "r2_m": 500},
        "validate": {"seeds": 20, "region": {"width": 10, "height": 10}},
    }, seed=1),
    "equilibrium": workloads.Op("readme_eq", "equilibrium", workloads.EQUILIBRIUM_TABLE),
    "simulate": workloads.Op("readme_sim", "simulate", workloads.SIM_SMALL, seed=7),
    "design": workloads.Op("readme_design", "design", workloads.DESIGNS[0].config),
    "reconfig": workloads.Op("readme_mission", "reconfig", {
        "mission": workloads.README_MISSION,
        "region": {"width": 40, "height": 40},
        "t_r": 50, "epsilon": 0.05, "horizon": 200,
        "scenario": workloads.README_LOSS,
    }, seed=1),
}


@pytest.fixture(scope="module")
def readme_runs(tmp_path_factory):
    """Run each README example once: {command: (op, out dir, graph facts)}."""
    root = tmp_path_factory.mktemp("readme")
    runs = {}
    with GraphObserver() as observer:
        for command, op in README.items():
            code, _, graph = run_op(op, root / op.name, observer)
            assert code == 0, command
            runs[command] = (op, root / op.name, graph)
    return runs


def problems(op, out, graph=None):
    return [p for a in checks.Checker().check(op, out, graph) for p in a.problems]


@pytest.mark.parametrize("command", list(README))
def test_readme_example_passes(readme_runs, command):
    op, out, graph = readme_runs[command]
    assert problems(op, out, graph) == []


def copy_of(readme_runs, command, tmp_path):
    op, out, graph = readme_runs[command]
    bad = tmp_path / out.name
    shutil.copytree(out, bad)
    return op, bad, graph


def rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    header = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_degree_check_rejects_histogram_shifted_by_one(readme_runs, tmp_path):
    op, bad, _ = copy_of(readme_runs, "degree", tmp_path)

    def shift(rows):
        values = [r["emp_k2"] for r in rows]
        for r, v in zip(rows, ["0.0"] + values[:-1]):
            r["emp_k2"] = v

    rewrite_csv(bad / "degree_pmf.csv", shift)
    found = problems(op, bad)
    assert any("emp_k2: total variation" in p for p in found), found


def test_simulate_check_rejects_fraction_above_one(readme_runs, tmp_path):
    op, bad, graph = copy_of(readme_runs, "simulate", tmp_path)

    def raise_fraction(rows):
        row = next(r for r in rows if r["quantity"] == "message2")
        row["informed_fraction"] = "1.2"

    rewrite_csv(bad / "simulate.csv", raise_fraction)
    found = problems(op, bad, graph)
    assert any("outside [0, 1]" in p for p in found), found


def test_design_check_rejects_near_cap_corner(tmp_path):
    # What optimize() answered for this mission with multi-threaded
    # OpenBLAS: the box corner, reported optimal at 4.6x the grid optimum.
    op = workloads.Op("near_cap", "design",
                      {"mission": {"t1": 0.91, "t2": 0.91, "tc": 0.8, "delta": 0.0}})
    (tmp_path / "design_solution.json").write_text(json.dumps({
        "status": "optimal", "p": 0.4, "lambda": 15.0, "r1_m": 2000.0, "r2_m": 800.0,
        "cost": 11264.400000000001,
    }))
    found = problems(op, tmp_path)
    assert any("x the grid minimum" in p for p in found), found


def test_design_check_rejects_wrong_infeasible(readme_runs, tmp_path):
    op, bad, _ = copy_of(readme_runs, "design", tmp_path)
    (bad / "design_solution.json").write_text(json.dumps({"status": "infeasible"}))
    assert any("box corner meets every requirement" in p for p in problems(op, bad))


def test_equilibrium_check_rejects_perturbed_theta(readme_runs, tmp_path):
    op, bad, _ = copy_of(readme_runs, "equilibrium", tmp_path)

    def perturb(rows):
        rows[-1]["theta_exact"] = repr(float(rows[-1]["theta_exact"]) + 1e-6)

    rewrite_csv(bad / "equilibrium.csv", perturb)
    assert any("fixed-point residual" in p for p in problems(op, bad))


def test_reconfig_check_rejects_falling_cost(readme_runs, tmp_path):
    op, bad, _ = copy_of(readme_runs, "reconfig", tmp_path)

    def lower_last_cost(rows):
        rows[-1]["cumulative_cost"] = repr(float(rows[-1]["cumulative_cost"]) - 1.0)

    rewrite_csv(bad / "reconfig_trace.csv", lower_last_cost)
    assert any("cumulative cost decreases" in p for p in problems(op, bad))


def small(op, **config):
    """The op with parts of its config replaced, to keep the test short."""
    return dataclasses.replace(op, config={**op.config, **config})


DETERMINISM_OPS = {
    "deploy": small(workloads.deploy_round(0, 0)[0],
                    validate={"seeds": 2, "region": {"width": 4, "height": 4}}),
    "oracle": small(workloads.oracle_round(0, 0)[1],
                    sim={"replications": 2, "burn_in": 20, "measure_steps": 20,
                         "timeseries": True}),
    "mission": workloads.mission_round(0, 0)[-1],
}


@pytest.mark.parametrize("workload", list(DETERMINISM_OPS))
def test_seeded_command_is_byte_identical_on_rerun(workload, tmp_path):
    op = DETERMINISM_OPS[workload]
    with GraphObserver() as observer:
        for run in ("first", "second"):
            code, _, _ = run_op(op, tmp_path / run / "out", observer)
            assert code == 0
    first = sorted(p.name for p in (tmp_path / "first" / "out").iterdir())
    assert "manifest.json" in first and len(first) >= 2
    assert first == sorted(p.name for p in (tmp_path / "second" / "out").iterdir())
    for name in first:
        assert ((tmp_path / "first" / "out" / name).read_bytes()
                == (tmp_path / "second" / "out" / name).read_bytes()), name
