"""Byte pins of every artifact the five README CLI examples write.

Each command runs in-process on its README config and seed; the test
compares the sha256 of every file in the output directory, manifest.json
included, against the digests recorded below.  Two more ``simulate``
runs pin the Monte Carlo oracle beyond the README example: the bench's
``oracle`` large-graph op (R = 4, uint16 lanes) and a plane-region run
with R = 2 (uint32 lanes) and a time series, and one ``equilibrium``
run pins the mean-field transient: the bench's ``oracle`` trajectory
op, whose Euler steps and Theta dots go through BLAS.  Any change to sampling,
the simulator, the solvers, the designer or the output formatting moves
them.  Re-record a pin only on purpose, and say which one and why.
"""
import hashlib
import json
import re
from pathlib import Path

import pytest
from click.testing import CliRunner

from d2dnet.cli import main

README_COMMANDS = {
    "degree": ({
        "params": {"p": 0.4, "lambda": 50.0, "r1_m": 1000, "r2_m": 500},
        "validate": {"seeds": 20, "region": {"width": 10, "height": 10}},
    }, 1),
    "equilibrium": ({
        "mean_degrees": [3.14, 6.28, 12.57],
        "alpha": [0.1, 0.2, 0.3, 0.4, 0.5],
    }, None),
    "simulate": ({
        "params": {"p": 0.4, "lambda": 15.0, "r1_m": 1000, "r2_m": 500},
        "region": {"width": 6, "height": 6},
        "mode": "both",
        "sim": {"replications": 10},
    }, 7),
    "design": ({
        "mission": {"t1": 0.6, "t2": 0.6, "tc": 0.8, "delta": 0.0},
        "sweep": {"variable": "delta", "grid": [0.0, 0.2, 0.4, 0.6, 0.8]},
    }, None),
    "reconfig": ({
        "mission": {"t1": 0.6, "t2": 0.6, "tc": 0.8},
        "region": {"width": 40, "height": 40},
        "t_r": 50, "epsilon": 0.05, "horizon": 200,
        "scenario": [{"time": 50, "kind": "device_loss",
                      "loss_fraction_type1": 0.5, "loss_fraction_type2": 0.5}],
    }, 1),
}

SHA256 = {
    "degree": {
        "degree_moments.json": "e84d7cc55718f45e9680c53aecd27968dd0d0dd2d41fdb9af005b24643cdd5da",
        "degree_pmf.csv": "53f9c9b3b98aca63c53b0a81f494a4707bb723a381a98144f12bddf8bbf9a97d",
        "manifest.json": "4e58b57f6e6a88e9715c0a3fc006d8e7613fee9bdc182847de88d297d7772a41",
    },
    "equilibrium": {
        "equilibrium.csv": "6e22a0a40b0504ad640727dc5092bc62dc5f2cf21732008723c62b7effda113d",
        "manifest.json": "502b5440e4c0d440550c2baf4d86937c5a790562c56aaea8389375cbfbf3089a",
    },
    "simulate": {
        "manifest.json": "ce515748ced2056d8856c14c8ed674e6e661879f6db4c272f7dbf5e7a9608021",
        "simulate.csv": "78d3fef47ab7a4c523737305affbc6453a3e6629a6ecd56f609a31d0160feb91",
    },
    "design": {
        "design_solution.json": "0666225d7fa47b5ab72c3f0288fbc74b557b1b893f79534b932732826d2701e1",
        "manifest.json": "9b7bbeb316116ba49b75c076dc701665b609e805d89b8a1278c2819d223bee0b",
        "sweep.csv": "d4173df1485946081295ec3972b9a2a024e5f105ac928150d82b661390faf1ab",
    },
    "reconfig": {
        "manifest.json": "46abd5c4596d2ab01f8d62f6ced8cf9bc4ca6518ac8e5614fa0d1ed8a3e2bef6",
        "reconfig_trace.csv": "38cea4a77b2e86dd1d131842b0f0a661b01db708524af941b2911096f2059250",
    },
}

README_PARAMS = README_COMMANDS["simulate"][0]["params"]
# simulate configs and seeds beyond the README example.
ORACLE_RUNS = {
    # bench/workloads.py SIM_LARGE, the oracle workload's large graph.
    "simulate_large": ({
        "params": README_PARAMS,
        "threat": {"delta": 0.5},
        "region": {"width": 14, "height": 14},
        "mode": "both",
        "sim": {"replications": 4, "burn_in": 300, "measure_steps": 300},
    }, 11),
    "simulate_plane": ({
        "params": README_PARAMS,
        "region": {"width": 5, "height": 4, "wrap": False},
        "mode": "both",
        "sim": {"replications": 2, "burn_in": 40, "measure_steps": 60, "timeseries": True},
    }, 3),
}

ORACLE_SHA256 = {
    "simulate_large": {
        "manifest.json": "fdfe40a602d8557e091b751d9b079cc38172764e9bd761ecddf2eb0d57cafefd",
        "simulate.csv": "c683409d4eb05074bcf7d4ffa431b7944eefef80d3c82f7f0cfc818f16363d91",
    },
    "simulate_plane": {
        "manifest.json": "d8d576d76378ddba2a5be8775b0ea3d11f0335f4127909732ea18dc1c8ddbc14",
        "simulate.csv": "77947fcfa38e466dff37bcc48f752e000a4cf6bc5ef911fb3d9385a478dcb828",
        "timeseries.csv": "2577f446ed6a3e30dfa8b2beb72717ed3f0d7f7078993f72cf2460b9a17d1a9c",
    },
}


# bench/workloads.py TRAJECTORY, the oracle workload's trajectory op.
TRAJECTORY_RUN = ({
    "params": README_PARAMS,
    "mode": "trajectory",
    "alpha": [0.3],
    "horizon": 50.0,
    "step": 0.01,
    "initial_fraction": 0.01,
    "dual": True,
}, None)

TRAJECTORY_SHA256 = {
    "dual_equilibrium.json": "53727c154907f692c877aa511933adc3f24464c94b18d33ead0419f479837d5b",
    "manifest.json": "ae4685bdbb5fe1afafbdfafd02502e698be2a65ceebee8733e24c862670ea8a2",
    "trajectory.csv": "086bc2d0610b0d2b4c4484d017ce1a1cf1ca4615dc714f91c0de87ee6a2c1dc3",
}


def _digests(tmp_path, command, config, seed):
    """sha256 of every file ``command`` writes for ``config`` and ``seed``."""
    out = tmp_path / "out"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    args = [command, "--config", str(path), "--out", str(out)]
    if seed is not None:
        args += ["--seed", str(seed)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.iterdir())}


@pytest.mark.parametrize("command", list(README_COMMANDS))
def test_readme_command_artifacts_are_pinned(tmp_path, command):
    assert _digests(tmp_path, command, *README_COMMANDS[command]) == SHA256[command]


@pytest.mark.parametrize("run", list(ORACLE_RUNS))
def test_oracle_artifacts_are_pinned(tmp_path, run):
    assert _digests(tmp_path, "simulate", *ORACLE_RUNS[run]) == ORACLE_SHA256[run]


def test_trajectory_artifacts_are_pinned(tmp_path):
    assert _digests(tmp_path, "equilibrium", *TRAJECTORY_RUN) == TRAJECTORY_SHA256


def test_readme_cli_examples_are_the_pinned_ones():
    """The README's CLI heredocs and --seed values are README_COMMANDS."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = re.findall(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n"
                          r"d2dnet (\w+) --config \1(?: --seed (\d+))? --out ", section, re.S)
    documented = {command: (json.loads(config), int(seed) if seed else None)
                  for _, config, command, seed in examples}
    assert documented == README_COMMANDS
