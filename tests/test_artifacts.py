"""Byte pins of every artifact the five README CLI examples write.

Each command runs in-process on its README config and seed; the test
compares the sha256 of every file in the output directory, manifest.json
included, against the digests recorded below.  Two more ``simulate``
runs pin the Monte Carlo oracle beyond the README example: the bench's
``oracle`` large-graph op (R = 4, uint16 lanes) and a plane-region run
with R = 2 (uint32 lanes) and a time series, and one ``equilibrium``
run pins the mean-field transient: the bench's ``oracle`` trajectory
op.  Any change to sampling, the simulator, the solvers, the designer or
the output formatting moves them.  Re-record a pin only on purpose, and
say which one and why.

The mean field sums in a fixed order with no BLAS call, so the pins hold
on every OpenBLAS kernel: a child process re-runs the pinned set under
each of two kernels, with another thread count, working directory and
locale, and must reproduce every digest.
"""
import ctypes
import hashlib
import json
import os
import re
import subprocess
import sys
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
        "degree_moments.json": "6fb2961c9a103a069d1ea2949c6e323415158dc8111c55274eb1bbebf957abea",
        "degree_pmf.csv": "0bef9ec07e1122aca35d9a43caa5c553246efa744dbccf8645d58da346372180",
        "manifest.json": "4e58b57f6e6a88e9715c0a3fc006d8e7613fee9bdc182847de88d297d7772a41",
    },
    "equilibrium": {
        "equilibrium.csv": "27cba45036af60478ac439c5d852b3e199a23b97957a6d96424bf514b2595b63",
        "manifest.json": "502b5440e4c0d440550c2baf4d86937c5a790562c56aaea8389375cbfbf3089a",
    },
    "simulate": {
        "manifest.json": "ce515748ced2056d8856c14c8ed674e6e661879f6db4c272f7dbf5e7a9608021",
        "simulate.csv": "8c803daad05faf861ad927752581d6fd783f2ed149ed028eed536b1c8d6d677e",
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
        "simulate.csv": "2adf5b7f83a9c4757102e87e0a4ad1514452340d2f27a15ea50f56245c806097",
    },
    "simulate_plane": {
        "manifest.json": "d8d576d76378ddba2a5be8775b0ea3d11f0335f4127909732ea18dc1c8ddbc14",
        "simulate.csv": "42f1e626c7a2f5626352f4ba2bcbdbd88b0f8996927416aa157c9665fd3136a5",
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
    "dual_equilibrium.json": "b39dcfcf6787ec6d883fb61382d3eaceb0ccba261b311b23680cc5ab989271c0",
    "manifest.json": "ae4685bdbb5fe1afafbdfafd02502e698be2a65ceebee8733e24c862670ea8a2",
    "trajectory.csv": "dac6a4ea54b28c287dc1dff9627b5a19e915f29a61dd0cdb6803cc6363743bc6",
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


# Every pinned run: command, config, seed and its digests.
PINNED_RUNS = {
    **{command: (command, *README_COMMANDS[command], SHA256[command]) for command in README_COMMANDS},
    **{run: ("simulate", *ORACLE_RUNS[run], ORACLE_SHA256[run]) for run in ORACLE_RUNS},
    "trajectory": ("equilibrium", *TRAJECTORY_RUN, TRAJECTORY_SHA256),
}

# Two OpenBLAS kernels, selected by OPENBLAS_CORETYPE in a DYNAMIC_ARCH
# build.  They differ from each other, so at least one differs from the
# kernel this machine picks by itself.
KERNELS = ("Haswell", "Prescott")


def blas_kernels() -> dict[str, tuple[str, str]]:
    """Core name and build config of each OpenBLAS mapped into this process.

    Empty where the libraries cannot be listed (no /proc/self/maps) or
    none of them is OpenBLAS.
    """
    maps = Path("/proc/self/maps")
    if not maps.exists():
        return {}
    paths = {line.split()[-1] for line in maps.read_text().splitlines()
             if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    found = {}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for pattern in ("scipy_openblas_get_{}64_", "scipy_openblas_get_{}", "openblas_get_{}"):
            corename = getattr(lib, pattern.format("corename"), None)
            config = getattr(lib, pattern.format("config"), None)
            if corename is not None and config is not None:
                corename.argtypes = config.argtypes = []
                corename.restype = config.restype = ctypes.c_char_p
                found[path] = (corename().decode(), config().decode())
                break
    return found


def child_main():
    """Run every pinned run in the working directory; print the digests and
    the BLAS kernels as JSON."""
    digests = {}
    for name, (command, config, seed, _) in PINNED_RUNS.items():
        Path(name).mkdir()
        digests[name] = _digests(Path(name), command, config, seed)
    print(json.dumps({"kernels": blas_kernels(), "digests": digests}))


@pytest.fixture(scope="module")
def kernel_runs(tmp_path_factory):
    """child_main's report under each of KERNELS, or its stderr if it failed.

    The children run side by side, each with two BLAS threads, its own
    working directory and a locale other than this process's.
    """
    root = Path(__file__).resolve().parent
    path = os.pathsep.join(filter(None, [str(root.parent / "src"), str(root),
                                         os.environ.get("PYTHONPATH")]))
    locale = "C" if os.environ.get("LC_ALL") != "C" else "C.UTF-8"
    children = {}
    for kernel in KERNELS:
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_CORETYPE=kernel,
                   OPENBLAS_NUM_THREADS="2", LC_ALL=locale)
        children[kernel] = subprocess.Popen(
            [sys.executable, "-c", "import test_artifacts; test_artifacts.child_main()"],
            cwd=tmp_path_factory.mktemp(kernel), env=env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    reports = {}
    try:
        for kernel, child in children.items():
            out, err = child.communicate(timeout=300)
            reports[kernel] = json.loads(out) if child.returncode == 0 else err
    finally:
        for child in children.values():
            if child.poll() is None:
                child.kill()
                child.wait()
    return reports


@pytest.mark.parametrize("kernel", KERNELS)
def test_pins_hold_on_other_blas_kernels(kernel_runs, kernel):
    report = kernel_runs[kernel]
    assert isinstance(report, dict), report
    kernels = report["kernels"]
    if not kernels or not all("DYNAMIC_ARCH" in config for _, config in kernels.values()):
        pytest.skip(f"could not vary the BLAS kernel: OpenBLAS found {kernels or 'none'}")
    # OpenBLAS reports a kernel by its own table's name (Prescott as
    # Katmai), so the check is that the two children ran different ones.
    cores = {core for core, _ in kernels.values()}
    assert len(cores) == 1, kernels
    for other in KERNELS:
        if other != kernel and isinstance(kernel_runs[other], dict):
            assert cores.isdisjoint(core for core, _ in kernel_runs[other]["kernels"].values())
    assert report["digests"] == {name: run[-1] for name, run in PINNED_RUNS.items()}, cores
