"""The benchmark's three workloads, as rounds of d2dnet CLI commands.

A round is a fixed list of operations. Configs are generated here; the
only input that changes with the workload seed is each command's
``--seed``, so every round has the same make-up and the same answers
to check.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("deploy", "oracle", "mission")

README_PARAMS = {"p": 0.4, "lambda": 15.0, "r1_m": 1000, "r2_m": 500}
README_MISSION = {"t1": 0.6, "t2": 0.6, "tc": 0.8, "delta": 0.0}
README_LOSS = [{"time": 50, "kind": "device_loss",
                "loss_fraction_type1": 0.5, "loss_fraction_type2": 0.5}]
RECONFIG_SEEDS_PER_ROUND = 3


@dataclass(frozen=True)
class Op:
    """One CLI command of a round and how its output is checked."""

    name: str
    command: str
    config: dict
    seed: int | None = None
    # simulate: criterion 5's limit on |simulation - mean field| for
    # message 1 and both-informed, applied on the large graph only.
    mean_field_gap: float | None = None
    # Answer ids known to fail every time because of a named fault.
    expected_failures: dict[str, str] = field(default_factory=dict)


def derive_seed(workload: str, seed: int, round_index: int, slot: int) -> int:
    """A command seed that depends only on its workload seed and position."""
    return random.Random(f"{workload}:{seed}:{round_index}:{slot}").randrange(1, 2**31 - 64)


def _grid(lo: float, hi: float, step: float) -> list[float]:
    n = int(round((hi - lo) / step))
    return [round(lo + i * step, 2) for i in range(n + 1)]


def deploy_round(seed: int, r: int) -> list[Op]:
    config = {
        "params": {"p": 0.4, "lambda": 50.0, "r1_m": 1000, "r2_m": 500},
        "validate": {"seeds": 20, "region": {"width": 10, "height": 10}},
    }
    return [Op("degree_dense", "degree", config, derive_seed("deploy", seed, r, 0))]


SIM_SMALL = {
    "params": README_PARAMS,
    "region": {"width": 6, "height": 6},
    "mode": "both",
    "sim": {"replications": 10},
}
SIM_LARGE = {
    "params": README_PARAMS,
    "threat": {"delta": 0.5},
    "region": {"width": 14, "height": 14},
    "mode": "both",
    "sim": {"replications": 4, "burn_in": 300, "measure_steps": 300},
}
EQUILIBRIUM_TABLE = {
    "mean_degrees": [3.14, 6.28, 12.57],
    "alpha": [0.1, 0.2, 0.3, 0.4, 0.5],
}
TRAJECTORY = {
    "params": README_PARAMS,
    "mode": "trajectory",
    "alpha": [0.3],
    "horizon": 50.0,
    "step": 0.01,
    "initial_fraction": 0.01,
    "dual": True,
}


def oracle_round(seed: int, r: int) -> list[Op]:
    return [
        Op("simulate_small", "simulate", SIM_SMALL, derive_seed("oracle", seed, r, 0)),
        Op("simulate_large", "simulate", SIM_LARGE, derive_seed("oracle", seed, r, 1),
           mean_field_gap=0.05),
        Op("equilibrium_table", "equilibrium", EQUILIBRIUM_TABLE),
        Op("equilibrium_trajectory", "equilibrium", TRAJECTORY),
    ]


O3 = ("ROADMAP O3: multi-start SLSQP with density repair and corner fallback "
      "reports 'optimal' where a grid is cheaper")

DESIGNS = [
    # README design: the intelligence mission and a coarse threat sweep.
    Op("design_readme", "design", {
        "mission": README_MISSION,
        "sweep": {"variable": "delta", "grid": [0.0, 0.2, 0.4, 0.6, 0.8]},
    }),
    # Criterion 7: threat sweeps of both case-study missions; the encounter
    # sweep goes past its infeasibility boundary (delta ~ 0.84).
    Op("design_intel_delta", "design", {
        "mission": README_MISSION,
        "sweep": {"variable": "delta", "grid": _grid(0.0, 0.8, 0.05)},
    }),
    Op("design_encounter_delta", "design", {
        "mission": {"t1": 0.8, "t2": 0.8, "tc": 0.6, "delta": 0.0},
        "sweep": {"variable": "delta", "grid": _grid(0.0, 0.9, 0.05)},
    }),
    # Criterion 8: network-wide and intra-layer threshold sweeps.
    Op("design_tc_sweep", "design", {
        "mission": {"t1": 0.5, "t2": 0.5, "tc": 0.5, "delta": 0.0},
        "sweep": {"variable": "tc", "grid": _grid(0.1, 0.85, 0.05)},
    }),
    Op("design_t_intra_sweep", "design", {
        "mission": {"t1": 0.5, "t2": 0.5, "tc": 0.5, "delta": 0.0},
        "sweep": {"variable": "t_intra", "grid": sorted(_grid(0.1, 0.95, 0.05) + [0.93])},
    }),
    # Near the density cap. Which of these missions optimize() gets wrong
    # depends on the BLAS build's thread count; with the benchmark's
    # single-threaded BLAS the tc-swapped twins of the two missions ROADMAP
    # O3 names are the ones that fail (see README.md).
    Op("design_near_cap", "design", {
        "mission": {"t1": 0.91, "t2": 0.91, "tc": 0.8, "delta": 0.0},
        "sweep": {"variable": "tc", "grid": [0.5]},
    }, expected_failures={"tc=0.5": O3}),
    Op("design_t_intra_tc08", "design", {
        "mission": {"t1": 0.5, "t2": 0.5, "tc": 0.8, "delta": 0.0},
        "sweep": {"variable": "t_intra", "grid": [0.9]},
    }, expected_failures={"t_intra=0.9": O3}),
]


def mission_round(seed: int, r: int) -> list[Op]:
    reconfigs = [
        Op(f"reconfig_{i}", "reconfig", {
            "mission": {"t1": 0.6, "t2": 0.6, "tc": 0.8},
            "region": {"width": 40, "height": 40},
            "t_r": 50, "epsilon": 0.05, "horizon": 200,
            "scenario": README_LOSS,
        }, derive_seed("mission", seed, r, i))
        for i in range(RECONFIG_SEEDS_PER_ROUND)
    ]
    return DESIGNS + reconfigs


ROUNDS = {"deploy": deploy_round, "oracle": oracle_round, "mission": mission_round}


def round_ops(workload: str, seed: int, r: int) -> list[Op]:
    return ROUNDS[workload](seed, r)
