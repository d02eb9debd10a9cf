"""Design and evaluation toolkit for two-layer device-to-device networks.

Analytic degree laws of a heterogeneous Poisson deployment, mean-field
information-dissemination equilibria, a stochastic simulation oracle, a
cost-minimal design optimizer, and a periodic reconfiguration loop.
"""

__version__ = "0.1.0"

from .degree import (
    DegreeModel,
    NetworkParams,
    ParamBounds,
    SpreadingRates,
    ThreatModel,
    combined_pmf,
    degree_moments,
    epidemic_threshold,
    intra_layer_pmf,
    spreading_rates,
)
from .designer import DesignSolution, MissionSpec, cost, feasible, optimize, sweep, threshold_map
from .geometry import MultiplexGraph, Region, build_rgg, empirical_degrees, sample_graph, sample_ppp
from .meanfield import (
    DualEquilibrium,
    DualTrajectory,
    SingleEquilibrium,
    Trajectory,
    integrate_dual,
    integrate_single,
    solve_dual,
    solve_theta,
    theta_lower_bound,
)
from .montecarlo import SimConfig, SimResult, simulate_dual, simulate_single
from .reconfig import ReconfigTrace, ScenarioEvent, run_mission

__all__ = [
    "DegreeModel",
    "DesignSolution",
    "DualEquilibrium",
    "DualTrajectory",
    "MissionSpec",
    "MultiplexGraph",
    "NetworkParams",
    "ParamBounds",
    "ReconfigTrace",
    "Region",
    "ScenarioEvent",
    "SimConfig",
    "SimResult",
    "SingleEquilibrium",
    "SpreadingRates",
    "ThreatModel",
    "Trajectory",
    "build_rgg",
    "combined_pmf",
    "cost",
    "degree_moments",
    "empirical_degrees",
    "epidemic_threshold",
    "feasible",
    "integrate_dual",
    "integrate_single",
    "intra_layer_pmf",
    "optimize",
    "run_mission",
    "sample_graph",
    "sample_ppp",
    "simulate_dual",
    "simulate_single",
    "solve_dual",
    "solve_theta",
    "spreading_rates",
    "sweep",
    "theta_lower_bound",
]
