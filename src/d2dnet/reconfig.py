"""Periodic estimate-and-redeploy mission loop.

Deploy the cost-optimal network, then at every reconfigurability
interval: apply pending attrition/threat events, estimate the surviving
densities and prevailing dissemination levels from a fresh graph sample
taken with the initial communication ranges, and re-optimize plus
top-up deployment whenever an estimate drifts past the tolerance or the
threat level changes.  Devices are only ever added; ranges may move in
either direction when a new optimum says so.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .degree import NetworkParams, SpreadingRates, spreading_rates
from .designer import MissionSpec, optimize
from .geometry import TYPE_I, MultiplexGraph, Region, sample_graph
from .meanfield import theta_lower_bound


@dataclass(frozen=True)
class ScenarioEvent:
    """A timed disturbance: device attrition or a threat-level change."""

    time: int
    kind: str                         # "device_loss" or "threat_change"
    loss_fraction_type1: float = 0.0
    loss_fraction_type2: float = 0.0
    new_delta: float | None = None

    def __post_init__(self):
        if not isinstance(self.time, numbers.Real) or not float(self.time).is_integer():
            raise ValueError(f"event time must be a finite integer, got {self.time}")
        if self.time < 0:
            raise ValueError("event time must be nonnegative")
        if self.kind not in ("device_loss", "threat_change"):
            raise ValueError(f"unknown event kind {self.kind!r}")
        for f in (self.loss_fraction_type1, self.loss_fraction_type2):
            if not 0.0 <= f <= 1.0:
                raise ValueError("loss fractions must be in [0, 1]")
        if self.kind == "threat_change" and (
            self.new_delta is None or not 0.0 <= self.new_delta <= 1.0
        ):
            raise ValueError("threat_change requires new_delta in [0, 1]")


@dataclass
class CheckRecord:
    """One row of the mission trace (one periodic connectivity check)."""

    time: int
    lam1_hat: float
    lam2_hat: float
    t1_hat: float
    t2_hat: float
    tc_hat: float
    delta_hat: float
    recomputed: bool
    params: NetworkParams | None
    added_type1: float
    added_type2: float
    cumulative_cost: float
    status: str = "ok"          # "ok" or "infeasible"


@dataclass
class ReconfigTrace:
    initial_params: NetworkParams
    initial_cost: float
    checks: list[CheckRecord] = field(default_factory=list)

    @property
    def recompute_count(self) -> int:
        return sum(1 for c in self.checks if c.recomputed)


def _connectivity_estimate(
    graph: MultiplexGraph, rates: SpreadingRates
) -> tuple[float, float, float, float, float]:
    """(t1, t2, tc, lam1_hat, lam2_hat): the closed-form bound at each
    channel's mean degree, and type-I and total devices per unit area."""
    if graph.n == 0:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    d1 = graph.degree1()
    d2 = graph.degree2()
    area = graph.region.area
    return (
        theta_lower_bound(rates.alpha1, float(d1.mean())),
        theta_lower_bound(rates.alpha2, float(d2.mean())),
        theta_lower_bound(rates.alphac, float((d1 + d2).mean())),
        float((graph.types == TYPE_I).sum() / area),
        graph.n / area,
    )


class MissionInfeasibleError(RuntimeError):
    """Initial mission cannot be satisfied within the parameter bounds."""


def _check_loop_settings(t_r, epsilon, horizon, events) -> tuple[int, float, int]:
    """Validated (t_r, epsilon, horizon) of the mission loop.

    t_r and horizon must be finite integers with 1 <= t_r <= horizon,
    epsilon finite and positive, and no event may come after the last
    check, at (horizon // t_r) * t_r, where it would never be applied;
    anything else raises ValueError.
    """
    for name, value in (("t_r", t_r), ("horizon", horizon)):
        if not isinstance(value, numbers.Real) or not float(value).is_integer():
            raise ValueError(f"{name} must be a finite integer, got {value!r}")
    if t_r < 1:
        raise ValueError("t_r must be >= 1")
    if horizon < t_r:
        raise ValueError(f"horizon {horizon} is shorter than t_r {t_r}: no check would run")
    if not (isinstance(epsilon, numbers.Real) and math.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon!r}")
    last_check = horizon // t_r * t_r
    for ev in events:
        if ev.time > horizon:
            raise ValueError(
                f"scenario event at t={ev.time} ({ev.kind}) comes after the horizon {horizon}")
        if ev.time > last_check:
            raise ValueError(
                f"scenario event at t={ev.time} ({ev.kind}) comes after the last check "
                f"at t={last_check:g} and would never be applied")
    return int(t_r), float(epsilon), int(horizon)


def run_mission(
    mission: MissionSpec,
    scenario: list[ScenarioEvent],
    t_r: int = 50,
    epsilon: float = 0.05,
    horizon: int = 200,
    seed: int = 0,
    region: Region = Region(10.0, 10.0),
) -> ReconfigTrace:
    """Run the closed deploy/estimate/re-optimize loop to the horizon."""
    t_r, epsilon, horizon = _check_loop_settings(t_r, epsilon, horizon, scenario)
    events = sorted(scenario, key=lambda e: e.time)

    initial = optimize(mission)
    if initial.status != "optimal":
        raise MissionInfeasibleError(
            f"mission infeasible at t=0 (violated: {initial.active_set})"
        )
    params = initial.params
    r1_init, r2_init = params.r1, params.r2
    # True deployed densities per device type (type II = single-radio).
    lam_t1 = params.p * params.lam
    lam_t2 = (1.0 - params.p) * params.lam
    delta_true = mission.threat.delta
    current_mission = mission
    cumulative_cost = initial.cost

    trace = ReconfigTrace(initial_params=params, initial_cost=initial.cost)
    seed_seq = np.random.SeedSequence(seed)
    pending = list(events)

    for t in range(t_r, horizon + 1, t_r):
        while pending and pending[0].time <= t:
            ev = pending.pop(0)
            if ev.kind == "device_loss":
                lam_t1 *= 1.0 - ev.loss_fraction_type1
                lam_t2 *= 1.0 - ev.loss_fraction_type2
            else:
                delta_true = float(ev.new_delta)

        # Estimate surviving densities and dissemination from a fresh
        # sample taken with the INITIAL communication ranges.
        lam_total = lam_t1 + lam_t2
        p_hat_true = lam_t1 / lam_total if lam_total > 0 else 0.0
        sample_params = NetworkParams(
            p=p_hat_true, lam=max(lam_total, 1e-12), r1=r1_init, r2=min(r2_init, r1_init)
        )
        graph_seed = int(seed_seq.spawn(1)[0].generate_state(1)[0])
        graph = sample_graph(sample_params, region, graph_seed)
        rates = spreading_rates(replace(current_mission.threat, delta=delta_true))
        t1_hat, t2_hat, tc_hat, lam1_hat, lam2_hat = _connectivity_estimate(graph, rates)

        trigger = (
            abs(current_mission.t1 - t1_hat) >= epsilon
            or abs(current_mission.t2 - t2_hat) >= epsilon
            or abs(current_mission.tc - tc_hat) >= epsilon
            or delta_true != current_mission.threat.delta
        )
        added1 = added2 = 0.0
        if trigger:
            current_mission = replace(
                current_mission,
                threat=replace(current_mission.threat, delta=delta_true),
            )
            solution = optimize(current_mission)
            if solution.status != "optimal":
                trace.checks.append(CheckRecord(
                    time=t, lam1_hat=lam1_hat, lam2_hat=lam2_hat,
                    t1_hat=t1_hat, t2_hat=t2_hat, tc_hat=tc_hat,
                    delta_hat=delta_true, recomputed=True, params=None,
                    added_type1=0.0, added_type2=0.0,
                    cumulative_cost=cumulative_cost, status="infeasible",
                ))
                break
            params = solution.params
            new_lam1 = params.p * params.lam
            new_lam2 = (1.0 - params.p) * params.lam
            added1 = max(0.0, new_lam1 - lam1_hat)
            added2 = max(0.0, new_lam2 - (lam2_hat - lam1_hat))
            lam_t1 += added1
            lam_t2 += added2
            r1_init, r2_init = params.r1, params.r2
            cumulative_cost += current_mission.w1 * added1 + current_mission.w2 * added2
        trace.checks.append(CheckRecord(
            time=t, lam1_hat=lam1_hat, lam2_hat=lam2_hat,
            t1_hat=t1_hat, t2_hat=t2_hat, tc_hat=tc_hat,
            delta_hat=delta_true, recomputed=trigger,
            params=params if trigger else None,
            added_type1=added1, added_type2=added2,
            cumulative_cost=cumulative_cost,
        ))
    return trace
