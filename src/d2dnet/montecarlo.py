"""Discrete-time stochastic spreading simulation on sampled graphs.

The independent oracle behind the mean-field predictions: synchronous
informed/uninformed dynamics with unit annihilation rate, discretized
with step h, run to a quasi-stationary regime.  Finite graphs absorb at
the all-uninformed state, so on extinction the state is regenerated by
re-seeding one random node (standard quasi-stationary handling).
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .degree import NetworkParams, SpreadingRates, ThreatModel, spreading_rates
from .geometry import TYPE_I, MultiplexGraph, Region, sample_graph
from .meanfield import theta_lower_bound


@dataclass(frozen=True)
class SimConfig:
    """Discretization and replication settings for the simulator."""

    time_step: float = 0.1
    burn_in: int = 2000
    measure_steps: int = 1000
    replications: int = 20
    seed: int = 0
    quasi_stationary: bool = True
    initial_fraction: float = 0.1
    record_timeseries: bool = False

    def __post_init__(self):
        if not 0.0 < self.time_step <= 1.0:
            raise ValueError("time_step must be in (0, 1]")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.measure_steps < 1:
            raise ValueError("measure_steps must be >= 1")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not 0.0 <= self.initial_fraction <= 1.0:
            raise ValueError("initial_fraction must be in [0, 1]")


@dataclass
class SimResult:
    """Quasi-stationary informed fractions (mean +/- standard error)."""

    informed_fraction_1: float | None = None
    informed_fraction_2: float | None = None
    informed_fraction_both: float | None = None
    informed_fraction_combined: float | None = None
    se_1: float | None = None
    se_2: float | None = None
    se_both: float | None = None
    se_combined: float | None = None
    extinctions: int = 0
    timeseries: np.ndarray | None = None   # (replication, step, channel)


def _replication_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Independent per-replication generators from one master seed."""
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(n)]


def _seed_initial(n: int, fraction: float, rng: np.random.Generator,
                  eligible: np.ndarray | None = None) -> np.ndarray:
    informed = np.zeros(n, dtype=bool)
    pool = np.arange(n) if eligible is None else eligible
    count = max(1, int(round(fraction * len(pool)))) if len(pool) else 0
    if count:
        informed[rng.choice(pool, size=count, replace=False)] = True
    return informed


def _step_sis(
    informed: np.ndarray,
    src: np.ndarray,
    dst: np.ndarray,
    p_tx: float,
    p_rec: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """One synchronous update; at most one status change per node."""
    received = np.zeros(len(informed), dtype=bool)
    if p_tx > 0.0:
        active = informed[src]
        hits = dst[active][rng.random(int(active.sum())) < p_tx]
        received[hits] = True
    recover = informed & (rng.random(len(informed)) < p_rec)
    return (informed & ~recover) | (~informed & received)


def simulate_single(
    graph: MultiplexGraph, alpha: float, config: SimConfig
) -> SimResult:
    """Single network-wide message over the combined (two-layer) adjacency."""
    if graph.n == 0:
        raise ValueError("graph must be nonempty")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    # Concatenating both layers keeps the layer-1/layer-2 duplicate pairs,
    # giving type-I pairs within r2 two transmission chances per step.
    (src1, dst1), (src2, dst2) = graph.edges(1), graph.edges(2)
    src, dst = np.concatenate([src1, src2]), np.concatenate([dst1, dst2])
    h = config.time_step
    p_tx = alpha * h
    fractions = np.empty(config.replications)
    extinctions = 0
    series = (
        np.empty((config.replications, config.burn_in + config.measure_steps, 1))
        if config.record_timeseries
        else None
    )
    for rep, rng in enumerate(_replication_rngs(config.seed, config.replications)):
        informed = _seed_initial(graph.n, config.initial_fraction, rng)
        total = 0.0
        went_extinct = False
        for step in range(config.burn_in + config.measure_steps):
            informed = _step_sis(informed, src, dst, p_tx, h, rng)
            if not informed.any():
                went_extinct = True
                if config.quasi_stationary and p_tx > 0.0:
                    informed[rng.integers(graph.n)] = True
            frac = informed.sum() / graph.n
            if series is not None:
                series[rep, step, 0] = frac
            if step >= config.burn_in:
                total += frac
        fractions[rep] = total / config.measure_steps
        if went_extinct:
            extinctions += 1
    return SimResult(
        informed_fraction_combined=float(fractions.mean()),
        se_combined=_standard_error(fractions),
        extinctions=extinctions,
        timeseries=series,
    )


def _standard_error(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(len(values)))


def simulate_dual(
    graph: MultiplexGraph, alpha1: float, alpha2: float, config: SimConfig
) -> SimResult:
    """Two messages, each on its own layer, with per-node single-change updates.

    If a node's status would flip for both messages in the same step,
    one of the two changes is kept uniformly at random.
    """
    if graph.n == 0:
        raise ValueError("graph must be nonempty")
    for a in (alpha1, alpha2):
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {a}")
    src1, dst1 = graph.edges(1)
    src2, dst2 = graph.edges(2)
    h = config.time_step
    type1_nodes = np.flatnonzero(graph.types == TYPE_I)
    f1 = np.empty(config.replications)
    f2 = np.empty(config.replications)
    fb = np.empty(config.replications)
    extinctions = 0
    series = (
        np.empty((config.replications, config.burn_in + config.measure_steps, 3))
        if config.record_timeseries
        else None
    )
    for rep, rng in enumerate(_replication_rngs(config.seed, config.replications)):
        # Message 1 can only ever reach type-I devices (layer-1 edges).
        inf1 = _seed_initial(graph.n, config.initial_fraction, rng, eligible=type1_nodes)
        inf2 = _seed_initial(graph.n, config.initial_fraction, rng)
        t1 = t2 = tb = 0.0
        went_extinct = False
        for step in range(config.burn_in + config.measure_steps):
            new1 = _step_sis(inf1, src1, dst1, alpha1 * h, h, rng)
            new2 = _step_sis(inf2, src2, dst2, alpha2 * h, h, rng)
            both_changed = (new1 != inf1) & (new2 != inf2)
            if both_changed.any():
                keep_first = rng.random(int(both_changed.sum())) < 0.5
                idx = np.flatnonzero(both_changed)
                new2[idx[keep_first]] = inf2[idx[keep_first]]
                new1[idx[~keep_first]] = inf1[idx[~keep_first]]
            inf1, inf2 = new1, new2
            if not inf1.any():
                went_extinct = True
                if config.quasi_stationary and alpha1 * h > 0 and len(type1_nodes):
                    inf1[rng.choice(type1_nodes)] = True
            if not inf2.any():
                went_extinct = True
                if config.quasi_stationary and alpha2 * h > 0:
                    inf2[rng.integers(graph.n)] = True
            fr1 = inf1.sum() / graph.n
            fr2 = inf2.sum() / graph.n
            frb = (inf1 & inf2).sum() / graph.n
            if series is not None:
                series[rep, step] = (fr1, fr2, frb)
            if step >= config.burn_in:
                t1 += fr1
                t2 += fr2
                tb += frb
        m = config.measure_steps
        f1[rep], f2[rep], fb[rep] = t1 / m, t2 / m, tb / m
        if went_extinct:
            extinctions += 1
    return SimResult(
        informed_fraction_1=float(f1.mean()),
        informed_fraction_2=float(f2.mean()),
        informed_fraction_both=float(fb.mean()),
        se_1=_standard_error(f1),
        se_2=_standard_error(f2),
        se_both=_standard_error(fb),
        extinctions=extinctions,
        timeseries=series,
    )


@dataclass
class DisseminationEstimate:
    """Connectivity- and simulation-based dissemination estimates.

    t1/t2/tc estimate the informed proportion of the average-degree
    class implied by the measured connectivity (the quantity the mission
    thresholds are stated against); lam1_hat/lam2_hat are the measured
    active densities.  When epidemics are run, the aggregate fields hold
    the simulated population informed fractions.
    """

    t1: float
    t2: float
    tc: float
    se_t1: float
    se_t2: float
    se_tc: float
    lam1_hat: float
    lam2_hat: float
    aggregate_1: float | None = None
    aggregate_2: float | None = None
    aggregate_both: float | None = None
    aggregate_combined: float | None = None
    se_aggregate_1: float | None = None
    se_aggregate_2: float | None = None
    se_aggregate_both: float | None = None
    se_aggregate_combined: float | None = None


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


def estimate_dissemination(
    params: NetworkParams,
    threat: ThreatModel,
    config: SimConfig,
    region: Region = Region(10.0, 10.0),
    run_epidemics: bool = True,
) -> DisseminationEstimate:
    """Estimate prevailing dissemination from fresh graph samples.

    Each replication samples a fresh deployment.  Mean degrees measured
    on the sample give the per-message dissemination-level estimates;
    optionally the stochastic spreading processes are simulated on the
    same graphs to produce aggregate informed fractions.
    """
    rates = spreading_rates(threat)
    seeds = np.random.SeedSequence(config.seed).spawn(config.replications)
    estimates = np.empty((5, config.replications))   # t1, t2, tc, lam1, lam2
    agg = {"1": [], "2": [], "both": [], "combined": []}
    for i, ss in enumerate(seeds):
        graph_seed = int(ss.generate_state(1)[0])
        graph = sample_graph(params, region, graph_seed)
        estimates[:, i] = _connectivity_estimate(graph, rates)
        if run_epidemics and graph.n:
            sub_i = replace(config, replications=1, seed=graph_seed + 1,
                            record_timeseries=False)
            single = simulate_single(graph, rates.alphac, sub_i)
            dual = simulate_dual(graph, rates.alpha1, rates.alpha2, sub_i)
            agg["combined"].append(single.informed_fraction_combined)
            agg["1"].append(dual.informed_fraction_1)
            agg["2"].append(dual.informed_fraction_2)
            agg["both"].append(dual.informed_fraction_both)

    t1, t2, tc, lam1, lam2 = estimates
    out = DisseminationEstimate(
        t1=float(t1.mean()),
        t2=float(t2.mean()),
        tc=float(tc.mean()),
        se_t1=_standard_error(t1),
        se_t2=_standard_error(t2),
        se_tc=_standard_error(tc),
        lam1_hat=float(lam1.mean()),
        lam2_hat=float(lam2.mean()),
    )
    if run_epidemics and agg["combined"]:
        for key, (mfield, sfield) in {
            "1": ("aggregate_1", "se_aggregate_1"),
            "2": ("aggregate_2", "se_aggregate_2"),
            "both": ("aggregate_both", "se_aggregate_both"),
            "combined": ("aggregate_combined", "se_aggregate_combined"),
        }.items():
            vals = np.array(agg[key], dtype=float)
            setattr(out, mfield, float(vals.mean()))
            setattr(out, sfield, _standard_error(vals))
    return out
