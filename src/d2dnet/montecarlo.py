"""Discrete-time stochastic spreading simulation on sampled graphs.

The independent oracle behind the mean-field predictions: synchronous
informed/uninformed dynamics with unit annihilation rate, discretized
with step h, run to a quasi-stationary regime.  Finite graphs absorb at
the all-uninformed state, so on extinction the state is regenerated by
re-seeding one random node (standard quasi-stationary handling).

All R replications advance together: a message's state is an (n, R)
boolean matrix, one column per replication.  A step packs each node's R
states as the low lanes of a few uint64 words (SIMD within a register:
narrow unsigned counters that share one machine word and add without
carries between them) and makes one sparse matrix-vector product per
message, plus one uniform draw per node and replication.  Every call
draws from one generator seeded with ``SimConfig.seed``, so results are
bit-for-bit deterministic per seed; since the replications share that
stream, a replication's path also depends on R.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse import csr_matrix, identity

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
        for name in ("burn_in", "measure_steps", "replications", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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
    extinctions: int = 0     # replications that went extinct at least once
    regenerations: int = 0   # quasi-stationary re-seedings, over all replications
    timeseries: np.ndarray | None = None   # (replication, step, channel)


def _seed_initial(n: int, replications: int, fraction: float,
                  pool: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(n, replications) start state: each column informs the same share of ``pool``."""
    informed = np.zeros((n, replications), dtype=bool)
    count = max(1, int(round(fraction * len(pool)))) if len(pool) else 0
    if count:
        for column in informed.T:
            column[rng.choice(pool, size=count, replace=False)] = True
    return informed


@dataclass(frozen=True)
class _Channel:
    """One message's spreading layer, set up for ``_step`` at a fixed R.

    Row i of the counts matrix, applied to the informed indicators,
    gives an index into ``threshold``.  ``blocks`` holds that matrix as
    uint64 ``kron(counts, identity(words))``, node-major: node i owns
    words i*words ... i*words + words - 1, and replication r is lane r
    of those words, a lane being one ``lane``-typed counter.
    """

    blocks: csr_matrix       # uint64 kron(adjacency + mark * identity, identity(words))
    words: int               # uint64 words per node, enough for R lanes
    lane: np.dtype           # uint8, uint16, uint32 or uint64
    threshold: np.ndarray    # indexed by a node's lane sum
    pool: np.ndarray         # nodes a quasi-stationary regeneration may re-seed
    regenerate: bool


def _layer(graph: MultiplexGraph, layer: int) -> csr_matrix:
    indptr, indices = ((graph.indptr1, graph.indices1) if layer == 1
                       else (graph.indptr2, graph.indices2))
    return csr_matrix((np.ones(len(indices), dtype=np.int32), indices, indptr),
                      shape=(graph.n, graph.n))


def _channel(adjacency: csr_matrix, alpha: float, pool: np.ndarray,
             config: SimConfig) -> _Channel:
    """Counts matrix, lane layout and thresholds for ``config.replications``.

    ``words`` is sized for the narrowest unsigned lane that holds every
    index of ``threshold``: uint8 when 2 * mark <= 256, else uint16, else
    uint32.  A lane sum is at most 2 * mark - 1, so no carry crosses
    lanes.  The lane is then the widest type that still fits R lanes in
    those words, so a small R reads a contiguous (n, R) lane view: R = 1
    gets uint64, R = 2 uint32 and R = 3 or 4 uint16 lanes.
    """
    # A diagonal entry above every row sum makes row i of counts @ X equal
    # m_i + mark * x_i, with m_i the informed-neighbour count: one lookup
    # then gives an uninformed node (1 - p_tx)^m_i, the chance that none
    # of its m_i transmissions gets through, and an informed node p_rec.
    p_tx, p_rec = alpha * config.time_step, config.time_step
    n = adjacency.shape[0]
    mark = int(adjacency.sum(axis=1).max()) + 1
    reps = config.replications
    narrowest = next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32)
                     if 2 * mark <= np.iinfo(t).max + 1)
    words = -(-reps * narrowest.itemsize // 8)
    lane = next(np.dtype(t) for t in (np.uint64, np.uint32, np.uint16, np.uint8)
                if reps * np.dtype(t).itemsize <= 8 * words)
    counts = adjacency + mark * identity(n, dtype=np.int32, format="csr")
    threshold = np.concatenate([(1.0 - p_tx) ** np.arange(mark), np.full(mark, p_rec)])
    return _Channel(_node_major_blocks(counts, words), words, lane, threshold, pool,
                    config.quasi_stationary and p_tx > 0.0 and len(pool) > 0)


def _node_major_blocks(counts: csr_matrix, words: int) -> csr_matrix:
    """uint64 ``kron(counts, identity(words))`` in CSR, built directly.

    Row i * words + w is row i of ``counts`` with each column j moved to
    j * words + w.  scipy's ``kron`` builds the same matrix through COO
    or BSR temporaries a few times its size, which raises peak RSS.
    """
    n, nnz = counts.shape[0], counts.nnz
    lengths = np.diff(counts.indptr)
    w = np.arange(words)
    # Entry e of row i lands, in block row w, at e + (words - 1) * indptr[i] + w * lengths[i].
    row = np.repeat(np.arange(n), lengths)
    pos = ((np.arange(nnz) + (words - 1) * counts.indptr[:-1][row])[:, None]
           + w * lengths[row][:, None])
    indices = np.empty(nnz * words, np.int32)
    indices[pos] = counts.indices[:, None] * words + w
    data = np.empty(nnz * words, np.uint64)
    data[pos] = counts.data[:, None]
    indptr = np.concatenate(([0], np.cumsum(np.repeat(lengths, words))))
    return csr_matrix((data, indices, indptr), shape=(n * words, n * words))


def _step(informed: np.ndarray, channel: _Channel, rng: np.random.Generator) -> np.ndarray:
    """One synchronous update of every replication (column) at once.

    One uniform u per node and replication: an informed node recovers if
    u < p_rec, an uninformed one with m informed neighbours is informed
    if u >= (1 - p_tx)^m.  That is the law of independent per-edge
    transmissions, with at most one status change per node.  The
    indices come from one product of ``channel.blocks`` with the state
    packed one replication per lane; ``informed`` must have the R
    columns the channel was built for.
    """
    n, reps = informed.shape
    u = rng.random(informed.shape)
    lanes = np.zeros((n, channel.words * 8 // channel.lane.itemsize), channel.lane)
    lanes[:, :reps] = informed
    sums = channel.blocks @ lanes.view(np.uint64).ravel()
    return u >= channel.threshold.take(sums.view(channel.lane).reshape(n, -1)[:, :reps])


def _standard_error(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(len(values)))


def _simulate(graph: MultiplexGraph, channels: list[_Channel], config: SimConfig
              ) -> tuple[np.ndarray, list[float], int, int, np.ndarray | None]:
    """Run one or two messages over all replications as (n, R) states.

    With two messages, a node whose status would flip for both in the
    same step keeps one of the two changes, chosen by a fair coin.
    Returns the replication means of the time-averaged fractions (one
    per message, plus both-informed with two messages), their standard
    errors, the replications that ever went extinct, the number of
    regenerations and the optional (R, steps, rows) time series.
    """
    n, reps = graph.n, config.replications
    rng = np.random.default_rng(config.seed)
    states = [_seed_initial(n, reps, config.initial_fraction, ch.pool, rng) for ch in channels]
    rows = 1 if len(channels) == 1 else 3
    steps = config.burn_in + config.measure_steps
    series = np.empty((reps, steps, rows)) if config.record_timeseries else None
    totals = np.zeros((rows, reps))
    fracs = np.empty((rows, reps))
    went_extinct = np.zeros(reps, dtype=bool)
    regenerations = 0
    # Column counts as a product with ones: exact, and faster than a sum
    # along the strided first axis of an (n, R) array.
    ones = np.ones(n)
    for step in range(steps):
        new = [_step(x, ch, rng) for x, ch in zip(states, channels)]
        if len(new) == 2:
            both_changed = (new[0] != states[0]) & (new[1] != states[1])
            count = int(np.count_nonzero(both_changed))
            if count:
                keep_first = np.zeros_like(both_changed)
                keep_first[both_changed] = rng.random(count) < 0.5
                new[1] ^= keep_first
                new[0] ^= both_changed & ~keep_first
        for i, (x, ch) in enumerate(zip(new, channels)):
            informed = ones @ x
            empty = np.flatnonzero(informed == 0)
            if len(empty):
                went_extinct[empty] = True
                if ch.regenerate:
                    x[rng.choice(ch.pool, size=len(empty)), empty] = True
                    informed[empty] = 1
                    regenerations += len(empty)
            fracs[i] = informed / n
        if rows == 3:
            fracs[2] = ones @ (new[0] & new[1]) / n
        states = new
        if series is not None:
            series[:, step] = fracs.T
        if step >= config.burn_in:
            totals += fracs
    means = totals / config.measure_steps
    return (means.mean(axis=1), [_standard_error(m) for m in means],
            int(went_extinct.sum()), regenerations, series)


def simulate_single(
    graph: MultiplexGraph, alpha: float, config: SimConfig
) -> SimResult:
    """Single network-wide message over the combined (two-layer) adjacency."""
    if graph.n == 0:
        raise ValueError("graph must be nonempty")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    # A type-I pair within r2 is a neighbour in both layers: its entry of
    # 2 gives it two transmission chances per step.
    combined = _layer(graph, 1) + _layer(graph, 2)
    channel = _channel(combined, alpha, np.arange(graph.n), config)
    means, ses, extinctions, regenerations, series = _simulate(graph, [channel], config)
    return SimResult(
        informed_fraction_combined=float(means[0]),
        se_combined=ses[0],
        extinctions=extinctions,
        regenerations=regenerations,
        timeseries=series,
    )


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
    # Message 1 can only ever reach type-I devices (layer-1 edges).
    type1_nodes = np.flatnonzero(graph.types == TYPE_I)
    channels = [_channel(_layer(graph, 1), alpha1, type1_nodes, config),
                _channel(_layer(graph, 2), alpha2, np.arange(graph.n), config)]
    means, ses, extinctions, regenerations, series = _simulate(graph, channels, config)
    return SimResult(
        informed_fraction_1=float(means[0]),
        informed_fraction_2=float(means[1]),
        informed_fraction_both=float(means[2]),
        se_1=ses[0],
        se_2=ses[1],
        se_both=ses[2],
        extinctions=extinctions,
        regenerations=regenerations,
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
