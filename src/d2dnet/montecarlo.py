"""Discrete-time stochastic spreading simulation on sampled graphs.

The independent oracle behind the mean-field predictions: synchronous
informed/uninformed dynamics with unit annihilation rate, discretized
with step h, run to a quasi-stationary regime.  Finite graphs absorb at
the all-uninformed state, so on extinction the state is regenerated by
re-seeding one random node (standard quasi-stationary handling).

All R replications advance together: a message's state is a boolean
matrix with one column per replication and one row per node the message
can reach.  Message 1 travels on layer 1 only, so ``simulate_dual``
numbers the type-I devices first and keeps message 1's state on those
n1 rows; message 2 and the single message keep all n.  A step packs
each node's R states as the low lanes of a few uint64 words (SIMD
within a register: narrow unsigned counters that share one machine word
and add without carries between them) and makes one sparse
matrix-vector product per message, a direct call of scipy's CSR kernel.

Each step draws exactly the uniforms it uses, as 32-bit integers: n1*R
for message 1 and then n*R for message 2 (n*R for the single message),
taken in order as the low and then the high 32-bit half of each raw
PCG64 word (``bit_generator.random_raw``), whose stream NEP 19 keeps
stable across numpy releases.  A uniform u makes an event of
probability 1 - t happen when u >= ceil(t * 2^32), so every transition
probability is exact to 2^-32, and the events of probability 0 and 1
are exact.  The fair coin and the re-seeding draw from the same
generator with ``Generator.random`` and ``Generator.choice``.  Every
call is seeded with ``SimConfig.seed``, so results are bit-for-bit
deterministic per seed; since the replications share that stream, a
replication's path also depends on R.  The stream, and so the result
for a given seed, changed once when message 1 moved to the type-I rows
and the uniforms to 32-bit halves.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

try:
    from scipy.sparse._sparsetools import csr_matvec
except ImportError:   # a private module: _matvec falls back on the public product
    csr_matvec = None

from .geometry import TYPE_I, MultiplexGraph


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
                  rng: np.random.Generator) -> np.ndarray:
    """(n, replications) start state: each column informs the same share of the n nodes."""
    informed = np.zeros((n, replications), dtype=bool)
    count = max(1, int(round(fraction * n))) if n else 0
    if count:
        for column in informed.T:
            column[rng.choice(n, size=count, replace=False)] = True
    return informed


@dataclass(frozen=True)
class _Channel:
    """One message's spreading layer on its n nodes, set up for ``_step`` at a fixed R.

    Row i of the counts matrix, applied to the informed indicators,
    gives an index into ``threshold``.  ``blocks`` holds that matrix as
    uint64 ``kron(counts, identity(words))``, node-major: node i owns
    words i*words ... i*words + words - 1, and replication r is lane r
    of those words, a lane being one ``lane``-typed counter.  Every
    node may be re-seeded by a quasi-stationary regeneration.
    """

    n: int
    blocks: csr_matrix       # uint64 kron(counts, identity(words))
    words: int               # uint64 words per node, enough for R lanes
    lane: np.dtype           # uint8, uint16, uint32 or uint64
    threshold: np.ndarray    # int64 ceil(t * 2^32), indexed by a node's lane sum
    regenerate: bool


def _counts(n: int, pairs: np.ndarray, mark: int) -> csr_matrix:
    """Symmetric counts of ``pairs`` (i < j) with ``mark`` on the diagonal.

    A pair listed twice counts 2, as COO duplicates are summed.
    """
    nodes = np.arange(n)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1], nodes])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0], nodes])
    data = np.concatenate([np.ones(2 * len(pairs), np.int32), np.full(n, mark, np.int32)])
    return coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()


def _channel(n: int, pairs: np.ndarray, alpha: float, config: SimConfig) -> _Channel:
    """Counts matrix, lane layout and thresholds of the n-node ``pairs``.

    Built for ``config.replications``.  ``words`` is sized for the
    narrowest unsigned lane that holds every index of ``threshold``:
    uint8 when 2 * mark <= 256, else uint16, else uint32.  A lane sum is
    at most 2 * mark - 1, so no carry crosses lanes.  The lane is then
    the widest type that still fits R lanes in those words, so a small R
    reads a contiguous (n, R) lane view: R = 1 gets uint64, R = 2 uint32
    and R = 3 or 4 uint16 lanes.
    """
    # A diagonal entry above every row sum makes row i of counts @ X equal
    # m_i + mark * x_i, with m_i the informed-neighbour count: one lookup
    # then gives an uninformed node (1 - p_tx)^m_i, the chance that none
    # of its m_i transmissions gets through, and an informed node p_rec,
    # each scaled to a 32-bit threshold.  Scaling by 2^32 is exact and
    # the ceiling moves a probability by less than 2^-32; a threshold of
    # 2^32 is above every uniform, so m_i = 0 never informs and h = 1
    # always recovers, and 0 is below every one, so p_tx = 1 always informs.
    p_tx, p_rec = alpha * config.time_step, config.time_step
    mark = int(np.bincount(pairs.ravel(), minlength=n).max(initial=0)) + 1
    reps = config.replications
    narrowest = next(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32)
                     if 2 * mark <= np.iinfo(t).max + 1)
    words = -(-reps * narrowest.itemsize // 8)
    lane = next(np.dtype(t) for t in (np.uint64, np.uint32, np.uint16, np.uint8)
                if reps * np.dtype(t).itemsize <= 8 * words)
    threshold = np.concatenate([(1.0 - p_tx) ** np.arange(mark), np.full(mark, p_rec)])
    return _Channel(n, _node_major_blocks(_counts(n, pairs, mark), words), words, lane,
                    np.ceil(np.ldexp(threshold, 32)).astype(np.int64),
                    config.quasi_stationary and p_tx > 0.0 and n > 0)


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


def _uniforms(bit_generator: np.random.BitGenerator, count: int) -> np.ndarray:
    """``count`` uniform 32-bit integers from ``ceil(count / 2)`` raw words.

    They are the low and then the high half of each word, ``raw &
    0xFFFFFFFF`` then ``raw >> 32``: the little-endian uint32 view of the
    words, on a host of either byte order.  The last high half is unused
    when ``count`` is odd.
    """
    raw = bit_generator.random_raw(-(-count // 2)).astype("<u8", copy=False)
    return raw.view("<u4")[:count]


def _matvec(blocks: csr_matrix, vec: np.ndarray) -> np.ndarray:
    """``blocks @ vec`` for uint64 ``vec``, from scipy's CSR kernel itself.

    The same C loop as the ``@`` operator without its dispatch checks;
    the kernel adds into its output, which therefore starts at zero.
    Where scipy no longer has the private kernel, it is ``blocks @ vec``.
    """
    if csr_matvec is None:
        return blocks @ vec
    rows, cols = blocks.shape
    out = np.zeros(rows, np.uint64)
    csr_matvec(rows, cols, blocks.indptr, blocks.indices, blocks.data, vec, out)
    return out


def _step(informed: np.ndarray, u: np.ndarray, channel: _Channel) -> np.ndarray:
    """One synchronous update of every replication (column) at once.

    ``u`` holds one uniform 32-bit integer per node and replication: an
    informed node recovers if u < ceil(p_rec * 2^32), an uninformed one
    with m informed neighbours is informed if u >= ceil((1 - p_tx)^m *
    2^32).  That is the law of independent per-edge transmissions, with
    at most one status change per node.  The indices come from one
    product of ``channel.blocks`` with the state packed one replication
    per lane; ``informed`` must have the channel's n rows and the R
    columns it was built for.
    """
    n, reps = informed.shape
    per_node = channel.words * 8 // channel.lane.itemsize
    lanes = np.zeros((n, per_node), channel.lane)
    lanes[:, :reps] = informed
    sums = _matvec(channel.blocks, lanes.view(np.uint64).ravel())
    return u >= channel.threshold.take(sums.view(channel.lane).reshape(n, per_node)[:, :reps])


def _standard_error(values: np.ndarray) -> float:
    if len(values) < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(len(values)))


def _simulate(n: int, channels: list[_Channel], config: SimConfig
              ) -> tuple[np.ndarray, list[float], int, int, np.ndarray | None]:
    """Run one or two messages on an n-node graph over all replications.

    Each channel's state holds the first ``channel.n`` nodes; fractions
    are of all n.  With two messages, a node whose status would flip
    for both in the same step keeps one of the two changes, chosen by a
    fair coin; only the first ``channels[0].n`` nodes carry both.
    Returns the replication means of the time-averaged fractions (one
    per message, plus both-informed with two messages), their standard
    errors, the replications that ever went extinct, the number of
    regenerations and the optional (R, steps, rows) time series.
    """
    reps = config.replications
    rng = np.random.default_rng(config.seed)
    states = [_seed_initial(ch.n, reps, config.initial_fraction, rng) for ch in channels]
    # Message i's uniforms are u[ends[i]:ends[i + 1]] of each step's draw.
    ends = np.cumsum([0] + [ch.n * reps for ch in channels]).tolist()
    shared = channels[0].n
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
        u = _uniforms(rng.bit_generator, ends[-1])
        new = [_step(x, u[lo:hi].reshape(x.shape), ch)
               for x, ch, lo, hi in zip(states, channels, ends, ends[1:])]
        if len(new) == 2:
            # Message 2's first rows are views: the nodes that carry both.
            first, second = new[0], new[1][:shared]
            both_changed = (first != states[0]) & (second != states[1][:shared])
            count = int(np.count_nonzero(both_changed))
            if count:
                keep_first = np.zeros_like(both_changed)
                keep_first[both_changed] = rng.random(count) < 0.5
                second ^= keep_first
                first ^= both_changed & ~keep_first
        for i, (x, ch) in enumerate(zip(new, channels)):
            informed = ones[:ch.n] @ x
            empty = np.flatnonzero(informed == 0)
            if len(empty):
                went_extinct[empty] = True
                if ch.regenerate:
                    x[rng.choice(ch.n, size=len(empty)), empty] = True
                    informed[empty] = 1
                    regenerations += len(empty)
            fracs[i] = informed / n
        if rows == 3:
            fracs[2] = ones[:shared] @ (new[0] & new[1][:shared]) / n
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
    combined = np.concatenate([graph.pairs1, graph.pairs2])
    channel = _channel(graph.n, combined, alpha, config)
    means, ses, extinctions, regenerations, series = _simulate(graph.n, [channel], config)
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
    one of the two changes is kept uniformly at random.  Message 1 can
    only reach type-I devices, so its state holds only those; layer 1
    must join type-I devices only.
    """
    if graph.n == 0:
        raise ValueError("graph must be nonempty")
    for a in (alpha1, alpha2):
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {a}")
    type1 = graph.types == TYPE_I
    if not type1[graph.pairs1].all():
        raise ValueError("layer-1 pairs must join type-I devices")
    # Number the type-I devices first, each type in its stored order, so
    # message 1's n1 rows are the first n1 rows of message 2's state.
    label = np.empty(graph.n, np.int64)
    label[np.concatenate([np.flatnonzero(type1), np.flatnonzero(~type1)])] = np.arange(graph.n)
    channels = [_channel(int(type1.sum()), label[graph.pairs1], alpha1, config),
                _channel(graph.n, label[graph.pairs2], alpha2, config)]
    means, ses, extinctions, regenerations, series = _simulate(graph.n, channels, config)
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
