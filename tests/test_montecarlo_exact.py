"""Exact reference for the Monte Carlo oracle on graphs of four to six nodes.

``simulate_single`` and ``simulate_dual`` run a finite Markov chain on
the joint state of all nodes.  On a tiny graph its transition matrix is
small enough to write down: 2^n states for one message, 4^n for two.
Starting from ``_seed_initial``'s distribution and propagating through
burn-in and the measure window gives the exact expectation of every
time-averaged fraction the simulator reports.  The matrices here are
built from the law alone, node by node:

- an informed node recovers with probability h; an uninformed one with
  m informed neighbours, counted with edge multiplicity, is informed
  with probability 1 - (1 - alpha * h)^m;
- with two messages, a node whose status would flip for both keeps one
  of the two flips, chosen by a fair coin;
- on extinction a message re-seeds one node drawn uniformly from its
  pool (type-I devices for message 1, every node otherwise).

The simulated means must lie within ``Z_MAX`` standard errors of the
exact values.  Seeds, R and the configs were fixed before the first run.
"""
import math

import numpy as np
import pytest

from d2dnet import Region, SimConfig, simulate_dual, simulate_single
from d2dnet.geometry import TYPE_I, TYPE_II, MultiplexGraph

Z_MAX = 4.0
REPLICATIONS = 10_000


def _bits(states, n):
    """(states, n) 0/1 matrix: bit i of each state index."""
    return (np.arange(states)[:, None] >> np.arange(n)) & 1


def _counts(n, pairs):
    counts = np.zeros((n, n))
    for i, j in pairs:
        counts[i, j] += 1
        counts[j, i] += 1
    return counts


def _start(n, pool, fraction):
    """``_seed_initial``: a uniform subset of ``pool`` of its fixed size."""
    size = max(1, round(fraction * len(pool)))
    x = _bits(1 << n, n)
    allowed = (x.sum(axis=1) == size) & (x[:, np.setdiff1d(np.arange(n), pool)] == 0).all(axis=1)
    return allowed / allowed.sum()


def _reseed(n, pool):
    """Map of one message's state after regeneration: empty -> one pool node."""
    reseed = np.eye(1 << n)
    reseed[0, 0] = 0.0
    for j in pool:
        reseed[0, 1 << j] = 1.0 / len(pool)
    return reseed


def _flip_probability(x, counts, alpha, h):
    """Per state and node, the chance that one step changes the node's status."""
    return np.where(x == 1, h, 1.0 - (1.0 - alpha * h) ** (x @ counts))


def single_chain(graph, alpha, config):
    """(start, transition, fractions) of the one-message chain on ``graph``."""
    n = graph.n
    x = _bits(1 << n, n)
    flip = _flip_probability(x, _counts(n, np.concatenate([graph.pairs1, graph.pairs2])),
                             alpha, config.time_step)[:, None]
    moved = x[None] != x[:, None]
    transition = np.where(moved, flip, 1.0 - flip).prod(axis=2)
    pool = np.arange(n)
    if config.quasi_stationary:
        transition = transition @ _reseed(n, pool)
    return _start(n, pool, config.initial_fraction), transition, x.sum(axis=1)[:, None] / n


def dual_chain(graph, alpha1, alpha2, config):
    """(start, transition, fractions) of the two-message chain on ``graph``.

    State index x1 + 2^n * x2, where bit i of x1 (x2) is node i's
    status for message 1 (2); the fractions are message 1, message 2
    and both.
    """
    n, h = graph.n, config.time_step
    joint = _bits(4 ** n, 2 * n)
    x1, x2 = joint[:, :n], joint[:, n:]
    q1 = _flip_probability(x1, _counts(n, graph.pairs1), alpha1, h)[:, None]
    q2 = _flip_probability(x2, _counts(n, graph.pairs2), alpha2, h)[:, None]
    moved1, moved2 = x1[None] != x1[:, None], x2[None] != x2[:, None]
    per_node = np.select(
        [moved1 & moved2, moved1, moved2],
        [0.0, q1 * (1 - q2) + q1 * q2 / 2, (1 - q1) * q2 + q1 * q2 / 2],
        (1 - q1) * (1 - q2))
    transition = per_node.prod(axis=2)
    type1, every = np.flatnonzero(graph.types == TYPE_I), np.arange(n)
    if config.quasi_stationary:
        transition = transition @ np.kron(_reseed(n, every), _reseed(n, type1))
    start = np.kron(_start(n, every, config.initial_fraction),
                    _start(n, type1, config.initial_fraction))
    fractions = np.stack([x1.sum(axis=1), x2.sum(axis=1), (x1 & x2).sum(axis=1)], axis=1) / n
    return start, transition, fractions


def exact_means(start, transition, fractions, config):
    """Exact expected time average of each fraction over the measure window."""
    state, total = start, 0.0
    for step in range(1, config.burn_in + config.measure_steps + 1):
        state = state @ transition
        if step > config.burn_in:
            total = total + state @ fractions
    return total / config.measure_steps


def _graph(types, pairs1, pairs2):
    return MultiplexGraph(np.zeros((len(types), 2)), np.array(types, dtype=np.int8),
                          np.array(pairs1, dtype=np.int64).reshape(-1, 2),
                          np.array(pairs2, dtype=np.int64).reshape(-1, 2), Region(1.0, 1.0))


def assert_within(simulated, ses, exact):
    z = (np.asarray(simulated) - exact) / np.asarray(ses)
    assert np.all(np.abs(z) < Z_MAX), (simulated, exact, z)


# Six nodes: a 6-cycle with the chord 1-4 on layer 2, and the type-I pair
# 0-1 on both layers, so the combined channel counts it twice.
SINGLE = dict(types=[TYPE_I, TYPE_I] + [TYPE_II] * 4, pairs1=[(0, 1)],
              pairs2=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)])
# Four nodes, two of each type, the type-I ones not numbered first:
# message 1 has the single layer-1 pair 1-3, message 2 the triangle
# 1-2-3 with node 0 hanging off node 3.
DUAL = dict(types=[TYPE_II, TYPE_I, TYPE_II, TYPE_I], pairs1=[(1, 3)],
            pairs2=[(0, 3), (1, 2), (1, 3), (2, 3)])


@pytest.mark.parametrize("quasi_stationary", [True, False])
def test_chains_are_stochastic(quasi_stationary):
    config = SimConfig(time_step=0.6, initial_fraction=0.5, quasi_stationary=quasi_stationary)
    for start, transition, _ in (single_chain(_graph(**SINGLE), 0.3, config),
                                 dual_chain(_graph(**DUAL), 0.8, 0.5, config)):
        assert start.min() >= 0.0 and math.isclose(start.sum(), 1.0)
        assert transition.min() >= 0.0 and np.allclose(transition.sum(axis=1), 1.0)
    # Message 1 starts on one of the two type-I devices; message 2 on two nodes.
    start = dual_chain(_graph(**DUAL), 0.8, 0.5, config)[0]
    assert sorted(np.flatnonzero(start) % 16) == [2] * 6 + [8] * 6


@pytest.mark.parametrize("quasi_stationary, seed", [(True, 101), (False, 102)])
def test_single_matches_exact_chain(quasi_stationary, seed):
    config = SimConfig(time_step=0.5, burn_in=1, measure_steps=12, replications=REPLICATIONS,
                       seed=seed, initial_fraction=0.5, quasi_stationary=quasi_stationary)
    graph = _graph(**SINGLE)
    res = simulate_single(graph, 0.3, config)
    exact = exact_means(*single_chain(graph, 0.3, config), config)
    assert_within([res.informed_fraction_combined], [res.se_combined], exact)
    assert (res.regenerations > 0) == quasi_stationary


@pytest.mark.parametrize("quasi_stationary, seed", [(True, 103), (False, 104)])
def test_dual_matches_exact_chain(quasi_stationary, seed):
    config = SimConfig(time_step=0.6, burn_in=1, measure_steps=12, replications=REPLICATIONS,
                       seed=seed, initial_fraction=0.5, quasi_stationary=quasi_stationary)
    graph = _graph(**DUAL)
    res = simulate_dual(graph, 0.8, 0.5, config)
    exact = exact_means(*dual_chain(graph, 0.8, 0.5, config), config)
    assert_within([res.informed_fraction_1, res.informed_fraction_2, res.informed_fraction_both],
                  [res.se_1, res.se_2, res.se_both], exact)
    assert (res.regenerations > 0) == quasi_stationary
