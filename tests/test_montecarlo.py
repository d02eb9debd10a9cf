"""Stochastic spreading oracle: quasi-stationary estimates and determinism."""
import itertools
import math

import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity, kron

from d2dnet import (
    NetworkParams,
    Region,
    SimConfig,
    ThreatModel,
    sample_graph,
    simulate_dual,
    simulate_single,
    spreading_rates,
)
from d2dnet.geometry import TYPE_I, TYPE_II, MultiplexGraph
from d2dnet.montecarlo import _channel, _matvec, _step, _uniforms
from d2dnet.reconfig import _connectivity_estimate
from test_montecarlo_exact import assert_within, dual_chain, exact_means


def complete_graph(n, region_side=5.0):
    """All-to-all layer-2 graph with empty layer 1."""
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, region_side, size=(n, 2))
    types = np.full(n, TYPE_I, dtype=np.int8)
    pairs2 = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    return MultiplexGraph(positions, types, np.empty((0, 2), dtype=np.int64), pairs2,
                          Region(region_side, region_side))


class TestSimConfig:
    @pytest.mark.parametrize("fields", [
        {"burn_in": -1}, {"initial_fraction": -0.1}, {"initial_fraction": 1.5},
        {"initial_fraction": math.nan},
        # Counts must be real integers: replications also sets the lane layout.
        {"burn_in": 2.5}, {"burn_in": math.nan}, {"burn_in": True},
        {"measure_steps": 2.5}, {"measure_steps": math.nan}, {"measure_steps": True},
        {"replications": 2.5}, {"replications": math.nan}, {"replications": True}])
    def test_rejects_out_of_range_fields(self, fields):
        with pytest.raises(ValueError):
            SimConfig(**fields)

    @pytest.mark.parametrize("seed", [-1, 2.5, math.nan, True, "1"])
    def test_rejects_seed_that_is_not_a_nonnegative_integer(self, seed):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(seed=seed)

    def test_accepts_numpy_integers(self):
        assert SimConfig(replications=np.int64(3)).replications == 3
        assert SimConfig(seed=np.uint32(7)).seed == 7


README_PARAMS = NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5)


def halves(raw):
    """The 32-bit uniforms of raw words by arithmetic: each low half, then its high half."""
    return np.stack([raw & 0xFFFFFFFF, raw >> np.uint64(32)], axis=1).ravel()


def law_thresholds(alpha, h, mark):
    """ceil(t * 2^32) of each step-law threshold t, in Python integers."""
    law = [(1.0 - alpha * h) ** m for m in range(mark)] + [h] * mark
    return [math.ceil(t * 2 ** 32) for t in law]


class TestUniforms:
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 1000, 1001])
    def test_halves_of_every_raw_word(self, count):
        drawn, plain = np.random.default_rng(count), np.random.default_rng(count)
        u = _uniforms(drawn.bit_generator, count)
        raw = plain.bit_generator.random_raw(-(-count // 2))
        assert u.dtype.itemsize == 4 and u.dtype.kind == "u"
        assert np.array_equal(u, halves(raw)[:count])
        # An odd count leaves the last high half unused, not carried over.
        assert drawn.bit_generator.random_raw() == plain.bit_generator.random_raw()


class TestPackedStep:
    """The lane-packed ``_step`` against the plain (n, R) integer product."""

    @staticmethod
    def assert_matches_unpacked(graph, reps, seed):
        pairs = np.concatenate([graph.pairs1, graph.pairs2])
        channel = _channel(graph.n, pairs, 0.45, SimConfig(replications=reps))
        # The reference counts come from a dense matrix, not from _counts.
        counts = np.zeros((graph.n, graph.n), dtype=np.int64)
        np.add.at(counts, (pairs[:, 0], pairs[:, 1]), 1)
        np.add.at(counts, (pairs[:, 1], pairs[:, 0]), 1)
        mark = int(counts.sum(axis=1).max()) + 1
        counts += mark * np.eye(graph.n, dtype=np.int64)
        blocks = kron(csr_matrix(counts), identity(channel.words, dtype=np.int64), format="csr")
        assert channel.blocks.dtype == np.uint64
        assert (channel.blocks != blocks).nnz == 0
        thresholds = law_thresholds(0.45, 0.1, mark)
        assert channel.threshold.dtype == np.int64
        assert channel.threshold.tolist() == thresholds
        rng = np.random.default_rng(seed)
        # A half-informed state, plus the all-informed one: there the
        # highest-degree node reaches the largest index, 2 * mark - 1.
        states = [rng.random((graph.n, reps)) < 0.5, np.ones((graph.n, reps), dtype=bool)]
        for informed in states:
            packed_rng, plain_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            u = _uniforms(packed_rng.bit_generator, informed.size).reshape(informed.shape)
            packed = _step(informed, u, channel)
            raw = plain_rng.bit_generator.random_raw(-(-informed.size // 2))
            plain_u = halves(raw)[:informed.size].reshape(informed.shape).astype(np.int64)
            expected = plain_u >= np.array(thresholds)[counts @ informed]
            assert np.array_equal(packed, expected)
        return channel, mark

    # The words hold R uint8 lanes; the lane is the widest type that
    # still fits R of them there, so a small R reads a contiguous view.
    README_LANES = {1: np.uint64, 2: np.uint32, 4: np.uint16,
                    7: np.uint8, 8: np.uint8, 9: np.uint8, 20: np.uint8}

    @pytest.mark.parametrize("reps", list(README_LANES))
    def test_readme_graph(self, reps):
        graph = sample_graph(README_PARAMS, Region(6.0, 6.0), seed=7)
        channel, mark = self.assert_matches_unpacked(graph, reps, seed=reps)
        assert 2 * mark <= 256 and channel.words == -(-reps // 8)
        assert channel.lane == self.README_LANES[reps]

    def test_dense_graph_needs_16_bit_lanes(self):
        params = NetworkParams(p=0.4, lam=110.0, r1=1.0, r2=0.5)
        graph = sample_graph(params, Region(4.0, 4.0), seed=3)
        channel, mark = self.assert_matches_unpacked(graph, 9, seed=5)
        assert mark > 128 and channel.lane == np.uint16 and channel.words == 3


class TestMatvec:
    """``_step``'s direct CSR kernel call against the public ``@`` product."""

    # uint64, uint32, uint16 (R = 3 and 4) and uint8 lanes, in 1 to 3 words.
    LANES = {1: np.uint64, 2: np.uint32, 3: np.uint16, 4: np.uint16,
             10: np.uint8, 20: np.uint8}

    @pytest.mark.parametrize("reps", list(LANES))
    def test_lane_sums_equal_the_product(self, reps):
        graph = sample_graph(README_PARAMS, Region(6.0, 6.0), seed=7)
        channel = _channel(graph.n, np.concatenate([graph.pairs1, graph.pairs2]), 0.45,
                           SimConfig(replications=reps))
        assert channel.lane == self.LANES[reps]
        per_node = channel.words * 8 // channel.lane.itemsize
        rng = np.random.default_rng(reps)
        for informed in (rng.random((graph.n, reps)) < 0.5, np.ones((graph.n, reps), bool)):
            lanes = np.zeros((graph.n, per_node), channel.lane)
            lanes[:, :reps] = informed
            packed = lanes.view(np.uint64).ravel()
            sums = _matvec(channel.blocks, packed)
            assert sums.dtype == np.uint64
            assert np.array_equal(sums, channel.blocks @ packed)

    @pytest.mark.parametrize("reps", [1, 10])
    def test_zero_row_channel_steps(self, reps):
        channel = _channel(0, np.empty((0, 2), np.int64), 0.45, SimConfig(replications=reps))
        new = _step(np.zeros((0, reps), bool), np.zeros((0, reps), np.uint32), channel)
        assert new.shape == (0, reps) and new.dtype == bool


# Nodes 0, 1 are type I; layer 1 is the pair 0-1 and layer 2 the cycle
# 0-1-2-3-0, so the combined pair 0-1 has multiplicity 2.
FOUR_CYCLE = MultiplexGraph(
    np.zeros((4, 2)), np.array([TYPE_I, TYPE_I, TYPE_II, TYPE_II], dtype=np.int8),
    np.array([[0, 1]]), np.array([[0, 1], [1, 2], [2, 3], [0, 3]]), Region(1.0, 1.0))


class TestStepLaw:
    def test_one_step_matches_per_edge_law(self):
        alpha, h, reps = 0.5, 0.3, 20_000
        channel = _channel(4, np.concatenate([FOUR_CYCLE.pairs1, FOUR_CYCLE.pairs2]), alpha,
                           SimConfig(time_step=h, replications=reps))
        informed = np.zeros((4, reps), dtype=bool)
        informed[[0, 2]] = True
        u = _uniforms(np.random.default_rng(1).bit_generator, informed.size)
        freq = _step(informed, u.reshape(informed.shape), channel).mean(axis=1)
        # Informed nodes stay informed unless they recover (probability h).
        # Informed-neighbour counts with multiplicity: node 1 hears node 0
        # twice and node 2 once, node 3 hears nodes 0 and 2 once each.
        expected = {0: 1 - h, 1: 1 - (1 - alpha * h) ** 3,
                    2: 1 - h, 3: 1 - (1 - alpha * h) ** 2}
        for node, e in expected.items():
            assert abs(freq[node] - e) < 5 * math.sqrt(e * (1 - e) / reps), node


class TestExactEvents:
    """Events of probability 0 or 1 stay exact for the extreme uniforms."""

    # Node 0 alone is informed: node 1 hears it twice, node 3 once, and
    # node 2 hears no informed neighbour.
    INFORMED = np.array([True, False, False, False])
    EXTREMES = [0, 2 ** 32 - 1]

    def step(self, alpha, h, u):
        channel = _channel(4, np.concatenate([FOUR_CYCLE.pairs1, FOUR_CYCLE.pairs2]), alpha,
                           SimConfig(time_step=h, replications=1))
        return _step(self.INFORMED[:, None], np.full((4, 1), u, np.uint32), channel)[:, 0]

    @pytest.mark.parametrize("u", EXTREMES)
    @pytest.mark.parametrize("alpha, h", [(1.0, 1.0), (0.5, 0.3), (1.0, 0.01)])
    def test_no_informed_neighbour_is_never_informed(self, alpha, h, u):
        assert not self.step(alpha, h, u)[2]

    @pytest.mark.parametrize("u", EXTREMES)
    def test_certain_transmission_informs_every_exposed_node(self, u):
        assert self.step(1.0, 1.0, u)[[1, 3]].all()

    @pytest.mark.parametrize("u", EXTREMES)
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
    def test_unit_step_recovers_every_informed_node(self, alpha, u):
        assert not self.step(alpha, 1.0, u)[0]


class TestGoldenValues:
    """Exact results on one small seeded graph.

    Any change to the graph layout or the simulator that moves a single
    random draw changes these numbers; update them only on purpose.
    """

    GRAPH = (NetworkParams(p=0.5, lam=20.0, r1=0.7, r2=0.4), Region(3.0, 3.0), 10)

    @staticmethod
    def config(reps):
        return SimConfig(burn_in=60, measure_steps=40, replications=reps, seed=11)

    def test_graph(self):
        graph = sample_graph(*self.GRAPH)
        assert (graph.n, len(graph.pairs1), len(graph.pairs2)) == (213, 1108, 1248)

    # R = 1 steps on a single uint64 lane per node, R = 3 on uint16 lanes.
    def test_simulate_single(self):
        for reps, fraction, se in ((1, 0.8204225352112676, 0.0),
                                   (3, 0.8276212832550861, 0.002805739928677244)):
            res = simulate_single(sample_graph(*self.GRAPH), 0.45, self.config(reps))
            assert res.informed_fraction_combined == fraction, reps
            assert res.se_combined == se, reps
            assert res.extinctions == 0, reps

    def test_simulate_dual(self):
        for reps, fractions, ses in (
                (1, (0.4570422535211267, 0.7438967136150236, 0.34049295774647886),
                 (0.0, 0.0, 0.0)),
                (3, (0.4553990610328638, 0.7354460093896712, 0.33802816901408445),
                 (0.005776667331408691, 0.015421808697512968, 0.010849244500205961))):
            res = simulate_dual(sample_graph(*self.GRAPH), 0.5, 0.4, self.config(reps))
            assert (res.informed_fraction_1, res.informed_fraction_2,
                    res.informed_fraction_both) == fractions, reps
            assert (res.se_1, res.se_2, res.se_both) == ses, reps
            assert res.extinctions == 0, reps


class TestSimulateSingle:
    def test_no_transmission_goes_extinct(self):
        graph = sample_graph(NetworkParams(p=0.3, lam=20.0, r1=0.6, r2=0.4),
                             Region(4.0, 4.0), seed=1)
        config = SimConfig(burn_in=300, measure_steps=100, replications=5,
                           quasi_stationary=False, seed=1)
        res = simulate_single(graph, alpha=0.0, config=config)
        assert res.informed_fraction_combined == 0.0
        assert res.extinctions == config.replications

    def test_complete_graph_matches_deterministic_degree_theory(self):
        graph = complete_graph(50)
        # High alpha*degree needs a fine step or the per-step infection
        # probability saturates and biases the plateau down.
        config = SimConfig(time_step=0.01, burn_in=4000, measure_steps=1500,
                           replications=10, seed=2)
        res = simulate_single(graph, alpha=0.5, config=config)
        expected = 1.0 - 1.0 / (0.5 * 49)
        assert res.informed_fraction_combined == pytest.approx(expected, abs=0.05)

    def test_determinism(self):
        graph = sample_graph(NetworkParams(p=0.3, lam=30.0, r1=0.6, r2=0.4),
                             Region(4.0, 4.0), seed=5)
        config = SimConfig(burn_in=200, measure_steps=100, replications=4, seed=9)
        a = simulate_single(graph, 0.4, config)
        b = simulate_single(graph, 0.4, config)
        assert a.informed_fraction_combined == b.informed_fraction_combined
        assert a.se_combined == b.se_combined
        assert a.extinctions == b.extinctions

    def test_replication_scaling_shrinks_standard_error(self):
        graph = sample_graph(NetworkParams(p=0.3, lam=40.0, r1=0.6, r2=0.4),
                             Region(4.0, 4.0), seed=3)
        base = SimConfig(burn_in=300, measure_steps=200, replications=60, seed=4)
        doubled = SimConfig(burn_in=300, measure_steps=200, replications=120, seed=4)
        se1 = simulate_single(graph, 0.35, base).se_combined
        se2 = simulate_single(graph, 0.35, doubled).se_combined
        ratio = se2 / se1
        assert ratio == pytest.approx(1 / math.sqrt(2), rel=0.2)

    def test_regenerations_counted(self):
        graph = sample_graph(NetworkParams(p=0.3, lam=20.0, r1=0.6, r2=0.4),
                             Region(3.0, 3.0), seed=6)
        config = SimConfig(burn_in=100, measure_steps=50, replications=4, seed=6)
        res = simulate_single(graph, 1e-4, config)
        assert res.regenerations > 0
        assert res.regenerations >= res.extinctions

    def test_timeseries_shape(self):
        graph = sample_graph(NetworkParams(p=0.3, lam=20.0, r1=0.6, r2=0.4),
                             Region(3.0, 3.0), seed=6)
        config = SimConfig(burn_in=50, measure_steps=40, replications=3,
                           record_timeseries=True, seed=6)
        res = simulate_single(graph, 0.5, config)
        assert res.timeseries.shape == (3, 90, 1)


class TestSimulateDual:
    def test_dead_layer1_message(self):
        graph = sample_graph(NetworkParams(p=0.4, lam=30.0, r1=0.8, r2=0.4),
                             Region(4.0, 4.0), seed=7)
        config = SimConfig(burn_in=200, measure_steps=100, replications=4,
                           quasi_stationary=False, seed=7)
        res = simulate_dual(graph, alpha1=0.0, alpha2=0.6, config=config)
        assert res.informed_fraction_1 == 0.0
        assert res.informed_fraction_both == 0.0
        assert res.informed_fraction_2 > 0.0

    def test_symmetric_layers_agree_within_noise(self):
        # All devices dual-radio with equal ranges makes the two layers
        # exchangeable up to the independent message dynamics.
        graph = sample_graph(NetworkParams(p=1.0, lam=25.0, r1=0.5, r2=0.5),
                             Region(5.0, 5.0), seed=8)
        config = SimConfig(burn_in=800, measure_steps=400, replications=10, seed=8)
        res = simulate_dual(graph, 0.5, 0.5, config)
        pooled = math.hypot(res.se_1, res.se_2)
        assert abs(res.informed_fraction_1 - res.informed_fraction_2) < 2 * pooled + 1e-9

    def test_determinism(self):
        graph = sample_graph(NetworkParams(p=0.5, lam=20.0, r1=0.7, r2=0.4),
                             Region(3.0, 3.0), seed=10)
        config = SimConfig(burn_in=150, measure_steps=80, replications=3, seed=11)
        a = simulate_dual(graph, 0.5, 0.4, config)
        b = simulate_dual(graph, 0.5, 0.4, config)
        assert a.informed_fraction_both == b.informed_fraction_both
        assert a.informed_fraction_1 == b.informed_fraction_1

    def test_message_1_never_informs_a_type_ii_device(self):
        graph = sample_graph(NetworkParams(p=0.3, lam=30.0, r1=0.8, r2=0.4),
                             Region(3.0, 3.0), seed=12)
        share1 = np.count_nonzero(graph.types == TYPE_I) / graph.n
        config = SimConfig(burn_in=50, measure_steps=50, replications=5, seed=12,
                           initial_fraction=1.0, record_timeseries=True)
        series = simulate_dual(graph, 1.0, 1.0, config).timeseries
        # Message 1 starts on every type-I device and never gets further.
        assert series[..., 0].max() <= share1 < series[..., 1].max()
        assert np.all(series[..., 2] <= series[..., 0])

    def test_rejects_layer_1_pair_with_a_type_ii_device(self):
        graph = MultiplexGraph(np.zeros((3, 2)), np.array([TYPE_I, TYPE_II, TYPE_I], np.int8),
                               np.array([[0, 1]]), np.array([[0, 1], [1, 2]]), Region(1.0, 1.0))
        with pytest.raises(ValueError, match="type-I"):
            simulate_dual(graph, 0.5, 0.5, SimConfig())

    def test_no_type_i_device_runs_message_2_alone(self):
        # With n1 = 0 message 1 draws nothing and never meets message 2,
        # so message 2 replays the single message on layer 2 draw for draw.
        graph = sample_graph(NetworkParams(p=0.0, lam=30.0, r1=0.8, r2=0.4),
                             Region(3.0, 3.0), seed=13)
        config = SimConfig(burn_in=100, measure_steps=60, replications=3, seed=13)
        dual = simulate_dual(graph, 0.7, 0.4, config)
        single = simulate_single(graph, 0.4, config)
        assert (dual.informed_fraction_1, dual.informed_fraction_both, dual.se_1) == (0.0, 0.0, 0.0)
        assert dual.informed_fraction_2 == single.informed_fraction_combined
        assert dual.se_2 == single.se_combined
        assert dual.extinctions == config.replications
        assert dual.regenerations == single.regenerations

    def test_only_type_i_devices_match_exact_chain(self):
        # n1 = n: message 1's rows are every node, numbered as stored.
        graph = MultiplexGraph(np.zeros((3, 2)), np.full(3, TYPE_I, np.int8),
                               np.array([[0, 1], [1, 2]]), np.array([[0, 1], [0, 2]]),
                               Region(1.0, 1.0))
        config = SimConfig(time_step=0.6, burn_in=1, measure_steps=12, replications=10_000,
                           seed=105, initial_fraction=0.5)
        res = simulate_dual(graph, 0.8, 0.5, config)
        exact = exact_means(*dual_chain(graph, 0.8, 0.5, config), config)
        assert_within([res.informed_fraction_1, res.informed_fraction_2,
                       res.informed_fraction_both], [res.se_1, res.se_2, res.se_both], exact)


class TestEstimateDissemination:
    """The mission loop's connectivity estimate on sampled graphs."""

    PARAMS = NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5)

    def test_full_jamming_gives_zero_estimates(self):
        graph = sample_graph(self.PARAMS, Region(4.0, 4.0), seed=0)
        t1, t2, tc, _, _ = _connectivity_estimate(graph, spreading_rates(ThreatModel(delta=1.0)))
        assert t1 == t2 == tc == 0.0

    def test_connectivity_estimates_track_mean_field(self):
        rates = spreading_rates(ThreatModel(delta=0.0))
        seeds = [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(1).spawn(5)]
        t1, t2, tc = np.mean([
            _connectivity_estimate(sample_graph(self.PARAMS, Region(8.0, 8.0), seed), rates)[:3]
            for seed in seeds], axis=0)
        # Closed-form targets implied by the analytic mean degrees.
        assert t1 == pytest.approx(max(0.0, 1 - 1 / self.PARAMS.mean_k1()), abs=0.05)
        assert t2 == pytest.approx(max(0.0, 1 - 1 / self.PARAMS.mean_k2()), abs=0.05)
        assert tc == pytest.approx(max(0.0, 1 - 1 / self.PARAMS.mean_kc()), abs=0.05)
