"""Stochastic spreading oracle: quasi-stationary estimates and determinism."""
import itertools
import math

import numpy as np
import pytest
from scipy.sparse import identity, kron

from d2dnet import (
    NetworkParams,
    Region,
    SimConfig,
    ThreatModel,
    estimate_dissemination,
    sample_graph,
    simulate_dual,
    simulate_single,
)
from d2dnet.geometry import TYPE_I, TYPE_II, MultiplexGraph
from d2dnet.montecarlo import _channel, _layer, _step


def complete_graph(n, region_side=5.0):
    """All-to-all layer-2 graph with empty layer 1."""
    rng = np.random.default_rng(0)
    positions = rng.uniform(0, region_side, size=(n, 2))
    types = np.full(n, TYPE_I, dtype=np.int8)
    pairs2 = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64)
    return MultiplexGraph(positions, types, np.empty((0, 2), dtype=np.int64), pairs2,
                          Region(region_side, region_side), seed=0)


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


class TestPackedStep:
    """The lane-packed ``_step`` against the plain (n, R) integer product."""

    @staticmethod
    def assert_matches_unpacked(graph, reps, seed):
        adjacency = _layer(graph, 1) + _layer(graph, 2)
        channel = _channel(adjacency, 0.45, np.arange(graph.n), SimConfig(replications=reps))
        mark = int(adjacency.sum(axis=1).max()) + 1
        counts = adjacency + mark * identity(graph.n, dtype=np.int32, format="csr")
        blocks = kron(counts, identity(channel.words, dtype=np.int32), format="csr")
        assert channel.blocks.dtype == np.uint64
        assert (channel.blocks != blocks).nnz == 0
        rng = np.random.default_rng(seed)
        # A half-informed state, plus the all-informed one: there the
        # highest-degree node reaches the largest index, 2 * mark - 1.
        states = [rng.random((graph.n, reps)) < 0.5, np.ones((graph.n, reps), dtype=bool)]
        for informed in states:
            packed_rng, plain_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            packed = _step(informed, channel, packed_rng)
            u = plain_rng.random(informed.shape)
            expected = u >= channel.threshold.take(counts @ informed)
            assert np.array_equal(packed, expected)
            assert packed_rng.random() == plain_rng.random()
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


class TestStepLaw:
    def test_one_step_matches_per_edge_law(self):
        # Nodes 0, 1 are type I; layer 1 is the pair 0-1 and layer 2 the
        # cycle 0-1-2-3-0, so the combined pair 0-1 has multiplicity 2.
        graph = MultiplexGraph(
            np.zeros((4, 2)), np.array([TYPE_I, TYPE_I, TYPE_II, TYPE_II], dtype=np.int8),
            np.array([[0, 1]]), np.array([[0, 1], [1, 2], [2, 3], [0, 3]]),
            Region(1.0, 1.0), seed=0)
        alpha, h, reps = 0.5, 0.3, 20_000
        channel = _channel(_layer(graph, 1) + _layer(graph, 2), alpha, np.arange(4),
                           SimConfig(time_step=h, replications=reps))
        informed = np.zeros((4, reps), dtype=bool)
        informed[[0, 2]] = True
        freq = _step(informed, channel, np.random.default_rng(1)).mean(axis=1)
        # Informed nodes stay informed unless they recover (probability h).
        # Informed-neighbour counts with multiplicity: node 1 hears node 0
        # twice and node 2 once, node 3 hears nodes 0 and 2 once each.
        expected = {0: 1 - h, 1: 1 - (1 - alpha * h) ** 3,
                    2: 1 - h, 3: 1 - (1 - alpha * h) ** 2}
        for node, e in expected.items():
            assert abs(freq[node] - e) < 5 * math.sqrt(e * (1 - e) / reps), node


class TestGoldenValues:
    """Exact results on one small seeded graph.

    Any change to the graph layout or the simulator that moves a single
    random draw changes these numbers; update them only on purpose.
    """

    GRAPH = (NetworkParams(p=0.5, lam=20.0, r1=0.7, r2=0.4), Region(3.0, 3.0), 10)
    CONFIG = SimConfig(burn_in=60, measure_steps=40, replications=3, seed=11)

    def test_graph(self):
        graph = sample_graph(*self.GRAPH)
        assert (graph.n, len(graph.indices1) // 2, len(graph.indices2) // 2) == (213, 1108, 1248)

    def test_simulate_single(self):
        res = simulate_single(sample_graph(*self.GRAPH), 0.45, self.CONFIG)
        assert res.informed_fraction_combined == 0.8237871674491393
        assert res.se_combined == 0.005097345156805718
        assert res.extinctions == 0

    def test_simulate_dual(self):
        res = simulate_dual(sample_graph(*self.GRAPH), 0.5, 0.4, self.CONFIG)
        assert res.informed_fraction_1 == 0.46240219092331764
        assert res.informed_fraction_2 == 0.729733959311424
        assert res.informed_fraction_both == 0.3362284820031298
        assert (res.se_1, res.se_2, res.se_both) == (
            0.00044090092604007875, 0.009605389165464868, 0.0063370620798127)
        assert res.extinctions == 0

    def test_estimate_dissemination(self):
        est = estimate_dissemination(
            NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5), ThreatModel(delta=0.2),
            SimConfig(burn_in=30, measure_steps=20, replications=2, seed=3), Region(3.0, 3.0))
        assert (est.t1, est.t2, est.tc) == (
            0.837513831033585, 0.9027578497200011, 0.9391724629610421)
        assert (est.lam1_hat, est.lam2_hat) == (6.333333333333334, 16.055555555555557)
        assert (est.aggregate_1, est.aggregate_2, est.aggregate_both, est.aggregate_combined) == (
            0.34246245155038757, 0.8541303294573643, 0.29596899224806195, 0.8686337209302325)


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


class TestEstimateDissemination:
    def test_full_jamming_gives_zero_estimates(self):
        params = NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5)
        config = SimConfig(burn_in=50, measure_steps=20, replications=2, seed=0)
        est = estimate_dissemination(params, ThreatModel(delta=1.0), config,
                                     Region(4.0, 4.0), run_epidemics=False)
        assert est.t1 == est.t2 == est.tc == 0.0

    def test_connectivity_estimates_track_mean_field(self):
        params = NetworkParams(p=0.4, lam=15.0, r1=1.0, r2=0.5)
        config = SimConfig(burn_in=800, measure_steps=400, replications=5, seed=1)
        est = estimate_dissemination(params, ThreatModel(delta=0.0), config,
                                     Region(8.0, 8.0), run_epidemics=True)
        # Closed-form targets implied by the analytic mean degrees.
        t1_target = max(0.0, 1 - 1 / params.mean_k1())
        t2_target = max(0.0, 1 - 1 / params.mean_k2())
        tc_target = max(0.0, 1 - 1 / params.mean_kc())
        assert est.t1 == pytest.approx(t1_target, abs=0.05)
        assert est.t2 == pytest.approx(t2_target, abs=0.05)
        assert est.tc == pytest.approx(tc_target, abs=0.05)
        assert est.aggregate_combined == pytest.approx(tc_target, abs=0.07)
