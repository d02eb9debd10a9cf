"""Spatial sampling, multiplex RGG construction and empirical degrees."""
import hashlib
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from d2dnet import NetworkParams, Region, build_rgg, empirical_degrees, sample_graph, sample_ppp
from d2dnet.geometry import TYPE_I, TYPE_II, EmptyGraphError, MultiplexGraph, _pairs_within


PARAMS = NetworkParams(p=0.4, lam=50.0, r1=1.0, r2=0.5)
REGION = Region(10.0, 10.0)


def reference_pairs(positions, types, params, region):
    """Both layers' pairs (i < j) by an O(n^2) distance check."""
    delta = np.abs(positions[:, None, :] - positions[None, :, :])
    if region.wrap:
        delta = np.minimum(delta, np.array([region.width, region.height]) - delta)
    dist = np.hypot(delta[..., 0], delta[..., 1])
    i, j = np.triu_indices(len(types), k=1)
    both_type1 = (types[i] == TYPE_I) & (types[j] == TYPE_I)
    in1 = both_type1 & (dist[i, j] <= params.r1)
    in2 = dist[i, j] <= params.r2
    return ([[int(a), int(b)] for a, b in zip(i[in1], j[in1])],
            [[int(a), int(b)] for a, b in zip(i[in2], j[in2])])


def sorted_pairs(pairs):
    """A layer's (i < j) pairs as int64, in lexicographic order."""
    return pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))].astype(np.int64)


class TestSamplePpp:
    def test_count_statistics(self):
        counts = [len(sample_ppp(PARAMS, REGION, seed)[0]) for seed in range(50)]
        expected = PARAMS.lam * REGION.area
        sigma = math.sqrt(expected / len(counts))
        assert abs(np.mean(counts) - expected) < 3 * sigma

    def test_type_thinning_fraction(self):
        positions, types = sample_ppp(PARAMS, REGION, seed=3)
        n = len(types)
        frac = np.mean(types == TYPE_I)
        sigma = math.sqrt(0.4 * 0.6 / n)
        assert abs(frac - 0.4) < 3 * sigma

    def test_zero_area_region_is_empty(self):
        positions, types = sample_ppp(PARAMS, Region(0.0, 10.0), seed=0)
        assert len(positions) == 0 and len(types) == 0

    def test_positions_inside_window(self):
        positions, _ = sample_ppp(PARAMS, REGION, seed=1)
        assert np.all(positions >= 0.0)
        assert np.all(positions[:, 0] <= REGION.width)
        assert np.all(positions[:, 1] <= REGION.height)

    def test_determinism(self):
        a = sample_ppp(PARAMS, REGION, seed=7)
        b = sample_ppp(PARAMS, REGION, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestBuildRgg:
    def test_close_dual_radio_pair_connected_in_both_layers(self):
        positions = np.array([[1.0, 1.0], [1.0, 1.09]])
        types = np.array([TYPE_I, TYPE_I], dtype=np.int8)
        params = NetworkParams(p=1.0, lam=1.0, r1=0.5, r2=0.1)
        graph = build_rgg(positions, types, params, REGION)
        assert list(graph.adj1[0]) == [1]
        assert list(graph.adj2[0]) == [1]

    def test_single_radio_devices_have_no_layer1_edges(self):
        graph = sample_graph(PARAMS, REGION, seed=11)
        assert (graph.types == TYPE_II).any()
        assert np.all(graph.degree1()[graph.types == TYPE_II] == 0)

    def test_layer2_mean_degree(self):
        means = []
        for seed in range(20):
            graph = sample_graph(PARAMS, REGION, seed)
            means.append(graph.degree2().mean())
        expected = PARAMS.lam * math.pi * PARAMS.r2**2
        # Degrees are positively correlated within a sample; allow 3 sigma
        # of the naive CLT estimate scaled by a small safety factor.
        n_typical = PARAMS.lam * REGION.area * len(means)
        sigma = math.sqrt(expected / n_typical)
        assert abs(np.mean(means) - expected) < 9 * sigma

    def test_torus_wrap_connects_opposite_edges(self):
        positions = np.array([[0.05, 5.0], [9.95, 5.0]])
        types = np.array([TYPE_II, TYPE_II], dtype=np.int8)
        params = NetworkParams(p=0.0, lam=1.0, r1=0.5, r2=0.2)
        wrapped = build_rgg(positions, types, params, Region(10.0, 10.0, wrap=True))
        flat = build_rgg(positions, types, params, Region(10.0, 10.0, wrap=False))
        assert list(wrapped.adj2[0]) == [1]
        assert list(flat.adj2[0]) == []

    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_layers_match_brute_force_reference(self, wrap, seed):
        region = Region(3.0, 2.0, wrap=wrap)
        params = NetworkParams(p=0.4, lam=20.0, r1=0.6, r2=0.35)
        positions, types = sample_ppp(params, region, seed)
        graph = build_rgg(positions, types, params, region)
        ref1, ref2 = reference_pairs(positions, types, params, region)
        assert ref1 and ref2
        for adj, degree, ref in ((graph.adj1, graph.degree1(), ref1),
                                 (graph.adj2, graph.degree2(), ref2)):
            assert len(adj) == graph.n
            assert np.array_equal(degree, [len(row) for row in adj])
            arcs = set()
            for i, row in enumerate(adj):
                assert np.all(np.diff(row) > 0)
                assert i not in row
                arcs.update((i, int(j)) for j in row)
            assert arcs == {(j, i) for i, j in arcs}
            assert sorted([i, j] for i, j in arcs if i < j) == ref
        assert sorted_pairs(graph.pairs1).tolist() == ref1
        assert sorted_pairs(graph.pairs2).tolist() == ref2

    def test_point_folded_onto_the_box_edge_is_a_torus_point(self):
        # np.mod(-1e-17, 10.0) == 10.0, which the periodic tree rejects.
        positions = np.array([[-1e-17, 5.0], [9.95, 5.0], [5.0, -1e-17], [5.0, 9.95]])
        types = np.full(4, TYPE_II, dtype=np.int8)
        params = NetworkParams(p=0.0, lam=1.0, r1=0.5, r2=0.1)
        graph = build_rgg(positions, types, params, REGION)
        assert sorted_pairs(graph.pairs2).tolist() == [[0, 1], [2, 3]]

    @pytest.mark.parametrize("positions", [
        np.array([[1.0, 1.0], [np.nan, 2.0], [3.0, 3.0]]),
        np.array([[1.0, 1.0], [2.0, np.inf], [3.0, 3.0]]),
        np.zeros((3, 3)), np.zeros(3)], ids=["nan", "inf", "three-columns", "1-d"])
    def test_rejects_positions_that_are_not_finite_n_by_2(self, positions):
        types = np.full(3, TYPE_I, dtype=np.int8)
        with pytest.raises(ValueError, match="positions"):
            build_rgg(positions, types, PARAMS, REGION)

    @pytest.mark.parametrize("n_types", [2, 4])
    def test_rejects_types_of_another_length(self, n_types):
        with pytest.raises(ValueError, match="types"):
            build_rgg(np.ones((3, 2)), np.full(n_types, TYPE_I, dtype=np.int8),
                      PARAMS, REGION)

    @pytest.mark.parametrize("region", [Region(0.0, 5.0), Region(5.0, 0.0)])
    def test_rejects_points_on_a_wrapped_region_of_zero_size(self, region):
        with pytest.raises(ValueError, match="region"):
            build_rgg(np.zeros((2, 2)), np.full(2, TYPE_I, dtype=np.int8),
                      PARAMS, region)

    @pytest.mark.parametrize("region", [Region(0.0, 5.0), Region(0.2, 0.2)])
    def test_tiny_graph_has_one_row_per_node(self, region):
        graph = sample_graph(PARAMS, region, seed=0)
        assert graph.n <= 5
        assert len(graph.degree1()) == len(graph.degree2()) == graph.n
        assert len(graph.adj1) == len(graph.adj2) == graph.n
        assert sorted_pairs(graph.pairs2).tolist() == reference_pairs(
            graph.positions, graph.types, PARAMS, region)[1]

    @pytest.mark.parametrize("n", [0, 1])
    def test_degenerate_sample_degrees_have_length_n(self, n):
        graph = build_rgg(np.full((n, 2), 2.0), np.full(n, TYPE_I, dtype=np.int8),
                          PARAMS, REGION)
        for degree in (graph.degree1(), graph.degree2()):
            assert np.array_equal(degree, np.zeros(n))
        assert len(graph.adj1) == len(graph.adj2) == n

    @pytest.mark.parametrize("pairs", [
        np.array([0, 1]), np.array([[1, 0]]), np.array([[0, 0]]),
        np.array([[0, 3]]), np.array([[-1, 1]])])
    def test_rejects_invalid_pairs(self, pairs):
        empty = np.empty((0, 2), dtype=np.int64)
        with pytest.raises(ValueError):
            MultiplexGraph(np.zeros((3, 2)), np.full(3, TYPE_I), empty, pairs, REGION)
        with pytest.raises(ValueError):
            MultiplexGraph(np.zeros((3, 2)), np.full(3, TYPE_I), pairs, empty, REGION)


def scipy_default_pairs(positions, radius, region):
    """Pairs (i < j) from a cKDTree with scipy's default settings."""
    boxsize = (region.width, region.height) if region.wrap else None
    tree = cKDTree(positions, boxsize=boxsize)
    return sorted_pairs(tree.query_pairs(radius, output_type="ndarray"))


def sampled(lam, width, seed):
    """A Poisson sample of density lam on a width x width box."""
    region = Region(width, width)
    return sample_ppp(NetworkParams(p=0.5, lam=lam, r1=0.0, r2=0.0), region, seed)[0], region


def lattice(spacing, count, width):
    """A count x count grid of points `spacing` apart in a width x width box."""
    axis = np.arange(count) * spacing
    return np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2), Region(width, width)


def coincident_clusters():
    """75 points stacked at three spots, one on the box corner, plus 100 spread."""
    spread, region = sampled(100 / 9, 3.0, seed=5)
    spots = np.repeat([[0.0, 0.0], [1.5, 1.5], [2.9, 0.1]], 25, axis=0)
    return np.concatenate([spots, spread[:100]]), region


class TestPairsWithin:
    """The pair query's tree settings move no pair: every pair set equals
    a scipy-default tree's, wrapped and flat."""

    @pytest.mark.parametrize("wrap", [True, False], ids=["wrapped", "flat"])
    @pytest.mark.parametrize("points, radius", [
        (sampled(50.0, 5.0, 1), 0.5),       # degree validation, layer 2
        (sampled(20.0, 5.0, 2), 1.0),       # degree validation, layer 1
        (sampled(15.0, 6.0, 3), 0.5),       # README simulate, layer 2
        (sampled(6.0, 6.0, 4), 1.0),        # README simulate, layer 1
        (sampled(15.0, 14.0, 5), 0.5),      # criterion-5 simulate, layer 2
        (sampled(3.9, 40.0, 6), 0.453),     # reconfig, layer 2
        (sampled(1.5, 40.0, 7), 1.132),     # reconfig, layer 1
        (sampled(20.0, 2.0, 8), 1.0),       # radius half the box
        (sampled(20.0, 2.0, 9), 1.5),       # radius past half the box
        (sampled(20.0, 2.0, 10), 2.5),      # radius past half the diagonal
        # Pairs at exactly r: axis neighbours and a 3-4-5 triangle.
        (lattice(0.25, 16, 4.0), 0.25),
        (lattice(0.25, 16, 4.0), 0.5),
        (lattice(0.25, 16, 4.0), 1.25),
        # Pairs within an ulp or two of r, as 0.1 is not a binary fraction.
        (lattice(0.1, 20, 2.0), 0.1),
        (lattice(0.1, 20, 2.0), 0.3),
        (lattice(0.1, 20, 2.0), 0.5),
        (coincident_clusters(), 0.0001),
        (coincident_clusters(), 0.3)],
        ids=["deploy-2", "deploy-1", "simulate-2", "simulate-1", "simulate-large-2",
             "reconfig-2", "reconfig-1", "half-box", "past-half-box", "past-half-diagonal",
             "exact-0.25", "exact-0.5", "exact-1.25", "near-0.1", "near-0.3", "near-0.5",
             "coincident-0.0001", "coincident-0.3"])
    def test_pairs_match_a_default_tree(self, wrap, points, radius):
        positions, region = points
        region = Region(region.width, region.height, wrap=wrap)
        expected = scipy_default_pairs(positions, radius, region)
        assert len(expected)
        assert np.array_equal(sorted_pairs(_pairs_within(positions, radius, region)),
                              expected)


class TestEmpiricalDegrees:
    def test_single_node_graph(self):
        positions = np.array([[2.0, 2.0]])
        types = np.array([TYPE_I], dtype=np.int8)
        graph = build_rgg(positions, types, PARAMS, REGION)
        emp = empirical_degrees(graph)
        assert emp.meanc == 0.0

    def test_empty_graph_raises(self):
        graph = sample_graph(PARAMS, Region(0.0, 5.0), seed=0)
        with pytest.raises(EmptyGraphError):
            empirical_degrees(graph)

    def test_histograms_sum_to_node_count(self):
        graph = sample_graph(PARAMS, REGION, seed=2)
        emp = empirical_degrees(graph)
        assert emp.hist1.sum() == graph.n
        assert emp.hist2.sum() == graph.n
        assert emp.histc.sum() == graph.n


class TestSerialization:
    @pytest.mark.parametrize("wrap, digest", [
        (True, "7bfcaac661dbf37ad7546aa0f1d432c78ea9eefa598b45d45b341986403d33b6"),
        (False, "27bb996c967b3e8dd1b4fecb72d394186ea03fe234681eb704ce9165b57ef456")],
        ids=["True", "False"])
    def test_graph_bytes_are_pinned(self, wrap, digest):
        # Each layer's pairs are hashed in lexicographic order, whatever
        # order the k-d tree query returned them in.
        graph = sample_graph(NetworkParams(p=0.3, lam=5.0, r1=0.8, r2=0.4),
                             Region(4.0, 4.0, wrap=wrap), seed=9)
        sha = hashlib.sha256()
        for array in (graph.positions, graph.types,
                      sorted_pairs(graph.pairs1), sorted_pairs(graph.pairs2)):
            sha.update(array.tobytes())
        assert sha.hexdigest() == digest

    def test_region_rejects_negative_dimensions(self):
        with pytest.raises(ValueError):
            Region(-1.0, 5.0)

    @pytest.mark.parametrize("width, height", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)])
    def test_region_rejects_non_finite_dimensions(self, width, height):
        with pytest.raises(ValueError):
            Region(width, height)
