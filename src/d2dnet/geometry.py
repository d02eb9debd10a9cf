"""Spatial sampling of the two-layer network and empirical connectivity.

Devices are dropped by a Poisson process on a finite rectangular window
(torus-wrapped by default so degree statistics are free of boundary
deficit) and connected per layer by range thresholds.  Each layer is
kept only as the (i < j) pair array of a k-d tree query; degrees and
every other view of the graph are computed from those pairs.

The k-d trees use sliding-midpoint splits on uncompacted node boxes
with 10-point leaves (``_TREE``).  These settings change which tree
nodes a query visits, not which pairs it returns: the pair sets are
those of a scipy-default ``cKDTree`` query.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .degree import NetworkParams

TYPE_I = 1
TYPE_II = 2

# cKDTree settings for every pair query.  scipy's defaults (median
# splits, node boxes shrunk to the data, 16-point leaves) visit more
# node pairs on this package's sparse graphs (2.5-6 neighbours per
# node); sliding-midpoint splits with 10-point leaves cut the pair
# query's time by about a fifth there and by a few percent on dense
# ones.  A smaller leaf helps sparse graphs and hurts dense ones, so
# re-time both before changing leafsize.
_TREE = {"leafsize": 10, "balanced_tree": False, "compact_nodes": False}


class EmptyGraphError(ValueError):
    """Operation requires a graph with at least one node."""


@dataclass(frozen=True)
class Region:
    """Finite observation window in km; wrap=True uses the torus metric."""

    width: float
    height: float
    wrap: bool = True

    def __post_init__(self):
        if not (np.isfinite(self.width) and np.isfinite(self.height)):
            raise ValueError("region dimensions must be finite")
        # Zero area is allowed and yields an empty sample.
        if self.width < 0 or self.height < 0:
            raise ValueError("region dimensions must be nonnegative")

    @property
    def area(self) -> float:
        return self.width * self.height


@dataclass
class MultiplexGraph:
    """A sampled point set with per-device type and two adjacency layers.

    Each layer is stored as an (m, 2) int64 array of index pairs (i, j),
    i < j, one row per undirected edge, in no particular order (as the
    k-d tree pair query returns them).  Layer 1 connects type-I pairs
    within r1, layer 2 connects all pairs within r2; both are symmetric
    and irreflexive.  The pairs are the graph's only stored form:
    degrees are counted from them, and the Monte Carlo oracle builds its
    counts matrix from them.
    """

    positions: np.ndarray          # (n, 2) km
    types: np.ndarray              # (n,) values TYPE_I / TYPE_II
    pairs1: np.ndarray             # (edges in layer 1, 2), i < j
    pairs2: np.ndarray             # (edges in layer 2, 2), i < j
    region: Region

    def __post_init__(self):
        for pairs in (self.pairs1, self.pairs2):
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise ValueError(f"pairs must have shape (m, 2), got {pairs.shape}")
            if len(pairs) and not (pairs.min() >= 0 and pairs.max() < self.n
                                   and (pairs[:, 0] < pairs[:, 1]).all()):
                raise ValueError("pairs must be node indices (i, j) with i < j < n")

    @property
    def n(self) -> int:
        return len(self.types)

    @property
    def adj1(self) -> list[np.ndarray]:
        """Per-node neighbour arrays of layer 1, each sorted ascending."""
        return _rows(self.n, self.pairs1)

    @property
    def adj2(self) -> list[np.ndarray]:
        """Per-node neighbour arrays of layer 2, each sorted ascending."""
        return _rows(self.n, self.pairs2)

    def degree1(self) -> np.ndarray:
        return np.bincount(self.pairs1.ravel(), minlength=self.n)

    def degree2(self) -> np.ndarray:
        return np.bincount(self.pairs2.ravel(), minlength=self.n)


def sample_ppp(
    params: NetworkParams, region: Region, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample device positions and types.

    The count is Poisson(lam * area), positions are i.i.d. uniform on
    the window, and each device is independently type I with
    probability p (thinning).
    """
    rng = np.random.default_rng(seed)
    n = rng.poisson(params.lam * region.area)
    positions = np.empty((n, 2))
    positions[:, 0] = rng.uniform(0.0, region.width, n)
    positions[:, 1] = rng.uniform(0.0, region.height, n)
    types = np.where(rng.random(n) < params.p, TYPE_I, TYPE_II).astype(np.int8)
    return positions, types


def _pairs_within(
    positions: np.ndarray, radius: float, region: Region
) -> np.ndarray:
    """Index pairs (i < j) at distance <= radius, torus-aware."""
    if len(positions) < 2 or radius <= 0.0:
        return np.empty((0, 2), dtype=np.int64)
    if region.wrap:
        # cKDTree periodic boxes require coordinates in [0, size).  np.mod
        # rounds a tiny negative coordinate up to the size itself, which
        # is the same torus point as 0.
        box = np.array([region.width, region.height])
        pos = np.mod(positions, box)
        pos[pos == box] = 0.0
        tree = cKDTree(pos, boxsize=box, **_TREE)
    else:
        tree = cKDTree(positions, **_TREE)
    return tree.query_pairs(radius, output_type="ndarray")


def _rows(n: int, pairs: np.ndarray) -> list[np.ndarray]:
    """Neighbours of each of n nodes from pairs (i < j), rows sorted."""
    if n == 0:
        return []
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).T
    order = np.lexsort((dst, src))
    return np.split(dst[order], np.cumsum(np.bincount(src, minlength=n))[:-1])


def build_rgg(
    positions: np.ndarray,
    types: np.ndarray,
    params: NetworkParams,
    region: Region,
) -> MultiplexGraph:
    """Connect the sampled points into the two layers.

    Raises ValueError if positions is not a finite (n, 2) array, if
    types does not have length n, or if two or more points lie on a
    wrapped region of zero width or height.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != 2 or not np.isfinite(positions).all():
        raise ValueError(f"positions must be a finite (n, 2) array, got shape {positions.shape}")
    n = len(positions)
    if np.shape(types) != (n,):
        raise ValueError(f"types must have length n = {n}, got shape {np.shape(types)}")
    if region.wrap and n >= 2 and min(region.width, region.height) == 0.0:
        raise ValueError(f"region must have positive width and height to wrap "
                         f"{n} points, got {region.width} x {region.height} km")
    # Layer 1: type-I devices only, range r1.  idx1 is ascending, so
    # mapping the sub-sample's pairs back keeps i < j.
    idx1 = np.flatnonzero(types == TYPE_I)
    pairs1 = idx1[_pairs_within(positions[idx1], params.r1, region)]
    # Layer 2: all devices, range r2.
    pairs2 = _pairs_within(positions, params.r2, region)
    return MultiplexGraph(
        positions=positions,
        types=types,
        pairs1=pairs1,
        pairs2=pairs2,
        region=region,
    )


def sample_graph(params: NetworkParams, region: Region, seed: int) -> MultiplexGraph:
    """Sample a fresh deployment and build both layers."""
    positions, types = sample_ppp(params, region, seed)
    return build_rgg(positions, types, params, region)


@dataclass
class EmpiricalDegrees:
    """Degree histograms and the mean combined degree of one graph."""

    hist1: np.ndarray
    hist2: np.ndarray
    histc: np.ndarray
    meanc: float


def empirical_degrees(graph: MultiplexGraph) -> EmpiricalDegrees:
    """Measure the degree histograms and the mean combined degree over all nodes."""
    if graph.n == 0:
        raise EmptyGraphError("cannot measure degrees of an empty graph")
    d1 = graph.degree1()
    d2 = graph.degree2()
    dc = d1 + d2
    return EmpiricalDegrees(
        hist1=np.bincount(d1),
        hist2=np.bincount(d2),
        histc=np.bincount(dc),
        meanc=float(dc.mean()),
    )
