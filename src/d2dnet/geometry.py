"""Spatial sampling of the two-layer network and empirical connectivity.

Devices are dropped by a Poisson process on a finite rectangular window
(torus-wrapped by default so degree statistics are free of boundary
deficit) and connected per layer by range thresholds.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .degree import NetworkParams

TYPE_I = 1
TYPE_II = 2


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

    Each layer is held in compressed sparse row (CSR) form as two int64
    arrays: the neighbours of node i are
    ``indices[indptr[i]:indptr[i + 1]]``, sorted ascending, and
    ``indptr`` has n + 1 entries.  Layer 1 connects type-I pairs within
    r1, layer 2 connects all pairs within r2.  Both layers are
    symmetric and irreflexive.
    """

    positions: np.ndarray          # (n, 2) km
    types: np.ndarray              # (n,) values TYPE_I / TYPE_II
    indptr1: np.ndarray            # (n + 1,)
    indices1: np.ndarray           # (2 * edges in layer 1,)
    indptr2: np.ndarray
    indices2: np.ndarray
    region: Region
    seed: int
    r1: float = 0.0
    r2: float = 0.0

    @property
    def n(self) -> int:
        return len(self.types)

    @property
    def adj1(self) -> list[np.ndarray]:
        """Per-node neighbour arrays of layer 1 (views into ``indices1``)."""
        return _rows(self.indptr1, self.indices1)

    @property
    def adj2(self) -> list[np.ndarray]:
        """Per-node neighbour arrays of layer 2 (views into ``indices2``)."""
        return _rows(self.indptr2, self.indices2)

    def edges(self, layer: int) -> tuple[np.ndarray, np.ndarray]:
        """Directed (src, dst) arrays of layer 1 or 2: every edge both ways, by (src, dst)."""
        if layer not in (1, 2):
            raise ValueError(f"layer must be 1 or 2, got {layer}")
        indptr = self.indptr1 if layer == 1 else self.indptr2
        indices = self.indices1 if layer == 1 else self.indices2
        return np.repeat(np.arange(self.n), np.diff(indptr)), indices

    def degree1(self) -> np.ndarray:
        return np.diff(self.indptr1)

    def degree2(self) -> np.ndarray:
        return np.diff(self.indptr2)

    def degree_combined(self) -> np.ndarray:
        """Per-node combined degree |N1| + |N2| (common neighbours count twice)."""
        return self.degree1() + self.degree2()


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
        # cKDTree periodic boxes require coordinates strictly inside the box.
        pos = np.mod(positions, (region.width, region.height))
        tree = cKDTree(pos, boxsize=(region.width, region.height))
    else:
        tree = cKDTree(positions)
    pairs = tree.query_pairs(radius, output_type="ndarray")
    return pairs


def _rows(indptr: np.ndarray, indices: np.ndarray) -> list[np.ndarray]:
    return np.split(indices, indptr[1:-1]) if len(indptr) > 1 else []


def _csr(n: int, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric CSR arrays (indptr, indices) from pairs (i < j), rows sorted."""
    src, dst = np.concatenate([pairs, pairs[:, ::-1]]).astype(np.int64).T
    order = np.argsort(src * n + dst)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[order]


def build_rgg(
    positions: np.ndarray,
    types: np.ndarray,
    params: NetworkParams,
    region: Region,
    seed: int = 0,
) -> MultiplexGraph:
    """Connect the sampled points into the two layers."""
    n = len(types)
    # Layer 1: type-I devices only, range r1.
    idx1 = np.flatnonzero(types == TYPE_I)
    sub_pairs = _pairs_within(positions[idx1], params.r1, region)
    pairs1 = idx1[sub_pairs]
    # Layer 2: all devices, range r2.
    pairs2 = _pairs_within(positions, params.r2, region)
    indptr1, indices1 = _csr(n, pairs1)
    indptr2, indices2 = _csr(n, pairs2)
    return MultiplexGraph(
        positions=positions,
        types=types,
        indptr1=indptr1,
        indices1=indices1,
        indptr2=indptr2,
        indices2=indices2,
        region=region,
        seed=seed,
        r1=params.r1,
        r2=params.r2,
    )


def sample_graph(params: NetworkParams, region: Region, seed: int) -> MultiplexGraph:
    """Sample a fresh deployment and build both layers."""
    positions, types = sample_ppp(params, region, seed)
    return build_rgg(positions, types, params, region, seed=seed)


@dataclass
class EmpiricalDegrees:
    """Degree histograms and sample means measured on one graph."""

    hist1: np.ndarray
    hist2: np.ndarray
    histc: np.ndarray
    mean1: float
    mean2: float
    meanc: float
    joint_kl: np.ndarray   # counts indexed [k1, k2]


def empirical_degrees(graph: MultiplexGraph) -> EmpiricalDegrees:
    """Measure per-layer and combined degree statistics over all nodes."""
    if graph.n == 0:
        raise EmptyGraphError("cannot measure degrees of an empty graph")
    d1 = graph.degree1()
    d2 = graph.degree2()
    dc = d1 + d2
    joint = np.zeros((d1.max() + 1, d2.max() + 1), dtype=np.int64)
    np.add.at(joint, (d1, d2), 1)
    return EmpiricalDegrees(
        hist1=np.bincount(d1),
        hist2=np.bincount(d2),
        histc=np.bincount(dc),
        mean1=float(d1.mean()),
        mean2=float(d2.mean()),
        meanc=float(dc.mean()),
        joint_kl=joint,
    )


def graph_to_dict(graph: MultiplexGraph) -> dict:
    """JSON-ready dump with stable key order."""

    def pairs(layer: int) -> list[list[int]]:
        # CSR order is lexicographic, so the i < j half is already sorted.
        src, dst = graph.edges(layer)
        keep = src < dst
        return np.stack([src[keep], dst[keep]], axis=1).tolist()

    return {
        "schema": 1,
        "seed": graph.seed,
        "region": {
            "width": graph.region.width,
            "height": graph.region.height,
            "wrap": graph.region.wrap,
        },
        "r1": graph.r1,
        "r2": graph.r2,
        "positions": [[float(x), float(y)] for x, y in graph.positions],
        "types": [int(t) for t in graph.types],
        "edges_layer1": pairs(1),
        "edges_layer2": pairs(2),
    }


def dump_graph(graph: MultiplexGraph, path) -> None:
    with open(path, "w") as fh:
        json.dump(graph_to_dict(graph), fh, indent=2, sort_keys=False)
        fh.write("\n")
