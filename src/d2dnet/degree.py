"""Analytic degree distributions and moments for the two-layer network.

A fraction p of the deployed devices carries two radios (type I) and
participates in both connectivity layers; the rest (type II) only in
layer 2.  Deployment is a planar Poisson process with density lam per
km^2, so per-layer degrees are Poisson (mixtures) whose parameters
follow from the disk areas pi*r^2.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.special import gammaln, xlogy


class TruncationError(RuntimeError):
    """Residual probability mass beyond the truncation point is too large."""


class DegenerateModelError(ValueError):
    """Degree model has zero mean degree; no spreading is possible."""


RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class NetworkParams:
    """The four design variables of the deployment.

    p: fraction of type-I (dual-radio) devices, in [0, 1]
    lam: total device density, devices per km^2
    r1: layer-1 communication range in km
    r2: layer-2 communication range in km (r2 <= r1)
    """

    p: float
    lam: float
    r1: float
    r2: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.p, self.lam, self.r1, self.r2)):
            raise ValueError("p, lam, r1 and r2 must be finite")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.lam < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if self.r1 < 0 or self.r2 < 0:
            raise ValueError("ranges must be nonnegative")
        if self.r2 > self.r1 + 1e-12:
            raise ValueError(f"r2 ({self.r2}) must not exceed r1 ({self.r1})")

    @property
    def lam1(self) -> float:
        """Density of type-I devices."""
        return self.p * self.lam

    def mean_k1(self) -> float:
        """Expected layer-1 degree of a typical device: p^2 * lam * pi * r1^2."""
        return self.p * self.lam1 * math.pi * self.r1 ** 2

    def mean_k2(self) -> float:
        """Expected layer-2 degree of a typical device: lam * pi * r2^2."""
        return self.lam * math.pi * self.r2 ** 2

    def mean_kc(self) -> float:
        """Expected combined degree (sum of the per-layer means)."""
        return self.mean_k1() + self.mean_k2()


@dataclass(frozen=True)
class ParamBounds:
    """Box bounds for the design variables."""

    p_min: float = 0.0
    p_max: float = 1.0
    lambda_min: float = 1.0
    lambda_max: float = 15.0
    r1_min: float = 0.0
    r1_max: float = 2.0
    r2_min: float = 0.0
    r2_max: float = 0.8

    def __post_init__(self):
        pairs = [
            (self.p_min, self.p_max),
            (self.lambda_min, self.lambda_max),
            (self.r1_min, self.r1_max),
            (self.r2_min, self.r2_max),
        ]
        for lo, hi in pairs:
            if not (math.isfinite(lo) and math.isfinite(hi)) or lo < 0 or lo > hi:
                raise ValueError(f"invalid bound pair ({lo}, {hi})")
        if self.p_max > 1.0:
            raise ValueError("p_max must not exceed 1")


@dataclass(frozen=True)
class ThreatModel:
    """Threat level and transmission success probabilities.

    delta is the probability a transmission is disrupted by an attack;
    gamma is the per-slot contact rate; ps* are the per-message success
    probabilities (constant hook, defaults 1).
    """

    delta: float
    gamma: float = 1.0
    ps1: float = 1.0
    ps2: float = 1.0
    psc: float = 1.0

    def __post_init__(self):
        for name in ("delta", "ps1", "ps2", "psc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")


@dataclass(frozen=True)
class SpreadingRates:
    """Effective spreading probability per message type."""

    alpha1: float
    alpha2: float
    alphac: float

    def __post_init__(self):
        for name in ("alpha1", "alpha2", "alphac"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")


def spreading_rates(threat: ThreatModel) -> SpreadingRates:
    """Effective spreading probabilities alpha_i = gamma * (1 - delta) * ps_i."""
    base = threat.gamma * (1.0 - threat.delta)
    return SpreadingRates(
        alpha1=base * threat.ps1,
        alpha2=base * threat.ps2,
        alphac=base * threat.psc,
    )


def default_k_max(mean: float) -> int:
    """Truncation point leaving residual Poisson mass far below RESIDUAL_TOL."""
    return math.ceil(mean + 12.0 * math.sqrt(mean) + 30.0)


def _check_residual(pmf: np.ndarray, what: str) -> np.ndarray:
    residual = 1.0 - pmf.sum()
    if residual > RESIDUAL_TOL:
        raise TruncationError(
            f"{what}: residual mass {residual:.3e} exceeds {RESIDUAL_TOL:.0e}; "
            "increase k_max"
        )
    return pmf


def _check_k_max(k_max) -> None:
    if k_max is not None and (isinstance(k_max, bool) or not isinstance(k_max, numbers.Integral)
                              or k_max < 0):
        raise ValueError(f"k_max must be a nonnegative integer, got {k_max!r}")


def _poisson_pmf(mu: float, k_max: int) -> np.ndarray:
    if mu == 0.0:
        out = np.zeros(k_max + 1)
        out[0] = 1.0
        return out
    # scipy.stats.poisson.pmf's own formula, without importing scipy.stats.
    k = np.arange(k_max + 1)
    return np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)


def intra_layer_pmf(params: NetworkParams, layer: int, k_max: int | None = None) -> np.ndarray:
    """Degree pmf of a typical device in one layer, truncated at k_max.

    Layer 1 is a mixture: with probability 1-p the device is type II and
    has degree 0; otherwise its degree is Poisson(lam1 * pi * r1^2).
    Layer 2 is plain Poisson(lam * pi * r2^2): every device has a layer-2 radio.
    """
    _check_k_max(k_max)
    if layer == 1:
        mu = params.lam1 * math.pi * params.r1 ** 2
        if k_max is None:
            k_max = default_k_max(mu)
        pmf = params.p * _poisson_pmf(mu, k_max)
        pmf[0] += 1.0 - params.p
    elif layer == 2:
        mu = params.lam * math.pi * params.r2 ** 2
        if k_max is None:
            k_max = default_k_max(mu)
        pmf = _poisson_pmf(mu, k_max)
    else:
        raise ValueError(f"layer must be 1 or 2, got {layer}")
    return _check_residual(pmf, f"layer-{layer} pmf")


def combined_pmf(params: NetworkParams, k_max: int | None = None) -> np.ndarray:
    """Combined-layer degree pmf of a typical device, truncated at k_max.

    A type-II device sees Poisson(lam * pi * r2^2) neighbours.  A type-I
    device double-counts type-I neighbours within r2 (reachable in both
    layers), so its degree is 2X + Y, with X ~ Poisson(p*lam*pi*r2^2)
    and Y the sum of independent Poisson((1-p)*lam*pi*r2^2) and
    Poisson(p*lam*pi*(r1^2 - r2^2)) counts, itself Poisson with the sum
    of their means.
    """
    _check_k_max(k_max)
    mu2 = params.lam * math.pi * params.r2 ** 2
    mu_1a = params.p * params.lam * math.pi * params.r2 ** 2
    mu_2a = (1.0 - params.p) * params.lam * math.pi * params.r2 ** 2
    mu_1b = params.p * params.lam * math.pi * (params.r1 ** 2 - params.r2 ** 2)
    mean_type1 = 2.0 * mu_1a + mu_2a + mu_1b
    if k_max is None:
        k_max = default_k_max(max(mean_type1, mu2))

    pmf = (1.0 - params.p) * _poisson_pmf(mu2, k_max)
    if params.p > 0.0:
        # A degree d <= k_max needs x, y <= k_max, so truncating both
        # counts at k_max drops nothing below it.  Each entry sums its
        # terms in increasing x, an order fixed by k_max alone.
        px = _poisson_pmf(mu_1a, k_max)
        py = _poisson_pmf(mu_2a + mu_1b, k_max)
        branch = np.zeros(k_max + 1)
        for x in range(k_max // 2 + 1):
            branch[2 * x:] += px[x] * py[:k_max + 1 - 2 * x]
        pmf += params.p * branch
    return _check_residual(pmf, "combined pmf")


def pmf_moments(pmf: np.ndarray) -> tuple[float, float]:
    """First and second moments of a truncated pmf.

    Each is a fixed-order sum of elementwise products, not a BLAS dot,
    so its bits do not depend on the BLAS kernel.
    """
    k = np.arange(len(pmf), dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        mean, m2 = float(np.sum(k * pmf)), float(np.sum(k * k * pmf))
    if not (math.isfinite(mean) and math.isfinite(m2)):
        raise ValueError(f"pmf moments are not finite: E[K] = {mean}, E[K^2] = {m2}")
    return mean, m2


@dataclass(frozen=True)
class DegreeModel:
    """Truncated pmfs and moments of the three degree variables."""

    pmf_k1: np.ndarray
    pmf_k2: np.ndarray
    pmf_kc: np.ndarray
    mean_k1: float
    mean_k2: float
    mean_kc: float
    m2_k1: float
    m2_k2: float
    m2_kc: float


def degree_moments(params: NetworkParams, k_max: int | None = None) -> DegreeModel:
    """Build the full degree model for a parameter set.

    Means use the closed forms; second moments are computed from the
    truncated pmfs (no closed form is relied upon).
    """
    pmf1 = intra_layer_pmf(params, 1, k_max)
    pmf2 = intra_layer_pmf(params, 2, k_max)
    pmfc = combined_pmf(params, k_max)
    _, m2_1 = pmf_moments(pmf1)
    _, m2_2 = pmf_moments(pmf2)
    _, m2_c = pmf_moments(pmfc)
    return DegreeModel(
        pmf_k1=pmf1,
        pmf_k2=pmf2,
        pmf_kc=pmfc,
        mean_k1=params.mean_k1(),
        mean_k2=params.mean_k2(),
        mean_kc=params.mean_kc(),
        m2_k1=m2_1,
        m2_k2=m2_2,
        m2_kc=m2_c,
    )


class EpidemicThreshold(NamedTuple):
    exact: float      # E[K] / E[K^2], the bifurcation point
    relaxed: float    # 1 / E[K], the mean-degree approximation


def epidemic_threshold(model: DegreeModel, which: str) -> EpidemicThreshold:
    """Critical spreading rates for the selected degree variable.

    Returns both the exact bifurcation threshold E[K]/E[K^2] and the
    relaxed mean-degree threshold 1/E[K] (always >= exact).
    """
    table = {
        "layer1": (model.mean_k1, model.m2_k1),
        "layer2": (model.mean_k2, model.m2_k2),
        "combined": (model.mean_kc, model.m2_kc),
    }
    try:
        mean, m2 = table[which]
    except KeyError:
        raise ValueError(f"which must be one of {sorted(table)}, got {which!r}")
    if mean <= 0.0 or m2 <= 0.0:
        raise DegenerateModelError(f"{which} degree has zero mean; no spread possible")
    return EpidemicThreshold(exact=mean / m2, relaxed=1.0 / mean)


def threshold_from_pmf(pmf: np.ndarray) -> EpidemicThreshold:
    """Thresholds computed directly from a degree pmf."""
    mean, m2 = pmf_moments(pmf)
    if mean <= 0.0 or m2 <= 0.0:
        raise DegenerateModelError("degree pmf has zero mean; no spread possible")
    return EpidemicThreshold(exact=mean / m2, relaxed=1.0 / mean)
