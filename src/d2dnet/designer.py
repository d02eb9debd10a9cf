"""Cost-minimal network design against mission dissemination thresholds.

The mission thresholds on informed proportions translate (via the
closed-form equilibrium bound) into minimum mean-degree requirements;
the deployment-plus-power cost is minimised over (p, lam, r1, r2)
subject to those requirements, r1 >= r2 and box bounds.  For fixed
(p, lam) the cost rises in both ranges, so the cheapest ranges have a
closed form (the combined requirement, when it binds, leaves a 1-D
convex split between the layers).  What remains is a 2-D search over
the (p, lam) box: a dense grid, a few zooms and one bounded polish.  An
exhaustive 4-d grid oracle is kept for validation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .degree import NetworkParams, ParamBounds, ThreatModel, spreading_rates


class UnattainableThresholdError(ValueError):
    """Threshold of 1 (or zero spreading rate) cannot be met by any design."""


@dataclass(frozen=True)
class MissionSpec:
    """Dissemination thresholds, threat, bounds, and cost weights."""

    t1: float
    t2: float
    tc: float
    threat: ThreatModel
    bounds: ParamBounds
    w1: float = 100.0
    w2: float = 50.0
    c: float = 100.0
    eta: float = 4.0

    def __post_init__(self):
        for name in ("t1", "t2", "tc"):
            v = getattr(self, name)
            if not 0.0 <= v < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {v}")
        # The closed-form range solve needs a cost that rises in r1 and r2.
        if not (math.isfinite(self.eta) and self.eta >= 2):
            raise ValueError(f"eta must be finite and >= 2, got {self.eta}")
        for name in ("w1", "w2", "c"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")

    def required_degrees(self) -> tuple[float, float, float]:
        """Minimum (E[K1], E[K2], E[Kc]) implied by the thresholds."""
        rates = spreading_rates(self.threat)
        return (
            threshold_map(self.t1, rates.alpha1),
            threshold_map(self.t2, rates.alpha2),
            threshold_map(self.tc, rates.alphac),
        )


@dataclass(frozen=True)
class DesignSolution:
    params: NetworkParams | None
    cost: float
    slacks: dict[str, float]
    active_set: tuple[str, ...]
    status: str                    # "optimal" or "infeasible"


def threshold_map(t: float, alpha: float) -> float:
    """Mean degree required to sustain informed proportion t: 1/(alpha*(1-t))."""
    if not 0.0 <= t < 1.0:
        raise UnattainableThresholdError(f"threshold must be in [0, 1), got {t}")
    if alpha <= 0.0:
        raise UnattainableThresholdError("zero spreading rate cannot meet any threshold")
    return 1.0 / (alpha * (1.0 - t))


def cost(params: NetworkParams, mission: MissionSpec) -> float:
    """Deployment cost plus operating power cost per unit area (ranges in km)."""
    return _cost_xyzw(params.p, params.lam, params.r1, params.r2, mission)


def _cost_xyzw(p, lam, r1, r2, mission: MissionSpec):
    deploy = mission.w1 * p * lam + mission.w2 * (1.0 - p) * lam
    power = mission.c * (p * lam * r1 ** mission.eta + lam * r2 ** mission.eta)
    return deploy + power


def _mean_degrees(p, lam, r1, r2):
    k1 = p * p * lam * math.pi * r1 * r1
    k2 = lam * math.pi * r2 * r2
    return k1, k2, k1 + k2


def feasible(params: NetworkParams, mission: MissionSpec) -> dict[str, float]:
    """Constraint residuals; nonnegative slack means satisfied."""
    req1, req2, reqc = mission.required_degrees()
    k1, k2, kc = _mean_degrees(params.p, params.lam, params.r1, params.r2)
    b = mission.bounds
    return {
        "combined": kc - reqc,
        "layer1": k1 - req1,
        "layer2": k2 - req2,
        "p_box": min(params.p - b.p_min, b.p_max - params.p),
        "lambda_box": min(params.lam - b.lambda_min, b.lambda_max - params.lam),
        "r1_box": min(params.r1 - b.r1_min, b.r1_max - params.r1),
        "r2_box": min(params.r2 - b.r2_min, b.r2_max - params.r2),
        "range_order": params.r1 - params.r2,
    }


def _corner_params(bounds: ParamBounds) -> tuple[float, float, float, float]:
    # Mean degrees are nondecreasing in every variable, so the box corner
    # certifies (in)feasibility exactly.
    r1 = bounds.r1_max
    r2 = min(bounds.r2_max, r1)
    return bounds.p_max, bounds.lambda_max, r1, r2


def certify_infeasible(mission: MissionSpec) -> list[str]:
    """Names of degree constraints violated even at the box corner."""
    try:
        req1, req2, reqc = mission.required_degrees()
    except UnattainableThresholdError:
        return ["combined", "layer1", "layer2"]
    k1, k2, kc = _mean_degrees(*_corner_params(mission.bounds))
    violated = []
    if kc < reqc:
        violated.append("combined")
    if k1 < req1:
        violated.append("layer1")
    if k2 < req2:
        violated.append("layer2")
    return violated


_ACTIVE_REL = 1e-6


def _solution_from_point(x, mission: MissionSpec) -> DesignSolution:
    p, lam, r1, r2 = x
    params = NetworkParams(p=p, lam=lam, r1=r1, r2=max(0.0, min(r2, r1)))
    slacks = feasible(params, mission)
    req1, req2, reqc = mission.required_degrees()
    scale = {
        "combined": reqc, "layer1": req1, "layer2": req2,
        "p_box": max(mission.bounds.p_max, 1e-9),
        "lambda_box": mission.bounds.lambda_max,
        "r1_box": max(mission.bounds.r1_max, 1e-9),
        "r2_box": max(mission.bounds.r2_max, 1e-9),
        "range_order": max(mission.bounds.r1_max, 1e-9),
    }
    active = tuple(
        name for name, s in slacks.items() if s < _ACTIVE_REL * scale[name]
    )
    return DesignSolution(
        params=params,
        cost=cost(params, mission),
        slacks=slacks,
        active_set=active,
        status="optimal",
    )


_GRID = 129        # points per axis of the first (p, lam) grid
_ZOOM_GRID = 17    # points per axis of each zoomed grid
_ZOOMS = 3


def _ranges(mission: MissionSpec, p, lam):
    """Cheapest squared ranges (a, b) = (r1^2, r2^2) at each (p, lam).

    The range cost p*a^q + b^q (q = eta/2 >= 1) rises in a and b, so the
    per-layer and box lower bounds (with a >= b) are optimal unless the
    combined requirement p^2*a + b >= S fails there.  Then it binds, and
    along p^2*a + b = S the cost is convex in b with its stationary point
    at b = k*S/(p^2 + k), k = p^(-1/(q-1)) >= 1 because p <= 1 (for q = 1
    the cost falls in b).  That point is never below S/(1 + p^2), where
    a = b, so clamped to the feasible interval it is always the upper
    end: layer 2 takes as much of S as r2 <= r1, r2_max and the layer-1
    lower bound allow.  Infeasible (p, lam) get nan.
    """
    req1, req2, reqc = mission.required_degrees()
    box = mission.bounds
    a_hi, b_hi = box.r1_max ** 2, box.r2_max ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        pp = p * p
        area = lam * math.pi
        a_lo = np.maximum(box.r1_min ** 2, req1 / (pp * area))
        b_lo = np.maximum(box.r2_min ** 2, req2 / area)
        s = reqc / area
        a = np.maximum(a_lo, b_lo)
        binds = pp * a + b_lo < s
        b_line = np.minimum(np.minimum(b_hi, s - pp * a_lo), s / (1.0 + pp))
        a_line = (s - b_line) / pp
        ok = np.where(binds, np.maximum(b_lo, s - pp * a_hi) <= b_line,
                      (a <= a_hi) & (b_lo <= b_hi))
    a = np.where(binds, a_line, a)
    b = np.where(binds, b_line, b_lo)
    return np.where(ok, a, np.nan), np.where(ok, b, np.nan)


def _reduced_cost(mission: MissionSpec, p, lam):
    """Cost at the cheapest ranges for each (p, lam); inf where infeasible."""
    a, b = _ranges(mission, p, lam)
    total = _cost_xyzw(p, lam, np.sqrt(a), np.sqrt(b), mission)
    return np.where(np.isnan(total), math.inf, total)


def _search(mission: MissionSpec) -> np.ndarray | None:
    """Minimise the reduced cost over the (p, lam) box: grid, zoom, polish."""
    b = mission.bounds
    box_lo = np.array([b.p_min, b.lambda_min])
    box_hi = np.array([b.p_max, b.lambda_max])
    lo, hi, n = box_lo, box_hi, _GRID
    best_x, best_cost = None, math.inf
    for _ in range(_ZOOMS + 1):
        ps = np.linspace(lo[0], hi[0], n)
        lams = np.linspace(lo[1], hi[1], n)
        costs = _reduced_cost(mission, ps[:, None], lams[None, :])
        i, j = np.unravel_index(np.argmin(costs), costs.shape)
        if costs[i, j] < best_cost:
            best_x, best_cost = np.array([ps[i], lams[j]]), float(costs[i, j])
        if best_x is None:
            return None
        # Zoom to the grid cells around the argmin.
        lo = np.array([ps[max(i - 1, 0)], lams[max(j - 1, 0)]])
        hi = np.array([ps[min(i + 1, n - 1)], lams[min(j + 1, n - 1)]])
        n = _ZOOM_GRID
    # Simplex edges of one cell of a further zoom, pointing into the box.
    step = (hi - lo) / (n - 1)
    step = np.where(best_x + step <= box_hi, step, -step)
    res = minimize(
        lambda x: float(_reduced_cost(mission, x[0], x[1])),
        best_x,
        method="Nelder-Mead",
        bounds=list(zip(box_lo, box_hi)),
        options={
            "initial_simplex": [best_x, best_x + [step[0], 0.0], best_x + [0.0, step[1]]],
            "xatol": 1e-9, "fatol": 1e-12 * best_cost,
        },
    )
    return res.x if res.fun < best_cost else best_x


def _infeasible(mission: MissionSpec, violated) -> DesignSolution:
    p, lam, r1, r2 = _corner_params(mission.bounds)
    corner = NetworkParams(p=p, lam=lam, r1=r1, r2=r2)
    return DesignSolution(
        params=None,
        cost=math.inf,
        slacks=feasible(corner, mission),
        active_set=tuple(violated),
        status="infeasible",
    )


def optimize(mission: MissionSpec) -> DesignSolution:
    """Minimize the cost over (p, lam, r1, r2) subject to the mission.

    Infeasibility is certified exactly at the box corner (the degree
    expressions are monotone in every variable).  Otherwise the ranges
    are solved in closed form for each (p, lam) (see ``_ranges``), and
    the reduced cost is minimised over the (p, lam) box by a dense grid,
    a few zooms around its argmin and one bounded Nelder-Mead polish.
    The search is deterministic and uses no random starts.
    """
    violated = certify_infeasible(mission)
    if violated:
        return _infeasible(mission, violated)
    x = _search(mission)
    if x is None:
        # The corner certificate passed, so only r2_min > r1_max is left:
        # no design has r1 >= r2.
        return _infeasible(mission, ("range_order",))
    p, lam = float(x[0]), float(x[1])
    a, b = _ranges(mission, p, lam)
    return _solution_from_point((p, lam, math.sqrt(a), math.sqrt(b)), mission)


def grid_oracle(mission: MissionSpec, n: int = 40, refine: int = 1) -> DesignSolution:
    """Exhaustive box grid search with local refinement; the trusted baseline."""
    b = mission.bounds
    if certify_infeasible(mission) or b.r2_min > b.r1_max:
        return optimize(mission)   # same certificate or "range_order" answer
    req1, req2, reqc = mission.required_degrees()
    lo = np.array([b.p_min, b.lambda_min, b.r1_min, b.r2_min])
    hi = np.array([b.p_max, b.lambda_max, b.r1_max, b.r2_max])

    best_x = None
    best_cost = math.inf
    for _ in range(refine + 1):
        axes = [np.linspace(lo[i], hi[i], n) for i in range(4)]
        pp, ll, rr1, rr2 = np.meshgrid(*axes, indexing="ij", sparse=True)
        k1 = pp * pp * ll * math.pi * rr1 * rr1
        k2 = ll * math.pi * rr2 * rr2
        ok = (k1 >= req1) & (k2 >= req2) & (k1 + k2 >= reqc) & (rr1 >= rr2)
        if not ok.any():
            # Feasible set exists but is thinner than the grid; shrink toward
            # the corner where feasibility is certified.
            lo = 0.5 * (lo + hi)
            hi = np.array(_corner_params(b))[[0, 1, 2, 3]]
            continue
        costs = np.where(
            ok, _cost_xyzw(pp, ll, rr1, rr2, mission), math.inf
        )
        flat = np.argmin(costs)
        idx = np.unravel_index(flat, costs.shape)
        x = np.array([axes[i][idx[i]] for i in range(4)])
        if costs[idx] < best_cost:
            best_cost = float(costs[idx])
            best_x = x
        # Refine in a one-cell neighbourhood of the incumbent.
        span = (hi - lo) / (n - 1)
        lo = np.maximum(lo, x - span)
        hi = np.minimum(hi, x + span)
    if best_x is None:
        return optimize(mission)
    return _solution_from_point(best_x, mission)


@dataclass(frozen=True)
class SweepRow:
    value: float
    solution: DesignSolution


def sweep(mission: MissionSpec, variable: str, grid) -> list[SweepRow]:
    """Re-optimize along a parameter sweep; infeasible points are recorded.

    variable: "delta" (threat level), "tc" (network-wide threshold) or
    "t_intra" (both intra-layer thresholds together).
    """
    rows = []
    for value in grid:
        if variable == "delta":
            m = replace(mission, threat=replace(mission.threat, delta=float(value)))
        elif variable == "tc":
            m = replace(mission, tc=float(value))
        elif variable == "t_intra":
            m = replace(mission, t1=float(value), t2=float(value))
        else:
            raise ValueError(f"unknown sweep variable {variable!r}")
        rows.append(SweepRow(value=float(value), solution=optimize(m)))
    return rows
