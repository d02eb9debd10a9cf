"""Cost-minimal network design against mission dissemination thresholds.

The mission thresholds on informed proportions translate (via the
closed-form equilibrium bound) into minimum mean-degree requirements;
the deployment-plus-power cost is minimised over (p, lam, r1, r2)
subject to those requirements, r1 >= r2 and box bounds.  For fixed
(p, lam) the cost rises in both ranges, so the cheapest ranges have a
closed form (the combined requirement, when it binds, leaves a 1-D
convex split between the layers).  For fixed p the resulting cost is
convex in lam, and its minimiser is one of a short list of closed-form
candidates, so only a 1-D search over p remains: a dense grid and a
few zooms.  An exhaustive 4-d grid oracle is kept for validation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .degree import NetworkParams, ParamBounds, ThreatModel, spreading_rates


def __getattr__(name: str):
    # bench/tracing.py wraps ``designer.minimize``, which nothing here calls;
    # import it only on that access so scipy.optimize stays out of start-up.
    # Goes with the bench change of ROADMAP O1.
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    b = mission.bounds
    # A range from sqrt(r^2) can land one ulp outside its box.
    r1 = min(max(r1, b.r1_min), b.r1_max)
    r2 = min(max(r2, b.r2_min), b.r2_max, r1)
    params = NetworkParams(p=p, lam=lam, r1=r1, r2=r2)
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


_P_GRID = 129      # points of the first p grid
_P_ZOOM = 65       # points of each zoomed p grid
_P_CELL = 1e-9     # final grid cell, as a fraction of the p box,
_P_LEVELS = 6      # which 128 * 32^5 cells reach; the cap bounds rounding
_NEWTON = 40       # Newton step cap for an affine piece's stationary range


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
    q = mission.eta / 2
    deploy = mission.w1 * p + mission.w2 * (1.0 - p)
    total = lam * (deploy + mission.c * (p * a ** q + b ** q))
    return np.fmin(total, math.inf)   # nan (infeasible) becomes inf


def _lambda_candidates(mission: MissionSpec, p: np.ndarray) -> np.ndarray:
    """Candidate lam values, one row per p, that contain the best lam.

    With u = 1/(pi*lam), every branch of ``_ranges`` makes a = r1^2 and
    b = r2^2 affine in u, and the reduced cost lam*(w + c*(p*a^q + b^q))
    is the perspective of a convex function of u, so it is convex in lam.
    Its minimum over the feasible interval therefore lies at an interval
    end, at a branch switch, or at the stationary point of the piece that
    holds it.  All three kinds are listed, clipped to the interval.
    """
    req1, req2, reqc = mission.required_degrees()
    box = mission.bounds
    a_lo, b_lo = box.r1_min ** 2, box.r2_min ** 2
    a_hi, b_hi = box.r1_max ** 2, box.r2_max ** 2
    q, c = mission.eta / 2, mission.c
    p = p[:, None]
    pp = p * p
    w = mission.w1 * p + mission.w2 * (1.0 - p)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The smallest feasible lam: the top ranges (with r2 <= r1) meet
        # every degree requirement.  Feasibility only grows with lam.
        b_top = min(b_hi, a_hi)
        u_max = np.minimum(np.minimum(pp * (a_hi / req1), b_top / req2),
                           (pp * a_hi + b_top) / reqc)
        lam_lo = np.maximum(box.lambda_min, (1.0 + 1e-12) / (math.pi * u_max))

        # Branch switches of _ranges, where two of its terms meet, as
        # u = (n0 + n1*p^2) / (d0 + d1*p^2).
        n0, n1, d0, d1 = np.array([
            (0.0, a_lo, req1, 0.0),             # a_lo = max(r1_min^2, req1*u/p^2)
            (b_lo, 0.0, req2, 0.0),             # b_lo = max(r2_min^2, req2*u)
            (a_lo, 0.0, req2, 0.0),             # a = max(a_lo, b_lo), both branch pairs
            (0.0, b_lo, req1, 0.0),
            (b_lo, a_lo, reqc, 0.0),            # binds: p^2*a + b_lo = s, per (a, b_lo) pair
            (0.0, a_lo, reqc - req2, 0.0),
            (b_lo, 0.0, reqc - req1, 0.0),
            (b_lo, b_lo, reqc, 0.0),
            (0.0, b_lo, reqc - req2, 0.0),
            (b_lo, 0.0, reqc, -req2),
            (b_hi, a_lo, reqc, 0.0),            # b_line = min(b_hi, s - p^2*a_lo, s/(1+p^2))
            (b_hi, 0.0, reqc - req1, 0.0),
            (b_hi, b_hi, reqc, 0.0),
            (a_lo, a_lo, reqc, 0.0),
        ]).T
        switches = (d0 + d1 * pp) / (math.pi * (n0 + n1 * pp))

        # Pieces where a and b are each a box constant or k/lam, with
        # k = g/(pi*(h0 + h1*p^2)): the cost is lam*W + lam^(1-q)*G, least
        # at ((q-1)*G/W)^(1/q).
        a0, ga, ha0, ha1, b0, gb, hb0, hb1 = np.array([
            (a_lo, 0.0, 1.0, 0.0, 0.0, req2, 1.0, 0.0),           # a = r1_min^2, b = req2*u
            (0.0, req1, 0.0, 1.0, b_lo, 0.0, 1.0, 0.0),           # a = req1*u/p^2, b = r2_min^2
            (0.0, req1, 0.0, 1.0, 0.0, req2, 1.0, 0.0),           # a = req1*u/p^2, b = req2*u
            (0.0, req2, 1.0, 0.0, 0.0, req2, 1.0, 0.0),           # a = b = req2*u
            (0.0, reqc, 1.0, 1.0, 0.0, reqc, 1.0, 1.0),           # binding, a = b = s/(1+p^2)
            (0.0, req1, 0.0, 1.0, 0.0, reqc - req1, 1.0, 0.0),    # binding, a = req1*u/p^2
        ]).T
        ka = ga / (math.pi * (ha0 + ha1 * pp))
        kb = gb / (math.pi * (hb0 + hb1 * pp))
        big_w = w + c * (p * a0 ** q + b0 ** q)
        big_g = c * (p * ka ** q + kb ** q)
        monomials = ((q - 1.0) * big_g / big_w) ** (1.0 / q)

        # The two pieces where the combined requirement binds with one
        # range at a box end: r1 = r1_min (b = s - p^2*a_lo) or r2 = r2_max
        # (p^2*a = s - b_hi).  The other range's square y is then
        # stationary where (q-1)*y^q + q*beta*y^(q-1) = K.
        beta = np.hstack([pp * a_lo, b_hi / pp])
        big_k = np.hstack([w / c + p * a_lo ** q, (w / c + b_hi ** q) / p])
        y = _stationary_range(q, beta, big_k)
        affine = reqc / (math.pi * np.hstack([np.ones_like(pp), pp]) * (y + beta))
    lam = np.hstack([lam_lo, np.full_like(lam_lo, box.lambda_max), switches, monomials, affine])
    return np.fmin(np.fmax(lam, lam_lo, out=lam), box.lambda_max, out=lam)


def _stationary_range(q: float, beta: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Root y > 0 of (q-1)*y^q + q*beta*y^(q-1) = k, by Newton in log y.

    The left side is convex and rising in log y, so Newton steps started
    above the root (where one term alone reaches k) fall monotonically
    onto it.  The cost is stationary at the root, so a relative error e
    in y costs only ~e^2.  No root (q = 1, or nan input) gives nan; for
    q = 2 (eta = 4) the root is the quadratic's.
    """
    if q == 1.0:
        return np.full_like(beta, math.nan)
    if q == 2.0:   # y^2 + 2*beta*y = k
        return k / (np.sqrt(beta * beta + k) + beta)
    y = np.fmin((k / (q - 1.0)) ** (1.0 / q), (k / (q * beta)) ** (1.0 / (q - 1.0)))
    for _ in range(_NEWTON):
        z = y ** (q - 1.0)
        step = (z * ((q - 1.0) * y + q * beta) - k) / (q * (q - 1.0) * z * (y + beta))
        y = y * np.exp(-step)
        if not (np.abs(step) > 1e-8).any():
            break
    return y


def _lambda_profile(mission: MissionSpec, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best lam and its reduced cost (inf where infeasible) for each p."""
    lam = _lambda_candidates(mission, p)
    costs = _reduced_cost(mission, p[:, None], lam)
    j = np.argmin(costs, axis=1)
    rows = np.arange(len(p))
    return lam[rows, j], costs[rows, j]


def _search(mission: MissionSpec) -> tuple[float, float] | None:
    """Minimise the lam profile over p: a dense grid, then 1-cell zooms.

    The zooms stop once the cells around the argmin are _P_CELL of the
    p box.  The first grid also holds the points that far inside each
    end, so a minimum at a box end (the common case) needs no zoom.
    """
    b = mission.bounds
    cell = _P_CELL * (b.p_max - b.p_min)
    ps = np.linspace(b.p_min, b.p_max, _P_GRID)
    ps = np.concatenate([ps[:1], [b.p_min + cell], ps[1:-1], [b.p_max - cell], ps[-1:]])
    best, best_cost = None, math.inf
    for _ in range(_P_LEVELS):
        lams, costs = _lambda_profile(mission, ps)
        i = int(np.argmin(costs))
        if costs[i] < best_cost:
            best, best_cost = (float(ps[i]), float(lams[i])), float(costs[i])
        lo, hi = ps[max(i - 1, 0)], ps[min(i + 1, len(ps) - 1)]
        if best is None or hi - lo <= 2 * cell:
            break
        ps = np.linspace(lo, hi, _P_ZOOM)
    return best


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
    are solved in closed form for each (p, lam) (see ``_ranges``).  The
    reduced cost is convex in lam, so for each p the best lam is the
    cheapest of a few closed-form candidates: branch switches of the
    range solve, stationary points of its pieces and the ends of the
    feasible lam interval (see ``_lambda_candidates``).  That profile is
    minimised over p by a dense grid and one-cell zooms around its
    argmin.  The search is deterministic and uses no random starts.
    """
    violated = certify_infeasible(mission)
    if violated:
        return _infeasible(mission, violated)
    x = _search(mission)
    if x is None:
        # The corner certificate passed, so only r2_min > r1_max is left:
        # no design has r1 >= r2.
        return _infeasible(mission, ("range_order",))
    p, lam = x
    a, b = _ranges(mission, p, lam)
    return _solution_from_point((p, lam, math.sqrt(a), math.sqrt(b)), mission)


def grid_oracle(mission: MissionSpec, n: int = 40) -> DesignSolution:
    """Exhaustive box grid search with local refinement; the trusted baseline."""
    b = mission.bounds
    if certify_infeasible(mission) or b.r2_min > b.r1_max:
        return optimize(mission)   # same certificate or "range_order" answer
    req1, req2, reqc = mission.required_degrees()
    lo = np.array([b.p_min, b.lambda_min, b.r1_min, b.r2_min])
    hi = np.array([b.p_max, b.lambda_max, b.r1_max, b.r2_max])

    best_x = None
    best_cost = math.inf
    for _ in range(2):   # a coarse pass, then one refinement around the incumbent
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
    return [SweepRow(value=float(value), solution=optimize(_swept(mission, variable, value)))
            for value in grid]


def _swept(mission: MissionSpec, variable: str, value: float) -> MissionSpec:
    """``mission`` at one sweep point; its own checks reject a bad value."""
    if variable == "delta":
        return replace(mission, threat=replace(mission.threat, delta=float(value)))
    if variable == "tc":
        return replace(mission, tc=float(value))
    if variable == "t_intra":
        return replace(mission, t1=float(value), t2=float(value))
    raise ValueError(f"unknown sweep variable {variable!r}")
