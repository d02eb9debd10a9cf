"""Checks of d2dnet's CLI outputs, made apart from the program.

No check calls the d2dnet routine whose output it checks. Each one
either rebuilds the quantity from closed forms (``scipy.stats`` Poisson
laws, numpy convolutions and grids, a root find of its own) or tests a
property the method must have. A check returns one ``Answer`` per
answer the command gave, with the problems found; an empty list passes.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import optimize, stats

# Total variation of the pooled sampled histogram (20 graphs) against the
# analytic law. Criterion 1 asks for < 0.02, but sampling noise alone gives
# 0.012 +- 0.0034 on layer 2 at the deploy point (0.0233 at worst over 150
# independent seed sets), so 0.02 fails correct output on ~1-2% of seeds.
# 0.04 is > 8 standard deviations above the noise and still rejects a
# histogram shifted by one degree (TV ~ 0.064 on layer 2).
TV_LIMIT = 0.04
COST_RATIO = 1.01        # criterion 6: an optimal design is within 1% of the grid
THRESHOLD_SLACK = 1e-6   # criterion 6: round-trip threshold tolerance
GRID_N = 40              # points per axis of the brute-force design grid
# Relative tolerance on the pooled empirical mean of the combined degree:
# over 150 independent seed sets its deviation had a standard deviation of
# 0.46% (1.15% at worst), so 3% is outside seed noise.
EMPIRICAL_MEAN_REL = 0.03

# Documented CLI defaults for missions (README: case-study box and weights).
DEFAULT_BOUNDS = {"p_min": 0.0, "p_max": 0.4, "lambda_min": 1.0, "lambda_max": 15.0,
                  "r1_min_m": 100.0, "r1_max_m": 2000.0, "r2_min_m": 10.0, "r2_max_m": 800.0}
DEFAULT_WEIGHTS = {"w1": 100.0, "w2": 50.0, "c": 100.0, "eta": 4.0}


@dataclass
class Answer:
    id: str
    problems: list[str] = field(default_factory=list)


def read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _num(value: str) -> float | None:
    return None if value == "" else float(value)


# --- closed-form degree laws ------------------------------------------------

def _km(params: dict) -> tuple[float, float, float, float]:
    return (float(params["p"]), float(params["lambda"]),
            float(params["r1_m"]) / 1000.0, float(params["r2_m"]) / 1000.0)


def _k_max(mean: float) -> int:
    return int(math.ceil(mean + 14.0 * math.sqrt(mean) + 40.0))


def layer1_law(p, lam, r1, k):
    """p * Poisson(p*lam*pi*r1^2) + (1 - p) * delta_0."""
    law = p * stats.poisson.pmf(k, p * lam * math.pi * r1 * r1)
    law[k == 0] += 1.0 - p
    return law


def layer2_law(lam, r2, k):
    """Poisson(lam*pi*r2^2)."""
    return stats.poisson.pmf(k, lam * math.pi * r2 * r2)


def combined_law(p, lam, r1, r2, k_max):
    """Combined degree: type II sees Poisson(lam*pi*r2^2); type I sees twice a
    Poisson count of type-I neighbours within r2, plus type-II neighbours
    within r2 and type-I neighbours in the r2..r1 annulus."""
    a = p * lam * math.pi * r2 * r2
    b = (1.0 - p) * lam * math.pi * r2 * r2
    c = p * lam * math.pi * (r1 * r1 - r2 * r2)
    k = np.arange(k_max + 1)
    doubled = np.zeros(k_max + 1)
    doubled[::2] = stats.poisson.pmf(np.arange(k_max // 2 + 1), a)
    branch = np.convolve(np.convolve(doubled, stats.poisson.pmf(k, b)), stats.poisson.pmf(k, c))
    return (1.0 - p) * stats.poisson.pmf(k, a + b) + p * branch[:k_max + 1]


def combined_moments(p, lam, r1, r2):
    """Closed-form E[Kc] and E[Kc^2]."""
    a = p * lam * math.pi * r2 * r2
    b = (1.0 - p) * lam * math.pi * r2 * r2
    c = p * lam * math.pi * (r1 * r1 - r2 * r2)
    mu2 = a + b
    mean1 = 2 * a + b + c
    m2 = (1.0 - p) * (mu2 + mu2 * mu2) + p * (4 * a + b + c + mean1 * mean1)
    return p * mean1 + (1.0 - p) * mu2, m2


def total_variation(emp: np.ndarray, law: np.ndarray) -> float:
    return 0.5 * float(np.abs(emp / emp.sum() - law).sum())


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * max(abs(want), 1e-300)


# --- mean-field fixed point ---------------------------------------------------

def theta_root(pmf: np.ndarray, alpha: float) -> float:
    """Positive root of Theta = sum_k k P(k) akT/(1+akT) / E[K], or 0."""
    k = np.arange(len(pmf), dtype=float)
    mean, m2 = float(k @ pmf), float((k * k) @ pmf)
    if mean <= 0.0 or alpha <= 0.0 or alpha * m2 <= mean:
        return 0.0

    def excess(theta):
        return float(np.sum(k * k * pmf * alpha / (1.0 + alpha * k * theta))) / mean - 1.0

    return optimize.brentq(excess, 0.0, 1.0, xtol=1e-15, rtol=4 * np.finfo(float).eps)


def informed_aggregate(pmf: np.ndarray, alpha: float, theta: float) -> float:
    k = np.arange(len(pmf), dtype=float)
    akt = alpha * k * theta
    return float(pmf @ (akt / (1.0 + akt)))


def fixed_point_residual(pmf: np.ndarray, alpha: float, theta: float) -> float:
    k = np.arange(len(pmf), dtype=float)
    mean = float(k @ pmf)
    akt = alpha * k * theta
    return abs(theta - float((k * pmf) @ (akt / (1.0 + akt))) / mean)


def _rates(cfg: dict) -> tuple[float, float, float]:
    """(alpha1, alpha2, alphac) = gamma * (1 - delta) * ps_i."""
    base = float(cfg.get("gamma", 1.0)) * (1.0 - float(cfg.get("delta", 0.0)))
    return (base * float(cfg.get("ps1", 1.0)), base * float(cfg.get("ps2", 1.0)),
            base * float(cfg.get("psc", 1.0)))


# --- degree -------------------------------------------------------------------

def check_degree(out: Path, cfg: dict) -> list[Answer]:
    answer = Answer("pmf")
    bad = answer.problems
    p, lam, r1, r2 = _km(cfg["params"])
    rows = read_csv(out / "degree_pmf.csv")
    k = np.array([int(r["k"]) for r in rows])

    def col(name):
        return np.array([float(r[name]) for r in rows])

    law1, law2 = layer1_law(p, lam, r1, k), layer2_law(lam, r2, k)
    for name, law in (("pmf_k1", law1), ("pmf_k2", law2)):
        err = float(np.max(np.abs(col(name) - law)))
        if err > 1e-12:
            bad.append(f"{name} differs from the closed-form law by {err:.3e}")
    pmf_c = col("pmf_kc")
    mean_c, m2_c = combined_moments(p, lam, r1, r2)
    if abs(pmf_c.sum() - 1.0) > 1e-10:
        bad.append(f"pmf_kc sums to {pmf_c.sum()!r}")
    if not _close(float(k @ pmf_c), mean_c, 1e-9):
        bad.append(f"pmf_kc mean {float(k @ pmf_c)!r} != closed form {mean_c!r}")
    if not _close(float((k * k) @ pmf_c), m2_c, 1e-9):
        bad.append(f"pmf_kc second moment {float((k * k) @ pmf_c)!r} != {m2_c!r}")

    moments = read_json(out / "degree_moments.json")
    mean1 = p * p * lam * math.pi * r1 * r1
    mean2 = lam * math.pi * r2 * r2
    want = {
        "mean_k1": (mean1, 1e-12), "mean_k2": (mean2, 1e-12), "mean_kc": (mean1 + mean2, 1e-12),
        "m2_k1": (p * (mean1 / p + (mean1 / p) ** 2) if p > 0 else 0.0, 1e-9),
        "m2_k2": (mean2 + mean2 * mean2, 1e-9), "m2_kc": (m2_c, 1e-9),
    }
    for key, (value, rel) in want.items():
        if not _close(float(moments[key]), value, rel):
            bad.append(f"{key} = {moments[key]!r}, closed form {value!r}")

    if cfg.get("validate"):
        for name, law in (("emp_k1", law1), ("emp_k2", law2)):
            tv = total_variation(col(name), law)
            if not tv < TV_LIMIT:
                bad.append(f"{name}: total variation {tv:.4f} >= {TV_LIMIT}")
        emp_c = col("emp_kc")
        if np.any(emp_c < 0) or emp_c.sum() > 1.0 + 1e-12:
            bad.append("emp_kc is not a (sub-)probability vector")
        emp_mean = float(k @ emp_c) / float(emp_c.sum())
        if not _close(emp_mean, mean_c, EMPIRICAL_MEAN_REL):
            bad.append(f"empirical combined mean {emp_mean:.4f} vs closed form {mean_c:.4f}")
    return [answer]


# --- simulate -----------------------------------------------------------------

def check_simulate(out: Path, cfg: dict, graph: dict | None,
                   mean_field_gap: float | None = None) -> list[Answer]:
    """graph: {"n": nodes, "type1": type-I nodes} of the graph the command sampled."""
    answer = Answer("fractions")
    bad = answer.problems
    rows = {r["quantity"]: r for r in read_csv(out / "simulate.csv")}
    mode = cfg.get("mode", "single")
    want = {"single": {"combined"}, "dual": {"message1", "message2", "both"},
            "both": {"combined", "message1", "message2", "both"}}[mode]
    if set(rows) != want:
        return [Answer("fractions", [f"quantities {sorted(rows)} != {sorted(want)}"])]
    frac = {}
    reps = int(cfg.get("sim", {}).get("replications", 20))
    for name, r in rows.items():
        f, se, mf = float(r["informed_fraction"]), float(r["standard_error"]), float(r["mean_field"])
        frac[name] = f
        if not 0.0 <= f <= 1.0:
            bad.append(f"{name}: informed fraction {f!r} outside [0, 1]")
        if not (math.isfinite(se) and se >= 0.0):
            bad.append(f"{name}: standard error {se!r} is not finite and >= 0")
        if not 0.0 <= mf <= 1.0:
            bad.append(f"{name}: mean-field value {mf!r} outside [0, 1]")
        if not 0 <= int(r["extinctions"]) <= reps:
            bad.append(f"{name}: {r['extinctions']} extinctions of {reps} replications")

    # Mean field rebuilt from the closed-form laws.
    p, lam, r1, r2 = _km(cfg["params"])
    a1, a2, ac = _rates(cfg.get("threat", {}))
    mine = {}
    if "combined" in want:
        pmf_c = combined_law(p, lam, r1, r2, _k_max(combined_moments(p, lam, r1, r2)[0] * 2))
        mine["combined"] = informed_aggregate(pmf_c, ac, theta_root(pmf_c, ac))
    if "both" in want:
        k1 = np.arange(_k_max(p * lam * math.pi * r1 * r1) + 1)
        k2 = np.arange(_k_max(lam * math.pi * r2 * r2) + 1)
        pmf1, pmf2 = layer1_law(p, lam, r1, k1), layer2_law(lam, r2, k2)
        mine["message1"] = informed_aggregate(pmf1, a1, theta_root(pmf1, a1))
        mine["message2"] = informed_aggregate(pmf2, a2, theta_root(pmf2, a2))
        mine["both"] = mine["message1"] * mine["message2"]
        if frac["both"] > min(frac["message1"], frac["message2"]) + 1e-12:
            bad.append(f"both-informed {frac['both']!r} exceeds min(message1, message2)")
        if graph is None:
            bad.append("type-I share of the sampled graph was not observed")
        elif frac["message1"] > graph["type1"] / graph["n"] + 1e-12:
            bad.append(f"message1 {frac['message1']!r} exceeds the type-I share "
                       f"{graph['type1']}/{graph['n']}")
    for name, value in mine.items():
        mf = float(rows[name]["mean_field"])
        if abs(mf - value) > 1e-8:
            bad.append(f"{name}: mean_field {mf!r}, closed-form mean field {value!r}")
        if abs(float(rows[name]["gap"]) - abs(frac[name] - mf)) > 1e-12:
            bad.append(f"{name}: gap column is not |fraction - mean_field|")
    if mean_field_gap is not None:
        for name in ("message1", "both"):
            gap = abs(frac[name] - mine[name])
            if not gap < mean_field_gap:
                bad.append(f"{name}: |simulation - mean field| = {gap:.4f} >= {mean_field_gap}")
    return [answer]


# --- equilibrium --------------------------------------------------------------

def check_equilibrium(out: Path, cfg: dict) -> list[Answer]:
    mode = cfg.get("mode", "fixed_point")
    answer = Answer("table" if mode == "fixed_point" else "trajectory")
    bad = answer.problems
    alphas = cfg.get("alpha", [0.3])
    alphas = alphas if isinstance(alphas, list) else [alphas]
    if "params" in cfg:
        p, lam, r1, r2 = _km(cfg["params"])
        mean_c = combined_moments(p, lam, r1, r2)[0]
        pmfs = {"combined": (mean_c, combined_law(p, lam, r1, r2, _k_max(2 * mean_c)))}
    else:
        pmfs = {}
        for m in cfg["mean_degrees"]:
            k = np.arange(_k_max(float(m)) + 1)
            pmfs[f"poisson_{m}"] = (float(m), stats.poisson.pmf(k, float(m)))

    if mode == "fixed_point":
        rows = read_csv(out / "equilibrium.csv")
        if len(rows) != len(pmfs) * len(alphas):
            bad.append(f"{len(rows)} rows for {len(pmfs)} models x {len(alphas)} rates")
        for r in rows:
            mean, pmf = pmfs[r["model"]]
            alpha, theta = float(r["alpha"]), float(r["theta_exact"])
            where = f"{r['model']} alpha={r['alpha']}"
            bound = max(0.0, 1.0 - 1.0 / (alpha * mean)) if alpha * mean > 0 else 0.0
            if abs(float(r["theta_bound"]) - bound) > 1e-12:
                bad.append(f"{where}: theta_bound {r['theta_bound']} != {bound!r}")
            if not 0.0 <= theta <= 1.0 or theta < bound - 1e-12:
                bad.append(f"{where}: theta {theta!r} below the bound {bound!r} or outside [0, 1]")
            k = np.arange(len(pmf), dtype=float)
            supercritical = alpha * float((k * k) @ pmf) > float(k @ pmf)
            if (theta > 0.0) != supercritical:
                bad.append(f"{where}: theta {theta!r} but supercritical={supercritical}")
            residual = fixed_point_residual(pmf, alpha, theta)
            if residual > 1e-10:
                bad.append(f"{where}: fixed-point residual {residual:.3e} > 1e-10")
            agg = informed_aggregate(pmf, alpha, theta)
            if abs(float(r["aggregate"]) - agg) > 1e-9:
                bad.append(f"{where}: aggregate {r['aggregate']} != {agg!r}")
    else:
        rows = read_csv(out / "trajectory.csv")
        step, horizon = float(cfg.get("step", 0.01)), float(cfg.get("horizon", 50.0))
        times = np.array([float(r["time"]) for r in rows])
        if len(times) != int(round(horizon / step)) + 1 or np.any(np.abs(times - step * np.arange(len(times))) > 1e-9):
            bad.append("trajectory times are not 0, step, ..., horizon")
        alpha = float(alphas[0])
        for name, (mean, pmf) in pmfs.items():
            series = np.array([float(r[f"aggregate_{name}"]) for r in rows])
            if np.any(series < 0.0) or np.any(series > 1.0):
                bad.append(f"{name}: trajectory leaves [0, 1]")
            eq = informed_aggregate(pmf, alpha, theta_root(pmf, alpha))
            if abs(series[-1] - eq) > 1e-6:
                bad.append(f"{name}: trajectory ends at {series[-1]!r}, equilibrium {eq!r}")
    if cfg.get("dual") and "params" in cfg:
        p, lam, r1, r2 = _km(cfg["params"])
        a1, a2, _ = _rates(cfg.get("threat", {}))
        k1 = np.arange(_k_max(p * lam * math.pi * r1 * r1) + 1)
        k2 = np.arange(_k_max(lam * math.pi * r2 * r2) + 1)
        pmf1, pmf2 = layer1_law(p, lam, r1, k1), layer2_law(lam, r2, k2)
        th1, th2 = theta_root(pmf1, a1), theta_root(pmf2, a2)
        agg1, agg2 = informed_aggregate(pmf1, a1, th1), informed_aggregate(pmf2, a2, th2)
        want = {"theta1": th1, "theta2": th2, "aggregate_1": agg1,
                "aggregate_2": agg2, "aggregate_ii": agg1 * agg2}
        dual = read_json(out / "dual_equilibrium.json")
        for key, value in want.items():
            if abs(float(dual[key]) - value) > 1e-9:
                bad.append(f"dual {key} = {dual[key]!r}, independent solve {value!r}")
    return [answer]


# --- design -------------------------------------------------------------------

@dataclass(frozen=True)
class Mission:
    t1: float
    t2: float
    tc: float
    rates: tuple[float, float, float]
    box: tuple[tuple[float, float], ...]     # (p, lam, r1 km, r2 km)
    w1: float
    w2: float
    c: float
    eta: float

    def requirements(self) -> tuple[float, float, float] | None:
        """Minimum mean degrees (k1, k2, kc), or None if unattainable."""
        req = []
        for t, a in zip((self.t1, self.t2, self.tc), self.rates):
            if a <= 0.0:
                return None
            req.append(1.0 / (a * (1.0 - t)))
        return tuple(req)

    def cost(self, p, lam, r1, r2):
        return (self.w1 * p * lam + self.w2 * (1.0 - p) * lam
                + self.c * (p * lam * r1 ** self.eta + lam * r2 ** self.eta))


def mission_from_config(cfg: dict, **override) -> Mission:
    m = {**cfg, **override}
    b = {**DEFAULT_BOUNDS, **m.get("bounds", {})}
    w = {k: float(m.get(k, v)) for k, v in DEFAULT_WEIGHTS.items()}
    return Mission(
        t1=float(m["t1"]), t2=float(m["t2"]), tc=float(m["tc"]), rates=_rates(m),
        box=((b["p_min"], b["p_max"]), (b["lambda_min"], b["lambda_max"]),
             (b["r1_min_m"] / 1000.0, b["r1_max_m"] / 1000.0),
             (b["r2_min_m"] / 1000.0, b["r2_max_m"] / 1000.0)),
        **w,
    )


def _degrees(p, lam, r1, r2):
    k1 = p * p * lam * math.pi * r1 * r1
    k2 = lam * math.pi * r2 * r2
    return k1, k2, k1 + k2


def corner_infeasible(m: Mission) -> bool:
    """Degrees grow with every variable, so the box corner decides feasibility."""
    req = m.requirements()
    if req is None:
        return True
    (_, p), (_, lam), (_, r1), (_, r2) = m.box
    return any(k < q for k, q in zip(_degrees(p, lam, r1, min(r2, r1)), req))


def grid_min_cost(m: Mission, n: int = GRID_N) -> float:
    """Cheapest feasible point of an n^4 grid over the box (inf if none)."""
    req1, req2, reqc = m.requirements()
    p, lam, r1, r2 = (np.linspace(lo, hi, n) for lo, hi in m.box)
    k1 = (p[:, None, None] ** 2 * lam[None, :, None] * math.pi * r1[None, None, :] ** 2)
    k2 = lam[:, None] * math.pi * r2[None, :] ** 2                       # (lam, r2)
    ok = ((k1[:, :, :, None] >= req1) & (k2[None, :, None, :] >= req2)
          & (k1[:, :, :, None] + k2[None, :, None, :] >= reqc)
          & (r1[None, None, :, None] >= r2[None, None, None, :]))
    cost = m.cost(p[:, None, None, None], lam[None, :, None, None],
                  r1[None, None, :, None], r2[None, None, None, :])
    return float(np.min(np.where(ok, cost, np.inf)))


class Checker:
    """Checks an operation's output directory; caches the design grid per mission."""

    def __init__(self):
        self._grid: dict[Mission, float] = {}

    def check(self, op, out: Path, graph: dict | None = None) -> list[Answer]:
        if op.command == "degree":
            return check_degree(out, op.config)
        if op.command == "simulate":
            return check_simulate(out, op.config, graph, op.mean_field_gap)
        if op.command == "equilibrium":
            return check_equilibrium(out, op.config)
        if op.command == "design":
            return self.check_design(out, op.config)
        if op.command == "reconfig":
            return check_reconfig(out, op.config)
        raise ValueError(f"no check for command {op.command!r}")

    def grid_min(self, m: Mission) -> float:
        if m not in self._grid:
            self._grid[m] = grid_min_cost(m)
        return self._grid[m]

    def check_answer(self, m: Mission, status: str, point: dict) -> list[str]:
        bad = []
        if status == "infeasible":
            if not corner_infeasible(m):
                bad.append("reported infeasible, but the box corner meets every requirement")
            return bad
        if status != "optimal":
            return [f"unknown status {status!r}"]
        if corner_infeasible(m):
            bad.append("reported optimal, but even the box corner is infeasible")
            return bad
        p, lam = point["p"], point["lambda"]
        r1, r2 = point["r1_m"] / 1000.0, point["r2_m"] / 1000.0
        for (lo, hi), v, name in zip(m.box, (p, lam, r1, r2), ("p", "lambda", "r1", "r2")):
            if not lo - 1e-9 * max(1.0, hi) <= v <= hi + 1e-9 * max(1.0, hi):
                bad.append(f"{name} = {v!r} outside [{lo}, {hi}]")
        if r1 < r2 - 1e-12:
            bad.append(f"r1 {r1!r} < r2 {r2!r}")
        want = m.cost(p, lam, r1, r2)
        if not _close(point["cost"], want, 1e-9):
            bad.append(f"cost {point['cost']!r} != recomputed {want!r}")
        for name, k, t, a in zip(("layer1", "layer2", "combined"), _degrees(p, lam, r1, r2),
                                 (m.t1, m.t2, m.tc), m.rates):
            if a * k <= 0.0 or 1.0 - 1.0 / (a * k) < t - THRESHOLD_SLACK:
                bad.append(f"{name}: mean degree {k:.6g} misses threshold {t}")
        grid = self.grid_min(m)
        if not want <= COST_RATIO * grid:
            bad.append(f"cost {want:.2f} is {want / grid:.3f}x the grid minimum {grid:.2f}")
        return bad

    def check_design(self, out: Path, cfg: dict) -> list[Answer]:
        base = cfg["mission"]
        sol = read_json(out / "design_solution.json")
        answers = [Answer("solution", self.check_answer(mission_from_config(base), sol["status"], sol))]
        sweep = cfg.get("sweep")
        if not sweep:
            return answers
        rows = read_csv(out / "sweep.csv")
        values = [float(r["value"]) for r in rows]
        if values != [float(v) for v in sweep["grid"]]:
            answers[0].problems.append(f"sweep rows {values} != grid {sweep['grid']}")
        key = {"delta": ("delta",), "tc": ("tc",), "t_intra": ("t1", "t2")}[sweep["variable"]]
        for value, row in zip(sweep["grid"], rows):
            m = mission_from_config(base, **{k: float(value) for k in key})
            point = {k: _num(row[k]) for k in ("p", "lambda", "r1_m", "r2_m", "cost")}
            answers.append(Answer(f"{sweep['variable']}={value}",
                                  self.check_answer(m, row["status"], point)))
        return answers


# --- reconfig -----------------------------------------------------------------

def check_reconfig(out: Path, cfg: dict) -> list[Answer]:
    """Criterion 9's closed loop, on properties that hold for every seed.

    The attrition forces a recompute at the first check after it, and the
    redeployed design meets every threshold. Every later row recomputes
    exactly when an estimate is epsilon or more off its target, costs never
    fall and devices are only added. Criterion 9 also asks that the loss be
    the only recompute and that the next estimates be back within epsilon;
    both depend on the sampled estimates and fail on some seeds (see
    README.md), so they are not checked here.
    """
    answer = Answer("mission")
    bad = answer.problems
    rows = read_csv(out / "reconfig_trace.csv")
    t_r, horizon, eps = int(cfg.get("t_r", 50)), int(cfg.get("horizon", 200)), float(cfg["epsilon"])
    times = [int(r["time"]) for r in rows]
    if times != list(range(t_r, horizon + 1, t_r)):
        bad.append(f"check times {times}")
        return [answer]
    target = cfg["mission"]
    event = min(int(e["time"]) for e in cfg["scenario"])
    first = min(t for t in times if t >= event)
    delta = float(target.get("delta", 0.0))
    for r in rows:
        t = int(r["time"])
        off = max(abs(float(target[k]) - float(r[f"{k}_hat"])) for k in ("t1", "t2", "tc"))
        threat_changed = float(r["delta_hat"]) != delta
        delta = float(r["delta_hat"])
        m = mission_from_config(target, delta=delta)
        if (r["recomputed"] == "true") != (off >= eps or threat_changed):
            bad.append(f"t={t}: recomputed={r['recomputed']} but the largest estimate "
                       f"error is {off:.4f} (epsilon {eps})")
        if t == first and r["recomputed"] != "true":
            bad.append(f"no recompute at t={t}, the first check after the loss")
        if r["recomputed"] == "true" and r["p"]:
            p, lam = float(r["p"]), float(r["lambda"])
            k = _degrees(p, lam, float(r["r1_m"]) / 1000.0, float(r["r2_m"]) / 1000.0)
            for name, kk, tt, a in zip(("t1", "t2", "tc"), k, (m.t1, m.t2, m.tc), m.rates):
                if a * kk <= 0.0 or 1.0 - 1.0 / (a * kk) < tt - THRESHOLD_SLACK:
                    bad.append(f"t={t}: redeployed design misses {name} = {tt}")
        if float(r["added_type1"]) < 0 or float(r["added_type2"]) < 0:
            bad.append(f"negative additions at t={t}")
        if r["status"] != "ok":
            bad.append(f"status {r['status']!r} at t={t}")
        for key in ("t1_hat", "t2_hat", "tc_hat"):
            if not 0.0 <= float(r[key]) < 1.0:
                bad.append(f"{key} {r[key]} outside [0, 1) at t={t}")
    cost = [float(r["cumulative_cost"]) for r in rows]
    if any(b < a for a, b in zip(cost, cost[1:])):
        bad.append(f"cumulative cost decreases: {cost}")
    return [answer]


def answer_ids(op) -> list[str]:
    """The answers a command is expected to give, for counting a failed command."""
    if op.command == "design":
        sweep = op.config.get("sweep")
        rows = [f"{sweep['variable']}={v}" for v in sweep["grid"]] if sweep else []
        return ["solution"] + rows
    if op.command == "equilibrium":
        return ["table" if op.config.get("mode", "fixed_point") == "fixed_point" else "trajectory"]
    return [{"degree": "pmf", "simulate": "fractions", "reconfig": "mission"}[op.command]]
