"""Spans around the calls into each d2dnet module, recorded from outside.

``Tracer.install`` wraps every public function of every d2dnet module in
the module that defines it and in each module that imported it by name,
so calls are seen wherever they come from without changing a file of
the package. It also wraps ``minimize`` as ``d2dnet.designer`` imported
it, to count SLSQP work. Spans stay in memory until ``dump``.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

LAYERS = ("cli", "degree", "geometry", "meanfield", "montecarlo", "designer", "reconfig")


@dataclass
class Span:
    id: int
    trace: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _graph_counts(graph) -> dict:
    return {"nodes": graph.n,
            "edges_layer1": sum(len(a) for a in graph.adj1) // 2,
            "edges_layer2": sum(len(a) for a in graph.adj2) // 2}


def _sim_counts(graph, config, result, messages: int) -> dict:
    steps = config.burn_in + config.measure_steps
    return {"node_steps": graph.n * config.replications * steps * messages,
            "extinct_replications": result.extinctions}


# Counts taken from a call's arguments and result, outside its span.
COUNTERS = {
    "geometry.build_rgg": lambda args, kw, res: _graph_counts(res),
    "montecarlo.simulate_single": lambda args, kw, res: _sim_counts(args[0], args[2], res, 1),
    "montecarlo.simulate_dual": lambda args, kw, res: _sim_counts(args[0], args[3], res, 2),
    "designer.minimize": lambda args, kw, res: {"iterations": int(res.nit), "evaluations": int(res.nfev)},
    "reconfig.run_mission": lambda args, kw, res: {"checks": len(res.checks),
                                                   "recomputes": res.recompute_count},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trace = -1
        self._patches: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        s = Span(len(self.spans), self._trace, name,
                 self._stack[-1] if self._stack else None, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def command(self, name: str):
        """The span of one CLI command; each command gets its own trace id."""
        self._trace += 1
        with self.span(f"cli.{name}") as s:
            yield s

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                with self.span("bench.count"):
                    s.counts = count(args, kwargs, result)
            return result

        return traced

    def _patch(self, module, attr: str, new) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        modules = {name: importlib.import_module(f"d2dnet.{name}") for name in LAYERS}
        modules["d2dnet"] = importlib.import_module("d2dnet")
        for layer, mod in list(modules.items())[:len(LAYERS)]:
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules.values():
                    if vars(holder).get(attr) is fn:
                        self._patch(holder, attr, traced)
        designer = modules["designer"]
        self._patch(designer, "minimize", self._wrap("designer.minimize", designer.minimize))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, old = self._patches.pop()
            setattr(module, attr, old)

    def dump(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        rows = [{**asdict(s), "start": s.start - origin, "end": s.end - origin} for s in self.spans]
        path.write_text(json.dumps({"spans": rows}) + "\n")


def _ratio(num: float, den: float, scale: float) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(spans: list[Span], rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per round: self time, call counts and work counts.

    A span's self time is its duration minus that of its direct children;
    a layer's self time sums its spans' self times.
    """
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    self_s = defaultdict(float)
    total = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    durations = defaultdict(list)
    for s in spans:
        d = s.end - s.start
        self_s[s.name.split(".")[0]] += d - child[s.id]
        total[s.name] += d
        calls[s.name] += 1
        durations[s.name].append(d)
        for k, v in s.counts.items():
            counts[f"{s.name}.{k}"] += v

    def calls_of(layer):
        return sum(n for name, n in calls.items() if name.split(".")[0] == layer)

    def per_round(x):
        return x / rounds

    build_s = total["geometry.build_rgg"]
    nodes = counts["geometry.build_rgg.nodes"]
    edges = counts["geometry.build_rgg.edges_layer1"] + counts["geometry.build_rgg.edges_layer2"]
    sim_s = total["montecarlo.simulate_single"] + total["montecarlo.simulate_dual"]
    node_steps = (counts["montecarlo.simulate_single.node_steps"]
                  + counts["montecarlo.simulate_dual.node_steps"])
    optimize_ms = durations["designer.optimize"]
    m = {
        "cli.self_s": (per_round(self_s["cli"]), "s"),
        "cli.commands": (per_round(calls_of("cli")), "count"),
        "degree.self_s": (per_round(self_s["degree"]), "s"),
        "degree.calls": (per_round(calls_of("degree")), "count"),
        "geometry.self_s": (per_round(self_s["geometry"]), "s"),
        "geometry.sample_ppp_s": (per_round(total["geometry.sample_ppp"]), "s"),
        "geometry.build_rgg_s": (per_round(build_s), "s"),
        "geometry.empirical_degrees_s": (per_round(total["geometry.empirical_degrees"]), "s"),
        "geometry.graphs": (per_round(calls["geometry.build_rgg"]), "count"),
        "geometry.nodes": (per_round(nodes), "count"),
        "geometry.edges_layer1": (per_round(counts["geometry.build_rgg.edges_layer1"]), "count"),
        "geometry.edges_layer2": (per_round(counts["geometry.build_rgg.edges_layer2"]), "count"),
        "geometry.build_rgg_us_per_node": (_ratio(build_s, nodes, 1e6), "us"),
        "geometry.build_rgg_ns_per_edge": (_ratio(build_s, edges, 1e9), "ns"),
        "meanfield.self_s": (per_round(self_s["meanfield"]), "s"),
        "meanfield.solve_theta_calls": (per_round(calls["meanfield.solve_theta"]), "count"),
        "montecarlo.self_s": (per_round(self_s["montecarlo"]), "s"),
        "montecarlo.simulate_single_s": (per_round(total["montecarlo.simulate_single"]), "s"),
        "montecarlo.simulate_dual_s": (per_round(total["montecarlo.simulate_dual"]), "s"),
        "montecarlo.node_steps": (per_round(node_steps), "count"),
        "montecarlo.us_per_node_step": (_ratio(sim_s, node_steps, 1e6), "us"),
        "montecarlo.extinct_replications": (per_round(
            counts["montecarlo.simulate_single.extinct_replications"]
            + counts["montecarlo.simulate_dual.extinct_replications"]), "count"),
        "designer.self_s": (per_round(self_s["designer"]), "s"),
        "designer.optimize_calls": (per_round(calls["designer.optimize"]), "count"),
        "designer.optimize_ms_p50": (statistics.median(optimize_ms) * 1e3 if optimize_ms else 0.0, "ms"),
        "designer.slsqp_calls": (per_round(calls["designer.minimize"]), "count"),
        "designer.slsqp_iterations": (per_round(counts["designer.minimize.iterations"]), "count"),
        "designer.objective_evals": (per_round(counts["designer.minimize.evaluations"]), "count"),
        "reconfig.self_s": (per_round(self_s["reconfig"]), "s"),
        "reconfig.checks": (per_round(counts["reconfig.run_mission.checks"]), "count"),
        "reconfig.recomputes": (per_round(counts["reconfig.run_mission.recomputes"]), "count"),
    }
    for command in ("degree", "simulate", "equilibrium", "design", "reconfig"):
        m[f"cli.{command}_s"] = (per_round(total[f"cli.{command}"]), "s")
    m["trace.spans"] = (per_round(len(spans)), "count")
    return m
