"""Command-line surface: reproducible runs that emit CSV/JSON artifacts.

Every command takes a JSON config (CLI flags override config fields),
honours --seed/--out, and writes a manifest sufficient to reproduce the
outputs byte for byte.  Densities are per km^2; ranges at this boundary
are in meters and converted to km internally.

Exit codes: 0 success, 1 runtime failure, 2 config error.
"""
from __future__ import annotations

import csv
import json
import numbers
import os
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .degree import (
    NetworkParams,
    ParamBounds,
    ThreatModel,
    combined_pmf,
    degree_moments,
    intra_layer_pmf,
    spreading_rates,
)
from .designer import MissionSpec, optimize, sweep
from .geometry import Region, empirical_degrees, sample_graph
from .meanfield import integrate_single, solve_dual, solve_theta, theta_lower_bound
from .montecarlo import SimConfig, simulate_dual, simulate_single
from .reconfig import ScenarioEvent, _check_loop_settings, run_mission


class ConfigError(Exception):
    """Invalid or missing configuration; maps to exit code 2."""


def _fmt(x) -> str:
    """Locale-free full round-trip decimal formatting."""
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return repr(float(x))


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        )


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing required config key: {key!r}")
    return cfg[key]


def _params_from_config(cfg: dict) -> NetworkParams:
    try:
        return NetworkParams(
            p=float(_require(cfg, "p")),
            lam=float(_require(cfg, "lambda")),
            r1=float(_require(cfg, "r1_m")) / 1000.0,
            r2=float(_require(cfg, "r2_m")) / 1000.0,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid network parameters: {exc}")


def _region_from_config(cfg: dict | None) -> Region:
    cfg = cfg or {}
    return Region(
        width=float(cfg.get("width", 10.0)),
        height=float(cfg.get("height", 10.0)),
        wrap=bool(cfg.get("wrap", True)),
    )


def _threat_from_config(cfg: dict) -> ThreatModel:
    try:
        return ThreatModel(
            delta=float(cfg.get("delta", 0.0)),
            gamma=float(cfg.get("gamma", 1.0)),
            ps1=float(cfg.get("ps1", 1.0)),
            ps2=float(cfg.get("ps2", 1.0)),
            psc=float(cfg.get("psc", 1.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid threat model: {exc}")


def _bounds_from_config(cfg: dict | None) -> ParamBounds:
    cfg = cfg or {}
    try:
        return ParamBounds(
            p_min=float(cfg.get("p_min", 0.0)),
            p_max=float(cfg.get("p_max", 0.4)),
            lambda_min=float(cfg.get("lambda_min", 1.0)),
            lambda_max=float(cfg.get("lambda_max", 15.0)),
            r1_min=float(cfg.get("r1_min_m", 100.0)) / 1000.0,
            r1_max=float(cfg.get("r1_max_m", 2000.0)) / 1000.0,
            r2_min=float(cfg.get("r2_min_m", 10.0)) / 1000.0,
            r2_max=float(cfg.get("r2_max_m", 800.0)) / 1000.0,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid parameter bounds: {exc}")


def _mission_from_config(cfg: dict) -> MissionSpec:
    try:
        return MissionSpec(
            t1=float(_require(cfg, "t1")),
            t2=float(_require(cfg, "t2")),
            tc=float(_require(cfg, "tc")),
            threat=_threat_from_config(cfg),
            bounds=_bounds_from_config(cfg.get("bounds")),
            w1=float(cfg.get("w1", 100.0)),
            w2=float(cfg.get("w2", 50.0)),
            c=float(cfg.get("c", 100.0)),
            eta=float(cfg.get("eta", 4.0)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid mission spec: {exc}")


def _sim_from_config(cfg: dict | None, seed: int) -> SimConfig:
    cfg = cfg or {}
    try:
        return SimConfig(
            time_step=float(cfg.get("time_step", 0.1)),
            burn_in=int(cfg.get("burn_in", 2000)),
            measure_steps=int(cfg.get("measure_steps", 1000)),
            replications=int(cfg.get("replications", 20)),
            seed=seed,
            quasi_stationary=bool(cfg.get("quasi_stationary", True)),
            initial_fraction=float(cfg.get("initial_fraction", 0.1)),
            record_timeseries=bool(cfg.get("timeseries", False)),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid simulation config: {exc}")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out: Path, command: str, config: dict, seed: int, outputs: list[str]) -> None:
    _write_json(out / "manifest.json", {
        "command": command,
        "config": config,
        "seed": seed,
        "tool_version": __version__,
        "outputs": sorted(outputs),
    })


def _run(ctx_command: str, config_path: str, seed: int | None, out: str, body) -> None:
    """Shared command wrapper handling config errors and exit codes."""
    try:
        cfg = _load_config(config_path)
        resolved_seed = seed if seed is not None else cfg.get("seed", 0)
        if not _is_int(resolved_seed) or resolved_seed < 0:
            raise ConfigError(f"seed must be a nonnegative integer, got {resolved_seed!r}")
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = body(cfg, resolved_seed, out_dir)
        _write_manifest(out_dir, ctx_command, cfg, resolved_seed, outputs)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    except Exception as exc:   # runtime failure
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


@click.group()
@click.version_option(__version__)
def main():
    """Design and evaluation toolkit for two-layer D2D networks."""


_config_opt = click.option("--config", "config_path", required=True, type=click.Path())
_seed_opt = click.option("--seed", type=int, default=None, help="Master seed (overrides config).")
_out_opt = click.option("--out", default=".", type=click.Path(), help="Output directory.")


@main.command()
@_config_opt
@_seed_opt
@_out_opt
def degree(config_path, seed, out):
    """Analytic degree pmfs and moments; optional empirical validation."""

    def body(cfg, resolved_seed, out_dir):
        params = _params_from_config(_require(cfg, "params"))
        k_max = cfg.get("k_max")
        model = degree_moments(params, k_max)
        n = max(len(model.pmf_k1), len(model.pmf_k2), len(model.pmf_kc))

        def pad(a):
            return np.pad(a, (0, n - len(a)))

        columns = {
            "k": np.arange(n),
            "pmf_k1": pad(model.pmf_k1),
            "pmf_k2": pad(model.pmf_k2),
            "pmf_kc": pad(model.pmf_kc),
        }
        validate = cfg.get("validate")
        if validate:
            from concurrent.futures import ThreadPoolExecutor

            region = _region_from_config(validate.get("region"))
            n_seeds = validate.get("seeds", 20)
            if not _is_int(n_seeds) or n_seeds < 1:
                raise ConfigError(f"validate.seeds must be a positive integer, got {n_seeds!r}")

            def histograms(s):
                # The k-d tree build and pair queries release the GIL, so
                # graphs sample in parallel; only the histograms come back.
                graph = sample_graph(params, region, resolved_seed + s)
                emp = empirical_degrees(graph)
                return (emp.hist1, emp.hist2, emp.histc), graph.n

            acc = np.zeros((3, n))
            total = 0
            with ThreadPoolExecutor(min(n_seeds, _usable_cpus())) as pool:
                # map yields in seed order and the counts are integers, so
                # the bytes do not depend on the worker count.
                for hists, count in pool.map(histograms, range(n_seeds)):
                    for hist, row in zip(hists, acc):
                        m = min(len(hist), n)
                        row[:m] += hist[:m]
                    total += count
            columns["emp_k1"], columns["emp_k2"], columns["emp_kc"] = acc / total
        header = list(columns)
        _write_csv(out_dir / "degree_pmf.csv", header,
                   zip(*[columns[h] for h in header]))
        _write_json(out_dir / "degree_moments.json", {
            "mean_k1": model.mean_k1,
            "mean_k2": model.mean_k2,
            "mean_kc": model.mean_kc,
            "m2_k1": model.m2_k1,
            "m2_k2": model.m2_k2,
            "m2_kc": model.m2_kc,
        })
        return ["degree_pmf.csv", "degree_moments.json"]

    _run("degree", config_path, seed, out, body)


def _poisson_pmf_for_mean(mean: float) -> np.ndarray:
    from .degree import _poisson_pmf, default_k_max

    return _poisson_pmf(mean, default_k_max(mean))


@main.command()
@_config_opt
@_seed_opt
@_out_opt
def equilibrium(config_path, seed, out):
    """Equilibrium tables (exact vs closed-form bound) or transients."""

    def body(cfg, resolved_seed, out_dir):
        alphas = cfg.get("alpha", [0.3])
        if not isinstance(alphas, list):
            alphas = [alphas]
        mode = cfg.get("mode", "fixed_point")
        outputs = []
        if "params" in cfg:
            params = _params_from_config(cfg["params"])
            pmfs = {"combined": combined_pmf(params)}
            means = {"combined": params.mean_kc()}
        elif "mean_degrees" in cfg:
            means = {f"poisson_{m}": float(m) for m in cfg["mean_degrees"]}
            pmfs = {name: _poisson_pmf_for_mean(m) for name, m in means.items()}
        else:
            raise ConfigError("equilibrium config needs 'params' or 'mean_degrees'")

        if mode == "fixed_point":
            rows = []
            for name, pmf in pmfs.items():
                for a in alphas:
                    eq = solve_theta(pmf, float(a))
                    rows.append((
                        name, means[name], a, eq.theta,
                        theta_lower_bound(float(a), means[name]), eq.aggregate,
                    ))
            _write_csv(out_dir / "equilibrium.csv",
                       ["model", "mean_degree", "alpha", "theta_exact",
                        "theta_bound", "aggregate"],
                       rows)
            outputs.append("equilibrium.csv")
        elif mode == "trajectory":
            step = float(cfg.get("step", 0.01))
            horizon = float(cfg.get("horizon", 50.0))
            init = float(cfg.get("initial_fraction", 0.01))
            names = list(pmfs)
            trajs = [
                integrate_single(pmfs[n], float(alphas[0]), init, horizon, step)
                for n in names
            ]
            rows = zip(trajs[0].times, *[t.aggregate for t in trajs])
            _write_csv(out_dir / "trajectory.csv",
                       ["time"] + [f"aggregate_{n}" for n in names], rows)
            outputs.append("trajectory.csv")
        else:
            raise ConfigError(f"unknown equilibrium mode {mode!r}")

        if cfg.get("dual") and "params" in cfg:
            params = _params_from_config(cfg["params"])
            threat = _threat_from_config(cfg.get("threat", {}))
            rates = spreading_rates(threat)
            eq = solve_dual(
                intra_layer_pmf(params, 1), intra_layer_pmf(params, 2),
                rates.alpha1, rates.alpha2,
            )
            _write_json(out_dir / "dual_equilibrium.json", {
                "theta1": eq.theta1,
                "theta2": eq.theta2,
                "aggregate_1": eq.aggregate_1,
                "aggregate_2": eq.aggregate_2,
                "aggregate_ii": eq.aggregate_ii,
            })
            outputs.append("dual_equilibrium.json")
        return outputs

    _run("equilibrium", config_path, seed, out, body)


@main.command()
@_config_opt
@_seed_opt
@_out_opt
def simulate(config_path, seed, out):
    """Stochastic spreading on sampled graphs, with mean-field comparison."""

    def body(cfg, resolved_seed, out_dir):
        params = _params_from_config(_require(cfg, "params"))
        threat = _threat_from_config(cfg.get("threat", {}))
        region = _region_from_config(cfg.get("region"))
        sim = _sim_from_config(cfg.get("sim"), resolved_seed)
        mode = cfg.get("mode", "single")
        rates = spreading_rates(threat)
        graph = sample_graph(params, region, resolved_seed)
        rows = []
        series = []
        if mode in ("single", "both"):
            res = simulate_single(graph, rates.alphac, sim)
            mf = solve_theta(combined_pmf(params), rates.alphac).aggregate
            rows.append(("combined", res.informed_fraction_combined,
                         res.se_combined, mf,
                         abs(res.informed_fraction_combined - mf),
                         res.extinctions))
            if res.timeseries is not None:
                series.append(("combined", res.timeseries[:, :, 0]))
        if mode in ("dual", "both"):
            res = simulate_dual(graph, rates.alpha1, rates.alpha2, sim)
            dual = solve_dual(intra_layer_pmf(params, 1), intra_layer_pmf(params, 2),
                              rates.alpha1, rates.alpha2)
            for name, got, se, mf in (
                ("message1", res.informed_fraction_1, res.se_1, dual.aggregate_1),
                ("message2", res.informed_fraction_2, res.se_2, dual.aggregate_2),
                ("both", res.informed_fraction_both, res.se_both, dual.aggregate_ii),
            ):
                rows.append((name, got, se, mf, abs(got - mf), res.extinctions))
            if res.timeseries is not None:
                series.append(("message1", res.timeseries[:, :, 0]))
                series.append(("message2", res.timeseries[:, :, 1]))
                series.append(("both", res.timeseries[:, :, 2]))
        if mode not in ("single", "dual", "both"):
            raise ConfigError(f"unknown simulate mode {mode!r}")
        _write_csv(out_dir / "simulate.csv",
                   ["quantity", "informed_fraction", "standard_error",
                    "mean_field", "gap", "extinctions"],
                   rows)
        outputs = ["simulate.csv"]
        if series:
            ts_rows = []
            reps, steps = series[0][1].shape
            for rep in range(reps):
                for step in range(steps):
                    ts_rows.append([rep, step] + [s[1][rep, step] for s in series])
            _write_csv(out_dir / "timeseries.csv",
                       ["replication", "step"] + [f"frac_{s[0]}" for s in series],
                       ts_rows)
            outputs.append("timeseries.csv")
        return outputs

    _run("simulate", config_path, seed, out, body)


@main.command()
@_config_opt
@_seed_opt
@_out_opt
def design(config_path, seed, out):
    """Solve the mission design problem; optionally sweep a parameter."""

    def body(cfg, resolved_seed, out_dir):
        mission = _mission_from_config(_require(cfg, "mission"))
        solution = optimize(mission)
        payload = {"status": solution.status}
        if solution.params is not None:
            payload.update({
                "p": solution.params.p,
                "lambda": solution.params.lam,
                "r1_m": solution.params.r1 * 1000.0,
                "r2_m": solution.params.r2 * 1000.0,
                "cost": solution.cost,
                "active_set": sorted(solution.active_set),
                "slacks": {k: v for k, v in sorted(solution.slacks.items())},
            })
        else:
            payload["violated"] = sorted(solution.active_set)
        _write_json(out_dir / "design_solution.json", payload)
        outputs = ["design_solution.json"]
        sweep_cfg = cfg.get("sweep")
        if sweep_cfg:
            variable = _require(sweep_cfg, "variable")
            grid = _require(sweep_cfg, "grid")
            if variable not in ("delta", "tc", "t_intra"):
                raise ConfigError(f"unknown sweep variable {variable!r}")
            rows = []
            for row in sweep(mission, variable, grid):
                s = row.solution
                if s.status == "optimal":
                    rows.append((row.value, s.status, s.params.p, s.params.lam,
                                 s.params.r1 * 1000.0, s.params.r2 * 1000.0, s.cost))
                else:
                    rows.append((row.value, s.status, None, None, None, None, None))
            _write_csv(out_dir / "sweep.csv",
                       ["value", "status", "p", "lambda", "r1_m", "r2_m", "cost"],
                       rows)
            outputs.append("sweep.csv")
        return outputs

    _run("design", config_path, seed, out, body)


@main.command()
@_config_opt
@_seed_opt
@_out_opt
def reconfig(config_path, seed, out):
    """Run the periodic estimate-and-redeploy mission loop."""

    def body(cfg, resolved_seed, out_dir):
        mission = _mission_from_config(_require(cfg, "mission"))
        try:
            events = [
                ScenarioEvent(
                    time=_require(e, "time"),
                    kind=str(_require(e, "kind")),
                    loss_fraction_type1=float(e.get("loss_fraction_type1", 0.0)),
                    loss_fraction_type2=float(e.get("loss_fraction_type2", 0.0)),
                    new_delta=e.get("new_delta"),
                )
                for e in cfg.get("scenario", [])
            ]
        except ValueError as exc:
            raise ConfigError(f"invalid scenario event: {exc}")
        try:
            t_r, epsilon, horizon = _check_loop_settings(
                cfg.get("t_r", 50), cfg.get("epsilon", 0.05), cfg.get("horizon", 200), events)
        except ValueError as exc:
            raise ConfigError(f"invalid mission loop: {exc}")
        trace = run_mission(
            mission,
            events,
            t_r=t_r,
            epsilon=epsilon,
            horizon=horizon,
            seed=resolved_seed,
            region=_region_from_config(cfg.get("region")),
        )
        rows = []
        for c in trace.checks:
            rows.append((
                c.time, c.lam1_hat, c.lam2_hat, c.t1_hat, c.t2_hat, c.tc_hat,
                c.delta_hat, c.recomputed,
                c.params.p if c.params else None,
                c.params.lam if c.params else None,
                c.params.r1 * 1000.0 if c.params else None,
                c.params.r2 * 1000.0 if c.params else None,
                c.added_type1, c.added_type2, c.cumulative_cost, c.status,
            ))
        _write_csv(out_dir / "reconfig_trace.csv",
                   ["time", "lam1_hat", "lam2_hat", "t1_hat", "t2_hat", "tc_hat",
                    "delta_hat", "recomputed", "p", "lambda", "r1_m", "r2_m",
                    "added_type1", "added_type2", "cumulative_cost", "status"],
                   rows)
        return ["reconfig_trace.csv"]

    _run("reconfig", config_path, seed, out, body)


if __name__ == "__main__":
    main()
