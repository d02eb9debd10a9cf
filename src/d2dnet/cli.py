"""Command-line surface: reproducible runs that emit CSV/JSON artifacts.

Every command takes a JSON config, honours --seed (over the config's
``seed``) and --out, and writes a manifest sufficient to reproduce the
outputs byte for byte.  Densities are per km^2; ranges at this boundary
are in meters and converted to km internally.

A command's body computes its artifacts and returns them; ``_command``
alone writes them, once the body has finished, with ``manifest.json``
last.  So a failed run leaves --out as it was, and a run whose own file
writes fail leaves no manifest beside them.

One reader walks a declarative spec per config object (``COMMANDS``) and
reads the whole config before any work starts.  An unknown key, a value
of the wrong JSON type, a non-object where an object belongs or a missing
required key is a config error naming its key path, such as
``mission.bounds.p_max`` or ``scenario[0].kind``.  Range rules stay with
the dataclasses the config builds and the functions the commands call;
the reader calls those owners too, so a bad ``alpha``, mean degree, time
grid or sweep value is a config error before any output is written.

The commands that sample graphs use a second CPU when the process's
affinity allows one (``geometry._usable_cpus``); none changes a byte of
output for it.  ``simulate`` and ``reconfig`` sample on the main thread,
where ``build_rgg`` queries each graph's layer 1 on a helper thread
beside layer 2.  ``degree`` samples its validation graphs on a thread
pool, one whole graph per worker, and there ``build_rgg`` queries the
layers in turn: the pool already keeps every CPU busy.  ``simulate`` in
mode ``both`` also runs the single-message oracle in a forked worker
beside the two-message one.

Exit codes: 0 success, 1 runtime failure, 2 config error.
"""
from __future__ import annotations

import csv
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import click
import numpy as np

from . import __version__
from .degree import (
    NetworkParams,
    ParamBounds,
    ThreatModel,
    _poisson_pmf,
    combined_pmf,
    default_k_max,
    degree_moments,
    intra_layer_pmf,
    spreading_rates,
)
from .designer import MissionSpec, _swept, optimize, sweep
from .geometry import Region, _usable_cpus, empirical_degrees, sample_graph
from .meanfield import (_check_alpha, _check_fraction, _check_time_grid, integrate_single,
                        solve_dual, solve_theta, theta_lower_bound)
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


def _send_outcome(sender, fn, args) -> None:
    """Child side of _forked: send ``(True, fn(*args))`` or ``(False, exception)``."""
    try:
        outcome = (True, fn(*args))
    except BaseException as exc:   # re-raised in the parent, which owns the exit code
        outcome = (False, exc)
    sender.send(outcome)


@contextmanager
def _forked(fn, *args):
    """Run ``fn(*args)`` in a forked child while the body runs; yield its receiver.

    Fork hands the child ``fn`` and its arguments as they stand (patched or
    traced functions included), so nothing is pickled on the way in; only
    the outcome crosses the pipe.  The receiver returns the child's result,
    re-raises its exception, or raises RuntimeError if the child died
    without one.  A failing body kills the child; it is joined on every path.
    """
    import multiprocessing

    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_send_outcome, args=(sender, fn, args))
    try:
        child.start()
        sender.close()   # so a child that dies leaves the receiver at EOF

        def receive():
            try:
                ok, value = receiver.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"the {fn.__name__} worker exited with code "
                                   f"{child.exitcode} before returning a result") from None
            if not ok:
                raise value
            return value

        yield receive
    except BaseException:
        if child.is_alive():
            child.kill()
        raise
    finally:
        receiver.close()
        sender.close()
        if child.pid is not None:
            child.join()


# Config kinds.  Each reads the value at a key path and returns it, converted,
# or raises ConfigError naming the path.  Range and domain rules belong to the
# dataclasses the sections build; only the master seed, k_max and
# validate.seeds, which no dataclass owns, carry a bound here.

def _kind(expected: str, test, convert=None):
    def read(value, path):
        if not test(value):
            raise ConfigError(f"{path} must be {expected}, got {value!r}")
        return value if convert is None else convert(value)
    return read


def _is_number(value) -> bool:
    return type(value) in (int, float)   # json.load's numbers; bools are not


def _is_finite(value) -> bool:
    return _is_number(value) and math.isfinite(value)


_finite = _kind("a finite number", _is_finite, float)
_metres = _kind("a finite number of meters", _is_finite, lambda v: v / 1000.0)
# t_r, horizon and event times: their rule (finite integers, integral floats
# included) is the mission loop's, in _check_loop_settings and ScenarioEvent.
_number = _kind("a number", _is_number)
_event_time = _kind("a numeric event time", _is_number)
_integer = _kind("an integer", lambda v: type(v) is int)
_count = _kind("a nonnegative integer", lambda v: type(v) is int and v >= 0)
_positive = _kind("a positive integer", lambda v: type(v) is int and v >= 1)
_bool = _kind("true or false", lambda v: type(v) is bool)
_finite_or_null = _kind("a finite number or null", lambda v: v is None or _is_finite(v))


def _enum(*names: str):
    return _kind("one of " + ", ".join(map(repr, names)), lambda v: v in names)


def _numbers(value, path):
    """A nonempty list of finite numbers, kept as written: the CSVs echo them."""
    if type(value) is not list or not value:
        raise ConfigError(f"{path} must be a nonempty list of numbers, got {value!r}")
    for i, v in enumerate(value):
        _finite(v, f"{path}[{i}]")
    return value


def _number_or_list(value, path):
    """One finite number or a list of them, read as a list."""
    if type(value) is list:
        return _numbers(value, path)
    if not _is_finite(value):
        raise ConfigError(f"{path} must be a finite number or a list of numbers, got {value!r}")
    return [value]


_REQUIRED = object()


class _Spec:
    """One config object, read into ``build(**fields)``.

    Entries are (key, kind, default[, field]).  A kind is one above or a
    nested _Spec; a default is _REQUIRED, None (absent) or a config value
    read like a given one; the field, the keyword fed, defaults to the key.
    """

    def __init__(self, build, *entries):
        self.build = build
        self.entries = [(key, kind, default, field[0] if field else key)
                        for key, kind, default, *field in entries]
        self.keys = {entry[0] for entry in self.entries}

    def __call__(self, obj, path=""):
        if type(obj) is not dict:
            raise ConfigError(f"{path or 'config'} must be a JSON object, got {obj!r}")
        prefix = f"{path}." if path else ""
        for key in obj:
            if key not in self.keys:
                raise ConfigError(f"unknown config key {prefix + key!r}")
        fields = {}
        for key, kind, default, field in self.entries:
            if key in obj:
                fields[field] = kind(obj[key], prefix + key)
            elif default is _REQUIRED:
                raise ConfigError(f"missing required config key: {prefix + key!r}")
            else:
                fields[field] = None if default is None else kind(default, prefix + key)
        try:
            return self.build(**fields)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}" if path else str(exc))


def _list_of(spec: _Spec):
    def read(value, path):
        if type(value) is not list:
            raise ConfigError(f"{path} must be a list of JSON objects, got {value!r}")
        return [spec(item, f"{path}[{i}]") for i, item in enumerate(value)]
    return read


def _in_range(path, rule, *values) -> None:
    """Run a range rule's owner on config values; its ValueError names ``path``."""
    try:
        rule(*values)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}")


def _mission(delta, gamma, ps1, ps2, psc, **fields) -> MissionSpec:
    return MissionSpec(threat=ThreatModel(delta, gamma, ps1, ps2, psc), **fields)


def _equilibrium(**conf) -> SimpleNamespace:
    if (conf["params"] is None) == (conf["mean_degrees"] is None):
        raise ConfigError("equilibrium config needs exactly one of 'params' and 'mean_degrees'")
    if conf["dual"] and conf["params"] is None:
        raise ConfigError("'dual' needs 'params': the two-message equilibrium uses its layers")
    if conf["mode"] == "trajectory" and len(conf["alpha"]) != 1:
        raise ConfigError(f"'mode': 'trajectory' integrates one 'alpha', got {len(conf['alpha'])}")
    # The rules of the functions the command calls, checked before any work.
    for i, a in enumerate(conf["alpha"]):
        _in_range(f"alpha[{i}]", _check_alpha, a)
    for i, m in enumerate(conf["mean_degrees"] or []):
        _in_range(f"mean_degrees[{i}]", theta_lower_bound, 0.0, m)   # owns mean_degree >= 0
    if conf["mode"] == "trajectory":
        _check_fraction(conf["initial_fraction"])
        _check_time_grid(conf["horizon"], conf["step"])
    return SimpleNamespace(**conf)


def _design(**conf) -> SimpleNamespace:
    if conf["sweep"] is not None:
        for i, value in enumerate(conf["sweep"].grid):
            _in_range(f"sweep.grid[{i}]", _swept, conf["mission"], conf["sweep"].variable, value)
    return SimpleNamespace(**conf)


def _reconfig(**conf) -> SimpleNamespace:
    _check_loop_settings(conf["t_r"], conf["epsilon"], conf["horizon"], conf["scenario"])
    return SimpleNamespace(**conf)


_PARAMS = _Spec(NetworkParams, ("p", _finite, _REQUIRED), ("lambda", _finite, _REQUIRED, "lam"),
                ("r1_m", _metres, _REQUIRED, "r1"), ("r2_m", _metres, _REQUIRED, "r2"))
_REGION = _Spec(Region, ("width", _finite, 10.0), ("height", _finite, 10.0),
                ("wrap", _bool, True))
_THREAT = _Spec(ThreatModel, ("delta", _finite, 0.0), ("gamma", _finite, 1.0),
                ("ps1", _finite, 1.0), ("ps2", _finite, 1.0), ("psc", _finite, 1.0))
_BOUNDS = _Spec(ParamBounds, ("p_min", _finite, 0.0), ("p_max", _finite, 0.4),
                ("lambda_min", _finite, 1.0), ("lambda_max", _finite, 15.0),
                ("r1_min_m", _metres, 100.0, "r1_min"), ("r1_max_m", _metres, 2000.0, "r1_max"),
                ("r2_min_m", _metres, 10.0, "r2_min"), ("r2_max_m", _metres, 800.0, "r2_max"))
# The threat keys sit flat in the mission object, beside its own.
_MISSION = _Spec(_mission, ("t1", _finite, _REQUIRED), ("t2", _finite, _REQUIRED),
                 ("tc", _finite, _REQUIRED), ("bounds", _BOUNDS, {}), ("w1", _finite, 100.0),
                 ("w2", _finite, 50.0), ("c", _finite, 100.0), ("eta", _finite, 4.0),
                 *_THREAT.entries)
# Read with seed 0; simulate replaces it by the master seed.
_SIM = _Spec(SimConfig, ("time_step", _finite, 0.1), ("burn_in", _integer, 2000),
             ("measure_steps", _integer, 1000), ("replications", _integer, 20),
             ("quasi_stationary", _bool, True), ("initial_fraction", _finite, 0.1),
             ("timeseries", _bool, False, "record_timeseries"))
_EVENT = _Spec(ScenarioEvent, ("time", _event_time, _REQUIRED),
               ("kind", _enum("device_loss", "threat_change"), _REQUIRED),
               ("loss_fraction_type1", _finite, 0.0), ("loss_fraction_type2", _finite, 0.0),
               ("new_delta", _finite_or_null, None))
_SEED = ("seed", _count, 0)
COMMANDS = {
    "degree": _Spec(
        SimpleNamespace, ("params", _PARAMS, _REQUIRED), ("k_max", _count, None),
        ("validate", _Spec(SimpleNamespace, ("seeds", _positive, 20), ("region", _REGION, {})),
         None),
        _SEED),
    "equilibrium": _Spec(
        _equilibrium, ("params", _PARAMS, None), ("mean_degrees", _numbers, None),
        ("alpha", _number_or_list, [0.3]),
        ("mode", _enum("fixed_point", "trajectory"), "fixed_point"), ("step", _finite, 0.01),
        ("horizon", _finite, 50.0), ("initial_fraction", _finite, 0.01),
        ("dual", _bool, False), ("threat", _THREAT, {}), _SEED),
    "simulate": _Spec(
        SimpleNamespace, ("params", _PARAMS, _REQUIRED), ("threat", _THREAT, {}),
        ("region", _REGION, {}), ("sim", _SIM, {}),
        ("mode", _enum("single", "dual", "both"), "single"), _SEED),
    "design": _Spec(
        _design, ("mission", _MISSION, _REQUIRED),
        ("sweep", _Spec(SimpleNamespace, ("variable", _enum("delta", "tc", "t_intra"), _REQUIRED),
                        ("grid", _numbers, _REQUIRED)), None),
        _SEED),
    "reconfig": _Spec(
        _reconfig, ("mission", _MISSION, _REQUIRED), ("scenario", _list_of(_EVENT), []),
        ("t_r", _number, 50), ("epsilon", _finite, 0.05), ("horizon", _number, 200),
        ("region", _REGION, {}), _SEED),
}


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


_DESIGN_COLUMNS = ("p", "lambda", "r1_m", "r2_m")


def _in_metres(params):
    """A design's (p, lambda, r1_m, r2_m), or four None without one; _metres reversed."""
    if params is None:
        return (None,) * 4
    return params.p, params.lam, params.r1 * 1000.0, params.r2 * 1000.0


@click.group()
@click.version_option(__version__)
def main():
    """Design and evaluation toolkit for two-layer D2D networks."""


def _command(body):
    """The command named after ``body(conf, seed) -> {file name: content}``.

    It reads the whole config before any work and runs the body, which
    writes nothing.  Only then does it create --out, unlink any old
    manifest, write each file (a ``.csv`` content is ``(header, rows)``, a
    ``.json`` one a dict) and write ``manifest.json`` last, listing them.
    Config errors exit 2 and other failures 1.
    """
    name = body.__name__

    @main.command(name, help=body.__doc__)
    @click.option("--config", "config_path", required=True, type=click.Path())
    @click.option("--seed", type=int, default=None, help="Master seed (overrides config).")
    @click.option("--out", default=".", type=click.Path(), help="Output directory.")
    def command(config_path, seed, out):
        try:
            cfg = _load_config(config_path)
            conf = COMMANDS[name](cfg)
            seed = conf.seed if seed is None else _count(seed, "--seed")
            files = body(conf, seed)
            out_dir = Path(out)
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "manifest.json").unlink(missing_ok=True)
            for file_name, content in files.items():
                if file_name.endswith(".csv"):
                    _write_csv(out_dir / file_name, *content)
                else:
                    _write_json(out_dir / file_name, content)
            _write_json(out_dir / "manifest.json", {
                "command": name,
                "config": cfg,
                "seed": seed,
                "tool_version": __version__,
                "outputs": sorted(files),
            })
        except ConfigError as exc:
            click.echo(f"config error: {exc}", err=True)
            sys.exit(2)
        except Exception as exc:   # runtime failure
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)

    return command


@_command
def degree(conf, seed):
    """Analytic degree pmfs and moments; optional empirical validation."""
    params = conf.params
    model = degree_moments(params, conf.k_max)
    n = max(len(model.pmf_k1), len(model.pmf_k2), len(model.pmf_kc))

    def pad(a):
        return np.pad(a, (0, n - len(a)))

    columns = {
        "k": np.arange(n),
        "pmf_k1": pad(model.pmf_k1),
        "pmf_k2": pad(model.pmf_k2),
        "pmf_kc": pad(model.pmf_kc),
    }
    validate = conf.validate
    if validate is not None:
        from concurrent.futures import ThreadPoolExecutor

        def histograms(s):
            # The k-d tree pair queries release the GIL, so graphs
            # sample in parallel; only the histograms come back.  On a
            # pool worker build_rgg queries the two layers in turn.
            graph = sample_graph(params, validate.region, seed + s)
            emp = empirical_degrees(graph)
            return (emp.hist1, emp.hist2, emp.histc), graph.n

        acc = np.zeros((3, n))
        total = 0
        with ThreadPoolExecutor(min(validate.seeds, _usable_cpus())) as pool:
            # map yields in seed order and the counts are integers, so
            # the bytes do not depend on the worker count.
            for hists, count in pool.map(histograms, range(validate.seeds)):
                for hist, row in zip(hists, acc):
                    m = min(len(hist), n)
                    row[:m] += hist[:m]
                total += count
        columns["emp_k1"], columns["emp_k2"], columns["emp_kc"] = acc / total
    return {
        "degree_pmf.csv": (list(columns), zip(*columns.values())),
        "degree_moments.json": {
            "mean_k1": model.mean_k1,
            "mean_k2": model.mean_k2,
            "mean_kc": model.mean_kc,
            "m2_k1": model.m2_k1,
            "m2_k2": model.m2_k2,
            "m2_kc": model.m2_kc,
        },
    }


@_command
def equilibrium(conf, seed):
    """Equilibrium tables (exact vs closed-form bound) or transients."""
    params = conf.params
    files = {}
    if params is not None:
        pmfs = {"combined": combined_pmf(params)}
        means = {"combined": params.mean_kc()}
    else:
        means = {f"poisson_{m}": float(m) for m in conf.mean_degrees}
        pmfs = {name: _poisson_pmf(m, default_k_max(m)) for name, m in means.items()}

    if conf.mode == "fixed_point":
        rows = []
        for name, pmf in pmfs.items():
            for a in conf.alpha:
                eq = solve_theta(pmf, float(a))
                rows.append((
                    name, means[name], a, eq.theta,
                    theta_lower_bound(float(a), means[name]), eq.aggregate,
                ))
        files["equilibrium.csv"] = (["model", "mean_degree", "alpha", "theta_exact",
                                     "theta_bound", "aggregate"], rows)
    else:
        names = list(pmfs)
        trajs = [
            integrate_single(pmfs[n], float(conf.alpha[0]), conf.initial_fraction,
                             conf.horizon, conf.step)
            for n in names
        ]
        files["trajectory.csv"] = (["time"] + [f"aggregate_{n}" for n in names],
                                   zip(trajs[0].times, *[t.aggregate for t in trajs]))

    if conf.dual:
        rates = spreading_rates(conf.threat)
        eq = solve_dual(
            intra_layer_pmf(params, 1), intra_layer_pmf(params, 2),
            rates.alpha1, rates.alpha2,
        )
        files["dual_equilibrium.json"] = {
            "theta1": eq.theta1,
            "theta2": eq.theta2,
            "aggregate_1": eq.aggregate_1,
            "aggregate_2": eq.aggregate_2,
            "aggregate_ii": eq.aggregate_ii,
        }
    return files


@_command
def simulate(conf, seed):
    """Stochastic spreading on sampled graphs, with mean-field comparison.

    In mode both, with two or more usable CPUs, the single-message run goes
    to a forked worker beside the two-message one; the bytes are the same.
    """
    params, mode = conf.params, conf.mode
    sim = replace(conf.sim, seed=seed)
    rates = spreading_rates(conf.threat)
    graph = sample_graph(params, conf.region, seed)
    single = dual = None
    if mode == "both" and _usable_cpus() >= 2:
        # The dual is the longer job, so it stays in this process.
        with _forked(simulate_single, graph, rates.alphac, sim) as receive:
            dual = simulate_dual(graph, rates.alpha1, rates.alpha2, sim)
            single = receive()
    else:
        if mode in ("single", "both"):
            single = simulate_single(graph, rates.alphac, sim)
        if mode in ("dual", "both"):
            dual = simulate_dual(graph, rates.alpha1, rates.alpha2, sim)
    rows = []
    series = []
    if single is not None:
        mf = solve_theta(combined_pmf(params), rates.alphac).aggregate
        rows.append(("combined", single.informed_fraction_combined,
                     single.se_combined, mf,
                     abs(single.informed_fraction_combined - mf),
                     single.extinctions))
        if single.timeseries is not None:
            series.append(("combined", single.timeseries[:, :, 0]))
    if dual is not None:
        eq = solve_dual(intra_layer_pmf(params, 1), intra_layer_pmf(params, 2),
                        rates.alpha1, rates.alpha2)
        for name, got, se, mf in (
            ("message1", dual.informed_fraction_1, dual.se_1, eq.aggregate_1),
            ("message2", dual.informed_fraction_2, dual.se_2, eq.aggregate_2),
            ("both", dual.informed_fraction_both, dual.se_both, eq.aggregate_ii),
        ):
            rows.append((name, got, se, mf, abs(got - mf), dual.extinctions))
        if dual.timeseries is not None:
            series.append(("message1", dual.timeseries[:, :, 0]))
            series.append(("message2", dual.timeseries[:, :, 1]))
            series.append(("both", dual.timeseries[:, :, 2]))
    files = {"simulate.csv": (["quantity", "informed_fraction", "standard_error",
                               "mean_field", "gap", "extinctions"], rows)}
    if series:
        reps, steps = series[0][1].shape
        ts_rows = [[rep, step] + [s[1][rep, step] for s in series]
                   for rep in range(reps) for step in range(steps)]
        files["timeseries.csv"] = (["replication", "step"] + [f"frac_{s[0]}" for s in series],
                                   ts_rows)
    return files


@_command
def design(conf, seed):
    """Solve the mission design problem; optionally sweep a parameter."""
    mission = conf.mission
    solution = optimize(mission)
    payload = {"status": solution.status}
    if solution.params is not None:
        payload.update(zip(_DESIGN_COLUMNS, _in_metres(solution.params)), cost=solution.cost,
                       active_set=sorted(solution.active_set), slacks=solution.slacks)
    else:
        payload["violated"] = sorted(solution.active_set)
    files = {"design_solution.json": payload}
    if conf.sweep is not None:
        rows = []
        for row in sweep(mission, conf.sweep.variable, conf.sweep.grid):
            s = row.solution
            # An infeasible point has no design, and its cost stays blank.
            rows.append((row.value, s.status, *_in_metres(s.params),
                         None if s.params is None else s.cost))
        files["sweep.csv"] = (["value", "status", *_DESIGN_COLUMNS, "cost"], rows)
    return files


@_command
def reconfig(conf, seed):
    """Run the periodic estimate-and-redeploy mission loop."""
    trace = run_mission(conf.mission, conf.scenario, t_r=conf.t_r, epsilon=conf.epsilon,
                        horizon=conf.horizon, seed=seed, region=conf.region)
    rows = [(c.time, c.lam1_hat, c.lam2_hat, c.t1_hat, c.t2_hat, c.tc_hat, c.delta_hat,
             c.recomputed, *_in_metres(c.params), c.added_type1, c.added_type2,
             c.cumulative_cost, c.status)
            for c in trace.checks]
    header = ["time", "lam1_hat", "lam2_hat", "t1_hat", "t2_hat", "tc_hat", "delta_hat",
              "recomputed", *_DESIGN_COLUMNS, "added_type1", "added_type2",
              "cumulative_cost", "status"]
    return {"reconfig_trace.csv": (header, rows)}


if __name__ == "__main__":
    main()
