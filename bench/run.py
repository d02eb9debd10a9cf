"""d2dnet benchmark: run one workload through the CLI and print its metrics.

    python3 bench/run.py --workload deploy|oracle|mission --seed N \
        --seconds S --trace 0|1

Run from the root of a d2dnet source tree. The workload's commands run
in this process through ``d2dnet.cli.main``, in whole rounds, for about
``--seconds``; then every output is checked (bench/checks.py). The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics from a traced run with ``--trace 1``). Outputs, spans
and a results file with the machine facts go under ``.bench_out/``.
"""
from __future__ import annotations

import os

# Pin BLAS/OpenMP pools before numpy is imported, here and in every child.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
SETUP_PROBE = ("import sys; sys.path.insert(0, 'src'); import d2dnet.cli; "
               "sys.stdout.write('ready\\n'); sys.stdout.flush()")


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def measure_setup() -> list[float]:
    """Seconds from starting a fresh interpreter until d2dnet.cli is imported."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed to import d2dnet.cli")
    return samples


def run_rounds(workload: str, seed: int, seconds: float, out: Path, tracer):
    """Run whole rounds until another one would overrun ``seconds``.

    Returns the rounds and the reference-kernel samples, taken in a slot
    before the first command and after every command.
    """
    from harness import GraphObserver, reference_slot, run_op

    rounds = []
    reference = reference_slot()
    start = time.perf_counter()
    with GraphObserver() as observer:
        while True:
            r = len(rounds)
            ops = []
            by_command: dict[str, float] = {}
            for op in workloads.round_ops(workload, seed, r):
                op_dir = out / f"round{r}" / op.name
                code, elapsed, graph = run_op(op, op_dir, observer, tracer)
                reference += reference_slot()
                by_command[op.command] = by_command.get(op.command, 0.0) + elapsed
                ops.append((op, op_dir, code, graph))
            rounds.append({"ops": ops, "by_command": by_command,
                           "wall_s": sum(by_command.values())})
            spent = time.perf_counter() - start
            if spent + spent / len(rounds) > seconds:
                return rounds, reference


def check_rounds(rounds) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, unexpected failures, expected failures)."""
    from checks import Checker, answer_ids

    checker = Checker()
    attempted = failed = 0
    unexpected, expected = [], []
    for r, rnd in enumerate(rounds):
        for op, op_dir, code, graph in rnd["ops"]:
            if code == 0:
                answers = [(a.id, a.problems) for a in checker.check(op, op_dir, graph)]
            else:
                answers = [(a, [f"command exited with code {code}"]) for a in answer_ids(op)]
            for answer_id, problems in answers:
                attempted += 1
                if not problems:
                    continue
                failed += 1
                line = f"round {r} {op.name} [{answer_id}]: {'; '.join(problems)}"
                if answer_id in op.expected_failures:
                    expected.append(f"{line} ({op.expected_failures[answer_id]})")
                else:
                    unexpected.append(line)
    return attempted, failed, unexpected, expected


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "d2dnet" / "cli.py").is_file():
        print(f"error: no d2dnet source tree under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness  # noqa: F401  (imports d2dnet.cli, writing bytecode before the probes)
    from tracing import Tracer, layer_metrics

    facts = machine_facts()
    setup = [] if args.trace else measure_setup()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        rounds, reference = run_rounds(args.workload, args.seed, args.seconds, out, tracer)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # Means, not medians: the machine's speed drifts within and between
    # runs, and the mean reference time tracks the average speed that the
    # commands ran at, so the ratio cancels most of the drift.
    wall_s = statistics.fmean(r["wall_s"] for r in rounds)
    wall_ref = wall_s / statistics.fmean(reference)

    attempted, failed, unexpected, expected = check_rounds(rounds)
    for line in expected:
        print(f"known failure: {line}", file=sys.stderr)
    for line in unexpected:
        print(f"FAILED: {line}", file=sys.stderr)

    if tracer:
        tracer.dump(out / "spans.json")
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in layer_metrics(tracer.spans, len(rounds)).items()}
        metrics["trace.wall_s"] = {"value": wall_s, "unit": "s"}
        metrics["trace.wall_ref"] = {"value": wall_ref, "unit": "x"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_ref": {"value": wall_ref, "unit": "x"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results_file = OUT / "results" / f"{name}.json"
    results_file.parent.mkdir(parents=True, exist_ok=True)
    results_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": facts, "setup_s": setup,
        "wall_s": wall_s, "reference_s": reference,
        "rounds": [{"wall_s": r["wall_s"], "by_command": r["by_command"]} for r in rounds],
        "known_failures": expected, "unexpected_failures": unexpected, "result": result,
    }, indent=2) + "\n")
    print(json.dumps({"machine": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
