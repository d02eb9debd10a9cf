"""Running one benchmark operation in-process through ``d2dnet.cli.main``."""
from __future__ import annotations

import json
import math
import time
from contextlib import nullcontext
from pathlib import Path

import click
import numpy as np

import d2dnet.cli as cli
from d2dnet.geometry import TYPE_I


REFERENCE_SAMPLES = 4


def reference_kernel() -> float:
    """Seconds for a fixed mix of the kinds of work the workloads do.

    It does not touch d2dnet, so it measures how fast the machine runs at
    the moment. On a shared machine that speed drifts by up to ~1.6x over
    minutes; dividing command times by this kernel's time cancels most of
    the drift.
    """
    start = time.perf_counter()
    # Interpreter work: appending to and sorting many small lists.
    lists: list[list[int]] = [[] for _ in range(1000)]
    for i in range(150_000):
        lists[(i * 7919) % 1000].append(i)
    sum(len(sorted(a)) for a in lists)
    # Gathers and boolean updates over a 64k-element working set.
    idx = (np.arange(65536) * 40503) % 65536
    odd = (idx & 1) == 1
    state = (idx % 3) == 0
    for _ in range(250):
        state = state[idx] ^ odd
    # Scalar float calls, as in an optimizer's callbacks.
    total = 0.0
    for i in range(80_000):
        total += math.sqrt(i + 1.0)
    return time.perf_counter() - start


def reference_slot() -> list[float]:
    return [reference_kernel() for _ in range(REFERENCE_SAMPLES)]


class GraphObserver:
    """Notes the node and type-I counts of the graph each CLI command samples,
    so the simulate check can bound message 1 by the type-I share."""

    def __init__(self):
        self.original = cli.sample_graph
        self.last: dict | None = None

    def _observed(self, *args, **kwargs):
        graph = self.original(*args, **kwargs)
        self.last = {"n": graph.n, "type1": int((graph.types == TYPE_I).sum())}
        return graph

    def __enter__(self):
        cli.sample_graph = self._observed
        return self

    def __exit__(self, *exc):
        cli.sample_graph = self.original


def run_command(args: list[str]) -> int:
    """Run one d2dnet command; return its exit code."""
    try:
        cli.main.main(args=args, prog_name="d2dnet", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        return exc.exit_code
    return 0


def run_op(op, out: Path, observer: GraphObserver,
           tracer=None) -> tuple[int, float, dict | None]:
    """Write the op's config next to ``out`` and run the op into ``out``.

    Returns (exit code, seconds in the command, graph facts or None).
    """
    out.mkdir(parents=True)
    config = out.parent / f"{op.name}.json"
    config.write_text(json.dumps(op.config))
    args = [op.command, "--config", str(config), "--out", str(out)]
    if op.seed is not None:
        args += ["--seed", str(op.seed)]
    observer.last = None
    with tracer.command(op.command) if tracer else nullcontext():
        start = time.perf_counter()
        code = run_command(args)
        elapsed = time.perf_counter() - start
    return code, elapsed, observer.last
