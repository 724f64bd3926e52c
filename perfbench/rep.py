"""Measured runs of one workload, in a fresh process.

``run.py`` starts this script for each part of a benchmark run, so every
part pays what a user's fresh process pays and reports only its own peak
memory.  It prints one JSON object on its last line of standard output.
Modes:

* ``runner``: ``ExperimentRunner().run(spec)`` on traffic matrix 0, the way
  users run an experiment; reports the FCT digest (the equivalence check
  of the layer-by-layer stages) and the process's peak resident memory.
* ``measure``: the layer-by-layer stages with tracing off.  It runs traffic
  matrices 0, 1, 2, ... while another one still fits in ``--seconds``, and
  at least the workload's pooled ones.  Each run is timed, digested and
  checked, and after each run :data:`EXTRA_SETUPS` more set-ups from fresh
  objects are timed.  The :mod:`hostspeed` reference kernel, timed between
  runs, gives each run's host-speed scale.
* ``traced``: matrix 0 once untraced, then once with every layer timed and
  ``repro.obs`` on; reports the per-layer metrics and writes the spans as
  Chrome-trace JSON.

Usage: ``python3 perfbench/rep.py MODE --workload NAME --seed N [options]``
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
from dataclasses import asdict
from pathlib import Path
from time import monotonic

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

import hostspeed  # noqa: E402
import stages  # noqa: E402
import layers  # noqa: E402
from repro.analysis import SlowdownProfile  # noqa: E402
from repro.experiments import ExperimentRunner  # noqa: E402
from workloads import WORKLOADS, describe  # noqa: E402

#: set-ups timed after each measured run, on top of the run's own set-up
#: (set-up is short, so ``setup_s`` needs more samples than the run time)
EXTRA_SETUPS = 2


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _checked(matrix: int, outcome) -> dict:
    """Timings, digest and output check of one staged run."""
    check = stages.check_outputs(
        outcome.result, outcome.setup.demands, outcome.setup.topology
    )
    return {
        "matrix": matrix,
        "wall_s": outcome.wall_s,
        "run_s": outcome.run_s,
        "setup_s": outcome.setup.seconds,
        "completed": len(outcome.result.store),
        "digest": stages.fct_digest(outcome.result),
        "check": dict(asdict(check), failed=check.failed),
    }


def measure(name: str, seed: int, seconds: float) -> dict:
    """Untraced staged runs over successive matrices for ``seconds``.

    The reference kernel of :mod:`hostspeed` runs before the first matrix
    and after every turn; each run records the scale its host times get,
    from the mean of the kernel's time just before and just after it.
    """
    workload = WORKLOADS[name]
    start = monotonic()
    runs, sizes, slowdowns, params = [], [], [], []
    costs = []  # host seconds of each loop turn: one run and its extra set-ups
    hostspeed.reference_kernel()  # warm-up, not timed
    kernel_s = [hostspeed.reference_kernel()]
    # stop when one more turn of the usual length would overrun ``seconds``
    while len(runs) < workload.pooled or (
        monotonic() - start + statistics.median(costs) < seconds
    ):
        turn = monotonic()
        matrix = len(runs)
        spec = workload.spec(seed, matrix)
        outcome = stages.run(spec)
        run = _checked(matrix, outcome)
        if matrix < workload.pooled:
            sizes.append(outcome.result.store.sizes())
            slowdowns.append(outcome.result.store.slowdowns())
            params.append(describe(spec))
        del outcome
        run["extra_setup_s"] = []
        for _ in range(EXTRA_SETUPS):
            gc.collect()
            run["extra_setup_s"].append(stages.setup(spec).seconds)
        kernel_s.append(hostspeed.reference_kernel())
        run["kernel_s"] = statistics.fmean(kernel_s[-2:])
        run["scale"] = hostspeed.NOMINAL_S / run["kernel_s"]
        runs.append(run)
        costs.append(monotonic() - turn)
    # percentiles over the pooled matrices' flows, through the analysis layer
    pooled = SlowdownProfile.from_arrays(
        name, np.concatenate(sizes), np.concatenate(slowdowns)
    )
    return {
        "runs": runs,
        "slowdown_p50": pooled.overall_p50,
        "slowdown_p99": pooled.overall_p99,
        "slowdown_samples": pooled.total_flows,
        "params": params,
    }


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("runner", "measure", "traced"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    if args.mode == "measure":
        return measure(args.workload, args.seed, args.seconds)

    spec = WORKLOADS[args.workload].spec(args.seed, 0)
    if args.mode == "runner":
        run = ExperimentRunner().run(spec)
        return {"digest": stages.fct_digest(run.result), "peak_rss_mb": _peak_rss_mb()}

    base = _checked(0, stages.run(spec))
    gc.collect()
    outcome, tracer = layers.traced_run(spec)
    traced = _checked(0, outcome)
    traced["wall_s"] = tracer.total_s("run")
    if args.trace_out:
        tracer.write_chrome_trace(args.trace_out, {"workload": args.workload, "seed": args.seed})
    return {
        "runs": [base, traced],
        "metrics": layers.layer_metrics(outcome, tracer, base["wall_s"]),
        "moves": {name: moves for name, _, _, moves in layers.PER_LAYER},
        "params": [describe(spec)],
    }


if __name__ == "__main__":
    print(json.dumps(main()))
