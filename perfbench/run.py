"""The repository benchmark: LCMP / ECMP + DCQCN runs, end to end and per layer.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload tb8-dense --seed 1 --seconds 20 --trace 0

Each part runs in a fresh process (``perfbench/rep.py``).  First the
workload's traffic matrix 0 runs through ``ExperimentRunner().run``, the way
users run it; that process also gives ``peak_rss_mb``.  ``--trace 0`` then
measures the end-to-end metrics of ``BENCHMARK.json`` with tracing off: it
runs traffic matrices 0, 1, 2, ... while another one still fits in what is
left of ``--seconds``, and at least the ones whose flows the slowdown
percentiles pool (see ``workloads.py``); it reports medians over the runs,
with host times scaled to a reference host speed (``hostspeed.py``), and
percentiles over the pooled flows.  ``--trace 1`` instead runs matrix 0
untraced and then traced, and reports the per-layer metrics.

The staged run of matrix 0 (untraced and traced) must give the runner's
FCT digest, and every flow must complete no faster than the physical bound
of its own route; ``correct`` is false otherwise.  Human-readable lines
come first; the last line of standard output is the JSON result.  Provenance (workload parameters, every run's
samples, check verdicts) goes to ``perfbench/out/``, with the traced run's
Chrome-trace JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: whole-invocation budget for the child processes
BUDGET_S = 170.0
#: the machine may have as few as two cores, so the children keep numerical
#: libraries to one thread each rather than timing the scheduler
CHILD_ENV = dict(
    os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1"
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def _child(mode: str, workload: str, seed: int, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "rep.py"), mode, "--workload", workload]
    cmd += ["--seed", str(seed), *extra]
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before the {mode} run")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} run did not finish within {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} run failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _host_samples(runs, scaled: bool) -> dict:
    """Each run's host-time samples: scaled to the reference host speed of
    ``hostspeed.py`` (the published metrics), or as read."""
    k = [r["scale"] if scaled else 1.0 for r in runs]
    return {
        "wall_s": [r["wall_s"] * f for r, f in zip(runs, k)],
        "setup_s": [
            s * f for r, f in zip(runs, k) for s in (r["setup_s"], *r["extra_setup_s"])
        ],
        "flows_per_s": [r["completed"] / (r["run_s"] * f) for r, f in zip(runs, k)],
    }


def _load_contract() -> dict:
    if not (ROOT / "src" / "repro").is_dir():
        raise BenchError(f"no simulator sources at {ROOT / 'src' / 'repro'}")
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"no {path}")
    return json.loads(path.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = monotonic() + BUDGET_S
    try:
        contract = _load_contract()
        whys = {w["name"]: w["why"] for w in contract["workloads"]}
        if args.workload not in whys:
            raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(whys)}")
        result, provenance = _run(args, contract, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    provenance["why"] = whys[args.workload]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(provenance, indent=1))
    print(f"provenance: {OUT / stem}.json")
    print(json.dumps(result))
    return 0


def _run(args, contract: dict, deadline: float):
    workload, seed = args.workload, args.seed
    OUT.mkdir(exist_ok=True)
    start = monotonic()
    runner = _child("runner", workload, seed, deadline)
    if args.trace:
        child = _child(
            "traced", workload, seed, deadline,
            "--trace-out", str(OUT / f"{workload}-seed{seed}.trace.json"),
        )
        declared = contract["per_layer"]
        values = child["metrics"]
        samples = raw = None
    else:
        child = _child(
            "measure", workload, seed, deadline,
            # the runner's time counts toward ``--seconds``
            "--seconds", repr(max(0.0, args.seconds - (monotonic() - start))),
        )
        declared = contract["end_to_end"]
        samples = _host_samples(child["runs"], scaled=True)
        raw = _host_samples(child["runs"], scaled=False)
        values = {name: statistics.median(v) for name, v in samples.items()}
        values.update(
            peak_rss_mb=runner["peak_rss_mb"],
            slowdown_p50=child["slowdown_p50"],
            slowdown_p99=child["slowdown_p99"],
        )
    runs = child["runs"]
    # one verdict per traffic matrix (a traced run repeats matrix 0)
    verdicts = list({r["matrix"]: r["check"] for r in runs}.values())
    attempted = sum(c["attempted"] for c in verdicts)
    failed = sum(c["failed"] for c in verdicts)
    below_1 = sum(c["slowdown_below_1"] for c in verdicts)
    values["completed_frac"] = (attempted - failed) / attempted
    checks = {
        # matrix 0 through the stages (and, traced, through the tracer)
        # gives the runner's digest: the benchmark measures what users run
        "runner_equivalent": all(
            r["digest"] == runner["digest"] for r in runs if r["matrix"] == 0
        ),
        "outputs_physical": failed == 0,
    }
    if args.trace:
        checks["traced_equals_untraced"] = runs[1]["digest"] == runs[0]["digest"]

    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in values:
            raise BenchError(f"metric {name!r} of BENCHMARK.json was not measured")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}

    print(
        f"workload {workload} seed {seed}: {len(runs)} runs over "
        f"{len(verdicts)} traffic matrices, checks {checks}"
    )
    print(
        f"  flows attempted {attempted}, failed {failed} "
        f"(failed_frac {failed / attempted:.6f}), slowdown < 1: {below_1} "
        f"(min {min(c['slowdown_min'] for c in verdicts):.4f})"
    )
    for name, metric in metrics.items():
        line = f"  {name} = {metric['value']:.6g} {metric['unit']}"
        if samples and name in samples:
            lo, hi = _quartiles(samples[name])
            line += (
                f"  (median of {len(samples[name])}, IQR {lo:.6g}..{hi:.6g};"
                f" as read {statistics.median(raw[name]):.6g})"
            )
        elif name.startswith("slowdown_"):
            line += f"  (simulated, over n={child['slowdown_samples']} flows)"
        elif args.trace:
            line += f"  [moves {child['moves'][name]}]"
        print(line)

    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    provenance = {
        "workload": workload,
        "seed": seed,
        "trace": args.trace,
        "checks": checks,
        "params": child["params"],
        "runner": runner,
        "runs": runs,
        "samples": samples,
        "samples_as_read": raw,
        "result": result,
    }
    return result, provenance


if __name__ == "__main__":
    sys.exit(main())
