"""Per-layer metrics of one traced run, and what each should move.

:func:`traced_run` wraps the public entry points of every layer under
``src/repro/`` for the length of one run (see :mod:`tracer`), and
:func:`layer_metrics` turns the spans, the ``repro.obs`` counters of the
run's ``result.stats`` and the layers' own statistics into the per-layer
table.  Self time is a span's duration minus the time covered by its child
spans; ``_ms`` metrics are phase self times and ``_s`` metrics whole spans,
except ``simulator.build_s``, which leaves out the router provisioning that
runs inside the network's constructor (that is ``core.provision_s``).
Host time is time on the machine running the benchmark; the scenario
latency is simulated time.

:data:`PER_LAYER` lists every metric with the end-to-end metric and the
workload it should move, so a change that claims a gain names its layer.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

import numpy as np

import repro.simulator.fluid as fluid_module
from repro.backend import get_backend
from repro.core import LCMPRouter
from repro.routing import ECMPRouter
from repro.simulator.telemetry import TelemetryPlane

import stages
from tracer import NestedInstrumentation, Tracer

#: array-backend kernels the simulator and the LCMP / ECMP routers call
KERNELS = (
    "scatter_add",
    "segment_reduce",
    "expand_segments",
    "path_signals",
    "gather_rows",
    "scatter_rows",
    "masked_where",
    "masked_divide",
)

_C400 = "c400-lcmp, c400-ecmp"
_CUT = "slowdown_p99, completed_frac on bso13-cut"
#: (name, unit, better, what it should move)
PER_LAYER: List[Tuple[str, str, str, str]] = [
    ("topology.build_s", "s", "lower", f"setup_s on {_C400}"),
    ("topology.pathset_s", "s", "lower", f"setup_s on {_C400}"),
    ("topology.pathset_searches", "count", "lower", f"peak_rss_mb, wall_s on {_C400}"),
    ("topology.pathset_paths", "count", "lower", f"peak_rss_mb, wall_s on {_C400}"),
    ("topology.pathset_bytes", "bytes", "lower", f"peak_rss_mb, wall_s on {_C400}"),
    ("workloads.generate_s", "s", "lower", "setup_s on bso13-cut"),
    ("workloads.flows", "count", "higher", "input size (fixed per workload)"),
    ("core.provision_s", "s", "lower", "setup_s on c400-lcmp"),
    ("core.on_telemetry_s", "s", "lower",
     "wall_s, flows_per_s on c400-lcmp; barely on tb8-dense; not on c400-ecmp"),
    ("core.on_telemetry_calls", "count", "lower", "wall_s, flows_per_s on c400-lcmp"),
    ("core.select_batch_s", "s", "lower", "wall_s on bso13-cut"),
    ("core.select_batch_calls", "count", "lower", "wall_s on bso13-cut"),
    ("core.select_s", "s", "lower", "wall_s on bso13-cut"),
    ("core.select_calls", "count", "lower", "wall_s on bso13-cut"),
    ("core.on_tick_s", "s", "lower", "wall_s on every LCMP workload"),
    ("core.decisions", "count", "lower", "wall_s on bso13-cut"),
    ("core.flow_cache_hits", "count", "higher", "wall_s on bso13-cut"),
    ("core.flow_cache_misses", "count", "lower", "wall_s on bso13-cut"),
    ("core.flow_cache_hit_ratio", "ratio", "higher", "wall_s on bso13-cut"),
    ("core.failover_rehashes", "count", "lower", "wall_s, slowdown_p99 on bso13-cut"),
    ("core.herd_fallbacks", "count", "lower", "slowdown_p99 on bso13-cut"),
    ("core.ecmp_fallbacks", "count", "lower", "slowdown_p99 on bso13-cut"),
    ("routing.select_batch_s", "s", "lower", "wall_s on c400-ecmp"),
    ("routing.select_batch_calls", "count", "lower", "wall_s on c400-ecmp"),
    ("simulator.build_s", "s", "lower", "setup_s on every workload"),
    ("simulator.run_s", "s", "lower", "wall_s, flows_per_s on every workload"),
    ("simulator.steps", "count", "lower", "wall_s, flows_per_s on every workload"),
    ("simulator.events_fired", "count", "lower", "wall_s, flows_per_s on every workload"),
    ("simulator.step_us_p50", "us", "lower", "wall_s, flows_per_s on every workload"),
    ("simulator.step_us_p99", "us", "lower", "wall_s, flows_per_s on every workload"),
    ("simulator.sweep_s", "s", "lower", f"wall_s on {_C400}"),
    ("simulator.sweeps", "count", "lower", f"wall_s on {_C400}"),
    ("simulator.update_ms", "ms", "lower", "wall_s on tb8-dense"),
    ("simulator.signals_ms", "ms", "lower", "wall_s on tb8-dense"),
    ("simulator.load_queue_ms", "ms", "lower", "wall_s on tb8-dense"),
    ("simulator.completions_ms", "ms", "lower", "wall_s on tb8-dense"),
    ("simulator.revalidate_ms", "ms", "lower", "wall_s on bso13-cut"),
    ("simulator.route_ms", "ms", "lower", "wall_s on c400-ecmp, bso13-cut"),
    ("simulator.arrivals_ms", "ms", "lower", "wall_s on c400-ecmp, bso13-cut"),
    ("simulator.monitor_ms", "ms", "lower", "wall_s on c400-lcmp"),
    ("simulator.gc_ms", "ms", "lower", "wall_s on every LCMP workload"),
    ("simulator.loop_ms", "ms", "lower", "wall_s on every workload"),
    ("simulator.routing_decisions", "count", "lower", "wall_s on c400-ecmp, bso13-cut"),
    ("simulator.reroutes", "count", "lower", "wall_s on bso13-cut"),
    ("simulator.fallback_decisions", "count", "lower", "wall_s on bso13-cut"),
    ("cc.feedback_ms", "ms", "lower", "wall_s on tb8-dense"),
    ("cc.advance_ms", "ms", "lower", "wall_s on tb8-dense"),
    ("cc.kernel_dispatches", "count", "lower", "wall_s on tb8-dense"),
]
for _k in KERNELS:
    PER_LAYER += [
        (f"backend.{_k}.calls", "count", "lower", "wall_s on tb8-dense"),
        (f"backend.{_k}_s", "s", "lower", "wall_s on tb8-dense"),
        (f"backend.{_k}.bytes", "bytes", "lower", "wall_s on tb8-dense"),
    ]
PER_LAYER += [
    ("scenarios.events_applied", "count", "higher", "slowdown_p99 on bso13-cut"),
    ("scenarios.flows_disrupted", "count", "lower", _CUT),
    ("scenarios.flows_rerouted", "count", "higher", _CUT),
    ("scenarios.flows_failed", "count", "lower", _CUT),
    ("scenarios.reroute_latency_p50_ms", "ms", "lower", _CUT),
    ("analysis.profile_s", "s", "lower", "wall_s on every workload"),
    ("analysis.slowdown_below_1", "count", "lower", f"slowdown_p50 on {_C400}"),
    ("obs.overhead_frac", "ratio", "lower", "nothing: traced over untraced wall time, minus 1"),
    ("obs.unattributed_frac", "ratio", "lower", "nothing: traced wall time outside every span"),
]


def traced_run(spec) -> Tuple[stages.Outcome, Tracer]:
    """One run of ``spec`` with ``repro.obs`` on and every layer timed."""
    backend = get_backend(spec.backend)
    with Tracer(keep_durations=("step.update",)) as tracer:
        tracer.replace(fluid_module, "Instrumentation", lambda: NestedInstrumentation(tracer))
        for method in ("on_telemetry", "select", "select_batch", "on_tick"):
            tracer.patch(LCMPRouter, method, f"core.{method}")
        # ECMP is the only baseline router a workload runs
        tracer.patch(ECMPRouter, "select_batch", "routing.select_batch")
        tracer.patch(TelemetryPlane, "sweep", "simulator.sweep")
        for kernel in KERNELS:
            tracer.patch(backend, kernel, f"backend.{kernel}", count_bytes=True)
        with tracer.span("run"):
            outcome = stages.run(spec.with_overrides(instrumentation=True), tracer)
    return outcome, tracer


def _router_totals(network) -> Dict[str, int]:
    totals: Dict[str, int] = {}
    for switch in network.switches.values():
        router = switch.router
        if isinstance(router, LCMPRouter):
            for key, value in router.stats().items():
                totals[key] = totals.get(key, 0) + value
    return totals


def layer_metrics(
    outcome: stages.Outcome, tracer: Tracer, untraced_wall_s: float
) -> Dict[str, float]:
    """The :data:`PER_LAYER` values of one traced run."""
    t = tracer
    result = outcome.result
    counters = result.stats["counters"]
    pathset = outcome.setup.pathset
    routers = _router_totals(outcome.setup.network)
    hits = routers.get("flow_cache_hits", 0)
    misses = routers.get("flow_cache_misses", 0)
    steps_us = np.asarray(t.durations["step.update"], dtype=np.float64) / 1e3
    scenario = result.scenario_metrics
    reroute_lat = scenario.reroute_latencies_s() if scenario else []

    def ms(name: str) -> float:
        return t.self_s(name) * 1e3

    m = {
        "topology.build_s": t.total_s("topology.build"),
        "topology.pathset_s": t.total_s("topology.pathset"),
        "topology.pathset_searches": pathset.searches_run,
        "topology.pathset_paths": pathset.num_paths,
        "topology.pathset_bytes": pathset.memory_bytes(),
        "workloads.generate_s": t.total_s("workloads.generate"),
        "workloads.flows": len(outcome.setup.demands),
        "core.provision_s": t.total_s("core.provision"),
        "core.on_telemetry_s": t.total_s("core.on_telemetry"),
        "core.on_telemetry_calls": t.count("core.on_telemetry"),
        "core.select_batch_s": t.total_s("core.select_batch"),
        "core.select_batch_calls": t.count("core.select_batch"),
        "core.select_s": t.total_s("core.select"),
        "core.select_calls": t.count("core.select"),
        "core.on_tick_s": t.total_s("core.on_tick"),
        "core.decisions": routers.get("decisions", 0),
        "core.flow_cache_hits": hits,
        "core.flow_cache_misses": misses,
        "core.flow_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "core.failover_rehashes": routers.get("failover_rehashes", 0),
        "core.herd_fallbacks": routers.get("herd_fallbacks", 0),
        "core.ecmp_fallbacks": routers.get("ecmp_fallbacks", 0),
        "routing.select_batch_s": t.total_s("routing.select_batch"),
        "routing.select_batch_calls": t.count("routing.select_batch"),
        "simulator.build_s": t.self_s("simulator.build"),
        "simulator.run_s": t.total_s("simulator.run"),
        "simulator.steps": t.count("step.update"),
        "simulator.events_fired": counters.get("engine.events_fired", 0),
        "simulator.step_us_p50": float(np.percentile(steps_us, 50)) if steps_us.size else 0.0,
        "simulator.step_us_p99": float(np.percentile(steps_us, 99)) if steps_us.size else 0.0,
        "simulator.sweep_s": t.total_s("simulator.sweep"),
        "simulator.sweeps": counters.get("telemetry.sweeps", 0),
        "simulator.update_ms": ms("step.update"),
        "simulator.signals_ms": ms("update.signals"),
        "simulator.load_queue_ms": ms("update.load_queue"),
        "simulator.completions_ms": ms("update.completions"),
        "simulator.revalidate_ms": ms("update.revalidate"),
        "simulator.route_ms": ms("arrivals.route"),
        "simulator.arrivals_ms": ms("step.arrivals"),
        # step.monitor minus the router feed: its own time plus the sweep
        "simulator.monitor_ms": ms("step.monitor") + t.total_s("simulator.sweep") * 1e3,
        "simulator.gc_ms": ms("step.gc"),
        "simulator.loop_ms": ms("simulator.run"),
        "simulator.routing_decisions": counters.get("routing.decisions", 0),
        "simulator.reroutes": counters.get("slow_path.reroutes", 0),
        "simulator.fallback_decisions": counters.get("routing.fallback_decisions", 0),
        "cc.feedback_ms": ms("update.feedback"),
        "cc.advance_ms": ms("update.cc_advance"),
        "cc.kernel_dispatches": counters.get("cc.kernel_dispatches", 0),
        "scenarios.events_applied": counters.get("scenario.events_applied", 0),
        "scenarios.flows_disrupted": scenario.total_disrupted if scenario else 0,
        "scenarios.flows_rerouted": scenario.total_rerouted if scenario else 0,
        "scenarios.flows_failed": scenario.total_failed if scenario else 0,
        "scenarios.reroute_latency_p50_ms": (
            statistics.median(reroute_lat) * 1e3 if reroute_lat else 0.0
        ),
        "analysis.profile_s": t.total_s("analysis.profile"),
        "analysis.slowdown_below_1": int((result.store.slowdowns() < 1.0).sum()),
        "obs.overhead_frac": t.total_s("run") / untraced_wall_s - 1.0,
        "obs.unattributed_frac": t.self_s("run") / t.total_s("run"),
    }
    for kernel in KERNELS:
        name = f"backend.{kernel}"
        m[f"{name}.calls"] = t.count(name)
        m[f"{name}_s"] = t.total_s(name)
        m[f"{name}.bytes"] = t.nbytes(name)
    return m
