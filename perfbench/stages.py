"""Layer-by-layer stages: the calls of ``ExperimentRunner.run``, one at a time.

:func:`setup` and :func:`run` make the same calls as
:meth:`repro.experiments.ExperimentRunner.run` — topology, path set,
traffic, router provisioning, runtime network, simulation, analysis — but
each in its own tracer span, and always from fresh objects (no runner
cache), as a fresh process pays for them.  :func:`fct_digest` condenses a
run's flow outcomes so the benchmark can prove the stages, the runner and a
traced run all produce the same results, and :func:`check_outputs` checks
every flow against physics.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.analysis import SlowdownProfile
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.simulator import FluidSimulation, RuntimeNetwork
from repro.topology import (
    bso13_pathset,
    build_bso13,
    build_fabric,
    build_testbed8,
    fabric_pathset,
    testbed8_pathset,
)
from repro.workloads import TrafficConfig, TrafficGenerator

from tracer import NullTracer

_NULL = NullTracer()


@dataclass
class Setup:
    """Everything built before the simulation runs."""

    topology: object
    pathset: object
    demands: list
    network: RuntimeNetwork
    simulation: FluidSimulation
    seconds: float


@dataclass
class Outcome:
    """One run, from spec to analysed profile."""

    setup: Setup
    result: object
    profile: SlowdownProfile
    run_s: float
    wall_s: float


#: topology name -> (topology factory, path-set factory): the dispatch of
#: ``ExperimentRunner.topology_for`` without its cache
_TOPOLOGIES = {
    "testbed8": (
        lambda spec: build_testbed8(capacity_scale=spec.capacity_scale),
        testbed8_pathset,
    ),
    "bso13": (lambda spec: build_bso13(capacity_scale=spec.capacity_scale), bso13_pathset),
    "fabric": (
        lambda spec: build_fabric(spec.fabric, capacity_scale=spec.capacity_scale),
        fabric_pathset,
    ),
}


def setup(spec: ExperimentSpec, tracer=_NULL) -> Setup:
    """Build topology, paths, traffic, routers, network and simulation."""
    wiring = ExperimentRunner()  # spec -> config / factory wiring only
    start = perf_counter()
    spec.validate()
    build_topology, build_pathset = _TOPOLOGIES[spec.topology]
    with tracer.span("topology.build"):
        topology = build_topology(spec)
    with tracer.span("topology.pathset"):
        pathset = build_pathset(topology, lazy=spec.lazy_paths)
    with tracer.span("workloads.generate"):
        traffic = TrafficConfig(
            workload=spec.workload,
            load=spec.load,
            num_flows=spec.num_flows,
            pairs=spec.pairs,
            seed=spec.seed,
        )
        demands = TrafficGenerator(topology, pathset, traffic).generate()
    config = wiring.simulation_config_for(spec)
    with tracer.span("core.provision"):
        router_factory = wiring.router_factory_for(spec, topology, pathset)
    if spec.router == "lcmp":
        # the per-DC table installs run inside RuntimeNetwork's constructor
        router_factory = tracer.wrap(router_factory, "core.provision")
    with tracer.span("simulator.build"):
        network = RuntimeNetwork(topology, pathset, router_factory, config)
        simulation = FluidSimulation(
            network,
            demands,
            wiring.cc_factory_for(spec),
            config,
            trace_links=spec.trace_links,
            scenario=spec.resolve_scenario(),
        )
    return Setup(topology, pathset, demands, network, simulation, perf_counter() - start)


def run(spec: ExperimentSpec, tracer=_NULL) -> Outcome:
    """One whole run: :func:`setup`, simulate, analyse."""
    built = setup(spec, tracer)
    start = perf_counter()
    with tracer.span("simulator.run"):
        result = built.simulation.run()
    run_s = perf_counter() - start
    with tracer.span("analysis.profile"):
        profile = SlowdownProfile.from_result(spec.name, result)
    wall_s = built.seconds + perf_counter() - start
    return Outcome(built, result, profile, run_s, wall_s)


def fct_digest(result) -> str:
    """SHA-256 over every completed flow's id, FCT, ideal FCT, slowdown and
    route in flow-id order, plus the failed flows' ids and the count of
    flows still unfinished."""
    store = result.store
    order = np.argsort(store.column("flow_id"), kind="stable")
    digest = hashlib.sha256()
    for name in ("flow_id", "fct_s", "ideal_fct_s", "slowdown"):
        digest.update(store.column(name)[order].tobytes())
    routes = store.path_indices()[order].tolist()
    digest.update("|".join("-".join(store.route(r)) for r in routes).encode())
    failed = sorted(f.flow_id for f in result.failed_flows)
    digest.update(np.asarray(failed, dtype=np.int64).tobytes())
    digest.update(str(result.unfinished_flows).encode())
    return digest.hexdigest()


@dataclass
class OutputCheck:
    """Per-flow verdicts of :func:`check_outputs`."""

    attempted: int
    completed: int
    failed_by_scenario: int
    never_completed: int
    inconsistent: int
    below_bound: int
    slowdown_below_1: int
    slowdown_min: float

    @property
    def failed(self) -> int:
        """Flows failed by the scenario engine, never completed, recorded
        inconsistently, or faster than physics allows."""
        return (
            self.failed_by_scenario
            + self.never_completed
            + self.inconsistent
            + self.below_bound
        )


def _route_floor(topology, route) -> tuple:
    """``(fixed delay s, rate bps)`` of a DC-level route run alone: access
    delays plus propagation delay, and min(NIC rate, link bottleneck)."""
    groups = topology.host_groups
    src, dst = groups[route[0]], groups[route[-1]]
    links = [topology.link(a, b) for a, b in zip(route, route[1:])]
    rate = min([src.nic_bps, dst.nic_bps] + [link.cap_bps for link in links])
    delay = src.access_delay_s + dst.access_delay_s + sum(link.delay_s for link in links)
    return delay, rate


def check_outputs(result, demands, topology) -> OutputCheck:
    """Every attempted flow completes or is failed by the scenario engine,
    and every completed FCT is finite and no faster than physics allows on
    the flow's own recorded route (delay + size / rate of
    :func:`_route_floor`).

    ``slowdown_below_1`` counts flows faster than the ideal-FCT model says
    is possible; it is reported, not counted as a failure, because the
    model takes the minimum over a pair's candidate paths and a hop-by-hop
    route outside the candidate set can legitimately beat it.
    """
    store = result.store
    flow_ids = store.column("flow_id").tolist()
    slowdowns = store.slowdowns()
    attempted = {d.flow_id for d in demands}
    completed = set(flow_ids)
    failed = {f.flow_id for f in result.failed_flows}
    inconsistent = (
        len(flow_ids) - len(completed)  # completed twice
        + len(completed & failed)  # completed and failed
        + len((completed | failed) - attempted)  # never attempted
    )
    floors = {}
    below = 0
    for fct, size, route in zip(
        store.fcts().tolist(), store.sizes().tolist(), store.path_indices().tolist()
    ):
        floor = floors.get(route)
        if floor is None:
            floor = floors[route] = _route_floor(topology, store.route(route))
        delay, rate = floor
        if not math.isfinite(fct) or fct < (delay + size * 8.0 / rate) * (1.0 - 1e-9):
            below += 1
    return OutputCheck(
        attempted=len(demands),
        completed=len(flow_ids),
        failed_by_scenario=len(failed),
        never_completed=len(attempted - completed - failed),
        inconsistent=inconsistent,
        below_bound=below,
        slowdown_below_1=int((slowdowns < 1.0).sum()),
        slowdown_min=float(slowdowns.min()) if len(slowdowns) else math.nan,
    )
