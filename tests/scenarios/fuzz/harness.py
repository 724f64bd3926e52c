"""Run one :class:`~repro.scenarios.fuzz.FuzzCase` on every core.

The harness is the glue between generated cases and the reusable
invariant checkers: ``run_case`` builds and runs one simulation for one
core flavour, ``check_all_invariants`` runs the full cross-core sweep —
scalar (reference, with the live dead-link monitor attached), the default
vectorized core (and the torch backend where torch is installed), the
default core with instrumentation and the default core on an eager path
set — and asserts all four invariant families on the results.
"""

from __future__ import annotations

from typing import Dict

from repro.congestion_control import make_cc_factory, make_mixed_cc_factory
from repro.routing import make_router_factory
from repro.scenarios.fuzz import FuzzCase, build_fuzz_pathset, build_fuzz_topology
from repro.scenarios.invariants import (
    CORE_CONFIGS,
    DeadLinkMonitor,
    assert_results_close,
    assert_results_identical,
    check_demand_conservation,
    check_no_dead_link_traffic,
    check_recovery_bound,
)
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig

#: generous drain headroom: fuzz timelines always repair, so a run must
#: always reach the drained steady state well before this deadline
FUZZ_DEADLINE_S = 30.0


def make_config(case: FuzzCase, core: str, instrumentation: bool = False) -> SimulationConfig:
    """The simulation config for one core flavour of a fuzz case."""
    return SimulationConfig(
        seed=case.seed,
        max_sim_time_s=FUZZ_DEADLINE_S,
        drain_timeout_s=FUZZ_DEADLINE_S,
        instrumentation=instrumentation,
        **CORE_CONFIGS[core],
    )


def run_case(
    case: FuzzCase,
    core: str = "default",
    instrumentation: bool = False,
    with_monitor: bool = False,
    lazy: bool = True,
):
    """Run one fuzz case on one core.

    Returns:
        ``(result, monitor)`` — the :class:`SimulationResult` and the
        attached :class:`DeadLinkMonitor` (``None`` unless requested).
    """
    topology = build_fuzz_topology(case.topology_name)
    paths = build_fuzz_pathset(topology, lazy=lazy)
    config = make_config(case, core, instrumentation)
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    if isinstance(case.cc, tuple):
        factory = make_mixed_cc_factory(case.cc, seed=case.seed)
    else:
        factory = make_cc_factory(case.cc)
    sim = FluidSimulation(
        network, list(case.demands), factory, config, scenario=case.scenario
    )
    monitor = DeadLinkMonitor().attach(sim) if with_monitor else None
    return sim.run(), monitor


def run_baseline(case: FuzzCase, core: str = "default"):
    """Run a case's demands with NO scenario attached (pre-event baseline)."""
    topology = build_fuzz_topology(case.topology_name)
    paths = build_fuzz_pathset(topology)
    config = make_config(case, core)
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    if isinstance(case.cc, tuple):
        factory = make_mixed_cc_factory(case.cc, seed=case.seed)
    else:
        factory = make_cc_factory(case.cc)
    sim = FluidSimulation(network, list(case.demands), factory, config, scenario=None)
    return sim.run()


def check_all_invariants(case: FuzzCase, require_drained: bool = True) -> Dict[str, object]:
    """Run a case on every core and assert the four invariant families.

    Returns:
        per-core results keyed by core name (plus ``"instrumented"``),
        so callers can make additional assertions.
    """
    topology = build_fuzz_topology(case.topology_name)
    config = make_config(case, "scalar")

    reference, monitor = run_case(case, core="scalar", with_monitor=True)
    check_demand_conservation(reference, len(case.demands))
    check_no_dead_link_traffic(reference, case.scenario, topology, monitor)
    check_recovery_bound(
        reference,
        case.scenario,
        update_interval_s=config.update_interval_s,
        require_drained=require_drained,
    )

    results: Dict[str, object] = {"scalar": reference}
    other, other_monitor = run_case(case, core="default", with_monitor=True)
    check_demand_conservation(other, len(case.demands))
    check_no_dead_link_traffic(other, case.scenario, topology, other_monitor)
    assert_results_identical(reference, other, label="scalar vs default")
    results["default"] = other
    if "torch" in CORE_CONFIGS:
        # device backend: duplicate-accumulation order is unspecified on
        # GPUs, so this core is held to the documented tolerance instead
        # of bitwise identity (DESIGN.md, "Array backends & kernels")
        other, other_monitor = run_case(case, core="torch", with_monitor=True)
        check_demand_conservation(other, len(case.demands))
        check_no_dead_link_traffic(other, case.scenario, topology, other_monitor)
        assert_results_close(reference, other, label="scalar vs torch")
        results["torch"] = other
    instrumented, _ = run_case(case, core="default", instrumentation=True)
    assert_results_identical(reference, instrumented, label="scalar vs instrumented")
    results["instrumented"] = instrumented
    # lazy vs eager path sets must be indistinguishable at run level
    eager, eager_monitor = run_case(case, core="default", with_monitor=True, lazy=False)
    check_demand_conservation(eager, len(case.demands))
    check_no_dead_link_traffic(eager, case.scenario, topology, eager_monitor)
    assert_results_identical(reference, eager, label="lazy vs eager pathset")
    results["eager_paths"] = eager
    return results
