"""Scalar-vs-vectorized equivalence: the core guarantee of the numpy paths.

Both vectorized cores — the structure-of-arrays FlowTable core
(``SimulationConfig(vectorized=True)``, the default) and the object-resident
legacy core (``soa=False``, the PR-2 layout kept as the benchmark baseline)
— must produce *bit-for-bit* identical results to the pure-Python scalar
update loop on the same seed: every FCT record field, every link statistic,
every scenario recovery metric.  These tests run the paths on identical
inputs — static runs, scenario runs exercising mid-run reroutes, capacity
changes, refcounted link-down windows, surges and stranded-flow failures,
and a high-concurrency (≥1500 flows) run with mid-run reroutes that forces
FlowTable slot churn — and compare everything the simulation reports.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.congestion_control import make_cc_factory, make_mixed_cc_factory
from repro.core import lcmp_router_factory
from repro.routing import make_router_factory
from repro.scenarios import get_scenario
from repro.scenarios.events import CapacityChange, LinkDown, LinkUp, Scenario, TrafficSurge
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.simulator.flow import FlowDemand
from repro.topology import FabricSpec, build_fabric, build_testbed8, fabric_pathset
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator


def run_sim(
    vectorized,
    scenario=None,
    cc="dcqcn",
    num_flows=160,
    trace_links=False,
    soa=True,
    batched=True,
    cc_blocks=True,
):
    topology = build_testbed8(capacity_scale=0.1)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=7, vectorized=vectorized, soa=soa, batched_control=batched,
        cc_blocks=cc_blocks,
    )
    traffic = TrafficConfig(
        workload="websearch",
        load=0.35,
        num_flows=num_flows,
        pairs=[("DC1", "DC8"), ("DC8", "DC1")],
        seed=7,
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    factory = (
        make_mixed_cc_factory(cc, seed=7) if isinstance(cc, tuple) else make_cc_factory(cc)
    )
    sim = FluidSimulation(
        network,
        demands,
        factory,
        config,
        trace_links=trace_links,
        scenario=scenario,
    )
    return sim.run()


#: heterogeneous fleet used by the mixed-CC equivalence cases
MIX = (("dcqcn", 0.6), ("hpcc", 0.2), ("timely", 0.2))


def assert_records_identical(scalar, vectorized):
    assert len(scalar.records) == len(vectorized.records)
    for a, b in zip(scalar.records, vectorized.records):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


def assert_results_identical(scalar, vectorized):
    assert_records_identical(scalar, vectorized)
    assert scalar.duration_s == vectorized.duration_s
    assert scalar.unfinished_flows == vectorized.unfinished_flows
    assert scalar.routing_decisions == vectorized.routing_decisions
    assert scalar.monitor_samples == vectorized.monitor_samples
    assert len(scalar.link_stats) == len(vectorized.link_stats)
    for a, b in zip(scalar.link_stats, vectorized.link_stats):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert len(scalar.failed_flows) == len(vectorized.failed_flows)
    for a, b in zip(scalar.failed_flows, vectorized.failed_flows):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)


def assert_scenario_metrics_identical(scalar, vectorized):
    a, b = scalar.scenario_metrics, vectorized.scenario_metrics
    assert (a is None) == (b is None)
    if a is None:
        return
    assert a.scenario_name == b.scenario_name
    assert len(a.outcomes) == len(b.outcomes)
    for oa, ob in zip(a.outcomes, b.outcomes):
        assert dataclasses.asdict(oa) == dataclasses.asdict(ob)



#: per-scenario builder kwargs that land every event inside the default
#: ~50 ms run of :func:`run_sim`, so the scenario equivalence cases
#: exercise real mid-run disruptions instead of passing vacuously
EARLY_EVENTS = {
    "single-link-cut": dict(fail_at_s=0.01, recover_at_s=0.03),
    "cascading-failure": dict(first_at_s=0.01, interval_s=0.005, repair_at_s=0.035),
    "diurnal-surge": dict(first_peak_s=0.01, period_s=0.015, peaks=2, flows_per_peak=40),
    "rolling-maintenance": dict(first_at_s=0.005, window_s=0.01, gap_s=0.005),
    "conduit-cut": dict(cut_at_s=0.01, repair_at_s=0.025, stagger_s=0.005),
    "regional-power-outage": dict(start_at_s=0.01, duration_s=0.025),
    "maintenance-calendar": dict(first_at_s=0.005, window_s=0.01, period_s=0.02, occurrences=2),
}


def early_scenario(name):
    """A canned scenario whose events actually fire inside a run_sim run."""
    return get_scenario(name, **EARLY_EVENTS[name])


class TestStaticEquivalence:
    def test_static_run_bitwise_identical(self):
        scalar = run_sim(vectorized=False)
        vector = run_sim(vectorized=True)
        assert_results_identical(scalar, vector)

    def test_legacy_core_bitwise_identical(self):
        """The object-resident PR-2 core (``soa=False``) stays equivalent
        to both the scalar spec and the SoA core."""
        scalar = run_sim(vectorized=False)
        legacy = run_sim(vectorized=True, soa=False)
        soa = run_sim(vectorized=True, soa=True)
        assert_results_identical(scalar, legacy)
        assert_results_identical(legacy, soa)

    @pytest.mark.parametrize("cc", ["dcqcn", "hpcc", "timely", "dctcp", "ideal"])
    def test_every_congestion_control(self, cc):
        scalar = run_sim(vectorized=False, cc=cc, num_flows=80)
        vector = run_sim(vectorized=True, cc=cc, num_flows=80)
        assert_results_identical(scalar, vector)

    def test_mixed_fleet_all_cores(self):
        """A heterogeneous fleet (grouped in-place kernels on the SoA
        core) matches the scalar spec and the legacy core bit for bit."""
        factory = make_mixed_cc_factory(MIX, seed=7)
        assigned = {factory.labels[factory.assign(i)] for i in range(160)}
        assert len(assigned) > 1  # the run genuinely mixes classes
        scalar = run_sim(vectorized=False, cc=MIX)
        soa = run_sim(vectorized=True, cc=MIX)
        legacy = run_sim(vectorized=True, soa=False, cc=MIX)
        assert_results_identical(scalar, soa)
        assert_results_identical(scalar, legacy)

    def test_object_gather_dispatch_bitwise_identical(self):
        """The retained object-gather CC dispatch (``cc_blocks=False``,
        the CC benchmark baseline) matches the block kernels, on a
        uniform non-DCQCN fleet and on a mixed fleet."""
        for cc in ("hpcc", MIX):
            blocks = run_sim(vectorized=True, cc=cc, num_flows=80)
            gathered = run_sim(vectorized=True, cc=cc, num_flows=80, cc_blocks=False)
            assert_results_identical(blocks, gathered)

    def test_link_trace_identical(self):
        scalar = run_sim(vectorized=False, num_flows=60, trace_links=True)
        vector = run_sim(vectorized=True, num_flows=60, trace_links=True)
        assert scalar.trace.keys() == vector.trace.keys()
        for key in scalar.trace.keys():
            sa, sb = scalar.trace.series(key), vector.trace.series(key)
            assert len(sa) == len(sb)
            for pa, pb in zip(sa, sb):
                assert dataclasses.asdict(pa) == dataclasses.asdict(pb)

    def test_pr3_control_plane_bitwise_identical(self):
        """The per-flow control plane (``batched_control=False``, the PR-3
        benchmark baseline) stays equivalent to the batched default."""
        batched = run_sim(vectorized=True)
        legacy_cp = run_sim(vectorized=True, batched=False)
        assert_results_identical(batched, legacy_cp)


class TestScenarioEquivalence:
    """Mid-run reroutes, capacity events and refcounted link-down windows
    must stay bit-for-bit compatible (the ISSUE's hard requirement)."""

    @pytest.mark.parametrize(
        "name", ["single-link-cut", "cascading-failure", "diurnal-surge", "rolling-maintenance"]
    )
    def test_canned_scenarios(self, name):
        scalar = run_sim(vectorized=False, scenario=early_scenario(name))
        vector = run_sim(vectorized=True, scenario=early_scenario(name))
        assert any(
            o.applied_s is not None for o in scalar.scenario_metrics.outcomes
        ), f"{name}: no event fired; the equivalence case is vacuous"
        assert_results_identical(scalar, vector)
        assert_scenario_metrics_identical(scalar, vector)

    @pytest.mark.parametrize("name", ["single-link-cut", "diurnal-surge"])
    def test_canned_scenarios_legacy_core(self, name):
        legacy = run_sim(vectorized=True, soa=False, scenario=early_scenario(name))
        soa = run_sim(vectorized=True, soa=True, scenario=early_scenario(name))
        assert_results_identical(legacy, soa)
        assert_scenario_metrics_identical(legacy, soa)

    @pytest.mark.parametrize(
        "name", ["single-link-cut", "cascading-failure", "diurnal-surge", "rolling-maintenance"]
    )
    def test_canned_scenarios_pr3_control_plane(self, name):
        """Batched arrivals + telemetry columns under every canned scenario
        (surges, drains, maintenance windows, exact arrival/event time
        ties) match the per-flow PR-3 control plane bit for bit."""
        batched = run_sim(vectorized=True, scenario=early_scenario(name))
        legacy_cp = run_sim(vectorized=True, batched=False, scenario=early_scenario(name))
        assert_results_identical(batched, legacy_cp)
        assert_scenario_metrics_identical(batched, legacy_cp)

    @pytest.mark.parametrize("cc", ["hpcc", "timely", "dctcp", "ideal"])
    def test_single_link_cut_per_cc(self, cc):
        """Scenario disruption under every migrated CC class: the in-place
        kernels stay bit-identical through mid-run reroutes."""
        scalar = run_sim(
            vectorized=False, cc=cc, num_flows=100,
            scenario=early_scenario("single-link-cut"),
        )
        soa = run_sim(
            vectorized=True, cc=cc, num_flows=100,
            scenario=early_scenario("single-link-cut"),
        )
        assert_results_identical(scalar, soa)
        assert_scenario_metrics_identical(scalar, soa)

    def test_single_link_cut_mixed_fleet(self):
        """Scenario disruption on a heterogeneous fleet (grouped kernels)."""
        scalar = run_sim(
            vectorized=False, cc=MIX, num_flows=100,
            scenario=early_scenario("single-link-cut"),
        )
        soa = run_sim(
            vectorized=True, cc=MIX, num_flows=100,
            scenario=early_scenario("single-link-cut"),
        )
        assert_results_identical(scalar, soa)
        assert_scenario_metrics_identical(scalar, soa)

    def test_overlapping_faults_and_capacity_events(self):
        # an explicit cut overlapping a brownout plus a surge: exercises
        # refcounted down-causes, capacity_factor changes and injected
        # arrivals on the vectorized incidence structure
        scenario = Scenario(
            name="composite",
            events=(
                CapacityChange(0.2, "DC1", "DC7", factor=0.5),
                LinkDown(0.3, "DC1", "DC7"),
                TrafficSurge(
                    0.4,
                    pairs=(("DC1", "DC8"),),
                    load=0.3,
                    num_flows=60,
                    workload="websearch",
                    seed=99,
                ),
                LinkUp(0.9, "DC1", "DC7"),
                CapacityChange(1.1, "DC1", "DC7", factor=1.0),
            ),
            stranded_timeout_s=0.4,
        )
        scalar = run_sim(vectorized=False, scenario=scenario)
        vector = run_sim(vectorized=True, scenario=scenario)
        assert_results_identical(scalar, vector)
        assert_scenario_metrics_identical(scalar, vector)


class TestRttShorteningRerouteEquivalence:
    """Several feedback lanes coming due in one step — the repeated-delivery
    slow path (``fluid._deliver_repeated``).

    Flows hashed onto the 500 ms DC1–DC2 route lose it mid-run and re-route
    onto paths with RTTs shorter by far more than an update step, so the
    signals already in flight (stamped with the old RTT) land in the same
    ticks as freshly enqueued ones.  Delivery order must match the scalar
    core's per-flow deliver-time order exactly, for every CC class and for
    a mixed fleet; the test also asserts the slow path actually ran."""

    NUM_FLOWS = 80
    WINDOW_S = 1.3

    def run_reroute(self, vectorized, cc, instrumentation=False):
        topology = build_testbed8(capacity_scale=0.1)
        paths = _testbed8_pathset(topology)
        hosts = topology.host_groups["DC1"].count
        demands = [
            FlowDemand(
                flow_id=i,
                src_dc="DC1" if i % 2 == 0 else "DC8",
                dst_dc="DC8" if i % 2 == 0 else "DC1",
                src_host=i % hosts,
                dst_host=(i * 7 + 1) % hosts,
                # huge flows outlive the old-RTT feedback horizon under
                # every CC (the collision needs the rerouted flows alive
                # when their stale signals land); small ones yield records
                size_bytes=120_000 if i % 5 == 0 else 2_000_000_000,
                arrival_s=0.001 * (i % 10) + 1e-4,
            )
            for i in range(self.NUM_FLOWS)
        ]
        scenario = Scenario(
            name="rtt-shortening",
            events=(LinkDown(0.05, "DC1", "DC2"), LinkUp(1.2, "DC1", "DC2")),
        )
        config = SimulationConfig(
            seed=11,
            vectorized=vectorized,
            max_sim_time_s=self.WINDOW_S,
            drain_timeout_s=self.WINDOW_S,
            instrumentation=instrumentation,
        )
        network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
        factory = (
            make_mixed_cc_factory(cc, seed=11)
            if isinstance(cc, tuple)
            else make_cc_factory(cc)
        )
        sim = FluidSimulation(network, demands, factory, config, scenario=scenario)
        return sim.run()

    @pytest.mark.parametrize(
        "cc", ["dcqcn", "hpcc", "timely", "dctcp", "ideal", MIX],
        ids=["dcqcn", "hpcc", "timely", "dctcp", "ideal", "mixed"],
    )
    def test_repeated_delivery_matches_scalar(self, cc):
        # the SoA run carries the observability plane, which both proves
        # the slow path ran (slow_path.deliver_repeated) and — compared
        # against the uninstrumented scalar run — that instrumentation
        # leaves the numerics untouched
        soa = self.run_reroute(vectorized=True, cc=cc, instrumentation=True)
        repeated = soa.stats["counters"].get("slow_path.deliver_repeated", 0)
        assert repeated > 0, "the repeated-delivery path never ran"
        assert soa.scenario_metrics.total_rerouted > 0
        assert soa.stats["counters"]["slow_path.reroutes"] > 0
        assert len(soa.records) > 0
        scalar = self.run_reroute(vectorized=False, cc=cc)
        assert scalar.stats is None
        assert_results_identical(scalar, soa)
        assert_scenario_metrics_identical(scalar, soa)


class TestHighConcurrencyEquivalence:
    """≥1500 concurrent flows with mid-run reroutes: the SoA acceptance
    case.  Sustained concurrency at this scale plus a link-down/link-up
    window exercises FlowTable slot churn, the slot-keyed feedback delay
    line, the epoch guard and the flatnonzero-based re-validation sweep —
    and the result must still be bit-for-bit identical across all three
    update cores."""

    NUM_FLOWS = 1500
    WINDOW_S = 0.08

    def run_high_concurrency(self, vectorized, soa=True):
        topology = build_testbed8(capacity_scale=0.1)
        paths = _testbed8_pathset(topology)
        hosts = topology.host_groups["DC1"].count
        demands = [
            FlowDemand(
                flow_id=i,
                src_dc="DC1" if i % 2 == 0 else "DC8",
                dst_dc="DC8" if i % 2 == 0 else "DC1",
                src_host=i % hosts,
                dst_host=(i * 7 + 1) % hosts,
                # mixed sizes so a share of flows completes inside the
                # window (slot reuse) while most sustain the concurrency
                size_bytes=60_000 if i % 5 == 0 else 20_000_000,
                arrival_s=0.001 * (i % 10) + 1e-4,
            )
            for i in range(self.NUM_FLOWS)
        ]
        scenario = Scenario(
            name="hc-reroute",
            events=(
                LinkDown(0.02, "DC1", "DC7"),
                LinkUp(0.055, "DC1", "DC7"),
            ),
        )
        config = SimulationConfig(
            seed=11,
            vectorized=vectorized,
            soa=soa,
            max_sim_time_s=self.WINDOW_S,
            drain_timeout_s=self.WINDOW_S,
        )
        network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
        sim = FluidSimulation(
            network, demands, make_cc_factory("dcqcn"), config, scenario=scenario
        )
        return sim.run()

    def test_all_three_cores_bitwise_identical(self):
        scalar = self.run_high_concurrency(vectorized=False)
        legacy = self.run_high_concurrency(vectorized=True, soa=False)
        soa = self.run_high_concurrency(vectorized=True, soa=True)
        # the run is cut at the window, so some flows must still be live
        # (sustained concurrency) and some must have finished (slot churn)
        assert soa.unfinished_flows > 1000
        assert len(soa.records) > 100
        assert soa.scenario_metrics.total_disrupted > 0
        assert (
            soa.scenario_metrics.total_rerouted
            + soa.scenario_metrics.total_restored
            > 0
        )
        assert_results_identical(scalar, legacy)
        assert_results_identical(scalar, soa)
        assert_scenario_metrics_identical(scalar, soa)
        assert_scenario_metrics_identical(legacy, soa)


class TestCorrelatedScenarioEquivalence:
    """The correlated-failure families (SRLG conduit cuts, regional power
    events, compiled maintenance calendars) on every core: per-link
    staggered repairs, blackout/degraded partitions and calendar-expanded
    timelines must not disturb cross-core bit-identity."""

    @pytest.mark.parametrize(
        "name", ["conduit-cut", "regional-power-outage", "maintenance-calendar"]
    )
    def test_all_cores_bitwise_identical(self, name):
        scenario = early_scenario(name)
        scalar = run_sim(vectorized=False, scenario=scenario)
        fired = [o for o in scalar.scenario_metrics.outcomes if o.applied_s is not None]
        assert fired, f"{name}: no event fired; the equivalence case is vacuous"
        assert any(o.links_affected > 0 for o in fired)
        for kwargs in (
            dict(vectorized=True),                  # cc_blocks (default SoA)
            dict(vectorized=True, soa=False),       # legacy object core
            dict(vectorized=True, cc_blocks=False), # object-gather dispatch
            dict(vectorized=True, batched=False),   # per-flow control plane
        ):
            other = run_sim(scenario=scenario, **kwargs)
            assert_results_identical(scalar, other)
            assert_scenario_metrics_identical(scalar, other)

    def test_conduit_cut_mixed_fleet(self):
        scenario = early_scenario("conduit-cut")
        scalar = run_sim(vectorized=False, cc=MIX, scenario=scenario)
        soa = run_sim(vectorized=True, cc=MIX, scenario=scenario)
        assert_results_identical(scalar, soa)
        assert_scenario_metrics_identical(scalar, soa)

    def test_empty_timeline_matches_no_scenario(self):
        """A scenario with no events (and no recurring expansion) leaves
        the run bit-identical to a scenario-free one: compiled_events() is
        the identity for non-calendar timelines."""
        empty = Scenario(name="empty")
        with_scenario = run_sim(vectorized=True, scenario=empty)
        without = run_sim(vectorized=True, scenario=None)
        assert_results_identical(with_scenario, without)


class TestLCMPFabricEquivalence:
    """LCMP on a small generated fabric: the default core's plane-wide
    register sweep against the scalar core's per-port ``observe``, with a
    link cut mid-run so the injector's out-of-sweep samples land between
    sweeps.  FCTs, scenario metrics and every switch's registers must be
    identical."""

    FABRIC = FabricSpec(name="tiny", seed=3, regions=3, cores_per_region=2,
                        aggs_per_core=2, edges_per_agg=1)
    PAIRS = (("R0E0x0x0", "R2E1x1x0"), ("R1E1x0x0", "R0E0x1x0"))

    def run(self, vectorized):
        topology = build_fabric(self.FABRIC, capacity_scale=0.1)
        paths = fabric_pathset(topology)
        config = SimulationConfig(seed=5, vectorized=vectorized)
        traffic = TrafficConfig(
            workload="websearch", load=0.5, num_flows=150, pairs=self.PAIRS, seed=5
        )
        demands = TrafficGenerator(topology, paths, traffic).generate()
        core, agg = "R0C0", "R0A0x0"
        scenario = Scenario(
            name="cut", events=(LinkDown(0.01, core, agg), LinkUp(0.03, core, agg))
        )
        network = RuntimeNetwork(
            topology, paths, lcmp_router_factory(topology, paths), config
        )
        sim = FluidSimulation(
            network, demands, make_cc_factory("dcqcn"), config, scenario=scenario
        )
        return sim.run(), network

    def test_scalar_and_default_core_identical(self):
        scalar, scalar_net = self.run(vectorized=False)
        default, default_net = self.run(vectorized=True)
        assert all(o.applied_s is not None for o in scalar.scenario_metrics.outcomes)
        assert_results_identical(scalar, default)
        assert_scenario_metrics_identical(scalar, default)
        for dc, switch in scalar_net.switches.items():
            a, b = switch.router, default_net.switch(dc).router
            assert a.liveness.down_ports == b.liveness.down_ports
            assert a.estimator.ports() == b.estimator.ports() != []
            for port in a.estimator.ports():
                assert a.estimator.port_state(port) == b.estimator.port_state(port)
                assert a.estimator.congestion_score(port) == b.estimator.congestion_score(port)
