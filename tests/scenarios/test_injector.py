"""Injector behaviour: events applied mid-run, metrics, traffic events."""

import pytest

from repro.congestion_control import make_cc_factory
from repro.routing import make_router_factory
from repro.scenarios import (
    SURGE_FLOW_ID_BASE,
    CapacityChange,
    DCMaintenance,
    LinkDown,
    LinkUp,
    MaintenanceCalendar,
    RegionalPowerEvent,
    Scenario,
    SRLGFailure,
    TrafficDrain,
    TrafficSurge,
)
from repro.simulator import FlowDemand, FluidSimulation, RuntimeNetwork
from repro.topology import GBPS, MS, PathSet, Topology


def make_sim(topology, pathset, config, demands, scenario=None, router="ecmp", cc="fixed"):
    network = RuntimeNetwork(topology, pathset, make_router_factory(router), config)
    sim = FluidSimulation(
        network, demands, make_cc_factory(cc), config, scenario=scenario
    )
    return network, sim


def steady_demands(count=20, size=100_000_000, spacing=0.005):
    return [
        FlowDemand(i, "A", "B", i % 4, i % 4, size, i * spacing) for i in range(count)
    ]


class TestStateEvents:
    def test_link_down_applies_at_event_time(self, tiny_topology, tiny_pathset, quick_sim_config):
        scenario = Scenario(name="cut", events=(LinkDown(0.02, "A", "B"),))
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
        )
        result = sim.run()
        assert not network.link("A", "B").up
        assert not network.link("B", "A").up
        outcome = result.scenario_metrics.outcomes[0]
        assert outcome.applied_s == pytest.approx(0.02)
        assert result.unfinished_flows == 0

    def test_cut_and_repair_restores_liveness(self, tiny_topology, tiny_pathset, quick_sim_config):
        scenario = Scenario(
            name="cut-repair",
            events=(LinkDown(0.02, "A", "B"), LinkUp(0.05, "A", "B")),
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
        )
        result = sim.run()
        assert network.link("A", "B").up
        metrics = result.scenario_metrics
        # flows riding A->B when it died must have been moved or restored
        assert metrics.total_disrupted >= 1
        assert (
            metrics.total_rerouted + metrics.total_restored == metrics.total_disrupted
        )
        assert result.unfinished_flows == 0
        assert len(result.records) == 20

    def test_disrupted_flows_reroute_onto_detour(self, tiny_topology, tiny_pathset, quick_sim_config):
        # one big flow A->B; the direct link dies mid-transfer, the only
        # healthy path is the A->C->B detour
        demands = [FlowDemand(0, "A", "B", 0, 0, 200_000_000, 0.0)]
        scenario = Scenario(name="cut", events=(LinkDown(0.01, "A", "B"),))
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, demands, scenario
        )
        result = sim.run()
        assert len(result.records) == 1
        outcome = result.scenario_metrics.outcomes[0]
        assert outcome.flows_disrupted == 1
        assert outcome.flows_rerouted == 1
        assert result.records[0].path_dcs == ("A", "C", "B")

    def test_capacity_change_scales_effective_rate(self, tiny_topology, tiny_pathset, quick_sim_config):
        scenario = Scenario(
            name="brownout", events=(CapacityChange(0.02, "A", "B", factor=0.25),)
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
        )
        provisioned = network.link("A", "B").spec.cap_bps
        sim.run()
        assert network.link("A", "B").cap_bps == pytest.approx(0.25 * provisioned)
        assert network.link("B", "A").cap_bps == pytest.approx(0.25 * provisioned)

    def test_maintenance_revert_does_not_resurrect_explicit_cut(self, tiny_topology, tiny_pathset, quick_sim_config):
        """An explicit LinkDown overlapping a maintenance window must keep
        the link dead after the window closes (down-causes are counted)."""
        scenario = Scenario(
            name="overlap",
            events=(
                LinkDown(0.005, "A", "C"),
                DCMaintenance(0.01, dc="C", duration_s=0.01),
            ),
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(count=4), scenario
        )
        sim.run()
        # maintenance ended at 0.02 but the explicit cut was never repaired
        assert not network.link("A", "C").up
        # links only the maintenance touched did come back
        assert network.link("C", "B").up

    def test_overlapping_maintenance_windows_compose(self, tiny_topology, tiny_pathset, quick_sim_config):
        """The shared A-C... A-B link of two overlapping windows stays down
        until the *second* window closes."""
        scenario = Scenario(
            name="double-maint",
            events=(
                DCMaintenance(0.01, dc="A", duration_s=0.03),   # ends 0.04
                DCMaintenance(0.02, dc="B", duration_s=0.04),   # ends 0.06
            ),
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(count=4), scenario
        )
        seen = {}
        # A<->B is adjacent to both windows; probe between the two ends
        sim.engine.schedule(0.05, lambda: seen.update(shared=network.link("A", "B").up))
        sim.run()
        assert seen["shared"] is False
        assert network.link("A", "B").up  # both windows closed by run end

    def test_dc_maintenance_window_downs_and_restores(self, tiny_topology, tiny_pathset, quick_sim_config):
        scenario = Scenario(
            name="maint", events=(DCMaintenance(0.02, dc="C", duration_s=0.03),)
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
        )
        seen = {}

        def probe():
            seen["during"] = (
                network.link("A", "C").up,
                network.link("C", "B").up,
            )

        sim.engine.schedule(0.03, probe)
        result = sim.run()
        assert seen["during"] == (False, False)
        assert network.link("A", "C").up and network.link("C", "B").up
        outcome = result.scenario_metrics.outcomes[0]
        assert outcome.applied_s == pytest.approx(0.02)
        assert outcome.reverted_s == pytest.approx(0.05)


class TestStrandedFlows:
    def test_total_blackhole_fails_flows_after_timeout(self, tiny_topology, tiny_pathset, quick_sim_config):
        # kill every path out of A: flows in flight are stranded and must be
        # explicitly failed once the scenario timeout expires
        demands = steady_demands(count=8, size=50_000_000, spacing=0.001)
        scenario = Scenario(
            name="blackhole",
            events=(LinkDown(0.02, "A", "B"), LinkDown(0.02, "A", "C")),
            stranded_timeout_s=0.05,
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, demands, scenario
        )
        result = sim.run()
        assert result.failed_flows, "stranded flows must be recorded as failed"
        assert result.unfinished_flows == 0
        assert len(result.records) + len(result.failed_flows) == len(demands)
        for failure in result.failed_flows:
            assert failure.failed_s - failure.disrupted_s >= 0.05 - 1e-9
            assert failure.remaining_bytes > 0
        metrics = result.scenario_metrics
        assert metrics.total_failed == len(result.failed_flows)

    def test_without_timeout_flows_wait_for_recovery(self, tiny_topology, tiny_pathset, quick_sim_config):
        demands = steady_demands(count=4, size=50_000_000, spacing=0.001)
        # both paths die; the link the flows end up pinned on (A->C->B,
        # after the first cut re-routed them there) is repaired first, so
        # their paths heal *in place* — a restore, not a re-route
        scenario = Scenario(
            name="outage",
            events=(
                LinkDown(0.01, "A", "B"),
                LinkDown(0.01, "A", "C"),
                LinkUp(0.2, "A", "C"),
                LinkUp(0.25, "A", "B"),
            ),
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, demands, scenario
        )
        result = sim.run()
        assert not result.failed_flows
        assert result.unfinished_flows == 0
        assert len(result.records) == len(demands)
        # pinned flows resumed only after the repair
        assert all(r.fct_s > 0.1 for r in result.records)
        # in-place repair waits are recorded separately and never pollute
        # the fast-failover (reroute) latency metric
        pinning_cut = result.scenario_metrics.outcomes[1]  # LinkDown(A, C)
        assert pinning_cut.flows_restored > 0
        assert pinning_cut.reroute_latencies_s == []
        assert all(lat >= 0.15 for lat in pinning_cut.restore_latencies_s)
        assert pinning_cut.mean_restore_latency_s >= 0.15
        assert pinning_cut.mean_reroute_latency_s == 0.0


class TestTrafficEvents:
    def test_surge_injects_offset_flow_ids(self, tiny_topology, tiny_pathset, quick_sim_config):
        scenario = Scenario(
            name="surge",
            events=(
                TrafficSurge(0.05, pairs=(("A", "B"),), load=0.3, num_flows=15),
            ),
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
        )
        result = sim.run()
        surge_records = [r for r in result.records if r.flow_id >= SURGE_FLOW_ID_BASE]
        assert len(surge_records) == 15
        assert len(result.records) == 20 + 15
        assert all(r.arrival_s >= 0.05 for r in surge_records)
        assert result.scenario_metrics.total_injected == 15
        assert result.unfinished_flows == 0

    def test_surge_duration_derives_flow_count(self, tiny_topology, tiny_pathset, quick_sim_config):
        scenario = Scenario(
            name="surge",
            events=(
                TrafficSurge(0.05, pairs=(("A", "B"),), load=0.3, duration_s=0.1),
            ),
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
        )
        result = sim.run()
        injected = result.scenario_metrics.total_injected
        assert injected >= 1
        assert len(result.records) == 20 + injected

    def test_two_surges_use_disjoint_id_blocks(self, tiny_topology, tiny_pathset, quick_sim_config):
        scenario = Scenario(
            name="double-surge",
            events=(
                TrafficSurge(0.04, pairs=(("A", "B"),), load=0.3, num_flows=5),
                TrafficSurge(0.08, pairs=(("A", "C"),), load=0.3, num_flows=5),
            ),
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
        )
        result = sim.run()
        surge_ids = {r.flow_id for r in result.records if r.flow_id >= SURGE_FLOW_ID_BASE}
        assert len(surge_ids) == 10
        assert result.unfinished_flows == 0

    def test_surge_past_deadline_not_reported_as_fired(self, tiny_topology, tiny_pathset, quick_sim_config):
        """A surge the run never reaches keeps applied_s=None even though
        its demands were scheduled at install time."""
        config = quick_sim_config.with_overrides(max_sim_time_s=0.5, drain_timeout_s=0.2)
        scenario = Scenario(
            name="late-surge",
            events=(TrafficSurge(100.0, pairs=(("A", "B"),), load=0.3, num_flows=5),),
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, config, steady_demands(count=4), scenario
        )
        result = sim.run()
        outcome = result.scenario_metrics.outcomes[0]
        assert outcome.flows_injected == 5
        assert outcome.applied_s is None
        assert all(r.flow_id < SURGE_FLOW_ID_BASE for r in result.records)

    def test_drain_cancels_pending_matching_demands(self, tiny_topology, tiny_pathset, quick_sim_config):
        demands = steady_demands(count=20)
        scenario = Scenario(
            name="drain", events=(TrafficDrain(0.05, src_dc="A", dst_dc="B"),)
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, demands, scenario
        )
        result = sim.run()
        cancelled = result.scenario_metrics.total_cancelled
        assert cancelled > 0
        assert len(result.records) == len(demands) - cancelled
        assert result.unfinished_flows == 0
        # flows that arrived before the drain fired are untouched
        assert any(r.arrival_s < 0.05 for r in result.records)


class TestNoEventPath:
    def test_empty_scenario_is_transparent(self, tiny_topology, tiny_pathset, quick_sim_config):
        demands = steady_demands()
        _, plain = make_sim(tiny_topology, tiny_pathset, quick_sim_config, demands)
        plain_result = plain.run()
        _, scenario_sim = make_sim(
            tiny_topology,
            tiny_pathset,
            quick_sim_config,
            demands,
            Scenario(name="noop"),
        )
        scenario_result = scenario_sim.run()
        assert plain.engine.processed_events == scenario_sim.engine.processed_events
        assert [r.fct_s for r in plain_result.records] == [
            r.fct_s for r in scenario_result.records
        ]
        assert scenario_result.scenario_metrics is not None
        assert scenario_result.scenario_metrics.outcomes == []

    def test_scenario_validated_against_sim_topology(self, tiny_topology, tiny_pathset, quick_sim_config):
        scenario = Scenario(name="bad", events=(LinkDown(0.0, "A", "Z"),))
        with pytest.raises(ValueError, match="no inter-DC link"):
            make_sim(
                tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
            )


def attributed_triangle():
    """The tiny triangle with facility metadata for correlated events.

    A is a 2N west endpoint, B a bare-feed west relay, C an N+1 east DC —
    so a west power event blacks out B while A rides through degraded.
    """
    topo = Topology("attr-triangle")
    topo.add_dc("A", region="west", tier="tier4", power_redundancy="2N")
    topo.add_dc("B", region="west", tier="tier3", power_redundancy="N")
    topo.add_dc("C", region="east", tier="tier3", power_redundancy="N+1")
    topo.add_inter_dc_link("A", "B", cap_bps=100 * GBPS, delay_s=5 * MS)
    topo.add_inter_dc_link("A", "C", cap_bps=40 * GBPS, delay_s=1 * MS)
    topo.add_inter_dc_link("C", "B", cap_bps=40 * GBPS, delay_s=1 * MS)
    for name in ("A", "B", "C"):
        topo.add_hosts(name, count=4, nic_bps=100 * GBPS)
    topo.validate()
    return topo, PathSet(topo, max_candidates=4, max_extra_hops=1)


class TestCorrelatedEvents:
    def test_srlg_fails_group_atomically_and_repairs_staggered(
        self, tiny_topology, tiny_pathset, quick_sim_config
    ):
        scenario = Scenario(
            name="conduit",
            events=(
                SRLGFailure(
                    0.02,
                    name="conduit",
                    links=(("A", "B"), ("C", "B")),
                    recover_at_s=0.05,
                    stagger_s=0.01,
                ),
            ),
            stranded_timeout_s=0.5,
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
        )
        result = sim.run()
        outcome = result.scenario_metrics.outcomes[0]
        assert outcome.applied_s == pytest.approx(0.02)
        assert outcome.links_affected == 4  # both directions of both links
        # last staggered repair closes the outage window
        assert outcome.reverted_s == pytest.approx(0.06)
        for src, dst in (("A", "B"), ("B", "A"), ("C", "B"), ("B", "C")):
            assert network.link(src, dst).up
        assert result.unfinished_flows == 0

    def test_regional_power_blackout_honours_redundancy(self, quick_sim_config):
        topo, paths = attributed_triangle()
        scenario = Scenario(
            name="west-power",
            events=(
                RegionalPowerEvent(
                    0.02,
                    region="west",
                    duration_s=0.04,
                    survives_redundancy="2N",
                    degraded_factor=0.5,
                ),
            ),
            stranded_timeout_s=0.5,
        )
        network, sim = make_sim(topo, paths, quick_sim_config, steady_demands(), scenario)
        result = sim.run()
        outcome = result.scenario_metrics.outcomes[0]
        # B (bare feed) blacks out: its 4 directed ports go dark; A rides
        # through on the spare feed with A<->C dimmed -> 6 affected links
        assert outcome.links_affected == 6
        assert outcome.applied_s == pytest.approx(0.02)
        assert outcome.reverted_s == pytest.approx(0.06)
        for link in network.inter_dc_links:
            assert link.up
            assert link.capacity_factor == pytest.approx(1.0)
        assert result.unfinished_flows == 0

    def test_calendar_expands_to_one_outcome_per_window(
        self, tiny_topology, tiny_pathset, quick_sim_config
    ):
        scenario = Scenario(
            name="calendar",
            events=(
                MaintenanceCalendar(
                    0.01, dc="C", window_s=0.01, period_s=0.03, occurrences=2
                ),
            ),
            stranded_timeout_s=0.5,
        )
        network, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
        )
        result = sim.run()
        outcomes = result.scenario_metrics.outcomes
        assert [o.kind for o in outcomes] == ["dc-maintenance", "dc-maintenance"]
        assert [o.applied_s for o in outcomes] == [
            pytest.approx(0.01),
            pytest.approx(0.04),
        ]
        assert [o.reverted_s for o in outcomes] == [
            pytest.approx(0.02),
            pytest.approx(0.05),
        ]
        assert all(network.link(s, d).up for s, d in (("A", "C"), ("C", "B")))
        assert result.unfinished_flows == 0


class TestUnfiredEvents:
    """Firings scheduled after the run's drain deadline are reported."""

    def test_cut_past_drain_deadline_is_counted_and_warned(
        self, tiny_topology, tiny_pathset, quick_sim_config
    ):
        # one flow too large to finish, so the run lasts until its deadline
        config = quick_sim_config.with_overrides(drain_timeout_s=0.05, instrumentation=True)
        demands = [FlowDemand(0, "A", "B", 0, 0, 10**12, 0.0)]
        deadline = 0.05
        late = deadline + 0.03
        scenario = Scenario(
            name="late-cut",
            events=(
                LinkDown(0.01, "A", "C"),
                LinkDown(late, "A", "B"),
                DCMaintenance(0.005, "C", duration_s=late),
            ),
        )
        _, sim = make_sim(tiny_topology, tiny_pathset, config, demands, scenario)
        with pytest.warns(RuntimeWarning, match="late-cut.*2 scheduled firing") as caught:
            result = sim.run()
        assert len(caught) == 1
        assert result.duration_s == pytest.approx(deadline)
        metrics = result.scenario_metrics
        assert metrics.total_unfired == 2
        assert any("link-down" in u and f"{late:g} s" in u for u in metrics.unfired)
        assert any(u.startswith("end of") for u in metrics.unfired)
        late_cut = [o for o in metrics.outcomes if o.scheduled_s == late][0]
        assert late_cut.applied_s is None
        counters = result.stats["counters"]
        assert counters["scenario.events_unfired"] == 2
        assert counters["scenario.events_applied"] == 2

    def test_no_warning_when_everything_fires(
        self, tiny_topology, tiny_pathset, quick_sim_config, recwarn
    ):
        scenario = Scenario(name="cut", events=(LinkDown(0.02, "A", "B"),))
        _, sim = make_sim(
            tiny_topology, tiny_pathset, quick_sim_config, steady_demands(), scenario
        )
        result = sim.run()
        assert result.scenario_metrics.unfired == []
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
