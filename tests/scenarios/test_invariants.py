"""The reusable invariant checkers: they hold on good runs and fire on bad.

The cross-core fuzz harness (``tests/scenarios/fuzz``) exercises the
checkers on real simulations; these unit tests feed them synthetic
results to pin down their *sensitivity* — a checker that never fires is
no invariant at all — and the declarative outage-interval reconstruction
they share.
"""

import math

import pytest

from repro.scenarios import Scenario
from repro.scenarios.events import (
    DCMaintenance,
    LinkDown,
    LinkUp,
    MaintenanceCalendar,
    SRLGFailure,
)
from repro.scenarios.injector import EventOutcome, ScenarioMetrics
from repro.scenarios.invariants import (
    CORE_CONFIGS,
    InvariantViolation,
    assert_results_identical,
    check_demand_conservation,
    check_recovery_bound,
    down_intervals,
)
from repro.simulator import SimulationResult
from repro.simulator.fct import FlowRecord


def record(flow_id, arrival_s=0.0, fct_s=0.01):
    return FlowRecord(
        flow_id=flow_id,
        src_dc="A",
        dst_dc="B",
        size_bytes=100_000,
        arrival_s=arrival_s,
        fct_s=fct_s,
        ideal_fct_s=fct_s,
        slowdown=1.0,
        path_dcs=("A", "B"),
    )


def result_of(num_records, unfinished=0, metrics=None):
    return SimulationResult(
        records=[record(i) for i in range(num_records)],
        link_stats=[],
        duration_s=1.0,
        unfinished_flows=unfinished,
        routing_decisions=0,
        monitor_samples=0,
        scenario_metrics=metrics,
    )


class TestCoreConfigs:
    def test_cores_with_distinct_flag_combinations(self):
        expected = {"scalar", "default"}
        # a torch entry appears only where torch is importable
        assert expected <= set(CORE_CONFIGS) <= expected | {"torch"}
        combos = {tuple(sorted(c.items())) for c in CORE_CONFIGS.values()}
        assert len(combos) == len(CORE_CONFIGS)


class TestDemandConservation:
    def test_balanced_run_passes(self):
        check_demand_conservation(result_of(10), num_demands=10)

    def test_lost_demand_fires(self):
        with pytest.raises(InvariantViolation, match="demand conservation"):
            check_demand_conservation(result_of(9), num_demands=10)

    def test_injected_and_cancelled_enter_the_balance(self):
        metrics = ScenarioMetrics(
            scenario_name="s",
            outcomes=[
                EventOutcome(
                    index=0, kind="traffic-surge", description="", scheduled_s=0.1,
                    applied_s=0.1, flows_injected=3,
                ),
                EventOutcome(
                    index=1, kind="traffic-drain", description="", scheduled_s=0.2,
                    applied_s=0.2, flows_cancelled=2,
                ),
            ],
        )
        # 10 base + 3 injected == 11 completed + 2 cancelled
        check_demand_conservation(result_of(11, metrics=metrics), num_demands=10)
        with pytest.raises(InvariantViolation):
            check_demand_conservation(result_of(12, metrics=metrics), num_demands=10)

    def test_duplicate_completion_fires(self):
        result = result_of(2)
        # records is a view; replace the whole list to build the bad run
        result.records = [record(0), record(0)]
        with pytest.raises(InvariantViolation, match="duplicate"):
            check_demand_conservation(result, num_demands=2)


class TestDownIntervals:
    def topo(self, tiny_topology):
        return tiny_topology

    def test_cut_and_repair_span(self, tiny_topology):
        scenario = Scenario(
            name="s", events=(LinkDown(0.1, "A", "B"), LinkUp(0.3, "A", "B"))
        )
        intervals = down_intervals(scenario, tiny_topology)
        assert intervals[("A", "B")] == [(0.1, 0.3)]
        assert intervals[("B", "A")] == [(0.1, 0.3)]

    def test_unrepaired_cut_extends_forever(self, tiny_topology):
        scenario = Scenario(name="s", events=(LinkDown(0.1, "A", "B"),))
        (span,) = down_intervals(scenario, tiny_topology)[("A", "B")]
        assert span[0] == 0.1 and math.isinf(span[1])

    def test_coincident_cut_and_repair_net_to_nothing(self, tiny_topology):
        scenario = Scenario(
            name="s", events=(LinkDown(0.1, "A", "B"), LinkUp(0.1, "A", "B"))
        )
        assert down_intervals(scenario, tiny_topology) == {}

    def test_overlapping_causes_merge(self, tiny_topology):
        scenario = Scenario(
            name="s",
            events=(
                DCMaintenance(0.1, dc="B", duration_s=0.2),
                SRLGFailure(
                    0.2, name="g", links=(("A", "B"),), recover_at_s=0.5
                ),
            ),
        )
        intervals = down_intervals(scenario, tiny_topology)
        # maintenance [0.1, 0.3) and the cut [0.2, 0.5) merge into one span
        assert intervals[("A", "B")] == [(0.1, 0.5)]
        # the C<->B ports only suffer the maintenance window
        assert intervals[("C", "B")] == [(0.1, pytest.approx(0.3))]

    def test_staggered_srlg_repairs(self, tiny_topology):
        scenario = Scenario(
            name="s",
            events=(
                SRLGFailure(
                    0.1,
                    name="g",
                    links=(("A", "B"), ("C", "B")),
                    recover_at_s=0.2,
                    stagger_s=0.1,
                ),
            ),
        )
        intervals = down_intervals(scenario, tiny_topology)
        assert intervals[("A", "B")] == [(0.1, 0.2)]
        assert intervals[("C", "B")] == [(0.1, pytest.approx(0.3))]

    def test_calendar_expands_before_reconstruction(self, tiny_topology):
        scenario = Scenario(
            name="s",
            events=(
                MaintenanceCalendar(
                    0.1, dc="C", window_s=0.1, period_s=0.3, occurrences=2
                ),
            ),
        )
        intervals = down_intervals(scenario, tiny_topology)
        assert intervals[("A", "C")] == [
            (0.1, pytest.approx(0.2)),
            (pytest.approx(0.4), pytest.approx(0.5)),
        ]


class TestRecoveryBound:
    def metrics(self, disrupted=2, rerouted=2, restored=0, failed=0, latencies=()):
        return ScenarioMetrics(
            scenario_name="s",
            outcomes=[
                EventOutcome(
                    index=0, kind="link-down", description="", scheduled_s=0.1,
                    applied_s=0.1, flows_disrupted=disrupted,
                    flows_rerouted=rerouted, flows_restored=restored,
                    flows_failed=failed, reroute_latencies_s=list(latencies),
                ),
            ],
        )

    def scenario(self):
        return Scenario(
            name="s", events=(LinkDown(0.1, "A", "B"), LinkUp(0.3, "A", "B"))
        )

    def test_closed_disruptions_pass(self):
        result = result_of(5, metrics=self.metrics())
        check_recovery_bound(result, self.scenario(), update_interval_s=1e-3)

    def test_open_disruption_fires(self):
        result = result_of(5, metrics=self.metrics(disrupted=3, rerouted=2))
        with pytest.raises(InvariantViolation, match="open"):
            check_recovery_bound(result, self.scenario(), update_interval_s=1e-3)

    def test_slow_recovery_fires(self):
        # repair span is 0.2s; a 0.5s reroute latency breaches the bound
        result = result_of(5, metrics=self.metrics(latencies=(0.5,)))
        with pytest.raises(InvariantViolation, match="exceeding"):
            check_recovery_bound(result, self.scenario(), update_interval_s=1e-3)

    def test_residual_flows_fire_when_drain_required(self):
        result = result_of(5, unfinished=1, metrics=self.metrics())
        with pytest.raises(InvariantViolation, match="unfinished"):
            check_recovery_bound(result, self.scenario(), update_interval_s=1e-3)
        check_recovery_bound(
            result, self.scenario(), update_interval_s=1e-3, require_drained=False
        )


class TestBitIdentity:
    def test_identical_results_pass(self):
        assert_results_identical(result_of(3), result_of(3))

    def test_differing_record_fires(self):
        a, b = result_of(3), result_of(3)
        b.records = [record(0), record(1, fct_s=0.011), record(2)]
        with pytest.raises(InvariantViolation, match="record mismatch"):
            assert_results_identical(a, b)

    def test_differing_counter_fires(self):
        a, b = result_of(3), result_of(3)
        b.unfinished_flows = 1
        with pytest.raises(InvariantViolation, match="unfinished_flows"):
            assert_results_identical(a, b)

    def test_metrics_presence_mismatch_fires(self):
        a = result_of(1)
        b = result_of(1, metrics=ScenarioMetrics(scenario_name="s"))
        with pytest.raises(InvariantViolation, match="only one side"):
            assert_results_identical(a, b)
