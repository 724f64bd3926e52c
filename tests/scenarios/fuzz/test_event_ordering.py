"""Coincident-timestamp ordering: the documented deterministic order.

When scenario events, flow arrivals and engine ticks share one float
timestamp, the engine's ``(time, seq)`` FIFO heap plus the injector's
install-before-arrivals setup yields the documented order (see
``repro/scenarios/events.py``, "Coincident timestamps"):

1. scenario events, in compiled-timeline order,
2. workload / surge arrivals,
3. monitor, rate-update and gc ticks.

These tests lock that order in observable terms: a cut+repair pair at
the exact arrival instant must net out *before* any tied arrival routes
(so the run is indistinguishable from an undisturbed one), within-instant
effects follow the compiled listing order, and every coincident case is
bit-identical across cores and across repeated runs.
"""

from __future__ import annotations

from repro.routing import make_router_factory
from repro.scenarios.events import LinkDown, LinkUp, Scenario
from repro.scenarios.fuzz import FuzzCase, build_fuzz_pathset, build_fuzz_topology
from repro.scenarios.invariants import assert_results_identical
from repro.simulator import RuntimeNetwork, SimulationConfig
from repro.simulator.flow import FlowDemand

from .harness import run_baseline, run_case

CORES = ("scalar", "default")
TIE_AT = 0.02


def _demands(pairs, arrivals, size=600_000):
    out = []
    for i, arrival in enumerate(arrivals):
        src, dst = pairs[i % len(pairs)]
        out.append(
            FlowDemand(
                flow_id=i,
                src_dc=src,
                dst_dc=dst,
                src_host=i % 4,
                dst_host=(i + 1) % 4,
                size_bytes=size + 10_000 * i,
                arrival_s=arrival,
            )
        )
    return tuple(out)


def _case(scenario, demands, topology="triangle", seed=13):
    return FuzzCase(
        topology_name=topology, scenario=scenario, demands=demands, cc="dcqcn", seed=seed
    )


class TestCoincidentTimestamps:
    def test_events_fire_before_tied_arrivals(self):
        """A cut + repair at the exact instant a batch of flows arrives
        nets out before any of those flows routes: the run is bit-identical
        to one with no scenario at all, on every core."""
        scenario = Scenario(
            name="tie",
            events=(
                LinkDown(time_s=TIE_AT, src="DCA", dst="DCC"),
                LinkUp(time_s=TIE_AT, src="DCA", dst="DCC"),
            ),
        )
        demands = _demands(
            (("DCA", "DCC"),), arrivals=(TIE_AT, TIE_AT, TIE_AT, TIE_AT)
        )
        case = _case(scenario, demands)
        for core in CORES:
            result, _ = run_case(case, core=core)
            baseline = run_baseline(case, core=core)
            outcomes = result.scenario_metrics.outcomes
            assert [o.applied_s for o in outcomes] == [TIE_AT, TIE_AT]
            assert all(o.flows_disrupted == 0 for o in outcomes), (
                f"{core}: nothing was in flight, yet the tied cut disrupted flows"
            )
            for record, base_record in zip(result.records, baseline.records):
                assert record == base_record, (
                    f"{core}: tied cut+repair changed a flow outcome:\n"
                    f"  with scenario: {record}\n  baseline:      {base_record}"
                )
            assert len(result.records) == len(baseline.records)

    def test_within_instant_effects_follow_timeline_order(self):
        """Two timelines with the same events at the same instant but in
        different listing order end in different states: down-then-up
        leaves the link up, up-then-down leaves it down."""
        topology = build_fuzz_topology("triangle")
        paths = build_fuzz_pathset(topology)
        down = LinkDown(time_s=TIE_AT, src="DCA", dst="DCC")
        up = LinkUp(time_s=TIE_AT, src="DCA", dst="DCC")
        for order, expect_up in ((("down", "up"), True), (("up", "down"), False)):
            network = RuntimeNetwork(
                topology, paths, make_router_factory("ecmp"), SimulationConfig(seed=1)
            )
            events = {"down": down, "up": up}
            for name in order:
                events[name].apply(network, TIE_AT)
            assert network.link("DCA", "DCC").up is expect_up, (
                f"order {order}: expected up={expect_up}"
            )

    def test_coincident_case_is_deterministic_and_core_identical(self):
        """A cut landing on in-flight flows at the exact arrival instant of
        a second wave: every core agrees bit-for-bit, and repeating the run
        reproduces it exactly."""
        scenario = Scenario(
            name="tie-inflight",
            events=(
                LinkDown(time_s=TIE_AT, src="DCA", dst="DCC", bidirectional=True),
                LinkUp(time_s=0.04, src="DCA", dst="DCC", bidirectional=True),
            ),
            stranded_timeout_s=0.05,
        )
        demands = _demands(
            (("DCA", "DCC"), ("DCC", "DCA")),
            arrivals=(0.0, 0.0, 0.01, TIE_AT, TIE_AT, TIE_AT, 0.03),
            size=1_200_000,
        )
        case = _case(scenario, demands)
        reference, _ = run_case(case, core="scalar")
        assert reference.scenario_metrics.outcomes[0].flows_disrupted > 0
        for core in CORES:
            once, _ = run_case(case, core=core)
            again, _ = run_case(case, core=core)
            assert_results_identical(reference, once, label=f"scalar vs {core}")
            assert_results_identical(once, again, label=f"{core} repeat")
