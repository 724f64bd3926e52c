"""Properties of the TrafficDrain golden-ratio selection hash.

``TrafficDrain.matches`` picks a deterministic subset of pending demands
by multiplicative hashing (``flow_id * 2^32/phi mod 2^32``), so the
drained set must (a) track the requested fraction closely for any id
population, (b) be a pure function of the flow id — independent of
demand order, other demands, or any RNG — and (c) agree between the
declarative prediction and what a simulation actually cancels, on every
core.
"""

from __future__ import annotations

import math

from hypothesis import given, strategies as st

from repro.scenarios.events import Scenario, TrafficDrain
from repro.scenarios.fuzz import FUZZ_TOPOLOGIES, FuzzCase
from repro.scenarios.invariants import check_demand_conservation
from repro.simulator.flow import FlowDemand

from .harness import run_case

FRACTIONS = (0.1, 0.25, 0.5, 0.75, 0.9)


def _demand(flow_id: int, src="DCA", dst="DCC", arrival=0.0) -> FlowDemand:
    return FlowDemand(
        flow_id=flow_id,
        src_dc=src,
        dst_dc=dst,
        src_host=0,
        dst_host=0,
        size_bytes=500_000,
        arrival_s=arrival,
    )


class TestGoldenRatioSelection:
    @given(
        start=st.integers(min_value=0, max_value=2**20),
        stride=st.integers(min_value=1, max_value=16),
        count=st.integers(min_value=200, max_value=2000),
        fraction=st.sampled_from(FRACTIONS),
    )
    def test_drained_fraction_tracks_target(self, start, stride, count, fraction):
        """The hash-selected share stays within a low-discrepancy bound of
        the requested fraction for arbitrary strided id populations."""
        drain = TrafficDrain(time_s=0.0, fraction=fraction)
        ids = range(start, start + stride * count, stride)
        hit = sum(1 for flow_id in ids if drain.matches(_demand(flow_id)))
        tolerance = max(0.1, 4.0 / math.sqrt(count))
        assert abs(hit / count - fraction) <= tolerance

    @given(
        ids=st.lists(
            st.integers(min_value=0, max_value=2**31), min_size=1, max_size=200, unique=True
        ),
        fraction=st.sampled_from(FRACTIONS),
        seed=st.randoms(),
    )
    def test_selection_is_order_and_context_free(self, ids, fraction, seed):
        """Membership is decided per flow id: permuting the population or
        evaluating against a different surrounding set changes nothing."""
        drain = TrafficDrain(time_s=0.0, fraction=fraction)
        verdicts = {flow_id: drain.matches(_demand(flow_id)) for flow_id in ids}
        shuffled = list(ids)
        seed.shuffle(shuffled)
        assert {f: drain.matches(_demand(f)) for f in shuffled} == verdicts
        subset = shuffled[: max(1, len(shuffled) // 2)]
        assert all(drain.matches(_demand(f)) == verdicts[f] for f in subset)

    def test_full_drain_matches_everything(self):
        drain = TrafficDrain(time_s=0.0, fraction=1.0)
        assert all(drain.matches(_demand(f)) for f in range(100))


class TestSimLevelDrain:
    @given(
        fraction=st.sampled_from(FRACTIONS + (1.0,)),
        seed=st.integers(min_value=1, max_value=2**16),
    )
    def test_cancelled_set_matches_prediction_on_every_core(self, fraction, seed):
        """What a run cancels is exactly the declaratively predicted set —
        pending (not-yet-arrived) matching demands — on every core."""
        drain_at = 0.02
        drain = TrafficDrain(time_s=drain_at, src_dc="DC1", fraction=fraction)
        demands = tuple(
            _demand(flow_id, src="DC1", dst="DC4", arrival=0.01 * flow_id)
            for flow_id in range(6)
        )
        predicted = sum(
            1 for d in demands if d.arrival_s >= drain_at and drain.matches(d)
        )
        case = FuzzCase(
            topology_name="diamond",
            scenario=Scenario(name="drain-only", events=(drain,)),
            demands=demands,
            cc="dcqcn",
            seed=seed,
        )
        assert "diamond" in FUZZ_TOPOLOGIES
        cancelled = {}
        for core in ("scalar", "default"):
            result, _ = run_case(case, core=core)
            check_demand_conservation(result, len(demands))
            cancelled[core] = result.scenario_metrics.total_cancelled
        assert set(cancelled.values()) == {predicted}, (
            f"predicted {predicted} cancellations, got {cancelled}"
        )
