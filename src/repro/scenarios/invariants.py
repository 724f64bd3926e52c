"""Reusable cross-core invariant checkers for scenario runs.

The scenario fuzzer (:mod:`repro.scenarios.fuzz` and
``tests/scenarios/fuzz/``) generates random valid event timelines and
asserts, on every simulation core, four global invariants that any
correct run must satisfy regardless of the timeline:

1. **Conservation of demand** (:func:`check_demand_conservation`) —
   every injected demand is accounted for exactly once: completed,
   explicitly failed, still unfinished at the stop time, or cancelled by
   a drain.
2. **No traffic over a dead link** (:class:`DeadLinkMonitor` live, and
   :func:`check_no_dead_link_traffic` post-hoc) — no flow ever achieves
   positive rate while any link of its path is down, the vectorized
   incidence liveness cache agrees with the link objects, and no
   completed flow's recorded route was dead for its whole lifetime
   (:func:`down_intervals` reconstructs per-link outage spans purely from
   the declarative timeline).
3. **Bounded recovery** (:func:`check_recovery_bound`) — every
   disruption is closed (re-routed, restored in place, or explicitly
   failed), and no recovery takes longer than the span between the first
   cut and the last repair of the timeline plus one update interval.
4. **Cross-core bit-identity** (:func:`assert_results_identical`,
   :func:`assert_scenario_metrics_identical`) — the scalar and default
   vectorized cores (see :data:`CORE_CONFIGS`), with or without
   instrumentation, produce
   byte-for-byte identical records, link stats, failures and per-event
   outcomes; the torch backend (when installed) is held to the relaxed
   :func:`assert_results_close` tolerance contract instead.

Each checker raises :class:`InvariantViolation` (an ``AssertionError``
subclass, so pytest renders it natively) with enough context to replay
the failure.  To add an invariant, write a ``check_*`` function over a
:class:`~repro.simulator.fluid.SimulationResult` (post-hoc) or a step
observer attached via
:meth:`~repro.simulator.fluid.FluidSimulation.add_step_observer` (live),
and call it from the fuzz harness — see DESIGN.md, "Scenario invariants
& fuzzing".
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

from ..simulator.link import RuntimeLink
from .events import (
    DCMaintenance,
    LinkDown,
    LinkUp,
    RegionalPowerEvent,
    Scenario,
    SRLGFailure,
)

__all__ = [
    "CORE_CONFIGS",
    "InvariantViolation",
    "check_demand_conservation",
    "down_intervals",
    "check_no_dead_link_traffic",
    "check_recovery_bound",
    "assert_results_identical",
    "assert_results_close",
    "assert_scenario_metrics_identical",
    "DeadLinkMonitor",
]

#: the simulation cores, as ``SimulationConfig`` field overrides — the
#: axes the equivalence suite and the fuzzer sweep: the scalar
#: specification and the default vectorized core.  When torch is
#: importable a ``torch`` entry is appended so the fuzzer also exercises
#: the device-resident backend (equivalent within the documented
#: tolerance, see DESIGN.md, "Array backends & kernels").
CORE_CONFIGS: Dict[str, Dict[str, object]] = {
    "scalar": {"vectorized": False},
    "default": {"vectorized": True},
}

try:  # pragma: no cover - exercised only where torch is installed
    from ..backend import torch_available

    if torch_available():
        CORE_CONFIGS["torch"] = {"vectorized": True, "backend": "torch"}
except ImportError:  # pragma: no cover
    pass


class InvariantViolation(AssertionError):
    """A global scenario invariant does not hold for a run."""


def _violate(message: str) -> None:
    raise InvariantViolation(message)


# ---------------------------------------------------------------------- #
# invariant 1: conservation of demand
# ---------------------------------------------------------------------- #
def check_demand_conservation(result, num_demands: int) -> None:
    """Injected == completed + failed + residual (+ cancelled).

    Args:
        result: a :class:`~repro.simulator.fluid.SimulationResult`.
        num_demands: size of the base traffic matrix handed to the run
            (surge injections and drain cancellations are read off the
            run's scenario metrics).

    Raises:
        InvariantViolation: when any demand is lost or double-counted.
    """
    metrics = result.scenario_metrics
    injected = metrics.total_injected if metrics is not None else 0
    cancelled = metrics.total_cancelled if metrics is not None else 0
    completed = len(result.records)
    failed = len(result.failed_flows)
    residual = result.unfinished_flows
    lhs = num_demands + injected
    rhs = completed + failed + residual + cancelled
    if lhs != rhs:
        _violate(
            f"demand conservation: {num_demands} base + {injected} injected "
            f"= {lhs}, but {completed} completed + {failed} failed + "
            f"{residual} unfinished + {cancelled} cancelled = {rhs}"
        )
    completed_ids = [r.flow_id for r in result.records]
    if len(set(completed_ids)) != len(completed_ids):
        _violate("demand conservation: duplicate flow_id in completed records")
    overlap = set(completed_ids) & {f.flow_id for f in result.failed_flows}
    if overlap:
        _violate(
            f"demand conservation: flows both completed and failed: {sorted(overlap)}"
        )


# ---------------------------------------------------------------------- #
# invariant 2: no traffic over a dead link
# ---------------------------------------------------------------------- #
def down_intervals(
    scenario: Scenario, topology
) -> Dict[Tuple[str, str], List[Tuple[float, float]]]:
    """Per directed link: merged ``[start, end)`` outage intervals.

    Reconstructed *purely* from the declarative compiled timeline — an
    independent re-implementation of the runtime's reference-counted
    down-causes, used to cross-check it.  Overlapping causes (an SRLG cut
    inside a maintenance window) merge into one interval; an outage never
    repaired extends to ``+inf``.  Events that only degrade capacity
    (:class:`~repro.scenarios.events.CapacityChange`, the surviving-DC
    side of a :class:`~repro.scenarios.events.RegionalPowerEvent`) do not
    produce intervals — a degraded link is slow, not dead.
    """
    adjacency: Dict[str, List[Tuple[str, str]]] = {}
    for spec in topology.inter_dc_links():
        adjacency.setdefault(spec.src, []).append(spec.key)
        adjacency.setdefault(spec.dst, []).append(spec.key)

    # directed key -> list of (time, +1/-1) down-cause deltas
    deltas: Dict[Tuple[str, str], List[Tuple[float, int]]] = {}

    def add(key: Tuple[str, str], time_s: float, delta: int) -> None:
        deltas.setdefault(key, []).append((time_s, delta))

    for event in scenario.compiled_events():
        if isinstance(event, LinkDown):
            for key in event.affected_link_keys(None):
                add(key, event.time_s, +1)
        elif isinstance(event, LinkUp):
            add((event.src, event.dst), event.time_s, -1)
            if event.bidirectional:
                add((event.dst, event.src), event.time_s, -1)
        elif isinstance(event, SRLGFailure):
            repairs = event.recovery_times()
            for i, (src, dst) in enumerate(event.links):
                keys = [(src, dst)]
                if event.bidirectional:
                    keys.append((dst, src))
                for key in keys:
                    add(key, event.time_s, +1)
                    if repairs:
                        add(key, repairs[i], -1)
        elif isinstance(event, DCMaintenance):
            for key in adjacency.get(event.dc, ()):
                add(key, event.time_s, +1)
                add(key, event.end_s, -1)
        elif isinstance(event, RegionalPowerEvent):
            blackout, _ = event.classify_dcs(topology)
            dark = set()
            for dc in blackout:
                dark.update(adjacency.get(dc, ()))
            for key in dark:
                add(key, event.time_s, +1)
                add(key, event.end_s, -1)

    intervals: Dict[Tuple[str, str], List[Tuple[float, float]]] = {}
    for key, changes in deltas.items():
        # net the deltas per instant first so a down+up at the same float
        # time (which the runtime applies in timeline order within one
        # engine instant) yields no positive-measure interval
        by_time: Dict[float, int] = {}
        for time_s, delta in changes:
            by_time[time_s] = by_time.get(time_s, 0) + delta
        count = 0
        start: Optional[float] = None
        merged: List[Tuple[float, float]] = []
        for time_s in sorted(by_time):
            previous = count
            count += by_time[time_s]
            if previous == 0 and count > 0:
                start = time_s
            elif previous > 0 and count <= 0 and start is not None:
                if time_s > start:
                    merged.append((start, time_s))
                start = None
        if count > 0 and start is not None:
            merged.append((start, math.inf))
        if merged:
            intervals[key] = merged
    return intervals


def check_no_dead_link_traffic(
    result, scenario: Scenario, topology, monitor: "Optional[DeadLinkMonitor]" = None
) -> None:
    """No completed flow's route was dead for its entire lifetime.

    Combines the live per-step evidence of a :class:`DeadLinkMonitor`
    (when one was attached) with a post-hoc check over the MetricsStore
    path columns: a completed flow's *final* route must not cross a link
    whose (timeline-reconstructed) outage interval covers the whole
    ``[arrival, finish]`` span — a flow cannot make progress, let alone
    complete, on a path that was dead wall-to-wall (re-routes only land
    on fully-healthy paths, so the final route was live at selection
    time).

    Raises:
        InvariantViolation: on any recorded live violation, a stale
            incidence liveness cache, an unknown recorded route hop, or a
            completed flow inside a covering outage interval.
    """
    if monitor is not None and monitor.violations:
        worst = monitor.violations[:5]
        _violate(
            f"dead-link traffic: {len(monitor.violations)} live step "
            f"violations, first {worst}"
        )

    outages = down_intervals(scenario, topology)
    if not outages:
        return
    known = {spec.key for spec in topology.inter_dc_links()}
    store = result.store
    if store is None:
        return
    n = len(store)
    flow_ids = store.column("flow_id")
    arrivals = store.column("arrival_s")
    fcts = store.column("fct_s")
    paths = store.path_indices()
    for row in range(n):
        route = store.route(int(paths[row]))
        arrival = float(arrivals[row])
        finish = arrival + float(fcts[row])
        for src, dst in zip(route, route[1:]):
            if (src, dst) not in known:
                _violate(
                    f"dead-link traffic: flow {int(flow_ids[row])} recorded "
                    f"unknown hop {src}->{dst} in route {route}"
                )
            for start, end in outages.get((src, dst), ()):
                if start <= arrival and end >= finish:
                    _violate(
                        f"dead-link traffic: flow {int(flow_ids[row])} "
                        f"completed over {src}->{dst} although the link was "
                        f"down [{start:g}, {end:g}] covering its lifetime "
                        f"[{arrival:g}, {finish:g}]"
                    )


class DeadLinkMonitor:
    """Live step observer: no positive rate over a dead link, ever.

    Attach to a simulation with :meth:`attach` (before ``run()``); after
    every update step it verifies, for each active flow, that a positive
    achieved rate implies every link of its path is up, and — on the
    vectorized core — that the flow×link incidence liveness cache agrees
    with the :class:`~repro.simulator.link.RuntimeLink` objects whenever
    the cache is current.  Violations are collected (not raised) so a run
    completes and :func:`check_no_dead_link_traffic` can report them with
    the post-hoc evidence.
    """

    def __init__(self) -> None:
        self.violations: List[Tuple] = []
        self.steps_observed = 0

    def attach(self, sim) -> "DeadLinkMonitor":
        """Register on a :class:`~repro.simulator.fluid.FluidSimulation`."""
        sim.add_step_observer(self)
        return self

    def __call__(self, sim, now: float) -> None:
        self.steps_observed += 1
        for flow in sim._active:
            if flow.achieved_bps > 0.0:
                for link in flow.path:
                    if not link.up:
                        self.violations.append(
                            ("rate-over-dead-link", now, flow.flow_id, link.key,
                             flow.achieved_bps)
                        )
        incidence = sim._incidence
        if (
            incidence is not None
            and incidence._seen_state_version == RuntimeLink.state_version
        ):
            for slot, link in enumerate(incidence.links):
                if bool(incidence.up[slot]) != bool(link.up):
                    self.violations.append(
                        ("incidence-liveness-stale", now, link.key, slot)
                    )


# ---------------------------------------------------------------------- #
# invariant 3: bounded recovery
# ---------------------------------------------------------------------- #
def _timeline_repair_span(scenario: Scenario) -> Tuple[float, float]:
    """(first cut time, last repair time) of the compiled timeline."""
    first_down = math.inf
    last_up = -math.inf
    for event in scenario.compiled_events():
        if isinstance(event, (LinkDown, SRLGFailure)):
            first_down = min(first_down, event.time_s)
            last_up = max(last_up, event.time_s, *event_recoveries(event))
        elif isinstance(event, (DCMaintenance, RegionalPowerEvent)):
            first_down = min(first_down, event.time_s)
            last_up = max(last_up, event.end_s)
        elif isinstance(event, LinkUp):
            last_up = max(last_up, event.time_s)
    return first_down, last_up


def event_recoveries(event) -> Tuple[float, ...]:
    """Per-link repair instants of an event (empty when none)."""
    recoveries = getattr(event, "recovery_times", None)
    return recoveries() if callable(recoveries) else ()


def check_recovery_bound(
    result,
    scenario: Scenario,
    update_interval_s: float,
    slack_s: float = 1e-9,
    require_drained: bool = True,
) -> None:
    """Every disruption closes, within the timeline's repair span.

    * Per event outcome: ``disrupted == rerouted + restored + failed`` —
      no disruption is left open at the end of a fully drained run.
    * Every recorded re-route and in-place-restore latency is bounded by
      the span between the timeline's first cut and last repair plus one
      update interval (detection granularity): after the last repair the
      network must return to steady state, nothing may stay disrupted
      longer.
    * With ``require_drained`` (the default for fuzz runs, which give
      generous drain headroom) the run must finish with zero unfinished
      flows.

    Raises:
        InvariantViolation: on open disruptions, an out-of-bound recovery
            latency, or residual flows when ``require_drained``.
    """
    metrics = result.scenario_metrics
    if metrics is None:
        return
    for outcome in metrics.outcomes:
        closed = outcome.flows_rerouted + outcome.flows_restored + outcome.flows_failed
        if outcome.flows_disrupted != closed:
            _violate(
                f"recovery: event #{outcome.index} ({outcome.kind}) left "
                f"disruptions open: {outcome.flows_disrupted} disrupted vs "
                f"{outcome.flows_rerouted} rerouted + {outcome.flows_restored} "
                f"restored + {outcome.flows_failed} failed"
            )
    first_down, last_up = _timeline_repair_span(scenario)
    span = max(0.0, last_up - first_down) if last_up > -math.inf else 0.0
    bound = span + update_interval_s + slack_s
    for label, latencies in (
        ("reroute", metrics.reroute_latencies_s()),
        ("restore", metrics.restore_latencies_s()),
    ):
        for latency in latencies:
            if latency > bound:
                _violate(
                    f"recovery: a {label} took {latency:g}s, exceeding the "
                    f"first-cut-to-last-repair bound {bound:g}s"
                )
    if require_drained and result.unfinished_flows:
        _violate(
            f"recovery: {result.unfinished_flows} flows still unfinished at "
            f"the stop time (the run did not return to steady state)"
        )


# ---------------------------------------------------------------------- #
# invariant 4: cross-core bit-identity
# ---------------------------------------------------------------------- #
def assert_results_identical(reference, other, label: str = "") -> None:
    """Two runs produced byte-identical observable results.

    Compares completed-flow records, link stats, run counters and failed
    flows via exact (bitwise, no tolerance) equality — the contract the
    scalar and vectorized cores and the instrumented/uninstrumented modes
    all share.

    Raises:
        InvariantViolation: on the first differing field.
    """
    prefix = f"bit-identity[{label}]: " if label else "bit-identity: "
    ref_records, other_records = reference.records, other.records
    if len(ref_records) != len(other_records):
        _violate(
            f"{prefix}{len(ref_records)} vs {len(other_records)} completed records"
        )
    for a, b in zip(ref_records, other_records):
        if dataclasses.asdict(a) != dataclasses.asdict(b):
            _violate(f"{prefix}record mismatch:\n  {a}\n  {b}")
    for field in (
        "duration_s",
        "unfinished_flows",
        "routing_decisions",
        "monitor_samples",
    ):
        va, vb = getattr(reference, field), getattr(other, field)
        if va != vb:
            _violate(f"{prefix}{field}: {va} vs {vb}")
    if len(reference.link_stats) != len(other.link_stats):
        _violate(f"{prefix}link_stats length differs")
    for a, b in zip(reference.link_stats, other.link_stats):
        if dataclasses.asdict(a) != dataclasses.asdict(b):
            _violate(f"{prefix}link stats mismatch:\n  {a}\n  {b}")
    if len(reference.failed_flows) != len(other.failed_flows):
        _violate(
            f"{prefix}{len(reference.failed_flows)} vs "
            f"{len(other.failed_flows)} failed flows"
        )
    for a, b in zip(reference.failed_flows, other.failed_flows):
        if dataclasses.asdict(a) != dataclasses.asdict(b):
            _violate(f"{prefix}failed flow mismatch:\n  {a}\n  {b}")
    assert_scenario_metrics_identical(reference, other, label=label)


def assert_results_close(
    reference, other, rtol: float = 1e-9, label: str = ""
) -> None:
    """Two runs produced equivalent results within a relative tolerance.

    The comparison contract for the ``torch`` array backend: device
    scatter-adds accumulate duplicates in unspecified order (hardware
    atomics), so float fields are compared with ``math.isclose(rel_tol=
    rtol, abs_tol=rtol)`` instead of bitwise — everything discrete
    (flow ids, counts, orderings, event outcomes) must still match
    exactly.  See DESIGN.md, "Array backends & kernels".

    Raises:
        InvariantViolation: on the first field outside tolerance.
    """
    prefix = f"tolerance[{label}]: " if label else "tolerance: "

    def close(x, y) -> bool:
        if isinstance(x, float) and isinstance(y, float):
            return math.isclose(x, y, rel_tol=rtol, abs_tol=rtol)
        return x == y

    ref_records, other_records = reference.records, other.records
    if len(ref_records) != len(other_records):
        _violate(
            f"{prefix}{len(ref_records)} vs {len(other_records)} completed records"
        )
    for a, b in zip(ref_records, other_records):
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        if set(da) != set(db) or not all(close(da[k], db[k]) for k in da):
            _violate(f"{prefix}record outside tolerance:\n  {a}\n  {b}")
    for field in ("unfinished_flows", "routing_decisions", "monitor_samples"):
        va, vb = getattr(reference, field), getattr(other, field)
        if va != vb:
            _violate(f"{prefix}{field}: {va} vs {vb}")
    if not close(reference.duration_s, other.duration_s):
        _violate(
            f"{prefix}duration_s: {reference.duration_s} vs {other.duration_s}"
        )
    if len(reference.link_stats) != len(other.link_stats):
        _violate(f"{prefix}link_stats length differs")
    for a, b in zip(reference.link_stats, other.link_stats):
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        if set(da) != set(db) or not all(close(da[k], db[k]) for k in da):
            _violate(f"{prefix}link stats outside tolerance:\n  {a}\n  {b}")
    if len(reference.failed_flows) != len(other.failed_flows):
        _violate(
            f"{prefix}{len(reference.failed_flows)} vs "
            f"{len(other.failed_flows)} failed flows"
        )
    for a, b in zip(reference.failed_flows, other.failed_flows):
        da, db = dataclasses.asdict(a), dataclasses.asdict(b)
        if set(da) != set(db) or not all(close(da[k], db[k]) for k in da):
            _violate(f"{prefix}failed flow outside tolerance:\n  {a}\n  {b}")
    assert_scenario_metrics_identical(reference, other, label=label)


def assert_scenario_metrics_identical(reference, other, label: str = "") -> None:
    """Two runs produced identical per-event scenario outcomes."""
    prefix = f"bit-identity[{label}]: " if label else "bit-identity: "
    a, b = reference.scenario_metrics, other.scenario_metrics
    if (a is None) != (b is None):
        _violate(f"{prefix}scenario metrics present on only one side")
    if a is None:
        return
    if a.scenario_name != b.scenario_name:
        _violate(f"{prefix}scenario name {a.scenario_name!r} vs {b.scenario_name!r}")
    if len(a.outcomes) != len(b.outcomes):
        _violate(f"{prefix}{len(a.outcomes)} vs {len(b.outcomes)} event outcomes")
    for oa, ob in zip(a.outcomes, b.outcomes):
        if dataclasses.asdict(oa) != dataclasses.asdict(ob):
            _violate(f"{prefix}event outcome mismatch:\n  {oa}\n  {ob}")
