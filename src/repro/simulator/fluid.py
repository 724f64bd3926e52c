"""Fluid flow-level network simulation.

This is the substrate that replaces the paper's NS-3 setup (see DESIGN.md).
Flows are modelled as fluid: every ``update_interval`` the simulation

1. sums the sending rate of active flows on every link they traverse,
2. integrates (offered − capacity) into each egress queue,
3. computes each flow's achieved rate (its sending rate scaled down by the
   most-congested link it crosses),
4. generates congestion feedback (ECN fraction, max utilisation, RTT sample)
   and puts it "in flight" so the sender's congestion controller only sees it
   one base-RTT later — the outdated-feedback property of long-haul paths,
5. advances congestion-controller state and flow progress, and
6. finishes flows whose bytes are exhausted.

Routing decisions happen exactly once per flow, at arrival time, by walking
DCI switches hop by hop (see :class:`~repro.simulator.network.RuntimeNetwork`).

Two implementations of the update step exist and are bit-for-bit
equivalent: the vectorized core (default) that keeps per-flow and
congestion-control state resident in a :class:`~repro.simulator.flow_table
.FlowTable`, runs every per-step operation as numpy array math over a
CSR-style flow×link incidence structure (:mod:`repro.simulator.incidence`),
advances/feeds congestion control through per-class in-place column
kernels — grouped by CC class, so heterogeneous fleets (per-flow CC mixes)
stay on the fast path — and admits arrivals in batches; and the original
pure-Python scalar loop with one heap event per arrival, kept as the
executable specification and selected with
``SimulationConfig(vectorized=False)``.  The equivalence is guarded by
``tests/simulator/test_vectorized_equivalence.py``.

A run may additionally carry a :class:`~repro.scenarios.events.Scenario`:
its injector schedules fault/traffic events on the same engine heap and
calls :meth:`FluidSimulation.revalidate_flows` after each topology mutation,
so in-flight flows are re-routed (or explicitly failed) through the lazy
fast-failover path mid-run.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..backend import get_backend
from ..obs import Instrumentation, NOOP
from .config import SimulationConfig
from .engine import SimulationEngine, SimulationError
from .fct import FCTCollector, FlowRecord, IdealFctModel, MetricsStore
from .flow import FeedbackSignal, Flow, FlowDemand
from .flow_table import FlowTable
from .incidence import FlowLinkIncidence
from .link import RuntimeLink
from .monitor import LinkTrace, QueueMonitor
from .network import RuntimeNetwork
from .telemetry import TelemetryPlane

__all__ = ["LinkStats", "FlowFailure", "SimulationResult", "FluidSimulation"]


class _FeedbackGeneration:
    """One update step's worth of in-flight congestion feedback (arrays).

    The vectorized core never materialises per-flow
    :class:`~repro.simulator.flow.FeedbackSignal` objects for the common
    path; each step appends one generation holding the step's signal
    arrays, and lanes are delivered (batched, per congestion-control
    class) once their ``deliver_s`` passes.  ``next_due_s`` caches the
    earliest undelivered lane so idle generations cost one comparison per
    step.

    Lanes are addressed by FlowTable row (``rows``) guarded by the row
    ``epochs`` captured at enqueue time, so a lane whose row was released
    (and possibly re-acquired by a newer flow) is dropped.
    """

    __slots__ = (
        "rows",
        "epochs",
        "generated_s",
        "deliver_s",
        "ecn",
        "util",
        "rtt",
        "qd",
        "undelivered",
        "next_due_s",
    )

    def __init__(self, generated_s, deliver_s, ecn, util, rtt, qd, rows, epochs):
        self.rows = rows
        self.epochs = epochs
        self.generated_s = generated_s
        self.deliver_s = deliver_s
        self.ecn = ecn
        self.util = util
        self.rtt = rtt
        self.qd = qd
        self.undelivered = np.ones(len(deliver_s), dtype=bool)
        self.next_due_s = float(deliver_s.min())


@dataclass(frozen=True)
class LinkStats:
    """Summary statistics of one inter-DC link after a run."""

    key: Tuple[str, str]
    cap_bps: float
    carried_bytes: float
    dropped_bytes: float
    peak_queue_bytes: float
    utilization: float


@dataclass(frozen=True)
class FlowFailure:
    """A flow explicitly failed by the scenario engine.

    Recorded when a disrupted flow could not be moved onto a healthy path
    within the scenario's stranded timeout — the simulation's equivalent of
    the application giving up on a blackholed connection.
    """

    flow_id: int
    src_dc: str
    dst_dc: str
    size_bytes: int
    arrival_s: float
    disrupted_s: float
    failed_s: float
    remaining_bytes: float


class SimulationResult:
    """Everything a simulation run produces.

    Completed-flow metrics live in a columnar
    :class:`~repro.simulator.fct.MetricsStore` (:attr:`store`); the legacy
    :attr:`records` list is a *view* materialised freshly on every access,
    so callers cannot mutate the run's metrics through it.  Analysis code
    should prefer the store's column accessors.

    Attributes:
        records: one :class:`FlowRecord` per completed flow (lazy view over
            :attr:`store`; assignable for synthetic results in tests).
        store: the columnar metrics (``None`` only when a records list was
            supplied explicitly).
        link_stats: per inter-DC link summary.
        duration_s: simulated time elapsed (from time 0 to the stop time).
        unfinished_flows: flows still active when the simulation stopped
            (should be 0 in a healthy run; benchmarks assert on it).
        routing_decisions: total number of per-switch routing decisions.
        monitor_samples: number of queue-monitor sweeps taken.
        trace: optional per-link time series.
        failed_flows: flows explicitly failed by the scenario engine
            (stranded on a dead path past the scenario's timeout).
        scenario_metrics: per-event recovery metrics
            (:class:`~repro.scenarios.injector.ScenarioMetrics`) when the
            run carried a scenario, else ``None``.
        stats: observability snapshot (counters / gauges / histograms /
            phase timers, see DESIGN.md "Observability plane") when the run
            had ``SimulationConfig.instrumentation`` on, else ``None``.
    """

    def __init__(
        self,
        records: Optional[List[FlowRecord]] = None,
        link_stats: Optional[List[LinkStats]] = None,
        duration_s: float = 0.0,
        unfinished_flows: int = 0,
        routing_decisions: int = 0,
        monitor_samples: int = 0,
        trace: Optional[LinkTrace] = None,
        failed_flows: Optional[List[FlowFailure]] = None,
        scenario_metrics: Optional[object] = None,
        store: Optional[MetricsStore] = None,
        stats: Optional[dict] = None,
    ) -> None:
        self._records_override: Optional[List[FlowRecord]] = (
            list(records) if records is not None else None
        )
        self.store = store
        self.link_stats = list(link_stats) if link_stats is not None else []
        self.duration_s = duration_s
        self.unfinished_flows = unfinished_flows
        self.routing_decisions = routing_decisions
        self.monitor_samples = monitor_samples
        self.trace = trace
        self.failed_flows = list(failed_flows) if failed_flows is not None else []
        self.scenario_metrics = scenario_metrics
        self.stats = stats

    @property
    def records(self) -> List[FlowRecord]:
        """Completed-flow records (a fresh list of views per access)."""
        if self._records_override is not None:
            return list(self._records_override)
        if self.store is None:
            return []
        return self.store.records()

    @records.setter
    def records(self, value: Optional[List[FlowRecord]]) -> None:
        self._records_override = list(value) if value is not None else None

    @property
    def records_overridden(self) -> bool:
        """True when a records list was assigned, shadowing :attr:`store`."""
        return self._records_override is not None

    def arrival_slowdown_columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(arrival_s, slowdown)`` columns of the completed flows.

        Served straight from the metrics store when available, so analysis
        helpers can window/bucket without materialising record objects.
        """
        if self._records_override is None and self.store is not None:
            return self.store.arrivals(), self.store.slowdowns()
        recs = self.records
        arrivals = np.fromiter((r.arrival_s for r in recs), dtype=np.float64, count=len(recs))
        slowdowns = np.fromiter((r.slowdown for r in recs), dtype=np.float64, count=len(recs))
        return arrivals, slowdowns

    def slowdowns(self) -> List[float]:
        """All flow slowdowns."""
        if self._records_override is None and self.store is not None:
            return self.store.slowdowns().tolist()
        return [r.slowdown for r in self.records]

    def utilization_by_link(self) -> Dict[Tuple[str, str], float]:
        """Mapping of directed link key to average utilisation."""
        return {stats.key: stats.utilization for stats in self.link_stats}


class FluidSimulation:
    """Drives one simulation run end to end."""

    def __init__(
        self,
        network: RuntimeNetwork,
        demands: Sequence[FlowDemand],
        cc_factory: Callable[[float, float], object],
        config: Optional[SimulationConfig] = None,
        trace_links: bool = False,
        scenario=None,
    ) -> None:
        """Prepare a run.

        Args:
            network: runtime network (topology + routers).
            demands: flow demands, in any order (they are sorted by arrival).
            cc_factory: ``cc_factory(line_rate_bps, base_rtt_s)`` returning a
                fresh congestion-control instance per flow.
            config: simulation tunables.
            trace_links: record per-link time series (costs memory; used by
                the motivation figure).
            scenario: optional :class:`~repro.scenarios.events.Scenario`;
                its events (fault injection, traffic surges, capacity
                changes) are scheduled on the engine heap and applied to the
                runtime network mid-run.
        """
        self.network = network
        self.config = config or network.config
        self.config.validate()
        self.cc_factory = cc_factory
        self.demands = sorted(demands, key=lambda d: (d.arrival_s, d.flow_id))

        #: observability plane — the NOOP singleton when instrumentation is
        #: off, so every site below is an inert attribute access.  Span
        #: handles and counters are bound once here (reusable,
        #: non-re-entrant) so the hot loops pay only the enter/exit cost.
        #: Instrumentation never touches simulation numerics or RNG
        #: streams: results stay bit-for-bit identical either way.
        self.obs = Instrumentation() if self.config.instrumentation else NOOP
        obs = self.obs
        self._sp_update = obs.span("step.update")
        self._sp_revalidate = obs.span("update.revalidate")
        self._sp_load_queue = obs.span("update.load_queue")
        self._sp_signals = obs.span("update.signals")
        self._sp_feedback = obs.span("update.feedback")
        self._sp_cc = obs.span("update.cc_advance")
        self._sp_completions = obs.span("update.completions")
        self._sp_monitor = obs.span("step.monitor")
        self._sp_gc = obs.span("step.gc")
        self._sp_arrivals = obs.span("step.arrivals")
        self._sp_arrival_route = obs.span("arrivals.route")
        self._ctr_repeated = obs.counter("slow_path.deliver_repeated")
        self._ctr_seq_routing = obs.counter("slow_path.sequential_routing")
        self._ctr_reroutes = obs.counter("slow_path.reroutes")
        self._ctr_cc_kernels = obs.counter("cc.kernel_dispatches")
        self._ctr_batches = obs.counter("arrivals.batches")
        self._ctr_admitted = obs.counter("arrivals.flows_admitted")
        self._hist_batch_size = obs.histogram("arrivals.batch_size")

        self.engine = SimulationEngine()
        self._rng = np.random.default_rng(self.config.seed)
        ideal = IdealFctModel(network.topology, network.pathset)
        self.collector = FCTCollector(
            ideal, fidelity_noise=self.config.fidelity_noise, rng=self._rng
        )
        self._trace = LinkTrace() if trace_links else None

        self._active: List[Flow] = []
        #: the array backend executing this run's hot kernels (scatter
        #: adds, segment reductions, the path-signal walk — see
        #: :mod:`repro.backend`); the scalar core ignores it
        self._backend = get_backend(self.config.backend)
        #: flow×link incidence arrays (None = scalar update path)
        self._incidence: Optional[FlowLinkIncidence] = (
            FlowLinkIncidence(backend=self._backend)
            if self.config.vectorized
            else None
        )
        #: structure-of-arrays per-flow state, authoritative while a flow is
        #: bound to its row (vectorized core only; the scalar reference path
        #: keeps state on the objects, untouched)
        self._table: Optional[FlowTable] = (
            FlowTable(backend=self._backend) if self.config.vectorized else None
        )
        #: the factory wants each demand's flow id (per-flow CC mixes)
        self._cc_per_flow = bool(getattr(cc_factory, "per_flow", False))

        #: array-resident control plane: telemetry columns (vectorized core
        #: only; the scalar reference path samples per-port objects)
        self.telemetry: Optional[TelemetryPlane] = None
        if self.config.vectorized:
            self.telemetry = TelemetryPlane(network, backend=self._backend)
            self.telemetry.attach_incidence(self._incidence)
        self.monitor = QueueMonitor(network, trace=self._trace, plane=self.telemetry)
        #: FlowTable rows of the active flows, aligned with ``_active``
        #: (grown by doubling; ``_n_active`` is the live prefix length)
        self._rows_arr = np.empty(256, dtype=np.intp)
        self._n_active = 0
        #: conservative flag: may any active flow still be disrupted?
        #: (scalar core; the vectorized core reads the table's
        #: ``disrupted_s`` column instead)
        self._maybe_disrupted = False
        #: in-flight congestion feedback, one generation per update step
        self._feedback_line: "deque[_FeedbackGeneration]" = deque()
        self._update_tick = 0
        self._pending_arrivals = len(self.demands)
        self._stopped = False
        #: flow id -> (arrival Event, demand) for not-yet-arrived flows
        #: (the scalar core's per-event arrival path)
        self._arrival_events: Dict[int, Tuple[object, FlowDemand]] = {}
        #: batched-arrival state (vectorized core): a
        #: (arrival_s, flow_id, strict, demand)
        #: heap of not-yet-admitted demands, drained by one batch event
        #: per event-free window instead of one heap event per flow
        #: (``strict`` marks mid-run injections, see :meth:`_arrival_batch`)
        self._arrival_heap: List[Tuple[float, int, bool, FlowDemand]] = []
        self._run_started = False
        self._cancelled_ids: set = set()
        self._batch_event = None
        #: scenario event times guarding exact-tie admission (see
        #: :meth:`_arrival_batch`)
        self._tie_guard: frozenset = frozenset()
        self._injected_last_arrival_s = 0.0
        self._failed: List[FlowFailure] = []
        #: read-only callbacks invoked after every completed update step
        #: (see :meth:`add_step_observer`); empty in normal runs
        self._step_observers: List[Callable[["FluidSimulation", float], None]] = []

        self.injector = None
        if scenario is not None:
            # local import: repro.scenarios depends on the simulator types
            from ..scenarios.injector import ScenarioInjector

            self.injector = ScenarioInjector(scenario, self)
            self._tie_guard = self.injector.scheduled_event_times()
            self.injector.install()

    # ------------------------------------------------------------------ #
    # public API
    # ------------------------------------------------------------------ #
    def run(self) -> SimulationResult:
        """Execute the simulation and return its result."""
        for demand in self.demands:
            self._schedule_arrival(demand)
        self._run_started = True

        # the monitor is scheduled before the rate/queue update so that when
        # both fire at the same instant the switch samples its queues first
        # (and the run cannot end before at least one monitor sweep happened)
        self.engine.schedule_periodic(
            self.config.monitor_interval_s, self._monitor_step
        )
        self.engine.schedule_periodic(
            self.config.update_interval_s, self._update_step
        )
        self.engine.schedule_periodic(self.config.gc_interval_s, self._gc_step)

        last_arrival = self.demands[-1].arrival_s if self.demands else 0.0
        last_arrival = max(last_arrival, self._injected_last_arrival_s)
        deadline = min(
            self.config.max_sim_time_s, last_arrival + self.config.drain_timeout_s
        )
        self.engine.run(until=deadline)
        if self.injector is not None:
            self.injector.finish(deadline)
        return self._build_result()

    # ------------------------------------------------------------------ #
    # scenario-facing API (used by repro.scenarios.injector)
    # ------------------------------------------------------------------ #
    def inject_demands(self, demands: Sequence[FlowDemand]) -> None:
        """Add demands mid-run (or pre-run): traffic-surge events.

        Raises:
            SimulationError: if a demand's arrival lies in the past.
        """
        for demand in demands:
            self._pending_arrivals += 1
            self._schedule_arrival(demand)
            self._injected_last_arrival_s = max(
                self._injected_last_arrival_s, demand.arrival_s
            )

    def cancel_pending(self, predicate: Callable[[FlowDemand], bool]) -> int:
        """Cancel not-yet-arrived demands matching ``predicate``.

        Returns:
            Number of demands cancelled (traffic-drain events).
        """
        if self._table is not None:
            cancelled = 0
            for _, flow_id, _, demand in self._arrival_heap:
                if flow_id not in self._cancelled_ids and predicate(demand):
                    self._cancelled_ids.add(flow_id)
                    self._pending_arrivals -= 1
                    cancelled += 1
            return cancelled
        cancelled = 0
        for flow_id, (event, demand) in list(self._arrival_events.items()):
            if predicate(demand):
                event.cancel()
                del self._arrival_events[flow_id]
                self._pending_arrivals -= 1
                cancelled += 1
        return cancelled

    def revalidate_flows(self, now: float) -> None:
        """Re-evaluate every in-flight flow against current link liveness.

        Runs on every update step and immediately after each scenario state
        event.  A flow whose path crosses a dead port is treated as if its
        next packet re-arrived at the switch — the stale flow-cache entry is
        lazily invalidated and the flow re-hashed onto a healthy candidate
        (paper §3.4).  A flow with no healthy alternative stays pinned until
        its path recovers, or — when the scenario sets a stranded timeout —
        is explicitly failed and recorded.
        """
        stranded_timeout = None
        if self.injector is not None:
            stranded_timeout = self.injector.scenario.stranded_timeout_s

        if self._incidence is not None and self._active:
            # vectorized fast path: one reduceat over cached liveness
            # instead of an O(flows x path) Python sweep per call
            rows = self._active_rows()
            self._incidence.refresh(rows)
            broken_arr = self._incidence.broken_flows()
            # only flows that are broken now or were disrupted before need
            # any Python-level attention — everything else is covered by
            # two array reductions
            need = broken_arr | ~np.isnan(self._table.disrupted_s[rows])
            if not need.any():
                return
            targets = np.flatnonzero(need)
            flows = [self._active[i] for i in targets.tolist()]
            broken_l = broken_arr[targets].tolist()
            for flow, broken in zip(flows, broken_l):
                self._revalidate_one(flow, broken, now, stranded_timeout)
            return

        still_disrupted = False
        for flow in list(self._active):
            broken = any(not link.up for link in flow.path)
            if self._revalidate_one(flow, broken, now, stranded_timeout):
                still_disrupted = True
        self._maybe_disrupted = still_disrupted

    def _revalidate_one(
        self, flow: Flow, broken: bool, now: float, stranded_timeout: Optional[float]
    ) -> bool:
        """Re-evaluate one flow; returns True while it stays disrupted."""
        if not broken:
            if flow.disrupted_s is not None:
                # the original path healed in place (link recovery)
                if self.injector is not None:
                    self.injector.on_flow_restored(flow, now)
                flow.disrupted_s = None
            return False
        if flow.disrupted_s is None:
            flow.disrupted_s = now
            if self.injector is not None:
                self.injector.on_flow_disrupted(flow, now)
        if self._reroute_flow(flow, now):
            if self.injector is not None:
                self.injector.on_flow_rerouted(flow, now)
            flow.disrupted_s = None
            return False
        if (
            stranded_timeout is not None
            and now - flow.disrupted_s >= stranded_timeout
        ):
            self._fail_flow(flow, now)
            return False
        return True

    # ------------------------------------------------------------------ #
    # event handlers
    # ------------------------------------------------------------------ #
    def _schedule_arrival(self, demand: FlowDemand) -> None:
        if self._table is not None:
            if demand.arrival_s < self.engine.now:
                raise SimulationError(
                    f"cannot schedule event at {demand.arrival_s} "
                    f"(now is {self.engine.now})"
                )
            heapq.heappush(
                self._arrival_heap,
                (demand.arrival_s, demand.flow_id, self._run_started, demand),
            )
            self._ensure_batch_event()
            return
        event = self.engine.schedule(demand.arrival_s, self._make_arrival(demand))
        self._arrival_events[demand.flow_id] = (event, demand)

    def _make_cc(self, demand: FlowDemand, line_rate_bps: float, base_rtt_s: float):
        """Build the demand's congestion controller.

        Per-flow factories (``factory.per_flow``, e.g. a
        :class:`~repro.congestion_control.mix.MixedCCFactory`) receive the
        demand's flow id so mixed-CC assignment is deterministic across
        cores and arrival batching; plain factories keep the two-argument
        calling convention.
        """
        if self._cc_per_flow:
            return self.cc_factory(line_rate_bps, base_rtt_s, flow_id=demand.flow_id)
        return self.cc_factory(line_rate_bps, base_rtt_s)

    def _make_arrival(self, demand: FlowDemand) -> Callable[[], None]:
        def arrive() -> None:
            self._arrival_events.pop(demand.flow_id, None)
            self._pending_arrivals -= 1
            self._ctr_seq_routing.inc()
            now = self.engine.now
            path = self.network.resolve_path(demand, now)
            base_rtt = 2.0 * sum(link.delay_s for link in path)
            line_rate = path[0].cap_bps
            cc = self._make_cc(demand, line_rate, base_rtt)
            flow = Flow(demand, path, cc, base_rtt)
            flow.route_id = self.collector.route_index_for(demand.src_dc, flow.path)
            self._append_active(flow)

        return arrive

    # ------------------------------------------------------------------ #
    # batched arrivals (array-resident control plane)
    # ------------------------------------------------------------------ #
    def _ensure_batch_event(self) -> None:
        """Keep exactly one batch event scheduled at the earliest arrival."""
        heap = self._arrival_heap
        while heap and heap[0][1] in self._cancelled_ids:
            self._cancelled_ids.discard(heap[0][1])
            heapq.heappop(heap)
        if not heap:
            return
        head_time = heap[0][0]
        event = self._batch_event
        if event is not None and not event.cancelled and event.time <= head_time:
            return
        if event is not None:
            event.cancel()
        self._batch_event = self.engine.schedule(head_time, self._arrival_batch)

    def _arrival_batch(self) -> None:
        """Admit every arrival due before the next possible state change.

        Fires at the earliest pending arrival time.  Nothing observable can
        happen between engine events, so every demand whose arrival lies
        strictly before the next pending event is admitted now — each flow
        still routed with its own arrival timestamp — which is exactly
        equivalent to one heap event per flow.  Ties: a pre-run demand
        stamped at the next event's exact time is admitted too (the
        per-event path scheduled those arrivals before the periodic ticks,
        so the arrival fired first), *unless* that instant belongs to a
        not-yet-fired scenario event, which the per-event path ordered
        before arrivals.  Demands injected *mid-run* (``strict``) never
        tie-break early — their per-event ordering against an exactly-tied
        periodic tick depends on when that tick last rescheduled, so the
        batch conservatively defers them past every event pending at that
        instant.
        """
        self._batch_event = None
        with self._sp_arrivals:
            now = self.engine.now
            horizon = self.engine.next_event_time()
            heap = self._arrival_heap
            guard = self._tie_guard
            batch: List[FlowDemand] = []
            while heap:
                t, flow_id, strict, demand = heap[0]
                if flow_id in self._cancelled_ids:
                    heapq.heappop(heap)
                    self._cancelled_ids.discard(flow_id)
                    continue
                if t > now and horizon is not None:
                    if t > horizon:
                        break
                    if t == horizon and (strict or t in guard):
                        break
                heapq.heappop(heap)
                batch.append(demand)
            if batch:
                self._admit_arrivals(batch)
            self._ensure_batch_event()

    def _admit_arrivals(self, batch: List[FlowDemand]) -> None:
        """Route and activate one drained arrival batch (arrival order)."""
        self._ctr_batches.inc()
        self._ctr_admitted.inc(len(batch))
        self._hist_batch_size.observe(len(batch))
        times = np.fromiter(
            (d.arrival_s for d in batch), dtype=np.float64, count=len(batch)
        )
        with self._sp_arrival_route:
            paths = self.network.resolve_paths_batch(batch, times)
        table = self._table
        collector = self.collector
        for demand, path in zip(batch, paths):
            self._pending_arrivals -= 1
            base_rtt = 2.0 * sum(link.delay_s for link in path)
            cc = self._make_cc(demand, path[0].cap_bps, base_rtt)
            flow = Flow(demand, path, cc, base_rtt)
            flow.route_id = collector.route_index_for(demand.src_dc, flow.path)
            row = table.acquire(flow)
            self._incidence.set_path(row, flow.path)
            table.path_id[row] = flow.route_id
            self._append_active(flow)

    # ------------------------------------------------------------------ #
    # active-set bookkeeping (O(1) append / swap-remove)
    # ------------------------------------------------------------------ #
    def _append_active(self, flow: Flow) -> None:
        flow._active_pos = len(self._active)
        self._active.append(flow)
        if self._table is not None:
            n = self._n_active
            arr = self._rows_arr
            if n == len(arr):
                grown = np.empty(2 * len(arr), dtype=np.intp)
                grown[:n] = arr
                self._rows_arr = arr = grown
            arr[n] = flow._slot
            self._n_active = n + 1

    def _remove_active(self, flow: Flow) -> None:
        """O(1) swap-remove from the active list (and the row array)."""
        pos = flow._active_pos
        active = self._active
        last = active[-1]
        active[pos] = last
        last._active_pos = pos
        active.pop()
        flow._active_pos = -1
        if self._table is not None:
            n = self._n_active - 1
            self._rows_arr[pos] = self._rows_arr[n]
            self._n_active = n

    def _active_rows(self) -> np.ndarray:
        """FlowTable rows of the active flows, in active-list order."""
        return self._rows_arr[: self._n_active]

    def _monitor_step(self) -> None:
        with self._sp_monitor:
            self.monitor.sample(self.engine.now)

    def _gc_step(self) -> None:
        with self._sp_gc:
            self.network.tick_all(self.engine.now)

    def add_step_observer(
        self, observer: Callable[["FluidSimulation", float], None]
    ) -> None:
        """Register a read-only callback run after every update step.

        Observers receive ``(sim, now)`` once the step's rate/queue update
        has fully completed, with link liveness and per-flow state settled
        for the instant — the hook invariant checkers (e.g. the dead-link
        monitor of :mod:`repro.scenarios.invariants`) attach to.  Observers
        must not mutate simulation state; with none registered the hook is
        a single empty-list check, so normal runs are unaffected.
        """
        self._step_observers.append(observer)

    def _update_step(self) -> None:
        with self._sp_update:
            if self._incidence is None:
                self._update_step_scalar()
            else:
                self._update_step_vectorized()
        if self._step_observers:
            now = self.engine.now
            for observer in self._step_observers:
                observer(self, now)

    def _maybe_stop(self) -> None:
        if not self._active and self._pending_arrivals == 0 and not self._stopped:
            self._stopped = True
            self.engine.stop()

    def _finish_flows(self, finished: List[Flow]) -> None:
        for flow in finished:
            self._remove_active(flow)
            if self._table is not None:
                self._incidence.remove_row(flow._slot)
                # release unbinds the flow/controller views (final column
                # values are copied back), so the metrics appended below
                # and any later reader see the flow's true final state
                self._table.release(flow)
            self.collector.collect(flow)

    def _deliver_feedback_line(self, now: float) -> None:
        """Deliver every due lane of the feedback delay line (vectorized).

        Lanes are scanned generation by generation (enqueue order) and
        addressed by FlowTable row: liveness, the slot-reuse epoch guard
        and the repeated-delivery tick check are all column reductions,
        and every fleet — uniform or mixed — is delivered through the
        classes' in-place ``feedback_batch_slots`` kernels, grouped per
        class via the table's class-id column.  A flow normally receives
        at most one signal per step — one is enqueued per step with a
        fixed RTT offset — and the rare exception (an RTT-shortening
        re-route makes several due at once) falls back to sequential
        per-flow delivery sorted by deliver time, which is exactly the
        scalar path's order.
        """
        tick = self._update_tick
        line = self._feedback_line
        table = self._table
        bk = self._backend
        batches: List[Tuple[_FeedbackGeneration, np.ndarray, np.ndarray]] = []
        repeated = False
        for gen in line:
            if gen.next_due_s > now:
                continue
            due = gen.undelivered & (gen.deliver_s <= now)
            lanes = np.flatnonzero(due)
            if lanes.size:
                gen.undelivered[lanes] = False
                rows = bk.gather_rows(gen.rows, lanes)
                valid = bk.gather_rows(table.feedback_live, rows) & (
                    bk.gather_rows(table.epoch, rows) == gen.epochs[lanes]
                )
                if not valid.all():
                    rows = rows[valid]
                    lanes = lanes[valid]
                if rows.size:
                    if (table.feedback_tick[rows] == tick).any():
                        repeated = True
                    table.feedback_tick[rows] = tick
                    batches.append((gen, rows, lanes))
            remaining_lanes = gen.undelivered
            if remaining_lanes.any():
                gen.next_due_s = float(gen.deliver_s[remaining_lanes].min())
            else:
                gen.next_due_s = float("inf")
        while line and not line[0].undelivered.any():
            line.popleft()

        if not batches:
            return
        if repeated:
            self._deliver_repeated(batches, now)
            return
        counts = table.class_counts
        single_cls = next(iter(counts)) if len(counts) == 1 else None
        for gen, rows, lanes in batches:
            if single_cls is not None:
                self._ctr_cc_kernels.inc()
                single_cls.feedback_batch_slots(
                    table,
                    rows,
                    gen.generated_s,
                    gen.ecn[lanes],
                    gen.util[lanes],
                    gen.rtt[lanes],
                    gen.qd[lanes],
                    now,
                )
                continue
            # mixed fleet: split the batch per CC class (one boolean mask
            # per class present — controllers are per-flow and independent,
            # so grouped delivery matches the scalar per-flow order bit for
            # bit) and stay on the in-place column kernels
            cids = table.cc_class_id[rows]
            for cid in np.unique(cids).tolist():
                sel = np.flatnonzero(cids == cid)
                self._ctr_cc_kernels.inc()
                table.cc_class_at(cid).feedback_batch_slots(
                    table,
                    rows[sel],
                    gen.generated_s,
                    gen.ecn[lanes[sel]],
                    gen.util[lanes[sel]],
                    gen.rtt[lanes[sel]],
                    gen.qd[lanes[sel]],
                    now,
                )

    def _deliver_repeated(self, batches, now: float) -> None:
        """Slow path: some flow has several signals due in one step."""
        self._ctr_repeated.inc()
        by_flow: Dict[int, list] = {}
        for gen, rows, lanes in batches:
            idxs = lanes.tolist()
            flows = [self._table.flow_at(r) for r in rows.tolist()]
            deliver_l = gen.deliver_s[idxs].tolist()
            ecn_l = gen.ecn[idxs].tolist()
            util_l = gen.util[idxs].tolist()
            rtt_l = gen.rtt[idxs].tolist()
            qd_l = gen.qd[idxs].tolist()
            for k, flow in enumerate(flows):
                by_flow.setdefault(id(flow), []).append(
                    (
                        deliver_l[k],
                        flow,
                        FeedbackSignal(
                            gen.generated_s, ecn_l[k], util_l[k], rtt_l[k], qd_l[k]
                        ),
                    )
                )
        for items in by_flow.values():
            items.sort(key=lambda item: item[0])
            for _, flow, signal in items:
                flow.cc.on_feedback(signal, now)

    def _accumulate_path_signals(self, inc, not_marked_links, delay_links):
        """Per-flow path products/sums in exact scalar accumulation order.

        Dispatches to the run's array backend's ``path_signals`` kernel
        (see :mod:`repro.backend`): every backend walks the paths position
        by position, so each flow's ECN survival product and
        queueing-delay sum associate strictly left to right — exactly like
        the scalar loop in :meth:`_feedback_for`.
        ``np.multiply.reduceat`` / ``np.add.reduceat`` are *not* usable
        here: their intra-segment association is unspecified (numpy may
        block the reduction), which lands one ulp away from the scalar
        result on some queue patterns and breaks the bit-identity contract.
        The numpy backend collapses the masked per-hop gathers into
        contiguous column strides when every path has the same hop count
        — the common testbed geometry — preserving the association order.

        Args:
            inc: the flow×link incidence structure (CSR layout).
            not_marked_links: per-link ECN survival probability (1 - mark).
            delay_links: per-link queueing delay in seconds.

        Returns:
            ``(not_marked, queue_delay)`` per-flow arrays.
        """
        return self._backend.path_signals(
            inc.idx, inc.starts, inc.lengths, not_marked_links, delay_links
        )

    def _update_step_scalar(self) -> None:
        """The original pure-Python update step (the executable spec)."""
        now = self.engine.now
        dt = self.config.update_interval_s
        if not self._active:
            self._maybe_stop()
            return

        # 0. lazy fast-failover sweep (see revalidate_flows)
        self.revalidate_flows(now)

        # 1. offered load per link
        offered: Dict[RuntimeLink, float] = {}
        for flow in self._active:
            rate = flow.sending_rate_bps
            for link in flow.path:
                offered[link] = offered.get(link, 0.0) + rate

        # 2. queue integration + per-link scaling factor
        scale: Dict[RuntimeLink, float] = {}
        for link, load in offered.items():
            link.integrate(load, dt)
            if load > 0 and link.up:
                scale[link] = min(1.0, link.cap_bps / load)
            elif not link.up:
                scale[link] = 0.0
            else:
                scale[link] = 1.0

        # 3.-6. per-flow progress, feedback and completion
        finished: List[Flow] = []
        for flow in self._active:
            factor = min(scale[link] for link in flow.path)
            achieved = flow.sending_rate_bps * factor
            before = flow.remaining_bytes
            sent = flow.transfer(achieved, dt)

            signal = self._feedback_for(flow, offered, now)
            flow.enqueue_feedback(signal, now + flow.base_rtt_s)
            flow.deliver_due_feedback(now)
            flow.cc.on_interval(dt, now)

            if flow.completed:
                # locate the completion instant inside the step
                would_send = achieved * dt / 8.0
                fraction = before / would_send if would_send > 0 else 1.0
                fraction = min(1.0, max(0.0, fraction))
                flow.mark_finished(now + fraction * dt)
                finished.append(flow)

        self._finish_flows(finished)
        self._maybe_stop()

    def _update_step_vectorized(self) -> None:
        """The vectorized core: every per-step operation is array math.

        Mirrors :meth:`_update_step_scalar` operation for operation — the
        accumulation / reduction orders match the scalar loops, so queue
        state, feedback signals and FCTs come out bit-identical (guarded
        by ``tests/simulator/test_vectorized_equivalence.py``).  Per-flow
        state is read and written directly in
        :class:`~repro.simulator.flow_table.FlowTable` columns — the step
        performs no per-flow Python work at all outside the rare
        completion / repeated-feedback paths.
        """
        now = self.engine.now
        dt = self.config.update_interval_s
        self._update_tick += 1
        if not self._active:
            self._maybe_stop()
            return

        # 0. lazy fast-failover sweep (may reroute / fail flows)
        with self._sp_revalidate:
            self.revalidate_flows(now)
        active = self._active
        if not active:
            self._maybe_stop()
            return

        with self._sp_load_queue:
            bk = self._backend
            inc = self._incidence
            table = self._table
            rows = self._active_rows()
            inc.refresh(rows)
            idx, starts = inc.idx, inc.starts
            cap, up = inc.cap_bps, inc.up

            # 1. offered load per link: flow-major scatter-add, which keeps
            # the per-link accumulation order identical to the scalar dict
            # loop
            rates = bk.gather_rows(table.cc_rate_bps, rows)
            offered = bk.scatter_add(
                inc.num_links, idx, bk.expand_segments(rates, inc.lengths)
            )

            # 2. queue integration (active slots only — the scalar path
            # only integrates links that appear on some active flow's path)
            # and the per-link scaling factor
            act = inc.active_slots
            queue, peak, carried, dropped, _ = RuntimeLink.integrate_batch(
                offered[act],
                dt,
                cap[act],
                up[act],
                inc.buffer_bytes[act],
                inc.queue_bytes[act],
                inc.peak_queue_bytes[act],
                inc.carried_bytes[act],
                inc.dropped_bytes[act],
            )
            inc.queue_bytes[act] = queue
            inc.peak_queue_bytes[act] = peak
            inc.carried_bytes[act] = carried
            inc.dropped_bytes[act] = dropped
            inc.offered_bps[act] = offered[act]

            loaded = offered > 0
            ratio = bk.masked_divide(cap, offered, loaded)
            scale = bk.masked_where(
                ~up, 0.0, bk.masked_where(loaded, np.minimum(1.0, ratio), 1.0)
            )

        with self._sp_signals:
            # 3. per-flow achieved rate: min scale across the path
            factor = bk.segment_reduce(
                bk.gather_rows(scale, idx), starts, inc.lengths, "min"
            )
            achieved = rates * factor
            want = achieved * dt / 8.0
            before = bk.gather_rows(table.remaining_bytes, rows)
            remaining = before - np.minimum(want, before)

            # 4. congestion feedback from the same arrays
            # (post-integration queues, step-1 offered loads), exactly as
            # _feedback_for computes per link
            q = inc.queue_bytes
            span = inc.ecn_kmax - inc.ecn_kmin
            mark = bk.masked_divide(
                inc.ecn_pmax * (q - inc.ecn_kmin), span, span > 0
            )
            mark = bk.masked_where(
                q <= inc.ecn_kmin, 0.0, bk.masked_where(q >= inc.ecn_kmax, 1.0, mark)
            )

            util = bk.masked_divide(offered, cap, cap > 0)
            max_util = bk.segment_reduce(
                bk.gather_rows(util, idx), starts, inc.lengths, "max"
            )

            not_marked, queue_delay = self._accumulate_path_signals(
                inc, 1.0 - mark, q * 8.0 / cap
            )
            ecn_fraction = 1.0 - not_marked
            base_rtt = bk.gather_rows(table.base_rtt_s, rows)
            rtt = base_rtt + queue_delay

        with self._sp_feedback:
            # 5. this step's feedback goes into the array delay line (lanes
            # addressed by table row + epoch), per-flow progress is
            # scattered straight into the table columns, then everything
            # due anywhere in the line is delivered; controllers are
            # per-flow and mutually independent, so delivering all due
            # feedback and then advancing all controllers preserves the
            # scalar loop's per-flow (enqueue -> deliver -> interval) order
            self._feedback_line.append(
                _FeedbackGeneration(
                    now,
                    now + base_rtt,
                    ecn_fraction,
                    max_util,
                    rtt,
                    queue_delay,
                    rows=rows.copy(),
                    epochs=table.epoch[rows],
                )
            )
            bk.scatter_rows(table.achieved_bps, rows, achieved)
            bk.scatter_rows(table.remaining_bytes, rows, remaining)
            self._deliver_feedback_line(now)

        with self._sp_cc:
            counts = table.class_counts
            if len(counts) == 1:
                (cc_cls,) = counts
                self._ctr_cc_kernels.inc()
                cc_cls.advance_batch_slots(table, rows, dt, now)
            else:
                # mixed fleet: each class advances its cached row registry
                # in place — controllers are per-flow and independent, so
                # grouped advancement matches the scalar per-flow order
                for cc_cls, cls_rows in table.rows_by_class():
                    self._ctr_cc_kernels.inc()
                    cc_cls.advance_batch_slots(table, cls_rows, dt, now)

        with self._sp_completions:
            # 6. completions (mark_finished touches no controller state, so
            # running it after the CC advance matches the scalar outcome)
            finished: List[Flow] = []
            completed_idx = np.flatnonzero(remaining <= 0.0)
            if completed_idx.size:
                want_l = want[completed_idx].tolist()
                before_l = before[completed_idx].tolist()
                for k, i in enumerate(completed_idx.tolist()):
                    flow = active[i]
                    would_send = want_l[k]
                    fraction = before_l[k] / would_send if would_send > 0 else 1.0
                    fraction = min(1.0, max(0.0, fraction))
                    flow.mark_finished(now + fraction * dt)
                    finished.append(flow)

            self._finish_flows(finished)
            # the queue monitor, link traces and scenario events read
            # inter-DC link objects between steps
            inc.sync_inter_dc()
            self._maybe_stop()

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    def _reroute_flow(self, flow: Flow, now: float) -> bool:
        """Re-resolve the path of a flow that lost a link (fast-failover).

        Returns:
            True when the flow was moved onto a fully healthy path.
        """
        try:
            new_path = self.network.resolve_path(flow.demand, now)
        except Exception:
            # no alternative route at all: leave the flow pinned; it will
            # resume if the link recovers
            return False
        if any(not link.up for link in new_path):
            return False
        self._ctr_reroutes.inc()
        flow.path = tuple(new_path)
        flow.base_rtt_s = 2.0 * sum(link.delay_s for link in new_path)
        flow.route_id = self.collector.route_index_for(flow.demand.src_dc, flow.path)
        if self._incidence is not None:
            self._incidence.update_flow_path(flow)
            self._table.path_id[flow._slot] = flow.route_id
        return True

    def _fail_flow(self, flow: Flow, now: float) -> None:
        """Explicitly fail a flow stranded on a dead path past the timeout."""
        self._remove_active(flow)
        if self._table is not None:
            self._incidence.remove_row(flow._slot)
            self._table.release(flow)
        self._failed.append(
            FlowFailure(
                flow_id=flow.flow_id,
                src_dc=flow.demand.src_dc,
                dst_dc=flow.demand.dst_dc,
                size_bytes=flow.size_bytes,
                arrival_s=flow.demand.arrival_s,
                disrupted_s=flow.disrupted_s if flow.disrupted_s is not None else now,
                failed_s=now,
                remaining_bytes=flow.remaining_bytes,
            )
        )
        if self.injector is not None:
            self.injector.on_flow_failed(flow, now)

    def _feedback_for(
        self, flow: Flow, offered: Dict[RuntimeLink, float], now: float
    ) -> FeedbackSignal:
        not_marked = 1.0
        max_util = 0.0
        queue_delay = 0.0
        for link in flow.path:
            not_marked *= 1.0 - link.ecn_mark_probability()
            load = offered.get(link, 0.0)
            if link.cap_bps > 0:
                max_util = max(max_util, load / link.cap_bps)
            queue_delay += link.queueing_delay_s()
        return FeedbackSignal(
            generated_s=now,
            ecn_fraction=1.0 - not_marked,
            max_utilization=max_util,
            rtt_s=flow.base_rtt_s + queue_delay,
            queue_delay_s=queue_delay,
        )

    def _build_result(self) -> SimulationResult:
        if self._incidence is not None:
            # flush every array-held link state (incl. host NIC links) back
            # to the RuntimeLink objects before reading stats off them
            self._incidence.sync_all()
        duration = self.engine.now
        stats = []
        for link in self.network.inter_dc_links:
            stats.append(
                LinkStats(
                    key=link.key,
                    cap_bps=link.cap_bps,
                    carried_bytes=link.carried_bytes,
                    dropped_bytes=link.dropped_bytes,
                    peak_queue_bytes=link.peak_queue_bytes,
                    utilization=link.utilization(duration),
                )
            )
        decisions = sum(
            switch.decision_count for switch in self.network.switches.values()
        )
        if self.obs.enabled:
            self._harvest_metrics(decisions)
        return SimulationResult(
            store=self.collector.store,
            link_stats=stats,
            duration_s=duration,
            unfinished_flows=len(self._active),
            routing_decisions=decisions,
            monitor_samples=self.monitor.samples_taken,
            trace=self._trace,
            failed_flows=list(self._failed),
            scenario_metrics=self.injector.metrics if self.injector else None,
            stats=self.obs.snapshot(),
        )

    def _harvest_metrics(self, decisions: int) -> None:
        """Pull component-held plain-int counters into the obs registry.

        Hot components (engine queue, incidence, switches, routers, flow
        caches) maintain cheap always-on integer counters; rather than
        routing every increment through the registry, the run harvests
        their final values here, once, at result-build time.
        """
        obs = self.obs
        engine = self.engine
        obs.counter("engine.events_scheduled").inc(engine.events_scheduled)
        obs.counter("engine.events_fired").inc(engine.events_fired)
        obs.counter("engine.events_cancelled").inc(engine.events_cancelled)
        obs.gauge("engine.peak_pending_events").set(engine.peak_pending_events)
        inc = self._incidence
        if inc is not None:
            obs.counter("incidence.registry_rebuilds").inc(inc.registry_rebuilds)
            obs.counter("incidence.membership_rebuilds").inc(inc.membership_rebuilds)
            obs.counter("incidence.dynamic_regathers").inc(inc.dynamic_regathers)
        if self.telemetry is not None:
            obs.counter("telemetry.sweeps").inc(self.telemetry.sweeps)
        obs.counter("monitor.samples").inc(self.monitor.samples_taken)
        obs.counter("routing.decisions").inc(decisions)
        batch_calls = fallbacks = sequential = 0
        hits = misses = evictions = gc_evictions = 0
        for switch in self.network.switches.values():
            batch_calls += switch.batch_calls
            log = switch.decision_log
            fallbacks += int(log.fallback[: len(log)].sum())
            router = switch.router
            sequential += getattr(router, "sequential_batch_decisions", 0)
            cache = getattr(router, "flow_cache", None)
            if cache is not None:
                hits += cache.hits
                misses += cache.misses
                evictions += cache.evictions
                gc_evictions += cache.gc_evictions
        obs.counter("routing.batch_calls").inc(batch_calls)
        obs.counter("routing.fallback_decisions").inc(fallbacks)
        obs.counter("slow_path.sequential_batch_decisions").inc(sequential)
        obs.counter("flow_cache.hits").inc(hits)
        obs.counter("flow_cache.misses").inc(misses)
        obs.counter("flow_cache.evictions").inc(evictions)
        obs.counter("flow_cache.gc_evictions").inc(gc_evictions)
        pathset = getattr(self.network, "pathset", None)
        if pathset is not None and hasattr(pathset, "memory_bytes"):
            obs.gauge("topology.pathset_bytes").set(float(pathset.memory_bytes()))
            obs.gauge("topology.pathset_paths").set(float(pathset.num_paths))
            obs.counter("topology.pathset_searches").inc(pathset.searches_run)
            obs.counter("topology.pathset_evictions").inc(pathset.cache_evictions)
        if self.injector is not None:
            applied = sum(
                1
                for outcome in self.injector.metrics.outcomes
                if outcome.applied_s is not None
            )
            obs.counter("scenario.events_applied").inc(applied)
            obs.counter("scenario.events_unfired").inc(self.injector.metrics.total_unfired)
            obs.counter("scenario.flows_failed").inc(len(self._failed))
