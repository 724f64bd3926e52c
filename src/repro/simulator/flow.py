"""Flows and congestion feedback signals.

A :class:`FlowDemand` is what the traffic generator produces (who talks to
whom, how many bytes, when); a :class:`Flow` is the runtime object the fluid
simulation advances (path, congestion-control state, remaining bytes); a
:class:`FeedbackSignal` is the per-RTT congestion feedback delivered to the
flow's congestion-control instance after the path round-trip delay.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence, Tuple

from .link import RuntimeLink

__all__ = ["FlowDemand", "FeedbackSignal", "Flow"]


@dataclass(frozen=True)
class FlowDemand:
    """A flow the workload wants to send.

    Attributes:
        flow_id: unique integer id (also used as the ECMP/LCMP hash input).
        src_dc / dst_dc: datacenter names.
        src_host / dst_host: host indices within the datacenters.
        size_bytes: application bytes to transfer.
        arrival_s: arrival time in simulated seconds.
    """

    flow_id: int
    src_dc: str
    dst_dc: str
    src_host: int
    dst_host: int
    size_bytes: int
    arrival_s: float

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ValueError("flow size must be positive")
        if self.arrival_s < 0:
            raise ValueError("arrival time must be non-negative")
        if self.src_dc == self.dst_dc and self.src_host == self.dst_host:
            raise ValueError("flow source and destination must differ")


@dataclass(frozen=True)
class FeedbackSignal:
    """Congestion feedback observed along a flow's path during one step.

    The signal is *generated* when the congestion occurs and *delivered* to
    the sender one path round-trip later, reproducing the outdated-feedback
    property of long-haul networks.

    Attributes:
        generated_s: simulation time the signal was generated.
        ecn_fraction: fraction of the flow's traffic that would be
            ECN-marked given the per-link marking probabilities.
        max_utilization: highest link utilisation (offered / capacity) along
            the path — the HPCC-style in-band telemetry summary.
        rtt_s: base RTT plus total queueing delay along the path — the
            TIMELY-style delay sample.
        queue_delay_s: total queueing delay along the path.
    """

    generated_s: float
    ecn_fraction: float
    max_utilization: float
    rtt_s: float
    queue_delay_s: float


class Flow:
    """Runtime state of a single RDMA flow in the fluid model.

    Mutable numeric state (remaining bytes, base RTT, achieved rate, the
    disruption stamp, the route id) lives either in plain
    attributes (the scalar reference path, standalone use in tests) or in
    a row of the simulation's :class:`~repro.simulator.flow_table.FlowTable`
    when :meth:`bind_table` has been called (the vectorized core).  The
    public surface is identical in both modes — properties dispatch to the
    table row when bound — so routers, the scenario injector and tests
    never see the difference.
    """

    def __init__(self, demand: FlowDemand, path: Sequence[RuntimeLink], cc, base_rtt_s: float):
        """Create a runtime flow.

        Args:
            demand: the originating demand.
            path: ordered runtime links from source host to destination host
                (host NIC uplink, inter-DC links, destination downlink).
            cc: a congestion-control instance exposing ``rate_bps``,
                ``on_feedback(signal, now)`` and ``on_interval(dt, now)``.
            base_rtt_s: propagation-only round-trip time of the path.
        """
        self.demand = demand
        self.path: Tuple[RuntimeLink, ...] = tuple(path)
        self.cc = cc
        self.start_s: float = demand.arrival_s
        self.finish_s: Optional[float] = None
        #: owning FlowTable / row slot while bound (None / -1 otherwise)
        self._table = None
        self._slot = -1
        #: position in the owning simulation's active list (swap-remove)
        self._active_pos = -1
        #: interned id of the flow's DC-level route in the run's
        #: MetricsStore (set at arrival / re-route time; -1 = unset, the
        #: collector derives the route from the path on demand).  Bound
        #: flows keep it in the FlowTable's ``path_id`` column.
        self._route_id_attr = -1
        self._base_rtt_s = float(base_rtt_s)
        self._remaining_bytes: float = float(demand.size_bytes)
        #: achieved throughput during the most recent update step (bps)
        self._achieved_bps: float = 0.0
        #: when the flow's path lost a link (None while the path is healthy)
        self._disrupted_s: Optional[float] = None
        #: congestion feedback in flight towards the sender, normally in
        #: non-decreasing deliver-time order (append-only); a re-route that
        #: shortens the path RTT may break the order, tracked by the flag
        self._pending_feedback: Deque[Tuple[float, FeedbackSignal]] = deque()
        self._feedback_unsorted = False

    # ------------------------------------------------------------------ #
    # FlowTable binding (see repro.simulator.flow_table)
    # ------------------------------------------------------------------ #
    def bind_table(self, table, slot: int) -> None:
        """Move this flow's mutable state into ``table`` row ``slot``."""
        table.remaining_bytes[slot] = self._remaining_bytes
        table.base_rtt_s[slot] = self._base_rtt_s
        table.achieved_bps[slot] = self._achieved_bps
        table.disrupted_s[slot] = (
            self._disrupted_s if self._disrupted_s is not None else float("nan")
        )
        table.path_id[slot] = self._route_id_attr
        self._table = table
        self._slot = slot

    def unbind_table(self) -> None:
        """Copy the row's final values back and detach from the table."""
        table = self._table
        if table is None:
            return
        slot = self._slot
        self._table = None
        self._slot = -1
        self._remaining_bytes = float(table.remaining_bytes[slot])
        self._base_rtt_s = float(table.base_rtt_s[slot])
        self._achieved_bps = float(table.achieved_bps[slot])
        stamp = float(table.disrupted_s[slot])
        self._disrupted_s = None if stamp != stamp else stamp
        self._route_id_attr = int(table.path_id[slot])

    # ------------------------------------------------------------------ #
    # table-backed state
    # ------------------------------------------------------------------ #
    @property
    def remaining_bytes(self) -> float:
        """Bytes still to transfer."""
        t = self._table
        if t is None:
            return self._remaining_bytes
        return t.remaining_bytes[self._slot]

    @remaining_bytes.setter
    def remaining_bytes(self, value: float) -> None:
        t = self._table
        if t is None:
            self._remaining_bytes = value
        else:
            t.remaining_bytes[self._slot] = value

    @property
    def base_rtt_s(self) -> float:
        """Propagation-only round-trip time of the current path."""
        t = self._table
        if t is None:
            return self._base_rtt_s
        return t.base_rtt_s[self._slot]

    @base_rtt_s.setter
    def base_rtt_s(self, value: float) -> None:
        t = self._table
        if t is None:
            self._base_rtt_s = value
        else:
            t.base_rtt_s[self._slot] = value

    @property
    def achieved_bps(self) -> float:
        """Achieved throughput during the most recent update step (bps)."""
        t = self._table
        if t is None:
            return self._achieved_bps
        return t.achieved_bps[self._slot]

    @achieved_bps.setter
    def achieved_bps(self, value: float) -> None:
        t = self._table
        if t is None:
            self._achieved_bps = value
        else:
            t.achieved_bps[self._slot] = value

    @property
    def disrupted_s(self) -> Optional[float]:
        """When the flow's path lost a link (None while healthy)."""
        t = self._table
        if t is None:
            return self._disrupted_s
        stamp = t.disrupted_s[self._slot]
        return None if stamp != stamp else float(stamp)

    @disrupted_s.setter
    def disrupted_s(self, value: Optional[float]) -> None:
        t = self._table
        if t is None:
            self._disrupted_s = value
        else:
            t.disrupted_s[self._slot] = value if value is not None else float("nan")

    @property
    def route_id(self) -> int:
        """Interned id of the flow's current DC-level route (-1 = unset).

        Table-resident while bound (the FlowTable's ``path_id`` column —
        routing decisions write it at arrival / re-route time; the
        collector reads it back through the released flow at completion).
        """
        t = self._table
        if t is None:
            return self._route_id_attr
        return int(t.path_id[self._slot])

    @route_id.setter
    def route_id(self, value: int) -> None:
        t = self._table
        if t is None:
            self._route_id_attr = value
        else:
            t.path_id[self._slot] = value

    # ------------------------------------------------------------------ #
    @property
    def flow_id(self) -> int:
        """Unique flow identifier."""
        return self.demand.flow_id

    @property
    def size_bytes(self) -> int:
        """Total bytes the flow transfers."""
        return self.demand.size_bytes

    @property
    def completed(self) -> bool:
        """True once every byte has been transmitted."""
        return self.remaining_bytes <= 0

    @property
    def one_way_delay_s(self) -> float:
        """Propagation delay of the chosen path (source to destination)."""
        return sum(link.delay_s for link in self.path)

    @property
    def sending_rate_bps(self) -> float:
        """Rate the congestion controller currently allows."""
        return self.cc.rate_bps

    @property
    def inter_dc_links(self) -> Tuple[RuntimeLink, ...]:
        """The inter-DC links of the path (the ones LCMP chooses among)."""
        return tuple(link for link in self.path if link.spec.inter_dc)

    # ------------------------------------------------------------------ #
    def transfer(self, achieved_bps: float, dt: float) -> float:
        """Advance the flow by one update step at ``achieved_bps``.

        Returns:
            Bytes actually transferred during the step (bounded by the bytes
            still remaining).
        """
        self.achieved_bps = achieved_bps
        want = achieved_bps * dt / 8.0
        sent = min(want, self.remaining_bytes)
        self.remaining_bytes -= sent
        return sent

    def enqueue_feedback(self, signal: FeedbackSignal, deliver_s: float) -> None:
        """Put a congestion signal in flight; delivered at ``deliver_s``."""
        pending = self._pending_feedback
        if pending and deliver_s < pending[-1][0]:
            self._feedback_unsorted = True
        pending.append((deliver_s, signal))

    def deliver_due_feedback(self, now: float) -> int:
        """Deliver all feedback whose time has come to the CC instance.

        Signals are delivered in deliver-time order (ties in enqueue
        order).  Pending signals are almost always already sorted — one is
        enqueued per update step with a fixed RTT offset — so the common
        case pops a due prefix off the deque in O(delivered); only a
        re-route that shortened the RTT forces the full scan.

        Returns:
            Number of signals delivered.
        """
        pending = self._pending_feedback
        if not pending:
            return 0
        if self._feedback_unsorted:
            return self._deliver_unsorted(now)
        delivered = 0
        while pending and pending[0][0] <= now:
            _, signal = pending.popleft()
            self.cc.on_feedback(signal, now)
            delivered += 1
        return delivered

    def _deliver_unsorted(self, now: float) -> int:
        """Out-of-order slow path (after an RTT-shortening re-route)."""
        due = [item for item in self._pending_feedback if item[0] <= now]
        if not due:
            return 0
        rest = [item for item in self._pending_feedback if item[0] > now]
        self._pending_feedback = deque(rest)
        self._feedback_unsorted = any(
            rest[i][0] > rest[i + 1][0] for i in range(len(rest) - 1)
        )
        for _, signal in sorted(due, key=lambda item: item[0]):
            self.cc.on_feedback(signal, now)
        return len(due)

    def mark_finished(self, now: float) -> None:
        """Record completion; the last byte lands one propagation delay later."""
        if self.finish_s is None:
            self.finish_s = now + self.one_way_delay_s

    def fct_s(self) -> float:
        """Flow completion time in seconds.

        Raises:
            RuntimeError: if the flow has not finished yet.
        """
        if self.finish_s is None:
            raise RuntimeError(f"flow {self.flow_id} has not completed")
        return self.finish_s - self.start_s

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Flow(#{self.flow_id} {self.demand.src_dc}->{self.demand.dst_dc}, "
            f"{self.size_bytes}B, remaining={self.remaining_bytes:.0f}B)"
        )
