"""Queue monitoring and time-series tracing.

The paper's LCMP prototype runs a lightweight monitor routine on each DCI
switch that samples per-port queue depth at a modest cadence and feeds the
on-switch congestion estimator.  :class:`QueueMonitor` reproduces that.  It
drives one of two equivalent paths per sweep:

* the **array path** (the vectorized core's control plane): one
  :meth:`~repro.simulator.telemetry.TelemetryPlane.sweep` gathers every
  port's state into columns, telemetry-consuming routers receive a columnar
  view, and oblivious routers cost nothing;
* the **object path** (the scalar reference core, and standalone use): each
  switch builds one :class:`~repro.simulator.switch.PortSample` per port
  and feeds its router, exactly as before.

Both observe identical values: the vectorized core syncs link state back to
the :class:`~repro.simulator.link.RuntimeLink` objects at the end of each
update step, and the monitor fires *before* the update when both land on
the same instant — a sample at time t therefore sees exactly the post-step
state of t − 1 on both cores, which is what keeps traces and router state
bit-identical across the scalar and vectorized paths.

:class:`LinkTrace` records per-link time series (queue depth, utilisation)
for the motivation figure (Fig. 1b) and debugging.  Samples live in
growable numpy columns per link — long sweep-run traces no longer hold one
dataclass per point — and the legacy :class:`LinkTraceSample` objects are
materialised freshly on access, so callers cannot mutate trace state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .link import RuntimeLink
from .network import RuntimeNetwork

__all__ = ["QueueMonitor", "LinkTrace", "LinkTraceSample"]


@dataclass(frozen=True)
class LinkTraceSample:
    """One point of a per-link time series."""

    time_s: float
    queue_bytes: float
    carried_bytes: float
    offered_bps: float


class _TraceColumns:
    """Growable parallel arrays holding one link's time series."""

    __slots__ = ("n", "time_s", "queue_bytes", "carried_bytes", "offered_bps")

    def __init__(self, capacity: int = 64) -> None:
        self.n = 0
        self.time_s = np.empty(capacity)
        self.queue_bytes = np.empty(capacity)
        self.carried_bytes = np.empty(capacity)
        self.offered_bps = np.empty(capacity)

    def append(self, time_s: float, queue: float, carried: float, offered: float) -> None:
        n = self.n
        if n == len(self.time_s):
            for name in self.__slots__[1:]:
                old = getattr(self, name)
                grown = np.empty(2 * len(old))
                grown[:n] = old
                setattr(self, name, grown)
        self.time_s[n] = time_s
        self.queue_bytes[n] = queue
        self.carried_bytes[n] = carried
        self.offered_bps[n] = offered
        self.n = n + 1


class LinkTrace:
    """Records per-link time series at the monitoring cadence (columnar)."""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str], _TraceColumns] = {}

    def _columns_for(self, key: Tuple[str, str]) -> _TraceColumns:
        cols = self._series.get(key)
        if cols is None:
            cols = self._series[key] = _TraceColumns()
        return cols

    def observe(self, link: RuntimeLink, now: float) -> None:
        """Append one sample for ``link`` at time ``now``."""
        self._columns_for(link.key).append(
            now, link.queue_bytes, link.carried_bytes, link.offered_bps
        )

    def observe_batch(
        self,
        keys: Sequence[Tuple[str, str]],
        now: float,
        queue_bytes: np.ndarray,
        carried_bytes: np.ndarray,
        offered_bps: np.ndarray,
    ) -> None:
        """Append one sweep's worth of samples (element i belongs to keys[i])."""
        queue_l = queue_bytes.tolist()
        carried_l = carried_bytes.tolist()
        offered_l = offered_bps.tolist()
        for i, key in enumerate(keys):
            self._columns_for(key).append(now, queue_l[i], carried_l[i], offered_l[i])

    # ------------------------------------------------------------------ #
    def series(self, key: Tuple[str, str]) -> List[LinkTraceSample]:
        """Time series for a directed link key, empty when never observed.

        Materialised freshly per call — the returned samples are copies,
        mutating the list cannot affect the trace.
        """
        cols = self._series.get(key)
        if cols is None:
            return []
        n = cols.n
        times = cols.time_s[:n].tolist()
        queues = cols.queue_bytes[:n].tolist()
        carried = cols.carried_bytes[:n].tolist()
        offered = cols.offered_bps[:n].tolist()
        return [
            LinkTraceSample(
                time_s=times[i],
                queue_bytes=queues[i],
                carried_bytes=carried[i],
                offered_bps=offered[i],
            )
            for i in range(n)
        ]

    def columns(
        self, key: Tuple[str, str]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The raw column arrays ``(time_s, queue, carried, offered)``.

        Returned as copies so callers cannot mutate the trace in place.
        """
        cols = self._series.get(key)
        if cols is None:
            empty = np.empty(0)
            return empty, empty.copy(), empty.copy(), empty.copy()
        n = cols.n
        return (
            cols.time_s[:n].copy(),
            cols.queue_bytes[:n].copy(),
            cols.carried_bytes[:n].copy(),
            cols.offered_bps[:n].copy(),
        )

    def keys(self) -> List[Tuple[str, str]]:
        """All link keys with recorded samples."""
        return list(self._series.keys())

    def peak_queue(self, key: Tuple[str, str]) -> float:
        """Maximum observed queue depth for a link."""
        cols = self._series.get(key)
        if cols is None or cols.n == 0:
            return 0.0
        return float(cols.queue_bytes[: cols.n].max())


class QueueMonitor:
    """Drives per-switch port sampling and optional link tracing."""

    def __init__(
        self,
        network: RuntimeNetwork,
        trace: Optional[LinkTrace] = None,
        plane=None,
    ) -> None:
        """Create the monitor.

        Args:
            network: the runtime network to sample.
            trace: optional per-link time-series recorder.
            plane: optional
                :class:`~repro.simulator.telemetry.TelemetryPlane`; when
                given, sweeps run through the array path instead of
                materialising per-port samples.
        """
        self._network = network
        self._trace = trace
        self._plane = plane
        self.samples_taken = 0

    def sample(self, now: float) -> None:
        """Sample every DCI port once; called by the periodic engine event."""
        plane = self._plane
        if plane is not None:
            plane.sweep(now)
            plane.feed_routers(now)
            self.samples_taken += 1
            if self._trace is not None:
                plane.observe_trace(self._trace, now)
            return
        self._network.sample_all_ports(now)
        self.samples_taken += 1
        if self._trace is not None:
            for link in self._network.inter_dc_links:
                self._trace.observe(link, now)

    @property
    def trace(self) -> Optional[LinkTrace]:
        """The attached trace, if any."""
        return self._trace

    @property
    def plane(self):
        """The attached telemetry plane, if any."""
        return self._plane
