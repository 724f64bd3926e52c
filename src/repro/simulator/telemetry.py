"""Array-resident switch telemetry — the control plane's data layer.

The paper's LCMP prototype keeps per-port congestion registers on every DCI
switch, refreshed by a lightweight monitor routine.  The scalar core models
that with per-tick Python objects: every monitor sweep materialises one
:class:`~repro.simulator.switch.PortSample` per port per switch and hands it
to the router.  Under the vectorized core, :class:`TelemetryPlane` keeps
per-switch × per-port *columns* instead:

* a **port registry** built once from the runtime network — every DCI
  egress port gets a stable row, ports of one switch are contiguous;
* **telemetry columns** (queue depth, cumulative carried bytes, offered
  load, capacity, liveness, per-interval utilisation, a queue-depth EWMA)
  refreshed by one :meth:`sweep` per monitor interval.  The sweep is a handful of fancy-indexed gathers from the
  flow×link incidence arrays (:mod:`repro.simulator.incidence`) — the same
  arrays the update step writes — so a sweep costs O(1) numpy calls, not
  O(ports) Python object constructions;
* **router delivery** through one batched hook per router class,
  :meth:`~repro.routing.base.Router.on_telemetry_batch`, called once per
  sweep with every consuming switch of that class.  Its default hands each
  router a :class:`TelemetryView` (a per-switch window over the columns)
  through :meth:`~repro.routing.base.Router.on_telemetry`, which is how
  RedTE is fed; routers written against the legacy per-sample hook get
  lazily built :class:`PortSample` shims through the base implementation.
  LCMP overrides the hook: its congestion and liveness registers live in
  columns aligned with this plane's port rows (kept in
  :attr:`TelemetryPlane.router_state`), and one vectorized update covers
  every LCMP port, so no per-switch call happens at all.  Routers that
  ignore telemetry (ECMP, WCMP, UCMP) are detected once and skipped
  entirely.

Bit-equivalence contract: the columns are gathered from link state that the
vectorized core syncs back to the :class:`~repro.simulator.link.RuntimeLink`
objects at the end of every update step, and the monitor fires *before* the
update when both land on the same instant — so a sweep at time t observes
exactly the values the scalar core's object sampler reads, and router
state/traces stay bit-identical across both cores (guarded by
``tests/simulator/test_telemetry.py`` and the equivalence suite).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..backend import get_backend
from .link import RuntimeLink
from .switch import PortSample, build_port_sample

__all__ = ["TelemetryPlane", "TelemetryView"]


class TelemetryView:
    """A read-only per-switch window over the telemetry plane's columns.

    Exposes the column slices of one switch's egress ports in port-registry
    order (``port_dcs[i]`` names the neighbouring DC of row ``i``).
    """

    __slots__ = ("_plane", "switch", "_start", "_stop")

    def __init__(self, plane: "TelemetryPlane", switch: str, start: int, stop: int) -> None:
        self._plane = plane
        self.switch = switch
        self._start = start
        self._stop = stop

    def __len__(self) -> int:
        return self._stop - self._start

    @property
    def plane(self) -> "TelemetryPlane":
        """The telemetry plane this view reads."""
        return self._plane

    @property
    def rows(self) -> slice:
        """This switch's rows in the plane's columns."""
        return slice(self._start, self._stop)

    @property
    def port_dcs(self) -> List[str]:
        """Neighbouring DC per port row."""
        return self._plane.port_dcs[self._start : self._stop]

    def _col(self, name: str) -> np.ndarray:
        return getattr(self._plane, name)[self._start : self._stop]

    @property
    def queue_bytes(self) -> np.ndarray:
        """Instantaneous egress-queue occupancy per port."""
        return self._col("queue_bytes")

    @property
    def carried_bytes(self) -> np.ndarray:
        """Cumulative carried bytes per port."""
        return self._col("carried_bytes")

    @property
    def offered_bps(self) -> np.ndarray:
        """Offered load during the most recent update step per port."""
        return self._col("offered_bps")

    @property
    def cap_bps(self) -> np.ndarray:
        """Effective capacity per port."""
        return self._col("cap_bps")

    @property
    def up(self) -> np.ndarray:
        """Port liveness."""
        return self._col("up")

    @property
    def utilization(self) -> np.ndarray:
        """Carried-bits / capacity over the last monitor interval."""
        return self._col("utilization")

    @property
    def queue_ewma(self) -> np.ndarray:
        """Exponentially weighted moving average of the queue depth."""
        return self._col("queue_ewma")

    @property
    def buffer_bytes(self) -> np.ndarray:
        """Egress buffer size per port (static)."""
        return self._col("buffer_bytes")

    def build_samples(self, now: float) -> List[PortSample]:
        """Lazily build the compatibility :class:`PortSample` objects.

        Constructed from the synced :class:`RuntimeLink` objects through the
        same helper the object-path sampler uses, so the shim samples are
        field-for-field identical to :meth:`DCISwitch.sample_ports` output.
        """
        plane = self._plane
        return [
            build_port_sample(self.switch, plane.port_dcs[i], plane.links[i], now)
            for i in range(self._start, self._stop)
        ]


class TelemetryPlane:
    """Per-switch × per-port telemetry columns for one runtime network."""

    def __init__(self, network, ewma_alpha: float = 0.125, backend=None) -> None:
        """Build the port registry and allocate the columns.

        Args:
            network: the :class:`~repro.simulator.network.RuntimeNetwork`
                whose DCI switch ports are monitored.
            ewma_alpha: weight of the newest sample in the queue-depth EWMA
                column (``ewma = alpha * q + (1 - alpha) * ewma``).
            backend: the :class:`~repro.backend.ArrayBackend` the sweep
                gathers run on; defaults to the numpy reference backend.
        """
        if not 0 < ewma_alpha <= 1:
            raise ValueError("ewma_alpha must be in (0, 1]")
        self._network = network
        self.ewma_alpha = float(ewma_alpha)
        self.backend = backend if backend is not None else get_backend("numpy")

        #: links in port-registry order (rows of every column)
        self.links: List[RuntimeLink] = []
        #: neighbouring DC per row
        self.port_dcs: List[str] = []
        #: sampling switch per row
        self.port_switches: List[str] = []
        self._switch_slices: Dict[str, Tuple[int, int]] = {}
        for dc, switch in network.switches.items():
            start = len(self.links)
            for next_dc, link in switch.ports.items():
                self.links.append(link)
                self.port_dcs.append(next_dc)
                self.port_switches.append(dc)
            self._switch_slices[dc] = (start, len(self.links))

        n = len(self.links)
        self.queue_bytes = np.zeros(n)
        self.carried_bytes = np.zeros(n)
        self.offered_bps = np.zeros(n)
        self.cap_bps = np.zeros(n)
        self.up = np.ones(n, dtype=bool)
        self.utilization = np.zeros(n)
        self.queue_ewma = np.zeros(n)
        self.buffer_bytes = np.array([float(link.buffer_bytes) for link in self.links])
        self._prev_carried = np.zeros(n)
        self.last_sweep_s: Optional[float] = None
        self.sweeps = 0
        self._freeze()

        #: routers that actually consume telemetry, resolved once
        self._consumers: List[Tuple[str, object]] = [
            (dc, switch.router)
            for dc, switch in network.switches.items()
            if switch.router.consumes_telemetry()
        ]
        #: the consumers grouped by router class, in first-seen order: each
        #: group is one ``on_telemetry_batch`` call per sweep
        feeds: Dict[type, List[Tuple[str, object]]] = {}
        for dc, router in self._consumers:
            feeds.setdefault(type(router), []).append((dc, router))
        self._feeds = list(feeds.items())
        #: state a router class's batched hook keeps across sweeps (LCMP's
        #: register columns aligned with the port rows)
        self.router_state: Dict[type, object] = {}

        # trace ordering: rows permuted into network.inter_dc_links order so
        # array-backed traces keep the exact key order of the object path
        row_of = {id(link): i for i, link in enumerate(self.links)}
        self._trace_rows = np.array(
            [row_of[id(link)] for link in network.inter_dc_links if id(link) in row_of],
            dtype=np.intp,
        )
        self._trace_keys = [
            link.key for link in network.inter_dc_links if id(link) in row_of
        ]

        # optional fast gather path from the incidence arrays
        self._incidence = None
        self._inc_slots: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    @property
    def num_ports(self) -> int:
        """Number of registered egress ports across all switches."""
        return len(self.links)

    @property
    def switches(self) -> List[str]:
        """Switch names in registry order."""
        return list(self._switch_slices)

    def view(self, switch: str) -> TelemetryView:
        """The per-switch window over the columns."""
        start, stop = self._switch_slices[switch]
        return TelemetryView(self, switch, start, stop)

    # ------------------------------------------------------------------ #
    def attach_incidence(self, incidence) -> None:
        """Source sweeps from the vectorized core's link arrays.

        Registers every monitored port in the incidence link registry (their
        mutable state then lives in the arrays for the whole run) and
        remembers the registry slots so a sweep is a fancy-indexed gather.
        """
        slots = incidence.register_links(self.links)
        self._incidence = incidence
        self._inc_slots = np.asarray(slots, dtype=np.intp)

    # ------------------------------------------------------------------ #
    def sweep(self, now: float) -> None:
        """Refresh every column from current link state.

        Under the vectorized core this reads the incidence arrays (the
        authoritative home of link state between update steps); without an
        attached incidence it gathers from the link objects — both observe
        the identical post-step values.
        """
        n = len(self.links)
        inc = self._incidence
        if inc is not None:
            inc.ensure_fresh_links()
            slots = self._inc_slots
            bk = self.backend
            self.queue_bytes = bk.gather_rows(inc.queue_bytes, slots)
            self.carried_bytes = bk.gather_rows(inc.carried_bytes, slots)
            self.offered_bps = bk.gather_rows(inc.offered_bps, slots)
            self.cap_bps = bk.gather_rows(inc.cap_bps, slots)
            self.up = bk.gather_rows(inc.up, slots)
        else:
            links = self.links
            self.queue_bytes = np.fromiter(
                (link.queue_bytes for link in links), dtype=np.float64, count=n
            )
            self.carried_bytes = np.fromiter(
                (link.carried_bytes for link in links), dtype=np.float64, count=n
            )
            self.offered_bps = np.fromiter(
                (link.offered_bps for link in links), dtype=np.float64, count=n
            )
            self.cap_bps = np.fromiter(
                (link.cap_bps for link in links), dtype=np.float64, count=n
            )
            self.up = np.fromiter((link.up for link in links), dtype=bool, count=n)

        if self.last_sweep_s is None:
            self.utilization = np.zeros(n)
            self.queue_ewma = self.queue_bytes.copy()
        else:
            dt = now - self.last_sweep_s
            if dt > 0:
                delta_bits = (self.carried_bytes - self._prev_carried) * 8.0
                denom = self.cap_bps * dt
                self.utilization = self.backend.masked_divide(
                    delta_bits, denom, denom > 0
                )
            alpha = self.ewma_alpha
            self.queue_ewma = alpha * self.queue_bytes + (1.0 - alpha) * self.queue_ewma
        self._prev_carried = self.carried_bytes
        self.last_sweep_s = now
        self.sweeps += 1
        self._freeze()

    def _freeze(self) -> None:
        """Mark every column read-only.

        Views hand out slices of the live arrays; freezing makes an
        accidental in-place write by a router raise instead of silently
        corrupting the EWMA/trace state every other consumer reads.  Each
        sweep builds fresh (writable) arrays, so freezing costs nothing.
        """
        for name in (
            "queue_bytes",
            "carried_bytes",
            "offered_bps",
            "cap_bps",
            "up",
            "utilization",
            "queue_ewma",
            "buffer_bytes",
        ):
            getattr(self, name).flags.writeable = False

    def feed_routers(self, now: float) -> None:
        """Deliver the sweep to every telemetry-consuming router: one
        :meth:`~repro.routing.base.Router.on_telemetry_batch` call per
        router class."""
        for cls, consumers in self._feeds:
            cls.on_telemetry_batch(self, consumers, now)

    def observe_trace(self, trace, now: float) -> None:
        """Append this sweep's inter-DC rows to an array-backed link trace."""
        rows = self._trace_rows
        trace.observe_batch(
            self._trace_keys,
            now,
            self.queue_bytes[rows],
            self.carried_bytes[rows],
            self.offered_bps[rows],
        )
