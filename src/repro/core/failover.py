"""Data-plane fast-failover (paper §3.4, "Fault tolerance").

LCMP handles link/port failures entirely in the data plane: the switch
tracks port liveness in real time, and when a packet matches a flow-cache
entry that points at a failed port the entry is invalidated *lazily* — the
packet is treated as the first packet of a new flow and re-hashed onto a
healthy candidate.  There is no control-plane batch update of thousands of
entries; invalid entries are overwritten one by one as their packets arrive,
giving microsecond-scale recovery with zero instantaneous control-plane
overhead.

The liveness bit of each port is the ``up`` column of the switch's
:class:`~repro.core.congestion.PortRegisters`, next to the congestion
registers, so a monitor sweep refreshes it with one column copy.
"""

from __future__ import annotations

from typing import Optional, Set

from .congestion import PortRegisters

__all__ = ["PortLivenessTracker"]


class PortLivenessTracker:
    """Tracks egress-port liveness and failover statistics."""

    def __init__(self, registers: Optional[PortRegisters] = None) -> None:
        #: where the liveness bits live (shared with the switch's estimator
        #: when the router passes its own)
        self.registers = registers if registers is not None else PortRegisters()
        #: number of flow-cache entries lazily invalidated because their port died
        self.lazy_invalidations = 0

    def mark_down(self, port: str) -> None:
        """Record that ``port`` failed."""
        row = self.registers.row_for(port)  # may grow the columns
        self.registers.columns.up[row] = False

    def mark_up(self, port: str) -> None:
        """Record that ``port`` recovered."""
        row = self.registers.rows.get(port)
        if row is not None:
            self.registers.columns.up[row] = True

    def is_up(self, port: str) -> bool:
        """Liveness of ``port`` (unknown ports are considered up)."""
        row = self.registers.rows.get(port)
        return row is None or self.registers.columns.up.item(row)

    def observe(self, port: str, up: bool) -> None:
        """Update liveness from a monitor sample."""
        if up:
            self.mark_up(port)
        else:
            self.mark_down(port)

    def record_lazy_invalidation(self) -> None:
        """Count one lazy flow-cache invalidation caused by a dead port."""
        self.lazy_invalidations += 1

    @property
    def down_ports(self) -> Set[str]:
        """Snapshot of the currently failed ports."""
        up = self.registers.columns.up
        return {port for port, row in self.registers.rows.items() if not up.item(row)}
