"""Realtime on-switch congestion estimator C_cong (paper §3.3, Eq. 3–5).

Each DCI egress port keeps four small registers (the paper's §4 accounting:
``queueCur``, ``queuePrev``, ``trend``, ``durCnt`` plus a timestamp).  The
monitor samples the port queue at a modest cadence and the estimator fuses
three signals:

* ``Q`` — the instantaneous queue level, quantised through the bootstrap
  queue thresholds and converted to a 0–255 score;
* ``T`` — a short-term trend from a shift-based EWMA of the queue-byte delta
  between samples (Eq. 3), normalised per link-rate bucket; negative trends
  map to zero so only *growing* queues attract cost;
* ``D`` — a duration (persistence) penalty that accumulates while the queue
  level stays above a high-water mark and decays otherwise.

The fused score is ``C_cong = min((w_ql*Q + w_tl*T + w_dp*D) >> S_cong, 255)``.

Storage.  The registers live in :class:`RegisterColumns`: one int64,
float64 or bool column per register, one row per port, next to the port's
liveness bit (:mod:`~repro.core.failover`).  A switch sees its rows through
:class:`PortRegisters` (port name -> row).  A standalone estimator owns
private columns; under the simulator's telemetry plane every LCMP switch is
bound to one plane-wide set whose rows follow the plane's port order, so a
monitor sweep updates every port of every switch with one
:func:`observe_rows` call per table group.  Each register lives in exactly
one place: the scalar :meth:`CongestionEstimator.observe` is the executable
spec of that update and writes the same rows, which is how the scalar core
and the scenario injector's out-of-sweep samples stay consistent with the
sweep.  C_cong is computed on read (:meth:`CongestionEstimator
.congestion_score`), since routing reads far fewer ports than a sweep
updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from .config import LCMPConfig
from .switch_tables import SwitchTables

__all__ = [
    "PortCongestionState",
    "RegisterColumns",
    "PortRegisters",
    "CongestionEstimator",
    "observe_rows",
]


@dataclass
class PortCongestionState:
    """A snapshot of one port's estimator registers (24 B on-switch)."""

    queue_cur: int = 0
    queue_prev: int = 0
    trend: int = 0
    dur_cnt: int = 0
    last_sample_s: float = -1.0
    #: port rate, used to choose the trend-normalisation bucket
    rate_bps: float = 0.0
    #: most recently observed sampling interval (robustness to cadence)
    observed_interval_s: float = 0.0


#: estimator register -> (dtype, reset value); ``last_sample_s < 0`` marks a
#: row that was never sampled since its last reset
_ESTIMATOR_FIELDS = {
    "queue_cur": (np.int64, 0),
    "queue_prev": (np.int64, 0),
    "trend": (np.int64, 0),
    "dur_cnt": (np.int64, 0),
    "last_sample_s": (np.float64, -1.0),
    "rate_bps": (np.float64, 0.0),
    "observed_interval_s": (np.float64, 0.0),
}
#: every column, liveness included (unknown ports are up)
_FIELDS = dict(_ESTIMATOR_FIELDS, up=(np.bool_, True))
_EMPTY = {name: np.empty(0, dtype=dtype) for name, (dtype, _) in _FIELDS.items()}


class RegisterColumns:
    """Estimator and liveness registers of many ports, one row per port.

    Rows are appended on demand (capacity doubles), so holders must keep
    row numbers, never column arrays.  ``version`` changes whenever a
    switch joins or leaves these columns or changes its tables, which is
    what a cached sweep layout checks before reusing itself.
    """

    def __init__(self, num_rows: int = 0) -> None:
        self.num_rows = num_rows
        self.version = 0
        if not num_rows:
            # every switch starts with empty columns, so they are shared;
            # the first add_row replaces them
            self.__dict__.update(_EMPTY)
            return
        for name, (dtype, value) in _FIELDS.items():
            setattr(self, name, np.full(num_rows, value, dtype=dtype))

    def add_row(self) -> int:
        """Append one row holding the reset values; returns its index."""
        row = self.num_rows
        if row == len(self.up):
            capacity = max(8, 2 * row)
            for name, (dtype, value) in _FIELDS.items():
                grown = np.full(capacity, value, dtype=dtype)
                grown[:row] = getattr(self, name)[:row]
                setattr(self, name, grown)
        self.num_rows = row + 1
        return row

    def reset(self, rows, fields: Iterable[str]) -> None:
        """Restore the reset values of ``fields`` on ``rows``."""
        for name in fields:
            getattr(self, name)[rows] = _FIELDS[name][1]


class PortRegisters:
    """One switch's rows in a :class:`RegisterColumns` (port name -> row)."""

    __slots__ = ("columns", "rows")

    def __init__(self) -> None:
        self.columns = RegisterColumns()
        self.rows: Dict[str, int] = {}

    def row_for(self, port: str) -> int:
        """The row of ``port``, appending a fresh one on first use."""
        row = self.rows.get(port)
        if row is None:
            row = self.rows[port] = self.columns.add_row()
        return row

    def bind(self, columns: RegisterColumns, rows: Dict[str, int]) -> None:
        """Move this switch's registers into ``columns`` at ``rows``.

        Ports that already have registers keep their values (ports missing
        from ``rows`` get appended rows).  The other target rows must hold
        the reset values, as a new plane's columns do.
        """
        old, new_rows = self.columns, dict(rows)
        for port, src in self.rows.items():
            dst = new_rows.get(port)
            if dst is None:
                dst = new_rows[port] = columns.add_row()
            for name in _FIELDS:
                getattr(columns, name)[dst] = getattr(old, name)[src]
        self.columns, self.rows = columns, new_rows
        old.version += 1
        columns.version += 1

    def touch(self) -> None:
        """Signal that this switch's sweep layout (its tables) changed."""
        self.columns.version += 1


def observe_rows(
    columns: RegisterColumns,
    rows,
    queue_bytes: np.ndarray,
    rate_bps: np.ndarray,
    now: float,
    tables: SwitchTables,
    config: LCMPConfig,
) -> None:
    """:meth:`CongestionEstimator.observe` for many ports at once.

    ``rows`` (a slice or an index array) selects the register rows;
    ``queue_bytes`` and ``rate_bps`` are aligned with it.  Every row must
    use ``tables`` and ``config``.  The integer arithmetic matches the
    scalar spec exactly: numpy's ``right_shift`` on int64 floors like
    Python's ``>>``, and ``astype(np.int64)`` truncates like ``int()``.
    """
    c = columns
    # read everything first: with a slice, these are views of the columns
    last = c.last_sample_s[rows]
    interval = np.where(
        last >= 0, np.maximum(0.0, now - last), c.observed_interval_s[rows]
    )
    prev = c.queue_cur[rows]
    cur = queue_bytes.astype(np.int64)
    delta = cur - prev
    k = config.trend_ewma_shift
    # Eq. 3 on the sign-magnitude delta, as in observe()
    shifted = np.right_shift(np.abs(delta), k) * np.sign(delta)
    trend = c.trend[rows]
    trend = trend - np.right_shift(trend, k) + shifted
    dur = c.dur_cnt[rows]
    dur = np.where(
        tables.queue_levels(cur) >= config.high_water_level,
        dur + 1,
        np.maximum(dur - config.duration_decay, 0),
    )
    c.queue_prev[rows] = prev
    c.queue_cur[rows] = cur
    c.trend[rows] = trend
    c.dur_cnt[rows] = dur
    c.observed_interval_s[rows] = interval
    c.last_sample_s[rows] = now
    c.rate_bps[rows] = rate_bps


class CongestionEstimator:
    """Maintains per-port congestion state and produces C_cong scores."""

    def __init__(
        self,
        tables: SwitchTables,
        config: Optional[LCMPConfig] = None,
        registers: Optional[PortRegisters] = None,
    ) -> None:
        self.tables = tables
        self.config = config or tables.config
        #: where this estimator's registers live (shared with the switch's
        #: liveness tracker when the router passes its own)
        self.registers = registers if registers is not None else PortRegisters()

    # ------------------------------------------------------------------ #
    # sampling
    # ------------------------------------------------------------------ #
    def observe(self, port: str, queue_bytes: float, rate_bps: float, now: float) -> None:
        """Feed one monitor sample for ``port``.

        Updates the instantaneous queue register, the shift-EWMA trend
        (Eq. 3) and the duration counter, and records the observed sampling
        interval so trend normalisation stays correct if the cadence drifts.
        This is the executable spec of :func:`observe_rows`.
        """
        row = self.registers.row_for(port)
        c = self.registers.columns
        c.rate_bps[row] = rate_bps

        last_sample_s = c.last_sample_s.item(row)
        if last_sample_s >= 0:
            c.observed_interval_s[row] = max(0.0, now - last_sample_s)
        c.last_sample_s[row] = now

        queue_prev = c.queue_cur.item(row)
        queue_cur = int(queue_bytes)
        c.queue_prev[row] = queue_prev
        c.queue_cur[row] = queue_cur

        delta = queue_cur - queue_prev
        k = self.config.trend_ewma_shift
        # Eq. 3: T = T_old - (T_old >> K) + (delta >> K), in integer arithmetic.
        # Python's >> floors toward -inf which matches the hardware behaviour
        # for non-negative accumulators; deltas may be negative so we shift
        # their magnitude and restore the sign.
        delta_shifted = (abs(delta) >> k) * (1 if delta >= 0 else -1)
        trend = c.trend.item(row)
        c.trend[row] = trend - (trend >> k) + delta_shifted

        dur_cnt = c.dur_cnt.item(row)
        if self.tables.queue_level(queue_cur) >= self.config.high_water_level:
            c.dur_cnt[row] = dur_cnt + 1
        else:
            c.dur_cnt[row] = max(0, dur_cnt - self.config.duration_decay)

    # ------------------------------------------------------------------ #
    # scoring
    # ------------------------------------------------------------------ #
    def _sampled_row(self, port: str) -> Optional[int]:
        row = self.registers.rows.get(port)
        if row is None or self.registers.columns.last_sample_s.item(row) < 0:
            return None
        return row

    def _scores(self, port: str) -> Optional[Tuple[int, int, int]]:
        """(Q, T, D) of a sampled port; None when it was never sampled."""
        row = self._sampled_row(port)
        if row is None:
            return None
        c = self.registers.columns
        tables = self.tables
        q = tables.level_score(tables.queue_level(c.queue_cur.item(row)))
        # T is zero for non-growing queues
        trend = c.trend.item(row)
        rate_bps = c.rate_bps.item(row)
        t = 0
        if trend > 0 and rate_bps > 0:
            interval_s = c.observed_interval_s.item(row) or None
            t = tables.level_score(tables.trend_level(trend, rate_bps, interval_s))
        # D: right-shifted duration counter, capped
        d = min(255, c.dur_cnt.item(row) >> self.config.duration_shift)
        return q, t, d

    def queue_score(self, port: str) -> int:
        """Q: quantised instantaneous queue level as a 0–255 score."""
        scores = self._scores(port)
        return 0 if scores is None else scores[0]

    def trend_score(self, port: str) -> int:
        """T: trend level as a 0–255 score (zero for non-growing queues)."""
        scores = self._scores(port)
        return 0 if scores is None else scores[1]

    def duration_score(self, port: str) -> int:
        """D: persistence penalty (right-shifted duration counter, capped)."""
        scores = self._scores(port)
        return 0 if scores is None else scores[2]

    def congestion_score(self, port: str) -> int:
        """C_cong for ``port`` (Eq. 4 and Eq. 5)."""
        scores = self._scores(port)
        if scores is None:
            return 0
        q, t, d = scores
        cfg = self.config
        return min((cfg.w_ql * q + cfg.w_tl * t + cfg.w_dp * d) >> cfg.cong_shift, 255)

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    def port_state(self, port: str) -> Optional[PortCongestionState]:
        """Snapshot of a port's registers (None when never sampled)."""
        row = self._sampled_row(port)
        if row is None:
            return None
        c = self.registers.columns
        return PortCongestionState(
            **{name: getattr(c, name).item(row) for name in _ESTIMATOR_FIELDS}
        )

    def ports(self) -> list:
        """All ports sampled since their last reset."""
        return sorted(p for p in self.registers.rows if self._sampled_row(p) is not None)

    def reset(self, port: Optional[str] = None) -> None:
        """Drop state for one port, or all ports when ``port`` is None.

        Liveness shares the rows and is kept.
        """
        rows = self.registers.rows
        if port is None:
            selected = list(rows.values())
        else:
            selected = [rows[port]] if port in rows else []
        if selected:
            self.registers.columns.reset(selected, _ESTIMATOR_FIELDS)
