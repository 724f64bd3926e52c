"""Bootstrap tables installed on a DCI switch (paper §3.1.2, Fig. 3).

At switch initialisation the control plane installs a small set of vectors
that let the data plane do all of its work with lookups and integer
comparisons:

* **link-capacity thresholds** — ``N`` class boundaries proportional to a
  configured maximum capacity; map a link rate to a capacity class.
* **queue thresholds** — the per-port egress buffer divided into ``N``
  levels; map instantaneous queue bytes to a quantised level ``Q``.
* **level-score table** — a linear mapping from level index to a 0–255
  score, avoiding per-packet floating arithmetic.
* **trend thresholds** — per link-rate bucket, normalisation vectors that
  map the raw trend accumulator to a trend level ``T``.  Buckets absent at
  initialisation are created on demand from the link rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Sequence

import numpy as np

from .config import LCMPConfig

__all__ = ["SwitchTables", "lookup_level"]


def lookup_level(value: float, thresholds: Sequence[float]) -> int:
    """Largest level index whose threshold is not above ``value``.

    The thresholds are increasing with ``thresholds[0] == 0`` so the result
    is always a valid index.
    """
    level = 0
    for i, threshold in enumerate(thresholds):
        if value >= threshold:
            level = i
        else:
            break
    return level


@dataclass
class SwitchTables:
    """The per-switch lookup vectors of Fig. 3."""

    config: LCMPConfig
    #: reference maximum link capacity used for the capacity classes (bps)
    max_capacity_bps: float
    #: per-port buffer size used for the queue thresholds (bytes)
    buffer_bytes: float
    link_cap_thresholds: List[float] = field(default_factory=list)
    queue_thresholds: List[float] = field(default_factory=list)
    level_scores: List[int] = field(default_factory=list)
    #: trend thresholds per coarse link-rate bucket (keyed by bps)
    trend_thresholds: Dict[float, List[float]] = field(default_factory=dict)
    #: sampling interval the trend thresholds were normalised for (seconds)
    trend_interval_s: float = 1e-3

    # ------------------------------------------------------------------ #
    @classmethod
    def bootstrap(
        cls,
        config: LCMPConfig,
        max_capacity_bps: float,
        buffer_bytes: float,
        link_rates_bps: Sequence[float] = (),
        trend_interval_s: float = 1e-3,
    ) -> "SwitchTables":
        """Generate all tables, as the control plane does at switch init.

        Args:
            config: LCMP configuration (defines the number of levels).
            max_capacity_bps: the largest provisioned capacity the switch
                will ever see (e.g. 400 Gbps); class boundaries are
                proportional to it.
            buffer_bytes: per-port egress buffer capacity.
            link_rates_bps: rate buckets to pre-install trend tables for
                (missing buckets are created on demand later).
            trend_interval_s: monitor sampling interval used to normalise
                the trend accumulator.
        """
        config.validate()
        if max_capacity_bps <= 0:
            raise ValueError("max_capacity_bps must be positive")
        if buffer_bytes <= 0:
            raise ValueError("buffer_bytes must be positive")
        n = config.num_levels
        tables = cls(
            config=config,
            max_capacity_bps=float(max_capacity_bps),
            buffer_bytes=float(buffer_bytes),
            link_cap_thresholds=[max_capacity_bps * i / n for i in range(n)],
            queue_thresholds=[buffer_bytes * i / n for i in range(n)],
            level_scores=[(i * 255) // n for i in range(n)],
            trend_interval_s=float(trend_interval_s),
        )
        for rate in link_rates_bps:
            tables.trend_thresholds_for(rate)
        return tables

    # ------------------------------------------------------------------ #
    # lookups the data plane performs
    # ------------------------------------------------------------------ #
    def queue_level(self, queue_bytes: float) -> int:
        """Quantised queue level ``Q`` for an instantaneous byte count."""
        return lookup_level(queue_bytes, self.queue_thresholds)

    def queue_levels(self, queue_bytes: np.ndarray) -> np.ndarray:
        """:meth:`queue_level` of every element of an array.

        :func:`lookup_level` counts the thresholds after the first that
        are not above the value, which for increasing thresholds is one
        ``searchsorted``.
        """
        return self._upper_queue_thresholds.searchsorted(queue_bytes, side="right")

    @cached_property
    def _upper_queue_thresholds(self) -> np.ndarray:
        # the tables are installed once and never edited afterwards
        return np.asarray(self.queue_thresholds[1:], dtype=np.float64)

    def level_score(self, level: int) -> int:
        """0–255 score for a level index (saturating at the top level)."""
        level = max(0, min(level, len(self.level_scores) - 1))
        return self.level_scores[level]

    def capacity_level(self, cap_bps: float) -> int:
        """Capacity class index for a provisioned link rate."""
        return lookup_level(cap_bps, self.link_cap_thresholds)

    def trend_thresholds_for(self, rate_bps: float) -> List[float]:
        """Trend-normalisation vector for a link-rate bucket.

        The vector expresses "how many bytes of queue growth per sampling
        interval" each trend level corresponds to, proportional to the rate
        bucket: level ``i`` starts at ``i/N`` of the bytes a full-rate burst
        could add to the queue during one sampling interval.  Buckets not
        present at initialisation are created on demand (paper §3.1.2).
        """
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        bucket = self._rate_bucket(rate_bps)
        if bucket not in self.trend_thresholds:
            n = self.config.num_levels
            max_growth_bytes = bucket * self.trend_interval_s / 8.0
            self.trend_thresholds[bucket] = [
                max_growth_bytes * i / n for i in range(n)
            ]
        return self.trend_thresholds[bucket]

    def trend_level(self, trend_bytes: float, rate_bps: float, interval_s: float | None = None) -> int:
        """Trend level ``T`` for a raw trend accumulator value.

        Args:
            trend_bytes: the shift-EWMA trend accumulator (bytes per sample).
            rate_bps: the port's link rate (selects the threshold bucket).
            interval_s: observed sampling interval; when it differs from the
                interval the table was built for, the accumulator is rescaled
                (the robustness-to-cadence property of §3.3).
        """
        if trend_bytes <= 0:
            return 0
        thresholds = self.trend_thresholds_for(rate_bps)
        if interval_s and interval_s > 0 and interval_s != self.trend_interval_s:
            trend_bytes = trend_bytes * (self.trend_interval_s / interval_s)
        return lookup_level(trend_bytes, thresholds)

    # ------------------------------------------------------------------ #
    def _rate_bucket(self, rate_bps: float) -> float:
        """Round a rate to its coarse bucket (25/40/100/200/400 G, etc.)."""
        standard = [25e9, 40e9, 50e9, 100e9, 200e9, 400e9, 800e9]
        for bucket in standard:
            if rate_bps <= bucket * 1.01:
                return bucket
        return rate_bps

    def memory_bytes(self) -> int:
        """Approximate control-table footprint in bytes (paper §4)."""
        vector_entries = (
            len(self.link_cap_thresholds)
            + len(self.queue_thresholds)
            + sum(len(v) for v in self.trend_thresholds.values())
        )
        return vector_entries * 4 + len(self.level_scores)
