"""Span tracer that times calls into the simulator's layers from outside.

The benchmark never edits ``src/``.  Instead it wraps public functions and
methods of each layer (``LCMPRouter.on_telemetry``, ``TelemetryPlane.sweep``,
the array backend's kernels, ...) for the length of one traced run, and it
nests the simulator's own ``repro.obs`` phase spans (``step.update``,
``update.signals``, ...) into the same span stack by handing
:class:`~repro.simulator.fluid.FluidSimulation` an
:class:`~repro.obs.Instrumentation` whose span handles also report here.

Per span name the tracer keeps a count, the total time and the *self* time
(duration minus the time covered by child spans).  Phase spans — the
benchmark's own and ``repro.obs``'s — are also kept as events (name, start,
duration, depth) in memory and written once, at the end, as Chrome-trace
JSON (load it in ``chrome://tracing`` or Perfetto).  Wrapped calls, which
run up to hundreds of thousands of times, are only aggregated, so they do
not crowd the phase timeline out of the event cap.
"""

from __future__ import annotations

import json
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from repro.obs import Instrumentation

_MISSING = object()
#: cap on retained Chrome-trace events; aggregates keep counting past it
MAX_EVENTS = 200_000


class SpanStats:
    """Aggregate of every occurrence of one span name."""

    __slots__ = ("count", "total_ns", "self_ns", "bytes")

    def __init__(self) -> None:
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0
        self.bytes = 0


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


class _Span:
    """Reusable context manager for one span name (not re-entrant)."""

    __slots__ = ("_tracer", "_name")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_Span":
        self._tracer.enter(self._name, True)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.exit()


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NullTracer:
    """The untraced stand-in: spans are shared no-ops, wraps return ``fn``."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def wrap(self, fn: Callable, name: str, count_bytes: bool = False) -> Callable:
        return fn


class _ObsSpan:
    """A ``repro.obs`` span handle that also opens a tracer span."""

    __slots__ = ("_inner", "_tracer", "_name")

    def __init__(self, inner, tracer: "Tracer", name: str) -> None:
        self._inner = inner
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> "_ObsSpan":
        self._inner.__enter__()
        self._tracer.enter(self._name, True)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.exit()
        self._inner.__exit__(exc_type, exc, tb)


class NestedInstrumentation(Instrumentation):
    """``repro.obs`` instrumentation whose phase spans join the tracer stack.

    The run's ``result.stats`` snapshot is unchanged; the phases are
    additionally timed by the tracer so their self times exclude the
    benchmark's own spans nested inside them (router calls, kernels).
    """

    def __init__(self, tracer: "Tracer") -> None:
        super().__init__()
        self._tracer = tracer

    def span(self, name: str) -> _ObsSpan:
        return _ObsSpan(super().span(name), self._tracer, name)


class Tracer:
    """In-memory span recorder with call patching.

    Use as a context manager: everything patched through :meth:`patch` or
    :meth:`replace` is restored on exit, even when the run raises.

    Args:
        keep_durations: span names whose every duration is kept (for
            percentiles such as the per-step time).
    """

    def __init__(self, keep_durations: Iterable[str] = ()) -> None:
        self.stats: Dict[str, SpanStats] = {}
        self.durations: Dict[str, List[int]] = {name: [] for name in keep_durations}
        self.dropped_events = 0
        # open spans: [name, start_ns, child_ns, kept as an event]
        self._stack: List[list] = []
        # (name, start_ns, dur_ns, depth)
        self._events: List[Tuple[str, int, int, int]] = []
        self._restore: List[Tuple[object, str, object]] = []
        self._spans: Dict[str, _Span] = {}

    # -- recording ------------------------------------------------------ #
    def enter(self, name: str, event: bool = False) -> None:
        self._stack.append([name, perf_counter_ns(), 0, event])

    def exit(self) -> None:
        end = perf_counter_ns()
        stack = self._stack
        name, start, child_ns, event = stack.pop()
        dur = end - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.count += 1
        stats.total_ns += dur
        stats.self_ns += dur - child_ns
        if stack:
            stack[-1][2] += dur
        if event:
            if len(self._events) < MAX_EVENTS:
                self._events.append((name, start, dur, len(stack)))
            else:
                self.dropped_events += 1
        kept = self.durations.get(name)
        if kept is not None:
            kept.append(dur)

    def span(self, name: str) -> _Span:
        """The reusable span handle for ``name``."""
        handle = self._spans.get(name)
        if handle is None:
            handle = self._spans[name] = _Span(self, name)
        return handle

    def wrap(self, fn: Callable, name: str, count_bytes: bool = False) -> Callable:
        """``fn`` timed as span ``name``; optionally count array bytes.

        With ``count_bytes`` the span also adds the ``nbytes`` of every
        numpy array argument and of the returned array(s): the bytes the
        call reads and writes, counted on the host.
        """
        enter = self.enter
        exit_ = self.exit
        stats = self.stats

        def timed(*args, **kwargs):
            enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                exit_()
            if count_bytes:
                # counted after the span closes, so counting costs no span time
                stats[name].bytes += (
                    sum(map(_nbytes, args)) + sum(map(_nbytes, kwargs.values())) + _nbytes(out)
                )
            return out

        return timed

    # -- patching ------------------------------------------------------- #
    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr = value`` until the tracer exits."""
        self._restore.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name: str, count_bytes: bool = False) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``owner`` is a class (the method's own definition is wrapped) or an
        instance (its bound method is shadowed by an instance attribute).
        """
        fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self.replace(owner, attr, self.wrap(fn, name, count_bytes))

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- reading -------------------------------------------------------- #
    def total_s(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.total_ns / 1e9 if stats else 0.0

    def self_s(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.self_ns / 1e9 if stats else 0.0

    def count(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.count if stats else 0

    def nbytes(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.bytes if stats else 0

    def write_chrome_trace(self, path, metadata: dict) -> None:
        """Write the retained events as Chrome trace-event JSON."""
        origin = min((start for _, start, _, _ in self._events), default=0)
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": dur / 1000.0,
                "pid": 0,
                "tid": 0,
                "cat": name.split(".", 1)[0],
                "args": {"depth": depth},
            }
            for name, start, dur, depth in self._events
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": dict(metadata, dropped_events=self.dropped_events),
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
