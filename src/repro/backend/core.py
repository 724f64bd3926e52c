"""Array-backend abstraction — named kernels over a swappable array library.

The fluid update step, the batched routers and the CC kernels call their
array idioms (scatter-adds, segment reductions, ``searchsorted``,
positional path walks) through *named kernels* on an :class:`ArrayBackend`,
so the same call sites can run on

* the **numpy backend** (:mod:`repro.backend.numpy_ref`) — ``bincount``
  scatter-adds and uniform-path-length reshape reductions, bit-identical
  to the scalar core (see DESIGN.md, "Array backends & kernels");
* the optional **torch backend** (:mod:`repro.backend.torch_backend`) —
  registered only when torch imports; equivalent within a documented float
  tolerance (the scalar core stays the exact reference).

Kernel contract: kernels take and return arrays of the backend's *host
interface* dtype conventions (``float64`` values, ``intp``/``int64``
indices).  A backend may execute on another device internally;
:meth:`ArrayBackend.asarray` / :meth:`ArrayBackend.to_numpy` are the only
sanctioned host↔device sync points, and the simulator calls them only at
event boundaries (step entry/exit), never inside a kernel chain.

Segment layout: ``(values, starts, lengths)`` is the CSR layout of
:mod:`repro.simulator.incidence` — segment ``i`` is
``values[starts[i] : starts[i] + lengths[i]]``.  Empty segments reduce to
the op identity (``sum`` → 0, ``prod`` → 1, ``min`` → +inf, ``max`` →
-inf).  ``sum`` and ``prod`` accumulate strictly left to right inside each
segment (the bit-identity contract of the fluid feedback path); ``min``
and ``max`` are order-exact, so backends may associate them freely.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

__all__ = [
    "ArrayBackend",
    "available_backends",
    "get_backend",
    "register_backend",
]

#: op name -> (numpy ufunc, identity) for :meth:`ArrayBackend.segment_reduce`
_REDUCE_OPS: Dict[str, Tuple[np.ufunc, float]] = {
    "sum": (np.add, 0.0),
    "prod": (np.multiply, 1.0),
    "min": (np.minimum, np.inf),
    "max": (np.maximum, -np.inf),
}


class ArrayBackend:
    """One execution platform for the simulator's hot array kernels.

    Subclasses override the kernels; the base class holds the generic,
    loop-free helpers every backend shares and the naive per-segment
    fallbacks the parity tests compare against.  All kernels are pure:
    they never mutate their inputs (``scatter_rows`` mutates its
    explicitly-named output column, nothing else).
    """

    #: registry key (``SimulationConfig.backend`` value)
    name: str = "abstract"
    #: the array namespace for free-form element-wise math at call sites
    xp = np
    #: True when kernels execute off the host (documentation/telemetry)
    is_device: bool = False

    # ------------------------------------------------------------------ #
    # sync points
    # ------------------------------------------------------------------ #
    def asarray(self, values, dtype=None):
        """Adopt host data into the backend's native array type."""
        return np.asarray(values, dtype=dtype)

    def to_numpy(self, values) -> np.ndarray:
        """Materialise a backend array on the host as numpy."""
        return np.asarray(values)

    # ------------------------------------------------------------------ #
    # kernels
    # ------------------------------------------------------------------ #
    def scatter_add(self, size: int, idx, values) -> np.ndarray:
        """Dense float64 accumulation: ``out[idx[k]] += values[k]``.

        Duplicate indices accumulate sequentially in input order (the
        per-link offered-load contract: lane order == scalar dict order).
        """
        raise NotImplementedError

    def segment_reduce(self, values, starts, lengths, op: str) -> np.ndarray:
        """Reduce each CSR segment of ``values`` with ``op``.

        Args:
            values: lane array (float64).
            starts: segment start offsets into ``values``.
            lengths: segment lengths (empty segments allowed).
            op: ``"sum"`` | ``"prod"`` | ``"min"`` | ``"max"``.

        Returns:
            One reduced float64 value per segment; empty segments yield
            the op identity.
        """
        raise NotImplementedError

    def segment_cumidx(self, lengths) -> np.ndarray:
        """Lane → segment-id map: ``repeat(arange(len(lengths)), lengths)``."""
        lengths = np.asarray(lengths)
        return np.repeat(np.arange(len(lengths), dtype=np.intp), lengths)

    def expand_segments(self, values, lengths) -> np.ndarray:
        """Expand one value per segment into its lanes (``np.repeat``)."""
        return np.repeat(values, lengths)

    def path_signals(
        self, idx, starts, lengths, not_marked_links, delay_links
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-segment ECN-survival product and queue-delay sum.

        Equivalent to ``segment_reduce(not_marked_links[idx], …, "prod")``
        and ``segment_reduce(delay_links[idx], …, "sum")`` fused into one
        pass, preserving the strict left-to-right accumulation order of
        the scalar feedback loop (the bit-identity contract — see
        :meth:`~repro.simulator.fluid.FluidSimulation._update_step_scalar`).

        Returns:
            ``(not_marked, queue_delay)`` float64 arrays, one entry per
            segment (identity 1.0 / 0.0 for empty segments).
        """
        raise NotImplementedError

    def weighted_choice_searchsorted(self, cumulative, points) -> np.ndarray:
        """Map uniform draws to weighted candidate indices.

        ``cumulative`` is the inclusive cumulative weight table of the
        candidates; each point lands in the first bucket whose cumulative
        weight reaches it (``side="left"``), clamped to the last candidate
        so cumulative-rounding at the top of the table cannot fall off the
        end.  Returns ``intp`` indices.
        """
        raise NotImplementedError

    def gather_rows(self, column, rows) -> np.ndarray:
        """Fancy-indexed gather ``column[rows]``."""
        raise NotImplementedError

    def scatter_rows(self, column, rows, values) -> None:
        """Fancy-indexed scatter ``column[rows] = values`` (in place)."""
        raise NotImplementedError

    def masked_where(self, cond, a, b) -> np.ndarray:
        """Element-wise select ``where(cond, a, b)``."""
        raise NotImplementedError

    def masked_divide(self, num, den, mask) -> np.ndarray:
        """``num / den`` where ``mask``, exactly 0.0 elsewhere.

        The masked lanes never execute the division (the
        ``np.divide(out=, where=)`` idiom), so zero or dead denominators
        raise no warnings and contribute exact zeros.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # shared reference fallback (also the parity-test oracle)
    # ------------------------------------------------------------------ #
    def _segment_reduce_loop(self, values, starts, lengths, op: str) -> np.ndarray:
        """Naive per-segment loop — well-defined for any CSR geometry."""
        ufunc, identity = _REDUCE_OPS[op]
        values = np.asarray(values, dtype=np.float64)
        starts = np.asarray(starts)
        lengths = np.asarray(lengths)
        out = np.full(len(starts), identity, dtype=np.float64)
        for i in range(len(starts)):
            acc = identity
            for k in range(int(lengths[i])):
                acc = ufunc(acc, values[starts[i] + k])
            out[i] = acc
        return out


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
#: name -> zero-argument backend factory (instantiated lazily, cached)
_FACTORIES: Dict[str, Callable[[], ArrayBackend]] = {}
_INSTANCES: Dict[str, ArrayBackend] = {}


def register_backend(name: str, factory: Callable[[], ArrayBackend]) -> None:
    """Register a backend factory under ``name`` (idempotent per name)."""
    _FACTORIES[name] = factory


def available_backends() -> List[str]:
    """Names of every backend that can actually be constructed here.

    Probes each registered factory once (a factory whose import guard
    fails — e.g. torch absent — is reported unavailable, not an error).
    """
    names: List[str] = []
    for name in _FACTORIES:
        try:
            get_backend(name)
        except (ImportError, RuntimeError):
            continue
        names.append(name)
    return names


def get_backend(name: str) -> ArrayBackend:
    """The shared backend instance registered under ``name``.

    Backends are stateless kernel bundles, so one instance per name is
    shared process-wide.

    Raises:
        ValueError: unknown backend name.
        ImportError: the backend's array library is not installed.
    """
    inst = _INSTANCES.get(name)
    if inst is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ValueError(
                f"unknown array backend {name!r} "
                f"(registered: {', '.join(sorted(_FACTORIES))})"
            )
        inst = factory()
        _INSTANCES[name] = inst
    return inst
