"""Simulation configuration.

A single dataclass gathers every tunable of the fluid network simulation so
experiment configs (:mod:`repro.experiments.configs`) and tests can express
their setup declaratively and reproducibly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SimulationConfig"]


@dataclass
class SimulationConfig:
    """Tunables of the fluid flow-level simulation.

    Attributes:
        update_interval_s: length of a fluid rate/queue update step.  Queue
            integration, congestion-signal generation and CC rate updates all
            happen on this cadence.  Smaller values increase fidelity and
            cost; 0.5–1 ms is adequate for inter-DC RTTs of 10–500 ms.
        monitor_interval_s: cadence of the DCI-switch queue monitor that
            feeds the LCMP congestion estimator (and RedTE's telemetry).
        gc_interval_s: cadence of the flow-cache garbage-collection tick.
        flow_idle_timeout_s: idle timeout after which a flow-cache entry is
            evicted.
        ecn_kmin_fraction / ecn_kmax_fraction / ecn_pmax: RED/ECN marking
            profile of egress queues, expressed as fractions of the port
            buffer (DCQCN-style marking).
        max_sim_time_s: hard stop for the simulation clock.
        drain_timeout_s: extra simulated time allowed after the last flow
            arrival for in-flight flows to finish.
        fidelity_noise: multiplicative log-normal noise applied to recorded
            FCTs — zero for the "simulator" profile, a small value for the
            "testbed" profile used by the Fig. 6 fidelity study (SoftRoCE +
            Mininet emulation is noisier than NS-3).
        seed: base RNG seed; every stochastic component derives its stream
            from this value, making runs reproducible.
        vectorized: run the numpy flow×link update core (default) instead
            of the pure-Python scalar loop.  The vectorized core keeps
            per-flow and congestion-control state resident in a
            :class:`~repro.simulator.flow_table.FlowTable`, dispatches
            congestion control through each class's in-place column
            kernels and runs the array-resident control plane (telemetry
            columns, batched arrivals).  Both cores produce bit-for-bit
            identical results (see DESIGN.md, "Vectorized core"); the
            scalar core is the executable specification and the reference
            of the equivalence tests.
        backend: array backend of the vectorized core's hot kernels (see
            :mod:`repro.backend` and DESIGN.md, "Array backends &
            kernels").  ``"numpy"`` (default) is bit-identical to the
            scalar core.  ``"torch"`` (only when torch is installed) runs
            the kernels on torch tensors — equivalent within the
            documented float tolerance, not bit-identical
            (``scatter_add`` duplicate order is unspecified).  The scalar
            core always runs plain numpy.
        instrumentation: enable the runtime observability plane
            (:mod:`repro.obs`): phase timers around every step sub-phase,
            slow-path counters, and an engine/routing/cache metrics harvest
            attached to ``SimulationResult.stats`` (see DESIGN.md,
            "Observability plane").  Off by default; when off, every
            instrumentation site is a shared no-op object and ``stats`` is
            ``None``.  Instrumentation never touches simulation numerics or
            RNG streams, so results are bit-for-bit identical either way.
    """

    update_interval_s: float = 1e-3
    monitor_interval_s: float = 1e-3
    gc_interval_s: float = 0.25
    flow_idle_timeout_s: float = 1.0
    ecn_kmin_fraction: float = 0.05
    ecn_kmax_fraction: float = 0.5
    ecn_pmax: float = 0.2
    max_sim_time_s: float = 120.0
    drain_timeout_s: float = 60.0
    fidelity_noise: float = 0.0
    seed: int = 1
    vectorized: bool = True
    backend: str = "numpy"
    instrumentation: bool = False

    def with_overrides(self, **kwargs) -> "SimulationConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        """Check that the configuration is internally consistent.

        Raises:
            ValueError: on non-positive intervals or inverted ECN thresholds.
        """
        if self.update_interval_s <= 0:
            raise ValueError("update_interval_s must be positive")
        if self.monitor_interval_s <= 0:
            raise ValueError("monitor_interval_s must be positive")
        if self.gc_interval_s <= 0:
            raise ValueError("gc_interval_s must be positive")
        if not 0 <= self.ecn_kmin_fraction <= self.ecn_kmax_fraction <= 1:
            raise ValueError("require 0 <= ecn_kmin_fraction <= ecn_kmax_fraction <= 1")
        if not 0 <= self.ecn_pmax <= 1:
            raise ValueError("ecn_pmax must be in [0, 1]")
        if self.max_sim_time_s <= 0:
            raise ValueError("max_sim_time_s must be positive")
        if self.fidelity_noise < 0:
            raise ValueError("fidelity_noise must be non-negative")
        # local import: repro.backend is dependency-free, but keeping the
        # config module import-light preserves its standalone usability
        # (importing the package registers every backend factory)
        import repro.backend as _backend  # noqa: F401
        from ..backend.core import _FACTORIES

        if self.backend not in _FACTORIES:
            raise ValueError(
                f"unknown backend {self.backend!r} "
                f"(registered: {', '.join(sorted(_FACTORIES))})"
            )
        if self.backend != "numpy" and not self.vectorized:
            raise ValueError(
                "the scalar core is the executable specification and only "
                "runs the numpy backend"
            )
