"""Experiment specifications for every figure of the paper's evaluation.

An :class:`ExperimentSpec` fully describes one simulation run (topology,
workload, load, congestion control, routing algorithm, seeds and simulator
tunables); the per-figure helpers at the bottom enumerate the runs each paper
figure needs.  The experiment harness runs the fluid simulator in a
time-scaled regime (``capacity_scale``, default 1/10 of the provisioned
rates) so that a few thousand Python-simulated flows sustain the paper's
30/50/80 % loads over several seconds — see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from ..core.config import LCMPConfig
from ..topology.generators import FabricSpec

__all__ = [
    "DEFAULT_CAPACITY_SCALE",
    "LOADS",
    "BASELINE_ROUTERS",
    "ALL_ROUTERS",
    "WORKLOAD_NAMES",
    "CC_NAMES",
    "DEFAULT_CC_MIX",
    "TESTBED_ENDPOINT_PAIRS",
    "CASE_STUDY_PAIRS",
    "ExperimentSpec",
    "mixed_fleet_spec",
]

#: capacity scale used by all experiment specs (see DESIGN.md)
DEFAULT_CAPACITY_SCALE = 0.1
#: the three offered loads of the evaluation
LOADS: Tuple[float, ...] = (0.3, 0.5, 0.8)
#: baselines the paper compares against
BASELINE_ROUTERS: Tuple[str, ...] = ("ecmp", "ucmp", "redte")
#: every routing algorithm including LCMP
ALL_ROUTERS: Tuple[str, ...] = ("lcmp",) + BASELINE_ROUTERS
#: the three workloads of §6.3.1
WORKLOAD_NAMES: Tuple[str, ...] = ("websearch", "alistorage", "fbhadoop")
#: the congestion controls of §6.3.2 (DCQCN is the default everywhere)
CC_NAMES: Tuple[str, ...] = ("dcqcn", "hpcc", "timely", "dctcp")
#: canned heterogeneous fleet: a datacenter mid-migration from DCQCN to
#: HPCC (per-flow assignment, deterministic in the spec's seed)
DEFAULT_CC_MIX: Tuple[Tuple[str, float], ...] = (("dcqcn", 0.8), ("hpcc", 0.2))
#: all-to-all traffic between the testbed endpoints DC1 and DC8
TESTBED_ENDPOINT_PAIRS: Tuple[Tuple[str, str], ...] = (("DC1", "DC8"), ("DC8", "DC1"))
#: the representative multi-path pair of the 13-DC case study (§6.2.2)
CASE_STUDY_PAIRS: Tuple[Tuple[str, str], ...] = (("DC1", "DC13"), ("DC13", "DC1"))


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully described simulation run.

    Attributes:
        name: label used in reports.
        topology: ``"testbed8"``, ``"bso13"``, or ``"fabric"`` (requires
            :attr:`fabric`).
        fabric: :class:`~repro.topology.generators.FabricSpec` describing
            a generated continent-scale fabric; only consulted when
            :attr:`topology` is ``"fabric"``.
        lazy_paths: materialize candidate paths on first request (the
            default) or eagerly for every pair at construction time.
            Routing decisions are bit-identical either way.
        router: routing algorithm name (``"lcmp"``, ``"ecmp"``, ``"ucmp"``,
            ``"wcmp"``, ``"redte"``).
        workload: flow-size distribution name.
        load: offered load fraction (0.3 / 0.5 / 0.8).
        cc: congestion-control name.
        cc_mix: optional heterogeneous fleet — ``((name, weight), ...)``
            pairs (e.g. :data:`DEFAULT_CC_MIX`); each flow's algorithm is
            assigned deterministically from the spec's seed and the flow
            id, overriding :attr:`cc`.  ``None`` keeps the uniform fleet.
        num_flows: number of flows to generate.
        pairs: ``"all_to_all"`` or an explicit tuple of ordered DC pairs.
        lcmp_config: LCMP weight configuration (ignored by baselines).
        scenario: optional dynamic scenario the run executes under — a
            :class:`~repro.scenarios.events.Scenario` instance or the name
            of a canned one (see :func:`repro.scenarios.scenario_names`);
            ``None`` runs the static workload exactly as before.
        capacity_scale: time-scaling factor for the fluid simulator.
        seed: RNG seed shared by traffic generation and the simulator.
        update_interval_s / monitor_interval_s: simulator cadences.
        fidelity_noise: measurement-noise sigma (testbed profile of Fig. 6).
        trace_links: record per-link time series (needed by Fig. 1b).
        vectorized: run the simulator's numpy update core (default) or the
            pure-Python scalar reference path — both produce bit-identical
            results (see DESIGN.md, "Vectorized core").
        backend: array backend the vectorized core executes on —
            ``"numpy"`` (bit-identical to the scalar core) or ``"torch"``
            (device-resident, equivalent within a documented tolerance;
            requires torch).  See DESIGN.md, "Array
            backends & kernels".
        instrumentation: enable the simulator's observability plane for
            this run; the run's ``result.stats`` then carries the phase
            timer / counter snapshot, and sweeps aggregate the per-run
            snapshots (see DESIGN.md, "Observability plane").  Numerics are
            unaffected either way.
    """

    name: str
    topology: str = "testbed8"
    fabric: Optional[FabricSpec] = None
    lazy_paths: bool = True
    router: str = "lcmp"
    workload: str = "websearch"
    load: float = 0.3
    cc: str = "dcqcn"
    cc_mix: object = None
    num_flows: int = 2000
    pairs: object = TESTBED_ENDPOINT_PAIRS
    lcmp_config: Optional[LCMPConfig] = None
    scenario: object = None
    capacity_scale: float = DEFAULT_CAPACITY_SCALE
    seed: int = 1
    update_interval_s: float = 1e-3
    monitor_interval_s: float = 1e-3
    fidelity_noise: float = 0.0
    trace_links: bool = False
    vectorized: bool = True
    backend: str = "numpy"
    instrumentation: bool = False

    def with_overrides(self, **kwargs) -> "ExperimentSpec":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def resolve_scenario(self):
        """The :class:`~repro.scenarios.events.Scenario` to run under.

        A string is looked up in the canned-scenario registry; a scenario
        instance passes through; ``None`` means a static run.

        Raises:
            ValueError: for a name the registry does not know.
        """
        if self.scenario is None or not isinstance(self.scenario, str):
            return self.scenario
        from ..scenarios.library import get_scenario

        try:
            return get_scenario(self.scenario)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None

    def validate(self) -> None:
        """Check the spec names known components.

        Raises:
            ValueError: for unknown topology names or non-positive loads.
        """
        if self.topology == "fabric":
            if self.fabric is None:
                raise ValueError('topology "fabric" requires a FabricSpec in spec.fabric')
            self.fabric.validate()
        elif self.topology not in ("testbed8", "bso13"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.load <= 0:
            raise ValueError("load must be positive")
        if self.num_flows <= 0:
            raise ValueError("num_flows must be positive")
        if self.capacity_scale <= 0:
            raise ValueError("capacity_scale must be positive")
        if self.cc_mix is not None:
            from ..congestion_control import available_ccs

            # accept the same shapes make_mixed_cc_factory does: a mapping
            # {name: weight} or a sequence of (name, weight) pairs
            mix = self.cc_mix
            components = (
                tuple(mix.items()) if hasattr(mix, "items") else tuple(mix)
            )
            if not components:
                raise ValueError("cc_mix must name at least one component")
            known = set(available_ccs())
            for name, weight in components:
                if isinstance(name, str) and name not in known:
                    raise ValueError(
                        f"unknown congestion control {name!r} in cc_mix; "
                        f"available: {sorted(known)}"
                    )
                if float(weight) <= 0:
                    raise ValueError("cc_mix weights must be positive")
        if isinstance(self.scenario, str):
            self.resolve_scenario()


def mixed_fleet_spec(name: str = "mixed-fleet", **overrides) -> ExperimentSpec:
    """A canned heterogeneous-CC experiment (80 % DCQCN + 20 % HPCC).

    The per-flow assignment is deterministic in the spec's seed, so the
    same spec reproduces the same fleet on every simulator core and in
    every worker of a parallel sweep.  Any :class:`ExperimentSpec` field
    can be overridden::

        spec = mixed_fleet_spec(load=0.5, num_flows=1000, router="lcmp")
    """
    overrides.setdefault("cc_mix", DEFAULT_CC_MIX)
    return ExperimentSpec(name=name, **overrides)
