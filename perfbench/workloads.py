"""The benchmark's workloads: LCMP / ECMP + DCQCN on the paper's topologies.

Every workload is a fixed :class:`~repro.experiments.ExperimentSpec` recipe
run over a series of traffic matrices.  The benchmark seed ``s`` gives
matrix ``i`` the spec seed ``s * 1000 + i``, which drives the flow sizes,
arrival times, pair and host choice and the simulator's RNG streams.  One
matrix of a few thousand flows is too little to be steady: its p99 slowdown
moves by 15-20 % from seed to seed, and its host time by as much or more
(a c400 matrix's by 20-26 %, as it runs until its slowest flow is done).
So the slowdown
percentiles pool the flows of the first :attr:`Workload.pooled` matrices (a
fixed number, so they stay deterministic for a seed), and host times are
medians over as many matrices as the measuring time allows.  The topologies
are fixed: testbed8 and BSO13 are the paper's, and the generated fabric is
always :data:`~repro.topology.CONTINENT_400` (generator seed 0).  Each
workload's one-line reason for existing lives in ``BENCHMARK.json``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.experiments import ExperimentSpec
from repro.experiments.configs import TESTBED_ENDPOINT_PAIRS
from repro.scenarios.library import get_scenario
from repro.topology import CONTINENT_400

#: regions between the two ends of every c400 traffic pair (8 regions, so
#: each pair crosses the backbone to the far side of the ring)
C400_REGION_OFFSET = 4
#: ordered edge-DC pairs per source region on CONTINENT_400
C400_PAIRS_PER_REGION = 8


def c400_pairs() -> Tuple[Tuple[str, str], ...]:
    """64 ordered edge-DC pairs on CONTINENT_400, each four regions apart.

    Edge ``i`` of region ``r`` sends to an edge of region ``r + 4``, cycling
    over cores, aggregation DCs and edge slots so the pairs spread over the
    whole fabric.
    """
    f = CONTINENT_400
    pairs = []
    for region in range(f.regions):
        other = (region + C400_REGION_OFFSET) % f.regions
        for i in range(C400_PAIRS_PER_REGION):
            core = i % f.cores_per_region
            agg = (i // f.cores_per_region) % f.aggs_per_core
            edge = i % f.edges_per_agg
            pairs.append(
                (
                    f"R{region}E{core}x{agg}x{edge}",
                    f"R{other}E{core}x{agg}x{(edge + 3) % f.edges_per_agg}",
                )
            )
    return tuple(pairs)


def _tb8_dense(seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name="tb8-dense",
        topology="testbed8",
        pairs=TESTBED_ENDPOINT_PAIRS,
        router="lcmp",
        cc="dcqcn",
        workload="websearch",
        load=0.8,
        num_flows=2_000,
        seed=seed,
    )


def _c400(router: str, seed: int) -> ExperimentSpec:
    return ExperimentSpec(
        name=f"c400-{router}",
        topology="fabric",
        fabric=CONTINENT_400,
        pairs=c400_pairs(),
        router=router,
        cc="dcqcn",
        workload="websearch",
        load=0.5,
        num_flows=500,
        seed=seed,
    )


def _bso13_cut(seed: int) -> ExperimentSpec:
    # DC6-DC8 and DC8-DC9 share a conduit: both fail at 15 ms, late in the
    # ~18 ms of arrivals, and come back one by one from 30 ms, 5 ms apart,
    # while the last flows drain: a 20000-flow run cut at 60 ms and spliced
    # from 120 ms, 20 ms apart, scaled down with the flow count
    scenario = get_scenario(
        "conduit-cut",
        links=(("DC6", "DC8"), ("DC8", "DC9")),
        cut_at_s=0.015,
        repair_at_s=0.03,
        stagger_s=0.005,
    )
    return ExperimentSpec(
        name="bso13-cut",
        topology="bso13",
        pairs="all_to_all",
        router="lcmp",
        cc="dcqcn",
        workload="alistorage",
        load=0.5,
        num_flows=5_000,
        scenario=scenario,
        seed=seed,
    )


#: traffic matrices per benchmark seed (spec seeds ``s * 1000 + i``)
MATRICES_PER_SEED = 1000


@dataclass(frozen=True)
class Workload:
    """A spec recipe and how many traffic matrices its slowdowns pool."""

    build: Callable[[int], ExperimentSpec]
    pooled: int

    def spec(self, seed: int, matrix: int) -> ExperimentSpec:
        """The spec of traffic matrix ``matrix`` of benchmark seed ``seed``."""
        if seed < 0 or not 0 <= matrix < MATRICES_PER_SEED:
            raise ValueError(f"need seed >= 0 and 0 <= matrix < {MATRICES_PER_SEED}")
        return self.build(seed * MATRICES_PER_SEED + matrix)


WORKLOADS: Dict[str, Workload] = {
    "tb8-dense": Workload(_tb8_dense, pooled=8),
    "c400-lcmp": Workload(lambda seed: _c400("lcmp", seed), pooled=8),
    "c400-ecmp": Workload(lambda seed: _c400("ecmp", seed), pooled=12),
    "bso13-cut": Workload(_bso13_cut, pooled=10),
}


def describe(spec: ExperimentSpec) -> dict:
    """The parameters of a workload spec, for the run's provenance record."""
    pairs = spec.pairs if isinstance(spec.pairs, str) else [list(p) for p in spec.pairs]
    return {
        "topology": spec.fabric.name if spec.topology == "fabric" else spec.topology,
        "router": spec.router,
        "cc": spec.cc,
        "traffic": spec.workload,
        "load": spec.load,
        "num_flows": spec.num_flows,
        "pairs": pairs,
        "scenario": getattr(spec.scenario, "description", None),
        "capacity_scale": spec.capacity_scale,
        "seed": spec.seed,
    }
