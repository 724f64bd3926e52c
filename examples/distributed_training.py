#!/usr/bin/env python3
"""Cross-DC distributed training: gradient bursts vs. latency-sensitive RPCs.

Distributed ML training across datacenters produces synchronized bursts: at
every step boundary all workers push large gradient shards to the remote
site at once.  Those bursts are exactly the "simultaneous flow arrivals"
challenge (C3) of the paper — and the flows that suffer most are not the
gradients themselves but the small, latency-sensitive RPCs (parameter
lookups, coordination traffic) that share the inter-DC paths with them.

This example mixes the two traffic classes between DC1 and DC8 on the 8-DC
topology and compares three placement policies on the *RPC tail*:

* full LCMP — path quality + on-switch congestion + diversity-preserving hash,
* LCMP with the congestion term removed (``rm-beta``) — still delay-aware but
  blind to the queues the gradient bursts build, and
* ECMP — oblivious hashing across all six paths, including the 250 ms ones.

Run with::

    python examples/distributed_training.py [rounds] [workers]
"""

from __future__ import annotations

import sys

from repro.analysis import SlowdownProfile, slowdown_table
from repro.congestion_control import make_cc_factory
from repro.core import LCMPConfig, lcmp_router_factory
from repro.routing import make_router_factory
from repro.simulator import FlowDemand, FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.topology import build_testbed8, testbed8_pathset

RPC_BYTES = 20_000
SHARD_BYTES = 8_000_000
STEP_PERIOD_S = 0.25


def training_mix_demands(rounds: int, workers: int, rpcs_per_round: int):
    """Synchronized gradient bursts plus a steady trickle of small RPCs."""
    demands = []
    flow_id = 0
    for step in range(rounds):
        step_start = step * STEP_PERIOD_S
        for worker in range(workers):
            demands.append(
                FlowDemand(flow_id, "DC1", "DC8", worker % 16, worker % 16,
                           SHARD_BYTES, step_start)
            )
            flow_id += 1
        for i in range(rpcs_per_round):
            when = step_start + (i + 1) * STEP_PERIOD_S / (rpcs_per_round + 1)
            demands.append(
                FlowDemand(flow_id, "DC1", "DC8", i % 16, (i + 3) % 16,
                           RPC_BYTES, when)
            )
            flow_id += 1
    return demands


def run_policy(label, demands, topology, paths, config, router="lcmp", lcmp_config=None):
    if router == "lcmp":
        factory = lcmp_router_factory(topology, paths, lcmp_config or LCMPConfig())
    else:
        factory = make_router_factory(router)
    network = RuntimeNetwork(topology, paths, factory, config)
    result = FluidSimulation(network, demands, make_cc_factory("dcqcn"), config).run()
    rpc_records = [r for r in result.records if r.size_bytes == RPC_BYTES]
    shard_records = [r for r in result.records if r.size_bytes == SHARD_BYTES]
    return (
        SlowdownProfile.from_records(label, rpc_records),
        SlowdownProfile.from_records(label, shard_records),
    )


def main(rounds: int = 8, workers: int = 48) -> None:
    topology = build_testbed8(capacity_scale=0.1)
    paths = testbed8_pathset(topology)
    # the vectorized core (the default, spelled out): the gradient bursts
    # put ~all flows through DCQCN's in-place feedback/advance column
    # kernels every step
    config = SimulationConfig(seed=3, vectorized=True)

    demands = training_mix_demands(rounds, workers, rpcs_per_round=40)
    print(
        f"{rounds} training rounds x {workers} workers ({SHARD_BYTES / 1e6:.0f} MB shards), "
        f"plus 40 coordination RPCs per round, DC1 -> DC8 ..."
    )

    policies = [
        ("lcmp", dict(router="lcmp")),
        ("lcmp rm-beta", dict(router="lcmp", lcmp_config=LCMPConfig().ablate_congestion())),
        ("ecmp", dict(router="ecmp")),
    ]
    rpc_profiles, shard_profiles = [], []
    for label, kwargs in policies:
        rpc, shard = run_policy(label, demands, topology, paths, config, **kwargs)
        rpc_profiles.append(rpc)
        shard_profiles.append(shard)

    print("\nCoordination-RPC slowdown (these bound step latency)")
    print(slowdown_table(rpc_profiles, "p50"))
    print(slowdown_table(rpc_profiles, "p99"))
    print("\nGradient-shard slowdown")
    print(slowdown_table(shard_profiles, "p99"))

    lcmp_rpc, rm_beta_rpc, ecmp_rpc = rpc_profiles
    lcmp_shard, rm_beta_shard, ecmp_shard = shard_profiles
    print("\nTakeaway:")
    print(
        f"  RPC P99:   full LCMP {lcmp_rpc.overall_p99:6.1f}   "
        f"rm-beta {rm_beta_rpc.overall_p99:6.1f}   ECMP {ecmp_rpc.overall_p99:6.1f}"
    )
    print(
        f"  shard P99: full LCMP {lcmp_shard.overall_p99:6.1f}   "
        f"rm-beta {rm_beta_shard.overall_p99:6.1f}   ECMP {ecmp_shard.overall_p99:6.1f}"
    )
    print(
        "  ECMP sprays both classes onto 250 ms routes, wrecking the RPC tail; the\n"
        "  delay-aware variants keep RPCs on low-delay routes.  Full LCMP additionally\n"
        "  steers traffic around the queues the bursts build, which is what gives it\n"
        "  the best gradient-shard tail (the C2+C3 mechanisms of the paper).  The\n"
        "  delay-only rm-beta variant shows the best RPC tail *in this fluid model*\n"
        "  because mice are not charged FIFO queueing delay behind the bursts they\n"
        "  share a port with (see DESIGN.md, simulator notes)."
    )


if __name__ == "__main__":
    n_rounds = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    n_workers = int(sys.argv[2]) if len(sys.argv) > 2 else 48
    main(n_rounds, n_workers)
