"""Benchmarks — scenario overhead, core throughput, control-plane batching.

Attaching a scenario must cost essentially nothing when no event fires: the
injector schedules events up front, the per-step fast-failover sweep existed
before the scenario engine, and an empty timeline schedules nothing at all.
Two properties are asserted exactly (identical engine event counts and
bit-identical FCTs with and without an empty scenario) and the wall-clock
cost of both paths is measured for the record.

The second part holds the step-throughput benchmarks over the three
bit-for-bit equivalent update cores:

* **scalar** — the pure-Python reference loop
  (``SimulationConfig(vectorized=False)``);
* **legacy** — the PR-2 object-resident vectorized core
  (``vectorized=True, soa=False``): array math, but per-flow state in
  Python objects, crossing the Python↔numpy boundary O(flows) per step;
* **soa** — the structure-of-arrays FlowTable core (the default): per-flow
  and congestion-control state resident in table columns, O(1) boundary
  crossings per step.

Two gates are asserted there: the default core is **at least 3x** the
scalar reference at >= 500 concurrent flows, and **at least 2x** the
legacy vectorized core at >= 2000 concurrent flows (the SoA acceptance
criterion).

The third part holds the **array-resident congestion control** gate: a
uniform non-DCQCN fleet (HPCC, 2000 flows, the regime the CC-comparison
figure runs) compared between the per-class column-block kernels
(``cc_blocks=True``, the default: in-place ``feedback_batch_slots`` /
``advance_batch_slots`` on the FlowTable block) and the retained
object-gather dispatch (``cc_blocks=False``: gather the controller objects
off the table, loop ``on_feedback``/``on_interval``).  Gate: **at least
2x** end-to-end, with FCTs asserted bit-identical between the two paths.

The fourth part measures the **array-resident control plane** (PR 4): a
monitored, arrival-heavy LCMP run — burst arrivals, queue monitor plus
estimator feed at the default 1 ms cadence, link tracing on — compared
between the batched control plane (telemetry columns + batched arrivals +
``select_batch``, the default) and the PR-3 configuration
(``batched_control=False``: one heap event and one sequential ``select``
chain per flow, per-port sample objects every tick).  Gate: **at least
1.5x** end-to-end at >= 2000 flows, with FCTs asserted bit-identical
between the two paths.

The fifth part gates the **observability plane** (see DESIGN.md,
"Observability plane"): running the 2000-flow HPCC lane with
``SimulationConfig(instrumentation=True)`` — phase timers around every step
sub-phase plus the slow-path counters — must cost **at most 3 %** wall
clock against the uninstrumented run, with bit-identical FCTs.  The
recorded ``test_bench_phase_profile`` lane additionally writes the per-phase
breakdown (``BENCH_phase_breakdown.json``) and a perfetto-loadable Chrome
trace (``BENCH_step_trace.trace.json``) next to the wall-clock trajectory.

The sixth part gates the **LCMP register sweep** on a generated fabric:
LCMP + DCQCN and ECMP + DCQCN run instrumented on the same 72-DC fabric in
one process.  ECMP's ``step.monitor`` is the telemetry sweep alone; LCMP's
adds the update of every port's congestion and liveness registers.  Gate:
LCMP's ``step.monitor`` time per sweep is **at most 3x** ECMP's (the
per-switch Python estimator it replaced cost ~19x here).

Absolute numbers land in ``benchmarks/results/*.txt`` (see
benchmarks/README.md); the ``@pytest.mark.benchmark`` lanes feed
``--benchmark-json`` so the CI benchmark jobs can record the perf
trajectory (``BENCH_step_throughput.json``).
"""

import json
import os
import pathlib
import time

import pytest

from repro.analysis import perf_report, phase_breakdown_json
from repro.congestion_control import make_cc_factory
from repro.obs import write_chrome_trace
from repro.core import lcmp_router_factory
from repro.routing import make_router_factory
from repro.experiments import ExperimentRunner, ExperimentSpec
from repro.scenarios import Scenario
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.simulator.flow import FlowDemand
from repro.topology import FabricSpec, build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator

NUM_FLOWS = 300
#: concurrency level of the vectorized-vs-scalar benchmark (the PR-2
#: acceptance criterion calls for at least 500 concurrent flows)
CONCURRENT_FLOWS = 550
#: required vectorized-vs-scalar step-throughput ratio
MIN_SPEEDUP = 3.0
#: concurrency level of the SoA-vs-legacy benchmark (the FlowTable
#: acceptance criterion calls for at least 2000 concurrent flows)
HIGH_CONCURRENCY_FLOWS = 2000
#: required SoA-vs-legacy step-throughput ratio at high concurrency
MIN_SOA_SPEEDUP = 2.0
#: simulated window of the high-concurrency lane (shorter than the 550-flow
#: lane: the legacy and scalar baselines pay O(flows) Python work per step)
HIGH_CONCURRENCY_WINDOW_S = 0.25

#: per-core SimulationConfig overrides
_MODES = {
    "scalar": dict(vectorized=False),
    "legacy": dict(vectorized=True, soa=False),
    "soa": dict(vectorized=True, soa=True),
}

#: flow-count scale for the recorded ``test_bench_*`` lanes only — the CI
#: quick-bench smoke job sets REPRO_BENCH_SCALE=0.25 so a PR run finishes
#: in seconds; the speedup *gates* always run at full size
_BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def _scaled(num_flows: int) -> int:
    return max(50, int(num_flows * _BENCH_SCALE))


def build_inputs():
    topology = build_testbed8(capacity_scale=0.1)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(seed=5)
    traffic = TrafficConfig(
        workload="websearch", load=0.3, num_flows=NUM_FLOWS,
        pairs=[("DC1", "DC8")], seed=5,
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    return topology, paths, config, demands


def run_once(topology, paths, config, demands, scenario=None):
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    sim = FluidSimulation(
        network, demands, make_cc_factory("dcqcn"), config, scenario=scenario
    )
    return sim, sim.run()


def test_empty_scenario_adds_zero_events():
    """The no-event path must not add a single engine event nor perturb FCTs."""
    topology, paths, config, demands = build_inputs()
    plain_sim, plain = run_once(topology, paths, config, demands)
    scen_sim, scen = run_once(
        topology, paths, config, demands, scenario=Scenario(name="noop")
    )
    assert plain_sim.engine.processed_events == scen_sim.engine.processed_events
    assert len(plain.records) == len(scen.records) == NUM_FLOWS
    assert [r.fct_s for r in plain.records] == [r.fct_s for r in scen.records]
    assert scen.scenario_metrics is not None and scen.scenario_metrics.outcomes == []


@pytest.mark.benchmark(group="scenario-overhead")
def test_bench_run_without_scenario(benchmark):
    topology, paths, config, demands = build_inputs()
    result = benchmark.pedantic(
        lambda: run_once(topology, paths, config, demands)[1],
        rounds=3,
        iterations=1,
    )
    assert result.unfinished_flows == 0


@pytest.mark.benchmark(group="scenario-overhead")
def test_bench_run_with_empty_scenario(benchmark):
    topology, paths, config, demands = build_inputs()
    result = benchmark.pedantic(
        lambda: run_once(
            topology, paths, config, demands, scenario=Scenario(name="noop")
        )[1],
        rounds=3,
        iterations=1,
    )
    assert result.unfinished_flows == 0
    assert result.scenario_metrics is not None


# --------------------------------------------------------------------- #
# vectorized-core step throughput
# --------------------------------------------------------------------- #
def build_concurrent_demands(num_flows: int = CONCURRENT_FLOWS):
    """A sustained-concurrency workload: every flow arrives within the
    first ten update steps and is large enough to stay active for the
    whole measured window, so each step advances ~``num_flows`` flows."""
    topology = build_testbed8(capacity_scale=0.1)
    hosts = topology.host_groups["DC1"].count
    demands = [
        FlowDemand(
            flow_id=i,
            src_dc="DC1" if i % 2 == 0 else "DC8",
            dst_dc="DC8" if i % 2 == 0 else "DC1",
            src_host=i % hosts,
            dst_host=(i * 7 + 1) % hosts,
            size_bytes=40_000_000,
            arrival_s=0.001 * (i % 10) + 1e-4,
        )
        for i in range(num_flows)
    ]
    return topology, demands


def measure_step_throughput(
    mode: str, num_flows: int = CONCURRENT_FLOWS, sim_window_s: float = 0.5
) -> float:
    """Wall-clock update steps per second over a fixed simulated window.

    Args:
        mode: ``"scalar"``, ``"legacy"`` (PR-2 object-resident vectorized
            core) or ``"soa"`` (FlowTable core, the default).
        num_flows: sustained concurrency level.
        sim_window_s: simulated window to run.
    """
    topology, demands = build_concurrent_demands(num_flows)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=5,
        max_sim_time_s=sim_window_s,
        drain_timeout_s=sim_window_s,
        **_MODES[mode],
    )
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    sim = FluidSimulation(network, demands, make_cc_factory("dcqcn"), config)
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    steps = result.duration_s / config.update_interval_s
    return steps / elapsed


def _write_results(name: str, text: str) -> None:
    out = pathlib.Path(__file__).parent / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text)


def test_vectorized_step_throughput_speedup():
    """Acceptance (PR 2): >= 3x step throughput at >= 500 concurrent flows.

    The measured headroom is large (~9x with the SoA core on a single
    developer core), but wall-clock ratios on shared CI runners can catch
    an unlucky scheduling window, so a failing first measurement gets one
    re-measurement before the assertion fires.
    """
    scalar = measure_step_throughput("scalar")
    vectorized = measure_step_throughput("soa")
    if vectorized / scalar < MIN_SPEEDUP:
        scalar = measure_step_throughput("scalar")
        vectorized = measure_step_throughput("soa")
    speedup = vectorized / scalar
    _write_results(
        "vectorized_step_throughput.txt",
        "vectorized-core step throughput "
        f"({CONCURRENT_FLOWS} concurrent flows, DCQCN, testbed8)\n"
        f"scalar reference : {scalar:8.1f} steps/s\n"
        f"vectorized core  : {vectorized:8.1f} steps/s\n"
        f"speedup          : {speedup:8.2f}x (required >= {MIN_SPEEDUP:g}x)\n",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized core is only {speedup:.2f}x faster "
        f"({vectorized:.0f} vs {scalar:.0f} steps/s)"
    )


def test_soa_step_throughput_speedup():
    """Acceptance (this PR): the SoA FlowTable core is >= 2x the PR-2
    object-resident vectorized core at >= 2000 concurrent flows.

    Same re-measurement policy as the scalar gate above (one retry covers
    unlucky scheduling windows on shared CI runners).
    """
    legacy = measure_step_throughput(
        "legacy", HIGH_CONCURRENCY_FLOWS, HIGH_CONCURRENCY_WINDOW_S
    )
    soa = measure_step_throughput(
        "soa", HIGH_CONCURRENCY_FLOWS, HIGH_CONCURRENCY_WINDOW_S
    )
    if soa / legacy < MIN_SOA_SPEEDUP:
        legacy = measure_step_throughput(
            "legacy", HIGH_CONCURRENCY_FLOWS, HIGH_CONCURRENCY_WINDOW_S
        )
        soa = measure_step_throughput(
            "soa", HIGH_CONCURRENCY_FLOWS, HIGH_CONCURRENCY_WINDOW_S
        )
    speedup = soa / legacy
    _write_results(
        "soa_step_throughput.txt",
        "SoA FlowTable core vs PR-2 object-resident vectorized core "
        f"({HIGH_CONCURRENCY_FLOWS} concurrent flows, DCQCN, testbed8)\n"
        f"legacy vectorized : {legacy:8.1f} steps/s\n"
        f"SoA FlowTable     : {soa:8.1f} steps/s\n"
        f"speedup           : {speedup:8.2f}x (required >= {MIN_SOA_SPEEDUP:g}x)\n",
    )
    assert speedup >= MIN_SOA_SPEEDUP, (
        f"SoA core is only {speedup:.2f}x faster than the legacy "
        f"vectorized core ({soa:.0f} vs {legacy:.0f} steps/s)"
    )


@pytest.mark.benchmark(group="step-throughput")
@pytest.mark.parametrize("mode", ["legacy", "soa"])
def test_bench_step_throughput_high_concurrency(benchmark, mode):
    """Recorded lanes for the perf trajectory (``--benchmark-json``).

    One round runs the full high-concurrency window through the named
    core; the CI benchmark job stores the timings as
    ``BENCH_step_throughput.json`` at the repo root.
    """
    benchmark.pedantic(
        lambda: measure_step_throughput(
            mode, _scaled(HIGH_CONCURRENCY_FLOWS), HIGH_CONCURRENCY_WINDOW_S
        ),
        rounds=2,
        iterations=1,
    )


# --------------------------------------------------------------------- #
# array-resident congestion control (per-class column-block kernels)
# --------------------------------------------------------------------- #
#: fleet size of the CC dispatch lane (the acceptance criterion calls for
#: a uniform 2000-flow non-DCQCN fleet)
CC_FLEET_FLOWS = 2000
#: required block-kernel vs object-gather end-to-end speedup
MIN_CC_BLOCK_SPEEDUP = 2.0
#: simulated window of the CC dispatch lane
CC_FLEET_WINDOW_S = 0.25


def build_cc_fleet_demands(num_flows: int = CC_FLEET_FLOWS):
    """A sustained-concurrency fleet with enough small flows mixed in that
    a few hundred complete inside the window — the FCT comparison between
    the two dispatch paths needs completed records, while the big flows
    keep ~``num_flows`` controllers active every step."""
    topology = build_testbed8(capacity_scale=0.1)
    hosts = topology.host_groups["DC1"].count
    demands = [
        FlowDemand(
            flow_id=i,
            src_dc="DC1" if i % 2 == 0 else "DC8",
            dst_dc="DC8" if i % 2 == 0 else "DC1",
            src_host=i % hosts,
            dst_host=(i * 7 + 1) % hosts,
            size_bytes=80_000 if i % 4 == 0 else 30_000_000,
            arrival_s=0.001 * (i % 10) + 1e-4,
        )
        for i in range(num_flows)
    ]
    return topology, demands


def run_cc_fleet(
    cc_blocks: bool,
    cc: str = "hpcc",
    num_flows: int = CC_FLEET_FLOWS,
    instrumentation: bool = False,
):
    """One uniform-CC SoA run; returns (wall seconds, result)."""
    topology, demands = build_cc_fleet_demands(num_flows)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=5,
        cc_blocks=cc_blocks,
        max_sim_time_s=CC_FLEET_WINDOW_S,
        drain_timeout_s=CC_FLEET_WINDOW_S,
        instrumentation=instrumentation,
    )
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    sim = FluidSimulation(network, demands, make_cc_factory(cc), config)
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result


def test_cc_block_dispatch_speedup():
    """Acceptance (this PR): the per-class column-block CC kernels are
    >= 2x the retained object-gather dispatch on a uniform 2000-flow HPCC
    fleet, with bit-identical FCTs.

    Same re-measurement policy as the core gates above (one retry covers
    unlucky scheduling windows on shared CI runners).
    """
    blocks_s, blocks_result = run_cc_fleet(cc_blocks=True)
    object_s, object_result = run_cc_fleet(cc_blocks=False)
    # the perf gate is only meaningful because the answer is unchanged
    assert blocks_result.unfinished_flows == object_result.unfinished_flows
    assert blocks_result.slowdowns() == object_result.slowdowns()
    assert len(blocks_result.slowdowns()) > 100
    if object_s / blocks_s < MIN_CC_BLOCK_SPEEDUP:
        blocks_s, _ = run_cc_fleet(cc_blocks=True)
        object_s, _ = run_cc_fleet(cc_blocks=False)
    speedup = object_s / blocks_s
    _write_results(
        "cc_block_throughput.txt",
        "per-class CC column-block kernels vs object-gather dispatch "
        f"({CC_FLEET_FLOWS} concurrent flows, uniform HPCC, testbed8)\n"
        f"object-gather dispatch : {object_s:8.3f} s\n"
        f"column-block kernels   : {blocks_s:8.3f} s\n"
        f"speedup                : {speedup:8.2f}x (required >= "
        f"{MIN_CC_BLOCK_SPEEDUP:g}x)\n",
    )
    assert speedup >= MIN_CC_BLOCK_SPEEDUP, (
        f"CC block kernels are only {speedup:.2f}x faster "
        f"({blocks_s:.3f}s vs {object_s:.3f}s)"
    )


@pytest.mark.benchmark(group="cc-dispatch")
@pytest.mark.parametrize("mode", ["object", "blocks"])
def test_bench_cc_dispatch(benchmark, mode):
    """Recorded CC dispatch lanes for the perf trajectory."""
    benchmark.pedantic(
        lambda: run_cc_fleet(
            cc_blocks=(mode == "blocks"), num_flows=_scaled(CC_FLEET_FLOWS)
        )[0],
        rounds=2,
        iterations=1,
    )


# --------------------------------------------------------------------- #
# array-resident control plane (batched arrivals + telemetry columns)
# --------------------------------------------------------------------- #
#: flow count of the monitored control-plane lane (the acceptance
#: criterion calls for at least 2000 flows)
CONTROL_PLANE_FLOWS = 3000
#: flow size: small enough that the run is arrival/decision-dominated
CONTROL_PLANE_FLOW_BYTES = 150_000
#: required batched-vs-PR-3 end-to-end speedup
MIN_CONTROL_PLANE_SPEEDUP = 1.5


def build_burst_demands(num_flows: int = CONTROL_PLANE_FLOWS):
    """An arrival-heavy workload: five back-to-back waves of simultaneous
    flows between DC1 and DC8, sized so most decisions happen while the
    network is busy and the whole run stays short — the regime where the
    per-flow control plane (heap event + sequential select chain per flow)
    dominates the PR-3 wall clock."""
    topology = build_testbed8(capacity_scale=0.1)
    hosts = topology.host_groups["DC1"].count
    demands = [
        FlowDemand(
            flow_id=i,
            src_dc="DC1" if i % 2 == 0 else "DC8",
            dst_dc="DC8" if i % 2 == 0 else "DC1",
            src_host=i % hosts,
            dst_host=(i * 7 + 1) % hosts,
            size_bytes=CONTROL_PLANE_FLOW_BYTES,
            arrival_s=0.001 * (i % 5) + 1e-4,
        )
        for i in range(num_flows)
    ]
    return topology, demands


def run_control_plane(batched: bool, num_flows: int = CONTROL_PLANE_FLOWS):
    """One monitored LCMP run; returns (wall seconds, result)."""
    topology, demands = build_burst_demands(num_flows)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=5, batched_control=batched, max_sim_time_s=5.0, drain_timeout_s=5.0
    )
    network = RuntimeNetwork(
        topology, paths, lcmp_router_factory(topology, paths), config
    )
    sim = FluidSimulation(
        network, demands, make_cc_factory("dcqcn"), config, trace_links=True
    )
    start = time.perf_counter()
    result = sim.run()
    return time.perf_counter() - start, result


def test_control_plane_batching_speedup():
    """Acceptance (this PR): the array-resident control plane is >= 1.5x
    the PR-3 per-flow configuration on a monitored >= 2000-flow run, with
    bit-identical results.

    Same re-measurement policy as the core gates above (one retry covers
    unlucky scheduling windows on shared CI runners).
    """
    batched_s, batched_result = run_control_plane(batched=True)
    legacy_s, legacy_result = run_control_plane(batched=False)
    assert batched_result.unfinished_flows == 0
    assert legacy_result.unfinished_flows == 0
    # the perf gate is only meaningful because the answer is unchanged
    assert batched_result.slowdowns() == legacy_result.slowdowns()
    if legacy_s / batched_s < MIN_CONTROL_PLANE_SPEEDUP:
        batched_s, _ = run_control_plane(batched=True)
        legacy_s, _ = run_control_plane(batched=False)
    speedup = legacy_s / batched_s
    _write_results(
        "control_plane_throughput.txt",
        "array-resident control plane vs PR-3 per-flow control plane "
        f"({CONTROL_PLANE_FLOWS} flows, LCMP, monitor+trace on, testbed8)\n"
        f"PR-3 control plane    : {legacy_s:8.3f} s\n"
        f"batched control plane : {batched_s:8.3f} s\n"
        f"speedup               : {speedup:8.2f}x (required >= "
        f"{MIN_CONTROL_PLANE_SPEEDUP:g}x)\n",
    )
    assert speedup >= MIN_CONTROL_PLANE_SPEEDUP, (
        f"batched control plane is only {speedup:.2f}x faster "
        f"({batched_s:.3f}s vs {legacy_s:.3f}s)"
    )


@pytest.mark.benchmark(group="control-plane")
@pytest.mark.parametrize("mode", ["pr3", "batched"])
def test_bench_control_plane(benchmark, mode):
    """Recorded control-plane lanes for the perf trajectory."""
    benchmark.pedantic(
        lambda: run_control_plane(
            batched=(mode == "batched"), num_flows=_scaled(CONTROL_PLANE_FLOWS)
        )[0],
        rounds=2,
        iterations=1,
    )


# --------------------------------------------------------------------- #
# observability plane (phase timers + counters)
# --------------------------------------------------------------------- #
#: maximum tolerated instrumentation wall-clock ratio on the 2000-flow
#: HPCC lane (instrumented / uninstrumented)
MAX_INSTRUMENTATION_OVERHEAD = 1.03


def _min_fleet_times(rounds: int = 3):
    """Best-of-``rounds`` wall time of the HPCC lane, off and on.

    Interleaved (off, on, off, on, ...) so a drifting machine load hits
    both configurations equally, and min-reduced so one unlucky scheduling
    window cannot dominate either side.
    """
    base = []
    instrumented = []
    for _ in range(rounds):
        base.append(run_cc_fleet(cc_blocks=True)[0])
        instrumented.append(run_cc_fleet(cc_blocks=True, instrumentation=True)[0])
    return min(base), min(instrumented)


def test_instrumentation_overhead():
    """Acceptance (this PR): instrumentation costs <= 3 % on the 2000-flow
    HPCC lane, with bit-identical FCTs and a populated stats snapshot.

    Same re-measurement policy as the other gates (one retry covers
    unlucky scheduling windows on shared CI runners) — with the tighter
    3 % bound the timing rounds are additionally interleaved and
    min-reduced.
    """
    _, base_result = run_cc_fleet(cc_blocks=True)
    _, inst_result = run_cc_fleet(cc_blocks=True, instrumentation=True)
    # instrumentation must not change the answer, only describe the run
    assert inst_result.slowdowns() == base_result.slowdowns()
    assert base_result.stats is None
    assert inst_result.stats is not None
    assert inst_result.stats["phases"]["step.update"]["count"] > 0

    base_s, inst_s = _min_fleet_times()
    if inst_s / base_s > MAX_INSTRUMENTATION_OVERHEAD:
        base_s, inst_s = _min_fleet_times()
    ratio = inst_s / base_s
    _write_results(
        "instrumentation_overhead.txt",
        "observability-plane overhead "
        f"({CC_FLEET_FLOWS} concurrent flows, uniform HPCC, testbed8)\n"
        f"uninstrumented : {base_s:8.3f} s\n"
        f"instrumented   : {inst_s:8.3f} s\n"
        f"overhead       : {(ratio - 1.0):8.2%} (allowed <= "
        f"{MAX_INSTRUMENTATION_OVERHEAD - 1.0:.0%})\n",
    )
    assert ratio <= MAX_INSTRUMENTATION_OVERHEAD, (
        f"instrumentation costs {(ratio - 1.0):.2%} wall clock "
        f"({inst_s:.3f}s vs {base_s:.3f}s)"
    )


@pytest.mark.benchmark(group="phase-profile")
def test_bench_phase_profile(benchmark):
    """Recorded per-phase profile lane.

    Runs the HPCC lane instrumented and writes, next to the wall-clock
    trajectory at the repo root:

    * ``BENCH_phase_breakdown.json`` — the structured per-phase/counter
      breakdown (:func:`repro.analysis.phase_breakdown_json`, schema in
      benchmarks/README.md);
    * ``BENCH_step_trace.trace.json`` — a perfetto-loadable Chrome trace
      of the run's spans;
    * ``results/phase_profile.txt`` — the human-readable top-N report.
    """
    holder = {}

    def go():
        topology, demands = build_cc_fleet_demands(_scaled(CC_FLEET_FLOWS))
        paths = _testbed8_pathset(topology)
        config = SimulationConfig(
            seed=5,
            instrumentation=True,
            max_sim_time_s=CC_FLEET_WINDOW_S,
            drain_timeout_s=CC_FLEET_WINDOW_S,
        )
        network = RuntimeNetwork(
            topology, paths, make_router_factory("ecmp"), config
        )
        sim = FluidSimulation(network, demands, make_cc_factory("hpcc"), config)
        holder["sim"] = sim
        holder["result"] = sim.run()

    benchmark.pedantic(go, rounds=1, iterations=1)
    sim, result = holder["sim"], holder["result"]
    root = pathlib.Path(__file__).resolve().parent.parent
    breakdown = phase_breakdown_json(result.stats)
    assert breakdown["phases"], "instrumented run recorded no phases"
    (root / "BENCH_phase_breakdown.json").write_text(
        json.dumps(breakdown, indent=2)
    )
    write_chrome_trace(sim.obs, root / "BENCH_step_trace.trace.json")
    _write_results("phase_profile.txt", perf_report(result.stats))


# ---------------------------------------------------------------------- #
# LCMP register sweep on a generated fabric
# ---------------------------------------------------------------------- #
#: 4 regions x (2 cores + 4 aggs + 12 edges) = 72 DCs, 220 monitored ports
MONITOR_FABRIC = FabricSpec(
    name="monitor-lane", seed=5, regions=4, cores_per_region=2, aggs_per_core=2,
    edges_per_agg=3,
)
MONITOR_FLOWS = 400
#: LCMP's step.monitor time per sweep over ECMP's (ECMP's is the sweep alone)
MAX_LCMP_MONITOR_RATIO = 3.0


def _monitor_pairs():
    """Edge pairs two regions apart, so traffic crosses the backbone."""
    regions = MONITOR_FABRIC.regions
    pairs = []
    for r in range(regions):
        other = (r + regions // 2) % regions
        pairs += [(f"R{r}E0x0x0", f"R{other}E1x1x2"), (f"R{r}E1x0x1", f"R{other}E0x1x0")]
    return tuple(pairs)


def fabric_monitor_us_per_sweep(router: str) -> float:
    """Mean ``step.monitor`` time per sweep (us) of one instrumented run."""
    spec = ExperimentSpec(
        name=f"monitor-{router}",
        topology="fabric",
        fabric=MONITOR_FABRIC,
        pairs=_monitor_pairs(),
        router=router,
        cc="dcqcn",
        load=0.5,
        num_flows=_scaled(MONITOR_FLOWS),
        seed=3,
        instrumentation=True,
    )
    phase = ExperimentRunner().run(spec).result.stats["phases"]["step.monitor"]
    return phase["total_ns"] / phase["count"] / 1e3


@pytest.mark.benchmark(group="fabric-monitor")
def test_bench_fabric_monitor(benchmark):
    """Gate: LCMP's per-sweep monitor time is at most 3x ECMP's.

    Both runs share one process and one fabric.  One re-measurement
    covers an unlucky scheduling window, as for the other gates.
    """
    holder = {}

    def go():
        holder["lcmp"] = fabric_monitor_us_per_sweep("lcmp")
        holder["ecmp"] = fabric_monitor_us_per_sweep("ecmp")

    benchmark.pedantic(go, rounds=1, iterations=1)
    if holder["lcmp"] / holder["ecmp"] > MAX_LCMP_MONITOR_RATIO:
        go()
    lcmp_us, ecmp_us = holder["lcmp"], holder["ecmp"]
    ratio = lcmp_us / ecmp_us
    _write_results(
        "fabric_monitor.txt",
        f"step.monitor per sweep ({MONITOR_FABRIC.num_dcs}-DC generated fabric, "
        f"{_scaled(MONITOR_FLOWS)} flows, DCQCN)\n"
        f"lcmp  : {lcmp_us:8.1f} us\n"
        f"ecmp  : {ecmp_us:8.1f} us\n"
        f"ratio : {ratio:8.2f}x (allowed <= {MAX_LCMP_MONITOR_RATIO:g}x)\n",
    )
    assert ratio <= MAX_LCMP_MONITOR_RATIO, (
        f"LCMP step.monitor costs {ratio:.2f}x ECMP's per sweep "
        f"({lcmp_us:.1f} us vs {ecmp_us:.1f} us)"
    )
