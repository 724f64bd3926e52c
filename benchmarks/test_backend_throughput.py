"""Array-backend step-throughput gate and recorded per-backend lanes.

The numpy backend's kernels (DESIGN.md, "Array backends & kernels") must
pay for themselves: its ``bincount`` scatter-adds and uniform-path-length
reshape reductions are gated **at least 1.3×** a same-run calibration
backend end to end on a 20k-flow uniform-HPCC lane — the regime where the
per-step kernel cost dominates — with bit-identical FCTs and bit-identical
residual per-flow state between the two runs.  The calibration backend
(:class:`AddAtNumpyBackend`, defined only here) is the numpy backend with
``np.add.at`` scatter-adds and uniform-length detection turned off, so
every reduction takes the ``reduceat`` / masked-walk fallback.

The lane reuses the sustained-concurrency workload of the core
throughput gates (``build_concurrent_demands``: every flow arrives
within the first ten update steps, testbed8 at ``capacity_scale=0.1``)
plus a slice of short flows that complete inside the window, so the FCT
comparison is non-vacuous.  The simulated window is long enough that the
one-off Python arrival cost (identical on both backends, untouched by
the kernel layer) amortises against the measured steps.

The recorded ``@pytest.mark.benchmark`` lanes time every *available*
backend on the same workload for the nightly trajectory
(``BENCH_backend_throughput.json``); the torch lane additionally runs a
50k-flow fleet and asserts the step loop performed zero host↔device
transfers (CPU torch aliases the FlowTable columns; see
``repro.backend.torch_backend``).
"""

import dataclasses
import time

import numpy as np
import pytest

from repro.backend import NumpyBackend, available_backends, get_backend, torch_available
from repro.backend import core as backend_core
from repro.congestion_control import make_cc_factory
from repro.routing import make_router_factory
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig

from test_scenario_overhead import (
    _scaled,
    _testbed8_pathset,
    _write_results,
    build_concurrent_demands,
)

#: concurrency level of the backend gate
BACKEND_GATE_FLOWS = 20_000
#: required numpy-vs-calibration end-to-end ratio
MIN_FUSED_SPEEDUP = 1.3
#: simulated window of the gate lane — long enough that the per-step
#: kernel cost (what the fused kernels accelerate) dominates the one-off
#: Python arrival cost, which is identical on both backends
BACKEND_GATE_WINDOW_S = 0.5
#: leading slice of the fleet shrunk to complete inside the window, so
#: the gate's FCT bit-identity assertion compares real completions
SHORT_FLOWS = 500
SHORT_FLOW_BYTES = 250_000
#: concurrency level of the torch residency lane
TORCH_FLEET_FLOWS = 50_000


#: registry name the calibration backend is installed under, per test
CALIBRATION = "numpy_add_at"


class AddAtNumpyBackend(NumpyBackend):
    """Calibration backend: ``np.add.at`` scatter-add, no reshape paths."""

    name = CALIBRATION

    def _uniform_length(self, n_lanes, starts, lengths):
        return None

    def scatter_add(self, size: int, idx, values) -> np.ndarray:
        out = np.zeros(size)
        np.add.at(out, idx, values)
        return out


@pytest.fixture
def calibration_backend(monkeypatch):
    """Register :class:`AddAtNumpyBackend` for the length of one test."""
    monkeypatch.setitem(backend_core._FACTORIES, CALIBRATION, AddAtNumpyBackend)
    monkeypatch.setitem(backend_core._INSTANCES, CALIBRATION, AddAtNumpyBackend())
    return CALIBRATION


def build_backend_lane(num_flows: int):
    """The gate workload: sustained concurrency plus a completing slice."""
    topology, demands = build_concurrent_demands(num_flows)
    demands = [
        dataclasses.replace(d, size_bytes=float(SHORT_FLOW_BYTES))
        if i < SHORT_FLOWS
        else d
        for i, d in enumerate(demands)
    ]
    return topology, demands


def run_backend_lane(
    backend: str,
    num_flows: int = BACKEND_GATE_FLOWS,
    sim_window_s: float = BACKEND_GATE_WINDOW_S,
):
    """One uniform-HPCC run of the lane on one backend.

    Returns:
        ``(steps_per_s, fcts, residual)`` — wall-clock update steps per
        second, the completed ``(flow_id, fct_s)`` pairs, and the
        remaining-bytes column at the stop time (the mid-flight state the
        bit-identity assertion compares for the long-lived flows).
    """
    topology, demands = build_backend_lane(num_flows)
    paths = _testbed8_pathset(topology)
    config = SimulationConfig(
        seed=5,
        max_sim_time_s=sim_window_s,
        drain_timeout_s=sim_window_s,
        backend=backend,
    )
    network = RuntimeNetwork(topology, paths, make_router_factory("ecmp"), config)
    sim = FluidSimulation(network, demands, make_cc_factory("hpcc"), config)
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    steps = result.duration_s / config.update_interval_s
    fcts = [(r.flow_id, r.fct_s) for r in result.records]
    residual = sim._table.remaining_bytes.copy()
    return steps / elapsed, fcts, residual


def test_backend_fused_speedup(calibration_backend):
    """Gate: the numpy backend's fused kernels are >= 1.3x the calibration
    backend at 20k flows.

    Same re-measurement policy as the earlier throughput gates: a
    wall-clock ratio on a shared CI runner can catch an unlucky
    scheduling window, so a failing first measurement gets one
    re-measurement before the assertion fires.  The equivalence
    assertions (bit-identical FCTs and residual state) are exact and
    never retried.
    """
    reference, ref_fcts, ref_residual = run_backend_lane(calibration_backend)
    fused, fused_fcts, fused_residual = run_backend_lane("numpy")
    assert ref_fcts, "gate lane completed no flows; FCT assertion is vacuous"
    assert ref_fcts == fused_fcts
    assert np.array_equal(ref_residual, fused_residual)
    if fused / reference < MIN_FUSED_SPEEDUP:
        reference, _, _ = run_backend_lane(calibration_backend)
        fused, _, _ = run_backend_lane("numpy")
    speedup = fused / reference
    _write_results(
        "backend_throughput.txt",
        "array-backend step throughput "
        f"({BACKEND_GATE_FLOWS} concurrent flows, HPCC, testbed8)\n"
        f"calibration (add.at) : {reference:8.1f} steps/s\n"
        f"numpy                : {fused:8.1f} steps/s\n"
        f"speedup              : {speedup:8.2f}x (required >= {MIN_FUSED_SPEEDUP:g}x)\n"
        f"completed FCTs       : {len(ref_fcts)} (bit-identical)\n",
    )
    assert speedup >= MIN_FUSED_SPEEDUP, (
        f"numpy backend is only {speedup:.2f}x faster than the calibration "
        f"backend ({fused:.0f} vs {reference:.0f} steps/s)"
    )


@pytest.mark.benchmark(group="backend-throughput")
@pytest.mark.parametrize("backend", available_backends())
def test_bench_backend_throughput(benchmark, backend):
    """Recorded lane: the 20k-flow fleet per available backend."""
    flows = _scaled(BACKEND_GATE_FLOWS)
    steps_per_s = benchmark.pedantic(
        lambda: run_backend_lane(backend, num_flows=flows, sim_window_s=0.1)[0],
        rounds=2,
        iterations=1,
    )
    assert steps_per_s > 0


@pytest.mark.skipif(not torch_available(), reason="torch not installed")
def test_torch_device_resident_fleet():
    """Acceptance (this PR): torch sustains a 50k-flow fleet per step
    with zero in-step host↔device transfers.

    On CPU torch the transfer counter stays 0 by construction (the
    kernels alias the numpy columns); on a CUDA device this assertion
    is what pins the columns device-resident.
    """
    backend = get_backend("torch")
    before = backend.transfers
    steps_per_s, _, residual = run_backend_lane(
        "torch", num_flows=TORCH_FLEET_FLOWS, sim_window_s=0.05
    )
    assert steps_per_s > 0
    assert (residual > 0).sum() >= TORCH_FLEET_FLOWS - SHORT_FLOWS
    assert backend.transfers == before, (
        f"{backend.transfers - before} host<->device transfers inside the "
        "step loop; columns must stay device-resident"
    )
