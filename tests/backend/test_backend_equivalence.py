"""End-to-end backend equivalence: full simulations across array backends.

The numpy backend promises **bitwise** identity with the scalar core on
every observable output (FCT records, link stats, failures, scenario
outcomes); the torch backend (exercised only where torch is installed)
promises equivalence within the documented tolerance.  These runs cover
the paths the kernels rewired: offered-load scatter-add, queue/ECN
reductions, feedback delivery, batched routing and the CC slot kernels.
"""

from __future__ import annotations

import pytest

from repro.congestion_control import make_cc_factory, make_mixed_cc_factory
from repro.routing import make_router_factory
from repro.scenarios.invariants import (
    assert_results_close,
    assert_results_identical,
)
from repro.simulator import FluidSimulation, RuntimeNetwork, SimulationConfig
from repro.topology import build_testbed8
from repro.topology import testbed8_pathset as _testbed8_pathset
from repro.workloads import TrafficConfig, TrafficGenerator

CCS = ["dcqcn", "hpcc", "timely", "dctcp", "ideal"]
ROUTERS = ["ecmp", "wcmp", "ucmp", "redte"]


def run_with(backend, cc="dcqcn", router="ecmp", cc_mix=None, seed=7):
    """One small-but-complete testbed8 run on the given backend.

    ``backend=None`` runs the scalar core (the executable specification).
    """
    topology = build_testbed8(capacity_scale=0.1)
    paths = _testbed8_pathset(topology)
    if backend is None:
        config = SimulationConfig(seed=seed, vectorized=False)
    else:
        config = SimulationConfig(seed=seed, backend=backend)
    traffic = TrafficConfig(
        workload="websearch", load=0.4, num_flows=300,
        pairs=[("DC1", "DC8"), ("DC2", "DC7")], seed=seed,
    )
    demands = TrafficGenerator(topology, paths, traffic).generate()
    network = RuntimeNetwork(topology, paths, make_router_factory(router), config)
    if cc_mix is not None:
        factory = make_mixed_cc_factory(cc_mix, seed=seed)
    else:
        factory = make_cc_factory(cc)
    sim = FluidSimulation(network, demands, factory, config)
    result = sim.run()
    assert result.records, "equivalence run completed no flows"
    return result


class TestNumpyBitIdentity:
    @pytest.mark.parametrize("cc", CCS)
    def test_numpy_identical_to_scalar_per_cc(self, cc):
        scalar = run_with(None, cc=cc)
        vector = run_with("numpy", cc=cc)
        assert_results_identical(scalar, vector, label=f"scalar vs numpy [{cc}]")

    @pytest.mark.parametrize("router", ROUTERS)
    def test_numpy_identical_to_scalar_per_router(self, router):
        scalar = run_with(None, router=router)
        vector = run_with("numpy", router=router)
        assert_results_identical(
            scalar, vector, label=f"scalar vs numpy [{router}]"
        )

    def test_numpy_identical_to_scalar_lcmp(self):
        from repro.core import lcmp_router_factory

        def run(config):
            topology = build_testbed8(capacity_scale=0.1)
            paths = _testbed8_pathset(topology)
            traffic = TrafficConfig(
                workload="websearch", load=0.4, num_flows=200,
                pairs=[("DC1", "DC8")], seed=3,
            )
            demands = TrafficGenerator(topology, paths, traffic).generate()
            factory = lcmp_router_factory(topology, paths)
            network = RuntimeNetwork(topology, paths, factory, config)
            sim = FluidSimulation(network, demands, make_cc_factory("dcqcn"), config)
            return sim.run()

        assert_results_identical(
            run(SimulationConfig(seed=3, vectorized=False)),
            run(SimulationConfig(seed=3, backend="numpy")),
            label="scalar vs numpy [lcmp]",
        )

    def test_numpy_identical_to_scalar_mixed_cc_fleet(self):
        mix = (("dcqcn", 0.5), ("hpcc", 0.3), ("dctcp", 0.2))
        scalar = run_with(None, cc_mix=mix)
        vector = run_with("numpy", cc_mix=mix)
        assert_results_identical(scalar, vector, label="scalar vs numpy [mix]")


class TestTorchTolerance:
    def test_torch_within_tolerance(self):
        pytest.importorskip("torch")
        reference = run_with("numpy")
        torch_run = run_with("torch")
        assert_results_close(reference, torch_run, label="numpy vs torch")

    @pytest.mark.parametrize("cc", ["hpcc", "dctcp"])
    def test_torch_within_tolerance_per_cc(self, cc):
        pytest.importorskip("torch")
        reference = run_with("numpy", cc=cc)
        torch_run = run_with("torch", cc=cc)
        assert_results_close(reference, torch_run, label=f"numpy vs torch [{cc}]")
