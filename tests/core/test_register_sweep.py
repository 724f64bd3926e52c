"""Parity of LCMP's vectorized register sweep with the scalar estimator.

Two copies of one network see the same port states.  One is fed by the
telemetry plane (``TelemetryPlane.feed_routers``: one column update for
every LCMP port), the other by the scalar spec
(``RuntimeNetwork.sample_all_ports``: ``CongestionEstimator.observe`` and
``PortLivenessTracker.observe`` per port).  After every step each register
of each port, its liveness and ``congestion_score`` must be identical.
The generated cases cover shrinking queues, cadence changes, queues sitting
exactly on threshold values, ports going down and up, capacity changes,
unprovisioned switches, switches with their own config, and scalar samples
between sweeps (the scenario injector's port-down signal).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    ControlPlane,
    CongestionEstimator,
    LCMPConfig,
    LCMPRouter,
    PortLivenessTracker,
    SwitchTables,
)
from repro.core.congestion import PortRegisters, RegisterColumns, observe_rows
from repro.simulator import RuntimeNetwork, SimulationConfig, TelemetryPlane
from repro.topology import GBPS, FabricSpec, build_fabric, fabric_pathset

SMALL_FABRIC = FabricSpec(
    name="small", seed=3, regions=3, cores_per_region=2, aggs_per_core=2, edges_per_agg=1
)

_TOPOLOGY = build_fabric(SMALL_FABRIC, capacity_scale=0.1)
_PATHS = fabric_pathset(_TOPOLOGY)
_DCS = sorted(_TOPOLOGY.dcs)
#: switches left unprovisioned (they bootstrap tables from their first port)
_BARE = frozenset(_DCS[::5])
#: switches with their own estimator config (a second sweep group)
_OTHER_CONFIG = frozenset(_DCS[1::4]) - _BARE
_OTHER = LCMPConfig(trend_ewma_shift=2, high_water_level=5, duration_decay=1)


def build_network() -> RuntimeNetwork:
    default = ControlPlane(_TOPOLOGY, _PATHS)
    other = ControlPlane(_TOPOLOGY, _PATHS, config=_OTHER)

    def factory(dc):
        if dc in _BARE:
            return LCMPRouter()
        plane = other if dc in _OTHER_CONFIG else default
        router = LCMPRouter(config=plane.config)
        plane.install(router, dc)
        return router

    return RuntimeNetwork(_TOPOLOGY, _PATHS, factory, SimulationConfig())


def _links(network):
    return [link for switch in network.switches.values() for link in switch.ports.values()]


def _thresholds():
    buffers = {link.buffer_bytes for link in _links(build_network())}
    values = set()
    for buffer in buffers:
        values.update(SwitchTables.bootstrap(LCMPConfig(), 1.0, buffer).queue_thresholds)
    return sorted(values)


_THRESHOLDS = _thresholds()
_NUM_LINKS = len(_links(build_network()))

queue_value = st.one_of(
    st.sampled_from(_THRESHOLDS),
    st.floats(min_value=0.0, max_value=1.3 * max(_THRESHOLDS), allow_nan=False),
    st.integers(min_value=0, max_value=4096).map(float),
)
step = st.fixed_dictionaries(
    {
        "dt": st.sampled_from([1e-3, 1e-3, 1e-3, 5e-4, 2.5e-3, 0.0]),
        "queues": st.lists(
            st.tuples(st.integers(0, _NUM_LINKS - 1), queue_value), max_size=12
        ),
        "flaps": st.lists(st.integers(0, _NUM_LINKS - 1), max_size=2),
        "capacity": st.lists(
            st.tuples(st.integers(0, _NUM_LINKS - 1), st.sampled_from([0.25, 0.5, 1.0])),
            max_size=1,
        ),
        "scalar_between": st.booleans(),
    }
)


def apply_step(network, spec, now):
    links = _links(network)
    for i, value in spec["queues"]:
        links[i].queue_bytes = value
    for i in spec["flaps"]:
        if links[i].up:
            links[i].fail()
        else:
            links[i].recover()
    for i, factor in spec["capacity"]:
        links[i].set_capacity_factor(factor, now)


def assert_same_registers(swept, scalar):
    for dc in _DCS:
        a = swept.switch(dc).router
        b = scalar.switch(dc).router
        assert a.installed == b.installed, dc
        assert a.tables == b.tables, dc
        assert a.liveness.down_ports == b.liveness.down_ports, dc
        ports = list(swept.switch(dc).ports)
        assert b.estimator is None or b.estimator.ports() == sorted(ports), dc
        for port in ports:
            assert a.liveness.is_up(port) == b.liveness.is_up(port)
            if b.estimator is None:
                assert a.estimator is None
                continue
            state_a = dataclasses.asdict(a.estimator.port_state(port))
            state_b = dataclasses.asdict(b.estimator.port_state(port))
            assert state_a == state_b, (dc, port)
            assert a.estimator.congestion_score(port) == b.estimator.congestion_score(port)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(steps=st.lists(step, min_size=1, max_size=25), start_scalar=st.booleans())
def test_sweep_matches_scalar_observe(steps, start_scalar):
    swept, scalar = build_network(), build_network()
    plane = TelemetryPlane(swept)
    now = 0.0
    if start_scalar:
        # registers written before the first sweep move into the plane's columns
        swept.sample_all_ports(now)
        scalar.sample_all_ports(now)
    for spec in steps:
        now += spec["dt"]
        for network in (swept, scalar):
            apply_step(network, spec, now)
        plane.sweep(now)
        plane.feed_routers(now)
        scalar.sample_all_ports(now)
        if spec["scalar_between"]:
            # the injector's out-of-sweep port sample after a fault
            swept.sample_all_ports(now)
            scalar.sample_all_ports(now)
        assert_same_registers(swept, scalar)


def test_one_switch_view_matches_batch():
    """``on_telemetry`` on one switch's view runs the same column update."""
    batched, single = build_network(), build_network()
    plane_a, plane_b = TelemetryPlane(batched), TelemetryPlane(single)
    for k in range(1, 6):
        now = k * 1e-3
        for network in (batched, single):
            for i, link in enumerate(_links(network)):
                link.queue_bytes = float((i * 7919 * k) % 300_000)
        plane_a.sweep(now)
        plane_a.feed_routers(now)
        plane_b.sweep(now)
        for dc in _DCS:
            single.switch(dc).router.on_telemetry(plane_b.view(dc), now)
        assert_same_registers(batched, single)


def test_second_plane_takes_over_registers():
    """A router's registers follow it into whichever plane sweeps it."""
    swept, scalar = build_network(), build_network()
    first, second = TelemetryPlane(swept), TelemetryPlane(swept)
    for k, plane in enumerate([first, second, first, second], start=1):
        now = k * 1e-3
        for network in (swept, scalar):
            for i, link in enumerate(_links(network)):
                link.queue_bytes = float((i * 104729 + k * 65537) % 400_000)
        plane.sweep(now)
        plane.feed_routers(now)
        scalar.sample_all_ports(now)
        assert_same_registers(swept, scalar)


def test_no_per_router_telemetry_calls(monkeypatch):
    """The LCMP sweep never goes through the per-switch ``on_telemetry``."""
    network = build_network()
    plane = TelemetryPlane(network)

    def forbidden(self, view, now):
        raise AssertionError("per-switch delivery used")

    monkeypatch.setattr(LCMPRouter, "on_telemetry", forbidden)
    plane.sweep(1e-3)
    plane.feed_routers(1e-3)
    assert all(r.installed for _, r in plane._consumers)


class TestColumns:
    def test_rows_grow_and_keep_values(self):
        columns = RegisterColumns()
        rows = [columns.add_row() for _ in range(20)]
        assert rows == list(range(20))
        columns.trend[3] = -17
        columns.add_row()
        assert columns.trend[3] == -17
        assert columns.last_sample_s[20] == -1.0 and columns.up[20]

    def test_registers_shared_by_estimator_and_liveness(self, switch_tables):
        registers = PortRegisters()
        estimator = CongestionEstimator(switch_tables, registers=registers)
        liveness = PortLivenessTracker(registers)
        liveness.mark_down("p")
        assert estimator.port_state("p") is None
        estimator.observe("p", 1000.0, 100 * GBPS, 0.0)
        assert not liveness.is_up("p")
        estimator.reset()
        assert estimator.ports() == [] and liveness.down_ports == {"p"}

    @settings(max_examples=60, deadline=None)
    @given(
        queues=st.lists(
            st.lists(st.floats(0, 6e8, allow_nan=False), min_size=3, max_size=3),
            min_size=1,
            max_size=30,
        ),
        intervals=st.lists(st.sampled_from([0.0, 5e-4, 1e-3, 3e-3]), min_size=30, max_size=30),
    )
    def test_observe_rows_matches_observe(self, queues, intervals):
        tables = SwitchTables.bootstrap(LCMPConfig(), 400 * GBPS, 512 * 1024 * 1024)
        spec = CongestionEstimator(tables)
        vec = CongestionEstimator(tables)
        ports = ["a", "b", "c"]
        rows = np.array([vec.registers.row_for(p) for p in ports])
        rates = np.array([100 * GBPS, 25 * GBPS, 400 * GBPS])
        now = 0.0
        for sample, dt in zip(queues, intervals):
            now += dt
            for port, q, rate in zip(ports, sample, rates):
                spec.observe(port, q, float(rate), now)
            observe_rows(vec.registers.columns, rows, np.array(sample), rates, now,
                         tables, vec.config)
            for port in ports:
                assert spec.port_state(port) == vec.port_state(port)
                assert spec.congestion_score(port) == vec.congestion_score(port)


@pytest.mark.parametrize("queue", [-5.0, 0.0, 1.0])
def test_queue_levels_match_lookup(switch_tables, queue):
    values = np.array(switch_tables.queue_thresholds + [queue, 1e12])
    expected = [switch_tables.queue_level(v) for v in values.tolist()]
    assert switch_tables.queue_levels(values).tolist() == expected


def test_install_tables_starts_estimator_afresh():
    """Re-provisioning a switch clears its estimator but keeps liveness."""
    network = build_network()
    plane = TelemetryPlane(network)
    dc = sorted(set(_DCS) - _BARE)[0]
    port = next(iter(network.switch(dc).ports))
    network.fail_link(dc, port)
    plane.sweep(1e-3)
    plane.feed_routers(1e-3)
    router = network.switch(dc).router
    assert router.estimator.ports() and router.liveness.down_ports == {port}
    ControlPlane(_TOPOLOGY, _PATHS).install(router, dc)
    assert router.estimator.ports() == [] and router.liveness.down_ports == {port}
    plane.sweep(2e-3)
    plane.feed_routers(2e-3)
    assert router.estimator.port_state(port).observed_interval_s == 0.0
