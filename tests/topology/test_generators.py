"""Properties of the seeded parametric fabric generator."""

import dataclasses

import pytest

from repro.topology import CONTINENT_400, FabricSpec, build_fabric, fabric_pathset

#: small-but-real fabric: 3 regions x (2 core + 4 agg + 8 edge) = 42 DCs
SMALL = FabricSpec(name="small", seed=7, regions=3, cores_per_region=2,
                   aggs_per_core=2, edges_per_agg=2)


def _link_signature(topo):
    return tuple(
        (s.src, s.dst, s.cap_bps, s.delay_s, s.buffer_bytes)
        for s in topo.links
    )


def _dc_signature(topo):
    return tuple(
        (dc, topo.dc_attrs(dc).region, topo.dc_attrs(dc).tier,
         topo.dc_attrs(dc).power_redundancy)
        for dc in topo.dcs
    )


class TestDeterminism:
    def test_same_spec_same_topology(self):
        a = build_fabric(SMALL)
        b = build_fabric(SMALL)
        assert _dc_signature(a) == _dc_signature(b)
        assert _link_signature(a) == _link_signature(b)

    def test_different_seed_different_delays(self):
        a = build_fabric(SMALL)
        b = build_fabric(FabricSpec(name="small", seed=8, regions=3,
                                    cores_per_region=2, aggs_per_core=2,
                                    edges_per_agg=2))
        assert _link_signature(a) != _link_signature(b)

    def test_capacity_scale_multiplies_caps(self):
        full = build_fabric(SMALL)
        tenth = build_fabric(SMALL, capacity_scale=0.1)
        full_caps = [s.cap_bps for s in full.links]
        tenth_caps = [s.cap_bps for s in tenth.links]
        assert all(abs(t - f * 0.1) < 1e-6 for f, t in zip(full_caps, tenth_caps))


class TestStructure:
    def test_dc_count_matches_spec(self):
        topo = build_fabric(SMALL)
        assert len(topo.dcs) == SMALL.num_dcs == 42

    def test_continent_400_shape(self):
        assert CONTINENT_400.num_dcs == 400
        assert CONTINENT_400.dcs_per_region == 50

    def test_every_dc_has_valid_attrs(self):
        topo = build_fabric(SMALL)
        regions = {f"region{r}" for r in range(SMALL.regions)}
        for dc in topo.dcs:
            attrs = topo.dc_attrs(dc)
            assert attrs.region in regions
            assert attrs.tier in ("core", "agg", "edge")
            assert attrs.power_redundancy in ("N", "N+1", "2N")

    def test_tier_degrees(self):
        topo = build_fabric(SMALL)
        for dc in topo.dcs:
            tier = topo.dc_attrs(dc).tier
            degree = len(topo.neighbors(dc))
            if tier == "edge":
                # one agg uplink, possibly a dual-home to a sibling agg
                assert 1 <= degree <= 2
            elif tier == "agg":
                # edges below plus one or two core uplinks
                assert degree >= SMALL.edges_per_agg + 1
            else:
                # cores: aggs below + intra-region mesh + backbone ring
                assert degree >= SMALL.aggs_per_core + SMALL.cores_per_region

    def test_hosts_on_every_dc(self):
        topo = build_fabric(SMALL)
        for dc in topo.dcs:
            assert topo.host_groups[dc].count == SMALL.hosts_per_dc


class TestConnectivity:
    def test_all_pairs_reachable(self):
        topo = build_fabric(SMALL)
        paths = fabric_pathset(topo)
        for src, dst in paths.all_pairs():
            assert paths.has_path(src, dst), f"{src} cannot reach {dst}"

    def test_cross_region_pair_routes(self):
        topo = build_fabric(SMALL)
        paths = fabric_pathset(topo)
        candidates = paths.candidates("R0E0x0x0", "R2E1x1x1")
        assert candidates
        assert candidates[0].src == "R0E0x0x0"
        assert candidates[0].dst == "R2E1x1x1"


class TestValidation:
    def test_rejects_zero_regions(self):
        with pytest.raises(ValueError):
            FabricSpec(regions=0).validate()

    def test_rejects_bad_dual_home_fraction(self):
        with pytest.raises(ValueError):
            FabricSpec(dual_home_fraction=1.5).validate()

    def test_rejects_bad_delay_range(self):
        with pytest.raises(ValueError):
            FabricSpec(metro_delay_ms=(2.0, 1.0)).validate()

    def test_rejects_nonpositive_capacity_scale(self):
        with pytest.raises(ValueError):
            build_fabric(SMALL, capacity_scale=0.0)

    def test_rejects_negative_backbone_chords(self):
        with pytest.raises(ValueError, match="backbone_chords"):
            FabricSpec(backbone_chords=-3).validate()
        with pytest.raises(ValueError, match="backbone_chords"):
            build_fabric(dataclasses.replace(SMALL, backbone_chords=-3))

    @pytest.mark.parametrize("hosts", [0, -2])
    def test_rejects_nonpositive_hosts_per_dc(self, hosts):
        with pytest.raises(ValueError, match="hosts_per_dc"):
            FabricSpec(hosts_per_dc=hosts).validate()
        with pytest.raises(ValueError, match="hosts_per_dc"):
            build_fabric(dataclasses.replace(SMALL, hosts_per_dc=hosts))

    @pytest.mark.parametrize("rate", [0.0, -10.0])
    def test_rejects_nonpositive_nic_gbps(self, rate):
        with pytest.raises(ValueError, match="nic_gbps"):
            FabricSpec(nic_gbps=rate).validate()
        with pytest.raises(ValueError, match="nic_gbps"):
            build_fabric(dataclasses.replace(SMALL, nic_gbps=rate))

    def test_zero_backbone_chords_still_allowed(self):
        topo = build_fabric(dataclasses.replace(SMALL, backbone_chords=0))
        assert len(topo.dcs) == SMALL.num_dcs
