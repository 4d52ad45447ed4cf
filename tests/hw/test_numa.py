"""NUMA topology and the dual-IOH capacity model vs Figure 6."""

import pytest

from repro.hw.numa import IOHub, SystemTopology
from repro.perf.reference import REFERENCE

FIG6 = REFERENCE["fig6"]
NUMA = REFERENCE["numa"]


class TestIOHub:
    def test_rx_efficiency_grows_with_frame_size(self):
        hub = IOHub(0)
        assert hub.rx_efficiency(64) < hub.rx_efficiency(1514) < 1.0

    def test_bidir_small_frame_bonus(self):
        hub = IOHub(0)
        assert hub.bidir_capacity_gbps(64) > hub.bidir_capacity_gbps(1514)


class TestFigure6Anchors:
    """The paper's measured I/O engine ceilings (Section 4.6), held to
    the fig6 and numa refs of ``repro.perf.reference``."""

    def setup_method(self):
        self.topo = SystemTopology()

    def test_rx_64b(self):
        assert FIG6.ref("rx_gbps", 64).holds(self.topo.rx_capacity_gbps(64))

    def test_rx_1514b(self):
        assert FIG6.ref("rx_gbps", 1514).holds(self.topo.rx_capacity_gbps(1514))

    def test_tx_64b(self):
        assert FIG6.ref("tx_gbps", 64).holds(self.topo.tx_capacity_gbps(64))

    def test_tx_large_hits_line_rate(self):
        assert FIG6.ref("tx_gbps", 1514).holds(self.topo.tx_capacity_gbps(1514))

    def test_forwarding_64b(self):
        assert FIG6.ref("forward_gbps", 64).holds(
            self.topo.forwarding_capacity_gbps(64))

    def test_forwarding_above_40_for_all_sizes(self):
        for size in (64, 128, 256, 512, 1024, 1514):
            assert FIG6.ref("forward_gbps", size).holds(
                self.topo.forwarding_capacity_gbps(size))

    def test_node_crossing_still_above_40(self):
        for size in (64, 128, 256, 512, 1024, 1514):
            assert FIG6.ref("node_crossing_gbps", size).holds(
                self.topo.forwarding_capacity_gbps(size, node_crossing=True))

    def test_numa_blind_below_25(self):
        blind = self.topo.forwarding_capacity_gbps(64, numa_aware=False)
        assert NUMA.ref("io_gbps", "blind").holds(blind)
        aware = self.topo.forwarding_capacity_gbps(64)
        assert NUMA.ref("aware_over_blind").holds(aware / blind)


class TestGPUDisplacement:
    def test_gpu_traffic_reduces_forwarding_capacity(self):
        topo = SystemTopology()
        base = topo.forwarding_capacity_gbps(64)
        with_gpu = topo.forwarding_capacity_gbps(64, gpu_pcie_bytes_per_packet=8)
        assert with_gpu < base
        # IPv4's 8 B/packet costs about 2 Gbps (41 -> 39, Section 6.3).
        assert base - with_gpu == pytest.approx(1.3, abs=0.8)

    def test_more_gpu_bytes_cost_more(self):
        topo = SystemTopology()
        ipv4 = topo.forwarding_capacity_gbps(64, gpu_pcie_bytes_per_packet=8)
        ipv6 = topo.forwarding_capacity_gbps(64, gpu_pcie_bytes_per_packet=20)
        assert ipv6 < ipv4

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            SystemTopology().forwarding_capacity_gbps(
                64, gpu_pcie_bytes_per_packet=-1
            )


class TestTopologyShape:
    def test_figure3_inventory(self):
        topo = SystemTopology()
        assert topo.num_nodes == 2
        assert topo.total_ports == 8
        assert len(topo.all_gpus) == 2
        assert topo.total_cores == 8
        assert topo.line_rate_gbps() == 80.0

    def test_ports_split_across_nodes(self):
        topo = SystemTopology()
        assert len(topo.nodes[0].ports) == 4
        assert len(topo.nodes[1].ports) == 4
        assert {p.node for p in topo.nodes[1].ports} == {1}

    def test_forwarding_pps(self):
        topo = SystemTopology()
        pps = topo.forwarding_capacity_pps(64)
        assert FIG6.ref("forward_mpps_64").holds(pps / 1e6)
