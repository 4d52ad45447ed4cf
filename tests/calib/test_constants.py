"""Sanity invariants over the calibrated constants.

These tests don't re-derive the fits (``tests/perf/test_figures.py``
checks the figures they produce); they pin the physical relationships
that must hold whatever the exact values, so a careless recalibration
cannot produce a self-contradictory model.
"""

import dataclasses

import pytest

from repro.calib.constants import (
    APPS,
    CPU,
    FRAMEWORK,
    GPU,
    GPU_KERNELS,
    IO_ENGINE,
    IOH,
    LINUX_STACK,
    NIC,
    PCIE,
    SYSTEM,
)
from repro.perf.reference import REFERENCE


class TestCPUModel:
    def test_paper_spec(self):
        assert CPU.clock_hz == 2.66e9
        assert CPU.cores == 4
        assert CPU.cache_line == 64

    def test_mshr_ordering(self):
        # Section 2.4: 6 misses alone, 4 when all cores burst.
        assert CPU.mshr_single_core > CPU.mshr_all_cores >= 1

    def test_remote_penalties_in_paper_range(self):
        assert 1.40 <= CPU.remote_latency_factor <= 1.50
        assert 0.70 <= CPU.remote_bandwidth_factor <= 0.80

    def test_cycle_helpers(self):
        assert CPU.cycle_ns == pytest.approx(1 / 2.66, rel=1e-6)
        assert CPU.cycles(1000.0) == pytest.approx(2660.0)


class TestGPUModel:
    def test_gtx480_shape(self):
        assert GPU.num_sms == 15
        assert GPU.sps_per_sm == 32
        assert GPU.total_cores == 480
        assert GPU.warp_size == 32
        assert GPU.device_memory == 1536 * 1024 * 1024

    def test_bandwidth_gap(self):
        # Section 2.4: 177.4 vs 32 GB/s.
        assert GPU.mem_bandwidth / CPU.mem_bandwidth > 5

    def test_launch_fit_endpoints(self):
        assert GPU.launch_latency_ns == pytest.approx(3800)
        extra = GPU.launch_latency_per_thread_ns * 4096
        assert 3800 + extra == pytest.approx(4100, rel=0.01)


class TestPCIe:
    def test_dual_ioh_asymmetry(self):
        assert PCIE.d2h_bandwidth < PCIE.h2d_bandwidth
        assert PCIE.h2d_bandwidth < 8e9  # below the PCIe 2.0 x16 theoretical


class TestIOH:
    def test_ceiling_ordering(self):
        # TX > RX > bidirectional-per-direction, as Figure 6 shows.
        assert IOH.tx_ceiling_gbps > IOH.rx_ceiling_gbps > IOH.bidir_ceiling_gbps

    def test_factors_are_fractions(self):
        assert 0 < IOH.gpu_displacement_factor <= 1
        assert 0 < IOH.numa_blind_factor < 1
        assert 0 < IOH.node_crossing_factor <= 1


class TestIOEngine:
    def test_batching_always_helps(self):
        # cycles(batch) strictly decreases in batch size.
        assert IO_ENGINE.per_batch_cycles > 0
        assert IO_ENGINE.per_packet_cycles > 0

    def test_rx_tx_halves_below_forwarding(self):
        assert IO_ENGINE.rx_only_per_packet_cycles < IO_ENGINE.per_packet_cycles
        assert IO_ENGINE.tx_only_per_packet_cycles < IO_ENGINE.per_packet_cycles

    def test_copy_fraction_below_paper_bound(self):
        # Section 4.3: the kernel/user copy takes "less than 20%".
        assert IO_ENGINE.copy_fraction < 0.20


class TestLinuxStack:
    def test_table3_shares_sum_to_one(self):
        shares = (
            LINUX_STACK.share_skb_init
            + LINUX_STACK.share_skb_alloc
            + LINUX_STACK.share_memory_subsystem
            + LINUX_STACK.share_nic_driver
            + LINUX_STACK.share_others
            + LINUX_STACK.share_cache_miss
        )
        assert shares == pytest.approx(1.0, abs=0.001)

    def test_stock_path_costs_an_order_more(self):
        assert LINUX_STACK.total_cycles > 5 * IO_ENGINE.per_packet_cycles


class TestApps:
    def test_ipv6_lookup_dearer_than_ipv4(self):
        ipv6 = APPS.ipv6_probes * APPS.ipv6_cpu_probe_cycles
        assert ipv6 > 3 * APPS.ipv4_cpu_lookup_cycles

    def test_gpu_mode_probe_cheaper_than_cpu_mode(self):
        assert APPS.of_exact_probe_gpu_mode_cycles < APPS.of_exact_probe_cpu_cycles

    def test_crypto_per_byte_positive(self):
        assert APPS.aes_sse_cycles_per_byte > 0
        assert APPS.sha1_cycles_per_byte > 0


class TestFramework:
    def test_thread_budget_fits_the_sockets(self):
        per_node = (
            SYSTEM.workers_per_node_gpu_mode + SYSTEM.masters_per_node
        )
        assert per_node == CPU.cores
        assert SYSTEM.workers_per_node_cpu_mode == CPU.cores

    def test_chunk_capacity_reasonable(self):
        assert 64 <= FRAMEWORK.chunk_capacity <= 8192
        assert FRAMEWORK.max_gather_chunks >= 1


class TestSystem:
    def test_table2_inventory(self):
        table2 = REFERENCE["table2"]
        assert table2.ref("total_ports").holds(SYSTEM.total_ports)
        assert table2.ref("total_cost_usd").holds(SYSTEM.total_cost)

    def test_power_ordering(self):
        assert SYSTEM.power_full_gpu_w > SYSTEM.power_full_cpu_w
        assert SYSTEM.power_idle_gpu_w > SYSTEM.power_idle_cpu_w
        assert SYSTEM.power_idle_gpu_w < SYSTEM.power_full_gpu_w


class TestImmutability:
    def test_all_constant_classes_frozen(self):
        for instance in (CPU, GPU, PCIE, IOH, NIC, IO_ENGINE, LINUX_STACK,
                         APPS, GPU_KERNELS, FRAMEWORK, SYSTEM):
            with pytest.raises(dataclasses.FrozenInstanceError):
                object.__setattr__;  # noqa: B018 - documentation only
                setattr(instance, next(iter(
                    f.name for f in dataclasses.fields(instance)
                )), 0)
