"""The IPv6 forwarding application."""

import pytest

from repro.apps.ipv6 import IPv6Forwarder
from repro.core.chunk import DROP_CODE, FORWARD_CODE, SLOW_PATH_CODE, Chunk
from repro.gen.workloads import ipv6_workload
from repro.lookup.ipv6_bsearch import IPv6BinarySearch
from repro.net.packet import build_udp_ipv4, build_udp_ipv6


@pytest.fixture(scope="module")
def workload():
    return ipv6_workload(num_routes=2000, seed=51)


def chunk_of(frames):
    return Chunk(frames=[bytearray(f) for f in frames])


def single_route_app(next_hop=4):
    table = IPv6BinarySearch()
    table.build([(0x20010DB8 << 96, 32, next_hop)])
    return IPv6Forwarder(table)


class TestClassification:
    def test_routable_packet_forwarded(self):
        app = single_route_app(next_hop=4)
        dst = (0x20010DB8 << 96) | 0x1234
        chunk = chunk_of([build_udp_ipv6(1, dst, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == FORWARD_CODE
        assert chunk.out_ports[0] == 4

    def test_unrouted_dropped(self):
        app = single_route_app()
        chunk = chunk_of([build_udp_ipv6(1, 0xFE80 << 112, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == DROP_CODE

    def test_hop_limit_expired(self):
        app = single_route_app()
        dst = (0x20010DB8 << 96) | 1
        chunk = chunk_of([build_udp_ipv6(1, dst, 3, 4, hop_limit=1)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == SLOW_PATH_CODE
        assert app.slow_path_reasons["hop-limit"] == 1

    def test_hop_limit_decremented(self):
        app = single_route_app()
        dst = (0x20010DB8 << 96) | 1
        chunk = chunk_of([build_udp_ipv6(1, dst, 3, 4, hop_limit=9)])
        app.cpu_process(chunk)
        assert chunk.frames[0][21] == 8

    def test_ipv4_frame_to_slow_path(self, workload):
        app = IPv6Forwarder(workload.table)
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == SLOW_PATH_CODE

    def test_local_destination(self):
        dst = (0x20010DB8 << 96) | 7
        app = single_route_app()
        app.local_addresses.add(dst)
        chunk = chunk_of([build_udp_ipv6(1, dst, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == SLOW_PATH_CODE


class TestGPUPath:
    def test_gpu_bytes_are_4x_ipv4(self, workload):
        # Section 6.2.2: "four times more data to be copied into GPU".
        app = IPv6Forwarder(workload.table)
        bytes_in, _ = app.gpu_bytes_per_packet(64)
        assert bytes_in == 16.0

    def test_gpu_and_cpu_paths_agree(self, workload):
        app = IPv6Forwarder(workload.table)
        frames = workload.generator.ipv6_burst(64)
        cpu_chunk = chunk_of(frames)
        app.cpu_process(cpu_chunk)
        gpu_chunk = chunk_of(frames)
        work = app.pre_shade(gpu_chunk)
        app.post_shade(gpu_chunk, work.spec.fn(*work.args))
        assert cpu_chunk.out_ports.tolist() == gpu_chunk.out_ports.tolist()

    def test_kernel_charges_seven_accesses(self, workload):
        app = IPv6Forwarder(workload.table)
        spec, _ = app.kernel_cost(64)
        assert spec.mem_accesses == 7.0


class TestCostHooks:
    def test_ipv6_cpu_cost_far_exceeds_ipv4(self, workload):
        from repro.apps.ipv4 import IPv4Forwarder
        from repro.gen.workloads import ipv4_workload

        ipv6_cost = IPv6Forwarder(workload.table).cpu_cycles_per_packet(64)
        ipv4_cost = IPv4Forwarder(
            ipv4_workload(num_routes=100, seed=1).table
        ).cpu_cycles_per_packet(64)
        assert ipv6_cost > 3 * ipv4_cost
