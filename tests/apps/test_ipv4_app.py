"""The IPv4 forwarding application."""

import pytest

from repro.apps.ipv4 import IPv4Forwarder
from repro.core.chunk import DROP_CODE, FORWARD_CODE, SLOW_PATH_CODE, Chunk
from repro.gen.workloads import ipv4_workload
from repro.lookup.dir24_8 import Dir24_8
from repro.net.checksum import verify_checksum16
from repro.net.packet import build_udp_ipv4, build_udp_ipv6


@pytest.fixture(scope="module")
def workload():
    return ipv4_workload(num_routes=3000, seed=41)


def chunk_of(frames):
    return Chunk(frames=[bytearray(f) for f in frames])


class TestClassification:
    def test_routable_packet_forwarded(self, workload):
        app = IPv4Forwarder(workload.table)
        # Build a destination guaranteed to match: take a route prefix.
        prefix, length, next_hop = 0x0A000000, 8, 3
        table = Dir24_8()
        table.add_routes([(prefix, length, next_hop)])
        app = IPv4Forwarder(table)
        chunk = chunk_of([build_udp_ipv4(1, 0x0A010203, 5, 6)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == FORWARD_CODE
        assert chunk.out_ports[0] == 3

    def test_unrouted_packet_dropped(self):
        table = Dir24_8()
        table.add_routes([(0x0A000000, 8, 1)])
        app = IPv4Forwarder(table)
        chunk = chunk_of([build_udp_ipv4(1, 0xC0000001, 5, 6)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == DROP_CODE

    def test_ttl_expired_to_slow_path(self, workload):
        app = IPv4Forwarder(workload.table)
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4, ttl=1)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == SLOW_PATH_CODE
        assert app.slow_path_reasons["ttl-expired"] == 1

    def test_bad_checksum_dropped(self, workload):
        app = IPv4Forwarder(workload.table)
        frame = build_udp_ipv4(1, 2, 3, 4)
        frame[24] ^= 0xFF  # corrupt the checksum
        chunk = chunk_of([frame])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == DROP_CODE
        assert app.slow_path_reasons["bad-checksum"] == 1

    def test_local_destination_to_slow_path(self, workload):
        app = IPv4Forwarder(workload.table, local_addresses={0x0A000001})
        chunk = chunk_of([build_udp_ipv4(9, 0x0A000001, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == SLOW_PATH_CODE
        assert app.slow_path_reasons["local"] == 1

    def test_non_ipv4_to_slow_path(self, workload):
        app = IPv4Forwarder(workload.table)
        chunk = chunk_of([build_udp_ipv6(1, 2, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == SLOW_PATH_CODE

    def test_truncated_frame_dropped(self, workload):
        app = IPv4Forwarder(workload.table)
        chunk = chunk_of([bytearray(20)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == DROP_CODE

    def test_ttl_and_checksum_updated_on_forward(self):
        table = Dir24_8()
        table.add_routes([(0, 0, 1)])
        app = IPv4Forwarder(table)
        frame = build_udp_ipv4(1, 2, 3, 4, ttl=64)
        chunk = chunk_of([frame])
        app.cpu_process(chunk)
        forwarded = chunk.frames[0]
        assert forwarded[22] == 63
        assert verify_checksum16(bytes(forwarded[14:34]))


class TestGPUPath:
    def test_pre_shade_builds_work_item(self, workload):
        app = IPv4Forwarder(workload.table)
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4) for _ in range(8)])
        work = app.pre_shade(chunk)
        assert work is not None
        assert work.threads == 8
        assert work.bytes_in == 32 and work.bytes_out == 32

    def test_pre_shade_skips_gpu_when_nothing_pending(self, workload):
        app = IPv4Forwarder(workload.table)
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4, ttl=1)])  # all slow path
        assert app.pre_shade(chunk) is None

    def test_gpu_and_cpu_paths_agree(self, workload):
        app = IPv4Forwarder(workload.table)
        frames = workload.generator.ipv4_burst(64)
        cpu_chunk = chunk_of(frames)
        app.cpu_process(cpu_chunk)
        gpu_chunk = chunk_of(frames)
        work = app.pre_shade(gpu_chunk)
        output = work.spec.fn(*work.args)  # execute the kernel body directly
        app.post_shade(gpu_chunk, output)
        assert cpu_chunk.dispositions.tolist() == gpu_chunk.dispositions.tolist()
        assert cpu_chunk.out_ports.tolist() == gpu_chunk.out_ports.tolist()


class TestFIBUpdate:
    def test_swap_table_atomic_for_in_flight_work(self):
        old = Dir24_8()
        old.add_routes([(0, 0, 1)])
        new = Dir24_8()
        new.add_routes([(0, 0, 2)])
        app = IPv4Forwarder(old)
        chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4)])
        work = app.pre_shade(chunk)  # captures the old table
        returned = app.swap_table(new)
        assert returned is old
        app.post_shade(chunk, work.spec.fn(*work.args))
        assert chunk.out_ports[0] == 1  # in-flight used old FIB
        fresh = chunk_of([build_udp_ipv4(1, 2, 3, 4)])
        app.cpu_process(fresh)
        assert fresh.out_ports[0] == 2  # new traffic uses new FIB


class TestCostHooks:
    def test_cost_hooks_positive_and_consistent(self, workload):
        app = IPv4Forwarder(workload.table)
        assert app.cpu_cycles_per_packet(64) > app.worker_cycles_per_packet(64)
        spec, threads = app.kernel_cost(64)
        assert threads == 1.0
        assert spec.mem_accesses == pytest.approx(1.03)
        assert app.gpu_bytes_per_packet(64) == (4.0, 4.0)


class TestCapacity:
    def test_cpu_only_is_io_bound_at_large_frames(self, workload):
        from repro import app_throughput_report

        report = app_throughput_report(
            IPv4Forwarder(workload.table), 1514, use_gpu=False
        )
        assert report.bottleneck == "io"
