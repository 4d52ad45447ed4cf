"""The full functional stack: NIC rings -> engine -> router -> TX."""

import pytest

from repro.apps.ipv4 import IPv4Forwarder
from repro.core.config import RouterConfig
from repro.core.slowpath import SlowPathHandler
from repro.gen.workloads import ipv4_workload
from repro.lookup.dir24_8 import Dir24_8
from repro.net.ethernet import EthernetHeader
from repro.net.packet import (
    build_tcp_ipv4,
    build_udp_ipv4,
    build_udp_ipv6,
    parse_packet,
)
from repro.testbed import Testbed


@pytest.fixture(scope="module")
def workload():
    return ipv4_workload(num_routes=3000, seed=101)


def small_fib(port=2):
    fib = Dir24_8()
    fib.add_routes([(0x0A000000, 8, port)])
    return fib


class TestEndToEnd:
    def test_injected_frames_come_out_forwarded(self):
        testbed = Testbed(IPv4Forwarder(small_fib(port=2)))
        frames = [
            build_udp_ipv4(i + 1, 0x0A000000 | i, 100 + i, 200, frame_len=96)
            for i in range(50)
        ]
        assert testbed.inject(frames) == 50
        sink = testbed.run_until_drained()
        assert len(sink[2]) == 50
        # TTLs decremented on the wire copies.
        for frame in sink[2]:
            assert parse_packet(frame).l3.ttl == 63

    def test_counters_consistent(self, workload):
        testbed = Testbed(IPv4Forwarder(workload.table))
        frames = workload.generator.ipv4_burst(300)
        testbed.inject(frames)
        testbed.run_until_drained()
        stats = testbed.stats
        router = testbed.router.stats
        assert stats.injected == 300
        assert router.received == 300 - stats.rx_dropped
        assert stats.transmitted == router.forwarded - stats.tx_dropped

    def test_ring_overflow_drops(self):
        testbed = Testbed(IPv4Forwarder(small_fib()), ring_size=8)
        # One flow -> one queue of ring size 8: the rest must drop.
        frames = [build_udp_ipv4(1, 0x0A000001, 5, 6) for _ in range(20)]
        accepted = testbed.inject(frames)
        assert accepted == 8
        assert testbed.stats.rx_dropped == 12
        sink = testbed.run_until_drained()
        assert len(sink[2]) == 8

    def test_multiple_rounds_drain_backlog(self):
        testbed = Testbed(IPv4Forwarder(small_fib()), ring_size=64)
        for _ in range(3):
            frames = [
                build_udp_ipv4(i + 1, 0x0A000000 | i, 7, 8) for i in range(30)
            ]
            testbed.inject(frames)
            testbed.run_once()
        sink = testbed.run_until_drained()
        assert len(sink[2]) == 90

    def test_flows_spread_over_queues(self, workload):
        testbed = Testbed(IPv4Forwarder(workload.table))
        testbed.inject(workload.generator.ipv4_burst(400))
        occupancy = [len(b) for b in testbed.drivers[0].buffers]
        assert sum(occupancy) == 400
        assert all(count > 0 for count in occupancy)  # RSS spread

    def test_cpu_only_config(self, workload):
        testbed = Testbed(
            IPv4Forwarder(workload.table), config=RouterConfig(use_gpu=False)
        )
        testbed.inject(workload.generator.ipv4_burst(100))
        testbed.run_until_drained()
        assert testbed.router.stats.gpu_launches == 0
        assert testbed.router.stats.accounted == 100

    def test_slow_path_responses_reach_the_wire(self):
        testbed = Testbed(
            IPv4Forwarder(small_fib()), slow_path=SlowPathHandler()
        )
        expired = [
            build_udp_ipv4(0xC0A80000 | i, 0x0A000001, 5, 6, ttl=1)
            for i in range(4)
        ]
        testbed.inject(expired)
        sink = testbed.run_until_drained()
        # ICMP Time Exceeded leaves via port 0 (the chunks' ingress).
        icmp_frames = [
            f for f in sink.get(0, []) if len(f) > 34 and f[14 + 9] == 1
        ]
        assert len(icmp_frames) == 4

    def test_burst_steers_like_the_per_frame_parser(self):
        """``inject`` hashes a burst as columns; the oracle is the
        per-frame parser and ``queue_for``, with queue 0 for every frame
        that has no 5-tuple."""
        frames = []
        for i in range(16):
            frames += [
                build_udp_ipv4(i + 1, 0x0A000000 | i, 1000 + i, 53),
                build_tcp_ipv4(i + 7, 0x0A000100 | i, 2000 + i, 80),
                build_udp_ipv6(i << 64 | 1, 0x2001 << 112 | i, 3000 + i, 53),
            ]
        short_header = build_udp_ipv4(1, 2, 3, 4)[:30]
        bad_offset = build_tcp_ipv4(5, 6, 7, 8)
        bad_offset[34 + 12] = 0x40  # TCP data offset 4 < 5
        arp = bytearray(
            EthernetHeader(dst=2, src=1, ethertype=0x0806).pack() + bytes(28)
        )
        frames[5:5] = [short_header, arp, bad_offset]

        testbed = Testbed(IPv4Forwarder(small_fib()))
        assert testbed.inject(frames) == len(frames)
        driver = testbed.drivers[0]
        expected = [[] for _ in driver.buffers]
        for frame in frames:
            try:
                flow = parse_packet(bytes(frame)).five_tuple()
            except ValueError:
                flow = None
            queue = testbed.rss.queue_for(flow) if flow else 0
            expected[queue].append(bytes(frame))
        assert all(expected) and len(expected) > 1
        assert [
            driver.fetch_batch(queue, len(frames))
            for queue in range(len(expected))
        ] == expected

    def test_validation(self):
        with pytest.raises(ValueError):
            Testbed(IPv4Forwarder(small_fib()), num_ports=0)
        testbed = Testbed(IPv4Forwarder(small_fib()))
        with pytest.raises(ValueError):
            testbed.inject([], port=99)
