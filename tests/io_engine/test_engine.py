"""User-level packet I/O: virtual interfaces and the capacity model."""

import pytest

from repro.hw.nic import NICPort
from repro.io_engine.driver import OptimizedDriver
from repro.io_engine.engine import (
    PacketIOEngine,
    io_throughput_report,
)
from repro.perf.reference import REFERENCE


def engine_with(num_nics=1, num_queues=2, ring_size=32):
    drivers = {
        nic: OptimizedDriver(num_queues=num_queues, ring_size=ring_size)
        for nic in range(num_nics)
    }
    return PacketIOEngine(drivers), drivers


class TestVirtualInterfaces:
    def test_attach_dedicates_queue(self):
        engine, _ = engine_with()
        engine.attach(0, 0, thread=7)
        with pytest.raises(ValueError):
            engine.attach(0, 0, thread=8)  # already owned

    def test_attach_validates_ids(self):
        engine, _ = engine_with()
        with pytest.raises(KeyError):
            engine.attach(9, 0, thread=1)
        with pytest.raises(ValueError):
            engine.attach(0, 9, thread=1)

    def test_recv_chunk_round_robin_fairness(self):
        engine, drivers = engine_with(num_queues=2)
        engine.attach(0, 0, thread=1)
        engine.attach(0, 1, thread=1)
        drivers[0].deliver(0, b"q0" + bytes(62))
        drivers[0].deliver(1, b"q1" + bytes(62))
        first = engine.recv_chunk(1)
        second = engine.recv_chunk(1)
        # Both queues served, neither starved.
        assert {bytes(first[0][:2]), bytes(second[0][:2])} == {b"q0", b"q1"}

    def test_recv_chunk_respects_cap(self):
        engine, drivers = engine_with()
        engine.attach(0, 0, thread=1)
        for i in range(10):
            drivers[0].deliver(0, bytes([i]) * 64)
        chunk = engine.recv_chunk(1, max_packets=4)
        assert len(chunk) == 4

    def test_recv_chunk_empty_returns_empty(self):
        engine, _ = engine_with()
        engine.attach(0, 0, thread=1)
        assert engine.recv_chunk(1) == []

    def test_recv_chunk_unknown_thread(self):
        engine, _ = engine_with()
        with pytest.raises(KeyError):
            engine.recv_chunk(99)

    def test_livelock_state_tracks_drain(self):
        engine, drivers = engine_with()
        interface = engine.attach(0, 0, thread=1)
        drivers[0].deliver(0, b"x" * 64)
        engine.recv_chunk(1)
        # Queue drained: thread blocked with interrupt re-enabled.
        assert interface.livelock.interrupt_enabled

    def test_send_chunk(self):
        port = NICPort(0, num_queues=1)
        sent = PacketIOEngine.send_chunk(port, [b"a" * 64, b"b" * 64])
        assert sent == 2
        assert len(port.tx_queues[0].drain()) == 2


class TestCapacityModel:
    def test_figure6_forward_64(self):
        report = io_throughput_report(64, mode="forward")
        assert report.bottleneck == "io"

    def test_figure6_rx_tx(self):
        fig6 = REFERENCE["fig6"]
        for mode in ("rx", "tx"):
            gbps = io_throughput_report(64, mode=mode).gbps
            assert fig6.ref(f"{mode}_gbps", 64).holds(gbps), (mode, gbps)

    def test_cpu_bound_with_few_cores_and_tiny_batch(self):
        # One core, packet by packet: Figure 5's first point.
        report = io_throughput_report(64, mode="forward", batch_size=1, cores=1)
        assert report.bottleneck == "cpu"
        assert REFERENCE["fig5"].ref("gbps", 1).holds(report.gbps)

    def test_four_cores_still_io_bound(self):
        # Section 4.6: the same forwarding performance with only 4 cores.
        eight = io_throughput_report(64, mode="forward", cores=8)
        four = io_throughput_report(64, mode="forward", cores=4)
        assert four.gbps == pytest.approx(eight.gbps, rel=0.01)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            io_throughput_report(64, mode="bogus")
