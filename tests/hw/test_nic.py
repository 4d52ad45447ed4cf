"""NIC model: TX rings, per-queue stats, line rate, moderation."""

import pytest

from repro.calib.constants import NIC
from repro.hw.nic import (
    NICPort,
    QueueStats,
    TxQueue,
    interrupt_extra_delay_ns,
)


class TestTxQueue:
    def test_post_and_drain(self):
        queue = TxQueue(0, ring_size=4)
        assert queue.post_batch([b"a" * 64, b"b" * 128]) == 2
        frames = queue.drain()
        assert len(frames) == 2
        assert queue.stats.packets == 2
        assert queue.stats.bytes == 192
        assert len(queue) == 0

    def test_overflow(self):
        queue = TxQueue(0, ring_size=1)
        assert queue.post_batch([b"a" * 64, b"b" * 64]) == 1
        assert queue.stats.drops == 1


class TestNICPort:
    def test_line_rate_pps(self):
        port = NICPort(0)
        # 10 Gbps / 704 bits = 14.2 Mpps for 64B frames.
        assert port.line_rate_pps(64) == pytest.approx(14.2e6, rel=0.01)
        assert port.line_rate_pps(1514) == pytest.approx(812_744, rel=0.01)

    def test_rejects_zero_queues(self):
        with pytest.raises(ValueError):
            NICPort(0, num_queues=0)


class TestQueueStats:
    def test_iadd(self):
        a = QueueStats(packets=1, bytes=64, drops=0)
        b = QueueStats(packets=2, bytes=128, drops=1)
        a += b
        assert (a.packets, a.bytes, a.drops) == (3, 192, 1)


class TestInterruptModeration:
    def test_idle_pays_half_itr(self):
        assert interrupt_extra_delay_ns(0) == NIC.interrupt_moderation_ns / 2

    def test_slow_arrivals_pay_half_itr(self):
        slow = 1e9 / NIC.interrupt_moderation_ns / 2  # half the timer rate
        assert interrupt_extra_delay_ns(slow) == NIC.interrupt_moderation_ns / 2

    def test_fast_arrivals_pay_less(self):
        assert interrupt_extra_delay_ns(1e6) < interrupt_extra_delay_ns(10e3)
