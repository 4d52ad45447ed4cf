"""Intel 82599-like 10 GbE NIC model (paper Sections 3.1 and 4).

Functional pieces: per-core TX descriptor rings, per-queue statistics
(the Section 4.4 fix for the shared-counter coherence problem), the
port's line rate, and the interrupt-moderation delay used by the
livelock-avoidance scheme (Section 5.2).

The RX rings live in the I/O engine, one per queue:
:class:`repro.io_engine.driver.OptimizedDriver` DMAs each frame into a
:class:`repro.io_engine.hugebuf.HugePacketBuffer` cell of the queue that
:class:`repro.io_engine.rss.RSSHasher` picked.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List

from repro.calib.constants import NIC, NICModel
from repro.net.ethernet import wire_bits


@dataclass
class QueueStats:
    """Per-queue packet/byte counters (Section 4.4: per-queue, not per-NIC,
    so cores never contend on a shared cache line)."""

    packets: int = 0
    bytes: int = 0
    drops: int = 0

    def add(self, frame_len: int) -> None:
        self.packets += 1
        self.bytes += frame_len

    def __iadd__(self, other: "QueueStats") -> "QueueStats":
        self.packets += other.packets
        self.bytes += other.bytes
        self.drops += other.drops
        return self


class TxQueue:
    """One TX descriptor ring; ``transmit`` drains to the attached sink."""

    def __init__(self, queue_id: int, ring_size: int = 0, model: NICModel = NIC):
        self.queue_id = queue_id
        self.ring_size = ring_size or model.tx_ring_size
        self._ring: Deque = deque()
        self.stats = QueueStats()

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def full(self) -> bool:
        return len(self._ring) >= self.ring_size

    def post(self, frame) -> bool:
        """Host-side: enqueue a frame for transmission."""
        if self.full:
            self.stats.drops += 1
            return False
        self._ring.append(frame)
        return True

    def post_batch(self, frames) -> int:
        """Enqueue a batch; returns how many fit (rest are dropped)."""
        sent = 0
        for frame in frames:
            if self.post(frame):
                sent += 1
        return sent

    def drain(self) -> List:
        """Hardware-side: transmit everything queued; returns the frames."""
        frames = list(self._ring)
        self._ring.clear()
        for frame in frames:
            self.stats.add(len(frame))
        return frames


class NICPort:
    """One 10 GbE port with one TX queue per serving CPU core (Section 4.4).

    The RX side is :class:`repro.io_engine.driver.OptimizedDriver`,
    whose per-queue huge packet buffers are the RX rings.
    """

    def __init__(
        self,
        port_id: int,
        node: int = 0,
        num_queues: int = 4,
        model: NICModel = NIC,
    ) -> None:
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self.port_id = port_id
        self.node = node
        self.model = model
        self.tx_queues = [TxQueue(i, model=model) for i in range(num_queues)]

    def line_rate_pps(self, frame_len: int) -> float:
        """Packets/s the 10 GbE line sustains at ``frame_len`` (wire
        overhead included)."""
        return self.model.line_rate_bps / wire_bits(frame_len)


def effective_itr_ns(per_queue_pps: float, model: NICModel = NIC) -> float:
    """The dynamic moderation window at a per-queue packet rate.

    The driver retunes the timer toward ``itr_target_packets`` per
    interrupt (ixgbe adaptive ITR), clamped between the low-latency
    minimum and the bulk maximum.
    """
    if per_queue_pps <= 0:
        return model.interrupt_moderation_ns
    window = model.itr_target_packets * 1e9 / per_queue_pps
    return min(model.interrupt_moderation_ns, max(model.itr_min_ns, window))


def interrupt_extra_delay_ns(
    per_queue_pps: float, utilization: float = 0.0, model: NICModel = NIC
) -> float:
    """Average extra latency from interrupt moderation.

    A packet arriving while its serving thread is blocked waits on
    average half the effective moderation window; the probability of
    finding the thread blocked falls with utilization (in polling mode
    interrupts stay masked and moderation is irrelevant).  This produces
    the elevated round-trip latency at low offered load in Figure 12 —
    the paper attributes it to "interrupt moderation in NICs" — fading
    as load rises.
    """
    idle = max(0.0, 1.0 - utilization)
    return effective_itr_ns(per_queue_pps, model) / 2.0 * idle
