"""The NIC device drivers: unmodified baseline and the optimized engine.

The RX side of the NIC, as two functional drivers:

* :class:`UnmodifiedDriver` — the stock ixgbe-like RX path: per-packet
  skb allocation, initialization, and free, with DMA cache invalidation.
  Exists to *measure* the Table 3 breakdown and to be the "before" of the
  huge-buffer comparison.
* :class:`OptimizedDriver` — Section 4's engine: huge packet buffer per
  queue, batched fetch with software prefetch through the cache model,
  cache-line-aligned per-queue state, and per-queue statistics.

Both drivers really move frame bytes; the cache model really tracks lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.calib.constants import NIC, NICModel
from repro.faults.plan import FaultInjector, Sites
from repro.hw.cache import CacheModel
from repro.hw.nic import QueueStats
from repro.io_engine.hugebuf import HugePacketBuffer
from repro.io_engine.skb import SkbAllocator
from repro.obs import BATCH_SIZE_BUCKETS, get_registry, names


class UnmodifiedDriver:
    """Stock Linux RX path: allocate, initialize, deliver, free.

    ``receive_and_drop`` is the exact Table 3 experiment: "have the
    unmodified ixgbe NIC driver receive 64B packets and silently drop
    them", accumulating cycles per functional bin in the allocator's
    breakdown.
    """

    def __init__(self, cache: Optional[CacheModel] = None) -> None:
        self.allocator = SkbAllocator()
        self.cache = cache if cache is not None else CacheModel(num_cores=1)
        self.received = 0

    def receive_and_drop(self, frame: bytes, core: int = 0) -> None:
        """Process one received frame the stock way, then drop it."""
        skb = self.allocator.allocate()
        # DMA wrote the frame: the covered lines are invalid in all caches.
        dma_base = self.received * NIC.buffer_cell_size
        self.cache.dma_invalidate(dma_base, len(frame))
        self.allocator.initialize(skb, frame)
        # First touch of the DMA'd data: compulsory misses (Table 3 13.8%).
        hits = self.cache.access_range(core, dma_base, len(frame))
        if hits < (len(frame) + 63) // 64:
            self.allocator.charge_cache_miss()
        self.allocator.charge_driver()
        self.allocator.charge_others()
        self.allocator.free(skb)
        self.received += 1

    @property
    def breakdown(self):
        """The accumulated Table 3 cycle breakdown."""
        return self.allocator.breakdown


@dataclass
class AlignedQueueState:
    """Per-queue private driver state, cache-line aligned.

    Section 4.4's first fix: "aligning every starting address of
    per-queue data to the cache line boundary" removes false sharing.
    ``base_addr`` is the modelled address of this queue's state; aligned
    construction places consecutive queues 64 B apart minimum.
    """

    queue_id: int
    base_addr: int
    stats: QueueStats = field(default_factory=QueueStats)
    #: ixgbe-style next-to-clean cursor.
    cursor: int = 0


class OptimizedDriver:
    """The Section 4 engine for one NIC port's RX queues."""

    def __init__(
        self,
        num_queues: int = 4,
        ring_size: int = 0,
        model: NICModel = NIC,
        cache: Optional[CacheModel] = None,
        aligned: bool = True,
        prefetch: bool = True,
        fault_injector: Optional[FaultInjector] = None,
    ) -> None:
        if num_queues <= 0:
            raise ValueError("num_queues must be positive")
        self.model = model
        self.prefetch_enabled = prefetch
        self.fault_injector = fault_injector
        self.cache = cache if cache is not None else CacheModel(num_cores=num_queues)
        self.buffers = [HugePacketBuffer(ring_size, model) for _ in range(num_queues)]
        # Aligned layout: queue states at cache-line multiples; unaligned
        # (the Section 4.4 bug): packed at the true struct size so two
        # queues share lines.
        stride = 64 if aligned else 24
        self.queues = [
            AlignedQueueState(queue_id=q, base_addr=0x10000 + q * stride)
            for q in range(num_queues)
        ]
        self._data_base = [0x1000000 * (q + 1) for q in range(num_queues)]
        # Per-queue RX observability (handles resolved once; increments
        # are one float add each, cheap enough for the per-packet path).
        registry = get_registry()
        self._m_rx = [
            registry.counter(
                names.IO_DRIVER_RX_PACKETS, help="frames DMA'd into RX rings",
                queue=str(q),
            )
            for q in range(num_queues)
        ]
        self._m_drops = [
            registry.counter(
                names.IO_DRIVER_RX_DROPS, help="RX ring tail drops", queue=str(q)
            )
            for q in range(num_queues)
        ]
        self._m_fetched = [
            registry.counter(
                names.IO_DRIVER_FETCHED_PACKETS,
                help="frames fetched by batched RX", queue=str(q),
            )
            for q in range(num_queues)
        ]
        self._h_batch = registry.histogram(
            names.IO_DRIVER_FETCH_BATCH_SIZE, buckets=BATCH_SIZE_BUCKETS,
            help="packets per non-empty fetch_batch",
        )

    def deliver(self, queue_id: int, frame: bytes) -> bool:
        """NIC-side: DMA a frame into the queue's huge buffer.

        With a fault injector attached the frame may be corrupted on the
        wire, or the ring may be forced full (tail drop) even when the
        buffer has room — the host-falling-behind case of Section 5.2.
        """
        if self.fault_injector is not None:
            corrupted, _ = self.fault_injector.corrupt_frame(frame)
            frame = bytes(corrupted)
            if self.fault_injector.should_fire(Sites.RX_RING_OVERFLOW):
                self._m_drops[queue_id].inc()
                return False
        buffer = self.buffers[queue_id]
        accepted = buffer.write(frame)
        if accepted:
            # DMA invalidates the destination lines in every core's cache.
            offset = buffer.cell_offset(buffer.writes - 1)
            self.cache.dma_invalidate(self._data_base[queue_id] + offset, len(frame))
            self._m_rx[queue_id].inc()
        else:
            self._m_drops[queue_id].inc()
        return accepted

    def fetch_batch(
        self, queue_id: int, max_packets: int, core: Optional[int] = None
    ) -> List[bytes]:
        """Host-side batched RX with software prefetch (Section 4.3).

        While processing packet *i*, the driver prefetches packet *i+1*'s
        descriptor and data, so the demand accesses hit.  Updates the
        queue's private statistics (per-queue counters, Section 4.4).
        """
        core = queue_id if core is None else core
        buffer = self.buffers[queue_id]
        state = self.queues[queue_id]
        fetched = buffer.fetch(max_packets)
        frames: List[bytes] = []
        for index, (offset, cell) in enumerate(fetched):
            if self.prefetch_enabled and index + 1 < len(fetched):
                next_offset, next_cell = fetched[index + 1]
                self.cache.prefetch(
                    core, self._data_base[queue_id] + next_offset, next_cell.length
                )
            self.cache.access_range(
                core, self._data_base[queue_id] + offset, cell.length
            )
            frames.append(buffer.read_frame(offset, cell))
            state.stats.add(cell.length)
            state.cursor += 1
            # Touch the queue's private state (the false-sharing site when
            # unaligned: a write here invalidates the neighbour queue's
            # line in its core's cache).
            self.cache.access(core, state.base_addr, write=True)
        if frames:
            self._m_fetched[queue_id].inc(len(frames))
            self._h_batch.observe(len(frames))
        return frames

    def aggregate_stats(self) -> QueueStats:
        """On-demand accumulation of per-queue counters (Section 4.4)."""
        total = QueueStats()
        for state in self.queues:
            total += state.stats
        return total

    def total_drops(self) -> int:
        return sum(buffer.drops for buffer in self.buffers)
