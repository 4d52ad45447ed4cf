"""A functional testbed: generator -> NIC -> driver -> engine -> router.

``PacketShader.process_frames`` is the convenient entry point, but it
bypasses the packet I/O machinery of Section 4.  The testbed wires the
whole stack the way Figure 7 draws it:

* injected frames are RSS-hashed (real Toeplitz) and DMA'd into the
  ingress port's huge-packet-buffer RX rings (:class:`OptimizedDriver`);
* worker threads fetch batched chunks through their per-queue virtual
  interfaces (:class:`PacketIOEngine`), honouring the interrupt/poll
  livelock contract;
* the chunks run the application workflow on the framework
  (:meth:`PacketShader.process_chunks`);
* forwarded frames are posted to the egress ports' TX rings and drained
  to the sink.

Ring overflows become real drops, and every counter of the underlying
pieces stays observable — this is the integration surface the
end-to-end tests exercise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.core.chunk import Chunk
from repro.core.config import RouterConfig
from repro.core.framework import PacketShader
from repro.core.application import RouterApplication
from repro.core.overload import OverloadController
from repro.core.slowpath import SlowPathHandler
from repro.faults.plan import FaultInjector
from repro.faults.recovery import RetryPolicy
from repro.io_engine.driver import OptimizedDriver
from repro.io_engine.engine import PacketIOEngine
from repro.io_engine.rss import RSSHasher
from repro.hw.nic import NICPort
from repro.net.frames import FrameBatch


@dataclass
class TestbedStats:
    """End-to-end accounting across the whole stack."""

    injected: int = 0
    rx_dropped: int = 0
    transmitted: int = 0
    tx_dropped: int = 0


class Testbed:
    """One node's worth of the full functional stack."""

    # Not a test case despite the name (pytest collection hint).
    __test__ = False

    def __init__(
        self,
        app: RouterApplication,
        config: Optional[RouterConfig] = None,
        num_ports: int = 4,
        ring_size: int = 1024,
        slow_path: Optional[SlowPathHandler] = None,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        overload: Optional[OverloadController] = None,
    ) -> None:
        if num_ports < 1:
            raise ValueError("need at least one port")
        self.config = config or RouterConfig()
        self.fault_injector = fault_injector
        self.overload = overload
        self.router = PacketShader(
            app, self.config, slow_path=slow_path,
            fault_injector=fault_injector, retry_policy=retry_policy,
            overload=overload,
        )
        self.node = self.router.nodes[0]
        workers = len(self.node.workers)
        # One driver per ingress port, one RX queue per worker.  The
        # fault injector corrupts at the driver DMA boundary (the wire
        # side); the engine deliberately gets none, so a frame is
        # corrupted at most once on its way in.
        self.drivers: Dict[int, OptimizedDriver] = {
            port: OptimizedDriver(
                num_queues=workers, ring_size=ring_size,
                fault_injector=fault_injector,
            )
            for port in range(num_ports)
        }
        self.engine = PacketIOEngine(self.drivers, overload=overload)
        for port in range(num_ports):
            for queue in range(workers):
                self.engine.attach(port, queue, thread=queue)
        # Egress: TX rings on the same ports.
        self.ports = [
            NICPort(port, node=0, num_queues=workers) for port in range(num_ports)
        ]
        self.rss = RSSHasher(queue_map=list(range(workers)))
        self.stats = TestbedStats()
        self.sink: Dict[int, List[bytes]] = {}

    # ------------------------------------------------------------------
    # Ingress (the generator side).
    # ------------------------------------------------------------------

    def inject(self, frames: List[bytearray], port: int = 0) -> int:
        """DMA frames into a port's RX rings via RSS; returns accepted."""
        if port not in self.drivers:
            raise ValueError(f"unknown port {port}")
        driver = self.drivers[port]
        # Not ShardMap: this NIC model puts frames without a 5-tuple on
        # queue 0 where ShardMap round-robins them, and the committed
        # BENCH_degraded.json depends on that placement.
        queues = np.zeros(len(frames), dtype=np.int64)
        queue_map = np.asarray(self.rss.queue_map)
        for indices, rows in FrameBatch.from_frames(frames).rss_rows():
            hashes = self.rss.toeplitz_rows(rows)
            queues[indices] = queue_map[hashes % len(queue_map)]
        accepted = 0
        for frame, queue in zip(frames, queues.tolist()):
            if driver.deliver(queue, bytes(frame)):
                accepted += 1
            else:
                self.stats.rx_dropped += 1
            self.stats.injected += 1
        return accepted

    # ------------------------------------------------------------------
    # The router loop.
    # ------------------------------------------------------------------

    def _fetch_chunks(self) -> List[Chunk]:
        """Every worker drains its virtual interfaces into chunks."""
        chunks: List[Chunk] = []
        for worker in self.node.workers:
            thread = worker.worker_id - self.node.workers[0].worker_id
            while True:
                frames = self.engine.recv_chunk(
                    thread,
                    max_packets=self.router.effective_chunk_capacity(),
                )
                if not frames:
                    break
                chunk = Chunk(frames=frames, worker_id=worker.worker_id)
                # Link the chunk to the RX event that birthed it: the
                # CHUNK completion event echoes this context, so a
                # merged cross-process stream can trace verdict back
                # to ingress (docs/OBSERVABILITY.md, trace context).
                chunk.trace_ctx = (
                    self.router.flightrec.writer_id,
                    self.engine.last_rx_seq,
                )
                chunks.append(chunk)
        return chunks

    def run_once(self) -> Dict[int, List[bytes]]:
        """One scheduling round: fetch, process, transmit.

        Returns the frames that hit the wire this round (also appended
        to :attr:`sink`).
        """
        chunks = self._fetch_chunks()
        egress = self.router.process_chunks(chunks, self.node)
        transmitted: Dict[int, List[bytes]] = {}
        for port, frames in egress.items():
            if not 0 <= port < len(self.ports):
                self.stats.tx_dropped += len(frames)
                continue
            tx_queue = self.ports[port].tx_queues[0]
            sent = tx_queue.post_batch(frames)
            self.stats.tx_dropped += len(frames) - sent
            wire = [bytes(f) for f in tx_queue.drain()]
            self.stats.transmitted += len(wire)
            transmitted.setdefault(port, []).extend(wire)
            self.sink.setdefault(port, []).extend(wire)
        return transmitted

    def dump_pcap(self, path: str, port: Optional[int] = None) -> int:
        """Write the sink's wire traffic to a pcap file.

        ``port=None`` dumps every port's frames (in port order);
        otherwise only that port's.  Returns the record count — open
        the file in Wireshark/tcpdump to inspect the forwarded frames.
        """
        from repro.net.pcap import write_pcap

        if port is None:
            frames = [f for p in sorted(self.sink) for f in self.sink[p]]
        else:
            frames = list(self.sink.get(port, []))
        return write_pcap(path, frames)

    def run_until_drained(self, max_rounds: int = 100) -> Dict[int, List[bytes]]:
        """Run rounds until every RX ring is empty; returns the sink."""
        for _ in range(max_rounds):
            self.run_once()
            if all(
                len(buffer) == 0
                for driver in self.drivers.values()
                for buffer in driver.buffers
            ):
                return self.sink
        raise RuntimeError(f"RX rings not drained after {max_rounds} rounds")
