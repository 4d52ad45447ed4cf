"""The chunk: PacketShader's unit of batched processing (Section 5.3).

"We define chunk as a group of packets fetched in a batch of packet
reception.  The chunk size is not fixed but only capped."  A chunk is
also the minimum unit of GPU parallelism, and FIFO order within a chunk
is preserved end to end (flow order is guaranteed by RSS + FIFO queues).

Each packet in a chunk carries a verdict: forward (with an output port),
drop (malformed), or slow path (destined to local, TTL expired, bad
checksum — Section 6.2.1's classification).

Verdicts are stored structure-of-arrays: one ``uint8`` disposition
column and one ``int32`` out-port column, so the data plane classifies,
counts, and splits whole chunks with numpy masks instead of per-packet
Python loops (the same batching lesson the paper applies to packet I/O).  The
columns *are* the verdicts — no per-packet object stands beside them
(Section 4.2's argument against the skb): the setters take an index
array, a boolean mask or one scalar index.

The frames are columns too (Sections 4.2-4.3's huge packet buffer):
one byte store plus offsets and lengths, from the RX-edge pack to the
per-port egress gather; ``chunk.frames`` and ``chunk.batch()`` are two
faces of those extents (:mod:`repro.net.frames`), never a second copy.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.frames import FrameBatch, FrameLike, Frames, pack_frames


class Disposition(enum.Enum):
    """What should happen to one packet."""

    PENDING = "pending"
    FORWARD = "forward"
    DROP = "drop"
    SLOW_PATH = "slow_path"


#: Array codes of the dispositions (the SoA storage form).
_CODES: Dict[Disposition, int] = {
    Disposition.PENDING: 0,
    Disposition.FORWARD: 1,
    Disposition.DROP: 2,
    Disposition.SLOW_PATH: 3,
}
PENDING_CODE = _CODES[Disposition.PENDING]
FORWARD_CODE = _CODES[Disposition.FORWARD]
DROP_CODE = _CODES[Disposition.DROP]
SLOW_PATH_CODE = _CODES[Disposition.SLOW_PATH]

#: ``out_ports`` sentinel for "no port assigned".
NO_PORT = -1

IndexLike = Union[np.ndarray, Sequence[int], int]


class Chunk:
    """A batch of packets moving through the three shading steps."""

    __slots__ = (
        "frames",
        "worker_id",
        "in_port",
        "queue_id",
        "dispositions",
        "out_ports",
        "gpu_input",
        # Pickled in this order: ``app_state`` ahead of ``gpu_output``,
        # so per-packet state objects (OpenFlow's keys) keep the short
        # memo references they had when ``gpu_input`` carried them first.
        "app_state",
        "gpu_output",
        "arrival_ns",
        "service_ns",
        "enqueue_depth",
        "trace_ctx",
        "_batch",
        "_shm",
    )

    def __init__(
        self,
        frames: List[bytearray],
        worker_id: int = 0,
        in_port: int = 0,
        queue_id: int = 0,
        gpu_input: object = None,
        gpu_output: object = None,
        app_state: object = None,
        arrival_ns: float = 0.0,
        store_into: Optional[memoryview] = None,
    ) -> None:
        #: The frames, as extents of one store (mutable in place: the
        #: fast path rewrites TTLs and checksums).  Packed here at the
        #: RX edge — the chunk's only byte copy — into a fresh bytearray
        #: or, with ``store_into``, into the caller's buffer (a
        #: shared-memory chunk-pool slot).
        self.frames = Frames(*pack_frames(frames, out=store_into))
        self._batch: Optional[FrameBatch] = None
        #: Shared-memory descriptor when the store is a chunk-pool slot
        #: (:mod:`repro.shard.pool` binds it); None for heap-backed
        #: chunks.
        self._shm = None
        #: RX provenance: which worker fetched it, from which port/queue.
        self.worker_id = worker_id
        self.in_port = in_port
        self.queue_id = queue_id
        #: Per-packet disposition codes, parallel to ``frames`` (SoA).
        self.dispositions = np.full(len(frames), PENDING_CODE, dtype=np.uint8)
        #: Per-packet output ports (``NO_PORT`` where unassigned).
        self.out_ports = np.full(len(frames), NO_PORT, dtype=np.int32)
        #: Application-specific GPU input staging (built in pre-shading).
        self.gpu_input = gpu_input
        #: GPU results placed back by the master (consumed in post-shading).
        self.gpu_output = gpu_output
        #: Application-private per-chunk state surviving from pre- to
        #: post-shading (e.g. the OpenFlow app stashes extracted flow keys).
        self.app_state = app_state
        #: Simulated clock bookkeeping for latency accounting.
        self.arrival_ns = arrival_ns
        #: Modelled service time accumulated across the shading stages
        #: (fed to the overload controller's p99 window on finish).
        self.service_ns = 0.0
        #: Chunks already queued at the master when this one was handed
        #: off — the queue-wait component of the latency estimate.
        self.enqueue_depth = 0
        #: Flight-recorder trace context ``(writer_id, origin_seq)``:
        #: which worker's ring recorded the RX that birthed this chunk,
        #: and that event's seq.  Stamped at the RX edge, carried across
        #: queue (and pickle) boundaries, and echoed into the CHUNK
        #: completion event so a merged cross-process stream can link a
        #: verdict back to its ingress.  ``None`` until stamped.
        self.trace_ctx: Optional[Tuple[int, int]] = None

    def __len__(self) -> int:
        return len(self.frames)

    # ------------------------------------------------------------------
    # Process-boundary serialization.
    # ------------------------------------------------------------------

    def __getstate__(self) -> dict:
        """Pickle the chunk for a process-boundary queue handoff.

        Two wire forms, and either way the chunk arrives with no dead
        bytes:

        * **shm descriptor** — the store is a live chunk-pool slot: only
          the :class:`~repro.shard.pool.ChunkShmRef` travels (plus the
          offset/length columns); the frame bytes are never copied.
        * **owned bytes** — one ``bytes`` blob: the store as it stands,
          or the live frames re-packed once ``replace_frame()`` left
          dead bytes behind.

        Only reads the chunk — ``mp.Queue`` pickles on a feeder thread.
        """
        state = {s: getattr(self, s) for s in self.__slots__ if s != "_batch"}
        frames = self.frames
        if self.in_slot:
            state["_store_bytes"] = None
        else:
            if not self.is_packed:
                frames = Frames(*pack_frames(frames))
            state["_shm"] = None
            state["_store_bytes"] = bytes(frames.store)
        # The store travels as above; under ``frames``, the two columns.
        state["frames"] = (frames.offsets, frames.lengths)
        return state

    def __setstate__(self, state: dict) -> None:
        store_bytes = state.pop("_store_bytes")
        extents = state.pop("frames")
        for slot, value in state.items():
            setattr(self, slot, value)
        if self._shm is not None:
            # Map the descriptor back onto the shared slot: the rebuilt
            # frames alias the sender's bytes (validated by generation
            # and epoch, raising StaleChunkError on a recycled slot).
            from repro.shard.pool import resolve_ref

            store = resolve_ref(self._shm)
        else:
            store = bytearray(store_bytes)
        self.frames = Frames(store, *extents)
        self._batch = None

    # ------------------------------------------------------------------
    # The structure-of-arrays view.
    # ------------------------------------------------------------------

    def batch(self) -> FrameBatch:
        """The chunk's frames as a :class:`FrameBatch` over the same
        store: vectorized header writes land directly in the frames.
        Cached until :meth:`replace_frame` (the store may move).
        """
        if self._batch is None:
            frames = self.frames
            buf = np.frombuffer(frames.store, dtype=np.uint8)
            self._batch = FrameBatch(buf, frames.offsets, frames.lengths)
        return self._batch

    def replace_frame(self, index: int, frame: FrameLike) -> None:
        """Substitute packet ``index``'s frame (e.g. ESP encap/decap).

        The new bytes go to the end of the store (:meth:`Frames.replace`)
        and the old ones stay behind, dead, until a boundary compacts
        the chunk.  A slot cannot grow: a slot-backed chunk moves to a
        heap twin and keeps the slot under a bumped epoch, so any
        descriptor of the old store still in flight in another process
        fails validation instead of reading a half-true frame list (the
        cross-process invalidation of docs/SHARDING.md).
        """
        self._batch = None
        self.frames.replace(index, frame)
        if self._shm is not None:
            from repro.shard.pool import note_frame_replaced

            self._shm = note_frame_replaced(self._shm)

    # ------------------------------------------------------------------
    # Shared-memory backing (bound by repro.shard.pool).
    # ------------------------------------------------------------------

    @property
    def shm_ref(self):
        """The descriptor of the pool slot the chunk holds, if any."""
        return self._shm

    @property
    def in_slot(self) -> bool:
        """True while the store *is* the slot ``shm_ref`` names — until
        :meth:`replace_frame` moves it to a heap twin."""
        return self._shm is not None and not isinstance(
            self.frames.store, bytearray
        )

    @property
    def is_packed(self) -> bool:
        """True while the store holds no dead bytes."""
        return self.packed_nbytes() == len(self.frames.store)

    def packed_nbytes(self) -> int:
        """Total bytes of the live frames."""
        return int(self.frames.lengths.sum())

    def compact(self, into: Optional[memoryview] = None) -> None:
        """Move the live frames, packed, into ``into`` (a fresh pool
        slot) or a new heap store; the caller re-binds the descriptor."""
        self.frames = Frames(*pack_frames(self.frames, out=into))
        self._batch = None
        self._shm = None

    def release_store(self) -> None:
        """Drop the store and the cached batch — this chunk's views into
        a pool slot — keeping the columns a descriptor pickle reads."""
        self.frames.store = b""
        self._batch = None

    # ------------------------------------------------------------------
    # Verdict updates (``where``: index array, boolean mask, one index).
    # ------------------------------------------------------------------

    def set_forward(self, where: IndexLike, ports) -> None:
        """FORWARD the selected packets to ``ports`` (array or scalar)."""
        self.dispositions[where] = FORWARD_CODE
        self.out_ports[where] = ports

    def set_drop(self, where: IndexLike) -> None:
        """DROP the selected packets (index array or boolean mask)."""
        self.dispositions[where] = DROP_CODE
        self.out_ports[where] = NO_PORT

    def set_slow_path(self, where: IndexLike) -> None:
        """Divert the selected packets to the slow path."""
        self.dispositions[where] = SLOW_PATH_CODE
        self.out_ports[where] = NO_PORT

    def pending_mask(self) -> np.ndarray:
        """Boolean mask of packets still awaiting a verdict."""
        return self.dispositions == PENDING_CODE

    def pending_indices(self) -> List[int]:
        """Packets still awaiting a verdict (the GPU-bound subset)."""
        return np.flatnonzero(self.pending_mask()).tolist()

    def slow_path_indices(self) -> List[int]:
        """Packets diverted to the slow path, in FIFO order."""
        return np.flatnonzero(self.dispositions == SLOW_PATH_CODE).tolist()

    def reopen_forwarded(self) -> None:
        """Reset FORWARD verdicts to PENDING (multi-stage composites
        re-offer forwarded packets to the next stage)."""
        self.dispositions[self.dispositions == FORWARD_CODE] = PENDING_CODE

    def disposition_counts(self) -> Tuple[int, int, int]:
        """``(forwarded, dropped, slow_path)`` in one counting pass."""
        counts = np.bincount(self.dispositions, minlength=4)
        return (
            int(counts[FORWARD_CODE]),
            int(counts[DROP_CODE]),
            int(counts[SLOW_PATH_CODE]),
        )

    def split_by_port(self) -> Dict[int, Frames]:
        """Post-shading's final step: frames grouped by output port.

        A stable argsort over the forwarded packets' ports groups the
        egress distribution in one vectorized pass; one gather copies
        the forwarded frames, port by port, out of the chunk's store
        (egress outlives it) and each port gets its run.  FIFO order
        within each port is preserved (the paper's intra-flow ordering
        guarantee rides on it).
        """
        forwarded = np.flatnonzero(self.dispositions == FORWARD_CODE)
        by_port: Dict[int, Frames] = {}
        if forwarded.size == 0:
            return by_port
        ports = self.out_ports[forwarded]
        order = np.argsort(ports, kind="stable")
        sorted_ports = ports[order]
        grouped = self.frames.gather(forwarded[order])
        view = memoryview(grouped.store)
        bounds = [
            0, *(np.flatnonzero(np.diff(sorted_ports)) + 1).tolist(), len(order)
        ]
        edges = [*grouped.offsets[bounds[:-1]].tolist(), len(view)]
        for first, last, lo, hi in zip(bounds, bounds[1:], edges, edges[1:]):
            by_port[sorted_ports.item(first)] = Frames(
                view[lo:hi],
                grouped.offsets[first:last] - lo,
                grouped.lengths[first:last],
            )
        return by_port

    def count(self, disposition: Disposition) -> int:
        """How many packets carry a given disposition."""
        return int(
            np.count_nonzero(self.dispositions == _CODES[disposition])
        )

    def max_frame_len(self, default: int = 64) -> int:
        """Largest frame in the chunk (``default`` when empty)."""
        return int(self.frames.lengths.max()) if len(self) else default
