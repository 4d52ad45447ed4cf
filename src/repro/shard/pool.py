"""The managed shared-memory chunk pool (docs/SHARDING.md).

Frame bytes of a sharded run live here: each worker process owns one
pool — a fixed number of fixed-size slots in a single
``multiprocessing.shared_memory`` segment — and packs every chunk's
frames into a slot at the RX edge.  A chunk then crosses process
boundaries as a :class:`ChunkShmRef` descriptor (segment name, slot,
generation, epoch, byte length); the receiver re-maps the same slot
memory instead of copying the bytes (the PR 5 zero-copy design
surviving the fork).

Lifecycle invariants:

* **single allocator** — only the owning worker acquires and releases
  slots, so the free list needs no locks; the master (or any reader)
  only maps slots it was handed descriptors for;
* **generation tags** — every slot carries a generation counter bumped
  on release; a descriptor whose generation no longer matches names a
  recycled slot and raises :class:`StaleChunkError` instead of silently
  aliasing a newer chunk;
* **epoch counters** — ``Chunk.replace_frame()`` (ipsec encap/decap
  growing a frame) moves the chunk's store to a heap twin; the chunk
  bumps its slot's epoch so any descriptor still in flight is
  invalidated, and the next boundary crossing goes through the
  copy-on-grow escape: :meth:`ShmChunkPool.ensure_packed` compacts the
  live frames into a fresh slot.

The segment's own life (publish, validate, untrack, owner-only unlink)
is the :class:`repro.shm.Segment` base's — the one module reprolint
RL012 lets construct a ``SharedMemory`` handle.
"""

from __future__ import annotations

import gc
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.chunk import Chunk
from repro.obs import get_registry, names
from repro.shm import FIELDS_AT, Segment, SegmentLayout

MAGIC = 0x5053_4348_504C  # "PSCHPL" as the low 6 bytes
VERSION = 2

_HEADER_WORDS = 8
_HEADER_BYTES = _HEADER_WORDS * 8
(_H_NSLOTS, _H_SLOT_BYTES) = range(FIELDS_AT, FIELDS_AT + 2)

_SLOT_HDR_WORDS = 4
_SLOT_HDR_BYTES = _SLOT_HDR_WORDS * 8
(_S_GENERATION, _S_EPOCH, _S_USED) = range(3)

#: Default pool geometry: enough slots to keep a worker's whole
#: in-flight window (master queue depth) shm-backed, each slot sized
#: for a full chunk of MTU frames.
DEFAULT_SLOTS = 32
DEFAULT_SLOT_BYTES = 512 * 1024


class StaleChunkError(RuntimeError):
    """A descriptor named a slot that was recycled or invalidated."""


class ChunkShmRef(NamedTuple):
    """The boundary-crossing descriptor of one shm-backed chunk store.

    Offsets/lengths travel in the chunk's own pickled state; the ref
    pins *where* the packed bytes live and *which incarnation* of the
    slot they belong to.
    """

    segment: str
    slot: int
    generation: int
    epoch: int
    length: int


def pool_name(session: str, worker_id: int) -> str:
    """The canonical chunk-pool segment name for one worker."""
    return f"{session}-pool{worker_id}"


class ShmChunkPool(Segment):
    """One worker's fixed-slot chunk store (see module docstring)."""

    LAYOUT = SegmentLayout("chunk pool", MAGIC, VERSION, _HEADER_WORDS)

    def __init__(self, shm, owner: bool, allocator: bool) -> None:
        super().__init__(shm, owner)
        self.allocator = allocator
        self.nslots = int(self._header[_H_NSLOTS])
        self.slot_bytes = int(self._header[_H_SLOT_BYTES])
        self._slot_headers = np.ndarray(
            (self.nslots, _SLOT_HDR_WORDS), dtype="<i8", buffer=shm.buf,
            offset=_HEADER_BYTES,
        )
        self._data_off = _HEADER_BYTES + self.nslots * _SLOT_HDR_BYTES
        #: Allocator-side free list (slot indices); meaningless in
        #: reader attachments.
        self._free: List[int] = list(range(self.nslots)) if allocator else []
        registry = get_registry()
        self._g_slots_used = registry.gauge(
            names.SHARD_POOL_SLOTS_USED,
            help="chunk-pool slots currently holding a live chunk",
        )
        self._m_fallbacks = registry.counter(
            names.SHARD_POOL_FALLBACKS,
            help="chunks that crossed a process boundary as byte copies "
            "(pool exhausted or frames larger than a slot)",
        )
        self._m_repacks = registry.counter(
            names.SHARD_POOL_REPACKS,
            help="copy-on-grow escapes: chunks compacted into a fresh slot "
            "after replace_frame() moved their store off the old one",
        )

    # -- segment lifecycle ---------------------------------------------

    @classmethod
    def create(cls, name: str, slots: int = DEFAULT_SLOTS,
               slot_bytes: int = DEFAULT_SLOT_BYTES,
               allocator: bool = False) -> "ShmChunkPool":
        """Allocate and initialise a pool segment.

        The sharded plane's parent creates pools with
        ``allocator=False`` (it only owns the segment lifecycle); the
        worker that packs chunks re-attaches with ``allocator=True``.
        Single-process users (tests, the in-process differential mode)
        create with ``allocator=True`` directly.
        """
        if slots < 1 or slot_bytes < 64:
            raise ValueError("pool needs >= 1 slot of >= 64 bytes")
        nbytes = _HEADER_BYTES + slots * _SLOT_HDR_BYTES + slots * slot_bytes
        shm = cls._create(
            name, nbytes, {_H_NSLOTS: slots, _H_SLOT_BYTES: slot_bytes}
        )
        pool = cls(shm, owner=True, allocator=allocator)
        # Slot headers are only ever read through a descriptor, and none
        # exists before this returns — safe to initialise after publish.
        pool._slot_headers[:, _S_GENERATION] = 1
        _ATTACHED[name] = pool
        return pool

    @classmethod
    def attach(cls, name: str, allocator: bool = False) -> "ShmChunkPool":
        """Map an existing pool; ``allocator=True`` in the owning worker."""
        pool = cls(cls._attach(name), owner=False, allocator=allocator)
        _ATTACHED[name] = pool
        return pool

    def close(self) -> None:
        """Drop this process's mapping (the segment survives)."""
        _ATTACHED.pop(self.name, None)
        # Release numpy views into the buffer before closing the map,
        # and collect dead chunks so their frame views release too
        # (finished chunks are garbage by now, but not yet collected).
        self._slot_headers = None
        gc.collect()
        super().close()

    # -- slot allocation (allocator side only) -------------------------

    @property
    def free_slots(self) -> int:
        return len(self._free)

    @property
    def fallback_count(self) -> int:
        """Fallbacks this pool has counted: RX-edge heap builds plus
        :meth:`ensure_packed` escapes (the boundary byte-copy tally)."""
        return int(self._m_fallbacks.value)

    def _require_allocator(self) -> None:
        if not self.allocator:
            raise RuntimeError(
                f"pool {self.name!r}: only the owning worker allocates slots"
            )

    def acquire(self) -> Optional[int]:
        """Claim a free slot (None when exhausted)."""
        self._require_allocator()
        if not self._free:
            return None
        slot = self._free.pop()
        self._g_slots_used.set(self.nslots - len(self._free))
        return slot

    def release(self, ref: ChunkShmRef) -> None:
        """Recycle a slot: bump its generation, return it to the pool.

        The generation bump is what makes recycling safe — any
        descriptor still naming the old incarnation now fails
        validation instead of aliasing the next chunk's bytes.
        """
        self._require_allocator()
        header = self._slot_headers[ref.slot]
        if int(header[_S_GENERATION]) != ref.generation:
            raise StaleChunkError(
                f"pool {self.name!r} slot {ref.slot}: release of "
                f"generation {ref.generation}, live generation "
                f"{int(header[_S_GENERATION])}"
            )
        header[_S_GENERATION] = ref.generation + 1
        header[_S_USED] = 0
        self._give_back(ref.slot)

    def _give_back(self, slot: int) -> None:
        """Return a slot to the free list, keeping the gauge honest."""
        self._free.append(slot)
        self._g_slots_used.set(self.nslots - len(self._free))

    # -- chunk binding --------------------------------------------------

    def slot_view(self, slot: int) -> memoryview:
        """Writable view of one slot's full data region."""
        start = self._data_off + slot * self.slot_bytes
        return self._shm.buf[start:start + self.slot_bytes]

    def view(self, ref: ChunkShmRef) -> memoryview:
        """Validated, writable view of a descriptor's packed bytes."""
        if not 0 <= ref.slot < self.nslots:
            raise StaleChunkError(
                f"pool {self.name!r}: slot {ref.slot} out of range"
            )
        header = self._slot_headers[ref.slot]
        if int(header[_S_GENERATION]) != ref.generation:
            raise StaleChunkError(
                f"pool {self.name!r} slot {ref.slot}: descriptor "
                f"generation {ref.generation} != live "
                f"{int(header[_S_GENERATION])} (slot recycled)"
            )
        if int(header[_S_EPOCH]) != ref.epoch:
            raise StaleChunkError(
                f"pool {self.name!r} slot {ref.slot}: descriptor epoch "
                f"{ref.epoch} != live {int(header[_S_EPOCH])} "
                f"(replace_frame invalidated the store)"
            )
        return self.slot_view(ref.slot)[:ref.length]

    def _bind(self, chunk: Chunk, slot: int, length: int) -> ChunkShmRef:
        header = self._slot_headers[slot]
        header[_S_USED] = length
        ref = ChunkShmRef(
            segment=self.name,
            slot=slot,
            generation=int(header[_S_GENERATION]),
            epoch=int(header[_S_EPOCH]),
            length=length,
        )
        chunk._shm = ref
        return ref

    def build_chunk(self, frames, **kwargs) -> Chunk:
        """Build a chunk whose backing store is a pool slot.

        The RX-edge pack lands the frames directly in shared memory —
        the only byte copy of the chunk's life.  Falls back to a plain
        heap-backed chunk (counted) when the pool is exhausted or the
        frames outgrow a slot.
        """
        slot = self.acquire() if self.allocator else None
        if slot is None:
            self._m_fallbacks.inc()
            return Chunk(frames, **kwargs)
        try:
            chunk = Chunk(frames, store_into=self.slot_view(slot), **kwargs)
        except ValueError:
            self._give_back(slot)
            self._m_fallbacks.inc()
            return Chunk(frames, **kwargs)
        self._bind(chunk, slot, chunk.packed_nbytes())
        return chunk

    def ensure_packed(self, chunk: Chunk) -> bool:
        """Make a chunk boundary-ready: its store a slot, no dead bytes.

        Three cases:

        * already in its slot — nothing to do;
        * heap-backed — adopt: pack the frames into a fresh slot;
        * on the heap twin ``replace_frame`` moved it to — the
          copy-on-grow escape: compact into a fresh slot and recycle
          the invalidated one.

        Returns False (and counts a fallback) when no slot fits; the
        chunk then pickles through the owned-bytes path.
        """
        if chunk.in_slot:
            return True
        ref = chunk.shm_ref
        slot = self.acquire() if self.allocator else None
        if slot is None or chunk.packed_nbytes() > self.slot_bytes:
            if slot is not None:
                self._give_back(slot)
            if ref is not None and ref.segment == self.name and self.allocator:
                # The chunk now pickles as owned bytes with _shm=None
                # (compact() drops the descriptor with the dead bytes),
                # so the clone that comes back makes recycle() a no-op —
                # free the invalidated slot here or it leaks for the
                # rest of the run.
                chunk.compact()
                self.release(ref)
            self._m_fallbacks.inc()
            return False
        if ref is not None:
            # Copy-on-grow: the old slot's epoch was already bumped by
            # replace_frame(); recycle it under the bumped descriptor.
            self._m_repacks.inc()
            self.release(ref)
        chunk.compact(self.slot_view(slot))
        self._bind(chunk, slot, chunk.packed_nbytes())
        return True

    def recycle(self, chunk: Chunk) -> None:
        """Release a finished chunk's slot (post-shade, after egress)."""
        ref = chunk.shm_ref
        if ref is None or ref.segment != self.name:
            return
        self.release(ref)
        chunk._shm = None


#: Process-local attach cache: segment name -> mapped pool.  Fed by
#: create/attach; consulted (and lazily extended) by descriptor
#: resolution so ``pickle.loads`` on the far side of a queue finds the
#: mapping without threading a pool handle through every call site.
# Per-process divergence is the point: each process maps its own view
# of the segment, and fork children re-attach over inherited entries.
_ATTACHED: Dict[str, ShmChunkPool] = {}  # reprolint: ignore[RL008]


def resolve_ref(ref: ChunkShmRef) -> memoryview:
    """Map a descriptor to its packed bytes (attaching if needed)."""
    pool = _ATTACHED.get(ref.segment)
    if pool is None:
        pool = ShmChunkPool.attach(ref.segment)
    return pool.view(ref)


def attached_pool(segment: str) -> Optional[ShmChunkPool]:
    """The process-local mapping of a segment, if one exists."""
    return _ATTACHED.get(segment)


def note_frame_replaced(ref: ChunkShmRef) -> ChunkShmRef:
    """Bump a slot's epoch after ``replace_frame`` left it for a heap twin.

    Called by :meth:`repro.core.chunk.Chunk.replace_frame` through a
    lazy import.  The bump invalidates every descriptor of the old
    incarnation still in flight; the returned ref carries the new epoch
    so the local holder can still release the slot.
    """
    pool = _ATTACHED.get(ref.segment)
    if pool is None:
        # Segment already unmapped in this process (teardown order);
        # nothing to invalidate locally.
        return ref
    header = pool._slot_headers[ref.slot]
    if int(header[_S_GENERATION]) != ref.generation:
        # Slot already recycled; the descriptor is stale either way.
        return ref
    header[_S_EPOCH] = ref.epoch + 1
    return ref._replace(epoch=ref.epoch + 1)
