"""ShmChunkPool: slot lifecycle, descriptor validation, zero-copy wire.

The pool is the load-bearing piece of the sharded plane: these tests
pin the single-allocator free list, the generation/epoch validation
that makes recycling and ``replace_frame`` safe across processes, the
fallback escapes, and — the acceptance regression — that a shm-backed
chunk pickles to a fixed-size descriptor, never to its payload bytes.
"""

import itertools
import os
import pickle

import pytest

from repro.core.chunk import Chunk
from repro.obs import get_registry, names
from repro.shard.pool import (
    ChunkShmRef,
    ShmChunkPool,
    StaleChunkError,
    attached_pool,
    pool_name,
    resolve_ref,
)

_SEQ = itertools.count()


@pytest.fixture
def pool():
    name = f"rt-pool-{os.getpid()}-{next(_SEQ)}"
    pool = ShmChunkPool.create(name, slots=4, slot_bytes=4096,
                               allocator=True)
    yield pool
    pool.close()
    pool.unlink()


def frames_of(count, size, fill=0x41):
    return [bytearray([fill] * size) for _ in range(count)]


class TestLifecycle:
    def test_pool_name_is_canonical(self):
        assert pool_name("sess", 3) == "sess-pool3"

    def test_create_registers_in_attach_cache(self, pool):
        assert attached_pool(pool.name) is pool

    def test_attach_sees_created_geometry(self, pool):
        reader = ShmChunkPool.attach(pool.name)
        try:
            assert reader.nslots == pool.nslots
            assert reader.slot_bytes == pool.slot_bytes
            assert not reader.allocator
        finally:
            reader.close()

    def test_attach_rejects_non_pool_segments(self):
        from repro.obs.shm import MetricSlab, slab_name

        slab = MetricSlab.create(
            slab_name(f"rt-notpool-{os.getpid()}-{next(_SEQ)}", 0),
            writer_id=0,
        )
        try:
            with pytest.raises(ValueError, match="not a chunk pool"):
                ShmChunkPool.attach(slab.name)
        finally:
            slab.unlink()
            slab.close()

    def test_reader_cannot_allocate(self, pool):
        reader = ShmChunkPool.attach(pool.name)
        try:
            with pytest.raises(RuntimeError, match="owning worker"):
                reader.acquire()
        finally:
            reader.close()

    def test_reader_cannot_unlink(self, pool):
        """unlink() is the creator's: a reader handle calling it must
        leave the segment in place (as MetricSlab's always did)."""
        reader = ShmChunkPool.attach(pool.name)
        try:
            assert pool.owner and not reader.owner
            reader.unlink()
            assert os.path.exists(f"/dev/shm/{pool.name}")
            second = ShmChunkPool.attach(pool.name)
            assert second.nslots == pool.nslots
            second.close()
        finally:
            reader.close()


class TestSlots:
    def test_build_chunk_is_shm_backed(self, pool):
        chunk = pool.build_chunk(frames_of(4, 64))
        assert chunk.shm_ref is not None
        assert chunk.shm_ref.segment == pool.name
        assert chunk.packed_nbytes() == 4 * 64

    def test_release_bumps_generation(self, pool):
        chunk = pool.build_chunk(frames_of(1, 64))
        ref = chunk.shm_ref
        chunk = None
        pool.release(ref)
        fresh = pool.build_chunk(frames_of(1, 64))
        assert fresh.shm_ref.slot in range(pool.nslots)
        with pytest.raises(StaleChunkError, match="recycled"):
            pool.view(ref)

    def test_double_release_is_stale(self, pool):
        ref = pool.build_chunk(frames_of(1, 64)).shm_ref
        pool.release(ref)
        with pytest.raises(StaleChunkError):
            pool.release(ref)

    def test_exhaustion_falls_back_to_heap(self, pool):
        fallbacks = get_registry().counter(names.SHARD_POOL_FALLBACKS)
        before = fallbacks.value
        held = [pool.build_chunk(frames_of(1, 64))
                for _ in range(pool.nslots)]
        assert all(c.shm_ref is not None for c in held)
        overflow = pool.build_chunk(frames_of(1, 64))
        assert overflow.shm_ref is None
        assert fallbacks.value == before + 1
        assert len(overflow.frames) == 1

    def test_oversized_frames_fall_back_to_heap(self, pool):
        chunk = pool.build_chunk(frames_of(2, pool.slot_bytes))
        assert chunk.shm_ref is None
        assert len(chunk.frames) == 2


class TestDescriptorWire:
    def test_pickle_is_descriptor_sized_not_payload_sized(self, pool):
        """The acceptance regression: no full-buffer copy crosses the
        process boundary.  Growing the payload 32x must not move the
        pickle size — only the descriptor and the offset/length
        columns travel."""
        small = pickle.dumps(pool.build_chunk(frames_of(4, 32)))
        big = pickle.dumps(pool.build_chunk(frames_of(4, 1024)))
        assert abs(len(big) - len(small)) < 64
        assert len(big) < 4 * 1024  # payload alone is 4096 bytes

    def test_getstate_ships_no_store_bytes(self, pool):
        state = pool.build_chunk(frames_of(2, 128)).__getstate__()
        assert isinstance(state["_shm"], ChunkShmRef)
        assert state["_store_bytes"] is None

    def test_clone_aliases_the_sender_slot(self, pool):
        """The round-tripped chunk maps the *same* slot memory: a write
        through the clone is visible through the original — the
        zero-copy property, observed rather than asserted by size."""
        chunk = pool.build_chunk(frames_of(2, 64))
        clone = pickle.loads(pickle.dumps(chunk))
        clone.frames[0][0] = 0x7E
        assert chunk.frames[0][0] == 0x7E
        assert clone.shm_ref == chunk.shm_ref

    def test_verdict_columns_survive_the_wire(self, pool):
        chunk = pool.build_chunk(frames_of(3, 64), worker_id=7)
        chunk.set_forward([0, 2], [5, 6])
        chunk.set_drop([1])
        clone = pickle.loads(pickle.dumps(chunk))
        assert clone.worker_id == 7
        assert clone.disposition_counts() == (2, 1, 0)
        assert clone.out_ports.tolist() == [5, -1, 6]

    def test_recycled_slot_fails_loads(self, pool):
        chunk = pool.build_chunk(frames_of(1, 64))
        wire = pickle.dumps(chunk)
        ref = chunk.shm_ref
        chunk = None
        pool.release(ref)
        with pytest.raises(StaleChunkError):
            pickle.loads(wire)

    def test_resolve_ref_validates_range(self, pool):
        bogus = ChunkShmRef(pool.name, slot=99, generation=1, epoch=0,
                            length=8)
        with pytest.raises(StaleChunkError, match="out of range"):
            resolve_ref(bogus)

    def test_heap_chunk_ships_owned_bytes(self):
        chunk = Chunk(frames_of(2, 96))
        state = chunk.__getstate__()
        assert state["_shm"] is None
        assert len(state["_store_bytes"]) == 2 * 96
        clone = pickle.loads(pickle.dumps(chunk))
        clone.frames[0][0] = 0x11
        assert chunk.frames[0][0] != 0x11  # owned copy, no aliasing


class TestReplaceFrame:
    def test_replace_frame_bumps_epoch(self, pool):
        chunk = pool.build_chunk(frames_of(2, 64))
        old = chunk.shm_ref
        chunk.replace_frame(0, bytearray(128))
        assert chunk.shm_ref.epoch == old.epoch + 1
        with pytest.raises(StaleChunkError, match="epoch"):
            pool.view(old)

    def test_ensure_packed_adopts_heap_chunks(self, pool):
        chunk = Chunk(frames_of(2, 64))
        assert pool.ensure_packed(chunk)
        assert chunk.shm_ref is not None
        assert chunk.is_packed

    def test_copy_on_grow_repacks_into_fresh_slot(self, pool):
        repacks = get_registry().counter(names.SHARD_POOL_REPACKS)
        before = repacks.value
        chunk = pool.build_chunk(frames_of(2, 64))
        old_slot = chunk.shm_ref.slot
        free_before = pool.free_slots
        chunk.replace_frame(0, bytearray(b"\x55" * 200))
        assert pool.ensure_packed(chunk)
        assert repacks.value == before + 1
        assert chunk.is_packed
        assert chunk.packed_nbytes() == 200 + 64
        assert bytes(chunk.frames[0]) == b"\x55" * 200
        # The invalidated slot went back to the free list; net usage
        # is still one slot.
        assert pool.free_slots == free_before
        assert chunk.shm_ref.slot != old_slot or pool.nslots == 1

    def test_ensure_packed_reports_failure_when_too_big(self, pool):
        chunk = Chunk(frames_of(1, 64))
        chunk.replace_frame(0, bytearray(pool.slot_bytes + 1))
        assert not pool.ensure_packed(chunk)
        assert chunk.shm_ref is None

    def test_oversize_escape_releases_the_detached_slot(self, pool):
        """When the copy-on-grow escape fails (no slot fits the grown
        frames) the detached store's slot must come straight back: the
        chunk leaves shm-less, so the clone returning from the master
        makes recycle() a no-op and nothing else would ever free it."""
        chunk = pool.build_chunk(frames_of(1, 64))
        old = chunk.shm_ref
        free_before = pool.free_slots
        chunk.replace_frame(0, bytearray(pool.slot_bytes + 1))
        assert not pool.ensure_packed(chunk)
        assert chunk.shm_ref is None
        assert pool.free_slots == free_before + 1
        with pytest.raises(StaleChunkError, match="recycled"):
            pool.view(old)

    def test_failed_escape_moves_surviving_frames_off_the_slot(self, pool):
        """Found by the stateful machine: when the escape fails, the
        frames replace_frame() left alone still aliased the slot being
        given back, and the next chunk built there rewrote them."""
        held = [pool.build_chunk(frames_of(1, 64)) for _ in range(3)]
        chunk = pool.build_chunk(frames_of(2, 64, fill=0x41))
        chunk.replace_frame(0, bytearray(b"\x42" * 80))
        assert not pool.ensure_packed(chunk)  # exhausted: no fresh slot
        assert chunk.shm_ref is None and chunk.is_packed
        reuser = pool.build_chunk(frames_of(2, 64, fill=0x5A))
        assert reuser.shm_ref is not None  # took the slot just freed
        assert [bytes(f) for f in chunk.frames] == [
            b"\x42" * 80, b"\x41" * 64,
        ]
        assert len(held) == 3

    def test_fallback_give_backs_keep_the_used_gauge_honest(self, pool):
        """Slots returned by the fallback paths (not just release())
        must re-set SHARD_POOL_SLOTS_USED, or the gauge over-reports
        until the next acquire."""
        gauge = get_registry().gauge(names.SHARD_POOL_SLOTS_USED)
        pool.build_chunk(frames_of(1, pool.slot_bytes + 1))  # oversize
        assert gauge.value == 0
        held = pool.build_chunk(frames_of(1, 64))
        assert gauge.value == 1
        grown = Chunk(frames_of(1, 64))
        grown.replace_frame(0, bytearray(pool.slot_bytes + 1))
        assert not pool.ensure_packed(grown)
        assert gauge.value == 1
        pool.recycle(held)
        assert gauge.value == 0

    def test_egress_outlives_the_chunk_and_its_slot(self, pool):
        """Egress is owned: what split_by_port() handed out does not
        change when the chunk's store is rewritten, nor when the slot is
        recycled and the next chunk is packed into it."""
        chunk = pool.build_chunk(
            [bytearray([0x40 + i] * (60 + 4 * i)) for i in range(6)]
        )
        chunk.set_forward([0, 2, 3, 5], [3, 1, 3, 1])
        chunk.replace_frame(3, bytearray(b"\x77" * 90))
        egress = chunk.split_by_port()
        before = {port: [bytes(f) for f in fs] for port, fs in egress.items()}
        assert before[3] == [b"\x40" * 60, b"\x77" * 90]
        for frame in chunk.frames:
            frame[:] = bytes(len(frame))
        free_before = pool.free_slots
        pool.recycle(chunk)
        reuser = pool.build_chunk(frames_of(6, 100, fill=0x5A))
        assert reuser.shm_ref is not None
        assert pool.free_slots == free_before
        assert {
            port: [bytes(f) for f in fs] for port, fs in egress.items()
        } == before

    def test_recycle_ignores_foreign_chunks(self, pool):
        heap = Chunk(frames_of(1, 64))
        pool.recycle(heap)  # no-op, no raise
        chunk = pool.build_chunk(frames_of(1, 64))
        free_before = pool.free_slots
        pool.recycle(chunk)
        assert pool.free_slots == free_before + 1
