"""Chunks and their verdict columns."""

import itertools
import os
import pickle

import numpy as np
import pytest

from repro.core.chunk import NO_PORT, Chunk, Disposition
from repro.shard.pool import ShmChunkPool


def chunk_of(n=4):
    return Chunk(frames=[bytearray(64) for _ in range(n)])


class TestVerdicts:
    def test_initial_state_pending(self):
        chunk = chunk_of(3)
        assert chunk.pending_indices() == [0, 1, 2]
        assert len(chunk) == 3

    def test_forward_drop_slowpath(self):
        chunk = chunk_of(3)
        chunk.set_forward(0, 5)
        chunk.set_drop(1)
        chunk.set_slow_path(2)
        assert chunk.pending_indices() == []
        assert chunk.count(Disposition.FORWARD) == 1
        assert chunk.count(Disposition.DROP) == 1
        assert chunk.count(Disposition.SLOW_PATH) == 1
        assert chunk.out_ports[0] == 5
        assert chunk.out_ports[1] == NO_PORT

    def test_split_by_port_preserves_order(self):
        chunk = chunk_of(4)
        chunk.frames[0][0] = 1
        chunk.frames[2][0] = 2
        chunk.set_forward([0, 2], 7)
        chunk.set_drop(1)
        chunk.set_slow_path(3)
        by_port = chunk.split_by_port()
        assert list(by_port) == [7]
        assert [f[0] for f in by_port[7]] == [1, 2]  # FIFO within the chunk

    def test_verdicts_must_parallel_frames(self):
        # The columns are the verdicts: one disposition and one port per
        # frame — empty chunk and pickle clone included — and a setter
        # cannot address a packet the chunk does not hold.
        for count in (0, 1, 5):
            chunk = chunk_of(count)
            for subject in (chunk, pickle.loads(pickle.dumps(chunk))):
                assert subject.dispositions.shape == (count,)
                assert subject.out_ports.shape == (count,)
                assert len(subject.frames) == count
                assert subject.pending_mask().all()
                assert (subject.out_ports == NO_PORT).all()
        with pytest.raises(IndexError):
            chunk_of(1).set_drop(1)
        with pytest.raises(IndexError):
            chunk_of(0).set_forward(0, 3)


class TestPickle:
    """Process-boundary serialization (the sharded data plane pickles
    chunks across multiprocessing queues)."""

    def test_round_trip_packed_chunk(self):
        chunk = Chunk(
            frames=[bytearray(b"\xaa" * 60), bytearray(b"\xbb" * 64)],
            worker_id=3, in_port=2, queue_id=1,
        )
        chunk.set_forward(0, 7)
        clone = pickle.loads(pickle.dumps(chunk))
        assert [bytes(f) for f in clone.frames] == [
            bytes(f) for f in chunk.frames
        ]
        assert clone.worker_id == 3 and clone.in_port == 2
        assert clone.out_ports[0] == 7
        assert clone.batch().lengths.tolist() == [60, 64]

    def test_round_trip_does_not_alias_sender_storage(self):
        chunk = Chunk(frames=[bytearray(b"\x00" * 32)])
        clone = pickle.loads(pickle.dumps(chunk))
        chunk.frames[0][0] = 0xFF
        assert clone.frames[0][0] == 0  # owned copy, not a shared view

    def test_round_trip_after_replace_frame(self):
        chunk = Chunk(frames=[bytearray(b"\x01" * 16), bytearray(b"\x02" * 16)])
        chunk.replace_frame(1, bytearray(b"\x99" * 24))
        clone = pickle.loads(pickle.dumps(chunk))
        assert bytes(clone.frames[1]) == b"\x99" * 24
        assert len(clone.frames[0]) == 16

    def test_clone_frames_stay_mutable(self):
        chunk = Chunk(frames=[bytearray(b"\x00" * 16)])
        clone = pickle.loads(pickle.dumps(chunk))
        clone.frames[0][0] = 0x42  # TTL-rewrite style in-place edit
        assert clone.frames[0][0] == 0x42

    @pytest.mark.parametrize("backing,replaced,count", [
        case
        for case in itertools.product(
            ("heap", "slot"), ("none", "one", "all"), (0, 1, 256)
        )
        if case[2] or case[1] == "none"  # nothing to replace when empty
    ])
    def test_wire_form_round_trip(self, backing, replaced, count):
        """Two wire forms, one arrival form: whatever the sender's
        store looks like, the clone is packed and byte-identical, the
        sender is only read, and the state ships one payload."""
        frames = [
            bytearray([index % 251] * (60 + 7 * (index % 23)))
            for index in range(count)
        ]
        pool = None
        if backing == "slot":
            pool = ShmChunkPool.create(
                f"rt-wire-{os.getpid()}-{next(_WIRE_SEQ)}",
                slots=2, slot_bytes=64 * 1024, allocator=True,
            )
        try:
            build = pool.build_chunk if pool else Chunk
            chunk = build(frames, worker_id=5, in_port=2)
            assert (chunk.shm_ref is not None) == (backing == "slot")
            chunk.trace_ctx = (5, 1234)
            if count:
                chunk.set_forward(np.arange(0, count, 2), 9)
                chunk.set_drop(count - 1)
            targets = {"none": [], "one": [count // 2], "all": range(count)}
            for index in targets[replaced]:
                chunk.replace_frame(index, bytearray(b"\xee" * (90 + index)))
            expected = [bytes(f) for f in chunk.frames]
            sender_frames = list(chunk.frames)
            sender_ref = chunk.shm_ref

            state = chunk.__getstate__()
            assert set(state) - set(Chunk.__slots__) == {"_store_bytes"}
            assert (state["_shm"] is None) != (state["_store_bytes"] is None)
            descriptor = backing == "slot" and replaced == "none"
            assert (state["_shm"] is not None) == descriptor

            clone = pickle.loads(pickle.dumps(chunk))
            assert [bytes(f) for f in clone.frames] == expected
            assert clone.is_packed
            assert not count or np.shares_memory(
                clone.batch().buf,
                np.frombuffer(clone.frames.store, dtype=np.uint8),
            )
            assert (clone.shm_ref is not None) == descriptor
            assert clone.dispositions.tolist() == chunk.dispositions.tolist()
            assert clone.out_ports.tolist() == chunk.out_ports.tolist()
            assert (clone.worker_id, clone.in_port) == (5, 2)
            assert clone.trace_ctx == (5, 1234)

            assert all(a == b for a, b in zip(chunk.frames, sender_frames))
            assert len(chunk.frames) == count
            assert chunk.is_packed == (replaced == "none")
            assert chunk.shm_ref == sender_ref
        finally:
            chunk = clone = sender_frames = None
            if pool is not None:
                pool.close()
                pool.unlink()


_WIRE_SEQ = itertools.count()
