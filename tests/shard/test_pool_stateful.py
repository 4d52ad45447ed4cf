"""ShmChunkPool under arbitrary operation sequences (ROADMAP item 5b).

One allocator pool, a handful of live chunks, and every operation the
sharded plane performs on them in any order hypothesis cares to try:
build at the RX edge (from empty to larger than a slot), settle
verdicts, ``replace_frame``, the ``ensure_packed`` boundary escape, a
pickle round trip, ``recycle``/``release``, and a reader attaching
mid-run.  A plain-Python model (bytes per frame, a list per column,
"holds a slot" per chunk) predicts every outcome; after every step the
slot accounting, the gauge, the wire form of every live chunk and the
deadness of every retired descriptor are compared against it.
"""

import itertools
import os
import pickle

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.chunk import DROP_CODE, FORWARD_CODE, NO_PORT, PENDING_CODE
from repro.obs import get_registry, names
from repro.shard.pool import ShmChunkPool, StaleChunkError, resolve_ref

_SEQ = itertools.count()

NSLOTS = 3
SLOT_BYTES = 256

frame_bytes = st.binary(min_size=1, max_size=120)


class _Live:
    """One live chunk beside what the model says it must contain."""

    def __init__(self, chunk, frames):
        self.chunk = chunk
        self.frames = [bytes(f) for f in frames]
        self.dispositions = [PENDING_CODE] * len(frames)
        self.out_ports = [NO_PORT] * len(frames)
        self.holds_slot = False
        self.packed = True

    @property
    def total(self):
        return sum(map(len, self.frames))


class PoolMachine(RuleBasedStateMachine):
    @initialize()
    def create_pool(self):
        self.pool = ShmChunkPool.create(
            f"rt-stateful-{os.getpid()}-{next(_SEQ)}",
            slots=NSLOTS, slot_bytes=SLOT_BYTES, allocator=True,
        )
        self.reader = None
        self.live = []
        #: Descriptors of released or epoch-bumped stores: none may
        #: ever resolve again.
        self.retired = []
        self.fallbacks_at_start = self.pool.fallback_count
        self.expected_fallbacks = 0
        # Process-global: an earlier pool may have left its last reading.
        self.gauge = get_registry().gauge(names.SHARD_POOL_SLOTS_USED)
        self.gauge.set(0)

    def teardown(self):
        name = self.pool.name
        self.live = None
        if self.reader is not None:
            self.reader.close()
        self.pool.close()
        self.pool.unlink()
        assert not os.path.exists(f"/dev/shm/{name}")

    # -- helpers ---------------------------------------------------------

    def _draw(self, data, where=lambda entry: True):
        """One live chunk satisfying ``where`` (drawn by position, so a
        falsifying example prints an index)."""
        positions = [i for i, e in enumerate(self.live) if where(e)]
        return self.live[data.draw(st.sampled_from(positions), label="chunk")]

    def _retire_slot(self, entry):
        self.retired.append(entry.chunk.shm_ref)
        entry.holds_slot = False

    # -- rules -----------------------------------------------------------

    @precondition(lambda self: len(self.live) < NSLOTS + 2)
    @rule(frames=st.lists(frame_bytes, max_size=4),
          worker_id=st.integers(0, 7))
    def build_chunk(self, frames, worker_id):
        fits = self.pool.free_slots > 0 and sum(map(len, frames)) <= SLOT_BYTES
        chunk = self.pool.build_chunk(
            [bytearray(f) for f in frames], worker_id=worker_id
        )
        chunk.trace_ctx = (worker_id, len(self.retired))
        entry = _Live(chunk, frames)
        entry.holds_slot = fits
        if not fits:
            self.expected_fallbacks += 1
        assert chunk.is_packed
        self.live.append(entry)

    @precondition(lambda self: any(e.frames for e in self.live))
    @rule(data=st.data(), port=st.integers(0, 7))
    def settle_verdict(self, data, port):
        entry = self._draw(data, lambda e: e.frames)
        index = data.draw(st.integers(0, len(entry.frames) - 1), label="pkt")
        if port:
            entry.chunk.set_forward(index, port)
            entry.dispositions[index] = FORWARD_CODE
            entry.out_ports[index] = port
        else:
            entry.chunk.set_drop(index)
            entry.dispositions[index] = DROP_CODE
            entry.out_ports[index] = NO_PORT

    @precondition(lambda self: any(e.frames for e in self.live))
    @rule(data=st.data(), frame=frame_bytes)
    def replace_frame(self, data, frame):
        entry = self._draw(data, lambda e: e.frames)
        index = data.draw(st.integers(0, len(entry.frames) - 1), label="pkt")
        before = entry.chunk.shm_ref
        entry.chunk.replace_frame(index, bytearray(frame))
        entry.frames[index] = frame
        entry.packed = False
        if entry.holds_slot:
            # The epoch bump invalidates the old descriptor; the chunk
            # keeps the slot under the new one.
            self.retired.append(before)
            assert entry.chunk.shm_ref.epoch == before.epoch + 1

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def ensure_packed(self, data):
        entry = self._draw(data)
        if entry.holds_slot and entry.packed:
            assert self.pool.ensure_packed(entry.chunk)
            return
        fits = self.pool.free_slots > 0 and entry.total <= SLOT_BYTES
        detached = entry.chunk.shm_ref
        assert self.pool.ensure_packed(entry.chunk) == fits
        if detached is not None:
            self.retired.append(detached)
        entry.holds_slot = fits
        if not fits:
            self.expected_fallbacks += 1
        # A chunk that gives its detached slot back without getting a
        # new one is repacked onto the heap; a heap chunk stays as is.
        entry.packed = entry.packed or fits or detached is not None

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def pickle_round_trip(self, data):
        """Pickling only reads the sender; a descriptor clone aliases
        the slot, an owned-bytes clone does not."""
        entry = self._draw(data)
        chunk = entry.chunk
        frames_before = list(chunk.frames)
        ref_before = chunk.shm_ref
        clone = pickle.loads(pickle.dumps(chunk))
        assert all(a == b for a, b in zip(chunk.frames, frames_before))
        assert chunk.is_packed == entry.packed
        assert chunk.shm_ref == ref_before
        aliases = entry.holds_slot and entry.packed
        assert (clone.shm_ref is not None) == aliases
        if entry.frames:
            clone.frames[0][0] ^= 0xFF
            assert (bytes(chunk.frames[0]) != entry.frames[0]) == aliases
            clone.frames[0][0] ^= 0xFF

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def recycle(self, data):
        entry = self._draw(data)
        if entry.holds_slot:
            self._retire_slot(entry)
        self.pool.recycle(entry.chunk)
        assert entry.chunk.shm_ref is None
        self.live.remove(entry)

    @precondition(lambda self: any(e.holds_slot for e in self.live))
    @rule(data=st.data())
    def release(self, data):
        entry = self._draw(data, lambda e: e.holds_slot)
        self._retire_slot(entry)
        self.pool.release(entry.chunk.shm_ref)
        with pytest.raises(StaleChunkError):
            self.pool.release(entry.chunk.shm_ref)
        self.live.remove(entry)

    @precondition(lambda self: self.reader is None)
    @rule()
    def attach_reader(self):
        self.reader = ShmChunkPool.attach(self.pool.name)
        assert (self.reader.nslots, self.reader.slot_bytes) == (
            NSLOTS, SLOT_BYTES
        )
        with pytest.raises(RuntimeError, match="owning worker"):
            self.reader.acquire()

    # -- invariants ------------------------------------------------------

    @invariant()
    def slots_are_conserved(self):
        held = sum(e.chunk.shm_ref is not None for e in self.live)
        assert held == sum(e.holds_slot for e in self.live)
        assert self.pool.free_slots + held == NSLOTS
        assert self.gauge.value == held

    @invariant()
    def fallbacks_only_on_the_documented_escapes(self):
        assert (
            self.pool.fallback_count - self.fallbacks_at_start
            == self.expected_fallbacks
        )

    @invariant()
    def live_chunks_match_the_model_and_survive_the_wire(self):
        for entry in self.live:
            chunk = entry.chunk
            assert chunk.is_packed == entry.packed
            clone = pickle.loads(pickle.dumps(chunk))
            for subject in (chunk, clone):
                assert [bytes(f) for f in subject.frames] == entry.frames
                assert subject.dispositions.tolist() == entry.dispositions
                assert subject.out_ports.tolist() == entry.out_ports
            assert clone.worker_id == chunk.worker_id
            assert clone.trace_ctx == chunk.trace_ctx
            assert clone.is_packed
            if self.reader is not None and clone.shm_ref is not None:
                assert bytes(self.reader.view(clone.shm_ref)) == b"".join(
                    entry.frames
                )

    @invariant()
    def retired_descriptors_never_resolve(self):
        for ref in self.retired[-12:]:
            with pytest.raises(StaleChunkError):
                resolve_ref(ref)


TestPoolMachine = PoolMachine.TestCase
TestPoolMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
