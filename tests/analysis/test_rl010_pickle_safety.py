"""What crosses the process boundary survives pickling.

The cases RL010 was written for, re-pointed at the payloads the sharded
plane really sends once RL010 was deleted.  The forked plane in
``tests/shard/test_plane.py`` drives all four ``multiprocessing`` put
sites end to end; these cases pickle each payload on its own, so a
failure names the payload:

* ``RemoteMasterClient.submit`` — a worker's pre-shaded chunk;
* ``RemoteMasterClient.finish`` — the worker's done sentinel;
* ``scatter_chunk`` — a shaded chunk back to its worker;
* ``_plane_worker_main`` — the worker's ``WorkerReport``;

plus the ``Process`` target a spawned worker unpickles.
"""

import itertools
import multiprocessing
import os
import pickle

import pytest

from repro.apps import build_app
from repro.core.chunk import Chunk
from repro.core.queues import RemoteMasterClient
from repro.shard.plane import WorkerReport, _plane_worker_main, scatter_chunk
from repro.shard.pool import ShmChunkPool

_SEQ = itertools.count()


class _PicklingQueue:
    """Pickles on ``put``, as ``multiprocessing.Queue``'s feeder does."""

    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(pickle.loads(pickle.dumps(item)))


def _frames(count=3, size=64, fill=0xAA):
    return [bytearray([fill] * size) for _ in range(count)]


def _payload(chunk):
    return [bytes(frame) for frame in chunk.frames]


class TestUnpicklablePayloads:
    def test_ctor_typed_payload_with_memoryview_flagged(self):
        # The frames are memoryviews, which do not pickle; the chunk's
        # own wire form does.
        chunk = Chunk(_frames())
        with pytest.raises(TypeError):
            pickle.dumps(chunk.frames[0])
        assert _payload(pickle.loads(pickle.dumps(chunk))) == _payload(chunk)

    def test_receiver_annotation_types_the_payload(self):
        queue = _PicklingQueue()
        client = RemoteMasterClient(queue, None, worker_id=1)
        chunk = Chunk(_frames())
        assert list(client.submit(chunk)) == []
        (sent,) = queue.items
        assert sent.worker_id == 1
        assert _payload(sent) == _payload(chunk)

    def test_lambda_submit_flagged(self):
        # Under spawn the Process target is pickled by qualified name.
        target = pickle.loads(pickle.dumps(_plane_worker_main))
        assert target is _plane_worker_main

    def test_open_handle_attribute_flagged(self):
        # With a pool, submit adopts the chunk into a slot first: the
        # queue carries a descriptor, the segment stays where it is.
        pool = ShmChunkPool.create(
            f"rt-rl010-{os.getpid()}-{next(_SEQ)}",
            slots=2, slot_bytes=4096, allocator=True,
        )
        try:
            queue = _PicklingQueue()
            client = RemoteMasterClient(queue, None, worker_id=0, pool=pool)
            chunk = Chunk(_frames(fill=0xDD))
            list(client.submit(chunk))
            assert chunk.in_slot
            assert bytes(_frames(1, 64, 0xDD)[0]) not in pickle.dumps(chunk)
            (sent,) = queue.items
            assert sent.shm_ref == chunk.shm_ref
            assert _payload(sent) == _payload(chunk)
            sent = chunk = None
        finally:
            pool.close()
            pool.unlink()

    def test_nested_class_freight_found_transitively(self):
        # A shaded chunk carries the application's results back.
        app, burst = build_app("ipv4", 64, seed=3)
        chunk = Chunk(burst(64))
        chunk.gpu_input = work = app.pre_shade(chunk)
        chunk.gpu_output = work.spec.fn(*work.args)
        queue = _PicklingQueue()
        scatter_chunk(queue, chunk)
        (back,) = queue.items
        for field in ("gpu_output", "app_state"):
            assert pickle.dumps(getattr(back, field)) == pickle.dumps(
                getattr(chunk, field)
            )


class TestSafePayloads:
    def test_plain_data_payload_is_silent(self):
        report = WorkerReport(
            worker_id=1, received=64, forwarded=60, dropped=4, chunks=2,
            egress={0: 30, 1: 30},
        )
        assert pickle.loads(pickle.dumps(report)) == report

    def test_getstate_hook_is_trusted(self):
        # The hook ships owned bytes, re-packed past replace_frame's
        # dead bytes, and __setstate__ rebuilds the views.
        chunk = Chunk(_frames(2, 16))
        chunk.replace_frame(1, bytearray(b"\x99" * 24))
        state = chunk.__getstate__()
        assert state["_store_bytes"] == bytes(16 * [0xAA]) + b"\x99" * 24
        clone = Chunk.__new__(Chunk)
        clone.__setstate__(pickle.loads(pickle.dumps(state)))
        assert _payload(clone) == _payload(chunk)

    def test_unknown_payload_type_is_silent(self):
        queue = _PicklingQueue()
        RemoteMasterClient(queue, None, worker_id=2).finish()
        assert queue.items == [("done", 2)]


class TestSeededBug:
    def test_seeded_chunk_over_future_mp_queue(self):
        """The master scatters into a real ``multiprocessing.Queue``:
        its feeder thread pickles after ``put()`` returns."""
        queue = multiprocessing.get_context("fork").Queue()
        try:
            chunk = Chunk(_frames(fill=0x5A))
            expected = _payload(chunk)
            scatter_chunk(queue, chunk)
            assert _payload(queue.get(timeout=30)) == expected
        finally:
            queue.close()
            queue.join_thread()
