"""The shared-memory segment primitive: the one ``SharedMemory(...)`` caller.

The metric slabs (:mod:`repro.obs.shm`) and the chunk pools
(:mod:`repro.shard.pool`) are each one named POSIX segment behind a
little-endian ``int64`` header.  The header's first three words (magic,
layout version, creator's resource-tracker token) and the segment's
life — publish, validate, close, owner-only unlink — are the same for
both and live here; reprolint RL012 sends every other user this way.
"""

from __future__ import annotations

import os
from multiprocessing import resource_tracker, shared_memory
from typing import Mapping, NamedTuple

import numpy as np

#: The primitive's header words; a layout's own fields follow.
(_H_MAGIC, _H_VERSION, _H_TRACKER, FIELDS_AT) = range(4)


class SegmentLayout(NamedTuple):
    """One segment type: its name in error texts, identity, header size."""

    kind: str
    magic: int
    version: int
    header_words: int


def _tracker_token() -> int:
    """Identity of this process's resource-tracker daemon (0 if none).

    The token is the inode of the tracker's command pipe: fork *and*
    spawn children inherit the creator's pipe fd (same inode), while an
    unrelated process gets its own daemon and pipe.  Pids don't work —
    a spawn child shares the daemon without ever learning its pid.
    """
    try:
        resource_tracker.ensure_running()
        return int(os.fstat(resource_tracker._resource_tracker._fd).st_ino)
    except Exception:
        return 0


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Detach a segment from this process's resource tracker.

    On Python < 3.13 the tracker registers shared memory on *attach*
    too, so a foreign reader (own tracker daemon) exiting would unlink
    the writer's live segment out from under everyone else.  Fleet
    children share the creator's daemon — their duplicate registration
    is a set no-op and must NOT be unregistered, the daemon keeps one
    entry per name — hence the token check in :meth:`Segment._attach`.
    The creator keeps its registration and owns cleanup via
    :meth:`Segment.unlink`.
    """
    try:
        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class Segment:
    """Base of the segment-backed structures: the header and the life.

    A subclass names its ``LAYOUT``, is constructed over the handle
    :meth:`_create` or :meth:`_attach` returns, maps its own regions
    over ``self._shm.buf`` and drops them before ``super().close()``.
    """

    LAYOUT: SegmentLayout

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self.name = shm.name
        self.owner = owner
        self._header = np.ndarray((self.LAYOUT.header_words,), "<i8", shm.buf)

    @classmethod
    def _create(cls, name: str, nbytes: int,
                fields: Mapping[int, int]) -> shared_memory.SharedMemory:
        """Allocate a segment (it reads as zeros) and publish its header.

        ``fields`` maps the layout's own header words to their values.
        The magic is stored last: an attacher racing create sees
        not-a-segment, never a half-initialised header.
        """
        _, magic, version, words = cls.LAYOUT
        shm = shared_memory.SharedMemory(name=name, create=True, size=nbytes)
        header = np.ndarray((words,), "<i8", shm.buf)
        header[:] = 0
        header[_H_VERSION] = version
        header[_H_TRACKER] = _tracker_token()
        for word, value in fields.items():
            header[word] = value
        header[_H_MAGIC] = magic
        return shm

    @classmethod
    def _attach(cls, name: str) -> shared_memory.SharedMemory:
        """Map an existing segment; ``ValueError`` if it is not ours."""
        kind, magic, version, _ = cls.LAYOUT
        shm = shared_memory.SharedMemory(name=name)
        head = np.ndarray((FIELDS_AT,), "<i8", shm.buf).tolist()
        if head[_H_MAGIC] != magic or head[_H_VERSION] != version:
            shm.close()
            if head[_H_MAGIC] != magic:
                raise ValueError(f"segment {name!r} is not a {kind}")
            raise ValueError(
                f"{kind.split()[-1]} {name!r}: layout version "
                f"{head[_H_VERSION]} != {version}"
            )
        if _tracker_token() != head[_H_TRACKER]:
            _untrack(shm)
        return shm

    def close(self) -> None:
        """Drop this process's mapping (the segment itself survives).

        Views handed out may still be alive in a process that is about
        to exit; ``mmap`` refuses to unmap under exported buffers and
        the OS reclaims the mapping at exit anyway, so ``BufferError``
        is absorbed.
        """
        self._header = None
        try:
            self._shm.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        """Destroy the segment (owner only; idempotent)."""
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass
