"""FrameBatch: round-trip, bounds-safe gathers, header-op equivalence.

The structure-of-arrays batch must agree byte-for-byte with the scalar
per-packet formulation on every header operation — these tests pin the
equivalence on fuzzed inputs, uniform and mixed-length alike.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.chunk import Chunk
from repro.net.checksum import verify_checksum16
from repro.net.ethernet import ETHERTYPE_IPV4
from repro.net.frames import FrameBatch, Frames
from repro.net.ipv4 import decrement_ttl
from repro.net.packet import build_udp_ipv4

blobs_strategy = st.lists(
    st.binary(min_size=0, max_size=96), min_size=0, max_size=20
)


def ipv4_frame(dst=0x0A0A0A0A, ttl=64, frame_len=64):
    return build_udp_ipv4(0x0A000001, dst, 5000, 53, frame_len=frame_len, ttl=ttl)


def frames_of(batch):
    """The batch's frames, read back out of its buffer."""
    return Frames(batch.buf, batch.offsets, batch.lengths)


class TestRoundTrip:
    @given(blobs_strategy)
    def test_from_to_frames_round_trip(self, blobs):
        batch = FrameBatch.from_frames([bytearray(b) for b in blobs])
        assert [bytes(f) for f in frames_of(batch)] == blobs

    @given(blobs_strategy)
    def test_lengths_parallel_frames(self, blobs):
        batch = FrameBatch.from_frames([bytearray(b) for b in blobs])
        assert len(batch) == len(blobs)
        assert batch.lengths.tolist() == [len(b) for b in blobs]

    def test_empty_batch(self):
        batch = FrameBatch.from_frames([])
        assert len(batch) == 0
        assert list(frames_of(batch)) == []

    def test_uniform_batch_has_grid(self):
        batch = FrameBatch.from_frames([bytearray(64) for _ in range(4)])
        assert batch.grid is not None and batch.grid.shape == (4, 64)

    def test_mixed_batch_has_no_grid(self):
        batch = FrameBatch.from_frames([bytearray(64), bytearray(65)])
        assert batch.grid is None


class TestBoundsSafeGathers:
    @given(blobs_strategy, st.integers(0, 100))
    def test_byte_at_matches_scalar(self, blobs, pos):
        batch = FrameBatch.from_frames([bytearray(b) for b in blobs])
        expected = [b[pos] if len(b) > pos else 0 for b in blobs]
        assert batch.byte_at(pos).tolist() == expected

    @given(blobs_strategy)
    def test_ethertype_is_matches_scalar(self, blobs):
        batch = FrameBatch.from_frames([bytearray(b) for b in blobs])
        expected = [
            len(b) >= 14 and b[12:14] == b"\x08\x00" for b in blobs
        ]
        assert batch.ethertype_is(ETHERTYPE_IPV4).tolist() == expected

    @given(st.lists(st.binary(min_size=36, max_size=80), max_size=12))
    def test_u16_u32_match_int_from_bytes(self, blobs):
        batch = FrameBatch.from_frames([bytearray(b) for b in blobs])
        assert batch.u16_at(12).tolist() == [
            int.from_bytes(b[12:14], "big") for b in blobs
        ]
        assert batch.u32_at(30).tolist() == [
            int.from_bytes(b[30:34], "big") for b in blobs
        ]

    @given(st.lists(st.binary(min_size=34, max_size=34), max_size=8))
    def test_uniform_and_scalar_gathers_agree(self, blobs):
        # Uniform batches take the grid-view fast path; prepending a
        # longer frame forces the bounds-checked fallback.  Both must
        # agree on the common frames.
        uniform = FrameBatch.from_frames([bytearray(b) for b in blobs])
        mixed = FrameBatch.from_frames(
            [bytearray(b) for b in blobs] + [bytearray(99)]
        )
        for pos in (0, 12, 14, 22, 33, 34, 50):
            assert (
                uniform.byte_at(pos).tolist()
                == mixed.byte_at(pos).tolist()[: len(blobs)]
            )


class TestChecksumVerification:
    def _frames(self, corrupt_indices=(), count=6):
        frames = [ipv4_frame(dst=0x0A000000 + i) for i in range(count)]
        for index in corrupt_indices:
            frames[index][24] ^= 0xFF  # break the header checksum
        return frames

    def test_all_valid_verifies(self):
        batch = FrameBatch.from_frames(self._frames())
        mask = np.ones(len(batch), dtype=bool)
        assert batch.ipv4_checksum_ok(mask).all()

    def test_corrupt_headers_fail_mask_form(self):
        frames = self._frames(corrupt_indices=(1, 4))
        batch = FrameBatch.from_frames(frames)
        result = batch.ipv4_checksum_ok(np.ones(len(batch), dtype=bool))
        expected = [verify_checksum16(bytes(f[14:34])) for f in frames]
        assert result.tolist() == expected

    def test_corrupt_headers_fail_index_form(self):
        frames = self._frames(corrupt_indices=(0, 3))
        batch = FrameBatch.from_frames(frames)
        indices = np.array([0, 2, 3], dtype=np.int64)
        assert batch.ipv4_checksum_ok(indices).tolist() == [False, True, False]

    def test_mixed_length_batch_agrees_with_uniform(self):
        # An odd-length straggler defeats both grid fast paths.
        frames = self._frames(corrupt_indices=(2,))
        frames.append(ipv4_frame(frame_len=77))
        batch = FrameBatch.from_frames(frames)
        assert batch.grid is None
        result = batch.ipv4_checksum_ok(np.ones(len(batch), dtype=bool))
        expected = [verify_checksum16(bytes(f[14:34])) for f in frames]
        assert result.tolist() == expected

    def test_partial_mask_only_verifies_selected(self):
        batch = FrameBatch.from_frames(self._frames(corrupt_indices=(0,)))
        mask = np.zeros(len(batch), dtype=bool)
        mask[0] = mask[2] = True
        result = batch.ipv4_checksum_ok(mask)
        assert result.tolist() == [False, False, True, False, False, False]


class TestTTLDecrement:
    @given(
        st.lists(
            st.tuples(st.integers(2, 255), st.integers(0, 0xFFFFFFFF)),
            min_size=1,
            max_size=12,
        )
    )
    def test_matches_scalar_decrement(self, specs):
        scalar_frames = [ipv4_frame(dst=d, ttl=t) for t, d in specs]
        vector_frames = [bytearray(f) for f in scalar_frames]
        for frame in scalar_frames:
            assert decrement_ttl(frame, 14)
        batch = FrameBatch.from_frames(vector_frames)
        batch.ipv4_decrement_ttl(np.ones(len(batch), dtype=bool))
        vector_frames = frames_of(batch)
        assert [bytes(f) for f in vector_frames] == [
            bytes(f) for f in scalar_frames
        ]
        for frame in vector_frames:
            assert verify_checksum16(bytes(frame[14:34]))

    def test_partial_selection_leaves_others_untouched(self):
        frames = [ipv4_frame(ttl=9), ipv4_frame(ttl=9), ipv4_frame(ttl=9)]
        before = [bytes(f) for f in frames]
        batch = FrameBatch.from_frames(frames)
        batch.ipv4_decrement_ttl(np.array([0, 2], dtype=np.int64))
        frames = frames_of(batch)
        assert frames[0][22] == 8 and frames[2][22] == 8
        assert bytes(frames[1]) == before[1]

    def test_odd_width_fallback_matches(self):
        # 77-byte frames defeat the u16 word-view path but stay uniform.
        frames = [ipv4_frame(ttl=7, frame_len=77) for _ in range(3)]
        batch = FrameBatch.from_frames(frames)
        batch.ipv4_decrement_ttl(np.ones(3, dtype=bool))
        for frame in frames_of(batch):
            assert frame[22] == 6
            assert verify_checksum16(bytes(frame[14:34]))


class TestSharedWithChunk:
    """``chunk.frames`` and ``chunk.batch()`` are two faces of the same
    extents: there is no copy to keep in step and nothing to write back."""

    def test_chunk_batch_is_cached_and_shared(self):
        chunk = Chunk(frames=[ipv4_frame() for _ in range(4)])
        batch = chunk.batch()
        assert chunk.batch() is batch
        assert np.shares_memory(
            batch.buf, np.frombuffer(chunk.frames.store, dtype=np.uint8)
        )

    def test_shared_writes_visible_through_frames(self):
        chunk = Chunk(frames=[ipv4_frame(ttl=33) for _ in range(4)])
        chunk.batch().ipv4_decrement_ttl(np.ones(4, dtype=bool))
        for frame in chunk.frames:
            assert frame[22] == 32
            assert verify_checksum16(bytes(frame[14:34]))

    def test_frame_mutation_visible_to_batch(self):
        chunk = Chunk(frames=[ipv4_frame(), ipv4_frame()])
        batch = chunk.batch()  # built before the mutation
        chunk.frames[1][12:14] = b"\x86\xdd"  # flip to IPv6 ethertype
        assert batch.ethertype_is(ETHERTYPE_IPV4).tolist() == [True, False]

    def test_item_assignment_is_refused(self):
        chunk = Chunk(frames=[ipv4_frame(), ipv4_frame()])
        with pytest.raises(TypeError):
            chunk.frames[0] = ipv4_frame()

    def test_replace_frame_invalidates_batch(self):
        # The case the per-packet write-back loops existed for: once a
        # frame was replaced the batch used to be a copy.
        chunk = Chunk(frames=[ipv4_frame(ttl=9), ipv4_frame(ttl=9)])
        stale = chunk.batch()
        replacement = ipv4_frame(dst=0xC0A80101, ttl=9, frame_len=96)
        chunk.replace_frame(0, replacement)
        fresh = chunk.batch()
        assert fresh is not stale
        assert fresh.lengths.tolist() == [96, 64]
        assert bytes(chunk.frames[0]) == bytes(replacement)
        fresh.ipv4_decrement_ttl(np.ones(2, dtype=bool))
        for frame in chunk.frames:
            assert frame[22] == 8
            assert verify_checksum16(bytes(frame[14:34]))

    @pytest.mark.parametrize("held", ["batch", "frame", "iterator"])
    def test_replace_frame_under_a_held_view(self, held):
        """A bytearray cannot grow while a view of it is exported: the
        chunk then takes a fresh store instead of raising BufferError,
        and the old view keeps showing the frame that was."""
        chunk = Chunk(frames=[bytearray(b"\x11" * 64), bytearray(b"\x22" * 64)])
        view = {
            "batch": lambda: chunk.batch().buf,
            "frame": lambda: chunk.frames[0],
            "iterator": lambda: next(iter(chunk.frames)),
        }[held]()
        chunk.replace_frame(0, bytearray(b"\x33" * 100))
        chunk.replace_frame(1, bytearray(b"\x44" * 30))
        assert bytes(view[:64]) == b"\x11" * 64
        assert [bytes(f) for f in chunk.frames] == [b"\x33" * 100, b"\x44" * 30]
        chunk.frames[0][0] = 0x55
        assert view[0] == 0x11
