"""Frames as extents of one store, and vectorized header operations.

PacketShader's core lesson is that per-packet work dominates a software
router (Sections 4.2-4.3): the paper replaces the per-packet skb with a
huge packet buffer — data cells plus a few bytes of metadata — and
amortizes every remaining cost over batches.  This module is that
buffer for the reproduction's own hot path: a batch of frames is one
contiguous byte ``store`` plus two ``int64`` columns, frame ``i`` being
``store[offsets[i]:offsets[i] + lengths[i]]``, and no per-frame object
exists between RX and TX.  Two classes read that one form:

* :class:`Frames` — the sequence face (``len``, index, iterate: a
  writable ``memoryview`` sliced on demand, for the scalar oracles, the
  slow path, tests and TX) and the two operations that move frames,
  :meth:`Frames.replace` and :meth:`Frames.gather`;
* :class:`FrameBatch` — the column face: header classification
  (ethertype/version extraction, IPv4 checksum verification, TTL
  decrement with the RFC 1624 incremental update, destination-address
  gather) as a handful of numpy operations over *all* packets at once,
  on a buffer that *is* the store — a header write is a frame write.

When every frame has the same length and the store holds nothing else —
the common case for generated bursts and min-sized forwarding workloads
— the buffer doubles as an ``(n, frame_len)`` matrix, so each header
byte column is a strided *view* (no gather, no bounds clamping).  Other
batches fall back to bounds-safe gathers where a too-short frame reads
as 0 and callers mask on :meth:`FrameBatch.long_enough`.

None of this touches the *simulated* cycle accounting: the calibrated
cost models in :mod:`repro.calib` still charge the per-packet cycles the
paper measured.  This module only shrinks the reproduction's own
wall-clock footprint (see docs/PERF.md).
"""

from __future__ import annotations

import sys
from typing import Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.net.checksum import checksum16_batch, checksum16_rows
from repro.net.ethernet import ETHERNET_HEADER_LEN, ETHERTYPE_IPV4, ETHERTYPE_IPV6
from repro.net.ipv4 import IPV4_HEADER_LEN, PROTO_TCP, PROTO_UDP
from repro.net.ipv6 import IPV6_HEADER_LEN
from repro.net.tcp import TCP_HEADER_LEN
from repro.net.udp import UDP_HEADER_LEN

FrameLike = Union[bytes, bytearray, memoryview]


def _packed_offsets(lengths: np.ndarray) -> np.ndarray:
    """Offsets of frames of ``lengths`` laid back to back."""
    offsets = np.zeros(len(lengths), dtype=np.int64)
    if len(lengths) > 1:
        np.cumsum(lengths[:-1], out=offsets[1:])
    return offsets


def pack_frames(frames: Union[Sequence[FrameLike], np.ndarray],
                out: Optional[memoryview] = None):
    """Pack frames into one contiguous store: ``(store, offsets, lengths)``.

    The single packing copy of the SoA data plane (chunk construction,
    compaction, shm slot adoption all route through here).  ``frames``
    is a sequence of frames or a 2-D ``uint8`` array with one frame a
    row, which is already the packed layout: one slice copy, no
    per-frame object.  With ``out`` the frames land in the
    caller-supplied buffer — e.g. a shared-memory chunk-pool slot — and
    the returned store is a writable ``memoryview`` slice of it;
    otherwise it is a fresh ``bytearray``.  Raises ``ValueError`` if
    ``out`` is too small.
    """
    if isinstance(frames, np.ndarray):
        lengths = np.full(len(frames), frames.shape[1], dtype=np.int64)
        packed = memoryview(np.ascontiguousarray(frames)).cast("B")
    else:
        lengths = np.fromiter(map(len, frames), dtype=np.int64, count=len(frames))
        packed = bytearray().join(frames)
    if out is None:
        store = packed if isinstance(packed, bytearray) else bytearray(packed)
    else:
        if len(packed) > len(out):
            raise ValueError(
                f"packed frames need {len(packed)}B, buffer holds {len(out)}B"
            )
        out[:len(packed)] = packed
        store = out[:len(packed)]
    return store, _packed_offsets(lengths), lengths


class Frames:
    """Frames as extents of one store: a lazy, read-only sequence.

    ``frames[i]`` is a writable ``memoryview`` sliced out of ``store``
    when asked for; nothing per frame is kept, and the view is borrowed
    (reprolint RL009).  There is no item assignment: :meth:`replace`.
    """

    __slots__ = ("store", "offsets", "lengths")

    def __init__(self, store, offsets: np.ndarray, lengths: np.ndarray) -> None:
        self.store = store
        self.offsets = offsets
        self.lengths = lengths

    def __len__(self) -> int:
        return len(self.offsets)

    def __getitem__(self, index: int) -> memoryview:
        offset = self.offsets.item(index)
        return memoryview(self.store)[offset:offset + self.lengths.item(index)]

    def __iter__(self) -> Iterator[memoryview]:
        view = memoryview(self.store)
        extents = zip(self.offsets.tolist(), self.lengths.tolist())
        return (view[offset:offset + length] for offset, length in extents)

    def __eq__(self, other) -> bool:
        """Byte-equal, frame by frame, to any sequence of frames."""
        try:
            return len(self) == len(other) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        except TypeError:
            return NotImplemented

    def replace(self, index: int, frame: FrameLike) -> None:
        """Append ``frame``'s bytes to the store and point extent
        ``index`` at them: O(frame) while the store can grow in place.
        One that cannot — a pool slot, a ``bytearray`` some view still
        exports — is left to its holders and a fresh heap store takes
        over, so an old view never aliases the new frame.
        """
        store, offset = self.store, len(self.store)
        try:
            if not isinstance(store, bytearray):
                raise BufferError("fixed-size store")
            store += frame
        except BufferError:
            self.store = bytearray().join((store, frame))
        self.offsets[index] = offset
        self.lengths[index] = len(frame)

    def gather(self, indices) -> "Frames":
        """An owned, packed copy of the selected frames, in that order."""
        offsets, lengths = self.offsets[indices], self.lengths[indices]
        width = lengths.item(0) if len(lengths) else 0
        if width and (lengths == width).all():
            # Equal lengths: every candidate frame is a row of the
            # store's overlapping ``width``-byte windows — one row take.
            rows = np.ndarray(
                (len(self.store) - width + 1, width), dtype=np.uint8,
                buffer=self.store, strides=(1, 1),
            )
            store = bytearray(rows[offsets])
        else:
            store = bytearray().join(Frames(self.store, offsets, lengths))
        return Frames(store, _packed_offsets(lengths), lengths)

    @classmethod
    def concat(cls, pieces: Sequence["Frames"]) -> "Frames":
        """``pieces`` end to end as one sequence over one owned store."""
        if len(pieces) == 1:
            return pieces[0]
        store, bases, _ = pack_frames([piece.store for piece in pieces])
        return cls(
            store,
            np.concatenate([
                piece.offsets + base
                for piece, base in zip(pieces, bases.tolist())
            ]),
            np.concatenate([piece.lengths for piece in pieces]),
        )


#: Byte weights of a big-endian 32-bit field (the dst-gather matmul).
_BE32 = np.array([1 << 24, 1 << 16, 1 << 8, 1], dtype=np.uint32)

#: What :meth:`FrameBatch.rss_rows` reads, per IP family: the EtherType;
#: the (mask, value) the header's first byte must match (IPv4: version
#: 4 and IHL 5, the parser refuses options; IPv6: version 6); where the
#: protocol byte, the addresses and the transport header start.  Source
#: and destination address, then the two ports, lie back to back in the
#: frame — already the Microsoft RSS input layout.
_RSS_FAMILIES = (
    (ETHERTYPE_IPV4, (0xFF, 0x45), ETHERNET_HEADER_LEN + 9,
     ETHERNET_HEADER_LEN + 12, ETHERNET_HEADER_LEN + IPV4_HEADER_LEN),
    (ETHERTYPE_IPV6, (0xF0, 0x60), ETHERNET_HEADER_LEN + 6,
     ETHERNET_HEADER_LEN + 8, ETHERNET_HEADER_LEN + IPV6_HEADER_LEN),
)
#: TCP's data offset byte, and the smallest one the parser accepts (5).
_TCP_OFFSET_AT, _TCP_MIN_OFFSET = 12, 0x50

#: Decrementing TTL in the *native* u16 word domain: TTL is the first
#: byte of the big-endian TTL/protocol word, i.e. the low half of a
#: little-endian word (subtract 1) or the high half of a big-endian one
#: (subtract 0x100).  TTL >= 2 on every selected packet, so neither
#: form borrows into the protocol byte.
_TTL_DEC_WORD = np.uint32(1 if sys.byteorder == "little" else 0x100)


class FrameBatch:
    """A batch of frames as one contiguous buffer + offset/length arrays.

    ``buf`` is a writable ``uint8`` array holding every frame
    back-to-back; ``offsets[i]``/``lengths[i]`` locate frame ``i``.
    ``grid`` is the ``(n, frame_len)`` matrix view when the batch is
    uniform (every frame the same length, packed back-to-back), else
    ``None``.  All gather helpers are bounds-safe: a frame too short for
    the requested field yields 0 (callers mask on :meth:`long_enough`).

    ``buf`` wraps the frames' own store (:meth:`Chunk.batch`): a header
    mutation here mutates the frame, there is no write-back.
    """

    __slots__ = ("buf", "offsets", "lengths", "grid")

    def __init__(
        self, buf: np.ndarray, offsets: np.ndarray, lengths: np.ndarray
    ) -> None:
        self.buf = buf
        self.offsets = offsets
        self.lengths = lengths
        self.grid: Optional[np.ndarray] = None
        count = len(offsets)
        if count:
            length = int(lengths[0])
            if (
                length > 0
                and count * length == len(buf)
                and int(offsets[-1]) == (count - 1) * length
                and (lengths == length).all()
            ):
                self.grid = buf.reshape(count, length)

    @classmethod
    def from_frames(cls, frames: Sequence[FrameLike]) -> "FrameBatch":
        """Pack a frame list into one contiguous batch buffer."""
        store, offsets, lengths = pack_frames(frames)
        return cls(np.frombuffer(store, dtype=np.uint8), offsets, lengths)

    def __len__(self) -> int:
        return len(self.offsets)

    # ------------------------------------------------------------------
    # Bounds-safe scalar-field gathers.
    # ------------------------------------------------------------------

    def long_enough(self, needed: int) -> np.ndarray:
        """Boolean mask: frames with at least ``needed`` bytes."""
        if self.grid is not None:
            value = self.grid.shape[1] >= needed
            return np.full(len(self), value, dtype=bool)
        return self.lengths >= needed

    def byte_at(self, pos: int) -> np.ndarray:
        """Byte ``pos`` of every frame (0 where the frame is shorter).

        Uniform batches return a strided column *view* — do not mutate.
        """
        if self.grid is not None:
            if pos < self.grid.shape[1]:
                return self.grid[:, pos]
            return np.zeros(len(self), dtype=np.uint8)
        if len(self.buf) == 0:  # every frame empty: nothing to gather
            return np.zeros(len(self), dtype=np.uint8)
        valid = self.lengths > pos
        values = self.buf[np.where(valid, self.offsets + pos, 0)]
        return np.where(valid, values, 0).astype(np.uint8)

    def u16_at(self, pos: int) -> np.ndarray:
        """Big-endian 16-bit field at ``pos`` (0 where out of bounds)."""
        hi = self.byte_at(pos).astype(np.uint16)
        lo = self.byte_at(pos + 1).astype(np.uint16)
        return (hi << np.uint16(8)) | lo

    def u32_at(self, pos: int) -> np.ndarray:
        """Big-endian 32-bit field at ``pos`` (0 where out of bounds)."""
        if self.grid is not None and pos + 4 <= self.grid.shape[1]:
            return self.grid[:, pos:pos + 4].astype(np.uint32) @ _BE32
        value = self.u16_at(pos).astype(np.uint32) << np.uint32(16)
        return value | self.u16_at(pos + 2).astype(np.uint32)

    def bytes_equal(self, pos: int, expected: bytes) -> np.ndarray:
        """Mask of frames whose bytes at ``pos`` equal ``expected``.

        Compares byte columns directly — no field widening — so a
        two-byte ethertype test is three cheap ``uint8`` column ops.
        Frames too short for the span compare unequal.
        """
        if self.grid is not None and pos + len(expected) > self.grid.shape[1]:
            return np.zeros(len(self), dtype=bool)
        mask: Optional[np.ndarray] = None
        for i, value in enumerate(expected):
            hit = self.byte_at(pos + i) == value
            mask = hit if mask is None else (mask & hit)
        if self.grid is None:
            mask &= self.lengths >= pos + len(expected)
        return mask

    def gather(self, indices: np.ndarray, start: int, width: int) -> np.ndarray:
        """``(len(indices), width)`` byte matrix of a fixed header slice.

        Callers guarantee the selected frames are at least
        ``start + width`` bytes long (mask with :meth:`long_enough`).
        """
        if len(indices) == 0:
            return np.zeros((0, width), dtype=np.uint8)
        if self.grid is not None:
            return self.grid[indices, start:start + width]
        grid = self.offsets[indices][:, None] + np.arange(
            start, start + width, dtype=np.int64
        )[None, :]
        return self.buf[grid]

    # ------------------------------------------------------------------
    # Protocol-field conveniences (offsets relative to the L2 header).
    # ------------------------------------------------------------------

    def ethertypes(self) -> np.ndarray:
        """EtherType of every frame (0 where shorter than 14 bytes)."""
        return self.u16_at(12)

    def ethertype_is(self, ethertype: int) -> np.ndarray:
        """Mask of frames carrying ``ethertype`` (False where short)."""
        return self.bytes_equal(12, ethertype.to_bytes(2, "big"))

    def rss_rows(self) -> List[Tuple[np.ndarray, np.ndarray]]:
        """The RSS hash input of every hashable frame, per IP family:
        ``[(indices, rows)]`` for IPv4, then IPv6.

        ``rows[k]`` is the source and destination address and port of
        frame ``indices[k]``, big-endian — ``RSSHasher.tuple_bytes`` of
        its 5-tuple: ``(k, 12)`` for IPv4, ``(k, 36)`` for IPv6.  A frame
        is listed exactly where ``parse_packet(frame).five_tuple()``
        returns a tuple without raising: an untagged, complete IPv4
        header of version 4 and IHL 5, or IPv6 header of version 6, and
        no TCP header whose data offset is below 5.  Its ports are zero,
        as the parser has them, where the transport is neither UDP nor
        TCP or the frame ends before that header does.
        """
        version = self.byte_at(ETHERNET_HEADER_LEN)
        families = []
        for ethertype, (mask, value), proto_at, start, l4 in _RSS_FAMILIES:
            hashable = (
                self.ethertype_is(ethertype) & self.long_enough(l4)
                & ((version & mask) == value)
            )
            proto = self.byte_at(proto_at)
            udp = (proto == PROTO_UDP) & self.long_enough(l4 + UDP_HEADER_LEN)
            tcp = (proto == PROTO_TCP) & self.long_enough(l4 + TCP_HEADER_LEN)
            hashable &= ~(tcp & (self.byte_at(l4 + _TCP_OFFSET_AT) < _TCP_MIN_OFFSET))
            indices = np.flatnonzero(hashable)
            ported = (udp | tcp)[indices]
            width = l4 + 4 - start
            if ported.all():
                rows = self.gather(indices, start, width)
            else:
                rows = np.zeros((len(indices), width), dtype=np.uint8)
                rows[:, :-4] = self.gather(indices, start, width - 4)
                rows[ported, -4:] = self.gather(indices[ported], l4, 4)
            families.append((indices, rows))
        return families

    def ipv4_dsts(self) -> np.ndarray:
        """IPv4 destination address column (uint32, 0 where too short)."""
        return self.u32_at(ETHERNET_HEADER_LEN + 16)

    def ipv6_dsts(self, indices: np.ndarray) -> List[int]:
        """128-bit destination addresses of the selected frames.

        Returned as Python ints (what the binary-search table consumes);
        the byte gather and 64-bit folds are vectorized, only the final
        hi/lo combine runs per selected packet.
        """
        l3 = ETHERNET_HEADER_LEN
        raw = self.gather(indices, l3 + 24, 16).astype(np.uint64)
        shifts = (np.arange(7, -1, -1, dtype=np.uint64) * np.uint64(8))
        hi = (raw[:, :8] << shifts).sum(axis=1, dtype=np.uint64)
        lo = (raw[:, 8:] << shifts).sum(axis=1, dtype=np.uint64)
        return [
            (int(h) << 64) | int(l)
            for h, l in zip(hi.tolist(), lo.tolist())
        ]

    def ipv4_checksum_ok(self, mask_or_indices: np.ndarray) -> np.ndarray:
        """Verify the 20-byte IPv4 header checksums of selected frames.

        Vectorized RFC 1071: treat the gathered headers as 16-bit
        big-endian words, column-sum, fold carries — one pass over the
        whole batch instead of a per-byte Python loop per packet.

        Accepts a boolean mask over the batch (returns a same-shape mask
        that is True only where selected *and* verified) or an index
        array (returns one flag per index).
        """
        l3 = ETHERNET_HEADER_LEN
        selector = np.asarray(mask_or_indices)
        is_mask = selector.dtype == bool
        if self.grid is not None:
            width = self.grid.shape[1]
            if width % 2 == 0 and width >= l3 + IPV4_HEADER_LEN:
                # Native-endian word view over the whole batch.  The
                # one's-complement sum is byte-order independent
                # (RFC 1071 section 2(B)): a header verifies iff the
                # folded sum is 0xFFFF in either byte order, so the
                # verification never needs a big-endian conversion.
                # The header spans words l3/2 .. (l3+20)/2 of each row.
                words = self.buf.view(np.uint16).reshape(len(self), width // 2)
                totals = words[:, l3 // 2:(l3 + IPV4_HEADER_LEN) // 2].sum(
                    axis=1, dtype=np.uint64
                )
                # Ten 0xFFFF words sum below 0xA0000: two folds suffice.
                totals = (totals & np.uint64(0xFFFF)) + (
                    totals >> np.uint64(16)
                )
                totals = (totals & np.uint64(0xFFFF)) + (
                    totals >> np.uint64(16)
                )
                verified = totals == np.uint64(0xFFFF)
                if is_mask:
                    return selector & verified
                return verified[selector]
            headers = self.grid[:, l3:l3 + IPV4_HEADER_LEN]
            if is_mask:
                if not selector.all():
                    headers = headers[selector]
                ok = checksum16_rows(headers) == 0
                if len(ok) == len(selector):
                    return selector & ok
                result = np.zeros(len(selector), dtype=bool)
                result[selector] = ok
                return result
            return checksum16_rows(headers[selector]) == 0
        indices = np.flatnonzero(selector) if is_mask else selector
        if len(indices) == 0:
            return (
                np.zeros(len(selector), dtype=bool)
                if is_mask
                else np.zeros(0, dtype=bool)
            )
        sums = checksum16_batch(
            self.buf,
            self.offsets[indices] + l3,
            np.full(len(indices), IPV4_HEADER_LEN, dtype=np.int64),
        )
        if is_mask:
            result = np.zeros(len(selector), dtype=bool)
            result[indices] = sums == 0
            return result
        return sums == 0

    def ipv4_decrement_ttl(self, selected: np.ndarray) -> None:
        """Batched TTL decrement + RFC 1624 incremental checksum update.

        ``selected`` (an index array or boolean mask) picks IPv4 frames
        already known to have TTL > 1.  The new TTL and checksum are
        computed vectorized for the whole selection and stored into the
        batch buffer — the frames' own store.
        """
        selected = np.asarray(selected)
        l3 = ETHERNET_HEADER_LEN
        width = 0 if self.grid is None else self.grid.shape[1]
        if (
            selected.dtype == bool
            and width % 2 == 0
            and width >= l3 + IPV4_HEADER_LEN
        ):
            # Uniform batches: the TTL/protocol pair (header bytes 8-9)
            # and the checksum (bytes 10-11) are whole 16-bit words at
            # even offsets, so the RFC 1624 update runs on two native
            # u16 columns — no offset gathers, no per-byte recombining.
            # One's-complement sums are byte-order independent
            # (RFC 1071 section 2(B)); in the native word domain the
            # TTL decrement subtracts 1 (little-endian: TTL is the low
            # byte) or 0x100 (big-endian).  The arithmetic runs over
            # every row (cheaper than gathering the selection) and only
            # the selected rows are written; unselected rows may hold
            # garbage, so their words are masked to 16 bits to keep the
            # fixed two-fold carry bound.
            words = self.buf.view(np.uint16).reshape(len(self), width // 2)
            word_col = words[:, (l3 + 8) // 2]
            check_col = words[:, (l3 + 10) // 2]
            old_word = word_col.astype(np.uint32)
            new_word = old_word - _TTL_DEC_WORD
            total = (
                (~check_col.astype(np.uint32) & np.uint32(0xFFFF))
                + (~old_word & np.uint32(0xFFFF))
                + (new_word & np.uint32(0xFFFF))
            )
            # total <= 3 * 0xFFFF: two folds always suffice.
            total = (total & np.uint32(0xFFFF)) + (total >> np.uint32(16))
            total = (total & np.uint32(0xFFFF)) + (total >> np.uint32(16))
            new_checksum = ~total & np.uint32(0xFFFF)
            if selected.all():
                word_col[:] = new_word.astype(np.uint16)
                check_col[:] = new_checksum.astype(np.uint16)
            else:
                word_col[selected] = new_word[selected].astype(np.uint16)
                check_col[selected] = new_checksum[selected].astype(np.uint16)
            return
        indices = (
            np.flatnonzero(selected) if selected.dtype == bool else selected
        )
        if len(indices) == 0:
            return
        offs = self.offsets[indices]
        ttl = self.buf[offs + (l3 + 8)].astype(np.uint32)
        proto = self.buf[offs + (l3 + 9)].astype(np.uint32)
        old_word = (ttl << np.uint32(8)) | proto
        new_ttl = ttl - np.uint32(1)
        new_word = (new_ttl << np.uint32(8)) | proto
        old_checksum = (
            self.buf[offs + (l3 + 10)].astype(np.uint32) << np.uint32(8)
        ) | self.buf[offs + (l3 + 11)].astype(np.uint32)
        # HC' = ~(~HC + ~m + m')   (RFC 1624 eqn. 3), carries folded.
        total = (
            (~old_checksum & np.uint32(0xFFFF))
            + (~old_word & np.uint32(0xFFFF))
            + new_word
        )
        while (total >> np.uint32(16)).any():
            total = (total & np.uint32(0xFFFF)) + (total >> np.uint32(16))
        new_checksum = ~total & np.uint32(0xFFFF)
        self.buf[offs + (l3 + 8)] = new_ttl.astype(np.uint8)
        self.buf[offs + (l3 + 10)] = (new_checksum >> np.uint32(8)).astype(
            np.uint8
        )
        self.buf[offs + (l3 + 11)] = (new_checksum & np.uint32(0xFF)).astype(
            np.uint8
        )

    def ipv6_decrement_hop_limit(self, indices: np.ndarray) -> None:
        """Batched hop-limit decrement (no checksum in IPv6 headers).

        ``indices`` selects IPv6 frames already known to have hop limit
        > 1.
        """
        if len(indices) == 0:
            return
        offs = self.offsets[indices] + (ETHERNET_HEADER_LEN + 7)
        self.buf[offs] -= np.uint8(1)
