"""SHA-1 and HMAC-SHA1 with one lane per packet (paper Section 6.2.4).

SHA-1's blocks chain, so the paper parallelises it "at the packet level":
one GPU thread walks one packet's blocks.  Here a *lane* is a packet and
the five state words are ``(lanes,)`` uint32 vectors: one compression
advances every lane that still has a block by one block, in lockstep,
and uint32 arithmetic wraps mod 2^32 the way the algorithm wants.

Lanes are sorted by block count, longest first, so the lanes still active
at any step are a prefix of the state vectors and short packets stop
costing anything once they are done (in a mix of 64 B and 1514 B frames
the small ones leave after 2 of 24 steps).  The message schedule depends
only on message words, never on the state, so it is expanded for every
block of the call at once, stored step after step.

:mod:`repro.crypto.sha1` is the packet-at-a-time reference these are
tested against.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto.sha1 import (
    _H0,
    SHA1_BLOCK_BYTES,
    SHA1_DIGEST_BYTES,
    _compress,
    sha1,
)

_ROUND_K = np.repeat(
    np.array([0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xCA62C1D6], dtype=np.uint32),
    20,
)[:, None]


def _choose(b, c, d):
    return d ^ (b & (c ^ d))


def _parity(b, c, d):
    return b ^ c ^ d


def _majority(b, c, d):
    return c ^ ((b ^ c) & (c ^ d))


_ROUND_F = (_choose,) * 20 + (_parity,) * 20 + (_majority,) * 20 + (_parity,) * 20


def _schedule(words: np.ndarray) -> np.ndarray:
    """Expand ``(16, blocks)`` message words to the 80 round inputs of
    every block, round constant already added."""
    w = np.empty((80, words.shape[1]), dtype=np.uint32)
    w[:16] = words
    # w[t] needs nothing newer than w[t-3]: three rows per step.
    for t in range(16, 80, 3):
        rows = min(3, 80 - t)
        x = w[t - 3:t - 3 + rows] ^ w[t - 8:t - 8 + rows]
        x ^= w[t - 14:t - 14 + rows]
        x ^= w[t - 16:t - 16 + rows]
        w[t:t + rows] = (x << 1) | (x >> 31)
    w += _ROUND_K
    return w


def _compress_lanes(state: np.ndarray, round_inputs: np.ndarray) -> None:
    """One SHA-1 compression in every lane: ``state`` is ``(5, lanes)`` and
    is updated in place, ``round_inputs`` the lanes' ``(80, lanes)``
    schedule."""
    # Shift counts as arrays: numpy shifts array-by-array a third faster
    # than array-by-scalar, and a compression makes 320 shifts.
    left5, right27, left30, right2 = np.repeat(
        np.array([5, 27, 30, 2], dtype=np.uint32)[:, None], state.shape[1], axis=1
    )
    a, b, c, d, e = state
    for f, w_t in zip(_ROUND_F, round_inputs):
        rotated = (a << left5) | (a >> right27)
        rotated += f(b, c, d)
        rotated += e
        rotated += w_t
        e, d, c, b, a = d, c, (b << left30) | (b >> right2), a, rotated
    for word, value in zip(state, (a, b, c, d, e)):
        word += value


def _padding(length: int, prefix_len: int) -> bytes:
    """What FIPS 180 appends to a ``length``-byte message that follows
    ``prefix_len`` already-compressed bytes."""
    return (
        b"\x80"
        + bytes((55 - length) % SHA1_BLOCK_BYTES)
        + (8 * (prefix_len + length)).to_bytes(8, "big")
    )


def _digest_lanes(messages: Sequence[bytes], initial: np.ndarray,
                  prefix_len: int = 0) -> np.ndarray:
    """Hash every message from the ``initial`` state; ``(5, n)`` uint32.

    ``prefix_len`` is the number of bytes ``initial`` has already absorbed
    (64 for an HMAC pad block), which only the length field needs.
    """
    lanes = len(messages)
    lengths = np.fromiter(map(len, messages), dtype=np.int64, count=lanes)
    blocks = (lengths + 8) // SHA1_BLOCK_BYTES + 1    # sha1_block_count
    longest_first = np.argsort(-blocks, kind="stable")
    blocks = blocks[longest_first]
    padded = np.frombuffer(
        b"".join(
            part
            for message in [messages[lane] for lane in longest_first.tolist()]
            for part in (message, _padding(len(message), prefix_len))
        ),
        dtype=">u4",
    ).reshape(-1, 16)
    # Reorder the blocks from lane after lane to step after step: step s
    # holds block s of every lane that has one, longest lane first.
    step_of_block = np.arange(len(padded)) - np.repeat(
        np.cumsum(blocks) - blocks, blocks
    )
    by_step = np.argsort(step_of_block, kind="stable")
    round_inputs = _schedule(padded[by_step].T)

    state = np.repeat(initial[:, None], lanes, axis=1)
    start = 0
    for active in np.bincount(step_of_block).tolist():
        _compress_lanes(state[:, :active], round_inputs[:, start:start + active])
        start += active
    in_order = np.empty_like(state)
    in_order[:, longest_first] = state
    return in_order


def _digest_bytes(state: np.ndarray) -> np.ndarray:
    """``(5, n)`` state words as ``(n, 20)`` big-endian digest bytes."""
    return state.T.astype(">u4", order="C").view(np.uint8)


def sha1_lanes(messages: Sequence[bytes]) -> np.ndarray:
    """SHA-1 of every message; row ``i`` of the ``(n, 20)`` uint8 result is
    ``sha1(messages[i])``."""
    return _digest_bytes(
        _digest_lanes(messages, np.array(_H0, dtype=np.uint32))
    )


class HmacSha1Lanes:
    """RFC 2104 HMAC-SHA1 under one key, many messages per call.

    The two pad blocks depend only on the key, so their compressions are
    done once here; a call then costs each lane its message blocks plus
    one outer block.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) > SHA1_BLOCK_BYTES:
            key = sha1(key)
        key = key.ljust(SHA1_BLOCK_BYTES, b"\x00")
        self._inner, self._outer = (
            np.array(_compress(_H0, bytes(k ^ pad for k in key)), dtype=np.uint32)
            for pad in (0x36, 0x5C)
        )

    def digests(self, messages: Sequence[bytes]) -> np.ndarray:
        """Row ``i`` of the ``(n, 20)`` uint8 result is
        ``hmac_sha1(key, messages[i])``."""
        lanes = len(messages)
        inner = _digest_lanes(messages, self._inner, SHA1_BLOCK_BYTES)
        # The outer message is the 20-byte inner digest: one padded block.
        words = np.zeros((16, lanes), dtype=np.uint32)
        words[:5] = inner
        words[5] = 0x80000000
        words[15] = 8 * (SHA1_BLOCK_BYTES + SHA1_DIGEST_BYTES)
        outer = np.repeat(self._outer[:, None], lanes, axis=1)
        _compress_lanes(outer, _schedule(words))
        return _digest_bytes(outer)
