"""SHA-1 (FIPS 180) and HMAC-SHA1 (RFC 2104), from scratch, one message
at a time.

SHA-1 processes 64-byte blocks with a serial dependency between blocks —
which is why the paper parallelises it "at the packet level" on the GPU
rather than at block level.  HMAC adds two extra compression passes
(the ipad and opad blocks), a fixed per-packet cost the CPU cost model
charges explicitly.

This module is plain-integer Python and is not on the gateway's data
path: :mod:`repro.crypto.sha1_lanes` hashes a chunk's packets in
lockstep and is tested against the functions here, which in turn are
pinned to the FIPS/RFC vectors.

HMAC-SHA1-96 (RFC 2404) truncates the tag to 96 bits; it is the ICV
variant ESP uses.
"""

from __future__ import annotations

import struct

_H0 = (0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0)
SHA1_BLOCK_BYTES = 64
SHA1_DIGEST_BYTES = 20


def _rol(value: int, amount: int) -> int:
    return ((value << amount) | (value >> (32 - amount))) & 0xFFFFFFFF


def _compress(state, block: bytes):
    """One SHA-1 compression round over a 64-byte block."""
    w = list(struct.unpack(">16I", block))
    for t in range(16, 80):
        w.append(_rol(w[t - 3] ^ w[t - 8] ^ w[t - 14] ^ w[t - 16], 1))
    a, b, c, d, e = state
    for t in range(80):
        if t < 20:
            f = (b & c) | (~b & d)
            k = 0x5A827999
        elif t < 40:
            f = b ^ c ^ d
            k = 0x6ED9EBA1
        elif t < 60:
            f = (b & c) | (b & d) | (c & d)
            k = 0x8F1BBCDC
        else:
            f = b ^ c ^ d
            k = 0xCA62C1D6
        temp = (_rol(a, 5) + f + e + k + w[t]) & 0xFFFFFFFF
        e, d, c, b, a = d, c, _rol(b, 30), a, temp
    return tuple(
        (s + v) & 0xFFFFFFFF for s, v in zip(state, (a, b, c, d, e))
    )


def sha1(message: bytes) -> bytes:
    """The SHA-1 digest of ``message``."""
    state = _H0
    length = len(message)
    padded = message + b"\x80"
    padded += bytes((56 - len(padded) % 64) % 64)
    padded += struct.pack(">Q", length * 8)
    for offset in range(0, len(padded), SHA1_BLOCK_BYTES):
        state = _compress(state, padded[offset:offset + SHA1_BLOCK_BYTES])
    return struct.pack(">5I", *state)


def sha1_block_count(message_len: int) -> int:
    """Compression calls SHA-1 needs for a message (padding included).

    The cost models use this: a 64 B packet's HMAC needs four
    compressions (two for the padded message, two for the HMAC pads).
    """
    if message_len < 0:
        raise ValueError("negative length")
    return (message_len + 8) // 64 + 1


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """RFC 2104 HMAC with SHA-1."""
    if len(key) > SHA1_BLOCK_BYTES:
        key = sha1(key)
    key = key + bytes(SHA1_BLOCK_BYTES - len(key))
    ipad = bytes(k ^ 0x36 for k in key)
    opad = bytes(k ^ 0x5C for k in key)
    return sha1(opad + sha1(ipad + message))


def hmac_sha1_96(key: bytes, message: bytes) -> bytes:
    """RFC 2404 HMAC-SHA1-96: the 12-byte truncated ICV ESP carries."""
    return hmac_sha1(key, message)[:12]
