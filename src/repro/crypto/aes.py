"""AES-128 from scratch, with CTR mode at block granularity.

The S-box and T-tables are *computed* (GF(2^8) inversion plus the affine
map) rather than pasted, and verified against FIPS-197 vectors in the
tests.  Block encryption uses the classic four T-table formulation — the
exact layout GPU implementations of the era used with shared-memory
lookup tables, which is why the paper's AES kernel is memory-friendly.

CTR blocks are independent, so the unit of parallelism is the 16-byte
block, not the packet ("we chop packets into AES blocks (16B) and map
each block to one GPU thread", Section 6.2.4).  ``AES128.encrypt_states``
runs every round as numpy gathers over all the blocks it is given, and
there are two callers:

* ``aes_ctr_xor_lanes`` — the data path: the counter blocks of *every
  packet of a chunk* in one ``encrypt_states`` call and one XOR over one
  flat buffer;
* ``aes_ctr_keystream`` / ``aes_ctr_xor`` — one packet at a time, the
  reference the chunk path is tested against (RFC 3686 vectors).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

_NB_ROUNDS = 10
AES_BLOCK_BYTES = 16


def _xtime(value: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _gf_mul(a: int, b: int) -> int:
    """GF(2^8) multiplication (peasant algorithm)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_sbox() -> List[int]:
    """The AES S-box: multiplicative inverse then the affine transform."""
    # Build inverses via the generator 3 (a primitive element of GF(2^8)).
    exp = [0] * 256
    log = [0] * 256
    value = 1
    for i in range(255):
        exp[i] = value
        log[value] = i
        value = _gf_mul(value, 3)
    sbox = [0] * 256
    for x in range(256):
        inv = 0 if x == 0 else exp[(255 - log[x]) % 255]
        y = inv
        result = inv
        for _ in range(4):
            y = ((y << 1) | (y >> 7)) & 0xFF
            result ^= y
        sbox[x] = result ^ 0x63
    return sbox

SBOX = _build_sbox()
INV_SBOX = [0] * 256
for _i, _v in enumerate(SBOX):
    INV_SBOX[_v] = _i


def _build_t_tables():
    """The four encryption T-tables (SubBytes+ShiftRows+MixColumns fused)."""
    t0 = np.zeros(256, dtype=np.uint32)
    for x in range(256):
        s = SBOX[x]
        s2 = _gf_mul(s, 2)
        s3 = _gf_mul(s, 3)
        t0[x] = (s2 << 24) | (s << 16) | (s << 8) | s3
    t1 = np.bitwise_or(t0 >> np.uint32(8), t0 << np.uint32(24))
    t2 = np.bitwise_or(t0 >> np.uint32(16), t0 << np.uint32(16))
    t3 = np.bitwise_or(t0 >> np.uint32(24), t0 << np.uint32(8))
    return t0, t1, t2, t3

T0, T1, T2, T3 = _build_t_tables()
_SBOX_NP = np.array(SBOX, dtype=np.uint32)

_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


class AES128:
    """AES-128 with precomputed round keys."""

    def __init__(self, key: bytes) -> None:
        if len(key) != 16:
            raise ValueError(f"AES-128 key must be 16 bytes, got {len(key)}")
        self.key = key
        self.round_keys = self._expand_key(key)
        # Round keys as a (11, 4) uint32 matrix for the vectorised path.
        self._rk = np.array(
            [[self.round_keys[4 * r + c] for c in range(4)] for r in range(11)],
            dtype=np.uint32,
        )

    @staticmethod
    def _expand_key(key: bytes) -> List[int]:
        """FIPS-197 key schedule: 44 32-bit words."""
        words = [int.from_bytes(key[4 * i:4 * i + 4], "big") for i in range(4)]
        for i in range(4, 44):
            temp = words[i - 1]
            if i % 4 == 0:
                temp = ((temp << 8) | (temp >> 24)) & 0xFFFFFFFF  # RotWord
                temp = (
                    (SBOX[(temp >> 24) & 0xFF] << 24)
                    | (SBOX[(temp >> 16) & 0xFF] << 16)
                    | (SBOX[(temp >> 8) & 0xFF] << 8)
                    | SBOX[temp & 0xFF]
                )
                temp ^= _RCON[i // 4 - 1] << 24
            words.append(words[i - 4] ^ temp)
        return words

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block (scalar path, used by the tests)."""
        if len(block) != 16:
            raise ValueError("block must be 16 bytes")
        state = np.frombuffer(block, dtype=">u4").astype(np.uint32)
        out = self.encrypt_states(state.reshape(1, 4))[0]
        return b"".join(int(w).to_bytes(4, "big") for w in out)

    def encrypt_states(self, states: np.ndarray) -> np.ndarray:
        """Encrypt N blocks at once; ``states`` is an (N, 4) uint32 array.

        The vectorised T-table rounds: every round is four gathers and
        XORs across all N blocks simultaneously.
        """
        if states.ndim != 2 or states.shape[1] != 4:
            raise ValueError("states must have shape (N, 4)")
        s = states.astype(np.uint32) ^ self._rk[0]
        for round_index in range(1, _NB_ROUNDS):
            rk = self._rk[round_index]
            c0, c1, c2, c3 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]
            n0 = (
                T0[(c0 >> np.uint32(24)) & np.uint32(0xFF)]
                ^ T1[(c1 >> np.uint32(16)) & np.uint32(0xFF)]
                ^ T2[(c2 >> np.uint32(8)) & np.uint32(0xFF)]
                ^ T3[c3 & np.uint32(0xFF)]
                ^ rk[0]
            )
            n1 = (
                T0[(c1 >> np.uint32(24)) & np.uint32(0xFF)]
                ^ T1[(c2 >> np.uint32(16)) & np.uint32(0xFF)]
                ^ T2[(c3 >> np.uint32(8)) & np.uint32(0xFF)]
                ^ T3[c0 & np.uint32(0xFF)]
                ^ rk[1]
            )
            n2 = (
                T0[(c2 >> np.uint32(24)) & np.uint32(0xFF)]
                ^ T1[(c3 >> np.uint32(16)) & np.uint32(0xFF)]
                ^ T2[(c0 >> np.uint32(8)) & np.uint32(0xFF)]
                ^ T3[c1 & np.uint32(0xFF)]
                ^ rk[2]
            )
            n3 = (
                T0[(c3 >> np.uint32(24)) & np.uint32(0xFF)]
                ^ T1[(c0 >> np.uint32(16)) & np.uint32(0xFF)]
                ^ T2[(c1 >> np.uint32(8)) & np.uint32(0xFF)]
                ^ T3[c2 & np.uint32(0xFF)]
                ^ rk[3]
            )
            s = np.stack([n0, n1, n2, n3], axis=1)
        # Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        rk = self._rk[_NB_ROUNDS]
        c0, c1, c2, c3 = s[:, 0], s[:, 1], s[:, 2], s[:, 3]

        def final(a, b, c, d, key_word):
            return (
                (_SBOX_NP[(a >> np.uint32(24)) & np.uint32(0xFF)] << np.uint32(24))
                | (_SBOX_NP[(b >> np.uint32(16)) & np.uint32(0xFF)] << np.uint32(16))
                | (_SBOX_NP[(c >> np.uint32(8)) & np.uint32(0xFF)] << np.uint32(8))
                | _SBOX_NP[d & np.uint32(0xFF)]
            ) ^ key_word

        return np.stack(
            [
                final(c0, c1, c2, c3, rk[0]),
                final(c1, c2, c3, c0, rk[1]),
                final(c2, c3, c0, c1, rk[2]),
                final(c3, c0, c1, c2, rk[3]),
            ],
            axis=1,
        ).astype(np.uint32)


def aes_ctr_keystream(aes: AES128, nonce: bytes, iv: bytes, num_blocks: int,
                      initial_counter: int = 1) -> bytes:
    """RFC 3686 CTR keystream: AES(nonce | IV | counter) for each block.

    ``nonce`` is 4 bytes (from the SA), ``iv`` 8 bytes (per packet), and
    the 32-bit block counter starts at 1 per the RFC.  All counter blocks
    are encrypted in one vectorised call.
    """
    if len(nonce) != 4 or len(iv) != 8:
        raise ValueError("CTR needs a 4-byte nonce and an 8-byte IV")
    if num_blocks <= 0:
        raise ValueError("num_blocks must be positive")
    word0 = int.from_bytes(nonce, "big")
    word1 = int.from_bytes(iv[:4], "big")
    word2 = int.from_bytes(iv[4:], "big")
    states = np.empty((num_blocks, 4), dtype=np.uint32)
    states[:, 0] = word0
    states[:, 1] = word1
    states[:, 2] = word2
    counters = (initial_counter + np.arange(num_blocks, dtype=np.uint64)) & 0xFFFFFFFF
    states[:, 3] = counters.astype(np.uint32)
    encrypted = aes.encrypt_states(states)
    return encrypted.astype(">u4").tobytes()


def aes_ctr_xor(aes: AES128, nonce: bytes, iv: bytes, data: bytes) -> bytes:
    """Encrypt or decrypt ``data`` with AES-CTR (XOR with the keystream)."""
    if not data:
        return b""
    num_blocks = (len(data) + 15) // 16
    keystream = aes_ctr_keystream(aes, nonce, iv, num_blocks)
    return (
        np.frombuffer(data, dtype=np.uint8)
        ^ np.frombuffer(keystream, dtype=np.uint8, count=len(data))
    ).tobytes()


def aes_ctr_xor_lanes(aes: AES128, nonce: bytes, ivs: np.ndarray,
                      packets: Sequence[bytes]) -> List[memoryview]:
    """``aes_ctr_xor`` for many packets with one AES call and one XOR.

    ``packets[i]`` is ciphered under ``ivs[i]``; ``ivs`` is an ``(n, 2)``
    uint32 array, each packet's 8-byte IV as two big-endian words.  Every
    packet is laid out on a whole number of AES blocks in one flat
    buffer, and the RFC 3686 counter blocks of all of them (nonce | IV |
    1..n, restarting per packet) go through ``encrypt_states`` together.
    The results are views of the XORed buffer, one per packet.
    """
    if len(nonce) != 4:
        raise ValueError("CTR needs a 4-byte nonce")
    lengths = np.fromiter(map(len, packets), dtype=np.int64, count=len(packets))
    num_blocks = -(-lengths // AES_BLOCK_BYTES)
    first_block = np.cumsum(num_blocks) - num_blocks
    total = int(num_blocks.sum())
    states = np.empty((total, 4), dtype=np.uint32)
    states[:, 0] = int.from_bytes(nonce, "big")
    states[:, 1:3] = np.repeat(ivs, num_blocks, axis=0)
    states[:, 3] = np.arange(1, total + 1) - np.repeat(first_block, num_blocks)
    keystream = aes.encrypt_states(states).astype(">u4").view(np.uint8)

    zeros = bytes(AES_BLOCK_BYTES)
    flat = b"".join(
        part
        for packet in packets
        for part in (packet, zeros[:-len(packet) % AES_BLOCK_BYTES])
    )
    mixed = memoryview(np.frombuffer(flat, dtype=np.uint8) ^ keystream.reshape(-1))
    return [
        mixed[start:start + length]
        for start, length in zip(
            (first_block * AES_BLOCK_BYTES).tolist(), lengths.tolist()
        )
    ]
