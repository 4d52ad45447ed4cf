"""Lane SHA-1 / HMAC against FIPS-180 and RFC 2202 vectors and stdlib."""

import hashlib
import hmac as std_hmac

import pytest

from repro.crypto.sha1 import hmac_sha1, sha1
from repro.crypto.sha1_lanes import HmacSha1Lanes, sha1_lanes

#: Lengths either side of where the padding spills into another block.
BOUNDARY_LENGTHS = [0, 1, 55, 56, 63, 64, 65, 119, 120, 127, 128, 1000]


def message(length: int) -> bytes:
    return bytes((i * 7 + 3) & 0xFF for i in range(length))


def rows(digests) -> list:
    return [bytes(row) for row in digests]


class TestSHA1Lanes:
    def test_fips180_vectors_in_one_call(self):
        two_block = b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        assert [row.hex() for row in rows(sha1_lanes([b"abc", two_block, b""]))] == [
            "a9993e364706816aba3e25717850c26c9cd0d89d",
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
            "da39a3ee5e6b4b0d3255bfef95601890afd80709",
        ]

    def test_mixed_block_counts_keep_arrival_order(self):
        # Sorted longest-first inside; the caller must not see that.
        messages = [message(n) for n in BOUNDARY_LENGTHS]
        expected = [hashlib.sha1(m).digest() for m in messages]
        assert rows(sha1_lanes(messages)) == expected
        assert rows(sha1_lanes(messages[::-1])) == expected[::-1]

    @pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
    def test_single_lane_matches_scalar(self, length):
        assert rows(sha1_lanes([message(length)])) == [sha1(message(length))]

    def test_no_messages(self):
        assert sha1_lanes([]).shape == (0, 20)


class TestHmacLanes:
    def test_rfc2202_vectors_in_one_call(self):
        cases = [
            (bytes([0x0B] * 20), b"Hi There",
             "b617318655057264e28bc0b6fb378c8ef146be00"),
            (b"Jefe", b"what do ya want for nothing?",
             "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
            (bytes([0xAA] * 80),
             b"Test Using Larger Than Block-Size Key - Hash Key First",
             "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
        ]
        for key, text, expected in cases:
            digests = HmacSha1Lanes(key).digests([text, b"", text])
            assert digests[0].tobytes().hex() == expected
            assert digests[2].tobytes().hex() == expected
            assert digests[1].tobytes() == hmac_sha1(key, b"")

    @pytest.mark.parametrize("key_len", [1, 20, 64, 65, 100])
    def test_matches_stdlib_across_key_and_message_lengths(self, key_len):
        key = bytes(range(key_len))
        messages = [message(n) for n in BOUNDARY_LENGTHS]
        assert rows(HmacSha1Lanes(key).digests(messages)) == [
            std_hmac.new(key, m, hashlib.sha1).digest() for m in messages
        ]

    def test_one_key_object_serves_many_calls(self):
        lanes = HmacSha1Lanes(b"k" * 20)
        for count in (1, 3, 2):
            messages = [message(70 * i) for i in range(count)]
            assert rows(lanes.digests(messages)) == [
                hmac_sha1(b"k" * 20, m) for m in messages
            ]

    def test_no_messages(self):
        assert HmacSha1Lanes(b"k").digests([]).shape == (0, 20)
