"""Property-based tests for the crypto substrate."""

import hashlib
import hmac as std_hmac

from hypothesis import given, settings, strategies as st

from repro.crypto.aes import AES128, aes_ctr_xor
from repro.crypto.esp import (
    SecurityAssociation,
    esp_decapsulate,
    esp_decapsulate_batch,
    esp_encapsulate,
    esp_encapsulate_batch,
)
from repro.crypto.sha1 import hmac_sha1, sha1
from repro.crypto.sha1_lanes import HmacSha1Lanes, sha1_lanes
from repro.net.ipv4 import IPv4Header

#: Message lists for the lane hashes: lengths either side of a padding
#: spill (55/56, 63/64, 119/120) turn up in most draws, next to arbitrary
#: ones, so one call mixes block counts.
lane_messages = st.lists(
    st.one_of(
        st.sampled_from([0, 55, 56, 63, 64, 119, 120]).flatmap(
            lambda n: st.binary(min_size=n, max_size=n)
        ),
        st.binary(min_size=0, max_size=400),
    ),
    min_size=0, max_size=12,
)


class TestSHA1Properties:
    @settings(max_examples=60)
    @given(st.binary(min_size=0, max_size=500))
    def test_matches_hashlib(self, message):
        assert sha1(message) == hashlib.sha1(message).digest()

    @settings(max_examples=40)
    @given(st.binary(min_size=1, max_size=80), st.binary(min_size=0, max_size=300))
    def test_hmac_matches_stdlib(self, key, message):
        assert hmac_sha1(key, message) == std_hmac.new(
            key, message, hashlib.sha1
        ).digest()


class TestLaneProperties:
    @settings(max_examples=60, deadline=None)
    @given(lane_messages)
    def test_sha1_lanes_match_hashlib(self, messages):
        assert [bytes(row) for row in sha1_lanes(messages)] == [
            hashlib.sha1(m).digest() for m in messages
        ]

    @settings(max_examples=60, deadline=None)
    @given(st.binary(min_size=1, max_size=80), lane_messages)
    def test_hmac_lanes_match_stdlib(self, key, messages):
        assert [bytes(row) for row in HmacSha1Lanes(key).digests(messages)] == [
            std_hmac.new(key, m, hashlib.sha1).digest() for m in messages
        ]


class TestAESProperties:
    @settings(max_examples=40)
    @given(
        st.binary(min_size=16, max_size=16),
        st.binary(min_size=4, max_size=4),
        st.binary(min_size=8, max_size=8),
        st.binary(min_size=0, max_size=400),
    )
    def test_ctr_roundtrip(self, key, nonce, iv, data):
        aes = AES128(key)
        assert aes_ctr_xor(aes, nonce, iv, aes_ctr_xor(aes, nonce, iv, data)) == data

    @settings(max_examples=20)
    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    def test_block_cipher_deterministic_and_nontrivial(self, key, block):
        aes = AES128(key)
        first = aes.encrypt_block(block)
        assert first == aes.encrypt_block(block)
        assert first != block or key != bytes(16)  # AES is never identity


class TestESPProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=0, max_size=600), st.integers(0, 2**32 - 1))
    def test_encap_decap_roundtrip(self, payload, seed_material):
        import random

        rng = random.Random(seed_material)
        key = rng.getrandbits(128).to_bytes(16, "big")
        sa_args = dict(
            spi=rng.getrandbits(32) or 1,
            encryption_key=key,
            nonce=rng.getrandbits(32).to_bytes(4, "big"),
            auth_key=rng.getrandbits(160).to_bytes(20, "big"),
            tunnel_src=rng.getrandbits(32),
            tunnel_dst=rng.getrandbits(32),
        )
        inner = IPv4Header(
            src=rng.getrandbits(32), dst=rng.getrandbits(32),
            total_length=20 + len(payload),
        ).pack() + payload
        outer = esp_encapsulate(SecurityAssociation(**sa_args), inner)
        recovered, status = esp_decapsulate(SecurityAssociation(**sa_args), outer)
        assert status == "ok"
        assert recovered == inner

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 1000), st.integers(0, 255))
    def test_any_single_byte_flip_detected(self, flip_position, flip_value):
        sa_args = dict(
            spi=1, encryption_key=bytes(range(16)), nonce=bytes(4),
            auth_key=bytes(range(20)), tunnel_src=1, tunnel_dst=2,
        )
        inner = IPv4Header(src=3, dst=4, total_length=60).pack() + bytes(40)
        outer = bytearray(esp_encapsulate(SecurityAssociation(**sa_args), inner))
        position = 20 + flip_position % (len(outer) - 20)  # inside the ESP region
        original = outer[position]
        outer[position] ^= (flip_value or 1)
        if outer[position] == original:
            return
        recovered, status = esp_decapsulate(
            SecurityAssociation(**sa_args), bytes(outer)
        )
        assert status != "ok" or recovered != inner


SA_ARGS = dict(
    spi=0x1001, encryption_key=bytes(range(16)), nonce=b"\xde\xad\xbe\xef",
    auth_key=bytes(range(20)), tunnel_src=0x0A000001, tunnel_dst=0x0A000002,
)
STATUSES = {"ok", "bad-icv", "replay", "malformed", "bad-spi"}


def ipv4_inner(payload: bytes) -> bytes:
    return IPv4Header(src=3, dst=4, total_length=20 + len(payload)).pack() + payload


class TestBatchProperties:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.binary(max_size=200)), max_size=10),
           st.integers(0, 2**32 - 12))
    def test_batch_encap_is_the_scalar_loop(self, payloads, seq):
        inners = [None if p is None else ipv4_inner(p) for p in payloads]
        scalar_sa = SecurityAssociation(seq=seq, **SA_ARGS)
        batch_sa = SecurityAssociation(seq=seq, **SA_ARGS)
        assert esp_encapsulate_batch(batch_sa, inners) == [
            None if inner is None else esp_encapsulate(scalar_sa, inner)
            for inner in inners
        ]
        assert batch_sa.seq == scalar_sa.seq

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_outer_packet_gets_a_status_never_an_exception(self, data):
        """Any bytes set, any cut, any growth of a valid outer packet."""
        outer = bytearray(esp_encapsulate(
            SecurityAssociation(**SA_ARGS), ipv4_inner(bytes(40))
        ))
        edits = data.draw(st.lists(
            st.tuples(st.integers(0, len(outer) - 1), st.integers(0, 255)),
            max_size=4,
        ))
        for position, value in edits:
            outer[position] = value
        # Header fields a fuzzer rarely lands on by chance.
        if data.draw(st.booleans()):
            outer[2:4] = data.draw(st.integers(0, 0xFFFF)).to_bytes(2, "big")
        length = data.draw(st.integers(0, len(outer) + 8))
        mutated = bytes(outer[:length]) + bytes(max(0, length - len(outer)))

        inner, status = esp_decapsulate(SecurityAssociation(**SA_ARGS), mutated)
        assert status in STATUSES
        assert (inner is not None) == (status == "ok")
        good = esp_encapsulate(
            SecurityAssociation(seq=1, **SA_ARGS), ipv4_inner(bytes(9))
        )
        assert esp_decapsulate_batch(
            SecurityAssociation(**SA_ARGS), [good, mutated, good]
        ) == [(ipv4_inner(bytes(9)), "ok"), (inner, status), (None, "replay")]
