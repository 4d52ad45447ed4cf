"""Differential tests: vectorized data plane vs the scalar reference.

The structure-of-arrays fast path in :mod:`repro.apps.ipv4` /
:mod:`repro.apps.ipv6` must be observationally identical to the
per-packet loops in :mod:`repro.apps.scalar_ref` — same dispositions,
same out ports, same slow-path reason counts, same final frame bytes,
same egress maps.  These tests fuzz adversarial mixes of valid,
malformed, local, expired, and unroutable frames through both
formulations and diff the results.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.apps import scalar_ref
from repro.apps.ipv4 import IPv4Forwarder
from repro.apps.ipv6 import IPv6Forwarder
from repro.core.chunk import Chunk, Disposition
from repro.core.composite import CompositeApplication
from repro.crypto.esp import esp_decapsulate
from repro.lookup.dir24_8 import Dir24_8
from repro.lookup.ipv6_bsearch import IPv6BinarySearch
from repro.net.packet import build_udp_ipv4, build_udp_ipv6
from tests.apps.test_ipsec_decap import tunnel_pair

LOCAL_V4 = 0x0A0000FE  # 10.0.0.254
ROUTES_V4 = [
    (0x0A000000, 8, 1),   # 10/8 -> port 1
    (0x0A010000, 16, 2),  # 10.1/16 -> port 2 (longer match wins)
    (0x0B000000, 8, 3),   # 11/8 -> port 3
]

V6_BASE = 0x20010DB8 << 96
LOCAL_V6 = V6_BASE | 0xFE
ROUTES_V6 = [
    (V6_BASE, 32, 1),
    (V6_BASE | (1 << 95), 33, 2),
]

#: Frame recipes: (kind, seed) pairs the builders expand deterministically.
KINDS_V4 = (
    "valid",
    "valid-long",
    "no-route",
    "local",
    "ttl-expired",
    "non-ip",
    "short",
    "bad-version",
    "bad-checksum",
)

recipe_v4 = st.tuples(st.sampled_from(KINDS_V4), st.integers(0, 2**16 - 1))
recipes_v4 = st.lists(recipe_v4, min_size=0, max_size=32)


def build_v4(kind, seed):
    dst = 0x0A000000 | (seed & 0xFFFF)  # routable: inside 10/8
    ttl = 2 + seed % 200
    if kind == "valid":
        return build_udp_ipv4(0x0C000001, dst, 5000, 53, ttl=ttl)
    if kind == "valid-long":
        return build_udp_ipv4(
            0x0C000001, dst, 5000, 53, ttl=ttl, frame_len=64 + seed % 128
        )
    if kind == "no-route":
        return build_udp_ipv4(0x0C000001, 0xC0A80000 | seed, 5000, 53, ttl=ttl)
    if kind == "local":
        return build_udp_ipv4(0x0C000001, LOCAL_V4, 5000, 53, ttl=ttl)
    if kind == "ttl-expired":
        return build_udp_ipv4(0x0C000001, dst, 5000, 53, ttl=seed % 2)
    if kind == "non-ip":
        frame = build_udp_ipv4(0x0C000001, dst, 5000, 53, ttl=ttl)
        frame[12:14] = (seed % 0xFFFF).to_bytes(2, "big")
        if frame[12:14] == b"\x08\x00":
            frame[12] = 0x86
        return frame
    if kind == "short":
        return bytearray(bytes([seed & 0xFF]) * (seed % 34))
    if kind == "bad-version":
        frame = build_udp_ipv4(0x0C000001, dst, 5000, 53, ttl=ttl)
        frame[14] = 0x46  # IPv4 with options: dropped as malformed
        return frame
    if kind == "bad-checksum":
        frame = build_udp_ipv4(0x0C000001, dst, 5000, 53, ttl=ttl)
        frame[24] ^= 0xFF
        return frame
    raise AssertionError(kind)


def assert_chunks_identical(scalar_chunk, vector_chunk):
    assert (
        vector_chunk.dispositions.tolist() == scalar_chunk.dispositions.tolist()
    )
    assert vector_chunk.out_ports.tolist() == scalar_chunk.out_ports.tolist()
    assert [bytes(f) for f in vector_chunk.frames] == [
        bytes(f) for f in scalar_chunk.frames
    ]
    scalar_split = {
        port: [bytes(f) for f in frames]
        for port, frames in scalar_ref.split_by_port_scalar(scalar_chunk).items()
    }
    vector_split = {
        port: [bytes(f) for f in frames]
        for port, frames in vector_chunk.split_by_port().items()
    }
    assert vector_split == scalar_split


class TestIPv4Differential:
    def _run_both(self, frames, verify_checksums=True):
        table = Dir24_8()
        table.add_routes(ROUTES_V4)

        scalar_chunk = Chunk(frames=[bytearray(f) for f in frames])
        scalar_reasons = {
            "non-ip": 0,
            "malformed": 0,
            "ttl-expired": 0,
            "bad-checksum": 0,
            "local": 0,
        }
        dsts = scalar_ref.classify_ipv4_scalar(
            scalar_chunk, frozenset({LOCAL_V4}), verify_checksums, scalar_reasons
        )
        scalar_ref.apply_next_hops_ipv4_scalar(
            scalar_chunk, table.lookup_batch(dsts)
        )

        app = IPv4Forwarder(
            table=table,
            local_addresses={LOCAL_V4},
            verify_checksums=verify_checksums,
        )
        vector_chunk = Chunk(frames=[bytearray(f) for f in frames])
        app.cpu_process(vector_chunk)
        return scalar_chunk, scalar_reasons, vector_chunk, app.slow_path_reasons

    @settings(max_examples=50, deadline=None)
    @given(recipes_v4)
    def test_fuzzed_mixes_agree(self, recipes):
        frames = [build_v4(kind, seed) for kind, seed in recipes]
        scalar_chunk, scalar_reasons, vector_chunk, vector_reasons = (
            self._run_both(frames)
        )
        assert vector_reasons == scalar_reasons
        assert_chunks_identical(scalar_chunk, vector_chunk)

    @settings(max_examples=25, deadline=None)
    @given(recipes_v4)
    def test_fuzzed_mixes_agree_without_checksum_verify(self, recipes):
        frames = [build_v4(kind, seed) for kind, seed in recipes]
        scalar_chunk, scalar_reasons, vector_chunk, vector_reasons = (
            self._run_both(frames, verify_checksums=False)
        )
        assert vector_reasons == scalar_reasons
        assert_chunks_identical(scalar_chunk, vector_chunk)

    def test_all_valid_uniform_chunk(self):
        # The all-pass uniform-grid fast path: every screen is skipped.
        frames = [build_v4("valid", seed) for seed in range(64)]
        scalar_chunk, scalar_reasons, vector_chunk, vector_reasons = (
            self._run_both(frames)
        )
        assert vector_chunk.count(Disposition.FORWARD) == 64
        assert vector_reasons == scalar_reasons
        assert_chunks_identical(scalar_chunk, vector_chunk)

    def test_every_kind_once(self):
        frames = [build_v4(kind, 7) for kind in KINDS_V4]
        scalar_chunk, scalar_reasons, vector_chunk, vector_reasons = (
            self._run_both(frames)
        )
        assert vector_reasons == scalar_reasons
        assert_chunks_identical(scalar_chunk, vector_chunk)

    def test_ttl_rewrites_match_byte_for_byte(self):
        frames = [
            build_udp_ipv4(0x0C000001, 0x0A010000 | i, 5000, 53, ttl=2 + i)
            for i in range(16)
        ]
        scalar_chunk, _, vector_chunk, _ = self._run_both(frames)
        for scalar_frame, vector_frame in zip(
            scalar_chunk.frames, vector_chunk.frames
        ):
            assert bytes(vector_frame) == bytes(scalar_frame)


KINDS_V6 = ("valid", "no-route", "local", "hop-expired", "non-ip", "short",
            "bad-version")

recipe_v6 = st.tuples(st.sampled_from(KINDS_V6), st.integers(0, 2**16 - 1))
recipes_v6 = st.lists(recipe_v6, min_size=0, max_size=24)


def build_v6(kind, seed):
    dst = V6_BASE | (seed << 8) | 1
    hop = 2 + seed % 200
    if kind == "valid":
        return build_udp_ipv6(1, dst, 5000, 53, hop_limit=hop)
    if kind == "no-route":
        return build_udp_ipv6(1, 0x3000 << 112 | seed, 5000, 53, hop_limit=hop)
    if kind == "local":
        return build_udp_ipv6(1, LOCAL_V6, 5000, 53, hop_limit=hop)
    if kind == "hop-expired":
        return build_udp_ipv6(1, dst, 5000, 53, hop_limit=seed % 2)
    if kind == "non-ip":
        frame = build_udp_ipv6(1, dst, 5000, 53, hop_limit=hop)
        frame[12:14] = b"\x08\x00"
        return frame
    if kind == "short":
        return bytearray(bytes([seed & 0xFF]) * (seed % 54))
    if kind == "bad-version":
        frame = build_udp_ipv6(1, dst, 5000, 53, hop_limit=hop)
        frame[14] = 0x45
        return frame
    raise AssertionError(kind)


class TestIPv6Differential:
    def _run_both(self, frames):
        table = IPv6BinarySearch()
        table.build(ROUTES_V6)

        scalar_chunk = Chunk(frames=[bytearray(f) for f in frames])
        scalar_reasons = {
            "non-ip": 0,
            "malformed": 0,
            "hop-limit": 0,
            "local": 0,
        }
        dsts = scalar_ref.classify_ipv6_scalar(
            scalar_chunk, frozenset({LOCAL_V6}), scalar_reasons
        )
        hops = table.lookup_batch(dsts)
        for index in scalar_chunk.pending_indices():
            if hops[index] is None:
                scalar_chunk.set_drop(index)
            else:
                scalar_chunk.set_forward(index, hops[index])

        app = IPv6Forwarder(table=table, local_addresses={LOCAL_V6})
        vector_chunk = Chunk(frames=[bytearray(f) for f in frames])
        app.cpu_process(vector_chunk)
        return scalar_chunk, scalar_reasons, vector_chunk, app.slow_path_reasons

    @settings(max_examples=40, deadline=None)
    @given(recipes_v6)
    def test_fuzzed_mixes_agree(self, recipes):
        frames = [build_v6(kind, seed) for kind, seed in recipes]
        scalar_chunk, scalar_reasons, vector_chunk, vector_reasons = (
            self._run_both(frames)
        )
        assert vector_reasons == scalar_reasons
        assert_chunks_identical(scalar_chunk, vector_chunk)

    def test_every_kind_once(self):
        frames = [build_v6(kind, 3) for kind in KINDS_V6]
        scalar_chunk, scalar_reasons, vector_chunk, vector_reasons = (
            self._run_both(frames)
        )
        assert vector_reasons == scalar_reasons
        assert_chunks_identical(scalar_chunk, vector_chunk)


class TestEgressDifferential:
    def test_split_by_port_matches_scalar_on_random_verdicts(self):
        rng = np.random.default_rng(1071)
        frames = [
            build_udp_ipv4(0x0C000001, 0x0A000000 | i, 5000, 53)
            for i in range(128)
        ]
        chunk = Chunk(frames=frames)
        ports = rng.integers(0, 5, size=128)
        fate = rng.integers(0, 3, size=128)  # forward / drop / slow path
        chunk.set_forward(np.flatnonzero(fate == 0), ports[fate == 0])
        chunk.set_drop(np.flatnonzero(fate == 1))
        chunk.set_slow_path(np.flatnonzero(fate == 2))
        scalar_split = scalar_ref.split_by_port_scalar(chunk)
        vector_split = chunk.split_by_port()
        assert {
            port: [bytes(f) for f in fs] for port, fs in vector_split.items()
        } == {
            port: [bytes(f) for f in fs] for port, fs in scalar_split.items()
        }

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_split_by_port_matches_scalar_with_replaced_frames(self, data):
        """Mixed lengths, any verdicts and ports, and a random subset of
        frames replaced (grown and shrunk) before the split: per port
        the gathered egress is the scalar loop's, byte for byte, FIFO."""
        blobs = data.draw(
            st.lists(st.binary(min_size=0, max_size=90), max_size=24)
        )
        count = len(blobs)
        chunk = Chunk(frames=[bytearray(b) for b in blobs])
        fates = data.draw(st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 4)),
            min_size=count, max_size=count,
        ))
        for index, (fate, port) in enumerate(fates):
            if fate == 1:
                chunk.set_forward(index, port)
            elif fate == 2:
                chunk.set_drop(index)
            elif fate == 3:
                chunk.set_slow_path(index)
        expected = list(blobs)
        replacements = data.draw(st.lists(
            st.tuples(st.integers(0, max(count - 1, 0)),
                      st.binary(min_size=0, max_size=140)),
            max_size=count,
        ))
        for index, blob in replacements:
            chunk.replace_frame(index, bytearray(blob))
            expected[index] = blob
        assert [bytes(f) for f in chunk.frames] == expected
        scalar_split = scalar_ref.split_by_port_scalar(chunk)
        vector_split = chunk.split_by_port()
        assert list(vector_split) == sorted(scalar_split)
        assert {
            port: [bytes(f) for f in fs] for port, fs in vector_split.items()
        } == {
            port: [bytes(f) for f in fs] for port, fs in scalar_split.items()
        }


KINDS_TUNNELLED = (
    "valid", "valid-long", "no-route", "local", "ttl-expired",
    "bad-version", "bad-checksum",
)


class TestCompositeDifferential:
    """decap -> ipv4 on one chunk: every frame is replaced (shrunk) by
    the first stage, then classified, TTL-rewritten and looked up where
    ``replace_frame`` left it — against the per-packet oracles."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(
        st.tuples(st.sampled_from(KINDS_TUNNELLED), st.integers(0, 2**16 - 1)),
        min_size=1, max_size=16,
    ))
    def test_decap_then_ipv4_matches_scalar(self, recipes):
        encap, decap = tunnel_pair()
        tunnel = Chunk(frames=[build_v4(kind, seed) for kind, seed in recipes])
        encap.cpu_process(tunnel)
        tunnelled = [bytes(f) for f in tunnel.frames]

        table = Dir24_8()
        table.add_routes(ROUTES_V4)
        forwarder = IPv4Forwarder(table=table, local_addresses={LOCAL_V4})
        vector_chunk = Chunk(frames=tunnelled)
        CompositeApplication([decap, forwarder]).cpu_process(vector_chunk)

        reference_sa = tunnel_pair()[1].sa
        clear = []
        for frame in tunnelled:
            inner, status = esp_decapsulate(reference_sa, frame[14:])
            assert status == "ok"
            clear.append(bytearray(frame[:14] + inner))
        scalar_chunk = Chunk(frames=clear)
        scalar_reasons = dict.fromkeys(forwarder.slow_path_reasons, 0)
        dsts = scalar_ref.classify_ipv4_scalar(
            scalar_chunk, frozenset({LOCAL_V4}), True, scalar_reasons
        )
        scalar_ref.apply_next_hops_ipv4_scalar(
            scalar_chunk, table.lookup_batch(dsts)
        )
        assert dict(forwarder.slow_path_reasons) == scalar_reasons
        assert_chunks_identical(scalar_chunk, vector_chunk)
