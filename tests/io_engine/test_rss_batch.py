"""The batched RSS steer against the per-frame oracle.

``ShardMap`` steers a burst as columns: ``FrameBatch.rss_rows`` gathers
the 5-tuples as byte matrices and ``RSSHasher.toeplitz_rows`` hashes them
by table.  The oracle is the per-frame path it replaced:
``parse_packet(frame).five_tuple()`` then the bit-serial
``RSSHasher.toeplitz`` — every frame must be found hashable, hashed and
placed exactly as the oracle has it, and unhashable frames must continue
the round-robin in arrival order, across bursts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gen.packetgen import PacketGenerator
from repro.io_engine.rss import MICROSOFT_RSS_KEY, RSSHasher, ShardMap
from repro.net.addrs import ip4_from_str, ip6_from_str
from repro.net.ethernet import (
    ETHERTYPE_IPV6,
    EthernetHeader,
    VLANTag,
    add_vlan_tag,
)
from repro.net.frames import FrameBatch
from repro.net.ipv6 import IPv6Header
from repro.net.packet import (
    PacketParseError,
    build_tcp_ipv4,
    build_udp_ipv4,
    build_udp_ipv6,
    parse_packet,
)
from repro.net.tcp import TCPHeader

# ----------------------------------------------------------------------
# The Microsoft "Verifying the RSS Hash Calculation" vectors.
# ----------------------------------------------------------------------

#: (source, destination, source port, destination port,
#:  hash of the addresses alone, hash with the ports).
V4_VECTORS = [
    ("66.9.149.187", "161.142.100.80", 2794, 1766, 0x323E8FC2, 0x51CCC178),
    ("199.92.111.2", "65.69.140.83", 14230, 4739, 0xD718262A, 0xC626B0EA),
    ("24.19.198.95", "12.22.207.184", 12898, 38024, 0xD2D0A5DE, 0x5C2B394A),
    ("38.27.205.30", "209.142.163.6", 48228, 2217, 0x82989176, 0xAFC7327F),
    ("153.39.163.191", "202.188.127.2", 44251, 1303, 0x5D1809C5, 0x10E828A2),
]
V6_VECTORS = [
    ("3ffe:2501:200:1fff::7", "3ffe:2501:200:3::1", 2794, 1766,
     0x2CC18CD5, 0x40207D3D),
    ("3ffe:501:8::260:97ff:fe40:efab", "ff02::1", 14230, 4739,
     0x0F0C461C, 0xDDE51BBF),
    ("3ffe:1900:4545:3:200:f8ff:fe21:67cf", "fe80::200:f8ff:fe21:67cf",
     44251, 38024, 0x4B61E985, 0x02D1FEEF),
]


def _vector_rows(vectors, parse, width, with_ports):
    rows = [
        parse(src).to_bytes(width, "big") + parse(dst).to_bytes(width, "big")
        + (sport.to_bytes(2, "big") + dport.to_bytes(2, "big")
           if with_ports else b"")
        for src, dst, sport, dport, _, _ in vectors
    ]
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(len(rows), -1)


class TestVectors:
    @pytest.mark.parametrize("with_ports", [False, True], ids=["l3", "l4"])
    @pytest.mark.parametrize("family", ["v4", "v6"])
    def test_microsoft_vectors_as_one_matrix(self, family, with_ports):
        vectors, parse, width = {
            "v4": (V4_VECTORS, ip4_from_str, 4),
            "v6": (V6_VECTORS, ip6_from_str, 16),
        }[family]
        rows = _vector_rows(vectors, parse, width, with_ports)
        hasher = RSSHasher(queue_map=[0], key=MICROSOFT_RSS_KEY)
        expected = [v[5] if with_ports else v[4] for v in vectors]
        assert hasher.toeplitz_rows(rows).tolist() == expected
        assert [hasher.toeplitz(bytes(row)) for row in rows] == expected

    def test_empty_matrix_hashes_to_an_empty_column(self):
        hashes = RSSHasher(queue_map=[0]).toeplitz_rows(
            np.zeros((0, 12), dtype=np.uint8)
        )
        assert hashes.dtype == np.uint32 and hashes.shape == (0,)

    def test_input_longer_than_key_window_rejected(self):
        with pytest.raises(ValueError):
            RSSHasher(queue_map=[0]).toeplitz_rows(
                np.zeros((1, 37), dtype=np.uint8)
            )

    @given(st.binary(min_size=16, max_size=48),
           st.lists(st.binary(min_size=12, max_size=12), max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_any_key_equals_the_bit_serial_hash(self, key, inputs):
        hasher = RSSHasher(queue_map=[0], key=key)
        rows = np.frombuffer(b"".join(inputs), dtype=np.uint8).reshape(-1, 12)
        assert hasher.toeplitz_rows(rows).tolist() == [
            hasher.toeplitz(item) for item in inputs
        ]


# ----------------------------------------------------------------------
# Frames that exercise every branch of the parser.
# ----------------------------------------------------------------------

def _tcp_ipv6(src, dst, sport, dport):
    payload = bytes(6)
    ip = IPv6Header(src=src, dst=dst, next_header=6,
                    payload_length=20 + len(payload))
    eth = EthernetHeader(dst=2, src=1, ethertype=ETHERTYPE_IPV6)
    return bytearray(
        eth.pack() + ip.pack() + TCPHeader(sport, dport).pack() + payload
    )


#: Lengths at which a header ends: Ethernet (14), IPv4 (34), UDP over
#: IPv4 (42), TCP over IPv4 (54), IPv6 (54), UDP over IPv6 (62), TCP
#: over IPv6 (74), and the TCP data offset bytes (47, 67); one either side.
BOUNDARIES = sorted({
    edge + delta
    for edge in (0, 14, 34, 42, 47, 54, 62, 67, 74)
    for delta in (-1, 0, 1)
    if edge + delta >= 0
})


@st.composite
def frames(draw):
    kind = draw(st.sampled_from(
        ["udp4", "tcp4", "udp6", "tcp6", "vlan", "arp", "raw"]
    ))
    if kind == "raw":
        return bytearray(draw(st.binary(max_size=96)))
    src4, dst4 = draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 2**32 - 1))
    src6, dst6 = draw(st.integers(0, 2**128 - 1)), draw(st.integers(0, 2**128 - 1))
    sport, dport = draw(st.integers(0, 65535)), draw(st.integers(0, 65535))
    frame_len = draw(st.sampled_from([64, 78, 90]))
    frame = {
        "udp4": lambda: build_udp_ipv4(src4, dst4, sport, dport, frame_len),
        "tcp4": lambda: build_tcp_ipv4(src4, dst4, sport, dport, frame_len),
        "udp6": lambda: build_udp_ipv6(src6, dst6, sport, dport, frame_len),
        "tcp6": lambda: _tcp_ipv6(src6, dst6, sport, dport),
        "vlan": lambda: bytearray(add_vlan_tag(
            build_udp_ipv4(src4, dst4, sport, dport), VLANTag(vid=7)
        )),
        "arp": lambda: bytearray(
            EthernetHeader(dst=2, src=1, ethertype=0x0806).pack() + bytes(28)
        ),
    }[kind]()
    is_v6 = kind in ("udp6", "tcp6")
    l4 = 54 if is_v6 else 34
    mutations = {
        # version / IHL
        14: st.sampled_from([0x45, 0x44, 0x46, 0x4F, 0x55, 0x35, 0x60,
                             0x65, 0x6F, 0x70]),
        # protocol / next header
        20 if is_v6 else 23: st.sampled_from([6, 17, 1, 50, 0]),
        # TCP data offset
        l4 + 12: st.sampled_from([0x00, 0x40, 0x4F, 0x50, 0x5F, 0xF0]),
        # EtherType high byte: IPv4 <-> IPv6 <-> VLAN confusions
        12: st.sampled_from([0x08, 0x86, 0x81]),
    }
    for index, values in mutations.items():
        if index < len(frame) and draw(st.booleans()):
            frame[index] = draw(values)
    if draw(st.booleans()):
        cut = draw(st.sampled_from(BOUNDARIES) | st.integers(0, len(frame)))
        del frame[cut:]
    return frame


def oracle(frames, num_shards, fallbacks=0):
    """Per-frame: the 5-tuple by the parser, the shard by the bit-serial
    hash, round-robin where the parser finds none.  Returns
    ``(tuple bytes or None per frame, shards, fallbacks after)``."""
    hasher = RSSHasher(queue_map=range(num_shards))
    tuples, shards = [], []
    for frame in frames:
        try:
            flow = parse_packet(bytes(frame)).five_tuple()
        except PacketParseError:
            flow = None
        if flow is None:
            tuples.append(None)
            shards.append(fallbacks % num_shards)
            fallbacks += 1
        else:
            tuples.append(RSSHasher.tuple_bytes(flow))
            shards.append(hasher.hash_flow(flow) % num_shards)
    return tuples, shards, fallbacks


def gathered(frames):
    """What ``rss_rows`` found: tuple bytes or None per frame."""
    found = [None] * len(frames)
    for indices, rows in FrameBatch.from_frames(frames).rss_rows():
        for index, row in zip(indices.tolist(), rows):
            found[index] = bytes(row)
    return found


def uniform(frames, length):
    """The frames cut or zero-padded to one length: the batch's matrix
    (grid) path instead of its bounds-checked gathers."""
    return [bytearray((bytes(f) + bytes(length))[:length]) for f in frames]


class TestGather:
    @given(st.lists(frames(), max_size=40))
    @settings(max_examples=200, deadline=None)
    def test_mixed_lengths_match_the_parser(self, burst):
        assert gathered(burst) == oracle(burst, 1)[0]

    @given(st.lists(frames(), min_size=1, max_size=24),
           st.sampled_from(BOUNDARIES + [64, 78, 90]))
    @settings(max_examples=200, deadline=None)
    def test_uniform_lengths_match_the_parser(self, burst, length):
        burst = uniform(burst, length)
        assert FrameBatch.from_frames(burst).grid is not None or length == 0
        assert gathered(burst) == oracle(burst, 1)[0]

    def test_families_come_back_in_order_with_their_widths(self):
        burst = [build_udp_ipv6(1, 2, 3, 4), build_udp_ipv4(5, 6, 7, 8),
                 bytearray(10), build_tcp_ipv4(9, 10, 11, 12)]
        (v4, rows4), (v6, rows6) = FrameBatch.from_frames(burst).rss_rows()
        assert v4.tolist() == [1, 3] and rows4.shape == (2, 12)
        assert v6.tolist() == [0] and rows6.shape == (1, 36)


class TestSteer:
    @given(st.lists(st.lists(frames(), max_size=16), min_size=1, max_size=4),
           st.integers(1, 5))
    @settings(max_examples=150, deadline=None)
    def test_bursts_steer_like_the_oracle(self, bursts, num_shards):
        """One map across bursts: placements equal the oracle's, and the
        unhashable round-robin continues from burst to burst."""
        shard_map = ShardMap(num_shards)
        fallbacks = 0
        for burst in bursts:
            _, expected, fallbacks = oracle(burst, num_shards, fallbacks)
            assert shard_map.shards_of(burst).tolist() == expected
            assert shard_map.fallbacks == fallbacks

    @given(st.lists(frames(), max_size=24), st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_partition_is_the_shard_column(self, burst, num_shards):
        _, expected, _ = oracle(burst, num_shards)
        parts = ShardMap(num_shards).partition(burst)
        assert parts == [
            [f for f, s in zip(burst, expected) if s == shard]
            for shard in range(num_shards)
        ]
        assert all(
            any(f is g for g in burst) for part in parts for f in part
        )

    @given(st.lists(frames(), max_size=24))
    @settings(max_examples=60, deadline=None)
    def test_one_shard_takes_everything_and_still_counts(self, burst):
        shard_map = ShardMap(1)
        assert shard_map.shards_of(burst).tolist() == [0] * len(burst)
        assert shard_map.fallbacks == oracle(burst, 1)[0].count(None)

    @pytest.mark.parametrize("family", ["ipv4", "ipv6"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_rows_steer_like_their_frames(self, family, seed):
        """The shard loop hands ``shards_of`` the generator's matrix:
        the same column as for the frame list, and as the oracle's."""
        rows = getattr(PacketGenerator(seed), f"{family}_rows")(256)
        burst = [bytearray(row) for row in rows]
        _, expected, _ = oracle(burst, 3)
        assert ShardMap(3).shards_of(rows).tolist() == expected
        assert ShardMap(3).shards_of(burst).tolist() == expected
