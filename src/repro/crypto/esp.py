"""ESP tunnel-mode encapsulation (RFC 4303) with AES-CTR and HMAC-SHA1-96.

The IPsec gateway (paper Section 6.2.4) runs "Encapsulation Security
Payload (ESP) IPsec tunneling mode", which wraps the whole original IP
packet: a new outer IPv4 header, the ESP header (SPI + sequence number),
the per-packet IV, the encrypted inner packet plus ESP trailer (padding,
pad length, next header), and the 12-byte truncated HMAC ICV.

Encap and decap each exist twice.  ``esp_encapsulate_batch`` and
``esp_decapsulate_batch`` are the gateway's kernel and take a chunk: one
AES-CTR pass over every 16-byte block of every packet and HMAC-SHA1 with
one lane per packet, the two granularities of the paper's GPU kernel.
``esp_encapsulate`` and ``esp_decapsulate`` take one packet and run the
packet-at-a-time ciphers; the tests hold the batch to them byte for byte.
Header validation, trailer handling and the SA's sequence and replay
state are shared, the cipher code is not.
"""

from __future__ import annotations

import hmac
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.crypto.aes import AES128, aes_ctr_xor, aes_ctr_xor_lanes
from repro.crypto.sha1 import hmac_sha1_96
from repro.crypto.sha1_lanes import HmacSha1Lanes
from repro.net.ipv4 import IPV4_HEADER_LEN, IPv4Header

#: IP protocol number of ESP.
PROTO_ESP = 50
#: Protocol number recorded in the ESP trailer for a tunnelled IPv4 packet.
NEXT_HEADER_IPV4 = 4
ESP_HEADER_LEN = 8  # SPI + sequence number
ESP_IV_LEN = 8      # RFC 3686 explicit IV
ESP_ICV_LEN = 12    # HMAC-SHA1-96
#: AES-CTR needs no block alignment; ESP still pads to 4-byte alignment of
#: the (payload | padlen | next header) region.
ESP_ALIGN = 4
_MAX_SEQ = 0xFFFFFFFF
#: Padding (RFC 4303's default 1, 2, 3... pattern), pad length and next
#: header, indexed by pad length.
_TRAILERS = tuple(
    bytes(range(1, pad_len + 1)) + bytes([pad_len, NEXT_HEADER_IPV4])
    for pad_len in range(ESP_ALIGN)
)


@dataclass
class SecurityAssociation:
    """One IPsec SA: keys, SPI, tunnel endpoints, and sequence state."""

    spi: int
    encryption_key: bytes
    nonce: bytes
    auth_key: bytes
    tunnel_src: int
    tunnel_dst: int
    seq: int = 0
    replay_window: int = 64
    _highest_seen: int = field(default=0, repr=False)
    _window_bits: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if len(self.encryption_key) != 16:
            raise ValueError("AES-128 key must be 16 bytes")
        if len(self.nonce) != 4:
            raise ValueError("CTR nonce must be 4 bytes")
        if not self.auth_key:
            raise ValueError("auth key must not be empty")
        self._aes = AES128(self.encryption_key)
        self._lane_hmac = HmacSha1Lanes(self.auth_key)

    @property
    def aes(self) -> AES128:
        return self._aes

    @property
    def lane_hmac(self) -> HmacSha1Lanes:
        """HMAC under the auth key, a lane per message; the key's pad
        blocks are compressed once, here."""
        return self._lane_hmac

    def reserve_seqs(self, count: int) -> int:
        """Take the next ``count`` outbound sequence numbers; returns the
        first.  All or nothing: if the range would pass 2^32 - 1 none is
        consumed."""
        if self.seq + count > _MAX_SEQ:
            raise OverflowError("ESP sequence number exhausted; rekey the SA")
        first = self.seq + 1
        self.seq += count
        return first

    def next_seq(self) -> int:
        """Advance and return the outbound sequence number."""
        return self.reserve_seqs(1)

    def check_replay(self, seq: int) -> bool:
        """Inbound anti-replay check; True if the sequence is acceptable.

        Implements the RFC 4303 sliding window: sequences ahead of the
        window advance it; those inside it are accepted once; older or
        repeated ones are rejected.
        """
        if seq == 0:
            return False
        if seq > self._highest_seen:
            shift = seq - self._highest_seen
            self._window_bits = (
                (self._window_bits << shift) | 1
            ) & ((1 << self.replay_window) - 1)
            self._highest_seen = seq
            return True
        offset = self._highest_seen - seq
        if offset >= self.replay_window:
            return False
        mask = 1 << offset
        if self._window_bits & mask:
            return False
        self._window_bits |= mask
        return True

    def iv_for_seq(self, seq: int) -> bytes:
        """Deterministic per-packet IV (sequence-derived, RFC 3686 style)."""
        return struct.pack(">II", self.spi & 0xFFFFFFFF, seq & 0xFFFFFFFF)


def esp_overhead_bytes(inner_len: int) -> int:
    """Total bytes ESP tunnel mode adds to an inner IP packet.

    New outer IPv4 header + ESP header + IV + trailer (padding to 4-byte
    alignment + pad-length + next-header) + ICV.  The cost models use
    this to size the encrypted/authenticated regions.
    """
    if inner_len < 0:
        raise ValueError("negative inner length")
    pad = (-(inner_len + 2)) % ESP_ALIGN
    return IPV4_HEADER_LEN + ESP_HEADER_LEN + ESP_IV_LEN + pad + 2 + ESP_ICV_LEN


def esp_encapsulate(sa: SecurityAssociation, inner_packet: bytes,
                    ttl: int = 64) -> bytes:
    """Wrap an inner IPv4 packet into an ESP tunnel-mode outer packet.

    Returns the complete outer IPv4 packet (no Ethernet framing).  The
    encrypted region is (inner | padding | padlen | next header); the
    ICV authenticates (ESP header | IV | ciphertext).
    """
    seq = sa.next_seq()
    iv = sa.iv_for_seq(seq)
    pad_len = (-(len(inner_packet) + 2)) % ESP_ALIGN
    padding = bytes(range(1, pad_len + 1))  # RFC 4303 default pad pattern
    trailer = padding + bytes([pad_len, NEXT_HEADER_IPV4])
    ciphertext = aes_ctr_xor(sa.aes, sa.nonce, iv, inner_packet + trailer)
    esp_header = struct.pack(">II", sa.spi, seq)
    auth_region = esp_header + iv + ciphertext
    icv = hmac_sha1_96(sa.auth_key, auth_region)
    payload = auth_region + icv
    outer = IPv4Header(
        src=sa.tunnel_src,
        dst=sa.tunnel_dst,
        protocol=PROTO_ESP,
        ttl=ttl,
        total_length=IPV4_HEADER_LEN + len(payload),
        identification=seq & 0xFFFF,
    )
    return outer.pack() + payload


def _esp_payload(outer_packet: bytes) -> Optional[bytes]:
    """The ESP payload (header | IV | ciphertext | ICV) of an outer packet,
    or None when the packet cannot hold one: a crafted ``total_length``,
    IP options or a wrong version must not get as far as the ciphers."""
    if (
        len(outer_packet) < IPV4_HEADER_LEN
        or outer_packet[0] != 0x45          # version 4, no options
        or outer_packet[9] != PROTO_ESP
    ):
        return None
    total_length = int.from_bytes(outer_packet[2:4], "big")
    payload = outer_packet[IPV4_HEADER_LEN:total_length]
    if len(payload) < ESP_HEADER_LEN + ESP_IV_LEN + ESP_ICV_LEN:
        return None
    return payload


def _strip_trailer(plaintext: bytes) -> Optional[bytes]:
    """The inner packet of a decrypted (inner | padding | padlen | next
    header) region, or None when the trailer is not a tunnelled IPv4's."""
    if len(plaintext) < 2:
        return None
    pad_len = plaintext[-2]
    next_header = plaintext[-1]
    if next_header != NEXT_HEADER_IPV4 or pad_len + 2 > len(plaintext):
        return None
    return plaintext[:len(plaintext) - 2 - pad_len]


def esp_decapsulate(
    sa: SecurityAssociation, outer_packet: bytes, check_replay: bool = True
) -> Tuple[Optional[bytes], str]:
    """Unwrap an ESP tunnel packet; returns (inner packet, status).

    ``status`` is "ok" or the reason for rejection ("bad-icv",
    "replay", "malformed", "bad-spi") — the counters an IPsec gateway
    reports.
    """
    payload = _esp_payload(outer_packet)
    if payload is None:
        return None, "malformed"
    spi, seq = struct.unpack_from(">II", payload)
    if spi != sa.spi:
        return None, "bad-spi"
    auth_region = payload[:-ESP_ICV_LEN]
    icv = payload[-ESP_ICV_LEN:]
    if not hmac.compare_digest(hmac_sha1_96(sa.auth_key, auth_region), icv):
        return None, "bad-icv"
    if check_replay and not sa.check_replay(seq):
        return None, "replay"
    iv = payload[ESP_HEADER_LEN:ESP_HEADER_LEN + ESP_IV_LEN]
    ciphertext = payload[ESP_HEADER_LEN + ESP_IV_LEN:-ESP_ICV_LEN]
    inner = _strip_trailer(aes_ctr_xor(sa.aes, sa.nonce, iv, ciphertext))
    if inner is None:
        return None, "malformed"
    return inner, "ok"


# ----------------------------------------------------------------------
# The chunk kernel.
# ----------------------------------------------------------------------


def esp_encapsulate_batch(
    sa: SecurityAssociation, inner_packets: Sequence[Optional[bytes]],
    ttl: int = 64,
) -> List[Optional[bytes]]:
    """``esp_encapsulate`` for a chunk: the same bytes, packet for packet.

    ``None`` entries (packets the gateway did not gather) stay ``None``
    and take no sequence number; the others are numbered in order.  The
    sequence range is reserved up front, so an exhausted SA raises
    ``OverflowError`` before any packet is built.
    """
    outers: List[Optional[bytes]] = [None] * len(inner_packets)
    live = [i for i, inner in enumerate(inner_packets) if inner is not None]
    if not live:
        return outers
    first_seq = sa.reserve_seqs(len(live))
    # ``iv_for_seq``: the IV is the ESP header's two words (SPI | seq) again.
    ivs = np.empty((len(live), 2), dtype=np.uint32)
    ivs[:, 0] = sa.spi & _MAX_SEQ
    ivs[:, 1] = first_seq + np.arange(len(live))
    heads = np.tile(ivs, 2).astype(">u4").tobytes()
    plaintexts = []
    for i in live:
        inner = inner_packets[i]
        plaintexts.append(inner + _TRAILERS[-(len(inner) + 2) % ESP_ALIGN])
    ciphertexts = aes_ctr_xor_lanes(sa.aes, sa.nonce, ivs, plaintexts)
    head_len = ESP_HEADER_LEN + ESP_IV_LEN
    auth_regions = [
        heads[head_len * lane:head_len * (lane + 1)] + ciphertext
        for lane, ciphertext in enumerate(ciphertexts)
    ]
    icvs = sa.lane_hmac.digests(auth_regions)[:, :ESP_ICV_LEN].tobytes()
    for lane, (i, auth_region) in enumerate(zip(live, auth_regions)):
        outer = IPv4Header(
            src=sa.tunnel_src,
            dst=sa.tunnel_dst,
            protocol=PROTO_ESP,
            ttl=ttl,
            total_length=IPV4_HEADER_LEN + len(auth_region) + ESP_ICV_LEN,
            identification=(first_seq + lane) & 0xFFFF,
        )
        outers[i] = (
            outer.pack() + auth_region
            + icvs[ESP_ICV_LEN * lane:ESP_ICV_LEN * (lane + 1)]
        )
    return outers


def esp_decapsulate_batch(
    sa: SecurityAssociation, outer_packets: Sequence[Optional[bytes]],
    check_replay: bool = True,
) -> List[Tuple[Optional[bytes], str]]:
    """``esp_decapsulate`` for a chunk: the same (inner, status) pairs.

    ``None`` entries come back as ``(None, "not-esp")``.  The order of
    the checks is the scalar one, a stage at a time: every ICV is
    verified in the lanes first; then the replay window sees the packets
    whose ICV held, in arrival order (so a forged packet never moves the
    window and a duplicate inside the chunk is "ok" then "replay"); then
    one CTR pass decrypts what is left.
    """
    results: List[Tuple[Optional[bytes], str]] = [
        (None, "not-esp")
    ] * len(outer_packets)
    lanes = []  # (index, sequence number, payload) of what reaches the ICV
    for i, outer_packet in enumerate(outer_packets):
        if outer_packet is None:
            continue
        payload = _esp_payload(outer_packet)
        if payload is None:
            results[i] = (None, "malformed")
            continue
        spi, seq = struct.unpack_from(">II", payload)
        if spi != sa.spi:
            results[i] = (None, "bad-spi")
            continue
        lanes.append((i, seq, payload))
    if not lanes:
        return results

    computed = sa.lane_hmac.digests(
        [memoryview(payload)[:-ESP_ICV_LEN] for _, _, payload in lanes]
    )[:, :ESP_ICV_LEN]
    carried = np.frombuffer(
        b"".join(payload[-ESP_ICV_LEN:] for _, _, payload in lanes),
        dtype=np.uint8,
    ).reshape(-1, ESP_ICV_LEN)
    # Full width, no early exit: the time does not depend on where a
    # forged ICV first differs.
    forged = (computed ^ carried).any(axis=1).tolist()

    accepted = []
    for (i, seq, payload), bad_icv in zip(lanes, forged):
        if bad_icv:
            results[i] = (None, "bad-icv")
        elif check_replay and not sa.check_replay(seq):
            results[i] = (None, "replay")
        else:
            accepted.append((i, payload))
    if not accepted:
        return results

    body = slice(ESP_HEADER_LEN + ESP_IV_LEN, -ESP_ICV_LEN)
    ivs = np.frombuffer(
        b"".join(payload[ESP_HEADER_LEN:body.start] for _, payload in accepted),
        dtype=">u4",
    ).reshape(-1, 2)
    plaintexts = aes_ctr_xor_lanes(
        sa.aes, sa.nonce, ivs,
        [memoryview(payload)[body] for _, payload in accepted],
    )
    for (i, _), plaintext in zip(accepted, plaintexts):
        inner = _strip_trailer(plaintext)
        if inner is None:
            results[i] = (None, "malformed")
        else:
            results[i] = (bytes(inner), "ok")
    return results
