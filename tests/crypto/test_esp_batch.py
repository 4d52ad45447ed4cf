"""The chunk ESP kernel against the packet-at-a-time reference.

``esp_encapsulate`` / ``esp_decapsulate`` are the oracle: same SA state in,
the batch must give the same bytes, the same statuses and the same SA
state out.
"""

import numpy as np
import pytest

from repro.crypto.aes import AES128, aes_ctr_xor, aes_ctr_xor_lanes
from repro.crypto.esp import (
    esp_decapsulate,
    esp_decapsulate_batch,
    esp_encapsulate,
    esp_encapsulate_batch,
)
from tests.crypto.test_esp import inner_packet, make_sa


def benchmark_mix(count: int) -> list:
    """The benchmark's traffic shape: three 64 B frames, then one 1514 B."""
    return [inner_packet(1514 if i % 4 == 3 else 64) for i in range(count)]


def scalar_decap(sa, outers, check_replay=True):
    return [
        (None, "not-esp") if outer is None
        else esp_decapsulate(sa, outer, check_replay=check_replay)
        for outer in outers
    ]


def rewrite(packet: bytes, offset: int, new: bytes) -> bytes:
    return packet[:offset] + new + packet[offset + len(new):]


class TestCtrLanes:
    def test_matches_scalar_per_packet(self):
        aes = AES128(bytes(range(16)))
        nonce = b"\x00\x00\x00\x30"
        packets = [bytes(range(n % 256)) * (n // 256 + 1) for n in
                   (0, 1, 15, 16, 17, 32, 100, 1504)]
        ivs = np.arange(2 * len(packets), dtype=np.uint32).reshape(-1, 2) * 77
        got = aes_ctr_xor_lanes(aes, nonce, ivs, packets)
        for packet, iv, out in zip(packets, ivs, got):
            assert bytes(out) == aes_ctr_xor(
                aes, nonce, iv.astype(">u4").tobytes(), packet
            )

    def test_no_packets(self):
        aes = AES128(bytes(16))
        assert aes_ctr_xor_lanes(
            aes, bytes(4), np.empty((0, 2), dtype=np.uint32), []
        ) == []


class TestEncapsulateBatch:
    @pytest.mark.parametrize("count", [1, 2, 85, 256])
    def test_byte_identical_to_scalar_with_holes(self, count):
        inners = benchmark_mix(count)
        if count > 2:
            inners[1] = inners[count // 2] = inners[-1] = None
        scalar_sa, batch_sa = make_sa(seq=41), make_sa(seq=41)
        expected = [
            None if inner is None else esp_encapsulate(scalar_sa, inner)
            for inner in inners
        ]
        assert esp_encapsulate_batch(batch_sa, inners) == expected
        assert batch_sa.seq == scalar_sa.seq

    def test_every_alignment_and_ttl(self):
        inners = [inner_packet(n) for n in range(64, 84)]
        scalar_sa, batch_sa = make_sa(), make_sa()
        assert esp_encapsulate_batch(batch_sa, inners, ttl=9) == [
            esp_encapsulate(scalar_sa, inner, ttl=9) for inner in inners
        ]

    def test_holes_take_no_sequence_number(self):
        sa = make_sa()
        assert esp_encapsulate_batch(sa, [None, None]) == [None, None]
        assert esp_encapsulate_batch(sa, []) == []
        assert sa.seq == 0
        esp_encapsulate_batch(sa, [None, inner_packet(), None, inner_packet()])
        assert sa.seq == 2

    def test_reservation_is_all_or_nothing(self):
        sa = make_sa(seq=0xFFFFFFFF - 2)
        with pytest.raises(OverflowError):
            esp_encapsulate_batch(sa, [inner_packet()] * 3)
        assert sa.seq == 0xFFFFFFFF - 2
        # Holes do not count against the range: two still fit.
        outers = esp_encapsulate_batch(sa, [inner_packet(), None, inner_packet()])
        assert [int.from_bytes(o[24:28], "big") for o in outers if o] == [
            0xFFFFFFFE, 0xFFFFFFFF
        ]
        with pytest.raises(OverflowError):
            sa.reserve_seqs(1)
        assert sa.seq == 0xFFFFFFFF


class TestDecapsulateBatch:
    def chunk(self):
        """Good packets around one of every way to fail, one ``None``."""
        tx = make_sa()
        outers = esp_encapsulate_batch(tx, benchmark_mix(16))
        stranger = esp_encapsulate(make_sa(spi=0x2002), inner_packet())
        outers[2] = rewrite(outers[2], 40, bytes([outers[2][40] ^ 1]))  # forged
        outers[4] = stranger
        outers[6] = outers[5]                       # seen a moment ago
        outers[7] = outers[5]                       # and again
        outers[9] = rewrite(outers[9], 2, (20).to_bytes(2, "big"))
        outers[10] = rewrite(outers[10], 0, b"\x46")            # IP options
        outers[11] = rewrite(outers[11], 0, b"\x65")            # version 6
        outers[12] = outers[12][:47]
        outers[13] = None
        return outers

    @pytest.mark.parametrize("check_replay", [True, False])
    def test_same_results_as_scalar(self, check_replay):
        outers = self.chunk()
        scalar_sa, batch_sa = make_sa(), make_sa()
        expected = scalar_decap(scalar_sa, outers, check_replay)
        got = esp_decapsulate_batch(batch_sa, outers, check_replay=check_replay)
        assert got == expected
        statuses = [status for _, status in got]
        assert statuses[:8] == [
            "ok", "ok", "bad-icv", "ok", "bad-spi", "ok",
            "replay" if check_replay else "ok",
            "replay" if check_replay else "ok",
        ]
        assert statuses[9:14] == ["malformed"] * 4 + ["not-esp"]
        # The replay window ended up in the same place.
        probe = esp_encapsulate(make_sa(seq=15), inner_packet())  # seq 16
        assert (esp_decapsulate(scalar_sa, probe)
                == esp_decapsulate_batch(batch_sa, [probe])[0])

    def test_forged_packet_does_not_move_the_window(self):
        tx, rx = make_sa(), make_sa()
        outers = esp_encapsulate_batch(tx, [inner_packet()] * 80)
        forged = rewrite(outers[79], 50, bytes([outers[79][50] ^ 0xFF]))
        # Seq 80 forged, then seq 1: had the forgery advanced the 64-wide
        # window, seq 1 would be too old.
        results = esp_decapsulate_batch(rx, [forged, outers[0]])
        assert [status for _, status in results] == ["bad-icv", "ok"]

    def test_wrong_cipher_key_garbles_the_same_way(self):
        tx = make_sa()
        rx = make_sa(encryption_key=bytes(16))   # auth key matches, AES not
        outers = esp_encapsulate_batch(tx, benchmark_mix(8))
        assert esp_decapsulate_batch(rx, outers) == scalar_decap(
            make_sa(encryption_key=bytes(16)), outers
        )

    def test_nothing_to_do(self):
        sa = make_sa()
        assert esp_decapsulate_batch(sa, []) == []
        assert esp_decapsulate_batch(sa, [None, bytes(30)]) == [
            (None, "not-esp"), (None, "malformed"),
        ]


class TestMalformedOuterPackets:
    """A crafted outer header used to raise out of ``esp_decapsulate``."""

    @pytest.mark.parametrize("offset,new", [
        (2, (20).to_bytes(2, "big")),     # total_length: no room for ESP
        (2, (47).to_bytes(2, "big")),
        (2, (0).to_bytes(2, "big")),
        (0, b"\x46"),                     # IHL 6
        (0, b"\x55"),                     # version 5
    ])
    def test_scalar_and_batch_report_malformed(self, offset, new):
        outer = rewrite(esp_encapsulate(make_sa(), inner_packet()), offset, new)
        assert esp_decapsulate(make_sa(), outer) == (None, "malformed")
        assert esp_decapsulate_batch(make_sa(), [outer]) == [(None, "malformed")]
