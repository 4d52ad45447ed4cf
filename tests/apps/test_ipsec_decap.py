"""The IPsec decapsulation gateway: the tunnel's receiving end."""

import pytest

from repro.apps.ipsec import IPsecDecapGateway, IPsecGateway
from repro.core.chunk import DROP_CODE, FORWARD_CODE, SLOW_PATH_CODE, Chunk
from repro.core.framework import PacketShader
from repro.crypto.esp import SecurityAssociation, esp_decapsulate
from repro.gen.workloads import ipsec_workload
from repro.net.packet import build_udp_ipv4, build_udp_ipv6


def chunk_of(frames):
    return Chunk(frames=[bytearray(f) for f in frames])


def tunnel_pair():
    tx_sa = ipsec_workload().sa
    rx_sa = SecurityAssociation(
        spi=tx_sa.spi, encryption_key=tx_sa.encryption_key,
        nonce=tx_sa.nonce, auth_key=tx_sa.auth_key,
        tunnel_src=tx_sa.tunnel_src, tunnel_dst=tx_sa.tunnel_dst,
    )
    return IPsecGateway(tx_sa, out_port=0), IPsecDecapGateway(rx_sa, out_port=5)


class TestDataPath:
    def test_full_tunnel_roundtrip(self):
        encap, decap = tunnel_pair()
        frames = [build_udp_ipv4(i + 1, i + 2, 3, 4, frame_len=100)
                  for i in range(6)]
        originals = [bytes(f) for f in frames]
        tunnel = chunk_of(frames)
        encap.cpu_process(tunnel)
        clear = chunk_of(tunnel.frames)
        decap.cpu_process(clear)
        assert (clear.dispositions == FORWARD_CODE).all()
        assert (clear.out_ports == 5).all()
        assert [bytes(f) for f in clear.frames] == originals

    def test_tampered_packet_dropped_as_bad_icv(self):
        encap, decap = tunnel_pair()
        tunnel = chunk_of([build_udp_ipv4(1, 2, 3, 4, frame_len=100)])
        encap.cpu_process(tunnel)
        tunnel.frames[0][60] ^= 1
        clear = chunk_of(tunnel.frames)
        decap.cpu_process(clear)
        assert clear.dispositions[0] == DROP_CODE
        assert decap.drop_reasons["bad-icv"] == 1

    def test_replay_dropped(self):
        encap, decap = tunnel_pair()
        tunnel = chunk_of([build_udp_ipv4(1, 2, 3, 4, frame_len=100)])
        encap.cpu_process(tunnel)
        first = chunk_of(tunnel.frames)
        decap.cpu_process(first)
        replayed = chunk_of(tunnel.frames)
        decap.cpu_process(replayed)
        assert replayed.dispositions[0] == DROP_CODE
        assert decap.drop_reasons["replay"] == 1

    def test_non_esp_traffic_to_slow_path(self):
        _, decap = tunnel_pair()
        chunk = chunk_of([
            build_udp_ipv4(1, 2, 3, 4),   # plain UDP, not ESP
            build_udp_ipv6(1, 2, 3, 4),
        ])
        decap.cpu_process(chunk)
        assert (chunk.dispositions == SLOW_PATH_CODE).all()

    def test_gpu_and_cpu_paths_agree(self):
        encap_a, decap_a = tunnel_pair()
        encap_b, decap_b = tunnel_pair()
        frames = [build_udp_ipv4(i + 1, 9, 3, 4, frame_len=90) for i in range(5)]
        tunnel_a = chunk_of(frames)
        encap_a.cpu_process(tunnel_a)
        tunnel_b = chunk_of(frames)
        encap_b.cpu_process(tunnel_b)

        cpu_clear = chunk_of(tunnel_a.frames)
        decap_a.cpu_process(cpu_clear)
        gpu_clear = chunk_of(tunnel_b.frames)
        work = decap_b.pre_shade(gpu_clear)
        decap_b.post_shade(gpu_clear, work.spec.fn(*work.args))
        assert [bytes(f) for f in cpu_clear.frames] == [
            bytes(f) for f in gpu_clear.frames
        ]

    def tunnelled(self, count):
        encap, decap = tunnel_pair()
        tunnel = chunk_of([
            build_udp_ipv4(i + 1, 9, 3, 4, frame_len=1514 if i % 4 == 3 else 64)
            for i in range(count)
        ])
        encap.cpu_process(tunnel)
        return list(tunnel.frames), decap

    def test_crafted_frame_is_dropped_not_raised(self):
        """An outer ``total_length`` with no room for ESP used to raise
        ``struct.error`` out of ``process_frames`` and lose the chunk."""
        frames, decap = self.tunnelled(12)
        frames[5][16:18] = (20).to_bytes(2, "big")
        router = PacketShader(decap)
        egress = router.process_frames([bytearray(f) for f in frames])
        assert decap.drop_reasons == {
            "bad-icv": 0, "replay": 0, "malformed": 1, "bad-spi": 0,
        }
        stats = router.stats
        assert (stats.forwarded, stats.dropped, stats.slow_path) == (11, 1, 0)
        assert stats.received == stats.forwarded + stats.dropped + stats.slow_path
        assert sum(len(f) for f in egress.values()) == 11

    @pytest.mark.parametrize("first_byte", [0x46, 0x55])
    def test_bad_outer_version_or_options_dropped(self, first_byte):
        frames, decap = self.tunnelled(3)
        frames[1][14] = first_byte
        clear = chunk_of(frames)
        decap.cpu_process(clear)
        assert clear.dispositions.tolist() == [
            FORWARD_CODE, DROP_CODE, FORWARD_CODE,
        ]
        assert decap.drop_reasons["malformed"] == 1

    def test_drop_reasons_match_the_scalar_reference(self):
        frames, decap = self.tunnelled(24)
        stranger_encap = IPsecGateway(SecurityAssociation(
            spi=0x7777, encryption_key=bytes(16), nonce=bytes(4),
            auth_key=b"other", tunnel_src=1, tunnel_dst=2,
        ))
        stranger = chunk_of([build_udp_ipv4(1, 2, 3, 4)])
        stranger_encap.cpu_process(stranger)
        frames[3][60] ^= 1                            # forged
        frames[6] = stranger.frames[0]                # someone else's SPI
        frames[10] = bytearray(frames[9])             # replayed
        frames[11] = bytearray(frames[9])             # twice
        frames[15][16:18] = (20).to_bytes(2, "big")   # malformed
        frames[18] = build_udp_ipv6(1, 2, 3, 4)       # not gathered

        reference_sa = tunnel_pair()[1].sa
        expected = dict.fromkeys(decap.drop_reasons, 0)
        expected_verdicts = []
        for frame in frames:
            if len(frame) < 34 or frame[12:14] != b"\x08\x00" or frame[23] != 50:
                expected_verdicts.append(SLOW_PATH_CODE)
                continue
            _, status = esp_decapsulate(reference_sa, bytes(frame[14:]))
            if status == "ok":
                expected_verdicts.append(FORWARD_CODE)
            else:
                expected_verdicts.append(DROP_CODE)
                expected[status] += 1

        clear = chunk_of(frames)
        decap.cpu_process(clear)
        assert decap.drop_reasons == expected == {
            "bad-icv": 1, "replay": 2, "malformed": 1, "bad-spi": 1,
        }
        assert clear.dispositions.tolist() == expected_verdicts

    def test_two_routers_back_to_back(self):
        """Encap router -> decap router, through the framework."""
        encap, decap = tunnel_pair()
        tx_router = PacketShader(encap)
        rx_router = PacketShader(decap)
        frames = [build_udp_ipv4(i + 1, 99, 3, 4, frame_len=128)
                  for i in range(20)]
        originals = sorted(bytes(f) for f in frames)
        tunnel_out = tx_router.process_frames([bytearray(f) for f in frames])
        clear_out = rx_router.process_frames(
            [bytearray(f) for f in tunnel_out[0]]
        )
        assert rx_router.stats.forwarded == 20
        assert sorted(bytes(f) for f in clear_out[5]) == originals


class TestCostHooks:
    def test_mirrors_encap_costs(self):
        encap, decap = tunnel_pair()
        assert decap.cpu_cycles_per_packet(256) == encap.cpu_cycles_per_packet(256)
        assert decap.worker_cycles_per_packet(256) == pytest.approx(
            encap.worker_cycles_per_packet(256)
        )

    def test_transfers_swap_direction(self):
        encap, decap = tunnel_pair()
        e_in, e_out = encap.gpu_bytes_per_packet(256)
        d_in, d_out = decap.gpu_bytes_per_packet(256)
        assert (d_in, d_out) == (e_out, e_in)

    def test_throughput_comparable_to_encap(self):
        from repro import app_throughput_report

        encap, decap = tunnel_pair()
        e = app_throughput_report(encap, 256, use_gpu=True).gbps
        d = app_throughput_report(decap, 256, use_gpu=True).gbps
        assert d == pytest.approx(e, rel=0.10)
