"""The IPsec gateway application."""


from repro.apps.ipsec import IPsecGateway
from repro.core.chunk import FORWARD_CODE, SLOW_PATH_CODE, Chunk
from repro.crypto.esp import (
    SecurityAssociation,
    esp_decapsulate,
    esp_encapsulate,
)
from repro.gen.workloads import ipsec_workload
from repro.net.packet import build_udp_ipv4, build_udp_ipv6


def chunk_of(frames):
    return Chunk(frames=[bytearray(f) for f in frames])


def rx_sa(sa):
    return SecurityAssociation(
        spi=sa.spi, encryption_key=sa.encryption_key, nonce=sa.nonce,
        auth_key=sa.auth_key, tunnel_src=sa.tunnel_src, tunnel_dst=sa.tunnel_dst,
    )


class TestDataPath:
    def test_packets_encapsulated_and_forwarded(self):
        workload = ipsec_workload()
        app = IPsecGateway(workload.sa, out_port=1)
        frames = [build_udp_ipv4(1, 2, 3, 4, frame_len=100) for _ in range(4)]
        originals = [bytes(f[14:]) for f in frames]
        chunk = chunk_of(frames)
        app.cpu_process(chunk)
        assert (chunk.dispositions == FORWARD_CODE).all()
        assert (chunk.out_ports == 1).all()
        receiver = rx_sa(workload.sa)
        for frame, original in zip(chunk.frames, originals):
            inner, status = esp_decapsulate(receiver, bytes(frame[14:]))
            assert status == "ok"
            assert inner == original

    def test_frames_grow_by_esp_overhead(self):
        workload = ipsec_workload()
        app = IPsecGateway(workload.sa)
        frame = build_udp_ipv4(1, 2, 3, 4, frame_len=100)
        chunk = chunk_of([frame])
        app.cpu_process(chunk)
        assert len(chunk.frames[0]) > 100 + 40

    def test_non_ipv4_to_slow_path(self):
        app = IPsecGateway(ipsec_workload().sa)
        chunk = chunk_of([build_udp_ipv6(1, 2, 3, 4)])
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == SLOW_PATH_CODE

    def test_gpu_and_cpu_paths_agree(self):
        """Same keys and sequence window produce identical ciphertext."""
        tx1 = ipsec_workload().sa
        tx2 = ipsec_workload().sa
        frames = [build_udp_ipv4(i, i + 1, 3, 4, frame_len=90) for i in range(6)]
        # ... and the benchmark's burst shape: three 64 B, one 1514 B,
        # with a frame the gateway does not gather in the middle.
        frames += [
            build_udp_ipv4(i, i + 1, 3, 4, frame_len=1514 if i % 4 == 3 else 64)
            for i in range(40)
        ]
        frames.insert(20, build_udp_ipv6(1, 2, 3, 4))
        cpu_chunk = chunk_of(frames)
        IPsecGateway(tx1).cpu_process(cpu_chunk)
        gpu_chunk = chunk_of(frames)
        app = IPsecGateway(tx2)
        work = app.pre_shade(gpu_chunk)
        app.post_shade(gpu_chunk, work.spec.fn(*work.args))
        assert [bytes(f) for f in cpu_chunk.frames] == [
            bytes(f) for f in gpu_chunk.frames
        ]
        assert tx1.seq == tx2.seq == 46
        # Both are the chunk kernel; the packet-at-a-time reference must
        # have produced the same frames from the same SA state.
        reference = ipsec_workload().sa
        for sent, tunnelled in zip(frames, gpu_chunk.frames):
            if len(sent) != len(tunnelled):
                assert bytes(tunnelled[14:]) == esp_encapsulate(
                    reference, bytes(sent[14:])
                )

    def test_sequence_numbers_unique_across_chunks(self):
        workload = ipsec_workload()
        app = IPsecGateway(workload.sa)
        for _ in range(3):
            chunk = chunk_of([build_udp_ipv4(1, 2, 3, 4) for _ in range(5)])
            app.cpu_process(chunk)
        assert workload.sa.seq == 15

    def test_exhausted_sa_stops_sending_and_the_gateway_keeps_running(self):
        """RFC 4303 section 3.3.3: with too few sequence numbers left for
        what the master gathered, nothing is sent on the SA, nothing is
        consumed, and the burst is dropped and counted — not raised out
        of ``process_frames``."""
        from repro.core.framework import PacketShader

        sa = ipsec_workload().sa
        sa.seq = 2**32 - 101  # 100 numbers left, 256 packets offered
        app = IPsecGateway(sa)
        router = PacketShader(app)
        egress = router.process_frames([
            bytearray(build_udp_ipv4(
                i + 1, i + 2, 3, 4, frame_len=1514 if i % 4 == 3 else 64
            ))
            for i in range(256)
        ])
        stats = router.stats
        assert egress == {}
        assert stats.received == 256
        assert (stats.forwarded, stats.dropped, stats.slow_path) == (0, 256, 0)
        assert sa.seq == 2**32 - 101
        assert app.drop_reasons["seq-exhausted"] == 256
        # The next, smaller burst fits and goes out.
        egress = router.process_frames(
            [bytearray(build_udp_ipv4(i + 1, i + 2, 3, 4)) for i in range(100)]
        )
        assert sum(len(frames) for frames in egress.values()) == 100
        assert sa.seq == 2**32 - 1


class TestCostHooks:
    def test_cpu_cost_scales_with_frame_size(self):
        app = IPsecGateway(ipsec_workload().sa)
        assert app.cpu_cycles_per_packet(1514) > 8 * app.cpu_cycles_per_packet(64)

    def test_worker_cost_scales_with_frame_size(self):
        app = IPsecGateway(ipsec_workload().sa)
        assert app.worker_cycles_per_packet(1514) > app.worker_cycles_per_packet(64)

    def test_uses_streams(self):
        # The paper enables concurrent copy & execution for IPsec only.
        assert IPsecGateway(ipsec_workload().sa).use_streams
        from repro.apps.ipv4 import IPv4Forwarder

        assert not IPv4Forwarder.use_streams

    def test_kernel_thread_per_block(self):
        app = IPsecGateway(ipsec_workload().sa)
        _, threads_per_packet = app.kernel_cost(64)
        # 64B frame -> inner 50B + 38B expansion = 88B -> 6 AES blocks.
        assert threads_per_packet == 6.0

    def test_gpu_ships_payload_both_ways(self):
        app = IPsecGateway(ipsec_workload().sa)
        bytes_in, bytes_out = app.gpu_bytes_per_packet(1514)
        assert bytes_in > 1500 and bytes_out > 1500
