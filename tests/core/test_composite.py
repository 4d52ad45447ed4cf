"""Multi-functional composite applications (the Section 7 extension)."""

import pytest

from repro.core.chunk import DROP_CODE, FORWARD_CODE, Chunk
from repro.core.composite import CompositeApplication
from repro.core.framework import PacketShader
from repro.apps.ipsec import IPsecGateway
from repro.apps.ipv4 import IPv4Forwarder
from repro.crypto.esp import SecurityAssociation, esp_decapsulate
from repro.gen.workloads import ipsec_workload
from repro.lookup.dir24_8 import Dir24_8
from repro.net.packet import build_udp_ipv4


def lookup_then_encrypt():
    table = Dir24_8()
    table.add_routes([(0x0A000000, 8, 3)])  # 10/8 -> port 3
    sa = ipsec_workload().sa
    return CompositeApplication([IPv4Forwarder(table), IPsecGateway(sa, out_port=7)]), sa


class TestFunctional:
    def test_chained_verdicts(self):
        """Routable packets get looked up, then tunnelled to the IPsec
        port; unroutable ones die at the first stage."""
        app, sa = lookup_then_encrypt()
        frames = [
            bytearray(build_udp_ipv4(1, 0x0A010101, 5, 6, frame_len=96)),
            bytearray(build_udp_ipv4(1, 0xC0000001, 5, 6, frame_len=96)),
        ]
        chunk = Chunk(frames=frames)
        app.cpu_process(chunk)
        assert chunk.dispositions[0] == FORWARD_CODE
        assert chunk.out_ports[0] == 7  # IPsec re-targeted it
        assert chunk.dispositions[1] == DROP_CODE

    def test_encrypted_output_decapsulates(self):
        app, sa = lookup_then_encrypt()
        inner_before = None
        frame = bytearray(build_udp_ipv4(1, 0x0A010101, 5, 6, frame_len=120))
        chunk = Chunk(frames=[frame])
        app.cpu_process(chunk)
        receiver = SecurityAssociation(
            spi=sa.spi, encryption_key=sa.encryption_key, nonce=sa.nonce,
            auth_key=sa.auth_key, tunnel_src=sa.tunnel_src,
            tunnel_dst=sa.tunnel_dst,
        )
        inner, status = esp_decapsulate(receiver, bytes(chunk.frames[0][14:]))
        assert status == "ok"
        # The recovered inner packet is the looked-up one: TTL already
        # decremented by the first stage.
        assert inner[8] == 63

    def test_runs_on_the_framework(self):
        app, _ = lookup_then_encrypt()
        router = PacketShader(app)
        frames = [
            bytearray(build_udp_ipv4(i, 0x0A000000 | i, 5, 6, frame_len=80))
            for i in range(1, 30)
        ]
        egress = router.process_frames(frames)
        assert router.stats.forwarded == 29
        assert list(egress) == [7]

    def test_empty_composite_rejected(self):
        with pytest.raises(ValueError):
            CompositeApplication([])


class TestCostComposition:
    def test_cpu_cycles_additive(self):
        app, _ = lookup_then_encrypt()
        total = app.cpu_cycles_per_packet(64)
        parts = [s.cpu_cycles_per_packet(64) for s in app.stages]
        assert total == pytest.approx(sum(parts))

    def test_kernel_threads_take_the_maximum(self):
        app, _ = lookup_then_encrypt()
        _, threads = app.kernel_cost(64)
        assert threads == max(
            s.kernel_cost(64)[1] for s in app.stages
        )

    def test_concurrent_kernels_reduce_transfers(self):
        stages = lookup_then_encrypt()[0].stages
        serial = CompositeApplication(stages, concurrent_kernels=False)
        concurrent = CompositeApplication(stages, concurrent_kernels=True)
        assert sum(concurrent.gpu_bytes_per_packet(1514)) < sum(
            serial.gpu_bytes_per_packet(1514)
        )

    def test_inherits_streams_and_displacement(self):
        app, _ = lookup_then_encrypt()
        assert app.use_streams  # from the IPsec stage
        assert app.gpu_displacement_override == 0.50

    def test_composite_throughput_below_single_stage(self):
        from repro import app_throughput_report

        app, _ = lookup_then_encrypt()
        composite = app_throughput_report(app, 64, use_gpu=True).gbps
        ipsec_only = app_throughput_report(app.stages[1], 64, use_gpu=True).gbps
        assert composite < ipsec_only

    def test_name_composed(self):
        app, _ = lookup_then_encrypt()
        assert app.name == "ipv4+ipsec"
