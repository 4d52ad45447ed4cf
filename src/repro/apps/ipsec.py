"""The IPsec gateway application (paper Section 6.2.4).

ESP tunnel mode with AES-128-CTR and HMAC-SHA1.  The GPU kernel performs
the ciphering at two granularities, as the paper describes: AES at the
finest level ("we chop packets into AES blocks (16B) and map each block
to one GPU thread") and SHA-1 at the packet level (its block chain is
serial).  The kernel body here has the same shape and takes a whole
chunk: ``esp_encapsulate_batch`` / ``esp_decapsulate_batch`` run one
AES-CTR pass over every block of every gathered packet and HMAC-SHA1 in
lockstep lanes, a lane per packet (docs/PERF.md, "IPsec kernel").  The
CPU-only mode runs the same functions on the host.

Throughput accounting uses *input* bytes, as the paper does ("we take
input throughput as a metric rather than output throughput" since ESP
grows packets).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.calib.constants import APPS, GPU_KERNELS
from repro.core.application import RouterApplication
from repro.core.chunk import Chunk
from repro.crypto.esp import (
    PROTO_ESP,
    SecurityAssociation,
    esp_decapsulate_batch,
    esp_encapsulate_batch,
)
from repro.crypto.sha1 import sha1_block_count
from repro.hw.gpu import KernelSpec
from repro.net.ethernet import ETHERNET_HEADER_LEN, ETHERTYPE_IPV4


class ESPApplication(RouterApplication):
    """One end of an ESP tunnel: what the two directions share.

    Both ship whole L3 packets to the kernel, put its result back behind
    the original Ethernet header, and push the same bytes through AES-CTR
    and HMAC-SHA1: the gather, the frame swap and the cost hooks live
    here; the kernel, the choice of packets and the verdicts do not.
    """

    #: The paper selectively enables concurrent copy & execution (CUDA
    #: streams) for IPsec, the one payload-heavy application.
    use_streams = True
    #: Whole payloads stream over PCIe in both directions; such bulk DMA
    #: displaces NIC DMA on the shared IOH nearly byte-for-byte, unlike
    #: the small gathered address arrays of the lookup applications.
    #: Fitted to Figure 11(d): 20 Gbps input at 1514 B.
    gpu_displacement_override = 0.50
    costs_by_frame_len = True
    #: Why a kernel result drops its packet: the ``drop_reasons`` keys.
    REASONS: tuple = ()

    def __init__(self, sa: SecurityAssociation, out_port: int = 0) -> None:
        self.sa = sa
        self.out_port = out_port
        self.drop_reasons = dict.fromkeys(self.REASONS, 0)

    def _eligible(self, batch) -> np.ndarray:
        """Mask of the packets this end of the tunnel handles."""
        return batch.long_enough(34) & (batch.ethertypes() == ETHERTYPE_IPV4)

    def gather(self, chunk: Chunk) -> Optional[List[Optional[bytes]]]:
        eligible = self._eligible(chunk.batch())
        chunk.set_slow_path(~eligible)
        if not chunk.pending_mask().any():
            return None
        packets: List[Optional[bytes]] = [None] * len(chunk)
        frames = chunk.frames
        # Payload extraction stays per selected packet: each L3 packet
        # becomes an independently-owned buffer for the cipher.
        for index in np.flatnonzero(eligible).tolist():
            packets[index] = bytes(frames[index][ETHERNET_HEADER_LEN:])
        return packets

    @staticmethod
    def _swap_payload(chunk: Chunk, index: int, packet: bytes) -> None:
        """Replace frame ``index`` by its Ethernet header + ``packet``."""
        eth = bytes(chunk.frames[index][:ETHERNET_HEADER_LEN])
        chunk.replace_frame(index, eth + packet)

    # ------------------------------------------------------------------
    # Cost hooks: the same bytes flow through the cipher either way.
    # ------------------------------------------------------------------

    @staticmethod
    def _crypto_bytes(frame_len: int) -> int:
        """Bytes AES-CTR covers: the inner IP packet plus ESP expansion."""
        inner = max(frame_len - ETHERNET_HEADER_LEN, 20)
        return inner + APPS.esp_expansion_bytes

    def _auth_bytes(self, frame_len: int) -> int:
        """Bytes HMAC covers: ESP header + IV + ciphertext."""
        return self._crypto_bytes(frame_len) + 16

    def cpu_cycles_per_packet(self, frame_len: int) -> float:
        crypto = self._crypto_bytes(frame_len)
        auth = self._auth_bytes(frame_len) + APPS.hmac_extra_bytes
        return (
            APPS.esp_fixed_cycles
            + crypto * APPS.aes_sse_cycles_per_byte
            + auth * APPS.sha1_cycles_per_byte
        )

    def worker_cycles_per_packet(self, frame_len: int) -> float:
        # Staging the payload to/from the GPU buffers plus ESP assembly.
        copies = 2.0 * self._crypto_bytes(frame_len) * APPS.copy_cycles_per_byte
        return APPS.ipsec_gpu_worker_fixed_cycles + copies

    def kernel_cost(self, frame_len: int) -> Tuple[KernelSpec, float]:
        blocks = math.ceil(self._crypto_bytes(frame_len) / 16)
        sha_blocks = sha1_block_count(self._auth_bytes(frame_len)) + 2
        # One thread per AES block; the packet-level SHA-1 cost is folded
        # in per block (both kernels are issue-bound, so per-SM cycles
        # scale identically whether folded or launched separately).
        compute = (
            GPU_KERNELS.aes_block_cycles
            + (sha_blocks * GPU_KERNELS.sha1_block_cycles
               + GPU_KERNELS.ipsec_fixed_cycles) / blocks
        )
        spec = KernelSpec(
            name=self.kernel_name,
            compute_cycles=compute,
            stream_bytes=32.0,  # each block thread streams 16 B in + out
        )
        return spec, float(blocks)

    def gpu_bytes_per_packet(self, frame_len: int) -> Tuple[float, float]:
        crypto = self._crypto_bytes(frame_len)
        # Plaintext side: payload + keys/IV/metadata; ciphertext side:
        # ciphertext + ICV.  Plaintext goes in when encapsulating.
        return crypto + 52.0, crypto + 12.0


class IPsecGateway(ESPApplication):
    """An ESP tunnel gateway: every IPv4 packet is encrypted outbound."""

    name = "ipsec"
    kernel_name = "ipsec_aes_sha1"
    REASONS = ("seq-exhausted",)

    def _encrypt_batch(self, inners: List[Optional[bytes]]) -> List[Optional[bytes]]:
        """The GPU kernel body: ESP-encapsulate everything the master
        gathered (``None`` where a packet was not gathered).

        An SA whose sequence space cannot cover the call stops sending
        (RFC 4303 section 3.3.3): the kernel reserves all or nothing, so
        every gathered packet comes back ``None`` — dropped by
        :meth:`apply`, counted under ``seq-exhausted`` — and ``sa.seq``
        stays where it was until the SA is rekeyed.
        """
        try:
            return esp_encapsulate_batch(self.sa, inners)
        except OverflowError:
            self.drop_reasons["seq-exhausted"] += sum(
                inner is not None for inner in inners
            )
            return [None] * len(inners)

    def kernel(self):
        return self._encrypt_batch

    def apply(self, chunk: Chunk, outers: List[Optional[bytes]]) -> None:
        pending = chunk.pending_mask()
        sealed = pending & np.array(
            [outer is not None for outer in outers], dtype=bool
        )
        chunk.set_drop(pending & ~sealed)
        for index in np.flatnonzero(sealed).tolist():
            self._swap_payload(chunk, index, outers[index])
        chunk.set_forward(sealed, self.out_port)


class IPsecDecapGateway(ESPApplication):
    """The receiving end of the tunnel: authenticate, decrypt, forward.

    The paper evaluates the encryption direction; a deployed gateway
    needs both.  Decapsulation shares the cipher cost structure (the
    same bytes flow through AES-CTR and HMAC); the verdicts differ —
    failed ICVs and replays are *drops*, counted per reason like a real
    SAD would.
    """

    name = "ipsec-decap"
    kernel_name = "ipsec_decap_aes_sha1"
    REASONS = ("bad-icv", "replay", "malformed", "bad-spi")

    def __init__(self, sa: SecurityAssociation, out_port: int = 0,
                 check_replay: bool = True) -> None:
        super().__init__(sa, out_port)
        self.check_replay = check_replay

    def _decrypt_batch(self, outers: List[Optional[bytes]]):
        """The GPU kernel body: one (inner, status) per packet of the
        chunk, ``(None, "not-esp")`` where a packet was not gathered."""
        return esp_decapsulate_batch(
            self.sa, outers, check_replay=self.check_replay
        )

    def kernel(self):
        return self._decrypt_batch

    def _eligible(self, batch) -> np.ndarray:
        return super()._eligible(batch) & (
            batch.byte_at(ETHERNET_HEADER_LEN + 9) == PROTO_ESP
        )

    def apply(self, chunk: Chunk, results) -> None:
        pending = chunk.pending_mask()
        opened = np.zeros(len(chunk), dtype=bool)
        for index in np.flatnonzero(pending).tolist():
            inner, status = results[index]
            if status == "ok" and inner is not None:
                self._swap_payload(chunk, index, inner)
                opened[index] = True
            elif status in self.drop_reasons:
                self.drop_reasons[status] += 1
        chunk.set_drop(pending & ~opened)
        chunk.set_forward(opened, self.out_port)

    def gpu_bytes_per_packet(self, frame_len: int) -> Tuple[float, float]:
        plain, cipher = super().gpu_bytes_per_packet(frame_len)
        return cipher, plain  # the payload flows the other way
