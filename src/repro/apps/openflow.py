"""The OpenFlow switch application (paper Section 6.2.3).

Division of labour, exactly as the paper describes: "we offload hash
value calculation and the wildcard matching to GPU, while leaving others
in CPU for load distribution".  The pre-shader extracts ten-field keys;
the GPU kernel computes the key hashes and scans the wildcard table; the
post-shader does the exact-match probe with the precomputed hash, picks
exact-over-wildcard, applies actions, and queues misses for the
controller.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.calib.constants import APPS, GPU_KERNELS
from repro.core.application import RouterApplication
from repro.core.chunk import Chunk
from repro.hw.gpu import KernelSpec
from repro.openflow.actions import PORT_CONTROLLER, apply_actions
from repro.openflow.flowkey import FlowKey, extract_flow_key
from repro.openflow.flowtable import WildcardEntry, fnv1a_hash
from repro.openflow.switch import OpenFlowSwitch


class OpenFlowApp(RouterApplication):
    """An OpenFlow 0.8.9 switch on the PacketShader framework."""

    name = "openflow"
    kernel_name = "openflow_hash_wildcard"

    def __init__(self, switch: OpenFlowSwitch) -> None:
        self.switch = switch

    def _gpu_classify(
        self, keys: List[Optional[FlowKey]]
    ) -> List[Optional[Tuple[int, Optional[WildcardEntry]]]]:
        """The GPU kernel body: per-key hash + wildcard linear search.

        Both halves are data-parallel over packets, which is why the
        paper offloads exactly these.  Returns (hash, wildcard entry or
        None) per key.
        """
        results: List[Optional[Tuple[int, Optional[WildcardEntry]]]] = []
        for key in keys:
            if key is None:
                results.append(None)
                continue
            key_hash = fnv1a_hash(key.pack())
            entry, _ = self.switch.wildcard.lookup(key)
            results.append((key_hash, entry))
        return results

    def kernel(self):
        return self._gpu_classify

    def gather(self, chunk: Chunk) -> Optional[List[Optional[FlowKey]]]:
        """Pre-shading: the ten-field keys, also stashed for ``apply``."""
        batch = chunk.batch()
        parseable = batch.long_enough(14)
        chunk.set_drop(~parseable)
        keys: List[Optional[FlowKey]] = [None] * len(chunk)
        frames = chunk.frames
        in_port = chunk.in_port
        # The ten-field parse builds a FlowKey object per packet; only
        # the length screen above is batch-level.
        for index in np.flatnonzero(parseable).tolist():
            keys[index] = extract_flow_key(bytes(frames[index]), in_port)
        if not chunk.pending_mask().any():
            return None
        chunk.app_state = keys
        return keys

    def apply(self, chunk: Chunk, classifications) -> None:
        """Post-shading: exact probe, precedence, actions."""
        keys = chunk.app_state
        for index in chunk.pending_indices():
            key = keys[index]
            result = classifications[index]
            if key is None or result is None:
                chunk.set_drop(index)
                continue
            key_hash, wildcard_entry = result
            frame = chunk.frames[index]
            actions, _ = self.switch.exact.lookup(
                key, key_hash, frame_len=len(frame)
            )
            if actions is not None:
                self.switch.counters.exact_hits += 1
            elif wildcard_entry is not None:
                self.switch.counters.wildcard_hits += 1
                wildcard_entry.stats.count(len(frame))
                actions = wildcard_entry.actions
            else:
                self.switch.counters.misses += 1
                self.switch.controller_queue.append((key, bytes(frame)))
                chunk.set_slow_path(index)
                continue
            _, outputs = apply_actions(frame, actions)
            if outputs and outputs[0] != PORT_CONTROLLER:
                chunk.set_forward(index, outputs[0])
            elif outputs:
                self.switch.controller_queue.append((key, bytes(frame)))
                chunk.set_slow_path(index)
            else:
                chunk.set_drop(index)

    # ------------------------------------------------------------------
    # Cost hooks.
    # ------------------------------------------------------------------

    def cpu_cycles_per_packet(self, frame_len: int) -> float:
        return (
            APPS.of_extract_cycles
            + APPS.of_hash_cycles
            + APPS.of_exact_probe_cpu_cycles
            + len(self.switch.wildcard) * APPS.of_wildcard_entry_cycles
            + APPS.of_action_cycles
        )

    def worker_cycles_per_packet(self, frame_len: int) -> float:
        return (
            APPS.of_extract_cycles
            + APPS.of_exact_probe_gpu_mode_cycles
            + APPS.of_action_cycles
        )

    def kernel_cost(self, frame_len: int) -> Tuple[KernelSpec, float]:
        spec = KernelSpec(
            name=self.kernel_name,
            compute_cycles=(
                GPU_KERNELS.of_compute_cycles
                + len(self.switch.wildcard)
                * GPU_KERNELS.of_wildcard_entry_cycles
            ),
            mem_accesses=GPU_KERNELS.of_mem_accesses,
        )
        return spec, 1.0

    def gpu_bytes_per_packet(self, frame_len: int) -> Tuple[float, float]:
        return 31.0, 8.0
