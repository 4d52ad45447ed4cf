"""Router configuration: thread layout, chunk policy, optimizations.

Encodes the two evaluated modes (Section 6.1): CPU-only runs eight worker
threads (no shading step, so no masters); CPU+GPU runs three workers plus
one master per quad-core node, every thread hard-affinitized to its core.
The optimization toggles correspond to Sections 4.5 and 5.4; the
capacity and latency models read them, so a test or figure can turn
each one off.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.calib.constants import FRAMEWORK, SYSTEM, SystemSpec


class ThreadRole(enum.Enum):
    WORKER = "worker"
    MASTER = "master"


@dataclass(frozen=True)
class RouterConfig:
    """One router deployment's knobs."""

    #: Use the GPUs (CPU+GPU mode) or run everything on workers (CPU-only).
    use_gpu: bool = True
    #: Maximum packets per chunk (Section 5.3: capped, never waited for).
    chunk_capacity: int = FRAMEWORK.chunk_capacity
    #: Section 5.4 optimizations.
    gather_scatter: bool = True
    #: Concurrent copy and execution (streams); the paper enables it only
    #: for IPsec ("using multiple streams significantly degrades the
    #: performance of lightweight kernels").
    concurrent_copy: bool = False
    #: Maximum chunks gathered per GPU launch when gather_scatter is on.
    max_gather_chunks: int = FRAMEWORK.max_gather_chunks
    #: NUMA-aware data placement and RSS steering (Section 4.5).
    numa_aware: bool = True
    system: SystemSpec = field(default_factory=lambda: SYSTEM)

    def __post_init__(self) -> None:
        if self.chunk_capacity < 1:
            raise ValueError("chunk_capacity must be >= 1")
        if self.max_gather_chunks < 1:
            raise ValueError("max_gather_chunks must be >= 1")

    @property
    def workers_per_node(self) -> int:
        """Worker threads per node: 3 in GPU mode, 4 in CPU-only mode."""
        if self.use_gpu:
            return self.system.workers_per_node_gpu_mode
        return self.system.workers_per_node_cpu_mode

    @property
    def masters_per_node(self) -> int:
        return self.system.masters_per_node if self.use_gpu else 0

    @property
    def total_workers(self) -> int:
        return self.workers_per_node * self.system.num_nodes

    @property
    def total_masters(self) -> int:
        return self.masters_per_node * self.system.num_nodes

    def core_assignment(self) -> List[Tuple[int, int, ThreadRole]]:
        """(node, core, role) for every thread — the hard affinity map.

        Each thread maps one-to-one onto a core (Section 5.1); masters
        take the last core of their node's socket.
        """
        assignment = []
        cores_per_node = self.workers_per_node + self.masters_per_node
        for node in range(self.system.num_nodes):
            for core in range(self.workers_per_node):
                assignment.append((node, core, ThreadRole.WORKER))
            for core in range(self.workers_per_node, cores_per_node):
                assignment.append((node, core, ThreadRole.MASTER))
        return assignment

    def effective_gather_chunks(self) -> int:
        """Chunks per GPU launch given the gather/scatter setting."""
        return self.max_gather_chunks if self.gather_scatter else 1
