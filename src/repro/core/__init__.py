"""The PacketShader framework (paper Section 5).

The paper's architecture: a multithreaded user-mode program where
*worker* threads own packet I/O and the pre-/post-shading steps, and one
*master* thread per NUMA node owns the node's GPU, acting as the workers'
proxy (to avoid the CUDA multi-thread context-switch pathology).  Packets
move in *chunks*; processing is pre-shading (fetch, classify, build GPU
input) -> shading (h2d, kernel, d2h) -> post-shading (apply results,
split to ports).

Modules:

* :mod:`repro.core.config` — router configuration (CPU-only vs CPU+GPU
  thread layouts, chunk cap, optimization toggles);
* :mod:`repro.core.chunk` — the chunk: packets + per-packet metadata;
* :mod:`repro.core.queues` — the master's input queue (shared, FIFO for
  fairness) and per-worker output queues (1-to-1 to avoid cache bouncing);
* :mod:`repro.core.application` — the three-callback application
  interface (pre-shader, shader, post-shader) with its cost-model hooks;
* :mod:`repro.core.framework` — the router: functional packet flow
  through workers and masters, deterministic round-robin scheduling;
* :mod:`repro.core.solver` — assembles per-application pipeline models
  and produces the Figure 11 throughput/latency numbers.
"""

from repro.core.config import RouterConfig, ThreadRole
from repro.core.chunk import Chunk, Disposition
from repro.core.queues import MasterInputQueue, WorkerOutputQueue
from repro.core.application import RouterApplication, GPUWorkItem
from repro.core.framework import PacketShader, RouterStats
from repro.core.solver import (
    app_throughput_report,
    app_latency_ns,
    degraded_throughput_report,
)
from repro.core.composite import CompositeApplication
from repro.core.scaling import VLBCluster

__all__ = [
    "Chunk",
    "CompositeApplication",
    "VLBCluster",
    "Disposition",
    "GPUWorkItem",
    "MasterInputQueue",
    "PacketShader",
    "RouterApplication",
    "RouterConfig",
    "RouterStats",
    "ThreadRole",
    "WorkerOutputQueue",
    "app_latency_ns",
    "app_throughput_report",
    "degraded_throughput_report",
]
