"""Hardware models.

This subpackage is the substitute for the paper's 2010 testbed (dual Xeon
X5550, two GTX480s, four dual-port 82599 NICs on a dual-IOH board).  Each
model does two jobs:

* *functional*: the GPU executes real (Python/numpy) kernels over real
  data; the NIC maintains real TX descriptor rings; the cache
  model tracks real line states — so correctness is testable;
* *temporal*: every operation returns or accumulates modelled nanoseconds,
  with constants calibrated in :mod:`repro.calib.constants` against the
  paper's own measurements (Table 1, Table 3, Figures 2, 5, 6).
"""

from repro.hw.pcie import PCIeLink
from repro.hw.cpu import CPUCore, CPUSocket, memory_access_time
from repro.hw.cache import CacheModel, CacheStats
from repro.hw.gpu import GPUDevice, KernelSpec, LaunchResult
from repro.hw.nic import NICPort, TxQueue
from repro.hw.numa import IOHub, NUMANode, SystemTopology
from repro.hw.divergence import (
    divergence_report,
    divergent_execution_factor,
    sort_for_warps,
    warp_divergence_fraction,
)

__all__ = [
    "CPUCore",
    "divergence_report",
    "divergent_execution_factor",
    "sort_for_warps",
    "warp_divergence_fraction",
    "CPUSocket",
    "CacheModel",
    "CacheStats",
    "GPUDevice",
    "IOHub",
    "KernelSpec",
    "LaunchResult",
    "NICPort",
    "NUMANode",
    "PCIeLink",
    "SystemTopology",
    "TxQueue",
    "memory_access_time",
]
