"""Multi-functional applications (paper Section 7, future work).

"PacketShader currently limits one GPU kernel function execution at a
time per device.  The multi-functionality support (e.g., IPv4 and IPsec
at the same time) in PacketShader enforces to implement all the
functions in a single GPU kernel.  NVIDIA has recently added native
support for concurrent execution of heterogeneous kernels into GTX480."

:class:`CompositeApplication` implements that future direction: a chain
of applications processed per chunk in order (e.g. an IPsec gateway that
first runs the IPv4 lookup, then encrypts what it forwards).  The
functional path threads each packet through every stage's verdict
logic; the cost model composes the stages' CPU cycles and GPU kernels,
either serialised (the paper's single-kernel limitation) or overlapped
(Fermi concurrent kernels).
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.core.application import GPUWorkItem, RouterApplication
from repro.core.chunk import Chunk
from repro.hw.gpu import KernelSpec


def _fused_marker(*_no_input) -> tuple:
    """Stands in for the fused kernel: marks the master's one launch;
    the stages' work happens in ``apply`` on the worker."""
    return ()


class CompositeApplication(RouterApplication):
    """A chain of applications applied in order to every chunk.

    Packets dropped or diverted by an earlier stage are not seen by
    later stages (their verdicts stand); packets forwarded by an earlier
    stage are re-offered to the next stage, which may overwrite the
    forwarding decision — e.g. a lookup stage picks the port and an
    IPsec stage re-targets the tunnel.

    ``concurrent_kernels=True`` models Fermi's concurrent kernel
    execution: the chained kernels' *launch overheads* are paid once
    rather than per stage (their execution work is still additive — the
    SMs are a shared resource).
    """

    name = "composite"

    def __init__(
        self,
        stages: Sequence[RouterApplication],
        concurrent_kernels: bool = False,
    ) -> None:
        if not stages:
            raise ValueError("a composite needs at least one stage")
        self.stages = list(stages)
        self.concurrent_kernels = concurrent_kernels
        self.name = self.kernel_name = "+".join(
            stage.name for stage in self.stages
        )
        self.costs_by_frame_len = any(
            stage.costs_by_frame_len for stage in self.stages
        )
        self.use_streams = any(stage.use_streams for stage in self.stages)
        overrides = [
            stage.gpu_displacement_override
            for stage in self.stages
            if stage.gpu_displacement_override is not None
        ]
        self.gpu_displacement_override = max(overrides) if overrides else None

    # ------------------------------------------------------------------
    # Functional path: the stages run inline, on the worker.
    # ------------------------------------------------------------------

    def gather(self, chunk: Chunk) -> tuple:
        """No device input: each stage gathers its own in :meth:`apply`."""
        return ()

    def kernel(self):
        return _fused_marker

    def pre_shade(self, chunk: Chunk) -> GPUWorkItem:
        """One work item for the chained kernels — the single-kernel
        reality the paper describes (everything fused into one launch).
        It carries no input, so it never shares a kernel call with a
        neighbour's, and one marker thread per packet."""
        work = self._work_item(chunk, ())
        work.threads = len(chunk)
        return work

    def apply(self, chunk: Chunk, outputs) -> None:
        """Chain the stages: each consumes the previous stage's
        forwarded packets."""
        for position, stage in enumerate(self.stages):
            if position > 0:
                chunk.reopen_forwarded()
            stage.cpu_process(chunk)

    # ------------------------------------------------------------------
    # Cost hooks: compositions of the stages'.
    # ------------------------------------------------------------------

    def cpu_cycles_per_packet(self, frame_len: int) -> float:
        return sum(s.cpu_cycles_per_packet(frame_len) for s in self.stages)

    def worker_cycles_per_packet(self, frame_len: int) -> float:
        return sum(s.worker_cycles_per_packet(frame_len) for s in self.stages)

    def kernel_cost(self, frame_len: int) -> Tuple[KernelSpec, float]:
        """The fused kernel: per-packet work of all stages combined.

        Thread counts differ per stage (1/packet for lookups, 1/block
        for AES), so costs are normalised to the largest stage's thread
        count and the rest folded in as extra per-thread cycles — the
        same issue-bound equivalence used by the IPsec kernel model.
        """
        costs = [s.kernel_cost(frame_len) for s in self.stages]
        threads = max(tpp for _, tpp in costs)
        compute = 0.0
        mem = 0.0
        stream = 0.0
        for spec, tpp in costs:
            scale = tpp / threads
            compute += spec.compute_cycles * scale
            mem += spec.mem_accesses * scale
            stream += spec.stream_bytes * scale
        spec = KernelSpec(
            name=self.kernel_name,
            compute_cycles=compute,
            mem_accesses=mem,
            stream_bytes=stream,
        )
        return spec, threads

    def gpu_bytes_per_packet(self, frame_len: int) -> Tuple[float, float]:
        """Transfers are not fused: each stage ships its own data unless
        kernels run concurrently, in which case shared packet payloads
        ride once (we charge the maximum of the stages plus the small
        per-stage metadata)."""
        totals_in, totals_out = zip(
            *(s.gpu_bytes_per_packet(frame_len) for s in self.stages)
        )
        if self.concurrent_kernels:
            return max(totals_in), max(totals_out)
        return sum(totals_in), sum(totals_out)
