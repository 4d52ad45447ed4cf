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

from typing import Optional, Sequence, Tuple

from repro.core.application import GPUWorkItem, RouterApplication
from repro.core.chunk import Chunk
from repro.hw.gpu import KernelSpec


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
        self.name = "+".join(stage.name for stage in self.stages)
        self.use_streams = any(stage.use_streams for stage in self.stages)
        overrides = [
            stage.gpu_displacement_override
            for stage in self.stages
            if stage.gpu_displacement_override is not None
        ]
        self.gpu_displacement_override = max(overrides) if overrides else None

    # ------------------------------------------------------------------
    # Functional path.
    # ------------------------------------------------------------------

    def pre_shade(self, chunk: Chunk) -> Optional[GPUWorkItem]:
        """Composite shading runs each stage's full pipeline inline.

        The master still sees a single work item whose ``fn`` performs
        the chained kernels — matching the single-kernel reality the
        paper describes (everything fused into one launch).
        """
        stages = self.stages

        def fused_kernel() -> None:
            # Work happens in post_shade via cpu-process chaining; the
            # fused kernel is the marker for the master's launch.
            return None

        spec, _ = self.kernel_cost(chunk.max_frame_len())
        spec = KernelSpec(
            name=spec.name,
            compute_cycles=spec.compute_cycles,
            mem_accesses=spec.mem_accesses,
            stream_bytes=spec.stream_bytes,
            fn=fused_kernel,
        )
        bytes_in, bytes_out = self.gpu_bytes_per_packet(chunk.max_frame_len())
        return GPUWorkItem(
            spec=spec,
            threads=len(chunk),
            bytes_in=int(bytes_in * len(chunk)),
            bytes_out=int(bytes_out * len(chunk)),
        )

    def post_shade(self, chunk: Chunk, gpu_output) -> None:
        self.cpu_process(chunk)

    def cpu_process(self, chunk: Chunk) -> None:
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
            name=self.name,
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
        totals_in = [s.gpu_bytes_per_packet(frame_len)[0] for s in self.stages]
        totals_out = [s.gpu_bytes_per_packet(frame_len)[1] for s in self.stages]
        if self.concurrent_kernels:
            return max(totals_in), max(totals_out)
        return sum(totals_in), sum(totals_out)
