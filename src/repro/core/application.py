"""The application interface: pre-shader, shader, post-shader callbacks.

"A packet processing application runs on top of the framework and is
mainly driven by three callback functions (a pre-shader, a shader, and a
post-shader)" (Section 5.1).  A concrete application in
:mod:`repro.apps` writes those three — ``gather``, ``kernel``,
``apply`` — plus the cost hooks :mod:`repro.core.solver` assembles into
the pipeline model behind the Figure 11 curves;
:class:`RouterApplication` derives everything the framework calls.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from repro.core.chunk import Chunk
from repro.hw.gpu import GPUDevice, KernelSpec


@dataclass
class GPUWorkItem:
    """One chunk's shading work: the kernel plus its transfer sizes.

    ``threads`` is the GPU thread count (one per packet for lookups; one
    per 16 B AES block for IPsec); with ``bytes_in``/``bytes_out`` it is
    what the modelled launch is charged for, always per chunk.  ``args``
    is either ``(per_item_sequence,)`` — the gathered input of a kernel
    that follows the contract on :class:`RouterApplication`, which the
    master step may concatenate with its neighbours' (:func:`fusable`) —
    or ``()`` for a kernel that takes no input and is never fused.
    """

    spec: KernelSpec
    threads: int
    bytes_in: int
    bytes_out: int
    args: tuple = ()

    def launch_on(self, device: GPUDevice):
        """Execute on a device; returns the LaunchResult (with output)."""
        return device.launch(
            self.spec, self.threads, self.bytes_in, self.bytes_out, self.args
        )

    def charge_on(self, device: GPUDevice):
        """The modelled launch alone: the LaunchResult without running
        the kernel body (the master step runs it once per gather)."""
        return device.charge(
            self.spec, self.threads, self.bytes_in, self.bytes_out
        )

    def __getstate__(self) -> dict:
        """Pickle for a process-boundary handoff (docs/SHARDING.md).

        Only the kernel's *description* and its gathered input arrays
        travel — the H2D copy the real router makes.  The callable is
        device-resident state (it closes over the application's tables),
        so it is stripped here and rebound on the master's side by
        :meth:`RouterApplication.bind_kernel`.
        """
        state = dict(self.__dict__)
        if self.spec.fn is not None:
            state["spec"] = replace(self.spec, fn=None)
        return state


def fusable(a: GPUWorkItem, b: GPUWorkItem) -> bool:
    """Whether two work items may share one kernel call.

    Same kernel name, the same bound callable (a method of the same
    table or application object — a FIB swap between two chunks keeps
    them apart), and each carrying one per-item argument.
    """
    return (
        len(a.args) == 1
        and len(b.args) == 1
        and a.spec.fn is not None
        and a.spec.name == b.spec.name
        and a.spec.fn == b.spec.fn
    )


def run_fused(works: Sequence[GPUWorkItem]) -> list:
    """Enter the kernel body once for a run of mutually fusable work
    items (each carrying its callable); returns each item's output,
    scattered by its offset.

    The per-item arguments are concatenated in order (``np.concatenate``
    for arrays, list concatenation otherwise), so by the kernel contract
    on :class:`RouterApplication` every item gets exactly what its own
    call would have produced.  A run of one is a plain ``fn(*args)``.
    """
    first = works[0]
    if len(works) == 1:
        return [first.spec.fn(*first.args)]
    parts = [work.args[0] for work in works]
    if isinstance(parts[0], np.ndarray):
        gathered = np.concatenate(parts)
    else:
        gathered = [item for part in parts for item in part]
    out = first.spec.fn(gathered)
    if len(out) != len(gathered):
        raise ValueError(
            f"kernel {first.spec.name!r} broke its contract: "
            f"{len(gathered)} items in, {len(out)} out"
        )
    outputs, start = [], 0
    for part in parts:
        outputs.append(out[start:start + len(part)])
        start += len(part)
    return outputs


class RouterApplication(abc.ABC):
    """Base class for PacketShader applications.

    An application writes :meth:`gather`, :meth:`kernel`, :meth:`apply`
    and the four cost hooks.  This class turns them into the worker's
    ``pre_shade`` / ``post_shade``, the CPU-only ``cpu_process`` (the
    same three, back to back on the host) and the master's
    ``bind_kernel``, and sizes the work item from the cost hooks — the
    modelled launch and the solver read one kernel name, one cycle
    count, one transfer size.

    **The kernel contract.**  The callable :meth:`kernel` returns
    (``spec.fn`` on the work item) takes one per-item sequence and
    returns one per-item sequence:

    * ``len(fn(a)) == len(a)`` — one result per gathered item, ``None``
      (or the kernel's own "not gathered" value) where the item is a
      hole;
    * ``fn(a ⧺ b) == fn(a) ⧺ fn(b)``, *side effects included and in
      order* — ESP sequence numbers are handed out in gather order, the
      anti-replay window sees packets in gather order.

    That is what lets the master run one kernel call for everything it
    gathered and scatter the result by chunk offsets (Section 5.4,
    :func:`run_fused`) with no per-application concatenation hook.  A
    kernel that takes no input (``args == ()``, the composite's marker)
    is outside the contract and is launched on its own.
    """

    #: Short name used in reports ("ipv4", "ipsec", ...).
    name: str = "app"
    #: The kernel's name: on the launch's spec and spans, and the key a
    #: stripped work item is rebound by on the master's side.
    kernel_name: str = "kernel"
    #: Whether the GPU-mode shading path uses CUDA streams (the paper
    #: enables concurrent copy & execution only for IPsec).
    use_streams: bool = False
    #: Override for the IOH displacement factor (how strongly this app's
    #: GPU DMA competes with NIC DMA).  None uses the calibrated default
    #: (small gathered arrays); payload-shipping applications displace
    #: NIC budget nearly byte-for-byte and set a higher value.
    gpu_displacement_override: float = None
    #: Whether ``kernel_cost`` / ``gpu_bytes_per_packet`` read
    #: ``frame_len``.  Lookup applications ship a fixed-size key per
    #: packet and ignore it, so their chunks skip the ``lengths.max()``.
    costs_by_frame_len: bool = False

    # ------------------------------------------------------------------
    # The three functions an application writes.
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def gather(self, chunk: Chunk) -> Optional[Sequence]:
        """Drop malformed packets, divert slow-path ones, mutate
        headers, stash in ``chunk.app_state`` whatever :meth:`apply`
        needs, and return the kernel's input: one item per packet, a
        hole where the packet is already settled — or None when no
        packet is left for the kernel (the chunk is then complete).
        """

    @abc.abstractmethod
    def kernel(self) -> Callable:
        """The device-resident kernel as it stands *now* (it closes over
        the application's tables; see the contract above)."""

    @abc.abstractmethod
    def apply(self, chunk: Chunk, outputs: Sequence) -> None:
        """Apply the kernel's per-item results — set verdicts/ports,
        rewrite or replace packets as the results dictate."""

    # ------------------------------------------------------------------
    # The skeleton: what the framework and the forked plane call.
    # ------------------------------------------------------------------

    def pre_shade(self, chunk: Chunk) -> Optional[GPUWorkItem]:
        """Worker step: :meth:`gather`, then the chunk's GPU work item —
        or None if nothing needs the GPU."""
        items = self.gather(chunk)
        # The gathered input rides in ``args`` — the H2D copy — so the
        # work item can cross a process boundary, callable stripped.
        return None if items is None else self._work_item(chunk, (items,))

    def _work_item(self, chunk: Chunk, args: tuple) -> GPUWorkItem:
        """The chunk's launch of the current kernel, sized by the hooks."""
        packets = len(chunk)
        frame_len = chunk.max_frame_len() if self.costs_by_frame_len else 0
        spec, threads_per_packet = self.kernel_cost(frame_len)
        bytes_in, bytes_out = self.gpu_bytes_per_packet(frame_len)
        return GPUWorkItem(
            spec=replace(spec, fn=self.kernel()),
            threads=max(1, int(packets * threads_per_packet)),
            bytes_in=int(bytes_in * packets),
            bytes_out=int(bytes_out * packets),
            args=args,
        )

    def post_shade(self, chunk: Chunk, gpu_output) -> None:
        """Worker step: :meth:`apply` the GPU results (None when
        pre-shading left no GPU work)."""
        if gpu_output is not None:
            self.apply(chunk, gpu_output)

    def cpu_process(self, chunk: Chunk) -> None:
        """CPU-only mode: the whole pipeline on the worker, no GPU."""
        items = self.gather(chunk)
        if items is not None:
            self.apply(chunk, self.kernel()(items))

    def kernel_fn(self, name: str) -> Optional[Callable]:
        """The device-resident implementation of a kernel, by name (None
        for a name that is not this application's).  The sharded plane's
        master rebinds stripped work items against *its* instance — the
        analogue of kernel code and lookup tables living in GPU memory
        rather than travelling with every chunk.
        """
        return self.kernel() if name == self.kernel_name else None

    def bind_kernel(self, work: GPUWorkItem) -> GPUWorkItem:
        """Master-side rehydration of a work item's stripped callable."""
        if work.spec.fn is None:
            fn = self.kernel_fn(work.spec.name)
            if fn is None:
                raise KeyError(
                    f"app {self.name!r} has no kernel {work.spec.name!r} "
                    f"to rebind"
                )
            work.spec = replace(work.spec, fn=fn)
        return work

    # ------------------------------------------------------------------
    # Cost hooks (consumed by repro.core.solver and the work item).
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def cpu_cycles_per_packet(self, frame_len: int) -> float:
        """Application CPU cycles per packet in CPU-only mode
        (excluding packet I/O, which the solver adds)."""

    @abc.abstractmethod
    def worker_cycles_per_packet(self, frame_len: int) -> float:
        """Worker-side application cycles per packet in CPU+GPU mode:
        the pre-/post-shading work that stays on the CPU."""

    @abc.abstractmethod
    def kernel_cost(self, frame_len: int) -> Tuple[KernelSpec, float]:
        """(kernel spec named ``kernel_name``, GPU threads per packet)."""

    @abc.abstractmethod
    def gpu_bytes_per_packet(self, frame_len: int) -> Tuple[float, float]:
        """(host-to-device, device-to-host) PCIe bytes per packet."""
