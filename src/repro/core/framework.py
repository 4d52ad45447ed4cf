"""The PacketShader router: workers, masters, and the chunk workflow.

A functional, deterministic implementation of Figure 9's collaboration:
worker threads pre-shade chunks and enqueue them on their node's master
input queue; the master gathers queued chunks (gather/scatter,
Section 5.4), launches the GPU work, and scatters results to the
per-worker output queues; workers post-shade and split packets to their
destination ports.

Threads are cooperative objects stepped by the framework in round-robin
order (not OS threads): the paper's threads are hard-affinitized and
communicate only through these queues, so a deterministic interleaving
preserves all the observable behaviour while keeping tests reproducible.
Every packet is a real frame; every application callback does its real
work.  Timing lives in :mod:`repro.core.solver`, not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.calib.constants import CPU, FRAMEWORK
from repro.core.application import RouterApplication, fusable, run_fused
from repro.core.chunk import Chunk
from repro.core.config import RouterConfig
from repro.core.overload import OverloadController
from repro.core.queues import MasterInputQueue, WorkerOutputQueue
from repro.faults.errors import DMAError, GPULaunchError
from repro.faults.plan import FaultInjector
from repro.faults.recovery import CircuitBreaker, RetryPolicy, Watchdog
from repro.hw.gpu import GPUDevice
from repro.core.slowpath import SlowPathHandler
from repro.io_engine.rss import ShardMap
from repro.net.frames import Frames, pack_frames
from repro.obs import (
    BATCH_SIZE_BUCKETS,
    Events,
    Stages,
    get_flightrec,
    get_profiler,
    get_registry,
    get_tracer,
    names,
)

#: The egress map while chunks are still finishing: per port, one packed
#: piece per chunk (:func:`_merged` joins them when the call returns).
_Pieces = Dict[int, List[Frames]]


def _merged(pieces: _Pieces) -> Dict[int, Frames]:
    return {port: Frames.concat(parts) for port, parts in pieces.items()}


@dataclass
class RouterStats:
    """End-to-end packet accounting.

    The conservation invariant ``received == forwarded + dropped +
    slow_path`` holds under every fault scenario; ``backpressure_drops``
    attributes the subset of ``dropped`` shed by bounded backpressure
    (it is an attribution counter, not a fourth verdict — those packets
    are already counted in ``dropped`` exactly once).
    """

    received: int = 0
    forwarded: int = 0
    dropped: int = 0
    slow_path: int = 0
    chunks: int = 0
    gpu_launches: int = 0
    #: Real entries into a kernel body by the master step: one per run
    #: of gathered chunks that share a kernel, however many modelled
    #: launches (``gpu_launches``) those chunks were charged.
    kernel_calls: int = 0
    gathered_chunks: int = 0
    #: Failed launches retried (transient faults absorbed by backoff).
    gpu_retries: int = 0
    #: Launches that failed past their retry budget.
    gpu_failures: int = 0
    #: Chunks processed on the CPU although GPU mode was configured
    #: (master-side fallback or breaker-open CPU-only rerouting).
    degraded_chunks: int = 0
    #: Packets shed when the master input queue stayed wedged (a subset
    #: of ``dropped``).
    backpressure_drops: int = 0

    @property
    def accounted(self) -> int:
        return self.forwarded + self.dropped + self.slow_path


@dataclass
class _Worker:
    worker_id: int
    node: int
    output_queue: WorkerOutputQueue
    #: Chunks pre-shaded and awaiting shading results (chunk pipelining:
    #: the worker moves on to the next chunk instead of blocking).
    in_flight: int = 0


@dataclass
class _Node:
    node_id: int
    workers: List[_Worker]
    input_queue: MasterInputQueue
    gpu: Optional[GPUDevice]
    #: RSS steering onto this node's workers only (the NUMA-aware
    #: indirection of Section 4.5): flows stick to one worker, which is
    #: what preserves intra-flow order end to end (Section 5.3).
    shard_map: ShardMap


class PacketShader:
    """The router framework, parameterised by an application."""

    #: How many drain-and-retry rounds a worker attempts before shedding
    #: a chunk that the master input queue keeps refusing.  In the
    #: healthy design the first drain empties the queue, so only a
    #: wedged master (fault injection, breaker churn) ever gets past
    #: round one — the bound turns a potential livelock into an
    #: accounted drop.
    MAX_BACKPRESSURE_RETRIES = 8

    def __init__(
        self,
        app: RouterApplication,
        config: Optional[RouterConfig] = None,
        slow_path: Optional[SlowPathHandler] = None,
        fault_injector: Optional[FaultInjector] = None,
        retry_policy: Optional[RetryPolicy] = None,
        overload: Optional[OverloadController] = None,
        transport=None,
    ) -> None:
        self.app = app
        self.config = config or RouterConfig()
        #: Optional remote shading transport (docs/SHARDING.md): when a
        #: :class:`~repro.core.queues.RemoteMasterClient` is installed,
        #: pre-shaded chunks go to a master in another OS process
        #: instead of this router's in-process master loop; shaded
        #: results come back through :meth:`flush_transport` /
        #: the drain step of :meth:`process_chunks`.
        self.transport = transport
        #: Optional overload controller: when present it owns the chunk
        #: capacity (SLO-aware adaptive sizing) and consumes per-chunk
        #: latency observations and queue-rejection signals.
        self.overload = overload
        #: Diverted packets go here ("passes them onto Linux TCP/IP
        #: stack", Section 6.2.1); its ICMP responses leave through the
        #: ingress port, back toward the source.
        self.slow_path = slow_path
        self.fault_injector = fault_injector
        self.retry_policy = retry_policy or RetryPolicy()
        self.stats = RouterStats()
        #: Span tracing of the chunk lifecycle (per-stage modelled costs).
        self.tracer = get_tracer()
        #: Flight recorder (structured event ring) and wall-clock stage
        #: profiler — the second-generation observability pair.  Handles
        #: are resolved once here, like the registry instruments below.
        self.flightrec = get_flightrec()
        self.profiler = get_profiler()
        # Registry mirrors of RouterStats: same increment sites, so the
        # conservation invariant holds for both views.
        registry = get_registry()
        self._m_received = registry.counter(
            names.ROUTER_RECEIVED_PACKETS, help="packets entering the workflow"
        )
        self._m_forwarded = registry.counter(
            names.ROUTER_FORWARDED_PACKETS, help="packets with a FORWARD verdict"
        )
        self._m_dropped = registry.counter(
            names.ROUTER_DROPPED_PACKETS, help="packets with a DROP verdict"
        )
        self._m_slow_path = registry.counter(
            names.ROUTER_SLOW_PATH_PACKETS,
            help="packets diverted to the slow path",
        )
        self._m_chunks = registry.counter(
            names.ROUTER_CHUNKS, help="chunks completing the workflow"
        )
        self._m_gpu_launches = registry.counter(
            names.ROUTER_GPU_LAUNCHES, help="GPU kernel launches by masters"
        )
        self._m_kernel_calls = registry.counter(
            names.ROUTER_KERNEL_CALLS,
            help="real kernel-body entries by masters (one per fused gather)",
        )
        self._m_gathered = registry.counter(
            names.ROUTER_GATHERED_CHUNKS, help="chunks gathered by masters"
        )
        self._h_chunk_size = registry.histogram(
            names.ROUTER_CHUNK_SIZE, buckets=BATCH_SIZE_BUCKETS,
            help="packets per chunk entering the workflow",
        )
        self._m_gpu_retries = registry.counter(
            names.ROUTER_GPU_RETRIES, help="GPU launches retried after a failure"
        )
        self._m_gpu_failures = registry.counter(
            names.ROUTER_GPU_FAILURES,
            help="GPU launches failed past the retry budget",
        )
        self._m_degraded_chunks = registry.counter(
            names.ROUTER_DEGRADED_CHUNKS,
            help="chunks shaded on the CPU although GPU mode was configured",
        )
        self._m_backpressure_drops = registry.counter(
            names.ROUTER_BACKPRESSURE_DROPS,
            help="packets shed after bounded backpressure gave up",
        )
        self.nodes: List[_Node] = []
        worker_id = 0
        for node_id in range(self.config.system.num_nodes):
            workers = []
            for _ in range(self.config.workers_per_node):
                workers.append(
                    _Worker(
                        worker_id=worker_id,
                        node=node_id,
                        output_queue=WorkerOutputQueue(worker_id),
                    )
                )
                worker_id += 1
            self.nodes.append(
                _Node(
                    node_id=node_id,
                    workers=workers,
                    input_queue=MasterInputQueue(fault_injector=fault_injector),
                    gpu=GPUDevice(
                        device_id=node_id, node=node_id,
                        fault_injector=fault_injector,
                    )
                    if self.config.use_gpu
                    else None,
                    shard_map=ShardMap(len(workers)),
                )
            )
        # Recovery machinery: one breaker per GPU device gates its node's
        # shading path; a single watchdog notices when chunk completion
        # stops making progress.
        self.breakers: Dict[int, CircuitBreaker] = {
            n.node_id: CircuitBreaker(device_id=n.node_id) for n in self.nodes
        }
        self.watchdog = Watchdog()

    # ------------------------------------------------------------------
    # Ingress.
    # ------------------------------------------------------------------

    def effective_chunk_capacity(self) -> int:
        """The chunk cap in force: adaptive when overload control is on."""
        if self.overload is not None:
            return self.overload.chunk_capacity
        return self.config.chunk_capacity

    def node_of_port(self, port: int) -> int:
        """Which NUMA node hosts a NIC port (ports split evenly)."""
        ports_per_node = self.config.system.total_ports // self.config.system.num_nodes
        node = port // ports_per_node
        if not 0 <= node < len(self.nodes):
            raise ValueError(f"port {port} out of range")
        return node

    def _chunks_from(self, frames: List[bytearray], in_port: int) -> List[Chunk]:
        """Distribute ingress frames to workers by RSS, then chunk.

        Each worker's share is split into capped chunks; per-worker
        arrival order is preserved (the RX queue is a FIFO).
        """
        node = self.nodes[self.node_of_port(in_port)]
        shares = node.shard_map.partition(frames)
        chunks = []
        cap = self.effective_chunk_capacity()
        # Chunks built here (process_frames, no I/O engine) anchor
        # their trace context at the recorder's current seq: the most
        # recent event in flight when the batch entered the router.
        ctx = (self.flightrec.writer_id, self.flightrec.seq)
        for worker, share in zip(node.workers, shares):
            for start in range(0, len(share), cap):
                chunk = Chunk(
                    frames=share[start:start + cap],
                    worker_id=worker.worker_id,
                    in_port=in_port,
                )
                chunk.trace_ctx = ctx
                chunks.append(chunk)
        return chunks

    # ------------------------------------------------------------------
    # The three-step workflow.
    # ------------------------------------------------------------------

    def _shade_node(self, node: _Node) -> None:
        """Run the node's master: gather, launch, scatter (Section 5.4).

        Gathers up to ``effective_gather_chunks()`` chunks off the input
        queue, hands the whole gather to :meth:`shade_batch` — the one
        master step — and scatters each chunk to its worker's output
        queue in arrival order.
        """
        gather = self.config.effective_gather_chunks()
        while len(node.input_queue):
            chunks = node.input_queue.get_batch(gather)
            self.stats.gathered_chunks += len(chunks)
            self._m_gathered.inc(len(chunks))
            self.tracer.record(
                Stages.GATHER,
                packets=sum(len(c) for c in chunks),
                cycles=FRAMEWORK.queue_handoff_cycles * len(chunks),
            )
            self.shade_batch(chunks, node)
            for chunk in chunks:
                worker = node.workers[
                    chunk.worker_id - node.workers[0].worker_id
                ]
                worker.output_queue.put(chunk)
                self.tracer.record(
                    Stages.SCATTER,
                    packets=len(chunk),
                    cycles=FRAMEWORK.queue_handoff_cycles,
                )

    def shade_batch(
        self, chunks: List[Chunk], node: Optional[_Node] = None
    ) -> List[bool]:
        """The master step for everything gathered: charge each chunk's
        modelled launch, enter the kernel body once, scatter the result
        by chunk offsets (Section 5.4 gather/scatter).

        The one launch site of both masters: :meth:`_shade_node` calls
        it in process, the forked plane's master process calls it on its
        own router (docs/SHARDING.md).  Two clocks meet here and stay
        apart:

        * the *simulated* charge is per chunk, in chunk order
          (:meth:`_charge_chunk`: fault sites, retry -> breaker -> CPU
          ladder, ``gpu_launches``, ``service_ns``, one GPU span each) —
          exactly what a master that launched chunk by chunk would be
          charged;
        * the *real* computation runs once per run of consecutive
          chunks carrying the same kernel (:func:`fusable`), whichever
          way each chunk was charged: a chunk that fell back to the CPU
          gets its slice of the same call, never a second run (a second
          ESP pass would consume sequence numbers twice).

        A chunk whose pre-shading left no GPU work gets ``gpu_output =
        None``.  Returns, per chunk, whether its launch was charged to
        the device.
        """
        node = node or self.nodes[0]
        on_device = [self._charge_chunk(chunk, node) for chunk in chunks]
        run: List[Chunk] = []  # the chunks sharing the next kernel call
        run_on_device = False
        for chunk, charged in zip(chunks, on_device):
            work = chunk.gpu_input
            if work is None:
                # Runs no kernel, so it cannot reorder one: the run
                # carries on across it.
                chunk.gpu_output = None
                continue
            if run and not fusable(run[-1].gpu_input, work):
                self._run_kernel(run, run_on_device)
                run, run_on_device = [], False
            run.append(chunk)
            run_on_device |= charged
        if run:
            self._run_kernel(run, run_on_device)
        return on_device

    def _run_kernel(self, run: List[Chunk], on_device: bool) -> None:
        """One real kernel-body entry for a run of fusable chunks, on
        the device's wall-clock stage unless every one of them fell back
        to the CPU."""
        works = [chunk.gpu_input for chunk in run]
        if works[0].spec.fn is None:
            # A cost-only work item (always a run of one): nothing to run.
            run[0].gpu_output = None
            return
        stage = Stages.GPU if on_device else Stages.GPU_FALLBACK
        with self.profiler.track(stage):
            outputs = run_fused(works)
        self.stats.kernel_calls += 1
        self._m_kernel_calls.inc()
        for chunk, output in zip(run, outputs):
            chunk.gpu_output = output

    def _charge_chunk(self, chunk: Chunk, node: _Node) -> bool:
        """Charge one gathered chunk's modelled launch, absorbing faults
        (the degradation ladder: retry with backoff -> breaker -> CPU).

        Transient launch failures are retried up to the policy's budget
        with exponential backoff (charged as modelled wait time).  A
        launch that fails past the budget counts against the node's
        circuit breaker and the chunk is charged as shaded on the
        master's CPU instead — the already pre-shaded work cannot be
        re-classified (TTLs are already decremented), so the fallback is
        the kernel function itself on the host.  True when the device
        took the launch; the kernel body is :meth:`shade_batch`'s.
        """
        work = chunk.gpu_input
        if work is None:
            return False
        breaker = self.breakers[node.node_id]
        if breaker.is_open:
            # The breaker opened while this chunk sat in the input queue:
            # don't even try the device.
            self._charge_cpu_fallback(chunk)
            return False
        policy = self.retry_policy
        for attempt in range(policy.max_retries + 1):
            try:
                result = work.charge_on(node.gpu)
                break
            except (GPULaunchError, DMAError):
                if attempt < policy.max_retries:
                    self.stats.gpu_retries += 1
                    self._m_gpu_retries.inc()
                    self.flightrec.note(
                        Events.GPU_RETRY, str(node.node_id), attempt + 1
                    )
                    # The backoff wait is real (modelled) time on the
                    # shading path.
                    wait_ns = policy.backoff_ns(attempt + 1, salt=node.node_id)
                    chunk.service_ns += wait_ns
                    self.tracer.record(
                        Stages.GPU,
                        packets=0,
                        ns=wait_ns,
                        retry=attempt + 1,
                    )
                    continue
                self.stats.gpu_failures += 1
                self._m_gpu_failures.inc()
                breaker.record_failure()
                self._charge_cpu_fallback(chunk)
                return False
        breaker.record_success()
        self.stats.gpu_launches += 1
        self._m_gpu_launches.inc()
        chunk.service_ns += result.total_ns
        self.tracer.record(
            Stages.GPU,
            packets=len(chunk),
            ns=result.total_ns,
            kernel=result.kernel,
        )
        return True

    def _charge_cpu_fallback(self, chunk: Chunk) -> None:
        """Charge a chunk whose GPU path failed as shaded on the
        master's CPU.

        The output is bit-identical (the kernels are the same Python
        callables the device model executes).  The extra CPU cost
        relative to the worker-side shading already charged is the
        CPU-only application cost minus the worker-side share.
        """
        self.stats.degraded_chunks += 1
        self._m_degraded_chunks.inc()
        self.flightrec.note(Events.GPU_FALLBACK, "", len(chunk))
        frame_len = self._frame_len(chunk)
        extra = max(
            0.0,
            self.app.cpu_cycles_per_packet(frame_len)
            - self.app.worker_cycles_per_packet(frame_len),
        )
        chunk.service_ns += extra * len(chunk) * CPU.cycle_ns
        self.tracer.record(
            Stages.GPU_FALLBACK, packets=len(chunk), cycles=extra * len(chunk)
        )

    @property
    def degraded_mode(self) -> bool:
        """True while any node's breaker keeps its GPU out of service."""
        return any(b.is_open for b in self.breakers.values())

    def _finish_chunk(self, chunk: Chunk, egress: _Pieces) -> None:
        """Account verdicts and split forwarded frames to ports.

        All three tallies and the egress/slow-path splits come from the
        chunk's disposition column: one ``bincount`` and two mask passes
        instead of four per-packet walks.
        """
        # Egress frames outlive the chunk: split_by_port() gathers each
        # port's into a store of its own (RL009), one piece per chunk.
        for port, piece in chunk.split_by_port().items():
            egress.setdefault(port, []).append(piece)
        forwarded, dropped, slow = chunk.disposition_counts()
        self.stats.forwarded += forwarded
        self.stats.dropped += dropped
        self.stats.slow_path += slow
        self.stats.chunks += 1
        self._m_forwarded.inc(forwarded)
        self._m_dropped.inc(dropped)
        self._m_slow_path.inc(slow)
        self._m_chunks.inc()
        ctx = chunk.trace_ctx or (self.flightrec.writer_id, 0)
        self.flightrec.note(
            Events.CHUNK, "", len(chunk), forwarded, dropped, slow,
            ctx[0], ctx[1],
        )
        self.watchdog.note_progress()
        if self.overload is not None:
            self.overload.observe_chunk(
                len(chunk), chunk.service_ns, chunk.enqueue_depth
            )
        if self.slow_path is not None:
            frames = chunk.frames
            diverted = [bytes(frames[i]) for i in chunk.slow_path_indices()]
            if diverted:
                self.tracer.record(Stages.SLOW_PATH, packets=len(diverted))
            for response in self.slow_path.handle_batch(diverted):
                # ICMP responses head back toward the source: out the
                # ingress port, framed with the original source MAC.
                reply_frame = bytearray(14 + len(response))
                reply_frame[12:14] = (0x0800).to_bytes(2, "big")
                reply_frame[14:] = response
                egress.setdefault(chunk.in_port, []).append(
                    Frames(*pack_frames([reply_frame]))
                )

    def process_frames(
        self, frames: List[bytearray], in_port: int = 0
    ) -> Dict[int, Frames]:
        """Run a burst of ingress frames through the full workflow.

        Returns the egress map ``port -> frames`` (each port's frames
        packed in one owned store, in FIFO order).  In CPU+GPU mode the
        chunks flow worker -> master -> worker exactly as in Figure 9; in
        CPU-only mode workers do everything.
        """
        node = self.nodes[self.node_of_port(in_port)]
        chunks = self._chunks_from(frames, in_port)
        return self.process_chunks(chunks, node)

    def process_chunks(
        self, chunks: List[Chunk], node: Optional[_Node] = None
    ) -> Dict[int, Frames]:
        """Run pre-built chunks through the workflow on one node.

        The entry point for callers that already did the RX side (the
        functional testbed fetches chunks through the packet I/O engine
        and hands them here); ``process_frames`` is the convenience
        wrapper that builds the chunks itself.
        """
        node = node or self.nodes[0]
        egress: _Pieces = {}
        for chunk in chunks:
            self.stats.received += len(chunk)
            self._m_received.inc(len(chunk))
            self._h_chunk_size.observe(len(chunk))
            if not self.config.use_gpu:
                self._cpu_process_chunk(chunk, egress, degraded=False)
                continue
            if not self.breakers[node.node_id].allow():
                # Breaker open: the node runs the paper's CPU-only path
                # (Figure 11's CPU-only rows) until a probe closes it.
                # Workers do the whole pipeline, so throughput degrades
                # to the CPU baseline instead of collapsing behind a
                # dead device.
                self._cpu_process_chunk(chunk, egress, degraded=True)
                continue
            with self.profiler.track(Stages.PRE_SHADE):
                chunk.gpu_input = self.app.pre_shade(chunk)
            pre_cycles = self._worker_stage_cycles(
                chunk, FRAMEWORK.pre_shading_cycles
            )
            chunk.service_ns += pre_cycles * CPU.cycle_ns
            self.tracer.record(
                Stages.PRE_SHADE, packets=len(chunk), cycles=pre_cycles
            )
            if self.transport is not None:
                # Remote master: the submit may hand back already-shaded
                # chunks while waiting for in-flight headroom — the
                # cross-process equivalent of the backpressure drain.
                chunk.enqueue_depth = self.transport.in_flight
                for shaded in self.transport.submit(chunk):
                    self._post_shade_chunk(shaded, egress)
                    self.transport.recycle(shaded)
                continue
            chunk.enqueue_depth = len(node.input_queue)
            for _ in range(self.MAX_BACKPRESSURE_RETRIES):
                if node.input_queue.put(chunk):
                    break
                # Backpressure: drain the master before retrying.
                if self.overload is not None:
                    self.overload.note_reject()
                self.watchdog.note_stall()
                self._shade_node(node)
                self._drain_outputs(node, egress)
                chunk.enqueue_depth = len(node.input_queue)
            else:
                # The queue stayed wedged across every retry round:
                # shed the chunk with explicit accounting rather than
                # spin forever.
                self._shed_chunk(chunk, egress)
        if self.config.use_gpu:
            if self.transport is not None:
                # Pick up whatever the remote master has scattered so
                # far (chunk pipelining: never block mid-burst).
                for shaded in self.transport.drain(block=False):
                    self._post_shade_chunk(shaded, egress)
                    self.transport.recycle(shaded)
            else:
                self._shade_node(node)
                self._drain_outputs(node, egress)
        return _merged(egress)

    def flush_transport(self) -> Dict[int, Frames]:
        """Block until every in-flight remote chunk is post-shaded;
        returns their egress map.

        The end-of-run barrier of the sharded plane: after the last
        burst a worker drains its private result queue to zero before
        reporting totals, so the conservation identities close.
        """
        egress: _Pieces = {}
        if self.transport is not None:
            for shaded in self.transport.drain(block=True):
                self._post_shade_chunk(shaded, egress)
                self.transport.recycle(shaded)
        return _merged(egress)

    def _cpu_process_chunk(self, chunk: Chunk, egress: _Pieces, degraded: bool) -> None:
        """Run one chunk through the CPU-only pipeline and finish it."""
        with self.profiler.track(Stages.CPU_PROCESS):
            self.app.cpu_process(chunk)
        if degraded:
            self.stats.degraded_chunks += 1
            self._m_degraded_chunks.inc()
        cpu_cycles = self.app.cpu_cycles_per_packet(
            self._frame_len(chunk)
        ) * len(chunk)
        chunk.service_ns += cpu_cycles * CPU.cycle_ns
        self.tracer.record(
            Stages.CPU_PROCESS,
            packets=len(chunk),
            cycles=cpu_cycles,
            degraded=degraded,
        )
        self._finish_chunk(chunk, egress)

    def _shed_chunk(self, chunk: Chunk, egress: _Pieces) -> None:
        """Drop a chunk's still-pending packets under sustained backpressure.

        Pre-shading already settled some verdicts (drops, slow-path
        diversions) — those stand; only the PENDING packets that needed
        the wedged shading path are shed.  Accounting flows through
        ``_finish_chunk`` so the conservation invariant counts each
        packet exactly once; ``backpressure_drops`` attributes the shed
        subset.
        """
        pending = chunk.pending_mask()
        shed = int(pending.sum())
        chunk.set_drop(pending)
        self.stats.backpressure_drops += shed
        self._m_backpressure_drops.inc(shed)
        self.flightrec.note(Events.SHED, "", shed)
        chunk.gpu_input = None
        self._finish_chunk(chunk, egress)

    def _post_shade_chunk(self, chunk: Chunk, egress: _Pieces) -> None:
        """One shaded chunk's worker-side completion: post-shade + finish."""
        with self.profiler.track(Stages.POST_SHADE):
            self.app.post_shade(chunk, chunk.gpu_output)
        post_cycles = self._worker_stage_cycles(
            chunk, FRAMEWORK.post_shading_cycles
        )
        chunk.service_ns += post_cycles * CPU.cycle_ns
        self.tracer.record(
            Stages.POST_SHADE, packets=len(chunk), cycles=post_cycles
        )
        self._finish_chunk(chunk, egress)

    def _drain_outputs(self, node: _Node, egress: _Pieces) -> None:
        """Workers pick up shaded chunks and post-shade them."""
        for worker in node.workers:
            while True:
                chunk = worker.output_queue.get()
                if chunk is None:
                    break
                self._post_shade_chunk(chunk, egress)

    # ------------------------------------------------------------------
    # Cost attribution helpers (the modelled per-stage spans).
    # ------------------------------------------------------------------

    @staticmethod
    def _frame_len(chunk: Chunk) -> int:
        return int(chunk.frames.lengths[0]) if len(chunk) else 64

    def _worker_stage_cycles(self, chunk: Chunk, framework_cycles: float) -> float:
        """Modelled cycles of one worker-side shading step for a chunk.

        The application's worker cycles cover pre- and post-shading
        together; each step is attributed half, on top of the framework's
        own per-step constant.
        """
        app_cycles = self.app.worker_cycles_per_packet(self._frame_len(chunk))
        return (framework_cycles + app_cycles / 2.0) * len(chunk)
