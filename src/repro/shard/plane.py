"""The sharded data plane: N worker processes + one master process.

The paper's Figure 9 collaboration lifted onto real OS processes
(docs/SHARDING.md): each worker process runs the full worker side of
the pipeline — RX chunking, pre-shading, post-shading — over the flows
RSS assigns to its shard (:class:`repro.io_engine.rss.ShardMap`), and
the master process (the parent) gathers pre-shaded chunks from all
workers, batches the GPU launches, and scatters results back to each
worker's private result queue.

Chunks cross the process boundaries as shared-memory descriptors, not
byte copies: every worker packs its RX frames straight into its
:class:`~repro.shard.pool.ShmChunkPool` slots, so a queue handoff
pickles to a :class:`~repro.shard.pool.ChunkShmRef` plus the SoA
verdict columns.  The only payload bytes that travel by value are the
GPU input/output arrays — exactly the gather/scatter copies the real
router makes over PCIe.

Topology and protocol:

* the parent builds the application's read-only forwarding table once,
  before it forks, and hands that one instance to every worker as a
  ``Process`` argument (inherited copy-on-write under ``fork``, pickled
  under ``spawn``) and to its own master step — no process rebuilds it;
* the parent creates every shared segment up front (metric slabs,
  chunk pools) and owns their unlink — the PR 9 fleet lifecycle;
* one shared ``submit_queue`` carries chunks worker -> master (the
  paper's fairness FIFO), per-worker ``result_queues`` carry them back
  (the scatter side's 1-to-1 queues);
* each worker builds its own application over the shared table — and
  with it every observability handle (generator counters, flow-table
  counters), after its obs stack is attached — then regenerates the
  *full* deterministic ingress stream from the spec's seed, burst by
  burst, hashes it as one column and keeps only its shard's rows: the
  software analogue of every RSS engine hashing every arriving packet
  exactly once;
* a worker signals completion with a ``("done", worker_id)`` sentinel
  after a blocking transport flush, then reports its totals on the
  report queue; the master exits once every worker is done and the
  submit queue is drained.

:func:`_run_shard` is the one shard loop.  A forked worker runs it over
its pool and a :class:`~repro.core.queues.RemoteMasterClient`;
:func:`run_plane_inprocess` runs it once per shard with neither, in one
process — the reference the differential suite compares the
multi-process plane against, packet for packet.  The two differ in the
process boundary and nothing else.
"""

from __future__ import annotations

import multiprocessing
import queue as _stdlib_queue
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps import app_over, build_table
from repro.calib.constants import SYSTEM
from repro.core.chunk import Chunk
from repro.core.config import RouterConfig
from repro.core.framework import PacketShader
from repro.core.queues import RemoteMasterClient
from repro.io_engine.rss import ShardMap
from repro.net.frames import Frames
from repro.obs import get_registry, names
from repro.obs.multiproc import worker_obs, worker_session
from repro.obs.registry import MetricsRegistry
from repro.obs.shm import MetricSlab, aggregate_slabs, slab_name
from repro.shard.pool import ShmChunkPool, pool_name


@dataclass
class PlaneSpec:
    """One sharded run — plain data, picklable across spawn (the
    forced-``spawn`` plane in ``tests/shard/test_plane.py::TestOnce``
    pickles it; ``tests/analysis/test_rl010_pickle_safety.py`` pins
    the other boundary payloads)."""

    app: str = "ipv4"
    workers: int = 2
    #: Frames per ingress burst (the full stream, pre-partition).
    packets: int = 2048
    bursts: int = 4
    seed: int = 1
    num_routes: int = 5_000
    pool_slots: int = 32
    dump_dir: Optional[str] = None


@dataclass
class WorkerReport:
    """One worker's end-of-run totals (plain data over the report queue)."""

    worker_id: int
    received: int = 0
    forwarded: int = 0
    dropped: int = 0
    slow_path: int = 0
    chunks: int = 0
    #: Launches of this shard's chunks, wherever its master runs (the
    #: forked plane's master attributes them; ``collect`` fills it in).
    gpu_launches: int = 0
    #: port -> egress frame count (the observable output of the shard).
    egress: Dict[int, int] = field(default_factory=dict)
    #: Chunks that crossed the boundary as byte copies (pool fallback).
    shm_fallbacks: int = 0
    exitcode: Optional[int] = None


@dataclass
class PlaneReport:
    """The merged view of one sharded run."""

    spec: PlaneSpec
    workers: List[WorkerReport]
    injected: int = 0
    master_batches: int = 0
    master_chunks: int = 0

    @property
    def received(self) -> int:
        return sum(w.received for w in self.workers)

    @property
    def forwarded(self) -> int:
        return sum(w.forwarded for w in self.workers)

    @property
    def dropped(self) -> int:
        return sum(w.dropped for w in self.workers)

    @property
    def slow_path(self) -> int:
        return sum(w.slow_path for w in self.workers)

    @property
    def shm_fallbacks(self) -> int:
        return sum(w.shm_fallbacks for w in self.workers)

    @property
    def conservation_ok(self) -> bool:
        """The merged ingress identity: every injected frame is
        accounted exactly once across every shard."""
        return (
            self.injected == self.received
            and self.received
            == self.forwarded + self.dropped + self.slow_path
        )

    def egress_totals(self) -> Dict[int, int]:
        totals: Dict[int, int] = {}
        for report in self.workers:
            for port, count in report.egress.items():
                totals[port] = totals.get(port, 0) + count
        return totals

    def verdict_totals(self) -> Dict[str, int]:
        return {
            "received": self.received,
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "slow_path": self.slow_path,
        }

    def to_dict(self) -> dict:
        return {
            "spec": asdict(self.spec),
            "injected": self.injected,
            "totals": self.verdict_totals(),
            "egress": {str(p): c for p, c in sorted(self.egress_totals().items())},
            "conservation_ok": self.conservation_ok,
            "master_batches": self.master_batches,
            "master_chunks": self.master_chunks,
            "shm_fallbacks": self.shm_fallbacks,
            "workers": [asdict(w) for w in self.workers],
        }


def scatter_chunk(result_queue, chunk) -> None:
    """Scatter one shaded chunk back to its worker's result queue.

    ``multiprocessing.Queue.put`` serializes in a background feeder
    thread, so the chunk must not be mutated after ``put()`` unless
    its pickle form is independent of the mutated fields.  Chunks still
    in their slot pickle as descriptors — for those (and only those)
    the master drops its aliasing views into the shared slot, so the
    worker can recycle the slot and the master's pool mapping can
    close without a ``BufferError``.  Every other chunk is serialized
    *from* its store; releasing it here would race the pickle and
    silently ship empty frames.

    The gathered input is cleared *before* ``put()``: the worker only
    reads ``gpu_output``, so the H2D copy does not ride back with it.
    """
    chunk.gpu_input = None
    result_queue.put(chunk)
    if chunk.in_slot:
        chunk.release_store()


def _worker_config() -> RouterConfig:
    """Each worker process is exactly one logical worker of one node.

    The process *is* the paper's worker thread; parallelism comes from
    the OS scheduler, not from the in-process cooperative stepping, so
    the embedded framework is told it owns a single worker core.
    """
    return RouterConfig(
        use_gpu=True,
        system=replace(
            SYSTEM, num_nodes=1, workers_per_node_gpu_mode=1,
            masters_per_node=1,
        ),
    )


def _build_table(spec: PlaneSpec):
    """The spec's read-only forwarding table (None for apps without
    one) — built once per plane, never per shard."""
    return build_table(spec.app, spec.num_routes, spec.seed)


def _build_app(spec: PlaneSpec, table) -> Tuple[object, Callable[[], np.ndarray]]:
    """(application, burst function) over the plane's table.

    Every shard calls this with the *same* seed: identical full frame
    stream.  Per-shard traffic comes from the ShardMap steering, never
    from per-worker seeds, so the union of all shards is exactly the
    unsharded stream.  A burst is a ``(packets, frame_len)`` uint8
    matrix at the app's natural minimum length (64 B, 78 B for IPv6),
    one frame a row.  Everything that binds an observability handle is
    built here, in the process that runs the shard.
    """
    app, burst = app_over(spec.app, table, spec.seed)
    return app, lambda: burst(spec.packets)


def _run_shard(spec: PlaneSpec, worker_id: int, table,
               pool: Optional[ShmChunkPool] = None,
               transport: Optional[RemoteMasterClient] = None) -> WorkerReport:
    """The shard loop: one shard's share of the stream through one router.

    Streams burst by burst, as columns from generator to chunk: generate
    the full burst as rows, steer it to a shard column, keep this
    shard's rows, chunk them at the RX edge from row slices (packed
    straight into ``pool`` slots when there is a pool, heap chunks
    otherwise), run the workflow — no per-frame object on the way.  A
    single :class:`ShardMap` persists across bursts so the round-robin
    fallback for unhashable frames stays globally deterministic —
    every shard's independent steering of the same stream lands every
    frame on the same shard.  With a ``transport`` the master is another
    process; without one it is the router's own.
    """
    app, burst_fn = _build_app(spec, table)
    router = PacketShader(app, config=_worker_config(), transport=transport)
    # Chunks keep the router-local worker id 0 (the process *is* the
    # worker); the transport stamps the shard id on what it submits.
    build_chunk = pool.build_chunk if pool is not None else Chunk
    shard_map = ShardMap(spec.workers)
    cap = router.effective_chunk_capacity()
    egress_counts: Counter = Counter()

    def tally(egress: Dict[int, Frames]) -> None:
        for port, frames in egress.items():
            egress_counts[port] += len(frames)

    for _ in range(spec.bursts):
        rows = burst_fn()
        share = rows[shard_map.shards_of(rows) == worker_id]
        chunks = [
            build_chunk(share[start:start + cap])
            for start in range(0, len(share), cap)
        ]
        tally(router.process_chunks(chunks))
        # Release this burst's slot views before the next pack round
        # (the submitted originals are dead; their clones came back).
        chunks = None
    tally(router.flush_transport())
    stats = router.stats
    return WorkerReport(
        worker_id=worker_id,
        received=stats.received,
        forwarded=stats.forwarded,
        dropped=stats.dropped,
        slow_path=stats.slow_path,
        chunks=stats.chunks,
        gpu_launches=stats.gpu_launches,
        egress=dict(egress_counts),
        # The pool's own tally, so RX-edge heap builds and later
        # ensure_packed escapes in submit() both count — the report
        # agrees with the SHARD_POOL_FALLBACKS metric exactly.
        shm_fallbacks=pool.fallback_count if pool is not None else 0,
    )


def _plane_worker_main(session: str, worker_id: int, spec: PlaneSpec, table,
                       submit_queue, result_queue, report_queue) -> None:
    """One worker process: obs stack, pool, transport, the shard loop
    over the parent's table."""
    with worker_obs(session, worker_id, spec.dump_dir,
                    f"shard-worker-{worker_id}"):
        pool = ShmChunkPool.attach(
            pool_name(session, worker_id), allocator=True
        )
        try:
            transport = RemoteMasterClient(
                submit_queue, result_queue, worker_id,
                max_in_flight=pool.nslots, pool=pool,
            )
            report = _run_shard(spec, worker_id, table, pool, transport)
            transport.finish()
            report_queue.put(report)
        finally:
            pool.close()


class ShardedDataPlane:
    """Supervises one sharded run: segments, workers, the master loop.

    Usable as a context manager; exit joins workers and unlinks every
    shared segment.  :meth:`run` is the whole lifecycle in one call.
    """

    #: Seconds of master-side silence that mean a worker died.
    MASTER_TIMEOUT = 60.0

    def __init__(self, spec: PlaneSpec) -> None:
        if spec.workers < 1:
            raise ValueError("workers must be >= 1")
        self.spec = spec
        #: The one table of this plane: every worker and the master step
        #: read this instance.  Built before any segment exists, and
        #: free of observability handles, so it can cross the fork.
        self.table = _build_table(spec)
        self.session = worker_session("repro-shard")
        methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        # The parent creates (and so owns) every segment up front.
        self.slabs: List[MetricSlab] = [
            MetricSlab.create(slab_name(self.session, wid), writer_id=wid)
            for wid in range(spec.workers)
        ]
        self.pools: List[ShmChunkPool] = [
            ShmChunkPool.create(
                pool_name(self.session, wid),
                slots=spec.pool_slots,
            )
            for wid in range(spec.workers)
        ]
        self.submit_queue = self._ctx.Queue()
        self.result_queues = [self._ctx.Queue() for _ in range(spec.workers)]
        self.report_queue = self._ctx.Queue()
        self.procs: List = []
        #: This run's master tallies (the registry counters below are
        #: process-global and keep counting across runs).
        self.master_batches = 0
        self.master_chunks = 0
        #: shard -> GPU launches the master made for its chunks.
        self.launches: Counter = Counter()
        registry = get_registry()
        self._m_batches = registry.counter(
            names.SHARD_MASTER_BATCHES,
            help="gather batches the master launched",
        )
        self._m_chunks = registry.counter(
            names.SHARD_MASTER_CHUNKS,
            help="chunks the master gathered across all workers",
        )

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        if self.procs:
            raise RuntimeError("plane already started")
        if self.spec.dump_dir:
            Path(self.spec.dump_dir).mkdir(parents=True, exist_ok=True)
        for wid in range(self.spec.workers):
            proc = self._ctx.Process(
                target=_plane_worker_main,
                args=(self.session, wid, self.spec, self.table,
                      self.submit_queue, self.result_queues[wid],
                      self.report_queue),
                name=f"repro-shard-{wid}",
                daemon=True,
            )
            proc.start()
            self.procs.append(proc)

    def serve_master(self) -> None:
        """The master loop: gather, launch, scatter, until all done.

        Runs in the parent.  Gathering is opportunistic — one blocking
        get, then whatever else is already queued up to the configured
        gather width — so GPU batching adapts to load exactly like the
        in-process master's ``get_batch``.  Each gather is rebound to
        the plane's table and handed whole to
        ``PacketShader.shade_batch``, the same master step the
        in-process master runs: one kernel call for the gather, one
        modelled launch per chunk.
        """
        # The master's own application instance plays the role of GPU
        # device memory: kernels arrive stripped of their callables
        # (GPUWorkItem.__getstate__) and rebind against the plane's
        # table — the very instance the workers were handed.  Its
        # router runs no workers; it is here for the master step.
        app, _ = _build_app(self.spec, self.table)
        master = PacketShader(app, config=_worker_config())
        gather = master.config.effective_gather_chunks()
        done: set = set()
        while len(done) < self.spec.workers:
            batch = []
            try:
                item = self.submit_queue.get(timeout=self.MASTER_TIMEOUT)
            except _stdlib_queue.Empty:
                dead = [
                    f"{proc.name} (exitcode {proc.exitcode})"
                    for proc in self.procs
                    if proc.exitcode is not None
                ]
                detail = (
                    f"dead worker(s): {', '.join(dead)}"
                    if dead else "all workers still alive but silent"
                )
                raise RuntimeError(
                    f"master: no chunk or done sentinel for "
                    f"{self.MASTER_TIMEOUT:.0f}s with {len(done)}/"
                    f"{self.spec.workers} workers done; {detail}"
                ) from None
            while True:
                if isinstance(item, tuple) and item and item[0] == "done":
                    done.add(item[1])
                else:
                    batch.append(item)
                if len(batch) >= gather or len(done) >= self.spec.workers:
                    break
                try:
                    item = self.submit_queue.get_nowait()
                except _stdlib_queue.Empty:
                    break
            if not batch:
                continue
            self.master_batches += 1
            self.master_chunks += len(batch)
            self._m_batches.inc()
            self._m_chunks.inc(len(batch))
            for chunk in batch:
                if chunk.gpu_input is not None:
                    app.bind_kernel(chunk.gpu_input)
            for chunk, launched in zip(batch, master.shade_batch(batch)):
                self.launches[chunk.worker_id] += launched
                scatter_chunk(self.result_queues[chunk.worker_id], chunk)

    def collect(self) -> PlaneReport:
        """Join workers and assemble the merged report."""
        reports: Dict[int, WorkerReport] = {}
        for _ in range(self.spec.workers):
            try:
                report = self.report_queue.get(timeout=self.MASTER_TIMEOUT)
            except _stdlib_queue.Empty:
                break
            reports[report.worker_id] = report
        for proc in self.procs:
            proc.join(timeout=10.0)
        for wid, proc in enumerate(self.procs):
            report = reports.setdefault(wid, WorkerReport(worker_id=wid))
            report.exitcode = proc.exitcode
            report.gpu_launches = self.launches[wid]
        return PlaneReport(
            spec=self.spec,
            workers=[reports[wid] for wid in sorted(reports)],
            injected=self.spec.bursts * self.spec.packets,
            master_batches=self.master_batches,
            master_chunks=self.master_chunks,
        )

    def aggregate(self, into: Optional[MetricsRegistry] = None) -> MetricsRegistry:
        """All worker slabs merged into one registry snapshot."""
        return aggregate_slabs(self.slabs, into=into)

    def close(self) -> None:
        """Destroy every shared segment (parent owns them all)."""
        for pool in self.pools:
            pool.close()
            pool.unlink()
        for slab in self.slabs:
            slab.unlink()
            slab.close()

    def __enter__(self) -> "ShardedDataPlane":
        return self

    def __exit__(self, *exc) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=5.0)
        self.close()

    def run(self) -> PlaneReport:
        """start -> serve the master -> collect, as one call."""
        self.start()
        self.serve_master()
        return self.collect()


def run_plane(spec: PlaneSpec) -> PlaneReport:
    """Run one sharded plane end to end (segments cleaned up)."""
    with ShardedDataPlane(spec) as plane:
        return plane.run()


def run_plane_inprocess(spec: PlaneSpec) -> PlaneReport:
    """The sequential reference: same shards, one process, no queues.

    Builds the table once, as the forked plane does, then runs
    :func:`_run_shard` for each shard in turn, each with its own
    application instance over it (per-shard state such as the OpenFlow
    flow table stays separate, as it does across processes) and the
    router's in-process master.  The differential suite asserts the
    multi-process plane matches this packet for packet — same verdict
    totals, same per-port egress counts.
    """
    table = _build_table(spec)
    return PlaneReport(
        spec=spec,
        workers=[
            replace(_run_shard(spec, wid, table), exitcode=0)
            for wid in range(spec.workers)
        ],
        injected=spec.bursts * spec.packets,
    )
