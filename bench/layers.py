"""The traced pass: a span around every call the benchmark makes into a layer.

A layer is a package under ``src/repro/``; a per-layer metric is named
``<layer>.<what>_<unit>``.  The first part of the pass, the *budget*, is
the same whatever the workload: it calls each layer's public functions on
seeded inputs and divides time by work.  The second part, the *stepped
pass*, walks the named workload's own traffic through the pipeline stage
by stage exactly as the framework does, under one root span per burst,
with the recorder on and off, and the *reference pass* hands the same
bursts to the framework's own entry point; together they yield what
tracing costs and how much of the framework's time the stages explain.

Everything here is host wall-clock time.  Spans are kept in memory and
written to ``bench/out/`` once, when the pass ends.  The quick simulated
scorecard runs last and must equal the committed ``BENCH_manifest.json``:
a wall-clock change may not move a simulated statistic.

The pass creates shared-memory pools and forks planes in the process it
runs in, so ``run.py`` gives it a process of its own (``python
bench/layers.py <workload> <seed>`` prints the ``Result`` as JSON) and
waits, as after any child, until all that process started has ended.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import pickle
import statistics
import sys
import time
from dataclasses import asdict, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import hygiene
import spans
import traffic
from workloads import PACKETS_PER_BURST, Result, two_point_kpps

#: Sizes of the budget's inputs.  Small enough for the whole pass to stay
#: near twenty seconds, large enough that each span is far above the
#: recorder's own cost (about a microsecond).
BURSTS = 6                 # 2048-frame generator bursts through the RX edge
CHUNKS = 128               # labelled 1024-frame chunks past the RX edge
HASHES = 512
ESP_SMALL, ESP_LARGE = 96, 32
PLANE_BURSTS = 32          # forked-plane scaling runs, small table
OBS_ROUNDS = 9
QUEUE_ROUND_TRIPS = 64
STEPPED_BURSTS = {"ipv4_inproc": 5, "ipv4_fork2": 5,
                  "ipv4_chunks": 128, "ipsec_frames": 2}
#: The stepped pass runs once to warm up, then this many rounds of: the
#: stepped pass with the recorder off, with it on, and the reference
#: pass; medians are compared.
STEPPED_ROUNDS = 5


def plane_worker_config():
    """The router config of one ``repro run`` worker (shard/plane.py)."""
    from repro.calib.constants import SYSTEM
    from repro.core.config import RouterConfig

    return RouterConfig(use_gpu=True, system=replace(
        SYSTEM, num_nodes=1, workers_per_node_gpu_mode=1, masters_per_node=1,
    ))


def copies(frames: Sequence) -> List[bytearray]:
    """Fresh frames for a stage that rewrites TTLs in place."""
    return [bytearray(f) for f in frames]


def slices(frames: Sequence, size: int) -> List[Sequence]:
    return [frames[i:i + size] for i in range(0, len(frames), size)]


# ----------------------------------------------------------------------
# The stepped pipeline (also the body of the budget's chunk section).
# ----------------------------------------------------------------------

def step_chunk(rec: spans.Recorder, app, device, chunk, tag: str,
               wire: bool = False):
    """pre-shade -> [pickle round trip] -> launch -> post-shade."""
    n = len(chunk)
    with rec.span(f"apps.{tag}_pre_shade", n):
        chunk.gpu_input = app.pre_shade(chunk)
    if wire:
        with rec.span("shard.chunk_pickle", 1):
            chunk = pickle.loads(pickle.dumps(chunk))
        if chunk.gpu_input is not None:
            app.bind_kernel(chunk.gpu_input)
    if chunk.gpu_input is not None:
        with rec.span(f"hw.launch_{tag}", n):
            chunk.gpu_output = chunk.gpu_input.launch_on(device).output
    with rec.span(f"apps.{tag}_post_shade", n):
        app.post_shade(chunk, chunk.gpu_output)
    return chunk


def split(rec: spans.Recorder, chunk) -> Dict[int, list]:
    """The last stage: the forwarded frames of a chunk by egress port."""
    with rec.span("core.split_by_port", len(chunk)):
        return chunk.split_by_port()


#: Workloads whose frames enter the router through ``process_frames`` and
#: are steered there; the others arrive as chunks of one worker.
FRAMES_LEVEL = ("ipv4_inproc", "ipsec_frames")
#: Spans of the stepped pass that the reference pass has no counterpart
#: for: the root, what runs before the router's entry point, and the
#: process boundary the in-process reference does not cross.
OUTSIDE_REFERENCE = (
    "burst", "gen.ipv4_burst", "io_engine.partition", "shard.chunk_pickle",
)


def ingress(env: "Env", workload: str, seed: int) -> Callable:
    """``burst(rec, burst_id)`` -> the frames each plane worker receives.

    The CLI workloads generate and partition as ``repro run`` does; the
    library workloads slice traffic built beforehand into one share.
    """
    from repro.gen.packetgen import PacketGenerator
    from repro.io_engine.rss import ShardMap

    if workload == "ipsec_frames":
        source = slices(copies(env.ipsec_frames), ESP_SMALL + ESP_LARGE)
        return lambda rec, burst_id: [source[burst_id]]
    if workload == "ipv4_chunks":
        frames = env.labelled.frames()[:STEPPED_BURSTS[workload] * 1024]
        source = slices(frames, 1024)
        return lambda rec, burst_id: [source[burst_id]]
    generator = PacketGenerator(seed)
    shard_map = ShardMap(2 if workload == "ipv4_fork2" else 1)

    def burst(rec: spans.Recorder, burst_id: int) -> List[Sequence]:
        with rec.span("gen.ipv4_burst", PACKETS_PER_BURST):
            frames = generator.ipv4_burst(PACKETS_PER_BURST)
        with rec.span("io_engine.partition", len(frames)):
            return shard_map.partition(frames)

    return burst


def steer(rec: spans.Recorder, hasher, frames: Sequence,
          workers: int) -> List[List]:
    """What ``process_frames`` does first: every frame's flow tuple parsed
    and hashed onto a worker of the node, round-robin without a tuple."""
    from repro.net.packet import parse_packet

    shares: List[List] = [[] for _ in range(workers)]
    turn = 0
    with rec.span("core.steer", len(frames)):
        for frame in frames:
            try:
                flow = parse_packet(bytes(frame)).five_tuple()
            except ValueError:
                flow = None
            if flow is None:
                worker, turn = turn, (turn + 1) % workers
            else:
                worker = hasher.queue_for(flow)
            shares[worker].append(frame)
    return shares


def stepped_pass(rec: spans.Recorder, env: "Env", workload: str,
                 seed: int) -> Tuple[int, int]:
    """The named workload's traffic, burst by burst, stage by stage.

    Returns ``(packets, packets left without a verdict)``.
    """
    from repro.core.chunk import Chunk
    from repro.hw.gpu import GPUDevice
    from repro.io_engine.rss import RSSHasher

    device = GPUDevice(device_id=0, node=0)
    app, tag = env.app_of(workload)
    router = env.router(workload, app)      # for its shape only: never run
    workers = router.config.workers_per_node
    cap = router.effective_chunk_capacity()
    hasher = RSSHasher(queue_map=list(range(workers)))
    forked = workload == "ipv4_fork2"
    pool = env.pool() if forked else None
    burst_of = ingress(env, workload, seed)
    packets = pending = 0
    for burst_id in range(STEPPED_BURSTS[workload]):
        rec.burst_id = burst_id
        egress: Dict[int, list] = {}
        with rec.span("burst"):
            for share in burst_of(rec, burst_id):
                if workload in FRAMES_LEVEL:
                    queues = steer(rec, hasher, share, workers)
                else:
                    queues = [share]       # steered already: no second hash
                for part in (p for q in queues for p in slices(q, cap)):
                    if pool is not None:
                        with rec.span("shard.pool_build_chunk", len(part)):
                            chunk = pool.build_chunk(part)
                    else:
                        with rec.span("core.chunk_build", len(part)):
                            chunk = Chunk(frames=part)
                    chunk = step_chunk(rec, app, device, chunk, tag, forked)
                    by_port = split(rec, chunk)
                    # The caller gets owned copies, not views of the chunk.
                    with rec.span("core.egress_copy", len(chunk)):
                        for port, frames in by_port.items():
                            egress.setdefault(port, []).extend(
                                map(bytearray, frames)
                            )
                    pending += int(chunk.pending_mask().sum())
                    if pool is not None:
                        with rec.span("shard.pool_recycle", 1):
                            pool.recycle(chunk)
                    packets += len(part)
    rec.burst_id = -1
    return packets, pending


def reference_pass(env: "Env", workload: str, seed: int) -> Tuple[int, int]:
    """The same bursts through the framework's own entry point, no spans:
    ``process_frames`` for the frames-level workloads, chunk build plus
    ``process_chunks`` where the frames arrive steered.  The total the
    stepped stages are checked against.

    Returns ``(ns inside the entry point, packets the router accounted)``.
    """
    from repro.core.chunk import Chunk

    app, _ = env.app_of(workload)
    router = env.router(workload, app)
    cap = router.effective_chunk_capacity()
    pool = env.pool() if workload == "ipv4_fork2" else None
    burst_of = ingress(env, workload, seed)
    off = spans.Recorder(enabled=False)
    inside = 0
    for burst_id in range(STEPPED_BURSTS[workload]):
        for share in burst_of(off, burst_id):
            started = time.perf_counter_ns()
            if workload in FRAMES_LEVEL:
                router.process_frames(share)
            elif pool is not None:
                chunks = [pool.build_chunk(part) for part in slices(share, cap)]
                router.process_chunks(chunks)
                for chunk in chunks:
                    pool.recycle(chunk)
            else:
                router.process_chunks(
                    [Chunk(frames=part) for part in slices(share, cap)]
                )
            inside += time.perf_counter_ns() - started
    return inside, router.stats.accounted


# ----------------------------------------------------------------------
# Shared inputs of the budget.
# ----------------------------------------------------------------------

class Env:
    """Tables, apps and traffic the budget sections share."""

    def __init__(self, rec: spans.Recorder, seed: int) -> None:
        from repro.apps.ipv4 import IPv4Forwarder
        from repro.gen.workloads import (
            ipv4_workload, ipv6_workload, openflow_workload,
        )
        from repro.lookup.routeviews import synthetic_bgp_table

        self.seed = seed
        with rec.span("lookup.dir24_8_build", 1):
            self.ipv4 = ipv4_workload(num_routes=0, seed=seed)
        with rec.span("lookup.ipv6_build", 1):
            self.ipv6 = ipv6_workload(num_routes=5000, seed=seed)
        self.openflow = openflow_workload(2048, 32, seed=seed)
        self.ipv4_app = IPv4Forwarder(self.ipv4.table)
        routes = synthetic_bgp_table(num_next_hops=8, seed=seed)
        self.labelled = traffic.ipv4_traffic(routes, CHUNKS * 1024, seed)
        self.ipsec_frames = traffic.ipsec_traffic(
            2 * ESP_SMALL, 2 * ESP_LARGE, seed
        )
        self._pool = None

    def sa(self):
        """A fresh outbound SA (sequence numbers start over)."""
        from repro.gen.workloads import ipsec_workload

        return ipsec_workload(self.seed).sa

    def ipsec_app(self):
        from repro.apps.ipsec import IPsecGateway

        return IPsecGateway(self.sa())

    def app_of(self, workload: str):
        """``(application, tag in its span names)`` of a workload."""
        if workload == "ipsec_frames":
            return self.ipsec_app(), "ipsec"
        return self.ipv4_app, "ipv4"

    def router(self, workload: str, app):
        """A router built as the workload builds its own: ``child.py``
        takes the default config, a plane worker a single-worker node."""
        from repro.core.framework import PacketShader

        if workload in ("ipv4_chunks", "ipsec_frames"):
            return PacketShader(app)
        return PacketShader(app, config=plane_worker_config())

    def pool(self):
        """One chunk pool for the pass, named like the plane's segments."""
        from repro.shard.pool import ShmChunkPool

        if self._pool is None:
            self._pool = ShmChunkPool.create(
                f"repro-bench-{os.getpid()}-pool0", allocator=True
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.unlink()


# ----------------------------------------------------------------------
# Budget sections.  Each adds spans; ``derive`` turns spans into metrics.
# ----------------------------------------------------------------------

def rx_edge(rec: spans.Recorder, env: Env) -> None:
    """gen, net parse, io_engine hash/partition, and process_frames
    against chunk build + process_chunks on the same frames."""
    from repro.core.chunk import Chunk
    from repro.core.framework import PacketShader
    from repro.io_engine.rss import RSSHasher, ShardMap
    from repro.net.packet import parse_packet

    n = PACKETS_PER_BURST
    router = PacketShader(env.ipv4_app, config=plane_worker_config())
    generator = env.ipv4.generator
    for _ in range(BURSTS):
        with rec.span("gen.ipv4_burst", n):
            frames = generator.ipv4_burst(n)
        with rec.span("io_engine.partition", n):
            ShardMap(2).partition(frames)
        with rec.span("core.process_frames", n):
            router.process_frames(copies(frames))
        fresh = copies(frames)
        with rec.span("core.chunk_build", n):
            chunks = [Chunk(frames=part) for part in slices(fresh, 1024)]
        with rec.span("core.process_chunks", n):
            router.process_chunks(chunks)
    with rec.span("gen.ipv6_burst", n):
        frames6 = env.ipv6.generator.ipv6_burst(n)
    with rec.span("net.parse_five_tuple", n):
        flows = [parse_packet(bytes(f)).five_tuple() for f in frames]
    flows6 = [parse_packet(bytes(f)).five_tuple() for f in frames6[:HASHES]]
    hasher = RSSHasher(queue_map=[0])
    for name, sample in (("io_engine.toeplitz_v4", flows[:HASHES]),
                         ("io_engine.toeplitz_v6", flows6)):
        data = [hasher.tuple_bytes(flow) for flow in sample]
        with rec.span(name, len(data)):
            for item in data:
                hasher.toeplitz(item)


def past_the_edge(rec: spans.Recorder, env: Env) -> Dict[str, float]:
    """core.chunk, net.frames, apps.ipv4, hw, lookup on labelled chunks."""
    from repro.core.chunk import Chunk
    from repro.core.framework import PacketShader
    from repro.hw.gpu import GPUDevice
    from repro.net.frames import pack_frames

    device = GPUDevice(device_id=0, node=0)
    bursts = slices(env.labelled.frames(), 1024)
    gc.collect()
    for burst_id, burst in enumerate(bursts):
        rec.burst_id = burst_id
        chunk = Chunk(frames=burst)
        with rec.span("chunk"):
            split(rec, step_chunk(rec, env.ipv4_app, device, chunk, "ipv4"))
    rec.burst_id = -1
    stepped = spans.totals(rec.spans)["chunk"]      # only this loop's
    stage_ns = stepped["ns"] - stepped["self_ns"]
    ordered = sorted(s.duration_ns for s in rec.spans if s.name == "chunk")

    router = PacketShader(env.ipv4_app, config=plane_worker_config())
    chunks = [Chunk(frames=b) for b in slices(env.labelled.frames(), 1024)]
    gc.collect()
    with rec.span("core.process_chunks_labelled", len(chunks) * 1024):
        router.process_chunks(chunks)
    whole_ns = rec.spans[-1].duration_ns

    for burst in slices(env.labelled.frames(), 1024)[:32]:
        chunk = Chunk(frames=burst)
        with rec.span("apps.ipv4_cpu_process", 1024):
            env.ipv4_app.cpu_process(chunk)
    table = env.ipv4.table
    dsts = env.labelled.rows[:, 30:34].copy().view(">u4").ravel()
    for part in slices(dsts.astype(np.uint32), 1024):
        with rec.span("lookup.dir24_8_batch", len(part)):
            table.lookup_batch(part)
    small = env.labelled.frames()[:16 * 1024]
    for part in slices(small, 1024):
        with rec.span("net.pack_frames_64", len(part)):
            pack_frames(part)
    large = [f for f in env.ipsec_frames if len(f) == 1514]
    for _ in range(16):
        with rec.span("net.pack_frames_1514", sum(map(len, large))):
            pack_frames(large)

    return {
        "core.framework_self_share": (whole_ns - stage_ns) / whole_ns,
        "core.chunk_ms_p50": statistics.median(ordered) / 1e6,
        # 128 chunks: twelve samples lie beyond the 90th percentile.
        "core.chunk_ms_p90": ordered[int(0.9 * len(ordered))] / 1e6,
    }


def crypto_and_ipsec(rec: spans.Recorder, env: Env) -> None:
    from repro.core.chunk import Chunk
    from repro.crypto.esp import esp_encapsulate
    from repro.hw.gpu import GPUDevice

    sa = env.sa()
    frames = env.ipsec_frames
    for name, size, count in (("crypto.esp_64", 64, ESP_SMALL),
                              ("crypto.esp_1514", 1514, ESP_LARGE)):
        inners = [bytes(f[14:]) for f in frames if len(f) == size][:count]
        with rec.span(name, count if size == 64 else count * size):
            for inner in inners:
                esp_encapsulate(sa, inner)
    app = env.ipsec_app()
    device = GPUDevice(device_id=0, node=0)
    for burst in slices(copies(frames), ESP_SMALL + ESP_LARGE):
        chunk = Chunk(frames=burst)
        nbytes = sum(map(len, burst))
        with rec.span("apps.ipsec_pre_shade", len(chunk)):
            work = app.pre_shade(chunk)
        with rec.span("hw.launch_ipsec", nbytes):
            output = work.launch_on(device).output
        with rec.span("apps.ipsec_post_shade", len(chunk)):
            app.post_shade(chunk, output)
    chunk = Chunk(frames=copies(frames))
    grown = [bytearray(len(f) + 50) for f in frames]
    with rec.span("core.replace_frame", len(chunk)):
        for index, frame in enumerate(grown):
            chunk.replace_frame(index, frame)


def ipv6_and_openflow(rec: spans.Recorder, env: Env) -> None:
    """Recorded ahead of the ipv6/openflow workloads: destinations drawn
    under installed prefixes, keys from ``exact_keys`` (hit) and from the
    generator's random flows (miss)."""
    import random

    from repro.apps.ipv6 import IPv6Forwarder
    from repro.apps.openflow import OpenFlowApp
    from repro.core.chunk import Chunk
    from repro.hw.gpu import GPUDevice
    from repro.lookup.routeviews import random_ipv6_table
    from repro.net.packet import build_udp_ipv4, build_udp_ipv6
    from repro.openflow.flowkey import extract_flow_key

    device = GPUDevice(device_id=0, node=0)
    rng = random.Random(env.seed)
    routes6 = random_ipv6_table(5000, 8, env.seed)
    dsts6 = [
        prefix | rng.getrandbits(128 - length)
        for prefix, length, _ in rng.choices(routes6, k=2048)
    ]
    frames6 = [build_udp_ipv6(rng.getrandbits(128), dst, 1024, 53)
               for dst in dsts6]
    app6 = IPv6Forwarder(env.ipv6.table)
    for part in slices(frames6, 1024):
        step_chunk(rec, app6, device, Chunk(frames=part), "ipv6")
    with rec.span("lookup.ipv6_batch", len(dsts6)):
        env.ipv6.table.lookup_batch(dsts6)

    switch = env.openflow.switch
    hit_keys = [k for k in env.openflow.exact_keys if k.in_port == 0]
    hits = [
        build_udp_ipv4(k.nw_src, k.nw_dst, k.tp_src, k.tp_dst,
                       src_mac=k.dl_src, dst_mac=k.dl_dst)
        for k in hit_keys
    ]
    misses = env.openflow.generator.ipv4_burst(len(hits))
    app_of = OpenFlowApp(switch)
    step_chunk(rec, app_of, device, Chunk(frames=hits + misses), "openflow")
    miss_keys = [extract_flow_key(bytes(f), 0) for f in misses]
    for name, keys in (("openflow.classify_hit", hit_keys),
                       ("openflow.classify_miss", miss_keys)):
        with rec.span(name, len(keys)):
            for key in keys:
                switch.classify(key)


def obs_cost(rec: spans.Recorder, env: Env) -> Dict[str, float]:
    """The observability stack on against the same objects built off."""
    from repro.core.chunk import Chunk
    from repro.core.framework import PacketShader
    from repro.obs import (
        Events, FlightRecorder, StageProfiler, Stages, Tracer, get_registry,
        names, reset_flightrec, reset_profiler, reset_tracer, set_flightrec,
        set_profiler, set_tracer,
    )

    frames = env.labelled.frames()[:32 * 1024]

    def one_pass(enabled: bool) -> int:
        set_flightrec(FlightRecorder(enabled=enabled))
        set_profiler(StageProfiler(enabled=enabled))
        set_tracer(Tracer(enabled=enabled))
        # Handles are resolved at construction: build the router after.
        router = PacketShader(env.ipv4_app, config=plane_worker_config())
        chunks = [Chunk(frames=part) for part in slices(copies(frames), 1024)]
        with rec.span("obs.pass_on" if enabled else "obs.pass_off", len(frames)):
            router.process_chunks(chunks)
        return rec.spans[-1].duration_ns

    on, off = [], []
    for _ in range(OBS_ROUNDS):
        on.append(one_pass(True))
        off.append(one_pass(False))
    recorder, profiler = reset_flightrec(), reset_profiler()
    reset_tracer()
    counter = get_registry().counter(names.BENCH_RUNS)
    with rec.span("obs.flightrec_note", 20000):
        for _ in range(20000):
            recorder.note(Events.CHUNK, "", 1024, 900, 100, 24)
    with rec.span("obs.counter_inc", 100000):
        for _ in range(100000):
            counter.inc()
    with rec.span("obs.profiler_track", 20000):
        for _ in range(20000):
            with profiler.track(Stages.PRE_SHADE):
                pass
    t_on, t_off = statistics.median(on), statistics.median(off)
    return {"obs.overhead_share": (t_on - t_off) / t_on}


def _echo(inbox, outbox) -> None:
    """Child of the queue round-trip probe: hand every item straight back."""
    while True:
        item = inbox.get()
        if item is None:
            return
        outbox.put(item)


def shard_boundary(rec: spans.Recorder, env: Env) -> Dict[str, float]:
    """The process boundary piece by piece, then the forked plane whole."""
    from repro.obs import reset_registry
    from repro.shard.plane import PlaneSpec, run_plane, run_plane_inprocess

    pool = env.pool()
    sizes = []
    for burst in slices(env.labelled.frames()[:16 * 1024], 1024):
        with rec.span("shard.pool_build_chunk", len(burst)):
            chunk = pool.build_chunk(burst, worker_id=0)
        chunk.gpu_input = env.ipv4_app.pre_shade(chunk)
        with rec.span("shard.chunk_pickle", 1):
            blob = pickle.dumps(chunk)
            pickle.loads(blob)
        sizes.append(len(blob))
        pool.recycle(chunk)
    # What a worker puts on the submit queue: a pre-shaded descriptor chunk.
    probe = pool.build_chunk(env.labelled.frames()[:1024], worker_id=0)
    probe.gpu_input = env.ipv4_app.pre_shade(probe)

    ctx = multiprocessing.get_context("fork")
    inbox, outbox = ctx.Queue(), ctx.Queue()
    echo = ctx.Process(target=_echo, args=(inbox, outbox), daemon=True)
    echo.start()
    try:
        inbox.put(probe)
        outbox.get(timeout=30)                       # warm both feeders
        for _ in range(QUEUE_ROUND_TRIPS):
            with rec.span("shard.queue_roundtrip", 1):
                inbox.put(probe)
                outbox.get(timeout=30)
    finally:
        inbox.put(None)
        echo.join(timeout=10)
        if echo.is_alive():
            echo.kill()
            echo.join()
        for q in (inbox, outbox):
            q.close()
            q.join_thread()
    pool.recycle(probe)

    def plane(name: str, run: Callable, **spec):
        """``(wall seconds, report)`` of one plane run on the small table."""
        reset_registry()          # the plane reports cumulative counters
        with rec.span(name, spec["bursts"] * PACKETS_PER_BURST):
            report = run(PlaneSpec(app="ipv4", num_routes=5000,
                                   seed=env.seed, **spec))
        if not report.conservation_ok:
            raise RuntimeError(f"{name}: conservation identity violated")
        return rec.spans[-1].duration_ns / 1e9, report

    inproc_empty, _ = plane("shard.inprocess_empty", run_plane_inprocess,
                            workers=2, bursts=0)
    walls = {}
    for workers in (1, 2):
        empty, _ = plane(f"shard.fork{workers}_empty", run_plane,
                         workers=workers, bursts=0)
        full, report = plane(f"shard.fork{workers}_full", run_plane,
                             workers=workers, bursts=PLANE_BURSTS)
        walls[workers] = (empty, full)
    reset_registry()
    packets = PLANE_BURSTS * PACKETS_PER_BURST
    kpps = {w: two_point_kpps(packets, full, empty)
            for w, (empty, full) in walls.items()}
    return {
        "shard.startup_s": walls[2][0] - inproc_empty,
        "shard.chunk_pickle_bytes": statistics.median(sizes),
        "shard.chunks_per_batch": report.master_chunks / report.master_batches,
        "shard.shm_fallbacks": report.shm_fallbacks,
        "shard.fork1_kpps": kpps[1],
        "shard.scaling_2w_over_1w": kpps[2] / kpps[1],
    }


def fidelity_guard() -> Tuple[Dict[str, float], List[str]]:
    """The quick simulated scorecard against the committed manifest."""
    run = hygiene.run_child(
        [sys.executable, "-m", "repro", "bench", "--quick", "--no-write",
         "--json"]
    )
    notes = list(run.problems)
    summary = {"mean_fidelity": 0.0, "min_fidelity": 0.0}
    if run.returncode != 0:
        notes.append(f"scorecard exited {run.returncode}")
    else:
        manifest = json.loads(run.stdout)
        summary = manifest["summary"]
        committed = json.loads((hygiene.ROOT / "BENCH_manifest.json").read_text())
        if manifest != committed:
            moved = sorted(
                fig for fig in set(manifest["figures"]) | set(committed["figures"])
                if manifest["figures"].get(fig) != committed["figures"].get(fig)
            )
            notes.append(f"simulated scorecard moved: {moved or 'summary'}")
    return {
        "perf.scorecard_s": run.wall_s,
        "perf.fidelity_mean": summary["mean_fidelity"],
        "perf.fidelity_min": summary["min_fidelity"],
    }, notes


# ----------------------------------------------------------------------
# Spans -> metrics.
# ----------------------------------------------------------------------

#: metric -> (span name, multiplier on ns per count).
PER_COUNT = {
    "gen.ipv4_burst_ns_per_pkt": ("gen.ipv4_burst", 1),
    "gen.ipv6_burst_ns_per_pkt": ("gen.ipv6_burst", 1),
    "net.parse_five_tuple_ns_per_pkt": ("net.parse_five_tuple", 1),
    "io_engine.toeplitz_v4_ns_per_hash": ("io_engine.toeplitz_v4", 1),
    "io_engine.toeplitz_v6_ns_per_hash": ("io_engine.toeplitz_v6", 1),
    "io_engine.partition_ns_per_pkt": ("io_engine.partition", 1),
    "core.process_frames_ns_per_pkt": ("core.process_frames", 1),
    "core.chunk_build_ns_per_pkt": ("core.chunk_build", 1),
    "core.process_chunks_ns_per_pkt": ("core.process_chunks", 1),
    "core.split_by_port_ns_per_pkt": ("core.split_by_port", 1),
    "core.replace_frame_ns_per_pkt": ("core.replace_frame", 1),
    "net.pack_frames_64_ns_per_pkt": ("net.pack_frames_64", 1),
    "net.pack_frames_1514_ns_per_byte": ("net.pack_frames_1514", 1),
    "apps.ipv4_pre_shade_ns_per_pkt": ("apps.ipv4_pre_shade", 1),
    "apps.ipv4_post_shade_ns_per_pkt": ("apps.ipv4_post_shade", 1),
    "apps.ipv4_cpu_process_ns_per_pkt": ("apps.ipv4_cpu_process", 1),
    "hw.launch_ipv4_ns_per_pkt": ("hw.launch_ipv4", 1),
    "lookup.dir24_8_batch_ns_per_addr": ("lookup.dir24_8_batch", 1),
    "lookup.dir24_8_build_s": ("lookup.dir24_8_build", 1e-9),
    "lookup.ipv6_build_s": ("lookup.ipv6_build", 1e-9),
    "shard.pool_build_chunk_ns_per_pkt": ("shard.pool_build_chunk", 1),
    "shard.chunk_pickle_us": ("shard.chunk_pickle", 1e-3),
    "shard.queue_roundtrip_us": ("shard.queue_roundtrip", 1e-3),
    "crypto.esp_64_us_per_pkt": ("crypto.esp_64", 1e-3),
    "crypto.esp_1514_ns_per_byte": ("crypto.esp_1514", 1),
    "apps.ipsec_pre_shade_ns_per_pkt": ("apps.ipsec_pre_shade", 1),
    "apps.ipsec_post_shade_ns_per_pkt": ("apps.ipsec_post_shade", 1),
    "hw.launch_ipsec_ns_per_byte": ("hw.launch_ipsec", 1),
    "apps.ipv6_pre_shade_ns_per_pkt": ("apps.ipv6_pre_shade", 1),
    "apps.ipv6_post_shade_ns_per_pkt": ("apps.ipv6_post_shade", 1),
    "hw.launch_ipv6_ns_per_pkt": ("hw.launch_ipv6", 1),
    "lookup.ipv6_batch_ns_per_addr": ("lookup.ipv6_batch", 1),
    "apps.openflow_pre_shade_ns_per_pkt": ("apps.openflow_pre_shade", 1),
    "apps.openflow_post_shade_ns_per_pkt": ("apps.openflow_post_shade", 1),
    "hw.launch_openflow_ns_per_pkt": ("hw.launch_openflow", 1),
    "openflow.classify_hit_ns_per_pkt": ("openflow.classify_hit", 1),
    "openflow.classify_miss_ns_per_pkt": ("openflow.classify_miss", 1),
    "obs.flightrec_note_ns": ("obs.flightrec_note", 1),
    "obs.counter_inc_ns": ("obs.counter_inc", 1),
    "obs.profiler_track_ns": ("obs.profiler_track", 1),
}


def derive(recorded: List[spans.Span]) -> Dict[str, float]:
    table = spans.totals(recorded)
    metrics = {
        metric: table[name]["ns"] / table[name]["count"] * scale
        for metric, (name, scale) in PER_COUNT.items()
    }
    metrics["core.steer_ns_per_pkt"] = (
        metrics["core.process_frames_ns_per_pkt"]
        - metrics["core.chunk_build_ns_per_pkt"]
        - metrics["core.process_chunks_ns_per_pkt"]
    )
    return metrics


def measure(workload: str, seed: int) -> Result:
    """The whole traced pass for one workload."""
    rec = spans.Recorder()
    env = Env(rec, seed)

    def timed_pass(recorder: spans.Recorder) -> Tuple[int, int, int]:
        gc.collect()
        started = time.perf_counter_ns()
        packets, pending = stepped_pass(recorder, env, workload, seed)
        return time.perf_counter_ns() - started, packets, pending

    try:
        rx_edge(rec, env)
        metrics = past_the_edge(rec, env)
        crypto_and_ipsec(rec, env)
        ipv6_and_openflow(rec, env)
        metrics.update(obs_cost(rec, env))
        metrics.update(shard_boundary(rec, env))
        timed_pass(spans.Recorder(enabled=False))            # warm-up
        plain_ns, traced_ns, staged_ns, reference_ns = [], [], [], []
        for _ in range(STEPPED_ROUNDS):
            plain_ns.append(timed_pass(spans.Recorder(enabled=False))[0])
            traced = spans.Recorder()
            elapsed, packets, pending = timed_pass(traced)
            traced_ns.append(elapsed)
            staged_ns.append(
                spans.self_time_except(traced.spans, OUTSIDE_REFERENCE)
            )
            gc.collect()
            inside, accounted = reference_pass(env, workload, seed)
            reference_ns.append(inside)
    finally:
        env.close()
    metrics.update(derive(rec.spans))
    # Stage time found from outside over what the framework itself took
    # for the same bursts: a stage missing from the stepping lowers it.
    metrics["bench.trace_attributed_share"] = (
        statistics.median(staged_ns) / statistics.median(reference_ns)
    )
    plain, with_spans = statistics.median(plain_ns), statistics.median(traced_ns)
    metrics["bench.trace_overhead_share"] = (with_spans - plain) / plain
    fidelity, notes = fidelity_guard()
    metrics.update(fidelity)
    if pending:
        notes.append(f"stepped pass left {pending} packets without a verdict")
    if accounted != packets:
        notes.append(
            f"reference pass accounted {accounted} packets, stepped {packets}"
        )

    rec.write(hygiene.OUT / f"spans-budget-seed{seed}.jsonl")
    traced.write(hygiene.OUT / f"spans-{workload}-seed{seed}.jsonl")
    return Result(
        metrics=metrics,
        attempted=packets,
        failed=pending,
        notes=notes,
        samples={"stepped_plain_ns": plain_ns, "stepped_traced_ns": traced_ns,
                 "staged_ns": staged_ns, "reference_ns": reference_ns},
    )


def traced_pass(workload: str, seed: int) -> Result:
    """``measure`` in a child interpreter, for ``run.py``."""
    run = hygiene.run_child(
        [sys.executable, str(hygiene.ROOT / "bench" / "layers.py"),
         workload, str(seed)]
    )
    if run.returncode != 0:
        raise RuntimeError(f"{workload}: traced pass exited {run.returncode}")
    result = Result(**json.loads(run.stdout))
    result.notes += run.problems
    return result


if __name__ == "__main__":
    print(json.dumps(asdict(measure(sys.argv[1], int(sys.argv[2])))))
