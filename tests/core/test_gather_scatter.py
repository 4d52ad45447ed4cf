"""Gather/scatter (Section 5.4): one kernel call per master step.

``PacketShader.shade_batch`` charges the modelled launch per chunk and
enters the kernel body once for everything the master gathered.  These
tests pin both halves: the simulated clock and every output byte are what
a chunk-at-a-time master produces (``RouterConfig(gather_scatter=False)``
runs the same step with gathers of one), and the kernel body runs exactly
once per packet on every rung of the fault ladder.
"""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.ipsec import IPsecDecapGateway, IPsecGateway
from repro.apps.ipv4 import IPv4Forwarder
from repro.apps.ipv6 import IPv6Forwarder
from repro.apps.openflow import OpenFlowApp
from repro.core.application import GPUWorkItem, fusable, run_fused
from repro.core.chunk import Chunk
from repro.core.composite import CompositeApplication
from repro.core.config import RouterConfig
from repro.core.framework import PacketShader
from repro.crypto.esp import SecurityAssociation
from repro.faults import FaultPlan, FaultRule, Sites
from repro.gen.packetgen import PacketGenerator
from repro.gen.workloads import (
    ipsec_workload,
    ipv4_workload,
    ipv6_workload,
    openflow_workload,
)
from repro.hw.gpu import KernelSpec
from repro.lookup.dir24_8 import Dir24_8
from repro.net.packet import build_udp_ipv4, build_udp_ipv6
from repro.obs import Stages, get_registry, get_tracer, reset_registry, reset_tracer
from repro.openflow.actions import output
from repro.openflow.flowkey import extract_flow_key


@pytest.fixture(autouse=True)
def fresh_obs():
    reset_registry()
    reset_tracer()
    yield
    reset_registry()
    reset_tracer()


@pytest.fixture(scope="module")
def v4():
    return ipv4_workload(num_routes=3000, seed=21)


@pytest.fixture(scope="module")
def v6():
    return ipv6_workload(num_routes=2000, seed=22)


def twin_sa(sa: SecurityAssociation) -> SecurityAssociation:
    """A fresh SA with the same keys: sequence 0, empty replay window."""
    return SecurityAssociation(
        spi=sa.spi, encryption_key=sa.encryption_key, nonce=sa.nonce,
        auth_key=sa.auth_key, tunnel_src=sa.tunnel_src, tunnel_dst=sa.tunnel_dst,
    )


def mixed_frames(count: int, first: int = 0) -> list:
    """The benchmark's ``ipsec_frames`` shape: three 64 B frames, then one
    1514 B frame, every frame its own flow."""
    return [
        build_udp_ipv4(
            0x0A000001 + first + i, 0xC0A80001 + i, 1024 + i, 53,
            frame_len=1514 if i % 4 == 3 else 64,
        )
        for i in range(count)
    ]


def tunnelled(frames) -> list:
    """``frames`` as the far gateway sent them: ESP in IPv4 in Ethernet."""
    chunk = Chunk(frames=[bytearray(f) for f in frames])
    IPsecGateway(ipsec_workload().sa).cpu_process(chunk)
    return [bytes(f) for f in chunk.frames]


def steer(router, frames, cap=128) -> list:
    """Chunks as ``process_frames`` builds them: RSS shares, capped."""
    node = router.nodes[0]
    shares = node.shard_map.partition([bytearray(f) for f in frames])
    return [
        Chunk(frames=share[start:start + cap], worker_id=worker.worker_id)
        for worker, share in zip(node.workers, shares)
        for start in range(0, len(share), cap)
    ]


def esp_seqs(egress) -> list:
    """The ESP sequence number of every egress frame."""
    return [
        struct.unpack_from(">I", frame, 14 + 20 + 4)[0]
        for frames in egress.values() for frame in frames
    ]


# ----------------------------------------------------------------------
# (a) gathered == chunk at a time, for every application.
# ----------------------------------------------------------------------

def _ipv4_case(v4, v6):
    generator = PacketGenerator(21)  # fresh: the same frames on every call
    return IPv4Forwarder(v4.table), [generator.ipv4_burst(700) for _ in range(2)]


def _ipv6_case(v4, v6):
    return IPv6Forwarder(v6.table), [PacketGenerator(22).ipv6_burst(300, 78)]


def _openflow_case(v4, v6):
    workload = openflow_workload(num_exact=200, num_wildcard=8, seed=61)
    frames = [build_udp_ipv4(i, i + 1, 100 + i, 200 + i) for i in range(300)]
    for frame in frames[::3]:
        workload.switch.add_exact_flow(
            extract_flow_key(bytes(frame), 0), output(6)
        )
    return OpenFlowApp(workload.switch), [frames]


def _encap_case(v4, v6):
    frames = mixed_frames(256)
    frames.insert(100, build_udp_ipv6(1, 2, 3, 4))  # a hole in one chunk
    return IPsecGateway(ipsec_workload().sa), [frames, mixed_frames(64, 1000)]


def _decap_case(v4, v6):
    outers = tunnelled(mixed_frames(200))
    tampered = bytearray(outers[17])
    tampered[60] ^= 1
    outers[17] = bytes(tampered)
    # A duplicate of every fifth packet: "ok" then "replay", possibly in
    # different chunks of one gather.
    burst = outers + outers[::5]
    return IPsecDecapGateway(twin_sa(ipsec_workload().sa)), [burst]


def _composite_case(v4, v6):
    table = Dir24_8()
    table.add_routes([(0x0A000000, 8, 3)])  # 10/8 is routed, the rest dies
    app = CompositeApplication(
        [IPv4Forwarder(table), IPsecGateway(ipsec_workload().sa, out_port=7)]
    )
    frames = [
        build_udp_ipv4(i, (0x0A000000 if i % 5 else 0xC0000000) | i, 5, 6,
                       frame_len=80)
        for i in range(1, 301)
    ]
    return app, [frames]


CASES = {
    "ipv4": _ipv4_case,
    "ipv6": _ipv6_case,
    "openflow": _openflow_case,
    "ipsec": _encap_case,
    "ipsec-decap": _decap_case,
    "composite": _composite_case,
}


def app_state(app):
    """Everything a kernel's side effects may have moved."""
    state = {}
    for stage in getattr(app, "stages", [app]):
        sa = getattr(stage, "sa", None)
        if sa is not None:
            state[stage.name] = (
                sa.seq, sa._highest_seen, sa._window_bits,
                dict(stage.drop_reasons),
            )
        switch = getattr(stage, "switch", None)
        if switch is not None:
            state[stage.name] = (
                dataclasses.asdict(switch.counters), len(switch.controller_queue)
            )
    return state


def run_bursts(app, bursts, config):
    """Everything observable about a run: bytes, stats, both clocks' spans."""
    reset_registry()
    reset_tracer()
    router = PacketShader(app, config)
    node = router.nodes[0]
    egress, service_ns = [], []
    for burst in bursts:
        chunks = steer(router, burst)
        out = router.process_chunks(chunks, node)
        egress.append({p: [bytes(f) for f in fs] for p, fs in sorted(out.items())})
        service_ns.append([chunk.service_ns for chunk in chunks])
    spans = {}
    for span in get_tracer().events():
        spans.setdefault(span.stage, []).append(
            (span.packets, span.cycles, span.ns, span.meta)
        )
    # How many chunks one GATHER span covers is the one thing that
    # differs; what was gathered in total does not.
    gathers = spans.pop(Stages.GATHER)
    spans["gather-total"] = (
        sum(g[0] for g in gathers), sum(g[1] for g in gathers)
    )
    return router, egress, service_ns, spans, app_state(app)


class TestGatheredEqualsChunkAtATime:
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_bytes_same_clock_same_state(self, name, v4, v6):
        app, bursts = CASES[name](v4, v6)
        gathered, egress, service, spans, state = run_bursts(
            app, bursts, RouterConfig()
        )
        app, bursts = CASES[name](v4, v6)
        single, egress1, service1, spans1, state1 = run_bursts(
            app, bursts, RouterConfig(gather_scatter=False)
        )
        assert egress == egress1
        assert service == service1
        assert spans == spans1
        assert state == state1
        stats = dataclasses.asdict(gathered.stats)
        stats1 = dataclasses.asdict(single.stats)
        # One entry per gather against one per chunk — except for the
        # composite, whose marker kernel takes no input and never fuses.
        calls, calls1 = stats.pop("kernel_calls"), stats1.pop("kernel_calls")
        assert calls1 == stats["chunks"]
        width = gathered.config.effective_gather_chunks()
        gathers = sum(-(-len(burst) // width) for burst in service)
        assert calls == (calls1 if name == "composite" else gathers)
        assert stats == stats1
        assert stats["gpu_launches"] == stats["chunks"] > 1
        assert gathered.nodes[0].gpu.busy_ns == single.nodes[0].gpu.busy_ns
        assert gathered.nodes[0].gpu.launches == single.nodes[0].gpu.launches


# ----------------------------------------------------------------------
# (b) the kernel contract: fn(a ++ b) == fn(a) ++ fn(b), state included.
# ----------------------------------------------------------------------

def work_items(fn, name, parts):
    spec = KernelSpec(name=name, fn=fn)
    return [
        GPUWorkItem(spec=spec, threads=len(p), bytes_in=0, bytes_out=0, args=(p,))
        for p in parts
    ]


def same(left, right) -> bool:
    if isinstance(left, np.ndarray):
        return left.dtype == right.dtype and np.array_equal(left, right)
    return list(left) == list(right)


def halves(items, cut):
    cut = min(cut, len(items))
    return items[:cut], items[cut:]


INNERS = [bytes(f[14:]) for f in mixed_frames(24)]
OUTERS = [f[14:] for f in tunnelled(mixed_frames(24))]
OUTERS[5] = OUTERS[5][:40] + bytes([OUTERS[5][40] ^ 1]) + OUTERS[5][41:]
OUTERS[9] = OUTERS[9][:30]  # too short to be ESP: "malformed"
FLOW_KEYS = [
    extract_flow_key(bytes(build_udp_ipv4(i, i + 1, 100 + i, 200 + i)), 0)
    for i in range(24)
]


def picks(pool):
    """Items drawn from a pool with repeats and ``None`` holes."""
    return st.lists(
        st.one_of(st.none(), st.sampled_from(pool)), min_size=0, max_size=40
    )


class TestKernelContract:
    @settings(max_examples=30, deadline=None)
    @given(addrs=st.lists(st.integers(0, 2**32 - 1), max_size=64),
           cut=st.integers(0, 64))
    def test_dir24_8(self, v4, addrs, cut):
        fn = v4.table.lookup_batch
        a, b = halves(np.array(addrs, dtype=np.uint32), cut)
        fused = run_fused(work_items(fn, "ipv4_dir24_8", [a, b]))
        assert same(fused[0], fn(a)) and same(fused[1], fn(b))
        assert len(fused[0]) == len(a) and len(fused[1]) == len(b)

    @settings(max_examples=30, deadline=None)
    @given(addrs=st.lists(st.integers(0, 2**128 - 1), max_size=32),
           cut=st.integers(0, 32))
    def test_ipv6_bsearch(self, v6, addrs, cut):
        fn = v6.table.lookup_batch
        a, b = halves(addrs, cut)
        fused = run_fused(work_items(fn, "ipv6_bsearch", [a, b]))
        assert fused == [fn(a), fn(b)]

    @settings(max_examples=30, deadline=None)
    @given(keys=picks(FLOW_KEYS), cut=st.integers(0, 40))
    def test_openflow_classify(self, keys, cut):
        workload = openflow_workload(num_exact=50, num_wildcard=8, seed=61)
        fn = OpenFlowApp(workload.switch)._gpu_classify
        a, b = halves(keys, cut)
        fused = run_fused(work_items(fn, "openflow_hash_wildcard", [a, b]))
        assert fused == [fn(a), fn(b)]
        assert [r is None for r in fused[0] + fused[1]] == [
            k is None for k in keys
        ]

    @settings(max_examples=15, deadline=None)
    @given(inners=picks(INNERS), cut=st.integers(0, 40))
    def test_esp_encapsulate(self, inners, cut):
        one, two = (IPsecGateway(ipsec_workload().sa) for _ in range(2))
        a, b = halves(inners, cut)
        fused = run_fused(work_items(one._encrypt_batch, "ipsec_aes_sha1", [a, b]))
        assert fused == [two._encrypt_batch(a), two._encrypt_batch(b)]
        assert one.sa.seq == two.sa.seq == sum(i is not None for i in inners)

    @settings(max_examples=15, deadline=None)
    @given(outers=picks(OUTERS), cut=st.integers(0, 40))
    def test_esp_decapsulate(self, outers, cut):
        one, two = (
            IPsecDecapGateway(twin_sa(ipsec_workload().sa)) for _ in range(2)
        )
        a, b = halves(outers, cut)
        fused = run_fused(
            work_items(one._decrypt_batch, "ipsec_decap_aes_sha1", [a, b])
        )
        assert fused == [two._decrypt_batch(a), two._decrypt_batch(b)]
        assert (one.sa._highest_seen, one.sa._window_bits) == (
            two.sa._highest_seen, two.sa._window_bits
        )

    def test_a_kernel_that_loses_items_is_refused(self):
        works = work_items(lambda items: items[:-1], "lossy", [[1, 2], [3]])
        with pytest.raises(ValueError, match="lossy"):
            run_fused(works)


# ----------------------------------------------------------------------
# (c) the fault ladder inside one gather.
# ----------------------------------------------------------------------

def three_chunk_burst():
    return [bytearray(f) for f in mixed_frames(256)]


class TestFaultLadderInsideAGather:
    def test_middle_chunk_falls_back_and_is_not_run_twice(self):
        clean_app = IPsecGateway(ipsec_workload().sa)
        clean = PacketShader(clean_app)
        expected = clean.process_frames(three_chunk_burst())
        # The first chunk's launch succeeds, the second fails on all
        # three attempts of its retry budget, the third succeeds.
        plan = FaultPlan(seed=1, rules=(
            FaultRule(site=Sites.GPU_LAUNCH, skip_first=1, max_fires=3),
        ))
        app = IPsecGateway(ipsec_workload().sa)
        router = PacketShader(app, fault_injector=plan.injector())
        egress = router.process_frames(three_chunk_burst())
        stats = router.stats
        assert (stats.chunks, stats.gathered_chunks) == (3, 3)
        assert stats.gpu_launches == 2
        assert stats.gpu_retries == 2
        assert stats.gpu_failures == 1
        assert stats.degraded_chunks == 1
        assert stats.kernel_calls == 1
        assert egress == expected
        assert sorted(esp_seqs(egress)) == list(range(1, 257))
        assert app.sa.seq == clean_app.sa.seq == 256

    def test_open_breaker_shades_the_gather_on_the_cpu_once(self):
        def pre_shaded(app):
            router = PacketShader(app)
            chunks = steer(router, three_chunk_burst())
            for chunk in chunks:
                chunk.gpu_input = app.pre_shade(chunk)
            return router, chunks

        clean, expected = pre_shaded(IPsecGateway(ipsec_workload().sa))
        assert clean.shade_batch(expected) == [True, True, True]
        # The breaker opens while the chunks sit in the input queue.
        router, chunks = pre_shaded(IPsecGateway(ipsec_workload().sa))
        breaker = router.breakers[0]
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert router.shade_batch(chunks) == [False, False, False]
        assert router.stats.gpu_launches == 0
        assert router.stats.degraded_chunks == 3
        assert router.stats.kernel_calls == clean.stats.kernel_calls == 1
        assert router.nodes[0].gpu.launches == 0
        assert [c.gpu_output for c in chunks] == [c.gpu_output for c in expected]
        assert router.app.sa.seq == 256
        fallback = get_tracer().stage(Stages.GPU_FALLBACK)
        assert fallback.spans == 3 and fallback.packets == 256


# ----------------------------------------------------------------------
# (d) what fuses, what does not, and where each chunk is scattered.
# ----------------------------------------------------------------------

def recording(table, calls):
    """Wrap ``table.lookup_batch`` to note the size of every real entry;
    returns the unwrapped lookup."""
    lookup = table.lookup_batch

    def lookup_batch(addrs):
        calls.append(len(addrs))
        return lookup(addrs)

    table.lookup_batch = lookup_batch
    return lookup


def small_table() -> Dir24_8:
    table = Dir24_8()
    table.add_routes([(0x0A000000, 8, 3), (0xC0A80000, 16, 5)])
    return table


class TestFusingRule:
    def test_mixed_gather(self):
        table, other = small_table(), small_table()
        calls, other_calls, marker_calls = [], [], []
        lookup = recording(table, calls)
        other_lookup = recording(other, other_calls)
        app, other_app = IPv4Forwarder(table), IPv4Forwarder(other)
        router = PacketShader(app, RouterConfig(max_gather_chunks=8))
        node = router.nodes[0]
        generator = PacketGenerator(5)

        def chunk_for(pre_shader, frames, worker_id):
            chunk = Chunk(frames=[bytearray(f) for f in frames],
                          worker_id=worker_id)
            chunk.gpu_input = pre_shader.pre_shade(chunk)
            return chunk

        def marker():
            marker_calls.append(1)
            return "ran"

        bursts = [generator.ipv4_burst(n) for n in (40, 30, 20, 10)]
        marked = Chunk(frames=[bytearray(f) for f in bursts[0]], worker_id=1)
        marked.gpu_input = GPUWorkItem(
            spec=KernelSpec(name="ipv4_dir24_8", fn=marker),
            threads=40, bytes_in=0, bytes_out=0,
        )
        gather = [
            chunk_for(app, bursts[0], 0),                            # work A
            chunk_for(app, [build_udp_ipv6(1, 2, 3, 4)] * 5, 1),     # no work
            chunk_for(app, bursts[1], 2),                            # work A
            chunk_for(other_app, bursts[2], 0),                      # other table
            marked,                                                  # args == ()
            chunk_for(app, bursts[3], 2),                            # work A
        ]
        assert gather[1].gpu_input is None
        assert fusable(gather[0].gpu_input, gather[2].gpu_input)
        assert not fusable(gather[2].gpu_input, gather[3].gpu_input)
        assert not fusable(marked.gpu_input, marked.gpu_input)
        own = [
            lookup(*gather[0].gpu_input.args), None,
            lookup(*gather[2].gpu_input.args),
            other_lookup(*gather[3].gpu_input.args), "ran",
            lookup(*gather[5].gpu_input.args),
        ]
        for chunk in gather:
            assert node.input_queue.put(chunk)
        router._shade_node(node)
        # A ++ A across the chunk with no work, then the other table, the
        # marker and the last A each on their own.
        assert calls == [40 + 30, 10]
        assert other_calls == [20]
        assert marker_calls == [1]
        assert router.stats.kernel_calls == 4
        assert router.stats.gpu_launches == 5
        assert router.stats.gathered_chunks == 6
        for chunk, expected in zip(gather, own):
            if isinstance(expected, np.ndarray):
                assert same(chunk.gpu_output, expected)
            else:
                assert chunk.gpu_output == expected
        scattered = {
            worker.worker_id: list(iter(worker.output_queue.get, None))
            for worker in node.workers
        }
        assert [[id(c) for c in scattered[w]] for w in (0, 1, 2)] == [
            [id(gather[0]), id(gather[3])],
            [id(gather[1]), id(gather[4])],
            [id(gather[2]), id(gather[5])],
        ]


# ----------------------------------------------------------------------
# (e) the benchmark's shape: three launches charged, one kernel entry.
# ----------------------------------------------------------------------

class TestBenchmarkShape:
    def test_one_kernel_call_per_burst(self):
        app = IPsecGateway(ipsec_workload().sa)
        router = PacketShader(app)
        for burst in (1, 2):
            egress = router.process_frames(three_chunk_burst())
            assert sum(len(frames) for frames in egress.values()) == 256
            assert router.stats.kernel_calls == burst
            assert router.stats.gpu_launches == 3 * burst
            assert router.stats.chunks == 3 * burst
        registry = get_registry()
        assert registry.value("router.kernel_calls") == 2
        assert registry.value("router.gpu_launches") == 6
        assert router.nodes[0].gpu.launches == 6


# ----------------------------------------------------------------------
# (f) the forked plane's master runs the same step.
# ----------------------------------------------------------------------

class TestForkedMaster:
    def test_serve_master_gathers_and_attributes_launches(self):
        from repro.shard.plane import (
            PlaneSpec, ShardedDataPlane, _build_app, _build_table,
        )

        spec = PlaneSpec(app="ipv4", workers=2, num_routes=500, seed=3)
        app, burst = _build_app(spec, _build_table(spec))
        frames = burst()
        chunks = []
        for index, worker_id in enumerate((0, 1, 0)):
            chunk = Chunk(
                frames=[bytearray(f) for f in frames[index * 100:][:100]],
                worker_id=worker_id,
            )
            chunk.gpu_input = app.pre_shade(chunk)
            chunks.append(chunk)
        expected = [c.gpu_input.spec.fn(*c.gpu_input.args) for c in chunks]
        with ShardedDataPlane(spec) as plane:
            for chunk in chunks:
                plane.submit_queue.put(chunk)
            for worker_id in range(spec.workers):
                plane.submit_queue.put(("done", worker_id))
            plane.serve_master()
            shaded = [
                plane.result_queues[w].get(timeout=10.0) for w in (0, 1, 0)
            ]
            assert plane.master_chunks == 3
            assert dict(plane.launches) == {0: 2, 1: 1}
            # Every gather holds one table's work: one real entry each,
            # however the queue's feeder thread split the three chunks.
            registry = get_registry()
            assert registry.value("router.kernel_calls") == plane.master_batches
            assert registry.value("router.gpu_launches") == 3
        for chunk, output in zip(shaded, expected):
            assert same(chunk.gpu_output, output)
