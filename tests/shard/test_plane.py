"""The sharded data plane: differential equality and conservation.

The multi-process plane must be *invisible* in the observable output:
for every app and seed, running the same workload across N real worker
processes (descriptors over queues, master-side GPU batching) produces
exactly the verdict totals and per-port egress distribution of the
sequential in-process decomposition — packet for packet, not
approximately.  Chaos scenarios shard the same way: per-shard runs sum
to the unsharded stream and every shard closes its own conservation
identities.
"""

import itertools
import os
import pickle
from types import SimpleNamespace

import pytest

from repro.core.chunk import Chunk
from repro.faults.scenarios import run_scenario
from repro.io_engine.rss import RSSHasher, ShardMap
from repro.obs import names
from repro.shard import plane
from repro.shard.plane import (
    PlaneSpec,
    ShardedDataPlane,
    run_plane,
    run_plane_inprocess,
    scatter_chunk,
)


def small_spec(app="ipv4", seed=1, workers=2):
    return PlaneSpec(
        app=app, workers=workers, packets=192, bursts=2, seed=seed,
        num_routes=1024,
    )


class TestShardMap:
    def test_partition_preserves_arrival_order(self):
        from repro.gen.workloads import ipv4_workload

        burst = ipv4_workload(num_routes=64, seed=3).generator.ipv4_burst(128)
        shard_map = ShardMap(2)
        parts = shard_map.partition(burst)
        index_of = {id(f): i for i, f in enumerate(burst)}
        for shard in parts:
            positions = [index_of[id(f)] for f in shard]
            assert positions == sorted(positions)

    def test_partition_is_a_partition(self):
        from repro.gen.workloads import ipv4_workload

        burst = ipv4_workload(num_routes=64, seed=3).generator.ipv4_burst(128)
        parts = ShardMap(4).partition(burst)
        assert sum(map(len, parts)) == len(burst)
        assert len(parts) == 4

    def test_partition_is_deterministic(self):
        from repro.gen.workloads import ipv4_workload

        def run():
            gen = ipv4_workload(num_routes=64, seed=5).generator
            return [
                [bytes(f) for f in shard]
                for shard in ShardMap(3).partition(gen.ipv4_burst(96))
            ]

        assert run() == run()

    def test_unhashable_frames_round_robin(self):
        shard_map = ShardMap(2)
        junk = [bytearray(12) for _ in range(6)]  # too short to parse
        parts = shard_map.partition(junk)
        assert [len(p) for p in parts] == [3, 3]
        assert shard_map.fallbacks == 6

    def test_shard_bursts_union_is_the_full_stream(self):
        """Every shard loop streams exactly its partition of every
        burst: per-shard ingress matches an independent partition of
        the same seeded stream, and the shards add up to the stream."""
        spec = small_spec(seed=2)
        _, burst_fn = plane._build_app(spec, plane._build_table(spec))
        shard_map = ShardMap(spec.workers)
        expected = [0] * spec.workers
        for _ in range(spec.bursts):
            parts = shard_map.partition(burst_fn())
            assert sum(map(len, parts)) == spec.packets
            for wid, part in enumerate(parts):
                expected[wid] += len(part)
        report = run_plane_inprocess(spec)
        assert [w.received for w in report.workers] == expected

    def test_flow_memo_is_capped_and_placement_unchanged(self):
        """No flow memo: a repeated flow lands where its first packet
        did because the hash is pure, and steering any number of flows
        leaves the map the size it was built."""
        from repro.net.packet import build_udp_ipv4

        def flows(count):
            return [
                build_udp_ipv4(
                    0x0A000001 + i, 0xC0A80001, 1024 + i % 60000, 53,
                    frame_len=64,
                )
                for i in range(count)
            ]

        shard_map = ShardMap(3)
        built = pickle.dumps(shard_map)
        first = flows(64)
        shards = shard_map.shards_of(first + first[::-1] + first)
        assert (shards[64:128] == shards[:64][::-1]).all()
        assert (shards[128:] == shards[:64]).all()
        shard_map.partition(flows(4096))
        assert pickle.dumps(shard_map) == built
        assert set(vars(shard_map)) == {"num_shards", "_hasher", "fallbacks"}


class TestDifferential:
    """Multi-process == in-process, exactly, for every app and seed."""

    @pytest.mark.parametrize("app", ["ipv4", "ipv6", "openflow"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_workers_match_sequential_reference(self, app, seed):
        spec = small_spec(app=app, seed=seed, workers=2)
        multi = run_plane(spec)
        single = run_plane_inprocess(spec)
        assert all(w.exitcode == 0 for w in multi.workers)
        assert multi.conservation_ok
        assert multi.verdict_totals() == single.verdict_totals()
        assert multi.egress_totals() == single.egress_totals()

    def test_per_worker_totals_match_too(self):
        spec = small_spec(app="ipv4", seed=1)
        multi = run_plane(spec)
        single = run_plane_inprocess(spec)
        for m, s in zip(multi.workers, single.workers):
            assert (m.received, m.forwarded, m.dropped, m.slow_path) == (
                s.received, s.forwarded, s.dropped, s.slow_path
            )
            assert m.egress == s.egress
            assert (m.chunks, m.gpu_launches) == (s.chunks, s.gpu_launches)
            assert m.gpu_launches > 0

    def test_no_byte_copies_crossed_the_boundary(self):
        """Every chunk of a healthy run travels as a descriptor: the
        pool-fallback count (chunks pickled as owned bytes) is zero."""
        report = run_plane(small_spec(app="ipv4", seed=1))
        assert report.shm_fallbacks == 0

    def test_single_worker_plane_still_goes_through_queues(self):
        spec = small_spec(app="ipv4", seed=1, workers=1)
        multi = run_plane(spec)
        single = run_plane_inprocess(spec)
        assert multi.conservation_ok
        assert multi.verdict_totals() == single.verdict_totals()

    def test_master_actually_batched(self):
        report = run_plane(small_spec(app="ipv4", seed=1))
        assert report.master_chunks > 0
        assert 0 < report.master_batches <= report.master_chunks

    def test_master_tallies_are_per_run(self):
        """A second plane in the same process reports its own master
        counts, not the running total of the process-global metrics."""
        spec = small_spec(app="ipv4", seed=1)
        first, second = run_plane(spec), run_plane(spec)
        assert first.master_chunks == second.master_chunks > 0
        assert sum(w.chunks for w in second.workers) == second.master_chunks

    def test_fallback_chunks_still_match_reference(self):
        """A one-slot pool starves the RX edge, so most chunks cross
        the boundary as heap byte copies — the totals must still match
        the sequential reference exactly (the master must never mutate
        a heap chunk after putting it on the scatter queue), and the
        report's fallback tally must agree with the pool metric."""
        spec = PlaneSpec(
            app="ipv4", workers=2, packets=192, bursts=2, seed=1,
            num_routes=1024, pool_slots=1,
        )
        with ShardedDataPlane(spec) as plane:
            report = plane.run()
            merged = plane.aggregate()
        single = run_plane_inprocess(spec)
        assert report.conservation_ok
        assert report.verdict_totals() == single.verdict_totals()
        assert report.egress_totals() == single.egress_totals()
        assert report.shm_fallbacks > 0
        assert report.shm_fallbacks == int(
            merged.counter(names.SHARD_POOL_FALLBACKS).value
        )


class TestWorkerObservability:
    def test_every_worker_counts_its_own_generation(self):
        """Each worker regenerates the full stream into its own slab:
        2 workers x 3 bursts x 256 packets is 1536 generated frames in
        the aggregate.  A generator built before the fork would count
        into the parent's registry instead, and this would read 0."""
        spec = PlaneSpec(
            app="ipv4", workers=2, packets=256, bursts=3, seed=1,
            num_routes=1024,
        )
        with ShardedDataPlane(spec) as sharded:
            report = sharded.run()
            merged = sharded.aggregate()
        assert report.conservation_ok
        assert merged.counter(names.GEN_FRAMES, family="ipv4").value == 1536


class TestOnce:
    """Each fact is computed once: one table per plane, one application
    build per shard, one Toeplitz hash per packet."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = {"build": 0, "toeplitz": 0, "toeplitz_rows": 0}
        build_app = plane._build_app
        toeplitz, toeplitz_rows = RSSHasher.toeplitz, RSSHasher.toeplitz_rows

        def counting_build(*args):
            counts["build"] += 1
            return build_app(*args)

        def counting_toeplitz(self, data):
            counts["toeplitz"] += 1
            return toeplitz(self, data)

        def counting_toeplitz_rows(self, rows):
            counts["toeplitz_rows"] += len(rows)
            return toeplitz_rows(self, rows)

        monkeypatch.setattr(plane, "_build_app", counting_build)
        monkeypatch.setattr(RSSHasher, "toeplitz", counting_toeplitz)
        monkeypatch.setattr(RSSHasher, "toeplitz_rows", counting_toeplitz_rows)
        return counts

    def test_one_worker_reference_hashes_each_packet_once(self, calls):
        """Every packet is hashed once, as a row of its burst's column;
        the bit-serial scalar hash never runs on the shard loop."""
        spec = small_spec(workers=1)
        report = run_plane_inprocess(spec)
        assert report.conservation_ok
        assert calls == {
            "build": 1, "toeplitz": 0,
            "toeplitz_rows": spec.packets * spec.bursts,
        }

    def test_one_app_per_shard(self, calls):
        run_plane_inprocess(small_spec(workers=2))
        assert calls["build"] == 2

    def test_one_table_per_plane(self, monkeypatch, tmp_path):
        """The parent builds the table once, before it forks; the
        workers and the master step read that instance.  Every build
        appends its pid to a file, so one in a worker would show."""
        log = tmp_path / "table-builds"
        build_table = plane._build_table

        def logging_build(spec):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return build_table(spec)

        monkeypatch.setattr(plane, "_build_table", logging_build)
        assert run_plane(small_spec(workers=2)).conservation_ok
        assert log.read_text().split() == [str(os.getpid())]
        run_plane_inprocess(small_spec(workers=2))
        assert log.read_text().split() == [str(os.getpid())] * 2

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="no /dev/shm")
    def test_spawned_workers_unpickle_the_table(self, monkeypatch):
        """Under ``spawn`` the same ``Process`` argument is pickled
        instead of inherited: the run still equals the reference and
        leaves no segment behind."""
        monkeypatch.setattr(
            plane.multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        spec = small_spec(workers=2)
        with ShardedDataPlane(spec) as sharded:
            assert sharded._ctx.get_start_method() == "spawn"
            report = sharded.run()
        single = run_plane_inprocess(spec)
        assert all(w.exitcode == 0 for w in report.workers)
        assert report.verdict_totals() == single.verdict_totals()
        assert report.egress_totals() == single.egress_totals()
        assert report.shm_fallbacks == 0
        assert [n for n in os.listdir("/dev/shm") if sharded.session in n] == []


class _FeederQueue:
    """Stands in for mp.Queue's delayed feeder-thread pickle: put()
    only parks the object; the test pickles it *afterwards*, exactly
    when the real feeder thread would."""

    def __init__(self):
        self.items = []

    def put(self, item):
        self.items.append(item)


class TestScatter:
    """The master must never mutate a chunk after put() when its
    pickle form reads the mutated fields (mp.Queue serializes in a
    background feeder thread, after put() returns)."""

    def test_heap_chunk_survives_post_put_pickle(self):
        queue = _FeederQueue()
        chunk = Chunk([bytearray(b"\xaa" * 64) for _ in range(3)])
        scatter_chunk(queue, chunk)
        clone = pickle.loads(pickle.dumps(queue.items[0]))
        assert [bytes(f) for f in clone.frames] == [b"\xaa" * 64] * 3

    def test_loose_frames_chunk_survives_post_put_pickle(self):
        queue = _FeederQueue()
        chunk = Chunk([bytearray(b"\xbb" * 64)])
        chunk.replace_frame(0, bytearray(b"\xcc" * 80))
        scatter_chunk(queue, chunk)
        clone = pickle.loads(pickle.dumps(queue.items[0]))
        assert bytes(clone.frames[0]) == b"\xcc" * 80

    def test_shm_chunk_views_are_dropped_after_scatter(self):
        from repro.shard.pool import ShmChunkPool

        pool = ShmChunkPool.create(
            f"rt-scatter-{os.getpid()}-{next(_SCATTER_SEQ)}",
            slots=2, slot_bytes=4096, allocator=True,
        )
        try:
            queue = _FeederQueue()
            chunk = pool.build_chunk([bytearray(b"\xdd" * 64)])
            scatter_chunk(queue, chunk)
            # The master's aliasing views are gone (the worker can
            # recycle the slot) but the wire form is the descriptor,
            # so the clone still maps the payload.
            assert len(chunk.frames.store) == 0
            clone = pickle.loads(pickle.dumps(queue.items[0]))
            assert bytes(clone.frames[0]) == b"\xdd" * 64
            clone = None
        finally:
            pool.close()
            pool.unlink()

    @pytest.mark.parametrize("in_slot", [False, True], ids=["heap", "slot"])
    @pytest.mark.parametrize("name", ["ipv4", "openflow"])
    def test_gathered_input_does_not_ride_back(self, name, in_slot):
        """The worker reads only ``gpu_output`` and ``app_state``: the
        H2D input is cleared before ``put()``, so the feeder thread's
        later pickle cannot carry it whichever wire form the chunk
        takes — and the clone is smaller for it, also for OpenFlow,
        whose input *is* its ``app_state``."""
        from repro.apps import build_app
        from repro.shard.pool import ShmChunkPool

        app, burst = build_app(name, 64, seed=3)
        frames = burst(256)  # enough objects to outgrow pickle's short memo
        pool = ShmChunkPool.create(
            f"rt-scatter-{os.getpid()}-{next(_SCATTER_SEQ)}",
            slots=2, slot_bytes=32 * 1024, allocator=True,
        ) if in_slot else None
        try:
            queue = _FeederQueue()
            chunk = pool.build_chunk(frames) if in_slot else Chunk(frames)
            assert chunk.in_slot == in_slot
            chunk.gpu_input = work = app.pre_shade(chunk)
            chunk.gpu_output = work.spec.fn(*work.args)
            with_input = len(pickle.dumps(chunk))
            scatter_chunk(queue, chunk)
            blob = pickle.dumps(queue.items[0])
            clone = pickle.loads(blob)
            assert clone.gpu_input is None
            for intact in ("gpu_output", "app_state"):
                assert pickle.dumps(getattr(clone, intact)) == pickle.dumps(
                    getattr(chunk, intact)
                )
            assert len(blob) < with_input
            clone = None
        finally:
            if pool is not None:
                pool.close()
                pool.unlink()


_SCATTER_SEQ = itertools.count()


class TestMasterFailure:
    def test_silent_queue_names_dead_workers(self):
        """A worker dying mid-run must surface as a descriptive error
        from the master loop, not a raw queue.Empty."""
        spec = small_spec(app="ipv4", seed=1, workers=1)
        with ShardedDataPlane(spec) as plane:
            plane.MASTER_TIMEOUT = 0.2
            plane.procs.append(SimpleNamespace(
                name="repro-shard-0", exitcode=9,
                is_alive=lambda: False,
                join=lambda timeout=None: None,
                terminate=lambda: None,
            ))
            with pytest.raises(
                RuntimeError, match=r"repro-shard-0 \(exitcode 9\)"
            ):
                plane.serve_master()


class TestChaosSharded:
    """Fault scenarios under the same RSS decomposition."""

    def test_shard_injections_sum_to_the_full_run(self):
        full = run_scenario("chaos", seed=1, packets=512)
        shards = [
            run_scenario("chaos", seed=1, packets=512, shard=(k, 2))
            for k in range(2)
        ]
        assert sum(s.injected for s in shards) == full.injected

    def test_every_shard_conserves(self):
        for k in range(2):
            report = run_scenario("chaos", seed=2, packets=512, shard=(k, 2))
            assert report.conservation_ok

    def test_shard_validation(self):
        with pytest.raises(ValueError):
            run_scenario("chaos", seed=1, packets=256, shard=(2, 2))
        with pytest.raises(ValueError):
            run_scenario("chaos", seed=1, packets=256, shard=(-1, 2))
