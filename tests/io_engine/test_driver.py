"""Drivers: the Table 3 baseline and the optimized engine's mechanics."""

import pytest

from repro.hw.cache import CacheModel
from repro.io_engine.driver import OptimizedDriver, UnmodifiedDriver
from repro.perf.reference import REFERENCE


class TestUnmodifiedDriver:
    def test_receive_and_drop_accumulates_breakdown(self):
        driver = UnmodifiedDriver()
        for i in range(50):
            driver.receive_and_drop(bytes([i % 256]) * 64)
        assert driver.received == 50
        shares = driver.breakdown.shares()
        # The measured shares land on Table 3, the cache-miss bin charged
        # through the real cache model.
        table3 = REFERENCE["table3"]
        for name in ("memory subsystem", "compulsory cache misses"):
            assert table3.ref("share", name).holds(shares[name]), name

    def test_no_skb_leak(self):
        driver = UnmodifiedDriver()
        for _ in range(10):
            driver.receive_and_drop(b"x" * 64)
        assert driver.allocator.outstanding == 0


class TestOptimizedDriver:
    def test_deliver_and_fetch_roundtrip(self):
        driver = OptimizedDriver(num_queues=2, ring_size=8)
        frames = [bytes([i]) * 64 for i in range(4)]
        for frame in frames:
            assert driver.deliver(0, frame)
        assert driver.fetch_batch(0, 10) == frames
        assert driver.fetch_batch(1, 10) == []

    def test_per_queue_stats_and_aggregate(self):
        driver = OptimizedDriver(num_queues=2, ring_size=8)
        driver.deliver(0, b"a" * 64)
        driver.deliver(1, b"b" * 100)
        driver.fetch_batch(0, 10)
        driver.fetch_batch(1, 10)
        assert driver.queues[0].stats.packets == 1
        assert driver.queues[1].stats.bytes == 100
        total = driver.aggregate_stats()
        assert total.packets == 2 and total.bytes == 164

    def test_ring_overflow_counted(self):
        driver = OptimizedDriver(num_queues=1, ring_size=2)
        assert driver.deliver(0, b"a" * 64)
        assert driver.deliver(0, b"b" * 64)
        assert not driver.deliver(0, b"c" * 64)
        assert driver.total_drops() == 1

    def test_prefetch_eliminates_most_demand_misses(self):
        """Section 4.3: prefetching the next packet's data while
        processing the current one removes the compulsory miss latency
        for all but the first packet of a batch."""
        cache_pf = CacheModel(num_cores=1)
        with_pf = OptimizedDriver(num_queues=1, ring_size=64, cache=cache_pf,
                                  prefetch=True)
        cache_np = CacheModel(num_cores=1)
        without = OptimizedDriver(num_queues=1, ring_size=64, cache=cache_np,
                                  prefetch=False)
        for driver in (with_pf, without):
            for i in range(32):
                driver.deliver(0, bytes([i]) * 64)
            driver.fetch_batch(0, 32)
        misses_with = cache_pf.stats[0].compulsory_misses
        misses_without = cache_np.stats[0].compulsory_misses
        assert misses_without >= 32
        assert misses_with <= 2  # only the first packet misses

    def test_aligned_queues_do_not_false_share(self):
        """Section 4.4: two cores hammering their own queues' state keep
        coherence misses at zero when aligned, nonzero when packed."""

        def run(aligned):
            cache = CacheModel(num_cores=2)
            driver = OptimizedDriver(num_queues=2, ring_size=256,
                                     cache=cache, aligned=aligned)
            for _ in range(100):
                driver.deliver(0, b"a" * 64)
                driver.deliver(1, b"b" * 64)
                driver.fetch_batch(0, 1, core=0)
                driver.fetch_batch(1, 1, core=1)
            return cache.stats[0].coherence_misses + cache.stats[1].coherence_misses

        assert run(aligned=True) == 0
        assert run(aligned=False) > 50

    def test_validation(self):
        with pytest.raises(ValueError):
            OptimizedDriver(num_queues=0)
