"""The skb baseline: allocation behaviour and the Table 3 breakdown."""

import pytest

from repro.calib.constants import LINUX_STACK
from repro.io_engine.skb import SKB_METADATA_BYTES, LinuxSkb, SkbAllocator
from repro.perf.reference import REFERENCE


class TestLinuxSkb:
    def test_metadata_is_208_bytes(self):
        # Section 4.1: "208 bytes long in Linux 2.6.28".
        assert SKB_METADATA_BYTES == 208

    def test_initialize_sets_every_field(self):
        skb = LinuxSkb()
        skb.initialize(b"x" * 64)
        assert skb.fields["len"] == 64
        assert skb.fields["truesize"] == 208 + 64
        assert skb.data == bytearray(b"x" * 64)
        assert len(skb.fields) >= 20


class TestSkbAllocator:
    def test_alloc_free_cycle_recycles_through_slab(self):
        allocator = SkbAllocator()
        skb = allocator.allocate()
        allocator.free(skb)
        again = allocator.allocate()
        assert again is skb  # the free list handed the same object back
        assert allocator.slab_hits == 1

    def test_free_list_bounded(self):
        allocator = SkbAllocator(free_list_capacity=2)
        skbs = [allocator.allocate() for _ in range(5)]
        for skb in skbs:
            allocator.free(skb)
        assert len(allocator._free_list) == 2

    def test_outstanding_accounting(self):
        allocator = SkbAllocator()
        a, b = allocator.allocate(), allocator.allocate()
        assert allocator.outstanding == 2
        allocator.free(a)
        assert allocator.outstanding == 1

    def test_per_packet_cost_matches_calibration(self):
        """One full RX (alloc + init + driver + others + miss + free)
        charges exactly the calibrated per-packet total."""
        allocator = SkbAllocator()
        skb = allocator.allocate()
        allocator.initialize(skb, b"p" * 64)
        allocator.charge_driver()
        allocator.charge_others()
        allocator.charge_cache_miss()
        allocator.free(skb)
        assert allocator.breakdown.total == pytest.approx(
            LINUX_STACK.total_cycles, rel=0.01
        )

    def test_breakdown_shares_match_table3(self):
        """After many packets, the shares are the Table 3 rows."""
        allocator = SkbAllocator()
        for _ in range(100):
            skb = allocator.allocate()
            allocator.initialize(skb, b"p" * 64)
            allocator.charge_driver()
            allocator.charge_others()
            allocator.charge_cache_miss()
            allocator.free(skb)
        shares = allocator.breakdown.shares()
        table3 = REFERENCE["table3"]
        for name, share in shares.items():
            assert table3.ref("share", name).holds(share), name
        # The paper's headline: the skb-related operations' share.
        skb_total = (
            shares["skb initialization"]
            + shares["skb (de)allocation"]
            + shares["memory subsystem"]
        )
        assert table3.ref("skb_related_share").holds(skb_total)

    def test_empty_breakdown_shares(self):
        assert SkbAllocator().breakdown.shares() == {}
