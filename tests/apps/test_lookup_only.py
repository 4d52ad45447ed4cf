"""The Figure 2 microbenchmark: IPv6 lookup without packet I/O."""

import pytest

from repro.apps.lookup_only import (
    cpu_ipv6_lookup_rate_pps,
    gpu_ipv6_lookup_rate_pps,
)


class TestCPULine:
    def test_flat_in_batch_size(self):
        # The CPU lines in Figure 2 are horizontal.
        assert cpu_ipv6_lookup_rate_pps(1) == cpu_ipv6_lookup_rate_pps(1)

    def test_two_cpus_double_one(self):
        assert cpu_ipv6_lookup_rate_pps(2) == 2 * cpu_ipv6_lookup_rate_pps(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            cpu_ipv6_lookup_rate_pps(0)


class TestGPUCurve:
    def test_monotone_in_batch(self):
        rates = [gpu_ipv6_lookup_rate_pps(n) for n in (32, 128, 512, 2048, 8192)]
        assert rates == sorted(rates)

    def test_small_batch_loses_to_cpu(self):
        # Figure 2: "given a small number of packets in a batch GPU
        # shows considerably lower performance".
        assert gpu_ipv6_lookup_rate_pps(64) < cpu_ipv6_lookup_rate_pps(1) / 3

    def test_validation(self):
        with pytest.raises(ValueError):
            gpu_ipv6_lookup_rate_pps(0)
