"""Shard scaling: modelled throughput vs worker-process count.

The sharding acceptance bar (docs/SHARDING.md): the capacity model
must scale near-linearly through four workers (ipv4 speedup >= 3.0 at
4 workers) and hit the packet I/O ceiling — not a shading stage — by
eight.  Runs through the perf registry and emits ``BENCH_scaling.json``;
the measured multi-process wall-clock companion is the wall-clock
benchmark's ``shard.scaling_2w_over_1w`` (``bench/``), since real
speedup depends on the host's core count.
"""


from conftest import assert_within_tolerance, print_payload, series_by


def test_scaling_curve(benchmark, bench_payload):
    payload = benchmark.pedantic(
        lambda: bench_payload("scaling"), rounds=1, iterations=1
    )
    print_payload(
        payload,
        ("workers", "ipv4_gbps", "ipv4_speedup", "ipv6_gbps",
         "ipv6_speedup"),
    )
    by_workers = series_by(payload)
    # The acceptance criterion: near-linear through 4 workers.
    assert payload["headline"]["ipv4_speedup_4w"] >= 3.0
    assert payload["headline"]["ipv6_speedup_4w"] >= 3.0
    # Monotone: more workers never model slower.
    for app in ("ipv4", "ipv6"):
        curve = [by_workers[w][f"{app}_gbps"] for w in (1, 2, 4, 8)]
        assert curve == sorted(curve)
        # The linear region is worker-bound; the 8-worker point is not.
        assert by_workers[1][f"{app}_bottleneck"] == "workers"
        assert by_workers[8][f"{app}_bottleneck"] != "workers"
    # Sub-linear by 8: the I/O engine caps the curve.
    assert payload["headline"]["ipv4_speedup_8w"] < 8.0
    assert payload["bottleneck"] == "io"
    assert_within_tolerance(payload)
