"""One library workload in a fresh interpreter.

``python bench/child.py <workload> <seed>`` sets the router up,
builds the seeded traffic, times a fixed number of passes, checks every
pass's output and prints one JSON object.  A fresh process per repetition
keeps the metric registry, the caches and the peak memory per workload;
the parent (``workloads.py``) times the process from outside.

``ready_at`` is ``time.monotonic()`` when set-up finished.  On Linux that
clock is shared by all processes, so the parent subtracts its own reading
taken just before it started this process and gets the set-up time a user
waits for, interpreter start and imports included.
"""

from __future__ import annotations

import gc
import json
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402  (bench/ is sys.path[0] when run as a script)
import traffic  # noqa: E402

#: Work per pass and passes per process: fixed, so two commits run the
#: same length.  ``SMOKE_SIZES`` is what ``test_selfcheck.py`` hands the
#: runners directly; this program measures ``SIZES`` and nothing else.
SIZES = {
    "ipv4_chunks": {"chunks": 128, "chunk_packets": 1024, "passes": 6},
    "ipsec_frames": {"small": 384, "large": 128, "burst": 256, "passes": 3},
}
SMOKE_SIZES = {
    "ipv4_chunks": {"chunks": 2, "chunk_packets": 1024, "passes": 2},
    "ipsec_frames": {"small": 48, "large": 16, "burst": 32, "passes": 1},
}
ESP_SAMPLE = 16


def run_ipv4_chunks(seed: int, size: Dict[str, int]) -> dict:
    from repro.apps.ipv4 import IPv4Forwarder
    from repro.core.chunk import Chunk
    from repro.core.framework import PacketShader
    from repro.gen.workloads import ipv4_workload
    from repro.lookup.routeviews import synthetic_bgp_table

    workload = ipv4_workload(num_routes=0, seed=seed)
    router = PacketShader(IPv4Forwarder(workload.table))
    ready_at = time.monotonic()

    # The same route list the table above was built from.
    routes = synthetic_bgp_table(num_next_hops=8, seed=seed)
    per_chunk = size["chunk_packets"]
    labelled = traffic.ipv4_traffic(routes, size["chunks"] * per_chunk, seed)
    packets = len(labelled.verdicts)

    pass_s: List[float] = []
    failed, notes = 0, []
    stats = router.stats
    for _ in range(size["passes"]):
        frames = labelled.frames()
        bursts = [
            frames[start:start + per_chunk]
            for start in range(0, packets, per_chunk)
        ]
        before = (stats.received, stats.forwarded, stats.dropped, stats.slow_path)
        gc.collect()
        started = time.perf_counter()
        chunks = [Chunk(frames=burst) for burst in bursts]
        egress = router.process_chunks(chunks)
        pass_s.append(time.perf_counter() - started)
        received, forwarded, dropped, slow = (
            now - then for now, then in zip(
                (stats.received, stats.forwarded, stats.dropped, stats.slow_path),
                before,
            )
        )
        counts = {"forwarded": forwarded, "dropped": dropped, "slow_path": slow}
        missed, why = oracle.check_ipv4_pass(labelled, egress, counts)
        missed += oracle.conservation_misses(
            packets, dict(counts, received=received)
        )
        failed += missed
        notes += why
    return {
        "ready_at": ready_at,
        "pass_s": pass_s,
        "packets_per_pass": packets,
        "failed": failed,
        "notes": notes,
        "observed": {
            "totals": counts,
            "egress": {str(p): len(f) for p, f in sorted(egress.items())},
        },
    }


def run_ipsec_frames(seed: int, size: Dict[str, int]) -> dict:
    from repro.apps.ipsec import IPsecDecapGateway, IPsecGateway
    from repro.core.framework import PacketShader
    from repro.gen.workloads import ipsec_workload

    router = PacketShader(IPsecGateway(ipsec_workload(seed).sa))
    ready_at = time.monotonic()

    pristine = traffic.ipsec_traffic(size["small"], size["large"], seed)
    packets, burst_len = len(pristine), size["burst"]
    pass_s: List[float] = []
    failed, notes = 0, []
    for _ in range(size["passes"]):
        frames = [bytearray(f) for f in pristine]
        outputs = []
        started = time.perf_counter()
        for start in range(0, packets, burst_len):
            outputs.append(router.process_frames(frames[start:start + burst_len]))
        pass_s.append(time.perf_counter() - started)
        tunnelled = []
        for index, egress in enumerate(outputs):
            sent = pristine[index * burst_len:(index + 1) * burst_len]
            missed, why = oracle.check_ipsec_burst(sent, egress)
            failed += missed
            notes += why
            tunnelled += egress.get(oracle.IPSEC_OUT_PORT, [])
        # A receiver with the same keys and a fresh replay window; the
        # sample is a stride through the pass, so both sizes are in it.
        sample = tunnelled[::max(1, len(tunnelled) // ESP_SAMPLE)]
        receiver = PacketShader(
            IPsecDecapGateway(ipsec_workload(seed).sa, check_replay=False)
        )
        missed, why = oracle.check_esp_round_trip(
            pristine, sample, receiver.process_frames(sample)
        )
        failed += missed
        notes += why
    stats = router.stats
    failed += oracle.conservation_misses(
        packets * size["passes"],
        {"received": stats.received, "forwarded": stats.forwarded,
         "dropped": stats.dropped, "slow_path": stats.slow_path},
    )
    return {
        "ready_at": ready_at,
        "pass_s": pass_s,
        "packets_per_pass": packets,
        "failed": failed,
        "notes": notes,
        "observed": {
            "totals": {
                "forwarded": stats.forwarded, "dropped": stats.dropped,
                "slow_path": stats.slow_path,
            },
            "egress": {str(oracle.IPSEC_OUT_PORT): len(tunnelled)},
        },
    }


RUNNERS = {"ipv4_chunks": run_ipv4_chunks, "ipsec_frames": run_ipsec_frames}


def main(argv: List[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    result = RUNNERS[workload](seed, SIZES[workload])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
