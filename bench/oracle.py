"""Output checks.  Every miss counts as failed packets; none is expected.

Each check returns ``(failed, notes)``: how many packets it could not
account for, and one line per kind of miss.  The checks read only the
program's outputs (egress frames, verdict totals, the ``repro run`` JSON)
and the traffic builder's labels; they share no code with the router.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

import traffic

Check = Tuple[int, List[str]]

EXPECTED_PATH = Path(__file__).with_name("expected.json")
#: The port the IPsec gateway sends every tunnelled frame out of.
IPSEC_OUT_PORT = 0


def conservation_misses(injected: int, totals: Dict[str, int]) -> int:
    """Packets outside ``injected == received == forwarded + dropped +
    slow_path``."""
    accounted = totals["forwarded"] + totals["dropped"] + totals["slow_path"]
    return abs(injected - totals["received"]) + abs(
        totals["received"] - accounted
    )


def total_differences(a: Dict[str, int], b: Dict[str, int]) -> int:
    """Summed absolute difference of two count maps (missing key = 0)."""
    return sum(abs(a.get(k, 0) - b.get(k, 0)) for k in set(a) | set(b))


def check_cli_report(report: dict, returncode: int, packets: int) -> Check:
    """One ``repro run --json`` result: exit code and conservation identity.

    ``shm_fallbacks`` is not checked here.  With three runnable processes
    on two cores the master sometimes falls a whole pool behind and a
    chunk or two cross as byte copies: slower, not wrong, and dependent
    on scheduling.  The caller records the count of every full run and
    keeps such a run's timings out of the medians.
    """
    notes = []
    if returncode != 0:
        return packets, [f"repro run exited {returncode}"]
    failed = conservation_misses(report["injected"], report["totals"])
    failed += abs(report["injected"] - packets)
    if failed:
        notes.append(f"conservation identity off by {failed} packets")
    if not report["conservation_ok"]:
        notes.append("repro run reports conservation_ok false")
        failed = max(failed, 1)
    return failed, notes


def check_same_outputs(what: str, a: dict, b: dict) -> Check:
    """Two runs that must agree on verdict totals and per-port egress."""
    failed = total_differences(a["totals"], b["totals"]) + total_differences(
        a["egress"], b["egress"]
    )
    return failed, [f"{what}: outputs differ by {failed} packets"] if failed else []


def check_pinned(workload: str, seed: int, observed: dict) -> Check:
    """Default-seed totals against ``expected.json``; other seeds pass.

    Other seeds rely on the differential and label checks alone.
    """
    pinned = json.loads(EXPECTED_PATH.read_text())
    if seed != pinned["seed"] or workload not in pinned["workloads"]:
        return 0, []
    want = pinned["workloads"][workload]
    failed = sum(
        total_differences(want[key], observed[key]) for key in want
    )
    return failed, (
        [f"{workload}: totals differ from expected.json by {failed}"]
        if failed else []
    )


def check_ipv4_pass(
    labelled: traffic.LabelledTraffic,
    egress: Dict[int, Sequence],
    verdict_counts: Dict[str, int],
) -> Check:
    """One pass of labelled ipv4 frames against the router's output.

    Verdict counts must equal the labels'; each port's egress must be
    exactly the frames labelled for it, in arrival order, unchanged but
    for TTL - 1 and a header checksum that still verifies.
    """
    notes: List[str] = []
    want = labelled.verdict_counts()
    failed = total_differences(want, verdict_counts)
    if failed:
        notes.append(f"verdict counts {verdict_counts} != labels {want}")
    width = labelled.rows.shape[1]
    ttl_at, sum_at = traffic.ETH_LEN + 8, traffic.ETH_LEN + 10
    for port in sorted(set(egress) | set(np.unique(labelled.ports).tolist())):
        if port < 0:
            continue
        sent = labelled.rows[labelled.ports == port]
        got = egress.get(port, [])
        if len(got) != len(sent) or any(len(f) != width for f in got):
            miss = max(abs(len(got) - len(sent)), 1)
            failed += miss
            notes.append(f"port {port}: {len(got)} frames, labels say {len(sent)}")
            continue
        out = np.frombuffer(b"".join(got), dtype=np.uint8).reshape(-1, width)
        same = np.ones(width, dtype=bool)
        same[[ttl_at, sum_at, sum_at + 1]] = False
        bad = (out[:, same] != sent[:, same]).any(axis=1)
        bad |= out[:, ttl_at] != sent[:, ttl_at] - 1
        header = out[:, traffic.ETH_LEN:traffic.ETH_LEN + traffic.IP_LEN]
        bad |= traffic.header_sums(header) != 0xFFFF
        if bad.any():
            failed += int(bad.sum())
            notes.append(f"port {port}: {int(bad.sum())} frames rewritten wrong")
    return failed, notes


def esp_frame_len(frame_len: int) -> int:
    """Length of the tunnelled form of an Ethernet frame (RFC 4303:
    outer IPv4 + SPI/seq + IV + inner + pad to 4 + 2 + 12-byte ICV)."""
    inner = frame_len - traffic.ETH_LEN
    pad = -(inner + 2) % 4
    return traffic.ETH_LEN + 20 + 8 + 8 + inner + pad + 2 + 12


def check_ipsec_burst(sent: Sequence, egress: Dict[int, Sequence]) -> Check:
    """Every frame of a burst must leave ``IPSEC_OUT_PORT`` tunnelled,
    grown to the ESP size of some input frame."""
    got = egress.get(IPSEC_OUT_PORT, [])
    failed = abs(len(got) - len(sent)) + sum(
        len(frames) for port, frames in egress.items() if port != IPSEC_OUT_PORT
    )
    want_sizes = sorted(esp_frame_len(len(f)) for f in sent)
    if not failed and sorted(map(len, got)) != want_sizes:
        failed = len(sent)
    return failed, [f"ipsec burst: {failed} frames not tunnelled"] if failed else []


def check_esp_round_trip(
    sent: Sequence, tunnelled: Sequence, decap_egress: Dict[int, Sequence]
) -> Check:
    """Decapsulating ``tunnelled`` must give back frames that were sent."""
    originals = {bytes(f) for f in sent}
    recovered = [bytes(f) for frames in decap_egress.values() for f in frames]
    failed = abs(len(recovered) - len(tunnelled)) + sum(
        f not in originals for f in recovered
    )
    return failed, [f"esp round trip lost {failed} frames"] if failed else []
