"""Self-checks of the benchmark's own arithmetic and of its oracle.

Run with ``python -m pytest bench -q``.  Not part of the tier-1
``testpaths``: these test the measuring code, not the program.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import child
import hygiene
import oracle
import spans
import traffic
import workloads


def span(name, start, end, parent=-1, count=0):
    return spans.Span(name, start, end, parent, 0, count)


def test_self_time_is_duration_minus_direct_children():
    recorded = [
        span("burst", 0, 100),
        span("a", 10, 40, parent=0),
        span("b", 50, 90, parent=0),
        span("c", 60, 70, parent=2),
    ]
    assert spans.self_times(recorded) == [30, 30, 30, 10]
    assert spans.self_time_except(recorded, ("burst",)) == 70
    assert spans.self_time_except(recorded, ("burst", "b")) == 40
    table = spans.totals(recorded)
    assert table["b"] == {"ns": 40, "self_ns": 30, "count": 0, "spans": 1}


def test_recorder_nests_and_disabled_recorder_records_nothing():
    rec = spans.Recorder()
    with rec.span("outer", 2):
        with rec.span("inner", 1):
            pass
    outer, inner = rec.spans
    assert (outer.parent, inner.parent) == (-1, 0)
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    off = spans.Recorder(enabled=False)
    with off.span("outer"):
        pass
    assert off.spans == []


def test_two_point_kpps_subtracts_the_empty_run():
    # 65,536 packets add 4 s to a 3.5 s empty run: 16.384 kpkt/s.
    assert workloads.two_point_kpps(65536, 7.5, 3.5) == pytest.approx(16.384)


def test_builder_labels_match_an_independent_table_walk():
    routes = [(0x0A000000, 8, 1), (0x0A010000, 16, 2), (0xC0A80100, 24, 3)]
    table = np.array(routes, dtype=np.int64)
    addrs = np.array([0x0A020304, 0x0A010203, 0xC0A80105, 0x0B000001])
    assert traffic.longest_prefix_ports(table, addrs).tolist() == [1, 2, 3, -1]
    gaps = traffic.uncovered_gaps(table)
    assert gaps[0].tolist() == [0, 0x09FFFFFF]
    assert gaps[-1].tolist() == [0xC0A80200, 0xFFFFFFFF]
    labelled = traffic.ipv4_traffic(routes, 4096, seed=7)
    ip = labelled.rows[:, traffic.ETH_LEN:traffic.ETH_LEN + traffic.IP_LEN]
    good = traffic.header_sums(ip) == 0xFFFF
    # Only the frames built with a bad checksum fail to verify.
    assert 0 < (~good).sum() < 0.03 * len(good)
    assert (labelled.verdicts[~good] == traffic.DROP).all()


def test_oracle_passes_the_router_and_catches_tampering():
    size = child.SMOKE_SIZES["ipv4_chunks"]          # two 1024-packet bursts
    result = child.run_ipv4_chunks(seed=3, size=size)
    assert result["failed"] == 0, result["notes"]

    from repro.lookup.routeviews import synthetic_bgp_table

    routes = synthetic_bgp_table(num_next_hops=8, seed=3)
    labelled = traffic.ipv4_traffic(routes, 2048, seed=3)
    want = labelled.rows.copy()
    want[:, traffic.ETH_LEN + 8] -= 1
    traffic.set_header_checksum(want)
    egress = {
        int(port): traffic.split_rows(want[labelled.ports == port])
        for port in np.unique(labelled.ports) if port >= 0
    }
    counts = labelled.verdict_counts()
    assert oracle.check_ipv4_pass(labelled, egress, counts) == (0, [])
    port = next(iter(egress))
    egress[port][0][traffic.ETH_LEN + 8] += 1         # TTL not decremented
    egress[port][1][40] ^= 0xFF                       # payload byte flipped
    egress[port].pop()                                # a frame lost...
    failed, notes = oracle.check_ipv4_pass(labelled, egress, counts)
    assert failed == 1 and "frames, labels say" in notes[0]
    egress[port].append(bytearray(64))                # ...and a bogus one back
    failed, _ = oracle.check_ipv4_pass(labelled, egress, counts)
    assert failed == 3
    counts["dropped"] += 5
    assert oracle.check_ipv4_pass(labelled, egress, counts)[0] == 8


def test_cli_oracle_on_a_two_burst_run():
    args = ["--json", "--app", "ipv4", "--num-routes", "5000", "--packets",
            "2048", "--bursts", "2", "--seed", "3"]
    reports = []
    for flags in (["--inprocess", "--workers", "2"], ["--workers", "2"]):
        run = workloads.repro_run(args + flags)
        assert run.problems == []
        report = json.loads(run.stdout)
        assert oracle.check_cli_report(report, run.returncode, 4096) == (0, [])
        reports.append(report)
    assert oracle.check_same_outputs("pair", *reports) == (0, [])

    broken = json.loads(json.dumps(reports[0]))
    broken["totals"]["forwarded"] -= 7
    assert oracle.check_cli_report(broken, 0, 4096)[0] == 7
    assert oracle.check_same_outputs("pair", reports[0], broken)[0] == 7
    assert oracle.check_cli_report(reports[0], 1, 4096)[0] == 4096


def test_ipsec_oracle_on_a_smoke_pass():
    result = child.run_ipsec_frames(seed=3, size=child.SMOKE_SIZES["ipsec_frames"])
    assert result["failed"] == 0, result["notes"]
    assert oracle.esp_frame_len(64) == 114 and oracle.esp_frame_len(1514) == 1566
    sent = [bytearray(64)] * 3
    assert oracle.check_ipsec_burst(sent, {0: [bytearray(114)] * 3}) == (0, [])
    assert oracle.check_ipsec_burst(sent, {0: [bytearray(114)] * 2})[0] == 1
    assert oracle.check_ipsec_burst(sent, {0: [bytearray(64)] * 3})[0] == 3


def test_a_full_run_with_byte_copies_is_recorded_and_kept_out(monkeypatch):
    # Full runs take 8 s, or 20 s when chunks fell back to byte copies;
    # the first full run falls back.  Empty runs take 4 s.
    fallbacks = iter([3, 0, 0, 0, 0])

    def fake_run(args):
        bursts = int(args[args.index("--bursts") + 1])
        packets = bursts * workloads.PACKETS_PER_BURST
        copied = next(fallbacks) if bursts else 0
        report = {
            "injected": packets, "conservation_ok": True,
            "totals": {"received": packets, "forwarded": packets,
                       "dropped": 0, "slow_path": 0},
            "egress": {"0": packets}, "shm_fallbacks": copied,
        }
        wall = 4.0 if not bursts else 20.0 if copied else 8.0
        return hygiene.ChildRun(0, json.dumps(report), wall,
                                100.0 + copied, 0.0, [])

    monkeypatch.setattr(workloads, "repro_run", fake_run)
    monkeypatch.setattr(workloads, "differential_check", lambda seed: (0, []))
    result = workloads.measure_cli("ipv4_fork2", seed=2, seconds=0.0)
    assert result.samples["shm_fallbacks"] == [3, 0, 0]
    assert result.samples["full_s"] == [20.0, 8.0, 8.0]
    assert result.metrics["wall_s"] == 8.0
    assert result.metrics["peak_rss_mb"] == 100.0
    packets = 48 * workloads.PACKETS_PER_BURST
    assert result.metrics["kpps"] == pytest.approx(packets / 4.0 / 1e3)
    assert result.failed == 0 and not result.notes
    assert "kept out of the medians" in result.warnings[0]
