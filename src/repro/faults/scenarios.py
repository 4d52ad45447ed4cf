"""Canned chaos scenarios and the runner behind ``python -m repro chaos``.

Each scenario names a :class:`repro.faults.plan.FaultPlan` template plus
the traffic profile it offers (:mod:`repro.gen.adversarial`) and whether
the overload-control subsystem is armed.  :func:`run_scenario` re-seeds
the plan, wires everything through the full functional stack (driver DMA
boundary, master input queue, GPU device, PCIe link, RX shedding
ladder), injects the schedule, and checks the properties the chaos suite
exists to enforce:

* **conservation** — every packet that entered the router left with
  exactly one verdict (``received == forwarded + dropped + slow_path``),
  and ingress accounting closes with shedding attributed
  (``injected == rx_dropped + rx_shed + received``);
* **graceful degradation** — when breakers open, modelled capacity lands
  at the Figure 11 CPU-only baseline; under floods, established-flow
  goodput degrades gracefully instead of collapsing, the flow table
  stays bounded at its cap, and p99 modelled latency respects the SLO
  budget.

All runs are deterministic from ``(scenario, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.core.overload import OverloadController, SLOConfig
from repro.faults.plan import FaultPlan, FaultRule, Sites


@dataclass(frozen=True)
class ChaosScenario:
    """One named chaos setup: faults + traffic + overload arming."""

    plan: FaultPlan
    #: A :data:`repro.gen.adversarial.TRAFFIC_PROFILES` key.
    traffic: str = "uniform"
    #: Arm the overload controller (RX shedding, adaptive chunking).
    overload: bool = False
    #: Which application runs: ``ipv4`` or ``openflow``.
    app: str = "ipv4"
    #: SLO knobs for the overload controller (None = defaults).
    slo: Optional[SLOConfig] = None


def _plan(name: str, *rules: FaultRule) -> FaultPlan:
    return FaultPlan(seed=1, rules=tuple(rules), name=name)


def _scenario(name: str, *rules: FaultRule, **kwargs) -> ChaosScenario:
    return ChaosScenario(plan=_plan(name, *rules), **kwargs)


#: The SLO the flood scenarios enforce.  The p99 budget is calibrated
#: against the modelled chunk service times of the functional stack: a
#: 64-packet IPv4 chunk costs tens of microseconds end to end and a
#: full flood burst queues a couple dozen chunks, so 800 microseconds
#: bounds queue excursions without tripping on healthy load.  The short
#: window makes the AIMD loop decide several times within a chaos-sized
#: run (a few thousand packets).
FLOOD_SLO = SLOConfig(p99_budget_ns=800_000.0, latency_window=8)

#: The canned scenarios (seed is re-applied by :func:`run_scenario`).
SCENARIOS: Dict[str, ChaosScenario] = {
    # Wire-level corruption: truncated frames, garbage bytes, flipped
    # IPv4 checksums.  The application must classify every damaged frame
    # (drop or slow-path) without miscounting or crashing.
    "malformed": _scenario(
        "malformed",
        FaultRule(site=Sites.NIC_TRUNCATE, probability=0.05),
        FaultRule(site=Sites.NIC_GARBAGE, probability=0.05),
        FaultRule(site=Sites.NIC_BAD_CHECKSUM, probability=0.05),
    ),
    # RX rings tail-drop at delivery: loss before the router, accounted
    # at the driver, never double-counted inside.
    "rx-overflow": _scenario(
        "rx-overflow",
        FaultRule(site=Sites.RX_RING_OVERFLOW, probability=0.2),
    ),
    # The master input queue refuses hand-offs: bounded backpressure,
    # then explicit shedding once the retry rounds are exhausted.
    "queue-overflow": _scenario(
        "queue-overflow",
        FaultRule(site=Sites.MASTER_QUEUE_OVERFLOW, probability=0.7),
    ),
    # Transient launch rejections: absorbed by retry-with-backoff.
    "gpu-failure": _scenario(
        "gpu-failure",
        FaultRule(site=Sites.GPU_LAUNCH, probability=0.3),
    ),
    # Straggler kernels hit the watchdog budget; the wasted device time
    # is charged, the chunk retries and ultimately shades on the CPU.
    "gpu-timeout": _scenario(
        "gpu-timeout",
        FaultRule(site=Sites.GPU_TIMEOUT, probability=0.3),
    ),
    # PCIe transfers complete with error status on the shading path.
    "dma-error": _scenario(
        "dma-error",
        FaultRule(site=Sites.PCIE_DMA, probability=0.3),
    ),
    # Hard device failure, then recovery: every launch fails until the
    # breaker opens and the node degrades to the CPU-only path; once the
    # fault budget is spent a half-open probe succeeds and the GPU
    # re-enables automatically.
    "breaker": _scenario(
        "breaker",
        FaultRule(site=Sites.GPU_LAUNCH, probability=1.0, max_fires=24),
    ),
    # Everything at once, at moderate rates.
    "chaos": _scenario(
        "chaos",
        FaultRule(site=Sites.NIC_TRUNCATE, probability=0.02),
        FaultRule(site=Sites.NIC_GARBAGE, probability=0.02),
        FaultRule(site=Sites.NIC_BAD_CHECKSUM, probability=0.02),
        FaultRule(site=Sites.RX_RING_OVERFLOW, probability=0.05),
        FaultRule(site=Sites.MASTER_QUEUE_OVERFLOW, probability=0.1),
        FaultRule(site=Sites.GPU_LAUNCH, probability=0.1),
        FaultRule(site=Sites.GPU_TIMEOUT, probability=0.05),
        FaultRule(site=Sites.PCIE_DMA, probability=0.05),
    ),
    # Internet-shaped load: Zipf flow mix in self-similar bursts.  No
    # injected faults — the traffic itself is the stressor; the overload
    # controller's adaptive chunking keeps p99 inside the SLO budget.
    "heavy-tail": _scenario(
        "heavy-tail", traffic="heavy-tail", overload=True, slo=FLOOD_SLO,
    ),
    # TCP SYN flood with spoofed sources over established background:
    # the shedding ladder drops attack-classified traffic at the RX
    # ring while established flows keep their goodput.
    "syn-flood": _scenario(
        "syn-flood", traffic="syn-flood", overload=True, slo=FLOOD_SLO,
    ),
    # Spoofed-source UDP DDoS against reactive flow installation: every
    # attack packet is a table miss and an install attempt; the bounded
    # exact-match table (FIFO eviction + per-source guard) holds at its
    # cap while pre-installed established flows keep forwarding.
    "ddos": _scenario(
        "ddos", traffic="ddos", overload=True, app="openflow",
        slo=FLOOD_SLO,
    ),
}


@dataclass
class ChaosReport:
    """What one chaos run did and whether the invariants held."""

    scenario: str
    seed: int
    injected: int
    rx_dropped: int
    received: int
    forwarded: int
    dropped: int
    slow_path: int
    gpu_launches: int
    gpu_retries: int
    gpu_failures: int
    degraded_chunks: int
    backpressure_drops: int
    breaker_opens: int
    breaker_closes: int
    watchdog_stalls: int
    degraded_mode: bool
    faults_fired: Dict[str, int] = field(default_factory=dict)
    #: Modelled capacity (Gbps @64B): healthy GPU path, breaker-open
    #: degraded path, and the Figure 11 CPU-only baseline.
    clean_gbps: float = 0.0
    degraded_gbps: float = 0.0
    cpu_only_gbps: float = 0.0
    # -- overload control (zero / empty when the controller is off) --
    #: Packets shed at the RX ring by the priority ladder.
    rx_shed: int = 0
    shed_by_class: Dict[str, int] = field(default_factory=dict)
    flow_evictions: int = 0
    flow_rejected: int = 0
    flow_table_len: int = 0
    flow_table_cap: int = 0
    chunk_capacity_final: int = 0
    chunk_resizes: int = 0
    p99_ns: float = 0.0
    slo_budget_ns: float = 0.0
    #: Established-flow accounting: scheduled vs delivered to the wire.
    established_packets: int = 0
    established_delivered: int = 0
    attack_packets: int = 0

    @property
    def conservation_ok(self) -> bool:
        """Both accounting identities close exactly."""
        return (
            self.received == self.forwarded + self.dropped + self.slow_path
            and self.injected
            == self.rx_dropped + self.rx_shed + self.received
        )

    @property
    def degraded_ratio(self) -> float:
        """Degraded capacity relative to the CPU-only baseline."""
        if not self.cpu_only_gbps:
            return 0.0
        return self.degraded_gbps / self.cpu_only_gbps

    @property
    def established_goodput(self) -> float:
        """Fraction of scheduled established packets that hit the wire."""
        if not self.established_packets:
            return 0.0
        return self.established_delivered / self.established_packets

    @property
    def slo_ok(self) -> bool:
        """p99 modelled latency within the budget (vacuous without SLO)."""
        if not self.slo_budget_ns:
            return True
        return self.p99_ns <= self.slo_budget_ns

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "injected": self.injected,
            "rx_dropped": self.rx_dropped,
            "received": self.received,
            "forwarded": self.forwarded,
            "dropped": self.dropped,
            "slow_path": self.slow_path,
            "gpu_launches": self.gpu_launches,
            "gpu_retries": self.gpu_retries,
            "gpu_failures": self.gpu_failures,
            "degraded_chunks": self.degraded_chunks,
            "backpressure_drops": self.backpressure_drops,
            "breaker_opens": self.breaker_opens,
            "breaker_closes": self.breaker_closes,
            "watchdog_stalls": self.watchdog_stalls,
            "degraded_mode": self.degraded_mode,
            "faults_fired": dict(self.faults_fired),
            "conservation_ok": self.conservation_ok,
            "clean_gbps": self.clean_gbps,
            "degraded_gbps": self.degraded_gbps,
            "cpu_only_gbps": self.cpu_only_gbps,
            "degraded_ratio": self.degraded_ratio,
            "rx_shed": self.rx_shed,
            "shed_by_class": dict(self.shed_by_class),
            "flow_evictions": self.flow_evictions,
            "flow_rejected": self.flow_rejected,
            "flow_table_len": self.flow_table_len,
            "flow_table_cap": self.flow_table_cap,
            "chunk_capacity_final": self.chunk_capacity_final,
            "chunk_resizes": self.chunk_resizes,
            "p99_ns": self.p99_ns,
            "slo_budget_ns": self.slo_budget_ns,
            "slo_ok": self.slo_ok,
            "established_packets": self.established_packets,
            "established_delivered": self.established_delivered,
            "established_goodput": self.established_goodput,
            "attack_packets": self.attack_packets,
        }


def _count_established(
    sink: Dict[int, List[bytes]], established: FrozenSet[Tuple]
) -> int:
    """How many wire frames belong to the protected flow set.

    Forwarding rewrites TTLs and MACs but never the 5-tuple, so the
    sink frames still carry their flow identity.
    """
    from repro.net.packet import parse_packet

    if not established:
        return 0
    delivered = 0
    for frames in sink.values():
        for frame in frames:
            try:
                tup = parse_packet(frame).five_tuple()
            except ValueError:
                continue
            if tup is None:
                continue
            flow = (tup.src_ip, tup.dst_ip, tup.src_port, tup.dst_port,
                    tup.protocol)
            if flow in established:
                delivered += 1
    return delivered


def _ipv4_setup(seed: int, num_routes: int):
    """IPv4 forwarder + a pool of destinations its FIB covers."""
    from repro.apps.ipv4 import IPv4Forwarder
    from repro.lookup.dir24_8 import Dir24_8
    from repro.lookup.routeviews import synthetic_bgp_table

    routes = synthetic_bgp_table(num_routes, 8, seed)
    table = Dir24_8()
    table.add_routes(routes)
    # Prefix base addresses are inside their own prefixes, so traffic
    # aimed at them always resolves (established flows must degrade by
    # overload policy, not by accidental routing misses).
    dst_pool = [prefix for prefix, _, _ in routes[:64]]
    return IPv4Forwarder(table), dst_pool


def _openflow_setup(schedule, seed: int):
    """A bounded OpenFlow switch with the established flows installed.

    The table is deliberately small relative to the flood (cap 512,
    per-source cap 8) so the run demonstrates boundedness: the spoofed
    flood churns the FIFO while the pre-installed established flows and
    the per-source guard keep state exhaustion contained.
    """
    from repro.apps.openflow import OpenFlowApp
    from repro.net.packet import build_udp_ipv4
    from repro.openflow.actions import output
    from repro.openflow.controller import ReactiveController
    from repro.openflow.flowkey import extract_flow_key
    from repro.openflow.switch import OpenFlowSwitch

    switch = OpenFlowSwitch(
        num_buckets=2048, max_exact_entries=512, per_source_cap=8
    )
    for src, dst, sport, dport, _ in sorted(schedule.established):
        frame = build_udp_ipv4(
            src_ip=src, dst_ip=dst, src_port=sport, dst_port=dport
        )
        switch.add_exact_flow(
            extract_flow_key(bytes(frame), 0), output(1)
        )
    controller = ReactiveController(switch, lambda key, frame: output(1))
    return OpenFlowApp(switch), switch, controller


def run_scenario(
    name: str,
    seed: int = 1,
    packets: int = 2048,
    burst: int = 256,
    num_routes: int = 5_000,
    shard: Optional[Tuple[int, int]] = None,
) -> ChaosReport:
    """Run one named scenario through the full functional testbed.

    Frames are injected in bursts with a full router round between
    bursts, so RX rings, queues, and the GPU path all see realistic
    occupancy while faults fire and the shedding ladder classifies.
    Deterministic for a given ``(name, seed)``.

    ``shard=(k, n)`` runs shard *k* of an *n*-way RSS decomposition
    (docs/SHARDING.md): the identical full stream is generated, then
    filtered to the flows :class:`~repro.io_engine.rss.ShardMap`
    assigns to shard ``k`` before injection.  The union of all ``n``
    shard runs injects exactly the unsharded stream, so summed shard
    reports satisfy the same conservation identities — what the
    sharded differential suite asserts.  Whole-stream extras
    (established/attack traffic splits) are reported only unsharded.
    """
    from repro.core.solver import (
        app_throughput_report,
        degraded_throughput_report,
    )
    from repro.gen.adversarial import build_schedule
    from repro.testbed import Testbed

    scenario = SCENARIOS.get(name)
    if scenario is None:
        raise ValueError(
            f"unknown scenario {name!r} (choose from {', '.join(sorted(SCENARIOS))})"
        )
    if packets < 1 or burst < 1:
        raise ValueError("packets and burst must be positive")
    template = scenario.plan
    plan = FaultPlan(seed=seed, rules=template.rules, name=template.name)
    injector = plan.injector()
    overload = (
        OverloadController(scenario.slo) if scenario.overload else None
    )
    switch = None
    controller = None
    if scenario.app == "openflow":
        schedule = build_schedule(scenario.traffic, packets, seed, burst)
        app, switch, controller = _openflow_setup(schedule, seed)
        num_ports = 4
    else:
        app, dst_pool = _ipv4_setup(seed, num_routes)
        schedule = build_schedule(
            scenario.traffic, packets, seed, burst, dst_pool=dst_pool
        )
        # Flood runs get eight egress ports so every next hop has a wire
        # to land on (established goodput is counted at the sink).
        num_ports = 8 if scenario.overload else 4
    bed = Testbed(
        app, num_ports=num_ports, fault_injector=injector, overload=overload
    )
    bursts = schedule.bursts
    if shard is not None:
        shard_index, num_shards = shard
        if not 0 <= shard_index < num_shards:
            raise ValueError(f"shard {shard_index} out of {num_shards}")
        from repro.io_engine.rss import ShardMap

        # One map across all bursts: the round-robin fallback for
        # unhashable frames stays globally deterministic, so every
        # frame of the stream has exactly one owning shard.
        shard_map = ShardMap(num_shards)
        bursts = [shard_map.partition(group)[shard_index] for group in bursts]

    def _service_controller() -> None:
        """Drain packet-ins; packet-outs go out the switch TX directly.

        The frames were already accounted slow-path by the router, so
        this touches only the wire-side sink — conservation identities
        are unchanged.
        """
        from repro.openflow.actions import apply_actions

        for out_frame, actions in controller.service():
            buf = bytearray(out_frame)
            _, out_ports = apply_actions(buf, actions)
            for out_port in out_ports:
                if 0 <= out_port < len(bed.ports):
                    bed.sink.setdefault(out_port, []).append(bytes(buf))
                    bed.stats.transmitted += 1

    for group in bursts:
        bed.inject(group)
        bed.run_once()
        if controller is not None:
            _service_controller()
    bed.run_until_drained()
    if controller is not None:
        _service_controller()
    router = bed.router
    stats = router.stats
    report = ChaosReport(
        scenario=name,
        seed=seed,
        injected=bed.stats.injected,
        rx_dropped=bed.stats.rx_dropped,
        received=stats.received,
        forwarded=stats.forwarded,
        dropped=stats.dropped,
        slow_path=stats.slow_path,
        gpu_launches=stats.gpu_launches,
        gpu_retries=stats.gpu_retries,
        gpu_failures=stats.gpu_failures,
        degraded_chunks=stats.degraded_chunks,
        backpressure_drops=stats.backpressure_drops,
        breaker_opens=sum(b.opens for b in router.breakers.values()),
        breaker_closes=sum(b.closes for b in router.breakers.values()),
        watchdog_stalls=router.watchdog.stalls,
        degraded_mode=router.degraded_mode,
        faults_fired={
            site: count for site, count in injector.fired.items() if count
        },
        clean_gbps=app_throughput_report(app, 64, use_gpu=True).gbps,
        degraded_gbps=degraded_throughput_report(app, 64).gbps,
        cpu_only_gbps=app_throughput_report(app, 64, use_gpu=False).gbps,
    )
    if overload is not None:
        report.rx_shed = overload.rx_shed
        report.shed_by_class = dict(overload.shed_by_class)
        report.chunk_capacity_final = overload.chunk_capacity
        report.chunk_resizes = overload.resizes
        report.p99_ns = overload.p99_ns
        report.slo_budget_ns = overload.config.p99_budget_ns
    if switch is not None:
        report.flow_evictions = switch.exact.evictions
        report.flow_rejected = switch.exact.rejected_inserts
        report.flow_table_len = len(switch.exact)
        report.flow_table_cap = switch.exact.max_entries
    if schedule.established and shard is None:
        report.established_packets = schedule.established_packets
        report.attack_packets = schedule.attack_packets
        report.established_delivered = _count_established(
            bed.sink, schedule.established
        )
    return report
