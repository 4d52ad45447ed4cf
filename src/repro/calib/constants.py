"""Fitted constants of the performance model.

Organisation: one frozen dataclass per hardware/software subsystem, plus the
module-level default instances the rest of the library imports.  Each field
cites the paper anchor it reproduces.  The defaults model the paper's test
system (Table 2): 2x Intel Xeon X5550 (Nehalem, 4 cores, 2.66 GHz), 12 GB
DDR3-1333, 2x NVIDIA GTX480, 4x Intel 82599 dual-port 10 GbE, dual Intel
5520 IOH motherboard.

Units: times in nanoseconds, rates in bytes/second unless stated otherwise.
Throughputs follow the paper's convention of charging 24 B Ethernet overhead
per frame (paper footnote 1).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CPUModel:
    """An Intel Xeon X5550 socket (paper Table 2 and Section 2.4)."""

    #: Core clock, Hz.  Table 2: 2.66 GHz.
    clock_hz: float = 2.66e9
    #: Cores per socket.  Table 2: quad-core.
    cores: int = 4
    #: DRAM access latency from a core to its local node, ns.  Typical
    #: Nehalem local-node latency; consistent with the paper's observation
    #: that 7 dependent accesses dominate IPv6 lookup.
    dram_latency_ns: float = 60.0
    #: Node-crossing latency penalty.  Section 4.5: "40-50% increased
    #: access time" — we use the midpoint.
    remote_latency_factor: float = 1.45
    #: Node-crossing bandwidth penalty.  Section 4.5: "20-30% lower
    #: bandwidth" — midpoint.
    remote_bandwidth_factor: float = 0.75
    #: Peak memory bandwidth per socket, B/s.  Section 2.4: 32 GB/s.
    mem_bandwidth: float = 32e9
    #: Maximum outstanding cache misses for a single busy core.
    #: Section 2.4: "about 6 outstanding cache misses in the optimal case".
    mshr_single_core: int = 6
    #: Outstanding misses per core when all four cores burst references.
    #: Section 2.4: "only 4 misses when all four cores burst".
    mshr_all_cores: int = 4
    #: Cache line size, bytes (x86; Sections 2.4 and 4.4).
    cache_line: int = 64

    @property
    def cycle_ns(self) -> float:
        """Duration of one core cycle in ns."""
        return 1e9 / self.clock_hz

    def cycles(self, ns: float) -> float:
        """Convert a duration in ns to core cycles."""
        return ns * self.clock_hz / 1e9


@dataclass(frozen=True)
class GPUModel:
    """An NVIDIA GTX480 (paper Section 2.1, Figure 1)."""

    #: Streaming multiprocessors.  Figure 1: 15 SMs.
    num_sms: int = 15
    #: Stream processors per SM.  Figure 1: 32 SPs -> 480 cores total.
    sps_per_sm: int = 32
    #: Shader clock, Hz.  Table 2: 1.4 GHz.
    clock_hz: float = 1.4e9
    #: Threads per warp (Section 2.1).
    warp_size: int = 32
    #: Resident warps an SM scheduler holds (Section 2.1: "up to 32 warps").
    max_warps_per_sm: int = 32
    #: Device memory size, bytes.  Table 2: 1.5 GB.
    device_memory: int = 1536 * 1024 * 1024
    #: Device memory bandwidth, B/s.  Section 2.4: 177.4 GB/s.
    mem_bandwidth: float = 177.4e9
    #: Device memory access latency, in shader cycles.  Fermi global-memory
    #: latency is ~400-800 cycles; 600 is the conventional midpoint.
    mem_latency_cycles: float = 600.0
    #: Memory transaction granularity, bytes (Fermi L1 line / coalescing
    #: unit).  Random per-thread accesses each move one such transaction.
    transaction_bytes: int = 128
    #: Kernel launch latency for one thread, ns.  Section 2.2: 3.8 us.
    launch_latency_ns: float = 3800.0
    #: Incremental launch latency per thread, ns.  Section 2.2: 4.1 us at
    #: 4096 threads -> (4100 - 3800) / 4096 = 0.073 ns/thread.
    launch_latency_per_thread_ns: float = 0.073
    #: Per-batch host-side synchronisation / driver / master-thread proxy
    #: overhead, ns.  Fitted so that the Figure 2 IPv6-lookup crossovers
    #: land at ~320 packets (vs. one X5550) and ~640 (vs. two): the region
    #: where per-batch fixed costs dominate GPU throughput.
    sync_overhead_ns: float = 40000.0
    #: Fraction of peak memory bandwidth achievable with scattered
    #: (table-lookup) access patterns.  Fitted so that GPU IPv6 lookup
    #: saturates near 10x one X5550 (Figure 2, "comparable to about ten
    #: X5550 processors").
    scattered_bw_efficiency: float = 0.45

    @property
    def total_cores(self) -> int:
        """Total stream processors (480 for GTX480)."""
        return self.num_sms * self.sps_per_sm

    @property
    def cycle_ns(self) -> float:
        """Duration of one shader cycle in ns."""
        return 1e9 / self.clock_hz


@dataclass(frozen=True)
class PCIeModel:
    """PCIe 2.0 x16 transfer times on the dual-IOH board (paper Table 1).

    The model is ``t(bytes) = fixed_ns + bytes / bandwidth``; the two
    directions differ because of the dual-IOH asymmetry (Section 3.2).
    Fitted to all seven Table 1 columns (within ~12%; ``BENCH_table1.json``
    has the side-by-side).
    """

    #: Host-to-device fixed cost per transfer, ns (fits 256 B @ 55 MB/s).
    h2d_fixed_ns: float = 4600.0
    #: Host-to-device streaming bandwidth, B/s (fits 1 MB @ 5577 MB/s).
    h2d_bandwidth: float = 5.8e9
    #: Device-to-host fixed cost per transfer, ns (fits 256 B @ 63 MB/s).
    d2h_fixed_ns: float = 4060.0
    #: Device-to-host streaming bandwidth, B/s (fits 1 MB @ 3394 MB/s;
    #: lower than h2d — this asymmetry *is* the dual-IOH problem).
    d2h_bandwidth: float = 3.6e9


@dataclass(frozen=True)
class IOHModel:
    """Aggregate I/O ceilings of one Intel 5520 IOH (paper Sections 3.2, 4.6).

    The paper concludes the ~40 Gbps forwarding plateau "lies in I/O" and
    blames the dual-IOH board.  We encode the empirically measured ceilings
    per IOH; the system has two.
    """

    #: Device-to-host (NIC RX DMA) ceiling per IOH, wire-Gbps equivalent.
    #: Figure 6: RX-only peaks at 59.9 Gbps over two IOHs.
    rx_ceiling_gbps: float = 30.0
    #: Host-to-device (NIC TX DMA) ceiling per IOH.  Figure 6: TX reaches
    #: 80.0 Gbps over two IOHs (line rate; the IOH is not the TX binding
    #: constraint at large sizes but caps 64 B TX at 79.3).
    tx_ceiling_gbps: float = 40.0
    #: Bidirectional (simultaneous RX+TX) ceiling per IOH.  Figure 6:
    #: minimal forwarding plateaus at 41.1 Gbps @64 B over two IOHs.
    bidir_ceiling_gbps: float = 20.0
    #: Extra 64 B headroom: small frames see slightly *higher* forwarding
    #: (41.1) than large (40.0) in Figure 6; modelled as a small per-frame
    #: bonus that vanishes with size.
    bidir_small_frame_bonus_gbps: float = 0.55
    #: Per-packet DMA descriptor/completion overhead, expressed as
    #: equivalent wire bytes.  Makes RX efficiency size-dependent:
    #: 53.1 Gbps @64 B vs 59.9 @1514 B (Figure 6).
    rx_per_packet_overhead_bytes: float = 11.0
    #: Same for TX; TX descriptors are cheaper (79.3 vs 80.0 Gbps).
    tx_per_packet_overhead_bytes: float = 0.8
    #: Fraction of a GPU PCIe byte that displaces NIC DMA budget on the
    #: shared IOH.  Fitted so IPv4 forwarding drops from 41 to 39 Gbps and
    #: IPv6 to 38.2 when GPU transfers join (Figure 11a/b vs Figure 6).
    gpu_displacement_factor: float = 0.35
    #: Throughput factor for NUMA-blind I/O.  Section 4.5: NUMA-blind
    #: placement limits forwarding below 25 Gbps vs ~40 NUMA-aware (+60%).
    numa_blind_factor: float = 0.61
    #: Throughput factor when all packets cross to the other node's ports.
    #: Figure 6 "node-crossing" bars: still above 40 Gbps, slightly below
    #: the in-node case.
    node_crossing_factor: float = 0.995


@dataclass(frozen=True)
class NICModel:
    """An Intel 82599 10 GbE port (paper Table 2, Section 4)."""

    #: Line rate per port, bits/s.
    line_rate_bps: float = 10e9
    #: RX descriptor ring size (ixgbe default).
    rx_ring_size: int = 1024
    #: TX descriptor ring size.
    tx_ring_size: int = 1024
    #: Maximum interrupt moderation interval, ns.  Causes the elevated
    #: round-trip latency at low offered load in Figure 12 ("interrupt
    #: moderation in NICs [28]"); ixgbe-era bulk ITR of ~125 us.
    interrupt_moderation_ns: float = 125_000.0
    #: Dynamic ITR: the driver retunes the timer toward a target number
    #: of packets per interrupt, so the effective window shrinks as the
    #: per-queue rate grows (ixgbe's adaptive low-latency modes).
    itr_target_packets: float = 16.0
    #: Shortest effective moderation window, ns.
    itr_min_ns: float = 4_000.0
    #: Huge-packet-buffer cell size, bytes.  Section 4.2: 2048 B cells.
    buffer_cell_size: int = 2048
    #: Compact metadata cell size, bytes.  Section 4.2: 8 B (vs 208 B skb).
    metadata_cell_size: int = 8


@dataclass(frozen=True)
class IOEngineCosts:
    """CPU cycle costs of the optimized packet I/O engine (Sections 4.3, 4.6).

    The two anchors are Figure 5's endpoints with one core and two ports:
    batch=1 forwards 0.78 Gbps of 64 B frames (1.108 Mpps -> 2401
    cycles/pkt at 2.66 GHz) and batch=64 forwards 10.5 Gbps (14.91 Mpps ->
    178 cycles/pkt).  A two-term model ``cycles/pkt = per_batch/batch +
    per_packet`` through those anchors gives the constants below.
    """

    #: Cycles charged once per batch: the system call, PCIe register I/O
    #: (doorbell), interrupt handling, and batch bookkeeping.
    per_batch_cycles: float = 2258.0
    #: Cycles charged per packet with all Section 4 optimizations on:
    #: huge-buffer cell recycling, prefetched descriptors+data, the
    #: kernel-to-user copy (paper: copy takes <20% of packet I/O cycles).
    per_packet_cycles: float = 143.0
    #: Per-packet cycles for RX only (receive and drop).  Roughly the
    #: receive half of forwarding.
    rx_only_per_packet_cycles: float = 75.0
    #: Per-packet cycles for TX only.
    tx_only_per_packet_cycles: float = 60.0
    #: Fraction of per-packet cycles spent on the kernel/user copy
    #: (Section 4.3: "less than 20% of CPU cycles out of total packet I/O").
    copy_fraction: float = 0.18
    #: Penalty factor on per-packet cycles without software prefetch
    #: (compulsory cache miss per packet returns: Table 3 shows misses are
    #: 13.8% of the *unoptimized* budget; against the optimized 143-cycle
    #: budget one ~160-cycle miss more than doubles the cost).
    no_prefetch_extra_cycles: float = 160.0
    #: Multi-queue scaling imperfection before the false-sharing and
    #: per-queue-counter fixes of Section 4.4: per-packet cycles grow ~20%
    #: from 1 to 8 cores.  After the fixes scaling is linear (factor 0).
    unaligned_scaling_penalty: float = 0.20


@dataclass(frozen=True)
class LinuxStackCosts:
    """Per-packet cycle costs of the unmodified Linux RX path (Table 3).

    Table 3 gives the *shares*; the absolute scale is set so that an
    unmodified driver is roughly an order of magnitude costlier per packet
    than the optimized engine, consistent with RouteBricks-era numbers
    (~2000+ cycles per packet for kernel-stack RX).
    """

    #: Total per-packet RX cycles for receive-and-drop with skb allocation.
    total_cycles: float = 1200.0
    #: Table 3 shares, by functional bin.
    share_skb_init: float = 0.049
    share_skb_alloc: float = 0.080
    share_memory_subsystem: float = 0.502
    share_nic_driver: float = 0.133
    share_others: float = 0.098
    share_cache_miss: float = 0.138


@dataclass(frozen=True)
class AppCosts:
    """Per-packet CPU cycle costs of the four applications (Section 6.2).

    Lookup costs follow the paper's own accounting: DIR-24-8 is one
    dependent DRAM access (plus TLB pressure on the 32 MB table) for ~97%
    of RouteViews-distributed prefixes; the IPv6 binary search is seven
    dependent probes, each a hash computation plus a likely miss.  Crypto
    costs use SSE-optimized cycles/byte figures of the 2010 era.  The
    CPU-only anchors: IPv4 ~28 Gbps, IPv6 ~8 Gbps, IPsec ~2.9 Gbps at
    64 B with eight workers (Figure 11); the CPU+GPU worker-side anchors:
    39 / 38.2 Gbps with six workers (the pre-/post-shading budget).
    """

    #: Fast-path header work every forwarded packet pays in the worker:
    #: sanity checks, slow-path classification, TTL + checksum update.
    fast_path_header_cycles: float = 45.0
    #: Routing decision / port split after the lookup (CPU-only mode).
    routing_decision_cycles: float = 30.0
    #: One DIR-24-8 lookup on the CPU: a dependent DRAM access over a
    #: 32 MB table, including the TLB miss such a table incurs.
    ipv4_cpu_lookup_cycles: float = 330.0
    #: One IPv6 binary-search probe on the CPU: hash computation plus the
    #: hash-table access (Section 6.2.2: seven per lookup).
    ipv6_cpu_probe_cycles: float = 240.0
    #: Probes per IPv6 lookup (ceil(log2 128)).
    ipv6_probes: int = 7
    #: Extra worker gather cost for 16 B IPv6 addresses vs 4 B IPv4 ones.
    ipv6_gather_extra_cycles: float = 5.0
    #: OpenFlow: extract the 10-field flow key from headers.
    of_extract_cycles: float = 60.0
    #: OpenFlow: hash-value computation over the flow key (CPU-only mode;
    #: offloaded to the GPU in CPU+GPU mode).
    of_hash_cycles: float = 180.0
    #: OpenFlow: exact-match bucket probe, CPU-only mode (a serialized
    #: cache miss).
    of_exact_probe_cpu_cycles: float = 160.0
    #: Same probe in CPU+GPU mode: with the hash precomputed by the GPU
    #: the worker batch-prefetches buckets, overlapping the misses.
    of_exact_probe_gpu_mode_cycles: float = 40.0
    #: OpenFlow: apply the matched action list.
    of_action_cycles: float = 10.0
    #: OpenFlow: compare the key against one wildcard entry (linear
    #: search, CPU-only mode).
    of_wildcard_entry_cycles: float = 14.0
    #: AES-128-CTR with SSE, cycles per byte (pre-AES-NI optimized x86).
    aes_sse_cycles_per_byte: float = 18.0
    #: SHA-1, cycles per byte (optimized x86).
    sha1_cycles_per_byte: float = 13.0
    #: Per-packet ESP overhead: header/trailer assembly, IV generation,
    #: padding, sequence numbers, SA lookup.
    esp_fixed_cycles: float = 400.0
    #: HMAC pads: two extra SHA-1 blocks (ipad/opad), 128 bytes.
    hmac_extra_bytes: int = 128
    #: ESP tunnel-mode byte expansion beyond the inner packet that is
    #: encrypted/authenticated (ESP header + IV + trailer).
    esp_expansion_bytes: int = 38
    #: Worker-side memcpy cost, cycles per byte, for staging whole packet
    #: payloads into/out of the GPU input/output buffers (IPsec is the
    #: only application that ships payloads, not just addresses).
    copy_cycles_per_byte: float = 0.4
    #: Per-packet worker-side fixed cost in the IPsec CPU+GPU path: ESP
    #: encapsulation, SA lookup, IV/metadata marshalling for the GPU.
    #: Fitted with ``copy_cycles_per_byte`` to Figure 11(d)'s CPU+GPU
    #: curve (10.2 Gbps @64 B; worker-bound, since the paper notes CPUs
    #: "have not been 100% utilized" and GPUs alone reach 33 Gbps).
    ipsec_gpu_worker_fixed_cycles: float = 700.0


@dataclass(frozen=True)
class GPUKernelCosts:
    """Per-work-item costs of the GPU kernels (Section 6.2).

    Compute cycles are per thread; memory accesses are random-table-access
    counts fed into the GPU latency/bandwidth model.  IPsec constants are
    fitted to Figure 11(d): the two-GPU crypto pipeline saturates at
    ~33 Gbps without packet I/O (Section 6.3) and delivers 3.5x the CPU
    throughput end-to-end.
    """

    #: IPv4 DIR-24-8: compute cycles per lookup thread.
    ipv4_compute_cycles: float = 40.0
    #: IPv4: dependent memory accesses per lookup (1 + 3% second access).
    ipv4_mem_accesses: float = 1.03
    #: IPv6 binary search: compute cycles (7 hashes).
    ipv6_compute_cycles: float = 320.0
    #: IPv6: dependent memory accesses (7 probes).
    ipv6_mem_accesses: float = 7.0
    #: OpenFlow: hash + wildcard compare compute cycles per packet thread.
    of_compute_cycles: float = 260.0
    #: OpenFlow: memory accesses per packet for the exact-match probe.
    of_mem_accesses: float = 2.0
    #: OpenFlow: cycles per wildcard entry comparison per packet.
    of_wildcard_entry_cycles: float = 1.1
    #: AES-128-CTR on GPU: cycles per 16 B block thread (table-based,
    #: shared-memory T-boxes; Section 6.2.4 maps one thread per block).
    aes_block_cycles: float = 220.0
    #: SHA-1 on GPU: cycles per 64 B block (packet-level parallelism only).
    sha1_block_cycles: float = 520.0
    #: Per-packet fixed GPU work for IPsec (ESP assembly on CPU excluded).
    ipsec_fixed_cycles: float = 60.0


@dataclass(frozen=True)
class FrameworkCosts:
    """Cycle costs of the PacketShader framework itself (Section 5).

    These govern the CPU+GPU data path: chunk assembly, input/output queue
    handshakes between workers and masters, and the master's per-chunk
    bookkeeping.  Scale chosen so the six worker threads comfortably
    sustain ~55 Mpps of pre/post-shading (the paper's CPUs "have not been
    100% utilized" in GPU mode).
    """

    #: Worker cycles per packet in pre-shading beyond the I/O engine cost
    #: (classification + building the GPU input array).
    pre_shading_cycles: float = 55.0
    #: Worker cycles per packet in post-shading (apply results, split to
    #: destination ports).
    post_shading_cycles: float = 45.0
    #: Cycles per chunk handoff through the master's input queue.
    queue_handoff_cycles: float = 350.0
    #: Maximum packets per chunk (the cap; Section 5.3 says the chunk size
    #: is "not fixed but only capped").
    chunk_capacity: int = 1024
    #: Maximum chunks the master gathers into one GPU launch (Section 5.4
    #: gather/scatter).
    max_gather_chunks: int = 3


@dataclass(frozen=True)
class SystemSpec:
    """The paper's whole test system (Table 2 and Figure 3)."""

    num_nodes: int = 2
    cpus_per_node: int = 1
    gpus_per_node: int = 1
    nics_per_node: int = 2
    ports_per_nic: int = 2
    #: Threads in CPU+GPU mode: 3 workers + 1 master per node (Section 5.1).
    workers_per_node_gpu_mode: int = 3
    masters_per_node: int = 1
    #: Threads in CPU-only mode: all four cores run workers (Section 6.1).
    workers_per_node_cpu_mode: int = 4
    #: Prices, USD (Table 2; checkout.google.com, June 2010).
    price_cpu: int = 925
    price_ram: int = 64
    price_motherboard: int = 483
    price_gpu: int = 500
    price_nic: int = 628
    #: Chassis, power supply, storage, and other components (the paper's
    #: "total system (including all other components)" rounds to $7,000).
    price_misc: int = 750
    ram_modules: int = 6
    #: Power draw, W (Section 7): full load with/without GPUs, idle
    #: with/without GPUs.
    power_full_gpu_w: int = 594
    power_full_cpu_w: int = 353
    power_idle_gpu_w: int = 327
    power_idle_cpu_w: int = 260

    @property
    def total_ports(self) -> int:
        """10 GbE ports in the system (8)."""
        return self.num_nodes * self.nics_per_node * self.ports_per_nic

    @property
    def total_cost(self) -> int:
        """Approximate system cost; the paper rounds to $7,000."""
        return (
            self.num_nodes * self.price_cpu
            + self.ram_modules * self.price_ram
            + self.price_motherboard
            + self.num_nodes * self.price_gpu
            + self.num_nodes * 2 * self.price_nic
            + self.price_misc
        )


# Default instances modelling the paper's test system.
CPU = CPUModel()
GPU = GPUModel()
PCIE = PCIeModel()
IOH = IOHModel()
NIC = NICModel()
IO_ENGINE = IOEngineCosts()
LINUX_STACK = LinuxStackCosts()
APPS = AppCosts()
GPU_KERNELS = GPUKernelCosts()
FRAMEWORK = FrameworkCosts()
SYSTEM = SystemSpec()
