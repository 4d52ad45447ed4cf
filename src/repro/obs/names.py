"""The canonical metric-name catalog (one constant per metric).

Every name passed to the metrics registry — ``registry.counter(...)``,
``registry.gauge(...)``, ``registry.histogram(...)`` — is one of these
constants, written as ``names.X``: a typo'd attribute raises at import
or first call instead of forking a time series, and the shared-memory
registry refuses any name outside the catalog.  The catalog tests
(``tests/analysis/test_names_catalog.py``) close the loop: no call site
passes a string literal, every constant has a user outside this module
(an orphan would chart as permanently zero), and a traced run registers
catalog names only.

Naming convention (docs/OBSERVABILITY.md): dotted ``<layer>.<what>``
strings, mirrored here as ``LAYER_WHAT`` constants, grouped by layer in
pipeline order.  Trace *stage* names live in
:class:`repro.obs.trace.Stages`, fault *site* names in
:class:`repro.faults.plan.Sites`; this module owns only the registry
namespace.  Keep it import-free so every layer can use it without
cycles.
"""

from __future__ import annotations

# -- io_engine: packet I/O driver and engine (Section 4) ---------------
IO_DRIVER_RX_PACKETS = "io.driver_rx_packets"
IO_DRIVER_RX_DROPS = "io.driver_rx_drops"
IO_DRIVER_FETCHED_PACKETS = "io.driver_fetched_packets"
IO_DRIVER_FETCH_BATCH_SIZE = "io.driver_fetch_batch_size"
IO_EFFECTIVE_BATCH_SIZE = "io.effective_batch_size"
IO_ENGINE_RX_PACKETS = "io.engine_rx_packets"
IO_ENGINE_RX_CHUNKS = "io.engine_rx_chunks"
IO_ENGINE_CHUNK_SIZE = "io.engine_chunk_size"
IO_ENGINE_TX_PACKETS = "io.engine_tx_packets"

# -- core: the router framework and its queues (Section 5) -------------
ROUTER_RECEIVED_PACKETS = "router.received_packets"
ROUTER_FORWARDED_PACKETS = "router.forwarded_packets"
ROUTER_DROPPED_PACKETS = "router.dropped_packets"
ROUTER_SLOW_PATH_PACKETS = "router.slow_path_packets"
ROUTER_CHUNKS = "router.chunks"
ROUTER_CHUNK_SIZE = "router.chunk_size"
ROUTER_GPU_LAUNCHES = "router.gpu_launches"
ROUTER_KERNEL_CALLS = "router.kernel_calls"
ROUTER_GATHERED_CHUNKS = "router.gathered_chunks"
ROUTER_GPU_RETRIES = "router.gpu_retries"
ROUTER_GPU_FAILURES = "router.gpu_failures"
ROUTER_DEGRADED_CHUNKS = "router.degraded_chunks"
ROUTER_BACKPRESSURE_DROPS = "router.backpressure_drops"
CORE_MASTER_INPUT_DEPTH = "core.master_input_depth"
CORE_MASTER_INPUT_ENQUEUED = "core.master_input_enqueued"
CORE_MASTER_INPUT_REJECTED = "core.master_input_rejected"
CORE_WORKER_OUTPUT_DEPTH = "core.worker_output_depth"

# -- hw: device models (GPU, PCIe) -------------------------------------
GPU_LAUNCHES = "gpu.launches"
GPU_LAUNCH_ERRORS = "gpu.launch_errors"
GPU_BUSY_NS = "gpu.busy_ns"
GPU_LAUNCH_TOTAL_NS = "gpu.launch_total_ns"
PCIE_BYTES = "pcie.bytes"
PCIE_TRANSFERS = "pcie.transfers"
PCIE_TRANSFER_NS = "pcie.transfer_ns"
PCIE_DMA_ERRORS = "pcie.dma_errors"

# -- faults: injection and the recovery ladder (docs/RESILIENCE.md) ----
FAULTS_INJECTED = "faults.injected"
FAULTS_DEGRADED_MODE = "faults.degraded_mode"
FAULTS_BREAKER_OPENS = "faults.breaker_opens"
FAULTS_BREAKER_PROBES = "faults.breaker_probes"
FAULTS_WATCHDOG_STALLS = "faults.watchdog_stalls"

# -- overload control: shedding, adaptive chunking, flow-table guards --
OVERLOAD_SHED_PACKETS = "overload.shed_packets"
OVERLOAD_CHUNK_CAPACITY = "overload.chunk_capacity"
OVERLOAD_RESIZES = "overload.resizes"
OVERLOAD_P99_NS = "overload.p99_ns"
OVERLOAD_PRESSURE = "overload.pressure"
OVERLOAD_FLOW_EVICTIONS = "overload.flow_evictions"
OVERLOAD_FLOW_REJECTED_INSERTS = "overload.flow_rejected_inserts"

# -- sim / gen / obs housekeeping --------------------------------------
SIM_SOJOURN_NS = "sim.sojourn_ns"
GEN_FRAMES = "gen.frames"
LOG_RECORDS = "log.records"

# -- obs second generation: flight recorder and wall-clock profiler ----
FLIGHTREC_EVENTS = "flightrec.events"
FLIGHTREC_DUMPS = "flightrec.dumps"
PROF_STAGE_WALL_NS = "prof.stage_wall_ns"

# -- obs third generation: shared-memory slabs + cross-process merge ---
OBS_AGG_WALL_NS = "obs.agg_wall_ns"
OBS_SLAB_BYTES = "obs.slab_bytes"
OBS_MERGE_EVENTS = "obs.merge_events"
OBS_RING_DROPPED_SLOTS = "obs.ring_dropped_slots"

# -- shard: the multi-process data plane (docs/SHARDING.md) ------------
SHARD_CHUNKS_SUBMITTED = "shard.chunks_submitted"
SHARD_CHUNKS_RETURNED = "shard.chunks_returned"
SHARD_POOL_SLOTS_USED = "shard.pool_slots_used"
SHARD_POOL_FALLBACKS = "shard.pool_fallbacks"
SHARD_POOL_REPACKS = "shard.pool_repacks"
SHARD_MASTER_BATCHES = "shard.master_batches"
SHARD_MASTER_CHUNKS = "shard.master_chunks"

# -- perf: benchmark registry and the scorecard (docs/PERF.md) ---------
BENCH_RUNS = "bench.runs"
BENCH_FIGURES = "bench.figures"
BENCH_SERIES_POINTS = "bench.series_points"
BENCH_FIDELITY = "bench.fidelity"
BENCH_RUN_SECONDS = "bench.run_seconds"
BENCH_REGRESSIONS = "bench.regressions"

#: Every canonical metric name (what the shared-memory registry and
#: the catalog tests validate registered names against).
METRIC_NAMES = frozenset(
    value
    for name, value in list(globals().items())
    if name.isupper() and isinstance(value, str)
)
