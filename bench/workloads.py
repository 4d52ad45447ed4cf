"""The four workloads and how each is measured from outside.

Every repetition is a fresh child interpreter, timed from just before it
is created until it has been reaped.  Load is closed-loop with one client:
a burst is offered only when the previous one has returned.  Traffic is
in-memory frames; nothing crosses a link or the loopback interface, and
every number is host wall-clock time of the Python, not simulated cycles.

The work of one repetition is fixed (packet counts, never durations), so
two commits run the same length; ``--seconds`` only decides how many
repetitions a run makes, with a floor that keeps every median a median.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import hygiene
import oracle

CLI_COMMON = [
    "--json", "--app", "ipv4", "--num-routes", "0", "--packets", "2048",
]
#: Topology flags and ingress bursts of a full run.  The forked plane is
#: the faster of the two, so it gets more bursts for a comparable signal
#: above its (longer) set-up.
CLI = {
    "ipv4_inproc": {"flags": ["--inprocess", "--workers", "1"], "bursts": 32},
    "ipv4_fork2": {"flags": ["--workers", "2"], "bursts": 48},
}
PACKETS_PER_BURST = 2048
#: Repetitions a run makes at least: full and empty CLI runs alternate,
#: empty ones first and last; library children are cheaper.
MIN_FULL_RUNS = 2
MIN_CHILDREN = 3
#: A full run in which chunks crossed the process boundary as byte copies
#: (``shm_fallbacks`` > 0) took another data path than the one the
#: workload names: its count is recorded, it is kept out of the medians
#: and another run makes up for it, up to this many full runs in all.
MAX_FULL_RUNS = 5
#: The differential pair runs on the small default table: shard-versus-
#: reference agreement does not depend on table size, set-up time does.
DIFF_ARGS = ["--json", "--app", "ipv4", "--num-routes", "5000",
             "--packets", "2048", "--bursts", "4"]


@dataclass
class Result:
    """One run of one workload."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: Failed checks; any makes the run incorrect.
    notes: List[str] = field(default_factory=list)
    #: Things worth a line on stderr that do not fail the run.
    warnings: List[str] = field(default_factory=list)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Verdict totals and per-port egress (what ``expected.json`` pins).
    observed: Dict[str, Dict[str, int]] = field(default_factory=dict)


def two_point_kpps(packets: int, full_s: float, empty_s: float) -> float:
    """Steady-state rate from two runs of one command: thousands of
    packets per second of the time the packets added to an empty run."""
    return packets / (full_s - empty_s) / 1e3


def repro_run(args: List[str]) -> hygiene.ChildRun:
    return hygiene.run_child([sys.executable, "-m", "repro", "run"] + args)


def differential_check(seed: int) -> oracle.Check:
    """The forked plane against the sequential reference, same stream."""
    packets = 4 * PACKETS_PER_BURST
    seed_args = DIFF_ARGS + ["--seed", str(seed)]
    reports, failed, notes = [], 0, []
    for flags in (["--inprocess", "--workers", "2"], ["--workers", "2"]):
        run = repro_run(seed_args + flags)
        notes += run.problems
        report = json.loads(run.stdout) if run.returncode == 0 else {}
        missed, why = oracle.check_cli_report(report, run.returncode, packets)
        failed += missed
        notes += why
        reports.append(report)
    if not failed:
        missed, why = oracle.check_same_outputs(
            "forked vs in-process", reports[0], reports[1]
        )
        failed += missed
        notes += why
    return failed, notes


def measure_cli(name: str, seed: int, seconds: float) -> Result:
    """Alternate the empty command (``--bursts 0``) and the full one."""
    spec = CLI[name]
    bursts = spec["bursts"]
    packets = bursts * PACKETS_PER_BURST
    base = CLI_COMMON + spec["flags"] + ["--seed", str(seed)]
    empty_s: List[float] = []
    #: ``(wall_s, peak_rss_mb, shm_fallbacks)`` of every full run, in order.
    full_runs: List[Tuple[float, float, int]] = []
    reports: List[dict] = []
    failed, notes, warnings = 0, [], []
    deadline = time.monotonic() + seconds

    def one(run_bursts: int) -> None:
        nonlocal failed
        run = repro_run(base + ["--bursts", str(run_bursts)])
        notes.extend(run.problems)
        report = json.loads(run.stdout) if run.returncode == 0 else {}
        missed, why = oracle.check_cli_report(
            report, run.returncode, run_bursts * PACKETS_PER_BURST
        )
        failed += missed
        notes.extend(why)
        if not run_bursts:
            empty_s.append(run.wall_s)
            return
        full_runs.append(
            (run.wall_s, run.peak_rss_mb, report.get("shm_fallbacks", 0))
        )
        if not missed:
            reports.append(report)     # outputs must be exact on either path

    def zero_copy() -> List[Tuple[float, float, int]]:
        return [run for run in full_runs if not run[2]]

    one(0)
    while len(full_runs) < MAX_FULL_RUNS and (
        len(zero_copy()) < MIN_FULL_RUNS or time.monotonic() < deadline
    ):
        one(bursts)
        one(0)
    fallbacks = [copied for _, _, copied in full_runs]
    used = zero_copy()
    if len(used) < len(full_runs):
        warnings.append(
            f"chunks crossed as byte copies (shm_fallbacks per full run: "
            f"{fallbacks}); "
            + ("those runs are kept out of the medians"
               if len(used) >= MIN_FULL_RUNS else
               "too few runs stayed in shared memory, so the medians mix "
               "both data paths")
        )
    if len(used) < MIN_FULL_RUNS:
        used = full_runs

    for report in reports[1:]:
        missed, why = oracle.check_same_outputs("repeat run", reports[0], report)
        failed += missed
        notes += why
    if reports:
        missed, why = oracle.check_pinned(name, seed, reports[0])
        failed += missed
        notes += why
    missed, why = differential_check(seed)
    failed += missed
    notes += why

    full = statistics.median(wall for wall, _, _ in used)
    empty = statistics.median(empty_s)
    return Result(
        metrics={
            "kpps": two_point_kpps(packets, full, empty),
            "wall_s": full,
            "setup_s": empty,
            "peak_rss_mb": statistics.median(rss for _, rss, _ in used),
        },
        attempted=packets * len(full_runs) + 2 * 4 * PACKETS_PER_BURST,
        failed=failed,
        notes=notes,
        warnings=warnings,
        samples={"full_s": [wall for wall, _, _ in full_runs],
                 "empty_s": empty_s,
                 "rss_mb": [rss for _, rss, _ in full_runs],
                 "shm_fallbacks": fallbacks},
        observed={k: reports[0][k] for k in ("totals", "egress")} if reports else {},
    )


def measure_library(name: str, seed: int, seconds: float) -> Result:
    """Repeat ``child.py``: each child sets up once and times its passes."""
    argv = [sys.executable, str(hygiene.ROOT / "bench" / "child.py"),
            name, str(seed)]
    walls: List[float] = []
    setups: List[float] = []
    rss: List[float] = []
    passes: List[float] = []
    attempted = failed = 0
    notes: List[str] = []
    observed = None
    deadline = time.monotonic() + seconds
    while len(walls) < MIN_CHILDREN or time.monotonic() < deadline:
        run = hygiene.run_child(argv)
        notes += run.problems
        if run.returncode != 0:
            raise RuntimeError(f"{name}: child exited {run.returncode}")
        out = json.loads(run.stdout)
        walls.append(run.wall_s)
        setups.append(out["ready_at"] - run.started_at)
        rss.append(run.peak_rss_mb)
        passes += out["pass_s"]
        attempted += out["packets_per_pass"] * len(out["pass_s"])
        failed += out["failed"]
        notes += out["notes"]
        if observed is not None and observed != out["observed"]:
            failed += 1
            notes.append(f"{name}: two children disagree on their outputs")
        observed = out["observed"]
    missed, why = oracle.check_pinned(name, seed, observed)
    failed += missed
    notes += why
    return Result(
        metrics={
            "kpps": out["packets_per_pass"] / statistics.median(passes) / 1e3,
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(rss),
        },
        attempted=attempted,
        failed=failed,
        notes=notes,
        samples={"wall_s": walls, "setup_s": setups, "pass_s": passes,
                 "rss_mb": rss},
        observed=observed,
    )


MEASURE: Dict[str, Callable[[str, int, float], Result]] = {
    "ipv4_inproc": measure_cli,
    "ipv4_fork2": measure_cli,
    "ipv4_chunks": measure_library,
    "ipsec_frames": measure_library,
}
