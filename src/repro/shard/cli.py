"""``python -m repro run``: drive the sharded data plane from the CLI.

The operational entry point of docs/SHARDING.md: runs a forwarding
workload across N real worker processes (plus the master in this
process), prints the merged report, and exits nonzero when any worker
fails or the merged ingress identity is violated — the CI sharded
smoke job asserts on the exit status alone.

``--workers 1`` still exercises the full cross-process machinery (one
worker, one master, descriptors over queues); ``--inprocess`` runs the
sequential reference decomposition instead, for quick differential
checks without forking.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.shard.plane import PlaneSpec, run_plane, run_plane_inprocess


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="run a forwarding workload on the sharded data plane",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="worker processes (default 2)",
    )
    parser.add_argument(
        "--app", default="ipv4", choices=("ipv4", "ipv6", "openflow"),
        help="application to run (default ipv4)",
    )
    parser.add_argument(
        "--packets", type=int, default=2048, metavar="N",
        help="frames per ingress burst, pre-partition (default 2048)",
    )
    parser.add_argument(
        "--bursts", type=int, default=4, metavar="N",
        help="ingress bursts (default 4)",
    )
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument(
        "--num-routes", type=int, default=5_000, metavar="N",
        help="routing-table size (default 5000); with --app ipv4, 0 means "
             "the full 282,797-prefix RouteViews-shaped table",
    )
    parser.add_argument(
        "--dump-dir", default=None, metavar="DIR",
        help="write per-worker flight-recorder dumps here",
    )
    parser.add_argument(
        "--inprocess", action="store_true",
        help="run the sequential reference decomposition (no forking)",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    return parser


def run_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.workers < 1:
        print("run: --workers must be >= 1", file=sys.stderr)
        return 2
    spec = PlaneSpec(
        app=args.app,
        workers=args.workers,
        packets=args.packets,
        bursts=args.bursts,
        seed=args.seed,
        num_routes=args.num_routes,
        dump_dir=args.dump_dir,
    )
    report = (
        run_plane_inprocess(spec) if args.inprocess else run_plane(spec)
    )
    failed = [
        w.worker_id for w in report.workers if w.exitcode not in (0, None)
    ] + [
        w.worker_id for w in report.workers if w.exitcode is None
    ]
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        mode = "in-process" if args.inprocess else "multi-process"
        print(f"repro run — {args.app} on {args.workers} shards ({mode})")
        print(
            f"  injected {report.injected}  received {report.received}  "
            f"forwarded {report.forwarded}  dropped {report.dropped}  "
            f"slow-path {report.slow_path}"
        )
        for worker in report.workers:
            print(
                f"  worker {worker.worker_id}: received {worker.received}  "
                f"forwarded {worker.forwarded}  chunks {worker.chunks}  "
                f"exit {worker.exitcode}"
            )
        print(
            f"  master batches {report.master_batches}  "
            f"chunks {report.master_chunks}  "
            f"shm fallbacks {report.shm_fallbacks}"
        )
        print(
            "  conservation "
            + ("OK" if report.conservation_ok else "VIOLATED")
        )
    if failed:
        print(f"run: workers failed: {sorted(set(failed))}", file=sys.stderr)
        return 1
    if not report.conservation_ok:
        print("run: merged ingress identity violated", file=sys.stderr)
        return 1
    return 0
