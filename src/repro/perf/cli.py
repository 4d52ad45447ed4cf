"""``python -m repro bench`` — run the scorecard, check the gate.

Exit codes: 0 clean, 1 gate failure (regression / fidelity drift),
2 usage error (unknown figure, missing baseline, filtered gate run).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.perf import gate, runner
from repro.perf.registry import figure_ids


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Run the figure/table reproduction benchmarks through "
        "the schema'd pipeline and score them against the paper.",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink workloads/horizons for CI (models are unchanged)",
    )
    parser.add_argument(
        "--figure", action="append", metavar="FIG",
        help="run only this figure (repeatable); skips manifest/history",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the manifest as JSON instead of the table",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against bench-baseline.json; exit 1 on regression",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="accept this run: rewrite bench-baseline.json from it",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="compute only; write no artifacts",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered benchmarks"
    )
    return parser


def _print_scorecard(manifest: dict) -> None:
    header = f"{'figure':<12} {'kind':<10} {'fidelity':>8} {'tol':>4}  bottleneck"
    print(header)
    print("-" * len(header))
    for figure, entry in manifest["figures"].items():
        fidelity = entry.get("fidelity")
        fidelity_s = f"{fidelity:.3f}" if fidelity is not None else "-"
        tol = "ok" if entry.get("within_tol", True) else "OUT"
        print(
            f"{figure:<12} {entry['kind']:<10} {fidelity_s:>8} {tol:>4}  "
            f"{entry['bottleneck']}"
        )
    summary = manifest["summary"]
    print("-" * len(header))
    print(
        f"{summary['figures']} benchmarks, {summary['scored']} scored, "
        f"{summary['reference_points']} reference points, "
        f"mean fidelity {summary['mean_fidelity']}, "
        f"min {summary['min_fidelity']}"
    )
    if summary["out_of_tolerance"]:
        print(f"out of tolerance: {', '.join(summary['out_of_tolerance'])}")


def bench_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list:
        for figure in figure_ids():
            print(figure)
        return 0

    if args.figure:
        unknown = sorted(set(args.figure) - set(figure_ids()))
        if unknown:
            print(
                f"unknown figure(s): {', '.join(unknown)} "
                f"(choose from {', '.join(figure_ids())})",
                file=sys.stderr,
            )
            return 2
        if args.check or args.update_baseline:
            print(
                "--check/--update-baseline need the full suite; "
                "drop --figure",
                file=sys.stderr,
            )
            return 2

    manifest = runner.run(
        figures=args.figure,
        quick=args.quick,
        write=not args.no_write,
    )

    if args.update_baseline:
        path = gate.write_baseline(
            manifest, runner.REPO_ROOT / runner.BASELINE_NAME
        )
        print(f"baseline updated: {path}")

    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    else:
        _print_scorecard(manifest)

    if args.check:
        baseline = gate.load_baseline(runner.REPO_ROOT / runner.BASELINE_NAME)
        if baseline is None:
            print(
                "no bench-baseline.json — accept a run first with "
                "--update-baseline",
                file=sys.stderr,
            )
            return 2
        report = gate.check(manifest, baseline)
        for note in report.notes:
            print(f"note: {note}")
        if not report.ok:
            for failure in report.failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            print(
                f"bench gate: {len(report.failures)} failure(s)",
                file=sys.stderr,
            )
            return 1
        print("bench gate: ok")

    return 0
