"""The repo's wall-clock benchmark: one command, every metric by name.

Driver form (one workload, one JSON object on the last line)::

    python3 bench/run.py --workload ipv4_chunks --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload ipv4_chunks --seed 1 --seconds 20 --trace 1

``--trace 0`` prints the end-to-end metrics, measured with tracing off;
``--trace 1`` prints the per-layer metrics from a separate traced pass.
Without ``--workload`` it runs all four workloads untraced and then one
traced pass, and prints a table for people (``README.md`` explains it).

Metric names, units and bounds live in ``BENCHMARK.json`` at the root and
nowhere else; this file refuses to print a metric that is not listed there.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_block(kind: str, values: Dict[str, float]) -> Dict[str, dict]:
    """``values`` as the driver wants them: exactly the metrics of ``kind``."""
    listed = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(values) != set(listed):
        raise SystemExit(
            f"{kind}: measured {sorted(set(values) ^ set(listed))} "
            "differ from BENCHMARK.json"
        )
    return {
        name: {"value": values[name], "unit": listed[name]} for name in listed
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload, traced or not, with the hygiene checks around it."""
    import hygiene
    import workloads

    host = hygiene.host_description()
    hygiene.OUT.mkdir(exist_ok=True)
    print(f"# {workload} seed={seed} trace={int(trace)} host={host}",
          file=sys.stderr)
    if host["busy_at_start"]:
        print("# WARNING: 1-min load above half the cores; timings suspect",
              file=sys.stderr)
    watch = hygiene.Watch()
    try:
        if trace:
            import layers

            result = layers.traced_pass(workload, seed)
            kind = "per_layer"
        else:
            result = workloads.MEASURE[workload](workload, seed, seconds)
            kind = "end_to_end"
    except BaseException:
        watch.sweep()             # run_child has stopped the processes
        raise
    notes = result.notes + watch.problems()
    for warning in result.warnings:
        print(f"# WARNING: {warning}", file=sys.stderr)
    for note in notes:
        print(f"# CHECK FAILED: {note}", file=sys.stderr)
    (hygiene.OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"host": host, "samples": result.samples, "notes": notes,
                    "observed": result.observed, "metrics": result.metrics},
                   indent=1)
    )
    return {
        "correct": not notes and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metric_block(kind, result.metrics),
    }


def run_all(seed: int, seconds: float) -> dict:
    """Every workload untraced, then the traced pass; a table on stdout."""
    names = [w["name"] for w in SPEC["workloads"]]
    report = {name: run_one(name, seed, seconds, trace=False) for name in names}
    layers_of = run_one(names[0], seed, seconds, trace=True)
    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    print(f"{'workload':<14}" + "".join(
        f"{m + ' [' + bounds[m]['unit'] + ']':>22}" for m in bounds
    ) + f"{'attempted':>12}{'failed':>8}")
    for name in names:
        row = report[name]
        print(f"{name:<14}" + "".join(
            f"{row['metrics'][m]['value']:>22.4f}" for m in bounds
        ) + f"{row['attempted']:>12}{row['failed']:>8}")
    print()
    for metric, cell in layers_of["metrics"].items():
        print(f"{metric:<40}{cell['value']:>16.4f} {cell['unit']}")
    report["per_layer"] = layers_of
    report["correct"] = all(r["correct"] for r in report.values())
    return report


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Leave through the handlers that stop and reap the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    if args.workload is None:
        report = run_all(args.seed, args.seconds)
    else:
        report = run_one(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
