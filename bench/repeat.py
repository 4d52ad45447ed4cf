"""Run the whole benchmark twice and hold the two sets against the bounds.

``python3 bench/repeat.py [--seed S] [--seconds N]`` prints, per workload
and end-to-end metric, both values, their relative difference and the
bound from ``BENCHMARK.json``; it exits non-zero if any difference exceeds
its bound, in either direction, or any run was incorrect.
Two sets of runs of the same code must agree within the benchmark's own
bounds, or the bounds mean nothing for a change.
"""

from __future__ import annotations

import argparse
import sys
from typing import List

import run


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(run.SPEC["run_seconds"]))
    args = parser.parse_args(argv)
    names = [w["name"] for w in run.SPEC["workloads"]]
    sets = [
        {name: run.run_one(name, args.seed, args.seconds, trace=False)
         for name in names}
        for _ in range(2)
    ]
    ok = all(result["correct"] for one in sets for result in one.values())
    print(f"{'workload':<14}{'metric':<14}{'first':>12}{'second':>12}"
          f"{'differ by':>10}{'bound':>8}")
    for name in names:
        for metric in run.SPEC["end_to_end"]:
            first, second = (
                one[name]["metrics"][metric["name"]]["value"] for one in sets
            )
            differ = abs(second - first) / first
            flag = "" if differ <= metric["bound"] else "  EXCEEDED"
            ok = ok and not flag
            print(f"{name:<14}{metric['name']:<14}{first:>12.4f}{second:>12.4f}"
                  f"{differ:>10.3f}{metric['bound']:>8.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
