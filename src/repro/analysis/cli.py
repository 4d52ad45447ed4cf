"""``python -m repro lint`` — the reprolint command line.

Exit status: 0 when clean (every finding fixed or waived inline), 1
when findings remain, 2 on usage errors.  Every run analyses and
reports the whole of the given paths; ``--format sarif`` emits SARIF
2.1.0 for GitHub code scanning and ``--format json`` is the CI
artifact format.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.analysis.driver import lint_paths
from repro.analysis.findings import format_json, format_table
from repro.analysis.rules import all_rules, get_rule
from repro.analysis.sarif import format_sarif


def _default_paths() -> List[str]:
    """Lint ``src/`` when run from the repo root; else the installed
    package's own tree."""
    if Path("src").is_dir():
        return ["src"]
    return [str(Path(__file__).resolve().parents[1])]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro lint",
        description="reprolint: cross-file invariant linter "
                    "(determinism, cycle accounting, batched hot loops, "
                    "drop conservation, process-safety for the sharded "
                    "data plane)",
    )
    parser.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--format", choices=("table", "json", "sarif"), default="table",
        help="output format (default: table; sarif for code scanning)",
    )
    parser.add_argument(
        "--rules", metavar="IDS", default=None,
        help="comma-separated rule ids to run (default: all rules)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def lint_main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    rules = None
    if args.rules:
        try:
            rules = [
                get_rule(token.strip().upper())
                for token in args.rules.split(",")
                if token.strip()
            ]
        except KeyError as exc:
            print(f"reprolint: {exc.args[0]}", file=sys.stderr)
            return 2

    result = lint_paths(args.paths or _default_paths(), rules=rules)

    if args.format == "json":
        print(format_json(result.findings, files_checked=result.files_checked))
    elif args.format == "sarif":
        print(format_sarif(result.findings, all_rules()))
    else:
        print(format_table(result.findings))
        if result.suppressed:
            print(f"reprolint: {result.suppressed} finding(s) suppressed inline")
        print(
            f"reprolint: checked {result.files_checked} file(s) in "
            f"{result.duration_ns / 1e6:.0f} ms: "
            + ("FAIL" if result.failed else "OK")
        )
    return 1 if result.failed else 0
