"""``python -m repro lint`` — the reprolint command line.

Exit status: 0 when clean (or every finding is baselined/suppressed),
1 when new findings exist (or ``--check-baseline`` finds stale
entries), 2 on usage errors.

Beyond the basic run, the gen-2 driver surface:

* ``--format sarif`` emits SARIF 2.1.0 for GitHub code scanning
  (``--format json`` stays the CI artifact format);
* ``--changed-only [BASE]`` reports findings only in files the git diff
  against ``BASE`` (default ``HEAD``) touched — the semantic phase
  still covers the whole tree, so cross-file rules keep full context
  and only the *reporting* narrows;
* ``--cache [PATH]`` replays the previous run when nothing changed
  (see :mod:`repro.analysis.cache`);
* ``--prune-baseline`` strikes paid-down debt from the committed
  baseline; ``--check-baseline`` fails when such stale entries exist,
  so the ledger cannot silently absorb the next regression.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Set

from repro.analysis.baseline import Baseline
from repro.analysis.cache import DEFAULT_CACHE_PATH, ResultCache
from repro.analysis.driver import lint_paths
from repro.analysis.findings import format_json, format_table
from repro.analysis.rules import all_rules, get_rule
from repro.analysis.sarif import format_sarif

DEFAULT_BASELINE = "reprolint-baseline.json"


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
                    "(determinism, cycle accounting, metric names, "
                    "drop conservation, fault-site coverage, "
                    "process-safety for the sharded data plane)",
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
        "--baseline", metavar="PATH", nargs="?", const=DEFAULT_BASELINE,
        default=None,
        help=f"apply a committed baseline of grandfathered findings "
             f"(default file: {DEFAULT_BASELINE})",
    )
    parser.add_argument(
        "--write-baseline", metavar="PATH", nargs="?",
        const=DEFAULT_BASELINE, default=None,
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--prune-baseline", metavar="PATH", nargs="?",
        const=DEFAULT_BASELINE, default=None,
        help="rewrite the baseline with stale (paid-down) entries "
             "removed and exit 0",
    )
    parser.add_argument(
        "--check-baseline", metavar="PATH", nargs="?",
        const=DEFAULT_BASELINE, default=None,
        help="exit 1 if the baseline holds entries the tree no longer "
             "produces (CI staleness gate)",
    )
    parser.add_argument(
        "--changed-only", metavar="BASE", nargs="?", const="HEAD",
        default=None,
        help="report findings only in files changed since the given git "
             "ref (default HEAD); analysis still spans the whole tree",
    )
    parser.add_argument(
        "--cache", metavar="PATH", nargs="?", const=DEFAULT_CACHE_PATH,
        default=None,
        help=f"reuse cached results when no file changed "
             f"(default file: {DEFAULT_CACHE_PATH})",
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


def _changed_files(base: str) -> Optional[Set[str]]:
    """Repo-relative paths the diff against ``base`` touches (plus
    untracked files, which a ref diff cannot see); None on git failure."""
    changed: Set[str] = set()
    for cmd in (
        ["git", "diff", "--name-only", base, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        changed.update(
            line.strip() for line in proc.stdout.splitlines() if line.strip()
        )
    return changed


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

    baseline = None
    baseline_path = args.baseline
    if args.prune_baseline is not None or args.check_baseline is not None:
        # Staleness is judged against the full finding set, so these
        # modes load the ledger themselves and ignore --changed-only.
        baseline_path = args.prune_baseline or args.check_baseline
        args.changed_only = None
    if baseline_path is not None:
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"reprolint: {exc}", file=sys.stderr)
            return 2

    changed: Optional[Set[str]] = None
    if args.changed_only is not None:
        changed = _changed_files(args.changed_only)
        if changed is None:
            print(
                f"reprolint: git diff against {args.changed_only!r} failed "
                "(not a git checkout?)",
                file=sys.stderr,
            )
            return 2

    cache = ResultCache(args.cache) if args.cache is not None else None

    paths = args.paths or _default_paths()
    result = lint_paths(
        paths, rules=rules, baseline=baseline, cache=cache,
        changed_only=changed,
    )

    if args.prune_baseline is not None:
        assert baseline is not None
        stale = baseline.stale_entries(result.findings)
        baseline.pruned(result.findings).save(args.prune_baseline)
        dropped = sum(excess for _, excess in stale)
        print(
            f"reprolint: pruned {dropped} stale entr"
            f"{'y' if dropped == 1 else 'ies'} from {args.prune_baseline}"
        )
        for (rule, path, _), excess in stale:
            print(f"  {rule} {path} (-{excess})")
        return 0

    if args.check_baseline is not None:
        assert baseline is not None
        stale = baseline.stale_entries(result.findings)
        if stale:
            print(
                f"reprolint: {args.check_baseline} holds "
                f"{sum(e for _, e in stale)} stale entr"
                f"{'y' if len(stale) == 1 else 'ies'} — run "
                "--prune-baseline and commit the result",
                file=sys.stderr,
            )
            for (rule, path, _), excess in stale:
                print(f"  {rule} {path} (-{excess})", file=sys.stderr)
            return 1
        print(f"reprolint: {args.check_baseline} is tight (no stale entries)")
        return 0

    if args.write_baseline is not None:
        Baseline.from_findings(result.findings).save(args.write_baseline)
        print(
            f"reprolint: wrote {len(result.findings)} finding(s) to "
            f"{args.write_baseline}"
        )
        return 0

    if args.format == "json":
        print(format_json(result.findings, files_checked=result.files_checked))
    elif args.format == "sarif":
        print(format_sarif(result.findings, all_rules()))
    else:
        print(format_table(result.findings))
        if result.suppressed:
            print(f"reprolint: {result.suppressed} finding(s) suppressed inline")
        cached = " (cached)" if result.cache_hit else ""
        print(
            f"reprolint: checked {result.files_checked} file(s) in "
            f"{result.duration_ns / 1e6:.0f} ms{cached}: "
            + ("FAIL" if result.failed else "OK")
        )
    return 1 if result.failed else 0
