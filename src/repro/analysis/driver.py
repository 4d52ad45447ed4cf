"""The reprolint driver: file discovery, parsing, rule execution.

The driver walks the requested paths, parses every ``*.py`` once into a
:class:`SourceModule` (AST + source lines + inline suppressions), wraps
the set in a :class:`Project`, builds the shared semantic phase lazily
(``project.semantics``: symbol table, import/call graph, dataflow —
:mod:`repro.analysis.semantics`), runs each rule, then drops the
findings an inline suppression waives.  Rules never re-read files and
never import the code under analysis — everything is AST-level, so the
linter can check broken or import-cycle-ridden trees.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analysis.findings import Finding, Severity, sort_findings
from repro.analysis.rules import Rule, all_rules

#: ``# reprolint: ignore`` (all rules) or ``# reprolint: ignore[RL001,RL006]``.
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?"
)
#: ``# reprolint: skip-file`` within the first few lines skips the module.
_SKIP_FILE_RE = re.compile(r"#\s*reprolint:\s*skip-file")
_SKIP_FILE_SCAN_LINES = 5

#: Rule id for files the parser rejects (not a registered rule: nothing
#: can suppress a file that cannot be parsed).
PARSE_ERROR_RULE = "RL000"


@dataclass
class SourceModule:
    """One parsed source file plus its lint-relevant metadata."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    #: line -> suppressed rule ids; ``None`` means "all rules".
    suppressions: Dict[int, Optional[frozenset]] = field(default_factory=dict)

    @property
    def parts(self) -> Tuple[str, ...]:
        """Path components (used for layer scoping, e.g. RL001 clocks)."""
        parts = self.relpath.split("/")
        return tuple(parts[:-1] + [parts[-1][:-3] if parts[-1].endswith(".py")
                                   else parts[-1]])

    def finding(
        self,
        rule: str,
        line: int,
        message: str,
        severity: str = Severity.ERROR,
        hint: str = "",
    ) -> Finding:
        return Finding(
            rule=rule, path=self.relpath, line=line, message=message,
            severity=severity, hint=hint,
        )

    def is_suppressed(self, line: int, rule: str) -> bool:
        rules = self.suppressions.get(line, frozenset())
        return rules is None or rule in rules


class Project:
    """The linted file set and its shared semantic phase."""

    def __init__(self, modules: Sequence[SourceModule]) -> None:
        self.modules: List[SourceModule] = list(modules)
        self._semantics = None

    @property
    def semantics(self):
        """The shared semantic phase (symbols, graphs, dataflow cache).

        Built on first access and reused by every rule in the run, so
        the cross-file work is paid once however many rules query it.
        """
        if self._semantics is None:
            from repro.analysis.semantics import ProjectSemantics

            self._semantics = ProjectSemantics(self)
        return self._semantics


# ----------------------------------------------------------------------
# Discovery and parsing.
# ----------------------------------------------------------------------


def _iter_py_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            files.append(path)
        elif path.is_dir():
            files.extend(
                p for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
            )
    seen = set()
    unique = []
    for path in files:
        key = path.resolve()
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def _relpath(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _scan_suppressions(lines: List[str]) -> Dict[int, Optional[frozenset]]:
    suppressions: Dict[int, Optional[frozenset]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS_RE.search(line)
        if not match:
            continue
        if match.group(1) is None:
            suppressions[lineno] = None
        else:
            rules = frozenset(
                token.strip().upper()
                for token in match.group(1).split(",")
                if token.strip()
            )
            previous = suppressions.get(lineno, frozenset())
            if previous is None:
                continue
            suppressions[lineno] = rules | previous
    return suppressions


def parse_module(path: Path) -> Tuple[Optional[SourceModule], Optional[Finding]]:
    """Parse one file; returns (module, None) or (None, parse finding)."""
    relpath = _relpath(path)
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    for line in lines[:_SKIP_FILE_SCAN_LINES]:
        if _SKIP_FILE_RE.search(line):
            return None, None
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            rule=PARSE_ERROR_RULE,
            path=relpath,
            line=exc.lineno or 1,
            message=f"file does not parse: {exc.msg}",
            severity=Severity.ERROR,
            hint="reprolint needs valid syntax; fix the parse error first",
        )
    return SourceModule(
        path=path,
        relpath=relpath,
        source=source,
        tree=tree,
        lines=lines,
        suppressions=_scan_suppressions(lines),
    ), None


# ----------------------------------------------------------------------
# Running the rules.
# ----------------------------------------------------------------------


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding]
    files_checked: int
    suppressed: int = 0
    #: Wall time of the run (read/parse/rules), nanoseconds.
    duration_ns: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.findings)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    rules: Optional[Sequence[Rule]] = None,
) -> LintResult:
    """Lint every ``*.py`` under ``paths`` with the given rules.

    ``rules`` defaults to every registered rule.  Findings waived by an
    inline suppression are counted, not reported; the rest are sorted
    by location.
    """
    started = time.perf_counter_ns()
    selected = list(rules) if rules is not None else all_rules()
    files = _iter_py_files(paths)
    modules: List[SourceModule] = []
    findings: List[Finding] = []
    for path in files:
        module, parse_finding = parse_module(path)
        if parse_finding is not None:
            findings.append(parse_finding)
        if module is not None:
            modules.append(module)

    by_relpath = {module.relpath: module for module in modules}
    project = Project(modules)
    suppressed = 0
    for rule in selected:
        for finding in rule.check(project):
            module = by_relpath.get(finding.path)
            if module is not None and module.is_suppressed(
                finding.line, finding.rule
            ):
                suppressed += 1
                continue
            findings.append(finding)
    return LintResult(
        findings=sort_findings(findings),
        files_checked=len(files),
        suppressed=suppressed,
        duration_ns=time.perf_counter_ns() - started,
    )
