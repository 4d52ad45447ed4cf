"""Shared fixture machinery: lint in-memory snippets through the real
driver (files land in tmp_path, so path-scoped rules see real layers).

Lint runs ``chdir``-ed into the tmp tree: relpaths come out
repo-relative (``core/x.py``, not an absolute tmp path), which is what
the semantic engine's module naming (``core.x``) and import resolution
key on — exactly as in a real checkout.
"""

import os
import textwrap

import pytest

from repro.analysis.driver import Project, lint_paths, parse_module
from repro.analysis.rules import get_rule


def write_tree(tmp_path, files):
    for relpath, code in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code))


@pytest.fixture
def lint(tmp_path):
    """``lint({relpath: code, ...}, rules=["RL001"]) -> LintResult``."""

    def _lint(files, rules=None):
        write_tree(tmp_path, files)
        selected = [get_rule(r) for r in rules] if rules is not None else None
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            return lint_paths(["."], rules=selected)
        finally:
            os.chdir(cwd)

    return _lint


@pytest.fixture
def project(tmp_path):
    """``project({relpath: code, ...}) -> Project`` with semantics
    available (for testing the engine layers directly)."""

    def _build(files):
        write_tree(tmp_path, files)
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            modules = []
            for relpath in sorted(files):
                module, finding = parse_module(tmp_path / relpath)
                assert finding is None, finding
                if module is not None:
                    modules.append(module)
            return Project(modules)
        finally:
            os.chdir(cwd)

    return _build


def rule_ids(result):
    return [finding.rule for finding in result.findings]


def messages(result):
    return " | ".join(finding.message for finding in result.findings)
