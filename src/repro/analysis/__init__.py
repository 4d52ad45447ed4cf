"""reprolint: AST-based invariant linting for the reproduction.

Generic linters check style; this package checks the invariants the
reproduction's *credibility* rests on, before a benchmark ever runs:

* **RL001 determinism** — no unseeded module-level RNG, no wall-clock
  reads on modelled paths (however the clock was imported), no
  iteration over hash-ordered sets;
* **RL002 cycle accounting** — no float ``==``/``!=`` on cycle/byte
  counters, no hardcoded cycle constants bypassing the calibrated cost
  model;
* **RL006 batched hot loops** — no packet-at-a-time loops over frames
  or verdict columns in the data-plane layers;
* **RL008/RL009/RL012 process safety** — no ambient fork-visible
  mutable state, no borrowed buffer view outliving its call, no
  shared-memory segment outside the managed primitive;
* **RL011 drop conservation** — a code path that discards packets must
  increment a drop/reject counter next to the discard or one resolved
  call away.

Entry points: ``python -m repro lint`` (the CLI), or
:func:`repro.analysis.driver.lint_paths` programmatically.  A finding
is waived only inline, with a written reason
(``# reprolint: ignore[RL006]``); see ``docs/STATIC_ANALYSIS.md``.
"""

from repro.analysis.driver import LintResult, Project, SourceModule, lint_paths
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, all_rules, get_rule, register

__all__ = [
    "Finding",
    "LintResult",
    "Project",
    "Rule",
    "Severity",
    "SourceModule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "register",
]
