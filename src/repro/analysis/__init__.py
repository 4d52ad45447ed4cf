"""reprolint: AST-based invariant linting for the reproduction.

Generic linters check style; this package checks the invariants the
reproduction's *credibility* rests on, before a benchmark ever runs:

* **RL001 determinism** — no unseeded module-level RNG, no wall-clock
  reads on modelled paths, no iteration over hash-ordered sets;
* **RL002 cycle accounting** — no float ``==``/``!=`` on cycle/byte
  counters, no hardcoded cycle constants bypassing the calibrated cost
  model;
* **RL003 metric/trace names** — every name handed to the obs registry
  or tracer resolves against the canonical catalogs
  (:mod:`repro.obs.names`, :class:`repro.obs.trace.Stages`), and no
  catalog entry is orphaned;
* **RL005 fault-site coverage** — every :class:`repro.faults.plan.Sites`
  member has an injection call site and a scenario exercising it;
* **RL011 drop conservation** — a code path that discards packets must
  increment a drop/reject counter next to the discard or one resolved
  call away.

Entry points: ``python -m repro lint`` (the CLI), or
:func:`repro.analysis.driver.lint_paths` programmatically.  Findings can
be suppressed inline (``# reprolint: ignore[RL001]``) or grandfathered
in a committed baseline (``reprolint-baseline.json``); see
``docs/STATIC_ANALYSIS.md``.
"""

from repro.analysis.baseline import Baseline
from repro.analysis.driver import LintResult, Project, SourceModule, lint_paths
from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, all_rules, get_rule, register

__all__ = [
    "Baseline",
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
