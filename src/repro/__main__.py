"""Entry point: ``python -m repro [trace|metrics|chaos|lint|bench|flightrec|top|run]``.

With no subcommand, prints every claim of the paper-reference table
next to the reproduced value (docs/PERF.md); ``trace`` prints a
per-stage cost breakdown of a traced forwarding burst; ``metrics``
dumps the metrics registry (Prometheus text, JSON lines, or a table);
``chaos`` runs fault-injection scenarios and checks the conservation
and degradation invariants; ``lint`` runs reprolint, the AST-based
invariant linter (docs/STATIC_ANALYSIS.md); ``bench`` runs the perf
scorecard — every figure/table reproduction through the schema'd
pipeline, scored against the paper (docs/PERF.md); ``flightrec``
dumps or replays the flight recorder's event ring; ``top`` is the live
dashboard over the metrics registry, profiler, and flight recorder
(docs/OBSERVABILITY.md); ``run`` drives the sharded multi-process data
plane (docs/SHARDING.md).
"""

import importlib
import sys

#: Subcommand -> (module, function).  A module is imported only when its
#: subcommand runs, so ``repro run`` does not pay for the linter, the
#: scorecard or the dashboards.
_COMMANDS = {
    "trace": ("repro.report", "trace_main"),
    "metrics": ("repro.report", "metrics_main"),
    "chaos": ("repro.report", "chaos_main"),
    "lint": ("repro.analysis.cli", "lint_main"),
    "bench": ("repro.perf.cli", "bench_main"),
    "flightrec": ("repro.obs.flightrec", "flightrec_main"),
    "top": ("repro.obs.top", "top_main"),
    "run": ("repro.shard.cli", "run_main"),
}

argv = sys.argv[1:]
if argv and argv[0] in _COMMANDS:
    module, function = _COMMANDS[argv.pop(0)]
elif argv and not argv[0].startswith("-"):
    print(
        f"python -m repro: unknown command {argv[0]!r} "
        f"(choose from {', '.join(sorted(_COMMANDS))})",
        file=sys.stderr,
    )
    sys.exit(2)
else:
    module, function = "repro.perf.cli", "claims_main"
sys.exit(getattr(importlib.import_module(module), function)(argv))
