"""Perf scorecard: benchmark registry, paper-fidelity scoring, gate.

The pipeline every figure/table reproduction flows through:

* :mod:`repro.perf.registry` — the benchmark registry (specs, producers);
* :mod:`repro.perf.suites` — the registered producers (fig2..table3 and
  the extension benches), imported lazily on first enumeration;
* :mod:`repro.perf.schema` — versioned payload schema + validation;
* :mod:`repro.perf.reference` — the machine-readable paper-reference
  table: every published number once, as a band in the claim's form;
* :mod:`repro.perf.scoring` — divergence scoring (relative error,
  shape checks, the scalar fidelity in [0, 1]);
* :mod:`repro.perf.runner` — artifact writers and the manifest;
* :mod:`repro.perf.gate` — the regression gate vs bench-baseline.json;
* :mod:`repro.perf.cli` — ``python -m repro bench`` and the default
  ``python -m repro`` claims report.

See ``docs/PERF.md`` for the artifact formats and workflows.
"""

from repro.perf.registry import BenchResult, BenchSpec, all_specs, bench, get_spec
from repro.perf.reference import REFERENCE, get_reference
from repro.perf.schema import SCHEMA_VERSION, SchemaError, validate_figure_payload
from repro.perf.scoring import DivergenceScore, score_result

__all__ = [
    "BenchResult",
    "BenchSpec",
    "DivergenceScore",
    "REFERENCE",
    "SCHEMA_VERSION",
    "SchemaError",
    "all_specs",
    "bench",
    "get_reference",
    "get_spec",
    "score_result",
    "validate_figure_payload",
]
