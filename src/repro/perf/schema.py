"""The versioned schema for benchmark artifacts.

Every perf artifact the runner writes — per-figure ``BENCH_<figure>.json``
files, the ``BENCH_manifest.json`` scorecard, ``bench-baseline.json``,
and ``bench-history.jsonl`` lines — carries ``schema_version`` so the
trajectory stays parseable as the layout evolves.  This module owns the
payload construction and the validation both the writers and the tests
round-trip through.

Design constraints:

* committed artifacts are **deterministic** — no wall-clock timestamps
  or host-speed durations in per-figure payloads or the manifest, so a
  re-run on an unchanged tree produces a byte-identical git diff; run
  timing lives only in the append-only history file;
* series rows are plain dicts keyed by column name, with the sweep
  variable named by ``x_key`` — scoring and the gate address points as
  ``(x, column)`` without positional coupling;
* saturated/undefined values are ``None`` (JSON ``null``), never
  ``inf``/``nan`` (both are invalid strict JSON).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional

#: Bump when the artifact layout changes shape incompatibly.
SCHEMA_VERSION = 1

#: Figure payload fields, in written order.  ``divergence`` is optional:
#: the runner scores figures that have a reference-table entry and
#: omits the block for any figure without one.
_REQUIRED_FIELDS = (
    "schema_version",
    "figure",
    "kind",
    "title",
    "x_key",
    "mode",
    "units",
    "series",
    "headline",
    "bottleneck",
)

_KINDS = ("figure", "table", "extension")
_MODES = ("quick", "full")


class SchemaError(ValueError):
    """A perf artifact violated the schema; ``.issues`` lists why."""

    def __init__(self, issues: List[str]) -> None:
        self.issues = list(issues)
        super().__init__("; ".join(self.issues))


def _json_safe(value, path: str, issues: List[str]) -> None:
    """Reject non-finite floats anywhere in a payload subtree."""
    if isinstance(value, float) and not math.isfinite(value):
        issues.append(f"{path}: non-finite value {value!r} (use null)")
    elif isinstance(value, dict):
        for key, item in value.items():
            _json_safe(item, f"{path}.{key}", issues)
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            _json_safe(item, f"{path}[{i}]", issues)


def figure_payload(
    figure: str,
    kind: str,
    title: str,
    x_key: str,
    mode: str,
    units: Dict[str, str],
    series: List[Dict[str, object]],
    headline: Dict[str, float],
    bottleneck: str,
    divergence: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble and validate one per-figure payload."""
    payload: Dict[str, object] = {
        "schema_version": SCHEMA_VERSION,
        "figure": figure,
        "kind": kind,
        "title": title,
        "x_key": x_key,
        "mode": mode,
        "units": dict(units),
        "series": [dict(row) for row in series],
        "headline": dict(headline),
        "bottleneck": bottleneck,
    }
    if divergence is not None:
        payload["divergence"] = divergence
    validate_figure_payload(payload)
    return payload


def validate_figure_payload(payload: Dict[str, object]) -> None:
    """Raise :class:`SchemaError` unless the payload is well-formed."""
    issues: List[str] = []
    if not isinstance(payload, dict):
        raise SchemaError(["payload is not an object"])
    for field in _REQUIRED_FIELDS:
        if field not in payload:
            issues.append(f"missing field {field!r}")
    if issues:
        raise SchemaError(issues)

    if payload["schema_version"] != SCHEMA_VERSION:
        issues.append(
            f"schema_version {payload['schema_version']!r} != {SCHEMA_VERSION}"
        )
    if not payload["figure"] or not isinstance(payload["figure"], str):
        issues.append("figure must be a non-empty string")
    if payload["kind"] not in _KINDS:
        issues.append(f"kind {payload['kind']!r} not in {_KINDS}")
    if payload["mode"] not in _MODES:
        issues.append(f"mode {payload['mode']!r} not in {_MODES}")
    if not isinstance(payload["units"], dict):
        issues.append("units must be an object")
    if not isinstance(payload["bottleneck"], str) or not payload["bottleneck"]:
        issues.append("bottleneck verdict must be a non-empty string")

    series = payload["series"]
    x_key = payload["x_key"]
    if not isinstance(series, list) or not series:
        issues.append("series must be a non-empty array")
    else:
        for i, row in enumerate(series):
            if not isinstance(row, dict):
                issues.append(f"series[{i}] is not an object")
            elif x_key and x_key not in row:
                issues.append(f"series[{i}] missing x_key {x_key!r}")

    headline = payload["headline"]
    if not isinstance(headline, dict) or not headline:
        issues.append("headline must be a non-empty object")
    else:
        for name, value in headline.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                issues.append(f"headline.{name}: not a number ({value!r})")

    _json_safe(payload, payload.get("figure", "payload"), issues)
    if issues:
        raise SchemaError(issues)


def dump(payload: Dict[str, object]) -> str:
    """Canonical serialisation: sorted keys, two-space indent, newline."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def load(text: str) -> Dict[str, object]:
    """Parse and validate a per-figure payload (the round-trip check)."""
    payload = json.loads(text)
    validate_figure_payload(payload)
    return payload
