"""In-memory spans around the calls the benchmark makes into each layer.

A span is ``(name, start_ns, end_ns, parent, burst_id, count)``: ``parent``
is the index of the enclosing span (-1 at the top), ``burst_id`` ties the
spans of one ingress burst together, ``count`` is the work done inside in
the unit the name implies (packets, bytes, hashes).  Spans are kept in a
list and written once when the run ends; nothing is flushed while timing.

The recorder lives in the benchmark only.  It wraps public functions of
``repro`` from outside; spans inside the program are a later change.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Container, Dict, List, NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int
    burst_id: int
    count: int

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class _Open:
    """One span being timed (the ``with`` target)."""

    __slots__ = ("_recorder", "_name", "_count", "_index", "_parent", "_start")

    def __init__(self, recorder: "Recorder", name: str, count: int) -> None:
        self._recorder = recorder
        self._name = name
        self._count = count

    def __enter__(self) -> "_Open":
        recorder = self._recorder
        self._index = len(recorder.spans)
        self._parent = recorder._stack[-1] if recorder._stack else -1
        recorder.spans.append(None)      # keeps start order; filled on exit
        recorder._stack.append(self._index)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter_ns()
        recorder = self._recorder
        recorder._stack.pop()
        recorder.spans[self._index] = Span(
            self._name, self._start, end, self._parent,
            recorder.burst_id, self._count,
        )


class _Closed:
    """What a disabled recorder hands out: the untraced twin of a span."""

    def __enter__(self) -> "_Closed":
        return self

    def __exit__(self, *exc) -> None:
        pass


_CLOSED = _Closed()


class Recorder:
    """Collects spans; ``enabled=False`` makes every span a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.burst_id = -1
        self._stack: List[int] = []

    def span(self, name: str, count: int = 0):
        if not self.enabled:
            return _CLOSED
        return _Open(self, name, count)

    def write(self, path: Path) -> None:
        """One JSON object per line, in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: List[Span]) -> List[int]:
    """Self time of each span: its duration minus its children's.

    Spans nest properly on one thread, so direct children never overlap
    and the covered part of a span is the sum of their durations.
    """
    own = [span.duration_ns for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration_ns
    return own


def totals(spans: List[Span]) -> Dict[str, Dict[str, int]]:
    """Per name: summed duration, self time, count and number of spans."""
    out: Dict[str, Dict[str, int]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(
            span.name, {"ns": 0, "self_ns": 0, "count": 0, "spans": 0}
        )
        row["ns"] += span.duration_ns
        row["self_ns"] += own
        row["count"] += span.count
        row["spans"] += 1
    return out


def self_time_except(spans: List[Span], outside: Container[str]) -> int:
    """Summed self time of every span not named in ``outside``."""
    return sum(
        own for span, own in zip(spans, self_times(spans))
        if span.name not in outside
    )
