"""RL009: a borrowed frame view must not outlive the chunk that lent it.

``Chunk`` packs its frames into one backing store; every
``chunk.frames[i]`` is a ``memoryview`` sliced out of it on demand, and
``chunk.batch()`` is a NumPy array over the same bytes.  A pipeline
stage receives those views on loan for the duration of one call: the
moment it stashes one — on ``self``, in a module-level cache, in a
container that survives the call — it holds an alias into storage it
does not own.  ``replace_frame()`` re-points the frame's extent (and
may move the store) under it; the sharded data plane recycles the
backing shared-memory slot under it.  Either way the stashed view
silently reads dead bytes.

The dataflow layer (:mod:`repro.analysis.semantics.dataflow`) tracks
buffer taint with *ownership roots*, which keeps this compositional:
a constructor slicing the store it just allocated is LOCAL-rooted
and silent; only **param-rooted** views — storage loaned in by the
caller — escaping to an attribute, long-lived container, or global are
findings.  Copy before you keep: ``bytes(view)`` owns its bytes.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register


@register
class BufferEscapeRule(Rule):
    rule_id = "RL009"
    title = "packet-buffer views must not escape the call that borrowed them"

    def check(self, project) -> Iterable[Finding]:
        sem = project.semantics
        for symbols, qualified, _, fn in sem.functions():
            df = sem.dataflow(symbols, fn)
            for escape in df.escapes:
                sink = {
                    "attr": "attribute",
                    "container": "long-lived container",
                    "global": "module global",
                }.get(escape.kind, escape.kind)
                yield symbols.source.finding(
                    self.rule_id, escape.lineno,
                    f"{qualified} stores borrowed buffer view "
                    f"'{escape.detail}' into {sink} '{escape.target}', "
                    "outliving the chunk that owns the backing storage",
                    hint="copy the bytes you keep (bytes(view) / "
                         "np.array(batch, copy=True)); a stashed view "
                         "dangles across replace_frame() and any future "
                         "shared-memory remap",
                )
