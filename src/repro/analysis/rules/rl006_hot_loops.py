"""RL006: no per-packet Python loops in the data-plane hot layers.

PacketShader's core lesson — and this reproduction's tentpole perf work
— is that per-packet work must be amortized over batches.  The data
plane carries packets structure-of-arrays (``FrameBatch`` buffers,
``Chunk`` disposition columns), so a Python ``for``/comprehension that
iterates ``chunk.frames`` or a verdict column (``dispositions``,
``out_ports``) inside ``apps/``, ``core/``, or ``io_engine/`` is almost
always a regression back to the
scalar formulation the batch layer replaced: classification, checksum
verification, verdict application, and egress splitting all have
vectorized equivalents.

Deliberate per-packet paths — edge conversions, chaos-only fault hooks,
the scalar reference implementation the differential tests compare
against — carry an inline ``# reprolint: ignore[RL006]``.

Warning tier: a flagged loop computes correct results; it burns
wall-clock the batch layer already paid to eliminate.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules import Rule, register

#: Layers whose modules are on the data-plane hot path.
HOT_PARTS = frozenset({"apps", "core", "io_engine"})
#: Iterating one of these (as an attribute like ``chunk.frames`` or a
#: bare local) marks a per-packet loop: the frames and the chunk's two
#: verdict columns.
BATCH_NAMES = frozenset({"frames", "dispositions", "out_ports"})


def _batch_iterable(node: ast.AST) -> Optional[str]:
    """The frames/verdict-column reference inside an iterable expression.

    Catches the raw attribute (``chunk.frames``), wrapped forms
    (``zip(chunk.frames, chunk.dispositions)``, ``enumerate(...)``), and
    bare locals holding the frame list (``for f in frames``).
    """
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr in BATCH_NAMES:
            value = sub.value
            prefix = f"{value.id}." if isinstance(value, ast.Name) else ""
            return f"{prefix}{sub.attr}"
        if isinstance(sub, ast.Name) and sub.id in BATCH_NAMES:
            return sub.id
    return None


@register
class HotLoopRule(Rule):
    rule_id = "RL006"
    title = "hot-layer loops iterate frames/verdict columns packet-at-a-time"

    def check(self, project) -> Iterable[Finding]:
        for module in project.modules:
            if not any(part in HOT_PARTS for part in module.parts):
                continue
            for node in ast.walk(module.tree):
                if isinstance(node, ast.For):
                    iterables = [node.iter]
                elif isinstance(
                    node,
                    (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp),
                ):
                    iterables = [gen.iter for gen in node.generators]
                else:
                    continue
                for iterable in iterables:
                    reference = _batch_iterable(iterable)
                    if reference is None:
                        continue
                    yield module.finding(
                        self.rule_id, node.lineno,
                        f"per-packet loop over '{reference}' in a hot-path "
                        "module",
                        severity=Severity.WARNING,
                        hint="use the vectorized batch operations "
                             "(FrameBatch gathers, Chunk masks, "
                             "split_by_port) or mark a deliberate slow "
                             "path with `# reprolint: ignore[RL006]`",
                    )
                    break
