"""RL001: simulations must be bit-reproducible from a seed.

Three nondeterminism classes, all of which have corrupted published
dataplane numbers before (Benchmarking-NFV-dataplanes methodology bugs):

* **module-level RNG** — ``random.random()`` and friends draw from the
  interpreter-global stream, so any new call site anywhere reshuffles
  every schedule; the repo's convention is a ``random.Random(seed)``
  instance per component (see ``FaultInjector``, ``PacketGenerator``);
* **wall-clock reads on modelled paths** — ``time.time()`` inside
  sim/hw/io_engine/core/gen makes modelled costs depend on host load
  (``repro.obs`` may read the clock: profiling the reproduction itself
  is its job).  Clocks are found through the module's imports, so the
  dotted form, names imported bare (``from time import perf_counter``),
  module aliases (``import time as t; t.monotonic()``) and the
  ``datetime`` constructors reached through either spelling all count;
  code that needs host time wraps the region in
  ``get_profiler().track(stage)``;
* **set iteration feeding ordering decisions** — set order is
  hash-randomized per process, so iterating one into packet, cycle, or
  scheduling order silently varies run to run.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, Optional, Set

from repro.analysis.astutil import dotted_name
from repro.analysis.findings import Finding
from repro.analysis.rules import Rule, register

#: ``random.<fn>`` calls that draw from (or reseed) the global stream.
RANDOM_DRAW_FNS = frozenset({
    "betavariate", "choice", "choices", "expovariate", "gammavariate",
    "gauss", "getrandbits", "lognormvariate", "normalvariate",
    "paretovariate", "randbytes", "randint", "random", "randrange",
    "sample", "seed", "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
})

#: Clock-reading functions of the ``time`` module.
TIME_CLOCK_FNS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
})

#: Clock-reading constructors of ``datetime.datetime`` / ``datetime.date``.
DATETIME_CLOCK_FNS = frozenset({"now", "utcnow", "today"})

#: Layers whose paths are modelled: a wall-clock read there leaks host
#: time into simulated results.  (``obs`` is deliberately absent.)
CLOCK_SCOPED_PARTS = frozenset({"sim", "hw", "io_engine", "core", "gen"})

#: Builtins whose single argument is iterated in order.
_ITERATING_BUILTINS = frozenset({"list", "tuple", "enumerate", "iter"})


class _ClockBindings:
    """Names a module has bound to clock sources, from its imports."""

    def __init__(self, tree: ast.AST) -> None:
        #: Local name -> clock function it aliases ("time.perf_counter").
        self.bare_fns: Dict[str, str] = {}
        #: Local names bound to the ``time`` module itself.
        self.time_modules: Set[str] = set()
        #: Local names bound to the ``datetime`` module.
        self.datetime_modules: Set[str] = set()
        #: Local names bound to the datetime/date classes.
        self.datetime_classes: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time":
                        self.time_modules.add(local)
                    elif alias.name == "datetime":
                        self.datetime_modules.add(local)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module == "time" and alias.name in TIME_CLOCK_FNS:
                        self.bare_fns[local] = f"time.{alias.name}"
                    elif node.module == "datetime" and alias.name in (
                        "datetime", "date"
                    ):
                        self.datetime_classes.add(local)

    def clock_source(self, name: str) -> str:
        """The clock a dotted call name reads, or '' when it is not one."""
        if name in self.bare_fns:
            return self.bare_fns[name]
        head, _, rest = name.partition(".")
        if not rest:
            return ""
        if head in self.time_modules and rest in TIME_CLOCK_FNS:
            return f"time.{rest}"
        if head in self.datetime_classes and rest in DATETIME_CLOCK_FNS:
            return f"datetime.{rest}"
        if head in self.datetime_modules:
            cls, _, method = rest.partition(".")
            if cls in ("datetime", "date") and method in DATETIME_CLOCK_FNS:
                return f"datetime.{cls}.{method}"
        return ""


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


def _iteration_targets(node: ast.AST) -> Iterator[ast.AST]:
    """Expressions whose iteration order this node consumes."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        yield node.iter
    elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)):
        for generator in node.generators:
            yield generator.iter
    elif isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in _ITERATING_BUILTINS and node.args:
            yield node.args[0]


@register
class DeterminismRule(Rule):
    rule_id = "RL001"
    title = "bit-reproducibility: no global RNG, wall clocks, or set order"

    def check(self, project) -> Iterable[Finding]:
        for module in project.modules:
            clocks = None
            if any(part in CLOCK_SCOPED_PARTS for part in module.parts):
                clocks = _ClockBindings(module.tree)
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    finding = self._check_call(module, node, clocks)
                    if finding is not None:
                        yield finding
                for iter_expr in _iteration_targets(node):
                    if _is_set_expr(iter_expr):
                        yield module.finding(
                            self.rule_id, iter_expr.lineno,
                            "iteration over a set feeds ordering decisions "
                            "from hash-randomized order",
                            hint="sort the elements (sorted(...)) or keep "
                                 "them in a list/dict to fix the order",
                        )

    def _check_call(
        self, module, node: ast.Call, clocks: Optional[_ClockBindings]
    ) -> Optional[Finding]:
        name = dotted_name(node.func)
        if name is None:
            return None
        if name.startswith("random."):
            fn = name.split(".", 1)[1]
            if fn in RANDOM_DRAW_FNS:
                return module.finding(
                    self.rule_id, node.lineno,
                    f"module-level RNG call {name}() shares the "
                    "interpreter-global stream",
                    hint="draw from a random.Random(seed) instance owned "
                         "by the component (plan/scenario seeded)",
                )
        if name.startswith(("np.random.", "numpy.random.")):
            fn = name.rsplit(".", 1)[1]
            if fn == "default_rng":
                if not node.args and not node.keywords:
                    return module.finding(
                        self.rule_id, node.lineno,
                        "np.random.default_rng() without a seed is "
                        "OS-entropy seeded",
                        hint="pass an explicit seed: "
                             "np.random.default_rng(seed)",
                    )
            else:
                return module.finding(
                    self.rule_id, node.lineno,
                    f"global numpy RNG call {name}()",
                    hint="use a np.random.default_rng(seed) Generator "
                         "passed in explicitly",
                )
        source = clocks.clock_source(name) if clocks is not None else ""
        if source:
            alias = f" ({source})" if source != name else ""
            return module.finding(
                self.rule_id, node.lineno,
                f"wall-clock read {name}(){alias} on a modelled path",
                hint="modelled layers derive time from the simulation "
                     "clock / calibrated cost model, never the host clock; "
                     "to measure host time, wrap the region in "
                     "get_profiler().track(stage)",
            )
        return None
