"""One-shot experiment reports: ``python -m repro [trace|metrics|chaos]``.

Three subcommands share this module (the default, no-subcommand report
of the paper's claims is :func:`repro.perf.cli.claims_main`):

* ``trace`` runs a traced forwarding burst through the real framework
  and prints the Table-3-style per-stage cost breakdown plus the
  bottleneck analyzer's verdict;
* ``metrics`` runs the same burst and dumps the metrics registry in
  Prometheus text, JSON-lines, or table form;
* ``chaos`` runs named fault-injection scenarios through the functional
  testbed and reports conservation and degradation per scenario
  (docs/RESILIENCE.md).
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import build_app


# ----------------------------------------------------------------------
# Traced runs: ``python -m repro trace`` / ``python -m repro metrics``.
# ----------------------------------------------------------------------


def _run_parser(prog: str, doc: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=prog, description=doc)
    parser.add_argument(
        "--app", choices=("ipv4", "ipv6"), default="ipv4",
        help="forwarding application to trace (default: ipv4)",
    )
    parser.add_argument(
        "--packets", type=int, default=4096,
        help="burst size in packets (default: 4096)",
    )
    parser.add_argument(
        "--frame-len", type=int, default=None,
        help="frame length in bytes (default: 64 for ipv4, 78 for ipv6)",
    )
    parser.add_argument(
        "--cpu-only", action="store_true",
        help="run the CPU-only path instead of the GPU workflow",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="workload RNG seed (default: 1)",
    )
    return parser


def _traced_run(args) -> "PacketShader":
    """Run one traced burst on fresh observability state.

    Resets the global registry, tracer, flight recorder, and profiler so
    the output describes this run alone, then pushes ``args.packets``
    real frames through the framework.
    """
    from repro.core.config import RouterConfig
    from repro.core.framework import PacketShader
    from repro.obs import (
        reset_flightrec,
        reset_profiler,
        reset_registry,
        reset_tracer,
    )

    reset_registry()
    reset_tracer()
    reset_flightrec()
    reset_profiler()
    app, burst = build_app(args.app, seed=args.seed)
    router = PacketShader(app, RouterConfig(use_gpu=not args.cpu_only))
    router.process_frames(burst(args.packets, args.frame_len))
    return router


def trace_main(argv=None) -> int:
    """Trace one forwarding burst and print the per-stage breakdown."""
    from repro.obs import analyze, get_tracer, stage_table

    parser = _run_parser(
        "python -m repro trace",
        "Trace a forwarding burst and print the Table-3-style "
        "per-stage cost breakdown.",
    )
    args = parser.parse_args(argv)
    try:
        router = _traced_run(args)
    except ValueError as exc:
        parser.error(str(exc))
    mode = "cpu-only" if args.cpu_only else "cpu+gpu"
    stats = router.stats
    print(f"traced {args.app} run ({mode}): {stats.received} packets in, "
          f"{stats.forwarded} forwarded, {stats.dropped} dropped, "
          f"{stats.slow_path} slow-path, {stats.gpu_launches} GPU launches, "
          f"{stats.kernel_calls} kernel calls")
    print()
    summary = get_tracer().summary()
    print(stage_table(summary, title=f"{args.app} per-stage cost breakdown"))
    verdict = analyze(summary)
    if verdict is not None:
        print(f"bottleneck: {verdict.stage} "
              f"({verdict.share:.0%} of per-packet time)")
    return 0


def metrics_main(argv=None) -> int:
    """Run a traced burst and dump the metrics registry."""
    from repro.obs import (
        export_jsonl,
        export_prometheus,
        get_registry,
        get_tracer,
        stage_table,
    )

    parser = _run_parser(
        "python -m repro metrics",
        "Run a traced forwarding burst and dump the metrics registry.",
    )
    parser.add_argument(
        "--format", choices=("prometheus", "jsonl", "table"),
        default="prometheus", help="output format (default: prometheus)",
    )
    args = parser.parse_args(argv)
    try:
        _traced_run(args)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "prometheus":
        sys.stdout.write(export_prometheus(get_registry()))
    elif args.format == "jsonl":
        sys.stdout.write(export_jsonl(get_tracer(), get_registry()))
    else:
        print(stage_table(get_tracer().summary(),
                          title=f"{args.app} per-stage cost breakdown"))
    return 0


def chaos_main(argv=None) -> int:
    """Run fault-injection scenarios and print the chaos report."""
    import json

    from repro.faults.scenarios import SCENARIOS, run_scenario
    from repro.obs import (
        reset_flightrec,
        reset_profiler,
        reset_registry,
        reset_tracer,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Run deterministic fault-injection scenarios through "
        "the functional testbed and check the conservation and "
        "degradation invariants.",
    )
    parser.add_argument(
        "--scenario", default="all",
        help="scenario to run (default: all; see --list)",
    )
    parser.add_argument(
        "--list", action="store_true", dest="list_scenarios",
        help="list the available scenarios and exit",
    )
    parser.add_argument(
        "--seed", type=int, default=1, help="fault plan seed (default: 1)",
    )
    parser.add_argument(
        "--packets", type=int, default=2048,
        help="packets injected per scenario (default: 2048)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit one JSON object per scenario instead of the table",
    )
    args = parser.parse_args(argv)
    if args.packets <= 0:
        parser.error("packets must be positive")
    if args.list_scenarios:
        for name in sorted(SCENARIOS):
            scenario = SCENARIOS[name]
            traits = [f"traffic={scenario.traffic}", f"app={scenario.app}"]
            if scenario.plan.rules:
                traits.append(f"faults={len(scenario.plan.rules)}")
            if scenario.overload:
                traits.append("overload-control")
            print(f"{name:<16} {' '.join(traits)}")
        return 0
    if args.scenario != "all" and args.scenario not in SCENARIOS:
        # Distinct exit code: 2 = unknown scenario (vs 1 = scenario ran
        # and an invariant failed), so CI can tell a typo from a bug.
        print(
            f"unknown scenario {args.scenario!r} "
            f"(choose from {', '.join(sorted(SCENARIOS))})",
            file=sys.stderr,
        )
        return 2
    names = sorted(SCENARIOS) if args.scenario == "all" else [args.scenario]
    failures = 0
    if not args.as_json:
        print(f"chaos run: seed={args.seed}, {args.packets} packets/scenario")
        print(f"  {'scenario':<16} {'in':>6} {'fwd':>6} {'drop':>6} "
              f"{'slow':>5} {'shed':>5} {'faults':>6} {'retry':>5} "
              f"{'degr':>5} {'conserved':>9}")
        print("-" * 78)
    for name in names:
        reset_registry()
        reset_tracer()
        reset_flightrec()
        reset_profiler()
        report = run_scenario(name, seed=args.seed, packets=args.packets)
        if not report.conservation_ok:
            failures += 1
        if args.as_json:
            print(json.dumps(report.to_dict(), sort_keys=True))
            continue
        fired = sum(report.faults_fired.values())
        print(f"  {name:<16} {report.received:>6} {report.forwarded:>6} "
              f"{report.dropped:>6} {report.slow_path:>5} "
              f"{report.rx_shed:>5} {fired:>6} "
              f"{report.gpu_retries:>5} {report.degraded_chunks:>5} "
              f"{'ok' if report.conservation_ok else 'VIOLATED':>9}")
    if not args.as_json:
        print("-" * 78)
        sample = run_scenario(names[0], seed=args.seed, packets=64)
        print(f"degraded capacity (breaker open): {sample.degraded_gbps:.2f} "
              f"Gbps vs CPU-only baseline {sample.cpu_only_gbps:.2f} Gbps "
              f"({sample.degraded_ratio:.1%})")
        print("conservation: received == forwarded + dropped + slow_path "
              + ("held in every scenario" if failures == 0
                 else f"VIOLATED in {failures} scenario(s)"))
    return 1 if failures else 0
