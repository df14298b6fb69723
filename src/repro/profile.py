"""Profile any registered scenario under cProfile, in one command.

ROADMAP item 1 says "profile it, then attack"; this makes "profile it"::

    PYTHONPATH=src python -m repro.profile scale-gram --top 25
    PYTHONPATH=src python -m repro.profile monitored-gram --sort tottime

Builds the scenario, runs it to quiescence (every workload job
terminal) or its cap under ``cProfile``, then prints

* the top-N hotspots by cumulative time (``pstats``), and
* per-daemon RPC counts -- every ``call``/``notify`` tallied by
  ``(service, method)`` via :data:`repro.sim.rpc.RPC_STATS`, with
  per-instance service names collapsed (``jm:site00-jm7`` -> ``jm:*``)
  so ten thousand JobManagers read as one row.

The RPC tally is plain Python bookkeeping outside the simulation, so a
profiled run keeps the exact digest of an unprofiled one.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys

from .grid.scenarios import get_scenario, scenario_names
from .sim import rpc
from .states import is_terminal


def _normalize_service(name: str) -> str:
    """Collapse per-instance service names onto their daemon family."""
    for sep in (":", "@"):
        if sep in name:
            return name.split(sep, 1)[0] + sep + "*"
    if name.startswith("gass-"):
        return "gass-*"
    return name


def _nonterminal(tb) -> int:
    total = 0
    for agent in tb.agents.values():
        schedd = getattr(agent, "schedd", None)
        if schedd is not None:
            total += sum(1 for j in schedd.jobs.values()
                         if not is_terminal(j.state))
        scheduler = getattr(agent, "scheduler", None)
        if scheduler is not None:
            total += sum(1 for j in scheduler.jobs.values()
                         if not j.is_terminal)
    return total


def _run_scenario(name: str, seed: int, until):
    scenario = get_scenario(name)
    tb = scenario.build(seed)
    cap = until if until is not None else scenario.cap
    chunk = scenario.chunk
    while tb.sim.now < cap and _nonterminal(tb):
        tb.run(until=min(cap, tb.sim.now + chunk))
    return tb


def _print_rpc_table(stats: dict, width: int = 72) -> None:
    by_daemon: dict[tuple[str, str], int] = {}
    for (service, method), count in stats.items():
        key = (_normalize_service(service), method)
        by_daemon[key] = by_daemon.get(key, 0) + count
    total = sum(by_daemon.values())
    print("\nper-daemon RPC counts "
          f"({total} calls/notifies total)")
    print("-" * width)
    print(f"{'service':<24} {'method':<28} {'calls':>10}")
    print("-" * width)
    ranked = sorted(by_daemon.items(), key=lambda kv: (-kv[1], kv[0]))
    for (service, method), count in ranked:
        print(f"{service:<24} {method:<28} {count:>10}")
    print("-" * width)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.profile",
        description="Run a registered scenario under cProfile and print "
                    "hotspots + per-daemon RPC counts.")
    parser.add_argument("scenario",
                        help="registered scenario name "
                             f"(known: {', '.join(scenario_names())})")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--top", type=int, default=20,
                        help="hotspot rows to print (default 20)")
    parser.add_argument("--until", type=float, default=None,
                        help="simulated-seconds cap (default: the "
                             "scenario's own cap)")
    parser.add_argument("--sort", default="cumulative",
                        choices=("cumulative", "tottime", "ncalls"),
                        help="pstats sort order (default cumulative)")
    args = parser.parse_args(argv)

    get_scenario(args.scenario)    # fail fast on unknown names

    rpc.RPC_STATS = {}
    profiler = cProfile.Profile()
    try:
        profiler.enable()
        tb = _run_scenario(args.scenario, args.seed, args.until)
        profiler.disable()
        stats = rpc.RPC_STATS
    finally:
        rpc.RPC_STATS = None

    print(f"scenario {args.scenario} seed {args.seed}: "
          f"sim time {tb.sim.now:.1f}s, "
          f"{_nonterminal(tb)} workload jobs nonterminal")
    ps = pstats.Stats(profiler, stream=sys.stdout)
    ps.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    _print_rpc_table(stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
