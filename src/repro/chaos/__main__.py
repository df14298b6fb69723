"""``python -m repro.chaos``: run, reproduce, and shrink fault campaigns.

Subcommands
-----------
``run`` (default)
    Run a multi-seed campaign over the registered scenarios, print the
    violation/digest report, exit non-zero on any violation, determinism
    divergence, or worker error.
``repro <scenario> <seed>``
    Re-run one cell from its coordinates (optionally with a stored plan
    via ``--plan``), print its plan, violations, and digest; ``--shrink``
    delta-debugs a violating plan down to a minimal schedule (forking a
    pre-fault snapshot per candidate where ``os.fork`` exists).
``scenarios``
    List the registered scenarios.
"""

from __future__ import annotations

import argparse
import json
import sys

from .plan import FaultPlan
from .report import campaign_to_json, format_report
from .runner import (
    DEFAULT_SCENARIOS,
    default_workers,
    run_campaign,
    run_one,
)
from .shrink import shrink_plan


def _cmd_run(args: argparse.Namespace) -> int:
    scenarios = args.scenarios.split(",") if args.scenarios \
        else list(DEFAULT_SCENARIOS)
    campaign = run_campaign(
        scenarios=scenarios,
        seeds=range(args.seed_base, args.seed_base + args.seeds),
        workers=args.workers,
        audit=args.audit,
    )
    print(format_report(campaign))
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(campaign_to_json(campaign))
        print(f"wrote {args.json}")
    return 0 if campaign.ok else 1


def _cmd_repro(args: argparse.Namespace) -> int:
    plan = None
    if args.plan:
        with open(args.plan) as fh:
            plan = FaultPlan.from_json(fh.read())
    result = run_one(args.scenario, args.seed, plan=plan,
                     audit=not args.no_audit)
    print(f"scenario={result.scenario} seed={result.seed} "
          f"sim_time={result.sim_time:.0f}s "
          f"trace_records={result.trace_records}")
    print(f"digest={result.digest}")
    print("plan:")
    print(FaultPlan.from_dict(result.plan).to_json())
    if result.error:
        print(f"ERROR: {result.error}")
        return 1
    if result.divergence:
        print(f"DETERMINISM DIVERGENCE: {json.dumps(result.divergence)}")
    for violation in result.violations:
        print(f"VIOLATION [{violation['invariant']}] "
              f"{violation['detail']}")
    if not result.violations and not result.divergence:
        print("OK: no violations")
        return 0
    if args.shrink and result.violations:
        names = {v["invariant"] for v in result.violations}
        stats: dict = {}
        minimal, replays = shrink_plan(
            args.scenario, args.seed, FaultPlan.from_dict(result.plan),
            invariants=names, stats=stats)
        print(f"shrunk to {len(minimal)} event(s) in {replays} replays "
              f"[{stats['mode']}: "
              f"{stats.get('replayed_sim_seconds', 0.0):.0f} sim-seconds "
              f"replayed, {stats['wall_seconds']:.1f}s wall]:")
        print(minimal.to_json())
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="deterministic fault-plan fuzzing for the Condor-G "
                    "reproduction")
    sub = parser.add_subparsers(dest="command")

    run_p = sub.add_parser("run", help="run a campaign (default)")
    run_p.add_argument("--scenarios", default="",
                       help="comma-separated scenario names "
                            f"(default: {','.join(DEFAULT_SCENARIOS)})")
    run_p.add_argument("--seeds", type=int, default=20,
                       help="seeds per scenario (default 20)")
    run_p.add_argument("--seed-base", type=int, default=0)
    run_p.add_argument("--workers", type=int, default=default_workers())
    run_p.add_argument("--audit", action="store_true",
                       help="run every cell twice and compare digests")
    run_p.add_argument("--json", default="",
                       help="also write the campaign report to this file")
    run_p.set_defaults(func=_cmd_run)

    repro_p = sub.add_parser("repro",
                             help="re-run one (scenario, seed) cell")
    repro_p.add_argument("scenario")
    repro_p.add_argument("seed", type=int)
    repro_p.add_argument("--plan", default="",
                         help="replay a stored plan JSON file instead of "
                              "regenerating from the seed")
    repro_p.add_argument("--no-audit", action="store_true")
    repro_p.add_argument("--shrink", action="store_true",
                         help="delta-debug a violating plan to a "
                              "minimal schedule")
    repro_p.set_defaults(func=_cmd_repro)

    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("run", "repro", "-h", "--help"):
        argv = ["run"] + argv      # bare `python -m repro.chaos [...]`
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
