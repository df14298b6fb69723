"""Campaign reports: human-readable tables and machine-readable JSON.

The JSON shape mirrors the benchmark reporter's metrics export (plain
dicts, sorted keys) so campaign outputs can live next to
``bench_output.txt`` artifacts in CI.
"""

from __future__ import annotations

import json

from .runner import CampaignResult


def campaign_to_dict(campaign: CampaignResult) -> dict:
    by_scenario: dict[str, dict] = {}
    for result in campaign.results:
        row = by_scenario.setdefault(result.scenario, {
            "runs": 0, "violations": 0, "divergences": 0, "errors": 0,
            "sim_seconds": 0.0, "trace_records": 0})
        row["runs"] += 1
        row["violations"] += len(result.violations)
        row["divergences"] += 1 if result.divergence else 0
        row["errors"] += 1 if result.error else 0
        row["sim_seconds"] += result.sim_time
        row["trace_records"] += result.trace_records
    return {
        "runs": campaign.runs,
        "workers": campaign.workers,
        "wall_seconds": round(campaign.wall_seconds, 3),
        "seeds_per_second": round(campaign.seeds_per_second, 3),
        "ok": campaign.ok,
        "scenarios": {name: row for name, row
                      in sorted(by_scenario.items())},
        "failures": [r.to_dict() for r in campaign.results if not r.ok],
    }


def campaign_to_json(campaign: CampaignResult) -> str:
    return json.dumps(campaign_to_dict(campaign), indent=2, sort_keys=True)


def format_report(campaign: CampaignResult) -> str:
    """The terminal summary for ``python -m repro.chaos``."""
    data = campaign_to_dict(campaign)
    lines = []
    lines.append("== chaos campaign ==")
    lines.append(
        f"runs={data['runs']}  workers={data['workers']}  "
        f"wall={data['wall_seconds']:.1f}s  "
        f"throughput={data['seeds_per_second']:.2f} seeds/s")
    header = (f"{'scenario':<14} {'runs':>5} {'violations':>10} "
              f"{'divergences':>11} {'errors':>6} {'sim-s':>10} "
              f"{'trace-recs':>10}")
    lines.append(header)
    lines.append("-" * len(header))
    for name, row in data["scenarios"].items():
        lines.append(
            f"{name:<14} {row['runs']:>5} {row['violations']:>10} "
            f"{row['divergences']:>11} {row['errors']:>6} "
            f"{row['sim_seconds']:>10.0f} {row['trace_records']:>10}")
    for result in campaign.results:
        if result.ok:
            continue
        lines.append("")
        lines.append(f"-- FAILURE {result.scenario} seed={result.seed} "
                     f"(repro: python -m repro.chaos repro "
                     f"{result.scenario} {result.seed})")
        for violation in result.violations:
            lines.append(f"   [{violation['invariant']}] "
                         f"{violation['detail']}")
        if result.divergence:
            div = result.divergence
            lines.append(f"   [determinism] digests differ: "
                         f"{div.get('first_digest', '')[:12]} vs "
                         f"{div.get('second_digest', '')[:12]} at trace "
                         f"record {div.get('index', '?')}")
            if div.get("first"):
                lines.append(f"     first:  {div['first']}")
                lines.append(f"     second: {div['second']}")
        if result.error:
            lines.append(f"   [error] {result.error}")
        if result.plan.get("events"):
            lines.append(f"   plan: {json.dumps(result.plan['events'])}")
    lines.append("")
    lines.append("OK: no invariant violations, no determinism divergence"
                 if campaign.ok else
                 f"FAIL: {len(campaign.violations)} violating run(s), "
                 f"{len(campaign.divergences)} divergence(s), "
                 f"{len(campaign.errors)} error(s)")
    return "\n".join(lines)
