"""Command-line-tool look and feel (paper §4.1).

"The Condor-G agent allows the user to treat the Grid as an entirely
local resource, with an API and command line tools" -- these are those
tools: text renderings of agent state in the spirit of ``condor_q``,
``condor_history``, and ``condor_status``, suitable for printing from a
portal or an interactive session.
"""

from __future__ import annotations

from typing import Optional

from .api import CondorGAgent

_STATE_CODE = {
    "UNSUBMITTED": "U", "SUBMITTING": "S", "PENDING": "P", "ACTIVE": "R",
    "DONE": "C", "FAILED": "X", "HELD": "H",
    "IDLE": "I", "MATCHED": "M", "RUNNING": "R", "COMPLETED": "C",
    "REMOVED": "X",
}


def _fmt_time(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:10.1f}"


def _render(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in rows:
        out.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(out)


def condor_q(agent: CondorGAgent, include_done: bool = False) -> str:
    """The queue view: every non-terminal job of this agent."""
    headers = ["ID", "ST", "UNIVERSE", "RESOURCE", "SUBMITTED",
               "RUN_TIME", "DETAIL"]
    rows = []
    now = agent.sim.now
    entries = agent.statuses()
    shown = 0
    for status in sorted(entries, key=lambda s: s.submit_time):
        if status.is_terminal and not include_done:
            continue
        shown += 1
        run_time = 0.0
        if status.start_time is not None:
            run_time = (status.end_time or now) - status.start_time
        detail = status.hold_reason or status.failure_reason or ""
        rows.append([
            status.job_id,
            _STATE_CODE.get(status.state, "?"),
            status.universe,
            status.resource or "(unmatched)",
            _fmt_time(status.submit_time),
            _fmt_time(run_time),
            detail[:40],
        ])
    counts: dict[str, int] = {}
    for status in entries:
        counts[status.state] = counts.get(status.state, 0) + 1
    summary = "; ".join(f"{v} {k.lower()}"
                        for k, v in sorted(counts.items()))
    return _render(headers, rows) + f"\n\n{shown} jobs shown; {summary}"


def condor_history(agent: CondorGAgent) -> str:
    """Terminal jobs with outcomes, most recent last."""
    headers = ["ID", "ST", "RESOURCE", "STARTED", "ENDED", "EXIT",
               "ATTEMPTS"]
    rows = []
    entries = agent.statuses()
    for status in sorted(entries, key=lambda s: s.end_time or 0.0):
        if not status.is_terminal:
            continue
        rows.append([
            status.job_id,
            _STATE_CODE.get(status.state, "?"),
            status.resource or "-",
            _fmt_time(status.start_time),
            _fmt_time(status.end_time),
            "-" if status.exit_code is None else str(status.exit_code),
            str(status.attempts),
        ])
    return _render(headers, rows)


def condor_status(agent: CondorGAgent) -> str:
    """The personal pool's slots (glideins and any other startds)."""
    if agent.collector is None:
        return "(agent has no personal pool)"
    headers = ["NAME", "SITE", "ARCH", "STATE", "GLIDEIN"]
    rows = []
    for ad in agent.collector.live_ads("startd"):
        rows.append([
            str(ad.get("Name")),
            str(ad.get("Site", "")),
            str(ad.get("Arch", "")),
            str(ad.get("State", "")),
            "yes" if ad.get("GlideIn") is True else "no",
        ])
    total = len(rows)
    unclaimed = sum(1 for r in rows if r[3] == "Unclaimed")
    return _render(headers, rows) + \
        f"\n\n{total} slots; {unclaimed} unclaimed"
