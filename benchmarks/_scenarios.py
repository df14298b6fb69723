"""Shared scenario builders for the benchmark suite.

Time scaling: the paper's experiences span days; benchmarks run the same
*structures* with a documented ``TIME_SCALE`` (1 simulated second here
stands for ``TIME_SCALE`` real 2001-seconds) and a ``CPU_SCALE``
(slots here per paper CPU).  Reported "scaled" numbers multiply back so
the paper's rows and ours are directly comparable; the *shape* claims
(who wins, ratios, crossovers) are scale-free.
"""

from __future__ import annotations

from repro import GridTestbed, JobDescription

__all__ = ["TIME_SCALE", "CPU_SCALE", "drain", "time_to_start", "makespan"]

TIME_SCALE = 100.0      # 1 sim second == 100 paper-seconds
CPU_SCALE = 10.0        # 1 slot here == 10 paper CPUs


def drain(tb: GridTestbed, done, cap: float, chunk: float = 2000.0):
    """Advance the sim in chunks until `done()` or the cap."""
    while not done() and tb.sim.now < cap:
        tb.sim.run(until=tb.sim.now + chunk)
    return tb.sim.now


def time_to_start(agent, job_ids) -> list[float]:
    out = []
    for jid in job_ids:
        status = agent.status(jid)
        if status.start_time is not None:
            out.append(status.start_time - status.submit_time)
    return out


def makespan(agent, job_ids) -> float:
    ends = [agent.status(j).end_time for j in job_ids
            if agent.status(j).end_time is not None]
    starts = [agent.status(j).submit_time for j in job_ids]
    if not ends:
        return float("nan")
    return max(ends) - min(starts)
