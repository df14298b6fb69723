"""Replicated job submission ("flooding") with cancel-on-first-start.

Paper §4.4: "In the case of high throughput computations, a simple but
effective technique is to flood candidate resources with requests to
execute jobs.  These can be the actual jobs submitted by the user or
Condor GlideIns...  Monitoring of actual queuing and execution times
allows for the tuning of where to submit subsequent jobs and to migrate
queued jobs."

:class:`FloodingSubmitter` implements the *actual jobs* variant: one
logical job is submitted to several gatekeepers at once; the moment one
replica starts executing, the still-queued replicas are cancelled
(migrating the job's queue position is equivalent to abandoning the
slower queues).  A replica that has already started when another wins is
counted as wasted execution -- the price of this strategy, reported by
the benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from ..states import FLOOD_EDGES, check_edge
from . import job as J
from .api import CondorGAgent, JobDescription


@dataclass
class FloodedJob:
    logical_id: str
    replicas: list[str]
    winner: Optional[str] = None
    state: str = "FLOODED"           # FLOOD_EDGES, moved by _move alone
    wasted_executions: int = 0
    cancelled_queued: int = 0
    submit_time: float = 0.0
    start_time: Optional[float] = None
    end_time: Optional[float] = None

    @property
    def is_terminal(self) -> bool:
        return self.state in ("DONE", "FAILED")

    @property
    def is_complete(self) -> bool:
        return self.state == "DONE"


class FloodingSubmitter:
    """Submit each job to several sites; keep whichever starts first."""

    POLL_INTERVAL = 15.0

    def __init__(self, agent: CondorGAgent):
        self.agent = agent
        self.sim = agent.sim
        self._ids = itertools.count(1)
        self.jobs: dict[str, FloodedJob] = {}

    def submit(self, description: JobDescription,
               sites: list[str]) -> str:
        if not sites:
            raise ValueError("flooding needs at least one site")
        logical_id = f"flood-{next(self._ids)}"
        replicas = [self.agent.submit(description, resource=site)
                    for site in sites]
        flooded = FloodedJob(logical_id=logical_id, replicas=replicas,
                             submit_time=self.sim.now)
        self.jobs[logical_id] = flooded
        self.sim.spawn(self._watch(flooded), name=f"flood:{logical_id}")
        self.sim.trace.log("flood", "submitted", logical=logical_id,
                           replicas=len(replicas))
        return logical_id

    def status(self, logical_id: str) -> FloodedJob:
        return self.jobs[logical_id]

    # -- the watcher ------------------------------------------------------------
    def _move(self, flooded: FloodedJob, state: str,
              end_time: Optional[float] = None) -> None:
        """The one writer (``FLOOD_EDGES``); stamps a terminal `end_time`."""
        check_edge(FLOOD_EDGES, flooded.logical_id, flooded.state, state)
        flooded.state = state
        if flooded.is_terminal:
            flooded.end_time = end_time

    def _watch(self, flooded: FloodedJob):
        while True:
            yield self.sim.timeout(self.POLL_INTERVAL)
            statuses = {r: self.agent.status(r)
                        for r in flooded.replicas}
            if flooded.winner is None:
                started = [r for r, s in statuses.items()
                           if s.state in (J.ACTIVE, J.DONE)]
                if started:
                    flooded.winner = started[0]
                    self._move(flooded, "RUNNING")
                    flooded.start_time = \
                        statuses[flooded.winner].start_time
                    flooded.wasted_executions = len(started) - 1
                    for replica in flooded.replicas:
                        if replica == flooded.winner:
                            continue
                        if not statuses[replica].is_terminal:
                            if statuses[replica].state not in (J.ACTIVE,):
                                flooded.cancelled_queued += 1
                            self.agent.cancel(replica)
                    self.sim.trace.log("flood", "winner",
                                       logical=flooded.logical_id,
                                       winner=flooded.winner)
                elif all(s.is_terminal for s in statuses.values()):
                    # every replica failed before starting
                    self._move(flooded, "FAILED", self.sim.now)
                    return
            else:
                winner = statuses[flooded.winner]
                if winner.is_terminal:
                    self._move(flooded, "DONE" if winner.is_complete
                               else "FAILED", winner.end_time)
                    self.sim.trace.log("flood", "finished",
                                       logical=flooded.logical_id,
                                       state=flooded.state)
                    return
