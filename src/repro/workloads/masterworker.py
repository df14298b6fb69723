"""The Master-Worker framework of Experience 1 (paper §6).

"Each worker in this Master-Worker application was implemented as an
independent Condor job that used Remote I/O services to communicate with
the Master."  We reproduce exactly that: the master is an object on the
submit machine whose handler is wired into each worker's *Shadow* as the
remote-syscall server; workers are standard-universe Condor jobs whose
program loops get_task -> compute -> put_result through
``ctx.syscall``.

Fault tolerance falls out of the surrounding machinery: a vacated or
killed worker's leased tasks are requeued (schedd vacate hook + a lease
sweep), and a fresh worker -- possibly on a different glidein at a
different site -- picks them up.

Two masters are provided:

* :class:`QAPMaster` -- a *real* distributed branch and bound over a
  :class:`~repro.workloads.lap.QAPInstance`; workers execute actual node
  expansions (Gilmore-Lawler bounds via Hungarian LAPs) and simulated
  time is charged per LAP solved.
* :class:`SyntheticMaster` -- a fixed bag of tasks with a configurable
  work distribution, for scale benchmarks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

from ..condor import CondorJob, job_ad, next_cluster_id
from ..core.api import CondorGAgent
from .lap import BBNode, QAPBranchAndBound, QAPInstance


@dataclass
class MWTask:
    task_id: int
    payload: Any
    work: float                      # simulated compute seconds
    leased_to: Optional[str] = None  # worker job id
    lease_time: float = 0.0


class Master:
    """Task pool + syscall protocol.  Subclass and override hooks."""

    def __init__(self, agent: CondorGAgent, worker_poll: float = 30.0,
                 dispatch: str = "fifo"):
        if agent.schedd is None:
            raise ValueError("master-worker needs an agent with a pool")
        if dispatch not in ("fifo", "lifo"):
            raise ValueError("dispatch must be 'fifo' or 'lifo'")
        self.agent = agent
        self.sim = agent.sim
        self.schedd = agent.schedd
        self.worker_poll = worker_poll
        self.dispatch = dispatch
        self._ids = itertools.count(1)
        self.pending: list[MWTask] = []
        self.leased: dict[int, MWTask] = {}
        self.results: list[tuple[MWTask, Any]] = []
        self.tasks_dispatched = 0
        self.tasks_completed = 0
        self.tasks_requeued = 0
        self.worker_ids: list[str] = []
        self.done_event = self.sim.event(name="mw-done")
        self.schedd.vacate_hooks.append(self._worker_vacated)

    # -- subclass hooks -----------------------------------------------------
    def on_result(self, task: MWTask, result: Any) -> None:
        """Process a result; may call add_task() to grow the pool."""

    def work_remains(self) -> bool:
        return bool(self.pending or self.leased)

    # -- task pool ------------------------------------------------------------
    def add_task(self, payload: Any, work: float) -> MWTask:
        task = MWTask(task_id=next(self._ids), payload=payload, work=work)
        self.pending.append(task)
        return task

    @property
    def done(self) -> bool:
        return not self.work_remains()

    # -- the remote-syscall protocol ---------------------------------------------
    def syscall_handler(self, op: str, nbytes: int, payload: Any):
        if op == "get_task":
            return self._op_get_task(payload)
        if op == "put_result":
            return self._op_put_result(payload)
        return {"ok": False, "error": f"unknown op {op}"}

    def _op_get_task(self, payload: Any) -> dict:
        worker = (payload or {}).get("worker", "?")
        if self.pending:
            task = (self.pending.pop()
                    if self.dispatch == "lifo" else self.pending.pop(0))
            task.leased_to = worker
            task.lease_time = self.sim.now
            self.leased[task.task_id] = task
            self.tasks_dispatched += 1
            return {"task_id": task.task_id, "payload": task.payload,
                    "work": task.work, "done": False}
        return {"task_id": None, "done": self.done}

    def _op_put_result(self, payload: Any) -> dict:
        task = self.leased.pop(payload["task_id"], None)
        if task is None:
            return {"ok": False}     # stale result from a zombie worker
        self.tasks_completed += 1
        self.results.append((task, payload.get("result")))
        self.on_result(task, payload.get("result"))
        if self.done and not self.done_event.triggered \
                and not self.done_event._scheduled:
            self.done_event.succeed(self.stats())
        return {"ok": True}

    # -- fault tolerance ----------------------------------------------------------
    def _worker_vacated(self, job: CondorJob) -> None:
        if job.job_id not in self.worker_ids:
            return
        for task_id in [tid for tid, t in self.leased.items()
                        if t.leased_to == job.job_id]:
            task = self.leased.pop(task_id)
            task.leased_to = None
            self.pending.insert(0, task)
            self.tasks_requeued += 1

    # -- workers ------------------------------------------------------------
    def worker_program(self):
        master = self

        def program(ctx):
            worker_id = ctx.jobdesc["job_id"]
            while True:
                resp = yield from ctx.syscall(
                    "get_task", payload={"worker": worker_id})
                if resp.get("task_id") is None:
                    if resp.get("done"):
                        return 0
                    yield ctx.sim.timeout(master.worker_poll)
                    continue
                result, extra_work = master.compute(resp["payload"])
                yield ctx.sim.timeout(resp["work"] + extra_work)
                yield from ctx.syscall("put_result", payload={
                    "task_id": resp["task_id"], "result": result,
                    "worker": worker_id})

        return program

    def compute(self, payload: Any) -> tuple[Any, float]:
        """Run the task's actual computation; returns (result, extra
        simulated seconds beyond the task's nominal work)."""
        return None, 0.0

    def submit_workers(self, count: int, universe: str = "standard",
                       requirements: str = "true") -> list[str]:
        ids = []
        for _ in range(count):
            job = CondorJob(
                job_id=next_cluster_id(),
                ad=job_ad(self.agent.user, requirements=requirements),
                runtime=1.0,     # unused: the program decides when to stop
                universe=universe,
                program=self.worker_program(),
                syscall_handler=self.syscall_handler,
            )
            ids.append(self.schedd.submit(job))
        self.worker_ids.extend(ids)
        return ids

    def stats(self) -> dict:
        return {
            "dispatched": self.tasks_dispatched,
            "completed": self.tasks_completed,
            "requeued": self.tasks_requeued,
            "pending": len(self.pending),
        }


class SyntheticMaster(Master):
    """A fixed bag of `n_tasks` tasks with exponential work times."""

    def __init__(self, agent: CondorGAgent, n_tasks: int,
                 mean_work: float = 60.0, stream: str = "mw-work",
                 **kwargs):
        super().__init__(agent, **kwargs)
        rng = agent.sim.rng.stream(stream)
        for i in range(n_tasks):
            self.add_task(payload=i,
                          work=rng.expovariate(1.0 / mean_work))


class QAPMaster(Master):
    """Distributed QAP branch and bound: tasks are B&B node expansions.

    Each task ships a :class:`BBNode` (plus the current incumbent);
    workers run the *actual* Gilmore-Lawler/Hungarian mathematics and
    send back children + leaf solutions; the master prunes against the
    incumbent and enqueues surviving children.  ``time_per_lap`` converts
    LAPs solved into simulated compute seconds.
    """

    def __init__(self, agent: CondorGAgent, instance: QAPInstance,
                 time_per_lap: float = 0.5, **kwargs):
        # Depth-first dispatch finds incumbents early, like the paper's
        # "sophisticated branch and bound" (less wasted exploration).
        kwargs.setdefault("dispatch", "lifo")
        super().__init__(agent, **kwargs)
        self.instance = instance
        self.bb = QAPBranchAndBound(instance)
        self.time_per_lap = time_per_lap
        self.incumbent = float("inf")
        self.best_perm: Optional[list[int]] = None
        self.nodes_explored = 0
        self.laps_solved = 0
        root = self.bb.root()
        self.laps_solved += 1
        self.add_task(payload=root, work=time_per_lap)

    def compute(self, payload: BBNode) -> tuple[Any, float]:
        children, laps, solutions = self.bb.expand(payload, self.incumbent)
        return ({"children": children, "laps": laps,
                 "solutions": solutions},
                laps * self.time_per_lap)

    def on_result(self, task: MWTask, result: Any) -> None:
        self.nodes_explored += 1
        self.laps_solved += result["laps"]
        for value, perm in result["solutions"]:
            if value < self.incumbent:
                self.incumbent = value
                self.best_perm = perm
        for child in result["children"]:
            if child.bound < self.incumbent:
                self.add_task(payload=child, work=self.time_per_lap)
