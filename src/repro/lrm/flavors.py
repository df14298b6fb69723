"""Concrete batch-system flavors (paper §2, §6, §7).

Each flavor keeps the shared slot/queue machinery of
:class:`~repro.lrm.base.LocalResourceManager` and differs in its
scheduling policy -- the aspect that shapes queue waits, which is what the
GlideIn delayed-binding claim is about:

* :class:`ForkLRM` -- the Globus "fork" jobmanager: immediate execution,
  bounded only by slot count.
* :class:`PBSCluster` -- FIFO.
* :class:`LSFCluster` -- fairshare: users with fewer running jobs first.
* :class:`LoadLevelerCluster` -- FIFO.
* :class:`NQECluster` -- priority queues (higher priority first).
* :class:`CondorPoolLRM` -- opportunistic desktop pool: jobs can be
  preempted when a workstation's owner returns; preempted jobs requeue.
"""

from __future__ import annotations

from ..sim.hosts import Host
from .base import LRMJob, LocalResourceManager


class ForkLRM(LocalResourceManager):
    """Immediate execution on the gatekeeper node (jobmanager-fork)."""

    flavor = "fork"


class PBSCluster(LocalResourceManager):
    """FIFO order, PBS-style."""

    flavor = "pbs"


class LSFCluster(LocalResourceManager):
    """Fairshare: users with less accumulated usage go first.

    Usage counts CPU-seconds already delivered plus what currently
    running jobs have consumed so far -- a simple (undecayed) fairshare.
    """

    flavor = "lsf"

    def order_queue(self, queued: list[LRMJob]) -> list[LRMJob]:
        usage = dict(self.user_usage)
        for local_id in self.running:
            job = self.jobs[local_id]
            if job.start_time is not None:
                usage[job.owner] = usage.get(job.owner, 0.0) + \
                    (self.sim.now - job.start_time) * job.spec.cpus
        return sorted(
            queued,
            key=lambda j: (usage.get(j.owner, 0.0), j.submit_time))


class LoadLevelerCluster(LocalResourceManager):
    """FIFO order, LoadLeveler-style."""

    flavor = "loadleveler"


class NQECluster(LocalResourceManager):
    """Priority queues: higher `spec.priority` first, FIFO within."""

    flavor = "nqe"

    def order_queue(self, queued: list[LRMJob]) -> list[LRMJob]:
        return sorted(queued, key=lambda j: (-j.spec.priority,
                                             j.submit_time))


class CondorPoolLRM(LocalResourceManager):
    """An opportunistic Condor pool of desktop workstations.

    Each slot is a workstation whose owner occasionally reclaims it; any
    job running there is vacated (Condor-vacate) and requeued.  The mean
    time between owner arrivals is per-slot and exponential, drawn from a
    named RNG stream so runs are reproducible.
    """

    flavor = "condor"

    def __init__(
        self,
        host: Host,
        slots: int,
        owner_mtbf: float = 0.0,        # 0 disables preemption
        owner_busy_time: float = 300.0,
    ):
        super().__init__(host, slots)
        self.owner_mtbf = owner_mtbf
        self.owner_busy_time = owner_busy_time
        if owner_mtbf > 0:
            rng = self.sim.rng.stream(f"condorpool:{host.name}")
            for slot in range(slots):
                self.spawn(self._owner_activity(slot, rng),
                           name=f"owner:{host.name}:{slot}")

    def _owner_activity(self, slot: int, rng):
        """A workstation owner who comes back now and then."""
        while True:
            yield self.sim.timeout(rng.expovariate(1.0 / self.owner_mtbf))
            victim = self._pick_running_job(rng)
            if victim is not None:
                self._trace("owner_reclaim", slot=slot, job=victim)
                self.preempt(victim)
                # the workstation is busy with its owner for a while
                self.free_slots -= 1
                yield self.sim.timeout(
                    rng.expovariate(1.0 / self.owner_busy_time))
                self.free_slots += 1
                self._kick()

    def _pick_running_job(self, rng):
        running = sorted(self.running.keys())
        if not running:
            return None
        return running[rng.randrange(len(running))]


FLAVORS = {
    "fork": ForkLRM,
    "pbs": PBSCluster,
    "lsf": LSFCluster,
    "loadleveler": LoadLevelerCluster,
    "nqe": NQECluster,
    "condor": CondorPoolLRM,
}


def make_lrm(flavor: str, host: Host, slots: int, **kwargs
             ) -> LocalResourceManager:
    """Factory used by the testbed builder."""
    cls = FLAVORS.get(flavor)
    if cls is None:
        raise ValueError(f"unknown LRM flavor {flavor!r}; "
                         f"choose from {sorted(FLAVORS)}")
    return cls(host, slots, **kwargs)
