"""The GlideInFactory control loop.

One factory per agent, running on the user's submit machine next to the
personal pool it serves.  Every cycle it *observes* three signals --

* **queue depth**: idle vanilla/standard jobs in the agent's queue;
* **idle-glidein ratio**: per site, how many provisioned slots sit
  Unclaimed versus Busy (plus allocations still pending in the LRM);
* **time-to-first-job**: how long the oldest idle job has waited --

and *acts* through the existing glidein lifecycle: new capacity goes
through :meth:`GlideInManager.glide_in` (ordinary GRAM jobs), early
scale-down asks remote startds to retire over RPC (they run the same
graceful shutdown as their idle timeout), and lease renewal provisions a
replacement before a busy glidein's walltime kill (the Shadow lease
requeues whatever it was running).

The factory is deliberately **stateless across restarts**: everything it
needs is re-derived each cycle from the agent's job queue and the
GlideInManager's live-startd list -- so a crashed factory (chaos
``factory_kill``) resumes correctly from a fresh instance.  The only
soft state lost is the renewed-lease memo, which at worst renews one
lease twice.
"""

from __future__ import annotations

import math
from typing import Optional, TYPE_CHECKING

from ..condor.startd import UNCLAIMED
from ..core.glidein import GlideInSpec
from ..sim.errors import RPCError
from ..sim.rpc import Service, call
from ..sim.stats import by, fold
from ..states import JobState
from .policy import FactoryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from ..core.api import CondorGAgent

# A renewal provisions one glidein without a ``provisioned`` record.
fold("factory", "reaped", "factory.reaped", by("site"))
fold("factory", "lease_renewed", "factory.renewals", by("site"))
fold("factory", "lease_renewed", "factory.provisioned", by("site"))
fold("factory", "provisioned", "factory.provisioned",
     lambda c, r: c.inc(r.details["count"], label=r.details["site"]))


class GlideInFactory(Service):
    """Service ``factory:<user>`` on the user's submit machine."""

    #: demand multiplier once the oldest idle job waits past the
    #: policy's ``wait_target``
    WAIT_BOOST = 1.5
    #: renew a busy glidein this long before its lease expires
    RENEW_MARGIN = 300.0

    def __init__(self, agent: "CondorGAgent",
                 sites: dict[str, tuple[str, FactoryPolicy]]):
        """`sites` maps site name -> (gatekeeper contact, policy)."""
        if agent.schedd is None or agent.glideins is None:
            raise ValueError(
                "GlideInFactory needs an agent with a personal pool")
        super().__init__(agent.host, name=f"factory:{agent.user}")
        self.agent = agent
        self.user = agent.user
        self.sites = dict(sites)
        self._site_of = {contact: name
                         for name, (contact, _) in sites.items()}
        self._next_up: dict[str, float] = {name: 0.0 for name in sites}
        self._next_down: dict[str, float] = {name: 0.0 for name in sites}
        #: glidein grid-job ids whose lease we already renewed (soft
        #: state: lost on factory restart, worst case one extra renewal)
        self._renewed: set[str] = set()
        self.cycles = 0
        self.spawn(self._run(), name=f"factory:{self.user}")

    def crash(self, cause: str = "crash") -> None:
        """Kill the daemon (chaos ``factory_kill``): loop dies, service
        drops off the host.  Provisioned glideins are unaffected."""
        self.sim.trace.log(f"factory:{self.user}", "crashed")
        super().crash(cause)

    # -- observations -------------------------------------------------------
    def _demand(self) -> tuple[int, float]:
        """(idle jobs queued in the pool, wait of the oldest of them)."""
        queue = self.agent.queue
        idle_ids = queue.ids_in(JobState.IDLE)
        if not idle_ids:
            return 0, 0.0
        oldest = min(queue.jobs[jid].submit_time for jid in idle_ids)
        return len(idle_ids), self.sim.now - oldest

    def _supply(self) -> tuple[dict[str, int], dict[str, int],
                               dict[str, int]]:
        """Per-site (non-terminal allocations, live startds, idle startds).

        An allocation counts from GRAM submission until its grid job goes
        terminal, so pending-in-LRM glideins hold their slot in the
        budget and bursts cannot over-provision past ``max_glideins``.
        """
        supply = {name: 0 for name in self.sites}
        live = {name: 0 for name in self.sites}
        idle = {name: 0 for name in self.sites}
        jobs = self.agent.queue.jobs
        for job_id in self.agent.glideins.submitted:
            job = jobs.get(job_id)
            if job is None or job.is_terminal:
                continue
            site = self._site_of.get(job.resource)
            if site is not None:
                supply[site] += 1
        for startd in self.agent.glideins.live_startds:
            if startd.host.get_service(startd.name) is not startd:
                continue
            site = self._startd_site(startd)
            if site is not None:
                live[site] += 1
                if startd.state == UNCLAIMED:
                    idle[site] += 1
        return supply, live, idle

    # -- the control loop ---------------------------------------------------
    def _run(self):
        tick = min(p.interval for _, p in self.sites.values())
        while True:
            retire = self._cycle()
            for host_name, service_name, site in retire:
                try:
                    ok = yield from call(self.host, host_name,
                                         service_name, "retire")
                except RPCError:
                    ok = False
                if ok:
                    self.sim.trace.log(f"factory:{self.user}", "reaped",
                                       site=site, startd=service_name)
            yield self.sim.timeout(tick)

    def _cycle(self) -> list[tuple[str, str, str]]:
        """One observe/decide step.  Submits new glideins synchronously;
        returns the (host, service, site) retire targets for the loop to
        RPC (scale-down is remote, so it cannot be synchronous)."""
        self.cycles += 1
        now = self.sim.now
        self.sim.metrics.counter("factory.cycles").inc()
        demand, oldest_wait = self._demand()
        supply, live, idle = self._supply()
        adds = {name: 0 for name in self.sites}

        # Demand: idle jobs not coverable by idle-or-pending glideins,
        # boosted when time-to-first-job is off target.
        effective = demand
        if demand and oldest_wait > min(
                p.wait_target for _, p in self.sites.values()):
            effective = math.ceil(demand * self.WAIT_BOOST)
        covered = sum(
            (idle[name] + max(0, supply[name] - live[name]))
            * self.sites[name][1].jobs_per_glidein
            for name in self.sites)
        remaining = effective - covered
        if remaining > 0:
            stepped: dict[str, int] = {name: 0 for name in self.sites}
            progress = True
            while remaining > 0 and progress:
                progress = False
                for name in sorted(self.sites):
                    if remaining <= 0:
                        break
                    _, policy = self.sites[name]
                    if now < self._next_up[name]:
                        continue
                    if stepped[name] >= policy.max_step:
                        continue
                    if supply[name] + adds[name] >= policy.max_glideins:
                        continue
                    adds[name] += 1
                    stepped[name] += 1
                    remaining -= policy.jobs_per_glidein
                    progress = True
            for name in sorted(self.sites):
                if stepped[name]:
                    self._next_up[name] = \
                        now + self.sites[name][1].scale_up_cooldown
                    self.sim.metrics.counter("factory.scale_ups").inc(
                        label=name)

        for name in sorted(self.sites):
            if adds[name]:
                self._provision(name, adds[name], reason="scale_up")

        self._renew_leases(demand, live, idle)

        # Scale-down: with an empty queue, retire idle glideins that
        # have sat unclaimed past the grace period.
        retire: list[tuple[str, str, str]] = []
        if demand == 0:
            for name in sorted(self.sites):
                _, policy = self.sites[name]
                if now < self._next_down[name]:
                    continue
                excess = idle[name]
                if excess <= 0:
                    continue
                candidates = sorted(
                    (s for s in self.agent.glideins.live_startds
                     if s.host.get_service(s.name) is s
                     and s.state == UNCLAIMED
                     and self._startd_site(s) == name
                     and now - s._idle_since >= policy.idle_grace),
                    key=lambda s: (s._idle_since, s.startd_name))
                targets = candidates[:excess]
                if targets:
                    self._next_down[name] = \
                        now + policy.scale_down_cooldown
                    self.sim.metrics.counter("factory.scale_downs").inc(
                        label=name)
                    retire.extend((s.host.name, s.name, name)
                                  for s in targets)
        self.sim.metrics.gauge("factory.demand").set(float(demand))
        return retire

    def _startd_site(self, startd) -> Optional[str]:
        site = startd.host.site
        return site if site in self.sites else None

    def _renew_leases(self, demand: int, live: dict[str, int],
                      idle: dict[str, int]) -> None:
        """Provision replacements for busy glideins about to hit their
        walltime kill, while the pool still has work for them."""
        now = self.sim.now
        jobs = self.agent.queue.jobs
        for job_id in list(self.agent.glideins.submitted):
            if job_id in self._renewed:
                continue
            job = jobs.get(job_id)
            if job is None or job.state != JobState.ACTIVE \
                    or job.start_time is None:
                continue
            site = self._site_of.get(job.resource)
            if site is None:
                continue
            _, policy = self.sites[site]
            expiry = job.start_time + policy.lease
            if now < expiry - self.RENEW_MARGIN:
                continue
            busy = live[site] - idle[site]
            if demand == 0 and busy == 0:
                continue      # nothing left to serve: let the lease lapse
            self._renewed.add(job_id)
            self.sim.trace.log(f"factory:{self.user}", "lease_renewed",
                               site=site, job=job_id)
            # Renewal is exempt from max_glideins: the expiring
            # allocation it replaces is still counted in the supply.
            self._provision(site, 1, reason="renewal", traced=False)

    def _provision(self, site: str, count: int, reason: str,
                   traced: bool = True) -> list[str]:
        contact, policy = self.sites[site]
        spec = GlideInSpec(
            site=contact, count=count,
            walltime=policy.lease,
            idle_timeout=policy.idle_timeout)
        job_ids = self.agent.glideins.glide_in(spec)
        if traced:
            self.sim.trace.log(f"factory:{self.user}", "provisioned",
                               site=site, count=count, reason=reason)
        return job_ids
