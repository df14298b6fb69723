"""The GlideIn mechanism (paper §5, Figure 2).

``GlideInManager.glide_in(site, n)`` submits *GRAM jobs whose payload is
a Condor startd*: the bootstrap program first fetches the Condor
binaries from a central GridFTP repository ("hence avoiding a need for
individual users to store binaries for all potential architectures"),
then runs a startd that advertises itself to the *agent's personal
Collector*.  From that moment the remote slot is an ordinary pool member:
the agent's Negotiator matches locally queued jobs onto it, Shadows
serve their syscalls, and checkpointing/migration work unchanged.

Delayed binding falls out of the design: the user's job is matched to a
slot only when the remote LRM has actually started the glidein, so a job
can never be stuck in one site's queue while another site has a free CPU
(§5: "minimizes queuing delays by preventing a job from waiting at one
remote resource while another resource capable of serving the job is
available").

Daemons shut down when idle for ``idle_timeout`` ("guarding against
runaway daemons") or when the allocation's walltime expires, in which
case the Shadow lease machinery reschedules anything they were running.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, TYPE_CHECKING

from ..condor.startd import Startd, machine_ad
from ..gram.protocol import GramJobRequest
from ..gridftp.client import gridftp_get
from ..sim.errors import RPCError

if TYPE_CHECKING:  # pragma: no cover
    from .scheduler import CondorGScheduler


@dataclass
class GlideInSpec:
    """Configuration of one batch of glideins."""

    site: str                      # gatekeeper contact
    count: int = 1
    walltime: float = 3600.0       # allocation length at the remote site
    idle_timeout: float = 600.0    # self-shutdown after this much idleness
    cpus_per_glidein: int = 1
    binaries_url: str = ""         # GridFTP URL of the condor executables
    arch: str = "INTEL"
    mips: int = 100
    #: how often each glidein startd re-advertises to the collector;
    #: large fleets raise this to bound collector traffic
    advertise_interval: float = 15.0


class GlideInManager:
    """Submits and tracks glideins through the agent's own grid queue."""

    def __init__(
        self,
        scheduler: "CondorGScheduler",
        collector_host: str,
        credential_source=None,
        binaries_url: str = "",
    ):
        self.scheduler = scheduler
        self.sim = scheduler.sim
        self.collector_host = collector_host
        self.credential_source = credential_source
        self.binaries_url = binaries_url
        # Glideins are jobs in the agent's grid queue, which is what a
        # manager built after a reboot knows of its predecessor's.
        self.submitted: list[str] = [         # grid job ids
            job.job_id for job in scheduler.jobs_for_user()
            if job.request.label.startswith("glidein-")]
        self._ids = itertools.count(len(self.submitted) + 1)
        self.binaries_fetched = 0
        self.live_startds: list[Startd] = []

    # -- public API -----------------------------------------------------------
    def glide_in(self, spec: GlideInSpec) -> list[str]:
        """Submit `spec.count` glidein GRAM jobs to `spec.site`."""
        job_ids = []
        for _ in range(spec.count):
            n = next(self._ids)
            request = GramJobRequest(
                label=f"glidein-{n}",
                runtime=spec.walltime,       # runs until killed/idle
                walltime=spec.walltime,
                cpus=spec.cpus_per_glidein,
                program=self._bootstrap_program(spec, n),
            )
            job_id = self.scheduler.submit(request, resource=spec.site)
            job_ids.append(job_id)
        self.submitted.extend(job_ids)
        self.sim.metrics.counter("glidein.submitted").inc(spec.count)
        self.sim.trace.log("glidein", "submitted", site=spec.site,
                           count=spec.count)
        return job_ids

    def flood(self, sites: list[str], per_site: int = 1,
              **spec_kwargs) -> list[str]:
        """The §4.4 high-throughput technique: glideins everywhere."""
        out = []
        for site in sites:
            out.extend(self.glide_in(GlideInSpec(site=site, count=per_site,
                                                 **spec_kwargs)))
        return out

    def live_count(self) -> int:
        return sum(1 for s in self.live_startds
                   if s.host.get_service(s.name) is s)

    # -- the bootstrap program ----------------------------------------------------
    def _bootstrap_program(self, spec: GlideInSpec, n: int):
        manager = self
        submitted_at = self.sim.now

        def bootstrap(ctx):
            """Runs inside the remote allocation (an LRM job body)."""
            # Step 1: fetch the Condor binaries for this architecture from
            # the central repository, unless a previous glidein on this
            # machine already cached them.
            url = spec.binaries_url or manager.binaries_url
            if url:
                cache = ctx.host.stable.namespace("glidein-cache")
                if cache.get(url) is None:
                    # Claim the download (flock on the cache file) so a
                    # sibling glidein starting at the same instant waits
                    # on the cache instead of fetching again.
                    cache.put(url, "fetching")
                    credential = None
                    if manager.credential_source is not None:
                        from ..gridftp.server import parse_gsiftp_url
                        repo_host, _ = parse_gsiftp_url(url)
                        credential = manager.credential_source(repo_host)
                    got = yield from gridftp_get(ctx.host, url,
                                                 credential=credential)
                    cache.put(url, got["size"])
                    manager.binaries_fetched += 1
                    ctx.sim.trace.log("glidein", "binaries_fetched",
                                      url=url, size=got["size"])
            # Step 2: start the startd, joined to the personal pool.
            name = f"glidein-{n}@{ctx.host.name}"
            ad = machine_ad(name, arch=spec.arch, mips=spec.mips,
                            site=ctx.host.site, glidein=True)
            startd = Startd(
                ctx.host, name,
                collector=manager.collector_host,
                ad=ad,
                glidein=True,
                idle_timeout=spec.idle_timeout,
            )
            startd.ADVERTISE_INTERVAL = spec.advertise_interval
            manager.live_startds.append(startd)
            ctx.sim.metrics.gauge("glidein.live").inc()
            ctx.sim.metrics.histogram("glidein.binding_delay").observe(
                ctx.sim.now - submitted_at)
            ctx.sim.trace.log("glidein", "startd_up", name=name,
                              site=ctx.host.site)
            try:
                # Run until the startd decides to shut down (idle timeout)
                # -- or until the allocation's walltime kills us.
                yield startd.stopped
            finally:
                # Synchronous teardown works even under a hard kill
                # (GeneratorExit): daemons die with the allocation.
                manager._teardown_startd(startd)
            return 0

        return bootstrap

    def _teardown_startd(self, startd: Startd) -> None:
        if startd.state == "Busy":
            # close the sandbox's trace interval and the busy-slot gauge:
            # the job it was running died with the allocation (the shadow
            # lease will requeue it)
            startd.sim.metrics.gauge("startd.busy_slots").dec()
            startd.state = "Unclaimed"
            if startd.current_job_id:
                startd.sim.trace.log(f"startd:{startd.startd_name}",
                                     "job_vacated",
                                     job=startd.current_job_id,
                                     progress=0.0)
        if startd.host.get_service(startd.name) is startd:
            startd.shutdown()
        for proc in startd._procs:
            if proc.alive:
                proc.kill(cause="glidein allocation ended")
        if startd in self.live_startds:
            self.live_startds.remove(startd)
            self.sim.metrics.gauge("glidein.live").dec()
        self.sim.trace.log("glidein", "startd_down", name=startd.startd_name)
