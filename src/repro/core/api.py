"""The Condor-G user API (paper §4.1).

"The agent allows the user to treat the Grid as an entirely local
resource", with operations to submit jobs, query status, cancel, get
callbacks/e-mail on termination, and read detailed logs.  The
:class:`CondorGAgent` is that personal desktop agent: everything it
spawns (job queue, GridManager, GASS server, personal Collector/
Negotiator/Schedd for GlideIns, credential monitor) lives on the user's
submit machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from ..condor import CondorJob, Schedd, job_ad
from ..condor.collector import Collector
from ..condor.negotiator import Negotiator
from ..condor.queue import JobQueue, JobStatus
from ..gass.server import GassServer
from ..gram.protocol import GramJobRequest
from ..gsi.proxy import ProxyCredential
from ..sim.hosts import Host
from .broker import Broker
from .credmon import PROXY_NS, CredentialMonitor
from .gcat import gcat_wrap
from .glidein import GlideInManager, GlideInSpec
from .gridmanager import GridManager
from .job import GridJob
from .userlog import Notifier, UserLog

USERLOG_NS = "condorg-userlog"    # the user log file


@dataclass
class JobDescription:
    """What a user hands to :meth:`CondorGAgent.submit`."""

    executable: str = "a.out"
    arguments: tuple = ()
    input_size: int = 1000         # bytes staged to the remote site
    stdin_data: str = ""
    runtime: float = 1.0
    walltime: Optional[float] = None
    cpus: int = 1
    universe: str = "grid"         # grid | vanilla | standard
    requirements: str = "true"     # vanilla/standard matchmaking
    rank: str = "0"
    io_interval: float = 0.0       # standard universe remote I/O cadence
    io_bytes: int = 0
    env: dict = field(default_factory=dict)
    program: Optional[Callable] = None
    stream_stdout: bool = True
    stream_stderr: bool = False
    output_files: tuple = ()       # scratch file names staged out at end
    exit_code: int = 0
    gcat_mss_url: str = ""         # ship output chunks to this MSS base URL
    #: logical dataset names to stage to the execution site beforehand
    input_datasets: tuple = ()
    #: (name, size) datasets the job produces, archived at the site SE
    output_datasets: tuple = ()


class CondorGAgent:
    """One user's computation management agent.

    The object is the user's durable handle; the daemons behind it are
    what the submit machine's last boot built, each recovering what its
    own persistence holds (job queue, user log, proxy file, GASS store),
    so ``queue`` (every job of every universe), ``gridmanager`` (runs its
    grid jobs), ``schedd`` (its vanilla/standard ones), ``gass``,
    ``credmon`` ... always name the live ones.  ``on_termination``
    subscribers are callables, live in no file, and are gone after a
    reboot.
    """

    def __init__(
        self,
        host: Host,
        user: str,
        proxy: Optional[ProxyCredential] = None,
        broker: Optional[Broker] = None,
        myproxy: Optional[dict] = None,
        glidein_binaries_url: str = "",
        personal_pool: bool = True,
        negotiation_interval: float = 20.0,
        claim_reuse: bool = False,
        warn_threshold: float = 3600.0,
        max_submitted_per_resource: Optional[int] = None,
        data_services=None,
        grid_monitor: bool = False,
    ):
        self.host = host
        self.sim = host.sim
        self.user = user
        if proxy is not None:
            # grid-proxy-init: the proxy is a file on the submit machine.
            host.stable.put(f"{PROXY_NS}:{user}", "proxy", proxy)
        mailbox: list = []      # the user's mail is kept elsewhere

        def start(host: Host) -> None:
            self.notifier = Notifier(user, mailbox)
            self.queue = JobQueue(
                host, user, (GridJob, CondorJob),
                userlog=UserLog(host.stable.namespace(
                    f"{USERLOG_NS}:{user}")),
                notifier=self.notifier)
            self.gridmanager = GridManager(
                self.queue, broker=broker,
                max_submitted_per_resource=max_submitted_per_resource,
                data_services=data_services,
                grid_monitor=grid_monitor)

            self.credmon: Optional[CredentialMonitor] = None
            if proxy is not None:
                self.credmon = CredentialMonitor(
                    self.gridmanager, host, user,
                    warn_threshold=warn_threshold, myproxy=myproxy)
                self.gridmanager.credential_source = \
                    self.credmon.credential_source

            # The user's GASS server: staging source + stdout sink.
            self.gass = GassServer(host, name=f"gass-{user}")

            # Personal Condor pool on the desktop: Collector + Negotiator
            # + Schedd.  GlideIns join this pool (Figure 2).
            self.collector: Optional[Collector] = None
            self.schedd: Optional[Schedd] = None
            self.glideins: Optional[GlideInManager] = None
            #: autoscaler over ``glideins``, booted by the testbed after
            #: the agent when any site declares a FactoryPolicy
            self.factory = None
            if personal_pool:
                self.collector = Collector(host)
                Negotiator(host, collector=host.name,
                           cycle_interval=negotiation_interval,
                           credential=None)
                self.schedd = Schedd(host, name=f"schedd@{user}",
                                     collector=host.name,
                                     claim_reuse=claim_reuse,
                                     queue=self.queue)
                self.glideins = GlideInManager(
                    self.gridmanager, collector_host=host.name,
                    credential_source=self.gridmanager.credential_source,
                    binaries_url=glidein_binaries_url)

        host.boot(start)

    # -- submission ------------------------------------------------------------
    def submit(self, description: JobDescription,
               resource: str = "") -> str:
        """Submit a job; returns its id.  Grid-universe jobs go through
        GRAM to `resource` (or wherever the broker decides); vanilla/
        standard jobs enter the personal pool's queue and run on
        glideins (or any other pool member)."""
        if description.universe == "grid":
            return self._submit_grid(description, resource)
        return self._submit_condor(description)

    def _submit_grid(self, d: JobDescription, resource: str) -> str:
        job_id = self.queue.new_id()     # GASS paths are named by it
        exe_url = self.gass.stage_in(f"{job_id}/{d.executable}",
                                     size=d.input_size)
        stdin_url = ""
        if d.stdin_data:
            stdin_url = self.gass.stage_in(f"{job_id}/stdin",
                                           data=d.stdin_data)
        stdout_url = ""
        if d.stream_stdout:
            stdout_url = self.gass.url(f"{job_id}/stdout")
        stderr_url = ""
        if d.stream_stderr:
            stderr_url = self.gass.url(f"{job_id}/stderr")
        output_urls = {name: self.gass.url(f"{job_id}/outputs/{name}")
                       for name in d.output_files}
        program = d.program
        if d.gcat_mss_url and program is not None:
            program = gcat_wrap(
                program, d.gcat_mss_url,
                credential_source=self.gridmanager.credential_source)
        env = dict(d.env)
        if stdout_url:
            env.setdefault("GASS_URL", stdout_url)
        request = GramJobRequest(
            executable_url=exe_url,
            stdin_url=stdin_url,
            stdout_url=stdout_url,
            stderr_url=stderr_url,
            output_files=output_urls,
            runtime=d.runtime,
            walltime=d.walltime,
            cpus=d.cpus,
            env=env,
            program=program,
            exit_code=d.exit_code,
            label=d.executable,
            input_datasets=tuple(d.input_datasets),
            output_datasets=tuple(tuple(o) for o in d.output_datasets),
        )
        return self.gridmanager.submit(request, resource=resource,
                                     job_id=job_id)

    def _submit_condor(self, d: JobDescription) -> str:
        if self.schedd is None:
            raise RuntimeError("agent built without a personal pool")
        # the ad first: a refused Requirements/Rank takes no job id
        ad = job_ad(self.user, requirements=d.requirements, rank=d.rank)
        job = CondorJob(
            job_id=self.queue.new_id(),
            ad=ad,
            runtime=d.runtime,
            universe=d.universe,
            io_interval=d.io_interval,
            io_bytes=d.io_bytes,
            program=d.program,
        )
        return self.schedd.submit(job)

    # -- queries ------------------------------------------------------------
    def statuses(self) -> list[JobStatus]:
        """Every job, in job-id order."""
        return self.queue.statuses()

    def status(self, job_id: str) -> JobStatus:
        return self.queue.status(job_id)

    @property
    def userlog(self) -> UserLog:
        return self.queue.userlog

    def logs(self, job_id: str) -> list:
        return self.userlog.for_job(job_id)

    def stdout_of(self, job_id: str) -> str:
        path = f"{job_id}/stdout"
        if self.gass.files.exists(path):
            return self.gass.read(path).data
        return ""

    def stderr_of(self, job_id: str) -> str:
        path = f"{job_id}/stderr"
        if self.gass.files.exists(path):
            return self.gass.read(path).data
        return ""

    def output_file(self, job_id: str, name: str):
        """A staged-out output file (SimFile), or None if not arrived."""
        path = f"{job_id}/outputs/{name}"
        if self.gass.files.exists(path):
            return self.gass.read(path)
        return None

    def on_termination(self, fn: Callable[[str, str, dict], None]) -> None:
        self.notifier.subscribe(fn)

    @property
    def inbox(self) -> list:
        return self.notifier.inbox

    def all_terminal(self) -> bool:
        return self.queue.all_terminal()

    # -- control ------------------------------------------------------------
    def cancel(self, job_id: str) -> None:
        self.queue.remove(job_id)

    def glide_in(self, site: str, count: int = 1, **kwargs) -> list[str]:
        if self.glideins is None:
            raise RuntimeError("agent built without a personal pool")
        return self.glideins.glide_in(
            GlideInSpec(site=site, count=count, **kwargs))

    def flood_glideins(self, sites: list[str], per_site: int = 1,
                       **kwargs) -> list[str]:
        if self.glideins is None:
            raise RuntimeError("agent built without a personal pool")
        return self.glideins.flood(sites, per_site=per_site, **kwargs)

    def refresh_proxy(self, proxy: ProxyCredential) -> None:
        """The user re-ran grid-proxy-init (§4.3)."""
        if self.credmon is None:
            raise RuntimeError("agent has no credential monitor")
        self.credmon.refresh(proxy)
