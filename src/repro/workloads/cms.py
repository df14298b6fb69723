"""The CMS high-energy-physics pipeline of Experience 2 (paper §6).

"A two-node DAG of jobs submitted to a Condor-G agent at Caltech
triggers 100 simulation jobs on the Condor pool at the University of
Wisconsin.  Each of these jobs generates 500 events.  The execution of
these jobs is also controlled by a DAG that makes sure that local disk
buffers do not overflow and that all events produced are transferred via
GridFTP to a data repository at NCSA.  Once all simulation jobs
terminate and all data is shipped to the repository, the agent at
Caltech submits a subsequent reconstruction job to the PBS system that
manages the reconstruction cluster at NCSA."

:func:`build_cms_dag` constructs exactly that graph: N simulation nodes
(each a grid job at the simulation site whose POST script ships its
event file to the repository over GridFTP, draining the local buffer),
all feeding one reconstruction node at the reconstruction site.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.api import JobDescription
from ..dagman import Dag, DagNode
from ..gridftp.client import gridftp_put, gridftp_size
from ..sim.errors import RPCError


#: events one simulation job produces (paper §6: 100 jobs, 500 events each)
EVENTS_PER_JOB = 500


@dataclass
class CMSConfig:
    simulation_site: str              # gatekeeper contact (Condor pool)
    reconstruction_site: str          # gatekeeper contact (PBS)
    repository: str                   # GridFTP host name (NCSA MSS)
    n_simulation_jobs: int = 100
    event_size: int = 1_000           # bytes per event
    sim_seconds_per_event: float = 8.0
    reco_seconds_per_event: float = 2.0
    reco_cpus: int = 1                # width of the PBS reconstruction job
    buffer_limit_events: int = 2_000  # local disk buffer (in events)


@dataclass
class CMSBookkeeping:
    events_simulated: int = 0
    events_shipped: int = 0
    events_reconstructed: int = 0
    buffer_events: int = 0            # events on local disk, not shipped
    buffer_peak: int = 0
    transfers: int = 0


def build_cms_dag(config: CMSConfig) -> tuple[Dag, CMSBookkeeping]:
    """The simulation-fanout + reconstruction DAG, plus its accounting.

    Buffer discipline ("the DAG makes sure that local disk buffers do
    not overflow"): each simulation node's PRE script *reserves* scratch
    space for its events before the job may start, waiting if the buffer
    is full; the POST script ships the events to the repository over
    GridFTP and releases the space.  Reservations and counts are
    idempotent across node retries.
    """
    from ..sim.sync import Semaphore

    books = CMSBookkeeping()
    dag = Dag()
    node_state: dict[int, dict] = {
        i: {"reserved": False, "counted": False}
        for i in range(config.n_simulation_jobs)}
    buffer_sem: dict = {"sem": None}    # created lazily on first PRE

    def make_pre(index: int):
        def reserve(ctx):
            state = node_state[index]
            if state["reserved"]:
                return True            # retry after a failed POST
            if buffer_sem["sem"] is None:
                buffer_sem["sem"] = Semaphore(
                    ctx.sim, config.buffer_limit_events, name="cms-buffer")
            n = EVENTS_PER_JOB
            yield buffer_sem["sem"].acquire(n)   # wait for scratch space
            books.buffer_events += n
            books.buffer_peak = max(books.buffer_peak,
                                    books.buffer_events)
            state["reserved"] = True
            return True

        return reserve

    def make_post(index: int):
        def ship(ctx):
            state = node_state[index]
            n = EVENTS_PER_JOB
            if not state["counted"]:
                state["counted"] = True
                books.events_simulated += n
            url = f"gsiftp://{config.repository}/cms/run{index}.evts"
            try:
                yield from gridftp_put(ctx.host, url,
                                       size=n * config.event_size,
                                       timeout=120.0)
            except RPCError:
                return False           # node retries; space still held
            books.events_shipped += n
            books.buffer_events -= n
            books.transfers += 1
            state["reserved"] = False
            if buffer_sem["sem"] is not None:
                buffer_sem["sem"].release(n)
            return True

        return ship

    def reco_post(ctx):
        # sanity: the repository holds every event file before reco ran
        total = 0
        for i in range(config.n_simulation_jobs):
            url = f"gsiftp://{config.repository}/cms/run{i}.evts"
            try:
                total += yield from gridftp_size(ctx.host, url)
            except RPCError:
                return False
        expected = (config.n_simulation_jobs * EVENTS_PER_JOB
                    * config.event_size)
        if total != expected:
            return False
        books.events_reconstructed = (config.n_simulation_jobs
                                      * EVENTS_PER_JOB)
        return True

    for i in range(config.n_simulation_jobs):
        dag.add_node(DagNode(
            name=f"sim{i}",
            description=JobDescription(
                executable="cmsim",
                runtime=EVENTS_PER_JOB
                * config.sim_seconds_per_event,
                input_size=50_000),
            resource=config.simulation_site,
            pre=make_pre(i),
            post=make_post(i),
            retries=3,
        ))
    dag.add_node(DagNode(
        name="reco",
        description=JobDescription(
            executable="cmsreco",
            runtime=(config.n_simulation_jobs * EVENTS_PER_JOB
                     * config.reco_seconds_per_event / config.reco_cpus),
            cpus=config.reco_cpus,
            input_size=100_000),
        resource=config.reconstruction_site,
        pre=reco_post,        # verify repository completeness up front
        retries=2,
    ))
    dag.add_dependency([f"sim{i}" for i in range(config.n_simulation_jobs)],
                       "reco")
    return dag, books


# -- dataset-driven reconstruction (repro.data) --------------------------------

#: bytes of reconstructed output per data-CMS job
OUTPUT_SIZE = 200_000


@dataclass(frozen=True)
class DataCMSConfig:
    """The reconstruction pass as a *data-driven* workload.

    Instead of shipping event files imperatively from POST scripts, the
    runs live in the replica catalog as logical datasets and every
    reconstruction job *declares* what it reads and writes; placement
    (which site, which transfers) is the data-aware broker's problem.
    """

    n_jobs: int = 24
    n_run_datasets: int = 6           # event files, shared round-robin
    run_size: int = 4_000_000         # bytes per event file
    calibration_size: int = 2_000_000  # calibration constants, read by all
    reco_seconds: float = 300.0       # runtime of one reconstruction job

    @property
    def calibration_name(self) -> str:
        return "cms-cal"

    def run_name(self, index: int) -> str:
        return f"cms-run{index}"


def data_cms_dataset_sizes(config: DataCMSConfig) -> list[tuple[str, int]]:
    """(name, size) of every input dataset the workload reads.

    The scenario builder turns these into :class:`DatasetSpec` values by
    choosing home sites for the initial replicas.
    """
    out = [(config.calibration_name, config.calibration_size)]
    out.extend((config.run_name(i), config.run_size)
               for i in range(config.n_run_datasets))
    return out


def build_data_cms_jobs(config: DataCMSConfig) -> list[JobDescription]:
    """One JobDescription per reconstruction job, resource unbound.

    Job *i* reads the shared calibration constants plus run file
    ``i % n_run_datasets``, and archives one output dataset.  Submitted
    with no resource so the broker owns placement -- the point of the
    exercise is whether it exploits replica locality.
    """
    jobs = []
    for i in range(config.n_jobs):
        run = config.run_name(i % config.n_run_datasets)
        jobs.append(JobDescription(
            executable="cmsreco",
            runtime=config.reco_seconds,
            input_size=50_000,
            input_datasets=(config.calibration_name, run),
            output_datasets=((f"cms-reco{i}", OUTPUT_SIZE),),
        ))
    return jobs
