"""The five benchmark workloads, built through the public typed API.

Every workload is batch/closed (the paper's §6 usage): the whole job
list is queued before the clock starts, so there is no arrival schedule.
Job lists and fault plans are generated *here* from ``--seed`` -- not
imported from ``repro.grid.scenarios`` -- so a scenario edit cannot
silently move the benchmark.

Runtimes are a stratified draw: the range is cut into one stratum per
job, each job gets a seed-drawn point inside its stratum, and the seed
shuffles which job gets which.  The total work is therefore nearly the
same on every seed and only its placement varies, which keeps the
simulated-time metrics steady from seed to seed without making any two
seeds identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Callable, Optional

from repro import AgentSpec, GridTestbed, JobDescription, SiteSpec, \
    TestbedConfig
from repro.chaos.plan import FaultPlan, PlannedFault

SCHEDULERS = ("pbs", "lsf", "loadleveler")

#: simulated seconds advanced per ``run.chunk`` span.  Quiescence is
#: tested and the host-speed calibrator runs between chunks, so this
#: bounds both how far a run overshoots its last job (makespan itself is
#: read from job records, not the clock) and how stale the calibration
#: can be (a chunk is ~0.1 host-s)
CHUNK = 50.0
#: simulated-time cap: a workload still open here has failed
CAP = 20_000.0
#: ring-buffer size of the bounded traces (all workloads but
#: ``faulted-full``, whose invariant suite needs the whole trace)
TRACE_RING = 50_000
#: runtime ranges in simulated seconds.  Grid jobs run about five waves
#: per cpu; a range this narrow keeps the last wave -- and with it
#: makespan and the turnaround tail -- from swinging with the shuffle.
GRID_RUNTIME = (120.0, 200.0)
POOL_RUNTIME = (20.0, 60.0)


def scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, round(n * scale))


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list:
    """`n` runtimes covering [lo, hi) evenly, in seed-shuffled order."""
    step = (hi - lo) / n
    out = [round(lo + (i + rng.random()) * step, 3) for i in range(n)]
    rng.shuffle(out)
    return out


def sites(n: int, cpus: int, **extra) -> tuple:
    return tuple(
        SiteSpec(f"site{i:02d}", scheduler=SCHEDULERS[i % len(SCHEDULERS)],
                 cpus=cpus, **extra)
        for i in range(n))


@dataclass(frozen=True)
class Workload:
    """One named workload; ``harness.set_up`` says in which order the
    callables run.  ``submit`` returns ``[(agent, job_id), ...]``."""

    name: str
    why: str
    config: Callable[[int, float], TestbedConfig]
    submit: Callable[[GridTestbed, random.Random, float], list]
    prepare: Optional[Callable[[GridTestbed], None]] = None
    warmup_s: float = 0.0
    faults: Optional[Callable[[GridTestbed, random.Random], FaultPlan]] = None
    #: ``(counter, label)`` pairs that must each equal the job count:
    #: exactly-once on ring-buffered workloads, whose trace cannot carry
    #: the full invariant suite
    once_counters: tuple = ()
    full_invariants: bool = False
    #: simulated seconds the run must outlast the last fault by
    settle: float = 0.0


# -- gram-poll / gram-monitor ---------------------------------------------------

GRAM_JOBS, GRAM_SITES, GRAM_CPUS = 450, 5, 18


def _gram_config(grid_monitor: bool):
    def config(seed: int, scale: float) -> TestbedConfig:
        return TestbedConfig(
            seed=seed, with_mds=False, with_repo=False,
            trace_max_records=TRACE_RING,
            sites=sites(GRAM_SITES, scaled(GRAM_CPUS, scale, 2),
                        register_mds=False),
            agents=(AgentSpec("gram", broker_kind="userlist",
                              personal_pool=False,
                              grid_monitor=grid_monitor),))
    return config


def _gram_submit(tb: GridTestbed, rng: random.Random, scale: float) -> list:
    agent = tb.agents["gram"]
    runtimes = stratified(rng, scaled(GRAM_JOBS, scale, 20), *GRID_RUNTIME)
    return [(agent, agent.submit(JobDescription(
        executable="gram.exe", runtime=rt, stream_stdout=False)))
        for rt in runtimes]


# -- pool-negotiate -----------------------------------------------------------

POOL_JOBS, POOL_SITES, POOL_GLIDEINS = 1500, 10, 10
#: what every pool job asks of a machine: a real bilateral match, so the
#: Negotiator evaluates ClassAd expressions and not the constant `true`
POOL_REQUIREMENTS = ('TARGET.Arch == "INTEL" && TARGET.OpSys == "LINUX" '
                     '&& TARGET.Memory >= 128 && TARGET.GlideIn')
POOL_RANK = "TARGET.Mips"


def _pool_config(seed: int, scale: float) -> TestbedConfig:
    return TestbedConfig(
        seed=seed, with_mds=False, with_repo=True,
        trace_max_records=TRACE_RING,
        sites=sites(POOL_SITES, scaled(POOL_GLIDEINS, scale, 2),
                    register_mds=False),
        agents=(AgentSpec("pool", claim_reuse=False),))


def _pool_glide_in(tb: GridTestbed) -> None:
    agent = tb.agents["pool"]
    for site in tb.sites.values():
        agent.glide_in(site.contact, count=site.cpus,
                       walltime=1_000_000.0, idle_timeout=1_000_000.0)


def _pool_submit(tb: GridTestbed, rng: random.Random, scale: float) -> list:
    agent = tb.agents["pool"]
    runtimes = stratified(rng, scaled(POOL_JOBS, scale, 20), *POOL_RUNTIME)
    return [(agent, agent.submit(JobDescription(
        executable="mw.exe", universe="vanilla", runtime=rt,
        requirements=POOL_REQUIREMENTS, rank=POOL_RANK)))
        for rt in runtimes]


# -- multiuser ----------------------------------------------------------------

MULTI_USERS, MULTI_JOBS_EACH, MULTI_SITES, MULTI_CPUS = 64, 6, 2, 38
#: every user queues 3 jobs per site and may keep 2 in flight there.
#: Even-numbered sites admit only 1 JobManager per user, so there the
#: gatekeeper refuses the second submission and the client backs off
#: and retries; odd-numbered sites admit any number, so there the
#: client's own throttle holds the third job back.  Both fair-share
#: layers run, each where it is the one that binds.
MULTI_INFLIGHT, MULTI_JM_CAP = 2, 1


def _multi_config(seed: int, scale: float) -> TestbedConfig:
    fleet = sites(MULTI_SITES, scaled(MULTI_CPUS, scale, 2),
                  register_mds=False)
    return TestbedConfig(
        seed=seed, with_mds=False, with_repo=False,
        trace_max_records=TRACE_RING,
        sites=tuple(
            replace(site, max_user_jobmanagers=MULTI_JM_CAP) if i % 2 == 0
            else site for i, site in enumerate(fleet)),
        agents=tuple(
            AgentSpec(f"u{i:03d}", broker_kind="userlist",
                      personal_pool=False,
                      max_submitted_per_resource=MULTI_INFLIGHT)
            for i in range(scaled(MULTI_USERS, scale, 3))))


def _multi_submit(tb: GridTestbed, rng: random.Random, scale: float) -> list:
    agents = list(tb.agents.values())
    runtimes = stratified(rng, len(agents) * MULTI_JOBS_EACH, *GRID_RUNTIME)
    out = []
    # round-robin across users, so every site sees contention from t=0
    for k in range(MULTI_JOBS_EACH):
        for u, agent in enumerate(agents):
            out.append((agent, agent.submit(JobDescription(
                executable="mt.exe", runtime=runtimes[k * len(agents) + u],
                stream_stdout=False))))
    return out


# -- faulted-full ---------------------------------------------------------------

FULL_JOBS, FULL_SITES, FULL_CPUS = 240, 6, 8
#: every fault lands inside this window after submission
FAULT_WINDOW = (50.0, 900.0)
FAULT_OUTAGE = (30.0, 90.0)


def _full_config(seed: int, scale: float) -> TestbedConfig:
    """Every site registers with the GIIS and keeps re-advertising, but
    placement is the round-robin user list with one job in flight per
    cpu, not the MDS broker.  The MDS broker ranks by the advertised
    EstimatedWait, so a batch queued at once herds onto the one or two
    sites that looked idle in the last ad (183 + 57 of 240 jobs,
    measured); a crash then has up to 60 JobManagers to recover one at a
    time, and how much work a run does swings +-15 % with where the
    seed's faults happen to land.  Capped round-robin keeps every
    gatekeeper equally busy, so every fault costs about the same."""
    cpus = scaled(FULL_CPUS, scale, 2)
    return TestbedConfig(
        seed=seed, use_gsi=True, with_mds=True, with_repo=False,
        sites=sites(FULL_SITES, cpus),
        agents=(AgentSpec("full", broker_kind="userlist",
                          personal_pool=False,
                          max_submitted_per_resource=cpus),))


def _full_submit(tb: GridTestbed, rng: random.Random, scale: float) -> list:
    agent = tb.agents["full"]
    runtimes = stratified(rng, scaled(FULL_JOBS, scale, 20), *GRID_RUNTIME)
    return [(agent, agent.submit(JobDescription(
        executable="full.exe", runtime=rt, stream_stdout=True)))
        for rt in runtimes]


def _full_faults(tb: GridTestbed, rng: random.Random) -> FaultPlan:
    """Two faults per site -- one that kills JobManagers (crash or
    jm_kill) and one that cuts the network (partition or isolate) --
    twelve in all, one per equal slice of the window.  The seed draws
    which site gets which kind, the order, the instant inside each slice
    and the outage length, but not how much trouble there is: every site
    is hit equally, so no seed spends its faults on idle gatekeepers."""
    gatekeepers = sorted(site.contact for site in tb.sites.values())
    submit_host = tb.agents["full"].host.name
    half = len(gatekeepers) // 2
    kills = ["crash"] * half + ["jm_kill"] * (len(gatekeepers) - half)
    cuts = ["partition"] * half + ["isolate"] * (len(gatekeepers) - half)
    rng.shuffle(kills)
    rng.shuffle(cuts)
    todo = list(zip(kills + cuts, gatekeepers * 2))
    rng.shuffle(todo)
    lo, hi = FAULT_WINDOW
    start, step = tb.sim.now + lo, (hi - lo) / len(todo)
    events = []
    for i, (kind, gatekeeper) in enumerate(todo):
        target = f"{submit_host}|{gatekeeper}" if kind == "partition" \
            else gatekeeper
        duration = None if kind == "jm_kill" \
            else round(rng.uniform(*FAULT_OUTAGE), 3)
        events.append(PlannedFault(
            round(start + (i + rng.random()) * step, 3), kind, target,
            duration))
    return FaultPlan(events=events)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="gram-poll",
        why="Fig. 1 path, default config: per-job status polls/probes, "
            "GRAM 2PC and the JobManager->LRM poll do the work; "
            "classads/condor do none",
        config=_gram_config(False), submit=_gram_submit,
        once_counters=(("lrm.jobs", "started"), ("lrm.jobs", "completed"))),
    Workload(
        name="gram-monitor",
        why="same jobs and sites with the §5.1 Grid Monitor batching "
            "status: a per-job poll-loop change moves gram-poll and "
            "leaves this flat, a site-side change moves both",
        config=_gram_config(True), submit=_gram_submit,
        once_counters=(("lrm.jobs", "started"), ("lrm.jobs", "completed"))),
    Workload(
        name="pool-negotiate",
        why="Fig. 2 path with every job negotiated (claim_reuse off): "
            "the one workload where classads and Collector/Negotiator/"
            "Schedd/Startd/Shadow carry measurable share",
        config=_pool_config, submit=_pool_submit, prepare=_pool_glide_in,
        warmup_s=300.0,     # every glidein binds to the personal pool
        once_counters=(("startd.jobs_run", None),)),
    Workload(
        name="multiuser",
        why="many agents with few jobs each over fair-share sites: "
            "daemons, timers and the gatekeeper reject/back-off path "
            "dominate instead of per-job work",
        config=_multi_config, submit=_multi_submit,
        once_counters=(("lrm.jobs", "started"), ("lrm.jobs", "completed"))),
    Workload(
        name="faulted-full",
        why="full fidelity (GSI, MDS registration, stdout streaming, "
            "full trace) under 12 seed-drawn faults: gsi/mds/gass and "
            "§4.2 recovery run only here; the invariant suite gates",
        config=_full_config, submit=_full_submit,
        warmup_s=120.0,     # every site registers with the GIIS
        faults=_full_faults, full_invariants=True, settle=300.0),
)}
