"""Synthetic load generators.

Sites in a real grid are never empty: each has its own users' jobs
competing with the Condor-G user's.  :func:`saturate` enqueues a block of
local jobs straight into a site's LRM, which is what makes queue waits
(and therefore broker choice and GlideIn delayed binding) mean
something in the benchmarks.

:class:`SyntheticTraffic` is the submission-side counterpart: bursty
*grid-user* traffic into the Condor-G agents themselves.  A
:class:`TrafficProfile` describes a non-homogeneous Poisson arrival
process -- diurnal cycles, flash crowds, heavy-tailed (bounded-Pareto)
job sizes -- multiplexed over many *virtual users* (cheap: one driver
process replays the whole trace, so a thousand users cost no more than
one).  The arrival trace is generated eagerly from a named RNG stream,
so a fixed seed yields an identical trace -- the determinism contract
the burst benchmarks and chaos campaigns rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..lrm.base import JobSpec, LocalResourceManager
from ..states import JobState


def saturate(lrm: LocalResourceManager, jobs: int,
             runtime: float) -> list[str]:
    """Instantly enqueue a block of local one-CPU jobs (deterministic
    load) owned by ``local-user``."""
    return [lrm.submit(JobSpec(runtime=runtime), owner="local-user")
            for _ in range(jobs)]


# -- bursty grid-user traffic ------------------------------------------------

#: tail index of the bounded-Pareto job runtimes
RUNTIME_ALPHA = 2.0


@dataclass(frozen=True)
class TrafficProfile:
    """A non-homogeneous Poisson submission process.

    The instantaneous aggregate rate (jobs/second across *all* virtual
    users) is::

        rate(t) = base_rate
                  * (1 + diurnal_amplitude * sin(2*pi*t / diurnal_period))
                  * (flash_multiplier  if t inside a flash window else 1)

    Flash windows start at each time in ``flash_at`` and last
    ``flash_duration``.  Job runtimes follow a bounded Pareto
    (``runtime_min``, tail index :data:`RUNTIME_ALPHA`, truncated at
    ``runtime_cap``) -- heavy-tailed, like real grid workloads.
    Each arrival is attributed to one of ``users`` virtual users,
    chosen uniformly.
    """

    users: int = 1000
    horizon: float = 3600.0
    #: aggregate submissions/second at the diurnal mean, outside flashes
    base_rate: float = 0.5
    diurnal_amplitude: float = 0.0      # 0..1; 0 disables the cycle
    diurnal_period: float = 86_400.0
    flash_at: tuple = ()                # flash-crowd start times
    flash_multiplier: float = 5.0
    flash_duration: float = 300.0
    runtime_min: float = 30.0
    runtime_cap: float = 3600.0
    universe: str = "vanilla"           # vanilla -> glidein pool; grid -> GRAM


@dataclass(frozen=True)
class Arrival:
    """One entry of the (deterministic) submission trace."""

    time: float
    user: int
    runtime: float


def traffic_rate(profile: TrafficProfile, t: float) -> float:
    """Instantaneous aggregate arrival rate at time ``t``."""
    rate = profile.base_rate * (
        1.0 + profile.diurnal_amplitude
        * math.sin(2.0 * math.pi * t / profile.diurnal_period))
    for start in profile.flash_at:
        if start <= t < start + profile.flash_duration:
            rate *= profile.flash_multiplier
            break
    return max(0.0, rate)


def peak_rate(profile: TrafficProfile) -> float:
    """Upper bound of :func:`traffic_rate` (the thinning envelope)."""
    rate = profile.base_rate * (1.0 + abs(profile.diurnal_amplitude))
    if profile.flash_at:
        rate *= max(1.0, profile.flash_multiplier)
    return rate


def generate_arrivals(rng, profile: TrafficProfile) -> list[Arrival]:
    """Materialize the arrival trace by thinning a homogeneous process.

    Pure function of (rng state, profile): a fixed seed produces an
    identical trace, independent of anything else in the simulation --
    which keeps run digests stable and lets tests assert determinism.
    """
    envelope = peak_rate(profile)
    out: list[Arrival] = []
    if envelope <= 0.0:
        return out
    t = 0.0
    while True:
        t += rng.expovariate(envelope)
        if t >= profile.horizon:
            break
        accept = rng.random()
        if accept * envelope > traffic_rate(profile, t):
            continue
        user = rng.randrange(profile.users)
        # bounded Pareto via inverse transform, truncated at the cap
        u = rng.random()
        runtime = min(profile.runtime_cap,
                      profile.runtime_min * (1.0 - u) **
                      (-1.0 / RUNTIME_ALPHA))
        out.append(Arrival(time=t, user=user, runtime=runtime))
    return out


@dataclass
class TrafficRecord:
    """One submitted job of the replay, for per-user accounting."""

    user: int
    agent_index: int
    job_id: str
    arrival: float


class SyntheticTraffic:
    """Replays a :class:`TrafficProfile` trace into Condor-G agents.

    Virtual user ``u`` submits through ``agents[u % len(agents)]`` --
    the cheap multiplexing that lets a handful of real agents carry a
    thousand-user workload.  One driver process walks the precomputed
    trace; submissions are synchronous local calls into the agent.
    """

    def __init__(self, agents: list, profile: TrafficProfile):
        if not agents:
            raise ValueError("SyntheticTraffic needs at least one agent")
        self.agents = list(agents)
        self.profile = profile
        self.sim = agents[0].host.sim
        self.arrivals = generate_arrivals(
            self.sim.rng.stream("traffic"), profile)
        self.records: list[TrafficRecord] = []
        self.finished = False
        self._proc = agents[0].host.spawn(self._replay(), name="traffic")

    def _replay(self):
        from ..core.api import JobDescription

        for arrival in self.arrivals:
            if arrival.time > self.sim.now:
                yield self.sim.timeout(arrival.time - self.sim.now)
            index = arrival.user % len(self.agents)
            agent = self.agents[index]
            description = JobDescription(
                executable=f"user{arrival.user:04d}.exe",
                runtime=arrival.runtime,
                universe=self.profile.universe,
                stream_stdout=False,
            )
            job_id = agent.submit(description)
            self.records.append(TrafficRecord(
                user=arrival.user, agent_index=index,
                job_id=job_id, arrival=arrival.time))
            self.sim.metrics.counter("traffic.submitted").inc(
                label=f"agent{index}")
        self.finished = True
        self.sim.trace.log("traffic", "trace_replayed",
                           jobs=len(self.records))

    # -- accounting ---------------------------------------------------------
    def _job(self, record: TrafficRecord):
        return self.agents[record.agent_index].queue.jobs.get(record.job_id)

    def waits(self) -> list[float]:
        """Time-to-first-job per started job (submit -> first run)."""
        out = []
        for record in self.records:
            job = self._job(record)
            if job is not None and job.start_time is not None:
                out.append(job.start_time - job.submit_time)
        return out

    def per_user_waits(self) -> dict[int, list[float]]:
        out: dict[int, list[float]] = {}
        for record in self.records:
            job = self._job(record)
            if job is not None and job.start_time is not None:
                out.setdefault(record.user, []).append(
                    job.start_time - job.submit_time)
        return out

    def unfinished(self) -> list[str]:
        """Ids of replayed jobs not yet terminal (lost-job detector)."""
        out = []
        for record in self.records:
            job = self._job(record)
            if job is None or not JobState(job.state).is_terminal:
                out.append(record.job_id)
        return out
