"""Typed, frozen testbed configuration.

:class:`GridTestbed` grew three kwargs-sprawl entry points
(``__init__`` / ``add_site`` / ``add_agent``); a topology built through
them exists only as a sequence of imperative calls, which nothing can
introspect, compare, or ship across a process boundary.  These dataclasses
are the declarative replacement: a :class:`TestbedConfig` value *is* the
topology -- hashable-by-value, seed-swappable via :meth:`with_seed`, and
buildable with :meth:`repro.grid.testbed.GridTestbed.from_config`.
The entry points accept nothing else: a kwargs call fails with a
``TypeError`` naming the spec to build.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Optional

from ..factory.policy import FactoryPolicy
from ..gram.gatekeeper import AdmissionPolicy
from ..workloads.synthetic import TrafficProfile

__all__ = [
    "AdmissionPolicy", "AgentSpec", "DatasetSpec", "FactoryPolicy",
    "SiteSpec", "TestbedConfig", "TrafficProfile",
]


@dataclass(frozen=True)
class SiteSpec:
    """One administrative domain: gatekeeper + cluster behind it."""

    name: str
    scheduler: str = "pbs"
    cpus: int = 16
    arch: str = "INTEL"
    allocation_cost: float = 0.0
    register_mds: bool = True
    #: gatekeeper admission cap: the per-user fair-share cap on live
    #: JobManagers (None = unlimited)
    max_user_jobmanagers: Optional[int] = None
    #: gatekeeper admission control: submission rate limit + queue-depth
    #: backpressure (None = open door, the paper-era default)
    admission: Optional[AdmissionPolicy] = None
    #: autoscaling policy for this site: every personal-pool agent's
    #: GlideInFactory provisions here within these bounds (None = the
    #: site is not factory-managed; explicit glide_in still works)
    factory: Optional[FactoryPolicy] = None
    #: extra keyword arguments for the LRM flavor (e.g. Condor-pool knobs)
    lrm_options: dict[str, Any] = field(default_factory=dict)
    #: storage-element GridFTP bandwidth in bytes/s (None = no SE at
    #: this site; dataset jobs cannot be staged here)
    storage: Optional[float] = None


@dataclass(frozen=True)
class DatasetSpec:
    """One logical dataset pre-placed on the grid at t=0.

    ``replicas`` names the sites (by :class:`SiteSpec` name) whose
    storage elements start out holding a copy; the replica catalog is
    seeded to match.
    """

    name: str
    size: int = 1_000_000
    replicas: tuple[str, ...] = ()


@dataclass(frozen=True)
class AgentSpec:
    """One user's desktop agent (the user is created implicitly)."""

    name: str
    broker_kind: str = ""   # "" | "userlist" | "mds" | "queue-aware" | "data-aware"
    proxy_lifetime: float = 12 * 3600.0
    myproxy: bool = False
    personal_pool: bool = True
    #: personal-pool negotiation cycle period
    negotiation_interval: float = 20.0
    #: schedd holds startd claims between jobs and re-matches a
    #: compatible idle job locally, skipping a negotiation round-trip
    claim_reuse: bool = False
    warn_threshold: float = 3600.0
    #: client-side fair-share throttle: cap on this user's in-flight
    #: (SUBMITTING/PENDING/ACTIVE) jobs per remote resource
    max_submitted_per_resource: Optional[int] = None
    #: watch my sites by report: the GridManager launches a Grid Monitor
    #: (§5.1) at each site with its first job there and asks the
    #: gatekeeper only about what the reports miss.  False (the default)
    #: asks each site's gatekeeper about all of this user's jobs there
    #: once per pass, at every load.  The field goes with the benchmark
    #: suite's last use of it.
    grid_monitor: bool = False


@dataclass(frozen=True)
class TestbedConfig:
    """A whole grid-in-a-box, as a value.

    ``sites`` and ``agents`` are built in declaration order, matching the
    equivalent sequence of ``add_site`` / ``add_agent`` calls.
    Workload submission stays imperative -- a config describes the grid,
    not the jobs.
    """

    __test__ = False    # pytest: not a test class, despite the name

    seed: int = 0
    loss_rate: float = 0.0
    use_gsi: bool = False
    with_mds: bool = True
    with_repo: bool = True
    with_myproxy: bool = False
    trace_max_records: Optional[int] = None
    sites: tuple[SiteSpec, ...] = ()
    agents: tuple[AgentSpec, ...] = ()
    #: logical datasets pre-placed at t=0; non-empty (or any site with
    #: ``storage``) brings up the replica catalog + transfer scheduler
    datasets: tuple[DatasetSpec, ...] = ()
    #: WAN bandwidth the transfer scheduler paces each SE->SE link to
    data_link_bandwidth: float = 5_000_000.0
    #: bursty grid-user submission process replayed into the agents
    #: (None = workloads stay imperative, the historical default)
    traffic: Optional[TrafficProfile] = None

    def with_seed(self, seed: int) -> "TestbedConfig":
        """The same topology under a different seed (scenario builders)."""
        return replace(self, seed=seed)
