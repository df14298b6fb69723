"""Testbed builder, run metrics, and the named scenario registry."""

from .config import (
    AdmissionPolicy,
    AgentSpec,
    DatasetSpec,
    FactoryPolicy,
    SiteSpec,
    TestbedConfig,
    TrafficProfile,
)
from .metrics import ConcurrencyStats, concurrency, timeline
from .scenarios import (
    SCENARIOS,
    Scenario,
    get_scenario,
    register,
)
from .testbed import (
    CONDOR_BINARIES,
    GIIS_HOST,
    GridTestbed,
    MYPROXY_HOST,
    REPO_HOST,
    Site,
)

__all__ = [
    "AdmissionPolicy", "AgentSpec", "CONDOR_BINARIES", "ConcurrencyStats",
    "DatasetSpec", "FactoryPolicy", "GIIS_HOST", "GridTestbed",
    "MYPROXY_HOST", "REPO_HOST", "SCENARIOS", "Scenario", "Site",
    "SiteSpec", "TestbedConfig", "TrafficProfile", "concurrency",
    "get_scenario", "register", "timeline",
]
