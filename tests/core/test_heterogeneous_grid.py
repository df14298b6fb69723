"""A §2-shaped scenario: one user, five heterogeneous sites.

"Different sites may feature different authentication and authorization
mechanisms, schedulers, hardware architectures..." -- one agent drives
five sites running five different batch systems with per-site gridmaps
and mixed architectures, through a single uniform interface.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.core.broker import MatchmakingBroker
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


@pytest.fixture
def tb():
    testbed = GridTestbed(TestbedConfig(seed=88, use_gsi=True))
    testbed.add_site(SiteSpec("pbs-site", scheduler="pbs", cpus=4))
    testbed.add_site(SiteSpec("lsf-site", scheduler="lsf", cpus=4))
    testbed.add_site(SiteSpec("ll-site", scheduler="loadleveler", cpus=4))
    testbed.add_site(SiteSpec("nqe-site", scheduler="nqe", cpus=4))
    testbed.add_site(SiteSpec("condor-site", scheduler="condor", cpus=4,
                     arch="SPARC"))
    return testbed


def test_one_agent_reaches_every_scheduler_type(tb):
    agent = tb.add_agent(AgentSpec("alice"))
    ids = {}
    for site in tb.sites.values():
        ids[site.name] = agent.submit(JobDescription(runtime=60.0),
                                      resource=site.contact)
    tb.run_until_quiet(max_time=3 * 10**4)
    for site_name, jid in ids.items():
        status = agent.status(jid)
        assert status.is_complete, (site_name, status)
        assert status.resource == tb.sites[site_name].contact
    # every LRM flavor really executed a job under the site-local account
    for site in tb.sites.values():
        jobs = list(site.lrm.jobs.values())
        assert len(jobs) == 1
        assert jobs[0].owner == f"{site.name}_alice"


def test_per_site_identity_mapping_is_transparent(tb):
    """§3.2: 'this mapping is transparent to the user.'"""
    agent = tb.add_agent(AgentSpec("alice"))
    for site in tb.sites.values():
        agent.submit(JobDescription(runtime=30.0), resource=site.contact)
    tb.run_until_quiet(max_time=3 * 10**4)
    owners = {j.owner for site in tb.sites.values()
              for j in site.lrm.jobs.values()}
    assert len(owners) == 5            # five different local accounts
    # and the user never saw any of it: logs mention sites, not accounts
    for event in agent.userlog.events:
        assert "alice" not in str(event.details.get("owner", ""))


def test_architecture_constraint_across_heterogeneous_sites(tb):
    agent = tb.add_agent(AgentSpec("alice"))
    agent.gridmanager.broker = MatchmakingBroker(
        agent.host, "mds", requirements='Arch == "SPARC"')
    tb.run(until=200.0)
    jid = agent.submit(JobDescription(runtime=30.0))
    tb.run_until_quiet(max_time=3 * 10**4)
    assert agent.status(jid).resource == "condor-site-gk"


def test_unified_view_of_dispersed_resources(tb):
    """§4.1: the user sees one queue over all sites (condor_q)."""
    from repro.core.tools import condor_q

    agent = tb.add_agent(AgentSpec("alice"))
    for site in list(tb.sites.values())[:3]:
        agent.submit(JobDescription(runtime=800.0),
                     resource=site.contact)
    tb.run(until=120.0)
    out = condor_q(agent)
    for site_name in ("pbs-site", "lsf-site", "ll-site"):
        assert f"{site_name}-gk" in out
