"""Tests for the condor_q-style tools and the MatchmakingBroker."""

import pytest

from repro import GridTestbed, JobDescription
from repro.core.broker import MatchmakingBroker
from repro.core.tools import condor_history, condor_q
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


class TestTools:
    def make(self):
        tb = GridTestbed(TestbedConfig(seed=95))
        tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=4))
        agent = tb.add_agent(AgentSpec("alice"))
        return tb, agent

    def test_condor_q_shows_running_jobs(self):
        tb, agent = self.make()
        jid = agent.submit(JobDescription(runtime=500.0),
                           resource="wisc-gk")
        tb.run(until=100.0)
        out = condor_q(agent)
        assert jid in out
        assert " R " in out or "\tR" in out or " R" in out
        assert "1 jobs shown" in out

    def test_condor_q_hides_done_by_default(self):
        tb, agent = self.make()
        jid = agent.submit(JobDescription(runtime=50.0),
                           resource="wisc-gk")
        tb.run_until_quiet(max_time=10**4)
        assert jid not in condor_q(agent)
        assert jid in condor_history(agent)

    def test_condor_history_shows_outcomes(self):
        tb, agent = self.make()
        ok = agent.submit(JobDescription(runtime=50.0),
                          resource="wisc-gk")
        bad = agent.submit(JobDescription(runtime=50.0, exit_code=2),
                           resource="wisc-gk")
        tb.run_until_quiet(max_time=10**4)
        out = condor_history(agent)
        assert ok in out and bad in out
        lines = {line.split()[0]: line for line in out.splitlines()[1:]}
        assert " C " in lines[ok]
        assert " X " in lines[bad]

    def test_jobs_submitted_together_list_in_job_id_order(self):
        """``"10.0"`` sorts before ``"2.0"`` as a string: statuses() and
        condor_q used to list a dozen jobs 1, 10, 11, 12, 2, 3, ..."""
        tb, agent = self.make()
        ids = [agent.submit(JobDescription(runtime=500.0),
                            resource="wisc-gk") for _ in range(12)]
        assert ids[9:] == ["10.0", "11.0", "12.0"]
        assert [s.job_id for s in agent.statuses()] == ids
        rows = condor_q(agent).splitlines()[1:13]
        assert [row.split()[0] for row in rows] == ids

    def test_condor_q_shows_hold_reason(self):
        tb = GridTestbed(TestbedConfig(seed=96, use_gsi=True))
        tb.add_site(SiteSpec("wisc", scheduler="pbs", cpus=2))
        agent = tb.add_agent(AgentSpec("carol", proxy_lifetime=100.0))
        tb.run(until=200.0)
        jid = agent.submit(JobDescription(runtime=50.0),
                           resource="wisc-gk")
        tb.run(until=1500.0)
        out = condor_q(agent)
        assert jid in out
        assert " H " in out or "credential" in out


class TestMatchmakingBroker:
    def test_bilateral_resource_requirements_respected(self):
        """A resource ad can refuse wide jobs: the match is bilateral,
        and the MatchmakingBroker honours the ad's own Requirements."""
        tb = GridTestbed(TestbedConfig(seed=97))
        tb.add_site(SiteSpec("small", scheduler="pbs", cpus=16))
        tb.add_site(SiteSpec("big", scheduler="pbs", cpus=16))
        # patch the small site's published ad with its own Requirements
        small = tb.sites["small"]
        original = tb._site_ad

        def ad_source(site):
            ad = original(site)
            if site.name == "small":
                ad.set_expression("Requirements", "TARGET.Cpus <= 2")
            return ad

        tb._site_ad = ad_source
        agent = tb.add_agent(AgentSpec("alice"))
        agent.gridmanager.broker = MatchmakingBroker(
            agent.host, "mds", rank="-AllocationCost")
        tb.run(until=200.0)
        wide = agent.submit(JobDescription(runtime=50.0, cpus=8))
        narrow = agent.submit(JobDescription(runtime=50.0, cpus=1))
        tb.run_until_quiet(max_time=3 * 10**4)
        assert agent.status(wide).is_complete
        assert agent.status(wide).resource == "big-gk"
        assert agent.status(narrow).is_complete

    def test_job_side_requirements(self):
        tb = GridTestbed(TestbedConfig(seed=97))
        tb.add_site(SiteSpec("intel", scheduler="pbs", cpus=8, arch="INTEL"))
        tb.add_site(SiteSpec("sparc", scheduler="pbs", cpus=8, arch="SPARC"))
        agent = tb.add_agent(AgentSpec("alice"))
        agent.gridmanager.broker = MatchmakingBroker(
            agent.host, "mds", requirements='TARGET.Arch == "SPARC"')
        tb.run(until=200.0)
        jid = agent.submit(JobDescription(runtime=50.0))
        tb.run_until_quiet(max_time=3 * 10**4)
        assert agent.status(jid).resource == "sparc-gk"

    def test_no_match_keeps_job_queued(self):
        tb = GridTestbed(TestbedConfig(seed=97))
        tb.add_site(SiteSpec("intel", scheduler="pbs", cpus=8))
        agent = tb.add_agent(AgentSpec("alice"))
        agent.gridmanager.broker = MatchmakingBroker(
            agent.host, "mds", requirements='TARGET.Arch == "ALPHA"')
        tb.run(until=200.0)
        jid = agent.submit(JobDescription(runtime=50.0))
        tb.run(until=1500.0)
        assert agent.status(jid).state == "UNSUBMITTED"
