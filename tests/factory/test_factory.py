"""GlideInFactory: autoscaling the personal pool from queue pressure.

Covers the control loop's observe/decide/act cycle end to end on a real
testbed: scale-up from queue depth, the min-glidein floor, idle reaping
after the queue drains, lease renewal ahead of the walltime kill, the
max-glidein budget, and recovery from a factory crash mid-scale-up.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.factory import FactoryPolicy, GlideInFactory
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(policy, seed=31, cpus=8, n_sites=1):
    tb = GridTestbed(TestbedConfig(seed=seed))
    for i in range(n_sites):
        tb.add_site(SiteSpec(f"site{i}", scheduler="pbs", cpus=cpus,
                             factory=policy))
    agent = tb.add_agent(AgentSpec("alice"))
    return tb, agent


def _vanilla(runtime=60.0):
    return JobDescription(runtime=runtime, universe="vanilla")


def _live_startds(agent):
    return [s for s in agent.glideins.live_startds
            if s.host.get_service(s.name) is s]


def test_testbed_attaches_factory_when_policy_declared():
    tb, agent = make_tb(FactoryPolicy())
    assert isinstance(agent.factory, GlideInFactory)
    assert agent.host.get_service("factory:alice") is agent.factory


def test_no_factory_without_policy_or_pool():
    tb = GridTestbed(TestbedConfig(seed=1))
    tb.add_site(SiteSpec("plain", scheduler="pbs", cpus=2))
    agent = tb.add_agent(AgentSpec("bob"))
    assert agent.factory is None

    tb2 = GridTestbed(TestbedConfig(seed=1))
    tb2.add_site(SiteSpec("auto", scheduler="pbs", cpus=2,
                          factory=FactoryPolicy()))
    no_pool = tb2.add_agent(AgentSpec("carol", personal_pool=False))
    assert no_pool.factory is None


def test_scales_up_on_queue_depth_and_jobs_complete():
    policy = FactoryPolicy(max_glideins=4, interval=15.0,
                           scale_up_cooldown=30.0, lease=50_000.0)
    tb, agent = make_tb(policy)
    jids = [agent.submit(_vanilla(100.0)) for _ in range(3)]
    tb.run_until_quiet()
    assert all(agent.status(j).is_complete for j in jids)
    assert tb.sim.metrics.counter("factory.provisioned").value >= 1
    assert tb.sim.metrics.counter("factory.scale_ups").value >= 1


def test_idle_reaping_drains_surplus_after_queue_empties():
    policy = FactoryPolicy(max_glideins=4, interval=15.0,
                           idle_grace=60.0, scale_down_cooldown=30.0,
                           lease=50_000.0, idle_timeout=100_000.0)
    tb, agent = make_tb(policy)
    jids = [agent.submit(_vanilla(80.0)) for _ in range(4)]
    tb.run_until_quiet()
    assert all(agent.status(j).is_complete for j in jids)
    tb.run(until=tb.sim.now + 2000.0)
    assert len(_live_startds(agent)) == 0
    assert tb.sim.metrics.counter("factory.reaped").value >= 1


def test_lease_renewal_provisions_replacement():
    # the job is still busy when its glidein enters the renewal window
    # (expiry - RENEW_MARGIN), so the factory provisions a replacement
    # before the walltime kill could strand follow-on work
    policy = FactoryPolicy(max_glideins=2, interval=15.0,
                           lease=600.0,
                           idle_grace=60.0, idle_timeout=100_000.0)
    tb, agent = make_tb(policy)
    jid = agent.submit(_vanilla(450.0))
    tb.run_until_quiet()
    assert agent.status(jid).is_complete
    assert tb.sim.metrics.counter("factory.renewals").value >= 1
    # renewal provisions on top of the original allocation
    assert tb.sim.metrics.counter("factory.provisioned").value >= 2


def test_max_glideins_caps_provisioning():
    policy = FactoryPolicy(max_glideins=3, max_step=8, interval=15.0,
                           lease=50_000.0, idle_grace=60.0,
                           scale_up_cooldown=15.0)
    tb, agent = make_tb(policy, cpus=16)
    jids = [agent.submit(_vanilla(50.0)) for _ in range(20)]
    tb.run_until_quiet()
    assert all(agent.status(j).is_complete for j in jids)
    # without renewals in play, total provisioned respects the budget
    assert tb.sim.metrics.counter("factory.renewals").value == 0
    assert tb.sim.metrics.counter("factory.provisioned").value <= 3


def test_factory_crash_mid_scale_up_recovers():
    policy = FactoryPolicy(max_glideins=4, max_step=1, interval=15.0,
                           scale_up_cooldown=15.0, lease=50_000.0)
    tb, agent = make_tb(policy)
    jids = [agent.submit(_vanilla(120.0)) for _ in range(4)]
    # let the first cycle act, then kill the daemon mid-scale-up
    tb.run(until=40.0)
    dead = agent.factory
    dead.crash()
    assert agent.host.get_service("factory:alice") is None
    before = tb.sim.metrics.counter("factory.cycles").value
    tb.run(until=400.0)
    # dead daemon: no cycles while down, glideins already up keep serving
    assert tb.sim.metrics.counter("factory.cycles").value == before
    # the operator restart: a fresh daemon over the same sites
    agent.factory = GlideInFactory(agent, dead.sites)
    assert agent.host.get_service("factory:alice") is agent.factory
    tb.run_until_quiet()
    assert all(agent.status(j).is_complete for j in jids)


def test_factory_requires_personal_pool():
    tb = GridTestbed(TestbedConfig(seed=2))
    tb.add_site(SiteSpec("s", scheduler="pbs", cpus=2))
    agent = tb.add_agent(AgentSpec("dave", personal_pool=False))
    with pytest.raises(ValueError):
        GlideInFactory(agent, {"s": ("s-gk", FactoryPolicy())})


