"""Cost accounting (§1) and condor_prio job priorities."""

import pytest

from repro import GridTestbed, JobDescription
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def test_cost_report_charges_per_site_rates():
    tb = GridTestbed(TestbedConfig(seed=77, use_gsi=True))
    tb.add_site(SiteSpec("cheap", scheduler="pbs", cpus=4, allocation_cost=1.0))
    tb.add_site(SiteSpec("pricey", scheduler="pbs", cpus=4, allocation_cost=10.0))
    agent = tb.add_agent(AgentSpec("alice"))
    # one CPU-hour at each site
    agent.submit(JobDescription(runtime=3600.0), resource="cheap-gk")
    agent.submit(JobDescription(runtime=3600.0), resource="pricey-gk")
    tb.run_until_quiet(max_time=10**5)
    report = tb.cost_report("alice")
    assert report["cheap"] == pytest.approx(1.0, rel=0.01)
    assert report["pricey"] == pytest.approx(10.0, rel=0.01)
    assert report["total"] == pytest.approx(11.0, rel=0.01)


def test_cost_report_ignores_other_users():
    tb = GridTestbed(TestbedConfig(seed=77, use_gsi=True))
    tb.add_site(SiteSpec("site", scheduler="pbs", cpus=4, allocation_cost=2.0))
    alice = tb.add_agent(AgentSpec("alice"))
    bob = tb.add_agent(AgentSpec("bob"))
    alice.submit(JobDescription(runtime=1800.0), resource="site-gk")
    bob.submit(JobDescription(runtime=3600.0), resource="site-gk")
    tb.run_until_quiet(max_time=10**5)
    assert tb.cost_report("alice")["total"] == pytest.approx(1.0,
                                                             rel=0.01)
    assert tb.cost_report("bob")["total"] == pytest.approx(2.0, rel=0.01)


def test_job_prio_reorders_idle_queue():
    from repro.condor import Schedd, build_pool
    from repro.sim import Host, Network, Simulator

    sim = Simulator(seed=78)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=1, cycle_interval=10.0)
    submit = Host(sim, "submit")
    schedd = Schedd(submit, collector=pool.collector_contact)
    first = schedd.submit_simple("u", runtime=60.0)
    urgent = schedd.submit_simple("u", runtime=60.0)
    sim.run(until=5.0)        # before any negotiation cycle
    assert schedd.set_job_prio(urgent, 10)
    sim.run(until=2000.0)
    assert schedd.status(urgent).state == "COMPLETED"
    assert schedd.status(first).state == "COMPLETED"
    # the single slot ran the urgent job first despite later submission
    assert schedd.status(urgent).start_time < \
        schedd.status(first).start_time


def test_set_prio_unknown_job():
    from repro.condor import Schedd
    from repro.sim import Host, Network, Simulator

    sim = Simulator(seed=78)
    Network(sim, latency=0.02, jitter=0.0)
    schedd = Schedd(Host(sim, "s"))
    assert schedd.set_job_prio("404.0", 5) is False


@pytest.mark.parametrize("use_gsi", [False, True])
def test_accounting_matches_a_user_by_identity_not_by_substring(use_gsi):
    """``u1`` is a substring of ``u10``'s submit host and gridmap
    account; only ``u10`` runs, so only ``u10`` is charged."""
    from repro.grid.metrics import user_rollup

    tb = GridTestbed(TestbedConfig(seed=77, use_gsi=use_gsi))
    tb.add_site(SiteSpec("s", scheduler="pbs", cpus=4, allocation_cost=1.0))
    tb.add_agent(AgentSpec("u1"))
    u10 = tb.add_agent(AgentSpec("u10"))
    u10.submit(JobDescription(runtime=3600.0), resource="s-gk")
    tb.run_until_quiet(max_time=10**5)
    assert tb.cost_report("u1") == {"s": 0.0, "total": 0.0}
    assert tb.cost_report("u10")["s"] == pytest.approx(1.0, rel=0.01)
    rollup = user_rollup(tb)
    assert rollup["u1"]["cpu_seconds"] == 0.0
    assert rollup["u1"]["gatekeeper_submits"] == 0.0
    assert rollup["u10"]["cpu_seconds"] == pytest.approx(3600.0, rel=0.01)
    assert rollup["u10"]["gatekeeper_submits"] == 1.0
