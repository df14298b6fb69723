"""Gatekeeper admission control: token-bucket rate limits and LRM
queue-depth backpressure.

A refusal is typed (``Refusal.RATE`` / ``Refusal.DEPTH``) and carries
the site's ``retry_after``, so a throttled submission takes the
GridManager's congestion-backoff path -- no retry attempt consumed,
resubmit after the wait the site asked for -- and a burst that would
have melted the gatekeeper (the paper's §6 overload incident) drains
instead.
"""

import pytest

from repro import GridTestbed, JobDescription
from repro.gram import GatekeeperBusy, GramJobRequest, Refusal
from repro.grid.config import (AdmissionPolicy, AgentSpec, SiteSpec,
                               TestbedConfig)

from .conftest import MiniGrid


def make_tb(admission, seed=41, cpus=8):
    tb = GridTestbed(TestbedConfig(seed=seed))
    tb.add_site(SiteSpec("busy", scheduler="pbs", cpus=cpus,
                         admission=admission))
    agent = tb.add_agent(AgentSpec("alice", personal_pool=False))
    return tb, agent


def _burst(agent, n, runtime=50.0):
    return [agent.submit(JobDescription(runtime=runtime),
                         resource="busy-gk")
            for _ in range(n)]


@pytest.mark.parametrize("policy, reason", [
    (AdmissionPolicy(rate=0.01, burst=1), Refusal.RATE),
    (AdmissionPolicy(max_queue=0), Refusal.DEPTH),
])
def test_admission_refusals_are_typed(policy, reason):
    grid = MiniGrid(seed=5, slots=8)
    grid.gatekeeper.admission = policy
    grid.gatekeeper._tokens = float(policy.burst)
    refusals = []

    def scenario():
        for seq in range(3):
            try:
                yield from grid.client.submit_phase1(
                    "site-gk", GramJobRequest(runtime=10.0), seq=seq)
            except GatekeeperBusy as busy:
                refusals.append(busy)

    grid.drive(scenario())
    assert refusals and {busy.reason for busy in refusals} == {reason}
    assert {busy.retry_after for busy in refusals} == \
        {grid.gatekeeper.RETRY_AFTER}
    assert {busy.user_limit for busy in refusals} == {None}


def test_rate_limit_rejects_then_all_jobs_complete():
    tb, agent = make_tb(AdmissionPolicy(rate=0.05, burst=2))
    jids = _burst(agent, 8)
    tb.run_until_quiet()
    assert all(agent.status(j).is_complete for j in jids)
    rejects = tb.sim.metrics.counter("gatekeeper.admission_rejects")
    assert rejects.labelled("rate") > 0
    assert tb.sim.metrics.counter("gatekeeper.admission_admits").value >= 8


def test_rejected_submission_consumes_no_attempt():
    tb, agent = make_tb(AdmissionPolicy(rate=0.05, burst=1))
    jids = _burst(agent, 6)
    tb.run_until_quiet()
    # every job completed despite many rejections: the backoff path
    # resubmits without burning the bounded retry budget, so nothing
    # ends up HELD
    assert all(agent.status(j).is_complete for j in jids)
    assert not [j for j in agent.scheduler.jobs.values()
                if j.state == "HELD"]
    assert tb.sim.trace.select("gatekeeper:busy",
                               "admission_rejected_rate")


def test_depth_backpressure_rejects_until_lrm_drains():
    tb, agent = make_tb(
        AdmissionPolicy(max_queue=2, poll_interval=5.0), cpus=1)
    # first wave fills the one-cpu LRM; the poller samples the depth;
    # the second wave then bounces off the backpressure gate
    jids = _burst(agent, 6, runtime=30.0)
    tb.run(until=20.0)
    jids += _burst(agent, 6, runtime=30.0)
    tb.run_until_quiet()
    assert all(agent.status(j).is_complete for j in jids)
    rejects = tb.sim.metrics.counter("gatekeeper.admission_rejects")
    assert rejects.labelled("depth") > 0


def test_admission_state_resets_across_gatekeeper_crash():
    tb, agent = make_tb(AdmissionPolicy(rate=0.1, burst=2,
                                        max_queue=50, poll_interval=5.0))
    jids = _burst(agent, 6)
    tb.run(until=100.0)
    gk_host = tb.sites["busy"].gk_host
    tb.failures.crash_host_at(120.0, gk_host, down_for=60.0)
    tb.run_until_quiet()
    # the rebooted gatekeeper re-arms admission (fresh bucket, fresh
    # depth poller) and the burst still drains to completion
    assert all(agent.status(j).is_complete for j in jids)
    gk = gk_host.get_service("gatekeeper")
    assert gk.admission is not None
    assert gk.admission.rate == 0.1


def test_no_admission_policy_means_no_gating():
    tb, agent = make_tb(None)
    jids = _burst(agent, 5)
    tb.run_until_quiet()
    assert all(agent.status(j).is_complete for j in jids)
    rejects = tb.sim.metrics.counter("gatekeeper.admission_rejects")
    assert rejects.value == 0
    assert tb.sim.metrics.counter("gatekeeper.admission_admits").value == 0
