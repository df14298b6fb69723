"""The GridManager's watch loop (§4.2): one ``status`` RPC per watchable
job per ``PROBE_INTERVAL`` is the liveness probe *and* the state fetch.

These tests pin its contract: what it costs, that it costs nothing while
nothing is watchable, and that it alone recovers a lost callback.
"""

import math

import pytest

from repro import GridTestbed, JobDescription
from repro.core.gridmanager import GridManager
from repro.gram.client import Gram2Client
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.sim import rpc


def make_tb(seed=17, cpus=8):
    tb = GridTestbed(TestbedConfig(seed=seed))
    tb.add_site(SiteSpec("site", scheduler="pbs", cpus=cpus))
    return tb


def test_status_budget_is_one_rpc_per_job_per_interval(monkeypatch):
    rpc_stats = {}      # the digest-neutral RPC tally the suite reads
    monkeypatch.setattr(rpc, "RPC_STATS", rpc_stats)
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    n, horizon = 6, 400.0
    for _ in range(n):
        agent.submit(JobDescription(runtime=1000.0), resource="site-gk")
    tb.run(until=horizon)

    status = sum(count for (service, method), count in rpc_stats.items()
                 if service.startswith("jm:") and method == "status")
    passes = horizon / GridManager.PROBE_INTERVAL
    assert n * (math.floor(passes) - 1) <= status <= n * math.ceil(passes)
    # status is the only per-job question asked: no separate probe RPC,
    # and every answer is counted once, as a probe outcome
    assert not [key for key in rpc_stats if key[1] == "probe"]
    outcomes = tb.sim.metrics.counter("gridmanager.probe_outcomes")
    assert outcomes.labelled("alive") == outcomes.value == status


def test_idle_watch_loop_keeps_nothing_on_the_heap(monkeypatch):
    asked = []
    real_status = Gram2Client.status

    def timed_status(self, contact, jmid):
        asked.append(self.sim.now)
        return (yield from real_status(self, contact, jmid))

    monkeypatch.setattr(Gram2Client, "status", timed_status)
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=500.0), resource="site-gk")
    # HELD is nonterminal (the GridManager stays) but not watchable
    agent.scheduler.hold_for_credentials("parked by the test")
    gm = agent.scheduler.gridmanager
    watchers = [p for p in gm._procs if p.name.startswith("gm-watch")]
    assert len(watchers) == 1 and len(gm._procs) == 2

    for until in (1.0, 100.0, 10_000.0):
        tb.run(until=until)
        parked_on = watchers[0]._target
        # parked on the bare wake event: no timer, nothing scheduled
        assert parked_on is gm._watch_wake
        assert not parked_on._scheduled and not parked_on.triggered
    assert asked == []

    agent.scheduler.release_credential_holds()
    tb.run(until=10_100.0)
    [submitted] = tb.sim.trace.select("gridmanager", "submitted")
    assert agent.status(jid).state in ("PENDING", "ACTIVE")
    # roused by the job becoming watchable, then one plain interval
    assert asked[0] == pytest.approx(
        submitted.time + GridManager.PROBE_INTERVAL)


def test_dropped_done_callback_is_recovered_by_the_next_pass():
    tb = make_tb()
    site = tb.sites["site"]
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=100.0), resource="site-gk")
    rpc_timeout = agent.scheduler.gridmanager.client.rpc_timeout
    # the partition swallows the DONE callback (~t=105) ...
    healed = 50.0 + 250.0
    tb.failures.partition_at(50.0, agent.host.name, site.gk_host.name,
                             heal_after=250.0)
    tb.run(until=healed)
    assert agent.status(jid).state == "ACTIVE"
    assert tb.sim.trace.select("gridmanager", "resource_unreachable")
    tb.run(until=1000.0)

    # ... and the first status answer after the heal delivers it: the
    # JobManager was alive all along, so nothing was restarted
    status = agent.status(jid)
    assert status.is_complete and status.attempts == 1
    # (a pass in flight at the heal: status and ping both time out)
    assert healed < status.end_time <= \
        healed + GridManager.PROBE_INTERVAL + 2 * rpc_timeout + 1.0
    outcomes = tb.sim.metrics.counter("gridmanager.probe_outcomes")
    assert outcomes.labelled("restarted") == 0
    assert not tb.sim.trace.select("gridmanager", "jobmanager_restarted")
    assert len(site.lrm.jobs) == 1
