"""The GridManager watches sites, not jobs (§4.2): every
``PROBE_INTERVAL`` each site with watchable jobs is asked about all of
them in one ``gatekeeper.status``, which is the liveness probe of the
site *and* the state fetch of its jobs.

These tests pin its contract: what it costs, that it costs nothing while
nothing is watchable, that it alone recovers a lost callback, that a
silent site holds up no other site, that a dead JobManager is restarted
without a ping, and that the gatekeeper's authentication makes a lapsed
proxy a hold.
"""

import math

import pytest

from repro import GridTestbed, JobDescription
from repro.core.gridmanager import GridManager
from repro.gram.client import Gram2Client
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig
from repro.sim import rpc


def make_tb(seed=17, cpus=8, sites=("site",), **kw):
    tb = GridTestbed(TestbedConfig(seed=seed, **kw))
    for name in sites:
        tb.add_site(SiteSpec(name, scheduler="pbs", cpus=cpus))
    return tb


def record_asks(monkeypatch):
    """(time, contact, jmids) of every status ask."""
    asked, real = [], Gram2Client.status

    def recorded(self, contact, jmids, done=()):
        asked.append((self.sim.now, contact, tuple(jmids)))
        return (yield from real(self, contact, jmids, done))

    monkeypatch.setattr(Gram2Client, "status", recorded)
    return asked


def test_status_budget_is_one_ask_per_site_per_interval(monkeypatch):
    rpc_stats = {}      # the digest-neutral RPC tally the suite reads
    monkeypatch.setattr(rpc, "RPC_STATS", rpc_stats)
    tb = make_tb(sites=("a", "b", "c"))
    agent = tb.add_agent(AgentSpec("alice"))
    placed = {"a-gk": 4, "b-gk": 2}         # c has nothing to watch
    for contact, n in placed.items():
        for _ in range(n):
            agent.submit(JobDescription(runtime=1000.0), resource=contact)
    horizon = 400.0
    tb.run(until=horizon)

    passes = horizon / GridManager.PROBE_INTERVAL
    asks = rpc_stats[("gatekeeper", "status")]
    assert len(placed) * (math.floor(passes) - 1) <= asks \
        <= len(placed) * math.ceil(passes)
    # nothing per job: no JobManager is asked, no gatekeeper pinged
    assert not [key for key in rpc_stats
                if key[0].startswith("jm:") and key[1] == "status"]
    assert ("gatekeeper", "ping") not in rpc_stats
    # every job of an answer is counted once, as a probe outcome
    outcomes = tb.sim.metrics.counter("gridmanager.probe_outcomes")
    assert outcomes.labelled("alive") == outcomes.value
    assert sum(placed.values()) * (math.floor(passes) - 1) \
        <= outcomes.value <= sum(placed.values()) * math.ceil(passes)


def test_idle_watch_loop_keeps_nothing_on_the_heap(monkeypatch):
    asked = record_asks(monkeypatch)
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    # ends long after the test: no callback moves the held job
    jid = agent.submit(JobDescription(runtime=50_000.0), resource="site-gk")
    tb.run(until=60.0)
    gm = agent.gridmanager
    site = agent.gridmanager.sites["site-gk"]
    [watcher] = [p for p in gm._procs if p.name.startswith("gm-watch")]
    assert site.watcher is watcher and len(gm._procs) == 2
    # HELD is nonterminal (the GridManager stays) but not watchable
    job = agent.queue.jobs[jid]
    agent.gridmanager.credential_problem(job, "parked by the test")
    assert not site.watchable
    asked.clear()

    for until in (100.0, 1000.0, 10_000.0):
        tb.run(until=until)
        parked_on = watcher._target
        # parked on the bare wake event: no timer, nothing scheduled
        assert parked_on is site.wake
        assert not parked_on._scheduled and not parked_on.triggered
    assert asked == []

    released = tb.sim.now
    agent.gridmanager.release_credential_holds()
    tb.run(until=10_100.0)
    assert agent.status(jid).state in ("PENDING", "ACTIVE")
    # roused by the job becoming watchable again, then one plain
    # interval; the same jmid is asked about
    assert asked[0][0] == pytest.approx(
        released + GridManager.PROBE_INTERVAL)
    assert asked[0][2] == (job.jmid,)


def test_dropped_done_callback_is_recovered_by_the_next_pass():
    tb = make_tb()
    site = tb.sites["site"]
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=100.0), resource="site-gk")
    rpc_timeout = agent.gridmanager.client.rpc_timeout
    # the partition swallows the DONE callback (~t=105), and heals
    # inside the JobManager's end-commit window ...
    healed = 50.0 + 100.0
    tb.failures.partition_at(50.0, agent.host.name, site.gk_host.name,
                             heal_after=100.0)
    tb.run(until=healed)
    assert agent.status(jid).state == "ACTIVE"
    assert tb.sim.trace.select("gridmanager", "resource_unreachable")
    tb.run(until=1000.0)

    # ... and the first answer after the heal delivers it: the
    # JobManager was alive all along, so nothing was restarted
    status = agent.status(jid)
    assert status.is_complete and status.attempts == 1
    # (an ask in flight at the heal times out once)
    assert healed < status.end_time <= \
        healed + GridManager.PROBE_INTERVAL + rpc_timeout + 1.0
    outcomes = tb.sim.metrics.counter("gridmanager.probe_outcomes")
    assert outcomes.labelled("restarted") == 0
    assert not tb.sim.trace.select("gridmanager", "jobmanager_restarted")
    assert len(site.lrm.jobs) == 1


def test_a_jobmanager_retired_during_a_partition_is_restarted_not_resubmitted():
    """The partition outlasts the finished JobManager's end-commit
    window, so it retires before the agent hears its end: the first
    answer after the heal leaves it out, the agent restarts it from its
    state record, and the restarted one reports DONE -- one attempt,
    one LRM job."""
    tb = make_tb()
    site = tb.sites["site"]
    agent = tb.add_agent(AgentSpec("alice"))
    jid = agent.submit(JobDescription(runtime=100.0), resource="site-gk")
    tb.failures.partition_at(50.0, agent.host.name, site.gk_host.name,
                             heal_after=250.0)
    tb.run(until=300.0)
    jmid = agent.queue.jobs[jid].jmid
    assert agent.status(jid).state == "ACTIVE"
    assert site.gk_host.get_service(f"jm:{jmid}") is None
    assert [r.details["state"] for r in tb.sim.trace.select(
        f"jobmanager:{jmid}", "retired")] == ["DONE"]
    tb.run(until=1000.0)

    status = agent.status(jid)
    assert status.is_complete and status.attempts == 1
    outcomes = tb.sim.metrics.counter("gridmanager.probe_outcomes")
    assert outcomes.labelled("restarted") == 1
    assert outcomes.labelled("restart_failed") == 0
    assert len(site.lrm.jobs) == 1


def test_a_silent_site_holds_up_no_other_site(monkeypatch):
    """Three jobs at a partitioned site and one at a healthy one, with
    every callback lost, so state arrives only in answers: the healthy
    site is asked every interval on the dot throughout, and its job's
    DONE is applied at the first ask after the job ends."""
    monkeypatch.setattr(GridManager, "handle_gram_callback",
                        lambda self, ctx, **kw: True)
    asked = record_asks(monkeypatch)
    tb = make_tb(sites=("dead", "live"))
    agent = tb.add_agent(AgentSpec("alice"))
    for _ in range(3):
        agent.submit(JobDescription(runtime=900.0), resource="dead-gk")
    jid = agent.submit(JobDescription(runtime=600.0), resource="live-gk")
    tb.failures.partition_at(50.0, agent.host.name, "dead-gk",
                             heal_after=800.0)
    tb.run(until=800.0)

    # one interval plus the answer's round trip, never a dead site's
    # timeout on top
    live = [t for t, contact, _ in asked if contact == "live-gk"]
    assert len(live) >= 600.0 / GridManager.PROBE_INTERVAL - 1
    assert all(GridManager.PROBE_INTERVAL < b - a
               < GridManager.PROBE_INTERVAL + 0.5
               for a, b in zip(live, live[1:]))
    assert tb.sim.trace.select("gridmanager", "resource_unreachable")
    jmid = agent.queue.jobs[jid].jmid
    [done] = [r.time for r in tb.sim.trace.select(f"jobmanager:{jmid}",
                                                   "state")
              if r.details["state"] == "DONE"]
    end = agent.status(jid).end_time
    assert agent.status(jid).is_complete
    assert done < end <= done + GridManager.PROBE_INTERVAL + 1.0
    assert end - 0.5 < min(t for t in live if t > done) < end
    tb.run_until_quiet(max_time=5000.0)
    assert all(s.is_complete for s in agent.statuses())


def test_jm_kill_is_repaired_within_one_interval_without_a_ping(
        monkeypatch):
    rpc_stats = {}
    monkeypatch.setattr(rpc, "RPC_STATS", rpc_stats)
    tb = make_tb()
    agent = tb.add_agent(AgentSpec("alice"))
    ids = [agent.submit(JobDescription(runtime=600.0), resource="site-gk")
           for _ in range(3)]
    killed_at = 100.0
    tb.failures.crash_service_at(killed_at, tb.sites["site"].gk_host, "jm:")
    tb.run_until_quiet(max_time=5000.0)

    assert all(agent.status(j).is_complete for j in ids)
    assert len(tb.sites["site"].lrm.jobs) == 3       # exactly once
    [revived] = tb.sim.trace.select("gatekeeper:site", "jobmanager_restarted")
    # the next pass's answer leaves the JobManager out, and the restart
    # leaves at once: one interval plus one round trip
    assert killed_at < revived.time <= \
        killed_at + GridManager.PROBE_INTERVAL + 1.0
    assert ("gatekeeper", "ping") not in rpc_stats
    outcomes = tb.sim.metrics.counter("gridmanager.probe_outcomes")
    assert outcomes.labelled("silent") == outcomes.labelled("restarted") == 1


def test_a_proxy_lapsing_under_active_jobs_holds_them_and_release_reconnects(
        monkeypatch):
    asked = record_asks(monkeypatch)
    tb = make_tb(use_gsi=True)
    agent = tb.add_agent(AgentSpec("alice", proxy_lifetime=300.0))
    ids = [agent.submit(JobDescription(runtime=900.0), resource="site-gk")
           for _ in range(2)]
    tb.run(until=290.0)
    assert [agent.status(j).state for j in ids] == ["ACTIVE"] * 2
    jmids = [agent.queue.jobs[j].jmid for j in ids]
    tb.run(until=400.0)

    # held at the first pass after the lapse, by the gatekeeper's refusal
    expired = 300.0
    [ask] = [t for t, _c, _j in asked if expired < t <= 400.0][:1]
    assert ask <= expired + GridManager.PROBE_INTERVAL
    for jid in ids:
        status = agent.status(jid)
        assert status.state == "HELD"
        assert "credential problem" in status.hold_reason
    assert agent.notifier.emails_about("credential")
    outcomes = tb.sim.metrics.counter("gridmanager.probe_outcomes")
    assert outcomes.labelled("credential") == 2
    assert tb.sim.metrics.counter("scheduler.credential_holds").value == 2

    fresh = tb.users["alice"].proxy(now=tb.sim.now, lifetime=12 * 3600.0)
    agent.refresh_proxy(fresh)
    tb.run_until_quiet(max_time=5000.0)
    # released to the same JobManagers: no resubmission, one LRM job each
    assert [agent.queue.jobs[j].jmid for j in ids] == jmids
    assert all(agent.status(j).is_complete for j in ids)
    assert [agent.status(j).attempts for j in ids] == [1, 1]
    assert not tb.sim.trace.select("gridmanager", "resubmit")
    assert len(tb.sites["site"].lrm.jobs) == 2
