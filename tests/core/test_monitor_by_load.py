"""The Grid Monitor as a site's load rises and falls (§5.1).

An agent with ``AgentSpec(grid_monitor=True)`` launches one monitor per
site with its first job there.  More jobs arriving later launch no
second one and bring back no status asks; jobs leaving do not stop the
stream either: it carries the last of them to the end, and then the
monitor retires itself.
"""

from repro import GridTestbed, JobDescription
from repro.chaos.invariants import evaluate_invariants
from repro.gram.client import Gram2Client
from repro.grid.config import AgentSpec, SiteSpec, TestbedConfig


def make_tb(seed=31, sites=("s0",), cpus=8):
    tb = GridTestbed(TestbedConfig(seed=seed))
    for name in sites:
        tb.add_site(SiteSpec(name, scheduler="pbs", cpus=cpus))
    return tb, tb.add_agent(AgentSpec("alice", grid_monitor=True))


def submit(agent, n, site="s0", runtime=600.0):
    return [agent.submit(JobDescription(runtime=runtime),
                         resource=f"{site}-gk") for _ in range(n)]


def record_calls(monkeypatch, method):
    """Times and contacts of every ``Gram2Client.<method>`` call."""
    calls, real = [], getattr(Gram2Client, method)

    def recorded(self, contact, *args, **kwargs):
        calls.append((self.sim.now, contact))
        return (yield from real(self, contact, *args, **kwargs))

    monkeypatch.setattr(Gram2Client, method, recorded)
    return calls


def site(agent, contact="s0-gk"):
    return agent.gridmanager.sites[contact]


def drain(tb, agent, cap=20_000.0):
    while tb.sim.now < cap and \
            not all(s.is_terminal for s in agent.statuses()):
        tb.run(until=tb.sim.now + 200.0)
    assert all(s.is_complete for s in agent.statuses())


def test_crossing_launches_once_per_site_and_status_stops_there(monkeypatch):
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb(sites=("s0", "s1"))
    submit(agent, 3, "s0")
    submit(agent, 3, "s1")
    tb.run(until=200.0)
    assert sorted(contact for _t, contact in started) == ["s0-gk", "s1-gk"]
    # the load at s0 crosses 32 in flight: still one monitor there
    submit(agent, 33, "s0")
    tb.run(until=400.0)
    assert len(site(agent).inflight) == 36

    assert sorted(contact for _t, contact in started) == ["s0-gk", "s1-gk"]
    assert asked == []
    starts = tb.sim.metrics.counter("gridmanager.monitor_starts")
    assert starts.labelled("ok") == 2 and starts.value == 2
    assert tb.sim.metrics.counter("gridmanager.monitor_reports").value > 0
    assert site(agent).fresh(tb.sim.now)


def test_the_monitor_outlives_the_load_and_retires_itself(monkeypatch):
    started = record_calls(monkeypatch, "start_monitor")
    asked = record_calls(monkeypatch, "status")
    tb, agent = make_tb()
    for runtime in (100.0, 100.0, 100.0, 900.0, 1000.0):
        submit(agent, 1, runtime=runtime)
    gk = tb.sites["s0"].gk_host
    tb.run(until=500.0)
    # three of five jobs are gone: the monitor is kept
    assert len(site(agent).inflight) == 2
    assert any(name.startswith("monitor:") for name in gk.services)
    assert site(agent).fresh(tb.sim.now)
    drain(tb, agent)
    # ... and its report stream carried the last two to the end
    assert len(started) == 1 and asked == []
    assert evaluate_invariants(tb) == []
    tb.run(until=tb.sim.now + 600.0)
    assert not any(name.startswith("monitor:") for name in gk.services)
    assert tb.sim.trace.select("monitor:submit-alice", "retire")
    assert len(started) == 1
