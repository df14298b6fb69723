"""Tests for failure injection and the trace utilities."""

import pytest

from repro.sim import FailureInjector, Host, Network, Simulator


@pytest.fixture
def env():
    sim = Simulator(seed=19)
    net = Network(sim, latency=0.01, jitter=0.0)
    a = Host(sim, "a")
    b = Host(sim, "b")
    return sim, net, a, b


class TestFailureInjector:
    def test_crash_and_restart_schedule(self, env):
        sim, net, a, b = env
        inj = FailureInjector(sim)
        inj.crash_host_at(10.0, a, down_for=5.0)
        sim.run(until=9.0)
        assert a.up
        sim.run(until=12.0)
        assert not a.up
        sim.run(until=20.0)
        assert a.up
        kinds = [e.kind for e in inj.injected]
        assert kinds == ["crash", "restart"]

    def test_partition_and_heal(self, env):
        sim, net, a, b = env
        inj = FailureInjector(sim)
        inj.partition_at(5.0, "a", "b", heal_after=10.0)
        sim.run(until=6.0)
        assert not net.reachable("a", "b")
        sim.run(until=16.0)
        assert net.reachable("a", "b")
        # Recovery is an injected event too: post-hoc analysis needs the
        # outage *window*, not just its start.
        assert [(e.kind, e.target) for e in inj.injected] == \
            [("partition", "a|b"), ("heal", "a|b")]

    def test_isolation(self, env):
        sim, net, a, b = env
        inj = FailureInjector(sim)
        inj.isolate_at(5.0, "a", rejoin_after=10.0)
        sim.run(until=6.0)
        assert not net.reachable("a", "b")
        assert not net.reachable("b", "a")
        sim.run(until=16.0)
        assert net.reachable("a", "b")
        assert [(e.kind, e.target) for e in inj.injected] == \
            [("isolate", "a"), ("rejoin", "a")]

    def test_crash_service(self, env):
        sim, net, a, b = env
        inj = FailureInjector(sim)
        inj.crash_service_at(5.0, a, "jm:")       # nothing matches
        sim.run(until=6.0)
        assert [e.kind for e in inj.injected] == ["crash_service_miss"]

    def test_custom_event_records_and_fires(self, env):
        sim, net, a, b = env
        inj = FailureInjector(sim)
        fired = []
        inj.custom_at(7.0, "proxy_expire", "alice",
                      lambda: fired.append(sim.now), note="drill")
        sim.run(until=10.0)
        assert fired == [7.0]
        event = inj.injected[0]
        assert (event.kind, event.target) == ("proxy_expire", "alice")
        assert event.extra == {"note": "drill"}
        assert sim.trace.select("failures", "proxy_expire",
                                target="alice")


class TestTrace:
    def test_select_filters(self, env):
        sim, net, a, b = env
        sim.trace.log("comp", "ev1", x=1)
        sim.trace.log("comp", "ev2", x=2)
        sim.trace.log("other", "ev1", x=3)
        assert len(sim.trace.select("comp")) == 2
        assert len(sim.trace.select(None, "ev1")) == 2
        assert len(sim.trace.select("comp", "ev1", x=1)) == 1
        assert len(sim.trace.select("comp", "ev1", x=999)) == 0

    def test_subscribe(self, env):
        sim, net, a, b = env
        seen = []
        sim.trace.subscribe(lambda rec: seen.append(rec.event))
        sim.trace.log("c", "hello")
        assert seen == ["hello"]
