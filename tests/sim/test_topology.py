"""Latency topology tests: the LAN inside a site, the WAN across."""

import pytest

from repro.sim import Host, Network, Service, Simulator, call


class Echo(Service):
    service_name = "echo"

    def handle_ping(self, ctx):
        return "pong"


def rtt(sim, src, dst_name):
    box = {}

    def proc():
        t0 = sim.now
        yield from call(src, dst_name, "echo", "ping", timeout=60.0)
        box["rtt"] = sim.now - t0

    sim.spawn(proc())
    sim.run(until=sim.now + 100.0)
    return box["rtt"]


def test_same_site_rides_the_lan():
    sim = Simulator(seed=3)
    Network(sim, latency=1.0, jitter=0.0)
    a = Host(sim, "a", site="s1")
    b = Host(sim, "b", site="s1")
    Echo(b)
    assert rtt(sim, a, "b") == pytest.approx(2 * 1.0 * 0.2)


def test_cross_site_pays_wan_latency():
    sim = Simulator(seed=3)
    Network(sim, latency=1.0, jitter=0.0)
    a = Host(sim, "a", site="s1")
    b = Host(sim, "b", site="s2")
    Echo(b)
    assert rtt(sim, a, "b") == pytest.approx(2.0)


def test_siteless_hosts_use_wan_default():
    sim = Simulator(seed=3)
    Network(sim, latency=0.5, jitter=0.0)
    a = Host(sim, "a")
    b = Host(sim, "b")
    Echo(b)
    assert rtt(sim, a, "b") == pytest.approx(1.0)
