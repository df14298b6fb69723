"""Tests for MDS-2: GRRP soft-state registration and GRIP queries."""

import pytest

from repro.classads import ClassAd
from repro.mds import GIIS, ResourceRegistrar, grip_query, resource_ad
from repro.sim import Host, Network, Simulator


def drive(sim, gen, until=None):
    box = {}

    def wrapper():
        try:
            box["value"] = yield from gen
        except Exception as exc:  # noqa: BLE001
            box["error"] = exc

    sim.spawn(wrapper())
    sim.run(until=until)
    return box


@pytest.fixture
def env():
    sim = Simulator(seed=11)
    Network(sim, latency=0.01, jitter=0.0)
    index_host = Host(sim, "giis-host")
    giis = GIIS(index_host, default_ttl=100.0)
    client = Host(sim, "client")
    return sim, giis, client


def make_ad(name, free=4, lrm="pbs", queued=0):
    return resource_ad(name=name, contact=f"{name}-gk", lrm_type=lrm,
                       total_cpus=8, free_cpus=free, queued_jobs=queued)


def test_register_and_query_all(env):
    sim, giis, client = env

    def scenario():
        from repro.sim import call
        yield from call(client, "giis-host", "giis", "register",
                        ad=make_ad("wisc"))
        yield from call(client, "giis-host", "giis", "register",
                        ad=make_ad("anl"))
        ads = yield from grip_query(client, "giis-host")
        return sorted(ad.eval("Name") for ad in ads)

    box = drive(sim, scenario())
    assert box["value"] == ["anl", "wisc"]


def test_query_with_constraint(env):
    sim, giis, client = env

    def scenario():
        from repro.sim import call
        yield from call(client, "giis-host", "giis", "register",
                        ad=make_ad("busy", free=0, queued=40))
        yield from call(client, "giis-host", "giis", "register",
                        ad=make_ad("idle", free=8))
        ads = yield from grip_query(client, "giis-host",
                                    constraint="FreeCpus > 0")
        return [ad.eval("Name") for ad in ads]

    box = drive(sim, scenario())
    assert box["value"] == ["idle"]


def test_constraint_by_lrm_type(env):
    sim, giis, client = env

    def scenario():
        from repro.sim import call
        for name, lrm in [("a", "pbs"), ("b", "condor"), ("c", "lsf")]:
            yield from call(client, "giis-host", "giis", "register",
                            ad=make_ad(name, lrm=lrm))
        ads = yield from grip_query(
            client, "giis-host",
            constraint='LRMType == "condor" || LRMType == "pbs"')
        return sorted(ad.eval("Name") for ad in ads)

    box = drive(sim, scenario())
    assert box["value"] == ["a", "b"]


def test_registration_expires_without_renewal(env):
    sim, giis, client = env

    def scenario():
        from repro.sim import call
        yield from call(client, "giis-host", "giis", "register",
                        ad=make_ad("ephemeral"), ttl=10.0)
        yield sim.timeout(50.0)
        ads = yield from grip_query(client, "giis-host")
        return len(ads)

    box = drive(sim, scenario())
    assert box["value"] == 0


def test_registrar_renews_and_crash_ages_out():
    sim = Simulator(seed=11)
    Network(sim, latency=0.01, jitter=0.0)
    index_host = Host(sim, "giis-host")
    giis = GIIS(index_host)
    resource = Host(sim, "wisc-gk")
    counter = {"n": 0}

    def ad_source():
        counter["n"] += 1
        return make_ad("wisc", free=counter["n"])

    ResourceRegistrar(resource, "giis-host", ad_source,
                      interval=30.0, ttl=80.0)
    results = {}

    def observer():
        client = Host(sim, "client")
        yield sim.timeout(100.0)
        ads = yield from grip_query(client, "giis-host")
        results["alive"] = len(ads)
        results["dynamic_free"] = ads[0].eval("FreeCpus") if ads else None
        resource.crash()
        yield sim.timeout(200.0)
        ads = yield from grip_query(client, "giis-host")
        results["after_crash"] = len(ads)

    sim.spawn(observer())
    sim.run(until=400.0)
    assert results["alive"] == 1
    assert results["dynamic_free"] > 1       # renewals carry fresh load info
    assert results["after_crash"] == 0       # soft state aged out


def test_registrar_returns_after_host_restart():
    sim = Simulator(seed=11)
    Network(sim, latency=0.01, jitter=0.0)
    index_host = Host(sim, "giis-host")
    GIIS(index_host)
    resource = Host(sim, "wisc-gk")
    resource.boot(lambda h: ResourceRegistrar(
        h, "giis-host", lambda: make_ad("wisc"), interval=20.0, ttl=50.0))
    sim.schedule(10.0, resource.crash)
    sim.schedule(200.0, resource.restart)
    results = {}

    def observer():
        client = Host(sim, "client")
        yield sim.timeout(150.0)
        ads = yield from grip_query(client, "giis-host")
        results["while_down"] = len(ads)
        yield sim.timeout(150.0)
        ads = yield from grip_query(client, "giis-host")
        results["after_restart"] = len(ads)

    sim.spawn(observer())
    sim.run(until=500.0)
    assert results["while_down"] == 0
    assert results["after_restart"] == 1


def test_bad_ad_rejected(env):
    sim, giis, client = env

    def scenario():
        from repro.sim import call
        yield from call(client, "giis-host", "giis", "register",
                        ad=ClassAd({"NotAName": 1}))

    box = drive(sim, scenario())
    assert "error" in box


def test_resource_ad_estimated_wait():
    idle = make_ad("idle", free=4, queued=0)
    busy = make_ad("busy", free=0, queued=16)
    assert idle.eval("EstimatedWait") == 0.0
    assert busy.eval("EstimatedWait") == pytest.approx(2.0)
