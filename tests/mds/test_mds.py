"""Tests for MDS-2: GRRP soft-state registration and GRIP queries, both
spoken to the Collector on the index host."""

from types import SimpleNamespace

import pytest

from repro.classads import ClassAd
from repro.condor import Collector
from repro.grid.testbed import GIIS_HOST
from repro.mds import ResourceRegistrar, resource_ad
from repro.mds.schema import GRID_ADTYPE
from repro.sim import Host, Network, Simulator, call
from repro.sim.errors import SimulationError


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


def index(sim) -> Collector:
    """The MDS index: a Collector on the index host."""
    return Host(sim, GIIS_HOST).boot(Collector)


@pytest.fixture
def env():
    sim = Simulator(seed=11)
    Network(sim, latency=0.01, jitter=0.0)
    index(sim)
    client = Host(sim, "client")
    return sim, collector(sim), client


def collector(sim) -> Collector:
    """The index host's live Collector (a restart builds a new one)."""
    return sim.hosts[GIIS_HOST].get_service("collector")


def register(client, ad, ttl=None):
    return call(client, GIIS_HOST, "collector", "advertise",
                adtype=GRID_ADTYPE, ad=ad, ttl=ttl)


def query(client, constraint="true"):
    return call(client, GIIS_HOST, "collector", "query",
                adtype=GRID_ADTYPE, constraint=constraint)


def make_ad(name, free=4, lrm="pbs", queued=0):
    return resource_ad(name=name, contact=f"{name}-gk", lrm_type=lrm,
                       total_cpus=8, free_cpus=free, queued_jobs=queued)


def test_register_and_query_all(env):
    sim, _, client = env

    def scenario():
        yield from register(client, make_ad("wisc"))
        yield from register(client, make_ad("anl"))
        ads = yield from query(client)
        return sorted(ad.eval("Name") for ad in ads)

    box = drive(sim, scenario())
    assert box["value"] == ["anl", "wisc"]


def test_query_with_constraint(env):
    sim, _, client = env

    def scenario():
        yield from register(client, make_ad("busy", free=0, queued=40))
        yield from register(client, make_ad("idle", free=8))
        ads = yield from query(client, constraint="FreeCpus > 0")
        return [ad.eval("Name") for ad in ads]

    box = drive(sim, scenario())
    assert box["value"] == ["idle"]


def test_constraint_by_lrm_type(env):
    sim, _, client = env

    def scenario():
        for name, lrm in [("a", "pbs"), ("b", "condor"), ("c", "lsf")]:
            yield from register(client, make_ad(name, lrm=lrm))
        ads = yield from query(
            client, constraint='LRMType == "condor" || LRMType == "pbs"')
        return sorted(ad.eval("Name") for ad in ads)

    box = drive(sim, scenario())
    assert box["value"] == ["a", "b"]


def test_registration_expires_without_renewal(env):
    sim, _, client = env

    def scenario():
        yield from register(client, make_ad("ephemeral"), ttl=10.0)
        yield sim.timeout(50.0)
        ads = yield from query(client)
        return len(ads)

    box = drive(sim, scenario())
    assert box["value"] == 0


def test_registrar_renews_and_crash_ages_out():
    sim = Simulator(seed=11)
    Network(sim, latency=0.01, jitter=0.0)
    index(sim)
    resource = Host(sim, "wisc-gk")
    counter = {"n": 0}

    def ad_source():
        counter["n"] += 1
        return make_ad("wisc", free=counter["n"])

    ResourceRegistrar(resource, GIIS_HOST, ad_source)
    results = {}

    def observer():
        client = Host(sim, "client")
        yield sim.timeout(100.0)
        ads = yield from query(client)
        results["alive"] = len(ads)
        results["dynamic_free"] = ads[0].eval("FreeCpus") if ads else None
        resource.crash()
        yield sim.timeout(200.0)
        ads = yield from query(client)
        results["after_crash"] = len(ads)

    sim.spawn(observer())
    sim.run(until=400.0)
    assert results["alive"] == 1
    assert results["dynamic_free"] > 1       # renewals carry fresh load info
    assert results["after_crash"] == 0       # soft state aged out


def test_registrar_returns_after_host_restart():
    sim = Simulator(seed=11)
    Network(sim, latency=0.01, jitter=0.0)
    index(sim)
    resource = Host(sim, "wisc-gk")
    resource.boot(lambda h: ResourceRegistrar(
        h, GIIS_HOST, lambda: make_ad("wisc")))
    sim.schedule(10.0, resource.crash)
    sim.schedule(200.0, resource.restart)
    results = {}

    def observer():
        client = Host(sim, "client")
        yield sim.timeout(170.0)     # the t=0 registration lapsed at 150
        ads = yield from query(client)
        results["while_down"] = len(ads)
        yield sim.timeout(150.0)
        ads = yield from query(client)
        results["after_restart"] = len(ads)

    sim.spawn(observer())
    sim.run(until=500.0)
    assert results["while_down"] == 0
    assert results["after_restart"] == 1


def test_a_crashed_sites_ad_is_reaped_once_its_ttl_lapses():
    """The index reaps what it no longer answers with: a crashed site's
    ad leaves the registry once its ttl lapses, and the reap is counted
    by ``collector.expired_reaped``."""
    sim = Simulator(seed=11)
    Network(sim, latency=0.01, jitter=0.0)
    index(sim)
    sites = {name: Host(sim, f"{name}-gk") for name in ("anl", "wisc")}
    for name, host in sites.items():
        ResourceRegistrar(host, GIIS_HOST, lambda name=name: make_ad(name))
    sim.run(until=100.0)
    assert len(collector(sim)._ads) == 2
    sites["wisc"].crash()       # last renewed at ~60 s: lapses at ~210 s
    sim.run(until=215.0)
    reaped = sim.metrics.counter("collector.expired_reaped").value
    assert len(collector(sim)._ads) == 2 and reaped == 0    # lazy sweep
    sim.run(until=245.0)        # anl's renewal at ~240 s sweeps the registry
    assert list(collector(sim)._ads) == [(GRID_ADTYPE, "anl")]
    assert sim.metrics.counter("collector.expired_reaped").value == 1


@pytest.mark.parametrize("bad_source", ["raises", "undeclared-type"])
def test_a_local_fault_stops_the_registrar_instead_of_being_retried(
        bad_source):
    """Only a lost or refused registration is retried.  An ad source that
    raises, or returns a value of a type that may not cross a wire, is
    the resource's own fault: it used to be swallowed and retried every
    60 s, and now ends the registrar like any daemon fault."""
    sim = Simulator(seed=11)
    Network(sim, latency=0.01, jitter=0.0)
    index(sim)

    def ad_source():
        if bad_source == "raises":
            raise SimulationError("the LRM has no queue_info")
        return SimpleNamespace(Name="wisc")

    ResourceRegistrar(Host(sim, "wisc-gk"), GIIS_HOST, ad_source)
    with pytest.raises(SimulationError, match="grrp:wisc-gk"):
        sim.run(until=300.0)
    assert collector(sim)._ads == {}


def test_bad_ad_rejected(env):
    sim, _, client = env

    def scenario():
        yield from register(client, ClassAd({"NotAName": 1}))

    box = drive(sim, scenario())
    assert "error" in box


def test_resource_ad_estimated_wait():
    idle = make_ad("idle", free=4, queued=0)
    busy = make_ad("busy", free=0, queued=16)
    assert idle.eval("EstimatedWait") == 0.0
    assert busy.eval("EstimatedWait") == pytest.approx(2.0)


def test_a_plain_dict_is_refused_at_the_door(env):
    sim, coll, client = env

    def scenario():
        yield from register(client, {"Name": "evil"})

    box = drive(sim, scenario())
    assert "error" in box and coll.live_ads(GRID_ADTYPE) == []


def test_a_refused_registration_leaves_the_brokers_running():
    """The dict an index kept used to kill the next broker query (and
    with it the user's GridManager) with an AttributeError."""
    from repro.grid.scenarios import get_scenario

    tb = get_scenario("quickstart").build(0)
    coll = collector(tb.sim)
    with pytest.raises(TypeError):
        coll.handle_advertise(None, GRID_ADTYPE, ad={"Name": "evil"})
    tb.run(until=4000.0)
    statuses = tb.agents["alice"].statuses()
    assert statuses and all(s.is_complete for s in statuses)
