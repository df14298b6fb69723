"""Replica catalog: register/lookup/invalidate RPCs and persistence."""

import pytest

from repro.data.catalog import ReplicaCatalog, dataset_path
from repro.sim import Host, Network, RemoteError, Simulator
from repro.sim.rpc import call


def drive(sim, gen):
    box = {}

    def wrapper():
        try:
            box["value"] = yield from gen
        except Exception as exc:  # noqa: BLE001
            box["error"] = exc

    sim.spawn(wrapper())
    sim.run()
    return box


@pytest.fixture
def env():
    sim = Simulator(seed=3)
    Network(sim, latency=0.01, jitter=0.0)
    client = Host(sim, "client")
    rls_host = Host(sim, "rls")
    catalog = rls_host.boot(ReplicaCatalog)
    return sim, client, rls_host, catalog


def test_dataset_path_is_canonical():
    assert dataset_path("cms-run0") == "datasets/cms-run0"


def test_register_then_lookup(env):
    sim, client, rls_host, catalog = env

    def scenario():
        yield from call(client, "rls", "rls", "register",
                        name="cal", se_host="alpha-se",
                        size=1000, checksum="abcd")
        entry = yield from call(client, "rls", "rls", "lookup", name="cal")
        return entry

    box = drive(sim, scenario())
    entry = box["value"]
    assert entry["size"] == 1000
    assert entry["checksum"] == "abcd"
    assert entry["replicas"] == {
        "alpha-se": "gsiftp://alpha-se/datasets/cal"}


def test_lookup_miss_is_remote_error(env):
    sim, client, rls_host, catalog = env
    box = drive(sim, call(client, "rls", "rls", "lookup", name="nope"))
    assert isinstance(box["error"], RemoteError)
    assert sim.metrics.counter("catalog.lookups").labelled("miss") == 1


def test_catalog_survives_host_reboot(env):
    """Registrations live in stable storage; the boot action brings the
    daemon back with the full mapping after a machine crash."""
    sim, client, rls_host, catalog = env

    def scenario():
        yield from call(client, "rls", "rls", "register",
                        name="cal", se_host="alpha-se",
                        size=1000, checksum="abcd")
        rls_host.crash()
        yield sim.timeout(5.0)
        rls_host.restart()
        entry = yield from call(client, "rls", "rls", "lookup", name="cal")
        return entry

    box = drive(sim, scenario())
    assert box["value"]["replicas"] == {
        "alpha-se": "gsiftp://alpha-se/datasets/cal"}


def test_seed_and_entry_are_local(env):
    sim, client, rls_host, catalog = env
    catalog.seed("cal", 42, "ffff", replicas={"x-se": "gsiftp://x-se/p"})
    assert catalog.names() == ["cal"]
    entry = catalog.entry("cal")
    assert entry["size"] == 42
    # entry() hands out a copy, not the live record
    entry["replicas"]["evil"] = "nope"
    assert "evil" not in catalog.entry("cal")["replicas"]
    assert catalog.entry("nope") is None
