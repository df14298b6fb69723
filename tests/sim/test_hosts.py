"""Tests for host crash/restart semantics and stable storage."""

import pytest

from repro.sim import Host, HostDown, SimulationError, Simulator, StableStorage


@pytest.fixture
def sim():
    return Simulator(seed=1)


def test_duplicate_host_name_rejected(sim):
    Host(sim, "a")
    with pytest.raises(SimulationError):
        Host(sim, "a")


def test_crash_kills_processes(sim):
    host = Host(sim, "node1")
    progress = []

    def daemon(sim):
        while True:
            yield sim.timeout(1.0)
            progress.append(sim.now)

    host.spawn(daemon(sim), name="daemon")
    sim.schedule(3.5, lambda: host.crash())
    sim.run(until=10.0)
    assert progress == [1.0, 2.0, 3.0]


def test_crash_clears_services(sim):
    host = Host(sim, "node1")
    host.register_service("svc", object())
    host.crash()
    assert host.get_service("svc") is None
    host.restart()
    assert host.get_service("svc") is None  # volatile: not auto-restored


def test_cannot_spawn_on_down_host(sim):
    host = Host(sim, "node1")
    host.crash()

    def proc(sim):
        yield sim.timeout(1.0)

    with pytest.raises(HostDown):
        host.spawn(proc(sim))


def test_boot_actions_run_on_restart(sim):
    """`boot` runs its function now and again, in registration order,
    at every restart."""
    host = Host(sim, "node1")
    boots = []
    assert host.boot(lambda h: boots.append(h.name) or "built") == "built"
    host.boot(lambda h: boots.append("second"))
    assert boots == ["node1", "second"]
    host.crash()
    host.restart()
    host.crash()
    host.restart()
    assert boots == ["node1", "second"] * 3
    assert host.crash_count == 2


def test_restart_when_up_is_noop(sim):
    host = Host(sim, "node1")
    boots = []
    host.boot(lambda h: boots.append(1))
    host.restart()
    assert boots == [1]


def test_stable_storage_survives_crash(sim):
    host = Host(sim, "node1")
    queue = host.stable.namespace("jobqueue")
    queue.put("job1", {"state": "submitted"})
    host.crash()
    host.restart()
    assert host.stable.namespace("jobqueue").get("job1") == {
        "state": "submitted"}


def test_stable_storage_deep_copies():
    store = StableStorage()
    record = {"nested": [1, 2]}
    store.put("ns", "k", record)
    record["nested"].append(3)          # mutating the original...
    got = store.get("ns", "k")
    assert got == {"nested": [1, 2]}    # ...must not leak into "disk"
    got["nested"].append(99)            # nor mutating what we read back
    assert store.get("ns", "k") == {"nested": [1, 2]}


def test_stable_namespace_listing_sorted():
    store = StableStorage()
    ns = store.namespace("jobs")
    ns.put("b", 2)
    ns.put("a", 1)
    assert ns.keys() == ["a", "b"]
    assert ns.items() == [("a", 1), ("b", 2)]
    ns.delete("a")
    assert ns.keys() == ["b"]
    ns.clear()
    assert ns.keys() == []


def test_crash_trace_recorded(sim):
    host = Host(sim, "gatekeeper")
    host.crash(cause="power")
    host.restart()
    assert sim.trace.contains_sequence("crash", "restart",
                                       component="host:gatekeeper")
