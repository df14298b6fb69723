"""Startd tests: the processes it holds and the ad it advertises."""

from repro.classads import match_signature
from repro.condor import COMPLETED, Schedd, build_pool
from repro.condor.startd import BUSY, CLAIMED, UNCLAIMED
from repro.sim import Host, Network, Simulator


def make_env(workers=1, seed=3):
    sim = Simulator(seed=seed)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=workers, cycle_interval=10.0)
    schedd = Schedd(Host(sim, "submit"), collector=pool.collector_contact)
    return sim, pool, schedd


def test_startd_drops_finished_processes():
    """Every job spawns a starter; the finished ones are dropped at the
    next spawn, so what a startd holds does not grow with the jobs it
    has run: a startd holds at most its last starter (its advertise
    tick is a timer, not a process)."""
    sim, pool, schedd = make_env()
    [startd] = pool.startds
    ids = [schedd.submit_simple("alice", runtime=20.0) for _ in range(25)]
    sim.run(until=4000.0)
    assert all(schedd.status(i).state == COMPLETED for i in ids)
    assert [p.name for p in startd._procs] \
        in ([], [f"starter:{startd.startd_name}"])


def test_a_crashed_startd_stops_advertising_and_its_ad_is_reaped(
        monkeypatch):
    sim, pool, _schedd = make_env(workers=2)
    victim, other = pool.startds
    key = ("startd", victim.startd_name)
    sent = []
    send_leg = Network.send_leg

    def spy(net, src, dst, service, item, *rest):
        if item.name == "request" and item.method == "advertise":
            sent.append((item.caller, item.args["ad"].get("Name")))
        return send_leg(net, src, dst, service, item, *rest)

    monkeypatch.setattr(Network, "send_leg", spy)
    sim.run(until=100.0)
    assert (victim.host.name, victim.startd_name) in sent
    assert key in pool.collector._ads
    victim.crash()
    crashed = len(sent)
    ttl = 3 * victim.ADVERTISE_INTERVAL
    sim.run(until=100.0 + ttl + 2 * other.ADVERTISE_INTERVAL)
    assert [name for _host, name in sent[crashed:]
            if name == victim.startd_name] == []
    assert ("startd", other.startd_name) in pool.collector._ads
    assert key not in pool.collector._ads
    assert sim.metrics.counter("collector.expired_reaped").value >= 1


def _advertised(pool, startd):
    return pool.collector._ads[("startd", startd.startd_name)][0]


def test_unchanged_startd_resends_the_same_ad():
    sim, pool, _schedd = make_env()
    [startd] = pool.startds
    sim.run(until=1.0)
    first = _advertised(pool, startd)
    assert first.get("State") == UNCLAIMED and first is startd._current_ad()
    sim.run(until=3 * startd.ADVERTISE_INTERVAL + 1.0)
    assert _advertised(pool, startd) is first


def test_state_change_sends_the_ad_of_that_state():
    sim, pool, _schedd = make_env()
    [startd] = pool.startds
    unclaimed = startd._current_ad()
    assert startd.handle_request_claim(None, "submit", "1.0", "shadow:1.0")
    claimed = startd._current_ad()
    assert claimed is not unclaimed and claimed.get("State") == CLAIMED
    assert unclaimed.get("State") == UNCLAIMED          # the sent ad is a value
    assert startd._current_ad() is claimed
    startd.handle_release_claim(None)
    again = startd._current_ad()
    assert again is unclaimed
    assert startd.state != BUSY


def test_a_slot_resends_each_state_ad_it_already_built():
    """Unclaimed -> Claimed -> Busy -> Unclaimed -> Claimed builds three
    ads, one per state, each with its match signature kept."""
    sim, pool, _schedd = make_env()
    [startd] = pool.startds
    unclaimed = startd._current_ad()
    signature = match_signature(unclaimed)
    seen = []
    for _ in range(2):
        assert startd.handle_request_claim(None, "submit", "1.0",
                                           "shadow:1.0")
        seen.append(startd._current_ad())
        startd._move(BUSY)
        seen.append(startd._current_ad())
        startd._move(UNCLAIMED)
        seen.append(startd._current_ad())
    assert [ad.get("State") for ad in seen[:3]] == [CLAIMED, BUSY, UNCLAIMED]
    assert all(a is b for a, b in zip(seen[:3], seen[3:]))
    assert seen[2] is unclaimed and match_signature(seen[2]) is signature
    assert len(startd._adverts) == 3
