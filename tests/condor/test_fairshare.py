"""Negotiator fair-share across submitters."""

import pytest

from repro.condor import Schedd, build_pool
from repro.sim import Host, Network, Simulator


def test_two_submitters_share_a_small_pool():
    sim = Simulator(seed=59)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=2, cycle_interval=10.0)
    hog_host = Host(sim, "hog-submit")
    meek_host = Host(sim, "meek-submit")
    hog = Schedd(hog_host, name="hog", collector=pool.collector_contact)
    meek = Schedd(meek_host, name="meek",
                  collector=pool.collector_contact)
    # the hog floods first; the meek user arrives a bit later
    hog_ids = [hog.submit_simple("hog", runtime=100.0)
               for _ in range(12)]
    sim.run(until=150.0)
    meek_ids = [meek.submit_simple("meek", runtime=100.0)
                for _ in range(3)]
    sim.run(until=4000.0)
    assert all(hog.status(j).state == "COMPLETED" for j in hog_ids)
    assert all(meek.status(j).state == "COMPLETED" for j in meek_ids)
    # fair-share: the meek user's jobs did not wait for the hog's whole
    # backlog (12 jobs / 2 slots = 600s); they got slots promptly
    meek_last = max(meek.status(j).end_time for j in meek_ids)
    hog_last = max(hog.status(j).end_time for j in hog_ids)
    assert meek_last < hog_last


def test_usage_decays_over_time():
    sim = Simulator(seed=59)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=1, cycle_interval=10.0)
    submit = Host(sim, "s1")
    schedd = Schedd(submit, name="u1", collector=pool.collector_contact)
    schedd.submit_simple("u1", runtime=50.0)
    sim.run(until=500.0)
    usage_after_run = pool.negotiator.usage.get("u1", 0.0)
    assert usage_after_run > 0.0
    sim.run(until=5000.0)
    assert pool.negotiator.usage.get("u1", 0.0) < usage_after_run


def test_fully_decayed_usage_entries_are_pruned():
    sim = Simulator(seed=59)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=1, cycle_interval=10.0)
    submit = Host(sim, "s1")
    schedd = Schedd(submit, name="u1", collector=pool.collector_contact)
    schedd.submit_simple("u1", runtime=50.0)
    sim.run(until=500.0)
    assert pool.negotiator.usage.get("u1", 0.0) > 0.0
    # half-life is 20 cycles of 10s; a few thousand cycles decays a
    # usage of ~1 far below the 1e-9 pruning floor
    sim.run(until=700_000.0)
    assert "u1" not in pool.negotiator.usage


def test_nameless_submitter_ads_are_skipped():
    from repro.classads import ClassAd

    sim = Simulator(seed=3)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=1, cycle_interval=10.0)
    ghost = ClassAd()
    ghost["Name"] = "ghost"
    ghost["IdleJobs"] = 3
    ghost["ScheddHost"] = "nowhere"
    pool.collector.handle_advertise(None, "submitter", ghost, ttl=100_000.0)
    # corrupt the stored ad: queries now return a nameless ad
    _stored, expiry = pool.collector._ads[("submitter", "ghost")]
    nameless = ClassAd({"IdleJobs": 3, "ScheddHost": "nowhere"})
    pool.collector._ads[("submitter", "ghost")] = (nameless, expiry)
    sim.run(until=100.0)
    assert sim.trace.select("negotiator", "nameless_submitter")
    assert sim.metrics.counter("negotiator.nameless_submitters").value == \
        len(sim.trace.select("negotiator", "nameless_submitter"))
    # the old code would have charged usage to the "None" key
    assert "None" not in pool.negotiator.usage


def test_usage_keys_are_submitter_names():
    sim = Simulator(seed=59)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=2, cycle_interval=10.0)
    host_a = Host(sim, "ha")
    host_b = Host(sim, "hb")
    a = Schedd(host_a, name="usera", collector=pool.collector_contact)
    b = Schedd(host_b, name="userb", collector=pool.collector_contact)
    a.submit_simple("usera", runtime=40.0)
    b.submit_simple("userb", runtime=40.0)
    sim.run(until=300.0)
    assert set(pool.negotiator.usage) <= {"usera", "userb"}
    assert pool.negotiator.usage.get("usera", 0.0) > 0.0
    assert pool.negotiator.usage.get("userb", 0.0) > 0.0
