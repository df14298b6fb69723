"""Schedd/startd claim-reuse fast path."""

from repro.condor import Schedd, build_pool
from repro.condor.startd import CLAIMED, UNCLAIMED
from repro.sim import Host, Network, Simulator


def reuse_pool(seed=59, workers=1, cycle_interval=30.0):
    sim = Simulator(seed=seed)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=workers,
                      cycle_interval=cycle_interval)
    submit = Host(sim, "submit")
    schedd = Schedd(submit, name="dave", collector=pool.collector_contact,
                    claim_reuse=True)
    return sim, pool, schedd


def test_reuse_skips_negotiation_round_trips():
    sim, pool, schedd = reuse_pool(workers=2)
    ids = [schedd.submit_simple("dave", runtime=40.0) for _ in range(8)]
    sim.run(until=2000.0)
    assert all(schedd.status(j).state == "COMPLETED" for j in ids)
    reused = len(sim.trace.select("schedd:dave", "claim_reuse"))
    assert reused >= 4
    held = sum(len(sim.trace.select(s.name, "claim_held"))
               for s in pool.startds)
    assert held >= reused
    assert sim.metrics.counter("schedd.claims_reused").value == reused
    reuse_events = [r for r in sim.trace
                    if r.event == "claim_reuse"]
    assert len(reuse_events) == reused


def test_reuse_prefers_higher_priority_jobs():
    sim, pool, schedd = reuse_pool(workers=1)
    schedd.submit_simple("dave", runtime=100.0)
    sim.run(until=80.0)       # first job is running, slot busy
    low = schedd.submit_simple("dave", runtime=10.0, JobPrio=0)
    high = schedd.submit_simple("dave", runtime=10.0, JobPrio=5)
    sim.run(until=400.0)
    assert schedd.status(low).state == "COMPLETED"
    assert schedd.status(high).state == "COMPLETED"
    assert schedd.status(high).start_time < schedd.status(low).start_time


def test_claim_released_when_queue_has_no_compatible_job():
    sim, pool, schedd = reuse_pool(workers=1)
    schedd.submit_simple("dave", runtime=50.0)
    # an idle job the machine can never satisfy
    picky = schedd.submit_simple("dave", runtime=10.0,
                                 requirements="Mips > 100000")
    sim.run(until=600.0)
    startd = pool.startds[0]
    assert startd.state == UNCLAIMED
    assert not sim.trace.select("schedd:dave", "claim_reuse")
    assert schedd.status(picky).state == "IDLE"
    # the claim was handed back promptly, not leaked until timeout
    events = [r for r in sim.trace
              if r.event == "claim_release"]
    assert events, "schedd never released the held claim"
    assert sim.metrics.counter("startd.claim_timeouts").value == 0


def test_watchdog_times_out_an_abandoned_claim():
    sim, pool, schedd = reuse_pool(workers=1)
    schedd.submit_simple("dave", runtime=50.0)
    sim.run(until=40.0)
    startd = pool.startds[0]
    # sever the schedd's memory of the claim: on job exit the startd
    # holds the claim but nobody ever reuses or releases it
    schedd._claim_ads.clear()
    schedd.claim_reuse = False
    sim.run(until=100.0)
    assert startd.state == CLAIMED
    assert len(sim.trace.select(startd.name, "claim_held")) == 1
    sim.run(until=100.0 + startd.CLAIM_TIMEOUT + 60.0)
    assert startd.state == UNCLAIMED
    assert sim.metrics.counter("startd.claim_timeouts").value == 1


def test_reuse_disabled_by_default():
    sim = Simulator(seed=59)
    Network(sim, latency=0.02, jitter=0.0)
    pool = build_pool(sim, "pool", workers=1, cycle_interval=30.0)
    submit = Host(sim, "submit")
    schedd = Schedd(submit, name="eve", collector=pool.collector_contact)
    ids = [schedd.submit_simple("eve", runtime=20.0) for _ in range(3)]
    sim.run(until=1500.0)
    assert all(schedd.status(j).state == "COMPLETED" for j in ids)
    assert not sim.trace.select("schedd:eve", "claim_reuse")
    assert not sim.trace.select(pool.startds[0].name, "claim_held")
    assert len(sim.trace.select("negotiator", "match")) == 3
